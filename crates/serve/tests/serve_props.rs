//! Behavioural tests of the serving stack against stub scorers: fusion
//! is value-neutral, every accepted request is answered exactly once
//! across shutdown, backpressure rejects instead of blocking, deadlines
//! drop unscored work, and the TCP layer preserves score bits.
//!
//! Bit-identity against the *real* engine (checkpoint → Scorer →
//! served scores vs `evaluate_batched`) lives in the `serve_check` CI
//! gate; these tests pin the transport and scheduling semantics with
//! scorers whose behaviour is fully controlled.

use kgag_data::{GroupLifecycle, GroupStore, LifecycleAck, LifecycleError, LifecycleOp};
use kgag_eval::protocol::BatchGroupScorer;
use kgag_serve::{
    serve_in_process, serve_tcp, serve_tcp_dynamic, ServeClient, ServeConfig, ServeError,
    ShutdownToken,
};
use kgag_testkit::check::Runner;
use kgag_testkit::gen::{u32_in, u64_in, vec_of};
use kgag_testkit::{prop_assert, prop_assert_eq};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Deterministic per-(group, item) score — the reference every test
/// compares served results against.
fn stub_score(group: u32, item: u32) -> f32 {
    let x = (group as u64)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((item as u64).wrapping_mul(0x85eb_ca6b_c2b2_ae35));
    ((x >> 40) as f32) / 16_777_216.0 - 0.5
}

/// Pure stub scorer; also records the size of every fused batch so
/// tests can check `max_batch` is honoured.
struct StubScorer {
    batch_sizes: Mutex<Vec<usize>>,
}

impl StubScorer {
    fn new() -> StubScorer {
        StubScorer { batch_sizes: Mutex::new(Vec::new()) }
    }
}

impl BatchGroupScorer for StubScorer {
    fn score_batch(&self, cases: &[(u32, Vec<u32>)]) -> Vec<Vec<f32>> {
        self.batch_sizes.lock().unwrap().push(cases.len());
        cases.iter().map(|(g, items)| items.iter().map(|&v| stub_score(*g, v)).collect()).collect()
    }
}

/// A scorer that parks inside `score_batch` until released — the lever
/// for making queue states (full, expired) deterministic.
struct GateScorer {
    started: Mutex<mpsc::Sender<()>>,
    release: Mutex<mpsc::Receiver<()>>,
    scored_cases: Mutex<Vec<(u32, Vec<u32>)>>,
}

impl GateScorer {
    fn new() -> (GateScorer, mpsc::Receiver<()>, mpsc::Sender<()>) {
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let gate = GateScorer {
            started: Mutex::new(started_tx),
            release: Mutex::new(release_rx),
            scored_cases: Mutex::new(Vec::new()),
        };
        (gate, started_rx, release_tx)
    }
}

impl BatchGroupScorer for GateScorer {
    fn score_batch(&self, cases: &[(u32, Vec<u32>)]) -> Vec<Vec<f32>> {
        let _ = self.started.lock().unwrap().send(());
        self.release.lock().unwrap().recv().expect("test forgot to release the gate");
        self.scored_cases.lock().unwrap().extend(cases.iter().cloned());
        cases.iter().map(|(g, items)| items.iter().map(|&v| stub_score(*g, v)).collect()).collect()
    }
}

fn expected(group: u32, items: &[u32]) -> Vec<f32> {
    items.iter().map(|&v| stub_score(group, v)).collect()
}

fn request_items(group: u32, len: u32) -> Vec<u32> {
    (0..len).map(|i| group.wrapping_mul(31).wrapping_add(i * 3)).collect()
}

/// Any interleaving of concurrent clients, any window/batch/worker
/// config: every response is bit-identical to scoring the request
/// alone, and no fused batch exceeds `max_batch`.
#[test]
fn fusion_is_value_neutral_for_any_config_and_interleaving() {
    let gen = (
        u64_in(0..500),                               // batch window µs
        u32_in(1..6),                                 // max_batch
        u32_in(1..4),                                 // workers
        vec_of((u32_in(0..40), u32_in(1..8)), 1..24), // (group, n_items)*
    );
    Runner::new("fusion_is_value_neutral").cases(24).run(
        &gen,
        |(window_us, max_batch, workers, reqs)| {
            let config = ServeConfig {
                batch_window: Duration::from_micros(*window_us),
                max_batch: *max_batch as usize,
                queue_capacity: 4096,
                workers: *workers as usize,
            };
            let scorer = StubScorer::new();
            let results = serve_in_process(&scorer, &config, |handle| {
                std::thread::scope(|s| {
                    let mut joins = Vec::new();
                    // split the request list over 3 client threads
                    for chunk in reqs.chunks(reqs.len().div_ceil(3)) {
                        let handle = handle.clone();
                        joins.push(s.spawn(move || {
                            chunk
                                .iter()
                                .map(|&(g, n)| {
                                    let items = request_items(g, n);
                                    (g, items.clone(), handle.score(g, items))
                                })
                                .collect::<Vec<_>>()
                        }));
                    }
                    joins.into_iter().flat_map(|j| j.join().unwrap()).collect::<Vec<_>>()
                })
            });
            prop_assert_eq!(results.len(), reqs.len());
            for (g, items, got) in results {
                let got = got.expect("no deadline, no overflow: must score");
                let want = expected(g, &items);
                prop_assert_eq!(
                    got.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|s| s.to_bits()).collect::<Vec<_>>()
                );
            }
            for &size in scorer.batch_sizes.lock().unwrap().iter() {
                prop_assert!(size >= 1 && size <= *max_batch as usize, "fused batch of {size}");
            }
            Ok(())
        },
    );
}

/// Graceful drain: shutdown races a wave of submissions; every request
/// that was *accepted* still gets its scores (exactly one response,
/// never `Canceled`), and everything after shutdown is rejected at
/// submit time.
#[test]
fn shutdown_drains_every_accepted_request() {
    let config = ServeConfig {
        batch_window: Duration::from_micros(100),
        max_batch: 8,
        queue_capacity: 4096,
        workers: 2,
    };
    let scorer = StubScorer::new();
    serve_in_process(&scorer, &config, |handle| {
        let (accepted, rejected) = std::thread::scope(|s| {
            let mut joins = Vec::new();
            for t in 0..4u32 {
                let handle = handle.clone();
                joins.push(s.spawn(move || {
                    let mut pendings = Vec::new();
                    let mut rejected = 0usize;
                    for i in 0..200u32 {
                        let g = t * 1000 + i;
                        let items = request_items(g, 1 + (i % 5));
                        match handle.submit(g, items.clone(), None) {
                            Ok(p) => pendings.push((g, items, p)),
                            Err(ServeError::Rejected) => rejected += 1,
                            Err(e) => panic!("unexpected submit error {e}"),
                        }
                    }
                    let mut ok = 0usize;
                    for (g, items, p) in pendings {
                        let scores = p.wait().expect("accepted request must be answered");
                        assert_eq!(scores, expected(g, &items));
                        ok += 1;
                    }
                    (ok, rejected)
                }));
            }
            // shut down while the wave is in flight
            handle.shutdown();
            let mut accepted = 0;
            let mut rejected = 0;
            for j in joins {
                let (a, r) = j.join().unwrap();
                accepted += a;
                rejected += r;
            }
            (accepted, rejected)
        });
        assert_eq!(accepted + rejected, 4 * 200, "every submit resolved one way");
        assert_eq!(handle.in_flight(), 0, "drain left requests unanswered");
        assert_eq!(handle.queue_depth(), 0);
    });
}

#[test]
fn submit_after_shutdown_is_rejected() {
    let scorer = StubScorer::new();
    serve_in_process(&scorer, &ServeConfig::default(), |handle| {
        assert!(handle.is_open());
        assert_eq!(handle.score(1, vec![2, 3]).unwrap(), expected(1, &[2, 3]));
        handle.shutdown();
        assert!(!handle.is_open());
        assert_eq!(handle.score(1, vec![2, 3]), Err(ServeError::Rejected));
        assert!(matches!(handle.submit(0, vec![1], None), Err(ServeError::Rejected)));
    });
}

/// Backpressure: with the single worker parked inside `score_batch` and
/// the queue at capacity, further submissions are rejected immediately
/// rather than queued or blocked; the parked and queued requests all
/// complete once the gate opens.
#[test]
fn full_queue_rejects_instead_of_blocking() {
    let (gate, started_rx, release_tx) = GateScorer::new();
    let config =
        ServeConfig { batch_window: Duration::ZERO, max_batch: 1, queue_capacity: 2, workers: 1 };
    serve_in_process(&gate, &config, |handle| {
        let a = handle.submit(1, vec![10], None).expect("first request accepted");
        // the worker is now parked scoring `a`; the queue is empty
        started_rx.recv().unwrap();
        let b = handle.submit(2, vec![20], None).expect("queue slot 1");
        let c = handle.submit(3, vec![30], None).expect("queue slot 2");
        assert_eq!(handle.queue_depth(), 2);
        assert!(matches!(handle.submit(4, vec![40], None), Err(ServeError::Rejected)));
        // open the gate for a, b and c (max_batch 1 → one call each)
        for _ in 0..3 {
            release_tx.send(()).unwrap();
        }
        assert_eq!(a.wait().unwrap(), expected(1, &[10]));
        assert_eq!(b.wait().unwrap(), expected(2, &[20]));
        assert_eq!(c.wait().unwrap(), expected(3, &[30]));
    });
}

/// A request whose deadline expires while queued behind slow work is
/// answered `DeadlineMissed` and never reaches the scorer.
#[test]
fn expired_requests_are_dropped_unscored() {
    let (gate, started_rx, release_tx) = GateScorer::new();
    let config =
        ServeConfig { batch_window: Duration::ZERO, max_batch: 8, queue_capacity: 64, workers: 1 };
    serve_in_process(&gate, &config, |handle| {
        let slow = handle.submit(1, vec![10], None).unwrap();
        started_rx.recv().unwrap(); // worker parked on `slow`
        let doomed = handle.submit(2, vec![20], Some(Instant::now())).unwrap();
        let fine = handle.submit(3, vec![30], None).unwrap();
        std::thread::sleep(Duration::from_millis(2)); // let the deadline lapse
        release_tx.send(()).unwrap(); // finish `slow`
        release_tx.send(()).unwrap(); // score the drained batch {doomed?, fine}
        assert_eq!(slow.wait().unwrap(), expected(1, &[10]));
        assert_eq!(doomed.wait(), Err(ServeError::DeadlineMissed));
        assert_eq!(fine.wait().unwrap(), expected(3, &[30]));
        let scored = gate.scored_cases.lock().unwrap();
        assert!(
            !scored.iter().any(|(g, _)| *g == 2),
            "expired request leaked into the scorer: {scored:?}"
        );
    });
}

/// A hostile wire deadline — `deadline_us` large enough that
/// `Instant::now() + Duration::from_micros(...)` would overflow and
/// panic the connection thread — must saturate to "no deadline" and
/// score normally. Regression for the unchecked `Instant + Duration`
/// on the untrusted `deadline_us` field.
#[test]
fn overflowing_wire_deadline_saturates_and_scores() {
    let scorer = StubScorer::new();
    let config = ServeConfig {
        batch_window: Duration::from_micros(200),
        max_batch: 16,
        queue_capacity: 1024,
        workers: 1,
    };
    let token = ShutdownToken::new();
    let (addr_tx, addr_rx) = mpsc::channel();
    std::thread::scope(|s| {
        let server = {
            let token = token.clone();
            let (scorer, config) = (&scorer, &config);
            s.spawn(move || {
                serve_tcp(scorer, config, "127.0.0.1:0", &token, |a| addr_tx.send(a).unwrap())
            })
        };
        let addr = addr_rx.recv().expect("server ready");
        let mut client = ServeClient::connect(addr).unwrap();
        // bound the test if a regression kills the connection thread
        client.set_timeout(Some(Duration::from_secs(10))).unwrap();
        let items = request_items(5, 4);
        for deadline_us in [u64::MAX, u64::MAX / 2, 1 << 62] {
            let got = client
                .score_with_deadline_us(5, &items, deadline_us)
                .expect("connection must survive a hostile deadline")
                .expect("an effectively-infinite deadline must score");
            assert_eq!(got, expected(5, &items), "deadline_us = {deadline_us}");
        }
        // a sane deadline on the same connection still works
        let got = client.score_with_deadline_us(5, &items, 5_000_000).unwrap().unwrap();
        assert_eq!(got, expected(5, &items));
        token.trigger();
        server.join().unwrap().expect("serve_tcp exits cleanly");
    });
}

/// End-to-end over TCP: concurrent connections, bit-exact scores, a
/// deliberately malformed frame answered `Invalid`, graceful stop.
#[test]
fn tcp_round_trip_with_concurrent_clients() {
    let scorer = StubScorer::new();
    let config = ServeConfig {
        batch_window: Duration::from_micros(200),
        max_batch: 16,
        queue_capacity: 1024,
        workers: 1,
    };
    let token = ShutdownToken::new();
    let (addr_tx, addr_rx) = mpsc::channel();
    std::thread::scope(|s| {
        let server = {
            let token = token.clone();
            let scorer = &scorer;
            let config = &config;
            s.spawn(move || {
                serve_tcp(scorer, config, "127.0.0.1:0", &token, |a| addr_tx.send(a).unwrap())
            })
        };
        let addr = addr_rx.recv().expect("server ready");
        let mut joins = Vec::new();
        for t in 0..4u32 {
            joins.push(s.spawn(move || {
                let mut client = ServeClient::connect(addr).unwrap();
                for i in 0..25u32 {
                    let g = t * 100 + i;
                    let items = request_items(g, 1 + (i % 6));
                    let got = client.score(g, &items).unwrap().unwrap();
                    let want = expected(g, &items);
                    assert_eq!(
                        got.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                        want.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                        "group {g}"
                    );
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        // a syntactically valid frame with a truncated payload gets an
        // Invalid response instead of killing the connection
        {
            use std::io::Write;
            let mut raw = std::net::TcpStream::connect(addr).unwrap();
            let mut bogus_payload = vec![kgag_serve::wire::OP_SCORE];
            bogus_payload.extend_from_slice(&7u64.to_le_bytes()); // op + id, nothing else
            let mut frame = (bogus_payload.len() as u32).to_le_bytes().to_vec();
            frame.extend_from_slice(&bogus_payload);
            raw.write_all(&frame).unwrap();
            let payload = kgag_serve::wire::read_frame(&mut raw).unwrap();
            let resp = kgag_serve::wire::decode_response(&payload).unwrap();
            assert_eq!(resp.id, 7);
            assert_eq!(resp.into_result(), Err(ServeError::Invalid));
        }
        // lifecycle opcodes on a static server are Unsupported, typed,
        // and leave the connection usable
        {
            let mut client = ServeClient::connect(addr).unwrap();
            assert_eq!(client.create_group(&[1, 2, 3]).unwrap(), Err(ServeError::Unsupported));
            assert_eq!(client.join_group(0, 9).unwrap(), Err(ServeError::Unsupported));
            assert_eq!(client.leave_group(0, 9).unwrap(), Err(ServeError::Unsupported));
            let items = request_items(3, 4);
            let got = client.score(3, &items).unwrap().unwrap();
            assert_eq!(got, expected(3, &items), "connection survives rejected lifecycle ops");
        }
        token.trigger();
        server.join().unwrap().expect("serve_tcp exits cleanly");
    });
}

/// Minimal lifecycle backend for transport tests: a locked
/// [`GroupStore`], no caches, no model — exactly the trait surface the
/// server dispatches through.
struct StubLifecycle {
    store: Mutex<GroupStore>,
    num_items: u32,
}

impl GroupLifecycle for StubLifecycle {
    fn apply_op(&self, op: &LifecycleOp) -> Result<LifecycleAck, LifecycleError> {
        self.store.lock().unwrap().apply(op).map(|a| a.ack)
    }

    fn group_count(&self) -> u32 {
        self.store.lock().unwrap().num_groups()
    }

    fn item_count(&self) -> u32 {
        self.num_items
    }
}

/// End-to-end lifecycle dispatch over TCP: acks carry the mutated
/// membership, every rejection is the matching typed error, and score
/// requests are bounds-checked against the *live* group table.
#[test]
fn tcp_dynamic_lifecycle_round_trip() {
    let scorer = StubScorer::new();
    let lifecycle = StubLifecycle {
        store: Mutex::new(GroupStore::new(vec![vec![0, 1], vec![2, 3]], 10)),
        num_items: 50,
    };
    let config = ServeConfig {
        batch_window: Duration::from_micros(200),
        max_batch: 16,
        queue_capacity: 1024,
        workers: 1,
    };
    let token = ShutdownToken::new();
    let (addr_tx, addr_rx) = mpsc::channel();
    std::thread::scope(|s| {
        let server = {
            let (token, scorer, lifecycle, config) = (token.clone(), &scorer, &lifecycle, &config);
            s.spawn(move || {
                serve_tcp_dynamic(scorer, lifecycle, config, "127.0.0.1:0", &token, |a| {
                    addr_tx.send(a).unwrap()
                })
            })
        };
        let addr = addr_rx.recv().expect("server ready");
        let mut client = ServeClient::connect(addr).unwrap();

        // a group created over the wire becomes a valid score target
        assert_eq!(
            client.create_group(&[4, 5, 6]).unwrap(),
            Ok(LifecycleAck { group: 2, members: 3 })
        );
        let items = vec![5, 17, 29, 41, 49]; // in range for num_items = 50
        assert_eq!(client.score(2, &items).unwrap().unwrap(), expected(2, &items));

        // join/leave acks report the membership after the mutation
        assert_eq!(client.join_group(2, 7).unwrap(), Ok(LifecycleAck { group: 2, members: 4 }));
        assert_eq!(client.leave_group(2, 7).unwrap(), Ok(LifecycleAck { group: 2, members: 3 }));

        // every rejection is the matching typed error, connection intact
        for (got, want) in [
            (client.create_group(&[4]).unwrap(), LifecycleError::TooFewMembers),
            (client.create_group(&[4, 4]).unwrap(), LifecycleError::DuplicateMember),
            (client.create_group(&[4, 99]).unwrap(), LifecycleError::UnknownUser),
            (client.join_group(99, 0).unwrap(), LifecycleError::UnknownGroup),
            (client.join_group(2, 4).unwrap(), LifecycleError::AlreadyMember),
            (client.leave_group(2, 9).unwrap(), LifecycleError::NotAMember),
        ] {
            assert_eq!(got, Err(ServeError::Lifecycle(want)));
        }

        // score pre-validation against the live bounds
        assert_eq!(
            client.score(99, &[0]).unwrap(),
            Err(ServeError::Lifecycle(LifecycleError::UnknownGroup))
        );
        assert_eq!(client.score(0, &[50]).unwrap(), Err(ServeError::Invalid));
        assert_eq!(client.score(0, &[49]).unwrap().unwrap(), expected(0, &[49]));

        token.trigger();
        server.join().unwrap().expect("serve_tcp_dynamic exits cleanly");
    });
}
