//! Fault-injection suites for the serve stack: a [`FaultScorer`]
//! misbehaving on a scripted [`FaultPlan`] must never break the
//! batcher's exactly-once delivery contract — every accepted request
//! resolves exactly once, to correct scores or a typed error, and the
//! workers survive to serve the next batch. A byte-level TCP proxy
//! applies the same discipline to the shard pool, and a silent listener
//! pins the client-side read timeout.

use kgag_serve::{
    serve_in_process, ClientError, FaultScorer, ServeClient, ServeConfig, ServeError,
    TryBatchGroupScorer,
};
use kgag_testkit::check::Runner;
use kgag_testkit::gen::{u32_in, vec_of};
use kgag_testkit::{prop_assert, prop_assert_eq, FaultAction, FaultPlan};
use std::net::TcpListener;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Deterministic per-(group, item) score — the bit-exact reference.
fn stub_score(group: u32, item: u32) -> f32 {
    let x = (group as u64)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((item as u64).wrapping_mul(0x85eb_ca6b_c2b2_ae35));
    ((x >> 40) as f32) / 16_777_216.0 - 0.5
}

struct StubScorer;

impl kgag_eval::protocol::BatchGroupScorer for StubScorer {
    fn score_batch(&self, cases: &[(u32, Vec<u32>)]) -> Vec<Vec<f32>> {
        cases.iter().map(|(g, items)| items.iter().map(|&v| stub_score(*g, v)).collect()).collect()
    }
}

fn expected_bits(group: u32, items: &[u32]) -> Vec<u32> {
    items.iter().map(|&v| stub_score(group, v).to_bits()).collect()
}

/// One worker, no window, batch of one: each request draws exactly one
/// scripted action, in submission order — the configuration that makes
/// fault attribution deterministic.
fn serial_config() -> ServeConfig {
    ServeConfig { batch_window: Duration::ZERO, max_batch: 1, queue_capacity: 4096, workers: 1 }
}

#[test]
fn panic_fault_cancels_its_batch_and_the_worker_survives() {
    let scorer = FaultScorer::new(StubScorer, FaultPlan::script(vec![FaultAction::Panic]));
    serve_in_process(&scorer, &serial_config(), |handle| {
        assert_eq!(handle.score(1, vec![10, 11]), Err(ServeError::Canceled));
        // the worker outlived the unwind; the next draw (past the plan's
        // end) passes through and scores bit-exactly
        let got = handle.score(2, vec![20]).expect("worker must survive the panic");
        assert_eq!(got[0].to_bits(), stub_score(2, 20).to_bits());
        assert_eq!(handle.in_flight(), 0);
    });
    assert_eq!(scorer.plan().calls(), 2);
}

#[test]
fn error_fault_is_typed_per_case_and_transient() {
    let scorer = FaultScorer::new(StubScorer, FaultPlan::script(vec![FaultAction::Error]));
    serve_in_process(&scorer, &serial_config(), |handle| {
        assert_eq!(
            handle.score(1, vec![10]),
            Err(ServeError::Shard(kgag::ShardErrorKind::Unavailable))
        );
        let got = handle.score(1, vec![10]).expect("fault was scripted for one call only");
        assert_eq!(got[0].to_bits(), stub_score(1, 10).to_bits());
    });
}

#[test]
fn corrupt_fault_flips_exactly_the_first_score_bit() {
    let scorer = FaultScorer::new(StubScorer, FaultPlan::script(vec![FaultAction::Corrupt]));
    serve_in_process(&scorer, &serial_config(), |handle| {
        let got = handle.score(3, vec![30, 31, 32]).expect("corrupt still answers");
        let want = expected_bits(3, &[30, 31, 32]);
        assert_eq!(got[0].to_bits(), want[0] ^ 1, "first score low bit flipped");
        assert_eq!(got[1].to_bits(), want[1]);
        assert_eq!(got[2].to_bits(), want[2]);
    });
}

#[test]
fn delay_fault_pushes_queued_requests_past_their_deadline() {
    let scorer = FaultScorer::new(
        StubScorer,
        FaultPlan::script(vec![FaultAction::Delay(Duration::from_millis(60))]),
    );
    serve_in_process(&scorer, &serial_config(), |handle| {
        // the single worker picks this up and sleeps inside the scorer
        let slow = handle.submit(1, vec![10], None).unwrap();
        // queued behind the delay with a budget the delay will blow
        let doomed =
            handle.submit(2, vec![20], Some(Instant::now() + Duration::from_millis(5))).unwrap();
        let fine = handle.submit(3, vec![30], None).unwrap();
        assert!(slow.wait().is_ok());
        assert_eq!(doomed.wait(), Err(ServeError::DeadlineMissed));
        let got = fine.wait().expect("no deadline, must score after the delay");
        assert_eq!(got[0].to_bits(), stub_score(3, 30).to_bits());
    });
}

/// Answers group 1 with a short row and drops every case after the
/// second — two ways of breaking the one-row-per-case contract.
struct MiscountingScorer;

impl kgag_eval::protocol::BatchGroupScorer for MiscountingScorer {
    fn score_batch(&self, cases: &[(u32, Vec<u32>)]) -> Vec<Vec<f32>> {
        let rows = StubScorer.score_batch(cases);
        rows.into_iter()
            .zip(cases)
            .take(2)
            .map(|(row, (g, _))| if *g == 1 { Vec::new() } else { row })
            .collect()
    }
}

#[test]
fn a_reply_that_breaks_the_contract_is_invalid_for_its_case_alone() {
    let config = ServeConfig {
        batch_window: Duration::from_millis(50),
        max_batch: 3,
        queue_capacity: 16,
        workers: 1,
    };
    serve_in_process(&MiscountingScorer, &config, |handle| {
        let pending: Vec<_> =
            (0..3).map(|g| handle.submit(g, vec![g + 10, g + 11], None).unwrap()).collect();
        let got: Vec<_> = pending.into_iter().map(|p| p.wait()).collect();
        let ok = got[0].as_ref().expect("a well-formed row is answered");
        assert_eq!(ok.iter().map(|s| s.to_bits()).collect::<Vec<_>>(), expected_bits(0, &[10, 11]));
        assert_eq!(got[1], Err(ServeError::Invalid), "short row");
        assert_eq!(got[2], Err(ServeError::Invalid), "missing row");
        // the worker survived the miscount
        assert_eq!(handle.score(0, vec![3]).map(|r| r.len()), Ok(1));
    });
}

/// The headline property: under ANY scripted fault storm and any
/// batching config, every accepted request resolves exactly once to
/// correct bits or a typed error, the server drains clean, and once the
/// script is exhausted correctness returns.
#[test]
fn every_accepted_request_resolves_exactly_once_under_fault_storms() {
    let gen = (
        vec_of(u32_in(0..5), 0..12),                  // fault codes
        u32_in(1..4),                                 // max_batch
        u32_in(1..3),                                 // workers
        vec_of((u32_in(0..40), u32_in(1..6)), 4..24), // (group, n_items)*
    );
    Runner::new("fault_storm_exactly_once").cases(24).run(
        &gen,
        |(codes, max_batch, workers, reqs)| {
            let actions: Vec<FaultAction> = codes
                .iter()
                .map(|c| match c {
                    0 => FaultAction::Pass,
                    1 => FaultAction::Panic,
                    2 => FaultAction::Delay(Duration::from_micros(300)),
                    3 => FaultAction::Error,
                    _ => FaultAction::Corrupt,
                })
                .collect();
            let config = ServeConfig {
                batch_window: Duration::ZERO,
                max_batch: *max_batch as usize,
                queue_capacity: 4096,
                workers: *workers as usize,
            };
            let scorer = FaultScorer::new(StubScorer, FaultPlan::script(actions));
            serve_in_process(&scorer, &config, |handle| {
                let results: Vec<_> = std::thread::scope(|s| {
                    let joins: Vec<_> = reqs
                        .chunks(reqs.len().div_ceil(2))
                        .map(|chunk| {
                            let handle = handle.clone();
                            s.spawn(move || {
                                chunk
                                    .iter()
                                    .map(|&(g, n)| {
                                        let items: Vec<u32> =
                                            (0..n).map(|i| g.wrapping_mul(7) + i).collect();
                                        (g, items.clone(), handle.score(g, items))
                                    })
                                    .collect::<Vec<_>>()
                            })
                        })
                        .collect();
                    joins.into_iter().flat_map(|j| j.join().unwrap()).collect()
                });
                // exactly one resolution per request, each a score vector of
                // the right shape or a typed error from the fault vocabulary
                prop_assert_eq!(results.len(), reqs.len());
                for (g, items, result) in &results {
                    match result {
                        Ok(scores) => {
                            prop_assert_eq!(scores.len(), items.len());
                            // corrupt may flip one low mantissa bit; anything
                            // further than that is a real scoring bug
                            let want = expected_bits(*g, items);
                            for (got, want) in scores.iter().zip(want) {
                                let diff = got.to_bits() ^ want;
                                prop_assert!(
                                    diff == 0 || diff == 1,
                                    "score bits diverged beyond the scripted corruption"
                                );
                            }
                        }
                        Err(ServeError::Canceled)
                        | Err(ServeError::Shard(kgag::ShardErrorKind::Unavailable)) => {}
                        Err(other) => {
                            prop_assert!(false, "unexpected error under faults: {other}")
                        }
                    }
                }
                prop_assert_eq!(handle.in_flight(), 0);
                // once the script is exhausted correctness returns; fusion
                // may have consumed fewer draws than the script has left, so
                // drain the remainder (each call draws at least one action)
                let mut recovered = false;
                for _ in 0..codes.len() + 2 {
                    if let Ok(scores) = handle.score(9, vec![1, 2]) {
                        if scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>()
                            == expected_bits(9, &[1, 2])
                        {
                            recovered = true;
                            break;
                        }
                    }
                }
                prop_assert!(recovered, "correctness must return after the script is drained");
                Ok(())
            })
        },
    );
}

/// A proxy that forwards whole frames in both directions, then swallows
/// the `cut_after+1`-th client→server frame and severs both sockets —
/// byte-level fault injection for protocols the proxy does not
/// understand beyond the shared `u32` length prefix. Swallow-then-sever
/// is deterministic: replies to forwarded frames always get through
/// (the cut only triggers on a *later* request), and the swallowed
/// request can never be answered.
fn frame_cutting_proxy(upstream: std::net::SocketAddr, cut_after: usize) -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        // one connection is all the pool opens per peer
        let (client, _) = match listener.accept() {
            Ok(c) => c,
            Err(_) => return,
        };
        let server = match std::net::TcpStream::connect(upstream) {
            Ok(s) => s,
            Err(_) => return,
        };
        let c2s = {
            let (mut client, mut server) =
                (client.try_clone().unwrap(), server.try_clone().unwrap());
            std::thread::spawn(move || {
                let mut forwarded = 0usize;
                loop {
                    match kgag_serve::wire::read_frame(&mut client) {
                        Ok(payload) => {
                            if forwarded == cut_after {
                                break; // swallow this frame and sever
                            }
                            let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
                            frame.extend_from_slice(&payload);
                            if kgag_serve::wire::write_frame(&mut server, &frame).is_err() {
                                break;
                            }
                            forwarded += 1;
                        }
                        Err(_) => break,
                    }
                }
                let _ = client.shutdown(std::net::Shutdown::Both);
                let _ = server.shutdown(std::net::Shutdown::Both);
            })
        };
        let mut server_read = server;
        let mut client_write = client;
        loop {
            match kgag_serve::wire::read_frame(&mut server_read) {
                Ok(payload) => {
                    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
                    frame.extend_from_slice(&payload);
                    if kgag_serve::wire::write_frame(&mut client_write, &frame).is_err() {
                        break;
                    }
                }
                Err(_) => break,
            }
        }
        let _ = c2s.join();
    });
    addr
}

/// A shard behind a connection that dies right after the handshake:
/// every affected request resolves to a typed shard error — no hang, no
/// panic, and the pool marks the peer dead.
#[test]
fn shard_pool_survives_a_connection_severed_after_handshake() {
    use kgag::{Kgag, KgagConfig, RouterCore};
    use kgag_data::movielens::Scale;
    use kgag_data::split::split_dataset;
    use kgag_data::yelp::{yelp, YelpConfig};
    use kgag_serve::{serve_shard, ShardConfig, ShardPool, ShardedScorer, ShutdownToken};

    let ds = yelp(&YelpConfig::at_scale(Scale::Tiny));
    let split = split_dataset(&ds, 11);
    let model = Kgag::new(&ds, &split, KgagConfig::default());

    // two real shard servers; shard 1 is reached through a proxy that
    // forwards exactly one client→server frame (the info handshake)
    // before severing the stream
    let mut procs = Vec::new();
    let mut addrs = Vec::new();
    for i in 0..2usize {
        let state = model.shard_state(i, 2);
        let token = ShutdownToken::new();
        let server_token = token.clone();
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            let _ = serve_shard(&state, "127.0.0.1:0", &server_token, |a| {
                let _ = tx.send(a);
            });
        });
        let addr = rx.recv().expect("shard ready");
        procs.push((token, handle));
        addrs.push(addr);
    }
    addrs[1] = frame_cutting_proxy(addrs[1], 1);

    let config = ShardConfig { timeout: Duration::from_millis(500), queue: 16 };
    let pool = ShardPool::connect(&addrs, &config).expect("handshake passes through the proxy");
    let scorer = ShardedScorer::new(RouterCore::from_model(&model, false), pool);

    let cases: Vec<(u32, Vec<u32>)> = (0..4u32).map(|g| (g, vec![g, g + 1, g + 2])).collect();
    let started = Instant::now();
    let results = scorer.try_score_batch(&cases);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "severed connection must fail fast, not hang"
    );
    assert_eq!(results.len(), cases.len());
    let mut failed = 0;
    for (ci, r) in results.iter().enumerate() {
        match r {
            Ok(scores) => assert_eq!(scores.len(), cases[ci].1.len()),
            Err(ServeError::Shard(_)) => failed += 1,
            Err(other) => panic!("case {ci}: wanted a typed shard error, got {other}"),
        }
    }
    assert!(failed > 0, "requests touching the severed shard must fail typed");
    assert!(scorer.pool().is_dead(1), "the severed peer must be marked dead");

    // the deployment keeps answering typed — exactly-once survives
    for r in scorer.try_score_batch(&cases[..2]) {
        if let Err(e) = r {
            assert!(matches!(e, ServeError::Shard(_)), "only typed shard errors: {e}");
        }
    }
    for (token, handle) in procs {
        token.trigger();
        let _ = handle.join();
    }
}

/// Regression for the missing client read timeout: against a listener
/// that accepts and then never responds, a client with a timeout gets
/// [`ClientError::Timeout`] promptly instead of blocking forever.
#[test]
fn client_read_timeout_fires_against_a_silent_server() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let silent = std::thread::spawn(move || {
        // accept, read the request, answer nothing, hold the socket open
        let (mut stream, _) = listener.accept().unwrap();
        let _ = kgag_serve::wire::read_frame(&mut stream);
        std::thread::sleep(Duration::from_secs(2));
    });

    let mut client = ServeClient::connect(addr).unwrap();
    client.set_timeout(Some(Duration::from_millis(50))).unwrap();
    let started = Instant::now();
    let err = client.score(1, &[2, 3]).expect_err("silent server must time out");
    assert!(matches!(err, ClientError::Timeout), "wanted Timeout, got {err}");
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "timeout must fire near the configured 50ms, not hang"
    );
    silent.join().unwrap();
}

/// `KGAG_CLIENT_TIMEOUT_MS` arms the same timeout at connect time.
#[test]
fn client_timeout_env_knob_is_honoured_at_connect() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let silent = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let _ = kgag_serve::wire::read_frame(&mut stream);
        std::thread::sleep(Duration::from_millis(500));
    });

    std::env::set_var("KGAG_CLIENT_TIMEOUT_MS", "50");
    let client = ServeClient::connect(addr);
    std::env::remove_var("KGAG_CLIENT_TIMEOUT_MS");
    let mut client = client.unwrap();
    let err = client.score(1, &[2]).expect_err("silent server must time out via env knob");
    assert!(matches!(err, ClientError::Timeout), "wanted Timeout, got {err}");
    silent.join().unwrap();
}
