//! CI sharded-serving gate (DESIGN.md §15): scatter-gather scoring over
//! real shard **processes** must be bit-identical to the single-node
//! batch path and to the tape forward, and killing a shard process
//! mid-stream must surface
//! typed per-request errors — never a panic, never a hang, never a
//! wrong score.
//!
//! Process model: the binary re-execs itself as its own shard workers
//! (`shard_check --shard-worker I N`). Every worker deterministically
//! re-trains the fixed smoke fixture (yelp tiny, split seed 11, fit
//! single-threaded — the same fixture as `serve_check` and the oracle
//! suites), extracts its slice, and prints `READY <addr>` once bound,
//! so the orchestrator needs no checkpoint plumbing and the gate stays
//! hermetic.
//!
//! Layers driven by the orchestrator:
//!
//! 1. **Router bit-identity** — `ShardedScorer::try_score_batch` over 2
//!    shard processes equals offline `Scorer::score_cases` bit for
//!    bit (draw memo on).
//! 2. **Tape oracle** — the router with the draw memo off equals the
//!    per-case tape forward (`Kgag::score_group_items`) bit for bit.
//! 3. **TCP front door** — the same requests through `serve_tcp_try` +
//!    `ServeClient`: bits survive the client wire too.
//! 4. **Shard kill** — SIGKILL one worker while a request stream is in
//!    flight: every response is either bit-identical (receptive field
//!    never touched the dead shard) or a typed `ServeError::Shard`,
//!    at least one request must fail, and the stream keeps answering.
//!
//! ci.sh runs this at `KGAG_THREADS=1` and `4`. Any divergence panics
//! (non-zero exit fails the gate).

use kgag::{Kgag, KgagConfig, RouterCore, Scorer};
use kgag_data::movielens::Scale;
use kgag_data::split::split_dataset;
use kgag_data::yelp::{yelp, YelpConfig};
use kgag_data::GroupDataset;
use kgag_serve::{
    serve_shard, serve_tcp_try, ServeClient, ServeConfig, ServeError, ShardConfig, ShardPool,
    ShardedScorer, ShutdownToken, TryBatchGroupScorer,
};
use kgag_tensor::pool::{self, with_threads};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};

const SHARDS: usize = 2;

fn smoke_model() -> (GroupDataset, Kgag) {
    let ds = yelp(&YelpConfig::at_scale(Scale::Tiny));
    let split = split_dataset(&ds, 11);
    let mut model = Kgag::new(&ds, &split, KgagConfig { epochs: 3, ..Default::default() });
    with_threads(1, || model.fit(&split));
    (ds, model)
}

/// Child mode: train the fixture, serve one slice, exit when stdin
/// closes (the orchestrator holds the write end) or on SIGKILL.
fn shard_worker(index: usize, count: usize) {
    let (_ds, model) = smoke_model();
    let state = model.shard_state(index, count);
    let token = ShutdownToken::new();
    {
        let token = token.clone();
        std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(std::io::stdin().read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
            token.trigger();
        });
    }
    serve_shard(&state, "127.0.0.1:0", &token, |addr| println!("READY {addr}"))
        .expect("shard worker serves");
}

struct ShardProc {
    child: Child,
    addr: SocketAddr,
}

impl ShardProc {
    fn spawn(index: usize, count: usize) -> ShardProc {
        let exe = std::env::current_exe().expect("own path");
        let mut child = Command::new(exe)
            .args(["--shard-worker", &index.to_string(), &count.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn shard worker");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line).expect("worker stdout");
        let addr = line
            .trim()
            .strip_prefix("READY ")
            .unwrap_or_else(|| panic!("worker {index} said {line:?}, expected READY <addr>"))
            .parse()
            .expect("worker address");
        ShardProc { child, addr }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ShardProc {
    fn drop(&mut self) {
        self.kill();
    }
}

fn assert_bits_equal(label: &str, idx: usize, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{label}: request {idx} length");
    for (j, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{label}: request {idx} item {j} diverged ({g} vs {w})"
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--shard-worker") {
        let index = args[1].parse().expect("--shard-worker INDEX COUNT");
        let count = args[2].parse().expect("--shard-worker INDEX COUNT");
        shard_worker(index, count);
        return;
    }

    println!("shard_check: pool threads = {}", pool::num_threads());
    let (ds, model) = smoke_model();

    // the fixed request slice: every group over varying candidate windows
    let mut requests: Vec<(u32, Vec<u32>)> = Vec::new();
    for g in 0..ds.num_groups() {
        let len = 1 + (g as usize * 7) % 16;
        let start = (g as usize * 13) % ds.num_items as usize;
        let items: Vec<u32> =
            (0..len).map(|j| ((start + j) % ds.num_items as usize) as u32).collect();
        requests.push((g, items));
    }
    let scorer = Scorer::new(&model, true);
    let reference = with_threads(1, || scorer.score_cases(&requests));
    println!("shard_check: {} requests over {} groups", requests.len(), ds.num_groups());

    let mut shards: Vec<ShardProc> = (0..SHARDS).map(|i| ShardProc::spawn(i, SHARDS)).collect();
    let addrs: Vec<SocketAddr> = shards.iter().map(|s| s.addr).collect();
    println!("shard_check: {SHARDS} shard processes up at {addrs:?}");

    // 1. router bit-identity against the single-node engine
    {
        let pool = ShardPool::connect(&addrs, &ShardConfig::default()).expect("pool connects");
        let sharded = ShardedScorer::new(RouterCore::from_model(&model, true), pool);
        let got = sharded.try_score_batch(&requests);
        for (i, (g, want)) in got.iter().zip(&reference).enumerate() {
            let g = g.as_ref().unwrap_or_else(|e| panic!("router: request {i} failed: {e}"));
            assert_bits_equal("router", i, g, want);
        }
        println!("shard_check: router bit-identical to single-node over {SHARDS} processes");
    }

    // 2. router without the draw memo against the tape forward
    {
        let pool = ShardPool::connect(&addrs, &ShardConfig::default()).expect("pool connects");
        let sharded = ShardedScorer::new(RouterCore::from_model(&model, false), pool);
        let got = sharded.try_score_batch(&requests);
        for (i, (g, (group, items))) in got.iter().zip(&requests).enumerate() {
            let g = g.as_ref().unwrap_or_else(|e| panic!("tape: request {i} failed: {e}"));
            assert_bits_equal("tape", i, g, &model.score_group_items(*group, items));
        }
        println!("shard_check: router bit-identical to the tape forward over {SHARDS} processes");
    }

    // 3 + 4. the TCP front door, then a SIGKILL mid-stream. One router
    // serves throughout: the kill happens while the client stream is in
    // flight, so the death is discovered *inside* request scoring.
    let pool = ShardPool::connect(&addrs, &ShardConfig::default()).expect("pool connects");
    let sharded = ShardedScorer::new(RouterCore::from_model(&model, true), pool);
    let token = ShutdownToken::new();
    let (addr_tx, addr_rx) = std::sync::mpsc::channel();
    std::thread::scope(|s| {
        let server = {
            let token = token.clone();
            let sharded = &sharded;
            s.spawn(move || {
                serve_tcp_try(sharded, &ServeConfig::default(), "127.0.0.1:0", &token, |a| {
                    addr_tx.send(a).unwrap()
                })
            })
        };
        let addr = addr_rx.recv().expect("router ready");
        let mut client = ServeClient::connect(addr).expect("loopback connect");

        // healthy pass through the wire
        for (i, (g, items)) in requests.iter().enumerate() {
            let scores = client.score(*g, items).expect("transport").expect("healthy deployment");
            assert_bits_equal("tcp", i, &scores, &reference[i]);
        }
        println!("shard_check: TCP round trip bit-identical through the router");

        // kill shard 1 while a request stream is mid-flight
        let (kill_tx, kill_rx) = std::sync::mpsc::channel::<()>();
        let killer = s.spawn({
            let shard1 = &mut shards[1];
            move || {
                kill_rx.recv().expect("stream started");
                shard1.kill();
            }
        });
        let mut ok = 0usize;
        let mut shard_errors = 0usize;
        for round in 0..3 {
            for (i, (g, items)) in requests.iter().enumerate() {
                if round == 0 && i == 1 {
                    kill_tx.send(()).expect("killer alive"); // fire mid-stream
                }
                match client.score(*g, items).expect("transport must survive a shard death") {
                    Ok(scores) => {
                        assert_bits_equal("post-kill", i, &scores, &reference[i]);
                        ok += 1;
                    }
                    Err(ServeError::Shard(_)) => shard_errors += 1,
                    Err(other) => panic!("post-kill request {i}: unexpected error {other}"),
                }
            }
        }
        killer.join().expect("killer thread");
        assert!(shard_errors > 0, "shard 1 held half the rows; some requests must have needed it");
        println!(
            "shard_check: shard kill surfaced {shard_errors} typed errors, \
             {ok} requests stayed bit-identical, zero panics/hangs"
        );

        token.trigger();
        server.join().unwrap().expect("serve_tcp_try clean exit");
    });

    println!("shard_check: PASS");
}
