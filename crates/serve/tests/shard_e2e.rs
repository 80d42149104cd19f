//! End-to-end loopback proof of the sharded scatter-gather path
//! (DESIGN.md §15): real `serve_shard` TCP servers, a [`ShardPool`]
//! with its per-peer workers, and a [`ShardedScorer`] — checked for bit
//! identity against the offline single-node oracle, and for typed
//! per-request failure (never a panic or a hang) when a shard dies
//! mid-deployment.
//!
//! The core-side property suite (`crates/core/tests/shard_oracle.rs`)
//! already sweeps partition counts, thread counts and memo modes via
//! `LocalFetch`; this file pins down what only the network can break:
//! handshakes, framing, the peer pool's failure semantics, and the
//! batcher-facing `TryBatchGroupScorer` seam.

use kgag::{Kgag, KgagConfig, RouterCore, Scorer};
use kgag_data::movielens::Scale;
use kgag_data::split::split_dataset;
use kgag_data::yelp::{yelp, YelpConfig};
use kgag_data::GroupDataset;
use kgag_serve::{
    serve_shard, ServeError, ShardConfig, ShardPool, ShardedScorer, ShutdownToken,
    TryBatchGroupScorer,
};
use kgag_tensor::pool::with_threads;
use std::net::SocketAddr;
use std::sync::{mpsc, OnceLock};
use std::thread::JoinHandle;

static FIXTURE: OnceLock<(GroupDataset, Kgag)> = OnceLock::new();

/// The CI smoke fixture: tiny Yelp-shaped dataset, three deterministic
/// epochs on one thread. Shared across tests — training dominates the
/// runtime.
fn fixture() -> &'static (GroupDataset, Kgag) {
    FIXTURE.get_or_init(|| {
        let ds = yelp(&YelpConfig::at_scale(Scale::Tiny));
        let split = split_dataset(&ds, 11);
        let mut model = Kgag::new(&ds, &split, KgagConfig { epochs: 3, ..Default::default() });
        with_threads(1, || model.fit(&split));
        (ds, model)
    })
}

struct ShardProc {
    addr: SocketAddr,
    token: ShutdownToken,
    handle: Option<JoinHandle<()>>,
}

impl ShardProc {
    fn spawn(model: &Kgag, index: usize, count: usize) -> ShardProc {
        let state = model.shard_state(index, count);
        let token = ShutdownToken::new();
        let server_token = token.clone();
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            serve_shard(&state, "127.0.0.1:0", &server_token, |a| {
                let _ = tx.send(a);
            })
            .expect("shard bind");
        });
        let addr = rx.recv().expect("shard ready");
        ShardProc { addr, token, handle: Some(handle) }
    }

    fn kill(&mut self) {
        self.token.trigger();
        if let Some(h) = self.handle.take() {
            h.join().expect("shard server exits cleanly");
        }
    }
}

impl Drop for ShardProc {
    fn drop(&mut self) {
        self.kill();
    }
}

fn spawn_deployment(model: &Kgag, count: usize) -> (Vec<ShardProc>, ShardPool) {
    let shards: Vec<ShardProc> = (0..count).map(|i| ShardProc::spawn(model, i, count)).collect();
    let addrs: Vec<SocketAddr> = shards.iter().map(|s| s.addr).collect();
    let pool = ShardPool::connect(&addrs, &ShardConfig::default()).expect("pool connects");
    (shards, pool)
}

fn cases(ds: &GroupDataset) -> Vec<(u32, Vec<u32>)> {
    let g = ds.num_groups();
    let v = ds.num_items;
    (0..6u32)
        .map(|i| {
            let items: Vec<u32> = (0..5).map(|j| (i * 3 + j) % v).collect();
            (i % g, items)
        })
        .collect()
}

fn bits(scores: &[f32]) -> Vec<u32> {
    scores.iter().map(|s| s.to_bits()).collect()
}

#[test]
fn tcp_sharded_scores_are_bit_identical_to_single_node() {
    let (ds, model) = fixture();
    let cases = cases(ds);
    let want: Vec<Vec<u32>> = with_threads(1, || Scorer::new(model, true).score_cases(&cases))
        .iter()
        .map(|r| bits(r))
        .collect();
    for (count, memo) in [(1usize, false), (2, true), (3, false)] {
        let (_shards, pool) = spawn_deployment(model, count);
        let scorer = ShardedScorer::new(RouterCore::from_model(model, memo), pool);
        let got = scorer.try_score_batch(&cases);
        assert_eq!(got.len(), cases.len());
        for (ci, result) in got.iter().enumerate() {
            let scores = result
                .as_ref()
                .unwrap_or_else(|e| panic!("case {ci} failed over {count} healthy shards: {e}"));
            assert_eq!(bits(scores), want[ci], "case {ci} diverged over {count} shards");
        }
    }
}

#[test]
fn out_of_range_requests_get_typed_invalid_not_a_panic() {
    let (ds, model) = fixture();
    let (_shards, pool) = spawn_deployment(model, 2);
    let scorer = ShardedScorer::new(RouterCore::from_model(model, true), pool);
    let good = (0, vec![0u32, 1]);
    let bad_group = (ds.num_groups() + 7, vec![0u32]);
    let bad_item = (0, vec![ds.num_items + 1]);
    let got = scorer.try_score_batch(&[good, bad_group, bad_item]);
    assert!(got[0].is_ok(), "valid case must still be answered");
    assert_eq!(got[1], Err(ServeError::Invalid));
    assert_eq!(got[2], Err(ServeError::Invalid));
}

#[test]
fn killing_a_shard_yields_typed_errors_on_affected_requests_only() {
    let (ds, model) = fixture();
    let cases = cases(ds);
    let want: Vec<Vec<u32>> = with_threads(1, || Scorer::new(model, true).score_cases(&cases))
        .iter()
        .map(|r| bits(r))
        .collect();
    let (mut shards, pool) = spawn_deployment(model, 2);
    let scorer = ShardedScorer::new(RouterCore::from_model(model, false), pool);

    // healthy warm-up: every case answers
    for r in scorer.try_score_batch(&cases) {
        r.expect("healthy deployment answers everything");
    }

    shards[1].kill();

    let got = scorer.try_score_batch(&cases);
    let mut failed = 0;
    for (ci, result) in got.into_iter().enumerate() {
        match result {
            Ok(scores) => assert_eq!(
                bits(&scores),
                want[ci],
                "a case untouched by the dead shard must stay bit-identical"
            ),
            Err(ServeError::Shard(_)) => failed += 1,
            Err(other) => panic!("case {ci}: expected a shard error, got {other}"),
        }
    }
    assert!(failed > 0, "half the rows are gone; something must have needed them");
    assert!(scorer.pool().is_dead(1), "the pool must have marked the dead peer");

    // the deployment keeps answering (or typed-failing) — no hang, no panic
    let again = scorer.try_score_batch(&cases[..2]);
    assert_eq!(again.len(), 2);
    for r in again {
        if let Err(e) = r {
            assert!(matches!(e, ServeError::Shard(_)), "only typed shard errors: {e}");
        }
    }
}
