//! Direct calls into single layers, for the traced run.
//!
//! Some layers are easiest to time outside the server: the wire codec
//! on the run's own frames, and `RfCache` reads and writes on a cache
//! the benchmark builds itself over the model's graph. A workload that
//! does not exercise a layer through its front door (lifecycle writes
//! outside `group_churn`, the shard path outside `sharded_rank`) gets
//! that layer measured here too, on the same model and the same
//! seed-derived operations, so every workload reports every layer.

use crate::client::Record;
use crate::ops::{Op, OpStream, WRITER};
use crate::trace::{FetchLog, TracedLifecycle, TracedSharded};
use crate::workload::{with_shards, Front, Inputs, Traced};
use kgag::Kgag;
use kgag_data::{GroupLifecycle, LifecycleOp};
use kgag_kg::{NeighborSampler, RfCache};
use kgag_serve::wire::{self, Reply, Request, Response};
use kgag_serve::TryBatchGroupScorer;
use kgag_tensor::rng::derive_seed;
use std::hint::black_box;
use std::time::Instant;

/// Lifecycle mutations and shard calls the probes make when the served
/// run did not.
const PROBE_MUTATIONS: usize = 40;
const PROBE_SHARD_CALLS: usize = 40;
/// Minimum time each repeated micro-measurement runs, in seconds.
const MIN_MEASURE_S: f64 = 0.05;

/// Per-layer measurements taken by direct calls (or, for lifecycle and
/// shard layers on their own workloads, copied from the served trace).
#[derive(Clone, Debug, Default)]
pub struct Probes {
    pub wire_encode_ns: f64,
    pub wire_decode_ns: f64,
    pub wire_req_bytes: f64,
    pub wire_resp_bytes: f64,
    pub rf_build_s: f64,
    pub rf_field_ns_per_target: f64,
    pub rf_invalidate_us: Vec<f64>,
    pub rf_repair_us: Vec<f64>,
    pub rf_evicted: Vec<f64>,
    /// Lifecycle `apply_op` wall times (ns).
    pub apply_ns: Vec<u64>,
    /// Sharded path: router call times (ns), scorer calls, candidates
    /// scored and what the fetches moved.
    pub router_ns: Vec<u64>,
    pub shard_calls: usize,
    pub shard_cands: usize,
    pub fetch: FetchLog,
    pub shard_setup_s: Option<f64>,
}

/// Repeat `pass` until [`MIN_MEASURE_S`] has passed; returns ns per
/// unit, where one pass does `units` units of work.
fn time_per_unit(units: usize, mut pass: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut passes = 0usize;
    while passes == 0 || start.elapsed().as_secs_f64() < MIN_MEASURE_S {
        pass();
        passes += 1;
    }
    start.elapsed().as_nanos() as f64 / (passes * units.max(1)) as f64
}

fn score_records(records: &[Record]) -> impl Iterator<Item = (&Record, u32, &[u32])> {
    records.iter().filter_map(|r| match &r.op {
        Op::Score { group, items, .. } if r.scores.is_some() => Some((r, *group, items.as_slice())),
        _ => None,
    })
}

/// Encode and decode every score request and reply of the run through
/// the public codec, as the client and server do.
fn wire_probe(records: &[Record], p: &mut Probes) {
    let exchanges: Vec<(Request, Response)> = score_records(records)
        .enumerate()
        .map(|(i, (r, group, items))| {
            let id = i as u64 + 1;
            let scores = r.scores.clone().expect("filtered to replies");
            (
                Request { id, group, deadline_us: 0, items: items.to_vec() },
                Response { id, reply: Ok(Reply::Scores(scores)) },
            )
        })
        .collect();
    let frames: Vec<(Vec<u8>, Vec<u8>)> = exchanges
        .iter()
        .map(|(q, a)| {
            let q = wire::encode_request(q).expect("request fits a frame");
            let a = wire::encode_response(a).expect("response fits a frame");
            (q, a)
        })
        .collect();
    let n = frames.len().max(1) as f64;
    p.wire_req_bytes = frames.iter().map(|(q, _)| q.len()).sum::<usize>() as f64 / n;
    p.wire_resp_bytes = frames.iter().map(|(_, a)| a.len()).sum::<usize>() as f64 / n;
    p.wire_encode_ns = time_per_unit(exchanges.len(), || {
        for (q, a) in &exchanges {
            black_box(wire::encode_request(black_box(q)).ok());
            black_box(wire::encode_response(black_box(a)).ok());
        }
    });
    // frames carry a 4-byte length prefix; the decoders take the payload
    p.wire_decode_ns = time_per_unit(frames.len(), || {
        for (q, a) in &frames {
            black_box(wire::decode_request(black_box(&q[4..])).ok());
            black_box(wire::decode_response(black_box(&a[4..])).ok());
        }
    });
}

/// The join/leave users the lifecycle layer sees: the run's own on a
/// churn workload, else those the writer of a churn stream of the same
/// seed draws.
fn mutations(inputs: &Inputs<'_>, traced: &Traced) -> Vec<LifecycleOp> {
    let op_of = |op: &Op| match op {
        Op::Join { group, user } => Some(LifecycleOp::Join { group: *group, user: *user }),
        Op::Leave { group, user } => Some(LifecycleOp::Leave { group: *group, user: *user }),
        Op::Score { .. } => None,
    };
    if inputs.workload.front == Front::Dynamic {
        return traced.phase.records.iter().filter_map(|r| op_of(&r.op)).collect();
    }
    let shape = crate::ops::StreamShape { churn: true, ..inputs.shape() };
    OpStream::new(shape, &inputs.ds.groups, inputs.seed, WRITER)
        .filter_map(|op| op_of(&op))
        .take(PROBE_MUTATIONS)
        .collect()
}

/// `RfCache` build, reads on the run's targets, and invalidate + repair
/// for the run's touched users, on a cache of the serving caches' k and
/// depth built over the model's graph.
fn rf_probe(
    model: &Kgag,
    inputs: &Inputs<'_>,
    traced: &Traced,
    ops: &[LifecycleOp],
    p: &mut Probes,
) {
    let config = model.config();
    let k = config.eval_neighbor_k.unwrap_or(config.neighbor_k);
    let sampler = NeighborSampler::new(k, derive_seed(config.seed, "eval-sampler"));
    let ckg = model.collaborative_kg();
    let graph = ckg.graph();
    let start = Instant::now();
    let mut cache =
        RfCache::build(&sampler, graph, config.layers, derive_seed(inputs.seed, "rf-probe"));
    p.rf_build_s = start.elapsed().as_secs_f64();

    let targets: Vec<Vec<u32>> = score_records(&traced.phase.records)
        .flat_map(|(_, group, items)| {
            let members = inputs.ds.groups[group as usize].iter().map(|&u| ckg.user_entity(u).0);
            let items = items.iter().map(|&v| ckg.item_entity(v).0);
            [members.collect::<Vec<u32>>(), items.collect()]
        })
        .collect();
    let total: usize = targets.iter().map(Vec::len).sum();
    p.rf_field_ns_per_target = time_per_unit(total, || {
        for t in &targets {
            black_box(cache.receptive_field(black_box(t)));
        }
    });

    for op in ops.iter().take(PROBE_MUTATIONS) {
        let (LifecycleOp::Join { user, .. } | LifecycleOp::Leave { user, .. }) = op else {
            continue;
        };
        let touched = [ckg.user_entity(*user).0];
        let t = Instant::now();
        let inv = cache.invalidate_reachable(graph, &touched);
        let t_inv = t.elapsed();
        let t = Instant::now();
        black_box(cache.repair(&sampler, graph));
        let t_rep = t.elapsed();
        p.rf_invalidate_us.push(t_inv.as_secs_f64() * 1e6);
        p.rf_repair_us.push(t_rep.as_secs_f64() * 1e6);
        p.rf_evicted.push(inv.evicted as f64);
    }
}

/// Apply join/leave pairs through the lifecycle seam of a fresh
/// `DynamicScorer` on the same model.
fn lifecycle_probe(model: &Kgag, ops: &[LifecycleOp]) -> Vec<u64> {
    let scorer = model.dynamic_scorer();
    let traced = TracedLifecycle::new(&scorer);
    for op in ops.iter().take(PROBE_MUTATIONS) {
        traced.apply_op(op).expect("probe mutations are valid");
    }
    traced.into_apply_ns()
}

/// Score the run's first requests one call at a time through a traced
/// sharded scorer on the same model.
fn shard_probe(model: &Kgag, traced: &Traced, p: &mut Probes) {
    let cases: Vec<(u32, Vec<u32>)> = score_records(&traced.phase.records)
        .take(PROBE_SHARD_CALLS)
        .map(|(_, g, items)| (g, items.to_vec()))
        .collect();
    let (router_ns, fetch, shard_s) = with_shards(model, |scorer, shard_s, _| {
        let traced = TracedSharded::new(scorer);
        for case in &cases {
            let out = traced.try_score_batch(std::slice::from_ref(case));
            assert!(out.iter().all(Result::is_ok), "shard probe call failed: {out:?}");
        }
        let (_, router_ns, fetch) = traced.finish();
        (router_ns, fetch, shard_s)
    });
    p.router_ns = router_ns;
    p.fetch = fetch;
    p.shard_calls = cases.len();
    p.shard_cands = cases.iter().map(|(_, items)| items.len()).sum();
    p.shard_setup_s = Some(shard_s);
}

/// Run every probe for a traced run of `inputs` on `model`.
pub fn run(model: &Kgag, inputs: &Inputs<'_>, traced: &Traced) -> Probes {
    let mut p = Probes::default();
    wire_probe(&traced.phase.records, &mut p);
    let ops = mutations(inputs, traced);
    rf_probe(model, inputs, traced, &ops, &mut p);
    p.apply_ns = if inputs.workload.front == Front::Dynamic {
        traced.seams.apply_ns.clone()
    } else {
        lifecycle_probe(model, &ops)
    };
    if inputs.workload.front == Front::Sharded {
        p.router_ns = traced.seams.router_ns.clone();
        p.fetch = traced.seams.fetch.clone();
        p.shard_calls = traced.seams.calls.len();
        p.shard_cands = traced.seams.calls.iter().map(|c| c.cands).sum();
    } else {
        shard_probe(model, traced, &mut p);
    }
    p
}
