//! Timing wrappers at the serving stack's public trait seams.
//!
//! The traced run hands these wrappers to the same `serve_tcp*` entry
//! points the untraced run uses. Each records spans in memory — start,
//! end and what the call carried — and the benchmark reads them after
//! the run; nothing is written while requests are in flight. The
//! program itself is not instrumented: every span starts and ends at a
//! call into a layer's public interface.

use kgag::{RouterCore, ShardError, ShardFetch};
use kgag_data::{GroupLifecycle, LifecycleAck, LifecycleError, LifecycleOp};
use kgag_eval::BatchGroupScorer;
use kgag_kg::Partition;
use kgag_serve::{ServeError, ServeResult, ShardPool, ShardedScorer, TryBatchGroupScorer};
use std::sync::Mutex;
use std::time::Instant;

/// One scorer call: the shared `engine.call` span of every request it
/// scored.
#[derive(Clone, Debug)]
pub struct CallSpan {
    pub start: Instant,
    pub end: Instant,
    /// `(group, candidate count, first candidate)` per case — enough to
    /// find the call that scored a given request.
    pub cases: Vec<(u32, usize, u32)>,
    pub cands: usize,
}

impl CallSpan {
    fn new(start: Instant, end: Instant, cases: &[(u32, Vec<u32>)]) -> CallSpan {
        CallSpan {
            start,
            end,
            cases: cases.iter().map(|(g, items)| (*g, items.len(), items[0])).collect(),
            cands: cases.iter().map(|(_, items)| items.len()).sum(),
        }
    }

    /// Whether this call scored `(group, items)`.
    pub fn scored(&self, group: u32, items: &[u32]) -> bool {
        self.cases.iter().any(|&(g, n, first)| g == group && n == items.len() && first == items[0])
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().expect("a traced call panicked while recording")
}

/// Times every `score_batch` call of an infallible scorer
/// (`BatchScorer`, `DynamicScorer`).
pub struct TracedBatch<'a, S: ?Sized> {
    inner: &'a S,
    calls: Mutex<Vec<CallSpan>>,
}

impl<'a, S: ?Sized> TracedBatch<'a, S> {
    pub fn new(inner: &'a S) -> Self {
        TracedBatch { inner, calls: Mutex::new(Vec::new()) }
    }

    pub fn into_calls(self) -> Vec<CallSpan> {
        self.calls.into_inner().expect("a traced call panicked while recording")
    }
}

impl<S: BatchGroupScorer + Sync + ?Sized> BatchGroupScorer for TracedBatch<'_, S> {
    fn score_batch(&self, cases: &[(u32, Vec<u32>)]) -> Vec<Vec<f32>> {
        let start = Instant::now();
        let out = self.inner.score_batch(cases);
        let end = Instant::now();
        lock(&self.calls).push(CallSpan::new(start, end, cases));
        out
    }
}

/// Times every lifecycle mutation applied through the seam.
pub struct TracedLifecycle<'a> {
    inner: &'a (dyn GroupLifecycle + Sync),
    apply_ns: Mutex<Vec<u64>>,
}

impl<'a> TracedLifecycle<'a> {
    pub fn new(inner: &'a (dyn GroupLifecycle + Sync)) -> Self {
        TracedLifecycle { inner, apply_ns: Mutex::new(Vec::new()) }
    }

    pub fn into_apply_ns(self) -> Vec<u64> {
        self.apply_ns.into_inner().expect("a traced call panicked while recording")
    }
}

impl GroupLifecycle for TracedLifecycle<'_> {
    fn apply_op(&self, op: &LifecycleOp) -> Result<LifecycleAck, LifecycleError> {
        let start = Instant::now();
        let out = self.inner.apply_op(op);
        lock(&self.apply_ns).push(start.elapsed().as_nanos() as u64);
        out
    }

    fn group_count(&self) -> u32 {
        self.inner.group_count()
    }

    fn item_count(&self) -> u32 {
        self.inner.item_count()
    }
}

/// What the router pulled from its shard peers.
#[derive(Clone, Debug, Default)]
pub struct FetchLog {
    /// Wall time of each `ShardFetch` call (its fan-out to every peer
    /// it needs, and the replies).
    pub call_ns: Vec<u64>,
    /// Per-peer requests: one per non-empty partition bucket of a call.
    pub rpcs: u64,
    /// Entities whose keyed draws went over the wire.
    pub draws: u64,
    /// Embedding and relation rows fetched.
    pub rows: u64,
    /// Reply payload bytes (ids and row values).
    pub bytes: u64,
}

/// Times every [`ShardFetch`] call of a [`ShardPool`].
pub struct TracedFetch<'a> {
    pool: &'a ShardPool,
    entity_part: Partition,
    relation_part: Partition,
    log: Mutex<FetchLog>,
}

impl<'a> TracedFetch<'a> {
    pub fn new(pool: &'a ShardPool, core: &RouterCore) -> Self {
        TracedFetch {
            pool,
            entity_part: core.entity_partition(pool.count()),
            relation_part: core.relation_partition(pool.count()),
            log: Mutex::new(FetchLog::default()),
        }
    }

    fn record(
        &self,
        start: Instant,
        part: Partition,
        ids: &[u32],
        draws: u64,
        rows: u64,
        bytes: u64,
    ) {
        let peers = part.split(ids).iter().filter(|b| !b.is_empty()).count() as u64;
        let mut log = lock(&self.log);
        log.call_ns.push(start.elapsed().as_nanos() as u64);
        log.rpcs += peers;
        log.draws += draws;
        log.rows += rows;
        log.bytes += bytes;
    }
}

impl ShardFetch for TracedFetch<'_> {
    fn fetch_draws(
        &self,
        salt: u64,
        level: usize,
        entities: &[u32],
    ) -> Result<(Vec<u32>, Vec<u32>), ShardError> {
        let start = Instant::now();
        let out = self.pool.fetch_draws(salt, level, entities);
        let n = entities.len() as u64;
        self.record(start, self.entity_part, entities, n, 0, n * self.pool.k() as u64 * 8);
        out
    }

    fn fetch_entity_rows(&self, ids: &[u32]) -> Result<Vec<f32>, ShardError> {
        let start = Instant::now();
        let out = self.pool.fetch_entity_rows(ids);
        let n = ids.len() as u64;
        self.record(start, self.entity_part, ids, 0, n, n * self.pool.dim() as u64 * 4);
        out
    }

    fn fetch_relation_rows(&self, ids: &[u32]) -> Result<Vec<f32>, ShardError> {
        let start = Instant::now();
        let out = self.pool.fetch_relation_rows(ids);
        let n = ids.len() as u64;
        self.record(start, self.relation_part, ids, 0, n, n * self.pool.dim() as u64 * 4);
        out
    }
}

/// The sharded scorer with its router call and shard fetches timed:
/// `RouterCore::score_cases` over a [`TracedFetch`] of the scorer's own
/// pool, errors mapped exactly as `ShardedScorer` maps them.
pub struct TracedSharded<'a> {
    scorer: &'a ShardedScorer,
    fetch: TracedFetch<'a>,
    calls: Mutex<Vec<CallSpan>>,
    router_ns: Mutex<Vec<u64>>,
}

impl<'a> TracedSharded<'a> {
    pub fn new(scorer: &'a ShardedScorer) -> Self {
        TracedSharded {
            scorer,
            fetch: TracedFetch::new(scorer.pool(), scorer.core()),
            calls: Mutex::new(Vec::new()),
            router_ns: Mutex::new(Vec::new()),
        }
    }

    pub fn finish(self) -> (Vec<CallSpan>, Vec<u64>, FetchLog) {
        let poisoned = "a traced call panicked while recording";
        (
            self.calls.into_inner().expect(poisoned),
            self.router_ns.into_inner().expect(poisoned),
            self.fetch.log.into_inner().expect(poisoned),
        )
    }
}

impl TryBatchGroupScorer for TracedSharded<'_> {
    fn try_score_batch(&self, cases: &[(u32, Vec<u32>)]) -> Vec<ServeResult> {
        let start = Instant::now();
        // the benchmark only sends in-range ids, so the bounds checks
        // `ShardedScorer` adds in front of the router never fire here
        let scored = self.scorer.core().score_cases(&self.fetch, cases);
        let routed = Instant::now();
        let out = scored.into_iter().map(|r| r.map_err(|e| ServeError::Shard(e.kind))).collect();
        let end = Instant::now();
        lock(&self.router_ns).push((routed - start).as_nanos() as u64);
        lock(&self.calls).push(CallSpan::new(start, end, cases));
        out
    }
}
