//! The adaptive micro-batcher: one bounded queue, worker threads that
//! fuse queued requests into `score_batch` calls under a latency
//! budget, and a graceful drain on shutdown.
//!
//! Invariants (tested in `tests/serve_props.rs`, enforced end-to-end by
//! the `serve_check` CI gate):
//!
//! * **Exactly-one response.** Every request accepted by
//!   [`ServeHandle::submit`] resolves exactly once — scores, or a
//!   terminal [`ServeError`]. Shutdown drains the queue; nothing
//!   accepted is dropped, nothing is answered twice.
//! * **Fusion is value-neutral.** Workers only ever *group* requests
//!   into [`TryBatchGroupScorer::try_score_batch`] calls; they never
//!   reorder scores within a request or mix rows across requests. With a
//!   chunking-invariant scorer (the engine's `kgag::Scorer`), served
//!   scores are bit-identical to any offline scoring of the same cases.
//! * **Checked replies.** A result that does not fit its request (a
//!   missing result, or a row whose length differs from the request's
//!   items) is answered [`ServeError::Invalid`] for that request alone.
//! * **Bounded memory.** The queue never exceeds
//!   [`ServeConfig::queue_capacity`]; overflow is an immediate
//!   [`ServeError::Rejected`], so a slow model sheds load instead of
//!   accumulating it.

use crate::config::ServeConfig;
use crate::{ServeError, ServeResult, TryBatchGroupScorer};
use kgag_tensor::pool;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Instant;

/// One queued request: what to score, when it expires, and where the
/// answer goes. The response channel has capacity 1 and each request is
/// answered at most once, so worker sends never block.
struct Pending {
    group: u32,
    items: Vec<u32>,
    deadline: Option<Instant>,
    enqueued: Instant,
    tx: mpsc::SyncSender<ServeResult>,
}

struct QueueState {
    queue: VecDeque<Pending>,
    /// `false` once shutdown is triggered: no new submissions, workers
    /// drain the remainder and exit.
    open: bool,
}

/// Telemetry handles, interned once per process. Recording is a few
/// relaxed atomics — passive by the kgag-obs contract, so it never
/// perturbs scores.
struct Metrics {
    accepted: Arc<kgag_obs::Counter>,
    rejected: Arc<kgag_obs::Counter>,
    deadline_missed: Arc<kgag_obs::Counter>,
    responses: Arc<kgag_obs::Counter>,
    batches: Arc<kgag_obs::Counter>,
    queue_depth: Arc<kgag_obs::Gauge>,
    batch_requests: Arc<kgag_obs::Histogram>,
    latency_ns: Arc<kgag_obs::Histogram>,
    batch_score_ns: Arc<kgag_obs::Histogram>,
    scorer_panics: Arc<kgag_obs::Counter>,
}

impl Metrics {
    fn new() -> Metrics {
        Metrics {
            accepted: kgag_obs::counter("serve.requests_accepted"),
            rejected: kgag_obs::counter("serve.requests_rejected"),
            deadline_missed: kgag_obs::counter("serve.deadline_missed"),
            responses: kgag_obs::counter("serve.responses"),
            batches: kgag_obs::counter("serve.batches"),
            queue_depth: kgag_obs::gauge("serve.queue_depth"),
            batch_requests: kgag_obs::histogram("serve.batch_requests"),
            latency_ns: kgag_obs::histogram("serve.latency_ns"),
            batch_score_ns: kgag_obs::histogram("serve.batch_score_ns"),
            scorer_panics: kgag_obs::counter("serve.scorer_panics"),
        }
    }
}

struct Shared {
    state: Mutex<QueueState>,
    cv: Condvar,
    cfg: ServeConfig,
    metrics: Metrics,
    /// Live requests: accepted but not yet responded to. Lets tests and
    /// the drain guard observe "everything answered" directly.
    in_flight: AtomicUsize,
}

/// A cloneable client handle to a running batcher. All methods are
/// callable from any thread.
#[derive(Clone)]
pub struct ServeHandle {
    shared: Arc<Shared>,
}

/// An accepted request's pending response. [`wait`](Self::wait) blocks
/// until the batcher resolves it.
pub struct PendingResponse {
    rx: mpsc::Receiver<ServeResult>,
}

impl PendingResponse {
    /// Block until the request resolves. Returns
    /// [`ServeError::Canceled`] only if the server died abnormally
    /// before answering.
    pub fn wait(self) -> ServeResult {
        self.rx.recv().unwrap_or(Err(ServeError::Canceled))
    }
}

impl ServeHandle {
    /// Enqueue one scoring request. Returns immediately:
    /// `Ok(PendingResponse)` when accepted, [`ServeError::Rejected`]
    /// when the queue is full or the server has shut down. A `deadline`
    /// in the past (relative to worker drain time) resolves to
    /// [`ServeError::DeadlineMissed`] without scoring.
    pub fn submit(
        &self,
        group: u32,
        items: Vec<u32>,
        deadline: Option<Instant>,
    ) -> Result<PendingResponse, ServeError> {
        let shared = &self.shared;
        let (tx, rx) = mpsc::sync_channel(1);
        {
            let mut st = shared.state.lock().unwrap();
            if !st.open || st.queue.len() >= shared.cfg.queue_capacity {
                drop(st);
                shared.metrics.rejected.add(1);
                return Err(ServeError::Rejected);
            }
            st.queue.push_back(Pending { group, items, deadline, enqueued: Instant::now(), tx });
        }
        shared.in_flight.fetch_add(1, Ordering::Relaxed);
        shared.metrics.accepted.add(1);
        shared.metrics.queue_depth.add(1.0);
        shared.cv.notify_one();
        Ok(PendingResponse { rx })
    }

    /// Submit and block for the scores — the synchronous convenience
    /// used by per-connection server threads.
    pub fn score(&self, group: u32, items: Vec<u32>) -> ServeResult {
        self.submit(group, items, None)?.wait()
    }

    /// Like [`score`](Self::score) with an absolute expiry.
    pub fn score_by(&self, group: u32, items: Vec<u32>, deadline: Instant) -> ServeResult {
        self.submit(group, items, Some(deadline))?.wait()
    }

    /// Stop accepting new requests and wake every worker. Idempotent.
    /// Already-accepted requests are still drained and answered.
    pub fn shutdown(&self) {
        let mut st = self.shared.state.lock().unwrap();
        st.open = false;
        drop(st);
        self.shared.cv.notify_all();
    }

    /// Is the batcher still accepting submissions?
    pub fn is_open(&self) -> bool {
        self.shared.state.lock().unwrap().open
    }

    /// Requests currently queued (not yet picked up by a worker).
    pub fn queue_depth(&self) -> usize {
        self.shared.state.lock().unwrap().queue.len()
    }

    /// Requests accepted but not yet responded to (queued or scoring).
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::Relaxed)
    }
}

/// Run a batching server over `scorer` for the duration of `f`.
///
/// Spawns [`ServeConfig::workers`] worker threads borrowing `scorer`,
/// hands `f` a [`ServeHandle`] (clone it into as many client threads as
/// needed), and on exit — *including* a panic inside `f` — triggers
/// shutdown, drains every accepted request, and joins the workers
/// before returning. The caller's pool thread-count override is
/// captured here and re-applied inside each worker, since the pool's
/// thread-local override does not propagate to newly spawned threads.
pub fn serve_in_process<S, R>(
    scorer: &S,
    config: &ServeConfig,
    f: impl FnOnce(ServeHandle) -> R,
) -> R
where
    S: TryBatchGroupScorer + ?Sized,
{
    let shared = Arc::new(Shared {
        state: Mutex::new(QueueState { queue: VecDeque::new(), open: true }),
        cv: Condvar::new(),
        cfg: config.clone(),
        metrics: Metrics::new(),
        in_flight: AtomicUsize::new(0),
    });
    let handle = ServeHandle { shared: Arc::clone(&shared) };
    let threads = pool::num_threads();
    std::thread::scope(|s| {
        for _ in 0..shared.cfg.workers.max(1) {
            let shared = Arc::clone(&shared);
            s.spawn(move || pool::with_threads(threads, || worker_loop(scorer, &shared)));
        }
        // Shutdown must fire even if `f` unwinds: thread::scope joins
        // workers before propagating the panic, and workers only exit
        // once the queue is closed — without this guard a panic in `f`
        // would deadlock the join.
        let _drain = DrainGuard(handle.clone());
        f(handle)
    })
}

struct DrainGuard(ServeHandle);

impl Drop for DrainGuard {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// An *owned* running batcher: workers hold an `Arc` to the scorer
/// instead of borrowing it, so the batcher's lifetime is dynamic — the
/// shape the model registry needs, where entries (and their batchers)
/// are created by `LOAD` requests and retired at runtime rather than
/// scoped to a stack frame.
///
/// Same delivery contract as [`serve_in_process`]: dropping the
/// guard (or calling [`shutdown`](Self::shutdown)) stops admissions,
/// drains every accepted request, and joins the workers. The scorer is
/// freed when the last `Arc` drops — after the workers exit.
pub struct BatcherGuard {
    handle: ServeHandle,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl BatcherGuard {
    /// A cloneable client handle to this batcher.
    pub fn handle(&self) -> ServeHandle {
        self.handle.clone()
    }

    /// Stop accepting, drain, and join — the explicit form of `Drop`.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for BatcherGuard {
    fn drop(&mut self) {
        self.handle.shutdown();
        for w in self.workers.drain(..) {
            // A worker that panicked already answered or stranded
            // nothing new (score_and_respond catches scorer unwinds;
            // anything else is a batcher bug) — surfacing the panic
            // here would abort an otherwise-sound teardown.
            let _ = w.join();
        }
    }
}

/// Spawn [`ServeConfig::workers`] detached-lifetime workers over an
/// owned scorer and return the [`BatcherGuard`] that drains and joins
/// them on drop. The caller's pool thread-count override is captured
/// here and re-applied inside each worker, exactly as
/// [`serve_in_process`] does for scoped workers.
pub fn spawn_batcher<S>(scorer: Arc<S>, config: &ServeConfig) -> BatcherGuard
where
    S: TryBatchGroupScorer + Send + Sync + 'static,
{
    let shared = Arc::new(Shared {
        state: Mutex::new(QueueState { queue: VecDeque::new(), open: true }),
        cv: Condvar::new(),
        cfg: config.clone(),
        metrics: Metrics::new(),
        in_flight: AtomicUsize::new(0),
    });
    let handle = ServeHandle { shared: Arc::clone(&shared) };
    let threads = pool::num_threads();
    let workers = (0..shared.cfg.workers.max(1))
        .map(|_| {
            let shared = Arc::clone(&shared);
            let scorer = Arc::clone(&scorer);
            std::thread::spawn(move || {
                pool::with_threads(threads, || worker_loop(&*scorer, &shared))
            })
        })
        .collect();
    BatcherGuard { handle, workers }
}

/// One worker: wait for work, hold the batch window open, drain a
/// chunk, score, respond; exit when the queue is closed *and* empty.
fn worker_loop<S: TryBatchGroupScorer + ?Sized>(scorer: &S, shared: &Shared) {
    let cfg = &shared.cfg;
    loop {
        let mut st = shared.state.lock().unwrap();
        while st.queue.is_empty() && st.open {
            st = shared.cv.wait(st).unwrap();
        }
        if st.queue.is_empty() {
            return; // closed and fully drained
        }
        // Adaptive window: the first request of a batch waits up to
        // `batch_window` for company, but a full chunk or a shutdown
        // flushes immediately.
        if st.open && st.queue.len() < cfg.max_batch && !cfg.batch_window.is_zero() {
            let window_end = Instant::now() + cfg.batch_window;
            loop {
                let now = Instant::now();
                if now >= window_end || st.queue.len() >= cfg.max_batch || !st.open {
                    break;
                }
                let (guard, _) = shared.cv.wait_timeout(st, window_end - now).unwrap();
                st = guard;
            }
        }
        if st.queue.is_empty() {
            // A peer worker can steal every queued request while this
            // one sits in `wait_timeout` above. Draining the empty
            // queue anyway would record a phantom batch (a 0-length
            // `batch_requests` sample and a bogus `serve.batches`
            // tick); go back to waiting instead.
            continue;
        }
        let take = st.queue.len().min(cfg.max_batch);
        let batch: Vec<Pending> = st.queue.drain(..take).collect();
        let backlog = !st.queue.is_empty();
        drop(st);
        if backlog {
            // Leftovers belong to the next batch; wake a peer so they
            // are not stranded until the next submission's notify.
            shared.cv.notify_one();
        }
        shared.metrics.queue_depth.add(-(take as f64));
        shared.metrics.batches.add(1);
        shared.metrics.batch_requests.record(take as u64);
        score_and_respond(scorer, shared, batch);
    }
}

fn score_and_respond<S: TryBatchGroupScorer + ?Sized>(
    scorer: &S,
    shared: &Shared,
    batch: Vec<Pending>,
) {
    // Expired requests are dropped *before* scoring — their slots do not
    // inflate the fused batch.
    let now = Instant::now();
    let mut live = Vec::with_capacity(batch.len());
    for p in batch {
        if p.deadline.is_some_and(|d| d < now) {
            shared.metrics.deadline_missed.add(1);
            respond(shared, &p.tx, Err(ServeError::DeadlineMissed));
        } else {
            live.push(p);
        }
    }
    if live.is_empty() {
        return;
    }
    let mut cases = Vec::with_capacity(live.len());
    let mut meta = Vec::with_capacity(live.len());
    for p in live {
        cases.push((p.group, p.items));
        meta.push((p.tx, p.enqueued));
    }
    let t0 = Instant::now();
    // A panicking scorer must not take the worker down: queued requests
    // would strand unanswered and the drain join would deadlock. The
    // panic is confined to this batch — every live request in it is
    // answered `Canceled` — and the worker survives to score the next
    // one. (`AssertUnwindSafe` is sound here: the scorer is `&S`, and a
    // scorer left inconsistent by its own panic is the scorer's bug —
    // the batcher's own state is untouched by the unwind.)
    let results =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| scorer.try_score_batch(&cases)));
    shared.metrics.batch_score_ns.record(t0.elapsed().as_nanos() as u64);
    let results = match results {
        Ok(results) => results,
        Err(_) => {
            shared.metrics.scorer_panics.add(1);
            for (tx, _) in meta {
                respond(shared, &tx, Err(ServeError::Canceled));
            }
            return;
        }
    };
    // The reply must match the request — one result per case, each row
    // as long as its items. A case that breaks that contract (a scorer
    // answering an id it cannot score with an empty row, or a miscount)
    // is answered `Invalid` alone; its neighbours keep their scores.
    let mut results = results.into_iter();
    for ((_, items), (tx, enqueued)) in cases.iter().zip(meta) {
        let result = match results.next() {
            Some(Ok(row)) if row.len() != items.len() => Err(ServeError::Invalid),
            Some(result) => result,
            None => Err(ServeError::Invalid),
        };
        shared.metrics.latency_ns.record(enqueued.elapsed().as_nanos() as u64);
        respond(shared, &tx, result);
    }
}

fn respond(shared: &Shared, tx: &mpsc::SyncSender<ServeResult>, result: ServeResult) {
    shared.metrics.responses.add(1);
    shared.in_flight.fetch_sub(1, Ordering::Relaxed);
    // A client that dropped its PendingResponse just discards the
    // answer; that must not take the worker down.
    let _ = tx.send(result);
}
