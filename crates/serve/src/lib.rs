//! # kgag-serve
//!
//! A concurrent scoring front-end over any [`TryBatchGroupScorer`] —
//! every [`BatchGroupScorer`](kgag_eval::protocol::BatchGroupScorer),
//! such as the engine's [`kgag::Scorer`], is one: load a model once,
//! share it read-only across threads, and turn many small independent
//! `(group, candidates)` requests into the large fused batches the
//! inference engine is fast at.
//!
//! The core is an **adaptive micro-batcher** ([`batcher`]): requests
//! from any number of client threads land in one bounded queue; worker
//! threads drain it in chunks, waiting up to a configurable latency
//! budget ([`ServeConfig::batch_window`]) for more requests to fuse
//! before calling the scorer once per chunk.
//! Because the engine's batched scorer is bit-identical at *any*
//! chunking (the batched-oracle guarantee, re-enforced for serving by
//! `crates/bench/src/bin/serve_check.rs`), fusing arbitrary interleavings
//! of concurrent requests is value-neutral: every client receives
//! exactly the scores the offline evaluation path would have produced.
//!
//! Bad ids fail alone: `kgag::Scorer` answers a case naming an unknown
//! group or item with an empty row, and the batcher checks every reply
//! against its request (one result per case, each row as long as its
//! items), answering a mismatch [`ServeError::Invalid`] — so the bad
//! request's fused neighbours keep their scores and nothing panics.
//!
//! Three layers, innermost first:
//!
//! * [`serve_in_process`] — spawn workers over a borrowed scorer, hand
//!   the caller a cloneable [`ServeHandle`], drain gracefully on exit.
//!   This is the API the CI bit-identity gate and the TCP layer build on.
//! * [`wire`] — a tiny length-prefixed binary protocol (little-endian,
//!   `u32` frame length) for request/response over a byte stream.
//! * [`serve_tcp`] / [`ServeClient`] — a loopback-first TCP server:
//!   one OS thread per connection feeding the shared batcher, shutdown
//!   via a [`ShutdownToken`].
//!
//! [`serve_tcp_dynamic`] layers **group lifecycle** on the same socket
//! (DESIGN.md §13): create/join/leave opcodes dispatched to a
//! [`GroupLifecycle`](kgag_data::GroupLifecycle) backend synchronously
//! on the connection thread — never through the batcher — so a
//! client's next score request always observes its own mutation.
//! Servers without a backend ([`serve_tcp`]) answer mutations with
//! [`ServeError::Unsupported`] on a still-usable connection.
//!
//! Delivery contract: every request accepted by [`ServeHandle::submit`]
//! receives **exactly one** response — a score vector, or a terminal
//! [`ServeError`] — even across shutdown. Backpressure is explicit:
//! submissions beyond [`ServeConfig::queue_capacity`] are rejected
//! immediately rather than queued unboundedly.
//!
//! Everything is std-only, in keeping with the workspace's hermetic
//! build policy (DESIGN.md §"Hermetic builds"); telemetry flows through
//! `kgag-obs` under the `serve.*` namespace (DESIGN.md §12).

pub mod batcher;
pub mod config;
pub mod registry;
pub mod server;
pub mod shard;
pub mod wire;

pub use batcher::{serve_in_process, spawn_batcher, BatcherGuard, PendingResponse, ServeHandle};
pub use config::ServeConfig;
pub use registry::{serve_tcp_registry, Governor, ModelFactory, RegistryConfig, RegistryServer};
pub use server::{
    serve_tcp, serve_tcp_dynamic, serve_tcp_try, ClientError, LifecycleResult, RegistryResult,
    ServeClient, ShutdownToken,
};
pub use shard::{serve_shard, ShardConfig, ShardPool, ShardedScorer};

/// Terminal, per-request failure modes. Every accepted request resolves
/// to scores or to exactly one of these.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The queue was at capacity, or the server had stopped accepting
    /// (shutdown already triggered). The request was never enqueued.
    Rejected,
    /// The request sat in the queue past its deadline and was dropped
    /// unscored.
    DeadlineMissed,
    /// The server terminated before producing a response (worker
    /// panic). Accepted requests only see this on abnormal exit —
    /// graceful shutdown drains the queue instead.
    Canceled,
    /// The wire-level request could not be decoded, or a score request
    /// named an out-of-range group or item (a lifecycle-aware server
    /// answers an unknown group with [`ServeError::Lifecycle`] instead).
    Invalid,
    /// A lifecycle opcode reached a server without a lifecycle backend
    /// (static [`serve_tcp`]; mutations need
    /// [`server::serve_tcp_dynamic`]).
    Unsupported,
    /// A well-formed lifecycle mutation the backend rejected (unknown
    /// group, duplicate member, …); the serving state is unchanged.
    Lifecycle(kgag_data::LifecycleError),
    /// A sharded deployment could not reach every embedding row or draw
    /// the request needs (peer down, timed out, or answering garbage).
    /// Only requests whose receptive field touches the failed shard see
    /// this; the rest of the batch is answered normally.
    Shard(kgag::ShardErrorKind),
    /// The tenant's admission quota is exhausted (token bucket empty on
    /// a registry server, DESIGN.md §16). The request was never
    /// enqueued; the client should back off.
    Quota,
    /// A `LOAD` could not produce a model from the named checkpoint
    /// (unreadable file, shape mismatch). The detail is logged
    /// server-side; the registry is unchanged.
    LoadFailed,
    /// A well-formed registry transition the state machine rejected
    /// (unknown tenant or model, unproven shadow, …); the registry is
    /// unchanged.
    Registry(kgag::RegistryError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Rejected => f.write_str("rejected: queue full or server shut down"),
            ServeError::DeadlineMissed => f.write_str("deadline missed before scoring"),
            ServeError::Canceled => f.write_str("server terminated before responding"),
            ServeError::Invalid => f.write_str("malformed request"),
            ServeError::Unsupported => f.write_str("lifecycle ops unsupported by this server"),
            ServeError::Lifecycle(e) => write!(f, "lifecycle rejected: {e}"),
            ServeError::Shard(kind) => {
                let what = match kind {
                    kgag::ShardErrorKind::Unavailable => "a shard is unavailable",
                    kgag::ShardErrorKind::Timeout => "a shard timed out",
                    kgag::ShardErrorKind::Protocol => "a shard answered garbage",
                    kgag::ShardErrorKind::Invalid => "a group or item id is out of range",
                };
                write!(f, "sharded scoring failed: {what}")
            }
            ServeError::Quota => f.write_str("tenant admission quota exhausted"),
            ServeError::LoadFailed => f.write_str("checkpoint load failed"),
            ServeError::Registry(e) => write!(f, "registry rejected: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// What a request resolves to: scores aligned with the submitted items,
/// or a terminal error.
pub type ServeResult = Result<Vec<f32>, ServeError>;

/// A batch scorer whose cases can fail *individually* — the seam the
/// batcher drains. Every [`BatchGroupScorer`] is one (each row wrapped
/// in `Ok`; the batcher answers a row whose length disagrees with its
/// items [`ServeError::Invalid`]); the sharded [`ShardedScorer`]
/// implements it directly, mapping per-case [`kgag::ShardError`]s to
/// [`ServeError::Shard`] so one dead peer fails only the requests that
/// needed it, never the whole batch.
///
/// [`BatchGroupScorer`]: kgag_eval::protocol::BatchGroupScorer
pub trait TryBatchGroupScorer: Sync {
    /// One result per case, aligned with `cases`; `Ok` rows are aligned
    /// with that case's items.
    fn try_score_batch(&self, cases: &[(u32, Vec<u32>)]) -> Vec<ServeResult>;
}

impl<S: kgag_eval::protocol::BatchGroupScorer + Sync + ?Sized> TryBatchGroupScorer for S {
    fn try_score_batch(&self, cases: &[(u32, Vec<u32>)]) -> Vec<ServeResult> {
        self.score_batch(cases).into_iter().map(Ok).collect()
    }
}

/// A [`TryBatchGroupScorer`] that misbehaves on a scripted schedule —
/// the interpreter for [`kgag_testkit::FaultPlan`] (which owns the
/// schedule; this wrapper owns the scorer it wraps). One scoring call
/// draws one [`FaultAction`](kgag_testkit::FaultAction):
///
/// * `Pass` — delegate untouched;
/// * `Panic` — panic mid-batch (the batcher must survive and answer);
/// * `Delay(d)` — sleep, then delegate (drives queued requests past
///   their deadlines);
/// * `Error` — fail every case with [`ServeError::Shard`] /
///   `Unavailable`, the typed dependency-outage shape;
/// * `Corrupt` — delegate, then flip the low mantissa bit of the first
///   score (the minimal bit-identity violation, for circuit-breaker
///   tests).
///
/// The property suites in `crates/serve/tests/fault_props.rs` wrap the
/// batcher's scorer in this and prove the exactly-once delivery
/// contract under every action.
pub struct FaultScorer<S> {
    inner: S,
    plan: kgag_testkit::FaultPlan,
}

impl<S> FaultScorer<S> {
    /// Wrap `inner`, misbehaving per `plan`.
    pub fn new(inner: S, plan: kgag_testkit::FaultPlan) -> Self {
        FaultScorer { inner, plan }
    }

    /// The schedule (for asserting on calls drawn / faults injected).
    pub fn plan(&self) -> &kgag_testkit::FaultPlan {
        &self.plan
    }
}

impl<S: TryBatchGroupScorer> TryBatchGroupScorer for FaultScorer<S> {
    fn try_score_batch(&self, cases: &[(u32, Vec<u32>)]) -> Vec<ServeResult> {
        use kgag_testkit::FaultAction;
        match self.plan.next_action() {
            FaultAction::Pass => self.inner.try_score_batch(cases),
            FaultAction::Panic => panic!("injected fault: scorer panic"),
            FaultAction::Delay(d) => {
                std::thread::sleep(d);
                self.inner.try_score_batch(cases)
            }
            FaultAction::Error => cases
                .iter()
                .map(|_| Err(ServeError::Shard(kgag::ShardErrorKind::Unavailable)))
                .collect(),
            FaultAction::Corrupt => {
                let mut out = self.inner.try_score_batch(cases);
                if let Some(s) = out.iter_mut().filter_map(|r| r.as_mut().ok()).flatten().next() {
                    *s = f32::from_bits(s.to_bits() ^ 1);
                }
                out
            }
        }
    }
}
