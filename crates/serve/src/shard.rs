//! Sharded scatter-gather serving (DESIGN.md §15).
//!
//! A sharded deployment splits the embedding tables and the knowledge
//! graph's adjacency rows across `N` shard processes (contiguous row
//! ranges, [`kgag_kg::Partition`]); a router process holds only the
//! small dense parameters ([`kgag::RouterCore`]) and assembles each
//! request's receptive field by querying shards for keyed neighbour
//! draws and raw embedding rows, then runs the *same* inference engine
//! a single-node server would. Because draws are keyed on
//! `(seed, salt, entity, level)` and entity-local, and because score
//! fusion happens entirely on the router in the canonical tape
//! reduction order, sharded scores are **bit-identical** to single-node
//! scores at any shard count — enforced by
//! `crates/bench/src/bin/shard_check.rs` in CI.
//!
//! Wire protocol: the same little-endian `u32` length-prefixed framing
//! as [`crate::wire`], with shard-only opcodes on dedicated
//! router↔shard connections (never mixed with client traffic):
//!
//! * [`OP_SHARD_INFO`] — handshake. Empty body; the reply carries
//!   `[index u32, count u32, dim u32, k u32, entities u64,
//!   relations u64]` and the router refuses to start on any mismatch
//!   with its own model card.
//! * [`OP_SHARD_DRAWS`] — body `[salt u64, level u32, n u32, n×id u32]`
//!   (every id owned by the shard); the reply carries `n*k` child
//!   entity ids then `n*k` relation ids, query-major.
//! * [`OP_SHARD_ROWS`] — body `[table u8, n u32, n×id u32]` with table
//!   `0` = entity, `1` = relation; the reply carries `n*dim` raw
//!   (unscaled) `f32` row values in query order.
//!
//! Every shard reply starts with a status byte: `0` = ok, anything else
//! = a refusal whose body is a human-readable reason. Refusals mean a
//! mis-routed or malformed request (wrong shard, unknown opcode,
//! truncated body) — the connection stays usable.
//!
//! Failure semantics: [`ShardPool`] gives each peer one worker thread
//! that owns the connection and drains a bounded job queue
//! ([`ShardConfig::queue`], blocking submitters when full — explicit
//! backpressure, never unbounded buffering). A transport failure or a
//! reply timeout ([`ShardConfig::timeout`]) marks the peer dead —
//! request/reply framing cannot be resynchronised after a partial read
//! — and every queued and future job on that peer fails fast with a
//! typed [`kgag::ShardError`]. The router maps those to
//! [`ServeError::Shard`] **per request**: only requests whose receptive
//! field touches the dead shard fail; the rest of the batch is answered
//! normally, and nothing panics or hangs.

use crate::config::parse_or;
use crate::server::{listen, serve_connections, ShutdownToken};
use crate::wire::{self, Cursor, MAX_FRAME};
use crate::{ServeError, ServeResult, TryBatchGroupScorer};
use kgag::{RouterCore, ShardError, ShardErrorKind, ShardFetch};
use kgag_kg::{Partition, ShardState};
use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Shard handshake: reply describes the shard's slice and model card.
pub const OP_SHARD_INFO: u8 = 16;
/// Keyed neighbour draws for owned entities at one RF level.
pub const OP_SHARD_DRAWS: u8 = 17;
/// Raw embedding-row gather from one table.
pub const OP_SHARD_ROWS: u8 = 18;

/// `table` operand of [`OP_SHARD_ROWS`]: the entity embedding table.
pub const TABLE_ENTITY: u8 = 0;
/// `table` operand of [`OP_SHARD_ROWS`]: the relation embedding table.
pub const TABLE_RELATION: u8 = 1;

const STATUS_OK: u8 = 0;
const STATUS_ERR: u8 = 1;

/// Router-side knobs for talking to shard peers.
#[derive(Clone, Debug)]
pub struct ShardConfig {
    /// Per-reply deadline on each shard connection. A peer that blows
    /// it is marked dead (the stream cannot be resynchronised) and
    /// surfaces [`kgag::ShardErrorKind::Timeout`] on affected requests.
    pub timeout: Duration,
    /// Bounded per-peer job queue depth. Submitters block when it is
    /// full — backpressure propagates to the batcher instead of
    /// buffering unboundedly.
    pub queue: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig { timeout: Duration::from_millis(2000), queue: 64 }
    }
}

impl ShardConfig {
    /// Read the config from the environment, falling back to defaults:
    /// `KGAG_SHARD_TIMEOUT_MS`, `KGAG_SHARD_QUEUE`. Unparseable values
    /// are ignored; both are clamped to at least 1.
    pub fn from_env() -> Self {
        let d = ShardConfig::default();
        ShardConfig {
            timeout: Duration::from_millis(parse_or(
                std::env::var("KGAG_SHARD_TIMEOUT_MS").ok().as_deref(),
                d.timeout.as_millis() as u64,
                1,
            )),
            queue: parse_or(std::env::var("KGAG_SHARD_QUEUE").ok().as_deref(), d.queue as u64, 1)
                as usize,
        }
    }
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

/// A decoded shard-side request.
#[derive(Debug, PartialEq, Eq)]
enum ShardRequest {
    Info,
    Draws { salt: u64, level: u32, ids: Vec<u32> },
    Rows { table: u8, ids: Vec<u32> },
}

fn encode_info() -> Vec<u8> {
    vec![OP_SHARD_INFO]
}

fn encode_draws(salt: u64, level: u32, ids: &[u32]) -> Vec<u8> {
    let mut p = Vec::with_capacity(1 + 8 + 4 + 4 + ids.len() * 4);
    p.push(OP_SHARD_DRAWS);
    p.extend_from_slice(&salt.to_le_bytes());
    p.extend_from_slice(&level.to_le_bytes());
    p.extend_from_slice(&(ids.len() as u32).to_le_bytes());
    for &id in ids {
        p.extend_from_slice(&id.to_le_bytes());
    }
    p
}

fn encode_rows(table: u8, ids: &[u32]) -> Vec<u8> {
    let mut p = Vec::with_capacity(1 + 1 + 4 + ids.len() * 4);
    p.push(OP_SHARD_ROWS);
    p.push(table);
    p.extend_from_slice(&(ids.len() as u32).to_le_bytes());
    for &id in ids {
        p.extend_from_slice(&id.to_le_bytes());
    }
    p
}

fn decode_shard_request(payload: &[u8]) -> Result<ShardRequest, String> {
    let mut c = Cursor::new(payload);
    let op = c.u8().map_err(|_| "empty shard request".to_owned())?;
    match op {
        OP_SHARD_INFO => c.finish("shard info").map(|()| ShardRequest::Info),
        OP_SHARD_DRAWS => {
            let salt = c.u64()?;
            let level = c.u32()?;
            let ids = c.u32_list("id")?;
            Ok(ShardRequest::Draws { salt, level, ids })
        }
        OP_SHARD_ROWS => {
            let table = c.u8()?;
            if table != TABLE_ENTITY && table != TABLE_RELATION {
                return Err(format!("unknown row table {table}"));
            }
            let ids = c.u32_list("id")?;
            Ok(ShardRequest::Rows { table, ids })
        }
        other => Err(format!("unknown shard opcode {other}")),
    }
}

/// Split a shard reply into its ok-body, or the refusal reason.
fn parse_reply(payload: &[u8]) -> Result<Vec<u8>, String> {
    match payload.split_first() {
        Some((&STATUS_OK, body)) => Ok(body.to_vec()),
        Some((_, body)) => Err(String::from_utf8_lossy(body).into_owned()),
        None => Err("empty shard reply".to_owned()),
    }
}

fn ok_reply(body: &[u8]) -> Vec<u8> {
    let mut p = Vec::with_capacity(1 + body.len());
    p.push(STATUS_OK);
    p.extend_from_slice(body);
    p
}

fn err_reply(msg: &str) -> Vec<u8> {
    let mut p = Vec::with_capacity(1 + msg.len());
    p.push(STATUS_ERR);
    p.extend_from_slice(msg.as_bytes());
    p
}

// ---------------------------------------------------------------------------
// Shard server
// ---------------------------------------------------------------------------

/// Serve one shard's slice over TCP until `token` is triggered.
///
/// Runs the front door's accept and connection loops
/// ([`crate::serve_tcp`]): binds `addr` (use `127.0.0.1:0` for an
/// ephemeral port), reports the bound address through `on_ready`, then
/// accepts router connections on the calling thread — one handler
/// thread per connection, requests answered synchronously in order.
/// Shards are stateless request/reply servers; all batching, caching
/// and fusion lives on the router.
pub fn serve_shard(
    state: &ShardState,
    addr: &str,
    token: &ShutdownToken,
    on_ready: impl FnOnce(SocketAddr),
) -> std::io::Result<()> {
    let (listener, local) = listen(addr)?;
    on_ready(local);
    serve_connections(&listener, token, &|payload: &[u8]| shard_frame(state, payload));
    Ok(())
}

/// Answer one shard request as a reply frame: a status byte, then the
/// body or the refusal reason. A reply too large for one frame degrades
/// to a refusal, which always fits.
fn shard_frame(state: &ShardState, payload: &[u8]) -> Vec<u8> {
    let reply = match answer_shard(state, payload) {
        Ok(body) => ok_reply(&body),
        Err(msg) => err_reply(&msg),
    };
    wire::frame(&reply).unwrap_or_else(|_| {
        wire::frame(&err_reply("reply exceeds MAX_FRAME")).expect("error replies fit one frame")
    })
}

/// Decode and answer one shard request. Ownership is pre-validated so a
/// mis-routed id becomes a refusal, never a [`ShardState`] panic.
fn answer_shard(state: &ShardState, payload: &[u8]) -> Result<Vec<u8>, String> {
    match decode_shard_request(payload)? {
        ShardRequest::Info => {
            let mut body = Vec::with_capacity(4 * 4 + 8 * 2);
            body.extend_from_slice(&(state.index() as u32).to_le_bytes());
            body.extend_from_slice(&(state.entity_partition().shards() as u32).to_le_bytes());
            body.extend_from_slice(&(state.dim() as u32).to_le_bytes());
            body.extend_from_slice(&(state.k() as u32).to_le_bytes());
            body.extend_from_slice(&(state.entity_partition().rows() as u64).to_le_bytes());
            body.extend_from_slice(&(state.relation_partition().rows() as u64).to_le_bytes());
            Ok(body)
        }
        ShardRequest::Draws { salt, level, ids } => {
            if let Some(&id) = ids.iter().find(|&&id| !state.owns_entity(id)) {
                return Err(format!("entity {id} not owned by shard {}", state.index()));
            }
            let k = state.k();
            if ids.len().saturating_mul(k).saturating_mul(8) > MAX_FRAME {
                return Err("draws reply would exceed MAX_FRAME".to_owned());
            }
            let (children, relations) = state.draws(salt, level as usize, &ids);
            let mut body = Vec::with_capacity((children.len() + relations.len()) * 4);
            for &c in &children {
                body.extend_from_slice(&c.to_le_bytes());
            }
            for &r in &relations {
                body.extend_from_slice(&r.to_le_bytes());
            }
            Ok(body)
        }
        ShardRequest::Rows { table, ids } => {
            let owns = |id: u32| match table {
                TABLE_ENTITY => state.owns_entity(id),
                _ => state.owns_relation(id),
            };
            if let Some(&id) = ids.iter().find(|&&id| !owns(id)) {
                return Err(format!("row {id} not owned by shard {}", state.index()));
            }
            if ids.len().saturating_mul(state.dim()).saturating_mul(4) > MAX_FRAME {
                return Err("rows reply would exceed MAX_FRAME".to_owned());
            }
            let mut rows = Vec::with_capacity(ids.len() * state.dim());
            match table {
                TABLE_ENTITY => state.gather_entity_rows(&ids, &mut rows),
                _ => state.gather_relation_rows(&ids, &mut rows),
            }
            let mut body = Vec::with_capacity(rows.len() * 4);
            for &v in &rows {
                body.extend_from_slice(&v.to_le_bytes());
            }
            Ok(body)
        }
    }
}

// ---------------------------------------------------------------------------
// Router-side peer pool
// ---------------------------------------------------------------------------

/// What the shard reported at handshake; the router checks this against
/// its own [`RouterCore`] before serving anything.
#[derive(Clone, Copy, Debug)]
struct PeerInfo {
    index: usize,
    count: usize,
    dim: usize,
    k: usize,
    entities: usize,
    relations: usize,
}

fn decode_info(body: &[u8]) -> Result<PeerInfo, String> {
    if body.len() != 4 * 4 + 8 * 2 {
        return Err(format!("info reply of {} bytes, expected 32", body.len()));
    }
    let u32_at = |o: usize| u32::from_le_bytes(body[o..o + 4].try_into().unwrap()) as usize;
    let u64_at = |o: usize| u64::from_le_bytes(body[o..o + 8].try_into().unwrap()) as usize;
    Ok(PeerInfo {
        index: u32_at(0),
        count: u32_at(4),
        dim: u32_at(8),
        k: u32_at(12),
        entities: u64_at(16),
        relations: u64_at(24),
    })
}

/// How a transact attempt failed, and whether the connection survives.
enum Transport {
    /// The stream may be desynchronised (partial write/read, timeout,
    /// invalid length prefix): the peer is marked dead.
    Fatal(ShardErrorKind),
    /// A complete, well-framed refusal: the stream stays usable.
    App(ShardErrorKind),
}

fn transact(stream: &mut TcpStream, request: &[u8]) -> Result<Vec<u8>, Transport> {
    let frame = wire::frame(request).map_err(|_| Transport::App(ShardErrorKind::Protocol))?;
    stream
        .write_all(&frame)
        .and_then(|()| stream.flush())
        .map_err(|_| Transport::Fatal(ShardErrorKind::Unavailable))?;
    let payload = wire::read_frame(stream).map_err(|e| match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => Transport::Fatal(ShardErrorKind::Timeout),
        ErrorKind::InvalidData => Transport::Fatal(ShardErrorKind::Protocol),
        _ => Transport::Fatal(ShardErrorKind::Unavailable),
    })?;
    parse_reply(&payload).map_err(|_| Transport::App(ShardErrorKind::Protocol))
}

type Job = (Vec<u8>, mpsc::SyncSender<Result<Vec<u8>, ShardErrorKind>>);

struct Peer {
    tx: mpsc::SyncSender<Job>,
    dead: Arc<AtomicBool>,
    worker: Option<std::thread::JoinHandle<()>>,
}

/// One worker owns the connection: jobs are strictly serialized per
/// peer, so request/reply pairing on the stream is trivial. Once the
/// peer is dead every remaining job fails fast without touching the
/// socket.
fn peer_worker(mut stream: TcpStream, rx: mpsc::Receiver<Job>, dead: Arc<AtomicBool>) {
    for (request, reply) in rx.iter() {
        let outcome = if dead.load(Ordering::Relaxed) {
            Err(ShardErrorKind::Unavailable)
        } else {
            match transact(&mut stream, &request) {
                Ok(body) => Ok(body),
                Err(Transport::App(kind)) => Err(kind),
                Err(Transport::Fatal(kind)) => {
                    dead.store(true, Ordering::Relaxed);
                    Err(kind)
                }
            }
        };
        // a submitter that gave up still must not take the worker down
        let _ = reply.send(outcome);
    }
}

/// A connection pool over the shard peers of one deployment,
/// implementing [`kgag::ShardFetch`] for the router. Construction
/// handshakes every peer and fails fast on any model-card or placement
/// mismatch; see the module docs for runtime failure semantics.
pub struct ShardPool {
    peers: Vec<Peer>,
    entity_part: Partition,
    relation_part: Partition,
    dim: usize,
    k: usize,
}

impl ShardPool {
    /// Connect to the shard peers, in shard order. Each peer must
    /// report the matching index, the full peer count, and the same
    /// model card as every other peer.
    pub fn connect<A: ToSocketAddrs>(addrs: &[A], cfg: &ShardConfig) -> std::io::Result<ShardPool> {
        assert!(!addrs.is_empty(), "a sharded deployment needs at least one peer");
        let bad = |msg: String| std::io::Error::new(ErrorKind::InvalidData, msg);
        let mut streams = Vec::with_capacity(addrs.len());
        let mut first: Option<PeerInfo> = None;
        for (i, addr) in addrs.iter().enumerate() {
            let mut stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(cfg.timeout))?;
            let body = match transact(&mut stream, &encode_info()) {
                Ok(body) => body,
                Err(_) => return Err(bad(format!("shard {i}: info handshake failed"))),
            };
            let info = decode_info(&body).map_err(|e| bad(format!("shard {i}: {e}")))?;
            if info.index != i {
                return Err(bad(format!("peer {i} claims shard index {}", info.index)));
            }
            if info.count != addrs.len() {
                return Err(bad(format!(
                    "shard {i} expects {} peers, router has {}",
                    info.count,
                    addrs.len()
                )));
            }
            if let Some(f) = first {
                if (info.dim, info.k, info.entities, info.relations)
                    != (f.dim, f.k, f.entities, f.relations)
                {
                    return Err(bad(format!("shard {i} disagrees with shard 0 on the model card")));
                }
            } else {
                first = Some(info);
            }
            streams.push(stream);
        }
        let info = first.expect("at least one peer");
        let peers = streams
            .into_iter()
            .map(|stream| {
                let (tx, rx) = mpsc::sync_channel::<Job>(cfg.queue);
                let dead = Arc::new(AtomicBool::new(false));
                let worker_dead = Arc::clone(&dead);
                let worker = std::thread::spawn(move || peer_worker(stream, rx, worker_dead));
                Peer { tx, dead, worker: Some(worker) }
            })
            .collect();
        Ok(ShardPool {
            peers,
            entity_part: Partition::new(info.entities, addrs.len()),
            relation_part: Partition::new(info.relations, addrs.len()),
            dim: info.dim,
            k: info.k,
        })
    }

    pub fn count(&self) -> usize {
        self.peers.len()
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    pub fn k(&self) -> usize {
        self.k
    }

    pub fn num_entities(&self) -> usize {
        self.entity_part.rows()
    }

    pub fn num_relation_slots(&self) -> usize {
        self.relation_part.rows()
    }

    /// Is `shard` known-dead? (Diagnostic; requests already fail with
    /// typed errors either way.)
    pub fn is_dead(&self, shard: usize) -> bool {
        self.peers[shard].dead.load(Ordering::Relaxed)
    }

    /// Enqueue one request on a peer; blocks while its queue is full.
    fn submit(
        &self,
        shard: usize,
        request: Vec<u8>,
    ) -> Result<mpsc::Receiver<Result<Vec<u8>, ShardErrorKind>>, ShardError> {
        let (tx, rx) = mpsc::sync_channel(1);
        self.peers[shard]
            .tx
            .send((request, tx))
            .map_err(|_| ShardError { shard, kind: ShardErrorKind::Unavailable })?;
        Ok(rx)
    }

    fn collect(
        &self,
        shard: usize,
        rx: mpsc::Receiver<Result<Vec<u8>, ShardErrorKind>>,
    ) -> Result<Vec<u8>, ShardError> {
        match rx.recv() {
            Ok(Ok(body)) => Ok(body),
            Ok(Err(kind)) => Err(ShardError { shard, kind }),
            // worker gone: only possible when the pool is being torn down
            Err(_) => Err(ShardError { shard, kind: ShardErrorKind::Unavailable }),
        }
    }

    /// Scatter `ids` to their owners, gather `width` little-endian u32
    /// or f32 words per id back into query order via `write`.
    fn fan_out<T>(
        &self,
        part: &Partition,
        ids: &[u32],
        request: impl Fn(&[u32]) -> Vec<u8>,
        expect_words: impl Fn(usize) -> usize,
        mut scatter: impl FnMut(&[(usize, u32)], &[u8]) -> Result<(), ()>,
        out: T,
    ) -> Result<T, ShardError> {
        let buckets = part.split(ids);
        let mut pending = Vec::new();
        for (shard, bucket) in buckets.iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let shard_ids: Vec<u32> = bucket.iter().map(|&(_, id)| id).collect();
            pending.push((shard, self.submit(shard, request(&shard_ids))?));
        }
        for (shard, rx) in pending {
            let body = self.collect(shard, rx)?;
            let bucket = &buckets[shard];
            if body.len() != expect_words(bucket.len()) * 4 {
                return Err(ShardError { shard, kind: ShardErrorKind::Protocol });
            }
            scatter(bucket, &body)
                .map_err(|()| ShardError { shard, kind: ShardErrorKind::Protocol })?;
        }
        Ok(out)
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        for mut peer in self.peers.drain(..) {
            let Peer { tx, worker, .. } = &mut peer;
            // closing the job channel lets the worker drain and exit
            drop(std::mem::replace(tx, mpsc::sync_channel(1).0));
            if let Some(w) = worker.take() {
                let _ = w.join();
            }
        }
    }
}

impl ShardFetch for ShardPool {
    fn fetch_draws(
        &self,
        salt: u64,
        level: usize,
        entities: &[u32],
    ) -> Result<(Vec<u32>, Vec<u32>), ShardError> {
        let k = self.k;
        let mut children = vec![0u32; entities.len() * k];
        let mut relations = vec![0u32; entities.len() * k];
        self.fan_out(
            &self.entity_part,
            entities,
            |ids| encode_draws(salt, level as u32, ids),
            |n| n * k * 2,
            |bucket, body| {
                let half = bucket.len() * k * 4;
                for (bi, &(pos, _)) in bucket.iter().enumerate() {
                    for j in 0..k {
                        let c = 4 * (bi * k + j);
                        children[pos * k + j] =
                            u32::from_le_bytes(body[c..c + 4].try_into().unwrap());
                        let r = half + c;
                        relations[pos * k + j] =
                            u32::from_le_bytes(body[r..r + 4].try_into().unwrap());
                    }
                }
                Ok(())
            },
            (),
        )?;
        Ok((children, relations))
    }

    fn fetch_entity_rows(&self, ids: &[u32]) -> Result<Vec<f32>, ShardError> {
        self.fetch_rows(TABLE_ENTITY, &self.entity_part, ids)
    }

    fn fetch_relation_rows(&self, ids: &[u32]) -> Result<Vec<f32>, ShardError> {
        self.fetch_rows(TABLE_RELATION, &self.relation_part, ids)
    }

    fn shard_count(&self) -> usize {
        self.count()
    }
}

impl ShardPool {
    fn fetch_rows(&self, table: u8, part: &Partition, ids: &[u32]) -> Result<Vec<f32>, ShardError> {
        let dim = self.dim;
        let mut rows = vec![0f32; ids.len() * dim];
        self.fan_out(
            part,
            ids,
            |shard_ids| encode_rows(table, shard_ids),
            |n| n * dim,
            |bucket, body| {
                for (bi, &(pos, _)) in bucket.iter().enumerate() {
                    for j in 0..dim {
                        let o = 4 * (bi * dim + j);
                        rows[pos * dim + j] =
                            f32::from_le_bytes(body[o..o + 4].try_into().unwrap());
                    }
                }
                Ok(())
            },
            (),
        )?;
        Ok(rows)
    }
}

// ---------------------------------------------------------------------------
// The sharded scorer
// ---------------------------------------------------------------------------

/// The router's batch scorer: a [`RouterCore`] fused over a
/// [`ShardPool`]. Implements [`TryBatchGroupScorer`] — serve it with
/// [`crate::serve_tcp`] — and fails *per case*: out-of-range ids
/// become [`ServeError::Invalid`], shard failures become
/// [`ServeError::Shard`] on exactly the requests that needed the
/// failing peer.
pub struct ShardedScorer {
    core: RouterCore,
    pool: ShardPool,
}

impl ShardedScorer {
    /// Pair a router core with a connected pool. Panics on a model-card
    /// mismatch — a deployment error no request could ever recover
    /// from.
    pub fn new(core: RouterCore, pool: ShardPool) -> ShardedScorer {
        assert_eq!(pool.dim(), core.dim(), "shard pool and router disagree on dim");
        assert_eq!(pool.k(), core.sampler_k(), "shard pool and router disagree on sampler k");
        assert_eq!(
            pool.num_entities(),
            core.num_entities(),
            "shard pool and router disagree on entity count"
        );
        assert_eq!(
            pool.num_relation_slots(),
            core.num_relation_slots(),
            "shard pool and router disagree on relation count"
        );
        ShardedScorer { core, pool }
    }

    pub fn core(&self) -> &RouterCore {
        &self.core
    }

    pub fn pool(&self) -> &ShardPool {
        &self.pool
    }
}

impl TryBatchGroupScorer for ShardedScorer {
    fn try_score_batch(&self, cases: &[(u32, Vec<u32>)]) -> Vec<ServeResult> {
        // the router validates ids itself: a bad one is `Invalid` on
        // its own case, attributed to no peer
        let scored = self.core.score_cases(&self.pool, cases);
        scored
            .into_iter()
            .map(|r| {
                r.map_err(|e| match e.kind {
                    ShardErrorKind::Invalid => ServeError::Invalid,
                    kind => ServeError::Shard(kind),
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_request_roundtrips() {
        let p = encode_draws(0xdead_beef_u64, 2, &[1, 7, 42]);
        assert_eq!(
            decode_shard_request(&p).unwrap(),
            ShardRequest::Draws { salt: 0xdead_beef_u64, level: 2, ids: vec![1, 7, 42] }
        );
    }

    #[test]
    fn rows_request_roundtrips() {
        let p = encode_rows(TABLE_RELATION, &[0, 3]);
        assert_eq!(
            decode_shard_request(&p).unwrap(),
            ShardRequest::Rows { table: TABLE_RELATION, ids: vec![0, 3] }
        );
        assert_eq!(decode_shard_request(&encode_info()).unwrap(), ShardRequest::Info);
    }

    #[test]
    fn truncated_requests_are_refused_not_panicked() {
        let full = encode_draws(7, 1, &[1, 2, 3, 4]);
        for cut in 0..full.len() {
            assert!(
                decode_shard_request(&full[..cut]).is_err(),
                "cut at {cut} must fail to decode"
            );
        }
    }

    #[test]
    fn unknown_opcode_and_trailing_bytes_are_refused() {
        assert!(decode_shard_request(&[99]).is_err(), "unknown opcode");
        assert!(decode_shard_request(&[]).is_err(), "empty request");
        let mut p = encode_info();
        p.push(0);
        assert!(decode_shard_request(&p).is_err(), "trailing bytes");
        let bad_table = {
            let mut p = encode_rows(TABLE_ENTITY, &[1]);
            p[1] = 9;
            p
        };
        assert!(decode_shard_request(&bad_table).is_err(), "unknown table");
    }

    #[test]
    fn lying_id_count_is_a_framing_error() {
        // claims 1000 ids, supplies 2
        let mut p = vec![OP_SHARD_ROWS, TABLE_ENTITY];
        p.extend_from_slice(&1000u32.to_le_bytes());
        p.extend_from_slice(&1u32.to_le_bytes());
        p.extend_from_slice(&2u32.to_le_bytes());
        assert!(decode_shard_request(&p).is_err());
    }

    #[test]
    fn reply_status_bytes_are_honoured() {
        assert_eq!(parse_reply(&ok_reply(&[1, 2, 3])).unwrap(), vec![1, 2, 3]);
        assert_eq!(parse_reply(&err_reply("nope")).unwrap_err(), "nope");
        assert!(parse_reply(&[]).is_err(), "empty reply");
    }

    #[test]
    fn info_reply_roundtrips() {
        let mut body = Vec::new();
        body.extend_from_slice(&1u32.to_le_bytes());
        body.extend_from_slice(&3u32.to_le_bytes());
        body.extend_from_slice(&16u32.to_le_bytes());
        body.extend_from_slice(&4u32.to_le_bytes());
        body.extend_from_slice(&1234u64.to_le_bytes());
        body.extend_from_slice(&9u64.to_le_bytes());
        let info = decode_info(&body).unwrap();
        assert_eq!(
            (info.index, info.count, info.dim, info.k, info.entities, info.relations),
            (1, 3, 16, 4, 1234, 9)
        );
        assert!(decode_info(&body[..31]).is_err(), "short info reply");
    }

    #[test]
    fn shard_frames_reassemble_byte_at_a_time() {
        let reply = ok_reply(&encode_draws(1, 0, &[5, 6]));
        let frame = wire::frame(&reply).unwrap();
        let mut buf = Vec::new();
        let mut seen = None;
        for (i, &b) in frame.iter().enumerate() {
            buf.push(b);
            match wire::take_frame(&mut buf).unwrap() {
                Some(payload) => {
                    assert_eq!(i, frame.len() - 1, "frame must only complete on the last byte");
                    seen = Some(payload);
                }
                None => assert!(i < frame.len() - 1),
            }
        }
        assert_eq!(seen.unwrap(), reply);
        assert!(buf.is_empty(), "no residue after a whole frame");
    }

    #[test]
    fn oversize_frames_are_rejected_at_both_ends() {
        assert!(wire::frame(&vec![0u8; MAX_FRAME + 1]).is_err());
        let mut buf = (MAX_FRAME as u32 + 1).to_le_bytes().to_vec();
        buf.extend_from_slice(&[0; 8]);
        assert!(wire::take_frame(&mut buf).is_err(), "oversize length prefix poisons the stream");
    }

    #[test]
    fn shard_config_defaults() {
        let d = ShardConfig::default();
        assert_eq!(d.timeout, Duration::from_millis(2000));
        assert_eq!(d.queue, 64);
    }
}
