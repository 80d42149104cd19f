//! The length-prefixed binary serving protocol.
//!
//! Every message is one **frame**: a little-endian `u32` payload length
//! followed by the payload. Request payloads lead with an opcode byte
//! (all integers little-endian):
//!
//! ```text
//! request  := op:u8  id:u64  body
//!   op 0 score   : group:u32  deadline_us:u64  n:u32  items:[u32; n]
//!   op 1 create  : n:u32  members:[u32; n]
//!   op 2 join    : group:u32  user:u32
//!   op 3 leave   : group:u32  user:u32
//!   op 4 tscore  : tenant:u32  group:u32  deadline_us:u64  n:u32  items:[u32; n]
//!   op 5 load    : n:u32  path:utf8[n]
//!   op 6 bind    : tenant:u32  hash:u64
//!   op 7 shadow  : tenant:u32  hash:u64  min_clean:u64
//!   op 8 promote : tenant:u32
//!   op 9 rollback: tenant:u32
//!   op 10 retire : hash:u64
//! response := id:u64  status:u8  body
//!   status 0 Ok          : n:u32  scores:[f32-bits; n]
//!   status 5 Ack         : group:u32  members:u32
//!   status 7 RegistryAck : hash:u64
//!   any other status     : empty body
//! ```
//!
//! Opcodes 4–10 are **protocol v3** (the multi-tenant registry,
//! DESIGN.md §16): scores tagged with a tenant id, and the registry
//! transitions LOAD / BIND / SHADOW / PROMOTE / ROLLBACK / RETIRE. A
//! LOAD carries a checkpoint *path* the server reads locally — model
//! parameters never cross this socket (they would blow [`MAX_FRAME`];
//! real registries reference artifact storage the same way). Version
//! skew is typed in both directions: single-model servers answer v3
//! opcodes with [`ServeError::Unsupported`] (exactly as static servers
//! answer lifecycle opcodes), and registry servers answer un-tenanted
//! v2 score/lifecycle opcodes with [`ServeError::Unsupported`] — there
//! is no "default model" to guess.
//!
//! `deadline_us == 0` means no deadline; otherwise it is a budget in
//! microseconds relative to server receipt. Status bytes 1–4, 6, 8 and
//! 9 map to the body-less [`ServeError`] variants; bytes `16..=21`
//! carry [`LifecycleError`] as `16 + code`; bytes `24..=27` carry
//! [`ServeError::Shard`] as `24 + kind`; bytes `32..=39` carry
//! [`ServeError::Registry`] as `32 + code` — see [`Status`]. Scores
//! travel as raw `f32` bit patterns, so the protocol preserves
//! bit-identity end to end — the serve CI gates compare served bytes
//! against offline evaluation exactly.
//!
//! The router↔shard protocol shares this framing (`u32` length prefix,
//! [`MAX_FRAME`]) but is a separate vocabulary on separate connections —
//! see [`crate::shard`].
//!
//! Robustness contract (enforced by the tests below and the lifecycle
//! CI stage): truncated payloads, oversize frames, unknown opcodes and
//! unknown status bytes are typed decode errors, never panics, and the
//! server answers an undecodable payload with [`ServeError::Invalid`]
//! under the best-effort [`salvage_id`].
//!
//! Frames larger than [`MAX_FRAME`] are rejected without allocation, so
//! a malformed or hostile length prefix cannot balloon server memory.

use crate::{ServeError, ServeResult};
use kgag_data::{LifecycleAck, LifecycleError, LifecycleOp};
use std::io::{self, Read, Write};

/// Upper bound on one frame's payload (16 MiB — thousands of candidate
/// lists; real requests are a few hundred bytes).
pub const MAX_FRAME: usize = 16 << 20;

/// Encode-time rejection of a payload that would not fit one frame.
///
/// The length prefix is a `u32` and receivers reject anything above
/// [`MAX_FRAME`], so writing an oversize payload would either wrap the
/// prefix or desync the peer. Encoders check the bound *before*
/// serialising and return this instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameTooLarge {
    /// The payload size that exceeded [`MAX_FRAME`].
    pub payload_len: usize,
}

impl std::fmt::Display for FrameTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "payload of {} bytes exceeds MAX_FRAME ({MAX_FRAME})", self.payload_len)
    }
}

impl std::error::Error for FrameTooLarge {}

fn check_frame(payload_len: usize) -> Result<usize, FrameTooLarge> {
    if payload_len > MAX_FRAME {
        Err(FrameTooLarge { payload_len })
    } else {
        Ok(payload_len)
    }
}

/// Length-prefix `payload` into one frame, refusing payloads over
/// [`MAX_FRAME`] — the framing every connection here speaks, shard
/// links included.
pub(crate) fn frame(payload: &[u8]) -> Result<Vec<u8>, FrameTooLarge> {
    check_frame(payload.len())?;
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// Request opcodes (the payload's leading byte).
pub const OP_SCORE: u8 = 0;
pub const OP_CREATE: u8 = 1;
pub const OP_JOIN: u8 = 2;
pub const OP_LEAVE: u8 = 3;
/// Protocol-v3 opcodes (registry servers, DESIGN.md §16).
pub const OP_TSCORE: u8 = 4;
pub const OP_LOAD: u8 = 5;
pub const OP_BIND: u8 = 6;
pub const OP_SHADOW: u8 = 7;
pub const OP_PROMOTE: u8 = 8;
pub const OP_ROLLBACK: u8 = 9;
pub const OP_RETIRE: u8 = 10;

/// A decoded scoring request (opcode [`OP_SCORE`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: u64,
    /// Group to score for.
    pub group: u32,
    /// Latency budget in µs from server receipt; 0 = none.
    pub deadline_us: u64,
    /// Candidate items, scored in order.
    pub items: Vec<u32>,
}

/// A decoded lifecycle request (opcodes [`OP_CREATE`], [`OP_JOIN`],
/// [`OP_LEAVE`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LifecycleRequest {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: u64,
    pub op: LifecycleOp,
}

/// A decoded tenant-tagged scoring request (opcode [`OP_TSCORE`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantRequest {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: u64,
    /// Traffic partition whose active model scores this request.
    pub tenant: u32,
    /// Group to score for (in the tenant's active checkpoint).
    pub group: u32,
    /// Latency budget in µs from server receipt; 0 = none.
    pub deadline_us: u64,
    /// Candidate items, scored in order.
    pub items: Vec<u32>,
}

/// A registry transition (protocol v3; see [`kgag::ModelRegistry`] for
/// the state machine each variant drives).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegistryOp {
    /// Read a checkpoint from a server-local path and make it resident.
    Load { path: String },
    /// Bind a fresh tenant to a resident checkpoint.
    Bind { tenant: u32, hash: u64 },
    /// Stage a candidate as the tenant's shadow with a clean quota.
    Shadow { tenant: u32, hash: u64, min_clean: u64 },
    /// Promote the tenant's proven shadow to active.
    Promote { tenant: u32 },
    /// Swap the tenant back to its previous version.
    Rollback { tenant: u32 },
    /// Drop an unreferenced resident checkpoint.
    Retire { hash: u64 },
}

/// A decoded registry request (opcodes [`OP_LOAD`]..=[`OP_RETIRE`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegistryRequest {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: u64,
    pub op: RegistryOp,
}

/// Any decoded request payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    Score(Request),
    Lifecycle(LifecycleRequest),
    Tenant(TenantRequest),
    Registry(RegistryRequest),
}

/// Response status byte (see the module docs for the full map).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Status {
    Ok = 0,
    Rejected = 1,
    DeadlineMissed = 2,
    Canceled = 3,
    Invalid = 4,
    Ack = 5,
    Unsupported = 6,
    RegistryAck = 7,
    Quota = 8,
    LoadFailed = 9,
}

/// First status byte of the [`LifecycleError`] range.
const LIFECYCLE_STATUS_BASE: u8 = 16;

/// First status byte of the [`ServeError::Shard`] range. The shard
/// index is a deployment detail and is dropped on the wire; the failure
/// *kind* is what a client can act on (retry, back off, re-resolve).
const SHARD_STATUS_BASE: u8 = 24;

fn shard_to_byte(kind: kgag::ShardErrorKind) -> u8 {
    let code = match kind {
        kgag::ShardErrorKind::Unavailable => 0,
        kgag::ShardErrorKind::Timeout => 1,
        kgag::ShardErrorKind::Protocol => 2,
        kgag::ShardErrorKind::Invalid => 3,
    };
    SHARD_STATUS_BASE + code
}

fn shard_from_byte(b: u8) -> Option<kgag::ShardErrorKind> {
    match b.checked_sub(SHARD_STATUS_BASE)? {
        0 => Some(kgag::ShardErrorKind::Unavailable),
        1 => Some(kgag::ShardErrorKind::Timeout),
        2 => Some(kgag::ShardErrorKind::Protocol),
        3 => Some(kgag::ShardErrorKind::Invalid),
        _ => None,
    }
}

fn lifecycle_to_byte(e: LifecycleError) -> u8 {
    let code = match e {
        LifecycleError::UnknownGroup => 0,
        LifecycleError::UnknownUser => 1,
        LifecycleError::AlreadyMember => 2,
        LifecycleError::NotAMember => 3,
        LifecycleError::TooFewMembers => 4,
        LifecycleError::DuplicateMember => 5,
    };
    LIFECYCLE_STATUS_BASE + code
}

fn lifecycle_from_byte(b: u8) -> Option<LifecycleError> {
    match b.checked_sub(LIFECYCLE_STATUS_BASE)? {
        0 => Some(LifecycleError::UnknownGroup),
        1 => Some(LifecycleError::UnknownUser),
        2 => Some(LifecycleError::AlreadyMember),
        3 => Some(LifecycleError::NotAMember),
        4 => Some(LifecycleError::TooFewMembers),
        5 => Some(LifecycleError::DuplicateMember),
        _ => None,
    }
}

/// First status byte of the [`ServeError::Registry`] range.
const REGISTRY_STATUS_BASE: u8 = 32;

fn registry_to_byte(e: kgag::RegistryError) -> u8 {
    let code = match e {
        kgag::RegistryError::UnknownTenant => 0,
        kgag::RegistryError::UnknownModel => 1,
        kgag::RegistryError::DuplicateModel => 2,
        kgag::RegistryError::TenantBound => 3,
        kgag::RegistryError::Quarantined => 4,
        kgag::RegistryError::ShadowNotClean => 5,
        kgag::RegistryError::NoPrevious => 6,
        kgag::RegistryError::ModelInUse => 7,
    };
    REGISTRY_STATUS_BASE + code
}

fn registry_from_byte(b: u8) -> Option<kgag::RegistryError> {
    match b.checked_sub(REGISTRY_STATUS_BASE)? {
        0 => Some(kgag::RegistryError::UnknownTenant),
        1 => Some(kgag::RegistryError::UnknownModel),
        2 => Some(kgag::RegistryError::DuplicateModel),
        3 => Some(kgag::RegistryError::TenantBound),
        4 => Some(kgag::RegistryError::Quarantined),
        5 => Some(kgag::RegistryError::ShadowNotClean),
        6 => Some(kgag::RegistryError::NoPrevious),
        7 => Some(kgag::RegistryError::ModelInUse),
        _ => None,
    }
}

/// The payload of a successful response.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// Aligned with a score request's items.
    Scores(Vec<f32>),
    /// Receipt of an applied lifecycle mutation.
    Ack(LifecycleAck),
    /// Receipt of an applied registry transition, carrying the
    /// checkpoint hash the transition resolved to (the loaded / bound /
    /// staged / newly-active / retired version).
    RegistryAck(u64),
}

/// A decoded response.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// The request's correlation id.
    pub id: u64,
    pub reply: Result<Reply, ServeError>,
}

impl Response {
    /// Build the wire response for a batcher (score-path) result.
    pub fn from_result(id: u64, result: ServeResult) -> Response {
        Response { id, reply: result.map(Reply::Scores) }
    }

    /// Build the wire response for a lifecycle-path result.
    pub fn from_ack(id: u64, result: Result<LifecycleAck, LifecycleError>) -> Response {
        Response { id, reply: result.map(Reply::Ack).map_err(ServeError::Lifecycle) }
    }

    /// Build the wire response for a registry-transition result.
    pub fn from_registry(id: u64, result: Result<u64, ServeError>) -> Response {
        Response { id, reply: result.map(Reply::RegistryAck) }
    }

    /// The client-side inverse of the constructors.
    pub fn into_result(self) -> Result<Reply, ServeError> {
        self.reply
    }
}

/// Encode a score request as one frame (length prefix included).
/// Requests with more items than fit under [`MAX_FRAME`] are rejected
/// with [`FrameTooLarge`] instead of emitting a frame the peer would
/// refuse (or, past `u32::MAX`, a wrapped length prefix that desyncs
/// the stream).
pub fn encode_request(req: &Request) -> Result<Vec<u8>, FrameTooLarge> {
    let payload_len = check_frame(1 + 8 + 4 + 8 + 4 + 4 * req.items.len())?;
    let mut out = Vec::with_capacity(4 + payload_len);
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
    out.push(OP_SCORE);
    out.extend_from_slice(&req.id.to_le_bytes());
    out.extend_from_slice(&req.group.to_le_bytes());
    out.extend_from_slice(&req.deadline_us.to_le_bytes());
    out.extend_from_slice(&(req.items.len() as u32).to_le_bytes());
    for &v in &req.items {
        out.extend_from_slice(&v.to_le_bytes());
    }
    Ok(out)
}

/// Encode a lifecycle request as one frame (length prefix included).
/// Create requests with too many members for one frame are rejected
/// with [`FrameTooLarge`].
pub fn encode_lifecycle(req: &LifecycleRequest) -> Result<Vec<u8>, FrameTooLarge> {
    let payload_len = match &req.op {
        LifecycleOp::Create { members } => check_frame(1 + 8 + 4 + 4 * members.len())?,
        LifecycleOp::Join { .. } | LifecycleOp::Leave { .. } => 1 + 8 + 4 + 4,
    };
    let mut payload = Vec::with_capacity(payload_len);
    match &req.op {
        LifecycleOp::Create { members } => {
            payload.push(OP_CREATE);
            payload.extend_from_slice(&req.id.to_le_bytes());
            payload.extend_from_slice(&(members.len() as u32).to_le_bytes());
            for &u in members {
                payload.extend_from_slice(&u.to_le_bytes());
            }
        }
        LifecycleOp::Join { group, user } | LifecycleOp::Leave { group, user } => {
            payload.push(if matches!(req.op, LifecycleOp::Join { .. }) {
                OP_JOIN
            } else {
                OP_LEAVE
            });
            payload.extend_from_slice(&req.id.to_le_bytes());
            payload.extend_from_slice(&group.to_le_bytes());
            payload.extend_from_slice(&user.to_le_bytes());
        }
    }
    debug_assert_eq!(payload.len(), payload_len);
    frame(&payload)
}

/// Encode a tenant-tagged score request as one frame (length prefix
/// included). Same size discipline as [`encode_request`].
pub fn encode_tenant_request(req: &TenantRequest) -> Result<Vec<u8>, FrameTooLarge> {
    let payload_len = check_frame(1 + 8 + 4 + 4 + 8 + 4 + 4 * req.items.len())?;
    let mut out = Vec::with_capacity(4 + payload_len);
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
    out.push(OP_TSCORE);
    out.extend_from_slice(&req.id.to_le_bytes());
    out.extend_from_slice(&req.tenant.to_le_bytes());
    out.extend_from_slice(&req.group.to_le_bytes());
    out.extend_from_slice(&req.deadline_us.to_le_bytes());
    out.extend_from_slice(&(req.items.len() as u32).to_le_bytes());
    for &v in &req.items {
        out.extend_from_slice(&v.to_le_bytes());
    }
    Ok(out)
}

/// Encode a registry request as one frame (length prefix included).
/// Load paths longer than one frame are rejected with [`FrameTooLarge`].
pub fn encode_registry(req: &RegistryRequest) -> Result<Vec<u8>, FrameTooLarge> {
    let payload_len = match &req.op {
        RegistryOp::Load { path } => check_frame(1 + 8 + 4 + path.len())?,
        RegistryOp::Bind { .. } => 1 + 8 + 4 + 8,
        RegistryOp::Shadow { .. } => 1 + 8 + 4 + 8 + 8,
        RegistryOp::Promote { .. } | RegistryOp::Rollback { .. } => 1 + 8 + 4,
        RegistryOp::Retire { .. } => 1 + 8 + 8,
    };
    let mut payload = Vec::with_capacity(payload_len);
    match &req.op {
        RegistryOp::Load { path } => {
            payload.push(OP_LOAD);
            payload.extend_from_slice(&req.id.to_le_bytes());
            payload.extend_from_slice(&(path.len() as u32).to_le_bytes());
            payload.extend_from_slice(path.as_bytes());
        }
        RegistryOp::Bind { tenant, hash } => {
            payload.push(OP_BIND);
            payload.extend_from_slice(&req.id.to_le_bytes());
            payload.extend_from_slice(&tenant.to_le_bytes());
            payload.extend_from_slice(&hash.to_le_bytes());
        }
        RegistryOp::Shadow { tenant, hash, min_clean } => {
            payload.push(OP_SHADOW);
            payload.extend_from_slice(&req.id.to_le_bytes());
            payload.extend_from_slice(&tenant.to_le_bytes());
            payload.extend_from_slice(&hash.to_le_bytes());
            payload.extend_from_slice(&min_clean.to_le_bytes());
        }
        RegistryOp::Promote { tenant } | RegistryOp::Rollback { tenant } => {
            payload.push(if matches!(req.op, RegistryOp::Promote { .. }) {
                OP_PROMOTE
            } else {
                OP_ROLLBACK
            });
            payload.extend_from_slice(&req.id.to_le_bytes());
            payload.extend_from_slice(&tenant.to_le_bytes());
        }
        RegistryOp::Retire { hash } => {
            payload.push(OP_RETIRE);
            payload.extend_from_slice(&req.id.to_le_bytes());
            payload.extend_from_slice(&hash.to_le_bytes());
        }
    }
    debug_assert_eq!(payload.len(), payload_len);
    frame(&payload)
}

/// Decode a request payload (frame prefix already stripped).
pub fn decode_request(payload: &[u8]) -> Result<Message, String> {
    let mut c = Cursor::new(payload);
    let op = c.u8()?;
    let id = c.u64()?;
    match op {
        OP_SCORE => {
            let group = c.u32()?;
            let deadline_us = c.u64()?;
            let items = c.u32_list("item")?;
            Ok(Message::Score(Request { id, group, deadline_us, items }))
        }
        OP_CREATE => {
            let members = c.u32_list("member")?;
            Ok(Message::Lifecycle(LifecycleRequest { id, op: LifecycleOp::Create { members } }))
        }
        OP_JOIN | OP_LEAVE => {
            let group = c.u32()?;
            let user = c.u32()?;
            c.finish("join/leave")?;
            let op = if op == OP_JOIN {
                LifecycleOp::Join { group, user }
            } else {
                LifecycleOp::Leave { group, user }
            };
            Ok(Message::Lifecycle(LifecycleRequest { id, op }))
        }
        OP_TSCORE => {
            let tenant = c.u32()?;
            let group = c.u32()?;
            let deadline_us = c.u64()?;
            let items = c.u32_list("item")?;
            Ok(Message::Tenant(TenantRequest { id, tenant, group, deadline_us, items }))
        }
        OP_LOAD => {
            let n = c.u32()? as usize;
            if payload.len() - c.pos != n {
                return Err(format!(
                    "path length {n} disagrees with payload ({} trailing bytes)",
                    payload.len() - c.pos
                ));
            }
            let path = std::str::from_utf8(c.take(n)?)
                .map_err(|_| "load path is not UTF-8".to_owned())?
                .to_owned();
            Ok(Message::Registry(RegistryRequest { id, op: RegistryOp::Load { path } }))
        }
        OP_BIND => {
            let tenant = c.u32()?;
            let hash = c.u64()?;
            c.finish("bind")?;
            Ok(Message::Registry(RegistryRequest { id, op: RegistryOp::Bind { tenant, hash } }))
        }
        OP_SHADOW => {
            let tenant = c.u32()?;
            let hash = c.u64()?;
            let min_clean = c.u64()?;
            c.finish("shadow")?;
            Ok(Message::Registry(RegistryRequest {
                id,
                op: RegistryOp::Shadow { tenant, hash, min_clean },
            }))
        }
        OP_PROMOTE | OP_ROLLBACK => {
            let tenant = c.u32()?;
            c.finish("promote/rollback")?;
            let op = if op == OP_PROMOTE {
                RegistryOp::Promote { tenant }
            } else {
                RegistryOp::Rollback { tenant }
            };
            Ok(Message::Registry(RegistryRequest { id, op }))
        }
        OP_RETIRE => {
            let hash = c.u64()?;
            c.finish("retire")?;
            Ok(Message::Registry(RegistryRequest { id, op: RegistryOp::Retire { hash } }))
        }
        other => Err(format!("unknown opcode {other}")),
    }
}

/// Best-effort correlation id of a payload that failed to decode, so
/// the error response still reaches the right caller. The id sits after
/// the opcode byte.
pub fn salvage_id(payload: &[u8]) -> u64 {
    if payload.len() >= 9 {
        u64::from_le_bytes(payload[1..9].try_into().unwrap())
    } else {
        0
    }
}

/// Encode a response as one frame (length prefix included). Responses
/// with too many scores for one frame are rejected with
/// [`FrameTooLarge`] (the server falls back to a typed error response
/// that always fits).
pub fn encode_response(resp: &Response) -> Result<Vec<u8>, FrameTooLarge> {
    let (status, body_len) = match &resp.reply {
        Ok(Reply::Scores(s)) => (Status::Ok as u8, 4 + 4 * s.len()),
        Ok(Reply::Ack(_)) => (Status::Ack as u8, 8),
        Ok(Reply::RegistryAck(_)) => (Status::RegistryAck as u8, 8),
        Err(e) => {
            let b = match e {
                ServeError::Rejected => Status::Rejected as u8,
                ServeError::DeadlineMissed => Status::DeadlineMissed as u8,
                ServeError::Canceled => Status::Canceled as u8,
                ServeError::Invalid => Status::Invalid as u8,
                ServeError::Unsupported => Status::Unsupported as u8,
                ServeError::Quota => Status::Quota as u8,
                ServeError::LoadFailed => Status::LoadFailed as u8,
                ServeError::Lifecycle(le) => lifecycle_to_byte(*le),
                ServeError::Shard(kind) => shard_to_byte(*kind),
                ServeError::Registry(re) => registry_to_byte(*re),
            };
            (b, 0)
        }
    };
    let payload_len = check_frame(8 + 1 + body_len)?;
    let mut out = Vec::with_capacity(4 + payload_len);
    out.extend_from_slice(&(payload_len as u32).to_le_bytes());
    out.extend_from_slice(&resp.id.to_le_bytes());
    out.push(status);
    match &resp.reply {
        Ok(Reply::Scores(scores)) => {
            out.extend_from_slice(&(scores.len() as u32).to_le_bytes());
            for &s in scores {
                out.extend_from_slice(&s.to_bits().to_le_bytes());
            }
        }
        Ok(Reply::Ack(ack)) => {
            out.extend_from_slice(&ack.group.to_le_bytes());
            out.extend_from_slice(&ack.members.to_le_bytes());
        }
        Ok(Reply::RegistryAck(hash)) => {
            out.extend_from_slice(&hash.to_le_bytes());
        }
        Err(_) => {}
    }
    Ok(out)
}

/// Decode a response payload (frame prefix already stripped).
pub fn decode_response(payload: &[u8]) -> Result<Response, String> {
    let mut c = Cursor::new(payload);
    let id = c.u64()?;
    let status = c.u8()?;
    let reply = match status {
        b if b == Status::Ok as u8 => {
            Ok(Reply::Scores(c.u32_list("score")?.into_iter().map(f32::from_bits).collect()))
        }
        b if b == Status::Ack as u8 => {
            let group = c.u32()?;
            let members = c.u32()?;
            c.finish("ack")?;
            Ok(Reply::Ack(LifecycleAck { group, members }))
        }
        b if b == Status::RegistryAck as u8 => {
            let hash = c.u64()?;
            c.finish("registry ack")?;
            Ok(Reply::RegistryAck(hash))
        }
        b if b == Status::Rejected as u8 => Err(ServeError::Rejected),
        b if b == Status::DeadlineMissed as u8 => Err(ServeError::DeadlineMissed),
        b if b == Status::Canceled as u8 => Err(ServeError::Canceled),
        b if b == Status::Invalid as u8 => Err(ServeError::Invalid),
        b if b == Status::Unsupported as u8 => Err(ServeError::Unsupported),
        b if b == Status::Quota as u8 => Err(ServeError::Quota),
        b if b == Status::LoadFailed as u8 => Err(ServeError::LoadFailed),
        b => match lifecycle_from_byte(b) {
            Some(le) => Err(ServeError::Lifecycle(le)),
            None => match shard_from_byte(b) {
                Some(kind) => Err(ServeError::Shard(kind)),
                None => match registry_from_byte(b) {
                    Some(re) => Err(ServeError::Registry(re)),
                    None => return Err(format!("unknown status byte {b}")),
                },
            },
        },
    };
    if reply.is_err() {
        c.finish("error status")?;
    }
    Ok(Response { id, reply })
}

/// If `buf` starts with a complete frame, split off and return its
/// payload. `Ok(None)` means more bytes are needed; `Err` means the
/// length prefix itself is invalid and the stream is unrecoverable.
pub fn take_frame(buf: &mut Vec<u8>) -> Result<Option<Vec<u8>>, String> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
    if len > MAX_FRAME {
        return Err(format!("frame of {len} bytes exceeds MAX_FRAME ({MAX_FRAME})"));
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    let payload = buf[4..4 + len].to_vec();
    buf.drain(..4 + len);
    Ok(Some(payload))
}

/// Blocking-read one full frame's payload from `r` (client side: the
/// socket has no read timeout, so `read_exact` framing is safe).
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame exceeds MAX_FRAME"));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Write one pre-encoded frame.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    w.write_all(frame)?;
    w.flush()
}

/// A bounds-checked little-endian reader over one payload: every read
/// past the end is an `Err`, never a panic.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.buf.len() - self.pos < n {
            return Err(format!("truncated payload at byte {}", self.pos));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A `u32` count, then that many `u32`s filling exactly the rest of
    /// the payload — a count that disagrees with the bytes present is a
    /// framing error, not a short read.
    pub(crate) fn u32_list(&mut self, what: &str) -> Result<Vec<u32>, String> {
        let n = self.u32()? as usize;
        let rest = self.buf.len() - self.pos;
        if rest != 4 * n {
            return Err(format!("{what} count {n} disagrees with payload ({rest} trailing bytes)"));
        }
        let words = self.take(rest)?.chunks_exact(4);
        Ok(words.map(|w| u32::from_le_bytes(w.try_into().unwrap())).collect())
    }

    /// The payload must end here.
    pub(crate) fn finish(&self, what: &str) -> Result<(), String> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            extra => Err(format!("{extra} trailing bytes after {what}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips() {
        let req = Request { id: 42, group: 7, deadline_us: 1500, items: vec![0, 1, 99, u32::MAX] };
        let frame = encode_request(&req).unwrap();
        let mut buf = frame.clone();
        let payload = take_frame(&mut buf).unwrap().expect("complete frame");
        assert!(buf.is_empty());
        assert_eq!(decode_request(&payload).unwrap(), Message::Score(req));
    }

    #[test]
    fn lifecycle_requests_roundtrip() {
        for op in [
            LifecycleOp::Create { members: vec![3, 1, 4, 1] },
            LifecycleOp::Create { members: vec![] },
            LifecycleOp::Join { group: 9, user: u32::MAX },
            LifecycleOp::Leave { group: 0, user: 0 },
        ] {
            let req = LifecycleRequest { id: 0xfeed_beef, op };
            let mut buf = encode_lifecycle(&req).unwrap();
            let payload = take_frame(&mut buf).unwrap().expect("complete frame");
            assert_eq!(decode_request(&payload).unwrap(), Message::Lifecycle(req));
        }
    }

    #[test]
    fn response_roundtrips_bit_exactly() {
        // adversarial f32 bit patterns: -0.0, subnormal, NaN payload, inf
        let scores =
            vec![0.5f32, -0.0, f32::from_bits(1), f32::from_bits(0x7fc0_dead), f32::INFINITY];
        let resp = Response { id: 9, reply: Ok(Reply::Scores(scores.clone())) };
        let frame = encode_response(&resp).unwrap();
        let mut buf = frame;
        let payload = take_frame(&mut buf).unwrap().unwrap();
        let back = decode_response(&payload).unwrap();
        assert_eq!(back.id, 9);
        let Ok(Reply::Scores(got)) = back.reply else { panic!("expected scores") };
        let a: Vec<u32> = scores.iter().map(|s| s.to_bits()).collect();
        let b: Vec<u32> = got.iter().map(|s| s.to_bits()).collect();
        assert_eq!(a, b, "scores must survive the wire bit-exactly");
    }

    #[test]
    fn ack_responses_roundtrip() {
        let resp = Response::from_ack(11, Ok(LifecycleAck { group: 42, members: 6 }));
        let back = decode_response(&encode_response(&resp).unwrap()[4..]).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn error_statuses_roundtrip_through_results() {
        let mut errs = vec![
            ServeError::Rejected,
            ServeError::DeadlineMissed,
            ServeError::Canceled,
            ServeError::Invalid,
            ServeError::Unsupported,
        ];
        errs.extend(
            [
                LifecycleError::UnknownGroup,
                LifecycleError::UnknownUser,
                LifecycleError::AlreadyMember,
                LifecycleError::NotAMember,
                LifecycleError::TooFewMembers,
                LifecycleError::DuplicateMember,
            ]
            .map(ServeError::Lifecycle),
        );
        errs.extend(
            [
                kgag::ShardErrorKind::Unavailable,
                kgag::ShardErrorKind::Timeout,
                kgag::ShardErrorKind::Protocol,
                kgag::ShardErrorKind::Invalid,
            ]
            .map(ServeError::Shard),
        );
        for err in errs {
            let resp = Response::from_result(3, Err(err));
            let back = decode_response(&encode_response(&resp).unwrap()[4..]).unwrap();
            assert_eq!(back.into_result(), Err(err));
        }
    }

    #[test]
    fn take_frame_handles_partial_and_split_frames() {
        let req = Request { id: 1, group: 0, deadline_us: 0, items: vec![5, 6] };
        let frame = encode_request(&req).unwrap();
        let mut buf = Vec::new();
        // feed the frame one byte at a time: no prefix of it decodes
        for (i, &b) in frame.iter().enumerate() {
            buf.push(b);
            let got = take_frame(&mut buf).unwrap();
            if i + 1 < frame.len() {
                assert!(got.is_none(), "byte {i}: incomplete frame must not decode");
            } else {
                assert_eq!(decode_request(&got.unwrap()).unwrap(), Message::Score(req.clone()));
            }
        }
        // two frames back-to-back come out in order
        let r2 = LifecycleRequest { id: 2, op: LifecycleOp::Join { group: 1, user: 9 } };
        let mut buf = [encode_request(&req).unwrap(), encode_lifecycle(&r2).unwrap()].concat();
        assert_eq!(
            decode_request(&take_frame(&mut buf).unwrap().unwrap()).unwrap(),
            Message::Score(req)
        );
        assert_eq!(
            decode_request(&take_frame(&mut buf).unwrap().unwrap()).unwrap(),
            Message::Lifecycle(r2)
        );
        assert!(buf.is_empty());
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut buf = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
        assert!(take_frame(&mut buf).is_err());
    }

    #[test]
    fn truncated_payloads_are_invalid_not_panics() {
        let frames = [
            encode_request(&Request { id: 8, group: 2, deadline_us: 0, items: vec![1, 2, 3] })
                .unwrap(),
            encode_lifecycle(&LifecycleRequest {
                id: 8,
                op: LifecycleOp::Create { members: vec![1, 2, 3] },
            })
            .unwrap(),
            encode_lifecycle(&LifecycleRequest {
                id: 8,
                op: LifecycleOp::Join { group: 1, user: 2 },
            })
            .unwrap(),
            encode_lifecycle(&LifecycleRequest {
                id: 8,
                op: LifecycleOp::Leave { group: 1, user: 2 },
            })
            .unwrap(),
        ];
        for frame in &frames {
            let payload = &frame[4..];
            for cut in 0..payload.len() {
                assert!(decode_request(&payload[..cut]).is_err(), "cut at {cut} must not decode");
            }
        }
        // declared counts larger than the payload (score items, create members)
        let mut lying = frames[0][4..].to_vec();
        let n_off = 1 + 8 + 4 + 8;
        lying[n_off..n_off + 4].copy_from_slice(&1000u32.to_le_bytes());
        assert!(decode_request(&lying).is_err());
        let mut lying = frames[1][4..].to_vec();
        lying[9..13].copy_from_slice(&1000u32.to_le_bytes());
        assert!(decode_request(&lying).is_err());
        // join/leave with trailing garbage
        let mut padded = frames[2][4..].to_vec();
        padded.push(0);
        assert!(decode_request(&padded).is_err());
    }

    #[test]
    fn unknown_opcodes_are_errors_with_salvageable_ids() {
        let mut payload = vec![0xee];
        payload.extend_from_slice(&77u64.to_le_bytes());
        assert!(decode_request(&payload).is_err());
        assert_eq!(salvage_id(&payload), 77);
    }

    #[test]
    fn unknown_status_bytes_are_errors() {
        let mut payload = 5u64.to_le_bytes().to_vec();
        payload.push(200); // outside every defined status range
        assert!(decode_response(&payload).is_err());
    }

    /// Item counts straddling the frame bound: the largest request that
    /// fits encodes (and the receiver accepts it); one more item is a
    /// typed [`FrameTooLarge`], not a wrapped/oversize frame. Pre-fix,
    /// the oversize request encoded "successfully" and the peer's
    /// `take_frame` then poisoned the whole stream.
    #[test]
    fn encode_request_rejects_oversize_at_the_boundary() {
        let header = 1 + 8 + 4 + 8 + 4;
        let max_items = (MAX_FRAME - header) / 4;
        let req = Request { id: 1, group: 0, deadline_us: 0, items: vec![7u32; max_items] };
        let frame = encode_request(&req).expect("max-size request must encode");
        assert!(frame.len() - 4 <= MAX_FRAME);
        let mut buf = frame;
        let payload = take_frame(&mut buf).unwrap().expect("complete frame");
        let Message::Score(back) = decode_request(&payload).unwrap() else {
            panic!("expected score request")
        };
        assert_eq!(back.items.len(), max_items);

        let req = Request { id: 1, group: 0, deadline_us: 0, items: vec![7u32; max_items + 1] };
        let err = encode_request(&req).expect_err("oversize request must not encode");
        assert!(err.payload_len > MAX_FRAME);
        assert!(err.to_string().contains("MAX_FRAME"));
    }

    #[test]
    fn encode_response_rejects_oversize_at_the_boundary() {
        let header = 8 + 1 + 4;
        let max_scores = (MAX_FRAME - header) / 4;
        let ok = Response { id: 2, reply: Ok(Reply::Scores(vec![0.5; max_scores])) };
        let frame = encode_response(&ok).expect("max-size response must encode");
        let mut buf = frame;
        let payload = take_frame(&mut buf).unwrap().expect("complete frame");
        assert!(decode_response(&payload).is_ok());

        let big = Response { id: 2, reply: Ok(Reply::Scores(vec![0.5; max_scores + 1])) };
        assert_eq!(
            encode_response(&big),
            Err(FrameTooLarge { payload_len: header + 4 * (max_scores + 1) })
        );
        // error responses always fit, whatever the request looked like
        let err_resp = Response { id: 2, reply: Err(ServeError::Invalid) };
        assert!(encode_response(&err_resp).is_ok());
    }

    #[test]
    fn encode_lifecycle_rejects_oversize_create() {
        let header = 1 + 8 + 4;
        let max_members = (MAX_FRAME - header) / 4;
        let ok =
            LifecycleRequest { id: 3, op: LifecycleOp::Create { members: vec![1; max_members] } };
        assert!(encode_lifecycle(&ok).is_ok());
        let big = LifecycleRequest {
            id: 3,
            op: LifecycleOp::Create { members: vec![1; max_members + 1] },
        };
        assert_eq!(
            encode_lifecycle(&big),
            Err(FrameTooLarge { payload_len: header + 4 * (max_members + 1) })
        );
    }

    fn registry_ops() -> Vec<RegistryOp> {
        vec![
            RegistryOp::Load { path: "results/ckpt.bin".to_owned() },
            RegistryOp::Load { path: String::new() },
            RegistryOp::Bind { tenant: 7, hash: u64::MAX },
            RegistryOp::Shadow { tenant: 0, hash: 0xfeed, min_clean: 128 },
            RegistryOp::Promote { tenant: u32::MAX },
            RegistryOp::Rollback { tenant: 3 },
            RegistryOp::Retire { hash: 0xdead_beef },
        ]
    }

    #[test]
    fn tenant_requests_roundtrip() {
        let req = TenantRequest {
            id: 0xabad_cafe,
            tenant: 42,
            group: 7,
            deadline_us: 1500,
            items: vec![0, 1, 99, u32::MAX],
        };
        let mut buf = encode_tenant_request(&req).unwrap();
        let payload = take_frame(&mut buf).unwrap().expect("complete frame");
        assert!(buf.is_empty());
        assert_eq!(decode_request(&payload).unwrap(), Message::Tenant(req));
    }

    #[test]
    fn registry_requests_roundtrip() {
        for op in registry_ops() {
            let req = RegistryRequest { id: 0x5eed, op };
            let mut buf = encode_registry(&req).unwrap();
            let payload = take_frame(&mut buf).unwrap().expect("complete frame");
            assert_eq!(decode_request(&payload).unwrap(), Message::Registry(req));
        }
    }

    #[test]
    fn registry_ack_roundtrips() {
        let resp = Response::from_registry(19, Ok(0xdead_beef_dead_beef));
        let back = decode_response(&encode_response(&resp).unwrap()[4..]).unwrap();
        assert_eq!(back, resp);
        // trailing bytes after the hash are a decode error
        let mut padded = encode_response(&resp).unwrap()[4..].to_vec();
        padded.push(0);
        assert!(decode_response(&padded).is_err());
    }

    #[test]
    fn v3_error_statuses_roundtrip_through_results() {
        let mut errs = vec![ServeError::Quota, ServeError::LoadFailed];
        errs.extend(
            [
                kgag::RegistryError::UnknownTenant,
                kgag::RegistryError::UnknownModel,
                kgag::RegistryError::DuplicateModel,
                kgag::RegistryError::TenantBound,
                kgag::RegistryError::Quarantined,
                kgag::RegistryError::ShadowNotClean,
                kgag::RegistryError::NoPrevious,
                kgag::RegistryError::ModelInUse,
            ]
            .map(ServeError::Registry),
        );
        for err in errs {
            let resp = Response::from_registry(3, Err(err));
            let back = decode_response(&encode_response(&resp).unwrap()[4..]).unwrap();
            assert_eq!(back.into_result(), Err(err));
        }
        // bytes just outside the registry range stay unknown
        for b in [31u8, 40, 200] {
            let mut payload = 5u64.to_le_bytes().to_vec();
            payload.push(b);
            assert!(decode_response(&payload).is_err(), "status {b} must not decode");
        }
    }

    #[test]
    fn v3_truncated_payloads_are_invalid_not_panics() {
        let mut frames = vec![encode_tenant_request(&TenantRequest {
            id: 8,
            tenant: 1,
            group: 2,
            deadline_us: 9,
            items: vec![1, 2, 3],
        })
        .unwrap()];
        frames.extend(
            registry_ops()
                .into_iter()
                .map(|op| encode_registry(&RegistryRequest { id: 8, op }).unwrap()),
        );
        for frame in &frames {
            let payload = &frame[4..];
            for cut in 0..payload.len() {
                assert!(decode_request(&payload[..cut]).is_err(), "cut at {cut} must not decode");
            }
            // every complete v3 payload still salvages its id
            assert_eq!(salvage_id(payload), 8);
            // one trailing garbage byte must not decode either
            let mut padded = payload.to_vec();
            padded.push(0);
            assert!(decode_request(&padded).is_err(), "trailing byte must not decode");
        }
        // a load path that is not UTF-8 is a typed error
        let mut payload = vec![OP_LOAD];
        payload.extend_from_slice(&8u64.to_le_bytes());
        payload.extend_from_slice(&2u32.to_le_bytes());
        payload.extend_from_slice(&[0xff, 0xfe]);
        assert!(decode_request(&payload).unwrap_err().contains("UTF-8"));
        // a tenant request lying about its item count
        let mut lying = frames[0][4..].to_vec();
        let n_off = 1 + 8 + 4 + 4 + 8;
        lying[n_off..n_off + 4].copy_from_slice(&1000u32.to_le_bytes());
        assert!(decode_request(&lying).is_err());
    }

    #[test]
    fn encode_tenant_request_rejects_oversize_at_the_boundary() {
        let header = 1 + 8 + 4 + 4 + 8 + 4;
        let max_items = (MAX_FRAME - header) / 4;
        let req = TenantRequest {
            id: 1,
            tenant: 0,
            group: 0,
            deadline_us: 0,
            items: vec![7u32; max_items],
        };
        let frame = encode_tenant_request(&req).expect("max-size request must encode");
        assert!(frame.len() - 4 <= MAX_FRAME);
        let req = TenantRequest {
            id: 1,
            tenant: 0,
            group: 0,
            deadline_us: 0,
            items: vec![7u32; max_items + 1],
        };
        let err = encode_tenant_request(&req).expect_err("oversize request must not encode");
        assert!(err.payload_len > MAX_FRAME);
    }

    #[test]
    fn salvage_id_recovers_what_it_can() {
        let req = Request { id: 0xdead_beef_cafe, group: 0, deadline_us: 0, items: vec![] };
        let frame = encode_request(&req).unwrap();
        assert_eq!(salvage_id(&frame[4..]), 0xdead_beef_cafe);
        let lr = LifecycleRequest { id: 0xcafe, op: LifecycleOp::Join { group: 1, user: 2 } };
        assert_eq!(salvage_id(&encode_lifecycle(&lr).unwrap()[4..]), 0xcafe);
        assert_eq!(salvage_id(&[1, 2, 3]), 0);
    }
}
