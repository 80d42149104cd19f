//! Closed-loop clients over the real TCP front door.
//!
//! Each client thread owns one connection and sends its next operation
//! only after the previous reply arrived — group-recommendation callers
//! wait for their ranking. All clients start their timed loop together
//! and stop at the first cycle boundary after the deadline.

use crate::ops::{Kind, Op, OpStream};
use kgag_serve::{ClientError, ServeClient};
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// One completed operation. Times are taken on the client: `sent`
/// before the request is encoded, `done` after the reply is decoded.
#[derive(Clone, Debug)]
pub struct Record {
    pub client: u32,
    pub op: Op,
    pub sent: Instant,
    pub done: Instant,
    /// `None` on success, else what failed (a typed `ServeError` or a
    /// client-side transport error).
    pub failure: Option<String>,
    /// The reply of a successful score request.
    pub scores: Option<Vec<f32>>,
}

impl Record {
    pub fn rtt(&self) -> Duration {
        self.done - self.sent
    }

    pub fn kind(&self) -> Kind {
        self.op.kind()
    }
}

/// Everything one timed phase produced.
#[derive(Debug)]
pub struct PhaseLog {
    pub records: Vec<Record>,
    pub start: Instant,
    pub end: Instant,
    /// `VmHWM` once every client had warmed up, just before the timed
    /// window: set-up plus warm serving, without the request log this
    /// module grows during the window (its size follows throughput).
    pub peak_rss: Option<u64>,
}

impl PhaseLog {
    pub fn seconds(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    pub fn failed(&self) -> usize {
        self.records.iter().filter(|r| r.failure.is_some()).count()
    }

    /// Round trips in ms of the successful operations of `kind`, in the
    /// order they were sent.
    pub fn rtts_ms(&self, kind: Kind) -> Vec<f64> {
        let mut done: Vec<&Record> =
            self.records.iter().filter(|r| r.kind() == kind && r.failure.is_none()).collect();
        done.sort_by_key(|r| r.sent);
        done.iter().map(|r| r.rtt().as_secs_f64() * 1e3).collect()
    }
}

fn execute(client: &mut ServeClient, op: &Op) -> Result<Option<Vec<f32>>, String> {
    let transport = |e: ClientError| match e {
        ClientError::Timeout => "client-timeout".to_owned(),
        ClientError::Io(e) => format!("client-io:{:?}", e.kind()),
    };
    match op {
        Op::Score { group, items } => match client.score(*group, items).map_err(transport)? {
            Ok(scores) => Ok(Some(scores)),
            Err(e) => Err(format!("{e:?}")),
        },
        Op::Join { group, user } => match client.join_group(*group, *user).map_err(transport)? {
            Ok(_) => Ok(None),
            Err(e) => Err(format!("{e:?}")),
        },
        Op::Leave { group, user } => match client.leave_group(*group, *user).map_err(transport)? {
            Ok(_) => Ok(None),
            Err(e) => Err(format!("{e:?}")),
        },
    }
}

/// Run one closed-loop phase against `addr`: every stream gets its own
/// client thread and connection, runs `warmup_cycles` untimed cycles,
/// then all clients loop until `seconds` have passed.
pub fn drive(
    addr: SocketAddr,
    streams: Vec<OpStream<'_>>,
    warmup_cycles: usize,
    seconds: f64,
) -> PhaseLog {
    let barrier = Barrier::new(streams.len());
    let barrier = &barrier;
    let per_client: Vec<(Instant, Vec<Record>, Option<u64>)> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(c, mut stream)| {
                s.spawn(move || {
                    let mut client = ServeClient::connect(addr).expect("connect to the front door");
                    for _ in 0..warmup_cycles {
                        loop {
                            let op = stream.next().expect("streams are endless");
                            let _ = execute(&mut client, &op);
                            if stream.at_cycle_boundary() {
                                break;
                            }
                        }
                    }
                    let warm_rss = if barrier.wait().is_leader() {
                        crate::fingerprint::peak_rss_bytes()
                    } else {
                        None
                    };
                    let start = Instant::now();
                    let deadline = start + Duration::from_secs_f64(seconds);
                    let mut records = Vec::new();
                    while !(stream.at_cycle_boundary() && Instant::now() >= deadline) {
                        let op = stream.next().expect("streams are endless");
                        let sent = Instant::now();
                        let result = execute(&mut client, &op);
                        let done = Instant::now();
                        let lost = matches!(&result, Err(e) if e.starts_with("client-"));
                        let (failure, scores) = match result {
                            Ok(scores) => (None, scores),
                            Err(e) => (Some(e), None),
                        };
                        records.push(Record { client: c as u32, op, sent, done, failure, scores });
                        if lost {
                            // the connection is poisoned after a transport
                            // error: reconnect, or stop this client
                            match ServeClient::connect(addr) {
                                Ok(fresh) => client = fresh,
                                Err(_) => break,
                            }
                        }
                    }
                    (start, records, warm_rss)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let start = per_client.iter().map(|(s, ..)| *s).min().expect("at least one client");
    let peak_rss = per_client.iter().find_map(|(.., rss)| *rss);
    let records: Vec<Record> = per_client.into_iter().flat_map(|(_, r, _)| r).collect();
    let end = records.iter().map(|r| r.done).max().unwrap_or(start);
    PhaseLog { records, start, end, peak_rss }
}
