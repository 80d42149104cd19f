//! Seeded per-client operation streams.
//!
//! Each client draws its operations from its own [`OpStream`], seeded
//! from the run seed and the client index, so the same seed always
//! replays the same requests in the same order. Client `c` of `n` only
//! ever touches groups `g` with `g % n == c`: clients never share a
//! group, so a churn client's join and leave never race another
//! client's reads of the same roster, and a traced request's client can
//! be recovered from its group's parity. In a churn stream only client
//! [`WRITER`] joins and leaves; the others only score.

use kgag_tensor::rng::{derive_seed, SplitMix64};
use std::collections::VecDeque;

/// Score requests per churn cycle, after its join and leave. On the
/// large catalog a write holds the state lock for tens of milliseconds
/// against a few for a score; with 3 scores per cycle about half the
/// scores waited behind a write and the median flipped between runs,
/// with 8 it stays a read-path figure.
pub const CHURN_SCORES: usize = 8;

/// The one client of a churn stream that joins and leaves. With every
/// client writing, the closed loops locked into patterns that flipped
/// within and between runs: the writes coincided (scores almost never
/// waited) or alternated (a score often waited behind two writes), and
/// the score tail moved by 10×. With one writer the pattern is fixed:
/// the other client's scores wait behind its writes.
pub const WRITER: u32 = 0;

/// One client operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Score `items` for `group`.
    Score {
        group: u32,
        items: Vec<u32>,
    },
    Join {
        group: u32,
        user: u32,
    },
    Leave {
        group: u32,
        user: u32,
    },
}

/// Operation kinds, for per-kind accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Score,
    Join,
    Leave,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Score, Kind::Join, Kind::Leave];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Score => "score",
            Kind::Join => "join",
            Kind::Leave => "leave",
        }
    }
}

impl Op {
    pub fn kind(&self) -> Kind {
        match self {
            Op::Score { .. } => Kind::Score,
            Op::Join { .. } => Kind::Join,
            Op::Leave { .. } => Kind::Leave,
        }
    }

    /// The request frame this op puts on the wire under correlation id
    /// `id` (what the seed → byte-identical stream test compares).
    #[cfg(test)]
    pub fn frame(&self, id: u64) -> Vec<u8> {
        use kgag_data::LifecycleOp;
        use kgag_serve::wire::{self, LifecycleRequest, Request};
        let encoded = match self {
            Op::Score { group, items, .. } => wire::encode_request(&Request {
                id,
                group: *group,
                deadline_us: 0,
                items: items.clone(),
            }),
            Op::Join { group, user } => wire::encode_lifecycle(&LifecycleRequest {
                id,
                op: LifecycleOp::Join { group: *group, user: *user },
            }),
            Op::Leave { group, user } => wire::encode_lifecycle(&LifecycleRequest {
                id,
                op: LifecycleOp::Leave { group: *group, user: *user },
            }),
        };
        encoded.expect("benchmark requests fit one frame")
    }
}

/// What the streams of one workload draw from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamShape {
    pub clients: u32,
    pub num_users: u32,
    pub num_items: u32,
    /// Candidates per score request, inclusive range.
    pub cands: (usize, usize),
    /// Churn cycles (join, leave, then [`CHURN_SCORES`] scores) for
    /// client [`WRITER`] instead of plain score requests.
    pub churn: bool,
}

/// An endless seeded stream of one client's operations. Operations come
/// in cycles — one score request, or one churn cycle — and a
/// run only stops a client between cycles, so every join is followed
/// by its leave and rosters end the run as they started.
///
/// A churn cycle (client [`WRITER`] only) joins an outsider to one of
/// the client's groups, lets
/// them leave again, then scores [`CHURN_SCORES`] candidate lists for
/// the group. Every score therefore sees the group's nominal roster,
/// and the two writes come back to back: a score sent while the writer
/// is writing waits behind the state write lock, and keeping the writes
/// together keeps that share of scores well below half, so the median
/// stays a read-path figure and the tail carries the lock.
pub struct OpStream<'a> {
    rng: SplitMix64,
    shape: StreamShape,
    client: u32,
    groups: &'a [Vec<u32>],
    queue: VecDeque<Op>,
}

impl<'a> OpStream<'a> {
    /// Client `client`'s stream for run seed `seed` over the static
    /// rosters `groups`.
    pub fn new(shape: StreamShape, groups: &'a [Vec<u32>], seed: u64, client: u32) -> Self {
        assert!(client < shape.clients && groups.len() >= shape.clients as usize);
        let rng = SplitMix64::new(derive_seed(seed, &format!("client-{client}")));
        OpStream { rng, shape, client, groups, queue: VecDeque::new() }
    }

    /// True between cycles.
    pub fn at_cycle_boundary(&self) -> bool {
        self.queue.is_empty()
    }

    fn pick_group(&mut self) -> u32 {
        let n = self.groups.len() as u32;
        let slots = (n - self.client).div_ceil(self.shape.clients);
        self.client + self.shape.clients * self.rng.next_below(slots as usize) as u32
    }

    fn pick_items(&mut self) -> Vec<u32> {
        let (lo, hi) = self.shape.cands;
        let count = lo + self.rng.next_below(hi - lo + 1);
        let mut items: Vec<u32> = Vec::with_capacity(count);
        while items.len() < count {
            let v = self.rng.next_below(self.shape.num_items as usize) as u32;
            if !items.contains(&v) {
                items.push(v);
            }
        }
        items
    }

    fn refill(&mut self) {
        let group = self.pick_group();
        if !self.shape.churn || self.client != WRITER {
            let items = self.pick_items();
            self.queue.push_back(Op::Score { group, items });
            return;
        }
        let roster = &self.groups[group as usize];
        let user = loop {
            let u = self.rng.next_below(self.shape.num_users as usize) as u32;
            if !roster.contains(&u) {
                break u;
            }
        };
        self.queue.extend([Op::Join { group, user }, Op::Leave { group, user }]);
        for _ in 0..CHURN_SCORES {
            let items = self.pick_items();
            self.queue.push_back(Op::Score { group, items });
        }
    }
}

impl Iterator for OpStream<'_> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.queue.is_empty() {
            self.refill();
        }
        self.queue.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rosters() -> Vec<Vec<u32>> {
        (0..9u32).map(|g| vec![g, g + 10, g + 20]).collect()
    }

    fn shape(churn: bool) -> StreamShape {
        StreamShape { clients: 2, num_users: 40, num_items: 500, cands: (3, 7), churn }
    }

    fn stream_bytes(seed: u64, client: u32, churn: bool, ops: usize) -> Vec<u8> {
        let groups = rosters();
        OpStream::new(shape(churn), &groups, seed, client)
            .take(ops)
            .enumerate()
            .flat_map(|(i, op)| op.frame(i as u64))
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_streams() {
        for churn in [false, true] {
            for client in 0..2 {
                let a = stream_bytes(42, client, churn, 200);
                assert_eq!(a, stream_bytes(42, client, churn, 200));
                assert_ne!(a, stream_bytes(43, client, churn, 200));
            }
            assert_ne!(stream_bytes(42, 0, churn, 200), stream_bytes(42, 1, churn, 200));
        }
    }

    #[test]
    fn clients_keep_to_their_own_groups_and_candidate_counts() {
        let groups = rosters();
        for client in 0..2 {
            for op in OpStream::new(shape(false), &groups, 5, client).take(300) {
                let Op::Score { group, items } = op else { panic!("churn op in a plain stream") };
                assert_eq!(group % 2, client);
                assert!((3..=7).contains(&items.len()));
                let mut distinct = items.clone();
                distinct.sort_unstable();
                distinct.dedup();
                assert_eq!(distinct.len(), items.len());
            }
        }
    }

    #[test]
    fn churn_cycles_join_an_outsider_and_leave_again() {
        let groups = rosters();
        let reader = OpStream::new(shape(true), &groups, 9, 1 - WRITER).take(300);
        assert!(reader.into_iter().all(|op| matches!(op, Op::Score { .. })));
        let mut stream = OpStream::new(shape(true), &groups, 9, WRITER);
        for _ in 0..50 {
            let cycle: Vec<Op> = (&mut stream).take(2 + CHURN_SCORES).collect();
            assert!(stream.at_cycle_boundary());
            let (Op::Join { group, user }, Op::Leave { group: g2, user: u2 }) =
                (&cycle[0], &cycle[1])
            else {
                panic!("malformed cycle {cycle:?}")
            };
            assert_eq!((group, user), (g2, u2));
            assert_eq!(group % 2, WRITER);
            assert!(!groups[*group as usize].contains(user));
            assert!(cycle[2..]
                .iter()
                .all(|op| matches!(op, Op::Score { group: g, .. } if g == group)));
        }
    }
}
