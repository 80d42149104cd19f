//! Live group lifecycle on the one local scorer.
//!
//! Every [`Scorer`] reads its rosters from a [`GroupStore`], so a
//! serving process can **create**, **join** and **leave** groups
//! between requests ([`Scorer::apply`]) and score the result
//! immediately — including groups that never existed at training time
//! (cold start).
//!
//! Three invariants make this safe to run live (DESIGN.md §13):
//!
//! 1. **Mutate ≡ rebuild.** After any interleaving of lifecycle ops,
//!    every score is bit-identical to tearing the server down and
//!    rebuilding dataset + caches from scratch with the final
//!    membership. The property suite in
//!    `crates/core/tests/lifecycle_oracle.rs` drives random op/score
//!    sequences against exactly that oracle.
//! 2. **Precise invalidation.** A mutation touches a known set of user
//!    entities; only cache entries whose receptive field can reach a
//!    touched entity (within the cache depth) are evicted, then
//!    repaired in place. The collaborative-KG topology itself is
//!    membership-independent — `Interact` edges come from feedback, not
//!    group rosters — so repair restores byte-identical rows; eviction
//!    is the hook through which future *graph* deltas (new
//!    interactions) propagate, and `crates/kg/tests/rf_cache_props.rs`
//!    proves precision and repair equivalence on genuine topology
//!    changes.
//! 3. **Typed failure.** Every malformed input — unknown group or user,
//!    duplicate membership, a leave that would strand one member, an
//!    empty ad-hoc roster — is a typed error ([`ColdStartError`],
//!    [`LifecycleError`]), never a panic, so one bad request cannot
//!    take a serving thread down.
//!
//! Group sizes may drift off the trained nominal through mutations; the
//! forward then drops the size-coupled peer-influence tower and scores
//! self-persistence only (see [`Kgag::score_members`]). Nominal-size
//! groups — mutated or not — score through the full attention,
//! bit-identical to the bound groups.

use crate::batch::Scorer;
use crate::trainer::Kgag;
use kgag_data::{GroupLifecycle, LifecycleAck, LifecycleError, LifecycleOp};
use std::borrow::Borrow;

/// Typed rejection of an ad-hoc scoring request ([`Kgag::score_members`]
/// and [`Scorer`] scoring). These are *request* errors — the
/// model and caches are untouched when one is returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColdStartError {
    /// No members at all: there is nothing to aggregate.
    EmptyGroup,
    /// A single member is an individual, not a group; score it through
    /// [`Kgag::score_user_items`] instead.
    SingleMember,
    /// Member user id outside the trained user universe.
    UnknownUser(u32),
    /// Candidate item id outside the trained catalog.
    UnknownItem(u32),
    /// Group id not present in the live store.
    UnknownGroup(u32),
}

impl std::fmt::Display for ColdStartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ColdStartError::EmptyGroup => write!(f, "group has no members"),
            ColdStartError::SingleMember => {
                write!(f, "single-member group: use individual scoring")
            }
            ColdStartError::UnknownUser(u) => write!(f, "unknown user {u}"),
            ColdStartError::UnknownItem(v) => write!(f, "unknown item {v}"),
            ColdStartError::UnknownGroup(g) => write!(f, "unknown group {g}"),
        }
    }
}

impl std::error::Error for ColdStartError {}

impl<M: Borrow<Kgag>> Scorer<M> {
    /// Monotone mutation counter of the live store.
    pub fn version(&self) -> u64 {
        self.state.read().unwrap().groups.version()
    }

    /// Current members of a live group, sorted canonical order for
    /// mutated groups (copied out — the lock is not held by the caller).
    pub fn members_of(&self, group: u32) -> Result<Vec<u32>, LifecycleError> {
        Ok(self.state.read().unwrap().groups.members(group)?.to_vec())
    }

    /// Apply one lifecycle op atomically: mutate the group table, then
    /// evict and repair every receptive-field cache entry reachable from
    /// the touched users. Failed ops leave both untouched.
    pub fn apply(&self, op: &LifecycleOp) -> Result<LifecycleAck, LifecycleError> {
        let model = self.model();
        let mut state = self.state.write().unwrap();
        let applied = state.groups.apply(op)?;
        let touched_ents: Vec<u32> =
            applied.touched.iter().map(|&u| model.collaborative_kg().user_entity(u).0).collect();
        let mut evicted = 0usize;
        if let Some((members, items)) = state.caches.as_mut() {
            let graph = model.collaborative_kg().graph();
            evicted += members.invalidate_reachable(graph, &touched_ents).evicted;
            evicted += items.invalidate_reachable(graph, &touched_ents).evicted;
            members.repair(model.eval_sampler(), graph);
            items.repair(model.eval_sampler(), graph);
        }
        if kgag_obs::enabled() {
            match op {
                LifecycleOp::Create { .. } => kgag_obs::counter("lifecycle.groups_created").add(1),
                LifecycleOp::Join { .. } => kgag_obs::counter("lifecycle.joins").add(1),
                LifecycleOp::Leave { .. } => kgag_obs::counter("lifecycle.leaves").add(1),
            }
            kgag_obs::counter("lifecycle.cache_evicted").add(evicted as u64);
        }
        Ok(applied.ack)
    }
}

impl<M: Borrow<Kgag>> GroupLifecycle for Scorer<M> {
    fn apply_op(&self, op: &LifecycleOp) -> Result<LifecycleAck, LifecycleError> {
        self.apply(op)
    }

    fn group_count(&self) -> u32 {
        self.num_groups()
    }

    fn item_count(&self) -> u32 {
        self.num_items()
    }
}
