//! Versioned checkpoint registry — the model side of multi-tenant
//! serving (DESIGN.md §16).
//!
//! Everything shipped before this module assumes one immutable
//! checkpoint per process. [`ModelRegistry`] removes that assumption:
//! it holds any number of [`RegistryModel`] entries — each an owned
//! [`Scorer`], the same scorer single-model serving borrows, keyed by
//! the FNV-1a hash of its checkpoint bytes ([`checkpoint_hash`]) — and
//! maps *tenants* (traffic partitions: A/B arms, ablations, customers)
//! onto them. Three invariants carry the serve-path bit-identity contract
//! into a world where the model can change under live traffic:
//!
//! 1. **Version pinning.** [`ModelRegistry::resolve`] hands back
//!    `Arc` clones of the tenant's entries under a read lock; promotion
//!    swaps the tenant's active hash under the write lock. A request
//!    therefore finishes on the exact model it was admitted under — an
//!    in-flight batch can never observe half a swap, because the swap
//!    is a pointer replacement, not a mutation of the entry.
//! 2. **Shadow-proven promotion.** A candidate cannot become active by
//!    fiat: it must first be staged ([`ModelRegistry::stage_shadow`])
//!    and accumulate [`ShadowStatus::min_clean`] live requests whose
//!    served scores were bit-identical to its own offline
//!    `score_cases` — the same oracle discipline `serve_check` applies
//!    offline, asserted continuously on production traffic. One
//!    recorded mismatch trips the circuit breaker: the entry is
//!    quarantined and the shadow dissolved ([`ModelRegistry::record_shadow`]).
//! 3. **Typed failure.** Every malformed transition — unknown tenant or
//!    model, promoting an unproven shadow, retiring a referenced entry —
//!    is a [`RegistryError`], never a panic, mirroring the lifecycle
//!    error discipline.
//!
//! The registry is deliberately transport-free: quotas, batchers and
//! the wire protocol live in `kgag-serve`, which composes them around
//! this state machine.

use crate::batch::Scorer;
use crate::trainer::Kgag;
use kgag_eval::BatchGroupScorer;
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

/// Content hash of a checkpoint buffer (64-bit FNV-1a): the registry's
/// version key. Identical parameter bytes — however produced — hash to
/// the same id, so re-loading an already-resident checkpoint is a
/// detectable no-op rather than a silent duplicate.
pub fn checkpoint_hash(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Typed rejection of a registry transition or admission. Fieldless so
/// each variant maps onto one wire status byte, like
/// [`kgag_data::LifecycleError`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegistryError {
    /// Tenant id has no active model bound.
    UnknownTenant,
    /// Checkpoint hash not resident in the registry.
    UnknownModel,
    /// Loading a checkpoint whose hash is already resident, or staging
    /// a tenant's active model as its own shadow.
    DuplicateModel,
    /// Binding a tenant that already has an active model (promotion,
    /// not re-binding, is the supported transition).
    TenantBound,
    /// The entry tripped the shadow circuit breaker (or was quarantined
    /// by hand) and cannot be staged or promoted.
    Quarantined,
    /// Promoting a tenant with no staged shadow, or whose shadow has
    /// not yet accumulated its clean quota.
    ShadowNotClean,
    /// Rolling back a tenant that has no previous version.
    NoPrevious,
    /// Retiring an entry still referenced by some tenant's active,
    /// previous or shadow slot.
    ModelInUse,
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::UnknownTenant => write!(f, "unknown tenant"),
            RegistryError::UnknownModel => write!(f, "unknown model hash"),
            RegistryError::DuplicateModel => write!(f, "model already resident"),
            RegistryError::TenantBound => write!(f, "tenant already bound"),
            RegistryError::Quarantined => write!(f, "model quarantined"),
            RegistryError::ShadowNotClean => write!(f, "shadow not proven clean"),
            RegistryError::NoPrevious => write!(f, "no previous version to roll back to"),
            RegistryError::ModelInUse => write!(f, "model still referenced by a tenant"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// One registry entry: an owned checkpoint's [`Scorer`] and the
/// content hash it is keyed by. Owning the model lets entries be loaded
/// and retired at runtime without a borrow tying them to the process
/// lifetime; everything else — scoring, validation, introspection — is
/// the scorer's, reached through `Deref`.
pub struct RegistryModel {
    scorer: Scorer<Kgag>,
    hash: u64,
}

impl std::fmt::Debug for RegistryModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegistryModel")
            .field("hash", &format_args!("{:016x}", self.hash))
            .field("cached", &self.cached())
            .finish_non_exhaustive()
    }
}

impl RegistryModel {
    /// An entry over `scorer`. `hash` is the checkpoint's
    /// [`checkpoint_hash`] (callers that trained the model in-process
    /// hash `model.save_checkpoint()`).
    pub fn new(scorer: Scorer<Kgag>, hash: u64) -> Self {
        RegistryModel { scorer, hash }
    }

    /// The checkpoint content hash this entry is keyed by.
    pub fn hash(&self) -> u64 {
        self.hash
    }
}

impl std::ops::Deref for RegistryModel {
    type Target = Scorer<Kgag>;

    fn deref(&self) -> &Scorer<Kgag> {
        &self.scorer
    }
}

impl BatchGroupScorer for RegistryModel {
    fn score_batch(&self, cases: &[(u32, Vec<u32>)]) -> Vec<Vec<f32>> {
        self.scorer.score_cases(cases)
    }
}

/// Progress of one staged shadow: how many live requests the candidate
/// has reproduced bit-for-bit, against the quota it must meet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShadowStatus {
    /// Candidate checkpoint hash.
    pub hash: u64,
    /// Live requests whose shadow scores matched the candidate's
    /// offline `score_cases` exactly.
    pub clean: u64,
    /// Divergent requests observed (a single one quarantines the
    /// candidate, so a surviving shadow always reads `0` here).
    pub mismatches: u64,
    /// Clean requests required before [`ModelRegistry::promote`]
    /// accepts.
    pub min_clean: u64,
}

impl ShadowStatus {
    /// Whether the candidate has met its promotion bar.
    pub fn ready(&self) -> bool {
        self.mismatches == 0 && self.clean >= self.min_clean
    }
}

/// What [`ModelRegistry::resolve`] admits a request under: the pinned
/// active entry, plus the staged candidate when one is shadowing.
pub struct Admission {
    /// The tenant's active model at admission time; the request scores
    /// against this exact entry even if a promotion lands meanwhile.
    pub active: Arc<RegistryModel>,
    /// The staged candidate, when one exists and is not quarantined —
    /// the serve layer mirrors (a sample of) traffic onto it and
    /// reports verdicts through [`ModelRegistry::record_shadow`].
    pub shadow: Option<Arc<RegistryModel>>,
}

struct Slot {
    model: Arc<RegistryModel>,
    quarantined: bool,
}

struct TenantState {
    active: u64,
    previous: Option<u64>,
    shadow: Option<ShadowStatus>,
}

#[derive(Default)]
struct Inner {
    models: BTreeMap<u64, Slot>,
    tenants: BTreeMap<u32, TenantState>,
}

/// The multi-tenant version map: checkpoint entries keyed by content
/// hash, tenants keyed by id, and the shadow/promote/rollback/retire
/// state machine connecting them (module docs). All state sits behind
/// one `RwLock`; scoring paths only ever take the read side.
#[derive(Default)]
pub struct ModelRegistry {
    inner: RwLock<Inner>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Make a checkpoint entry resident. Its [`RegistryModel::hash`]
    /// becomes the version key; a second load of the same bytes is
    /// [`RegistryError::DuplicateModel`].
    pub fn load(&self, model: RegistryModel) -> Result<u64, RegistryError> {
        let hash = model.hash();
        let mut inner = self.inner.write().unwrap();
        if inner.models.contains_key(&hash) {
            return Err(RegistryError::DuplicateModel);
        }
        inner.models.insert(hash, Slot { model: Arc::new(model), quarantined: false });
        Ok(hash)
    }

    /// Bind a fresh tenant to a resident entry — the bootstrap
    /// transition; after this, the tenant only changes models through
    /// shadow-proven [`ModelRegistry::promote`] (or
    /// [`ModelRegistry::rollback`]).
    pub fn bind(&self, tenant: u32, hash: u64) -> Result<(), RegistryError> {
        let mut inner = self.inner.write().unwrap();
        if !inner.models.contains_key(&hash) {
            return Err(RegistryError::UnknownModel);
        }
        if inner.tenants.contains_key(&tenant) {
            return Err(RegistryError::TenantBound);
        }
        inner.tenants.insert(tenant, TenantState { active: hash, previous: None, shadow: None });
        Ok(())
    }

    /// Stage a candidate as the tenant's shadow: it starts scoring
    /// (a sample of) the tenant's live traffic, and must reproduce
    /// `min_clean` requests bit-for-bit before promotion. Restages —
    /// same or different candidate — reset the counters.
    pub fn stage_shadow(
        &self,
        tenant: u32,
        hash: u64,
        min_clean: u64,
    ) -> Result<(), RegistryError> {
        let mut inner = self.inner.write().unwrap();
        let quarantined = match inner.models.get(&hash) {
            None => return Err(RegistryError::UnknownModel),
            Some(slot) => slot.quarantined,
        };
        if quarantined {
            return Err(RegistryError::Quarantined);
        }
        let state = inner.tenants.get_mut(&tenant).ok_or(RegistryError::UnknownTenant)?;
        if state.active == hash {
            return Err(RegistryError::DuplicateModel);
        }
        state.shadow = Some(ShadowStatus { hash, clean: 0, mismatches: 0, min_clean });
        Ok(())
    }

    /// Report one shadow verdict: `clean` when the served shadow scores
    /// were bit-identical to the candidate's offline `score_cases`. A
    /// mismatch trips the circuit breaker — the entry is quarantined
    /// registry-wide and every tenant shadowing it has the stage
    /// dissolved. Returns the updated status, or `None` when the
    /// tenant's shadow moved on meanwhile (stale verdict, ignored).
    pub fn record_shadow(&self, tenant: u32, hash: u64, clean: bool) -> Option<ShadowStatus> {
        let mut inner = self.inner.write().unwrap();
        let status = {
            let state = inner.tenants.get_mut(&tenant)?;
            let status = state.shadow.as_mut().filter(|s| s.hash == hash)?;
            if clean {
                status.clean += 1;
            } else {
                status.mismatches += 1;
            }
            *status
        };
        if !clean {
            if let Some(slot) = inner.models.get_mut(&hash) {
                slot.quarantined = true;
            }
            for state in inner.tenants.values_mut() {
                if state.shadow.is_some_and(|s| s.hash == hash) {
                    state.shadow = None;
                }
            }
        }
        Some(status)
    }

    /// The tenant's current shadow progress, if one is staged.
    pub fn shadow_status(&self, tenant: u32) -> Option<ShadowStatus> {
        self.inner.read().unwrap().tenants.get(&tenant)?.shadow
    }

    /// Promote the tenant's staged shadow to active. Requires the
    /// shadow to be proven ([`ShadowStatus::ready`]) and the entry
    /// unquarantined; the swap itself is atomic — concurrent
    /// [`ModelRegistry::resolve`] calls see either the old or the new
    /// active, never an intermediate. Returns the new active hash.
    pub fn promote(&self, tenant: u32) -> Result<u64, RegistryError> {
        let mut inner = self.inner.write().unwrap();
        let status = match inner.tenants.get(&tenant) {
            None => return Err(RegistryError::UnknownTenant),
            Some(state) => state.shadow.ok_or(RegistryError::ShadowNotClean)?,
        };
        if !status.ready() {
            return Err(RegistryError::ShadowNotClean);
        }
        if inner.models.get(&status.hash).is_none_or(|s| s.quarantined) {
            return Err(RegistryError::Quarantined);
        }
        let state = inner.tenants.get_mut(&tenant).unwrap();
        state.previous = Some(state.active);
        state.active = status.hash;
        state.shadow = None;
        Ok(status.hash)
    }

    /// Swap the tenant back to its previous version (the inverse swap:
    /// a second rollback returns to where the first started). Any
    /// staged shadow survives — rolling back the active arm does not
    /// un-prove a candidate. Returns the new active hash.
    pub fn rollback(&self, tenant: u32) -> Result<u64, RegistryError> {
        let mut inner = self.inner.write().unwrap();
        let state = inner.tenants.get_mut(&tenant).ok_or(RegistryError::UnknownTenant)?;
        let previous = state.previous.ok_or(RegistryError::NoPrevious)?;
        state.previous = Some(state.active);
        state.active = previous;
        Ok(previous)
    }

    /// Drop a resident entry. Refused while any tenant references it
    /// (active, previous or shadow). Returns the final `Arc` so the
    /// serve layer can drain the entry's batcher before the model is
    /// deallocated.
    pub fn retire(&self, hash: u64) -> Result<Arc<RegistryModel>, RegistryError> {
        let mut inner = self.inner.write().unwrap();
        if !inner.models.contains_key(&hash) {
            return Err(RegistryError::UnknownModel);
        }
        let referenced = inner.tenants.values().any(|t| {
            t.active == hash || t.previous == Some(hash) || t.shadow.is_some_and(|s| s.hash == hash)
        });
        if referenced {
            return Err(RegistryError::ModelInUse);
        }
        Ok(inner.models.remove(&hash).unwrap().model)
    }

    /// Admit one request for a tenant: pin its active entry (and the
    /// staged candidate, when shadowing) by `Arc` clone. The clones
    /// outlive any concurrent promote/rollback/retire, which is the
    /// whole zero-downtime guarantee — swaps replace pointers, requests
    /// keep theirs.
    pub fn resolve(&self, tenant: u32) -> Result<Admission, RegistryError> {
        let inner = self.inner.read().unwrap();
        let state = inner.tenants.get(&tenant).ok_or(RegistryError::UnknownTenant)?;
        let active = inner.models[&state.active].model.clone();
        let shadow = state
            .shadow
            .and_then(|s| inner.models.get(&s.hash))
            .filter(|slot| !slot.quarantined)
            .map(|slot| slot.model.clone());
        Ok(Admission { active, shadow })
    }

    /// The resident entry for `hash`, pinned by `Arc` clone — how the
    /// serve layer attaches per-entry scoring machinery (a batcher)
    /// right after [`ModelRegistry::load`].
    pub fn entry(&self, hash: u64) -> Option<Arc<RegistryModel>> {
        self.inner.read().unwrap().models.get(&hash).map(|s| s.model.clone())
    }

    /// Quarantine an entry by hand (the circuit breaker does this
    /// automatically on a shadow mismatch). Quarantined entries keep
    /// serving tenants they are already active for — traffic has
    /// nowhere else to go — but cannot be staged or promoted.
    pub fn quarantine(&self, hash: u64) -> Result<(), RegistryError> {
        let mut inner = self.inner.write().unwrap();
        let slot = inner.models.get_mut(&hash).ok_or(RegistryError::UnknownModel)?;
        slot.quarantined = true;
        for state in inner.tenants.values_mut() {
            if state.shadow.is_some_and(|s| s.hash == hash) {
                state.shadow = None;
            }
        }
        Ok(())
    }

    /// Whether an entry is quarantined (`false` for non-resident
    /// hashes).
    pub fn is_quarantined(&self, hash: u64) -> bool {
        self.inner.read().unwrap().models.get(&hash).is_some_and(|s| s.quarantined)
    }

    /// The tenant's active hash.
    pub fn active_of(&self, tenant: u32) -> Result<u64, RegistryError> {
        let inner = self.inner.read().unwrap();
        inner.tenants.get(&tenant).map(|t| t.active).ok_or(RegistryError::UnknownTenant)
    }

    /// Resident checkpoint hashes, ascending.
    pub fn hashes(&self) -> Vec<u64> {
        self.inner.read().unwrap().models.keys().copied().collect()
    }

    /// Bound tenant ids, ascending.
    pub fn tenants(&self) -> Vec<u32> {
        self.inner.read().unwrap().tenants.keys().copied().collect()
    }

    /// Number of resident entries.
    pub fn num_models(&self) -> usize {
        self.inner.read().unwrap().models.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KgagConfig;
    use kgag_data::movielens::Scale;
    use kgag_data::split::split_dataset;
    use kgag_data::yelp::{yelp, YelpConfig};

    /// Untrained Tiny models are enough for bookkeeping and
    /// bit-identity tests — initial parameters are deterministic and
    /// nonzero, and nothing here depends on model quality.
    fn entry(hash: u64) -> RegistryModel {
        let ds = yelp(&YelpConfig::at_scale(Scale::Tiny));
        let split = split_dataset(&ds, 11);
        let model = Kgag::new(&ds, &split, KgagConfig::default());
        RegistryModel::new(Scorer::new(model, true), hash)
    }

    fn prove(reg: &ModelRegistry, tenant: u32, hash: u64, n: u64) {
        for _ in 0..n {
            reg.record_shadow(tenant, hash, true).expect("shadow staged");
        }
    }

    #[test]
    fn hash_is_fnv1a() {
        // reference vectors for 64-bit FNV-1a
        assert_eq!(checkpoint_hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(checkpoint_hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(checkpoint_hash(b"foobar"), 0x85944171f73967e8);
        assert_ne!(checkpoint_hash(b"ab"), checkpoint_hash(b"ba"));
    }

    #[test]
    fn load_bind_duplicate() {
        let reg = ModelRegistry::new();
        assert_eq!(reg.load(entry(1)), Ok(1));
        assert_eq!(reg.load(entry(1)), Err(RegistryError::DuplicateModel));
        assert_eq!(reg.bind(7, 2), Err(RegistryError::UnknownModel));
        assert_eq!(reg.bind(7, 1), Ok(()));
        assert_eq!(reg.bind(7, 1), Err(RegistryError::TenantBound));
        assert_eq!(reg.active_of(7), Ok(1));
        assert_eq!(reg.active_of(8), Err(RegistryError::UnknownTenant));
        assert_eq!(reg.hashes(), vec![1]);
        assert_eq!(reg.tenants(), vec![7]);
    }

    #[test]
    fn promote_requires_proven_shadow() {
        let reg = ModelRegistry::new();
        reg.load(entry(1)).unwrap();
        reg.load(entry(2)).unwrap();
        reg.bind(0, 1).unwrap();
        // no shadow staged at all
        assert_eq!(reg.promote(0), Err(RegistryError::ShadowNotClean));
        // staging the active model as its own shadow is meaningless
        assert_eq!(reg.stage_shadow(0, 1, 2), Err(RegistryError::DuplicateModel));
        reg.stage_shadow(0, 2, 2).unwrap();
        // staged but unproven
        assert_eq!(reg.promote(0), Err(RegistryError::ShadowNotClean));
        prove(&reg, 0, 2, 1);
        assert_eq!(reg.promote(0), Err(RegistryError::ShadowNotClean));
        prove(&reg, 0, 2, 1);
        assert!(reg.shadow_status(0).unwrap().ready());
        assert_eq!(reg.promote(0), Ok(2));
        assert_eq!(reg.active_of(0), Ok(2));
        // shadow consumed by the promotion
        assert_eq!(reg.shadow_status(0), None);
    }

    #[test]
    fn mismatch_quarantines_and_dissolves_shadow() {
        let reg = ModelRegistry::new();
        reg.load(entry(1)).unwrap();
        reg.load(entry(2)).unwrap();
        reg.bind(0, 1).unwrap();
        reg.bind(9, 1).unwrap();
        reg.stage_shadow(0, 2, 1).unwrap();
        reg.stage_shadow(9, 2, 1).unwrap();
        prove(&reg, 0, 2, 5);
        let status = reg.record_shadow(0, 2, false).unwrap();
        assert_eq!(status.mismatches, 1);
        assert!(!status.ready());
        assert!(reg.is_quarantined(2));
        // every tenant shadowing the entry loses the stage
        assert_eq!(reg.shadow_status(0), None);
        assert_eq!(reg.shadow_status(9), None);
        // quarantined entries cannot be re-staged or promoted
        assert_eq!(reg.stage_shadow(0, 2, 1), Err(RegistryError::Quarantined));
        // stale verdicts after dissolution are ignored
        assert_eq!(reg.record_shadow(0, 2, true), None);
        // the active arm is untouched
        assert_eq!(reg.active_of(0), Ok(1));
    }

    #[test]
    fn rollback_swaps_and_reverses() {
        let reg = ModelRegistry::new();
        reg.load(entry(1)).unwrap();
        reg.load(entry(2)).unwrap();
        reg.bind(0, 1).unwrap();
        assert_eq!(reg.rollback(0), Err(RegistryError::NoPrevious));
        reg.stage_shadow(0, 2, 0).unwrap();
        assert_eq!(reg.promote(0), Ok(2));
        assert_eq!(reg.rollback(0), Ok(1));
        assert_eq!(reg.active_of(0), Ok(1));
        // rollback is its own inverse
        assert_eq!(reg.rollback(0), Ok(2));
        assert_eq!(reg.active_of(0), Ok(2));
    }

    #[test]
    fn retire_refuses_referenced_entries() {
        let reg = ModelRegistry::new();
        reg.load(entry(1)).unwrap();
        reg.load(entry(2)).unwrap();
        reg.load(entry(3)).unwrap();
        reg.bind(0, 1).unwrap();
        reg.stage_shadow(0, 2, 0).unwrap();
        assert_eq!(reg.retire(1).unwrap_err(), RegistryError::ModelInUse); // active
        assert_eq!(reg.retire(2).unwrap_err(), RegistryError::ModelInUse); // shadow
        assert_eq!(reg.retire(9).unwrap_err(), RegistryError::UnknownModel);
        reg.promote(0).unwrap();
        assert_eq!(reg.retire(1).unwrap_err(), RegistryError::ModelInUse); // previous
        let retired = reg.retire(3).unwrap();
        assert_eq!(retired.hash(), 3);
        assert_eq!(reg.num_models(), 2);
    }

    #[test]
    fn resolve_pins_across_promotion() {
        let reg = ModelRegistry::new();
        reg.load(entry(1)).unwrap();
        reg.load(entry(2)).unwrap();
        reg.bind(0, 1).unwrap();
        reg.stage_shadow(0, 2, 0).unwrap();
        let admitted = reg.resolve(0).unwrap();
        assert_eq!(admitted.active.hash(), 1);
        assert_eq!(admitted.shadow.as_ref().unwrap().hash(), 2);
        reg.promote(0).unwrap();
        // the admission still points at the version it was issued under
        assert_eq!(admitted.active.hash(), 1);
        let after = reg.resolve(0).unwrap();
        assert_eq!(after.active.hash(), 2);
        assert!(after.shadow.is_none());
    }
}
