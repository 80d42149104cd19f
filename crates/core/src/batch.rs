//! The one local scorer: batched inference over cached receptive fields.
//!
//! The per-case path ([`Kgag::score_group_items`]) resamples the
//! receptive field of every member and candidate on each call and walks
//! the eval cases one at a time through the training tape. [`Scorer`]
//! removes both costs: it builds one [`RfCache`] pair per checkpoint
//! (member-side and item-side tables, keyed on the model's fixed
//! inference salt) and fuses the `(group, candidate)` instances of
//! *all* cases into uniform chunks that the thread pool scores
//! concurrently through the inference engine ([`crate::infer`]).
//!
//! Rosters come from a [`GroupStore`] behind the same lock as the
//! caches. Seeded from the model, the store holds the bound groups in
//! their original member order, so a scorer that is never mutated is
//! the static scorer; [`crate::dynamic`] adds create/join/leave on the
//! same object. The model is borrowed (`Scorer<&Kgag>`, single-model
//! serving) or owned (`Scorer<Kgag>`, a registry entry).
//!
//! The contract is bit-identity: every score equals what the per-case
//! tape path produces, at any `KGAG_THREADS`, any chunk size and with
//! the cache on or off. This holds because (a) the cache reproduces
//! live sampling exactly ([`RfCache`] docs), (b) the engine accumulates
//! every element in the tape's order, and (c) every engine kernel
//! computes each output row purely from its own instance's rows, so
//! chunking is value-neutral. The oracle suites
//! (`crates/core/tests/batched_oracle.rs`, `tests/engine_oracle.rs`)
//! and a dedicated CI stage enforce it.
//!
//! Ids are validated per case: an unknown group or item fails only its
//! own case ([`ColdStartError`]), and the rest of the batch scores as
//! if it were absent.
//!
//! [`score_bucketed`] is the one flatten → L-bucket → chunk →
//! `par_map` → reassemble driver every scorer shares, the sharded
//! router included.
//!
//! Knobs, read by `scoring_env` for every front door: `KGAG_RF_CACHE=0`
//! disables the cache (fields sampled live, batching retained);
//! `KGAG_EVAL_BATCH=<n>` caps the instances per chunk (default 256 —
//! chunks shrink automatically when the batch is too small to keep
//! every pool worker busy).

use crate::dynamic::ColdStartError;
use crate::infer::ScoreTier;
use crate::trainer::{Kgag, SALT_ITEM, SALT_MEMBER};
use kgag_data::GroupStore;
use kgag_eval::{BatchGroupScorer, EvalConfig, GroupEvalCase, MetricSummary};
use kgag_kg::RfCache;
use kgag_tensor::pool;
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::sync::RwLock;

/// Instances per chunk when `KGAG_EVAL_BATCH` is unset.
const DEFAULT_BATCH_INSTANCES: usize = 256;

/// The two scoring knobs, `(cache, batch_instances)`:
/// `KGAG_RF_CACHE=0` turns the receptive-field cache (the router's draw
/// memo) off, and a positive `KGAG_EVAL_BATCH` overrides the
/// instances-per-chunk cap. The only place either is read.
pub(crate) fn scoring_env() -> (bool, usize) {
    let cache = std::env::var("KGAG_RF_CACHE").map(|v| v != "0").unwrap_or(true);
    let batch = std::env::var("KGAG_EVAL_BATCH").ok().and_then(|v| v.parse().ok());
    (cache, batch.filter(|&n| n > 0).unwrap_or(DEFAULT_BATCH_INSTANCES))
}

/// Scores whole batches of `(group, candidates)` cases against one
/// trained model, amortising receptive-field sampling across every case
/// (see the module docs).
///
/// Scoring takes the state read-lock and mutations
/// ([`Scorer::apply`]) the write-lock, so any number of batch threads
/// score concurrently and each batch sees one consistent roster.
pub struct Scorer<M: Borrow<Kgag>> {
    model: M,
    batch_instances: usize,
    pub(crate) state: RwLock<State>,
}

/// Mutable serving state behind one lock: the roster and the
/// receptive-field caches that must stay coherent with it.
pub(crate) struct State {
    pub(crate) groups: GroupStore,
    /// `(member-side, item-side)` tables; `None` scores with live
    /// sampling (`KGAG_RF_CACHE=0`, or the KGAG-KG ablation where no
    /// fields exist to cache).
    pub(crate) caches: Option<(RfCache, RfCache)>,
}

impl Kgag {
    /// A [`Scorer`] over the bound groups, configured from the
    /// environment ([`Scorer::from_env`]).
    pub fn batch_scorer(&self) -> Scorer<&Kgag> {
        Scorer::from_env(self)
    }

    /// The same scorer as [`Kgag::batch_scorer`]: every scorer accepts
    /// lifecycle mutations.
    pub fn dynamic_scorer(&self) -> Scorer<&Kgag> {
        self.batch_scorer()
    }

    /// The `(member-side, item-side)` receptive-field cache pair every
    /// local scorer builds, so a cache built here reproduces live
    /// sampling bit-identically wherever it is mounted. `None` when
    /// caching is off or the KGAG-KG ablation leaves nothing to cache.
    fn eval_rf_caches(&self, cache: bool) -> Option<(RfCache, RfCache)> {
        (cache && self.config().use_kg).then(|| {
            let salt = self.eval_salt();
            let graph = self.collaborative_kg().graph();
            let depth = self.config().layers;
            (
                RfCache::build(self.eval_sampler(), graph, depth, salt ^ SALT_MEMBER),
                RfCache::build(self.eval_sampler(), graph, depth, salt ^ SALT_ITEM),
            )
        })
    }

    /// Evaluate prepared cases through the batched protocol — same
    /// metrics as [`Kgag::evaluate`], bit for bit, in one fused scoring
    /// pass.
    pub fn evaluate_batched(&self, cases: &[GroupEvalCase], config: &EvalConfig) -> MetricSummary {
        self.evaluate_batched_with(&self.batch_scorer(), cases, config)
    }

    /// [`Kgag::evaluate_batched`] over a *borrowed* scorer, so callers
    /// that keep a [`Scorer`] alive across many passes — the serving
    /// front-end, sweep loops — pay the receptive-field cache build
    /// once instead of per evaluation.
    pub fn evaluate_batched_with<M: Borrow<Kgag>>(
        &self,
        scorer: &Scorer<M>,
        cases: &[GroupEvalCase],
        config: &EvalConfig,
    ) -> MetricSummary {
        kgag_eval::evaluate_group_ranking_batched(scorer, self.num_items(), cases, config)
    }
}

impl<M: Borrow<Kgag>> Scorer<M> {
    /// A scorer over the model's bound groups with the receptive-field
    /// cache explicitly on or off (the knob the equivalence tests and
    /// benches sweep).
    pub fn new(model: M, cache: bool) -> Self {
        let groups = model.borrow().group_store();
        Self::with_groups(model, groups, cache)
    }

    /// A scorer over an explicit roster — how the oracle tests stand up
    /// the "rebuilt from final membership" side.
    pub fn with_groups(model: M, groups: GroupStore, cache: bool) -> Self {
        let caches = model.borrow().eval_rf_caches(cache);
        Scorer {
            model,
            batch_instances: DEFAULT_BATCH_INSTANCES,
            state: RwLock::new(State { groups, caches }),
        }
    }

    /// A scorer over the bound groups configured from the environment
    /// (`scoring_env`): `KGAG_RF_CACHE=0` disables the cache and
    /// `KGAG_EVAL_BATCH` overrides the chunk cap.
    pub fn from_env(model: M) -> Self {
        let (cache, batch_instances) = scoring_env();
        Self::new(model, cache).with_batch_instances(batch_instances)
    }

    /// Override the instances-per-chunk cap (any positive value scores
    /// bit-identically; the size only trades scheduling overhead against
    /// chunk size). Chunks shrink below the cap automatically when the
    /// batch is too small to give every pool worker several chunks.
    ///
    /// # Panics
    /// Panics when `n == 0`.
    pub fn with_batch_instances(mut self, n: usize) -> Self {
        assert!(n > 0, "batch size must be positive");
        self.batch_instances = n;
        self
    }

    /// The model scored against, for read-only interrogation
    /// (explanations, evaluation harnesses).
    pub fn model(&self) -> &Kgag {
        self.model.borrow()
    }

    /// The scoring engine in force (there is one).
    pub fn tier(&self) -> ScoreTier {
        ScoreTier::Engine
    }

    /// Whether the receptive-field cache is active.
    pub fn cached(&self) -> bool {
        self.state.read().unwrap().caches.is_some()
    }

    /// Approximate resident size of the receptive-field tables in bytes
    /// (`None` when uncached) — what a serving process reports at
    /// startup as the per-checkpoint memory cost of batched inference.
    pub fn cache_bytes(&self) -> Option<usize> {
        let state = self.state.read().unwrap();
        state.caches.as_ref().map(|(m, i)| m.approx_bytes() + i.approx_bytes())
    }

    /// Live group count (bound + created).
    pub fn num_groups(&self) -> u32 {
        self.state.read().unwrap().groups.num_groups()
    }

    /// Catalog size (valid candidates are `0..num_items()`).
    pub fn num_items(&self) -> u32 {
        self.model().num_items()
    }

    /// Scores for one case — aligned with `items`, bit-identical to
    /// [`Kgag::score_group_items`] on a bound group.
    pub fn score_case(&self, group: u32, items: &[u32]) -> Result<Vec<f32>, ColdStartError> {
        self.score_resolved(&[(group, items.to_vec())]).pop().unwrap_or(Ok(Vec::new()))
    }

    /// Scores for a batch of `(group, candidate list)` cases. Instances
    /// from different cases are fused into uniform chunks and scored in
    /// parallel; the result is reassembled per case. A case naming an
    /// unknown group or item gets an empty row — so a case with no
    /// candidates is answered empty whatever its group.
    pub fn score_cases(&self, cases: &[(u32, Vec<u32>)]) -> Vec<Vec<f32>> {
        self.score_resolved(cases).into_iter().map(Result::unwrap_or_default).collect()
    }

    /// [`Scorer::score_cases`] failing on the first case that names an
    /// unknown group or item.
    pub fn try_score_cases(
        &self,
        cases: &[(u32, Vec<u32>)],
    ) -> Result<Vec<Vec<f32>>, ColdStartError> {
        self.score_resolved(cases).into_iter().collect()
    }

    /// Resolve every case against the roster under the read-lock (the
    /// whole batch sees one membership snapshot), score the valid ones
    /// together and answer the rest with their typed error.
    fn score_resolved(&self, cases: &[(u32, Vec<u32>)]) -> Vec<Result<Vec<f32>, ColdStartError>> {
        let model = self.model();
        let state = self.state.read().unwrap();
        let resolve = |(g, items): &(u32, Vec<u32>)| {
            let members = state.groups.members(*g).map_err(|_| ColdStartError::UnknownGroup(*g))?;
            let ents = model.member_entities_for(members)?;
            match items.iter().find(|&&v| v >= model.num_items()) {
                Some(&v) => Err(ColdStartError::UnknownItem(v)),
                None => Ok(ents),
            }
        };
        let resolved: Vec<_> = cases.iter().map(resolve).collect();
        let member_ents: Vec<&[u32]> = resolved.iter().flatten().map(Vec::as_slice).collect();
        let score = |cases: &[(u32, Vec<u32>)]| {
            score_local(model, state.caches.as_ref(), self.batch_instances, &member_ents, cases)
        };
        let mut scored = if member_ents.len() == cases.len() {
            score(cases)
        } else {
            let valid: Vec<_> = cases
                .iter()
                .zip(&resolved)
                .filter(|(_, r)| r.is_ok())
                .map(|(c, _)| c.clone())
                .collect();
            score(&valid)
        }
        .into_iter();
        resolved.into_iter().map(|r| r.map(|_| scored.next().unwrap_or_default())).collect()
    }
}

/// The one scoring driver: resolve every case to `(case, item entity)`
/// instances, bucket by member count `L` (groups of different sizes
/// cannot share a flattened forward), chunk each bucket for the pool,
/// score each chunk through `score_chunk(flat_members, item_ents, l)`,
/// and reassemble per case.
///
/// `member_ents[ci]` is case `ci`'s member entity list — the caller
/// resolves it (from a [`GroupStore`] roster or the router's table).
/// A failed chunk fails every case it holds. Chunk boundaries never
/// change a bit: the receptive field of an entity does not depend on
/// its batch position and every engine kernel is per-instance, so the
/// size is picked for load balance alone — small enough that every pool
/// worker gets several chunks, capped at `batch_instances`.
pub(crate) fn score_bucketed<M, E>(
    member_ents: &[M],
    cases: &[(u32, Vec<u32>)],
    item_entity: impl Fn(u32) -> u32,
    batch_instances: usize,
    score_chunk: impl Fn(&[u32], &[u32], usize) -> Result<Vec<f32>, E> + Sync,
) -> Vec<Result<Vec<f32>, E>>
where
    M: AsRef<[u32]> + Sync,
    E: Clone + Send,
{
    debug_assert_eq!(member_ents.len(), cases.len());
    // flatten to (case index, item entity) instances in case order,
    // bucketed by member count (ascending L for determinism)
    let mut buckets: BTreeMap<usize, Vec<(u32, u32)>> = BTreeMap::new();
    let mut total = 0usize;
    for (ci, (_, items)) in cases.iter().enumerate() {
        let bucket = buckets.entry(member_ents[ci].as_ref().len()).or_default();
        bucket.extend(items.iter().map(|&v| (ci as u32, item_entity(v))));
        total += items.len();
    }
    if kgag_obs::enabled() {
        kgag_obs::counter("infer.batched_items_scored").add(total as u64);
    }
    let mut out: Vec<Result<Vec<f32>, E>> =
        cases.iter().map(|(_, items)| Ok(Vec::with_capacity(items.len()))).collect();
    for (&l, instances) in &buckets {
        let per_worker = instances.len().div_ceil(pool::num_threads() * 4).max(1);
        let chunks: Vec<&[(u32, u32)]> =
            instances.chunks(per_worker.min(batch_instances)).collect();
        let scored = pool::par_map(&chunks, |_, chunk| {
            let mut flat_members = Vec::with_capacity(chunk.len() * l);
            let mut item_ents = Vec::with_capacity(chunk.len());
            for &(ci, ent) in *chunk {
                flat_members.extend_from_slice(member_ents[ci as usize].as_ref());
                item_ents.push(ent);
            }
            score_chunk(&flat_members, &item_ents, l)
        });
        // reassemble per case, in instance order (one case lives in
        // exactly one bucket, so its items arrive in request order)
        for (chunk, result) in chunks.iter().zip(scored) {
            match result {
                Ok(scores) => {
                    for (&(ci, _), s) in chunk.iter().zip(scores) {
                        if let Ok(row) = &mut out[ci as usize] {
                            row.push(s);
                        }
                    }
                }
                Err(e) => {
                    for &(ci, _) in *chunk {
                        out[ci as usize] = Err(e.clone());
                    }
                }
            }
        }
    }
    out
}

/// [`score_bucketed`] over a model's own tables, with receptive fields
/// from `caches` or, when there are none, sampled live under the same
/// salts. Every case must be resolved and in range.
fn score_local(
    model: &Kgag,
    caches: Option<&(RfCache, RfCache)>,
    batch_instances: usize,
    member_ents: &[&[u32]],
    cases: &[(u32, Vec<u32>)],
) -> Vec<Vec<f32>> {
    let engine = model.engine();
    let tables = model.tables();
    let use_kg = model.config().use_kg;
    let score_chunk = |flat_members: &[u32], item_ents: &[u32], l: usize| {
        let fields = use_kg.then(|| match caches {
            Some((members, items)) => {
                (members.receptive_field(flat_members), items.receptive_field(item_ents))
            }
            None => {
                let (sampler, graph) = (model.eval_sampler(), model.collaborative_kg().graph());
                let (depth, salt) = (model.config().layers, model.eval_salt());
                (
                    sampler.receptive_field(graph, flat_members, depth, salt ^ SALT_MEMBER),
                    sampler.receptive_field(graph, item_ents, depth, salt ^ SALT_ITEM),
                )
            }
        });
        let fields = fields.as_ref().map(|(m, i)| (m, i));
        Ok::<_, Infallible>(engine.score(tables, fields, flat_members, item_ents, l))
    };
    score_bucketed(member_ents, cases, |v| model.item_entity(v), batch_instances, score_chunk)
        .into_iter()
        .map(|scored| match scored {
            Ok(scores) => scores,
            Err(never) => match never {},
        })
        .collect()
}

impl<M: Borrow<Kgag>> BatchGroupScorer for Scorer<M> {
    fn score_batch(&self, cases: &[(u32, Vec<u32>)]) -> Vec<Vec<f32>> {
        self.score_cases(cases)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KgagConfig;
    use kgag_data::movielens::Scale;
    use kgag_data::split::split_dataset;
    use kgag_data::yelp::{yelp, YelpConfig};

    #[test]
    fn scorer_validates_bounds_per_case() {
        let ds = yelp(&YelpConfig::at_scale(Scale::Tiny));
        let split = split_dataset(&ds, 11);
        let model = Kgag::new(&ds, &split, KgagConfig::default());
        let scorer = Scorer::new(&model, true);
        let (bad_group, bad_item) = (scorer.num_groups(), scorer.num_items());
        assert_eq!(
            scorer.try_score_cases(&[(bad_group, vec![0])]),
            Err(ColdStartError::UnknownGroup(bad_group))
        );
        assert_eq!(
            scorer.try_score_cases(&[(0, vec![bad_item])]),
            Err(ColdStartError::UnknownItem(bad_item))
        );
        // a bad case gets an empty row; its neighbours keep their bits
        let good = scorer.score_cases(&[(0, vec![0, 1, 2]), (1, vec![3, 4])]);
        let mixed = scorer.score_cases(&[
            (0, vec![0, 1, 2]),
            (bad_group, vec![5]),
            (1, vec![3, 4]),
            (0, vec![bad_item]),
        ]);
        assert_eq!(mixed.len(), 4);
        assert!(mixed[1].is_empty() && mixed[3].is_empty());
        for (want, got) in good.iter().zip([&mixed[0], &mixed[2]]) {
            let bits = |r: &[f32]| r.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(want), bits(got));
        }
    }
}
