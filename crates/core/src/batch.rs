//! Batched inference over cached receptive fields.
//!
//! The per-case path ([`Kgag::score_group_items`]) resamples the
//! receptive field of every member and candidate on each call and walks
//! the eval cases one at a time through the training tape.
//! [`BatchScorer`] removes both costs: it builds one [`RfCache`] pair
//! per checkpoint (member-side and item-side tables, keyed on the
//! model's fixed inference salt) and fuses the `(group, candidate)`
//! instances of *all* cases into uniform chunks that the thread pool
//! scores concurrently through the inference engine
//! ([`crate::infer`]).
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
//! [`score_bucketed`] is the one flatten → L-bucket → chunk →
//! `par_map` → reassemble driver every scorer shares, the sharded
//! router included.
//!
//! Knobs: `KGAG_RF_CACHE=0` disables the cache (fields sampled live,
//! batching retained); `KGAG_EVAL_BATCH=<n>` caps the instances per
//! chunk (default 256 — chunks shrink automatically when the batch is
//! too small to keep every pool worker busy).

use crate::infer::ScoreTier;
use crate::trainer::{Kgag, SALT_ITEM, SALT_MEMBER};
use kgag_eval::{BatchGroupScorer, EvalConfig, GroupEvalCase, MetricSummary};
use kgag_kg::RfCache;
use kgag_tensor::pool;
use std::collections::BTreeMap;
use std::convert::Infallible;

/// Scores whole batches of evaluation cases against one trained model,
/// amortising receptive-field sampling across every case (see the
/// module docs).
pub struct BatchScorer<'m> {
    model: &'m Kgag,
    /// `(member-side, item-side)` tables; `None` scores with live
    /// sampling (`KGAG_RF_CACHE=0`, or the KGAG-KG ablation where no
    /// fields exist to cache).
    caches: Option<(RfCache, RfCache)>,
    batch_instances: usize,
}

impl Kgag {
    /// A [`BatchScorer`] configured from the environment:
    /// `KGAG_RF_CACHE=0` disables the receptive-field cache and
    /// `KGAG_EVAL_BATCH` overrides the instances-per-chunk default of
    /// 256.
    pub fn batch_scorer(&self) -> BatchScorer<'_> {
        let cache = std::env::var("KGAG_RF_CACHE").map(|v| v != "0").unwrap_or(true);
        let scorer = self.batch_scorer_with(cache);
        match env_batch_instances() {
            Some(n) => scorer.with_batch_instances(n),
            None => scorer,
        }
    }

    /// A [`BatchScorer`] with the cache explicitly on or off (the knob
    /// the equivalence tests and benches sweep).
    pub fn batch_scorer_with(&self, cache: bool) -> BatchScorer<'_> {
        BatchScorer { model: self, caches: self.eval_rf_caches(cache), batch_instances: 256 }
    }

    /// The `(member-side, item-side)` receptive-field cache pair every
    /// scoring engine shares — [`BatchScorer`], [`crate::DynamicScorer`]
    /// and the registry's owned entries ([`crate::RegistryModel`]) all
    /// build their caches through this one seam, so a cache built here
    /// reproduces live sampling bit-identically wherever it is mounted.
    /// `None` when caching is off or the KGAG-KG ablation leaves nothing
    /// to cache.
    pub(crate) fn eval_rf_caches(&self, cache: bool) -> Option<(RfCache, RfCache)> {
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
        let scorer = self.batch_scorer();
        self.evaluate_batched_with(&scorer, cases, config)
    }

    /// [`Kgag::evaluate_batched`] over a *borrowed* scorer, so callers
    /// that keep a [`BatchScorer`] alive across many passes — the
    /// serving front-end, sweep loops — pay the receptive-field cache
    /// build once instead of per evaluation.
    pub fn evaluate_batched_with(
        &self,
        scorer: &BatchScorer<'_>,
        cases: &[GroupEvalCase],
        config: &EvalConfig,
    ) -> MetricSummary {
        kgag_eval::evaluate_group_ranking_batched(scorer, self.num_items(), cases, config)
    }
}

impl<'m> BatchScorer<'m> {
    /// Override the instances-per-chunk cap (any positive value scores
    /// bit-identically; the size only trades scheduling overhead against
    /// tape size). Chunks shrink below the cap automatically when the
    /// batch is too small to give every pool worker several chunks.
    ///
    /// # Panics
    /// Panics when `n == 0`.
    pub fn with_batch_instances(mut self, n: usize) -> Self {
        assert!(n > 0, "batch size must be positive");
        self.batch_instances = n;
        self
    }

    /// The scoring engine in force (there is one).
    pub fn tier(&self) -> ScoreTier {
        ScoreTier::Engine
    }

    /// Whether the receptive-field cache is active.
    pub fn cached(&self) -> bool {
        self.caches.is_some()
    }

    /// Approximate resident size of the receptive-field tables in bytes
    /// (`None` when uncached) — what a serving process reports at
    /// startup as the per-checkpoint memory cost of batched inference.
    pub fn cache_bytes(&self) -> Option<usize> {
        self.caches.as_ref().map(|(m, i)| m.approx_bytes() + i.approx_bytes())
    }

    /// Scores for one case — aligned with `items`, bit-identical to
    /// [`Kgag::score_group_items`].
    pub fn score_case(&self, group: u32, items: &[u32]) -> Vec<f32> {
        self.score_cases(&[(group, items.to_vec())]).pop().unwrap_or_default()
    }

    /// Scores for a batch of `(group, candidate list)` cases. Instances
    /// from different cases are fused into uniform chunks and scored in
    /// parallel; the result is reassembled per case.
    pub fn score_cases(&self, cases: &[(u32, Vec<u32>)]) -> Vec<Vec<f32>> {
        // one member-entity lookup per case, shared by its instances
        let member_ents: Vec<Vec<u32>> =
            cases.iter().map(|&(g, _)| self.model.member_entities(g)).collect();
        score_local(self.model, self.caches.as_ref(), self.batch_instances, &member_ents, cases)
    }
}

/// `KGAG_EVAL_BATCH`, when set to a positive integer.
pub(crate) fn env_batch_instances() -> Option<usize> {
    std::env::var("KGAG_EVAL_BATCH").ok().and_then(|v| v.parse().ok()).filter(|&n| n > 0)
}

/// The one scoring driver: resolve every case to `(case, item entity)`
/// instances, bucket by member count `L` (groups of different sizes
/// cannot share a flattened forward), chunk each bucket for the pool,
/// score each chunk through `score_chunk(flat_members, item_ents, l)`,
/// and reassemble per case.
///
/// `member_ents[ci]` is case `ci`'s member entity list — the caller
/// resolves it (from bound groups or a live [`kgag_data::GroupStore`]).
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

/// [`score_bucketed`] over a model's own tables: the engine behind
/// [`BatchScorer`], [`crate::DynamicScorer`] and
/// [`crate::RegistryModel`], with receptive fields from `caches` or,
/// when there are none, sampled live under the same salts.
pub(crate) fn score_local(
    model: &Kgag,
    caches: Option<&(RfCache, RfCache)>,
    batch_instances: usize,
    member_ents: &[Vec<u32>],
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

impl BatchGroupScorer for BatchScorer<'_> {
    fn score_batch(&self, cases: &[(u32, Vec<u32>)]) -> Vec<Vec<f32>> {
        self.score_cases(cases)
    }
}
