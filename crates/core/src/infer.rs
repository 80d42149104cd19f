//! The inference engine (DESIGN.md §14).
//!
//! Every serving path — [`crate::BatchScorer`], [`crate::DynamicScorer`],
//! [`crate::RegistryModel`] and the sharded [`crate::RouterCore`] —
//! scores through [`Engine`]: the ranking forward of §III-C/D
//! (relation attention → H-hop propagation → SP/PI attention →
//! read-out) run on the tape-free kernels of [`kgag_tensor::infer`],
//! with no tape, no backward bookkeeping and no materialised
//! `repeat_rows`/`peer_concat`/`concat_cols` copies.
//!
//! The engine is **bit-identical to the tape forward**
//! ([`Kgag::score_group_items`], which stays the oracle): every output
//! element is accumulated from the same operands in the same order as
//! the tape op it replaces. It reads the model's own entity and
//! relation tensors in place ([`Tables`]); the router hands it compact
//! tables of shard-gathered rows instead, which are bit-copies of the
//! same rows.
//!
//! Two per-candidate costs depend on few distinct values, and the
//! engine pays each once per value instead (both bit-neutral):
//!
//! * **Relation logits.** An edge logit is `(q · r_slot) · (1/√d)`. All
//!   members of an instance share one query (the item), every candidate
//!   of a case shares another (the group mean), and a KG has a handful
//!   of relation slots — so logits are memoized per (query, slot),
//!   filled on first use ([`LogitMemo`]).
//! * **The deepest receptive-field level.** Level `H` holds most of the
//!   rows and is read once, by the first iteration's weighted sum; that
//!   sum reads its rows from the table by id instead of a gathered copy.

use crate::backend::FusedAggregation;
use crate::config::KgagConfig;
use crate::model::ModelParams;
use crate::trainer::Kgag;
use kgag_kg::ReceptiveField;
use kgag_tensor::infer::{self as kernels, Activation};
use kgag_tensor::tensor::sigmoid;
use kgag_tensor::ParamStore;

/// The scoring engine a scorer runs, as reported by its `tier()`.
/// There is exactly one: the tape-free engine of this module.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ScoreTier {
    /// The bit-exact tape-free [`Engine`].
    #[default]
    Engine,
}

impl ScoreTier {
    /// The engine's name in reports and logs.
    pub fn as_str(self) -> &'static str {
        match self {
            ScoreTier::Engine => "engine",
        }
    }
}

/// The two embedding tables the engine gathers from, row-major
/// `[rows, d]`: the model's own parameter tensors, or compact tables of
/// shard-gathered rows with ids remapped to match.
#[derive(Clone, Copy)]
pub(crate) struct Tables<'t> {
    pub(crate) entity: &'t [f32],
    pub(crate) relation: &'t [f32],
}

/// One propagation layer's weights. GraphSage's `[2d, d]` concat matmul
/// is split into its self and neighbor halves so the concatenation is
/// never materialised; GCN-shaped backends have no neighbor half.
struct Layer<'w> {
    w_self: &'w [f32],
    w_neigh: Option<&'w [f32]>,
    bias: &'w [f32],
}

/// The interaction-pattern mixing weights, `[2d, d]` split into the
/// halves multiplying the member and its peer mean.
struct Mixing<'w> {
    w_self: &'w [f32],
    w_peer: &'w [f32],
    bias: &'w [f32],
}

/// The ranking forward over borrowed weights (see the module docs).
pub(crate) struct Engine<'w> {
    dim: usize,
    use_kg: bool,
    use_sp: bool,
    use_pi: bool,
    /// `γ` of the residual combine; 0 disables it.
    residual_weight: f32,
    /// The trained group size the PI tower is shaped for.
    nominal_l: usize,
    /// `1/√d`, the attention temperature of every logit.
    inv_sqrt_d: f32,
    layers: Vec<Layer<'w>>,
    att_w1: &'w [f32],
    att_w2: &'w [f32],
    att_b: &'w [f32],
    att_v: &'w [f32],
    /// `Some` only under [`crate::Backend::InteractionPattern`].
    mixing: Option<Mixing<'w>>,
}

impl Kgag {
    /// The engine over this model's weights.
    pub(crate) fn engine(&self) -> Engine<'_> {
        Engine::new(self.store(), self.params(), self.config(), self.group_size())
    }

    /// This model's embedding tables, read in place.
    pub(crate) fn tables(&self) -> Tables<'_> {
        let p = &self.params().prop;
        Tables {
            entity: self.store().value(p.entity_emb).data(),
            relation: self.store().value(p.relation_emb).data(),
        }
    }
}

impl<'w> Engine<'w> {
    /// Borrow the weights `params` names in `store`. The embedding
    /// tables are not read here: they come with every call.
    pub(crate) fn new(
        store: &'w ParamStore,
        params: &ModelParams,
        config: &KgagConfig,
        nominal_l: usize,
    ) -> Self {
        let d = config.dim;
        let split = config.backend.dispatch().fused_aggregation() == FusedAggregation::SplitConcat;
        let layers = params
            .prop
            .layer_w
            .iter()
            .zip(&params.prop.layer_b)
            .map(|(&w, &b)| {
                let w = store.value(w).data();
                let (w_self, w_neigh) = if split {
                    let (top, bottom) = w.split_at(d * d);
                    (top, Some(bottom))
                } else {
                    (w, None)
                };
                Layer { w_self, w_neigh, bias: store.value(b).data() }
            })
            .collect();
        let mixing = params.interaction.as_ref().map(|ip| {
            let (w_self, w_peer) = store.value(ip.w).data().split_at(d * d);
            Mixing { w_self, w_peer, bias: store.value(ip.b).data() }
        });
        Engine {
            dim: d,
            use_kg: config.use_kg,
            use_sp: config.use_sp,
            use_pi: config.use_pi,
            residual_weight: if config.residual { config.propagation_weight } else { 0.0 },
            nominal_l,
            inv_sqrt_d: 1.0 / (d as f32).sqrt(),
            layers,
            att_w1: store.value(params.att_w1).data(),
            att_w2: store.value(params.att_w2).data(),
            att_b: store.value(params.att_b).data(),
            att_v: store.value(params.att_v).data(),
            mixing,
        }
    }

    /// Scores of one uniform-`l` chunk of `(group, item)` instances:
    /// `flat_members` holds `B·l` member entity ids (instance-major),
    /// `item_ents` the `B` item entity ids, and `fields` their
    /// `(member, item)` receptive fields — `None` under the KGAG-KG
    /// ablation. Per-row pure, so chunk boundaries are value-neutral.
    pub(crate) fn score(
        &self,
        tables: Tables<'_>,
        fields: Option<(&ReceptiveField, &ReceptiveField)>,
        flat_members: &[u32],
        item_ents: &[u32],
        l: usize,
    ) -> Vec<f32> {
        debug_assert_eq!(flat_members.len(), item_ents.len() * l);
        debug_assert_eq!(fields.is_some(), self.use_kg);
        let d = self.dim;
        let mut m0 = Vec::new();
        kernels::gather_into(tables.entity, d, flat_members, &mut m0);
        let mut i0 = Vec::new();
        kernels::gather_into(tables.entity, d, item_ents, &mut i0);
        // §III-C queries: the item propagates under the members' mean
        // zero-order embedding, each member under the item's
        let (member_rep, item_rep) = match fields {
            Some((rf_members, rf_items)) => {
                let mut q_item = Vec::new();
                kernels::group_mean(&m0, d, l, &mut q_item);
                let item_rep = self.propagate(tables, rf_items, &q_item, 1);
                (self.propagate(tables, rf_members, &i0, l), item_rep)
            }
            None => (m0, i0),
        };
        let member_rep = match &self.mixing {
            Some(mixing) if l >= 2 => self.mix(mixing, member_rep, l),
            _ => member_rep,
        };
        self.aggregate_and_score(&member_rep, &item_rep, l)
    }

    /// Propagation (§III-C) of the field's targets; target `t` reads
    /// query row `t / rep`. Relation-attention weights per level, then
    /// the triangular H-iteration update with the bias + activation
    /// epilogue fused into each layer's matmul.
    fn propagate(
        &self,
        tables: Tables<'_>,
        rf: &ReceptiveField,
        query: &[f32],
        rep: usize,
    ) -> Vec<f32> {
        let d = self.dim;
        let (k, depth) = (rf.k, rf.depth);
        let n = rf.entities[0].len();
        debug_assert_eq!(depth, self.layers.len());
        debug_assert_eq!(query.len() * rep, n * d);
        let mut memo = LogitMemo::new(query, d, tables.relation.len() / d);
        let level_weights: Vec<Vec<f32>> = rf
            .relations
            .iter()
            .map(|rels| {
                // a level's edges are target-major, and rep consecutive
                // targets read one query row
                let mut w = Vec::with_capacity(rels.len());
                for (q, edges) in rels.chunks(rels.len() / n * rep).enumerate() {
                    memo.logits_into(q, edges, tables.relation, self.inv_sqrt_d, &mut w);
                }
                kernels::softmax_groups_inplace(&mut w, k);
                w
            })
            .collect();
        // every level but the deepest is rewritten in place; level H is
        // only ever read, by the weighted sum below
        let mut reps: Vec<Vec<f32>> = rf.entities[..depth]
            .iter()
            .map(|level| {
                let mut out = Vec::new();
                kernels::gather_into(tables.entity, d, level, &mut out);
                out
            })
            .collect();
        let e0 = (self.residual_weight > 0.0).then(|| reps[0].clone());
        let (mut e_n, mut sum, mut updated) = (Vec::new(), Vec::new(), Vec::new());
        for (h, layer) in self.layers.iter().enumerate() {
            let act = if h + 1 == depth { Activation::Tanh } else { Activation::Relu };
            for lvl in 0..depth - h {
                let w = &level_weights[lvl];
                if lvl + 1 == depth {
                    let ids = &rf.entities[depth];
                    kernels::group_weighted_sum_rows(w, tables.entity, ids, d, k, &mut e_n);
                } else {
                    kernels::group_weighted_sum(w, &reps[lvl + 1], d, k, &mut e_n);
                }
                let rows = reps[lvl].len() / d;
                match layer.w_neigh {
                    None => {
                        kernels::add_into(&reps[lvl], &e_n, &mut sum);
                        kernels::matmul_bias_act(
                            &sum,
                            rows,
                            d,
                            layer.w_self,
                            d,
                            layer.bias,
                            act,
                            &mut updated,
                        );
                    }
                    Some(w_neigh) => kernels::matmul2_bias_act(
                        &reps[lvl],
                        &e_n,
                        rows,
                        d,
                        layer.w_self,
                        w_neigh,
                        d,
                        layer.bias,
                        act,
                        &mut updated,
                    ),
                }
                std::mem::swap(&mut reps[lvl], &mut updated);
            }
        }
        let mut out = reps.swap_remove(0);
        if let Some(e0) = e0 {
            kernels::residual_inplace(&e0, self.residual_weight, &mut out);
        }
        out
    }

    /// The interaction-pattern member mixing, in the tape's op order:
    /// `mean = group_mean(m)`, `peer = mean·(l/(l−1)) + m·(−1/(l−1))`,
    /// `mix = tanh([m ‖ peer] W + b)`, `m' = m + mix`.
    fn mix(&self, mixing: &Mixing<'_>, m: Vec<f32>, l: usize) -> Vec<f32> {
        let d = self.dim;
        let mut mean = Vec::new();
        kernels::group_mean(&m, d, l, &mut mean);
        let lf = l as f32;
        let (s_mean, s_self) = (lf / (lf - 1.0), -1.0 / (lf - 1.0));
        let peer: Vec<f32> = m
            .iter()
            .enumerate()
            .map(|(i, &x)| mean[(i / (d * l)) * d + i % d] * s_mean + x * s_self)
            .collect();
        let mut mix = Vec::new();
        kernels::matmul2_bias_act(
            &m,
            &peer,
            m.len() / d,
            d,
            mixing.w_self,
            mixing.w_peer,
            d,
            mixing.bias,
            Activation::Tanh,
            &mut mix,
        );
        m.iter().zip(&mix).map(|(&x, &y)| x + y).collect()
    }

    /// Preference aggregation (§III-D) and the sigmoid read-out.
    fn aggregate_and_score(&self, member_rep: &[f32], item_rep: &[f32], l: usize) -> Vec<f32> {
        let d = self.dim;
        let b = item_rep.len() / d;
        let sp = self.use_sp.then(|| {
            let mut sp = Vec::new();
            kernels::row_dot_rep_scaled(member_rep, item_rep, d, l, self.inv_sqrt_d, &mut sp);
            sp
        });
        // the PI tower is shape-tied to the trained size; off-nominal
        // rosters score SP-only, exactly like the tape
        let pi = (self.use_pi && l == self.nominal_l && l >= 2).then(|| {
            let member = |g: usize, m: usize| &member_rep[(g * l + m) * d..(g * l + m + 1) * d];
            let (mut h1, mut h2) = (vec![0.0f32; d], vec![0.0f32; d]);
            let mut pi = Vec::with_capacity(b * l);
            for g in 0..b {
                for j in 0..l {
                    // the tape runs m·W₁ and peers·W₂ as two matmuls and
                    // adds them after, so they keep separate accumulators
                    h1.fill(0.0);
                    h2.fill(0.0);
                    kernels::accumulate_row(member(g, j), self.att_w1, d, &mut h1);
                    // peer slot q holds the q-th other member in
                    // ascending order — W₂'s d×d block q multiplies it
                    for q in 0..l - 1 {
                        let p = if q < j { q } else { q + 1 };
                        let w2 = &self.att_w2[q * d * d..(q + 1) * d * d];
                        kernels::accumulate_row(member(g, p), w2, d, &mut h2);
                    }
                    let mut raw = 0.0f32;
                    for c in 0..d {
                        let act = ((h1[c] + h2[c]) + self.att_b[c]).max(0.0);
                        if act != 0.0 {
                            raw += act * self.att_v[c];
                        }
                    }
                    pi.push(raw * self.inv_sqrt_d);
                }
            }
            pi
        });
        let mut alpha = match (sp, pi) {
            (Some(mut s), Some(p)) => {
                for (a, b) in s.iter_mut().zip(&p) {
                    *a += b;
                }
                s
            }
            (Some(s), None) => s,
            (None, Some(p)) => p,
            (None, None) => vec![0.0; b * l], // uniform fallback
        };
        kernels::softmax_groups_inplace(&mut alpha, l);
        let mut group_rep = Vec::new();
        kernels::group_weighted_sum(&alpha, member_rep, d, l, &mut group_rep);
        group_rep
            .chunks(d)
            .zip(item_rep.chunks(d))
            .map(|(g, i)| sigmoid(kernels::dot_f32(g, i)))
            .collect()
    }
}

/// Memo entries above which a propagation computes its logits directly
/// (a KG with very many relation slots would otherwise allocate a
/// table far larger than the edges it serves).
const MEMO_MAX_ENTRIES: usize = 1 << 16;

/// Relation-attention logits `(q · r_slot) · (1/√d)` memoized per
/// (query, relation slot) and filled on first use, so a propagation
/// computes at most one dot per distinct pair — never more than one per
/// edge. Consecutive bitwise-equal query rows (every candidate of one
/// case shares its group mean) share one memo row. A cached logit is the
/// very value the dot would recompute, so the memo is bit-neutral.
struct LogitMemo<'q> {
    query: &'q [f32],
    dim: usize,
    slots: usize,
    /// Memo row of each query row.
    row_of: Vec<u32>,
    /// `rows × slots` logits, NaN where not yet computed; empty when the
    /// table would exceed [`MEMO_MAX_ENTRIES`].
    logits: Vec<f32>,
}

impl<'q> LogitMemo<'q> {
    fn new(query: &'q [f32], dim: usize, slots: usize) -> Self {
        let rows: Vec<&[f32]> = query.chunks(dim).collect();
        let mut row_of = Vec::with_capacity(rows.len());
        let mut distinct = 0u32;
        for (i, q) in rows.iter().enumerate() {
            let same = i > 0 && q.iter().zip(rows[i - 1]).all(|(a, b)| a.to_bits() == b.to_bits());
            if !same {
                distinct += 1;
            }
            row_of.push(distinct - 1);
        }
        let entries = distinct as usize * slots;
        let logits = if entries <= MEMO_MAX_ENTRIES { vec![f32::NAN; entries] } else { Vec::new() };
        LogitMemo { query, dim, slots, row_of, logits }
    }

    /// Append the logits of query row `q` against each relation slot in
    /// `slots` to `out`.
    fn logits_into(
        &mut self,
        q: usize,
        slots: &[u32],
        relation: &[f32],
        inv_sqrt_d: f32,
        out: &mut Vec<f32>,
    ) {
        let d = self.dim;
        let query = &self.query[q * d..(q + 1) * d];
        let logit =
            |slot: u32| kernels::dot_f32(kernels::row(relation, d, slot), query) * inv_sqrt_d;
        if self.logits.is_empty() {
            out.extend(slots.iter().map(|&slot| logit(slot)));
            return;
        }
        let memo = &mut self.logits[self.row_of[q] as usize * self.slots..][..self.slots];
        for &slot in slots {
            let cached = &mut memo[slot as usize];
            if cached.is_nan() {
                *cached = logit(slot);
            }
            out.push(*cached);
        }
    }
}
