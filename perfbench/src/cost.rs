//! Analytic work per scored candidate, computed from shapes.
//!
//! One candidate of a group with `L` members is one instance of the
//! group forward (`forward_group_prepared` in `kgag::trainer`): the item
//! and each of the `L` members propagate over a fixed-`K`, depth-`H`
//! receptive field (`kgag::propagation`), then SP/PI attention and the
//! read-out combine them (`kgag::attention`). Because `K` is fixed, the
//! node count of every level — and with it the work — follows from
//! `(d, H, K, L)` alone. These are computed figures, not measured ones.
//!
//! FLOPs count one multiply or add as one operation; `exp`, a divide
//! and an activation each count as one. Bytes count the compulsory
//! table traffic of one instance as the engine issues it: every
//! embedding row and relation row it gathers (4·d bytes each, gathers
//! repeated where the engine repeats them) plus the 8 bytes (child id,
//! relation id) per receptive-field edge read from the cache. Dense
//! weights are excluded: they are shared by every instance of a chunk
//! and stay cache-resident.

/// The shapes the cost depends on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shapes {
    /// Embedding width `d`.
    pub dim: u64,
    /// Propagation depth `H`.
    pub depth: u32,
    /// Neighbors per node at inference, `K`.
    pub k: u64,
    /// Members per group, `L`.
    pub group_size: u64,
    /// Peer influence runs (nominal-size roster with the PI term on).
    pub peer_influence: bool,
    /// Residual combination `e⁰ + γ·e^H` is on.
    pub residual: bool,
}

/// Nodes at level `l` of the fields of `targets` targets.
fn level_nodes(s: &Shapes, targets: u64, l: u32) -> u64 {
    targets * s.k.pow(l)
}

/// FLOPs of propagating `targets` targets.
fn propagation_flops(s: &Shapes, targets: u64) -> u64 {
    let (d, h) = (s.dim, s.depth);
    // relation attention per edge: d-term dot (2d), 1/√d scale (1),
    // softmax over siblings (exp, sum, divide: 3)
    let logits: u64 = (1..=h).map(|l| level_nodes(s, targets, l) * (2 * d + 4)).sum();
    // H iterations; iteration i updates levels 0..H-i. Per updated node:
    // weighted sum of its K children (2d per child), e + e_N (d),
    // d×d matmul (2d²), bias (d), activation (d)
    let mut update = 0;
    for i in 0..h {
        for lvl in 0..h - i {
            let parents = level_nodes(s, targets, lvl);
            update += level_nodes(s, targets, lvl + 1) * 2 * d + parents * (2 * d * d + 3 * d);
        }
    }
    let residual = if s.residual { targets * 2 * d } else { 0 };
    logits + update + residual
}

/// Bytes of table traffic for propagating `targets` targets.
fn propagation_bytes(s: &Shapes, targets: u64) -> u64 {
    let row = 4 * s.dim;
    let nodes: u64 = (0..=s.depth).map(|l| level_nodes(s, targets, l)).sum();
    let edges: u64 = (1..=s.depth).map(|l| level_nodes(s, targets, l)).sum();
    // entity rows for every node, relation rows and cache entries per edge
    nodes * row + edges * (row + 8)
}

/// FLOPs of one scored candidate.
pub fn flops_per_candidate(s: &Shapes) -> u64 {
    let (d, l) = (s.dim, s.group_size);
    // the item's query: mean of the members' zero-order rows
    let query = l * d + d;
    let prop = propagation_flops(s, 1) + propagation_flops(s, l);
    // self persistence: scaled dot of member and item (2d + 1)
    let sp = l * (2 * d + 1);
    // peer influence: W₁u (2d²), W₂·peers (2(L−1)d²), add, bias, ReLU
    // (3d), v_cᵀ (2d), scale (1)
    let pi = if s.peer_influence { l * (2 * d * d * l + 5 * d + 1) } else { 0 };
    // α: add SP+PI (only with both), softmax (3 per member), weighted
    // member sum (2d per member); read-out dot (2d) and sigmoid (1)
    let combine = if s.peer_influence { l } else { 0 } + 3 * l + 2 * d * l;
    let readout = 2 * d + 1;
    query + prop + sp + pi + combine + readout
}

/// Bytes of table traffic of one scored candidate.
pub fn bytes_per_candidate(s: &Shapes) -> u64 {
    // the forward's own zero-order gathers (L member rows, 1 item row)
    // come on top of the propagation gathers
    let zero_order = (s.group_size + 1) * 4 * s.dim;
    zero_order + propagation_bytes(s, 1) + propagation_bytes(s, s.group_size)
}

/// Receptive-field draws one candidate needs on the sharded path: the
/// item and each member need `Σ_{l<H} K^l` keyed draws.
pub fn draws_per_candidate(s: &Shapes) -> u64 {
    let per_target: u64 = (0..s.depth).map(|l| s.k.pow(l)).sum();
    (s.group_size + 1) * per_target
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smoke shapes: d = 4, H = 2, K = 2, L = 3, PI and residual on.
    const SMOKE: Shapes =
        Shapes { dim: 4, depth: 2, k: 2, group_size: 3, peer_influence: true, residual: true };

    #[test]
    fn flops_match_a_hand_count_on_the_smoke_shapes() {
        // one target: levels of 1, 2, 4 nodes.
        //   logits: (2 + 4) edges × (2·4 + 4) = 72
        //   iteration 0: level 0 (1 parent, 2 children) 2·8 + 1·(32 + 12) = 60
        //                level 1 (2 parents, 4 children) 4·8 + 2·44 = 120
        //   iteration 1: level 0 again = 60
        //   residual: 2·4 = 8            → 320 per target
        // item side 1 target + member side 3 targets (linear) = 4 · 320 = 1280
        // query: 3·4 + 4 = 16
        // SP: 3 · (8 + 1) = 27
        // PI: 3 · (2·16·3 + 20 + 1) = 3 · 117 = 351
        // combine: 3 + 9 + 24 = 36; read-out: 9
        assert_eq!(flops_per_candidate(&SMOKE), 1280 + 16 + 27 + 351 + 36 + 9);
        let no_pi = Shapes { peer_influence: false, ..SMOKE };
        assert_eq!(flops_per_candidate(&no_pi), 1280 + 16 + 27 + 33 + 9);
        let no_res = Shapes { residual: false, ..SMOKE };
        assert_eq!(flops_per_candidate(&no_res), flops_per_candidate(&SMOKE) - 4 * 8);
    }

    #[test]
    fn bytes_match_a_hand_count_on_the_smoke_shapes() {
        // rows are 16 bytes. One target: 7 nodes → 7 entity rows; 6 edges
        // → 6 relation rows + 6 cache entries of 8 bytes.
        //   7·16 + 6·(16 + 8) = 256 per target, × 4 targets = 1024
        // zero-order gathers: 4 rows = 64
        assert_eq!(bytes_per_candidate(&SMOKE), 1024 + 64);
    }

    #[test]
    fn draws_cover_every_non_leaf_node() {
        // per target: 1 + 2 non-leaf nodes; 4 targets
        assert_eq!(draws_per_candidate(&SMOKE), 12);
    }
}
