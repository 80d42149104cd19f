//! Tape-free inference kernels.
//!
//! The tape engine ([`crate::Tape`]) materialises every op's output and
//! records backward bookkeeping — what training needs. A ranking
//! forward is a pure gather → propagate → dot pipeline, so serving runs
//! these kernels instead: the same math with no tape, no intermediate
//! tensors and no materialised `repeat_rows`/`peer_concat`/`concat_cols`
//! copies.
//!
//! Every kernel is **bit-identical to the tape op it replaces**: each
//! output element is accumulated from the same operands in the same
//! order, zero-skips included (DESIGN.md §14). Two properties follow,
//! and the property suite in `tests/infer_props.rs` enforces them:
//!
//! * **Per-row purity.** Every kernel computes output row `i` from its
//!   own input rows only, so chunking a batch across the pool is
//!   value-neutral (DESIGN.md §11).
//! * **Tape equality.** Where a kernel fuses several tape ops (bias and
//!   activation epilogues, split concat matmuls, by-id row reads), the
//!   fusion only skips copies; it never reorders a sum.
//!
//! Tables are read in place: a `[rows, dim]` row-major `&[f32]` — the
//! model's own parameter tensor, or a compact table of gathered rows.

use crate::tensor::softmax_inplace;

/// Row `r` of a row-major `[rows, dim]` table.
#[inline]
pub fn row(table: &[f32], dim: usize, r: u32) -> &[f32] {
    let r = r as usize;
    &table[r * dim..(r + 1) * dim]
}

/// Gather `ids` of a row-major table into a dense `[ids.len(), dim]`
/// buffer (cleared and refilled — callers reuse the allocation).
pub fn gather_into(table: &[f32], dim: usize, ids: &[u32], out: &mut Vec<f32>) {
    out.clear();
    out.reserve(ids.len() * dim);
    for &id in ids {
        out.extend_from_slice(row(table, dim, id));
    }
}

/// In-place softmax over consecutive `group`-sized blocks — the same
/// per-block routine the tape uses, applied without the output clone.
pub fn softmax_groups_inplace(xs: &mut [f32], group: usize) {
    assert!(group > 0, "group must be positive");
    assert_eq!(xs.len() % group, 0, "length must be a multiple of group");
    for block in xs.chunks_mut(group) {
        softmax_inplace(block);
    }
}

/// The shared body of the weighted sums: `out.row(g) = Σ_k w[g·group +
/// k] · value(g·group + k)`, zero weights skipping their row exactly as
/// the tape's `group_weighted_sum` does (a pruned row must not inject
/// NaN·0).
fn weighted_sum_by<'v>(
    weights: &[f32],
    dim: usize,
    group: usize,
    value: impl Fn(usize) -> &'v [f32],
    out: &mut Vec<f32>,
) {
    assert!(group > 0, "group must be positive");
    assert_eq!(weights.len() % group, 0, "weights must be a multiple of group");
    let n = weights.len() / group;
    out.clear();
    out.resize(n * dim, 0.0);
    for g in 0..n {
        let acc = &mut out[g * dim..(g + 1) * dim];
        for k in 0..group {
            let w = weights[g * group + k];
            if w == 0.0 {
                continue;
            }
            for (o, &v) in acc.iter_mut().zip(value(g * group + k)) {
                *o += w * v;
            }
        }
    }
}

/// Per-block weighted sum over dense `[n·group, dim]` values.
pub fn group_weighted_sum(
    weights: &[f32],
    values: &[f32],
    dim: usize,
    group: usize,
    out: &mut Vec<f32>,
) {
    assert_eq!(values.len(), weights.len() * dim, "values rows must match weights");
    weighted_sum_by(weights, dim, group, |i| &values[i * dim..(i + 1) * dim], out);
}

/// [`group_weighted_sum`] over rows read from `table` by id
/// (`ids[i]` supplies value row `i`) — bit-identical to gathering the
/// rows first, without the copy.
pub fn group_weighted_sum_rows(
    weights: &[f32],
    table: &[f32],
    ids: &[u32],
    dim: usize,
    group: usize,
    out: &mut Vec<f32>,
) {
    assert_eq!(ids.len(), weights.len(), "one id per weight");
    weighted_sum_by(weights, dim, group, |i| row(table, dim, ids[i]), out);
}

/// Per-block mean of dense `[n·group, dim]` values:
/// `out.row(g) = Σ_k values.row(g·group + k) · (1/group)`, each term
/// scaled before it is added — the tape's `group_mean` order.
pub fn group_mean(values: &[f32], dim: usize, group: usize, out: &mut Vec<f32>) {
    assert!(group > 0, "group must be positive");
    assert_eq!(values.len() % (group * dim), 0, "values must be whole blocks");
    let n = values.len() / (group * dim);
    let inv = 1.0 / group as f32;
    out.clear();
    out.resize(n * dim, 0.0);
    for g in 0..n {
        let acc = &mut out[g * dim..(g + 1) * dim];
        for k in 0..group {
            let row = &values[(g * group + k) * dim..(g * group + k + 1) * dim];
            for (o, &v) in acc.iter_mut().zip(row) {
                *o += v * inv;
            }
        }
    }
}

/// Epilogue activation of a fused matmul.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// Identity — bias only.
    None,
    /// `max(0, x)` (hidden propagation layers).
    Relu,
    /// `tanh(x)` (the last propagation layer, interaction mixing).
    Tanh,
}

#[inline]
fn activate(x: f32, act: Activation) -> f32 {
    match act {
        Activation::None => x,
        Activation::Relu => x.max(0.0),
        Activation::Tanh => x.tanh(),
    }
}

/// Fused `out = act(a · w + bias)` for dense row-major `a
/// [rows, d_in]`, `w [d_in, d_out]`, `bias [d_out]`. Same i-k-j loop
/// order (and zero-skip) as the tape matmul, with the bias-add and
/// activation folded into the row epilogue instead of three extra
/// tensor passes. Each output row reads only its own `a` row.
#[allow(clippy::too_many_arguments)]
pub fn matmul_bias_act(
    a: &[f32],
    rows: usize,
    d_in: usize,
    w: &[f32],
    d_out: usize,
    bias: &[f32],
    act: Activation,
    out: &mut Vec<f32>,
) {
    assert_eq!(a.len(), rows * d_in, "lhs length must be rows x d_in");
    assert_eq!(w.len(), d_in * d_out, "weight length must be d_in x d_out");
    assert_eq!(bias.len(), d_out, "bias length must be d_out");
    out.clear();
    out.resize(rows * d_out, 0.0);
    for i in 0..rows {
        let out_row = &mut out[i * d_out..(i + 1) * d_out];
        accumulate_row(&a[i * d_in..(i + 1) * d_in], w, d_out, out_row);
        for (o, &b) in out_row.iter_mut().zip(bias) {
            *o = activate(*o + b, act);
        }
    }
}

/// Fused split form of a concat matmul:
/// `out = act(a · w_a + b · w_b + bias)` ≡
/// `act(CONCAT(a, b) · [w_a; w_b] + bias)` without materialising the
/// `[rows, 2·d_in]` concatenation. Both halves accumulate into one
/// row, `w_a` products first — the concatenated dot's element order.
#[allow(clippy::too_many_arguments)]
pub fn matmul2_bias_act(
    a: &[f32],
    b: &[f32],
    rows: usize,
    d_in: usize,
    w_a: &[f32],
    w_b: &[f32],
    d_out: usize,
    bias: &[f32],
    act: Activation,
    out: &mut Vec<f32>,
) {
    assert_eq!(a.len(), rows * d_in, "lhs a length must be rows x d_in");
    assert_eq!(b.len(), rows * d_in, "lhs b length must be rows x d_in");
    assert_eq!(w_a.len(), d_in * d_out, "w_a length must be d_in x d_out");
    assert_eq!(w_b.len(), d_in * d_out, "w_b length must be d_in x d_out");
    assert_eq!(bias.len(), d_out, "bias length must be d_out");
    out.clear();
    out.resize(rows * d_out, 0.0);
    for i in 0..rows {
        let out_row = &mut out[i * d_out..(i + 1) * d_out];
        accumulate_row(&a[i * d_in..(i + 1) * d_in], w_a, d_out, out_row);
        accumulate_row(&b[i * d_in..(i + 1) * d_in], w_b, d_out, out_row);
        for (o, &bb) in out_row.iter_mut().zip(bias) {
            *o = activate(*o + bb, act);
        }
    }
}

/// `out_row += a_row · w` — the tape matmul's i-k-j inner kernel,
/// zero-skip included (dropping it could turn a +0.0 sum into -0.0).
#[inline]
pub fn accumulate_row(a_row: &[f32], w: &[f32], d_out: usize, out_row: &mut [f32]) {
    debug_assert_eq!(w.len(), a_row.len() * d_out);
    debug_assert_eq!(out_row.len(), d_out);
    for (kk, &x) in a_row.iter().enumerate() {
        if x == 0.0 {
            continue;
        }
        let w_row = &w[kk * d_out..(kk + 1) * d_out];
        for (o, &wv) in out_row.iter_mut().zip(w_row) {
            *o += x * wv;
        }
    }
}

/// Elementwise `out = a + b` over equal-length buffers.
pub fn add_into(a: &[f32], b: &[f32], out: &mut Vec<f32>) {
    assert_eq!(a.len(), b.len(), "operand lengths must match");
    out.clear();
    out.extend(a.iter().zip(b).map(|(&x, &y)| x + y));
}

/// Residual combine in place: `acc[i] = e0[i] + gamma · acc[i]`.
pub fn residual_inplace(e0: &[f32], gamma: f32, acc: &mut [f32]) {
    assert_eq!(e0.len(), acc.len(), "operand lengths must match");
    for (a, &e) in acc.iter_mut().zip(e0) {
        *a = e + gamma * *a;
    }
}

/// Row-wise dot of two dense `[n, dim]` buffers, scaled:
/// `out[i] = scale · (a.row(i) · b.row(i / rep))` — `rep > 1` folds the
/// tape's `repeat_rows(b)` into the index instead of a copy.
pub fn row_dot_rep_scaled(
    a: &[f32],
    b: &[f32],
    dim: usize,
    rep: usize,
    scale: f32,
    out: &mut Vec<f32>,
) {
    assert!(rep > 0, "repeat factor must be positive");
    assert_eq!(a.len() % dim, 0, "a must be whole rows");
    let n = a.len() / dim;
    assert_eq!(n % rep, 0, "rows must be a whole number of repeats");
    assert_eq!(b.len(), n / rep * dim, "b rows must be a / rep");
    out.clear();
    out.reserve(n);
    for i in 0..n {
        let ar = &a[i * dim..(i + 1) * dim];
        let br = &b[(i / rep) * dim..(i / rep + 1) * dim];
        out.push(scale * dot_f32(ar, br));
    }
}

/// Sequential f32 dot — identical element order to the tape's
/// `row_dot`/`gather_row_dot`.
#[inline]
pub fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_sum_by_id_equals_gathered() {
        let table: Vec<f32> = (0..12).map(|i| i as f32 * 0.37 - 1.0).collect();
        let ids = [2u32, 0, 3, 3];
        let weights = [0.25, 0.0, 0.5, -1.5];
        let mut gathered = Vec::new();
        gather_into(&table, 3, &ids, &mut gathered);
        let (mut dense, mut by_id) = (Vec::new(), Vec::new());
        group_weighted_sum(&weights, &gathered, 3, 2, &mut dense);
        group_weighted_sum_rows(&weights, &table, &ids, 3, 2, &mut by_id);
        assert_eq!(dense, by_id);
    }

    #[test]
    fn matmul2_matches_concat_matmul() {
        let (rows, d) = (2, 3);
        let a: Vec<f32> = (0..rows * d).map(|i| i as f32 * 0.25).collect();
        let b: Vec<f32> = (0..rows * d).map(|i| 1.0 - i as f32 * 0.125).collect();
        let w_a: Vec<f32> = (0..d * d).map(|i| (i as f32 - 4.0) * 0.1).collect();
        let w_b: Vec<f32> = (0..d * d).map(|i| (i as f32) * 0.05).collect();
        let bias = [0.1, -0.2, 0.3];
        let mut fused = Vec::new();
        matmul2_bias_act(&a, &b, rows, d, &w_a, &w_b, d, &bias, Activation::None, &mut fused);
        // reference: concat then one matmul
        let mut cat = Vec::new();
        for i in 0..rows {
            cat.extend_from_slice(&a[i * d..(i + 1) * d]);
            cat.extend_from_slice(&b[i * d..(i + 1) * d]);
        }
        let mut w = w_a.clone();
        w.extend_from_slice(&w_b);
        let mut reference = Vec::new();
        matmul_bias_act(&cat, rows, 2 * d, &w, d, &bias, Activation::None, &mut reference);
        assert_eq!(fused, reference);
    }
}
