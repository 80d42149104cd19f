//! Property suites for the tape-free inference kernels
//! (`kgag_tensor::infer`, DESIGN.md §14).
//!
//! Two kinds of check. Kernels that replace a tape op one-for-one are
//! compared against that op **bit for bit** on random inputs — the
//! inference engine's tape equality rests on them. Every kernel is also
//! compared against a naive f64 evaluation of the same expression. That
//! bound is *relative*: for a reduction of length `n` over values
//! bounded by `m`, the accumulated f32 rounding error is at most a
//! small multiple of `n · m² · ε`, so every assertion scales its
//! tolerance by the reduction length and the operand magnitude instead
//! of hard-coding an absolute epsilon that would go stale when test
//! ranges change.

use kgag_tensor::infer::{
    add_into, gather_into, group_mean, group_weighted_sum, group_weighted_sum_rows,
    matmul2_bias_act, matmul_bias_act, residual_inplace, row_dot_rep_scaled,
    softmax_groups_inplace, Activation,
};
use kgag_tensor::rng::SplitMix64;
use kgag_tensor::{ParamStore, Tape, Tensor};
use kgag_testkit::check::Runner;
use kgag_testkit::gen::{u64_in, usize_in};
use kgag_testkit::{prop_assert, prop_assert_eq};

/// Per-element relative-error bound for a length-`n` f32 reduction over
/// operands of magnitude ≤ `scale`.
fn tol(n: usize, scale: f64) -> f64 {
    // n·ε for the summation + a couple of ulps for the products; the
    // constant is generous but still catches any wrong-index or
    // wrong-order bug (those produce O(scale) errors, not O(n·ε))
    (n as f64 + 8.0) * (f32::EPSILON as f64) * scale.max(1.0) * 4.0
}

fn rand_vec(rng: &mut SplitMix64, n: usize, lo: f32, hi: f32) -> Vec<f32> {
    (0..n).map(|_| lo + (hi - lo) * rng.next_f32()).collect()
}

/// The grouped kernels reproduce the tape's grouped ops bit for bit,
/// and the by-id weighted sum equals the gathered one.
#[test]
fn grouped_kernels_equal_tape_ops_bitwise() {
    let gen = (usize_in(1..12), usize_in(1..9), usize_in(1..20), u64_in(0..u64::MAX));
    Runner::new("infer-grouped-vs-tape").cases(96).run(&gen, |&(n, group, dim, seed)| {
        let mut rng = SplitMix64::new(seed);
        let rows = n * group;
        let table = rand_vec(&mut rng, (rows + 3) * dim, -2.0, 2.0);
        let ids: Vec<u32> =
            (0..rows).map(|_| (rng.next_u64() % (rows as u64 + 3)) as u32).collect();
        // some weights exactly zero, to exercise the shared zero-skip
        let weights: Vec<f32> = (0..rows)
            .map(|_| if rng.next_u64() % 4 == 0 { 0.0 } else { rng.next_f32() - 0.5 })
            .collect();
        let mut values = Vec::new();
        gather_into(&table, dim, &ids, &mut values);

        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let v = tape.constant(Tensor::from_vec(rows, dim, values.clone()));
        let w = tape.constant(Tensor::from_vec(rows, 1, weights.clone()));
        let mean = tape.group_mean(v, group);
        let wsum = tape.group_weighted_sum(w, v, group);

        let (mut got_mean, mut got_wsum, mut got_rows) = (Vec::new(), Vec::new(), Vec::new());
        group_mean(&values, dim, group, &mut got_mean);
        group_weighted_sum(&weights, &values, dim, group, &mut got_wsum);
        group_weighted_sum_rows(&weights, &table, &ids, dim, group, &mut got_rows);
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&got_mean), bits(tape.value(mean).data()), "group_mean");
        prop_assert_eq!(bits(&got_wsum), bits(tape.value(wsum).data()), "group_weighted_sum");
        prop_assert_eq!(bits(&got_rows), bits(&got_wsum), "by-id weighted sum");
        Ok(())
    });
}

#[test]
fn group_weighted_sum_matches_f64_reference() {
    let gen = (usize_in(1..20), usize_in(1..8), usize_in(1..24), u64_in(0..u64::MAX));
    Runner::new("infer-group-weighted-sum-vs-f64").cases(96).run(&gen, |&(n, group, dim, seed)| {
        let mut rng = SplitMix64::new(seed);
        let weights = rand_vec(&mut rng, n * group, -1.5, 1.5);
        let values = rand_vec(&mut rng, n * group * dim, -2.0, 2.0);
        let mut out = Vec::new();
        group_weighted_sum(&weights, &values, dim, group, &mut out);
        for g in 0..n {
            for c in 0..dim {
                let want: f64 = (0..group)
                    .map(|k| {
                        weights[g * group + k] as f64 * values[(g * group + k) * dim + c] as f64
                    })
                    .sum();
                let got = out[g * dim + c] as f64;
                prop_assert!(
                    (got - want).abs() <= tol(group, 3.0),
                    "block {g} col {c}: got {got}, want {want}"
                );
            }
        }
        Ok(())
    });
}

#[test]
fn group_mean_matches_f64_reference() {
    let gen = (usize_in(1..20), usize_in(1..8), usize_in(1..24), u64_in(0..u64::MAX));
    Runner::new("infer-group-mean-vs-f64").cases(96).run(&gen, |&(n, group, dim, seed)| {
        let mut rng = SplitMix64::new(seed);
        let values = rand_vec(&mut rng, n * group * dim, -3.0, 3.0);
        let mut out = Vec::new();
        group_mean(&values, dim, group, &mut out);
        for g in 0..n {
            for c in 0..dim {
                let want: f64 =
                    (0..group).map(|k| values[(g * group + k) * dim + c] as f64).sum::<f64>()
                        / group as f64;
                let got = out[g * dim + c] as f64;
                prop_assert!(
                    (got - want).abs() <= tol(group, 3.0),
                    "block {g} col {c}: got {got}, want {want}"
                );
            }
        }
        Ok(())
    });
}

#[test]
fn softmax_groups_matches_f64_reference() {
    let gen = (usize_in(1..30), usize_in(1..9), u64_in(0..u64::MAX));
    Runner::new("infer-softmax-groups-vs-f64").cases(96).run(&gen, |&(n, group, seed)| {
        let mut rng = SplitMix64::new(seed);
        let src = rand_vec(&mut rng, n * group, -20.0, 20.0);
        let mut xs = src.clone();
        softmax_groups_inplace(&mut xs, group);
        for g in 0..n {
            let block = &src[g * group..(g + 1) * group];
            let max = block.iter().cloned().fold(f32::NEG_INFINITY, f32::max) as f64;
            let exps: Vec<f64> = block.iter().map(|&x| (x as f64 - max).exp()).collect();
            let sum: f64 = exps.iter().sum();
            let mut total = 0.0f64;
            for (k, &e) in exps.iter().enumerate() {
                let got = xs[g * group + k] as f64;
                let want = e / sum;
                prop_assert!(
                    (got - want).abs() <= tol(group, 1.0),
                    "block {g} slot {k}: got {got}, want {want}"
                );
                total += got;
            }
            prop_assert!((total - 1.0).abs() < 1e-5, "block {g} sums to {total}");
        }
        Ok(())
    });
}

#[test]
fn matmul_bias_act_matches_f64_reference() {
    let gen =
        (usize_in(1..16), usize_in(1..24), usize_in(1..24), usize_in(0..3), u64_in(0..u64::MAX));
    Runner::new("infer-matmul-bias-act-vs-f64").cases(96).run(
        &gen,
        |&(rows, d_in, d_out, act_idx, seed)| {
            let act = [Activation::None, Activation::Relu, Activation::Tanh][act_idx];
            let mut rng = SplitMix64::new(seed);
            let a = rand_vec(&mut rng, rows * d_in, -1.5, 1.5);
            let w = rand_vec(&mut rng, d_in * d_out, -1.5, 1.5);
            let bias = rand_vec(&mut rng, d_out, -1.0, 1.0);
            let mut out = Vec::new();
            matmul_bias_act(&a, rows, d_in, &w, d_out, &bias, act, &mut out);
            for i in 0..rows {
                for j in 0..d_out {
                    let pre: f64 = (0..d_in)
                        .map(|k| a[i * d_in + k] as f64 * w[k * d_out + j] as f64)
                        .sum::<f64>()
                        + bias[j] as f64;
                    let want = match act {
                        Activation::None => pre,
                        Activation::Relu => pre.max(0.0),
                        Activation::Tanh => pre.tanh(),
                    };
                    let got = out[i * d_out + j] as f64;
                    prop_assert!(
                        (got - want).abs() <= tol(d_in, 3.0),
                        "[{i},{j}] act {act:?}: got {got}, want {want}"
                    );
                }
            }
            Ok(())
        },
    );
}

#[test]
fn matmul2_matches_f64_concat_reference() {
    let gen = (usize_in(1..12), usize_in(1..20), usize_in(1..20), u64_in(0..u64::MAX));
    Runner::new("infer-split-matmul-vs-f64").cases(96).run(&gen, |&(rows, d_in, d_out, seed)| {
        let mut rng = SplitMix64::new(seed);
        let a = rand_vec(&mut rng, rows * d_in, -1.5, 1.5);
        let b = rand_vec(&mut rng, rows * d_in, -1.5, 1.5);
        let w_a = rand_vec(&mut rng, d_in * d_out, -1.5, 1.5);
        let w_b = rand_vec(&mut rng, d_in * d_out, -1.5, 1.5);
        let bias = rand_vec(&mut rng, d_out, -1.0, 1.0);
        let mut out = Vec::new();
        matmul2_bias_act(&a, &b, rows, d_in, &w_a, &w_b, d_out, &bias, Activation::Relu, &mut out);
        for i in 0..rows {
            for j in 0..d_out {
                let pre: f64 = (0..d_in)
                    .map(|k| a[i * d_in + k] as f64 * w_a[k * d_out + j] as f64)
                    .chain((0..d_in).map(|k| b[i * d_in + k] as f64 * w_b[k * d_out + j] as f64))
                    .sum::<f64>()
                    + bias[j] as f64;
                let want = pre.max(0.0);
                let got = out[i * d_out + j] as f64;
                prop_assert!(
                    (got - want).abs() <= tol(2 * d_in, 3.0),
                    "[{i},{j}]: got {got}, want {want}"
                );
            }
        }
        Ok(())
    });
}

#[test]
fn row_dot_and_residual_match_f64_reference() {
    let gen = (usize_in(1..20), usize_in(1..24), usize_in(1..5), u64_in(0..u64::MAX));
    Runner::new("infer-row-dot-residual-vs-f64").cases(96).run(&gen, |&(n_b, dim, rep, seed)| {
        let mut rng = SplitMix64::new(seed);
        let n = n_b * rep;
        let a = rand_vec(&mut rng, n * dim, -2.0, 2.0);
        let b = rand_vec(&mut rng, n_b * dim, -2.0, 2.0);
        let scale = 0.25f32;
        let mut out = Vec::new();
        row_dot_rep_scaled(&a, &b, dim, rep, scale, &mut out);
        for i in 0..n {
            let want: f64 = (0..dim)
                .map(|c| a[i * dim + c] as f64 * b[(i / rep) * dim + c] as f64)
                .sum::<f64>()
                * scale as f64;
            prop_assert!(
                (out[i] as f64 - want).abs() <= tol(dim, 4.0),
                "row {i}: got {}, want {want}",
                out[i]
            );
        }
        // residual combine: acc = e0 + gamma * acc, elementwise
        let e0 = rand_vec(&mut rng, n_b * dim, -2.0, 2.0);
        let mut acc = b.clone();
        residual_inplace(&e0, 0.5, &mut acc);
        for i in 0..n_b * dim {
            let want = e0[i] as f64 + 0.5 * b[i] as f64;
            prop_assert!(
                (acc[i] as f64 - want).abs() <= tol(1, 2.0),
                "residual {i}: got {}, want {want}",
                acc[i]
            );
        }
        // add_into is exact per element (single f32 add)
        let mut sum = Vec::new();
        add_into(&e0, &b, &mut sum);
        for i in 0..n_b * dim {
            prop_assert_eq!(sum[i], e0[i] + b[i], "add_into {i}");
        }
        Ok(())
    });
}
