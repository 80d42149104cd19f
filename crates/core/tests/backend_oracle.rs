//! Oracle suite for the pluggable propagation backends (DESIGN.md §17).
//!
//! Every backend — the paper's GCN/GraphSage pair and the two
//! extensions (KGNN-LS label smoothness, interaction-pattern member
//! mixing) — must honour the repo-wide determinism contract: scoring is
//! bit-identical to itself across the RF-cache × chunk-size ×
//! thread-count matrix, and per-case scoring equals batched scoring
//! bit for bit. On top of that the suite pins the backend-specific
//! claims:
//!
//! * KGNN-LS is a *training-time* regulariser — at `ls_weight = 0` (or
//!   untrained) it is indistinguishable from GCN to the bit, and at
//!   `ls_weight > 0` it genuinely moves the parameters.
//! * Checkpoints carry the backend tag: same-backend restores are
//!   bit-neutral, cross-backend restores fail typed.
//! * The served engine reproduces the tape forward bit for bit for the
//!   two extension backends too: KGNN-LS on the GCN kernels,
//!   interaction-pattern through its fused member-mixing step.
//!
//! The `backend` CI stage runs this file at `KGAG_THREADS` 1 and 4.

use kgag::{Backend, Kgag, KgagConfig, Scorer};
use kgag_data::movielens::Scale;
use kgag_data::split::split_dataset;
use kgag_data::yelp::{yelp, YelpConfig};
use kgag_data::GroupDataset;
use kgag_tensor::checkpoint::CheckpointError;
use kgag_tensor::pool::with_threads;

fn smoke_config(backend: Backend) -> KgagConfig {
    KgagConfig { epochs: 2, backend, ..Default::default() }
}

fn trained(config: KgagConfig) -> (GroupDataset, Kgag) {
    let ds = yelp(&YelpConfig::at_scale(Scale::Tiny));
    let split = split_dataset(&ds, 11);
    let mut model = Kgag::new(&ds, &split, config);
    with_threads(1, || model.fit(&split));
    (ds, model)
}

fn untrained(config: KgagConfig) -> (GroupDataset, Kgag) {
    let ds = yelp(&YelpConfig::at_scale(Scale::Tiny));
    let split = split_dataset(&ds, 11);
    let model = Kgag::new(&ds, &split, config);
    (ds, model)
}

fn smoke_cases(ds: &GroupDataset, groups: u32) -> Vec<(u32, Vec<u32>)> {
    let items: Vec<u32> = (0..ds.num_items).collect();
    (0..ds.num_groups().min(groups)).map(|g| (g, items.clone())).collect()
}

fn bits(scores: &[Vec<f32>]) -> Vec<Vec<u32>> {
    scores.iter().map(|r| r.iter().map(|s| s.to_bits()).collect()).collect()
}

/// Served scores for `cases` under one knob setting.
fn served_scores(
    model: &Kgag,
    cases: &[(u32, Vec<u32>)],
    cache: bool,
    chunk: usize,
    threads: usize,
) -> Vec<Vec<f32>> {
    with_threads(threads, || {
        Scorer::new(model, cache).with_batch_instances(chunk).score_cases(cases)
    })
}

/// Every backend's exact-tier scoring is bit-identical to itself across
/// the cache × chunk × threads matrix, and batched scoring equals
/// scoring each case alone — the same batched-oracle guarantee the
/// seed backends carry, extended to the new ones.
#[test]
fn every_backend_is_self_identical_across_cache_chunk_threads() {
    for backend in Backend::all() {
        let (ds, model) = trained(smoke_config(backend));
        let cases = smoke_cases(&ds, 4);
        let reference = bits(&served_scores(&model, &cases, true, 256, 2));
        // per-case == batched, bit for bit
        for (ci, case) in cases.iter().enumerate() {
            let solo = bits(&served_scores(&model, std::slice::from_ref(case), true, 256, 2));
            assert_eq!(
                solo[0],
                reference[ci],
                "{}: case {ci} scored alone diverged from the batch",
                backend.tag()
            );
        }
        for cache in [false, true] {
            for chunk in [1usize, 7, 256] {
                for threads in [1usize, 4] {
                    let got = bits(&served_scores(&model, &cases, cache, chunk, threads));
                    assert_eq!(
                        got,
                        reference,
                        "{}: cache={cache} chunk={chunk} threads={threads} diverged",
                        backend.tag()
                    );
                }
            }
        }
    }
}

/// KGNN-LS differs from GCN only in its training loss: before any
/// training step the two backends are the same function, bit for bit.
#[test]
fn untrained_kgnn_ls_scores_like_untrained_gcn() {
    let (ds, gcn) = untrained(smoke_config(Backend::Gcn));
    let (_, ls) = untrained(smoke_config(Backend::KgnnLs));
    let cases = smoke_cases(&ds, 4);
    assert_eq!(
        bits(&served_scores(&gcn, &cases, true, 256, 1)),
        bits(&served_scores(&ls, &cases, true, 256, 1)),
        "untrained KGNN-LS must be bit-identical to untrained GCN"
    );
}

/// At `ls_weight = 0` the label-smoothness term is skipped entirely —
/// no extra tape ops, no extra sampler draws — so training under
/// KGNN-LS reproduces GCN training bit for bit. At `ls_weight > 0` the
/// regulariser must actually move the parameters.
#[test]
fn kgnn_ls_weight_zero_trains_identically_to_gcn_and_nonzero_diverges() {
    let (ds, gcn) = trained(smoke_config(Backend::Gcn));
    let (_, ls_off) = trained(KgagConfig { ls_weight: 0.0, ..smoke_config(Backend::KgnnLs) });
    let (_, ls_on) = trained(KgagConfig { ls_weight: 0.5, ..smoke_config(Backend::KgnnLs) });
    let cases = smoke_cases(&ds, 4);
    let want = bits(&served_scores(&gcn, &cases, true, 256, 1));
    assert_eq!(
        bits(&served_scores(&ls_off, &cases, true, 256, 1)),
        want,
        "ls_weight=0 must reproduce GCN training exactly"
    );
    assert_ne!(
        bits(&served_scores(&ls_on, &cases, true, 256, 1)),
        want,
        "ls_weight=0.5 trained to the same bits as GCN — the regulariser is dead"
    );
}

/// Checkpoints round-trip per backend (restored scores bit-identical)
/// and refuse cross-backend restores with the typed tag mismatch.
#[test]
fn checkpoints_round_trip_and_refuse_cross_backend_restores() {
    for backend in Backend::all() {
        let (ds, model) = trained(smoke_config(backend));
        let cases = smoke_cases(&ds, 3);
        let want = bits(&served_scores(&model, &cases, true, 256, 1));
        let ckpt = model.save_checkpoint();

        let split = split_dataset(&ds, 11);
        let mut twin = Kgag::new(&ds, &split, smoke_config(backend));
        twin.load_checkpoint(&ckpt).expect("same-backend restore must succeed");
        assert_eq!(
            bits(&served_scores(&twin, &cases, true, 256, 1)),
            want,
            "{}: restored model diverged from the saver",
            backend.tag()
        );

        let other = Backend::all().into_iter().find(|b| *b != backend).unwrap();
        let mut wrong = Kgag::new(&ds, &split, smoke_config(other));
        match wrong.load_checkpoint(&ckpt) {
            Err(CheckpointError::TagMismatch(expected, found)) => {
                assert_eq!(expected, other.tag());
                assert_eq!(found, backend.tag());
            }
            other_result => panic!(
                "{} checkpoint into a {} model must be a TagMismatch, got {other_result:?}",
                backend.tag(),
                other.tag()
            ),
        }
    }
}

/// The served engine equals the per-case tape forward bit for bit for
/// both extension backends: KGNN-LS scores on the GCN kernels, and
/// interaction-pattern through its fused member-mixing step (mean →
/// peer mean → split `[m ‖ peer]` matmul + tanh → residual add, in the
/// tape's op order).
#[test]
fn extension_backends_serve_the_tape_bits() {
    for backend in [Backend::KgnnLs, Backend::InteractionPattern] {
        let (ds, model) = trained(smoke_config(backend));
        let cases = smoke_cases(&ds, 4);
        let tape: Vec<Vec<f32>> =
            cases.iter().map(|(g, items)| model.score_group_items(*g, items)).collect();
        for (cache, chunk, threads) in [(true, 256, 1), (false, 7, 4)] {
            assert_eq!(
                bits(&served_scores(&model, &cases, cache, chunk, threads)),
                bits(&tape),
                "{backend:?} engine diverged from the tape (cache={cache} chunk={chunk})"
            );
        }
    }
}
