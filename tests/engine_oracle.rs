//! The inference-engine oracle (DESIGN.md §14): every serving scorer —
//! the local [`kgag::Scorer`] (live-mutated, and owned by a
//! [`kgag::RegistryModel`]) and [`kgag::RouterCore`] — must return the
//! bits of the tape forward ([`Kgag::score_group_items`],
//! [`Kgag::score_members`]) for every backend, dimension, depth and
//! ablation. Equality is on `f32::to_bits`, not a tolerance.

use kgag::{Backend, Kgag, KgagConfig, LocalFetch, RegistryModel, RouterCore, Scorer};
use kgag_data::movielens::Scale;
use kgag_data::split::split_dataset;
use kgag_data::yelp::{yelp, YelpConfig};
use kgag_data::{GroupDataset, LifecycleOp};
use kgag_tensor::pool::with_threads;

fn dataset() -> GroupDataset {
    yelp(&YelpConfig::at_scale(Scale::Tiny))
}

/// One epoch of training moves every parameter off its initialisation
/// (the zero-initialised PI projection and biases included), so each
/// engine step is exercised on non-trivial weights.
fn trained(ds: &GroupDataset, config: KgagConfig) -> Kgag {
    trained_for(ds, config, 1)
}

fn trained_for(ds: &GroupDataset, config: KgagConfig, epochs: usize) -> Kgag {
    let split = split_dataset(ds, 11);
    let mut model = Kgag::new(ds, &split, KgagConfig { epochs, ..config });
    with_threads(1, || model.fit(&split));
    model
}

fn cases(ds: &GroupDataset, groups: u32) -> Vec<(u32, Vec<u32>)> {
    let items: Vec<u32> = (0..ds.num_items).collect();
    (0..ds.num_groups().min(groups)).map(|g| (g, items.clone())).collect()
}

fn bits(scores: &[f32]) -> Vec<u32> {
    scores.iter().map(|s| s.to_bits()).collect()
}

/// The tape forward, case by case.
fn tape(model: &Kgag, cases: &[(u32, Vec<u32>)]) -> Vec<Vec<u32>> {
    cases.iter().map(|(g, items)| bits(&model.score_group_items(*g, items))).collect()
}

fn assert_served(label: &str, want: &[Vec<u32>], got: &[Vec<f32>]) {
    assert_eq!(want.len(), got.len(), "{label}: case count");
    for (ci, (w, g)) in want.iter().zip(got).enumerate() {
        assert_eq!(w, &bits(g), "{label}: case {ci} differs from the tape");
    }
}

#[test]
fn batch_engine_equals_tape_across_backends_dims_and_depths() {
    let ds = dataset();
    let cases = cases(&ds, 3);
    for backend in Backend::all() {
        for dim in [12, 16, 20] {
            for layers in [2, 3] {
                let config = KgagConfig { backend, dim, layers, ..Default::default() };
                // trained weights at the default shape; elsewhere the
                // initialisation already exercises every propagation step
                let model = if (dim, layers) == (16, 2) {
                    trained(&ds, config)
                } else {
                    Kgag::new(&ds, &split_dataset(&ds, 11), config)
                };
                let label = format!("{backend:?} d={dim} H={layers}");
                let got = with_threads(2, || Scorer::new(&model, true).score_cases(&cases));
                assert_served(&label, &tape(&model, &cases), &got);
            }
        }
    }
}

/// Rounding-order slips in the PI tower move a score only once its
/// projection has grown: a one-accumulator `m·W₁ + peers·W₂` flips a
/// handful of these 1600 scores, none of the one-epoch ones above.
#[test]
fn longer_trained_models_keep_the_tape_bits() {
    let ds = dataset();
    let cases = cases(&ds, 20);
    for backend in [Backend::Gcn, Backend::InteractionPattern] {
        let model = trained_for(&ds, KgagConfig { backend, ..Default::default() }, 8);
        let got = with_threads(2, || Scorer::new(&model, true).score_cases(&cases));
        assert_served(&format!("{backend:?} 8 epochs"), &tape(&model, &cases), &got);
    }
}

#[test]
fn batch_engine_equals_tape_under_ablations() {
    let ds = dataset();
    let cases = cases(&ds, 4);
    let base = KgagConfig::default();
    let ablations = [
        ("no-KG", base.clone().ablate_kg()),
        ("no-SP", base.clone().ablate_sp()),
        ("no-PI", base.clone().ablate_pi()),
        ("no-residual", KgagConfig { residual: false, ..base.clone() }),
    ];
    for (label, config) in ablations {
        let model = trained(&ds, config);
        let want = tape(&model, &cases);
        for (cache, chunk) in [(true, 256), (false, 5)] {
            let got = Scorer::new(&model, cache).with_batch_instances(chunk).score_cases(&cases);
            assert_served(&format!("{label} cache={cache} chunk={chunk}"), &want, &got);
        }
    }
}

#[test]
fn dynamic_and_registry_engines_equal_tape() {
    let ds = dataset();
    let cases = cases(&ds, 4);
    for backend in [Backend::Gcn, Backend::InteractionPattern] {
        let model = trained(&ds, KgagConfig { backend, ..Default::default() });
        let want = tape(&model, &cases);
        let dynamic = Scorer::new(&model, true);
        assert_served("dynamic", &want, &dynamic.try_score_cases(&cases).unwrap());

        // a join pushes group 0 off the nominal size: the engine drops
        // the PI tower exactly where the tape's cold-start path does
        let members = dynamic.members_of(0).unwrap();
        let joiner = (0..ds.num_users).find(|u| !members.contains(u)).unwrap();
        dynamic.apply(&LifecycleOp::Join { group: 0, user: joiner }).unwrap();
        let roster = dynamic.members_of(0).unwrap();
        let items = &cases[0].1;
        assert_eq!(
            bits(&dynamic.score_case(0, items).unwrap()),
            bits(&model.score_members(&roster, items).unwrap()),
            "{backend:?}: mutated roster differs from the tape"
        );

        let split = split_dataset(&ds, 11);
        let mut twin = Kgag::new(&ds, &split, KgagConfig { backend, ..Default::default() });
        let bytes = model.save_checkpoint();
        twin.load_checkpoint(&bytes).unwrap();
        let entry = RegistryModel::new(Scorer::new(twin, true), kgag::checkpoint_hash(&bytes));
        assert_served("registry", &want, &entry.try_score_cases(&cases).unwrap());
    }
}

#[test]
fn router_engine_equals_tape_at_one_and_three_shards() {
    let ds = dataset();
    let cases = cases(&ds, 4);
    for backend in [Backend::GraphSage, Backend::InteractionPattern] {
        let model = trained(&ds, KgagConfig { backend, ..Default::default() });
        let want = tape(&model, &cases);
        for (count, memo) in [(1, true), (3, false)] {
            let fetch = LocalFetch::new((0..count).map(|i| model.shard_state(i, count)).collect());
            let got: Vec<Vec<f32>> = RouterCore::from_model(&model, memo)
                .score_cases(&fetch, &cases)
                .into_iter()
                .map(|r| r.expect("local fetch never fails"))
                .collect();
            assert_served(&format!("{backend:?} {count} shard(s)"), &want, &got);
        }
    }
}
