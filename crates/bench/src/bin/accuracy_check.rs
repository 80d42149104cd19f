//! CI bit-identity gate for the inference engine (DESIGN.md §14):
//! train the fixed-seed smoke model, score the evaluation slice through
//! the served engine ([`kgag::Scorer`]) and through the tape
//! forward ([`Kgag::score_group_items`]), and fail unless every score
//! is equal to the bit (max |Δscore| = 0).
//!
//! ```text
//! accuracy_check
//! ```
//!
//! Both paths are thread- and chunk-invariant (enforced by the oracle
//! suites), so ci.sh runs this gate at `KGAG_THREADS` 1 and 4 and both
//! legs must print identical numbers. The sampled-negative evaluation
//! protocol is compared too: the batched metrics must equal the
//! per-case ones exactly.

use kgag::harness::{eval_cases, EvalBucket};
use kgag::{Kgag, KgagConfig, Scorer};
use kgag_data::movielens::Scale;
use kgag_data::split::split_dataset;
use kgag_data::yelp::{yelp, YelpConfig};
use kgag_eval::EvalConfig;
use std::process::ExitCode;

/// Split seed shared with golden_check and the CLI's train path.
const SPLIT_SEED: u64 = 0x5eed;

fn run() -> Result<bool, String> {
    if let Some(arg) = std::env::args().nth(1) {
        return Err(format!("unknown argument: {arg}"));
    }
    println!("accuracy_check: training the fixed-seed smoke model...");
    let ds = yelp(&YelpConfig::at_scale(Scale::Tiny));
    let split = split_dataset(&ds, SPLIT_SEED);
    let mut model = Kgag::new(&ds, &split, KgagConfig { epochs: 4, ..Default::default() });
    model.fit(&split);

    // full-catalog scores per test group, engine vs tape
    let items: Vec<u32> = (0..ds.num_items).collect();
    let test = eval_cases(&ds, &split.group, EvalBucket::Test);
    let cases: Vec<(u32, Vec<u32>)> = test.iter().map(|c| (c.group, items.clone())).collect();
    let scorer = Scorer::new(&model, true);
    let served = scorer.score_cases(&cases);
    let (mut total, mut differing, mut max_delta) = (0usize, 0usize, 0.0f64);
    for ((group, items), got) in cases.iter().zip(&served) {
        let want = model.score_group_items(*group, items);
        for (&a, &b) in want.iter().zip(got) {
            total += 1;
            if a.to_bits() != b.to_bits() {
                differing += 1;
                max_delta = max_delta.max((a as f64 - b as f64).abs());
            }
        }
    }

    // the sampled-negative protocol, batched vs per-case
    let ecfg = EvalConfig { k: 5, num_negatives: Some(100), seed: 0xe7a1 };
    let batched = model.evaluate_batched_with(&scorer, &test, &ecfg);
    let per_case = model.evaluate(&test, &ecfg);
    let metrics_equal = batched.recall.to_bits() == per_case.recall.to_bits()
        && batched.ndcg.to_bits() == per_case.ndcg.to_bits()
        && batched.hit.to_bits() == per_case.hit.to_bits()
        && batched.evaluated == per_case.evaluated;

    println!(
        "accuracy_check: {differing}/{total} scores differ, max |Δscore| {max_delta:.2e}; \
         recall@5 {:.6} ndcg@5 {:.6} (batched) vs {:.6} {:.6} (per-case)",
        batched.recall, batched.ndcg, per_case.recall, per_case.ndcg
    );
    if differing > 0 || !metrics_equal {
        eprintln!(
            "\naccuracy_check: the engine is not bit-identical to the tape forward — \
             an engine kernel reorders a sum the tape does not"
        );
        return Ok(false);
    }
    println!("\naccuracy_check: engine ≡ tape, bit for bit");
    Ok(true)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("accuracy_check: {e}");
            ExitCode::FAILURE
        }
    }
}
