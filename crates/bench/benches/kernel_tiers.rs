//! Tape-versus-engine roofline benchmark (DESIGN.md §14): the training
//! tape's forward ([`Kgag::score_group_items`], the per-case oracle
//! path) against the inference engine ([`kgag::BatchScorer`], warm
//! receptive-field cache) on the steady-state serving workload — every
//! test group scoring the full catalog. The two produce the same bits;
//! this file measures time only (correctness is owned by
//! `tests/engine_oracle.rs` and the `accuracy_check` CI gate).
//!
//! Beyond wall-clock medians the artifact reports:
//!
//! * `ns_per_candidate_{tape,engine}` — median time per `(group, item)`
//!   instance;
//! * `speedup_engine` — tape median / engine median (the headline);
//! * `bytes_per_score` — analytic table traffic per instance: every
//!   gathered entity/relation row, summed over both receptive fields.
//!   With the measured ns/candidate this locates the engine against
//!   memory bandwidth;
//! * `nproc` and `cpu_model` — the machine the numbers come from.

use kgag::harness::{eval_cases, EvalBucket};
use kgag::{Kgag, KgagConfig};
use kgag_data::movielens::Scale;
use kgag_data::split::split_dataset;
use kgag_data::yelp::{yelp, YelpConfig};
use kgag_tensor::pool::with_threads;
use kgag_testkit::bench::{black_box, BenchSuite};
use kgag_testkit::json::Json;

const THREADS: usize = 4;

/// Analytic bytes of table rows one `(group, item)` instance gathers:
/// entity rows at every propagation level plus the relation rows their
/// edges read, for `l` member targets and one item target.
fn bytes_per_score(dim: usize, layers: usize, k: usize, l: usize) -> f64 {
    let row_bytes = (dim * 4) as f64;
    let mut entity_rows = 0f64;
    let mut relation_rows = 0f64;
    for lvl in 0..=layers {
        entity_rows += (k as f64).powi(lvl as i32);
        if lvl < layers {
            relation_rows += (k as f64).powi(lvl as i32 + 1);
        }
    }
    let targets = (l + 1) as f64;
    targets * (entity_rows + relation_rows) * row_bytes
}

/// The first `model name` line of `/proc/cpuinfo`, where there is one.
fn cpu_model() -> Json {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| Json::Str(m.trim().to_owned()))
        })
        .unwrap_or(Json::Null)
}

fn main() {
    let ds = yelp(&YelpConfig::at_scale(Scale::Tiny));
    let split = split_dataset(&ds, 11);
    let mut model = Kgag::new(&ds, &split, KgagConfig { epochs: 2, ..Default::default() });
    with_threads(THREADS, || model.fit(&split));

    let items: Vec<u32> = (0..ds.num_items).collect();
    let cases: Vec<(u32, Vec<u32>)> = eval_cases(&ds, &split.group, EvalBucket::Test)
        .iter()
        .map(|c| (c.group, items.clone()))
        .collect();
    let instances = (cases.len() * items.len()) as f64;

    let mut suite = BenchSuite::new("kernel_tiers");
    suite.annotate("cases", Json::Float(cases.len() as f64));
    suite.annotate("instances", Json::Float(instances));
    suite.annotate("threads", Json::Float(THREADS as f64));
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    suite.annotate("nproc", Json::Float(nproc as f64));
    suite.annotate("cpu_model", cpu_model());

    // the engine warm: rf cache built outside the timed region — the
    // steady-state serving shape
    let engine = model.batch_scorer_with(true);
    let tape = || {
        for (group, items) in &cases {
            black_box(model.score_group_items(*group, items));
        }
    };
    let mut medians = Vec::new();
    for threads in [THREADS, 1] {
        let label = format!("tape {} cases t{threads}", cases.len());
        with_threads(threads, || suite.bench(&label, tape));
        medians.push(suite.results().last().unwrap().median_ns);
        let label = format!("engine warm {} cases t{threads}", cases.len());
        with_threads(threads, || {
            suite.bench(&label, || {
                black_box(engine.score_cases(&cases));
            })
        });
        medians.push(suite.results().last().unwrap().median_ns);
    }
    let (tape_ns, engine_ns) = (medians[0], medians[1]);

    let cfg = model.config();
    let k = cfg.eval_neighbor_k.unwrap_or(cfg.neighbor_k);
    let bps = bytes_per_score(cfg.dim, cfg.layers, k, model.group_size());
    suite.annotate("ns_per_candidate_tape", Json::Float(tape_ns / instances));
    suite.annotate("ns_per_candidate_engine", Json::Float(engine_ns / instances));
    suite.annotate("speedup_engine", Json::Float(tape_ns / engine_ns));
    suite.annotate("bytes_per_score", Json::Float(bps));
    println!(
        "\nkernel_tiers: {:.0} ns/candidate tape, {:.0} ns/candidate engine \
         (speedup {:.2}x), {:.0} analytic bytes/score",
        tape_ns / instances,
        engine_ns / instances,
        tape_ns / engine_ns,
        bps
    );
    suite.finish();
}
