//! Serving-path benchmark (DESIGN.md §12): closed-loop load through the
//! in-process micro-batcher against the offline `score_cases` baseline
//! on the same request slice.
//!
//! Three timed variants, all on the warm smoke-model [`Scorer`]:
//! the offline batch call (no queueing, the floor), one closed-loop
//! client (pure per-request overhead: queue hop + window wait + channel
//! round trip), and four closed-loop clients (the concurrency shape the
//! batcher exists for — requests from different clients fuse into
//! shared chunks). The `serving_overhead_1c`/`_4c` annotations are
//! served median / offline median; bit-identity of the served scores is
//! enforced by `serve_check` in CI, so this file measures time only.

use kgag::harness::{eval_cases, EvalBucket};
use kgag::{Kgag, KgagConfig, Scorer};
use kgag_data::movielens::Scale;
use kgag_data::split::split_dataset;
use kgag_data::yelp::{yelp, YelpConfig};
use kgag_serve::{serve_in_process, ServeConfig, ServeHandle};
use kgag_tensor::pool::with_threads;
use kgag_testkit::bench::{black_box, BenchSuite};
use kgag_testkit::json::Json;
use std::time::Duration;

const THREADS: usize = 4;
const CLIENTS: usize = 4;

/// Closed loop: `clients` threads each submit their share of the slice
/// and wait for every response before the iteration ends.
fn drive(handle: &ServeHandle, requests: &[(u32, Vec<u32>)], clients: usize) {
    std::thread::scope(|s| {
        for c in 0..clients {
            let handle = handle.clone();
            s.spawn(move || {
                let pending: Vec<_> = requests
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % clients == c)
                    .map(|(_, (g, items))| handle.submit(*g, items.clone(), None).unwrap())
                    .collect();
                for p in pending {
                    black_box(p.wait().unwrap());
                }
            });
        }
    });
}

fn main() {
    let ds = yelp(&YelpConfig::at_scale(Scale::Tiny));
    let split = split_dataset(&ds, 11);
    let mut model = Kgag::new(&ds, &split, KgagConfig { epochs: 2, ..Default::default() });
    with_threads(THREADS, || model.fit(&split));
    let scorer = Scorer::new(&model, true);

    // the serving workload: every test group, sub-catalog candidate
    // lists of varying length (the request shape clients actually send)
    let cases = eval_cases(&ds, &split.group, EvalBucket::Test);
    let requests: Vec<(u32, Vec<u32>)> = cases
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let len = 1 + (i * 37) % (ds.num_items as usize);
            (c.group, (0..len as u32).collect())
        })
        .collect();

    let mut suite = BenchSuite::new("serving");
    suite.annotate("requests", Json::Float(requests.len() as f64));

    let label = format!("offline score_cases {} reqs t{THREADS}", requests.len());
    with_threads(THREADS, || {
        suite.bench(&label, || {
            black_box(scorer.score_cases(&requests));
        })
    });
    let offline_ns = suite.results().last().unwrap().median_ns;

    let cfg = ServeConfig {
        batch_window: Duration::from_micros(200),
        max_batch: 64,
        queue_capacity: 4096,
        workers: 1,
    };
    let label = format!("served 1 client {} reqs t{THREADS}", requests.len());
    with_threads(THREADS, || {
        serve_in_process(&scorer, &cfg, |handle| {
            suite.bench(&label, || drive(&handle, &requests, 1));
        })
    });
    let served_1c_ns = suite.results().last().unwrap().median_ns;

    let label = format!("served {CLIENTS} clients {} reqs t{THREADS}", requests.len());
    with_threads(THREADS, || {
        serve_in_process(&scorer, &cfg, |handle| {
            suite.bench(&label, || drive(&handle, &requests, CLIENTS));
        })
    });
    let served_4c_ns = suite.results().last().unwrap().median_ns;

    suite.annotate("serving_overhead_1c", Json::Float(served_1c_ns / offline_ns));
    suite.annotate("serving_overhead_4c", Json::Float(served_4c_ns / offline_ns));
    suite.finish();
}
