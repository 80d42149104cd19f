//! The four workloads: set-up, the served phases and the correctness
//! gate.
//!
//! Every workload builds the model from the generated dataset, stands
//! up one of the real TCP front doors with every `KGAG_*` knob at its
//! default, and drives it with [`CLIENTS`] closed-loop clients. Set-up
//! is repeated [`Workload::setup_reps`] times (all but the last are torn
//! down at once) so the set-up time is a median, not one sample. The
//! last set-up serves the plain phase; a traced run instead serves the
//! plain phase on the second-to-last set-up and a traced phase, through
//! the timing wrappers of [`crate::trace`], on the last. Both replay the
//! same request streams on fresh state, so the two phases also give the
//! tracing overhead.

use crate::client::{self, PhaseLog};
use crate::ops::{Op, OpStream, StreamShape};
use crate::report::ModelFacts;
use crate::trace::{CallSpan, FetchLog, TracedBatch, TracedLifecycle, TracedSharded};
use kgag::{Kgag, KgagConfig};
use kgag_data::movielens::{movielens_rand, MovieLensConfig, Scale};
use kgag_data::split::{split_dataset, DatasetSplit};
use kgag_data::GroupDataset;
use kgag_kg::ShardState;
use kgag_serve::{
    serve_shard, serve_tcp, serve_tcp_dynamic, serve_tcp_try, ServeConfig, ShardConfig, ShardPool,
    ShardedScorer, ShutdownToken,
};
use std::net::SocketAddr;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Closed-loop clients per workload, one connection each. With no more
/// connections than cores the server cannot build a queue that an
/// arrival schedule would expose, so a closed loop loses nothing.
pub const CLIENTS: u32 = 2;
/// In-process shard peers behind the router of `sharded_rank`.
pub const SHARDS: usize = 2;
const LOOPBACK: &str = "127.0.0.1:0";

/// Which front door a workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Front {
    /// `serve_tcp` over `Kgag::batch_scorer`.
    Static,
    /// `serve_tcp_dynamic` over `Kgag::dynamic_scorer`.
    Dynamic,
    /// `serve_tcp_try` over a `ShardedScorer` routing to in-process
    /// `serve_shard` peers.
    Sharded,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub catalog: Catalog,
    /// Candidates per score request, inclusive range.
    pub cands: (usize, usize),
    pub front: Front,
    pub setup_reps: usize,
    pub warmup_cycles: usize,
}

/// The datasets the workloads serve. Both are the repository's
/// MovieLens-20M-Rand stand-in (`kgag_data::movielens`): its world
/// generator (1–3 genres and 2–4 actors per item, one director and one
/// decade, director `works_in` genre edges, Zipf exposure, heavy and
/// light users) and its Rand group protocol (random rosters of 8,
/// positives from simulated group decisions). The Simi variant is not
/// generated: its PCC-constrained roster search is not linear-time and
/// no workload serves it. The dataset is the deployed world and stays
/// fixed; the run seed only drives the traffic against it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Catalog {
    /// The `Small` preset scaled to 200k users × 200k items: about 480k
    /// entities, whose embedding tables, graph and receptive-field
    /// cache pair exceed the L3.
    Large,
    /// The `Small` preset unchanged: 800 users × 600 items, about 1.7k
    /// entities, inside L2.
    Small,
}

/// Users and items of the large catalog.
const LARGE_USERS: u32 = 200_000;
const LARGE_ITEMS: u32 = 200_000;
/// Rand groups of the large catalog. The preset's ratio (1500 groups
/// per 800 users) would give 375k; decision simulation is linear in
/// the group count, and 20k rosters of 8 already reach over half the
/// users.
const LARGE_GROUPS: usize = 20_000;

impl Catalog {
    pub fn config(self) -> MovieLensConfig {
        let mut c = MovieLensConfig::at_scale(Scale::Small);
        c.simi_groups = 0;
        if self == Catalog::Large {
            let w = &mut c.world;
            // directors and actors keep their preset share of the items,
            // so every attribute entity keeps its preset degree; genres
            // and decades are fixed vocabularies
            let per_item = |n: usize| n * LARGE_ITEMS as usize / w.num_items as usize;
            w.num_directors = per_item(w.num_directors);
            w.num_actors = per_item(w.num_actors);
            w.num_users = LARGE_USERS;
            w.num_items = LARGE_ITEMS;
            c.rand_groups = LARGE_GROUPS;
        }
        c
    }

    /// Generate the dataset and its train/test split.
    pub fn generate(self) -> (GroupDataset, DatasetSplit) {
        let config = self.config();
        let ds = movielens_rand(&config);
        let split = split_dataset(&ds, config.world.seed);
        (ds, split)
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "rank_large",
        catalog: Catalog::Large,
        cands: (100, 100),
        front: Front::Static,
        setup_reps: 3,
        warmup_cycles: 20,
    },
    Workload {
        name: "probe_small",
        catalog: Catalog::Small,
        cands: (1, 2),
        front: Front::Static,
        setup_reps: 301,
        warmup_cycles: 200,
    },
    Workload {
        name: "group_churn",
        catalog: Catalog::Large,
        cands: (20, 20),
        front: Front::Dynamic,
        setup_reps: 3,
        warmup_cycles: 4,
    },
    Workload {
        name: "sharded_rank",
        catalog: Catalog::Large,
        cands: (100, 100),
        front: Front::Sharded,
        setup_reps: 3,
        warmup_cycles: 20,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Inputs of one run: the workload's fixed catalog and the run seed its
/// request streams come from.
pub struct Inputs<'w> {
    pub workload: &'w Workload,
    pub seed: u64,
    pub ds: GroupDataset,
    pub split: DatasetSplit,
}

impl Inputs<'_> {
    pub fn shape(&self) -> StreamShape {
        StreamShape {
            clients: CLIENTS,
            num_users: self.ds.num_users,
            num_items: self.ds.num_items,
            cands: self.workload.cands,
            churn: self.workload.front == Front::Dynamic,
        }
    }

    /// One stream per client; every phase replays the same streams.
    pub fn streams(&self) -> Vec<OpStream<'_>> {
        (0..CLIENTS).map(|c| OpStream::new(self.shape(), &self.ds.groups, self.seed, c)).collect()
    }
}

/// Set-up times of one repetition, in seconds.
#[derive(Clone, Copy, Debug)]
pub struct SetupTimes {
    /// From handing the dataset to `Kgag::new` until the server is ready.
    pub total: f64,
    /// `Kgag::new`.
    pub model: f64,
    /// Scorer construction: `batch_scorer`, `dynamic_scorer`, or
    /// `router_core` plus `ShardedScorer::new`.
    pub scorer: f64,
    /// `shard_state` for every shard, their servers ready and
    /// `ShardPool::connect` (sharded set-ups only).
    pub shard: Option<f64>,
}

/// What the timing wrappers recorded at the seams.
#[derive(Default)]
pub struct Seams {
    pub calls: Vec<CallSpan>,
    /// Lifecycle `apply_op` wall times (ns), dynamic front door only.
    pub apply_ns: Vec<u64>,
    /// Router and shard-fetch timings, sharded front door only.
    pub router_ns: Vec<u64>,
    pub fetch: FetchLog,
}

/// The traced phase and what its seams recorded.
pub struct Traced {
    pub phase: PhaseLog,
    pub seams: Seams,
}

/// The correctness gate's tally.
#[derive(Clone, Copy, Debug, Default)]
pub struct Check {
    /// Score replies without exactly one finite score per candidate.
    pub malformed: usize,
    /// Sampled replies compared bit for bit with the offline scorer.
    pub compared: usize,
    pub mismatched: usize,
}

impl Check {
    pub fn passed(&self) -> bool {
        self.malformed == 0 && self.compared > 0 && self.mismatched == 0
    }
}

impl std::ops::AddAssign for Check {
    fn add_assign(&mut self, other: Check) {
        self.malformed += other.malformed;
        self.compared += other.compared;
        self.mismatched += other.mismatched;
    }
}

/// Effective serving configuration, as `(key, value)` strings.
pub type ConfigReport = Vec<(&'static str, String)>;

/// Everything a run produced.
pub struct RunOutput {
    pub setups: Vec<SetupTimes>,
    pub plain: PhaseLog,
    /// The traced phase, in a traced run.
    pub traced: Option<Traced>,
    pub check: Check,
    /// `cache_bytes()` of the serving scorer at set-up; on the sharded
    /// front, of the single-node scorer (the router holds a draw memo
    /// instead of receptive-field tables). 0 when uncached.
    pub cache_bytes: u64,
    pub config: ConfigReport,
    pub facts: ModelFacts,
}

/// Serve on a scoped thread, run `drive` against the bound address,
/// then shut the server down and wait for it.
fn serve_and_drive<R>(
    serve: impl FnOnce(&ShutdownToken, mpsc::Sender<SocketAddr>) -> std::io::Result<()> + Send,
    drive: impl FnOnce(SocketAddr) -> R,
) -> R {
    let token = ShutdownToken::new();
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|s| {
        let server = s.spawn(|| serve(&token, tx));
        let addr = rx.recv();
        let out = addr.map(drive);
        token.trigger();
        server.join().expect("server thread panicked").expect("server failed");
        out.expect("server never reported ready")
    })
}

fn ready(tx: mpsc::Sender<SocketAddr>) -> impl FnOnce(SocketAddr) {
    move |addr| {
        let _ = tx.send(addr);
    }
}

/// Stand up [`SHARDS`] `serve_shard` peers over `model`'s tables, a
/// `ShardPool` to them and a `ShardedScorer`, run `body`, then tear all
/// of it down. `body` also gets the shard and scorer set-up times.
pub fn with_shards<R>(model: &Kgag, body: impl FnOnce(&ShardedScorer, f64, f64) -> R) -> R {
    let t0 = Instant::now();
    let states: Vec<ShardState> = (0..SHARDS).map(|i| model.shard_state(i, SHARDS)).collect();
    let token = ShutdownToken::new();
    std::thread::scope(|s| {
        let token = &token;
        let mut addrs = Vec::with_capacity(SHARDS);
        let mut servers = Vec::with_capacity(SHARDS);
        for state in &states {
            let (tx, rx) = mpsc::channel();
            servers.push(s.spawn(move || serve_shard(state, LOOPBACK, token, ready(tx))));
            addrs.push(rx.recv().expect("shard server never reported ready"));
        }
        let pool = ShardPool::connect(&addrs, &ShardConfig::from_env()).expect("connect to shards");
        let shard_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let scorer = ShardedScorer::new(model.router_core(), pool);
        let scorer_s = t1.elapsed().as_secs_f64();
        let out = body(&scorer, shard_s, scorer_s);
        // dropping the scorer closes the pool's connections, so the shard
        // servers' connection threads can exit
        drop(scorer);
        token.trigger();
        for server in servers {
            server.join().expect("shard server panicked").expect("shard server failed");
        }
        out
    })
}

/// Replies whose scores the correctness gate compares: per client, the
/// first score reply and then every `SAMPLE_EVERY`-th, at most
/// `SAMPLE_MAX` each.
const SAMPLE_EVERY: usize = 25;
const SAMPLE_MAX: usize = 24;

fn sample(phase: &PhaseLog) -> Vec<(u32, Vec<u32>, &[f32])> {
    let mut out = Vec::new();
    for c in 0..CLIENTS {
        let replies = phase.records.iter().filter_map(|r| match (&r.op, &r.scores) {
            (Op::Score { group, items }, Some(s)) if r.client == c => {
                Some((*group, items.clone(), s.as_slice()))
            }
            _ => None,
        });
        out.extend(replies.step_by(SAMPLE_EVERY).take(SAMPLE_MAX));
    }
    out
}

/// Run the correctness gate over `phase`: every score reply must carry
/// one finite score per candidate, and the sampled replies must equal
/// `offline`'s scores bit for bit.
fn check(phase: &PhaseLog, offline: impl Fn(&[(u32, Vec<u32>)]) -> Vec<Vec<f32>>) -> Check {
    let mut tally = Check::default();
    for r in &phase.records {
        if let (Op::Score { items, .. }, Some(scores)) = (&r.op, &r.scores) {
            if scores.len() != items.len() || !scores.iter().all(|s| s.is_finite()) {
                tally.malformed += 1;
            }
        }
    }
    let picked = sample(phase);
    let cases: Vec<(u32, Vec<u32>)> = picked.iter().map(|(g, i, _)| (*g, i.clone())).collect();
    let expected = offline(&cases);
    for ((_, _, served), want) in picked.iter().zip(&expected) {
        tally.compared += 1;
        let same = served.len() == want.len()
            && served.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            tally.mismatched += 1;
        }
    }
    tally
}

/// What one set-up repetition serves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// Set up, report ready, tear down.
    Idle,
    /// Serve the untraced phase.
    Plain,
    /// Serve the traced phase through the timing wrappers.
    Traced,
}

/// The mode of repetition `rep` of `reps`: the last serves the plain
/// phase, or — in a traced run — the last two serve the plain and the
/// traced phase, each on a fresh set-up so that neither inherits the
/// other's warm state (the router's draw memo grows as it serves).
fn mode(rep: usize, reps: usize, trace: bool) -> Mode {
    match (reps - rep, trace) {
        (1, false) | (2, true) => Mode::Plain,
        (1, true) => Mode::Traced,
        _ => Mode::Idle,
    }
}

/// Serve one repetition in `mode`: through `plain` or `traced`, calling
/// `on_ready` once the server is up and driving the clients unless idle.
fn serve_phase(
    mode: Mode,
    on_ready: impl FnOnce(),
    plain: impl FnOnce(&ShutdownToken, mpsc::Sender<SocketAddr>) -> std::io::Result<()> + Send,
    traced: impl FnOnce(&ShutdownToken, mpsc::Sender<SocketAddr>) -> std::io::Result<()> + Send,
    drive: impl FnOnce(SocketAddr) -> PhaseLog,
) -> Option<PhaseLog> {
    let body = |addr| {
        on_ready();
        (mode != Mode::Idle).then(|| drive(addr))
    };
    if mode == Mode::Traced {
        serve_and_drive(traced, body)
    } else {
        serve_and_drive(plain, body)
    }
}

fn serve_config_report(cfg: &ServeConfig) -> ConfigReport {
    vec![
        ("serve.batch_window_us", cfg.batch_window.as_micros().to_string()),
        ("serve.max_batch", cfg.max_batch.to_string()),
        ("serve.queue_capacity", cfg.queue_capacity.to_string()),
        ("serve.workers", cfg.workers.to_string()),
        // BatchScorer and DynamicScorer expose no getter for the chunk
        // cap; with KGAG_EVAL_BATCH unset it is the documented default
        ("engine.chunk_cap", "256".to_owned()),
    ]
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Run `inputs.workload` for `seconds` (split evenly between the plain
/// and the traced phase when `trace` is set). `after` runs on the traced
/// phase's model once serving is over, for the layer probes.
pub fn run<P>(
    inputs: &Inputs<'_>,
    seconds: f64,
    trace: bool,
    after: impl FnOnce(&Kgag, &Traced) -> P,
) -> (RunOutput, Option<P>) {
    let w = inputs.workload;
    assert!(w.setup_reps >= 2, "a traced run needs two set-ups");
    let cfg = ServeConfig::from_env();
    let phase_s = if trace { seconds / 2.0 } else { seconds };
    let drive = |addr| client::drive(addr, inputs.streams(), w.warmup_cycles, phase_s);
    let mut setups = Vec::with_capacity(w.setup_reps);
    let mut config = serve_config_report(&cfg);
    let mut total = Check::default();
    let (mut plain, mut traced, mut probes, mut facts) = (None, None, None, None);
    let mut cache_bytes = None;
    let mut after = Some(after);
    for rep in 0..w.setup_reps {
        let mode = mode(rep, w.setup_reps, trace);
        if mode == Mode::Plain {
            // the phase's peak then covers this set-up and its serving,
            // not the set-ups already torn down
            crate::fingerprint::reset_peak_rss();
        }
        let t0 = Instant::now();
        let model = Kgag::new(&inputs.ds, &inputs.split, KgagConfig::default());
        let model_s = secs(t0.elapsed());
        let mut report = Vec::new();
        let (phase, check, seams) = match w.front {
            Front::Static => {
                let t1 = Instant::now();
                let scorer = model.batch_scorer();
                let scorer_s = secs(t1.elapsed());
                cache_bytes = scorer.cache_bytes();
                report.push(("engine.tier", scorer.tier().as_str().to_owned()));
                report.push(("engine.rf_cache", scorer.cached().to_string()));
                let seam = TracedBatch::new(&scorer);
                let phase = serve_phase(
                    mode,
                    || {
                        setups.push(SetupTimes {
                            total: secs(t0.elapsed()),
                            model: model_s,
                            scorer: scorer_s,
                            shard: None,
                        })
                    },
                    |tok, tx| serve_tcp(&scorer, &cfg, LOOPBACK, tok, ready(tx)),
                    |tok, tx| serve_tcp(&seam, &cfg, LOOPBACK, tok, ready(tx)),
                    drive,
                );
                let check = phase.as_ref().map(|p| check(p, |cases| scorer.score_cases(cases)));
                let seams = Seams { calls: seam.into_calls(), ..Seams::default() };
                (phase, check, seams)
            }
            Front::Dynamic => {
                let t1 = Instant::now();
                let scorer = model.dynamic_scorer();
                let scorer_s = secs(t1.elapsed());
                cache_bytes = scorer.cache_bytes();
                report.push(("engine.tier", scorer.tier().as_str().to_owned()));
                report.push(("engine.rf_cache", scorer.cached().to_string()));
                let batch = TracedBatch::new(&scorer);
                let lifecycle = TracedLifecycle::new(&scorer);
                let phase = serve_phase(
                    mode,
                    || {
                        setups.push(SetupTimes {
                            total: secs(t0.elapsed()),
                            model: model_s,
                            scorer: scorer_s,
                            shard: None,
                        })
                    },
                    |tok, tx| serve_tcp_dynamic(&scorer, &scorer, &cfg, LOOPBACK, tok, ready(tx)),
                    |tok, tx| serve_tcp_dynamic(&batch, &lifecycle, &cfg, LOOPBACK, tok, ready(tx)),
                    drive,
                );
                let seams = Seams {
                    calls: batch.into_calls(),
                    apply_ns: lifecycle.into_apply_ns(),
                    ..Seams::default()
                };
                drop(scorer);
                // join + leave restores each roster, so every score must
                // equal the static engine's on the same group
                let check = phase.as_ref().map(|p| {
                    let offline = model.batch_scorer();
                    check(p, |cases| offline.score_cases(cases))
                });
                (phase, check, seams)
            }
            Front::Sharded => {
                let (phase, seams, router_tier) =
                    with_shards(&model, |scorer, shard_s, scorer_s| {
                        report.push(("engine.tier", scorer.core().tier().as_str().to_owned()));
                        report.push(("router.draw_memo", scorer.core().memoized().to_string()));
                        report.push(("shard.peers", SHARDS.to_string()));
                        let shard_cfg = ShardConfig::from_env();
                        report
                            .push(("shard.timeout_ms", shard_cfg.timeout.as_millis().to_string()));
                        report.push(("shard.queue", shard_cfg.queue.to_string()));
                        let seam = TracedSharded::new(scorer);
                        let phase = serve_phase(
                            mode,
                            || {
                                setups.push(SetupTimes {
                                    total: secs(t0.elapsed()),
                                    model: model_s,
                                    scorer: scorer_s,
                                    shard: Some(shard_s),
                                })
                            },
                            |tok, tx| serve_tcp_try(scorer, &cfg, LOOPBACK, tok, ready(tx)),
                            |tok, tx| serve_tcp_try(&seam, &cfg, LOOPBACK, tok, ready(tx)),
                            drive,
                        );
                        let (calls, router_ns, fetch) = seam.finish();
                        (
                            phase,
                            Seams { calls, router_ns, fetch, ..Seams::default() },
                            scorer.core().tier(),
                        )
                    });
                // the single-node engine at the router's tier is the oracle
                let check = phase.as_ref().map(|p| {
                    let offline = model.batch_scorer();
                    cache_bytes = offline.cache_bytes();
                    let mut tally = check(p, |cases| offline.score_cases(cases));
                    if offline.tier() != router_tier {
                        tally.mismatched += 1;
                    }
                    tally
                });
                (phase, check, seams)
            }
        };
        if let Some(c) = check {
            total += c;
        }
        match (mode, phase) {
            (Mode::Plain, Some(phase)) => plain = Some(phase),
            (Mode::Traced, Some(phase)) => {
                let t = Traced { phase, seams };
                probes = after.take().map(|after| after(&model, &t));
                traced = Some(t);
            }
            _ => {}
        }
        if rep + 1 == w.setup_reps {
            config.extend(report);
            facts = Some(ModelFacts::of(&model));
        }
    }
    let out = RunOutput {
        setups,
        plain: plain.expect("one repetition serves the plain phase"),
        traced,
        check: total,
        cache_bytes: cache_bytes.unwrap_or(0) as u64,
        config,
        facts: facts.expect("at least one repetition"),
    };
    (out, probes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn large_catalog_scales_the_preset_and_keeps_its_shape() {
        let (small, large) = (Catalog::Small.config(), Catalog::Large.config());
        let preset = MovieLensConfig::at_scale(Scale::Small);
        assert_eq!(small.world.num_users, preset.world.num_users);
        assert_eq!(small.rand_groups, preset.rand_groups);
        let (s, l) = (&small.world, &large.world);
        assert_eq!((l.num_users, l.num_items), (LARGE_USERS, LARGE_ITEMS));
        // attribute entities per item as in the preset, up to rounding
        let per_item = |n: usize, w: &kgag_data::world::WorldConfig| n as f64 / w.num_items as f64;
        assert!((per_item(l.num_directors, l) - per_item(s.num_directors, s)).abs() < 1e-5);
        assert!((per_item(l.num_actors, l) - per_item(s.num_actors, s)).abs() < 1e-5);
        assert_eq!((l.num_genres, l.num_decades), (s.num_genres, s.num_decades));
        assert_eq!(l.ratings_per_user, s.ratings_per_user);
        assert_eq!(l.light_ratings_per_user, s.light_ratings_per_user);
        assert_eq!(l.heavy_fraction, s.heavy_fraction);
        assert_eq!(l.popularity_exponent, s.popularity_exponent);
        assert_eq!(large.rand_group_size, preset.rand_group_size);
    }

    #[test]
    fn small_catalog_is_valid_and_fixed() {
        let (a, _) = Catalog::Small.generate();
        assert!(a.validate().is_empty(), "{:?}", a.validate());
        assert!(a.groups.iter().all(|g| g.len() == 8 && g.windows(2).all(|w| w[0] < w[1])));
        let (b, _) = Catalog::Small.generate();
        assert_eq!(a.groups, b.groups);
        assert_eq!(a.user_pos.pairs(), b.user_pos.pairs());
    }
}
