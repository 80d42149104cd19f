//! `kgag` — command-line interface to the KGAG reproduction.
//!
//! ```text
//! kgag stats   [--scale tiny|small|medium] [--dataset rand|simi|yelp]
//! kgag train   [--scale ..] [--dataset ..] [--epochs N] [--seed N]
//!              [--backend B] [--ls-weight F] [--checkpoint PATH]
//!              [--json] [--batched]
//! kgag explain [--scale ..] [--dataset ..] [--epochs N] --group G [--item V]
//! kgag import  --name NAME --users N --items M \
//!              --interactions FILE --kg FILE --groups FILE [--epochs N]
//! kgag serve   [--scale ..] [--dataset ..] [--epochs N] [--seed N]
//!              [--backend B] [--checkpoint PATH] [--addr HOST:PORT]
//!              [--shards A,B,..] [--registry]
//! kgag shard   --index I --count N [--scale ..] [--dataset ..]
//!              [--epochs N] [--seed N] [--checkpoint PATH] [--addr HOST:PORT]
//! ```
//!
//! `train` reports validation and test metrics under the shared
//! protocol and can persist the trained parameters; `import` runs the
//! same pipeline on user-provided TSV files (see
//! `kgag_data::import` for the formats); `serve` exposes a trained
//! model over the `kgag_serve` wire protocol (DESIGN.md §12) until
//! stdin closes, with live group lifecycle — create/join/leave
//! mutations take effect on the very next score request (DESIGN.md
//! §13).

use kgag::harness::{eval_cases, EvalBucket};
use kgag::{Kgag, KgagConfig};
use kgag_data::movielens::{movielens_pair, MovieLensConfig, Scale};
use kgag_data::split::split_dataset;
use kgag_data::yelp::{yelp, YelpConfig};
use kgag_data::{DatasetStats, GroupDataset};
use kgag_eval::EvalConfig;
use kgag_testkit::json::{Json, ToJson};
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match parse_flags(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "stats" => cmd_stats(&opts),
        "train" => cmd_train(&opts),
        "explain" => cmd_explain(&opts),
        "import" => cmd_import(&opts),
        "serve" => cmd_serve(&opts),
        "shard" => cmd_shard(&opts),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    };
    // when KGAG_TELEMETRY is active, close the stream with the
    // cumulative metric totals (no-op otherwise)
    kgag_obs::flush();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
kgag — knowledge-aware group recommendation (ICDE 2021 reproduction)

USAGE:
    kgag stats   [--scale tiny|small|medium] [--dataset rand|simi|yelp]
    kgag train   [--scale S] [--dataset D] [--epochs N] [--seed N]
                 [--backend B] [--ls-weight F] [--checkpoint PATH]
                 [--json] [--batched]
    kgag explain [--scale S] [--dataset D] [--epochs N] --group G [--item V]
    kgag import  --name NAME --users N --items M --interactions FILE
                 --kg FILE --groups FILE [--epochs N] [--json]
    kgag serve   [--scale S] [--dataset D] [--epochs N] [--seed N]
                 [--backend B] [--checkpoint PATH] [--addr HOST:PORT]
                 [--shards A,B,..] [--registry]
    kgag shard   --index I --count N [--scale S] [--dataset D] [--epochs N]
                 [--seed N] [--checkpoint PATH] [--addr HOST:PORT]

--backend picks the propagation backend: gcn (default), graphsage,
kgnn-ls (label-smoothness regularised training; strength --ls-weight,
default 0.1), or interaction (member-interaction mixing). Checkpoints carry the
backend tag, so --checkpoint restores refuse a mismatched --backend.
--batched evaluates through the receptive-field-cached batch scorer
(bit-identical metrics, faster; see KGAG_RF_CACHE / KGAG_EVAL_BATCH).
serve loads --checkpoint if the file exists (training and writing it
otherwise), binds --addr (default 127.0.0.1:0, port printed on stdout)
and scores requests until stdin reaches EOF or reads \"quit\". The
server is lifecycle-aware: wire opcodes create/join/leave mutate the
live group table and later score requests see the new membership
(groups at the trained size use the full attention path, other sizes
the cold-start path; DESIGN.md §13). Batching knobs:
KGAG_SERVE_BATCH_WINDOW_US, KGAG_SERVE_MAX_BATCH, KGAG_SERVE_QUEUE,
KGAG_SERVE_WORKERS; scoring knobs KGAG_RF_CACHE=0 (receptive-field
cache off) and KGAG_EVAL_BATCH (chunk cap) apply to every serve mode,
registry entries included (scores are bit-identical either way).
`serve --shards A,B,..` runs the scatter-gather router instead: shard
peers (started with `kgag shard --index I --count N` on the same
dataset/config/checkpoint) hold the embedding-table slices and answer
draw/row queries; the router fuses scores bit-identically to
single-node serving (DESIGN.md §15). Knobs:
KGAG_SHARD_TIMEOUT_MS (per-reply deadline, default 2000) and
KGAG_SHARD_QUEUE (per-peer queue depth, default 64). A dead shard
fails only the requests that needed it, with typed errors; lifecycle
mutations are unavailable in sharded mode.
`serve --registry` runs the multi-tenant registry server instead
(DESIGN.md §16): the trained/loaded model is the bootstrap checkpoint
with tenant 0 bound, and the wire's v3 opcodes manage the rest —
LOAD server-local checkpoints, BIND tenants, stage SHADOW candidates
(promotion is refused until the candidate reproduces live traffic
bit-for-bit), PROMOTE with zero downtime, ROLLBACK, RETIRE. Knobs:
KGAG_QUOTA_RATE / KGAG_QUOTA_BURST (per-tenant token-bucket admission;
burst unset = off, burst 0 = shed everything),
KGAG_SHADOW_SAMPLE (mirror every Nth request, 0 = off),
and KGAG_CLIENT_TIMEOUT_MS (client-side read timeout).
Formats for `import` are documented in kgag_data::import: interactions
as `user<TAB>item`, KG as `head<TAB>rel<TAB>tail` (items = entities
0..M), groups as `m1,m2,...<TAB>v1,v2,...`.";

type Flags = HashMap<String, String>;

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut out = Flags::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            return Err(format!("unexpected argument {a:?}"));
        };
        if key == "json" || key == "batched" || key == "registry" {
            out.insert(key.to_owned(), "true".into());
            continue;
        }
        let Some(value) = it.next() else {
            return Err(format!("flag --{key} needs a value"));
        };
        out.insert(key.to_owned(), value.clone());
    }
    Ok(out)
}

fn scale(opts: &Flags) -> Result<Scale, String> {
    match opts.get("scale").map(String::as_str).unwrap_or("tiny") {
        "tiny" => Ok(Scale::Tiny),
        "small" => Ok(Scale::Small),
        "medium" => Ok(Scale::Medium),
        other => Err(format!("unknown scale {other:?}")),
    }
}

fn dataset(opts: &Flags) -> Result<GroupDataset, String> {
    let s = scale(opts)?;
    match opts.get("dataset").map(String::as_str).unwrap_or("rand") {
        "rand" => Ok(movielens_pair(&MovieLensConfig::at_scale(s)).1),
        "simi" => Ok(movielens_pair(&MovieLensConfig::at_scale(s)).2),
        "yelp" => Ok(yelp(&YelpConfig::at_scale(s))),
        other => Err(format!("unknown dataset {other:?}")),
    }
}

fn num_flag<T: std::str::FromStr>(opts: &Flags, key: &str) -> Result<Option<T>, String> {
    opts.get(key).map(|v| v.parse().map_err(|_| format!("--{key}: cannot parse {v:?}"))).transpose()
}

fn config(opts: &Flags) -> Result<KgagConfig, String> {
    let mut cfg = KgagConfig::default();
    if let Some(e) = num_flag::<usize>(opts, "epochs")? {
        cfg.epochs = e;
    }
    if let Some(s) = num_flag::<u64>(opts, "seed")? {
        cfg.seed = s;
    }
    if let Some(tag) = opts.get("backend") {
        cfg.backend = kgag::Backend::from_tag(tag).ok_or_else(|| {
            let tags: Vec<&str> = kgag::Backend::all().iter().map(|b| b.tag()).collect();
            format!("--backend: unknown backend {tag:?} (one of {})", tags.join(", "))
        })?;
    }
    if let Some(w) = num_flag::<f32>(opts, "ls-weight")? {
        cfg.ls_weight = w;
    }
    let errs = cfg.validate();
    if !errs.is_empty() {
        return Err(format!("invalid config: {}", errs.join("; ")));
    }
    Ok(cfg)
}

fn cmd_stats(opts: &Flags) -> Result<(), String> {
    let ds = dataset(opts)?;
    let stats = ds.stats();
    if opts.contains_key("json") {
        println!("{}", stats.to_json().to_string_pretty());
    } else {
        print!("{}", DatasetStats::table_rows(&[stats]));
    }
    Ok(())
}

fn train_and_report(ds: &GroupDataset, opts: &Flags) -> Result<Kgag, String> {
    let cfg = config(opts)?;
    let split = split_dataset(ds, 0x5eed);
    let mut model = Kgag::new(ds, &split, cfg);
    eprintln!(
        "training on {} ({} groups, {} train pairs)...",
        ds.name,
        ds.num_groups(),
        split.group.train.len()
    );
    let report = model.fit(&split);
    eprintln!(
        "done: group loss {:.4} -> {:.4}",
        report.epochs.first().map(|e| e.group).unwrap_or(0.0),
        report.epochs.last().map(|e| e.group).unwrap_or(0.0),
    );
    let ecfg = EvalConfig::default();
    let val = eval_cases(ds, &split.group, EvalBucket::Validation);
    let test = eval_cases(ds, &split.group, EvalBucket::Test);
    // --batched routes evaluation through the receptive-field-cached
    // batch scorer; the metrics are bit-identical either way (the
    // oracle test + CI stage enforce it), only the wall clock differs
    let batched = opts.contains_key("batched");
    let (val_summary, test_summary) = if batched {
        (model.evaluate_batched(&val, &ecfg), model.evaluate_batched(&test, &ecfg))
    } else {
        (model.evaluate(&val, &ecfg), model.evaluate(&test, &ecfg))
    };
    if opts.contains_key("json") {
        let payload = Json::obj(vec![
            ("dataset", ds.name.to_json()),
            ("validation", val_summary.to_json()),
            ("test", test_summary.to_json()),
        ]);
        println!("{}", payload.to_string_pretty());
    } else {
        println!("validation  {val_summary}");
        println!("test        {test_summary}");
    }
    if let Some(path) = opts.get("checkpoint") {
        std::fs::write(path, model.save_checkpoint()).map_err(|e| e.to_string())?;
        eprintln!("checkpoint written to {path}");
    }
    Ok(model)
}

fn cmd_train(opts: &Flags) -> Result<(), String> {
    let ds = dataset(opts)?;
    train_and_report(&ds, opts)?;
    Ok(())
}

fn cmd_explain(opts: &Flags) -> Result<(), String> {
    let ds = dataset(opts)?;
    let group = num_flag::<u32>(opts, "group")?.ok_or("--group is required")?;
    if group >= ds.num_groups() {
        return Err(format!("group {group} out of range ({} groups)", ds.num_groups()));
    }
    let model = train_and_report(&ds, opts)?;
    let item = match num_flag::<u32>(opts, "item")? {
        Some(v) => v,
        None => {
            // default: the group's top-ranked item over the full catalog
            let all: Vec<u32> = (0..ds.num_items).collect();
            let scores = model.score_group_items(group, &all);
            kgag_eval::top_k(&scores, 1)[0]
        }
    };
    println!("\n{}", model.explain(group, item));
    Ok(())
}

/// Load the checkpoint when it exists; otherwise train and (if a path
/// was given) persist, so repeated `--checkpoint P` runs train exactly
/// once. Shared by `serve` and `shard` — a sharded deployment's peers
/// all reconstruct the identical model this way.
fn load_or_train(ds: &GroupDataset, opts: &Flags) -> Result<Kgag, String> {
    let cfg = config(opts)?;
    let epochs = cfg.epochs;
    let split = split_dataset(ds, 0x5eed);
    let mut model = Kgag::new(ds, &split, cfg);
    match opts.get("checkpoint").filter(|p| std::path::Path::new(p.as_str()).is_file()) {
        Some(path) => {
            let bytes = std::fs::read(path).map_err(|e| format!("--checkpoint {path}: {e}"))?;
            let n = model.load_checkpoint(&bytes).map_err(|e| e.to_string())?;
            eprintln!("restored {n} tensors from {path}");
        }
        None => {
            eprintln!("no checkpoint to load; training {epochs} epochs on {} first...", ds.name);
            model.fit(&split);
            if let Some(path) = opts.get("checkpoint") {
                std::fs::write(path, model.save_checkpoint()).map_err(|e| e.to_string())?;
                eprintln!("checkpoint written to {path}");
            }
        }
    }
    Ok(model)
}

/// Spawn the stdin watcher: closing stdin (or typing "quit") triggers
/// the shutdown token — works under pipes, terminals and process
/// supervisors alike.
fn shutdown_on_stdin(token: &kgag_serve::ShutdownToken) {
    let token = token.clone();
    std::thread::spawn(move || {
        let mut line = String::new();
        loop {
            line.clear();
            match std::io::stdin().read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) if line.trim() == "quit" => break,
                Ok(_) => {}
            }
        }
        token.trigger();
    });
}

fn cmd_serve(opts: &Flags) -> Result<(), String> {
    use kgag_serve::{serve_tcp_dynamic, ServeConfig, ShutdownToken};
    if opts.contains_key("shards") {
        return cmd_serve_sharded(opts);
    }
    if opts.contains_key("registry") {
        return cmd_serve_registry(opts);
    }
    let ds = dataset(opts)?;
    let model = load_or_train(&ds, opts)?;
    // the scorer doubles as the lifecycle backend: the same
    // server socket accepts create/join/leave mutations and scores
    // against the live group table (DESIGN.md §13)
    let scorer = model.batch_scorer();
    match scorer.cache_bytes() {
        Some(b) => eprintln!("receptive-field cache resident: {:.1} KiB", b as f64 / 1024.0),
        None => eprintln!("receptive-field cache disabled"),
    }
    eprintln!("lifecycle enabled: {} groups live", scorer.num_groups());
    let serve_cfg = ServeConfig::from_env();
    let addr = opts.get("addr").cloned().unwrap_or_else(|| "127.0.0.1:0".into());
    let token = ShutdownToken::new();
    shutdown_on_stdin(&token);
    serve_tcp_dynamic(&scorer, &scorer, &serve_cfg, &addr, &token, |bound| {
        println!("serving on {bound}");
        eprintln!(
            "batch window {:?}, max batch {}, queue {}, workers {} — close stdin or type \
             \"quit\" to stop",
            serve_cfg.batch_window,
            serve_cfg.max_batch,
            serve_cfg.queue_capacity,
            serve_cfg.workers
        );
    })
    .map_err(|e| e.to_string())?;
    eprintln!(
        "drained: {} responses in {} batches (mean fuse {:.2} requests), {} rejected, {} missed \
         deadlines",
        kgag_obs::counter("serve.responses").get(),
        kgag_obs::counter("serve.batches").get(),
        kgag_obs::histogram("serve.batch_requests").mean(),
        kgag_obs::counter("serve.requests_rejected").get(),
        kgag_obs::counter("serve.deadline_missed").get(),
    );
    eprintln!(
        "lifecycle: {} created, {} joins, {} leaves, {} cache entries evicted ({} groups final)",
        kgag_obs::counter("lifecycle.groups_created").get(),
        kgag_obs::counter("lifecycle.joins").get(),
        kgag_obs::counter("lifecycle.leaves").get(),
        kgag_obs::counter("lifecycle.cache_evicted").get(),
        scorer.num_groups(),
    );
    Ok(())
}

/// `kgag serve --shards a,b,…` — the scatter-gather router (DESIGN.md
/// §15). Holds only the dense parameters; entity/relation rows and
/// adjacency live on the shard peers, which must be running the same
/// dataset/config/checkpoint (`kgag shard`). Scores are bit-identical
/// to single-node serving; shard failures surface as
/// typed per-request errors. Lifecycle mutations are not available in
/// sharded mode.
fn cmd_serve_sharded(opts: &Flags) -> Result<(), String> {
    use kgag_serve::{
        serve_tcp_try, ServeConfig, ShardConfig, ShardPool, ShardedScorer, ShutdownToken,
    };
    let ds = dataset(opts)?;
    let model = load_or_train(&ds, opts)?;
    let addrs: Vec<String> = opts
        .get("shards")
        .expect("checked by cmd_serve")
        .split(',')
        .map(|a| a.trim().to_owned())
        .filter(|a| !a.is_empty())
        .collect();
    if addrs.is_empty() {
        return Err("--shards needs at least one HOST:PORT".into());
    }
    let shard_cfg = ShardConfig::from_env();
    let pool = ShardPool::connect(&addrs, &shard_cfg).map_err(|e| format!("--shards: {e}"))?;
    let core = model.router_core();
    eprintln!(
        "router over {} shard(s): {} entities, {} relation slots, timeout {:?}, queue {}",
        pool.count(),
        core.num_entities(),
        core.num_relation_slots(),
        shard_cfg.timeout,
        shard_cfg.queue,
    );
    let scorer = ShardedScorer::new(core, pool);
    let serve_cfg = ServeConfig::from_env();
    let addr = opts.get("addr").cloned().unwrap_or_else(|| "127.0.0.1:0".into());
    let token = ShutdownToken::new();
    shutdown_on_stdin(&token);
    serve_tcp_try(&scorer, &serve_cfg, &addr, &token, |bound| {
        println!("serving on {bound}");
        eprintln!("sharded router up — close stdin or type \"quit\" to stop");
    })
    .map_err(|e| e.to_string())?;
    eprintln!(
        "drained: {} responses in {} batches, {} rejected",
        kgag_obs::counter("serve.responses").get(),
        kgag_obs::counter("serve.batches").get(),
        kgag_obs::counter("serve.requests_rejected").get(),
    );
    Ok(())
}

/// `kgag serve --registry` — the multi-tenant registry server
/// (DESIGN.md §16). The trained/loaded model becomes the bootstrap
/// entry with tenant 0 bound to it; everything else happens over the
/// wire: LOAD more checkpoints by server-local path (rebuilt over the
/// same dataset through the model factory), BIND tenants, stage
/// SHADOW candidates that must reproduce live traffic bit-for-bit
/// before PROMOTE swaps them in with zero downtime, ROLLBACK, RETIRE.
/// Admission control and shadow sampling come from KGAG_QUOTA_RATE /
/// KGAG_QUOTA_BURST / KGAG_SHADOW_SAMPLE.
fn cmd_serve_registry(opts: &Flags) -> Result<(), String> {
    use kgag_serve::{
        serve_tcp_registry, ModelFactory, RegistryConfig, RegistryServer, ShutdownToken,
    };
    let ds = dataset(opts)?;
    let model = load_or_train(&ds, opts)?;
    let bytes = model.save_checkpoint();
    let hash = kgag::checkpoint_hash(&bytes);
    drop(model); // the factory rebuilds it below — one construction path
    let cfg = config(opts)?;
    let factory: ModelFactory = {
        let ds = ds.clone();
        Box::new(move |ckpt_bytes, ckpt_hash| {
            let split = split_dataset(&ds, 0x5eed);
            let mut m = Kgag::new(&ds, &split, cfg.clone());
            m.load_checkpoint(ckpt_bytes).map_err(|e| e.to_string())?;
            Ok(kgag::RegistryModel::new(kgag::Scorer::from_env(m), ckpt_hash))
        })
    };
    let entry = factory(&bytes, hash)?;
    let rcfg = RegistryConfig::from_env();
    let server = RegistryServer::new(rcfg.clone(), factory);
    let resident = server.install(entry).map_err(|e| e.to_string())?;
    server.registry().bind(0, resident).map_err(|e| e.to_string())?;
    let burst = match rcfg.quota_burst {
        Some(b) => b.to_string(),
        None => "unlimited (admission off)".into(),
    };
    eprintln!(
        "registry: bootstrap checkpoint {resident:016x} resident, tenant 0 bound; quota \
         rate {} burst {burst}, shadow sample {}",
        rcfg.quota_rate, rcfg.shadow_sample
    );
    let addr = opts.get("addr").cloned().unwrap_or_else(|| "127.0.0.1:0".into());
    let token = ShutdownToken::new();
    shutdown_on_stdin(&token);
    serve_tcp_registry(&server, &addr, &token, |bound| {
        println!("serving on {bound} (registry)");
        eprintln!("close stdin or type \"quit\" to stop");
    })
    .map_err(|e| e.to_string())?;
    eprintln!(
        "drained: {} responses; registry: {} loads, {} promotions, {} rollbacks, {} \
         retirements, shadow {} clean / {} mismatch, {} models resident",
        kgag_obs::counter("serve.responses").get(),
        kgag_obs::counter("registry.loads").get(),
        kgag_obs::counter("registry.promotions").get(),
        kgag_obs::counter("registry.rollbacks").get(),
        kgag_obs::counter("registry.retirements").get(),
        kgag_obs::counter("registry.shadow_clean").get(),
        kgag_obs::counter("registry.shadow_mismatch").get(),
        server.registry().num_models(),
    );
    Ok(())
}

/// `kgag shard --index I --count N` — one shard peer: its contiguous
/// slice of the embedding tables plus the adjacency rows needed for
/// keyed neighbour draws, served over the shard wire protocol until
/// stdin closes. All peers and the router must load the same model
/// (same dataset/config/checkpoint).
fn cmd_shard(opts: &Flags) -> Result<(), String> {
    use kgag_serve::{serve_shard, ShutdownToken};
    let index = num_flag::<usize>(opts, "index")?.ok_or("--index is required")?;
    let count = num_flag::<usize>(opts, "count")?.ok_or("--count is required")?;
    if count == 0 || index >= count {
        return Err(format!("--index {index} out of --count {count}"));
    }
    let ds = dataset(opts)?;
    let model = load_or_train(&ds, opts)?;
    let state = model.shard_state(index, count);
    eprintln!(
        "shard {index}/{count}: entities {:?}, relations {:?}, ~{:.1} KiB resident",
        state.entity_range(),
        state.relation_range(),
        state.approx_bytes() as f64 / 1024.0,
    );
    let addr = opts.get("addr").cloned().unwrap_or_else(|| "127.0.0.1:0".into());
    let token = ShutdownToken::new();
    shutdown_on_stdin(&token);
    serve_shard(&state, &addr, &token, |bound| {
        println!("shard {index}/{count} serving on {bound}");
        eprintln!("close stdin or type \"quit\" to stop");
    })
    .map_err(|e| e.to_string())
}

fn cmd_import(opts: &Flags) -> Result<(), String> {
    let name = opts.get("name").cloned().unwrap_or_else(|| "imported".into());
    let users = num_flag::<u32>(opts, "users")?.ok_or("--users is required")?;
    let items = num_flag::<u32>(opts, "items")?.ok_or("--items is required")?;
    let read = |key: &str| -> Result<String, String> {
        let path = opts.get(key).ok_or(format!("--{key} is required"))?;
        std::fs::read_to_string(path).map_err(|e| format!("--{key} {path}: {e}"))
    };
    let ds = kgag_data::import::load_dataset(
        &name,
        users,
        items,
        &read("interactions")?,
        &read("kg")?,
        &read("groups")?,
    )
    .map_err(|e| e.to_string())?;
    eprintln!(
        "loaded {}: {} users, {} items, {} groups (size {}), {} KG triples",
        ds.name,
        ds.num_users,
        ds.num_items,
        ds.num_groups(),
        ds.group_size,
        ds.kg.len()
    );
    train_and_report(&ds, opts)?;
    Ok(())
}
