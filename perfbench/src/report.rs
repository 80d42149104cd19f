//! Metric assembly and the result line.
//!
//! End-to-end metrics come from the plain (untraced) phase; per-layer
//! metrics from the traced phase and the layer probes. The names and
//! units here are the ones `BENCHMARK.json` lists — a test keeps the
//! two in step.

use crate::client::{PhaseLog, Record};
use crate::cost::{self, Shapes};
use crate::fingerprint::Machine;
use crate::ops::{Kind, Op};
use crate::probe::Probes;
use crate::stats::{mean, Summary};
use crate::trace::CallSpan;
use crate::workload::{Front, Inputs, RunOutput, Traced};
use kgag::Kgag;
use kgag_testkit::json::Json;

/// End-to-end metrics, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("score_p50_ms", "ms"),
    ("score_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("wire.req_bytes", "B"),
    ("wire.resp_bytes", "B"),
    ("batcher.wait_us", "us"),
    ("batcher.reqs_per_call", "count"),
    ("frontdoor.out_us", "us"),
    ("engine.call_us_p50", "us"),
    ("engine.call_us_tail", "us"),
    ("engine.cands_per_call", "count"),
    ("engine.ns_per_cand", "ns"),
    ("engine.bytes_per_cand", "B"),
    ("engine.flops_per_cand", "flop"),
    ("engine.gbps", "GB/s"),
    ("engine.gflops", "GFLOP/s"),
    ("rf.field_ns_per_target", "ns"),
    ("rf.cache_mb", "MB"),
    ("rf.build_s", "s"),
    ("lifecycle.apply_us_p50", "us"),
    ("lifecycle.apply_us_tail", "us"),
    ("rf.invalidate_us", "us"),
    ("rf.repair_us", "us"),
    ("rf.evicted_per_op", "count"),
    ("router.call_us", "us"),
    ("shard.rpcs_per_call", "count"),
    ("shard.rpc_us_p50", "us"),
    ("shard.rpc_us_tail", "us"),
    ("shard.rows_per_cand", "count"),
    ("shard.bytes_per_cand", "B"),
    ("shard.draw_fetch_ratio", "ratio"),
    ("setup.model_s", "s"),
    ("setup.scorer_s", "s"),
    ("setup.shard_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// Model facts the working-set and cost figures are computed from.
#[derive(Clone, Copy, Debug)]
pub struct ModelFacts {
    pub entities: u64,
    pub relation_slots: u64,
    pub graph_edges: u64,
    pub shapes: Shapes,
}

impl ModelFacts {
    pub fn of(model: &Kgag) -> ModelFacts {
        let c = model.config();
        let ckg = model.collaborative_kg();
        ModelFacts {
            entities: ckg.num_entities() as u64,
            relation_slots: ckg.num_relation_slots() as u64,
            graph_edges: ckg.graph().num_edges() as u64,
            shapes: Shapes {
                dim: c.dim as u64,
                depth: c.layers as u32,
                k: c.eval_neighbor_k.unwrap_or(c.neighbor_k) as u64,
                group_size: model.group_size() as u64,
                peer_influence: c.use_pi && model.group_size() >= 2,
                residual: c.residual,
            },
        }
    }

    /// Bytes the serving path touches at random: embedding and relation
    /// tables, the graph's CSR arrays and the receptive-field cache pair
    /// (member and item side, `depth` levels of `K` children and `K`
    /// relations per entity).
    pub fn working_set_bytes(&self) -> u64 {
        let s = &self.shapes;
        let tables = (self.entities + self.relation_slots) * s.dim * 4;
        let graph = (self.entities + 1 + 2 * self.graph_edges) * 4;
        let rf_pair = 2 * s.depth as u64 * self.entities * s.k * 8;
        tables + graph + rf_pair
    }
}

/// The request/engine/reply split of traced score requests.
#[derive(Clone, Debug, Default)]
pub struct Attribution {
    pub wait_us: Vec<f64>,
    pub out_us: Vec<f64>,
    /// Traced score requests with no enclosing scorer call.
    pub unmatched: usize,
    pub matched: usize,
}

/// Match every traced score request to the scorer call that scored it
/// and split its round trip into `batcher.wait` (client send → call
/// start), the shared `engine.call`, and `frontdoor.out` (call end →
/// reply decoded). A client has one request in flight, so exactly one
/// call scored it inside its round trip. The three stages are cut at
/// the call's ends, so they sum to the round trip by construction; what
/// can fail is the match.
pub fn attribute(records: &[Record], calls: &[CallSpan]) -> Attribution {
    let mut a = Attribution::default();
    for r in records.iter().filter(|r| r.failure.is_none()) {
        let Op::Score { group, items, .. } = &r.op else { continue };
        let Some(call) =
            calls.iter().find(|c| c.start >= r.sent && c.end <= r.done && c.scored(*group, items))
        else {
            a.unmatched += 1;
            continue;
        };
        let (wait, out) = (call.start - r.sent, r.done - call.end);
        a.matched += 1;
        a.wait_us.push(wait.as_secs_f64() * 1e6);
        a.out_us.push(out.as_secs_f64() * 1e6);
    }
    a
}

/// The printed result: report lines, then the JSON result line.
pub struct Output {
    pub lines: Vec<String>,
    pub json: String,
}

fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.p50)
}

/// `json` on one line: the in-repo writer only pretty-prints, and its
/// line breaks only ever separate tokens (strings escape theirs).
fn one_line(json: &Json) -> String {
    json.to_string_pretty().lines().map(str::trim_start).collect()
}

fn opt(v: Option<u64>) -> Json {
    v.map_or(Json::Null, Json::UInt)
}

fn describe(label: &str, s: Option<Summary>) -> String {
    match s {
        Some(s) => format!("{label}: n={} p50={:.4} {}={:.4}", s.n, s.p50, s.tail_label(), s.tail),
        None => format!("{label}: no samples"),
    }
}

fn failure_lines(phase: &PhaseLog, label: &str) -> Vec<String> {
    Kind::ALL
        .iter()
        .filter_map(|&k| {
            let of_kind: Vec<&Record> = phase.records.iter().filter(|r| r.kind() == k).collect();
            if of_kind.is_empty() {
                return None;
            }
            let mut reasons: Vec<&str> =
                of_kind.iter().filter_map(|r| r.failure.as_deref()).collect();
            let failed = reasons.len();
            reasons.sort_unstable();
            reasons.dedup();
            Some(format!(
                "{label} {}: attempted={} failed={} fail_ratio={:.6}{}",
                k.name(),
                of_kind.len(),
                failed,
                failed as f64 / of_kind.len() as f64,
                if reasons.is_empty() {
                    String::new()
                } else {
                    format!(" ({})", reasons.join(", "))
                },
            ))
        })
        .collect()
}

fn end_to_end(out: &RunOutput, lines: &mut Vec<String>) -> Vec<f64> {
    let plain = &out.plain;
    let rtts = plain.rtts_ms(Kind::Score);
    let score = Summary::of(&rtts);
    let (p50, blocks) = crate::stats::quiet_percentile(&rtts, 500).unwrap_or((0.0, 0));
    let (p90, _) = crate::stats::quiet_percentile(&rtts, 900).unwrap_or((0.0, 0));
    let mutations: Vec<f64> =
        [Kind::Join, Kind::Leave].iter().flat_map(|&k| plain.rtts_ms(k)).collect();
    lines.push(format!("# whole run {}", describe("score_ms", score)));
    lines.push(format!(
        "# score_p50_ms / score_p90_ms: percentile {} over {blocks} block(s) of {} requests in \
         send order of each block's p50 / p90 = {p50:.4} / {p90:.4}",
        crate::stats::QUIET_PERMILLE as f64 / 10.0,
        crate::stats::BLOCK
    ));
    let mut sorted = rtts;
    sorted.sort_by(f64::total_cmp);
    if !sorted.is_empty() {
        let ventiles: Vec<String> =
            (1..20).map(|i| format!("{:.3}", crate::stats::percentile(&sorted, i * 50))).collect();
        lines.push(format!("# score_ms p5..p95 in steps of 5: {}", ventiles.join(" ")));
    }
    if !mutations.is_empty() {
        lines.push(format!(
            "# {} (mut_p50_ms / mut_p99_ms)",
            describe("mut_ms", Summary::of(&mutations))
        ));
    }
    let attempted = plain.records.len();
    let completed = attempted - plain.failed();
    let done_s: Vec<f64> = plain
        .records
        .iter()
        .filter(|r| r.failure.is_none())
        .map(|r| (r.done - plain.start).as_secs_f64())
        .collect();
    let rate = crate::stats::quiet_rate(&done_s, plain.seconds());
    lines.push(format!(
        "# ops_per_s: percentile {} over windows of {} completions = {rate:.2}; whole run {:.2}",
        100.0 - crate::stats::QUIET_PERMILLE as f64 / 10.0,
        crate::stats::BLOCK,
        completed as f64 / plain.seconds().max(f64::MIN_POSITIVE)
    ));
    let setup: Vec<f64> = out.setups.iter().map(|s| s.total).collect();
    lines.push(format!("# setup_s per repetition: {setup:.4?}"));
    vec![
        median(&setup),
        p50,
        p90,
        rate,
        completed as f64 / attempted.max(1) as f64,
        plain.peak_rss.unwrap_or(0) as f64 / (1u64 << 20) as f64,
    ]
}

fn per_layer(
    inputs: &Inputs<'_>,
    out: &RunOutput,
    traced: &Traced,
    p: &Probes,
    lines: &mut Vec<String>,
) -> Vec<f64> {
    let shapes = out.facts.shapes;
    let attr = attribute(&traced.phase.records, &traced.seams.calls);
    lines.push(format!(
        "# stage split: {} of {} traced score requests matched to a scorer call inside their \
         round trip, {} unmatched",
        attr.matched,
        attr.matched + attr.unmatched,
        attr.unmatched
    ));
    let calls = &traced.seams.calls;
    let call_us: Vec<f64> = calls.iter().map(|c| (c.end - c.start).as_secs_f64() * 1e6).collect();
    let call_ns: f64 = calls.iter().map(|c| (c.end - c.start).as_nanos() as f64).sum();
    let cands: usize = calls.iter().map(|c| c.cands).sum();
    let engine = Summary::of(&call_us);
    lines.push(format!("# {}", describe("engine.call_us", engine)));
    let bytes = cost::bytes_per_candidate(&shapes) as f64;
    let flops = cost::flops_per_candidate(&shapes) as f64;
    lines.push(format!(
        "# engine bytes/flops per candidate computed from shapes {shapes:?} at the nominal \
         roster size: {bytes} B, {flops} flop"
    ));
    let apply_us: Vec<f64> = p.apply_ns.iter().map(|&n| n as f64 / 1e3).collect();
    let apply = Summary::of(&apply_us);
    lines.push(format!("# {}", describe("lifecycle.apply_us", apply)));
    let rpc_us: Vec<f64> = p.fetch.call_ns.iter().map(|&n| n as f64 / 1e3).collect();
    let rpc = Summary::of(&rpc_us);
    lines.push(format!("# {}", describe("shard.rpc_us", rpc)));
    let router_us: Vec<f64> = p.router_ns.iter().map(|&n| n as f64 / 1e3).collect();
    let shard_cands = p.shard_cands.max(1) as f64;
    let draws_needed = shard_cands * cost::draws_per_candidate(&shapes) as f64;
    let plain_p50 = median(&out.plain.rtts_ms(Kind::Score));
    let traced_p50 = median(&traced.phase.rtts_ms(Kind::Score));
    let setups = &out.setups;
    let shard_s = match setups.iter().filter_map(|s| s.shard).collect::<Vec<f64>>() {
        v if v.is_empty() => p.shard_setup_s.unwrap_or(0.0),
        v => median(&v),
    };
    let source = |served: bool| if served { "served run" } else { "direct probe" };
    lines.push(format!(
        "# layer sources on {}: lifecycle from the {}, shard from the {}",
        inputs.workload.name,
        source(inputs.workload.front == Front::Dynamic),
        source(p.shard_setup_s.is_none())
    ));
    lines.push(format!(
        "# rf.cache_mb: cache_bytes() of the {} at set-up",
        if inputs.workload.front == Front::Sharded {
            "single-node scorer (the router holds a draw memo, not receptive-field tables)"
        } else {
            "serving scorer"
        }
    ));
    let or0 = |s: Option<Summary>, f: fn(&Summary) -> f64| s.as_ref().map_or(0.0, f);
    vec![
        p.wire_encode_ns,
        p.wire_decode_ns,
        p.wire_req_bytes,
        p.wire_resp_bytes,
        median(&attr.wait_us),
        mean(&calls.iter().map(|c| c.cases.len() as f64).collect::<Vec<_>>()),
        median(&attr.out_us),
        or0(engine, |s| s.p50),
        or0(engine, |s| s.tail),
        cands as f64 / calls.len().max(1) as f64,
        call_ns / cands.max(1) as f64,
        bytes,
        flops,
        bytes * cands as f64 / call_ns.max(1.0),
        flops * cands as f64 / call_ns.max(1.0),
        p.rf_field_ns_per_target,
        out.cache_bytes as f64 / 1e6,
        p.rf_build_s,
        or0(apply, |s| s.p50),
        or0(apply, |s| s.tail),
        median(&p.rf_invalidate_us),
        median(&p.rf_repair_us),
        mean(&p.rf_evicted),
        median(&router_us),
        p.fetch.rpcs as f64 / p.shard_calls.max(1) as f64,
        or0(rpc, |s| s.p50),
        or0(rpc, |s| s.tail),
        p.fetch.rows as f64 / shard_cands,
        p.fetch.bytes as f64 / shard_cands,
        p.fetch.draws as f64 / draws_needed,
        median(&setups.iter().map(|s| s.model).collect::<Vec<_>>()),
        median(&setups.iter().map(|s| s.scorer).collect::<Vec<_>>()),
        shard_s,
        traced_p50 / plain_p50.max(f64::MIN_POSITIVE),
    ]
}

fn fingerprint_line(inputs: &Inputs<'_>, out: &RunOutput, machine: &Machine) -> String {
    let ws = out.facts.working_set_bytes();
    let config = out.config.iter().map(|(k, v)| (*k, Json::Str(v.clone()))).collect();
    let fingerprint = Json::obj(vec![
        ("workload", Json::Str(inputs.workload.name.to_owned())),
        ("seed", Json::UInt(inputs.seed)),
        ("git_sha", Json::Str(machine.git_sha.clone())),
        ("nproc", Json::UInt(machine.nproc as u64)),
        ("cpu_model", Json::Str(machine.cpu_model.clone())),
        ("l2_bytes", opt(machine.l2_bytes)),
        ("l3_bytes", opt(machine.l3_bytes)),
        ("entities", Json::UInt(out.facts.entities)),
        ("working_set_bytes", Json::UInt(ws)),
        (
            "working_set_over_l3",
            machine.l3_bytes.map_or(Json::Null, |l3| Json::Float(ws as f64 / l3 as f64)),
        ),
        ("config", Json::obj(config)),
    ]);
    one_line(&Json::obj(vec![("fingerprint", fingerprint)]))
}

/// Assemble the report lines and the result line of a run.
pub fn build(inputs: &Inputs<'_>, out: &RunOutput, probes: Option<&Probes>, trace: bool) -> Output {
    let mut lines = vec![fingerprint_line(inputs, out, &Machine::probe())];
    let phases: Vec<&PhaseLog> =
        std::iter::once(&out.plain).chain(out.traced.as_ref().map(|t| &t.phase)).collect();
    for (phase, label) in phases.iter().zip(["# plain", "# traced"]) {
        lines.extend(failure_lines(phase, label));
    }
    let c = out.check;
    lines.push(format!(
        "# correctness: {} sampled replies compared bit for bit with the offline scorer, {} \
         mismatched, {} replies without one finite score per candidate",
        c.compared, c.mismatched, c.malformed
    ));
    let mut correct = c.passed();
    let (names, values) = match (trace, &out.traced, probes) {
        (true, Some(traced), Some(p)) => {
            let values = per_layer(inputs, out, traced, p, &mut lines);
            let attr = attribute(&traced.phase.records, &traced.seams.calls);
            correct &= attr.unmatched == 0 && attr.matched > 0;
            (&PER_LAYER[..], values)
        }
        _ => (&END_TO_END[..], end_to_end(out, &mut lines)),
    };
    correct &= values.iter().all(|v| v.is_finite());
    let metrics = names
        .iter()
        .zip(&values)
        .map(|(&(name, unit), &v)| {
            let v = if v.is_finite() { v } else { 0.0 };
            (name, Json::obj(vec![("value", Json::Float(v)), ("unit", Json::Str(unit.to_owned()))]))
        })
        .collect();
    let attempted: usize = phases.iter().map(|p| p.records.len()).sum();
    let failed: usize = phases.iter().map(|p| p.failed()).sum();
    let json = one_line(&Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::UInt(attempted as u64)),
        ("failed", Json::UInt(failed as u64)),
        ("metrics", Json::obj(metrics)),
    ]));
    Output { lines, json }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = Json::parse(&text).expect("valid JSON");
        for (section, expected) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])]
        {
            let listed: Vec<(String, String)> = doc
                .get(section)
                .and_then(|s| s.as_arr())
                .expect("metric section")
                .iter()
                .map(|m| {
                    let field =
                        |k| m.get(k).and_then(|v| v.as_str()).expect("name and unit").to_owned();
                    (field("name"), field("unit"))
                })
                .collect();
            let want: Vec<(String, String)> =
                expected.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(listed, want, "{section}");
        }
    }

    #[test]
    fn requests_match_the_call_that_scored_them() {
        let t = Instant::now();
        let at = |us| t + Duration::from_micros(us);
        let record = |client, group, first, sent, done| Record {
            client,
            op: Op::Score { group, items: vec![first, 9] },
            sent: at(sent),
            done: at(done),
            failure: None,
            scores: Some(vec![0.5, 0.5]),
        };
        // two clients fused into one call, a third request in its own call
        let records =
            [record(0, 2, 7, 0, 100), record(1, 3, 8, 10, 110), record(0, 4, 5, 120, 200)];
        let call = |start, end, cases: Vec<(u32, usize, u32)>| CallSpan {
            start: at(start),
            end: at(end),
            cands: cases.iter().map(|c| c.1).sum(),
            cases,
        };
        let calls = [call(20, 80, vec![(2, 2, 7), (3, 2, 8)]), call(150, 190, vec![(4, 2, 5)])];
        let a = attribute(&records, &calls);
        assert_eq!((a.matched, a.unmatched), (3, 0));
        assert_eq!(a.wait_us, [20.0, 10.0, 30.0]);
        assert_eq!(a.out_us, [20.0, 30.0, 10.0]);
        // a request no call scored inside its round trip is unmatched
        let late = [record(1, 5, 1, 0, 50)];
        assert_eq!(attribute(&late, &calls).unmatched, 1);
    }

    #[test]
    fn working_set_counts_tables_graph_and_cache_pair() {
        let facts = ModelFacts {
            entities: 10,
            relation_slots: 3,
            graph_edges: 20,
            shapes: Shapes {
                dim: 4,
                depth: 2,
                k: 2,
                group_size: 3,
                peer_influence: true,
                residual: true,
            },
        };
        // tables (10 + 3)·4·4 = 208, graph (11 + 40)·4 = 204, cache pair 2·2·10·2·8 = 640
        assert_eq!(facts.working_set_bytes(), 208 + 204 + 640);
    }

    #[test]
    fn one_line_keeps_the_document() {
        let doc = Json::obj(vec![
            ("a", Json::Str("x\ny  z".to_owned())),
            ("b", Json::obj(vec![("c", Json::Float(1.25)), ("d", Json::Arr(vec![Json::UInt(3)]))])),
        ]);
        let line = one_line(&doc);
        assert!(!line.contains('\n'));
        assert_eq!(Json::parse(&line).unwrap(), doc);
    }
}
