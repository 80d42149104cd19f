//! The serving benchmark: closed-loop TCP workloads over the real front
//! doors, with per-layer attribution from a separate traced run.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload rank_large --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones
//! (see `perfbench/README.md` for the catalogue). Lines before it are a
//! human-readable report and a fingerprint line.

mod client;
mod cost;
mod fingerprint;
mod ops;
mod probe;
mod report;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;

struct Args {
    workload: &'static workload::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::find(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("seconds must be in (0, 120], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let overrides = fingerprint::kgag_overrides(std::env::vars());
    if !overrides.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set; the benchmark measures the default \
             configuration",
            overrides.join(", ")
        );
        return ExitCode::from(2);
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workload::WORKLOADS.map(|w| w.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let (ds, split) = w.catalog.generate();
    let inputs = workload::Inputs { workload: w, seed: args.seed, ds, split };
    let (out, probes) = workload::run(&inputs, args.seconds, args.trace, |model, traced| {
        probe::run(model, &inputs, traced)
    });
    let result = report::build(&inputs, &out, probes.as_ref(), args.trace);
    for line in &result.lines {
        println!("{line}");
    }
    println!("{}", result.json);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn args_parse_and_validate() {
        let a = parse("--workload probe_small --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!((a.workload.name, a.seed, a.seconds, a.trace), ("probe_small", 7, 3.0, true));
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload rank_large").is_err());
        assert!(parse("--workload rank_large --seed 1 --trace 2").is_err());
        assert!(parse("--workload rank_large --seed 1 --seconds 0").is_err());
    }
}
