//! `perfbench --workload <stable|shifting|ingest> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints human-readable lines, then one JSON result line last:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! `--seed` seeds the generated data set; the query stream has its own
//! seed, `--query-seed` (default 42). `--scale <f>` overrides the data
//! scale (default 0.025) for smoke runs.

use colt_perfbench::bench::{self, Options, QUERY_SEED};
use colt_perfbench::pass::Workload;
use colt_workload::DEFAULT_SCALE;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <stable|shifting|ingest> --seed <n> --seconds <s> \
                     --trace <0|1> [--query-seed <n>] [--scale <f>]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut scale, mut query_seed) =
        (None, None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or(bad("unknown workload"))?),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an unsigned integer"))?,
                )
            }
            "--query-seed" => {
                query_seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an unsigned integer"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--scale" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 1.0) {
                    return Err(bad("expected a scale in (0, 1]"));
                }
                scale = Some(s);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let trace = trace.ok_or("--trace is required")?;
    let spans = format!("spans-{}.jsonl", workload.name());
    Ok(Options {
        workload,
        seed: seed.ok_or("--seed is required")?,
        query_seed: query_seed.unwrap_or(QUERY_SEED),
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        scale: scale.unwrap_or(DEFAULT_SCALE),
        trace_out: trace.then(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(spans)
        }),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match bench::run(&opts) {
        Ok(report) => {
            for line in &report.notes {
                println!("# {line}");
            }
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
