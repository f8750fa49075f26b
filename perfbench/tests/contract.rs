//! Self-tests of the benchmark against its contract: the metric
//! catalogue matches `BENCHMARK.json`, and a small-scale run of every
//! workload prints exactly the catalogue with every output check
//! passing.

use colt_core::json::{self, Json};
use colt_perfbench::metrics::{MetricDef, END_TO_END, PER_LAYER};
use colt_perfbench::pass::Workload;
use std::process::Command;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn listed(doc: &Json, key: &str) -> Vec<(String, String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a {key} array"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

fn catalogue(defs: &[MetricDef]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|d| {
            (
                d.name.to_string(),
                d.unit.to_string(),
                d.better.label().to_string(),
            )
        })
        .collect()
}

#[test]
fn catalogue_matches_benchmark_json() {
    let doc = benchmark_json();
    assert_eq!(listed(&doc, "end_to_end"), catalogue(&END_TO_END));
    assert_eq!(listed(&doc, "per_layer"), catalogue(&PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads array")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    let setup = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .and_then(|ms| {
            ms.iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"))
        })
        .expect("setup_s is an end-to-end metric");
    let largest = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .expect("end_to_end array")
        .iter()
        .filter_map(|m| m.get("bound").and_then(Json::as_f64))
        .fold(0.0, f64::max);
    assert_eq!(
        setup.get("bound").and_then(Json::as_f64),
        Some(largest),
        "setup_s has the largest bound"
    );
}

/// Run the benchmark binary and return its exit status and stdout.
fn perfbench(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    (
        out.status.code(),
        String::from_utf8(out.stdout).expect("stdout is UTF-8"),
    )
}

fn smoke(workload: Workload, trace: &str) -> Json {
    let (code, stdout) = perfbench(&[
        "--workload",
        workload.name(),
        "--seed",
        "3",
        "--seconds",
        "0.2",
        "--trace",
        trace,
        "--scale",
        "0.004",
    ]);
    assert_eq!(
        code,
        Some(0),
        "{} --trace {trace} exits 0:\n{stdout}",
        workload.name()
    );
    let last = stdout.lines().last().expect("a result line");
    json::parse(last).unwrap_or_else(|e| panic!("result line parses ({e}): {last}"))
}

fn check_result(result: &Json, defs: &[MetricDef], what: &str) {
    assert_eq!(
        result.get("correct"),
        Some(&Json::Bool(true)),
        "{what}: outputs correct"
    );
    assert_eq!(
        result.get("failed").and_then(Json::as_u64),
        Some(0),
        "{what}: ops_failed_frac is 0"
    );
    assert!(
        result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1,
        "{what}: attempted"
    );
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("{what}: metrics object")
    };
    let printed: Vec<(&str, &str)> = metrics
        .iter()
        .map(|(name, m)| {
            (
                name.as_str(),
                m.get("unit").and_then(Json::as_str).unwrap_or_default(),
            )
        })
        .collect();
    let expected: Vec<(&str, &str)> = defs.iter().map(|d| (d.name, d.unit)).collect();
    assert_eq!(
        printed, expected,
        "{what}: printed metrics are the catalogue"
    );
    for (name, m) in metrics {
        let v = m.get("value").and_then(Json::as_f64);
        assert!(
            v.is_some_and(f64::is_finite),
            "{what}: {name} is a finite number"
        );
    }
}

#[test]
fn every_workload_runs_correctly_at_small_scale() {
    for w in Workload::ALL {
        let e2e = smoke(w, "0");
        check_result(&e2e, &END_TO_END, &format!("{} --trace 0", w.name()));
        for d in END_TO_END {
            let v = e2e
                .get("metrics")
                .and_then(|m| m.get(d.name))
                .and_then(|m| m.get("value"));
            assert!(
                v.and_then(Json::as_f64).is_some_and(|v| v > 0.0),
                "{}: {} is positive",
                w.name(),
                d.name
            );
        }
        let layers = smoke(w, "1");
        check_result(&layers, &PER_LAYER, &format!("{} --trace 1", w.name()));
        let frac = layers
            .get("metrics")
            .and_then(|m| m.get("bench.ops_failed_frac"))
            .and_then(|m| m.get("value"));
        assert_eq!(frac.and_then(Json::as_f64), Some(0.0));
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &[][..],
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "stable",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "stable",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ][..],
    ] {
        let (code, stdout) = perfbench(args);
        assert_eq!(code, Some(2), "{args:?}");
        assert!(stdout.is_empty(), "{args:?} printed {stdout}");
    }
}
