//! One benchmark run: set-up, warm-up, output checks, timed passes for
//! the requested seconds, and the metrics they yield.

use crate::host::{self, RefKernel};
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::pass::{Fixture, Pass, PassOut, QueryOutcome, Work, Workload, Writes};
use crate::stats::{self, median, percentile};
use crate::trace::{self, Tracer};
use colt_harness::{Experiment, Policy};
use colt_workload::{generate, TpchData};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Data generations timed at set-up; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

/// Default seed of the query stream: the exhibits' default seed, so a
/// run's stream is the one the paper figures are drawn from.
pub const QUERY_SEED: u64 = 42;

/// Timed passes run even when `--seconds` is used up sooner.
pub const MIN_PASSES: usize = 4;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of the generated data set.
    pub seed: u64,
    /// Seed of the workload's query stream.
    pub query_seed: u64,
    /// Seconds of timed passes.
    pub seconds: f64,
    /// Whether to run the traced passes and report per-layer metrics.
    pub trace: bool,
    /// Data scale relative to the paper's Table 1.
    pub scale: f64,
    /// Where the traced run's spans are written, as JSON lines.
    pub trace_out: Option<PathBuf>,
}

/// The result of a run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted: checked queries and append batches.
    pub attempted: u64,
    /// Operations that errored or failed an output check.
    pub failed: u64,
    /// Reported metrics with their values, in catalogue order.
    pub metrics: Vec<(MetricDef, f64)>,
    /// Human-readable lines: sample counts, raw figures, checks.
    pub notes: Vec<String>,
}

impl Report {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(d, v)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    json_num(*v),
                    d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite float as JSON (non-finite values, which no metric should
/// take, become `null` so the line stays parseable).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// One timed pass as the metrics need it.
struct Timed {
    /// The reference kernel's time right before the pass, ms.
    ref_ms: f64,
    out: PassOut,
    /// This pass's span range in the traced tracer.
    spans: Option<(usize, usize)>,
}

impl Timed {
    /// The pass's host-adjustment factor, or 1 for raw figures.
    fn factor(&self, adjusted: bool) -> f64 {
        if adjusted {
            host::factor(self.ref_ms)
        } else {
            1.0
        }
    }
}

/// End-to-end timing figures over a set of untraced passes, host
/// adjusted or raw.
struct Timing {
    queries_per_s: f64,
    p50_ms: f64,
    tail: (f64, f64),
    samples: usize,
    insert_rows_per_s: f64,
}

fn timing(passes: &[&Timed], adjusted: bool) -> Option<Timing> {
    let qps: Vec<f64> = passes
        .iter()
        .map(|p| {
            p.out.latencies_ns.len() as f64 / (p.out.wall_ns as f64 * 1e-9 * p.factor(adjusted))
        })
        .collect();
    let mut lat: Vec<f64> = passes
        .iter()
        .flat_map(|p| {
            let f = p.factor(adjusted);
            p.out
                .latencies_ns
                .iter()
                .map(move |&ns| ns as f64 * 1e-6 * f)
        })
        .collect();
    lat.sort_by(f64::total_cmp);
    let ins: Vec<f64> = passes
        .iter()
        .map(|p| {
            p.out.writes.rows as f64 / (p.out.writes.insert_ns as f64 * 1e-9 * p.factor(adjusted))
        })
        .collect();
    Some(Timing {
        queries_per_s: median(&qps)?,
        p50_ms: percentile(&lat, 50.0)?,
        tail: stats::tail(&lat)?,
        samples: lat.len(),
        insert_rows_per_s: median(&ins)?,
    })
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Positions where two outcome streams differ (a length difference
/// counts every missing position).
fn outcome_mismatches(a: &[QueryOutcome], b: &[QueryOutcome]) -> u64 {
    let differing = a.iter().zip(b).filter(|(x, y)| x != y).count();
    (differing + a.len().abs_diff(b.len())) as u64
}

/// The deterministic part of a pass's writes.
fn write_counts(w: &Writes) -> (u64, u64, colt_storage::IoStats, u64, u64) {
    (
        w.batches,
        w.rows,
        w.io,
        w.analyze_tables,
        w.index_mismatches,
    )
}

/// Set up: generate the data set [`SETUP_REPS`] times, each right
/// after a reference-kernel timing; returns the last data set and the
/// raw and host-adjusted generation times, ms.
fn set_up(
    opts: &Options,
    kernel: &RefKernel,
    refs: &mut Vec<f64>,
) -> (TpchData, Vec<f64>, Vec<f64>) {
    let mut data = None;
    let (mut raw, mut adjusted) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        drop(data.take());
        let ref_ms = kernel.time();
        refs.push(ref_ms);
        let t0 = Instant::now();
        let d = generate(opts.scale, opts.seed);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        raw.push(ms);
        adjusted.push(ms * host::factor(ref_ms));
        data = Some(d);
    }
    (data.expect("SETUP_REPS is positive"), raw, adjusted)
}

/// Run the benchmark.
pub fn run(opts: &Options) -> Result<Report, String> {
    let kernel = RefKernel::default();
    let mut refs = Vec::new();
    let (data, gen_raw, gen_adj) = set_up(opts, &kernel, &mut refs);
    let fx = Fixture::new(opts.workload, data, opts.query_seed);
    let mut notes = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);

    // Warm-up: untimed, and the reference every timed pass must repeat.
    let mut untraced = Tracer::new(false);
    let warm = Pass::new(&fx)
        .run(&mut untraced, true)
        .map_err(|e| format!("warm-up pass failed: {e}"))?;
    let n = fx.queries.len() as u64;
    attempted += n + warm.writes.batches;
    failed += warm.truth_mismatches + warm.writes.index_mismatches;
    notes.push(format!(
        "check: {} sampled queries re-counted under an empty configuration, {} differ",
        fx.truth_sample.len(),
        warm.truth_mismatches
    ));
    if !fx.workload.writes() {
        let prev = colt_obs::install(colt_obs::Recorder::new(colt_obs::Level::Off));
        let reference = Experiment::new(&fx.data.db, &fx.queries)
            .policy(Policy::colt(fx.config.clone()))
            .run();
        colt_obs::take();
        if let Some(p) = prev {
            colt_obs::install(p);
        }
        let reference = reference.map_err(|e| format!("colt_harness::Experiment failed: {e}"))?;
        let expected: Vec<QueryOutcome> = reference
            .samples
            .iter()
            .map(|s| QueryOutcome {
                rows: s.rows,
                exec_ms: s.exec_millis,
                tuning_ms: s.tuning_millis,
            })
            .collect();
        let differ = outcome_mismatches(&expected, &warm.outcomes);
        failed += differ;
        notes.push(format!(
            "check: warm-up vs colt_harness::Experiment, {differ} of {n} queries differ"
        ));
    }

    // Timed passes; with tracing, every other pass is traced.
    let mut traced = Tracer::new(true);
    let mut passes: Vec<Timed> = Vec::new();
    let started = Instant::now();
    let min_passes = if opts.trace {
        2 * MIN_PASSES
    } else {
        MIN_PASSES
    };
    while passes.len() < min_passes || started.elapsed().as_secs_f64() < opts.seconds {
        let is_traced = opts.trace && passes.len() % 2 == 1;
        let pass = Pass::new(&fx);
        let ref_ms = kernel.time();
        refs.push(ref_ms);
        let tracer = if is_traced {
            &mut traced
        } else {
            &mut untraced
        };
        let from = tracer.spans().len();
        let result = pass.run(tracer, false);
        let spans = is_traced.then(|| (from, tracer.spans().len()));
        attempted += n;
        match result {
            Ok(out) => {
                attempted += out.writes.batches;
                let mut bad = outcome_mismatches(&warm.outcomes, &out.outcomes);
                if out.work != warm.work || write_counts(&out.writes) != write_counts(&warm.writes)
                {
                    bad = bad.max(1);
                }
                failed += bad + out.writes.index_mismatches;
                passes.push(Timed { ref_ms, out, spans });
            }
            Err(e) => {
                failed += n;
                notes.push(format!("pass {} failed: {e}", passes.len()));
            }
        }
    }

    let plain: Vec<&Timed> = passes.iter().filter(|p| p.spans.is_none()).collect();
    let ref_ms = median(&refs).expect("set-up timed the reference kernel");
    let adj = timing(&plain, true).ok_or("too few timed latency samples")?;
    let raw = timing(&plain, false).ok_or("too few timed latency samples")?;
    let gen_raw_ms = median(&gen_raw).expect("SETUP_REPS is positive");
    let gen_adj_ms = median(&gen_adj).expect("SETUP_REPS is positive");
    let setup_s = gen_adj_ms / 1e3;
    let sim_total_s = warm.work.sim_total_ms() / 1e3;

    notes.push(format!(
        "{}: seed {}, scale {}, {} timed passes ({} traced) of {} queries in {:.1} s; closed loop, one client",
        fx.workload.name(),
        opts.seed,
        opts.scale,
        passes.len(),
        passes.len() - plain.len(),
        n,
        started.elapsed().as_secs_f64()
    ));
    notes.push(format!(
        "host: reference kernel median {ref_ms:.2} ms over {} timings (nominal {}); each pass's wall times are scaled by nominal / its own timing",
        refs.len(),
        host::NOMINAL_REF_MS
    ));
    notes.push(format!(
        "queries_per_s {:.1} q/s (median of {} passes; raw {:.1})",
        adj.queries_per_s,
        plain.len(),
        raw.queries_per_s
    ));
    notes.push(format!(
        "query_p50_ms {:.4} ms over {} pooled samples (raw {:.4})",
        adj.p50_ms, adj.samples, raw.p50_ms
    ));
    notes.push(format!(
        "query_p99_ms {:.4} ms is p{} over {} pooled samples, {} beyond (raw {:.4})",
        adj.tail.1,
        adj.tail.0,
        adj.samples,
        stats::beyond(adj.tail.0, adj.samples),
        raw.tail.1
    ));
    notes.push(format!(
        "insert_rows_per_s {:.0} rows/s (median of {} passes, {} rows each; raw {:.0})",
        adj.insert_rows_per_s,
        plain.len(),
        warm.writes.rows,
        raw.insert_rows_per_s
    ));
    notes.push(format!(
        "setup_s {:.4} s (median of {} generations; raw {:.4})",
        setup_s,
        SETUP_REPS,
        gen_raw_ms / 1e3
    ));
    let ops_failed_frac = failed as f64 / attempted as f64;
    notes.push(format!(
        "ops_failed_frac {ops_failed_frac} ({failed} of {attempted} ops)"
    ));

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    if opts.trace {
        values.extend(per_layer(&fx, &warm, &passes, &traced, &raw));
        values.insert("host.ref_ms", ref_ms);
        values.insert("workload.generate_ms", gen_adj_ms);
        values.insert("setup_s.raw", gen_raw_ms / 1e3);
        values.insert("bench.ops_attempted", attempted as f64);
        values.insert("bench.ops_failed_frac", ops_failed_frac);
        values.insert("bench.latency_samples", adj.samples as f64);
        values.insert(
            "bench.p99_beyond",
            stats::beyond(adj.tail.0, adj.samples) as f64,
        );
        if let Some(path) = &opts.trace_out {
            write_spans(path, &traced)?;
            notes.push(format!(
                "spans: {} written to {}",
                traced.spans().len(),
                path.display()
            ));
        }
    } else {
        values.insert("queries_per_s", adj.queries_per_s);
        values.insert("query_p50_ms", adj.p50_ms);
        values.insert("query_p99_ms", adj.tail.1);
        values.insert("insert_rows_per_s", adj.insert_rows_per_s);
        values.insert("setup_s", setup_s);
        values.insert("peak_rss_mb", peak_rss_mb()?);
        values.insert("sim_total_s", sim_total_s);
    }
    let catalogue: &[MetricDef] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = catalogue
        .iter()
        .map(|d| {
            values
                .get(d.name)
                .map(|&v| (*d, v))
                .ok_or(format!("metric {} was not computed", d.name))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        notes,
    })
}

fn write_spans(path: &std::path::Path, tracer: &Tracer) -> Result<(), String> {
    let fail = |e: std::io::Error| format!("writing spans to {}: {e}", path.display());
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(fail)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(fail)?);
    tracer.write_jsonl(&mut out).map_err(fail)?;
    std::io::Write::flush(&mut out).map_err(fail)
}

/// Layers whose self time is reported, with the metric carrying it.
const LAYER_TIMES: [(&str, &str); 8] = [
    ("engine.exec.join", "engine.exec.join.ms"),
    ("engine.exec.seqscan", "engine.exec.seqscan.ms"),
    ("engine.exec.index", "engine.exec.index.ms"),
    ("engine.optimize", "engine.optimize.ms"),
    ("core.tuner.profile", "core.tuner.profile_ms"),
    ("core.tuner.epoch", "core.tuner.epoch_ms"),
    ("catalog.dml", "catalog.dml.ms"),
    ("catalog.analyze", "catalog.analyze.ms"),
];

/// Per-layer metrics: work counts from the warm-up pass (every timed
/// pass repeats them, which the run checks), self times from the traced
/// passes.
fn per_layer(
    fx: &Fixture,
    warm: &PassOut,
    passes: &[Timed],
    traced: &Tracer,
    raw: &Timing,
) -> Vec<(&'static str, f64)> {
    let w: &Work = &warm.work;
    let mut out = Vec::new();
    let [join, seqscan, index] = w.exec_calls;
    out.push(("engine.exec.join.calls", join as f64));
    out.push(("engine.exec.seqscan.calls", seqscan as f64));
    out.push(("engine.exec.index.calls", index as f64));
    let io = &w.exec_io;
    out.push(("engine.exec.seq_pages", io.seq_pages as f64));
    out.push(("engine.exec.random_pages", io.random_pages as f64));
    out.push(("engine.exec.tuples", io.tuples as f64));
    out.push(("engine.exec.cpu_ops", io.cpu_ops as f64));
    out.push(("engine.exec.rows_out", w.rows_out as f64));
    out.push((
        "engine.exec.tuples_per_row",
        io.tuples as f64 / w.rows_out.max(1) as f64,
    ));
    let mut qe = w.qerrors.clone();
    qe.sort_by(f64::total_cmp);
    out.push(("engine.optimize.calls", w.optimize_calls as f64));
    out.push((
        "engine.optimize.qerror_p50",
        percentile(&qe, 50.0).unwrap_or(1.0),
    ));
    out.push((
        "engine.optimize.qerror_p90",
        percentile(&qe, 90.0).unwrap_or(1.0),
    ));
    let e = &w.eqo;
    out.push(("engine.whatif.calls", e.whatif_calls as f64));
    out.push(("engine.whatif.memo_hits", e.memo_hits as f64));
    out.push(("engine.whatif.memo_misses", e.memo_misses as f64));
    out.push((
        "engine.whatif.memo_hit_rate",
        e.memo_hits as f64 / (e.memo_hits + e.memo_misses).max(1) as f64,
    ));
    out.push((
        "engine.whatif.memo_invalidations",
        e.memo_invalidations as f64,
    ));
    out.push(("engine.whatif.memo_evictions", e.memo_evictions as f64));
    out.push(("core.tuner.epochs", w.epochs as f64));
    out.push(("core.tuner.builds", w.builds as f64));
    out.push(("core.tuner.drops", w.drops as f64));
    out.push(("core.tuner.build_pages", w.build_pages as f64));
    out.push(("core.tuner.whatif_used", w.whatif_used as f64));
    out.push(("core.tuner.whatif_skipped", w.whatif_skipped as f64));
    let considered = (w.whatif_used + w.whatif_skipped).max(1) as f64;
    out.push((
        "core.tuner.skip_ratio",
        w.whatif_skipped as f64 / considered,
    ));
    out.push(("core.tuner.sim_tuning_s", w.sim_tuning_ms / 1e3));
    let wr = &warm.writes;
    out.push(("catalog.dml.rows", wr.rows as f64));
    out.push(("catalog.dml.pages_written", wr.io.pages_written as f64));
    out.push(("catalog.dml.random_pages", wr.io.random_pages as f64));
    out.push(("catalog.analyze.tables", wr.analyze_tables as f64));
    out.push(("workload.tuples", fx.data.db.total_tuples() as f64));

    // Self time per traced pass, host-adjusted, then the median.
    let traced_passes: Vec<&Timed> = passes.iter().filter(|p| p.spans.is_some()).collect();
    let mut per_pass: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut span_counts = Vec::new();
    for p in &traced_passes {
        let (from, to) = p.spans.expect("filtered to traced passes");
        let spans = &traced.spans()[from..to];
        span_counts.push(spans.len() as f64);
        let selfs = trace::self_times(spans, from);
        let factor = p.factor(true);
        for (layer, metric) in LAYER_TIMES {
            let ms = selfs.get(layer).copied().unwrap_or(0) as f64 * 1e-6 * factor;
            per_pass.entry(metric).or_default().push(ms);
        }
        // Unattributed: the pass's time outside every layer span, as a
        // share of the pass.
        let pass_ns = spans.first().map_or(1, |s| (s.end_ns - s.start_ns).max(1));
        let outside = selfs.get("bench.pass").copied().unwrap_or(0)
            + selfs.get("bench.query").copied().unwrap_or(0);
        per_pass
            .entry("trace.unattributed_pct")
            .or_default()
            .push(100.0 * outside as f64 / pass_ns as f64);
    }
    for (metric, xs) in &per_pass {
        out.push((metric, median(xs).unwrap_or(0.0)));
    }

    let wall = |traced: bool| {
        let xs: Vec<f64> = passes
            .iter()
            .filter(|p| p.spans.is_some() == traced)
            .map(|p| p.out.wall_ns as f64 * p.factor(true))
            .collect();
        median(&xs).unwrap_or(0.0)
    };
    out.push((
        "trace.overhead_pct",
        100.0 * (wall(true) / wall(false) - 1.0),
    ));
    out.push(("trace.spans", median(&span_counts).unwrap_or(0.0)));
    out.push(("queries_per_s.raw", raw.queries_per_s));
    out.push(("query_p50_ms.raw", raw.p50_ms));
    out.push(("query_p99_ms.raw", raw.tail.1));
    out.push(("insert_rows_per_s.raw", raw.insert_rows_per_s));
    out.push(("bench.passes", passes.len() as f64));
    out.push(("bench.traced_passes", traced_passes.len() as f64));
    out
}
