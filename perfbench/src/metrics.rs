//! The benchmark's metric catalogue: every metric it prints, by name
//! and unit. `BENCHMARK.json` at the repository root must list the same
//! names and units (a self-test checks it).

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The `better` field of `BENCHMARK.json`.
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric: name, unit and direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [MetricDef; 7] = [
    m("queries_per_s", "q/s", Higher),
    m("query_p50_ms", "ms", Lower),
    m("query_p99_ms", "ms", Lower),
    m("insert_rows_per_s", "rows/s", Higher),
    m("setup_s", "s", Lower),
    m("peak_rss_mb", "MB", Lower),
    m("sim_total_s", "sim_s", Lower),
];

/// Per-layer metrics, printed with `--trace 1`. Work counts are per
/// pass; times are per pass, host-adjusted self time.
pub const PER_LAYER: [MetricDef; 55] = [
    m("engine.exec.join.calls", "count", Lower),
    m("engine.exec.join.ms", "ms", Lower),
    m("engine.exec.seqscan.calls", "count", Lower),
    m("engine.exec.seqscan.ms", "ms", Lower),
    m("engine.exec.index.calls", "count", Higher),
    m("engine.exec.index.ms", "ms", Lower),
    m("engine.exec.seq_pages", "pages", Lower),
    m("engine.exec.random_pages", "pages", Lower),
    m("engine.exec.tuples", "count", Lower),
    m("engine.exec.cpu_ops", "count", Lower),
    m("engine.exec.rows_out", "count", Lower),
    m("engine.exec.tuples_per_row", "ratio", Lower),
    m("engine.optimize.calls", "count", Lower),
    m("engine.optimize.ms", "ms", Lower),
    m("engine.optimize.qerror_p50", "ratio", Lower),
    m("engine.optimize.qerror_p90", "ratio", Lower),
    m("engine.whatif.calls", "count", Lower),
    m("engine.whatif.memo_hits", "count", Higher),
    m("engine.whatif.memo_misses", "count", Lower),
    m("engine.whatif.memo_hit_rate", "ratio", Higher),
    m("engine.whatif.memo_invalidations", "count", Lower),
    m("engine.whatif.memo_evictions", "count", Lower),
    m("core.tuner.profile_ms", "ms", Lower),
    m("core.tuner.epoch_ms", "ms", Lower),
    m("core.tuner.epochs", "count", Lower),
    m("core.tuner.builds", "count", Lower),
    m("core.tuner.drops", "count", Lower),
    m("core.tuner.build_pages", "pages", Lower),
    m("core.tuner.whatif_used", "count", Lower),
    m("core.tuner.whatif_skipped", "count", Higher),
    m("core.tuner.skip_ratio", "ratio", Higher),
    m("core.tuner.sim_tuning_s", "sim_s", Lower),
    m("catalog.dml.ms", "ms", Lower),
    m("catalog.dml.rows", "count", Higher),
    m("catalog.dml.pages_written", "pages", Lower),
    m("catalog.dml.random_pages", "pages", Lower),
    m("catalog.analyze.ms", "ms", Lower),
    m("catalog.analyze.tables", "count", Lower),
    m("workload.generate_ms", "ms", Lower),
    m("workload.tuples", "count", Higher),
    m("host.ref_ms", "ms", Lower),
    m("queries_per_s.raw", "q/s", Higher),
    m("query_p50_ms.raw", "ms", Lower),
    m("query_p99_ms.raw", "ms", Lower),
    m("insert_rows_per_s.raw", "rows/s", Higher),
    m("setup_s.raw", "s", Lower),
    m("trace.overhead_pct", "%", Lower),
    m("trace.unattributed_pct", "%", Lower),
    m("trace.spans", "count", Lower),
    m("bench.passes", "count", Higher),
    m("bench.traced_passes", "count", Higher),
    m("bench.latency_samples", "count", Higher),
    m("bench.p99_beyond", "count", Higher),
    m("bench.ops_attempted", "count", Higher),
    m("bench.ops_failed_frac", "ratio", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                d.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                d.name
            );
            assert!(d.unit.len() <= 16);
            assert!(
                d.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                d.unit
            );
        }
    }
}
