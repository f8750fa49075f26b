//! The benchmark's own query loop: one pass feeds a workload's query
//! stream through `Eqo::optimize` → `Executor::execute` →
//! `ColtTuner::on_query` as a closed loop with one client, mirroring
//! `colt_harness::Experiment`'s COLT runner call for call, and (on
//! `ingest`) appends rows through `dml::insert_rows` followed by
//! `Database::auto_analyze` after every epoch boundary.

use crate::trace::Tracer;
use colt_catalog::{dml, Database, PhysicalConfig, TableId};
use colt_core::{ColtConfig, ColtTuner, TunerStep};
use colt_engine::{
    Collect, Eqo, EqoCounters, ExecError, Executor, IndexSetView, Optimizer, Plan, Query,
    QueryResult,
};
use colt_harness::WHATIF_COST_UNITS;
use colt_storage::{IoStats, Prng, Row, RowId};
use colt_workload::{presets, TpchData};
use std::time::Instant;

/// Rows appended to `lineitem` after every epoch boundary of `ingest`.
pub const INGEST_ROWS_PER_EPOCH: usize = 300;

/// Insert batches of the write probe that follows every pass of a
/// read-only workload: as many as `ingest` prepares for one pass.
pub const PROBE_BATCHES: usize = 50;

/// Relative growth beyond which `auto_analyze` refreshes a table's
/// statistics (PostgreSQL's default analyze scale factor).
pub const ANALYZE_THRESHOLD: f64 = 0.1;

/// Queries whose rows are re-counted under an empty configuration in
/// the warm-up pass.
pub const TRUTH_SAMPLE: usize = 40;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Figure 3 stream: COLT converges early, execution dominates.
    Stable,
    /// The Figure 4/5 stream: four phase changes keep the tuner busy.
    Shifting,
    /// The stable stream with `lineitem` appends after every epoch.
    Ingest,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Stable, Workload::Shifting, Workload::Ingest];

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Stable => "stable",
            Workload::Shifting => "shifting",
            Workload::Ingest => "ingest",
        }
    }

    /// Whether the stream itself writes (otherwise a write probe
    /// follows each pass).
    pub fn writes(self) -> bool {
        self == Workload::Ingest
    }
}

/// Plan shape of an executed query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PlanClass {
    /// Two or more tables.
    Join,
    /// One table, read by a sequential scan.
    SeqScan,
    /// One table, read through an index.
    Index,
}

impl PlanClass {
    fn of(query: &Query, plan: &Plan) -> PlanClass {
        if query.tables.len() >= 2 {
            PlanClass::Join
        } else if plan.seq_scanned_tables().is_empty() {
            PlanClass::Index
        } else {
            PlanClass::SeqScan
        }
    }

    /// The span (and metric prefix) of the executor serving this class.
    pub(crate) fn span(self) -> &'static str {
        match self {
            PlanClass::Join => "engine.exec.join",
            PlanClass::SeqScan => "engine.exec.seqscan",
            PlanClass::Index => "engine.exec.index",
        }
    }
}

/// Inputs of every pass, made once at set-up.
#[derive(Debug)]
pub struct Fixture {
    /// Which workload.
    pub workload: Workload,
    /// The generated data set.
    pub data: TpchData,
    /// The query stream of one pass.
    pub queries: Vec<Query>,
    /// The tuner's configuration (the preset's storage budget).
    pub config: ColtConfig,
    /// The table the writes append to (`lineitem` of instance 0).
    pub lineitem: TableId,
    /// Seeded append batches: one per epoch boundary on `ingest`,
    /// [`PROBE_BATCHES`] for the write probe otherwise.
    pub batches: Vec<Vec<Row>>,
    /// Stream positions whose rows are checked against a seq-scan
    /// ground truth, ascending.
    pub truth_sample: Vec<usize>,
}

impl Fixture {
    /// Build the query stream, append batches and check sample for
    /// `workload` over `data`, all from `seed`.
    pub fn new(workload: Workload, data: TpchData, seed: u64) -> Fixture {
        let preset = match workload {
            Workload::Stable | Workload::Ingest => presets::stable(&data, seed),
            Workload::Shifting => presets::shifting(&data, seed),
        };
        let config = ColtConfig {
            storage_budget_pages: preset.budget_pages,
            ..ColtConfig::default()
        };
        let lineitem = data.instances[0].table("lineitem");
        let mut rng = Prng::new(seed ^ 0x1a9e_57ba_7c4e_5001);
        let epochs = preset.queries.len() / config.epoch_length;
        let heap = &data.db.table(lineitem).heap;
        let count = if workload.writes() {
            epochs
        } else {
            PROBE_BATCHES
        };
        let batches = (0..count)
            .map(|_| {
                (0..INGEST_ROWS_PER_EPOCH)
                    .map(|_| {
                        let rid = RowId(rng.below(heap.row_count()) as u32);
                        heap.peek(rid)
                            .expect("sampled row id lies inside the heap")
                            .clone()
                    })
                    .collect()
            })
            .collect();
        let mut truth_sample: Vec<usize> = (0..TRUTH_SAMPLE.min(preset.queries.len()))
            .map(|_| rng.below(preset.queries.len()))
            .collect();
        truth_sample.sort_unstable();
        truth_sample.dedup();
        Fixture {
            workload,
            data,
            queries: preset.queries,
            config,
            lineitem,
            batches,
            truth_sample,
        }
    }
}

/// Outcome of one query, which every pass must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryOutcome {
    /// Result rows.
    pub rows: u64,
    /// Simulated execution time, ms.
    pub exec_ms: f64,
    /// Simulated tuning time charged to the query (what-if + builds), ms.
    pub tuning_ms: f64,
}

/// Deterministic work counts of one pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Work {
    /// Executor calls per plan class: join, seqscan, index.
    pub exec_calls: [u64; 3],
    /// Executor I/O and CPU work.
    pub exec_io: IoStats,
    /// Rows the executor returned.
    pub rows_out: u64,
    /// `Eqo::optimize` calls.
    pub optimize_calls: u64,
    /// Per query: q-error of the plan's row estimate against the rows
    /// returned (both floored at one row).
    pub qerrors: Vec<f64>,
    /// Optimizer counters, summed over the pass's `Eqo`s.
    pub eqo: EqoCounters,
    /// Epoch boundaries.
    pub epochs: u64,
    /// Indexes built.
    pub builds: u64,
    /// Indexes dropped.
    pub drops: u64,
    /// Pages written by index builds.
    pub build_pages: u64,
    /// What-if probes issued under the r-ratio budget.
    pub whatif_used: u64,
    /// What-if probes proven redundant and skipped.
    pub whatif_skipped: u64,
    /// Simulated execution time, ms.
    pub sim_exec_ms: f64,
    /// Simulated tuning time (what-if + builds), ms.
    pub sim_tuning_ms: f64,
    /// Simulated index-maintenance and heap-write time of the stream's
    /// own appends, ms.
    pub sim_dml_ms: f64,
}

impl Work {
    fn record_query(
        &mut self,
        class: PlanClass,
        plan: &Plan,
        res: &QueryResult,
        step: &TunerStep,
        tuning_ms: f64,
    ) {
        self.exec_calls[class as usize] += 1;
        self.exec_io.accumulate(&res.io);
        self.rows_out += res.row_count;
        self.optimize_calls += 1;
        let (est, act) = (plan.est_rows().max(1.0), (res.row_count as f64).max(1.0));
        self.qerrors.push((est / act).max(act / est));
        self.epochs += u64::from(step.epoch_closed);
        self.builds += step.created.len() as u64;
        self.drops += step.dropped.len() as u64;
        self.build_pages += step.build_io.pages_written;
        self.sim_exec_ms += res.millis;
        self.sim_tuning_ms += tuning_ms;
    }

    fn add_eqo(&mut self, c: EqoCounters) {
        let e = &mut self.eqo;
        e.optimizations += c.optimizations;
        e.whatif_calls += c.whatif_calls;
        e.memo_hits += c.memo_hits;
        e.memo_misses += c.memo_misses;
        e.memo_invalidations += c.memo_invalidations;
        e.memo_evictions += c.memo_evictions;
    }

    /// The paper's metric for one pass: simulated execution + what-if +
    /// build time, plus the stream's own append work, ms.
    pub fn sim_total_ms(&self) -> f64 {
        self.sim_exec_ms + self.sim_tuning_ms + self.sim_dml_ms
    }
}

/// Append batches and the analyzes after them.
#[derive(Debug, Clone, Copy, Default)]
pub struct Writes {
    /// Batches appended.
    pub batches: u64,
    /// Rows appended.
    pub rows: u64,
    /// I/O of the appends.
    pub io: IoStats,
    /// Tables `auto_analyze` refreshed.
    pub analyze_tables: u64,
    /// Wall time inside `dml::insert_rows`, ns.
    pub insert_ns: u64,
    /// Wall time inside `Database::auto_analyze`, ns.
    pub analyze_ns: u64,
    /// Materialized indexes whose entry count differs from their
    /// table's heap row count after the writes.
    pub index_mismatches: u64,
}

/// Everything one pass produced.
#[derive(Debug)]
pub struct PassOut {
    /// Wall time of the pass, ns (set-up such as cloning the database
    /// is outside it).
    pub wall_ns: u64,
    /// Per-query latency of optimize + execute + tuner step, ns.
    pub latencies_ns: Vec<u64>,
    /// Per-query outcomes, in stream order.
    pub outcomes: Vec<QueryOutcome>,
    /// Work counts.
    pub work: Work,
    /// The stream's own appends (`ingest`), or the write probe after a
    /// read-only pass.
    pub writes: Writes,
    /// Sampled queries whose rows differ from the seq-scan ground truth
    /// (warm-up pass only).
    pub truth_mismatches: u64,
}

/// Rows of `query` under an empty configuration: the seq-scan ground
/// truth.
fn ground_truth_rows(db: &Database, query: &Query) -> Result<u64, ExecError> {
    let empty = PhysicalConfig::new();
    let plan = Optimizer::new(db).optimize(query, IndexSetView::real(&empty));
    Ok(Executor::new(db, &empty)
        .execute(query, &plan, Collect::CountOnly)?
        .result
        .row_count)
}

/// Materialized indexes whose entry count differs from the heap's rows.
fn index_mismatches(db: &Database, physical: &PhysicalConfig) -> u64 {
    physical
        .columns()
        .filter_map(|c| physical.get(c))
        .filter(|m| m.tree.len() != db.table(m.col.table).heap.row_count())
        .count() as u64
}

/// Mutable state of one pass.
struct PassState<'f> {
    fx: &'f Fixture,
    physical: PhysicalConfig,
    tuner: ColtTuner,
    out: PassOut,
    check_truth: bool,
}

impl PassState<'_> {
    /// Run queries from `from` until the stream ends or, when
    /// `stop_at_epoch`, just after an epoch boundary; returns the next
    /// position.
    fn segment(
        &mut self,
        db: &Database,
        from: usize,
        stop_at_epoch: bool,
        tracer: &mut Tracer,
    ) -> Result<usize, ExecError> {
        let mut eqo = Eqo::new(db);
        let mut whatif_before = 0;
        let mut next = self.fx.queries.len();
        for (i, q) in self.fx.queries.iter().enumerate().skip(from) {
            let request = i as u64;
            let t0 = Instant::now();
            let query_span = tracer.enter("bench.query", request);
            let s = tracer.enter("engine.optimize", request);
            let plan = eqo.optimize(q, &self.physical);
            tracer.exit(s);
            let exec_span = tracer.enter("engine.exec", request);
            let res = Executor::new(db, &self.physical)
                .execute(q, &plan, Collect::CountOnly)?
                .result;
            tracer.exit(exec_span);
            let tuner_span = tracer.enter("core.tuner", request);
            let step = self
                .tuner
                .on_query(db, &mut self.physical, &mut eqo, q, &plan);
            tracer.exit(tuner_span);
            let whatif_now = eqo.counters().whatif_calls;
            let whatif_ms =
                (whatif_now - whatif_before) as f64 * WHATIF_COST_UNITS * db.cost.ms_per_cost_unit;
            whatif_before = whatif_now;
            let tuning_ms = whatif_ms + db.cost.millis_of(&step.build_io);
            tracer.exit(query_span);
            self.out.latencies_ns.push(t0.elapsed().as_nanos() as u64);

            let class = PlanClass::of(q, &plan);
            tracer.rename(exec_span, class.span());
            tracer.rename(
                tuner_span,
                if step.epoch_closed {
                    "core.tuner.epoch"
                } else {
                    "core.tuner.profile"
                },
            );
            self.out.outcomes.push(QueryOutcome {
                rows: res.row_count,
                exec_ms: res.millis,
                tuning_ms,
            });
            self.out
                .work
                .record_query(class, &plan, &res, &step, tuning_ms);
            if self.check_truth && self.fx.truth_sample.binary_search(&i).is_ok() {
                let truth = ground_truth_rows(db, q)?;
                self.out.truth_mismatches += u64::from(truth != res.row_count);
            }
            if stop_at_epoch && step.epoch_closed {
                next = i + 1;
                break;
            }
        }
        self.out.work.add_eqo(eqo.counters());
        Ok(next)
    }
}

/// Append one batch to `lineitem` against the live configuration, then
/// auto-analyze. Returns the append's I/O.
fn append(
    db: &mut Database,
    physical: &mut PhysicalConfig,
    table: TableId,
    rows: Vec<Row>,
    request: u64,
    tracer: &mut Tracer,
    writes: &mut Writes,
) -> IoStats {
    writes.batches += 1;
    writes.rows += rows.len() as u64;
    let t0 = Instant::now();
    let s = tracer.enter("catalog.dml", request);
    let io = dml::insert_rows(db, physical, table, rows);
    tracer.exit(s);
    let t1 = Instant::now();
    let s = tracer.enter("catalog.analyze", request);
    let refreshed = db.auto_analyze(ANALYZE_THRESHOLD);
    tracer.exit(s);
    writes.insert_ns += (t1 - t0).as_nanos() as u64;
    writes.analyze_ns += t1.elapsed().as_nanos() as u64;
    writes.io.accumulate(&io);
    writes.analyze_tables += refreshed.len() as u64;
    io
}

/// A pass ready to run. On `ingest` it holds its own copy of the
/// pristine database and of the batches it will append, made when the
/// pass is prepared so the copying stays outside the pass's timing.
#[derive(Debug)]
pub struct Pass<'f> {
    fx: &'f Fixture,
    owned: Option<Database>,
    batches: Vec<Vec<Row>>,
}

impl<'f> Pass<'f> {
    /// Prepare a pass over `fx`.
    pub fn new(fx: &'f Fixture) -> Pass<'f> {
        let writes = fx.workload.writes();
        Pass {
            fx,
            owned: writes.then(|| fx.data.db.clone()),
            batches: if writes {
                fx.batches.clone()
            } else {
                Vec::new()
            },
        }
    }

    /// Run the pass: a fresh tuner, configuration and optimizer over
    /// the whole stream. The warm-up pass (`check_truth`) also re-counts
    /// the sampled queries' rows under an empty configuration, outside
    /// any timing that is reported.
    pub fn run(self, tracer: &mut Tracer, check_truth: bool) -> Result<PassOut, ExecError> {
        let Pass {
            fx,
            mut owned,
            mut batches,
        } = self;
        let n = fx.queries.len();
        let mut state = PassState {
            fx,
            physical: PhysicalConfig::new(),
            tuner: ColtTuner::new(fx.config.clone()),
            out: PassOut {
                wall_ns: 0,
                latencies_ns: Vec::with_capacity(n),
                outcomes: Vec::with_capacity(n),
                work: Work::default(),
                writes: Writes::default(),
                truth_mismatches: 0,
            },
            check_truth,
        };

        let t0 = Instant::now();
        let pass_span = tracer.enter("bench.pass", 0);
        let mut next = 0;
        let mut batch = 0;
        loop {
            let db = owned.as_ref().unwrap_or(&fx.data.db);
            next = state.segment(db, next, owned.is_some(), tracer)?;
            let Some(db) = owned.as_mut().filter(|_| next < n) else {
                break;
            };
            let rows = std::mem::take(&mut batches[batch]);
            batch += 1;
            let io = append(
                db,
                &mut state.physical,
                fx.lineitem,
                rows,
                next as u64 - 1,
                tracer,
                &mut state.out.writes,
            );
            state.out.work.sim_dml_ms += db.cost.millis_of(&io);
        }
        tracer.exit(pass_span);
        state.out.wall_ns = t0.elapsed().as_nanos() as u64;

        let trace = state.tuner.trace();
        state.out.work.whatif_used = trace.epochs.iter().map(|e| e.whatif_used).sum();
        state.out.work.whatif_skipped = trace.epochs.iter().map(|e| e.whatif_skipped).sum();
        match owned {
            Some(db) => state.out.writes.index_mismatches = index_mismatches(&db, &state.physical),
            None => state.out.writes = write_probe(fx, state.physical, tracer),
        }
        Ok(state.out)
    }
}

/// After a read-only pass: append [`PROBE_BATCHES`] batches to a copy
/// of the pristine database against the configuration the pass ended
/// with, so append and index-maintenance speed under the indexes COLT
/// chose is measured on every workload. Outside the pass's timing.
fn write_probe(fx: &Fixture, mut physical: PhysicalConfig, tracer: &mut Tracer) -> Writes {
    let mut db = fx.data.db.clone();
    let batches = fx.batches.clone();
    let mut writes = Writes::default();
    let request = fx.queries.len() as u64;
    let probe_span = tracer.enter("bench.probe", request);
    for rows in batches {
        append(
            &mut db,
            &mut physical,
            fx.lineitem,
            rows,
            request,
            tracer,
            &mut writes,
        );
    }
    tracer.exit(probe_span);
    writes.index_mismatches = index_mismatches(&db, &physical);
    writes
}
