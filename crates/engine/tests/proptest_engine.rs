//! Randomized property tests for the engine: for arbitrary queries and
//! arbitrary physical configurations, plan execution must agree with a
//! trivial reference evaluator, and what-if answers must equal
//! re-optimization cost deltas. Cases come from the in-repo seeded
//! PRNG, so every run checks the same inputs.

use colt_catalog::{ColRef, Column, Database, IndexOrigin, PhysicalConfig, TableId, TableSchema};
use colt_engine::{
    AccessPath, AggExpr, AggFunc, AggSpec, Collect, Eqo, Executor, IndexSetView, JoinPred,
    Optimizer, OptimizerOptions, Plan, PlanNode, PredicateKind, Query, RowwiseExecutor, SelPred,
};
use colt_storage::{row_from, Prng, Value, ValueType};

/// A two-table database whose contents are fully determined by `n`.
fn build_db(n_a: usize, n_b: usize) -> (Database, TableId, TableId) {
    let mut db = Database::new();
    let a = db.add_table(TableSchema::new(
        "a",
        vec![
            Column::new("id", ValueType::Int),
            Column::new("fk", ValueType::Int),
            Column::new("v", ValueType::Int),
        ],
    ));
    let b = db.add_table(TableSchema::new(
        "b",
        vec![Column::new("id", ValueType::Int), Column::new("w", ValueType::Int)],
    ));
    db.insert_rows(
        a,
        (0..n_a as i64).map(|i| {
            row_from(vec![
                Value::Int(i),
                Value::Int(i % n_b.max(1) as i64),
                Value::Int(i * 7 % 23),
            ])
        }),
    );
    db.insert_rows(b, (0..n_b as i64).map(|i| row_from(vec![Value::Int(i), Value::Int(i % 5)])));
    db.analyze_all();
    (db, a, b)
}

/// Reference evaluation: nested loops + direct predicate checks, for
/// any number of tables.
fn reference(db: &Database, q: &Query) -> usize {
    let eval_table = |t: TableId| -> Vec<Vec<Value>> {
        db.table(t)
            .heap
            .iter()
            .filter(|(_, row)| {
                q.selections_on(t).all(|p| p.matches(&row[p.col.column as usize]))
            })
            .map(|(_, row)| row.to_vec())
            .collect()
    };
    // Cross product of all filtered tables, then apply join predicates.
    let mut combos: Vec<Vec<Vec<Value>>> = vec![Vec::new()];
    for &t in &q.tables {
        let rows = eval_table(t);
        let mut next = Vec::new();
        for combo in &combos {
            for r in &rows {
                let mut c = combo.clone();
                c.push(r.clone());
                next.push(c);
            }
        }
        combos = next;
    }
    combos
        .into_iter()
        .filter(|combo| {
            q.joins.iter().all(|j| {
                let li = q.tables.iter().position(|&t| t == j.left.table).unwrap();
                let ri = q.tables.iter().position(|&t| t == j.right.table).unwrap();
                combo[li][j.left.column as usize] == combo[ri][j.right.column as usize]
            })
        })
        .count()
}

/// A random predicate on one of `a`'s three columns.
fn pred(rng: &mut Prng, a: TableId) -> SelPred {
    let c = ColRef::new(a, rng.below(3) as u32);
    let x = rng.int_range(-5, 29);
    let y = rng.int_range(-5, 29);
    match rng.below(3) {
        0 => SelPred::eq(c, x),
        1 => SelPred::between(c, x.min(y), x.max(y)),
        _ => SelPred::ge(c, x),
    }
}

fn preds(rng: &mut Prng, a: TableId, max: usize) -> Vec<SelPred> {
    (0..rng.below(max + 1)).map(|_| pred(rng, a)).collect()
}

/// Single-table queries agree with the reference evaluator under every
/// index configuration.
#[test]
fn single_table_matches_reference() {
    let mut rng = Prng::new(0xE21E_0001);
    for case in 0..40u64 {
        let n = 1 + rng.below(799);
        let preds = preds(&mut rng, TableId(0), 2);
        let index_mask = rng.below(8) as u8;

        let (db, a, _) = build_db(n, 7);
        let q = Query::single(a, preds);
        let mut cfg = PhysicalConfig::new();
        for col in 0..3u32 {
            if index_mask & (1 << col) != 0 {
                cfg.create_index(&db, ColRef::new(a, col), IndexOrigin::Online);
            }
        }
        let plan = Optimizer::new(&db).optimize(&q, IndexSetView::real(&cfg));
        let res = Executor::new(&db, &cfg).execute(&q, &plan, Collect::CountOnly).unwrap();
        assert_eq!(res.row_count() as usize, reference(&db, &q), "case {case}");
    }
}

/// Join queries agree with the reference evaluator, with and without
/// indexes (including the INLJ-enabled optimizer).
#[test]
fn join_matches_reference() {
    let mut rng = Prng::new(0xE21E_0002);
    for case in 0..40u64 {
        let n_a = 1 + rng.below(399);
        let n_b = 1 + rng.below(39);
        let preds = preds(&mut rng, TableId(0), 1);
        let with_index = rng.chance(0.5);
        let inlj = rng.chance(0.5);

        let (db, a, b) = build_db(n_a, n_b);
        let q = Query::join(
            vec![a, b],
            vec![JoinPred::new(ColRef::new(a, 1), ColRef::new(b, 0))],
            preds,
        );
        let mut cfg = PhysicalConfig::new();
        if with_index {
            cfg.create_index(&db, ColRef::new(a, 1), IndexOrigin::Online);
        }
        let opt = Optimizer::with_options(&db, OptimizerOptions { enable_index_nl_join: inlj });
        let plan = opt.optimize(&q, IndexSetView::real(&cfg));
        let res = Executor::new(&db, &cfg).execute(&q, &plan, Collect::CountOnly).unwrap();
        assert_eq!(
            res.row_count() as usize,
            reference(&db, &q),
            "case {case}: {}",
            plan.explain()
        );
    }
}

/// What-if gains always equal the cost delta of actually toggling the
/// index in the view.
#[test]
fn whatif_equals_reoptimization_delta() {
    let mut rng = Prng::new(0xE21E_0003);
    for case in 0..40u64 {
        let n = 50 + rng.below(550);
        let preds: Vec<SelPred> =
            (0..1 + rng.below(2)).map(|_| pred(&mut rng, TableId(0))).collect();
        let probe_col = rng.below(3) as u32;
        let materialized = rng.chance(0.5);

        let (db, a, _) = build_db(n, 7);
        let q = Query::single(a, preds);
        let col = ColRef::new(a, probe_col);
        let mut cfg = PhysicalConfig::new();
        if materialized {
            cfg.create_index(&db, col, IndexOrigin::Online);
        }
        let mut eqo = Eqo::new(&db);
        let gain = eqo.what_if_optimize(&q, &[col], &cfg)[0].gain;

        // Recompute the delta by brute force on two configs.
        let mut with = PhysicalConfig::new();
        with.create_index(&db, col, IndexOrigin::Online);
        let without = PhysicalConfig::new();
        let opt = Optimizer::new(&db);
        let c_with = opt.optimize(&q, IndexSetView::real(&with)).est_cost();
        let c_without = opt.optimize(&q, IndexSetView::real(&without)).est_cost();
        assert!(
            (gain - (c_without - c_with).max(0.0)).abs() < 1e-6,
            "case {case}: gain {gain} vs delta {}",
            c_without - c_with
        );
    }
}

/// Optimizer plan costs are never higher than the forced-seqscan plan
/// under the same view (the optimizer must not pessimize).
#[test]
fn optimizer_never_pessimizes() {
    let mut rng = Prng::new(0xE21E_0004);
    for case in 0..40u64 {
        let n = 50 + rng.below(550);
        let preds: Vec<SelPred> =
            (0..1 + rng.below(2)).map(|_| pred(&mut rng, TableId(0))).collect();
        let index_mask = rng.below(8) as u8;

        let (db, a, _) = build_db(n, 7);
        let q = Query::single(a, preds);
        let mut cfg = PhysicalConfig::new();
        for col in 0..3u32 {
            if index_mask & (1 << col) != 0 {
                cfg.create_index(&db, ColRef::new(a, col), IndexOrigin::Online);
            }
        }
        let opt = Optimizer::new(&db);
        let chosen = opt.optimize(&q, IndexSetView::real(&cfg)).est_cost();
        let bare = opt.optimize(&q, IndexSetView::real(&PhysicalConfig::new())).est_cost();
        assert!(chosen <= bare + 1e-9, "case {case}: chosen {chosen} vs seq {bare}");
    }
}

/// Aggregation counts always match the plain result cardinality.
#[test]
fn aggregate_count_matches_rows() {
    let mut rng = Prng::new(0xE21E_0005);
    for case in 0..40u64 {
        let n = 1 + rng.below(499);
        let preds = preds(&mut rng, TableId(0), 1);

        let (db, a, _) = build_db(n, 7);
        let q = Query::single(a, preds);
        let cfg = PhysicalConfig::new();
        let plan = Optimizer::new(&db).optimize(&q, IndexSetView::real(&cfg));
        let exec = Executor::new(&db, &cfg);
        let plain = exec.execute(&q, &plan, Collect::CountOnly).unwrap().row_count();
        let spec = AggSpec { group_by: vec![], exprs: vec![AggExpr::count_star()] };
        let (_, rows) = exec.execute_aggregate(&q, &plan, &spec).unwrap();
        assert_eq!(rows[0][0], Value::Int(plain as i64), "case {case}");
    }
}

/// SQL parsing of generated statements round-trips the predicate
/// semantics: executing the parsed query matches the reference.
#[test]
fn parsed_sql_matches_reference() {
    let mut rng = Prng::new(0xE21E_0006);
    for case in 0..40u64 {
        let n = 10 + rng.below(390);
        let eq = rng.int_range(-5, 29);
        let lo = rng.int_range(-5, 14);
        let width = rng.int_range(0, 19);

        let (db, _, _) = build_db(n, 7);
        let sql = format!(
            "SELECT * FROM a WHERE v = {eq} AND id BETWEEN {lo} AND {}",
            lo + width
        );
        let parsed = colt_engine::parse_sql(&db, &sql).unwrap();
        assert!(parsed.agg.is_none(), "case {case}");
        let cfg = PhysicalConfig::new();
        let plan = Optimizer::new(&db).optimize(&parsed.query, IndexSetView::real(&cfg));
        let res =
            Executor::new(&db, &cfg).execute(&parsed.query, &plan, Collect::CountOnly).unwrap();
        assert_eq!(res.row_count() as usize, reference(&db, &parsed.query), "case {case}");
        // And the parsed predicates have the intended shapes.
        let eq_ok = matches!(parsed.query.selections[0].kind, PredicateKind::Eq(_));
        let range_ok = matches!(parsed.query.selections[1].kind, PredicateKind::Range { .. });
        assert!(eq_ok && range_ok, "case {case}");
    }
}

/// Three-table chains agree with the reference for every index
/// configuration and optimizer option.
#[test]
fn three_table_chain_matches_reference() {
    let mut rng = Prng::new(0xE21E_0007);
    for case in 0..24u64 {
        let n_a = 1 + rng.below(149);
        let n_b = 1 + rng.below(29);
        let preds = preds(&mut rng, TableId(0), 1);
        let index_mask = rng.below(4) as u8;
        let inlj = rng.chance(0.5);

        // Chain: a.fk = b.id, b.w = c.id (c = a small extra table).
        let (mut db, a, b) = build_db(n_a, n_b);
        let c = db.add_table(TableSchema::new("c", vec![Column::new("id", ValueType::Int)]));
        db.insert_rows(c, (0..5i64).map(|i| row_from(vec![Value::Int(i)])));
        db.analyze_all();

        let q = Query::join(
            vec![a, b, c],
            vec![
                JoinPred::new(ColRef::new(a, 1), ColRef::new(b, 0)),
                JoinPred::new(ColRef::new(b, 1), ColRef::new(c, 0)),
            ],
            preds,
        );
        let mut cfg = PhysicalConfig::new();
        if index_mask & 1 != 0 {
            cfg.create_index(&db, ColRef::new(a, 1), IndexOrigin::Online);
        }
        if index_mask & 2 != 0 {
            cfg.create_index(&db, ColRef::new(b, 0), IndexOrigin::Online);
        }
        let opt = Optimizer::with_options(&db, OptimizerOptions { enable_index_nl_join: inlj });
        let plan = opt.optimize(&q, IndexSetView::real(&cfg));
        let res = Executor::new(&db, &cfg).execute(&q, &plan, Collect::CountOnly).unwrap();
        assert_eq!(
            res.row_count() as usize,
            reference(&db, &q),
            "case {case}: {}",
            plan.explain()
        );
    }
}

/// The vectorized executor is observationally identical to the
/// row-at-a-time reference implementation: same row count, same
/// `IoStats` (and therefore the same simulated clock), same collected
/// rows in the same order, for random queries over random physical
/// configurations and plan shapes.
#[test]
fn vectorized_matches_rowwise_reference() {
    let mut rng = Prng::new(0xE21E_000A);
    for case in 0..40u64 {
        let n_a = 1 + rng.below(2999);
        let n_b = 1 + rng.below(39);
        let ps = preds(&mut rng, TableId(0), 2);
        let join = rng.chance(0.5);
        let index_mask = rng.below(8) as u8;
        let inlj = rng.chance(0.5);

        let (db, a, b) = build_db(n_a, n_b);
        let q = if join {
            Query::join(
                vec![a, b],
                vec![JoinPred::new(ColRef::new(a, 1), ColRef::new(b, 0))],
                ps,
            )
        } else {
            Query::single(a, ps)
        };
        let mut cfg = PhysicalConfig::new();
        for col in 0..3u32 {
            if index_mask & (1 << col) != 0 {
                cfg.create_index(&db, ColRef::new(a, col), IndexOrigin::Online);
            }
        }
        let opt = Optimizer::with_options(&db, OptimizerOptions { enable_index_nl_join: inlj });
        let plan = opt.optimize(&q, IndexSetView::real(&cfg));
        assert_executors_agree(&db, &cfg, &q, &plan, &format!("case {case}"));
    }
}

/// Both executors agree on `plan` under both collect modes: same row
/// count, `IoStats`, simulated clock and layout, and — under
/// [`Collect::Rows`] — the same rows in the same order. `Rows` runs the
/// executor with every column materialized; `CountOnly` runs it with
/// only the join keys gathered, the pruned path.
fn assert_executors_agree(db: &Database, cfg: &PhysicalConfig, q: &Query, plan: &Plan, ctx: &str) {
    for collect in [Collect::Rows, Collect::CountOnly] {
        let v = Executor::new(db, cfg).execute(q, plan, collect).unwrap();
        let r = RowwiseExecutor::new(db, cfg).execute(q, plan, collect).unwrap();
        let ctx = format!("{collect:?}, {ctx}: {}", plan.explain());
        assert_eq!(v.row_count(), r.row_count(), "{ctx}");
        assert_eq!(v.result.io, r.result.io, "{ctx}");
        assert_eq!(v.layout, r.layout, "{ctx}");
        assert_eq!(v.rows, r.rows, "row order must match exactly; {ctx}");
        assert!((v.millis() - r.millis()).abs() < 1e-12, "{ctx}");
    }
}

/// Both executors fold `spec` over `plan` identically — group order,
/// float accumulation order, and charges included.
fn assert_aggregates_agree(
    db: &Database,
    cfg: &PhysicalConfig,
    q: &Query,
    plan: &Plan,
    spec: &AggSpec,
    ctx: &str,
) {
    let (vres, vrows) = Executor::new(db, cfg).execute_aggregate(q, plan, spec).unwrap();
    let (rres, rrows) = RowwiseExecutor::new(db, cfg).execute_aggregate(q, plan, spec).unwrap();
    let ctx = format!("{ctx}: {}", plan.explain());
    assert_eq!(vrows, rrows, "{ctx}");
    assert_eq!(vres.io, rres.io, "{ctx}");
    assert_eq!(vres.row_count, rres.row_count, "{ctx}");
}

/// `build_db` plus a third table `c(id, label)` whose string column is
/// the kind of value the column-need pass avoids cloning.
fn build_chain_db(n_a: usize, n_b: usize, n_c: usize) -> (Database, TableId, TableId, TableId) {
    let (mut db, a, b) = build_db(n_a, n_b);
    let c = db.add_table(TableSchema::new(
        "c",
        vec![Column::new("id", ValueType::Int), Column::new("label", ValueType::Str)],
    ));
    db.insert_rows(
        c,
        (0..n_c as i64).map(|i| row_from(vec![Value::Int(i), Value::Str(format!("label-{i}"))])),
    );
    db.analyze_all();
    (db, a, b, c)
}

fn seq_scan(table: TableId) -> PlanNode {
    PlanNode::Scan { table, path: AccessPath::SeqScan, est_rows: 1.0, est_cost: 1.0 }
}

fn hash_join(build: PlanNode, probe: PlanNode, on: Vec<JoinPred>) -> PlanNode {
    PlanNode::HashJoin {
        build: Box::new(build),
        probe: Box::new(probe),
        on,
        est_rows: 1.0,
        est_cost: 1.0,
    }
}

/// Join shapes the optimizer rarely or never picks on small inputs,
/// built by hand so every one is covered on every case: hash over hash,
/// INLJ over hash, INLJ with a residual key, and a cartesian product.
/// Each runs under both collect modes and under aggregates that read
/// columns from every input, against the row-at-a-time reference.
#[test]
fn vectorized_matches_rowwise_on_join_shapes() {
    let mut rng = Prng::new(0xE21E_000C);
    for case in 0..16u64 {
        let n_a = 1 + rng.below(1999);
        let n_b = 1 + rng.below(39);
        let n_c = 1 + rng.below(7);
        let ps = preds(&mut rng, TableId(0), 2);
        let (db, a, b, c) = build_chain_db(n_a, n_b, n_c);
        let (a_fk, b_id, b_w, c_id) =
            (ColRef::new(a, 1), ColRef::new(b, 0), ColRef::new(b, 1), ColRef::new(c, 0));
        let ab = JoinPred::new(a_fk, b_id);
        let bc = JoinPred::new(b_w, c_id);
        let mut cfg = PhysicalConfig::new();
        cfg.create_index(&db, c_id, IndexOrigin::Online);
        cfg.create_index(&db, a_fk, IndexOrigin::Online);

        let chain = Query::join(vec![a, b, c], vec![ab, bc], ps.clone());
        let residual = JoinPred::new(ColRef::new(a, 2), b_w);
        let pair = Query::join(vec![a, b], vec![ab, residual], ps.clone());
        let cross = Query::join(vec![a, c], vec![], ps);
        let b_hash_a = || hash_join(seq_scan(b), seq_scan(a), vec![ab]);
        let shapes: Vec<(&str, &Query, Plan)> = vec![
            (
                "hash over hash",
                &chain,
                Plan { root: hash_join(b_hash_a(), seq_scan(c), vec![bc]) },
            ),
            (
                "hash with a hash probe side",
                &chain,
                Plan {
                    root: hash_join(
                        seq_scan(c),
                        hash_join(seq_scan(a), seq_scan(b), vec![ab]),
                        vec![bc],
                    ),
                },
            ),
            (
                "INLJ over hash",
                &chain,
                Plan {
                    root: PlanNode::IndexNlJoin {
                        outer: Box::new(b_hash_a()),
                        inner: c,
                        index: c_id,
                        probe_on: bc,
                        residual_on: vec![],
                        est_rows: 1.0,
                        est_cost: 1.0,
                    },
                },
            ),
            (
                "INLJ with a residual key",
                &pair,
                Plan {
                    root: PlanNode::IndexNlJoin {
                        outer: Box::new(seq_scan(b)),
                        inner: a,
                        index: a_fk,
                        probe_on: ab,
                        residual_on: vec![residual],
                        est_rows: 1.0,
                        est_cost: 1.0,
                    },
                },
            ),
            ("cartesian", &cross, Plan { root: hash_join(seq_scan(c), seq_scan(a), vec![]) }),
        ];
        for (shape, q, plan) in &shapes {
            let ctx = format!("case {case}, {shape}");
            assert_executors_agree(&db, &cfg, q, plan, &ctx);
            // Aggregates read a column from each input, one group-by
            // column from a join's non-key side, and nothing at all.
            let last = *q.tables.last().unwrap();
            let specs = [
                AggSpec {
                    group_by: vec![ColRef::new(last, 1)],
                    exprs: vec![
                        AggExpr::count_star(),
                        AggExpr::over(AggFunc::Sum, ColRef::new(a, 2)),
                        AggExpr::over(AggFunc::Max, ColRef::new(last, 0)),
                    ],
                },
                AggSpec { group_by: vec![], exprs: vec![AggExpr::count_star()] },
            ];
            for spec in &specs {
                assert_aggregates_agree(&db, &cfg, q, plan, spec, &ctx);
            }
        }
        // And whatever the optimizer picks for the chain.
        for inlj in [false, true] {
            let opt = Optimizer::with_options(&db, OptimizerOptions { enable_index_nl_join: inlj });
            let plan = opt.optimize(&chain, IndexSetView::real(&cfg));
            let ctx = format!("case {case}, optimizer (inlj={inlj})");
            assert_executors_agree(&db, &cfg, &chain, &plan, &ctx);
            let spec = AggSpec {
                group_by: vec![ColRef::new(c, 1)],
                exprs: vec![AggExpr::count_star(), AggExpr::over(AggFunc::Avg, ColRef::new(a, 0))],
            };
            assert_aggregates_agree(&db, &cfg, &chain, &plan, &spec, &ctx);
        }
    }
}

/// Aggregation over both executors folds identically — group order,
/// float accumulation order, and charges included.
#[test]
fn vectorized_aggregate_matches_rowwise_reference() {
    let mut rng = Prng::new(0xE21E_000B);
    for case in 0..25u64 {
        let n = 1 + rng.below(2999);
        let ps = preds(&mut rng, TableId(0), 1);
        let (db, a, _) = build_db(n, 7);
        let q = Query::single(a, ps);
        let cfg = PhysicalConfig::new();
        let plan = Optimizer::new(&db).optimize(&q, IndexSetView::real(&cfg));
        let spec = AggSpec {
            group_by: vec![ColRef::new(a, 1)],
            exprs: vec![
                AggExpr::count_star(),
                AggExpr::over(AggFunc::Sum, ColRef::new(a, 2)),
                AggExpr::over(AggFunc::Avg, ColRef::new(a, 0)),
            ],
        };
        assert_aggregates_agree(&db, &cfg, &q, &plan, &spec, &format!("case {case}"));
    }
}

/// Selection-vector edge cases: empty input, everything filtered out,
/// and result sets straddling the 1024-row batch boundary all agree
/// between the two executors.
#[test]
fn vectorized_edge_cases_match_rowwise() {
    let (db, a, _) = build_db(2_500, 7);
    let cfg = PhysicalConfig::new();
    let opt = Optimizer::new(&db);
    let queries = [
        // All-filtered: no id is negative.
        Query::single(a, vec![SelPred::eq(ColRef::new(a, 0), -100i64)]),
        // Everything passes: 2500 rows straddle two batch boundaries.
        Query::single(a, vec![]),
        // Selective straddler: ~half the rows survive.
        Query::single(a, vec![SelPred::ge(ColRef::new(a, 0), 1_250i64)]),
    ];
    for (i, q) in queries.iter().enumerate() {
        let plan = opt.optimize(q, IndexSetView::real(&cfg));
        let v = Executor::new(&db, &cfg).execute(q, &plan, Collect::Rows).unwrap();
        let r = RowwiseExecutor::new(&db, &cfg).execute(q, &plan, Collect::Rows).unwrap();
        assert_eq!(v.rows, r.rows, "query {i}");
        assert_eq!(v.result.io, r.result.io, "query {i}");
    }
    // Empty table: zero batches, zero rows, zero charges mismatch.
    let (db0, a0, _) = build_db(0, 1);
    let q = Query::single(a0, vec![SelPred::eq(ColRef::new(a0, 0), 1i64)]);
    let plan = Optimizer::new(&db0).optimize(&q, IndexSetView::real(&cfg));
    let v = Executor::new(&db0, &cfg).execute(&q, &plan, Collect::Rows).unwrap();
    let r = RowwiseExecutor::new(&db0, &cfg).execute(&q, &plan, Collect::Rows).unwrap();
    assert_eq!(v.row_count(), 0);
    assert_eq!(v.rows, r.rows);
    assert_eq!(v.result.io, r.result.io);
}

/// The SQL parser never panics, whatever bytes it is fed.
#[test]
fn sql_parser_never_panics() {
    let mut rng = Prng::new(0xE21E_0008);
    let (db, _, _) = build_db(10, 5);
    for _case in 0..256u64 {
        let len = rng.below(121);
        let input: String = (0..len)
            .map(|_| {
                // Printable ASCII plus a sprinkling of non-ASCII.
                if rng.chance(0.9) {
                    (0x20 + rng.below(0x5f) as u8) as char
                } else {
                    char::from_u32(0xa0 + rng.below(0x2000) as u32).unwrap_or('\u{fffd}')
                }
            })
            .collect();
        let _ = colt_engine::parse_sql(&db, &input);
    }
}

/// Near-miss SQL (valid tokens, scrambled structure) never panics and
/// either parses or errors cleanly.
#[test]
fn sql_token_soup_never_panics() {
    const WORDS: &[&str] = &[
        "select", "from", "where", "and", "between", "group", "by", "a", "b", "id", "fk", "v",
        "w", "*", ",", ".", "(", ")", "=", "<", "<=", ">", ">=", "1", "2.5", "'x'", "count",
        "sum",
    ];
    let mut rng = Prng::new(0xE21E_0009);
    let (db, _, _) = build_db(10, 5);
    for case in 0..256u64 {
        let n = rng.below(25);
        let input =
            (0..n).map(|_| WORDS[rng.below(WORDS.len())]).collect::<Vec<_>>().join(" ");
        if let Ok(parsed) = colt_engine::parse_sql(&db, &input) {
            // Anything that parses must be a valid query.
            assert!(parsed.query.validate().is_ok(), "case {case}: {input}");
        }
    }
}
