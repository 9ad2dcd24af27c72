//! Differential plan-equivalence suite: the optimizer under *every*
//! feature configuration is tested against the naive `run_logical`
//! oracle on randomized instances. The oracle never touches the
//! optimizer — it lowers the logical plan directly — so any
//! disagreement is an optimizer or executor bug, not a shared one.
//! Traced executions ride along: the trace root must report exactly
//! the oracle's cardinality, pinning the observability layer to the
//! same oracle.

use filterjoin::{
    col, fixtures, lit, Catalog, CheckpointPhase, DataType, Database, FaultPlan, FromItem,
    InterruptReason, JoinQuery, Mutation, OptimizerConfig, PlanShape, QueryService, RuntimeError,
    ServiceConfig, StorageMode, Store, TableBuilder, Tuple, Value,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort();
    rows
}

/// Every optimizer feature combination worth distinguishing: all on,
/// all off, and each major feature toggled individually. Exhaustive
/// 2^6 would mostly re-test the same plans; these eight hit every
/// lowering path.
fn config_matrix() -> Vec<OptimizerConfig> {
    let all = OptimizerConfig::default();
    let mut configs = vec![all, OptimizerConfig::without_filter_join()];
    for toggle in 0..4 {
        let mut c = OptimizerConfig::default();
        match toggle {
            0 => c.enable_bloom = !c.enable_bloom,
            1 => c.enable_index_nl = !c.enable_index_nl,
            2 => c.enable_merge_join = !c.enable_merge_join,
            _ => c.filter_join_on_base = !c.filter_join_on_base,
        }
        configs.push(c);
    }
    let mut off = OptimizerConfig::without_filter_join();
    off.enable_bloom = false;
    off.enable_index_nl = false;
    off.enable_merge_join = false;
    configs.push(off);
    configs
}

/// The feature matrix crossed with both enumerator shapes: every
/// config runs once exploring left-deep chains and once exploring the
/// full bushy space, so a bushy-only lowering or execution bug cannot
/// hide behind the default shape.
fn shaped_matrix() -> Vec<OptimizerConfig> {
    config_matrix()
        .into_iter()
        .flat_map(|c| {
            [
                c.with_shape(PlanShape::LeftDeep),
                c.with_shape(PlanShape::Bushy),
            ]
        })
        .collect()
}

/// Randomized Emp/Dept/DepAvgSal catalog (the paper's schema).
fn paper_catalog_from(emps: &[(i64, f64, i64)], n_depts: i64) -> Catalog {
    let mut cat = Catalog::new();
    cat.add_table(
        TableBuilder::new("Emp")
            .column("eid", DataType::Int)
            .column("did", DataType::Int)
            .column("sal", DataType::Double)
            .column("age", DataType::Int)
            .rows(emps.iter().enumerate().map(|(i, (d, s, a))| {
                vec![
                    Value::Int(i as i64),
                    Value::Int(d % n_depts.max(1)),
                    Value::Double(*s),
                    Value::Int(*a),
                ]
            }))
            .build()
            .expect("emp rows conform")
            .into_ref(),
    );
    cat.add_table(
        TableBuilder::new("Dept")
            .column("did", DataType::Int)
            .column("budget", DataType::Double)
            .rows((0..n_depts).map(|i| vec![Value::Int(i), Value::Double(1e5 + i as f64)]))
            .build()
            .expect("dept rows conform")
            .into_ref(),
    );
    fixtures::add_dep_avg_sal_view(&mut cat);
    cat
}

/// Oracle vs every configured optimizer, on one database and query:
/// row multisets identical, and the traced execution's root
/// cardinality equal to the oracle count.
fn check_differential(db: &Database, q: &JoinQuery) {
    let oracle = sorted(db.run_logical(&q.to_plan()).expect("oracle runs").rows);
    for config in shaped_matrix() {
        let got = sorted(
            db.execute_with_config(q, config)
                .expect("optimized plan runs")
                .rows,
        );
        assert_eq!(oracle, got, "optimizer config diverged: {config:?}");
    }
    let traced = db.execute_traced(q).expect("traced run");
    let trace = traced.trace.expect("traced run carries a trace");
    assert_eq!(trace.rows_out() as usize, oracle.len());
    assert_eq!(sorted(traced.rows), oracle);
}

/// Body of `paper_query_differential`, shared with the pinned seeds.
fn check_paper_query(emps: &[(i64, f64, i64)], n_depts: i64, age: i64) {
    let db = Database::with_catalog(paper_catalog_from(emps, n_depts));
    let q = JoinQuery::new(vec![
        FromItem::new("Emp", "E"),
        FromItem::new("Dept", "D"),
        FromItem::new("DepAvgSal", "V"),
    ])
    .with_predicate(
        col("E.did")
            .eq(col("D.did"))
            .and(col("E.did").eq(col("V.did")))
            .and(col("E.sal").gt(col("V.avgsal")))
            .and(col("E.age").lt(lit(age))),
    );
    check_differential(&db, &q);
}

/// Body of `two_table_join_differential`, shared with the pinned seeds.
fn check_two_table(left: &[(i64, i64)], right: &[i64], threshold: i64) {
    let mut cat = Catalog::new();
    cat.add_table(
        TableBuilder::new("L")
            .column("k", DataType::Int)
            .column("v", DataType::Int)
            .rows(
                left.iter()
                    .map(|(k, v)| vec![Value::Int(*k), Value::Int(*v)]),
            )
            .build()
            .unwrap()
            .into_ref(),
    );
    cat.add_table(
        TableBuilder::new("R")
            .column("k", DataType::Int)
            .rows(right.iter().map(|&k| vec![Value::Int(k)]))
            .build()
            .unwrap()
            .into_ref(),
    );
    let db = Database::with_catalog(cat);
    let q = JoinQuery::new(vec![FromItem::new("L", "l"), FromItem::new("R", "r")])
        .with_predicate(col("l.k").eq(col("r.k")).and(col("l.v").ge(lit(threshold))));
    check_differential(&db, &q);
}

/// Body of `chain_join_differential`, shared with the pinned seeds.
fn check_chain(a: &[(i64, i64)], b: &[(i64, i64)], c: &[i64]) {
    let mut cat = Catalog::new();
    cat.add_table(
        TableBuilder::new("A")
            .column("x", DataType::Int)
            .column("y", DataType::Int)
            .rows(a.iter().map(|(x, y)| vec![Value::Int(*x), Value::Int(*y)]))
            .build()
            .unwrap()
            .into_ref(),
    );
    cat.add_table(
        TableBuilder::new("B")
            .column("y", DataType::Int)
            .column("z", DataType::Int)
            .rows(b.iter().map(|(y, z)| vec![Value::Int(*y), Value::Int(*z)]))
            .build()
            .unwrap()
            .into_ref(),
    );
    cat.add_table(
        TableBuilder::new("C")
            .column("z", DataType::Int)
            .rows(c.iter().map(|&z| vec![Value::Int(z)]))
            .build()
            .unwrap()
            .into_ref(),
    );
    let db = Database::with_catalog(cat);
    let q = JoinQuery::new(vec![
        FromItem::new("A", "a"),
        FromItem::new("B", "b"),
        FromItem::new("C", "c"),
    ])
    .with_predicate(col("a.y").eq(col("b.y")).and(col("b.z").eq(col("c.z"))));
    check_differential(&db, &q);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The paper query over random instances: the oracle and every
    /// optimizer configuration agree, and the trace agrees with both.
    #[test]
    fn paper_query_differential(
        emps in prop::collection::vec((0i64..64, 500.0f64..9_000.0, 18i64..70), 1..50),
        n_depts in 4i64..10,
        age in 20i64..65,
    ) {
        check_paper_query(&emps, n_depts, age);
    }

    /// Two-table equi-join with a residual filter, arbitrary key
    /// distributions (duplicates, skew, empty sides).
    #[test]
    fn two_table_join_differential(
        left in prop::collection::vec((0i64..10, 0i64..50), 0..40),
        right in prop::collection::vec(0i64..10, 0..40),
        threshold in 0i64..50,
    ) {
        check_two_table(&left, &right, threshold);
    }

    /// Three-table chain join: the optimizer's join-order choices must
    /// never change the answer.
    #[test]
    fn chain_join_differential(
        a in prop::collection::vec((0i64..6, 0i64..6), 0..25),
        b in prop::collection::vec((0i64..6, 0i64..6), 0..25),
        c in prop::collection::vec(0i64..6, 0..25),
    ) {
        check_chain(&a, &b, &c);
    }
}

// The vendored proptest shim derives its byte stream from the test
// name and does not consult regression files, so interesting inputs
// are pinned as explicit deterministic replays below.

/// Empty-side joins: every config must agree on zero rows (and the
/// trace must report zero, not skip the node).
#[test]
fn empty_sides_regression_seed() {
    check_two_table(&[], &[0, 1, 2], 0);
    check_two_table(&[(1, 10), (2, 20)], &[], 0);
    check_chain(&[(0, 0)], &[], &[0]);
}

/// Heavy duplicates on both sides — the multiset (not set) contract:
/// 3×2 matches on one key must survive every join strategy.
#[test]
fn duplicate_keys_regression_seed() {
    check_two_table(&[(5, 1), (5, 2), (5, 3)], &[5, 5], 0);
    check_chain(&[(1, 1), (1, 1)], &[(1, 2), (1, 2)], &[2, 2]);
}

/// One department, every employee in it, threshold filtering none:
/// maximally skewed paper-query instance.
#[test]
fn skewed_paper_instance_regression_seed() {
    let emps: Vec<(i64, f64, i64)> = (0..30).map(|i| (0, 1000.0 + i as f64, 30)).collect();
    check_paper_query(&emps, 1, 64);
}

/// A filter threshold excluding every row: the restricted view is
/// empty but the plan shape still has every operator.
#[test]
fn all_filtered_regression_seed() {
    check_two_table(&[(1, 1), (2, 2)], &[1, 2], 49);
    let emps = [(0, 800.0, 69), (1, 900.0, 68)];
    check_paper_query(&emps, 4, 21);
}

// ---------------------------------------------------------------------
// Disk-backed storage mode: the same differential contract must hold
// when every logical page the executor charges is shadowed by a
// physical fetch through the buffer pool and page file.

/// A unique scratch directory under the system temp dir, removed on
/// drop (kept for post-mortems if removal fails — it is temp space).
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(label: &str) -> ScratchDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "fj-differential-{label}-{}-{n}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn disk_config(dir: &ScratchDir, pool_pages: usize) -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        storage: StorageMode::Disk {
            dir: dir.0.clone(),
            pool_pages,
        },
        ..ServiceConfig::default()
    }
}

/// A deterministic mid-sized paper instance for the disk-mode checks.
fn disk_instance() -> (Catalog, JoinQuery) {
    let emps: Vec<(i64, f64, i64)> = (0..200)
        .map(|i| {
            (
                (i * 7) % 64,
                500.0 + (i * 13 % 100) as f64 * 80.0,
                18 + (i * 5) % 50,
            )
        })
        .collect();
    let cat = paper_catalog_from(&emps, 8);
    let q = JoinQuery::new(vec![
        FromItem::new("Emp", "E"),
        FromItem::new("Dept", "D"),
        FromItem::new("DepAvgSal", "V"),
    ])
    .with_predicate(
        col("E.did")
            .eq(col("D.did"))
            .and(col("E.did").eq(col("V.did")))
            .and(col("E.sal").gt(col("V.avgsal")))
            .and(col("E.age").lt(lit(45))),
    );
    (cat, q)
}

/// Every optimizer configuration of the matrix, executed through a
/// disk-backed service with a deliberately tiny buffer pool (forcing
/// eviction churn), must agree with the in-memory oracle row for row.
#[test]
fn disk_mode_matches_oracle_across_config_matrix() {
    let (cat, q) = disk_instance();
    let oracle = sorted(
        Database::with_catalog(cat.clone())
            .run_logical(&q.to_plan())
            .expect("oracle runs")
            .rows,
    );
    let dir = ScratchDir::new("matrix");
    // pool_pages 2: far below the working set, so the clock hand is
    // forced to evict and re-fetch pages throughout every query.
    let service = QueryService::start(cat, disk_config(&dir, 2));
    for config in config_matrix() {
        let got = sorted(
            service
                .submit_with_options(q.clone(), config, false)
                .expect("submit")
                .wait()
                .expect("disk-mode query runs")
                .rows,
        );
        assert_eq!(
            oracle, got,
            "disk-mode optimizer config diverged: {config:?}"
        );
    }
    service.shutdown();
}

/// The cost-model parity contract on the restart (cold-pool) path: for
/// a cold base-table scan, the *simulated* page charges the ledger
/// records equal the *physical* page-file reads exactly, and every one
/// of them is a pool miss. A warm re-run keeps the simulated charges
/// identical while physical reads drop to zero — the intentional,
/// documented divergence: the ledger models a cold System-R buffer on
/// every query, the pool models a real warm one (DESIGN.md
/// §"Persistence & recovery").
#[test]
fn cold_disk_scan_charges_equal_physical_reads() {
    let (cat, _) = disk_instance();
    let dir = ScratchDir::new("parity");
    // First start loads the tables into the store; shut down cleanly.
    QueryService::start(cat.clone(), disk_config(&dir, 64)).shutdown();

    // Restart from the data directory: recovery replays, pool is cold.
    let service = QueryService::start(cat, disk_config(&dir, 64));
    let scan = JoinQuery::new(vec![FromItem::new("Emp", "E")]);

    let before = service.store_stats();
    let cold = service
        .submit(scan.clone())
        .expect("submit")
        .wait()
        .expect("cold scan runs");
    let after = service.store_stats();
    let misses = after.pool_misses - before.pool_misses;
    let physical = after.physical_reads - before.physical_reads;
    assert!(misses > 0, "a cold scan must miss the pool");
    assert_eq!(misses, physical, "every cold miss is one page-file read");
    assert_eq!(
        cold.charges.page_reads, physical,
        "simulated page charges must equal physical reads for a cold scan"
    );

    let before = service.store_stats();
    let warm = service
        .submit(scan)
        .expect("submit")
        .wait()
        .expect("warm scan runs");
    let after = service.store_stats();
    assert_eq!(
        warm.charges.page_reads, cold.charges.page_reads,
        "simulated charges are pool-oblivious by design"
    );
    assert_eq!(
        after.physical_reads, before.physical_reads,
        "a warm scan reads nothing from disk"
    );
    assert_eq!(
        after.pool_hits - before.pool_hits,
        misses,
        "the warm scan hits exactly the pages the cold scan faulted in"
    );
    assert_eq!(sorted(warm.rows), sorted(cold.rows));
    service.shutdown();
}

/// Applies `mutations` to the named tables of `cat` in order and
/// returns the mutated row vectors, keyed by insertion order of
/// `names`. Pure [`Mutation::apply`] — the same oracle the crash
/// harness uses, never the storage engine under test.
fn mutated_rows(cat: &Catalog, names: &[&str], mutations: &[Mutation]) -> Vec<Vec<Tuple>> {
    let mut rows: Vec<Vec<Tuple>> = names
        .iter()
        .map(|n| cat.table(n).expect("template table").rows().to_vec())
        .collect();
    for m in mutations {
        let i = names
            .iter()
            .position(|n| *n == m.table())
            .expect("mutation targets a known table");
        let schema = cat.table(names[i]).unwrap().schema().as_ref().clone();
        let (next, _) = m.apply(&schema, &rows[i]).expect("oracle mutation applies");
        rows[i] = next;
    }
    rows
}

/// The write-path differential: a disk-backed service absorbs a stream
/// of mutations (deletes, salary updates, inserts — against both join
/// sides), and then every optimizer configuration of the matrix must
/// agree row-for-row with a fresh in-memory oracle built from the
/// *post-mutation* catalog. The view over the mutated base table is
/// recomputed on both sides, so a stale snapshot anywhere in the
/// service's catalog, plan cache, or buffer pool shows up as a diff.
#[test]
fn disk_mode_after_mutations_matches_post_mutation_oracle() {
    let (cat, q) = disk_instance();
    let dir = ScratchDir::new("mutated");
    let service = QueryService::start(cat.clone(), disk_config(&dir, 2));

    let mutations = vec![
        Mutation::Delete {
            table: "Emp".into(),
            where_col: "age".into(),
            where_value: Value::Int(18),
        },
        Mutation::Update {
            table: "Emp".into(),
            set: vec![("sal".into(), Value::Double(12_000.0))],
            where_col: "did".into(),
            where_value: Value::Int(3),
        },
        Mutation::Insert {
            table: "Emp".into(),
            rows: (0..5)
                .map(|i| {
                    vec![
                        Value::Int(900 + i),
                        Value::Int(i % 8),
                        Value::Double(4_000.0 + i as f64),
                        Value::Int(25),
                    ]
                })
                .collect(),
        },
        Mutation::Update {
            table: "Dept".into(),
            set: vec![("budget".into(), Value::Double(5e5))],
            where_col: "did".into(),
            where_value: Value::Int(2),
        },
    ];
    for m in &mutations {
        let stats = service
            .execute_mutation(m.clone())
            .expect("mutation commits");
        assert!(stats.version >= 2, "every commit bumps the table version");
    }

    // Post-mutation oracle: the same mutations applied purely, then a
    // fresh in-memory catalog (view re-derived from the mutated rows).
    let rows = mutated_rows(&cat, &["Emp", "Dept"], &mutations);
    let mut post = Catalog::new();
    post.add_table(
        TableBuilder::new("Emp")
            .column("eid", DataType::Int)
            .column("did", DataType::Int)
            .column("sal", DataType::Double)
            .column("age", DataType::Int)
            .rows(rows[0].iter().map(|t| t.values().to_vec()))
            .build()
            .expect("mutated Emp conforms")
            .into_ref(),
    );
    post.add_table(
        TableBuilder::new("Dept")
            .column("did", DataType::Int)
            .column("budget", DataType::Double)
            .rows(rows[1].iter().map(|t| t.values().to_vec()))
            .build()
            .expect("mutated Dept conforms")
            .into_ref(),
    );
    fixtures::add_dep_avg_sal_view(&mut post);
    let oracle = sorted(
        Database::with_catalog(post)
            .run_logical(&q.to_plan())
            .expect("post-mutation oracle runs")
            .rows,
    );
    // The mutations must actually change the answer, or the matrix
    // below would pass against a service that ignored them.
    let pre_oracle = sorted(
        Database::with_catalog(cat)
            .run_logical(&q.to_plan())
            .expect("pre-mutation oracle runs")
            .rows,
    );
    assert_ne!(oracle, pre_oracle, "mutations must be answer-changing");

    for config in config_matrix() {
        let got = sorted(
            service
                .submit_with_options(q.clone(), config, false)
                .expect("submit")
                .wait()
                .expect("disk-mode query runs")
                .rows,
        );
        assert_eq!(
            oracle, got,
            "post-mutation disk-mode optimizer config diverged: {config:?}"
        );
    }
    service.shutdown();
}

/// Pinned regression seed: mutations committed around a checkpoint that
/// dies *after publishing the manifest but before truncating the WAL*
/// (the nastiest window — every mutation gets replayed over
/// already-checkpointed state). Recovery must be idempotent, and a
/// service started on the crashed directory must serve the
/// post-mutation rows across the whole config matrix.
#[test]
fn crash_mid_checkpoint_regression_seed() {
    let left: Vec<(i64, i64)> = (0..40).map(|i| (i % 11, i)).collect();
    let right: Vec<i64> = (0..30).map(|i| i % 13).collect();
    let cat = two_table_catalog(&left, &right);
    let mutations = vec![
        Mutation::Insert {
            table: "L".into(),
            rows: vec![
                vec![Value::Int(100), Value::Int(5)],
                vec![Value::Int(3), Value::Int(77)],
            ],
        },
        Mutation::Delete {
            table: "L".into(),
            where_col: "k".into(),
            where_value: Value::Int(7),
        },
        Mutation::Update {
            table: "L".into(),
            set: vec![("v".into(), Value::Int(9))],
            where_col: "k".into(),
            where_value: Value::Int(4),
        },
    ];
    let l_rows = mutated_rows(&cat, &["L"], &mutations).remove(0);

    let dir = ScratchDir::new("ckpt-crash");
    {
        let faults = std::sync::Arc::new(
            FaultPlan::new(0xBADC_0FFE)
                .with_torn_delta_writes(1)
                .with_torn_scrub_writes(2),
        );
        let (store, _) = Store::open(&dir.0, 8, Some(faults)).expect("open store");
        store
            .load_table(&cat.table("L").expect("template L"))
            .expect("load L");
        store
            .mutate(&mutations[0], &|| false)
            .expect("insert commits");
        store
            .mutate(&mutations[1], &|| false)
            .expect("delete commits");
        // The checkpoint dies after the manifest publish, before the
        // WAL truncate — then one more mutation lands, then the kill.
        store
            .checkpoint_until(CheckpointPhase::Manifest)
            .expect("partial checkpoint");
        store
            .mutate(&mutations[2], &|| false)
            .expect("update commits");
    }

    // Recovery replays all three commits over the checkpointed state
    // (the WAL was never truncated) — idempotently, twice.
    let first = {
        let (store, report) = Store::open(&dir.0, 8, None).expect("recover");
        assert_eq!(report.replayed_mutations, 3, "untruncated WAL replays all");
        let (_, rows) = store.recovered_rows("L").expect("recovered L");
        assert_eq!(rows, l_rows, "recovered rows must equal the oracle");
        std::fs::read(dir.0.join("pages.fj")).expect("page file exists")
    };
    {
        let (_store, _) = Store::open(&dir.0, 8, None).expect("second recover");
        assert_eq!(
            std::fs::read(dir.0.join("pages.fj")).expect("page file exists"),
            first,
            "second recovery must be byte-identical"
        );
    }

    // A service on the crashed directory serves the mutated table (R
    // loads fresh from the template) — matrix-agreeing with the oracle.
    let mut post = two_table_catalog(&[], &right);
    post.add_table(
        TableBuilder::new("L")
            .column("k", DataType::Int)
            .column("v", DataType::Int)
            .rows(l_rows.iter().map(|t| t.values().to_vec()))
            .build()
            .expect("mutated L conforms")
            .into_ref(),
    );
    let q = JoinQuery::new(vec![FromItem::new("L", "l"), FromItem::new("R", "r")])
        .with_predicate(col("l.k").eq(col("r.k")).and(col("l.v").ge(lit(4))));
    let oracle = sorted(
        Database::with_catalog(post)
            .run_logical(&q.to_plan())
            .expect("post-crash oracle runs")
            .rows,
    );
    let service = QueryService::start(cat, disk_config(&dir, 4));
    for config in config_matrix() {
        let got = sorted(
            service
                .submit_with_options(q.clone(), config, false)
                .expect("submit")
                .wait()
                .expect("post-crash query runs")
                .rows,
        );
        assert_eq!(oracle, got, "post-crash config diverged: {config:?}");
    }
    service.shutdown();
}

// -------------------- distributed execution differential ------------

/// A 3-shard coordinator over `cat`, with empty shard servers spun up
/// on loopback. The servers are returned so they outlive the
/// coordinator (and so tests can drain one).
fn dist_fixture(
    cat: Catalog,
    replication: usize,
) -> (Vec<filterjoin::Server>, filterjoin::DistCoordinator) {
    let servers: Vec<filterjoin::Server> = (0..3)
        .map(|_| {
            filterjoin::Server::bind(
                "127.0.0.1:0",
                Catalog::new(),
                filterjoin::ServerConfig::default(),
            )
            .unwrap()
        })
        .collect();
    let addrs: Vec<std::net::SocketAddr> = servers.iter().map(|s| s.local_addr()).collect();
    let coord = filterjoin::DistCoordinator::deploy(
        cat,
        filterjoin::ShardMap::new(&addrs, 3, replication),
        filterjoin::DistConfig::default(),
    )
    .expect("deploy scatters cleanly");
    (servers, coord)
}

/// The distributed differential: the untouched `run_logical` oracle vs
/// the 3-shard coordinator under every optimizer configuration of the
/// matrix (with automatic strategy selection), then under every
/// explicit shipping strategy at the default configuration.
fn check_dist_differential(cat: Catalog, q: &JoinQuery) {
    let oracle = sorted(
        Database::with_catalog(cat.clone())
            .run_logical(&q.to_plan())
            .expect("oracle runs")
            .rows,
    );
    let (_servers, coord) = dist_fixture(cat, 1);
    for config in shaped_matrix() {
        let got = coord
            .execute_with_config(q, config, filterjoin::ShipStrategy::Auto)
            .expect("distributed run succeeds");
        assert_eq!(
            sorted(got.result.rows),
            oracle,
            "distributed run diverged under config {config:?}"
        );
    }
    for strategy in filterjoin::ShipStrategy::ALL {
        if strategy == filterjoin::ShipStrategy::FullReducer {
            // Applicable only to acyclic equi-join graphs; the shapes
            // below all are, but guard anyway so new shapes can ride.
            match coord.execute_with_config(q, OptimizerConfig::default(), strategy) {
                Ok(got) => assert_eq!(sorted(got.result.rows), oracle, "{}", strategy.name()),
                Err(filterjoin::DistError::Unsupported(_)) => continue,
                Err(e) => panic!("full reducer failed: {e}"),
            }
            continue;
        }
        let got = coord
            .execute_with_config(q, OptimizerConfig::default(), strategy)
            .expect("distributed run succeeds");
        assert_eq!(
            sorted(got.result.rows),
            oracle,
            "distributed {} diverged",
            strategy.name()
        );
    }
}

fn two_table_catalog(left: &[(i64, i64)], right: &[i64]) -> Catalog {
    let mut cat = Catalog::new();
    cat.add_table(
        TableBuilder::new("L")
            .column("k", DataType::Int)
            .column("v", DataType::Int)
            .rows(
                left.iter()
                    .map(|(k, v)| vec![Value::Int(*k), Value::Int(*v)]),
            )
            .build()
            .unwrap()
            .into_ref(),
    );
    cat.add_table(
        TableBuilder::new("R")
            .column("k", DataType::Int)
            .rows(right.iter().map(|&k| vec![Value::Int(k)]))
            .build()
            .unwrap()
            .into_ref(),
    );
    cat
}

fn chain_catalog_from(a: &[(i64, i64)], b: &[(i64, i64)], c: &[i64]) -> Catalog {
    let mut cat = Catalog::new();
    cat.add_table(
        TableBuilder::new("A")
            .column("x", DataType::Int)
            .column("y", DataType::Int)
            .rows(a.iter().map(|(x, y)| vec![Value::Int(*x), Value::Int(*y)]))
            .build()
            .unwrap()
            .into_ref(),
    );
    cat.add_table(
        TableBuilder::new("B")
            .column("y", DataType::Int)
            .column("z", DataType::Int)
            .rows(b.iter().map(|(y, z)| vec![Value::Int(*y), Value::Int(*z)]))
            .build()
            .unwrap()
            .into_ref(),
    );
    cat.add_table(
        TableBuilder::new("C")
            .column("z", DataType::Int)
            .rows(c.iter().map(|&z| vec![Value::Int(z)]))
            .build()
            .unwrap()
            .into_ref(),
    );
    cat
}

/// Two-table join with duplicates and skew through the 3-shard
/// coordinator: byte-identical to the oracle across the whole config
/// matrix and every shipping strategy.
#[test]
fn distributed_two_table_matches_oracle_across_config_matrix() {
    let left: Vec<(i64, i64)> = (0..37).map(|i| (i % 7, i % 13)).collect();
    let right: Vec<i64> = (0..29).map(|i| i % 9).collect();
    let cat = two_table_catalog(&left, &right);
    let q = JoinQuery::new(vec![FromItem::new("L", "l"), FromItem::new("R", "r")])
        .with_predicate(col("l.k").eq(col("r.k")).and(col("l.v").ge(lit(4))));
    check_dist_differential(cat, &q);
}

/// Three-table chain (the magic-sets shape) through the 3-shard
/// coordinator, including empty-partition skew: one key value owns
/// most rows, so at least one shard holds almost nothing.
#[test]
fn distributed_chain_matches_oracle_across_config_matrix() {
    let a: Vec<(i64, i64)> = (0..24)
        .map(|i| (i, if i % 3 == 0 { 0 } else { i % 5 }))
        .collect();
    let b: Vec<(i64, i64)> = (0..20).map(|i| (i % 5, i % 4)).collect();
    let c: Vec<i64> = (0..10).map(|i| i % 6).collect();
    let cat = chain_catalog_from(&a, &b, &c);
    let q = JoinQuery::new(vec![
        FromItem::new("A", "a"),
        FromItem::new("B", "b"),
        FromItem::new("C", "c"),
    ])
    .with_predicate(col("a.y").eq(col("b.y")).and(col("b.z").eq(col("c.z"))));
    check_dist_differential(cat, &q);
}

/// Pinned regression seed: a shard enters `begin_drain` between the
/// driver gather and the first reduction. With replication 2 the
/// coordinator must ride through on the replicas — byte-identical
/// result, zero client-visible failures, failover observable in stats.
#[test]
fn distributed_drain_regression_seed() {
    let a: Vec<(i64, i64)> = (0..30).map(|i| (i, i % 4)).collect();
    let b: Vec<(i64, i64)> = (0..26).map(|i| (i % 6, i % 5)).collect();
    let c: Vec<i64> = (0..14).map(|i| i % 8).collect();
    let cat = chain_catalog_from(&a, &b, &c);
    let q = JoinQuery::new(vec![
        FromItem::new("A", "a"),
        FromItem::new("B", "b"),
        FromItem::new("C", "c"),
    ])
    .with_predicate(col("a.y").eq(col("b.y")).and(col("b.z").eq(col("c.z"))));
    let oracle = sorted(
        Database::with_catalog(cat.clone())
            .run_logical(&q.to_plan())
            .expect("oracle runs")
            .rows,
    );
    let (servers, mut coord) = dist_fixture(cat, 2);
    let servers = std::sync::Arc::new(servers);
    let drained = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    {
        let servers = servers.clone();
        let drained = drained.clone();
        coord.set_phase_hook(Box::new(move |phase| {
            if phase.starts_with("reduce:") && !drained.swap(true, Ordering::SeqCst) {
                servers[0].begin_drain();
            }
        }));
    }
    let got = coord
        .execute_with_config(
            &q,
            OptimizerConfig::default(),
            filterjoin::ShipStrategy::Semijoin,
        )
        .expect("drain mid-query must be invisible to the client");
    assert_eq!(sorted(got.result.rows), oracle);
    assert!(drained.load(Ordering::SeqCst), "the hook must have fired");
    assert!(got.stats.failovers > 0, "failover must actually happen");
}

// -------------------- tight-memory spilling differential ------------

/// Two string-padded join sides, each several times a 4-page executor's
/// memory, with duplicated keys on the probe side so the multiset
/// contract is load-bearing through partitioned spill files.
fn spill_catalog(n_rows: usize) -> Catalog {
    let table = |name: &str, key_mod: i64| {
        TableBuilder::new(name)
            .column("id", DataType::Int)
            .column("pad", DataType::Str)
            .rows((0..n_rows).map(move |i| {
                vec![
                    Value::Int(i as i64 % key_mod),
                    Value::Str(format!("{name}-pad-{i}")),
                ]
            }))
            .build()
            .expect("spill rows conform")
            .into_ref()
    };
    let mut cat = Catalog::new();
    // Every Fact key appears twice; Dim keys are unique.
    cat.add_table(table("Fact", (n_rows as i64 / 2).max(1)));
    cat.add_table(table("Dim", n_rows as i64));
    cat
}

fn spill_query() -> JoinQuery {
    JoinQuery::new(vec![FromItem::new("Fact", "f"), FromItem::new("Dim", "d")])
        .with_predicate(col("f.id").eq(col("d.id")))
}

/// Executor memory and materialization budget far below the working
/// set: the seed configuration (spilling off) provably kills the query.
fn tight_config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        memory_pages: 4,
        memory_budget_pages: Some(5),
        ..ServiceConfig::default()
    }
}

/// Runs `q` through a tight-memory *spilling* service under every
/// optimizer configuration of the matrix and asserts each agrees with
/// the in-memory oracle; afterwards the spill directory must be empty
/// and the broker quiescent.
fn check_spilling_matrix(cat: Catalog, q: &JoinQuery, config: ServiceConfig) {
    let oracle = sorted(
        Database::with_catalog(cat.clone())
            .run_logical(&q.to_plan())
            .expect("oracle runs")
            .rows,
    );
    let service = QueryService::start(cat, config);
    for config in config_matrix() {
        let got = sorted(
            service
                .submit_with_options(q.clone(), config, false)
                .expect("submit")
                .wait()
                .expect("tight-memory spilling query runs")
                .rows,
        );
        assert_eq!(
            oracle, got,
            "tight-memory optimizer config diverged: {config:?}"
        );
    }
    assert!(
        service.metrics().spills > 0,
        "the tight-memory matrix must actually spill"
    );
    assert_eq!(
        service
            .spill_temp_store()
            .expect("spilling is on")
            .live_files_on_disk()
            .expect("spill dir readable"),
        0,
        "no spill file may outlive its query"
    );
    assert_eq!(
        service
            .memory_broker()
            .expect("spilling is on")
            .in_use_pages(),
        0,
        "every broker grant released"
    );
    service.shutdown();
}

/// The memory-pressure differential: at the seed configuration the
/// governor kills the workload's plain hash join (the pressure is
/// real); the same configuration with spilling on must then agree with
/// the in-memory oracle across the whole optimizer config matrix.
///
/// The control pins the no-filter-join policy. Priced with the 4 pages
/// it runs with, the cost-based default picks a Bloom filter join that
/// stays inside the 5-page budget, so it is not killed.
#[test]
fn spilling_mode_matches_oracle_across_config_matrix() {
    let cat = spill_catalog(600);
    let q = spill_query();

    let control = QueryService::start(cat.clone(), tight_config());
    let err = control
        .submit_with_options(q.clone(), OptimizerConfig::without_filter_join(), false)
        .expect("submit")
        .wait()
        .expect_err("control join");
    assert!(
        matches!(
            err,
            RuntimeError::Interrupted(InterruptReason::MemoryBudget)
        ),
        "control must die on MemoryBudget, got: {err}"
    );
    control.shutdown();

    check_spilling_matrix(
        cat,
        &q,
        ServiceConfig {
            spill_soft_watermark_pages: Some(8),
            ..tight_config()
        },
    );
}

/// Pinned regression seed: knob extremes at heavy key skew. One hot key
/// owns a block of rows on both sides — a grace partition that
/// repartitioning can never shrink, so it recurses to
/// `fj_exec::DEFAULT_SPILL_MAX_DEPTH` — exercised once with an 8-page
/// watermark and once with a 1-page watermark (the broker denies
/// everything, so every operator spills). Both must agree with the
/// oracle across the matrix.
#[test]
fn spill_skew_and_knob_extremes_regression_seed() {
    let skewed = |name: &str, hot: usize, base: i64| {
        TableBuilder::new(name)
            .column("id", DataType::Int)
            .column("pad", DataType::Str)
            .rows((0..600).map(move |i| {
                let id = if i < hot { 7 } else { base + i as i64 };
                vec![Value::Int(id), Value::Str(format!("{name}-pad-{i}"))]
            }))
            .build()
            .expect("skewed rows conform")
            .into_ref()
    };
    let mut cat = Catalog::new();
    cat.add_table(skewed("Fact", 80, 1_000));
    cat.add_table(skewed("Dim", 40, 5_000));
    let q = spill_query();

    check_spilling_matrix(
        cat.clone(),
        &q,
        ServiceConfig {
            spill_soft_watermark_pages: Some(8),
            ..tight_config()
        },
    );
    check_spilling_matrix(
        cat,
        &q,
        ServiceConfig {
            spill_soft_watermark_pages: Some(1),
            ..tight_config()
        },
    );
}

// -------------------- star/snowflake shape differential -------------
//
// The bushy enumerator exists for these schemas: a fact table joined
// to K (filtered) dimensions, optionally snowflaked one level deeper.
// Every shape below runs the full feature matrix under BOTH
// enumerators against the untouched `run_logical` oracle, so a bushy
// plan that executes, lowers, or traces wrongly diverges immediately.

/// A star instance sized for differential testing (hundreds of fact
/// rows, tens of dimension rows) — `fj_bench`'s generator, which is
/// also what `reproduce bushy` measures at scale.
fn star_instance(
    dims: usize,
    fact_rows: usize,
    dim_rows: usize,
    seed: u64,
) -> (Catalog, JoinQuery) {
    fj_bench::workloads::star_selective(dims + 1, fact_rows, dim_rows, 15, seed)
}

/// A snowflake instance: `arms` dimension arms, each `Dim ⋈ σ(Sub)` —
/// connected subgraphs that exclude the fact, the canonical
/// bushy-only reduction shape.
fn snowflake_instance(
    arms: usize,
    fact_rows: usize,
    dim_rows: usize,
    seed: u64,
) -> (Catalog, JoinQuery) {
    fj_bench::workloads::snowflake(arms, fact_rows, dim_rows, (dim_rows / 2).max(4), 15, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Star queries (fact + K selective dimensions) over randomized
    /// sizes: the oracle and every (config, shape) pair agree.
    #[test]
    fn star_shape_differential(
        dims in 2usize..4,
        fact_rows in 50usize..300,
        dim_rows in 8usize..48,
        seed in 0u64..1_000,
    ) {
        let (cat, q) = star_instance(dims, fact_rows, dim_rows, seed);
        check_differential(&Database::with_catalog(cat), &q);
    }

    /// Snowflake queries (fact + arms of Dim ⋈ σ(Sub)) over randomized
    /// sizes: the oracle and every (config, shape) pair agree.
    #[test]
    fn snowflake_shape_differential(
        arms in 1usize..3,
        fact_rows in 50usize..300,
        dim_rows in 8usize..48,
        seed in 0u64..1_000,
    ) {
        let (cat, q) = snowflake_instance(arms, fact_rows, dim_rows, seed);
        check_differential(&Database::with_catalog(cat), &q);
    }
}

/// The star matrix through a disk-backed service with a 2-page buffer
/// pool: bushy plans must execute byte-identically when every page is
/// faulted in through the store, in both enumerator modes.
#[test]
fn star_disk_mode_matches_oracle_in_both_shapes() {
    let (cat, q) = star_instance(3, 240, 32, 7);
    let oracle = sorted(
        Database::with_catalog(cat.clone())
            .run_logical(&q.to_plan())
            .expect("oracle runs")
            .rows,
    );
    let dir = ScratchDir::new("star");
    let service = QueryService::start(cat, disk_config(&dir, 2));
    for config in shaped_matrix() {
        let got = sorted(
            service
                .submit_with_options(q.clone(), config, false)
                .expect("submit")
                .wait()
                .expect("disk-mode star query runs")
                .rows,
        );
        assert_eq!(oracle, got, "disk-mode star diverged: {config:?}");
    }
    service.shutdown();
}

/// The star and snowflake shapes through the 3-shard coordinator:
/// every (config, shape) pair and every shipping strategy must match
/// the oracle — the distributed path consumes bushy plans too.
#[test]
fn distributed_star_and_snowflake_match_oracle_in_both_shapes() {
    let (cat, q) = star_instance(2, 150, 24, 5);
    check_dist_differential(cat, &q);
    let (cat, q) = snowflake_instance(1, 150, 24, 5);
    check_dist_differential(cat, &q);
}

/// Pinned regression seed: a snowflake where the bushy winner is
/// *strictly* cheaper than the best left-deep plan (each arm's
/// `Dim ⋈ σ(Sub)` reduction pays for itself before the fact join).
/// The plans must still agree with the oracle across the matrix.
#[test]
fn bushy_strictly_cheaper_regression_seed() {
    let (cat, q) = fj_bench::workloads::snowflake(2, 500, 50, 25, 15, 13);
    let shared = std::sync::Arc::new(cat.clone());
    let ld = filterjoin::Optimizer::new(
        std::sync::Arc::clone(&shared),
        OptimizerConfig::default().with_shape(PlanShape::LeftDeep),
    )
    .optimize(&q)
    .expect("left-deep optimizes");
    let bushy = filterjoin::Optimizer::new(
        shared,
        OptimizerConfig::default().with_shape(PlanShape::Bushy),
    )
    .optimize(&q)
    .expect("bushy optimizes");
    assert!(
        bushy.cost < ld.cost,
        "bushy {} must be strictly cheaper than left-deep {}",
        bushy.cost,
        ld.cost
    );
    check_differential(&Database::with_catalog(cat), &q);
}

/// Pinned regression seed: a star where the shapes *tie* — the best
/// bushy plan is exactly the best left-deep chain, so enabling the
/// bushy enumerator must change neither the predicted cost nor the
/// answer. (Guards against the bushy frontier pruning the left-deep
/// optimum out of its own superset space.)
#[test]
fn shapes_tie_regression_seed() {
    for (cat, q) in [
        fj_bench::workloads::star_selective(4, 500, 50, 15, 11),
        (fixtures::paper_catalog(), fixtures::paper_query()),
    ] {
        let shared = std::sync::Arc::new(cat.clone());
        let ld = filterjoin::Optimizer::new(
            std::sync::Arc::clone(&shared),
            OptimizerConfig::default().with_shape(PlanShape::LeftDeep),
        )
        .optimize(&q)
        .expect("left-deep optimizes");
        let bushy = filterjoin::Optimizer::new(
            shared,
            OptimizerConfig::default().with_shape(PlanShape::Bushy),
        )
        .optimize(&q)
        .expect("bushy optimizes");
        assert!(
            (bushy.cost - ld.cost).abs() < 1e-9,
            "shapes must tie: bushy {} vs left-deep {}",
            bushy.cost,
            ld.cost
        );
        check_differential(&Database::with_catalog(cat), &q);
    }
}
