//! Differential plan-equivalence suite: the optimizer under *every*
//! feature configuration is tested against the naive `run_logical`
//! oracle. The oracle never touches the optimizer — it lowers the
//! logical plan directly — so any disagreement is an optimizer or
//! executor bug, not a shared one.
//!
//! The suite is one runner, [`check`], over two tables. The shape table
//! (paper, two-table, chain, star, snowflake, spill and skewed spill)
//! builds a catalog and a query; [`Mode`] says where the query runs:
//! serially in process (the traced root must report exactly the
//! oracle's cardinality there), through a disk-backed service, on three
//! shards, through a tight-memory spilling service, or on disk *and*
//! spilling. Random instances run serially; every fixed instance runs in
//! every mode. The only answer other than the oracle's rows a mode may
//! give is a named column of the shape table.

use filterjoin::{
    col, fixtures, lit, Catalog, CheckpointPhase, DataType, Database, DistError, FaultPlan,
    FromItem, InterruptReason, JoinQuery, Mutation, OptimizerConfig, PlanShape, QueryService,
    RuntimeError, ServiceConfig, ShipStrategy, StorageMode, Store, Table, TableBuilder, Tuple,
    Value,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort();
    rows
}

/// Every optimizer feature combination worth distinguishing: all on,
/// the Filter Join off, all off, each of four features toggled alone,
/// and the Limitation-2 ablation (production sets that are strict
/// prefixes of the outer). Exhaustive 2^7 would mostly re-test the same
/// plans; these eight hit every lowering path.
fn config_matrix() -> Vec<OptimizerConfig> {
    let on = OptimizerConfig::default();
    let mut off = OptimizerConfig::without_filter_join();
    off.enable_index_nl = false;
    off.enable_merge_join = false;
    let toggles: [fn(&mut OptimizerConfig); 5] = [
        |c| c.enable_bloom = false,
        |c| c.enable_index_nl = false,
        |c| c.enable_merge_join = false,
        |c| c.filter_join_on_base = false,
        |c| c.allow_prefix_production = true,
    ];
    let mut configs = vec![on, OptimizerConfig::without_filter_join(), off];
    configs.extend(toggles.iter().map(|toggle| {
        let mut c = on;
        toggle(&mut c);
        c
    }));
    configs
}

/// The feature matrix crossed with both enumerator shapes (16
/// configs): every config runs once exploring left-deep chains and once
/// exploring the full bushy space, so a bushy-only lowering or
/// execution bug cannot hide behind the default shape.
fn shaped_matrix() -> Vec<OptimizerConfig> {
    config_matrix()
        .into_iter()
        .flat_map(|c| [PlanShape::LeftDeep, PlanShape::Bushy].map(|s| c.with_shape(s)))
        .collect()
}

// -------------------- the shape table --------------------------------

/// One row of the shape table: a catalog, a query over it, and the two
/// facts about it that the modes check against.
struct Shape {
    cat: Catalog,
    q: JoinQuery,
    /// Several times a tight-memory service's memory: the spilling modes
    /// must actually spill.
    spill_sized: bool,
    /// A FROM item is a view. fj-dist ships base tables only, so on
    /// `Shards` every config and strategy must return
    /// `DistError::Unsupported` — the one non-answer these shapes allow.
    /// (The full reducer's `Unsupported` on a cyclic join graph is the
    /// other allowed one; no shape here is cyclic, so the reducer must
    /// answer on all of them.)
    unsupported_on_shards: bool,
}

/// A base-table shape: answers in every mode, never sized to spill.
fn shape((cat, q): (Catalog, JoinQuery)) -> Shape {
    Shape {
        cat,
        q,
        spill_sized: false,
        unsupported_on_shards: false,
    }
}

/// A shape whose query reads the `DepAvgSal` view.
fn view_shape(cat_q: (Catalog, JoinQuery)) -> Shape {
    Shape {
        unsupported_on_shards: true,
        ..shape(cat_q)
    }
}

/// Adds an all-`Int` table to `cat`.
fn add_ints(cat: &mut Catalog, name: &str, cols: &[&str], rows: impl Iterator<Item = Vec<i64>>) {
    let builder = cols
        .iter()
        .fold(TableBuilder::new(name), |b, c| b.column(*c, DataType::Int));
    let rows = rows.map(|r| r.into_iter().map(Value::Int).collect());
    cat.add_table(builder.rows(rows).build().expect("rows conform").into_ref());
}

/// The paper's query over a random Emp/Dept instance (Emp rows are
/// `(did, sal, age)`) and the `DepAvgSal` view.
fn paper(emps: &[(i64, f64, i64)], n_depts: i64, age: i64) -> Shape {
    let mut cat = Catalog::new();
    cat.add_table(
        TableBuilder::new("Emp")
            .column("eid", DataType::Int)
            .column("did", DataType::Int)
            .column("sal", DataType::Double)
            .column("age", DataType::Int)
            .rows(emps.iter().enumerate().map(|(i, &(d, s, a))| {
                vec![
                    Value::Int(i as i64),
                    Value::Int(d % n_depts.max(1)),
                    Value::Double(s),
                    Value::Int(a),
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
    view_shape((cat, q))
}

/// A deterministic mid-sized paper instance: 200 employees, 8
/// departments.
fn paper_200() -> Shape {
    let emps: Vec<(i64, f64, i64)> = (0..200)
        .map(|i| {
            (
                (i * 7) % 64,
                500.0 + (i * 13 % 100) as f64 * 80.0,
                18 + (i * 5) % 50,
            )
        })
        .collect();
    paper(&emps, 8, 45)
}

/// Two-table equi-join `L ⋈ R` on `k` with the residual `l.v >= threshold`.
fn two_table(left: &[(i64, i64)], right: &[i64], threshold: i64) -> Shape {
    let mut cat = Catalog::new();
    add_ints(
        &mut cat,
        "L",
        &["k", "v"],
        left.iter().map(|&(k, v)| vec![k, v]),
    );
    add_ints(&mut cat, "R", &["k"], right.iter().map(|&k| vec![k]));
    let q = JoinQuery::new(vec![FromItem::new("L", "l"), FromItem::new("R", "r")])
        .with_predicate(col("l.k").eq(col("r.k")).and(col("l.v").ge(lit(threshold))));
    shape((cat, q))
}

/// Three-table chain `A ⋈ B ⋈ C` (the magic-sets shape).
fn chain(a: &[(i64, i64)], b: &[(i64, i64)], c: &[i64]) -> Shape {
    let mut cat = Catalog::new();
    add_ints(
        &mut cat,
        "A",
        &["x", "y"],
        a.iter().map(|&(x, y)| vec![x, y]),
    );
    add_ints(
        &mut cat,
        "B",
        &["y", "z"],
        b.iter().map(|&(y, z)| vec![y, z]),
    );
    add_ints(&mut cat, "C", &["z"], c.iter().map(|&z| vec![z]));
    let q = JoinQuery::new(vec![
        FromItem::new("A", "a"),
        FromItem::new("B", "b"),
        FromItem::new("C", "c"),
    ])
    .with_predicate(col("a.y").eq(col("b.y")).and(col("b.z").eq(col("c.z"))));
    shape((cat, q))
}

/// A fact table joined to `dims` selective dimensions — `fj_bench`'s
/// generator, which is also what `reproduce bushy` measures at scale.
fn star(dims: usize, fact_rows: usize, dim_rows: usize, seed: u64) -> Shape {
    shape(fj_bench::workloads::star_selective(
        dims + 1,
        fact_rows,
        dim_rows,
        15,
        seed,
    ))
}

/// A fact table and `arms` dimension arms, each `Dim ⋈ σ(Sub)` —
/// connected subgraphs that exclude the fact, the canonical bushy-only
/// reduction shape.
fn snowflake(arms: usize, fact_rows: usize, dim_rows: usize, seed: u64) -> Shape {
    shape(fj_bench::workloads::snowflake(
        arms,
        fact_rows,
        dim_rows,
        (dim_rows / 2).max(4),
        15,
        seed,
    ))
}

/// `Fact ⋈ Dim` on `id` over two string-padded 600-row sides, each
/// several times a 4-page executor's memory; row `i` of each side gets
/// the key the matching function gives it.
fn spill_join(fact: fn(i64) -> i64, dim: fn(i64) -> i64) -> Shape {
    let mut cat = Catalog::new();
    for (name, key) in [("Fact", fact), ("Dim", dim)] {
        cat.add_table(
            TableBuilder::new(name)
                .column("id", DataType::Int)
                .column("pad", DataType::Str)
                .rows(
                    (0..600)
                        .map(|i| vec![Value::Int(key(i)), Value::Str(format!("{name}-pad-{i}"))]),
                )
                .build()
                .expect("spill rows conform")
                .into_ref(),
        );
    }
    let q = JoinQuery::new(vec![FromItem::new("Fact", "f"), FromItem::new("Dim", "d")])
        .with_predicate(col("f.id").eq(col("d.id")));
    Shape {
        spill_sized: true,
        ..shape((cat, q))
    }
}

/// Every Fact key appears twice and Dim keys are unique, so the
/// multiset contract is load-bearing through partitioned spill files.
fn spill() -> Shape {
    spill_join(|i| i % 300, |i| i)
}

/// One hot key owns a block of rows on both sides — a grace partition
/// that repartitioning can never shrink, so it recurses to
/// `fj_exec::DEFAULT_SPILL_MAX_DEPTH`.
fn skewed_spill() -> Shape {
    spill_join(
        |i| if i < 80 { 7 } else { 1_000 + i },
        |i| if i < 40 { 7 } else { 5_000 + i },
    )
}

// -------------------- the runner -------------------------------------

/// Where [`check`] runs a shape's query.
#[derive(Debug, Clone, Copy)]
enum Mode {
    /// `Database` in process, plus the traced root's row count.
    Serial,
    /// A disk-backed `QueryService` with a `pool_pages`-page buffer
    /// pool; 2 is far below every working set, so the clock hand evicts
    /// and re-fetches pages throughout every query.
    Disk { pool_pages: usize },
    /// The 3-shard coordinator, each shard on `replication` servers,
    /// under every config (automatic strategy) and every explicit
    /// `ShipStrategy` (default config).
    Shards { replication: usize },
    /// A tight-memory spilling service with a `watermark`-page broker
    /// soft watermark. No spill file may outlive its query, and the
    /// broker must end quiescent.
    Spill { watermark: u64 },
    /// Disk storage (2-page pool) and spilling (8-page watermark) at
    /// once.
    DiskSpill,
}

/// The modes every fixed instance is crossed with.
const MODES: [Mode; 5] = [
    Mode::Serial,
    Mode::Disk { pool_pages: 2 },
    Mode::Shards { replication: 1 },
    Mode::Spill { watermark: 8 },
    Mode::DiskSpill,
];

fn oracle(cat: &Catalog, q: &JoinQuery) -> Vec<Tuple> {
    sorted(
        Database::with_catalog(cat.clone())
            .run_logical(&q.to_plan())
            .expect("oracle runs")
            .rows,
    )
}

/// Asserts that `run` answers `oracle` under every config of the
/// shaped matrix.
fn assert_matrix<E: std::fmt::Display>(
    oracle: &[Tuple],
    what: &str,
    run: impl Fn(OptimizerConfig) -> Result<Vec<Tuple>, E>,
) {
    for config in shaped_matrix() {
        match run(config) {
            Ok(rows) => assert_eq!(sorted(rows), oracle, "{what} diverged under {config:?}"),
            Err(e) => panic!("{what} failed under {config:?}: {e}"),
        }
    }
}

/// [`assert_matrix`] through a running service.
fn assert_service(service: &QueryService, q: &JoinQuery, oracle: &[Tuple], what: &str) {
    assert_matrix(oracle, what, |config| {
        service
            .submit_with_options(q.clone(), config, false)
            .and_then(|ticket| ticket.wait())
            .map(|r| r.rows)
    });
}

/// Runs `shape` in `mode` against the oracle: row multisets identical
/// under every config, plus the mode's own checks.
fn check(shape: &Shape, mode: Mode) {
    let (q, what) = (&shape.q, format!("{mode:?}"));
    let oracle = oracle(&shape.cat, q);
    match mode {
        Mode::Serial => {
            let db = Database::with_catalog(shape.cat.clone());
            assert_matrix(&oracle, &what, |config| {
                db.execute_with_config(q, config).map(|r| r.rows)
            });
            let traced = db.execute_traced(q).expect("traced run");
            let trace = traced.trace.expect("traced run carries a trace");
            assert_eq!(trace.rows_out() as usize, oracle.len());
            assert_eq!(sorted(traced.rows), oracle);
        }
        Mode::Shards { replication } => {
            let (_servers, coord) = shards(shape.cat.clone(), replication);
            let runs = shaped_matrix()
                .into_iter()
                .map(|c| (c, ShipStrategy::Auto))
                .chain(ShipStrategy::ALL.map(|s| (OptimizerConfig::default(), s)));
            for (config, strategy) in runs {
                let what = format!("{what} {} under {config:?}", strategy.name());
                match coord.execute_with_config(q, config, strategy) {
                    Ok(got) if !shape.unsupported_on_shards => {
                        assert_eq!(sorted(got.result.rows), oracle, "{what} diverged")
                    }
                    Err(DistError::Unsupported(_)) if shape.unsupported_on_shards => {}
                    Ok(_) => panic!("{what} answered a query it cannot distribute"),
                    Err(e) => panic!("{what} failed: {e}"),
                }
            }
        }
        Mode::Disk { .. } | Mode::Spill { .. } | Mode::DiskSpill => {
            let dir = ScratchDir::new("mode");
            let config = match mode {
                Mode::Disk { pool_pages } => disk_config(&dir, pool_pages),
                Mode::Spill { watermark } => ServiceConfig {
                    spill_soft_watermark_pages: Some(watermark),
                    ..tight_config()
                },
                Mode::DiskSpill => ServiceConfig {
                    storage: disk_config(&dir, 2).storage,
                    spill_soft_watermark_pages: Some(8),
                    ..tight_config()
                },
                Mode::Serial | Mode::Shards { .. } => unreachable!("{what} runs no service"),
            };
            let spilling = config.spill_soft_watermark_pages.is_some();
            let service = QueryService::start(shape.cat.clone(), config);
            assert_service(&service, q, &oracle, &what);
            if spilling {
                if shape.spill_sized {
                    assert!(service.metrics().spills > 0, "{what} must actually spill");
                }
                let temp = service.spill_temp_store().expect("spilling is on");
                let live = temp.live_files_on_disk().expect("spill dir readable");
                assert_eq!(live, 0, "no spill file may outlive its query");
                let broker = service.memory_broker().expect("spilling is on");
                assert_eq!(broker.in_use_pages(), 0, "every broker grant released");
            }
            service.shutdown();
        }
    }
}

fn check_every_mode(shape: &Shape) {
    for mode in MODES {
        check(shape, mode);
    }
}

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

/// Executor memory and materialization budget far below a spill-sized
/// working set: with spilling off, the workload is killed.
fn tight_config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        memory_pages: 4,
        memory_budget_pages: Some(5),
        ..ServiceConfig::default()
    }
}

/// A 3-shard coordinator over `cat`, with empty shard servers spun up
/// on loopback. The servers are returned so they outlive the
/// coordinator (and so tests can drain one).
fn shards(
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

// -------------------- random instances, serially ---------------------

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
        check(&paper(&emps, n_depts, age), Mode::Serial);
    }

    /// Two-table equi-join with a residual filter, arbitrary key
    /// distributions (duplicates, skew, empty sides).
    #[test]
    fn two_table_join_differential(
        left in prop::collection::vec((0i64..10, 0i64..50), 0..40),
        right in prop::collection::vec(0i64..10, 0..40),
        threshold in 0i64..50,
    ) {
        check(&two_table(&left, &right, threshold), Mode::Serial);
    }

    /// Three-table chain join: the optimizer's join-order choices must
    /// never change the answer.
    #[test]
    fn chain_join_differential(
        a in prop::collection::vec((0i64..6, 0i64..6), 0..25),
        b in prop::collection::vec((0i64..6, 0i64..6), 0..25),
        c in prop::collection::vec(0i64..6, 0..25),
    ) {
        check(&chain(&a, &b, &c), Mode::Serial);
    }
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
        check(&star(dims, fact_rows, dim_rows, seed), Mode::Serial);
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
        check(&snowflake(arms, fact_rows, dim_rows, seed), Mode::Serial);
    }
}

// -------------------- fixed instances, in every mode -----------------
//
// The vendored proptest shim derives its byte stream from the test
// name and does not consult regression files, so interesting inputs
// are pinned as explicit deterministic replays below. Each shape of the
// table has at least one: paper (`disk_mode_…`), two-table and chain
// (`distributed_…`), star (`star_disk_mode_…`), snowflake
// (`distributed_star_and_snowflake_…`), spill (`spilling_mode_…`) and
// skewed spill (`spill_skew_…`).

/// Empty-side joins: every config must agree on zero rows (and the
/// trace must report zero, not skip the node).
#[test]
fn empty_sides_regression_seed() {
    check_every_mode(&two_table(&[], &[0, 1, 2], 0));
    check_every_mode(&two_table(&[(1, 10), (2, 20)], &[], 0));
    check_every_mode(&chain(&[(0, 0)], &[], &[0]));
}

/// Heavy duplicates on both sides — the multiset (not set) contract:
/// 3×2 matches on one key must survive every join strategy.
#[test]
fn duplicate_keys_regression_seed() {
    check_every_mode(&two_table(&[(5, 1), (5, 2), (5, 3)], &[5, 5], 0));
    check_every_mode(&chain(&[(1, 1), (1, 1)], &[(1, 2), (1, 2)], &[2, 2]));
}

/// One department, every employee in it, threshold filtering none:
/// maximally skewed paper-query instance.
#[test]
fn skewed_paper_instance_regression_seed() {
    let emps: Vec<(i64, f64, i64)> = (0..30).map(|i| (0, 1000.0 + i as f64, 30)).collect();
    check_every_mode(&paper(&emps, 1, 64));
}

/// A filter threshold excluding every row: the restricted view is
/// empty but the plan shape still has every operator.
#[test]
fn all_filtered_regression_seed() {
    check_every_mode(&two_table(&[(1, 1), (2, 2)], &[1, 2], 49));
    check_every_mode(&paper(&[(0, 800.0, 69), (1, 900.0, 68)], 4, 21));
}

/// The mid-sized paper instance in every mode; in disk mode every
/// logical page the executor charges is shadowed by a physical fetch
/// through the buffer pool and page file.
#[test]
fn disk_mode_matches_oracle_across_config_matrix() {
    check_every_mode(&paper_200());
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
    let cat = paper_200().cat;
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

/// `cat` with `mutations` applied in order by pure [`Mutation::apply`]
/// — the same oracle the crash harness uses, never the storage engine
/// under test. A view over a mutated table is recomputed from it.
fn mutated(cat: &Catalog, mutations: &[Mutation]) -> Catalog {
    let mut post = cat.clone();
    for m in mutations {
        let table = post.table(m.table()).expect("mutation targets a table");
        let schema = table.schema().as_ref().clone();
        let (rows, _) = m
            .apply(&schema, table.rows())
            .expect("oracle mutation applies");
        let next = Table::new(table.name(), schema, rows).expect("mutated rows conform");
        post.add_table(next.into_ref());
    }
    post
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
    let Shape { cat, q, .. } = paper_200();
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

    let post = oracle(&mutated(&cat, &mutations), &q);
    // The mutations must actually change the answer, or the matrix
    // below would pass against a service that ignored them.
    assert_ne!(post, oracle(&cat, &q), "mutations must be answer-changing");
    assert_service(&service, &q, &post, "post-mutation disk mode");
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
    let Shape { cat, q, .. } = two_table(&left, &right, 4);
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
    let post = mutated(&cat, &mutations);

    let dir = ScratchDir::new("ckpt-crash");
    {
        let faults = Arc::new(
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
        let oracle_rows = post.table("L").expect("mutated L");
        assert_eq!(
            rows,
            oracle_rows.rows(),
            "recovered rows must equal the oracle"
        );
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
    let service = QueryService::start(cat, disk_config(&dir, 4));
    assert_service(&service, &q, &oracle(&post, &q), "post-crash disk mode");
    service.shutdown();
}

/// Two-table join with duplicates and skew, in every mode.
#[test]
fn distributed_two_table_matches_oracle_across_config_matrix() {
    let left: Vec<(i64, i64)> = (0..37).map(|i| (i % 7, i % 13)).collect();
    let right: Vec<i64> = (0..29).map(|i| i % 9).collect();
    check_every_mode(&two_table(&left, &right, 4));
}

/// Three-table chain in every mode, including empty-partition skew on
/// the shards: one key value owns most rows, so at least one shard
/// holds almost nothing.
#[test]
fn distributed_chain_matches_oracle_across_config_matrix() {
    let a: Vec<(i64, i64)> = (0..24)
        .map(|i| (i, if i % 3 == 0 { 0 } else { i % 5 }))
        .collect();
    let b: Vec<(i64, i64)> = (0..20).map(|i| (i % 5, i % 4)).collect();
    let c: Vec<i64> = (0..10).map(|i| i % 6).collect();
    check_every_mode(&chain(&a, &b, &c));
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
    let shape = chain(&a, &b, &c);
    check(&shape, Mode::Shards { replication: 2 });

    let (servers, mut coord) = shards(shape.cat.clone(), 2);
    let servers = Arc::new(servers);
    let drained = Arc::new(AtomicBool::new(false));
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
        .execute_with_config(&shape.q, OptimizerConfig::default(), ShipStrategy::Semijoin)
        .expect("drain mid-query must be invisible to the client");
    assert_eq!(sorted(got.result.rows), oracle(&shape.cat, &shape.q));
    assert!(drained.load(Ordering::SeqCst), "the hook must have fired");
    assert!(got.stats.failovers > 0, "failover must actually happen");
}

/// The memory-pressure differential: at the seed configuration the
/// governor kills the workload's plain hash join (the pressure is
/// real); with spilling on, the same workload must then agree with the
/// in-memory oracle across the whole optimizer config matrix — and in
/// every other mode.
///
/// The control pins the no-filter-join policy. Priced with the 4 pages
/// it runs with, the cost-based default picks a Bloom filter join that
/// stays inside the 5-page budget, so it is not killed.
#[test]
fn spilling_mode_matches_oracle_across_config_matrix() {
    let shape = spill();
    let control = QueryService::start(shape.cat.clone(), tight_config());
    let err = control
        .submit_with_options(
            shape.q.clone(),
            OptimizerConfig::without_filter_join(),
            false,
        )
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
    check_every_mode(&shape);
}

/// Pinned regression seed: knob extremes at heavy key skew, in every
/// mode (an 8-page watermark when spilling) and once more with a 1-page
/// watermark (the broker denies everything, so every operator spills).
#[test]
fn spill_skew_and_knob_extremes_regression_seed() {
    let shape = skewed_spill();
    check_every_mode(&shape);
    check(&shape, Mode::Spill { watermark: 1 });
}

// -------------------- star/snowflake shapes --------------------------
//
// The bushy enumerator exists for these schemas: a fact table joined
// to K (filtered) dimensions, optionally snowflaked one level deeper.
// Every mode runs both enumerators against the untouched `run_logical`
// oracle, so a bushy plan that executes, lowers, or traces wrongly
// diverges immediately.

/// A star in every mode; on disk, bushy plans must execute
/// byte-identically when every page is faulted in through a 2-page
/// pool.
#[test]
fn star_disk_mode_matches_oracle_in_both_shapes() {
    check_every_mode(&star(3, 240, 32, 7));
}

/// A smaller star and a snowflake in every mode — the distributed path
/// consumes bushy plans too.
#[test]
fn distributed_star_and_snowflake_match_oracle_in_both_shapes() {
    check_every_mode(&star(2, 150, 24, 5));
    check_every_mode(&snowflake(1, 150, 24, 5));
}

/// The estimated cost of the plan `config` picks for `shape`'s query.
fn cost(shape: &Shape, config: OptimizerConfig) -> f64 {
    filterjoin::Optimizer::new(Arc::new(shape.cat.clone()), config)
        .optimize(&shape.q)
        .expect("optimizes")
        .cost
}

/// Pinned regression seed: a snowflake where the bushy winner is
/// *strictly* cheaper than the best left-deep plan (each arm's
/// `Dim ⋈ σ(Sub)` reduction pays for itself before the fact join).
/// The plans must still agree with the oracle in every mode.
#[test]
fn bushy_strictly_cheaper_regression_seed() {
    let shape = snowflake(2, 500, 50, 13);
    let ld = cost(&shape, OptimizerConfig::default());
    let bushy = cost(&shape, OptimizerConfig::bushy());
    assert!(
        bushy < ld,
        "bushy {bushy} must be strictly cheaper than left-deep {ld}"
    );
    check_every_mode(&shape);
}

/// Pinned regression seed: a star where the shapes *tie* — the best
/// bushy plan is exactly the best left-deep chain, so enabling the
/// bushy enumerator must change neither the predicted cost nor the
/// answer. (Guards against the bushy frontier pruning the left-deep
/// optimum out of its own superset space.)
#[test]
fn shapes_tie_regression_seed() {
    let fixture = view_shape((fixtures::paper_catalog(), fixtures::paper_query()));
    for shape in [star(3, 500, 50, 11), fixture] {
        let ld = cost(&shape, OptimizerConfig::default());
        let bushy = cost(&shape, OptimizerConfig::bushy());
        assert!(
            (bushy - ld).abs() < 1e-9,
            "shapes must tie: bushy {bushy} vs left-deep {ld}"
        );
        check_every_mode(&shape);
    }
}

/// Pinned regression seed for the matrix's Limitation-2 ablation: many
/// small departments, so a Filter Join whose production set `{D}` is a
/// strict prefix of the outer `D ⋈ E` beats every plan the other
/// configs can pick. That plan must agree with the oracle in every mode
/// too.
#[test]
fn prefix_production_regression_seed() {
    let cat = fj_bench::workloads::emp_dept(fj_bench::workloads::EmpDeptConfig {
        n_emps: 1_000,
        n_depts: 500,
        frac_big: 0.05,
        ..Default::default()
    });
    let shape = view_shape((cat, fixtures::paper_query()));
    let prefix = OptimizerConfig {
        allow_prefix_production: true,
        ..OptimizerConfig::default()
    };
    let (with, without) = (
        cost(&shape, prefix),
        cost(&shape, OptimizerConfig::default()),
    );
    assert!(
        with < without,
        "prefix production must win: {with} vs {without}"
    );
    check_every_mode(&shape);
}
