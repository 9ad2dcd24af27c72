//! Integration tests for the concurrent query service: concurrent
//! correctness vs serial execution, plan-cache semantics, catalog
//! invalidation, and one buffer size `M` for pricing and execution.

use fj_algebra::fixtures::{paper_catalog, paper_query};
use fj_algebra::{Catalog, FromItem, JoinQuery};
use fj_core::Database;
use fj_expr::{col, lit};
use fj_optimizer::OptimizerConfig;
use fj_runtime::{InterruptReason, QueryService, RuntimeError, ServiceConfig, TRACE_RING_CAPACITY};
use fj_storage::{DataType, TableBuilder, Tuple, Value};

fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort();
    rows
}

/// The paper query with a tweakable age threshold, so distinct
/// constants yield distinct queries (and distinct fingerprints).
fn query_with_age(age: i64) -> JoinQuery {
    JoinQuery::new(vec![
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
    )
}

#[test]
fn sixty_four_concurrent_queries_match_serial() {
    // 8 distinct queries × 8 repetitions = 64 in-flight submissions
    // through a queue of 16 (so submit() also exercises backpressure),
    // drained by 4 workers.
    let service = QueryService::start(
        paper_catalog(),
        ServiceConfig {
            workers: 4,
            queue_capacity: 16,
            ..ServiceConfig::default()
        },
    );
    let serial = Database::with_catalog(paper_catalog());
    let ages: Vec<i64> = (0..8).map(|i| 24 + i).collect();
    let expected: Vec<Vec<Tuple>> = ages
        .iter()
        .map(|&a| sorted(serial.execute(&query_with_age(a)).unwrap().rows))
        .collect();

    let tickets: Vec<(usize, fj_runtime::Ticket)> = (0..64)
        .map(|i| {
            let which = i % ages.len();
            (which, service.submit(query_with_age(ages[which])).unwrap())
        })
        .collect();
    for (which, ticket) in tickets {
        let result = ticket.wait().unwrap();
        assert_eq!(
            sorted(result.rows),
            expected[which],
            "query variant {which} diverged from serial execution"
        );
    }

    let m = service.metrics();
    assert_eq!(m.completed, 64);
    assert_eq!(m.errors, 0);
    assert!(
        m.cache_hits > 0,
        "64 submissions of 8 distinct queries must hit the plan cache"
    );
    assert_eq!(m.latency.count(), 64);
    assert!(m.throughput_qps > 0.0);
    service.shutdown();
}

#[test]
fn cache_hit_returns_identical_plan_and_cost() {
    let service = QueryService::start(
        paper_catalog(),
        ServiceConfig {
            workers: 1, // deterministic hit/miss sequence
            ..ServiceConfig::default()
        },
    );
    let first = service.execute(paper_query()).unwrap();
    let second = service.execute(paper_query()).unwrap();
    assert!(!first.cache_hit);
    assert!(second.cache_hit);
    assert_eq!(first.estimated_cost, second.estimated_cost);
    assert_eq!(first.order, second.order);
    assert_eq!(
        format!("{:?}", first.plan),
        format!("{:?}", second.plan),
        "cached plan must be the very plan the first optimization chose"
    );
    assert_eq!(sorted(first.rows), sorted(second.rows));
    assert!(second.latency_micros > 0);

    let m = service.metrics();
    assert_eq!((m.cache_hits, m.cache_misses), (1, 1));
    assert!((m.cache_hit_rate - 0.5).abs() < 1e-12);
    service.shutdown();
}

#[test]
fn catalog_install_invalidates_cached_plans() {
    let service = QueryService::start(
        paper_catalog(),
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    );
    let before = service.execute(paper_query()).unwrap();
    assert!(!before.cache_hit);
    assert!(service.execute(paper_query()).unwrap().cache_hit);

    // Install a catalog whose Emp stats/contents differ (a new table
    // registration bumps the epoch): the cached plan must not be
    // served, and results must reflect the new data.
    let mut changed = paper_catalog();
    changed.add_table(
        TableBuilder::new("Emp")
            .column("eid", DataType::Int)
            .column("did", DataType::Int)
            .column("sal", DataType::Double)
            .column("age", DataType::Int)
            .row(vec![1.into(), 10.into(), 9000.0.into(), 25.into()])
            .build()
            .unwrap()
            .into_ref(),
    );
    service.install_catalog(changed.clone());

    let after = service.execute(paper_query()).unwrap();
    assert!(
        !after.cache_hit,
        "catalog install must invalidate the plan cache"
    );
    let serial = Database::with_catalog(changed)
        .execute(&paper_query())
        .unwrap();
    let serial_rows = sorted(serial.rows);
    assert_eq!(sorted(after.rows), serial_rows);
    assert_ne!(sorted(before.rows.clone()), serial_rows);
    service.shutdown();
}

#[test]
fn fingerprint_distinguishes_predicate_constants() {
    let service = QueryService::start(
        paper_catalog(),
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    );
    let young = service.execute(query_with_age(25)).unwrap();
    let older = service.execute(query_with_age(65)).unwrap();
    assert!(
        !older.cache_hit,
        "queries differing only in a predicate constant must not share a plan-cache entry"
    );
    assert!(
        young.rows.len() < older.rows.len(),
        "different constants must reach execution (not a stale cached result)"
    );
    service.shutdown();
}

#[test]
fn try_submit_reports_queue_full_or_executes() {
    // Deterministic part of the backpressure contract: a non-blocking
    // submit never blocks, and every accepted ticket resolves. (Blocking-push
    // semantics are unit-tested on BoundedQueue directly.)
    let service = QueryService::start(
        paper_catalog(),
        ServiceConfig {
            workers: 1,
            queue_capacity: 2,
            ..ServiceConfig::default()
        },
    );
    let mut accepted = Vec::new();
    let mut full = 0;
    for _ in 0..50 {
        match service.try_submit_with_options(paper_query(), OptimizerConfig::default(), false) {
            Ok(t) => accepted.push(t),
            Err(RuntimeError::QueueFull) => full += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(!accepted.is_empty());
    for t in accepted {
        assert_eq!(t.wait().unwrap().rows.len(), 2);
    }
    // Not asserting full > 0: with a fast worker the queue may never
    // saturate; the assertion is that QueueFull is the only overflow.
    let _ = full;
    service.shutdown();
}

#[test]
fn shutdown_completes_accepted_queries() {
    let service = QueryService::start(
        paper_catalog(),
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
    );
    let tickets: Vec<_> = (0..16)
        .map(|_| service.submit(paper_query()).unwrap())
        .collect();
    service.shutdown();
    for t in tickets {
        assert_eq!(
            t.wait().unwrap().rows.len(),
            2,
            "accepted query must complete"
        );
    }
}

/// A two-table equijoin big enough to keep a worker busy for a while.
fn big_catalog_and_query(rows: i64) -> (Catalog, JoinQuery) {
    let mut cat = Catalog::new();
    cat.add_table(
        TableBuilder::new("L")
            .column("k", DataType::Int)
            .column("v", DataType::Int)
            .rows((0..rows).map(|i| vec![(i % 97).into(), i.into()]))
            .build()
            .unwrap()
            .into_ref(),
    );
    cat.add_table(
        TableBuilder::new("R")
            .column("k", DataType::Int)
            .column("w", DataType::Int)
            .rows((0..rows).map(|i| vec![(i % 89).into(), (-i).into()]))
            .build()
            .unwrap()
            .into_ref(),
    );
    let q = JoinQuery::new(vec![FromItem::new("L", "A"), FromItem::new("R", "B")])
        .with_predicate(col("A.k").eq(col("B.k")));
    (cat, q)
}

#[test]
fn wait_timeout_expiry_cancels_the_abandoned_query() {
    // One worker pinned on a big join; a second query queued behind it
    // cannot finish within 1ms, so its bounded wait reports
    // DeadlineExceeded — and, unlike the old leak-prone semantics,
    // expiry trips the query's interrupt: the worker discards it on
    // dequeue instead of burning capacity on an abandoned result.
    let (cat, q) = big_catalog_and_query(3000);
    let service = QueryService::start(
        cat,
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    );
    let first = service.submit(q.clone()).unwrap();
    let second = service.submit(q.clone()).unwrap();
    assert!(matches!(
        second.wait_timeout(std::time::Duration::from_millis(1)),
        Err(RuntimeError::DeadlineExceeded)
    ));
    first.wait().unwrap();
    // The discard is recorded when the worker dequeues the abandoned
    // job; give it a moment to get there.
    let mut m = service.metrics();
    for _ in 0..500 {
        if m.cancelled == 1 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
        m = service.metrics();
    }
    assert_eq!(m.completed, 1, "the abandoned query must never execute");
    assert_eq!(m.cancelled, 1, "deadline expiry counts as a cancellation");
    service.shutdown();
}

#[test]
fn cancel_before_dequeue_never_runs_the_query() {
    // Pin the single worker, queue a second query, cancel it while it
    // is still waiting: the worker must discard it on dequeue and the
    // ticket must redeem as Interrupted(Cancelled).
    let (cat, q) = big_catalog_and_query(3000);
    let service = QueryService::start(
        cat,
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    );
    let first = service.submit(q.clone()).unwrap();
    let second = service.submit(q.clone()).unwrap();
    assert!(second.cancel(), "first trip wins");
    assert!(!second.cancel(), "second trip is a no-op");
    assert!(matches!(
        second.wait(),
        Err(RuntimeError::Interrupted(InterruptReason::Cancelled))
    ));
    first.wait().unwrap();
    let m = service.metrics();
    assert_eq!(m.completed, 1, "cancelled query must never execute");
    assert_eq!(m.cancelled, 1);
    service.shutdown();
}

#[test]
fn cancel_mid_execution_stops_query_and_worker_survives() {
    // Cancel queries while the hash join is mid-build/mid-probe. The
    // exact phase the trip lands in varies run to run, so retry until
    // one cancellation is observed mid-flight; then prove the worker
    // survives (a fresh query completes) and that the cancelled run's
    // partial ledger charges did not leak into the next query's
    // accounting.
    let (cat, q) = big_catalog_and_query(3000);
    let serial = Database::with_catalog(cat.clone()).execute(&q).unwrap();
    let service = QueryService::start(
        cat,
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    );
    let mut interrupted = false;
    for _ in 0..64 {
        let ticket = service.submit(q.clone()).unwrap();
        // Let execution get under way before tripping the flag.
        std::thread::sleep(std::time::Duration::from_millis(2));
        ticket.cancel();
        match ticket.wait() {
            Err(RuntimeError::Interrupted(InterruptReason::Cancelled)) => {
                interrupted = true;
                break;
            }
            Ok(_) => continue, // query won the race; try again
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(interrupted, "64 attempts should catch one mid-execution");

    // Worker is free and uncorrupted: the same query still completes
    // with charges identical to serial execution (per-query ledgers —
    // a cancelled run's partial charges never leak into the next).
    let after = service.execute(q).unwrap();
    assert_eq!(sorted(after.rows), sorted(serial.rows));
    assert_eq!(after.charges, serial.charges);
    service.shutdown();
}

#[test]
fn cancel_vs_completion_race_yields_result_xor_interrupted() {
    // Cancel immediately after submitting a fast query, many times:
    // every ticket must redeem exactly once, as either the completed
    // result or Interrupted — never a panic, never a lost reply.
    let service = QueryService::start(
        paper_catalog(),
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
    );
    let (mut completed, mut interrupted) = (0u32, 0u32);
    for _ in 0..100 {
        let ticket = service.submit(paper_query()).unwrap();
        ticket.cancel();
        match ticket.wait() {
            Ok(r) => {
                assert_eq!(r.rows.len(), 2, "a completed racer returns full rows");
                completed += 1;
            }
            Err(RuntimeError::Interrupted(InterruptReason::Cancelled)) => interrupted += 1,
            Err(e) => panic!("race must yield result or Interrupted, got: {e}"),
        }
    }
    assert_eq!(completed + interrupted, 100);
    let m = service.metrics();
    assert_eq!(m.completed, u64::from(completed));
    assert_eq!(m.cancelled, u64::from(interrupted));
    service.shutdown();
}

#[test]
fn worker_panic_heals_pool_and_capacity_is_preserved() {
    use std::sync::Arc;

    // A fault plan that panics on the very first page read: the first
    // query's worker dies mid-execution. The pool must report the
    // failure on that query's ticket, respawn a replacement, and keep
    // serving at full strength.
    let service = QueryService::start(
        paper_catalog(),
        ServiceConfig {
            workers: 2,
            fault_plan: Some(Arc::new(fj_runtime::FaultPlan::new(7).with_panic_at(0))),
            ..ServiceConfig::default()
        },
    );
    match service.execute(paper_query()) {
        Err(RuntimeError::WorkerPanicked(msg)) => {
            assert!(msg.contains("induced panic"), "payload surfaced: {msg}")
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }

    // The replacement (and the untouched second worker) absorb a full
    // batch — capacity never degraded.
    let tickets: Vec<_> = (0..8)
        .map(|_| service.submit(paper_query()).unwrap())
        .collect();
    for t in tickets {
        assert_eq!(t.wait().unwrap().rows.len(), 2);
    }
    let m = service.metrics();
    assert_eq!(m.workers_replaced, 1);
    assert_eq!(m.completed, 8);
    assert_eq!(m.errors, 1);
    service.shutdown();
}

#[test]
fn wait_timeout_returns_result_when_fast_enough() {
    let service = QueryService::start(paper_catalog(), ServiceConfig::default());
    let ticket = service.submit(paper_query()).unwrap();
    let result = ticket
        .wait_timeout(std::time::Duration::from_secs(30))
        .expect("paper query finishes well within 30s");
    assert_eq!(result.rows.len(), 2);
    service.shutdown();
}

#[test]
fn try_submit_with_options_overrides_and_sheds() {
    let service = QueryService::start(
        paper_catalog(),
        ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServiceConfig::default()
        },
    );
    let no_fj = OptimizerConfig::without_filter_join();
    let ok = service
        .try_submit_with_options(paper_query(), no_fj, false)
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(ok.rows.len(), 2);
    assert!(ok.sips.is_empty(), "filter join disabled by override");
    service.shutdown();

    // With slow queries, one executing + one queued fills the 1-slot
    // queue, so the next non-blocking submit must shed with QueueFull
    // instead of blocking.
    let (cat, q) = big_catalog_and_query(3000);
    let service = QueryService::start(
        cat,
        ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServiceConfig::default()
        },
    );
    let first = service.submit(q.clone()).unwrap();
    // Keep refilling the queue slot until a non-blocking submit
    // observes it full (the worker may drain between our two
    // submissions).
    let mut queued = vec![service.submit(q.clone()).unwrap()];
    let mut shed = false;
    for _ in 0..32 {
        match service.try_submit_with_options(q.clone(), OptimizerConfig::default(), false) {
            Err(RuntimeError::QueueFull) => {
                shed = true;
                break;
            }
            Ok(t) => queued.push(t),
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    assert!(shed, "saturated queue must shed");
    first.wait().unwrap();
    for t in queued {
        t.wait().unwrap();
    }
    service.shutdown();
}

#[test]
fn traced_service_records_trace_and_fills_the_ring() {
    let service = QueryService::start(
        paper_catalog(),
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    );
    let traced = TRACE_RING_CAPACITY as u64 + 1;
    for _ in 0..traced {
        let r = service
            .submit_with_options(paper_query(), OptimizerConfig::default(), true)
            .unwrap()
            .wait()
            .unwrap();
        let trace = r.trace.expect("a traced submission attaches a trace");
        assert_eq!(trace.rows_out(), r.rows.len() as u64);
        assert!(trace.node_count() >= 3);
    }
    // Ring keeps only the most recent `TRACE_RING_CAPACITY` traces,
    // but the lifetime counter sees all of them.
    let recent = service.recent_traces();
    assert_eq!(recent.len(), TRACE_RING_CAPACITY);
    assert!(recent[0].query.contains("Emp AS E"));
    assert_eq!(service.metrics().traces_recorded, traced);
    // The ring renders as one JSON array of traces.
    let json = service.recent_traces_json();
    assert!(json.starts_with('['));
    assert!(json.contains("\"total_wall_micros\""));
    service.shutdown();
}

#[test]
fn untraced_service_attaches_no_trace() {
    let service = QueryService::start(
        paper_catalog(),
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    );
    let r = service.execute(paper_query()).unwrap();
    assert!(r.trace.is_none(), "tracing off leaves trace empty");
    assert!(service.recent_traces().is_empty());
    assert_eq!(service.metrics().traces_recorded, 0);
    service.shutdown();
}

#[test]
fn the_trace_flag_is_per_submission() {
    let service = QueryService::start(paper_catalog(), ServiceConfig::default());
    let cfg = OptimizerConfig::default();
    let traced = service
        .submit_with_options(paper_query(), cfg, true)
        .unwrap()
        .wait()
        .unwrap();
    assert!(traced.trace.is_some());
    let untraced = service
        .submit_with_options(paper_query(), cfg, false)
        .unwrap()
        .wait()
        .unwrap();
    assert!(untraced.trace.is_none());
    assert_eq!(service.metrics().traces_recorded, 1);
    service.shutdown();
}

/// Two string-padded join sides, each several times a 4-page buffer,
/// with every Fact key appearing twice.
fn spill_catalog_and_query(n_rows: i64) -> (Catalog, JoinQuery) {
    let table = |name: &str, key_mod: i64| {
        TableBuilder::new(name)
            .column("id", DataType::Int)
            .column("pad", DataType::Str)
            .rows((0..n_rows).map(|i| {
                vec![
                    Value::Int(i % key_mod),
                    Value::Str(format!("{name}-pad-{i}")),
                ]
            }))
            .build()
            .unwrap()
            .into_ref()
    };
    let mut cat = Catalog::new();
    cat.add_table(table("Fact", n_rows / 2));
    cat.add_table(table("Dim", n_rows));
    let q = JoinQuery::new(vec![FromItem::new("Fact", "f"), FromItem::new("Dim", "d")])
        .with_predicate(col("f.id").eq(col("d.id")));
    (cat, q)
}

#[test]
fn a_tight_memory_service_prices_plans_with_the_m_it_runs_with() {
    let (cat, q) = spill_catalog_and_query(600);
    // M = 3 is the least M anything runs with: the service must price
    // with the M its executor runs with, as `Database` does.
    for m in [4, 3] {
        let mut db = Database::with_catalog(cat.clone());
        db.set_memory_pages(m);
        let direct = db.execute(&q).unwrap();

        let service = QueryService::start(
            cat.clone(),
            ServiceConfig {
                workers: 1,
                memory_pages: m,
                ..ServiceConfig::default()
            },
        );
        // The submitted config still says M = 128; the service's M wins.
        let served = service
            .submit_with_options(q.clone(), OptimizerConfig::default(), false)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(
            served.estimated_cost.map(f64::to_bits),
            direct.estimated_cost.map(f64::to_bits),
            "the service must price with the M it runs with (asked for M = {m})"
        );
        assert_eq!(served.plan, direct.plan);
        assert_eq!(served.charges, direct.charges);
        assert_eq!(sorted(served.rows), sorted(direct.rows));
        service.shutdown();
    }
}

/// An optimizer config with M = 0 is priced and run with the least M
/// instead of dividing by zero in the merge-pass count.
#[test]
fn a_zero_memory_config_runs_with_the_least_m() {
    let (cat, q) = spill_catalog_and_query(600);
    let db = Database::with_catalog(cat);
    let with_m = |m| {
        let mut config = OptimizerConfig::default();
        config.params.memory_pages = m;
        db.execute_with_config(&q, config).unwrap()
    };
    let (zero, least) = (with_m(0), with_m(fj_exec::MIN_MEMORY_PAGES));
    assert_eq!(
        zero.estimated_cost.map(f64::to_bits),
        least.estimated_cost.map(f64::to_bits)
    );
    assert_eq!(zero.charges, least.charges);
    assert_eq!(sorted(zero.rows), sorted(least.rows));
}

// ---------------------------------------------------------------------------
// Disk-backed storage mode
// ---------------------------------------------------------------------------

fn disk_config(dir: &std::path::Path, pool_pages: usize) -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        storage: fj_runtime::StorageMode::Disk {
            dir: dir.to_path_buf(),
            pool_pages,
        },
        ..ServiceConfig::default()
    }
}

/// Disk mode returns byte-identical answers to in-memory mode, and a
/// service restarted from the data directory alone (crash recovery)
/// still does — with a cold buffer pool, so the restart's first query
/// physically reads pages (pool misses) where the loading service was
/// served from the load-warmed pool.
#[test]
fn disk_mode_matches_in_memory_and_survives_restart() {
    let dir = fj_store::TempDir::new("runtime-disk");
    let in_memory = QueryService::start(
        paper_catalog(),
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    )
    .execute(paper_query())
    .unwrap();

    {
        let service = QueryService::start(paper_catalog(), disk_config(dir.path(), 64));
        let report = service.recovery_report().expect("disk mode has a report");
        assert_eq!(report.manifest_tables, 0, "fresh directory");
        assert_eq!(report.replayed_tables, 0);
        let result = service.execute(paper_query()).unwrap();
        assert_eq!(sorted(result.rows), sorted(in_memory.rows.clone()));
        assert_eq!(
            result.charges, in_memory.charges,
            "ledger charges identical"
        );
        let stats = service.store_stats();
        assert!(stats.pool_hits > 0, "load warms the pool: {stats:?}");
        assert_eq!(stats.pool_misses, 0, "warm pool, no physical reads");
        assert!(stats.wal_fsyncs >= 1, "loads group-commit through the WAL");
        service.shutdown();
        // No checkpoint: the WAL alone carries both tables (a crash).
    }

    let service = QueryService::start(paper_catalog(), disk_config(dir.path(), 64));
    let report = service.recovery_report().unwrap();
    assert_eq!(
        report.replayed_tables, 2,
        "Emp and Dept replay from the WAL"
    );
    let result = service.execute(paper_query()).unwrap();
    assert_eq!(sorted(result.rows), sorted(in_memory.rows.clone()));
    assert_eq!(result.charges, in_memory.charges);
    let stats = service.store_stats();
    assert!(
        stats.pool_misses > 0,
        "restart starts cold: the first query must physically read pages, got {stats:?}"
    );
    let m = service.metrics();
    assert_eq!(m.pool_misses, stats.pool_misses);
    assert!(m.to_json().contains("\"pool_misses\":"));
    assert_eq!(m.wal_fsyncs, stats.wal_fsyncs);
    service.shutdown();
}

/// A restart whose template omits tables the store committed still
/// serves them (recovered from disk), and checkpointing moves them
/// from the WAL to the manifest.
#[test]
fn restart_with_bare_template_serves_recovered_tables() {
    let dir = fj_store::TempDir::new("runtime-disk-bare");
    {
        let service = QueryService::start(paper_catalog(), disk_config(dir.path(), 64));
        service.checkpoint().unwrap();
        service.shutdown();
    }
    let mut bare = Catalog::new();
    fj_algebra::fixtures::add_dep_avg_sal_view(&mut bare);
    let service = QueryService::start(bare, disk_config(dir.path(), 64));
    let report = service.recovery_report().unwrap();
    assert_eq!(
        report.manifest_tables, 2,
        "checkpoint made both tables durable"
    );
    assert_eq!(report.replayed_tables, 0, "WAL was truncated");
    let result = service.execute(paper_query()).unwrap();
    assert_eq!(
        result.rows.len(),
        2,
        "recovered tables answer the paper query"
    );
    service.shutdown();
}

/// A template whose schema contradicts the committed table is a
/// redeploy: the template's copy wins as a log-structured replacement
/// (fresh table_id, bumped version) and persists across the *next*
/// restart too.
#[test]
fn schema_change_on_recovery_reloads_the_template_copy() {
    let dir = fj_store::TempDir::new("runtime-disk-mismatch");
    {
        let service = QueryService::start(paper_catalog(), disk_config(dir.path(), 64));
        service.shutdown();
    }
    let reshaped = || {
        let mut template = Catalog::new();
        template.add_table(
            TableBuilder::new("Emp")
                .column("eid", DataType::Int)
                .column("did", DataType::Str) // was Int on disk
                .row(vec![Value::Int(1), Value::Str("one".into())])
                .build()
                .unwrap()
                .into_ref(),
        );
        template
    };
    {
        let service = QueryService::try_start(reshaped(), disk_config(dir.path(), 64)).unwrap();
        let emp = service.catalog().table("Emp").unwrap();
        assert_eq!(emp.row_count(), 1, "reshaped template replaced the table");
        service.shutdown();
    }
    // The replacement is durable: a bare restart recovers the new shape.
    let service = QueryService::try_start(reshaped(), disk_config(dir.path(), 64)).unwrap();
    let emp = service.catalog().table("Emp").unwrap();
    assert_eq!(emp.row_count(), 1);
    service.shutdown();
}

/// In-memory services report all-zero store counters, and their
/// metrics JSON still carries the pool keys (stable wire shape).
#[test]
fn in_memory_mode_reports_zero_store_counters() {
    let service = QueryService::start(paper_catalog(), ServiceConfig::default());
    service.execute(paper_query()).unwrap();
    let stats = service.store_stats();
    assert_eq!(stats, fj_runtime::StoreStats::default());
    assert!(service.store().is_none());
    assert!(service.recovery_report().is_none());
    service.checkpoint().unwrap(); // no-op, not an error
    let j = service.metrics().to_json();
    assert!(j.contains("\"pool_hits\":0,\"pool_misses\":0"));
    service.shutdown();
}

/// Traced queries in disk mode attribute pool traffic to operators:
/// after a pool clear, the trace's summed pool misses equal the
/// physical reads the query triggered.
#[test]
fn traced_disk_query_attributes_pool_traffic() {
    let dir = fj_store::TempDir::new("runtime-disk-trace");
    let service = QueryService::start(paper_catalog(), disk_config(dir.path(), 64));
    service.store().unwrap().clear_pool();
    let before = service.store_stats();
    let result = service
        .submit_with_options(paper_query(), Default::default(), true)
        .unwrap()
        .wait()
        .unwrap();
    let after = service.store_stats();
    let trace = result.trace.expect("tracing was on");
    let (mut hits, mut misses) = (0u64, 0u64);
    trace.root.walk(&mut |n| {
        hits += n.stats.pool_hits;
        misses += n.stats.pool_misses;
    });
    assert_eq!(misses, after.pool_misses - before.pool_misses);
    assert_eq!(hits, after.pool_hits - before.pool_hits);
    assert!(misses > 0, "cold pool: the scan must miss");
    service.shutdown();
}

/// A one-column table `T` of `rows` rows, every value `base + i`.
fn numbered(base: i64, rows: i64) -> Catalog {
    let mut cat = Catalog::new();
    cat.add_table(
        TableBuilder::new("T")
            .column("id", DataType::Int)
            .rows((0..rows).map(|i| vec![Value::Int(base + i)]))
            .build()
            .unwrap()
            .into_ref(),
    );
    cat
}

#[test]
fn catalog_installs_and_mutations_serialize() {
    // A mutation inserting into `T` races an install replacing `T`.
    // Either order is fine: install then insert leaves the new rows
    // plus the insert, insert then install leaves the new rows. What
    // must never happen is the mutation reading the old `T` and
    // swapping "old rows + insert" over the freshly installed catalog.
    // The install lands after a delay stepped across the mutation's
    // read-apply-swap window, which a large `T` keeps wide.
    const ROWS: i64 = 20_000;
    let inserted = Tuple::new(vec![Value::Int(-1)]);
    let fresh = numbered(1_000_000, 50);
    let fresh_rows = fresh.table("T").unwrap().rows().to_vec();
    for round in 0..24u64 {
        let service = QueryService::start(
            numbered(0, ROWS),
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        );
        let ticket = service
            .submit_mutation(fj_runtime::Mutation::Insert {
                table: "T".into(),
                rows: vec![inserted.values().to_vec()],
            })
            .unwrap();
        std::thread::sleep(std::time::Duration::from_micros(round * round * 40));
        service.install_catalog(fresh.clone());
        ticket.wait().unwrap();
        let rows = service.catalog().table("T").unwrap().rows().to_vec();
        let install_last = rows == fresh_rows;
        let insert_last = rows.len() == fresh_rows.len() + 1
            && rows[..fresh_rows.len()] == fresh_rows[..]
            && rows[fresh_rows.len()] == inserted;
        assert!(
            install_last || insert_last,
            "round {round}: {} rows, first {:?} — neither serial order",
            rows.len(),
            rows.first()
        );
        service.shutdown();
    }
}
