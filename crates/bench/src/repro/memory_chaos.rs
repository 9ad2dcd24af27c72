//! Memory chaos: graceful degradation under memory pressure.
//!
//! The spilling contract under fire. A control run first proves the
//! pressure is real: with the service's seed configuration (tight
//! executor memory + a materialization budget, spilling off) the
//! workload join dies with [`InterruptReason::MemoryBudget`]. Then the
//! storm: the *same* tight configuration with spilling on serves
//! concurrent clients whose joins all overflow executor memory, while
//! the memory broker's soft watermark is set low enough that grants
//! contend across workers, torn-temp-write and slow-temp-fsync faults
//! are armed on every spill file, and a quarter of the queries are
//! cancelled mid-spill.
//!
//! Contract: **zero client-visible failures** — every non-cancelled
//! query returns rows byte-identical to an in-memory oracle (torn temp
//! frames are verified and rewritten, never surfaced), cancellations
//! are typed [`InterruptReason::Cancelled`] replies, every spill temp
//! file is deleted by the time its query resolves (the RAII guard,
//! proven by an empty spill directory after the cancel storm), all
//! broker grants are released, and the pool ends at full strength.

use super::storm::{self, sorted, Kind, Outcome, ServiceFront, Storm};
use crate::report::Report;
use fj_core::{col, Catalog, DataType, FromItem, JoinQuery, TableBuilder, Value};
use fj_runtime::{FaultPlan, InterruptReason, QueryService, RuntimeError, ServiceConfig};
use std::sync::Arc;
use std::time::Duration;

/// Two tables big enough that either side of the join overflows a
/// 4-page executor: the storm's whole workload is spill-or-die.
fn pressure_catalog(n_rows: usize) -> Catalog {
    let table = |name: &str| {
        TableBuilder::new(name)
            .column("id", DataType::Int)
            .column("pad", DataType::Str)
            .rows((0..n_rows).map(|i| {
                vec![
                    Value::Int(i as i64),
                    Value::Str(format!("{name}-payload-{i}")),
                ]
            }))
            .build()
            .unwrap()
            .into_ref()
    };
    let mut cat = Catalog::new();
    cat.add_table(table("Fact"));
    cat.add_table(table("Dim"));
    cat
}

fn pressure_join() -> JoinQuery {
    JoinQuery::new(vec![FromItem::new("Fact", "f"), FromItem::new("Dim", "d")])
        .with_predicate(col("f.id").eq(col("d.id")))
}

/// A quarter of the queries are cancelled from a second thread while
/// they are (most likely) midway through partitioning to temp files.
fn mix(i: usize) -> Kind {
    Kind {
        cancel: i % 4 == 3,
        ..Kind::default()
    }
}

/// Drives `clients` concurrent threads, each issuing
/// `queries_per_client` over-budget joins against one governed
/// spilling service. Panics (failing the reproduction) on any
/// client-visible failure, any diverging row set, any leaked temp
/// file, or a degraded pool.
pub fn run(n_rows: usize, clients: usize, queries_per_client: usize) -> Report {
    let cat = pressure_catalog(n_rows);
    let expected = storm::oracle(&cat, &pressure_join());
    let tight = ServiceConfig {
        workers: 4,
        memory_pages: 4,
        memory_budget_pages: Some(6),
        ..ServiceConfig::default()
    };

    // Control: at the seed configuration the governor kills the join —
    // the pressure the storm survives is real, not incidental.
    let control = QueryService::start(cat.clone(), tight.clone());
    let err = control.execute(pressure_join()).expect_err("control join");
    assert!(
        matches!(
            err,
            RuntimeError::Interrupted(InterruptReason::MemoryBudget)
        ),
        "control must die on MemoryBudget, got: {err}"
    );
    control.shutdown();

    // The storm service: same tight memory and budget, spilling on,
    // broker watermark low enough that concurrent grants contend, and
    // seeded temp-file faults armed.
    let faults = Arc::new(
        FaultPlan::new(0x3E3_0C4A)
            .with_torn_temp_writes(16)
            .with_slow_temp_fsync(32, Duration::from_micros(100)),
    );
    let service = QueryService::start(
        cat,
        ServiceConfig {
            spill_soft_watermark_pages: Some(8),
            fault_plan: Some(Arc::clone(&faults)),
            ..tight
        },
    );

    // Nothing transient is absorbed: any refusal is a client-visible
    // failure here.
    let (tally, secs) =
        Storm::new(pressure_join(), &expected, mix, &[])
            .run(clients, queries_per_client, |_| Ok(ServiceFront(&service)));

    let ok = tally[Outcome::Ok];
    let cancelled = tally[Outcome::Cancelled];
    let total = (clients * queries_per_client) as u64;
    assert_eq!(
        ok + cancelled,
        total,
        "every query must resolve to verified rows or a typed cancellation"
    );
    assert!(ok > 0, "some queries must survive the cancel storm");

    // The storm actually exercised what it claims: spills happened,
    // temp faults fired, and the broker arbitrated.
    let metrics = service.metrics();
    assert!(metrics.spills > 0, "the workload must spill");
    assert!(metrics.spill_partitions > 0);
    assert!(metrics.spill_bytes_written > 0);
    assert!(metrics.spill_bytes_read > 0);
    assert!(metrics.peak_temp_bytes > 0);
    assert_eq!(metrics.workers_replaced, 0, "no worker may die spilling");
    assert!(
        faults.temp_write_events() + faults.temp_fsync_events() > 0,
        "temp faults must have fired"
    );
    let temp = service.spill_stats();
    let broker = service.memory_broker().expect("spilling is on");
    assert!(
        broker.grants() + broker.denials() > 0,
        "the broker must have arbitrated reservations"
    );
    assert_eq!(broker.in_use_pages(), 0, "every grant released");

    // The RAII guarantee, after a storm that cancelled queries
    // mid-spill: no temp file outlives its query.
    assert_eq!(
        temp.files_created, temp.files_deleted,
        "every spill file created was deleted"
    );
    assert!(temp.files_created > 0);
    assert_eq!(
        service
            .spill_temp_store()
            .expect("spilling is on")
            .live_files_on_disk()
            .expect("spill dir readable"),
        0,
        "spill directory must be empty after the cancel storm"
    );

    // Calm closing batch: the pool is at strength and still correct.
    for i in 0..4 {
        let reply = service
            .execute(pressure_join())
            .unwrap_or_else(|e| panic!("closing query {i}: {e}"));
        assert!(
            sorted(reply.rows) == expected,
            "closing query {i} diverged after the storm"
        );
    }
    let metrics_json = service.metrics().to_json();

    let mut report = Report::new(
        format!(
            "memory chaos — {clients} clients × {queries_per_client} over-budget joins \
             ({n_rows} rows/side, 4-page executor, torn/slow temp faults, 1-in-4 cancelled)"
        ),
        &[
            "clients",
            "queries ok",
            "cancelled",
            "spills",
            "partitions",
            "temp KiB written",
            "torn rewrites",
            "broker grants",
            "broker denials",
            "queries/s",
        ],
    );
    report.row(vec![
        Report::cell(clients),
        Report::cell(ok),
        Report::cell(cancelled),
        Report::cell(metrics.spills),
        Report::cell(metrics.spill_partitions),
        Report::cell(temp.bytes_written / 1024),
        Report::cell(temp.torn_rewrites),
        Report::cell(broker.grants()),
        Report::cell(broker.denials()),
        Report::num(ok as f64 / secs),
    ]);
    report.note(
        "control run died on MemoryBudget at the same memory configuration with spilling off; \
         every surviving reply verified byte-identical to the in-memory oracle, every \
         cancellation typed, zero temp files leaked, all broker grants released, pool at \
         full strength",
    );
    report.note(format!("fault-plan events fired: {}", faults.events()));
    report.note(format!("service metrics: {metrics_json}"));
    report
}
