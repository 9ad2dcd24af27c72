//! Recovery chaos: a two-replica cluster where one replica is
//! disk-backed with torn-page-write and slow-fsync faults armed, gets
//! hard-killed mid-storm, restarts from its data directory (WAL replay
//! heals every torn page), and is re-admitted by the cluster's HEALTH
//! prober — all under concurrent clients mixing plain, deadlined, and
//! cancelled queries.
//!
//! The recovery contract under fire: **no client-visible query
//! failures, and the rejoined replica answers byte-identical to serial
//! execution**. The crash window is absorbed by failover; recovery
//! replays only committed loads; the restarted replica starts with a
//! cold buffer pool, so its first queries physically read the healed
//! page file (pool misses > 0 proves the disk was really consulted).
//!
//! The disk replica sits behind a tiny TCP forwarder so its *address*
//! survives the crash: the prober keeps probing the same endpoint,
//! marks it dead while the process is down, and re-admits it when the
//! restarted server comes back — the same stable-endpoint model a
//! service VIP gives a real cluster.

use super::forwarder::Restartable;
use super::storm::{self, sorted, ClusterFront, Outcome, Storm};
use crate::report::Report;
use crate::workloads::paper_query;
use fj_net::{Client, Server};
use fj_runtime::FaultPlan;
use fj_store::{Store, TempDir};
use std::time::Duration;

/// Drives the full recovery chaos reproduction. Panics (failing the
/// reproduction) if any query resolves outside the expected classes,
/// any row-set diverges from serial, recovery fails to replay the
/// crashed replica's tables, the rejoined replica serves nothing, or
/// the post-shutdown store re-open disagrees with the template rows.
pub fn run(n_emps: usize, n_depts: usize, clients: usize, queries_per_client: usize) -> Report {
    let dir = TempDir::new("recovery-chaos");
    let (cat, expected) = storm::paper_oracle(n_emps, n_depts);
    // Replica A: in-memory, with read errors and stalls so typed
    // retries stay exercised while B is down.
    let plan_a = FaultPlan::new(0xA11CE)
        .with_read_errors(200)
        .with_stalls(96, Duration::from_micros(200));
    let server_a = storm::replica(cat.clone(), storm::faulty(plan_a, None), clients);
    // Replica B: disk-backed behind the stable forwarder endpoint. Every
    // page write torn, occasional slow fsyncs: the page file is garbage
    // until recovery, and commits still group-fsync. The pool holds the
    // working set, so pre-crash queries never read the torn on-disk
    // pages (the load path warmed the good images into memory; the disk
    // is only trusted again after recovery heals it from the WAL). A
    // hedge racing B against A must see identical bytes.
    let service_b = || {
        let plan = FaultPlan::new(0xD15C)
            .with_torn_page_writes(1)
            .with_slow_fsync(2, Duration::from_millis(1));
        storm::faulty(plan, Some(dir.path()))
    };
    let replica_b = Restartable::start(|| storm::replica(cat.clone(), service_b(), clients));
    let cluster = storm::cluster(&[server_a.local_addr(), replica_b.addr()]);

    // Crash B a quarter of the way in, restart it from its data
    // directory at the halfway mark. Both transitions are invisible to
    // the clients except as failovers.
    let mut recovery = None;
    let absorbs = [Outcome::Fault, Outcome::NoCandidate, Outcome::BudgetStall];
    let (tally, _) = Storm::new(paper_query(), &expected, storm::governed_mix, &absorbs)
        .milestone(4, || replica_b.crash())
        .milestone(2, || recovery = Some(replica_b.restart()))
        .run(clients, queries_per_client, |_| Ok(ClusterFront(&cluster)));
    let recovery = recovery.expect("coordinator restarted the disk replica");

    // Re-admission proof: probe now, then route cluster queries until
    // the recovered replica has completed at least one (round-robin
    // spreads ready replicas, so a handful of queries suffices).
    let completed = || {
        replica_b
            .with(|b| b.metrics().completed)
            .expect("replica B is up")
    };
    cluster.probe_now();
    let already = completed();
    for _ in 0..200 {
        if completed() > already {
            break;
        }
        let _ = cluster.query(&paper_query());
    }
    let rejoined_completed = completed();
    assert!(
        rejoined_completed > already || already > 0,
        "the recovered replica must serve cluster queries after re-admission"
    );

    // Byte-identity proof, straight at the recovered replica: the rows
    // it serves from its healed page file equal serial execution.
    let direct_rows = Client::connect(replica_b.addr())
        .expect("direct client to recovered replica")
        .query(&paper_query())
        .expect("direct query on recovered replica")
        .rows;

    let stats = cluster.stats();
    cluster.shutdown();
    let store_stats = replica_b
        .with(Server::store_stats)
        .expect("replica B is up");
    let (pool_misses, physical_reads) = (store_stats.pool_misses, store_stats.physical_reads);
    server_a.shutdown();
    replica_b.stop();

    let reroutes = tally[Outcome::NoCandidate];
    let budget_stalls = tally[Outcome::BudgetStall];
    tally.assert_only_requested_endings((clients * queries_per_client) as u64);
    assert!(
        stats.failovers >= 1,
        "crashing the disk replica must exercise failover"
    );
    assert_eq!(
        stats.hedge_mismatches, 0,
        "hedge verification must never see the disk and memory replicas disagree"
    );
    assert_eq!(
        recovery.replayed_tables, 2,
        "recovery must replay both committed tables from the WAL"
    );
    assert!(
        recovery.replayed_pages > 0,
        "recovery must write page images back (healing the torn writes)"
    );
    assert!(
        pool_misses > 0 && physical_reads > 0,
        "the restarted replica starts cold: its queries must read the page file"
    );

    // The crashed-and-recovered replica answers byte-identical to
    // serial in-memory execution.
    assert_eq!(
        sorted(direct_rows),
        expected,
        "recovered replica must answer byte-identical to serial"
    );

    // Post-shutdown, the data directory alone still reproduces every
    // row of both tables, byte-identical and in load order — and a
    // second recovery replays to the same bytes (idempotence).
    for _ in 0..2 {
        let (store, _) = Store::open(dir.path(), 64, None).expect("re-open data directory");
        for name in ["Emp", "Dept"] {
            let tmpl = cat.table(name).expect("template table");
            let (schema, rows) = store.recovered_rows(name).expect("recovered rows");
            assert_eq!(&schema, tmpl.schema().as_ref(), "{name}: schema");
            assert_eq!(rows, tmpl.rows(), "{name}: recovered rows diverged");
        }
    }

    let mut report = Report::new(
        format!(
            "fj-store recovery chaos — {clients} clients × {queries_per_client} queries; \
             disk replica (torn writes + slow fsync) crashed and restarted from its \
             data directory mid-storm ({n_emps} emps / {n_depts} depts)"
        ),
        &[
            "clients",
            "queries ok",
            "deadline",
            "cancelled",
            "faults retried",
            "failovers",
            "replayed tables",
            "replayed pages",
            "pool misses",
            "phys reads",
            "rejoin served",
        ],
    );
    report.row(vec![
        Report::cell(clients),
        Report::cell(tally[Outcome::Ok]),
        Report::cell(tally[Outcome::Deadline]),
        Report::cell(tally[Outcome::Cancelled]),
        Report::cell(tally[Outcome::Fault]),
        Report::cell(stats.failovers),
        Report::cell(recovery.replayed_tables),
        Report::cell(recovery.replayed_pages),
        Report::cell(pool_misses),
        Report::cell(physical_reads),
        Report::cell(rejoined_completed),
    ]);
    report.note(
        "zero client-visible failures: every query resolved as a serial-verified \
         result, a requested cancel, or a requested deadline; the crash window was \
         absorbed by failover and the restarted replica was re-admitted by HEALTH \
         probes at its stable endpoint",
    );
    report.note(format!(
        "recovery replayed {} tables / {} page images from the WAL (every page \
         write was torn at load time — replay healed all of them); the rejoined \
         replica answered byte-identical to serial, cold ({} pool misses, {} \
         physical page reads){}",
        recovery.replayed_tables,
        recovery.replayed_pages,
        pool_misses,
        physical_reads,
        if recovery.torn_wal_tail {
            "; a torn WAL tail was truncated"
        } else {
            ""
        }
    ));
    report.note(format!(
        "transient windows: {reroutes} no-candidate reroutes, {budget_stalls} \
         budget-exhausted backoffs (both typed, both recovered); post-shutdown the \
         data directory re-opened twice to byte-identical rows for both tables"
    ));
    report.note(format!("cluster stats: {}", stats.to_json()));
    report
}
