//! Chaos soak: the loopback soak under seeded storage faults, client
//! cancellations, tiny deadlines, and one induced worker panic.
//!
//! The governor contract under fire: every injected page-read fault
//! surfaces as a typed QUERY_FAILED reply (never a hang, never a
//! panic escaping the pool), cancellations and expired deadlines tear
//! their queries down server-side, the one induced worker panic is
//! caught and answered by a respawn (`workers_replaced == 1`), and —
//! the headline — **every surviving OK reply is byte-identical to
//! serial execution**. After the storm, a full batch against the same
//! pool proves capacity never degraded.

use super::storm::{self, sorted, Front, Kind, NetFront, Outcome, Storm};
use crate::report::Report;
use crate::workloads::paper_query;
use fj_runtime::{FaultPlan, ServiceConfig};
use std::sync::Arc;
use std::time::Duration;

/// Drives `clients` concurrent TCP clients through a server carrying a
/// seeded [`FaultPlan`] (read errors + latency stalls + one exact-
/// ordinal induced panic). A quarter of the queries carry a deliberately
/// tiny deadline, another quarter are cancelled mid-flight from a
/// second thread. Panics (failing the reproduction) if any reply class
/// is untyped, any surviving row-set diverges from serial, or the pool
/// ends below full strength.
pub fn run(n_emps: usize, n_depts: usize, clients: usize, queries_per_client: usize) -> Report {
    let (cat, expected) = storm::paper_oracle(n_emps, n_depts);

    // Seeded fault schedule: the same seed replays the same faults.
    // Read errors are common enough to show up every run, stalls add
    // latency jitter, and exactly one page read (ordinal 3) panics the
    // worker that performs it.
    let faults = Arc::new(
        FaultPlan::new(0xC4A05)
            .with_read_errors(200)
            .with_stalls(64, Duration::from_micros(200))
            .with_panic_at(3),
    );
    let server = storm::replica(
        cat,
        ServiceConfig {
            queue_capacity: 4, // small on purpose: shed/retry stays hot
            ..storm::faulty(Arc::clone(&faults), None)
        },
        clients,
    );
    let addr = server.local_addr();

    // Sheds are retried; an injected fault is this storm's to count,
    // so it ends its query.
    let storm = Storm::new(
        paper_query(),
        &expected,
        storm::governed_mix,
        &[Outcome::Shed],
    );
    let (tally, secs) = storm.run(clients, queries_per_client, |_| NetFront::connect(addr));

    let ok = tally[Outcome::Ok];
    let deadline_hits = tally[Outcome::Deadline];
    let cancelled = tally[Outcome::Cancelled];
    let injected_faults = tally[Outcome::Fault];
    let worker_panics = tally[Outcome::WorkerPanic];
    let total = (clients * queries_per_client) as u64;
    assert_eq!(
        ok + deadline_hits + cancelled + injected_faults + worker_panics,
        total,
        "every issued query must resolve to a verified result or a typed refusal"
    );
    assert_eq!(
        worker_panics, 1,
        "exactly the one induced panic may surface to a client"
    );

    // Pool self-healed: the replacement worker is accounted for, and a
    // calm closing batch (retrying residual injected faults) completes
    // with full, correct rows — capacity never degraded.
    let metrics = server.metrics();
    assert_eq!(
        metrics.workers_replaced, 1,
        "panicked worker respawned once"
    );
    let mut closing = NetFront::connect(addr).expect("closing client connects");
    for i in 0..8 {
        let mut attempts = 0u32;
        let rows = loop {
            match closing.ask(&paper_query(), Kind::default()) {
                Ok(rows) => break rows,
                Err(e) if NetFront::classify(&e) == Some(Outcome::Fault) => {
                    attempts += 1;
                    assert!(attempts < 100, "closing query {i} cannot get past faults");
                }
                Err(other) => panic!("closing query {i}: {other}"),
            }
        };
        assert!(
            sorted(rows) == expected,
            "closing query {i} diverged after the storm"
        );
    }
    let stats_json = server.stats_json();
    server.shutdown();

    let mut report = Report::new(
        format!(
            "fj-net chaos soak — {clients} clients × {queries_per_client} queries \
             ({n_emps} emps / {n_depts} depts, seeded faults + 1 induced panic)"
        ),
        &[
            "clients",
            "queries ok",
            "deadline",
            "cancelled",
            "faults",
            "panics",
            "workers replaced",
            "queries/s",
        ],
    );
    report.row(vec![
        Report::cell(clients),
        Report::cell(ok),
        Report::cell(deadline_hits),
        Report::cell(cancelled),
        Report::cell(injected_faults),
        Report::cell(worker_panics),
        Report::cell(metrics.workers_replaced),
        Report::num(ok as f64 / secs),
    ]);
    report.note(
        "every surviving OK reply verified byte-identical to serial execution; \
         faults/cancellations/deadlines all typed, the induced panic respawned its worker, \
         and a post-storm batch completed at full pool strength",
    );
    report.note(format!("fault-plan events fired: {}", faults.events()));
    report.note(format!("server stats: {stats_json}"));
    report
}
