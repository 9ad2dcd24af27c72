//! Cluster chaos: three replicas with independent seeded fault plans,
//! one hard-killed and one drained mid-run, under concurrent clients
//! mixing plain, deadlined, and cancelled queries — routed through the
//! replica-aware [`ClusterClient`].
//!
//! The cluster contract under fire: **no client-visible query
//! failures**. Every query resolves as a verified result (byte-
//! identical rows to serial execution), a requested cancellation, or a
//! requested deadline expiry; injected storage faults and replica
//! deaths are absorbed by typed retries and failover under the shared
//! retry budget, and hedged-request verification never sees two
//! replicas disagree. A second phase measures what hedging buys:
//! client-observed p99 with one deliberately stalled replica, hedging
//! off vs on.

use super::storm::{self, ClusterFront, Outcome, Storm};
use crate::report::Report;
use crate::workloads::paper_query;
use fj_cluster::{ClusterClient, ClusterConfig, HedgeConfig};
use fj_core::fixtures;
use fj_runtime::{FaultPlan, ServiceConfig};
use std::time::{Duration, Instant};

/// The hedging phase: one healthy and one deliberately stalled replica,
/// round-robin routing. Returns client-observed (p99 unhedged, p99
/// hedged) in milliseconds.
fn hedge_p99(queries: usize) -> ((f64, f64), u64, u64) {
    let p99 = |mut lat: Vec<Duration>| -> f64 {
        lat.sort();
        let idx = ((0.99 * lat.len() as f64).ceil() as usize).max(1) - 1;
        lat[idx].as_secs_f64() * 1e3
    };
    let run_once = |hedge: HedgeConfig| -> (f64, fj_cluster::ClusterStats) {
        // The slow replica stalls on *every* page read: any query
        // routed to it takes tens of milliseconds that hedging can win
        // back by racing the healthy replica.
        // Every page read on the slow replica stalls 40ms, putting its
        // queries (~160ms) far above both the healthy replica and any
        // value the power-of-2 latency histogram can round the hedge
        // trigger up to — the hedge always fires well before the stall
        // resolves.
        let stalled = FaultPlan::new(0x51).with_stalls(1, Duration::from_millis(40));
        let slow = storm::replica(fixtures::paper_catalog(), storm::faulty(stalled, None), 4);
        let fast = storm::replica(fixtures::paper_catalog(), ServiceConfig::default(), 4);
        let addrs = vec![slow.local_addr(), fast.local_addr()];
        let cluster = ClusterClient::connect(
            &addrs,
            ClusterConfig {
                probe_interval: Duration::from_millis(10),
                hedge,
                ..ClusterConfig::default()
            },
        )
        .expect("hedge cluster client");
        let query = paper_query();
        // Untimed warmup: seed the latency histogram past
        // `min_samples` so the measured window runs with the hedge
        // trigger fully armed (and the unhedged run sees the same
        // steady state).
        for _ in 0..8 {
            cluster.query(&query).expect("hedge-phase warmup query");
        }
        let mut latencies = Vec::with_capacity(queries);
        for _ in 0..queries {
            let t0 = Instant::now();
            let reply = cluster.query(&query).expect("hedge-phase query");
            latencies.push(t0.elapsed());
            assert!(!reply.rows.is_empty());
        }
        let stats = cluster.stats();
        assert_eq!(stats.hedge_mismatches, 0);
        cluster.shutdown();
        slow.shutdown();
        fast.shutdown();
        (p99(latencies), stats)
    };
    let (unhedged, _) = run_once(HedgeConfig {
        enabled: false,
        ..HedgeConfig::default()
    });
    // Round-robin over one slow and one healthy replica is a *bimodal*
    // latency distribution with half its mass in the slow mode, so the
    // hedge quantile must sit inside the fast mode's mass (the
    // textbook p95 assumes the tail is rare). 0.35 pins the trigger to
    // the fast mode regardless of how many slow completions the
    // histogram has absorbed.
    let (hedged, stats) = run_once(HedgeConfig {
        enabled: true,
        quantile: 0.35,
        min_delay: Duration::from_millis(1),
        min_samples: 8,
        // Losers are cancelled outright here — this phase measures
        // latency, not divergence.
        verify: false,
    });
    ((unhedged, hedged), stats.hedges_launched, stats.hedges_won)
}

/// Drives the full cluster chaos reproduction. Panics (failing the
/// reproduction) if any query resolves outside the expected classes,
/// any surviving row-set diverges from serial, hedge verification sees
/// a divergence, no failover was exercised, or hedging fails to improve
/// the measured p99 against a stalled replica.
pub fn run(n_emps: usize, n_depts: usize, clients: usize, queries_per_client: usize) -> Report {
    // The storm phase: three faulty replicas, one aborted and one drained
    // mid-run, concurrent clients with deadlines and cancels.
    let (cat, expected) = storm::paper_oracle(n_emps, n_depts);

    // Independent seeded fault schedules per replica: A throws read
    // errors and stalls, B panics a worker on exactly one page read
    // (and stalls), C only stalls — then C is hard-killed and A is
    // drained mid-run, so by the end B carries everything.
    let stall = Duration::from_micros(200);
    let plan_a = FaultPlan::new(0xA11CE)
        .with_read_errors(150)
        .with_stalls(64, stall);
    let plan_b = FaultPlan::new(0xB0B)
        .with_panic_at(3)
        .with_stalls(80, stall);
    let plan_c = FaultPlan::new(0xCAFE).with_stalls(48, Duration::from_micros(300));
    let server_a = storm::replica(cat.clone(), storm::faulty(plan_a, None), clients);
    let server_b = storm::replica(cat.clone(), storm::faulty(plan_b, None), clients);
    let server_c = storm::replica(cat, storm::faulty(plan_c, None), clients);
    let cluster = storm::cluster(&[
        server_a.local_addr(),
        server_b.local_addr(),
        server_c.local_addr(),
    ]);

    // Injected faults and transient no-candidate windows are re-driven
    // until the query lands in a terminal class; the kill and the
    // drain are invisible to the clients except as failovers.
    let absorbs = [Outcome::Fault, Outcome::NoCandidate, Outcome::BudgetStall];
    let (tally, _) = Storm::new(paper_query(), &expected, storm::governed_mix, &absorbs)
        .milestone(4, move || server_c.abort())
        .milestone(2, || server_a.begin_drain())
        .run(clients, queries_per_client, |_| Ok(ClusterFront(&cluster)));

    let stats = cluster.stats();
    let workers_replaced_b = server_b.metrics().workers_replaced;
    cluster.shutdown();
    server_a.shutdown();
    server_b.shutdown();

    let reroutes = tally[Outcome::NoCandidate];
    let budget_stalls = tally[Outcome::BudgetStall];
    tally.assert_only_requested_endings((clients * queries_per_client) as u64);
    assert!(
        stats.failovers >= 1,
        "killing and draining replicas must exercise failover"
    );
    assert_eq!(
        stats.hedge_mismatches, 0,
        "hedge verification must never see replicas disagree"
    );
    assert_eq!(
        workers_replaced_b, 1,
        "the induced panic on replica B respawned exactly one worker"
    );

    let p99_queries = (clients * queries_per_client).clamp(40, 120);
    let ((p99_unhedged, p99_hedged), hedges_launched, hedges_won) = hedge_p99(p99_queries);
    assert!(
        p99_hedged < p99_unhedged,
        "hedging must beat a stalled replica: {p99_hedged:.2}ms vs {p99_unhedged:.2}ms"
    );
    let improvement = 100.0 * (1.0 - p99_hedged / p99_unhedged);

    let mut report = Report::new(
        format!(
            "fj-cluster chaos — {clients} clients × {queries_per_client} queries over 3 \
             faulty replicas; 1 hard-killed + 1 drained mid-run \
             ({n_emps} emps / {n_depts} depts)"
        ),
        &[
            "clients",
            "queries ok",
            "deadline",
            "cancelled",
            "faults retried",
            "failovers",
            "hedges",
            "breaker opens",
            "p99 off (ms)",
            "p99 on (ms)",
            "p99 gain",
        ],
    );
    report.row(vec![
        Report::cell(clients),
        Report::cell(tally[Outcome::Ok]),
        Report::cell(tally[Outcome::Deadline]),
        Report::cell(tally[Outcome::Cancelled]),
        Report::cell(tally[Outcome::Fault]),
        Report::cell(stats.failovers),
        Report::cell(stats.hedges_launched),
        Report::cell(stats.breaker_opens),
        Report::num(p99_unhedged),
        Report::num(p99_hedged),
        Report::cell(format!("{improvement:.0}%")),
    ]);
    report.note(
        "zero client-visible failures: every query resolved as a serial-verified \
         result, a requested cancel, or a requested deadline; injected faults were \
         typed and retried, replica death/drain absorbed by failover under the \
         shared retry budget, and hedge verification saw no divergence",
    );
    report.note(format!(
        "transient windows: {reroutes} no-candidate reroutes, {budget_stalls} \
         budget-exhausted backoffs (both typed, both recovered)"
    ));
    report.note(format!(
        "hedging vs a stalled replica ({p99_queries} queries, round-robin): \
         p99 {p99_unhedged:.2} ms unhedged → {p99_hedged:.2} ms hedged \
         ({improvement:.0}% improvement; {hedges_launched} hedges launched, \
         {hedges_won} won)"
    ));
    report.note(format!("cluster stats: {}", stats.to_json()));
    report
}
