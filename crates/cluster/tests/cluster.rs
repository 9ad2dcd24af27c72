//! Cluster integration tests: real `fj-net` servers on ephemeral
//! ports, a real [`ClusterClient`], and the behaviours the subsystem
//! promises — routing around drained and dead replicas, failover under
//! a shared retry budget, typed budget exhaustion, circuit breaking,
//! hedging against a stalled replica, and cross-replica cancellation.

use fj_algebra::fixtures::{paper_catalog, paper_query};
use fj_algebra::{Catalog, FromItem, JoinQuery};
use fj_cluster::{
    BreakerConfig, BreakerState, CancelToken, ClusterClient, ClusterConfig, ClusterError,
    HedgeConfig, ReplicaHealth,
};
use fj_core::Database;
use fj_expr::col;
use fj_net::{QueryOptions, Server, ServerConfig};
use fj_runtime::{FaultPlan, ServiceConfig};
use fj_storage::{DataType, TableBuilder, Tuple};
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort();
    rows
}

/// A fleet of `n` identical replicas over the paper catalog.
fn fleet(n: usize, config: ServerConfig) -> (Vec<Server>, Vec<SocketAddr>) {
    let servers: Vec<Server> = (0..n)
        .map(|_| Server::bind("127.0.0.1:0", paper_catalog(), config.clone()).unwrap())
        .collect();
    let addrs = servers.iter().map(|s| s.local_addr()).collect();
    (servers, addrs)
}

/// A medium two-table join: slow enough (in debug builds) to cancel or
/// stall mid-flight, fast enough to keep tests snappy.
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

/// Quick config: fast probes, small backoff, no hedging.
fn quick_config() -> ClusterConfig {
    ClusterConfig {
        probe_interval: Duration::from_millis(10),
        probe_timeout: Duration::from_millis(500),
        ..ClusterConfig::default()
    }
}

#[test]
fn queries_spread_across_replicas_and_match_serial() {
    let (servers, addrs) = fleet(3, ServerConfig::default());
    let expected = sorted(
        Database::with_catalog(paper_catalog())
            .execute(&paper_query())
            .unwrap()
            .rows,
    );
    let cluster = ClusterClient::connect(&addrs, quick_config()).unwrap();
    for _ in 0..9 {
        let reply = cluster.query(&paper_query()).unwrap();
        assert_eq!(sorted(reply.rows), expected);
    }
    let stats = cluster.stats();
    assert_eq!(stats.queries, 9);
    assert_eq!(stats.failovers, 0, "healthy fleet needs no failover");
    assert_eq!(stats.hedge_mismatches, 0);
    // Round-robin across 3 replicas: every server saw work.
    for server in &servers {
        assert!(
            server.stats().requests >= 1,
            "round-robin skipped a replica"
        );
    }
    cluster.shutdown();
    for s in servers {
        s.shutdown();
    }
}

#[test]
fn prober_classifies_ready_draining_and_dead() {
    let (mut servers, addrs) = fleet(3, ServerConfig::default());
    let cluster = ClusterClient::connect(&addrs, quick_config()).unwrap();
    servers[1].begin_drain();
    let killed = servers.remove(2);
    killed.abort();

    cluster.probe_now();
    let stats = cluster.stats();
    assert_eq!(stats.replicas[0].health, ReplicaHealth::Ready);
    assert_eq!(stats.replicas[1].health, ReplicaHealth::Draining);
    assert_eq!(stats.replicas[2].health, ReplicaHealth::Dead);
    assert!(stats.probes >= 3);
    assert!(stats.probe_failures >= 1);

    // The JSON snapshot carries the same picture, stable-keyed.
    let json = stats.to_json();
    for key in [
        "\"queries\":",
        "\"failovers\":",
        "\"hedges_launched\":",
        "\"budget_available\":",
        "\"replicas\":[",
        "\"health\":\"draining\"",
        "\"health\":\"dead\"",
    ] {
        assert!(
            json.contains(key),
            "cluster stats JSON missing {key}: {json}"
        );
    }
    let (a, b) = (
        json.find("\"queries\":").unwrap(),
        json.find("\"failovers\":").unwrap(),
    );
    assert!(a < b, "stable key order");

    cluster.shutdown();
    for s in servers {
        s.shutdown();
    }
}

/// Blocks until the background prober has completed at least one full
/// round (so every replica reports Ready, not Unknown).
fn wait_first_probe_round(cluster: &ClusterClient, replicas: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = cluster.stats();
        if stats.probes >= replicas
            && stats
                .replicas
                .iter()
                .all(|r| r.health == ReplicaHealth::Ready)
        {
            return;
        }
        assert!(Instant::now() < deadline, "prober never ran");
        thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn failover_rides_out_a_hard_killed_replica() {
    let (mut servers, addrs) = fleet(3, ServerConfig::default());
    let expected = sorted(
        Database::with_catalog(paper_catalog())
            .execute(&paper_query())
            .unwrap()
            .rows,
    );
    // One probe round while everything is alive, then effectively no
    // probing: the kill below stays invisible to the health view.
    let cluster = ClusterClient::connect(
        &addrs,
        ClusterConfig {
            probe_interval: Duration::from_secs(600),
            ..quick_config()
        },
    )
    .unwrap();
    wait_first_probe_round(&cluster, 3);

    // Kill a replica *without* telling the prober: the next queries
    // that pick it must fail over transparently.
    let killed = servers.remove(1);
    killed.abort();
    for _ in 0..9 {
        let reply = cluster.query(&paper_query()).unwrap();
        assert_eq!(sorted(reply.rows), expected);
    }
    let stats = cluster.stats();
    assert!(
        stats.failovers >= 1,
        "round-robin must have hit the dead replica and hopped"
    );

    // Once the prober sees the death, routing skips the replica and
    // failovers stop accruing.
    cluster.probe_now();
    assert_eq!(cluster.stats().replicas[1].health, ReplicaHealth::Dead);
    let failovers_before = cluster.stats().failovers;
    for _ in 0..6 {
        cluster.query(&paper_query()).unwrap();
    }
    assert_eq!(
        cluster.stats().failovers,
        failovers_before,
        "probed-dead replicas must not be attempted at all"
    );
    cluster.shutdown();
    for s in servers {
        s.shutdown();
    }
}

#[test]
fn drained_replica_is_routed_around_without_client_visible_failures() {
    let (servers, addrs) = fleet(3, ServerConfig::default());
    let cluster = ClusterClient::connect(&addrs, quick_config()).unwrap();
    servers[0].begin_drain();
    // No probe yet: the first query may hit the draining replica, get
    // the typed SHUTTING_DOWN refusal, and must fail over silently.
    for _ in 0..9 {
        assert_eq!(cluster.query(&paper_query()).unwrap().rows.len(), 2);
    }
    cluster.probe_now();
    assert_eq!(cluster.stats().replicas[0].health, ReplicaHealth::Draining);
    let failovers_before = cluster.stats().failovers;
    for _ in 0..6 {
        cluster.query(&paper_query()).unwrap();
    }
    assert_eq!(cluster.stats().failovers, failovers_before);
    cluster.shutdown();
    for s in servers {
        s.shutdown();
    }
}

#[test]
fn budget_exhaustion_is_the_typed_give_up_outcome() {
    // Three dead replicas, a one-token budget, nothing deposited back:
    // attempt 1 is free, hop 2 spends the token, hop 3 finds the bucket
    // dry — the typed "we stopped on purpose" error, not a timeout.
    let (servers, addrs) = fleet(3, ServerConfig::default());
    for s in servers {
        s.abort();
    }
    let cluster = ClusterClient::connect(
        &addrs,
        ClusterConfig {
            retry_budget_capacity: 1,
            retry_deposit_per_success: 0.0,
            breaker: BreakerConfig {
                failure_threshold: 100,
                ..BreakerConfig::default()
            },
            ..quick_config()
        },
    )
    .unwrap();
    match cluster.query(&paper_query()) {
        Err(ClusterError::RetryBudgetExhausted { last }) => {
            assert!(last.is_transport(), "the last error was a dead socket");
        }
        other => panic!("expected RetryBudgetExhausted, got {other:?}"),
    }
    let stats = cluster.stats();
    assert_eq!(stats.budget_available, 0);
    assert_eq!(stats.budget_withdrawals, 1);
    assert!(stats.budget_exhaustions >= 1);
    cluster.shutdown();
}

#[test]
fn breakers_open_on_a_dead_replica_and_stop_the_hammering() {
    let (mut servers, addrs) = fleet(2, ServerConfig::default());
    let cluster = ClusterClient::connect(
        &addrs,
        ClusterConfig {
            breaker: BreakerConfig {
                failure_threshold: 2,
                cooldown: Duration::from_secs(600),
                half_open_successes: 1,
            },
            // Keep the prober effectively out of the picture so this
            // test exercises the breaker, not the health view.
            probe_interval: Duration::from_secs(600),
            ..quick_config()
        },
    )
    .unwrap();
    wait_first_probe_round(&cluster, 2);
    let killed = servers.remove(1);
    killed.abort();

    for _ in 0..10 {
        cluster.query(&paper_query()).unwrap();
    }
    let stats = cluster.stats();
    assert!(
        stats.breaker_opens >= 1,
        "two failures must trip the breaker"
    );
    assert!(
        stats.failovers <= 3,
        "after the breaker opens the dead replica is not attempted; \
         got {} failovers",
        stats.failovers
    );
    cluster.shutdown();
    for s in servers {
        s.shutdown();
    }
}

#[test]
fn hedging_beats_a_stalled_replica_and_verifies_replies() {
    // Replica 0 stalls on every page read; replica 1 is healthy. With
    // verification on, every hedge race also checks the two replies
    // byte-identical.
    let slow = Server::bind(
        "127.0.0.1:0",
        paper_catalog(),
        ServerConfig {
            service: ServiceConfig {
                fault_plan: Some(Arc::new(
                    FaultPlan::new(11).with_stalls(1, Duration::from_millis(30)),
                )),
                ..ServiceConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let fast = Server::bind("127.0.0.1:0", paper_catalog(), ServerConfig::default()).unwrap();
    let addrs = vec![slow.local_addr(), fast.local_addr()];
    let cluster = ClusterClient::connect(
        &addrs,
        ClusterConfig {
            hedge: HedgeConfig {
                enabled: true,
                quantile: 0.5,
                min_delay: Duration::from_millis(5),
                min_samples: 1,
                verify: true,
            },
            ..quick_config()
        },
    )
    .unwrap();

    let expected = sorted(
        Database::with_catalog(paper_catalog())
            .execute(&paper_query())
            .unwrap()
            .rows,
    );
    for _ in 0..12 {
        let reply = cluster.query(&paper_query()).unwrap();
        assert_eq!(sorted(reply.rows), expected);
    }
    let stats = cluster.stats();
    assert!(
        stats.hedges_launched >= 1,
        "queries landing on the stalled replica must have hedged"
    );
    assert!(
        stats.hedges_won >= 1,
        "the fast replica must have won at least one race"
    );
    assert_eq!(
        stats.hedge_mismatches, 0,
        "identical replicas must never diverge"
    );
    cluster.shutdown();
    slow.shutdown();
    fast.shutdown();
}

#[test]
fn cancel_token_tears_down_a_cluster_query() {
    let (cat, query) = big_catalog_and_query(3000);
    let server = Server::bind(
        "127.0.0.1:0",
        cat,
        ServerConfig {
            service: ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addrs = vec![server.local_addr()];
    let cluster = Arc::new(ClusterClient::connect(&addrs, quick_config()).unwrap());

    // The query may win the race on a fast run; retry until one
    // cancellation lands.
    let mut cancelled = false;
    for _ in 0..32 {
        let token = Arc::new(CancelToken::new());
        let killer = {
            let token = Arc::clone(&token);
            thread::spawn(move || {
                thread::sleep(Duration::from_millis(5));
                token.cancel();
            })
        };
        let outcome = cluster.query_with_token(&query, &QueryOptions::default(), &token);
        killer.join().unwrap();
        match outcome {
            Err(ClusterError::Cancelled) => {
                cancelled = true;
                break;
            }
            Ok(reply) => assert!(!reply.rows.is_empty(), "a racing winner returns full rows"),
            Err(other) => panic!("expected Cancelled or a result, got {other:?}"),
        }
    }
    assert!(cancelled, "32 attempts should land one mid-query cancel");
    // The replica survives: the next query succeeds.
    assert!(!cluster.query(&query).unwrap().rows.is_empty());
    Arc::try_unwrap(cluster)
        .expect("no other cluster handles remain")
        .shutdown();
    server.shutdown();
}

#[test]
fn empty_replica_list_is_rejected() {
    match ClusterClient::connect(&[], ClusterConfig::default()) {
        Err(ClusterError::NoReplicas) => {}
        other => panic!("expected NoReplicas, got {other:?}"),
    }
}

#[test]
fn deterministic_rejections_do_not_burn_the_budget() {
    // A query that fails on *every* replica identically (unknown
    // relation) must come back typed after one attempt — no failover,
    // no budget spend.
    let (servers, addrs) = fleet(3, ServerConfig::default());
    let cluster = ClusterClient::connect(&addrs, quick_config()).unwrap();
    let bogus = JoinQuery::new(vec![FromItem::new("NoSuchRel", "X")]);
    match cluster.query(&bogus) {
        Err(ClusterError::Net(e)) => {
            assert_eq!(e.error_code(), Some(fj_net::ErrorCode::QueryFailed));
        }
        other => panic!("expected a typed QueryFailed, got {other:?}"),
    }
    let stats = cluster.stats();
    assert_eq!(stats.failovers, 0, "deterministic failures must not hop");
    assert_eq!(stats.budget_withdrawals, 0);
    cluster.shutdown();
    for s in servers {
        s.shutdown();
    }
}

#[test]
fn wait_for_timeout_bounded_probe_convergence() {
    // The background prober (not probe_now) converges on a drain within
    // a few intervals.
    let (servers, addrs) = fleet(2, ServerConfig::default());
    let cluster = ClusterClient::connect(&addrs, quick_config()).unwrap();
    servers[1].begin_drain();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if cluster.stats().replicas[1].health == ReplicaHealth::Draining {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "background prober never noticed the drain"
        );
        thread::sleep(Duration::from_millis(5));
    }
    cluster.shutdown();
    for s in servers {
        s.shutdown();
    }
}

#[test]
fn traced_cluster_query_tags_replica_and_hedge_outcome() {
    let (servers, addrs) = fleet(3, ServerConfig::default());
    let cluster = ClusterClient::connect(&addrs, quick_config()).unwrap();

    let (reply, tagged) = cluster.query_traced(&paper_query()).unwrap();
    assert_eq!(tagged.trace.rows_out() as usize, reply.rows.len());
    assert!(
        addrs.contains(&tagged.replica),
        "trace tagged with an unknown replica: {}",
        tagged.replica
    );
    assert_eq!(tagged.hedge, fj_cluster::HedgeOutcome::NotHedged);
    let json = tagged.to_json();
    assert!(json.starts_with("{\"replica\":\""));
    assert!(json.contains("\"hedge\":\"not_hedged\""));
    assert!(json.contains("\"trace\":{\"total_wall_micros\":"));

    // Plain queries on the same cluster stay trace-free.
    let plain = cluster.query(&paper_query()).unwrap();
    assert!(plain.trace.is_none());
    assert_eq!(sorted(plain.rows), sorted(reply.rows));

    cluster.shutdown();
    for s in servers {
        s.shutdown();
    }
}

#[test]
fn kept_alive_connections_serve_probes_and_queries() {
    // Hedging off, so each replica sees at most two callers at once:
    // this thread and the background prober.
    let (servers, addrs) = fleet(2, ServerConfig::default());
    let cluster = ClusterClient::connect(&addrs, quick_config()).unwrap();
    for _ in 0..5 {
        cluster.probe_now();
    }
    for _ in 0..20 {
        assert_eq!(cluster.query(&paper_query()).unwrap().rows.len(), 2);
    }
    for server in &servers {
        let stats = server.stats();
        assert!(stats.requests >= 1, "round-robin skipped a replica");
        assert!(
            stats.connections_total <= 2,
            "{} connections for 5 probe rounds and 10 queries",
            stats.connections_total
        );
    }
    cluster.shutdown();
    for s in servers {
        s.shutdown();
    }
}

#[test]
fn a_stale_connection_is_replayed_not_failed_over() {
    // One replica whose idle connection dies with its server; a new
    // server comes up on the same port before the next query. The query
    // must succeed over a fresh dial and count nothing: a breaker that
    // opens on the first failure stays closed, and no token is spent.
    let server = Server::bind("127.0.0.1:0", paper_catalog(), ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let cluster = ClusterClient::connect(
        &[addr],
        ClusterConfig {
            probe_interval: Duration::from_secs(600),
            breaker: BreakerConfig {
                failure_threshold: 1,
                ..BreakerConfig::default()
            },
            ..quick_config()
        },
    )
    .unwrap();
    wait_first_probe_round(&cluster, 1);
    cluster.query(&paper_query()).unwrap();
    server.shutdown();
    let server = Server::bind(addr, paper_catalog(), ServerConfig::default()).unwrap();
    assert_eq!(cluster.query(&paper_query()).unwrap().rows.len(), 2);
    let stats = cluster.stats();
    assert_eq!(stats.failovers, 0);
    assert_eq!(stats.budget_withdrawals, 0);
    assert_eq!(stats.replicas[0].breaker, BreakerState::Closed);
    cluster.shutdown();
    server.shutdown();
}

#[test]
fn cancelled_hedge_losers_leave_no_cancel_behind_on_reused_connections() {
    // Cancel mode: every hedge race sends CANCEL to its loser. A CANCEL
    // that outlived its request on a kept-alive connection would cancel
    // a later query over the same socket.
    let slow = Server::bind(
        "127.0.0.1:0",
        paper_catalog(),
        ServerConfig {
            service: ServiceConfig {
                fault_plan: Some(Arc::new(
                    FaultPlan::new(11).with_stalls(1, Duration::from_millis(30)),
                )),
                ..ServiceConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let fast = Server::bind("127.0.0.1:0", paper_catalog(), ServerConfig::default()).unwrap();
    let cluster = ClusterClient::connect(
        &[slow.local_addr(), fast.local_addr()],
        ClusterConfig {
            hedge: HedgeConfig {
                enabled: true,
                quantile: 0.5,
                min_delay: Duration::from_millis(5),
                min_samples: 1,
                verify: false,
            },
            ..quick_config()
        },
    )
    .unwrap();
    for i in 0..60 {
        match cluster.query(&paper_query()) {
            Ok(reply) => assert_eq!(reply.rows.len(), 2),
            Err(e) => panic!("query {i} ended {e:?}"),
        }
    }
    assert!(cluster.stats().hedges_launched >= 1, "no race was run");
    cluster.shutdown();
    slow.shutdown();
    fast.shutdown();
}

#[test]
fn a_late_cancel_never_reaches_the_next_query_on_a_reused_connection() {
    // One slow replica, so the second query reuses the first one's
    // connection and is still running when the first query's token is
    // cancelled. The finished query must have left nothing registered.
    let slow = Server::bind(
        "127.0.0.1:0",
        paper_catalog(),
        ServerConfig {
            service: ServiceConfig {
                fault_plan: Some(Arc::new(
                    FaultPlan::new(11).with_stalls(1, Duration::from_millis(30)),
                )),
                ..ServiceConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let cluster = ClusterClient::connect(&[slow.local_addr()], quick_config()).unwrap();
    for _ in 0..3 {
        let first = Arc::new(CancelToken::new());
        let opts = QueryOptions::default();
        cluster
            .query_with_token(&paper_query(), &opts, &first)
            .unwrap();
        let late = thread::spawn(move || {
            thread::sleep(Duration::from_millis(10));
            first.cancel();
        });
        let second = cluster.query(&paper_query());
        late.join().unwrap();
        assert_eq!(second.unwrap().rows.len(), 2);
    }
    cluster.shutdown();
    slow.shutdown();
}
