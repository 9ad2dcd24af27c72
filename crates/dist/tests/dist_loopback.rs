//! End-to-end distributed execution over real `fj-net` servers on
//! ephemeral loopback ports: every shipping strategy must produce the
//! same sorted row multiset as the serial oracle, a shard entering
//! drain mid-query must be ridden through by failover with zero
//! client-visible errors, and cancellation must tear the query down
//! with a typed interrupt.

use fj_algebra::{Catalog, FromItem, JoinQuery, PartitionMap};
use fj_cluster::ShardMap;
use fj_core::Database;
use fj_dist::{DistConfig, DistCoordinator, DistError, ShipStrategy};
use fj_expr::{col, lit};
use fj_net::{Server, ServerConfig};
use fj_storage::{DataType, TableBuilder, Tuple, Value};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort();
    rows
}

/// `n` empty shard servers; the coordinator scatters tables into them.
fn fleet(n: usize) -> (Vec<Server>, Vec<SocketAddr>) {
    let servers: Vec<Server> = (0..n)
        .map(|_| Server::bind("127.0.0.1:0", Catalog::new(), ServerConfig::default()).unwrap())
        .collect();
    let addrs = servers.iter().map(|s| s.local_addr()).collect();
    (servers, addrs)
}

/// A three-table chain with skewed key overlap so each strategy
/// actually filters something, plus indexes to exercise rebuild.
fn chain_catalog(rows: i64) -> Catalog {
    let mut cat = Catalog::new();
    let mut a = TableBuilder::new("A")
        .column("x", DataType::Int)
        .column("y", DataType::Int)
        .rows((0..rows).map(|i| vec![i.into(), (i % 23).into()]))
        .build()
        .unwrap();
    a.create_hash_index(1).unwrap();
    cat.add_table(a.into_ref());
    let mut b = TableBuilder::new("B")
        .column("y", DataType::Int)
        .column("z", DataType::Int)
        .rows((0..rows).map(|i| vec![(i % 61).into(), (i % 17).into()]))
        .build()
        .unwrap();
    b.create_btree_index(1).unwrap();
    cat.add_table(b.into_ref());
    cat.add_table(
        TableBuilder::new("C")
            .column("z", DataType::Int)
            .column("w", DataType::Int)
            .rows((0..rows).map(|i| vec![(i % 97).into(), i.into()]))
            .build()
            .unwrap()
            .into_ref(),
    );
    cat.set_partitioning("A", PartitionMap::new(0, 1));
    cat.set_partitioning("B", PartitionMap::new(1, 1));
    cat
}

fn chain_query() -> JoinQuery {
    JoinQuery::new(vec![
        FromItem::new("A", "a"),
        FromItem::new("B", "b"),
        FromItem::new("C", "c"),
    ])
    .with_predicate(
        col("a.y")
            .eq(col("b.y"))
            .and(col("b.z").eq(col("c.z")))
            .and(col("a.x").lt(lit(40))),
    )
}

#[test]
fn every_strategy_matches_the_serial_oracle() {
    let cat = chain_catalog(80);
    let expected = sorted(
        Database::with_catalog(cat.clone())
            .execute(&chain_query())
            .unwrap()
            .rows,
    );
    assert!(!expected.is_empty(), "fixture must produce rows");
    let (_servers, addrs) = fleet(3);
    let coord =
        DistCoordinator::deploy(cat, ShardMap::new(&addrs, 3, 1), DistConfig::default()).unwrap();
    assert!(coord.deploy_stats.messages > 0);
    for strategy in ShipStrategy::ALL.into_iter().chain([ShipStrategy::Auto]) {
        let out = coord
            .execute_with_config(&chain_query(), Default::default(), strategy)
            .unwrap();
        assert_eq!(
            sorted(out.result.rows),
            expected,
            "strategy {} diverged from the serial oracle",
            strategy.name()
        );
        assert!(out.stats.messages > 0, "{}", strategy.name());
        assert_eq!(out.stats.failovers, 0, "{}", strategy.name());
    }
}

#[test]
fn reductions_ship_fewer_bytes_than_ship_whole() {
    let cat = chain_catalog(120);
    let (_servers, addrs) = fleet(3);
    let coord =
        DistCoordinator::deploy(cat, ShardMap::new(&addrs, 3, 1), DistConfig::default()).unwrap();
    let whole = coord
        .execute_with_config(&chain_query(), Default::default(), ShipStrategy::ShipWhole)
        .unwrap();
    for strategy in [ShipStrategy::Semijoin, ShipStrategy::FullReducer] {
        let out = coord
            .execute_with_config(&chain_query(), Default::default(), strategy)
            .unwrap();
        assert!(
            out.stats.bytes_received < whole.stats.bytes_received,
            "{} gathered {} bytes, ship-whole {}",
            strategy.name(),
            out.stats.bytes_received,
            whole.stats.bytes_received
        );
    }
}

#[test]
fn auto_picks_the_cheapest_prediction_and_reports_it() {
    let cat = chain_catalog(60);
    let (_servers, addrs) = fleet(2);
    let coord =
        DistCoordinator::deploy(cat, ShardMap::new(&addrs, 2, 1), DistConfig::default()).unwrap();
    let out = coord.execute(&chain_query()).unwrap();
    assert_ne!(out.strategy, ShipStrategy::Auto, "Auto must resolve");
    let predicted = out.predicted.expect("Auto carries its prediction");
    assert_eq!(predicted.strategy, out.strategy);
    assert!(predicted.cost.is_finite());
}

#[test]
fn predicted_messages_are_the_messages_sent() {
    let cat = chain_catalog(80);
    let (_servers, addrs) = fleet(3);
    let coord =
        DistCoordinator::deploy(cat, ShardMap::new(&addrs, 3, 1), DistConfig::default()).unwrap();
    for strategy in ShipStrategy::ALL {
        let out = coord
            .execute_with_config(&chain_query(), Default::default(), strategy)
            .unwrap();
        assert_eq!(out.stats.failovers, 0, "{}", strategy.name());
        let predicted = out.predicted.expect("every strategy that runs is priced");
        assert_eq!(
            predicted.messages,
            out.stats.messages as f64,
            "{}",
            strategy.name()
        );
    }
}

/// Routing and exact-filter pruning must hash a key the way `Value`
/// compares it: `Double` keys probing an `Int`-keyed table partitioned
/// on the key find the rows on the shard those rows were scattered to.
#[test]
fn numerically_equal_keys_of_different_types_meet_on_one_shard() {
    let mut cat = Catalog::new();
    cat.add_table(
        TableBuilder::new("S")
            .column("k", DataType::Double)
            .rows((0..5).map(|i| vec![Value::Double(f64::from(i))]))
            .build()
            .unwrap()
            .into_ref(),
    );
    cat.add_table(
        TableBuilder::new("T")
            .column("k", DataType::Int)
            .column("v", DataType::Int)
            .rows((0..200).map(|i| vec![Value::Int(i % 50), Value::Int(i)]))
            .build()
            .unwrap()
            .into_ref(),
    );
    cat.set_partitioning("T", PartitionMap::new(0, 1));
    let q = JoinQuery::new(vec![FromItem::new("S", "s"), FromItem::new("T", "t")])
        .with_predicate(col("s.k").eq(col("t.k")));
    let expected = sorted(
        Database::with_catalog(cat.clone())
            .execute(&q)
            .unwrap()
            .rows,
    );
    assert_eq!(expected.len(), 20, "five keys, four rows each");
    let (_servers, addrs) = fleet(3);
    let coord =
        DistCoordinator::deploy(cat, ShardMap::new(&addrs, 3, 1), DistConfig::default()).unwrap();
    for strategy in ShipStrategy::ALL {
        let out = coord
            .execute_with_config(&q, Default::default(), strategy)
            .unwrap();
        assert_eq!(sorted(out.result.rows), expected, "{}", strategy.name());
    }
}

#[test]
fn drain_mid_query_rides_through_on_replicas() {
    let cat = chain_catalog(100);
    let expected = sorted(
        Database::with_catalog(cat.clone())
            .execute(&chain_query())
            .unwrap()
            .rows,
    );
    for strategy in [
        ShipStrategy::Semijoin,
        ShipStrategy::BloomSemijoin,
        ShipStrategy::FullReducer,
    ] {
        let (servers, addrs) = fleet(3);
        // Replication 2: every partition also lives on the next
        // server, so draining any single server leaves every partition
        // reachable.
        let mut coord = DistCoordinator::deploy(
            cat.clone(),
            ShardMap::new(&addrs, 3, 2),
            DistConfig::default(),
        )
        .unwrap();
        let servers = Arc::new(servers);
        let drained = Arc::new(AtomicBool::new(false));
        {
            let drained = drained.clone();
            let servers = servers.clone();
            coord.set_phase_hook(Box::new(move |phase| {
                if phase.starts_with("reduce:") && !drained.swap(true, Ordering::SeqCst) {
                    servers[0].begin_drain();
                }
            }));
        }
        let out = coord
            .execute_with_config(&chain_query(), Default::default(), strategy)
            .unwrap_or_else(|e| panic!("{} failed under drain: {e}", strategy.name()));
        assert_eq!(
            sorted(out.result.rows),
            expected,
            "{} diverged under drain",
            strategy.name()
        );
        assert!(
            out.stats.failovers > 0,
            "{} never exercised failover",
            strategy.name()
        );
    }
}

#[test]
fn exhausted_replicas_surface_a_typed_error() {
    let cat = chain_catalog(40);
    let (servers, addrs) = fleet(2);
    let coord =
        DistCoordinator::deploy(cat, ShardMap::new(&addrs, 2, 1), DistConfig::default()).unwrap();
    for s in &servers {
        s.begin_drain();
    }
    let err = coord
        .execute_with_config(&chain_query(), Default::default(), ShipStrategy::ShipWhole)
        .unwrap_err();
    assert!(
        matches!(err, DistError::NoHealthyReplica { .. }),
        "got {err}"
    );
}

#[test]
fn cancellation_tears_the_query_down() {
    let cat = chain_catalog(200);
    let (_servers, addrs) = fleet(3);
    let mut coord =
        DistCoordinator::deploy(cat, ShardMap::new(&addrs, 3, 1), DistConfig::default()).unwrap();
    let handle = coord.handle();
    coord.set_phase_hook(Box::new(move |phase| {
        if phase.starts_with("gather:") {
            handle.cancel();
        }
    }));
    let err = coord
        .execute_with_config(&chain_query(), Default::default(), ShipStrategy::Semijoin)
        .unwrap_err();
    assert!(matches!(err, DistError::Interrupted(_)), "got {err}");
}

#[test]
fn cross_alias_self_join_survives_reduction() {
    // Two aliases of the same table must be merged back into one
    // superset table before the final local join.
    let cat = chain_catalog(60);
    let expected_query = JoinQuery::new(vec![FromItem::new("A", "a1"), FromItem::new("A", "a2")])
        .with_predicate(
            col("a1.y")
                .eq(col("a2.y"))
                .and(col("a1.x").lt(lit(10)))
                .and(col("a2.x").lt(lit(30))),
        );
    let expected = sorted(
        Database::with_catalog(cat.clone())
            .execute(&expected_query)
            .unwrap()
            .rows,
    );
    let (_servers, addrs) = fleet(3);
    let coord =
        DistCoordinator::deploy(cat, ShardMap::new(&addrs, 3, 1), DistConfig::default()).unwrap();
    for strategy in [ShipStrategy::ShipWhole, ShipStrategy::Semijoin] {
        let out = coord
            .execute_with_config(&expected_query, Default::default(), strategy)
            .unwrap();
        assert_eq!(sorted(out.result.rows), expected, "{}", strategy.name());
    }
}

#[test]
fn fragment_deadline_is_enforced() {
    let cat = chain_catalog(60);
    let (_servers, addrs) = fleet(2);
    let coord = DistCoordinator::deploy(
        cat,
        ShardMap::new(&addrs, 2, 1),
        DistConfig {
            fragment_deadline: Duration::from_millis(1),
            ..DistConfig::default()
        },
    )
    .unwrap();
    // A 1ms deadline may or may not fire on a tiny query; what matters
    // is that an expired deadline surfaces as a typed error, never a
    // hang or panic.
    match coord.execute_with_config(&chain_query(), Default::default(), ShipStrategy::ShipWhole) {
        Ok(out) => assert!(!out.result.rows.is_empty()),
        Err(DistError::Net(e)) => {
            assert!(format!("{e}").contains("deadline"), "got {e}");
        }
        Err(e) => panic!("unexpected error class: {e}"),
    }
}

#[test]
fn one_kept_alive_connection_serves_deploy_and_every_query() {
    let cat = chain_catalog(80);
    let (servers, addrs) = fleet(1);
    let coord =
        DistCoordinator::deploy(cat, ShardMap::new(&addrs, 3, 1), DistConfig::default()).unwrap();
    for _ in 0..20 {
        coord.execute(&chain_query()).unwrap();
    }
    assert_eq!(servers[0].stats().connections_total, 1);
}

#[test]
fn deploy_to_a_shard_that_never_handshakes_fails_typed() {
    // A port that accepts and then says nothing: every dial must give up
    // after `io_timeout`, not wait for a handshake forever.
    let mute = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let map = ShardMap::new(&[mute.local_addr().unwrap()], 2, 1);
    let config = DistConfig {
        io_timeout: Duration::from_millis(200),
        ..DistConfig::default()
    };
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let deployed = DistCoordinator::deploy(chain_catalog(10), map, config);
        let _ = tx.send(deployed.map(|_| ()));
    });
    match rx.recv_timeout(Duration::from_secs(5)) {
        Ok(Err(DistError::NoHealthyReplica { .. })) => {}
        Ok(other) => panic!("expected NoHealthyReplica, got {other:?}"),
        Err(_) => panic!("deploy still waiting on a mute shard after 5 s"),
    }
}
