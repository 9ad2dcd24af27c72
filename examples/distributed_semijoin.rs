//! The §5.1 scenario: joining a local table with a remote one, under
//! networks ranging from free to WAN. Prints each classical strategy's
//! measured cost and shows the cost-based optimizer switching from
//! fetch-inner (the System R* default) to the semi-join / Filter Join
//! (the SDD-1 default) as communication gets expensive.
//!
//! ```sh
//! cargo run --example distributed_semijoin
//! ```

use filterjoin::exec::context::DEFAULT_MEMORY_PAGES;
use filterjoin::{col, DataType, Database, FromItem, JoinQuery, NetworkModel, TableBuilder, Value};
use fj_bench::repro::technique::{self, Technique};
use fj_bench::workloads::{two_site, ORDERS_CUSTOMERS as JOIN};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn main() {
    // Orders stay local; the big Customers table lives at site 1.
    // Only 40 customers are ever referenced — the semi-join's dream.
    let mut rng = StdRng::seed_from_u64(99);
    let orders = TableBuilder::new("Orders")
        .column("cust", DataType::Int)
        .column("amount", DataType::Double)
        .rows((0..1_000).map(|_| {
            vec![
                Value::Int(rng.gen_range(0..40)),
                Value::Double(rng.gen_range(1.0..900.0)),
            ]
        }))
        .build()
        .expect("Orders builds")
        .into_ref();
    let mut customers = TableBuilder::new("Customers")
        .column("cust", DataType::Int)
        .column("region", DataType::Int)
        .rows((0..20_000).map(|i| vec![Value::Int(i), Value::Int(rng.gen_range(0..10))]))
        .build()
        .expect("Customers builds");
    customers.create_hash_index(0).expect("index on cust");
    let customers = customers.into_ref();

    for (label, network) in [
        (
            "free network (R* assumption: local cost is all that matters)",
            NetworkModel::free(),
        ),
        ("LAN", NetworkModel::lan()),
        (
            "WAN (SDD-1 assumption: communication dominates)",
            NetworkModel::wan(),
        ),
    ] {
        let catalog = Arc::new(two_site(
            Arc::clone(&orders),
            Arc::clone(&customers),
            network,
        ));
        let mut db = Database::with_catalog((*catalog).clone());
        db.set_network(network);
        println!("=== {label} ===");
        let mut expected = db.run_logical(&JOIN.logical()).expect("oracle join").rows;
        expected.sort();
        for (name, t) in [
            ("fetch-inner (R*)", Technique::Full),
            ("fetch-matches (R*)", Technique::Probe),
            ("semi-join (SDD-1)", Technique::FilterJoin),
            ("bloom semi-join", Technique::lossy_for(1_000)),
        ] {
            let out = technique::run(&catalog, JOIN, t, DEFAULT_MEMORY_PAGES)
                .expect("strategy runs")
                .expect("applies to a remote table");
            let mut rows = out.rel.rows.to_vec();
            rows.sort();
            assert_eq!(rows, expected, "all strategies agree");
            println!(
                "  {name:<22} cost {:>10.1}   shipped {:>9} B in {:>3} msgs",
                out.cost, out.ledger.bytes_shipped, out.ledger.messages
            );
        }

        // What does the cost-based optimizer do?
        let q = JoinQuery::new(vec![
            FromItem::new("Orders", "O"),
            FromItem::new("Customers", "C"),
        ])
        .with_predicate(col("O.cust").eq(col("C.cust")));
        let plan = db.optimize(&q).expect("optimizes");
        println!(
            "  -> optimizer picks: {}\n",
            if plan.sips.is_empty() {
                "fetch inner (ship whole table)"
            } else {
                "filter join (ship filter set, restrict remotely)"
            }
        );
    }

    // The same scenario for real: three shard servers on loopback
    // ports, the tables hash-partitioned across them, and every
    // shipping strategy measured on the actual wire.
    println!("=== real wire: 3-shard partitioned execution (fj-dist) ===");
    let mut cat = filterjoin::Catalog::new();
    cat.add_table(orders);
    cat.add_table(customers);
    let servers: Vec<filterjoin::Server> = (0..3)
        .map(|_| {
            filterjoin::Server::bind(
                "127.0.0.1:0",
                filterjoin::Catalog::new(),
                filterjoin::ServerConfig::default(),
            )
            .expect("server binds")
        })
        .collect();
    let addrs: Vec<std::net::SocketAddr> = servers.iter().map(|s| s.local_addr()).collect();
    let coord = filterjoin::DistCoordinator::deploy(
        cat,
        filterjoin::ShardMap::new(&addrs, 3, 1),
        filterjoin::DistConfig::default(),
    )
    .expect("deploy scatters the partitions");
    println!(
        "  deploy: {} scatter messages, {} B on the wire",
        coord.deploy_stats.messages,
        coord.deploy_stats.total_bytes()
    );
    let q = JoinQuery::new(vec![
        FromItem::new("Orders", "O"),
        FromItem::new("Customers", "C"),
    ])
    .with_predicate(col("O.cust").eq(col("C.cust")));
    let mut expected_rows = None;
    for strategy in filterjoin::ShipStrategy::ALL {
        let out = coord
            .execute_with_config(&q, Default::default(), strategy)
            .expect("distributed run");
        let rows = out.result.rows.len();
        match expected_rows {
            None => expected_rows = Some(rows),
            Some(n) => assert_eq!(n, rows, "strategies must agree"),
        }
        println!(
            "  {:<15} {:>7} B shipped in {:>3} msgs -> {} rows",
            strategy.name(),
            out.stats.total_bytes(),
            out.stats.messages,
            rows
        );
    }
    let auto = coord.execute(&q).expect("auto run");
    println!(
        "  -> auto picks: {} (predicted {:.0} B, measured {} B)",
        auto.strategy.name(),
        auto.predicted.map(|p| p.bytes).unwrap_or(f64::NAN),
        auto.stats.total_bytes()
    );
}
