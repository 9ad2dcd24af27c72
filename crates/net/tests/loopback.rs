//! Loopback integration tests: a real server on an ephemeral port,
//! real TCP clients, and the behaviours the subsystem promises —
//! concurrent row-set fidelity vs the serial `Database` facade, load
//! shedding under a tiny queue, deadline expiry, graceful drain, and
//! protocol-violation handling on raw sockets.

use fj_algebra::fixtures::{paper_catalog, paper_query};
use fj_algebra::{Catalog, FromItem, JoinQuery};
use fj_core::Database;
use fj_expr::{col, lit};
use fj_net::{Client, ErrorCode, NetError, QueryOptions, Server, ServerConfig};
use fj_optimizer::OptimizerConfig;
use fj_runtime::ServiceConfig;
use fj_storage::{DataType, TableBuilder, Tuple};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort();
    rows
}

/// The paper query with a tweakable age threshold, so distinct
/// constants yield distinct queries (and distinct plan fingerprints).
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

/// A two-table equi-join big enough that a debug-build execution takes
/// long enough to hold a worker while other requests pile up.
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
    (cat, big_query())
}

/// The equi-join over [`big_catalog_and_query`]'s two tables.
fn big_query() -> JoinQuery {
    JoinQuery::new(vec![FromItem::new("L", "A"), FromItem::new("R", "B")])
        .with_predicate(col("A.k").eq(col("B.k")))
}

#[test]
fn thirty_two_concurrent_clients_match_serial() {
    let server = Server::bind("127.0.0.1:0", paper_catalog(), ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let serial = Database::with_catalog(paper_catalog());
    let ages: Vec<i64> = (0..8).map(|i| 24 + i).collect();
    let expected: Vec<Vec<Tuple>> = ages
        .iter()
        .map(|&a| sorted(serial.execute(&query_with_age(a)).unwrap().rows))
        .collect();

    let handles: Vec<_> = (0..32)
        .map(|i| {
            let which = i % ages.len();
            let age = ages[which];
            thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                // Two requests per connection: the protocol is
                // request/response, not one-shot.
                let first = client.query(&query_with_age(age)).unwrap();
                let second = client.query(&query_with_age(age)).unwrap();
                (which, sorted(first.rows), sorted(second.rows))
            })
        })
        .collect();
    for h in handles {
        let (which, first, second) = h.join().unwrap();
        assert_eq!(first, expected[which], "variant {which} diverged over TCP");
        assert_eq!(
            second, expected[which],
            "repeat of variant {which} diverged"
        );
    }

    let stats = server.stats();
    assert_eq!(stats.connections_total, 32);
    assert_eq!(stats.requests, 64);
    assert_eq!(stats.results, 64);
    assert_eq!(stats.sheds, 0);
    assert!(stats.bytes_in > 0 && stats.bytes_out > 0);
    server.shutdown();
}

#[test]
fn per_request_config_override_changes_the_plan_not_the_rows() {
    let server = Server::bind("127.0.0.1:0", paper_catalog(), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let default_reply = client.query(&paper_query()).unwrap();
    let override_reply = client
        .query_with(
            &paper_query(),
            &QueryOptions {
                deadline: None,
                config: Some(OptimizerConfig::without_filter_join()),
                want_trace: false,
            },
        )
        .unwrap();
    assert_eq!(
        sorted(default_reply.rows),
        sorted(override_reply.rows),
        "an optimizer override may change the plan but never the answer"
    );
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_every_accepted_query() {
    let (cat, query) = big_catalog_and_query(1200);
    let expected = sorted(
        Database::with_catalog(cat.clone())
            .execute(&query)
            .unwrap()
            .rows,
    );
    let server = Server::bind(
        "127.0.0.1:0",
        cat,
        ServerConfig {
            service: ServiceConfig {
                workers: 2,
                queue_capacity: 64,
                ..ServiceConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let handles: Vec<_> = (0..8)
        .map(|_| {
            let query = query.clone();
            thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.query(&query).map(|r| sorted(r.rows))
            })
        })
        .collect();

    // Wait until all 8 requests are accepted (decoded and counted),
    // then begin draining while most are still queued or executing.
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.stats().requests < 8 {
        assert!(Instant::now() < deadline, "requests never arrived");
        thread::sleep(Duration::from_millis(2));
    }
    server.shutdown();

    // Every accepted query completed with full, correct rows — drain
    // means finish, not abort.
    for h in handles {
        let rows = h
            .join()
            .unwrap()
            .expect("accepted work must not be dropped");
        assert_eq!(rows, expected);
    }

    // And the listener is gone: new connections are refused.
    assert!(
        Client::connect(addr).is_err(),
        "a drained server must not accept new connections"
    );
}

/// A canceller is used from a second thread while the client may still
/// be sending its request. A frame is two writes (header, payload), so
/// an unserialised CANCEL can land between them and the server then
/// decodes garbage (`MALFORMED: bad expr tag`). With the writes
/// serialised every request ends as a result or a typed cancellation.
#[test]
fn a_cancel_racing_the_request_write_never_corrupts_the_request() {
    let server = Server::bind("127.0.0.1:0", paper_catalog(), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut canceller = client.canceller().unwrap();
    let stop = std::sync::atomic::AtomicBool::new(false);
    thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                canceller.cancel().unwrap();
            }
        });
        for i in 0..300 {
            match client.query(&paper_query()) {
                Ok(reply) => assert_eq!(reply.rows.len(), 2, "query {i}"),
                Err(e) => assert_eq!(e.error_code(), Some(ErrorCode::Cancelled), "query {i}: {e}"),
            }
        }
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
    });
    server.shutdown();
}

#[test]
fn version_mismatch_is_rejected_in_the_handshake() {
    let server = Server::bind("127.0.0.1:0", paper_catalog(), ServerConfig::default()).unwrap();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let mut hello = Vec::new();
    hello.extend_from_slice(b"FJNT");
    hello.extend_from_slice(&0x7777u16.to_be_bytes()); // unknown version
    raw.write_all(&hello).unwrap();
    let mut echo = [0u8; 6];
    raw.read_exact(&mut echo).unwrap();
    assert_eq!(&echo[0..4], b"FJNT");
    assert_eq!(
        u16::from_be_bytes([echo[4], echo[5]]),
        fj_net::wire::VERSION_REJECTED
    );
    server.shutdown();
}

#[test]
fn response_frame_from_a_client_is_malformed() {
    let server = Server::bind("127.0.0.1:0", paper_catalog(), ServerConfig::default()).unwrap();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    fj_net::wire::client_handshake(&mut raw).unwrap();
    // A RESULT frame is server→client only; sending one upstream is a
    // protocol violation the server must answer with a typed error.
    fj_net::wire::write_frame(&mut raw, fj_net::FrameType::Result, &[1, 2, 3]).unwrap();
    let mut reader = fj_net::wire::FrameReader::new(fj_net::wire::DEFAULT_MAX_FRAME_BYTES);
    let frame = reader.read_frame_blocking(&mut raw).unwrap().unwrap();
    assert_eq!(frame.ty, fj_net::FrameType::Error);
    let (code, _) = fj_net::codec::decode_error(&frame.payload).unwrap();
    assert_eq!(code, ErrorCode::Malformed);
    server.shutdown();
}

#[test]
fn connection_cap_sheds_at_the_edge() {
    let server = Server::bind(
        "127.0.0.1:0",
        paper_catalog(),
        ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let _first = Client::connect(addr).unwrap();
    // The second connection completes the handshake but its first
    // request is answered SHED and the connection closed.
    let outcome = Client::connect(addr).and_then(|mut c| c.query(&paper_query()));
    match outcome {
        Err(e) => assert!(
            e.is_retryable() || matches!(e, NetError::ConnectionClosed | NetError::Io(_)),
            "over-cap connection must be shed or closed, got {e}"
        ),
        Ok(_) => panic!("second connection must not be served while capped at 1"),
    }
    assert!(server.stats().connections_shed >= 1);
    server.shutdown();
}

#[test]
fn health_frame_reports_pool_shape_and_readiness() {
    let server = Server::bind(
        "127.0.0.1:0",
        paper_catalog(),
        ServerConfig {
            service: ServiceConfig {
                workers: 3,
                queue_capacity: 17,
                ..ServiceConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let health = client.health(Duration::from_secs(5)).unwrap();
    assert_eq!(health.status, fj_net::HealthStatus::Ready);
    assert_eq!(health.get("workers"), Some(3));
    assert_eq!(health.get("workers_replaced"), Some(0));
    assert_eq!(health.get("queue_capacity"), Some(17));
    assert!(
        health.get("connections_active") >= Some(1),
        "this probe's connection"
    );
    assert_eq!(health.get("no_such_counter"), None);

    // Health probes and queries interleave on one connection.
    assert_eq!(client.query(&paper_query()).unwrap().rows.len(), 2);
    let again = client.health(Duration::from_secs(5)).unwrap();
    assert_eq!(again.status, fj_net::HealthStatus::Ready);
    assert!(server.stats().health_probes >= 2);
    assert!(server.stats_json().contains("\"health_probes\":"));
    server.shutdown();
}

#[test]
fn begin_drain_refuses_new_queries_but_serves_health_and_accepted_work() {
    let (cat, query) = big_catalog_and_query(1500);
    let expected = sorted(
        Database::with_catalog(cat.clone())
            .execute(&query)
            .unwrap()
            .rows,
    );
    let server = Server::bind(
        "127.0.0.1:0",
        cat,
        ServerConfig {
            service: ServiceConfig {
                workers: 2,
                queue_capacity: 64,
                ..ServiceConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // Get a batch of queries accepted, then drain mid-flight.
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let query = query.clone();
            thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.query(&query).map(|r| sorted(r.rows))
            })
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.stats().requests < 4 {
        assert!(Instant::now() < deadline, "requests never arrived");
        thread::sleep(Duration::from_millis(2));
    }
    server.begin_drain();
    assert!(server.is_draining());

    // Accepted queries still finish with full, correct rows.
    for h in handles {
        let rows = h.join().unwrap().expect("drain must finish accepted work");
        assert_eq!(rows, expected);
    }

    // New queries are refused with the typed, retryable drain code —
    // over a *new* connection, because the listener is still up.
    let mut late = Client::connect(addr).expect("drain keeps the listener alive");
    match late.query(&query) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::ShuttingDown),
        other => panic!("expected SHUTTING_DOWN during drain, got {other:?}"),
    }

    // And HEALTH keeps answering, reporting the drain — this is what
    // lets a replica router tell "draining" from "dead".
    let health = late.health(Duration::from_secs(5)).unwrap();
    assert_eq!(health.status, fj_net::HealthStatus::Draining);
    assert!(server.stats_json().contains("\"state\":\"draining\""));
    server.shutdown();
}

#[test]
fn drain_under_an_active_fault_plan_still_answers_typed() {
    use fj_runtime::FaultPlan;
    use std::sync::Arc;

    // Aggressive injected read errors: accepted queries may fail, but
    // they must fail *typed*, drain must still finish/refuse correctly,
    // and health must still answer.
    let (cat, query) = big_catalog_and_query(1200);
    let server = Server::bind(
        "127.0.0.1:0",
        cat,
        ServerConfig {
            service: ServiceConfig {
                workers: 2,
                queue_capacity: 64,
                fault_plan: Some(Arc::new(
                    FaultPlan::new(7)
                        .with_read_errors(40)
                        .with_stalls(60, Duration::from_micros(200)),
                )),
                ..ServiceConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let handles: Vec<_> = (0..6)
        .map(|_| {
            let query = query.clone();
            thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.query(&query)
            })
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.stats().requests < 6 {
        assert!(Instant::now() < deadline, "requests never arrived");
        thread::sleep(Duration::from_millis(2));
    }
    server.begin_drain();

    for h in handles {
        match h.join().unwrap() {
            Ok(reply) => assert!(!reply.rows.is_empty()),
            // An injected read error surfaces as QUERY_FAILED — typed,
            // not a dropped connection.
            Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::QueryFailed),
            Err(other) => panic!("fault under drain must stay typed, got {other}"),
        }
    }

    let mut late = Client::connect(addr).unwrap();
    assert!(
        matches!(
            late.query(&query),
            Err(NetError::Remote {
                code: ErrorCode::ShuttingDown,
                ..
            })
        ),
        "drain refusals must keep working under fault injection"
    );
    let health = late.health(Duration::from_secs(5)).unwrap();
    assert_eq!(health.status, fj_net::HealthStatus::Draining);
    server.shutdown();
}

#[test]
fn abort_models_a_crash_with_transport_errors_not_replies() {
    let (cat, query) = big_catalog_and_query(3000);
    let server = Server::bind(
        "127.0.0.1:0",
        cat,
        ServerConfig {
            service: ServiceConfig {
                workers: 2,
                queue_capacity: 64,
                ..ServiceConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let handles: Vec<_> = (0..4)
        .map(|_| {
            let query = query.clone();
            thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.query(&query)
            })
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.stats().requests < 4 {
        assert!(Instant::now() < deadline, "requests never arrived");
        thread::sleep(Duration::from_millis(2));
    }
    let killed_at = Instant::now();
    server.abort();
    assert!(
        killed_at.elapsed() < Duration::from_secs(60),
        "abort must not wait for queries to finish"
    );

    // Every in-flight client sees a transport-level failure (or, if it
    // raced the kill, a cancellation) — never a silent hang. A real
    // crashed process looks exactly like this.
    for h in handles {
        match h.join().unwrap() {
            Err(e) if e.is_transport() => {}
            Err(NetError::Remote {
                code: ErrorCode::Cancelled | ErrorCode::Internal,
                ..
            }) => {}
            Ok(_) => panic!("an aborted server must not deliver results"),
            Err(other) => panic!("expected a transport error after abort, got {other}"),
        }
    }
    // And the listener is gone: the replica is dead, not draining.
    assert!(Client::connect(addr).is_err());
}

#[test]
fn stats_request_returns_merged_json() {
    let server = Server::bind("127.0.0.1:0", paper_catalog(), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.query(&paper_query()).unwrap();
    let json = client.stats_json().unwrap();
    for key in [
        "\"connections_total\":",
        "\"requests\":1",
        "\"results\":1",
        "\"sheds\":0",
        "\"deadline_hits\":0",
        "\"bytes_in\":",
        "\"bytes_out\":",
        "\"runtime\":{",
        "\"completed\":1",
        "\"cache_hit_rate\":",
    ] {
        assert!(json.contains(key), "stats JSON missing {key}: {json}");
    }
    server.shutdown();
}

#[test]
fn traced_query_carries_the_operator_trace_over_the_wire() {
    let server = Server::bind("127.0.0.1:0", paper_catalog(), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // An untraced query first: no TRACE_REPLY frame rides behind the
    // RESULT, so the connection must stay in sync for what follows.
    let plain = client.query(&paper_query()).unwrap();
    assert!(plain.trace.is_none());

    let traced = client
        .query_with(
            &paper_query(),
            &QueryOptions {
                deadline: None,
                config: None,
                want_trace: true,
            },
        )
        .unwrap();
    assert_eq!(sorted(plain.rows), sorted(traced.rows.clone()));
    let trace = traced.trace.expect("traced query must carry a trace");
    assert_eq!(trace.rows_out() as usize, traced.rows.len());
    assert!(
        trace.node_count() >= 3,
        "a three-relation join plan has at least three operators, got {}",
        trace.node_count()
    );

    // The connection is still healthy after the extra frame.
    let again = client.query(&paper_query()).unwrap();
    assert!(again.trace.is_none());
    assert_eq!(sorted(again.rows), sorted(traced.rows));
    server.shutdown();
}

#[test]
fn mutate_over_the_wire_changes_results_and_counts_in_health() {
    let (catalog, query) = big_catalog_and_query(50);
    let server = Server::bind("127.0.0.1:0", catalog, ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let before = client.query(&query).unwrap().rows.len();

    // L gains one row with k=3; R (50 rows, keys i % 89) holds k=3
    // exactly once, so the join gains exactly one pair.
    let reply = client
        .mutate(&fj_net::Mutation::Insert {
            table: "L".to_string(),
            rows: vec![vec![3i64.into(), 999i64.into()]],
        })
        .unwrap();
    assert_eq!(reply.rows_affected, 1);
    assert_eq!(reply.row_count, 51);
    assert_eq!(reply.version, 1, "first mutation of L bumps it to v1");

    let after = client.query(&query).unwrap().rows.len();
    assert_eq!(after, before + 1, "the inserted row joins exactly once");

    // DELETE it again; results return to the baseline.
    let undone = client
        .mutate(&fj_net::Mutation::Delete {
            table: "L".to_string(),
            where_col: "v".to_string(),
            where_value: 999i64.into(),
        })
        .unwrap();
    assert_eq!(undone.rows_affected, 1);
    assert_eq!(undone.row_count, 50);
    assert_eq!(undone.version, 2);
    assert_eq!(client.query(&query).unwrap().rows.len(), before);

    let health = client.health(Duration::from_secs(5)).unwrap();
    assert_eq!(health.get("mutations_applied"), Some(2));
    server.shutdown();
}

#[test]
fn mutate_on_an_unknown_table_is_a_typed_error_not_a_panic() {
    let server = Server::bind("127.0.0.1:0", paper_catalog(), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let err = client
        .mutate(&fj_net::Mutation::Delete {
            table: "NoSuchTable".to_string(),
            where_col: "k".to_string(),
            where_value: 1i64.into(),
        })
        .unwrap_err();
    assert_eq!(err.error_code(), Some(ErrorCode::QueryFailed));
    // The connection survives the refusal.
    assert!(!client.query(&paper_query()).unwrap().rows.is_empty());
    server.shutdown();
}

/// The integer STATS reports as `key` inside its `runtime` object
/// (`None` for an absent key or a float).
fn runtime_counter(stats_json: &str, key: &str) -> Option<u64> {
    let runtime = &stats_json[stats_json.find("\"runtime\":{")?..];
    let value = &runtime[runtime.find(&format!("\"{key}\":"))? + key.len() + 3..];
    let digits = value.find(|c: char| !c.is_ascii_digit())?;
    (!value[digits..].starts_with('.')).then(|| value[..digits].parse().ok())?
}

/// HEALTH and STATS are two renderings of one metrics snapshot: after
/// work that moves every family of counters (a traced query, a commit
/// on a disk store, a join that spills), each key HEALTH shares with
/// the STATS `runtime` object reports the same value.
#[test]
fn health_and_stats_report_the_same_counters() {
    use fj_runtime::StorageMode;
    let dir = Scratch(std::env::temp_dir().join(format!("fj-net-agree-{}", std::process::id())));
    let server = Server::bind(
        "127.0.0.1:0",
        big_catalog_and_query(600).0,
        ServerConfig {
            service: ServiceConfig {
                storage: StorageMode::Disk {
                    dir: dir.0.clone(),
                    pool_pages: 6,
                },
                // The least M a service accepts (`MIN_MEMORY_PAGES`).
                memory_pages: 3,
                spill_soft_watermark_pages: Some(8),
                ..ServiceConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let traced = QueryOptions {
        want_trace: true,
        ..QueryOptions::default()
    };
    let spilled = client.query_with(&big_query(), &traced).unwrap();
    assert!(spilled.trace.is_some());
    client.mutate(&Kind::insert()).unwrap();

    let stats = client.stats_json().unwrap();
    let health = client.health(Duration::from_secs(5)).unwrap();
    let shared: Vec<&str> = fj_net::HEALTH_KEYS
        .into_iter()
        .filter(|key| runtime_counter(&stats, key).is_some())
        .collect();
    for key in &shared {
        assert_eq!(
            health.get(key),
            runtime_counter(&stats, key),
            "HEALTH and STATS disagree on {key}: {stats}"
        );
    }
    // Everything but the three HEALTH-only keys is shared, and the
    // work above moved each family off zero.
    assert_eq!(shared.len(), fj_net::HEALTH_KEYS.len() - 3, "{shared:?}");
    for moved in [
        "workers",
        "pool_hits",
        "pool_misses",
        "wal_fsyncs",
        "mutations_applied",
        "wal_deltas",
        "spills",
        "spill_partitions",
        "spill_bytes_written",
        "spill_bytes_read",
        "peak_temp_bytes",
    ] {
        assert!(health.get(moved) > Some(0), "{moved} never moved: {stats}");
    }
    assert_eq!(runtime_counter(&stats, "traces_recorded"), Some(1));
    server.shutdown();
}

// ---------------------------------------------------------------------
// The request lifecycle, as a table: every request kind that runs
// through the worker queue × every way its wait can end.

/// The three request kinds that run through the worker queue.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Query,
    Fragment,
    Mutate,
}

/// Every page read of a QUERY/FRAGMENT row stalls this long
/// (`FaultPlan::with_stalls`), so a scan holds its worker for several
/// of these and polls its interrupt between the two scans.
const PAGE_STALL: Duration = Duration::from_millis(30);
/// Every WAL fsync of a MUTATE row stalls this long
/// (`FaultPlan::with_slow_fsync`). The fsync is past a mutation's last
/// cancellation point, so a MUTATE is stalled *before* it by queueing
/// it behind another mutation's commit (mutations serialize).
const FSYNC_STALL: Duration = Duration::from_millis(300);
/// Rows in the table MUTATE rows insert into.
const MUTATE_ROWS: u64 = 50;

impl Kind {
    fn request_frame(self) -> fj_net::FrameType {
        match self {
            Kind::Query => fj_net::FrameType::Query,
            Kind::Fragment => fj_net::FrameType::Fragment,
            Kind::Mutate => fj_net::FrameType::Mutate,
        }
    }

    fn reply_frame(self) -> fj_net::FrameType {
        match self {
            Kind::Query => fj_net::FrameType::Result,
            Kind::Fragment => fj_net::FrameType::Gather,
            Kind::Mutate => fj_net::FrameType::MutateReply,
        }
    }

    /// The pinned error texts: (noun, deadline, cancelled).
    fn texts(self) -> (&'static str, &'static str, &'static str) {
        match self {
            Kind::Query => (
                "query",
                "deadline expired; query cancelled",
                "query cancelled",
            ),
            Kind::Fragment => (
                "fragment",
                "deadline expired; fragment cancelled",
                "fragment cancelled",
            ),
            Kind::Mutate => (
                "mutation",
                "deadline expired; mutation aborted without state change",
                "mutation cancelled; no state change",
            ),
        }
    }

    fn insert() -> fj_net::Mutation {
        fj_net::Mutation::Insert {
            table: "L".to_string(),
            rows: vec![vec![3i64.into(), 999i64.into()]],
        }
    }

    /// One deadline-free request as a raw payload, for connections
    /// that must not block on the reply.
    fn request(self) -> Vec<u8> {
        let query = big_query();
        match self {
            Kind::Query => fj_net::codec::encode_request(&fj_net::QueryRequest {
                deadline_millis: 0,
                want_trace: false,
                config: None,
                query,
            }),
            Kind::Fragment => fj_net::codec::encode_fragment(&fj_net::FragmentRequest {
                deadline_millis: 0,
                query,
            }),
            Kind::Mutate => fj_net::codec::encode_mutation_request(&fj_net::MutationRequest {
                deadline_millis: 0,
                mutation: Kind::insert(),
            }),
        }
        .unwrap()
    }

    /// One request through the real client; `Ok` carries a mutation's
    /// post-commit row count.
    fn call(
        self,
        client: &mut Client,
        deadline: Option<Duration>,
    ) -> Result<Option<u64>, NetError> {
        let query = big_query();
        match self {
            Kind::Query => {
                let opts = QueryOptions {
                    deadline,
                    ..QueryOptions::default()
                };
                client.query_with(&query, &opts).map(|_| None)
            }
            Kind::Fragment => {
                let deadline_millis = deadline.map_or(0, |d| d.as_millis() as u64);
                let request = fj_net::FragmentRequest {
                    deadline_millis,
                    query,
                };
                client.fragment(&request).map(|_| None)
            }
            Kind::Mutate => client
                .mutate_with(&Kind::insert(), deadline)
                .map(|reply| Some(reply.row_count)),
        }
    }
}

/// Polls `cond` until it holds; panics after 30 s.
fn eventually(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < deadline, "never happened: {what}");
        thread::sleep(Duration::from_millis(1));
    }
}

fn assert_remote(err: &NetError, code: ErrorCode, message: &str) {
    match err {
        NetError::Remote {
            code: got_code,
            message: got_message,
        } => assert_eq!((*got_code, got_message.as_str()), (code, message)),
        other => panic!("expected a typed server error, got {other}"),
    }
}

/// A raw protocol connection: frames in, frames out, no client logic —
/// for what the client cannot do (send without waiting, break the
/// protocol, vanish mid-request).
struct Raw {
    stream: TcpStream,
    reader: fj_net::wire::FrameReader,
}

impl Raw {
    fn connect(server: &Server) -> Raw {
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        fj_net::wire::client_handshake(&mut stream).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let reader = fj_net::wire::FrameReader::new(fj_net::wire::DEFAULT_MAX_FRAME_BYTES);
        Raw { stream, reader }
    }

    fn send(&mut self, ty: fj_net::FrameType, payload: &[u8]) {
        fj_net::wire::write_frame(&mut self.stream, ty, payload).unwrap();
    }

    /// The next frame; `None` once the server has closed.
    fn recv(&mut self) -> Option<(fj_net::FrameType, Vec<u8>)> {
        let started = Instant::now();
        self.reader
            .read_frame(&mut self.stream, |_| {
                assert!(
                    started.elapsed() < Duration::from_secs(30),
                    "no frame in 30 s"
                );
                false
            })
            .unwrap()
            .map(|f| (f.ty, f.payload))
    }

    fn expect_error(&mut self, code: ErrorCode, message: &str) {
        let (ty, body) = self.recv().expect("an ERROR frame, not a close");
        assert_eq!(ty, fj_net::FrameType::Error);
        let (got_code, got_message) = fj_net::codec::decode_error(&body).unwrap();
        assert_eq!((got_code, got_message.as_str()), (code, message));
    }
}

/// Removes a scratch data directory when dropped.
struct Scratch(std::path::PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One server set up so that requests of `kind` stall mid-flight.
struct Lifecycle {
    kind: Kind,
    server: Server,
    // Declared after `server`: dropped once the server has stopped.
    _scratch: Option<Scratch>,
}

impl Lifecycle {
    fn start(kind: Kind, workers: usize, queue_capacity: usize) -> Lifecycle {
        use fj_runtime::{FaultPlan, StorageMode};
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DIRS: AtomicUsize = AtomicUsize::new(0);

        let mut service = ServiceConfig {
            workers,
            queue_capacity,
            ..ServiceConfig::default()
        };
        let (catalog, scratch) = if kind == Kind::Mutate {
            let dir = std::env::temp_dir().join(format!(
                "fj-net-lifecycle-{}-{}",
                std::process::id(),
                DIRS.fetch_add(1, Ordering::Relaxed)
            ));
            service.storage = StorageMode::Disk {
                dir: dir.clone(),
                pool_pages: 64,
            };
            service.fault_plan = Some(FaultPlan::new(1).with_slow_fsync(1, FSYNC_STALL).into());
            // One table, so start-up pays for one slow load fsync.
            let mut only_l = Catalog::new();
            let both = big_catalog_and_query(MUTATE_ROWS as i64).0;
            only_l.add_table(both.table("L").unwrap());
            (only_l, Some(Scratch(dir)))
        } else {
            service.fault_plan = Some(FaultPlan::new(1).with_stalls(1, PAGE_STALL).into());
            (big_catalog_and_query(600).0, None)
        };
        let config = ServerConfig {
            service,
            ..ServerConfig::default()
        };
        Lifecycle {
            kind,
            server: Server::bind("127.0.0.1:0", catalog, config).unwrap(),
            _scratch: scratch,
        }
    }

    fn client(&self) -> Client {
        Client::connect(self.server.local_addr()).unwrap()
    }

    fn in_flight(&self) -> u64 {
        self.server.metrics().in_flight as u64
    }

    fn cancelled(&self) -> u64 {
        self.server.metrics().cancelled
    }

    /// What makes the *next* request of this kind stall mid-flight. A
    /// query stalls by itself, inside its page reads. A mutation needs
    /// another one ahead of it: this puts one in flight (its slow
    /// fsync holds the mutation lock) and returns its connection, to
    /// be kept open.
    fn occupy_ahead(&self) -> Option<Raw> {
        (self.kind == Kind::Mutate).then(|| {
            let mut ahead = Raw::connect(&self.server);
            ahead.send(self.kind.request_frame(), &self.kind.request());
            eventually("the mutation ahead is executing", || self.in_flight() == 1);
            ahead
        })
    }

    /// Returns once the request sent after [`Lifecycle::occupy_ahead`]
    /// is executing (and cannot finish yet).
    fn wait_stalled(&self, ahead: &Option<Raw>) {
        let expected = 1 + u64::from(ahead.is_some());
        eventually("the request is in flight", || self.in_flight() == expected);
    }

    /// The connection is still in protocol sync and the pool still has
    /// a free worker: one more request succeeds. `ahead` mutations
    /// committed before it; an interrupted one left no row behind.
    fn serves_another(&self, client: &mut Client, ahead: u64) {
        let row_count = self.kind.call(client, None).expect("served");
        if let Some(rows) = row_count {
            assert_eq!(rows, MUTATE_ROWS + ahead + 1);
        }
    }
}

fn cancel_mid_flight_is_cancelled(kind: Kind) {
    let lc = Lifecycle::start(kind, 2, 64);
    let mut client = lc.client();
    let mut canceller = client.canceller().unwrap();
    let ahead = lc.occupy_ahead();
    let err = thread::scope(|scope| {
        let call = scope.spawn(|| kind.call(&mut client, None));
        lc.wait_stalled(&ahead);
        canceller.cancel().unwrap();
        call.join().unwrap().unwrap_err()
    });
    assert_remote(&err, ErrorCode::Cancelled, kind.texts().2);
    assert_eq!(lc.cancelled(), 1);
    lc.serves_another(&mut client, 1);
}

fn deadline_is_typed_and_leaves_the_connection_usable(kind: Kind) {
    let lc = Lifecycle::start(kind, 2, 64);
    let mut client = lc.client();
    let _ahead = lc.occupy_ahead();
    let err = kind
        .call(&mut client, Some(Duration::from_millis(20)))
        .unwrap_err();
    assert_remote(&err, ErrorCode::DeadlineExceeded, kind.texts().1);
    assert!(
        !err.is_retryable(),
        "an expired deadline is the caller's budget, not server pushback"
    );
    assert_eq!(lc.server.stats().deadline_hits, 1);
    // Expiry tripped the abandoned work's interrupt; it stops at its
    // next poll instead of running to completion.
    eventually("the abandoned work is torn down", || lc.cancelled() == 1);
    lc.serves_another(&mut client, 1);
}

fn second_request_mid_flight_is_a_protocol_violation(kind: Kind) {
    let lc = Lifecycle::start(kind, 2, 64);
    let mut conn = Raw::connect(&lc.server);
    let ahead = lc.occupy_ahead();
    conn.send(kind.request_frame(), &kind.request());
    lc.wait_stalled(&ahead);
    conn.send(kind.request_frame(), &kind.request());
    let noun = kind.texts().0;
    conn.expect_error(
        ErrorCode::Malformed,
        &format!("only CANCEL may be sent while a {noun} is in flight"),
    );
    assert!(conn.recv().is_none(), "the violator's connection is closed");
    eventually("the in-flight work is torn down", || lc.cancelled() == 1);
}

fn peer_drop_mid_flight_tears_the_work_down(kind: Kind) {
    let lc = Lifecycle::start(kind, 2, 64);
    let mut conn = Raw::connect(&lc.server);
    let ahead = lc.occupy_ahead();
    conn.send(kind.request_frame(), &kind.request());
    lc.wait_stalled(&ahead);
    drop(conn);
    eventually("the orphaned work is torn down", || lc.cancelled() == 1);
    eventually("the workers are idle again", || lc.in_flight() == 0);
    lc.serves_another(&mut lc.client(), 1);
}

fn draining_refuses_retryably(kind: Kind) {
    let lc = Lifecycle::start(kind, 2, 64);
    let mut client = lc.client();
    lc.server.begin_drain();
    let err = kind.call(&mut client, None).unwrap_err();
    assert_remote(&err, ErrorCode::ShuttingDown, "server draining");
    assert!(err.is_retryable());
    assert_eq!(lc.in_flight(), 0, "nothing new is admitted");
}

fn full_queue_sheds_retryably(kind: Kind) {
    let lc = Lifecycle::start(kind, 1, 1);
    let mut running = Raw::connect(&lc.server);
    running.send(kind.request_frame(), &kind.request());
    eventually("the only worker is busy", || lc.in_flight() == 1);
    let mut queued = Raw::connect(&lc.server);
    queued.send(kind.request_frame(), &kind.request());
    eventually("the queue is full", || lc.server.metrics().queue_depth == 1);

    // One stalled worker, one queued job: STATS and HEALTH count the
    // same two requests the same way (`queue_depth` is the waiting
    // one only), and both call the full queue degraded.
    let mut client = lc.client();
    let stats = client.stats_json().unwrap();
    assert!(stats.starts_with("{\"state\":\"degraded\","), "{stats}");
    assert_eq!(runtime_counter(&stats, "queue_depth"), Some(1), "{stats}");
    assert_eq!(runtime_counter(&stats, "in_flight"), Some(1), "{stats}");
    let health = client.health(Duration::from_secs(5)).unwrap();
    assert_eq!(health.status, fj_net::HealthStatus::Degraded);
    assert_eq!(health.get("queued"), Some(1));
    assert_eq!(health.get("in_flight"), Some(1));

    // The refusal is immediate — it arrives while both accepted
    // requests are still stalled — typed, and retryable.
    let err = kind.call(&mut client, None).unwrap_err();
    assert_remote(
        &err,
        ErrorCode::Shed,
        "submission queue full; retry with backoff",
    );
    assert!(err.is_retryable());
    assert_eq!(lc.server.stats().sheds, 1);
    assert!(lc.server.stats_json().contains("\"sheds\":1"));

    // Accepted work is unaffected, and the retry succeeds once it is
    // out of the way.
    for conn in [&mut running, &mut queued] {
        assert_eq!(conn.recv().unwrap().0, kind.reply_frame());
    }
    lc.serves_another(&mut client, 2);
}

#[test]
fn every_queued_request_kind_shares_one_lifecycle() {
    let cells: [fn(Kind); 6] = [
        cancel_mid_flight_is_cancelled,
        deadline_is_typed_and_leaves_the_connection_usable,
        second_request_mid_flight_is_a_protocol_violation,
        peer_drop_mid_flight_tears_the_work_down,
        draining_refuses_retryably,
        full_queue_sheds_retryably,
    ];
    // One thread per kind (named after it, so a failing cell reports
    // its column; the line number gives the row).
    thread::scope(|scope| {
        for kind in [Kind::Query, Kind::Fragment, Kind::Mutate] {
            thread::Builder::new()
                .name(format!("{kind:?}"))
                .spawn_scoped(scope, move || cells.iter().for_each(|cell| cell(kind)))
                .unwrap();
        }
    });
}

#[test]
fn a_draining_node_answers_shutting_down_before_it_decodes() {
    // Drain is checked before the payload is looked at, for all five
    // request kinds alike: a router must hear the retryable refusal
    // (and fail over) whatever it sent, not a terminal MALFORMED.
    let server = Server::bind("127.0.0.1:0", paper_catalog(), ServerConfig::default()).unwrap();
    let mut conn = Raw::connect(&server);
    let kinds = [
        fj_net::FrameType::Query,
        fj_net::FrameType::Fragment,
        fj_net::FrameType::Mutate,
        fj_net::FrameType::Scatter,
        fj_net::FrameType::Semijoin,
    ];
    let garbage = [0xffu8; 3];
    for ty in kinds {
        conn.send(ty, &garbage);
        let (reply, body) = conn.recv().expect("MALFORMED keeps the connection open");
        assert_eq!(reply, fj_net::FrameType::Error);
        let (code, _) = fj_net::codec::decode_error(&body).unwrap();
        assert_eq!(code, ErrorCode::Malformed, "{ty:?} before the drain");
    }
    server.begin_drain();
    for ty in kinds {
        conn.send(ty, &garbage);
        conn.expect_error(ErrorCode::ShuttingDown, "server draining");
    }
}

#[test]
fn an_over_cap_frame_is_refused_typed_and_the_connection_closes() {
    let server = Server::bind("127.0.0.1:0", paper_catalog(), ServerConfig::default()).unwrap();
    let errors_before = server.stats().errors_sent;
    let mut conn = Raw::connect(&server);
    // Only the header goes out: the server must refuse on the announced
    // length, before it waits for (or allocates) the payload.
    let len = fj_net::wire::DEFAULT_MAX_FRAME_BYTES + 1;
    let mut header = vec![fj_net::FrameType::Query as u8];
    header.extend_from_slice(&len.to_be_bytes());
    conn.stream.write_all(&header).unwrap();
    let max = fj_net::wire::DEFAULT_MAX_FRAME_BYTES;
    let message = format!("frame of {len} bytes exceeds cap of {max}");
    conn.expect_error(ErrorCode::FrameTooLarge, &message);
    assert!(
        conn.recv().is_none(),
        "the connection closes after the refusal"
    );
    assert_eq!(server.stats().errors_sent, errors_before + 1);

    // The refusal cost one connection, not the server.
    let mut next = Client::connect(server.local_addr()).unwrap();
    assert_eq!(next.query(&paper_query()).unwrap().rows.len(), 2);
    server.shutdown();
}

/// A reply leaves when the work finishes. The one page of the table
/// stalls `STALL` on every read, so each QUERY outlasts any short first
/// wait the server might make before it falls back to a timer; the
/// median round trip on an idle server must stay within `STALL` of the
/// work itself, not on a timer grid.
#[test]
fn replies_are_not_held_to_a_timer() {
    const STALL: Duration = Duration::from_millis(3);
    let mut catalog = Catalog::new();
    catalog.add_table(
        TableBuilder::new("T")
            .column("k", DataType::Int)
            .column("v", DataType::Int)
            .rows((0..4).map(|i| vec![i.into(), (10 * i).into()]))
            .build()
            .unwrap()
            .into_ref(),
    );
    let service = ServiceConfig {
        fault_plan: Some(fj_runtime::FaultPlan::new(1).with_stalls(1, STALL).into()),
        ..ServiceConfig::default()
    };
    let config = ServerConfig {
        service,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", catalog, config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let query = JoinQuery::new(vec![FromItem::new("T", "T")]);
    // Warm the plan cache, then time the steady state.
    assert_eq!(client.query(&query).unwrap().rows.len(), 4);
    let mut round_trips: Vec<Duration> = (0..21)
        .map(|_| {
            let started = Instant::now();
            assert_eq!(client.query(&query).unwrap().rows.len(), 4);
            started.elapsed()
        })
        .collect();
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < STALL + STALL,
        "median round trip {median:?} for {STALL:?} of work (all: {round_trips:?})"
    );
    server.shutdown();
}
