//! The `fj-net` subsystem end to end on a loopback socket: a TCP
//! server fronting the query service, clients with per-request
//! deadlines and optimizer overrides, mid-flight cancellation, load
//! shedding answered with a typed, retryable SHED, the STATS request, and a
//! graceful drain — then the `fj-cluster` tier: three replicas behind
//! one cluster client, with health probes, a hard kill, a drain, and
//! failover hiding both. (This is the README's network example,
//! runnable.)
//!
//! ```sh
//! cargo run --example net_client
//! ```

use filterjoin::{
    fixtures, Client, ClusterClient, ClusterConfig, ErrorCode, NetError, QueryOptions, Server,
    ServerConfig, ServiceConfig,
};
use std::thread;
use std::time::Duration;

fn main() {
    // A server on an ephemeral port, deliberately easy to overload:
    // one worker draining a two-slot queue.
    let server = Server::bind(
        "127.0.0.1:0",
        fixtures::paper_catalog(),
        ServerConfig {
            service: ServiceConfig {
                workers: 1,
                queue_capacity: 2,
                ..ServiceConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    println!("serving on {addr}");

    // One query, plain: rows plus the per-query runtime snapshot the
    // server measured (latency, plan-cache hit, measured cost).
    let mut client = Client::connect(addr).unwrap();
    let reply = client.query(&fixtures::paper_query()).unwrap();
    println!(
        "reply: {} rows, {} µs server-side, cache_hit={}, cost {:.1}",
        reply.rows.len(),
        reply.latency_micros,
        reply.cache_hit,
        reply.measured_cost
    );

    // The same query with per-request knobs: a deadline the server
    // enforces, and an optimizer override that disables the Filter
    // Join for this request only — same rows either way.
    let opts = QueryOptions {
        deadline: Some(Duration::from_secs(5)),
        config: Some(filterjoin::OptimizerConfig::without_filter_join()),
        want_trace: false,
    };
    let overridden = client.query_with(&fixtures::paper_query(), &opts).unwrap();
    assert_eq!(overridden.rows.len(), reply.rows.len());
    println!(
        "override reply: {} rows (plan differs, answer doesn't)",
        overridden.rows.len()
    );

    // Tracing over the wire: set `want_trace` and the server executes
    // with per-operator tracing on, sending the trace back in its own
    // TRACE_REPLY frame right after the RESULT (the result bytes stay
    // replica-comparable). The trace root's cardinality always equals
    // the rows you got.
    let traced = client
        .query_with(
            &fixtures::paper_query(),
            &QueryOptions {
                want_trace: true,
                ..QueryOptions::default()
            },
        )
        .unwrap();
    let trace = traced.trace.expect("requested trace arrives");
    assert_eq!(trace.rows_out() as usize, traced.rows.len());
    println!(
        "traced reply: {} rows, {} operators, {} µs traced wall time",
        traced.rows.len(),
        trace.node_count(),
        trace.total_wall_micros
    );

    // Cancellation: a `Canceller` is a cheap clone of the connection's
    // socket, so a second thread can tear down whatever query the
    // client has in flight. The server trips the query's interrupt,
    // the worker stops within a bounded number of tuples, and the
    // client gets a typed CANCELLED reply (or the result, if the
    // query won the race — both are fine).
    let mut canceller = client.canceller().unwrap();
    let killer = thread::spawn(move || {
        thread::sleep(Duration::from_micros(200));
        canceller.cancel().unwrap();
    });
    let slow = QueryOptions {
        deadline: None,
        config: Some(filterjoin::OptimizerConfig::without_filter_join()),
        want_trace: false,
    };
    match client.query_with(&fixtures::paper_query(), &slow) {
        Ok(r) => println!("cancel lost the race: {} rows", r.rows.len()),
        Err(NetError::Remote {
            code: ErrorCode::Cancelled,
            ..
        }) => {
            println!("query cancelled mid-flight; connection stays usable")
        }
        Err(e) => panic!("unexpected: {e}"),
    }
    killer.join().unwrap();

    // A burst from many clients can overrun the two-slot queue; the
    // server then refuses the excess with a typed SHED error instead of
    // queueing without bound. SHED is retryable (`is_retryable()`): the
    // node is busy, the request is fine, so the caller may back off and
    // resend or try another replica — the cluster tier below does that
    // for you under a shared retry budget.
    let handles: Vec<_> = (0..8)
        .map(|_| {
            thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                match c.query(&fixtures::paper_query()) {
                    Ok(_) => "ok",
                    Err(e) if e.is_retryable() => "shed: typed and retryable",
                    Err(NetError::Remote { .. }) => "other remote error",
                    Err(_) => "transport error",
                }
            })
        })
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        println!("burst client {i}: {}", h.join().unwrap());
    }

    // Server-side observability: counters + runtime metrics as one
    // stable-key JSON line, over the wire.
    println!("stats: {}", client.stats_json().unwrap());

    // Graceful drain: stop accepting, finish everything accepted,
    // close. New connections are refused afterwards.
    server.shutdown();
    assert!(Client::connect(addr).is_err());
    println!("drained and closed");

    // ---- The replica tier -------------------------------------------
    //
    // Three replicas of the same catalog behind one `ClusterClient`.
    // A background prober classifies each replica from its HEALTH
    // frame (ready / degraded / draining / dead); queries round-robin
    // across the healthiest tier, fail over on transport and
    // shed/shutdown errors under a shared retry budget, and each
    // replica sits behind its own circuit breaker.
    let replicas: Vec<Server> = (0..3)
        .map(|_| {
            Server::bind(
                "127.0.0.1:0",
                fixtures::paper_catalog(),
                ServerConfig::default(),
            )
            .unwrap()
        })
        .collect();
    let addrs: Vec<_> = replicas.iter().map(Server::local_addr).collect();
    let cluster = ClusterClient::connect(
        &addrs,
        ClusterConfig {
            probe_interval: Duration::from_millis(10),
            ..ClusterConfig::default()
        },
    )
    .unwrap();
    for _ in 0..6 {
        let r = cluster.query(&fixtures::paper_query()).unwrap();
        assert_eq!(r.rows.len(), 2);
    }
    println!("cluster: 6 queries spread over 3 replicas");

    // Kill one replica outright and drain another: the next probe
    // round marks them dead/draining, routing skips them, and queries
    // keep succeeding against the survivor — the client never sees
    // either event.
    let mut it = replicas.into_iter();
    let (a, b, c) = (it.next().unwrap(), it.next().unwrap(), it.next().unwrap());
    c.abort(); // crash
    a.begin_drain(); // planned maintenance
    cluster.probe_now();
    for _ in 0..4 {
        let r = cluster.query(&fixtures::paper_query()).unwrap();
        assert_eq!(r.rows.len(), 2);
    }
    println!(
        "cluster: rode out a crash and a drain; stats: {}",
        cluster.stats().to_json()
    );

    cluster.shutdown();
    a.shutdown();
    b.shutdown();
}
