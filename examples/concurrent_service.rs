//! The `fj-runtime` query service end to end: a worker pool answering
//! a burst of Figure-1 queries concurrently, with the plan cache and
//! runtime metrics doing their jobs. (This is the README's runtime
//! example, runnable.)

use filterjoin::{fixtures, Database, QueryService, ServiceConfig};

fn main() {
    // Serial reference answer first, from the plain facade.
    let db = Database::with_catalog(fixtures::paper_catalog());
    let serial = db.execute(&fixtures::paper_query()).unwrap();
    println!(
        "serial reference: {} rows, measured cost {:.1}",
        serial.rows.len(),
        serial.measured_cost
    );

    // The same catalog behind a 4-worker service with a bounded queue.
    let service = QueryService::start(
        fixtures::paper_catalog(),
        ServiceConfig {
            workers: 4,
            queue_capacity: 8,
            ..ServiceConfig::default()
        },
    );
    let tickets: Vec<_> = (0..16)
        .map(|_| service.submit(fixtures::paper_query()).unwrap())
        .collect();
    for (i, t) in tickets.into_iter().enumerate() {
        let r = t.wait().unwrap();
        assert_eq!(r.rows.len(), serial.rows.len(), "concurrent == serial");
        if i < 3 {
            println!(
                "query {i}: {} rows in {} µs (cached plan: {})",
                r.rows.len(),
                r.latency_micros,
                r.cache_hit
            );
        }
    }

    let m = service.metrics();
    println!(
        "{} queries answered, {:.0}% plan-cache hits, p50 ≤ {} µs, {:.0} q/s",
        m.completed,
        100.0 * m.cache_hit_rate,
        m.latency.quantile_micros(0.5),
        m.throughput_qps
    );

    // Installing a new catalog snapshot invalidates every cached plan.
    service.install_catalog(fixtures::paper_catalog());
    let r = service.execute(fixtures::paper_query()).unwrap();
    println!(
        "after install_catalog: cached plan: {} (cache was cleared)",
        r.cache_hit
    );
    assert!(!r.cache_hit);

    service.shutdown();
}
