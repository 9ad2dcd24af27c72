//! The six named workloads. Sizes and client counts are constants
//! here, never flags: two commits are only comparable at equal sizes.

mod dist;
mod mutate;
mod query;

use crate::layers::{self, QueryReplay};
use crate::load::{Tally, Target};
use crate::report::Values;
use crate::spans::Recorder;
use crate::stats;
use fj_core::trace::QueryTrace;
use fj_core::{Catalog, Database, JoinQuery, Optimizer, OptimizerConfig, Tuple};
use fj_net::{Server, ServerStats};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What `BENCHMARK.json` and the README say about one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// The one-sentence reason the workload exists.
    pub why: &'static str,
    /// Closed-loop clients (≤ the sandbox's 2 cores).
    pub clients: usize,
    /// The operation `p50_us` and `qps` are about.
    pub primary: &'static str,
    /// Full-size inputs, for the report.
    pub sizes: &'static str,
    /// The tail percentile printed as `client.tail_us`: the highest
    /// with at least ten samples beyond it at seed speeds.
    pub tail_p: f64,
    /// Requests in each fixed-count pass of the traced run.
    pub traced_requests: u64,
    /// Warm-up requests after each set-up, split over the clients:
    /// 200 where a request takes under 10 ms, fewer where 200 would
    /// outlast the measurement itself.
    pub warmup_requests: u64,
}

pub const SPECS: &[Spec] = &[
    Spec {
        name: "net_point",
        why: "0.3 ms Figure-1 query over loopback, warm plan cache, one client so nothing queues: per-request fj-net/fj-runtime overhead dominates, executor work does not",
        clients: 1,
        primary: "Figure-1 query via fj_net::Client",
        sizes: "emp_dept(1000 emps, 100 depts)",
        tail_p: 0.99,
        traced_requests: 200,
        warmup_requests: 200,
    },
    Spec {
        name: "net_scan",
        why: "6 ms Figure-1 query over loopback, warm plan cache: execution outlasts the 2 ms poll, so the server wait loop and reply encode add to executor time",
        clients: 2,
        primary: "Figure-1 query via fj_net::Client",
        sizes: "emp_dept(20000 emps, 1000 depts)",
        tail_p: 0.99,
        traced_requests: 200,
        warmup_requests: 200,
    },
    Spec {
        name: "svc_scan",
        why: "net_scan's catalog and query through QueryService::execute in-process: executor and row copies do the work, and net_scan minus svc_scan isolates fj-net",
        clients: 2,
        primary: "Figure-1 query via QueryService::execute",
        sizes: "emp_dept(20000 emps, 1000 depts)",
        tail_p: 0.99,
        traced_requests: 200,
        warmup_requests: 200,
    },
    Spec {
        name: "adhoc_plan",
        why: "6-relation star over tiny tables with fresh literals and alternating plan shape per request: the plan cache misses by construction, so the enumerator dominates",
        clients: 2,
        primary: "never-repeated star query via fj_net::Client",
        sizes: "star(5 dims, fact 2000 rows, dims 100 rows)",
        tail_p: 0.95,
        traced_requests: 50,
        warmup_requests: 50,
    },
    Spec {
        name: "mutate_disk",
        why: "single-row commits beside Figure-1 reads on a disk store whose pool is a fraction of Emp: WAL fsync, table install, plan invalidation and pool thrash, writes against reads",
        clients: 2,
        primary: "commit via fj_net::Client::mutate (1 writer; 1 reader beside it)",
        sizes: "emp_dept(5000 emps, 500 depts), pool_pages 16, checkpoint every 100 commits",
        tail_p: 0.95,
        traced_requests: 50,
        warmup_requests: 200,
    },
    Spec {
        name: "dist_3shard",
        why: "two-table join hash-partitioned into 3 shards on one shard server, cost-picked shipping: the only path through fj-dist and fragment handling, paced by exchanges that each wait out an accept poll",
        clients: 1,
        primary: "DistCoordinator::execute_with_config(Auto)",
        sizes: "orders_customers(500 orders, 5000 customers, 25 referenced), 3 shards on 1 server with 1 worker",
        tail_p: 0.90,
        traced_requests: 50,
        warmup_requests: 20,
    },
];

/// Requests per fixed-count pass under `--smoke`.
const SMOKE_TRACED_REQUESTS: u64 = 10;
/// Warm-up requests under `--smoke`.
pub const SMOKE_WARMUP_REQUESTS: u64 = 6;

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// What a traced pass produces: its spans, the per-layer values, and
/// the report lines that have no metric name of their own.
pub struct TraceOut {
    pub recorder: Recorder,
    pub values: Values,
    pub lines: Vec<String>,
}

impl TraceOut {
    pub fn new() -> TraceOut {
        TraceOut {
            recorder: Recorder::new(),
            values: Values::new(),
            lines: Vec::new(),
        }
    }
}

/// A set-up workload: a load target plus its traced pass and its
/// teardown checks.
pub trait Workload: Target {
    /// The fixed-count single-client passes: untraced, traced (with
    /// the program's own per-operator trace imported), and the layer
    /// replay. `slice` is the length of one timed repetition.
    fn trace(&mut self, out: &mut TraceOut, slice: Duration) -> Result<Tally, String>;

    /// Layer counters that accumulate over a load window; called right
    /// after one, with the operations it attempted.
    fn window_counters(&self, _values: &mut Values, _ops: u64) {}

    /// Checks deferred out of the timed windows, then teardown.
    fn finish(self: Box<Self>) -> Result<Tally, String>;
}

/// Sets `name` up from `seed`: generates data, starts servers, and
/// answers every distinct query once over the real path, comparing it
/// with the `Database::run_logical` oracle. `scratch` is a directory
/// of the run's own for on-disk state; `traced` arms what only the
/// traced pass needs.
pub fn setup(
    spec: &Spec,
    seed: u64,
    smoke: bool,
    traced: bool,
    scratch: &Path,
) -> Result<Box<dyn Workload>, String> {
    let n = if smoke {
        SMOKE_TRACED_REQUESTS
    } else {
        spec.traced_requests
    };
    Ok(match spec.name {
        "net_point" => Box::new(query::Figure1::over_net(
            seed,
            pick(smoke, 1_000, 200),
            pick(smoke, 100, 20),
            n,
            spec.clients,
        )?),
        "net_scan" => Box::new(query::Figure1::over_net(
            seed,
            pick(smoke, 20_000, 1_000),
            pick(smoke, 1_000, 50),
            n,
            spec.clients,
        )?),
        "svc_scan" => Box::new(query::Figure1::in_process(
            seed,
            pick(smoke, 20_000, 1_000),
            pick(smoke, 1_000, 50),
            n,
        )?),
        "adhoc_plan" => Box::new(query::Adhoc::new(
            seed,
            pick(smoke, 2_000, 200),
            pick(smoke, 100, 20),
            n,
        )?),
        "mutate_disk" => Box::new(mutate::MutateDisk::new(
            seed,
            pick(smoke, 5_000, 300),
            pick(smoke, 500, 30),
            n,
            scratch,
        )?),
        "dist_3shard" => Box::new(dist::Dist3::new(
            seed,
            pick(smoke, 500, 60),
            pick(smoke, 5_000, 300),
            25,
            n,
            traced,
        )?),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

fn pick(smoke: bool, full: usize, tiny: usize) -> usize {
    if smoke {
        tiny
    } else {
        full
    }
}

fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort();
    rows
}

/// The reference answer: the logical plan lowered directly, never
/// touching the optimizer, as in the repository's differential suite.
fn oracle(catalog: &Catalog, query: &JoinQuery) -> Result<Vec<Tuple>, String> {
    Database::with_catalog(catalog.clone())
        .run_logical(&query.to_plan())
        .map(|r| sorted(r.rows))
        .map_err(|e| format!("oracle: {e}"))
}

/// Compares one real-path answer with the oracle before any timing;
/// returns the rows in the order the program produced them, which
/// every later reply to the same query must repeat.
fn verified(catalog: &Catalog, query: &JoinQuery, got: Vec<Tuple>) -> Result<Vec<Tuple>, String> {
    if sorted(got.clone()) != oracle(catalog, query)? {
        return Err("answer over the real path differs from the run_logical oracle".into());
    }
    Ok(got)
}

fn server_config(workers: usize) -> fj_net::ServerConfig {
    fj_net::ServerConfig {
        service: fj_runtime::ServiceConfig {
            workers,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Request bytes + reply bytes per request between two server
/// snapshots — an exact count for a fixed request sequence.
fn bytes_per_op(before: ServerStats, after: ServerStats, ops: u64) -> f64 {
    ((after.bytes_in - before.bytes_in) + (after.bytes_out - before.bytes_out)) as f64 / ops as f64
}

/// Requests shed and error frames sent since the server started.
fn net_counters(server: &Server, values: &mut Values) {
    let stats = server.stats();
    values.insert("net.sheds", stats.sheds as f64);
    values.insert("net.errors_sent", stats.errors_sent as f64);
}

/// Records `net.residual_us` — what is left of the loopback median
/// after the server-reported latency, both codecs and frame I/O: queue
/// hand-off, wait loop and TCP — and returns the `net.*` share rows.
fn net_shares(values: &mut Values, pass: &QueryPass) -> Vec<(&'static str, f64)> {
    let mut rows = rows_of(
        values,
        &["net.req_codec_us", "net.reply_codec_us", "net.frame_io_us"],
    );
    let residual =
        pass.untraced_p50_us - pass.server_p50_us - rows.iter().map(|(_, us)| us).sum::<f64>();
    values.insert("net.residual_us", residual);
    rows.push(("net.residual_us", residual));
    rows
}

/// `(name, value so far)` for each of `names`.
fn rows_of(values: &Values, names: &[&'static str]) -> Vec<(&'static str, f64)> {
    names.iter().map(|name| (*name, at(values, name))).collect()
}

/// The value recorded for `name` so far (0 if none).
fn at(values: &Values, name: &str) -> f64 {
    values.get(name).copied().unwrap_or(0.0)
}

/// What one request of a fixed-count pass observed.
struct Observed {
    ok: bool,
    /// Server-reported optimize+execute latency (0 where the path
    /// reports none).
    server_us: f64,
    measured_cost: f64,
    estimated_cost: Option<f64>,
    cache_hit: bool,
    trace: Option<QueryTrace>,
}

/// One request of a fixed-count pass: `(query, config override)`.
type Request = (JoinQuery, Option<OptimizerConfig>);

/// Sends one request over the real path: `(request, want the
/// program's trace, recorder, the open `request` span if any)`.
type Send<'a> =
    dyn FnMut(&Request, bool, &mut Recorder, Option<u64>) -> Result<Observed, String> + 'a;

/// Index spaces of the fixed-count passes, far above any index a load
/// window reaches, so a never-repeating workload never repeats here.
const UNTRACED_BASE: u64 = 1 << 40;
const TRACED_BASE: u64 = 2 << 40;

/// Medians the per-workload reports build on.
struct QueryPass {
    untraced_p50_us: f64,
    traced_p50_us: f64,
    server_p50_us: f64,
    /// Optimizer time per replayed request: the whole of a cold
    /// optimize where the plan cache misses, next to nothing where one
    /// miss is spread over a pass of hits.
    optimize_us_per_request: f64,
}

/// The three fixed-count passes over query requests, shared by every
/// workload whose operation is a query: `n` untraced requests, the
/// same `n` with the program's trace requested inside `request` spans,
/// and (when `replay` is given) the same `n` replayed through the
/// layers' public functions. `server` is the loopback server the
/// requests go to, if any, for its byte counters.
fn trace_queries(
    out: &mut TraceOut,
    n: u64,
    request_of: &dyn Fn(u64) -> Request,
    send: &mut Send<'_>,
    server: Option<&Server>,
    replay: Option<&mut QueryReplay>,
) -> Result<(Tally, QueryPass), String> {
    let TraceOut {
        recorder: rec,
        values,
        lines,
    } = out;
    let mut tally = Tally::default();
    let stats_before = server.map(Server::stats);
    let mut untraced_us = Vec::new();
    let mut server_us = Vec::new();
    let mut costs = Vec::new();
    let mut est_over_measured = Vec::new();
    let mut hits = 0u64;
    for i in 0..n {
        let request = request_of(UNTRACED_BASE + i);
        let t0 = Instant::now();
        let seen = send(&request, false, rec, None)?;
        untraced_us.push(t0.elapsed().as_nanos() as f64 / 1_000.0);
        tally.check(seen.ok);
        server_us.push(seen.server_us);
        costs.push(seen.measured_cost);
        if let Some(est) = seen.estimated_cost.filter(|_| seen.measured_cost > 0.0) {
            est_over_measured.push(est / seen.measured_cost);
        }
        hits += u64::from(seen.cache_hit);
    }
    if let (Some(server), Some(before)) = (server, stats_before) {
        // Before the traced pass: TRACE_REPLY frames vary in length.
        values.insert("net.bytes_per_op", bytes_per_op(before, server.stats(), n));
    }

    let mut traced_us = Vec::new();
    let mut op_us: BTreeMap<String, f64> = BTreeMap::new();
    let (mut rows_in, mut rows_out) = (0u64, 0u64);
    for i in 0..n {
        let request = request_of(TRACED_BASE + i);
        let span = rec.open(None, i, "request");
        let seen = send(&request, true, rec, Some(span))?;
        rec.close(span);
        let s = &rec.spans()[span as usize];
        traced_us.push((s.end_ns - s.start_ns) as f64 / 1_000.0);
        tally.check(seen.ok);
        if let Some(trace) = &seen.trace {
            layers::import_trace(rec, span, trace);
            let (i, o) = layers::tally_trace(trace, &mut op_us);
            rows_in += i;
            rows_out += o;
        }
    }

    let head = costs.len().min(100);
    values.insert(
        "cost_pages",
        costs[..head].iter().sum::<f64>() / head as f64,
    );
    values.insert(
        "optimizer.est_over_measured",
        stats::median(&mut est_over_measured),
    );
    values.insert("runtime.cache_hit_rate", hits as f64 / n as f64);
    let untraced_p50_us = stats::median(&mut untraced_us);
    let traced_p50_us = stats::median(&mut traced_us);
    values.insert("trace.overhead_ratio", traced_p50_us / untraced_p50_us);
    if rows_out > 0 {
        values.insert("exec.rows_in_per_row_out", rows_in as f64 / rows_out as f64);
    }
    for (kind, total) in &op_us {
        lines.push(format!(
            "  exec.op_us.{kind:<24} {:>12.1} us   (program trace, self time, mean per request)",
            total / n as f64
        ));
    }

    if let Some(replay) = replay {
        let (mut allocs, mut bytes) = (0u64, 0u64);
        for i in 0..n {
            let (query, config) = request_of(TRACED_BASE + i);
            let counts = replay.run(rec, i, &query, config)?;
            allocs += counts.exec_allocs;
            bytes += counts.exec_alloc_bytes;
        }
        values.insert("exec.allocs_per_op", allocs as f64 / n as f64);
        values.insert("exec.alloc_bytes_per_op", bytes as f64 / n as f64);
        // The cold optimizer on the workload's own queries, whether or
        // not the warm path ever reaches it.
        let mut optimize_us = Vec::new();
        for i in 0..n.min(20) {
            let (query, config) = request_of(TRACED_BASE + i);
            let optimizer =
                Optimizer::new(Arc::clone(replay.catalog()), config.unwrap_or_default());
            let t0 = Instant::now();
            let plan = optimizer.optimize(&query).map_err(|e| e.to_string())?;
            optimize_us.push(t0.elapsed().as_nanos() as f64 / 1_000.0);
            std::hint::black_box(plan);
        }
        values.insert("optimizer.optimize_us", stats::median(&mut optimize_us));
    }

    let by_name = rec.self_micros_by_name();
    let span_p50 = |names: &[&str]| -> f64 {
        names
            .iter()
            .map(|name| {
                by_name
                    .get(*name)
                    .map_or(0.0, |v| stats::median(&mut v.clone()))
            })
            .sum()
    };
    values.insert(
        "optimizer.fingerprint_us",
        span_p50(&["optimizer.fingerprint"]),
    );
    values.insert("exec.execute_us", span_p50(&["exec.execute"]));
    values.insert(
        "net.req_codec_us",
        span_p50(&["net.req_encode", "net.req_decode"]),
    );
    values.insert(
        "net.reply_codec_us",
        span_p50(&["net.reply_encode", "net.reply_decode"]),
    );
    values.insert(
        "net.frame_io_us",
        span_p50(&["net.frame_io.request", "net.frame_io.reply"]),
    );
    let server_p50_us = stats::median(&mut server_us);
    let optimize_us_per_request = by_name
        .get("optimizer.optimize")
        .map_or(0.0, |spans| spans.iter().sum::<f64>() / n as f64);
    Ok((
        tally,
        QueryPass {
            untraced_p50_us,
            traced_p50_us,
            server_p50_us,
            optimize_us_per_request,
        },
    ))
}

/// How much of the server-side time the optimizer takes on this
/// workload's requests.
fn optimizer_line(pass: &QueryPass, cold_optimize_us: f64) -> String {
    format!(
        "  server-reported latency p50 {:.1} us; optimizer {:.1} us per replayed request = {:.2} % of it (one cold optimize: {:.1} us)",
        pass.server_p50_us,
        pass.optimize_us_per_request,
        100.0 * pass.optimize_us_per_request / pass.server_p50_us,
        cold_optimize_us
    )
}

/// The closing table of a traced run: each on-path layer's share of
/// the single-client median latency.
fn share_lines(lines: &mut Vec<String>, p50_us: f64, rows: &[(&str, f64)]) {
    lines.push(format!("  share of single-client p50 ({p50_us:.1} us):"));
    for (name, us) in rows {
        lines.push(format!(
            "    {name:<28} {us:>12.1} us  {:>6.1} %",
            100.0 * us / p50_us
        ));
    }
}
