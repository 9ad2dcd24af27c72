//! The four read-only workloads: the Figure-1 query over loopback
//! (`net_point`, `net_scan`) and in-process (`svc_scan`), and the
//! never-repeating star query (`adhoc_plan`).

use super::{
    at, net_counters, net_shares, optimizer_line, oracle, rows_of, server_config, share_lines,
    sorted, trace_queries, verified, Observed, Request, Tally, TraceOut, Workload,
};
use crate::gen;
use crate::layers::QueryReplay;
use crate::load::{self, Class, ClientOp, Stop, Target};
use crate::report::Values;
use fj_core::{Catalog, JoinQuery, OptimizerConfig, PlanShape, Tuple};
use fj_net::{Client, QueryOptions, Server};
use fj_runtime::{QueryService, ServiceConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Worker threads per server, as in the issue.
const WORKERS: usize = 2;

fn query_options(config: Option<OptimizerConfig>, want_trace: bool) -> QueryOptions {
    QueryOptions {
        deadline: None,
        config,
        want_trace,
    }
}

fn observe(reply: fj_net::QueryReply, ok: bool) -> Observed {
    Observed {
        ok,
        server_us: reply.latency_micros as f64,
        measured_cost: reply.measured_cost,
        estimated_cost: reply.estimated_cost,
        cache_hit: reply.cache_hit,
        trace: reply.trace,
    }
}

enum Front {
    /// Clients connect over loopback TCP.
    Net(Server),
    /// Submitters call the service in-process.
    Service(QueryService),
}

/// `net_point`, `net_scan` and `svc_scan`: one fixed query, warm cache.
pub struct Figure1 {
    front: Front,
    catalog: Arc<Catalog>,
    query: JoinQuery,
    /// The verified answer, in the order the program returns it.
    expected: Vec<Tuple>,
    traced_requests: u64,
    clients: usize,
}

impl Figure1 {
    pub fn over_net(
        seed: u64,
        emps: usize,
        depts: usize,
        n: u64,
        clients: usize,
    ) -> Result<Figure1, String> {
        let catalog = gen::emp_dept(emps, depts, seed);
        let server = Server::bind("127.0.0.1:0", catalog.clone(), server_config(WORKERS))
            .map_err(|e| format!("bind: {e}"))?;
        let query = gen::figure1_query();
        let reply = Client::connect(server.local_addr())
            .and_then(|mut c| c.query(&query))
            .map_err(|e| format!("first query: {e}"))?;
        let expected = verified(&catalog, &query, reply.rows)?;
        Ok(Figure1 {
            front: Front::Net(server),
            catalog: Arc::new(catalog),
            query,
            expected,
            traced_requests: n,
            clients,
        })
    }

    pub fn in_process(seed: u64, emps: usize, depts: usize, n: u64) -> Result<Figure1, String> {
        let catalog = gen::emp_dept(emps, depts, seed);
        let service = QueryService::start(
            catalog.clone(),
            ServiceConfig {
                workers: WORKERS,
                ..Default::default()
            },
        );
        let query = gen::figure1_query();
        let result = service
            .execute(query.clone())
            .map_err(|e| format!("first query: {e}"))?;
        let expected = verified(&catalog, &query, result.rows)?;
        Ok(Figure1 {
            front: Front::Service(service),
            catalog: Arc::new(catalog),
            query,
            expected,
            traced_requests: n,
            clients: 2,
        })
    }
}

impl Target for Figure1 {
    fn clients(&self) -> usize {
        self.clients
    }

    fn class(&self, _c: usize) -> Class {
        Class::Primary
    }

    fn connect(&self, _c: usize) -> Result<ClientOp<'_>, String> {
        Ok(match &self.front {
            Front::Net(server) => {
                let mut client =
                    Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
                Box::new(move || {
                    client
                        .query(&self.query)
                        .is_ok_and(|reply| reply.rows == self.expected)
                })
            }
            Front::Service(service) => Box::new(move || {
                service
                    .execute(self.query.clone())
                    .is_ok_and(|result| result.rows == self.expected)
            }),
        })
    }
}

impl Workload for Figure1 {
    fn trace(&mut self, out: &mut TraceOut, slice: Duration) -> Result<Tally, String> {
        let n = self.traced_requests;
        let request_of = |_i: u64| -> Request { (self.query.clone(), None) };
        let over_net = matches!(self.front, Front::Net(_));
        let mut replay = QueryReplay::new(Arc::clone(&self.catalog), over_net)?;
        let expected = &self.expected;
        let (tally, pass) = match &self.front {
            Front::Net(server) => {
                let mut client =
                    Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
                trace_queries(
                    out,
                    n,
                    &request_of,
                    &mut |(query, config), want_trace, _rec, _span| {
                        let reply = client
                            .query_with(query, &query_options(*config, want_trace))
                            .map_err(|e| format!("traced-pass query: {e}"))?;
                        let ok = reply.rows == *expected;
                        Ok(observe(reply, ok))
                    },
                    Some(server),
                    Some(&mut replay),
                )?
            }
            Front::Service(service) => trace_queries(
                out,
                n,
                &request_of,
                &mut |(query, config), want_trace, _rec, _span| {
                    let result = service
                        .submit_with_options(query.clone(), config.unwrap_or_default(), want_trace)
                        .and_then(|ticket| ticket.wait())
                        .map_err(|e| format!("traced-pass query: {e}"))?;
                    Ok(Observed {
                        ok: result.rows == *expected,
                        server_us: result.latency_micros as f64,
                        measured_cost: result.measured_cost,
                        estimated_cost: result.estimated_cost,
                        cache_hit: result.cache_hit,
                        trace: result.trace,
                    })
                },
                None,
                Some(&mut replay),
            )?,
        };
        let TraceOut { values, lines, .. } = out;
        let mut shares = rows_of(values, &["optimizer.fingerprint_us", "exec.execute_us"]);
        if over_net {
            shares.extend(net_shares(values, &pass));
        } else {
            // The embedded surface: what the service adds to the three
            // calls a request cannot do without.
            let overhead = pass.untraced_p50_us
                - at(values, "optimizer.fingerprint_us")
                - at(values, "exec.execute_us");
            values.insert("runtime.svc_overhead_us", overhead);
            shares.push(("runtime.svc_overhead_us", overhead));
            // Submitter scaling: the same closed loop with one
            // submitter, then two.
            let one = load::run(&Submitters(self, 1), Stop::After(slice / 2))?;
            let two = load::run(&Submitters(self, 2), Stop::After(slice / 2))?;
            let scaling = two.qps / one.qps;
            values.insert("runtime.scaling_2x", scaling);
            if scaling < 1.2 {
                lines.push(format!(
                    "  WARNING: runtime.scaling_2x = {scaling:.2} (< 1.2): a second submitter adds little on {} cores",
                    std::thread::available_parallelism().map_or(0, usize::from)
                ));
            }
        }
        lines.push(optimizer_line(&pass, at(values, "optimizer.optimize_us")));
        share_lines(lines, pass.untraced_p50_us, &shares);
        Ok(tally)
    }

    fn window_counters(&self, values: &mut Values, _ops: u64) {
        if let Front::Net(server) = &self.front {
            net_counters(server, values);
        }
    }

    fn finish(self: Box<Self>) -> Result<Tally, String> {
        match self.front {
            Front::Net(server) => server.shutdown(),
            Front::Service(service) => service.shutdown(),
        }
        Ok(Tally::default())
    }
}

/// A [`Figure1`] target restricted to `.1` submitters.
struct Submitters<'a>(&'a Figure1, usize);

impl Target for Submitters<'_> {
    fn clients(&self) -> usize {
        self.1
    }
    fn class(&self, c: usize) -> Class {
        self.0.class(c)
    }
    fn connect(&self, c: usize) -> Result<ClientOp<'_>, String> {
        self.0.connect(c)
    }
}

/// Dimensions of the `adhoc_plan` star (6 relations with the fact).
const DIMS: usize = 5;
/// One reply in this many is kept for the after-the-window oracle
/// check; the oracle is too slow to run beside the timed loop.
const CHECK_EVERY: u64 = 16;

/// `adhoc_plan`: every request a new fingerprint.
pub struct Adhoc {
    server: Server,
    catalog: Arc<Catalog>,
    seed: u64,
    /// Next request index of each client, continuing across windows so
    /// no window repeats another's queries.
    next: [AtomicU64; 2],
    /// Sampled `(client, index, rows)` awaiting the oracle.
    sampled: Mutex<Vec<(usize, u64, Vec<Tuple>)>>,
    traced_requests: u64,
}

impl Adhoc {
    pub fn new(seed: u64, fact_rows: usize, dim_rows: usize, n: u64) -> Result<Adhoc, String> {
        let catalog = gen::star(DIMS, fact_rows, dim_rows, seed);
        let server = Server::bind("127.0.0.1:0", catalog.clone(), server_config(WORKERS))
            .map_err(|e| format!("bind: {e}"))?;
        let adhoc = Adhoc {
            server,
            catalog: Arc::new(catalog),
            seed,
            next: [AtomicU64::new(0), AtomicU64::new(0)],
            sampled: Mutex::new(Vec::new()),
            traced_requests: n,
        };
        // Both plan shapes answered once over the real path and held
        // to the oracle before anything is timed.
        let mut client =
            Client::connect(adhoc.server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        for i in [u64::MAX - 1, u64::MAX] {
            let (query, config) = star_request(seed, 0, i);
            let reply = client
                .query_with(&query, &query_options(config, false))
                .map_err(|e| format!("first query: {e}"))?;
            verified(&adhoc.catalog, &query, reply.rows)?;
        }
        Ok(adhoc)
    }
}

/// Request `i` of client `c`: literals from `(seed, c, i)`, plan shape
/// alternating with `i`.
fn star_request(seed: u64, c: usize, i: u64) -> Request {
    let query = gen::star_query(&gen::star_literals(DIMS, seed, c, i));
    let shape = if i.is_multiple_of(2) {
        PlanShape::LeftDeep
    } else {
        PlanShape::Bushy
    };
    (query, Some(OptimizerConfig::default().with_shape(shape)))
}

impl Target for Adhoc {
    fn clients(&self) -> usize {
        2
    }

    fn class(&self, _c: usize) -> Class {
        Class::Primary
    }

    fn connect(&self, c: usize) -> Result<ClientOp<'_>, String> {
        let mut client =
            Client::connect(self.server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        Ok(Box::new(move || {
            let i = self.next[c].fetch_add(1, Ordering::Relaxed);
            let (query, config) = star_request(self.seed, c, i);
            match client.query_with(&query, &query_options(config, false)) {
                Ok(reply) => {
                    if i.is_multiple_of(CHECK_EVERY) {
                        self.sampled
                            .lock()
                            .expect("sample list lock")
                            .push((c, i, reply.rows));
                    }
                    true
                }
                Err(_) => false,
            }
        }))
    }
}

impl Workload for Adhoc {
    fn trace(&mut self, out: &mut TraceOut, _slice: Duration) -> Result<Tally, String> {
        let n = self.traced_requests;
        let mut client =
            Client::connect(self.server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        let mut replay = QueryReplay::new(Arc::clone(&self.catalog), true)?;
        let (tally, pass) = trace_queries(
            out,
            n,
            &|i| star_request(self.seed, 0, i),
            &mut |(query, config), want_trace, _rec, _span| {
                let reply = client
                    .query_with(query, &query_options(*config, want_trace))
                    .map_err(|e| format!("traced-pass query: {e}"))?;
                // Few and outside any timed window: every one is held
                // to the oracle.
                let ok = sorted(reply.rows.clone()) == oracle(&self.catalog, query)?;
                Ok(observe(reply, ok))
            },
            Some(&self.server),
            Some(&mut replay),
        )?;
        let TraceOut { values, lines, .. } = out;
        let mut shares = rows_of(
            values,
            &[
                "optimizer.fingerprint_us",
                "optimizer.optimize_us",
                "exec.execute_us",
            ],
        );
        shares.extend(net_shares(values, &pass));
        lines.push(optimizer_line(&pass, at(values, "optimizer.optimize_us")));
        share_lines(lines, pass.untraced_p50_us, &shares);
        Ok(tally)
    }

    fn window_counters(&self, values: &mut Values, _ops: u64) {
        net_counters(&self.server, values);
    }

    fn finish(self: Box<Self>) -> Result<Tally, String> {
        let Adhoc {
            server,
            catalog,
            seed,
            sampled,
            ..
        } = *self;
        let mut tally = Tally::default();
        for (c, i, rows) in sampled.into_inner().expect("sample list lock") {
            let (query, _) = star_request(seed, c, i);
            tally.check(sorted(rows) == oracle(&catalog, &query)?);
        }
        server.shutdown();
        Ok(tally)
    }
}
