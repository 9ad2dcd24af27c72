//! `dist_3shard`: a two-table join hash-partitioned into three shards.

use super::{
    server_config, share_lines, trace_queries, verified, Observed, Request, Tally, TraceOut,
    Workload,
};
use crate::load::{Class, ClientOp, Target};
use crate::{gen, stats};
use fj_core::{Catalog, JoinQuery, OptimizerConfig, Tuple};
use fj_dist::{DistConfig, DistCoordinator, DistStats, ShardMap, ShipStrategy};
use fj_net::Server;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const SHARDS: u32 = 3;

/// All three partitions live on **one** shard server. The coordinator
/// opens a connection per exchange and a server notices one on its next
/// 10 ms accept poll. With three servers a query's latency is a sum of
/// waits between their free-running poll phases: 40 ms or 60 ms on the
/// seed by the luck of when each started, flipping when the machine is
/// busy. With one server every exchange just misses a poll and waits for
/// the next, so two runs measure the same thing; the exchanges are
/// sequential either way, so nothing else about the path changes.
const SERVERS: usize = 1;

/// Phase boundaries the coordinator's public phase hook reported for
/// the request in flight, while `armed`.
#[derive(Default)]
struct Phases {
    armed: AtomicBool,
    marks: Mutex<Vec<(String, Instant)>>,
}

pub struct Dist3 {
    servers: Vec<Server>,
    coordinator: DistCoordinator,
    query: JoinQuery,
    expected: Vec<Tuple>,
    deploy_s: f64,
    phases: Arc<Phases>,
    traced_requests: u64,
}

impl Dist3 {
    pub fn new(
        seed: u64,
        orders: usize,
        customers: usize,
        referenced: usize,
        n: u64,
        traced: bool,
    ) -> Result<Dist3, String> {
        let (catalog, query) = gen::orders_customers(orders, customers, referenced, seed);
        let servers = (0..SERVERS)
            .map(|_| Server::bind("127.0.0.1:0", Catalog::new(), server_config(1)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("bind shard: {e}"))?;
        let addrs: Vec<SocketAddr> = servers.iter().map(Server::local_addr).collect();
        let t0 = Instant::now();
        let mut coordinator = DistCoordinator::deploy(
            catalog.clone(),
            ShardMap::new(&addrs, SHARDS, 1),
            DistConfig::default(),
        )
        .map_err(|e| format!("deploy: {e}"))?;
        let deploy_s = t0.elapsed().as_secs_f64();
        let phases = Arc::new(Phases::default());
        if traced {
            // The traced run turns the coordinator's phase callbacks
            // into spans; the end-to-end run installs no hook at all.
            let sink = Arc::clone(&phases);
            coordinator.set_phase_hook(Box::new(move |name| {
                if sink.armed.load(Ordering::Relaxed) {
                    let mark = (name.to_string(), Instant::now());
                    sink.marks.lock().expect("phase list lock").push(mark);
                }
            }));
        }
        let first = coordinator
            .execute_with_config(&query, OptimizerConfig::default(), ShipStrategy::Auto)
            .map_err(|e| format!("first query: {e}"))?;
        let expected = verified(&catalog, &query, first.result.rows)?;
        Ok(Dist3 {
            servers,
            coordinator,
            query,
            expected,
            deploy_s,
            phases,
            traced_requests: n,
        })
    }
}

impl Target for Dist3 {
    fn clients(&self) -> usize {
        1
    }

    fn class(&self, _c: usize) -> Class {
        Class::Primary
    }

    fn connect(&self, _c: usize) -> Result<ClientOp<'_>, String> {
        Ok(Box::new(move || {
            self.coordinator
                .execute_with_config(&self.query, OptimizerConfig::default(), ShipStrategy::Auto)
                .is_ok_and(|out| out.result.rows == self.expected)
        }))
    }
}

impl Workload for Dist3 {
    fn trace(&mut self, out: &mut TraceOut, _slice: Duration) -> Result<Tally, String> {
        let n = self.traced_requests;
        let mut wire = DistStats::default();
        let mut predicted_bytes = 0.0;
        let mut strategy = ShipStrategy::Auto;
        let (tally, pass) = trace_queries(
            out,
            n,
            &|_i| -> Request { (self.query.clone(), None) },
            &mut |(query, _config), traced, rec, span| {
                self.phases.armed.store(traced, Ordering::Relaxed);
                let t0 = Instant::now();
                let out = self
                    .coordinator
                    .execute_with_config(query, OptimizerConfig::default(), ShipStrategy::Auto)
                    .map_err(|e| format!("traced-pass query: {e}"))?;
                let end = Instant::now();
                self.phases.armed.store(false, Ordering::Relaxed);
                if let Some(span) = span {
                    // Shard exchanges run until "rebuild"; the local
                    // final join from "local-join" to the end.
                    let marks =
                        std::mem::take(&mut *self.phases.marks.lock().expect("phase list lock"));
                    let at = |name: &str| marks.iter().find(|(n, _)| n == name).map(|(_, t)| *t);
                    if let (Some(rebuild), Some(join)) = (at("rebuild"), at("local-join")) {
                        rec.add(span, "dist.exchange", t0, rebuild);
                        rec.add(span, "dist.rebuild", rebuild, join);
                        rec.add(span, "dist.local_join", join, end);
                    }
                } else {
                    // One client, so these counts repeat exactly.
                    wire.messages += out.stats.messages;
                    wire.bytes_sent += out.stats.bytes_sent;
                    wire.bytes_received += out.stats.bytes_received;
                    wire.failovers += out.stats.failovers;
                    predicted_bytes += out.predicted.map_or(0.0, |p| p.bytes);
                    strategy = out.strategy;
                }
                Ok(Observed {
                    ok: out.result.rows == self.expected,
                    server_us: 0.0,
                    measured_cost: 0.0,
                    estimated_cost: None,
                    cache_hit: false,
                    trace: None,
                })
            },
            None,
            None,
        )?;
        let TraceOut {
            recorder: rec,
            values,
            lines,
        } = out;
        // The read-only workloads own these two; a sharded join has no
        // single plan cost or cache to report.
        values.remove("cost_pages");
        values.remove("runtime.cache_hit_rate");
        values.insert(
            "dist.wire_bytes_per_op",
            wire.total_bytes() as f64 / n as f64,
        );
        values.insert("dist.messages_per_op", wire.messages as f64 / n as f64);
        values.insert("dist.failovers", wire.failovers as f64);
        values.insert(
            "dist.predicted_over_actual_bytes",
            predicted_bytes / wire.total_bytes().max(1) as f64,
        );
        values.insert("dist.deploy_s", self.deploy_s);
        let mut by_name = rec.self_micros_by_name();
        let mut p50 = |name: &str| by_name.get_mut(name).map_or(0.0, |v| stats::median(v));
        let (exchange, rebuild, join) = (
            p50("dist.exchange"),
            p50("dist.rebuild"),
            p50("dist.local_join"),
        );
        // The exchanges are all queue hand-off, shard wait loop and
        // TCP; the local join is the only optimizer and executor work.
        values.insert("net.residual_us", exchange);
        values.insert("exec.execute_us", join);
        lines.push(format!(
            "  shipping strategy picked by Auto: {}",
            strategy.name()
        ));
        share_lines(
            lines,
            pass.traced_p50_us,
            &[
                ("dist.exchange (net.residual_us)", exchange),
                ("dist.rebuild", rebuild),
                ("dist.local_join (exec.execute_us)", join),
            ],
        );
        Ok(tally)
    }

    fn finish(self: Box<Self>) -> Result<Tally, String> {
        drop(self.coordinator);
        for server in self.servers {
            server.shutdown();
        }
        Ok(Tally::default())
    }
}
