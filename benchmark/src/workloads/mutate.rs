//! `mutate_disk`: one writer committing single-row mutations beside
//! one reader running the Figure-1 query, on a disk-backed server whose
//! buffer pool is a fraction of `Emp`.
//!
//! Flush policy: the repository's default — one group fsync per
//! commit, the commit record as the visibility boundary.

use super::{
    at, bytes_per_op, net_counters, oracle, share_lines, sorted, trace_queries, Observed, Request,
    Tally, TraceOut, Workload,
};
use crate::gen;
use crate::layers::QueryReplay;
use crate::load::{Class, ClientOp, Target};
use crate::report::Values;
use crate::spans::Recorder;
use crate::stats;
use fj_core::{Catalog, FromItem, JoinQuery, Table, Tuple};
use fj_net::{Client, Mutation, QueryOptions, Server, ServerConfig};
use fj_runtime::{QueryService, ServiceConfig, StorageMode, StoreStats};
use fj_store::Store;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Buffer-pool pages: `Emp` at full size is several times this.
const POOL_PAGES: usize = 16;
/// The writer checkpoints the server after this many commits.
const CHECKPOINT_EVERY: u64 = 100;

pub struct MutateDisk {
    server: Server,
    dir: PathBuf,
    scratch: PathBuf,
    /// The generated catalog, before any commit.
    base: Catalog,
    seed: u64,
    emps: usize,
    depts: usize,
    query: JoinQuery,
    next_commit: AtomicU64,
    /// Indices of acknowledged commits, in commit order.
    acked: Mutex<Vec<u64>>,
    traced_requests: u64,
    stats_base: StoreStats,
    /// Plan-cache `(hits, misses)` when the last traced pass ended.
    cache_base: (u64, u64),
}

fn disk_config(dir: &Path, workers: usize) -> ServiceConfig {
    ServiceConfig {
        workers,
        storage: StorageMode::Disk {
            dir: dir.to_path_buf(),
            pool_pages: POOL_PAGES,
        },
        ..Default::default()
    }
}

fn bind(dir: &Path, template: Catalog) -> Result<Server, String> {
    Server::bind(
        "127.0.0.1:0",
        template,
        ServerConfig {
            service: disk_config(dir, 2),
            ..Default::default()
        },
    )
    .map_err(|e| format!("bind disk server: {e}"))
}

impl MutateDisk {
    pub fn new(
        seed: u64,
        emps: usize,
        depts: usize,
        n: u64,
        scratch: &Path,
    ) -> Result<MutateDisk, String> {
        let base = gen::emp_dept(emps, depts, seed);
        let dir = scratch.join("data");
        let server = bind(&dir, base.clone())?;
        let query = gen::figure1_query();
        let reply = Client::connect(server.local_addr())
            .and_then(|mut c| c.query(&query))
            .map_err(|e| format!("first query: {e}"))?;
        super::verified(&base, &query, reply.rows)?;
        Ok(MutateDisk {
            stats_base: server.store_stats(),
            cache_base: (0, 0),
            server,
            dir,
            scratch: scratch.to_path_buf(),
            base,
            seed,
            emps,
            depts,
            query,
            next_commit: AtomicU64::new(0),
            acked: Mutex::new(Vec::new()),
            traced_requests: n,
        })
    }

    fn mutation(&self, i: u64) -> Mutation {
        gen::emp_mutation(self.emps, self.depts, self.seed, i)
    }

    /// One commit over the real path; records the acknowledgement.
    fn commit(&self, client: &mut Client) -> bool {
        let i = self.next_commit.fetch_add(1, Ordering::Relaxed);
        let Ok(reply) = client.mutate(&self.mutation(i)) else {
            return false;
        };
        self.acked.lock().expect("ack list lock").push(i);
        let checkpointed =
            !(i + 1).is_multiple_of(CHECKPOINT_EVERY) || self.server.checkpoint().is_ok();
        reply.rows_affected == 1 && checkpointed
    }

    /// The `Mutation::apply` oracle: the generated catalog with every
    /// acknowledged commit applied to `Emp` in order.
    fn oracle_state(&self) -> Result<(Catalog, Vec<Tuple>), String> {
        let emp = self.base.table("Emp").map_err(|e| e.to_string())?;
        let mut rows = emp.rows().to_vec();
        for &i in self.acked.lock().expect("ack list lock").iter() {
            rows = self
                .mutation(i)
                .apply(emp.schema(), &rows)
                .map_err(|e| format!("oracle apply of commit {i}: {e}"))?
                .0;
        }
        let mut catalog = self.base.clone();
        let table =
            Table::new("Emp", (**emp.schema()).clone(), rows.clone()).map_err(|e| e.to_string())?;
        catalog.replace_table(table.into_ref());
        Ok((catalog, rows))
    }

    /// Commits replayed on a scratch store and a scratch disk service:
    /// `store.commit` is `Store::mutate` alone, `runtime.execute_mutation`
    /// adds the table rebuild and install.
    fn replay_commits(&self, rec: &mut Recorder, values: &mut Values) -> Result<(), String> {
        let n = self.traced_requests;
        let emp = self.base.table("Emp").map_err(|e| e.to_string())?;
        let (store, _) = Store::open(self.scratch.join("probe-store"), POOL_PAGES, None)
            .map_err(|e| e.to_string())?;
        store.load_table(&emp).map_err(|e| e.to_string())?;
        let service = QueryService::try_start(
            self.base.clone(),
            disk_config(&self.scratch.join("probe-service"), 1),
        )
        .map_err(|e| e.to_string())?;
        let row_bytes = emp.rows().first().map_or(0, Tuple::wire_width) as u64;
        let (fsyncs0, wal0) = (store.stats().wal_fsyncs, store.wal_bytes());
        let mut user_bytes = 0u64;
        for i in 0..n {
            let mutation = self.mutation(i);
            let root = rec.open(None, i, "replay");
            let result = rec
                .time(root, "store.commit", || store.mutate(&mutation, &|| false))
                .map_err(|e| e.to_string())?;
            user_bytes += result.rows_affected * row_bytes;
            rec.time(root, "runtime.execute_mutation", || {
                service.execute_mutation(mutation)
            })
            .map_err(|e| e.to_string())?;
            rec.close(root);
        }
        values.insert(
            "store.wal_fsyncs_per_commit",
            (store.stats().wal_fsyncs - fsyncs0) as f64 / n as f64,
        );
        values.insert(
            "store.wal_bytes_per_user_byte",
            (store.wal_bytes() - wal0) as f64 / user_bytes.max(1) as f64,
        );
        let t0 = Instant::now();
        store.checkpoint().map_err(|e| e.to_string())?;
        values.insert(
            "store.checkpoint_us",
            t0.elapsed().as_nanos() as f64 / 1_000.0,
        );
        service.shutdown();
        let mut by_name = rec.self_micros_by_name();
        let mut p50 = |name: &str| by_name.get_mut(name).map_or(0.0, |v| stats::median(v));
        let commit_us = p50("store.commit");
        values.insert("store.commit_us", commit_us);
        values.insert(
            "runtime.mutation_install_us",
            p50("runtime.execute_mutation") - commit_us,
        );
        Ok(())
    }
}

impl Target for MutateDisk {
    fn clients(&self) -> usize {
        2
    }

    fn class(&self, c: usize) -> Class {
        if c == 0 {
            Class::Primary
        } else {
            Class::Read
        }
    }

    fn connect(&self, c: usize) -> Result<ClientOp<'_>, String> {
        let mut client =
            Client::connect(self.server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        Ok(if c == 0 {
            Box::new(move || self.commit(&mut client))
        } else {
            // The reader's answer depends on which commits it raced;
            // its content is checked once the writer has stopped.
            Box::new(move || client.query(&self.query).is_ok())
        })
    }
}

impl Workload for MutateDisk {
    fn trace(&mut self, out: &mut TraceOut, _slice: Duration) -> Result<Tally, String> {
        let n = self.traced_requests;
        let mut client =
            Client::connect(self.server.local_addr()).map_err(|e| format!("connect: {e}"))?;

        // The reader's query alone: nothing commits meanwhile, so every
        // reply must equal the oracle over the commits so far.
        let (state, _) = self.oracle_state()?;
        let expected = oracle(&state, &self.query)?;
        let mut replay = QueryReplay::new(Arc::new(state), true)?;
        let (mut tally, reads) = trace_queries(
            out,
            n,
            &|_i| -> Request { (self.query.clone(), None) },
            &mut |(query, config), want_trace, _rec, _span| {
                let opts = QueryOptions {
                    deadline: None,
                    config: *config,
                    want_trace,
                };
                let reply = client
                    .query_with(query, &opts)
                    .map_err(|e| format!("traced-pass read: {e}"))?;
                Ok(Observed {
                    ok: sorted(reply.rows) == expected,
                    server_us: reply.latency_micros as f64,
                    measured_cost: reply.measured_cost,
                    estimated_cost: reply.estimated_cost,
                    cache_hit: reply.cache_hit,
                    trace: reply.trace,
                })
            },
            Some(&self.server),
            Some(&mut replay),
        )?;

        let TraceOut {
            recorder: rec,
            values,
            lines,
        } = out;
        // The writer's commits alone, untraced then inside spans.
        let before = self.server.stats();
        let mut untraced_us = Vec::new();
        for _ in 0..n {
            let t0 = Instant::now();
            tally.check(self.commit(&mut client));
            untraced_us.push(t0.elapsed().as_nanos() as f64 / 1_000.0);
        }
        let after = self.server.stats();
        values.insert("net.bytes_per_op", bytes_per_op(before, after, n));
        let mut traced_us = Vec::new();
        for i in 0..n {
            let span = rec.open(None, i, "request");
            tally.check(self.commit(&mut client));
            rec.close(span);
            let s = &rec.spans()[span as usize];
            traced_us.push((s.end_ns - s.start_ns) as f64 / 1_000.0);
        }
        let commit_p50 = stats::median(&mut untraced_us);
        values.insert(
            "trace.overhead_ratio",
            stats::median(&mut traced_us) / commit_p50,
        );
        self.replay_commits(rec, values)?;

        let (commit_us, install_us) = (
            at(values, "store.commit_us"),
            at(values, "runtime.mutation_install_us"),
        );
        let residual = commit_p50 - commit_us - install_us;
        values.insert("net.residual_us", residual);
        lines.push(format!(
            "  reader alone: p50 {:.1} us, server-reported {:.1} us",
            reads.untraced_p50_us, reads.server_p50_us
        ));
        share_lines(
            lines,
            commit_p50,
            &[
                ("store.commit_us", commit_us),
                ("runtime.mutation_install_us", install_us),
                ("net.residual_us", residual),
            ],
        );
        lines.push(
            "  flush policy: one group fsync per commit (repository default); the OS cache is not dropped"
                .to_string(),
        );
        self.stats_base = self.server.store_stats();
        let metrics = self.server.metrics();
        self.cache_base = (metrics.cache_hits, metrics.cache_misses);
        Ok(tally)
    }

    fn window_counters(&self, values: &mut Values, ops: u64) {
        net_counters(&self.server, values);
        // Under load every commit invalidates the reader's plan, so the
        // hit rate that matters is the window's, not the quiet pass's.
        let metrics = self.server.metrics();
        let hits = (metrics.cache_hits - self.cache_base.0) as f64;
        let misses = (metrics.cache_misses - self.cache_base.1) as f64;
        if hits + misses > 0.0 {
            values.insert("runtime.cache_hit_rate", hits / (hits + misses));
        }
        let (now, base) = (self.server.store_stats(), self.stats_base);
        let hits = (now.pool_hits - base.pool_hits) as f64;
        let misses = (now.pool_misses - base.pool_misses) as f64;
        if hits + misses > 0.0 {
            values.insert("store.pool_hit_rate", hits / (hits + misses));
        }
        values.insert(
            "store.pool_evictions_per_op",
            (now.pool_evictions - base.pool_evictions) as f64 / ops.max(1) as f64,
        );
    }

    fn finish(self: Box<Self>) -> Result<Tally, String> {
        let mut tally = Tally::default();
        let (state, emp_rows) = self.oracle_state()?;
        // With the writer stopped, the live server's read must match
        // the oracle over every acknowledged commit.
        let live = Client::connect(self.server.local_addr())
            .and_then(|mut c| c.query(&self.query))
            .map_err(|e| format!("final read: {e}"))?;
        tally.check(sorted(live.rows) == oracle(&state, &self.query)?);
        // Process-crash durability: kill the server without a drain,
        // reopen its directory with a fresh one, and read `Emp` back.
        let MutateDisk {
            server, dir, base, ..
        } = *self;
        server.abort();
        let reopened = bind(&dir, base)?;
        let scan = JoinQuery::new(vec![FromItem::new("Emp", "E")]);
        let recovered = Client::connect(reopened.local_addr())
            .and_then(|mut c| c.query(&scan))
            .map_err(|e| format!("read after reopen: {e}"))?;
        tally.check(recovered.rows == emp_rows);
        reopened.shutdown();
        Ok(tally)
    }
}
