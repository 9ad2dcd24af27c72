//! Each layer measured from outside: the `replay` of the traced pass
//! walks one request through the layers' public functions in the
//! server's order, one child span per call, on the workload's real
//! payloads.

use crate::alloc;
use crate::spans::Recorder;
use fj_core::exec::context::DEFAULT_MEMORY_PAGES;
use fj_core::optimizer::fingerprint;
use fj_core::trace::{QueryTrace, TraceNode};
use fj_core::{Catalog, ExecCtx, JoinQuery, Optimizer, OptimizerConfig};
use fj_net::codec::{self, QueryRequest};
use fj_net::wire::{self, FrameReader, FrameType};
use fj_runtime::PlanCache;
use std::collections::BTreeMap;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

/// A connected loopback socket pair for timing frame I/O alone.
pub struct LoopPair {
    client: TcpStream,
    server: TcpStream,
    client_reader: FrameReader,
    server_reader: FrameReader,
}

impl LoopPair {
    pub fn new() -> Result<LoopPair, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let client = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        let (server, _) = listener.accept().map_err(|e| e.to_string())?;
        for s in [&client, &server] {
            s.set_nodelay(true).map_err(|e| e.to_string())?;
        }
        Ok(LoopPair {
            client,
            server,
            client_reader: FrameReader::new(wire::DEFAULT_MAX_FRAME_BYTES),
            server_reader: FrameReader::new(wire::DEFAULT_MAX_FRAME_BYTES),
        })
    }

    /// Writes `payload` as one frame on one end and reads it back on
    /// the other; `to_server` picks the direction.
    fn ship(&mut self, to_server: bool, ty: FrameType, payload: &[u8]) -> Result<Vec<u8>, String> {
        let (tx, rx, reader) = if to_server {
            (&mut self.client, &mut self.server, &mut self.server_reader)
        } else {
            (&mut self.server, &mut self.client, &mut self.client_reader)
        };
        wire::write_frame(tx, ty, payload).map_err(|e| e.to_string())?;
        match reader.read_frame_blocking(rx) {
            Ok(Some(frame)) => Ok(frame.payload),
            Ok(None) => Err("loopback pair closed".into()),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// What one replayed request cost outside the clock.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayCounts {
    pub exec_allocs: u64,
    pub exec_alloc_bytes: u64,
}

/// Replays query requests through optimizer, plan cache, executor and
/// (for loopback workloads) codec and frame I/O.
pub struct QueryReplay {
    catalog: Arc<Catalog>,
    cache: PlanCache,
    pair: Option<LoopPair>,
}

impl QueryReplay {
    /// `over_net` adds the codec and frame spans of a loopback request.
    pub fn new(catalog: Arc<Catalog>, over_net: bool) -> Result<QueryReplay, String> {
        Ok(QueryReplay {
            catalog,
            cache: PlanCache::new(1024),
            pair: if over_net {
                Some(LoopPair::new()?)
            } else {
                None
            },
        })
    }

    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// One `replay` span for request `req`, children in server order.
    pub fn run(
        &mut self,
        rec: &mut Recorder,
        req: u64,
        query: &JoinQuery,
        config: Option<OptimizerConfig>,
    ) -> Result<ReplayCounts, String> {
        let root = rec.open(None, req, "replay");
        let mut query = query.clone();
        if let Some(pair) = &mut self.pair {
            let request = QueryRequest {
                deadline_millis: 0,
                want_trace: false,
                config,
                query,
            };
            let payload = rec
                .time(root, "net.req_encode", || codec::encode_request(&request))
                .map_err(|e| e.to_string())?;
            let payload = rec.time(root, "net.frame_io.request", || {
                pair.ship(true, FrameType::Query, &payload)
            })?;
            query = rec
                .time(root, "net.req_decode", || codec::decode_request(&payload))
                .map_err(|e| e.to_string())?
                .query;
        }
        let config = config.unwrap_or_default();
        let catalog = Arc::clone(&self.catalog);
        let key = rec.time(root, "optimizer.fingerprint", || {
            fingerprint(&catalog, &query, &config)
        });
        let cached = rec.time(root, "runtime.cache_get", || self.cache.get(key));
        let cache_hit = cached.is_some();
        let plan = match cached {
            Some(plan) => plan,
            None => {
                let plan = rec
                    .time(root, "optimizer.optimize", || {
                        Optimizer::new(Arc::clone(&catalog), config).optimize(&query)
                    })
                    .map_err(|e| e.to_string())?;
                let plan = Arc::new(plan);
                self.cache.insert(key, Arc::clone(&plan));
                plan
            }
        };
        let (rel, exec_allocs, exec_alloc_bytes) = rec.time(root, "exec.execute", || {
            alloc::counted(|| {
                let ctx = ExecCtx::new(catalog).with_memory_pages(DEFAULT_MEMORY_PAGES);
                plan.phys.execute(&ctx)
            })
        });
        let rel = rel.map_err(|e| e.to_string())?;
        if let Some(pair) = &mut self.pair {
            let payload = rec
                .time(root, "net.reply_encode", || {
                    codec::encode_reply_parts(
                        &rel.schema,
                        &rel.rows,
                        plan.cost,
                        Some(plan.cost),
                        cache_hit,
                        0,
                    )
                })
                .map_err(|e| e.to_string())?;
            let payload = rec.time(root, "net.frame_io.reply", || {
                pair.ship(false, FrameType::Result, &payload)
            })?;
            let reply = rec
                .time(root, "net.reply_decode", || codec::decode_reply(&payload))
                .map_err(|e| e.to_string())?;
            std::hint::black_box(reply);
        }
        rec.close(root);
        Ok(ReplayCounts {
            exec_allocs,
            exec_alloc_bytes,
        })
    }
}

/// The operator kind of a trace node: the first word of its label
/// (`HashJoin on E.did = D.did` → `HashJoin`).
fn op_kind(node: &TraceNode) -> &str {
    let label = node.stats.label.as_str();
    label
        .split(|c: char| !c.is_ascii_alphanumeric())
        .next()
        .filter(|k| !k.is_empty())
        .unwrap_or("op")
}

/// Imports the program's per-operator trace under `parent` as spans
/// marked as the program's own. The trace carries inclusive durations
/// only, so each operator is laid out from its parent's start, its
/// children one after another in execution order.
pub fn import_trace(rec: &mut Recorder, parent: u64, trace: &QueryTrace) {
    fn walk(rec: &mut Recorder, parent: u64, offset_ns: u64, node: &TraceNode) {
        let dur = node.stats.wall_micros * 1_000;
        let id = rec.import(
            parent,
            &format!("exec.op.{}", op_kind(node)),
            offset_ns,
            dur,
        );
        let mut child_offset = 0;
        for child in &node.children {
            walk(rec, id, child_offset, child);
            child_offset += child.stats.wall_micros * 1_000;
        }
    }
    walk(rec, parent, 0, &trace.root);
}

/// Adds one trace's per-operator-kind self micros to `by_kind`, and
/// returns `(rows into operators, rows out of the root)`.
pub fn tally_trace(trace: &QueryTrace, by_kind: &mut BTreeMap<String, f64>) -> (u64, u64) {
    let mut rows_in = 0;
    trace.root.walk(&mut |node| {
        let children: u64 = node.children.iter().map(|c| c.stats.wall_micros).sum();
        *by_kind.entry(op_kind(node).to_string()).or_default() +=
            node.stats.wall_micros.saturating_sub(children) as f64;
        rows_in += node.stats.rows_in;
    });
    (rows_in, trace.rows_out())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn replay_records_every_layer_once_per_request_in_server_order() {
        let catalog = Arc::new(gen::emp_dept(300, 30, 1));
        let mut replay = QueryReplay::new(catalog, true).unwrap();
        let mut rec = Recorder::new();
        let first = replay
            .run(&mut rec, 0, &gen::figure1_query(), None)
            .unwrap();
        let second = replay
            .run(&mut rec, 1, &gen::figure1_query(), None)
            .unwrap();
        assert_eq!(
            first.exec_allocs, second.exec_allocs,
            "same plan, same input"
        );
        let names: Vec<&str> = rec
            .spans()
            .iter()
            .filter(|s| s.req == 1)
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(
            names,
            [
                "replay",
                "net.req_encode",
                "net.frame_io.request",
                "net.req_decode",
                "optimizer.fingerprint",
                "runtime.cache_get",
                "exec.execute",
                "net.reply_encode",
                "net.frame_io.reply",
                "net.reply_decode"
            ]
        );
        // Only the first request misses the replay's plan cache.
        let optimized: Vec<u64> = rec
            .spans()
            .iter()
            .filter(|s| s.name == "optimizer.optimize")
            .map(|s| s.req)
            .collect();
        assert_eq!(optimized, [0]);
    }

    #[test]
    fn program_trace_is_imported_and_tallied_by_operator_kind() {
        let db = fj_core::Database::with_catalog(gen::emp_dept(300, 30, 1));
        let trace = db
            .execute_traced(&gen::figure1_query())
            .unwrap()
            .trace
            .unwrap();
        let mut rec = Recorder::new();
        let root = rec.open(None, 0, "request");
        import_trace(&mut rec, root, &trace);
        rec.close(root);
        assert_eq!(rec.spans().len(), 1 + trace.node_count());
        assert!(rec.spans()[1..].iter().all(|s| s.from_program));
        let mut by_kind = BTreeMap::new();
        let (rows_in, rows_out) = tally_trace(&trace, &mut by_kind);
        assert_eq!(rows_out, trace.rows_out());
        assert!(rows_in >= rows_out);
        let total: f64 = by_kind.values().sum();
        assert_eq!(
            total, trace.root.stats.wall_micros as f64,
            "self times sum to the root"
        );
    }
}
