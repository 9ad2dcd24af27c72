//! # fj-trace
//!
//! Zero-cost-when-off, per-query observability: every physical operator
//! records an [`OpStats`] node into a per-query [`QueryTrace`] tree
//! mirroring the plan shape.
//!
//! The crate is deliberately a leaf (std only): `fj-exec` feeds a
//! [`TraceCollector`] during plan interpretation, `fj-core` renders
//! `EXPLAIN ANALYZE` from the finished tree, `fj-runtime` keeps a
//! bounded [`TraceRing`] of recent traces, and `fj-net` ships traces in
//! a dedicated frame through its byte codec. [`json`] is the one JSON
//! writer every JSON body in the workspace (STATS, the recent-trace
//! ring, [`QueryTrace::to_json`]) shares — which is why it lives in
//! this dependency-free crate. Nothing in the workspace reads JSON
//! back.
//!
//! ## Collection model
//!
//! Plan interpretation in `fj-exec` is a single-threaded recursion,
//! so the collector is a simple frame stack: `enter` at node entry,
//! `exit` at node exit (on both success and error paths, keeping the
//! stack balanced). Interrupt polls are counted globally through an
//! atomic and attributed to the node on the stack when the poll
//! happened, minus whatever its children consumed.

pub mod json;

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// What one physical operator did during one execution.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OpStats {
    /// Operator label — the node's one-line EXPLAIN rendering
    /// (e.g. `HashJoin on E.did = D.did`).
    pub label: String,
    /// Rows received from children (sum of their `rows_out`).
    pub rows_in: u64,
    /// Rows produced.
    pub rows_out: u64,
    /// Rows on the build side (second child of a two-input join; 0
    /// elsewhere).
    pub build_rows: u64,
    /// Rows on the probe side (first child; 0 for leaves).
    pub probe_rows: u64,
    /// Pages read by this node itself (ledger delta across the node,
    /// minus its children's subtree reads).
    pub pages_read: u64,
    /// Buffer-pool hits charged to this node itself (disk-backed mode;
    /// 0 when the service runs purely in memory).
    pub pool_hits: u64,
    /// Buffer-pool misses — physical page-file reads — charged to this
    /// node itself (disk-backed mode; 0 in memory).
    pub pool_misses: u64,
    /// Inclusive wall time of the node's subtree, in microseconds.
    pub wall_micros: u64,
    /// Interrupt polls made by this node itself (global poll-counter
    /// delta minus the children's).
    pub interrupt_polls: u64,
    /// Spill events in this node itself (operator invocations that
    /// degraded to temp-file partitioning, grace recursion levels
    /// included; 0 when memory governance is off or never triggered).
    pub spills: u64,
    /// Temp-file pages this node itself wrote plus read back while
    /// spilling.
    pub spill_pages: u64,
}

/// One node of a query trace; children mirror the plan's execution
/// order (outer before inner; `WithTemp` steps before the body).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceNode {
    /// The node's measured statistics.
    pub stats: OpStats,
    /// Child traces.
    pub children: Vec<TraceNode>,
}

impl TraceNode {
    /// Number of nodes in this subtree (itself included).
    pub fn node_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(TraceNode::node_count)
            .sum::<usize>()
    }

    /// Pre-order walk over the subtree.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a TraceNode)) {
        f(self);
        for c in &self.children {
            c.walk(f);
        }
    }
}

/// A finished per-query trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryTrace {
    /// The root operator's trace (its subtree is the whole plan).
    pub root: TraceNode,
    /// Wall time of the whole execution, in microseconds (equals the
    /// root's inclusive wall time).
    pub total_wall_micros: u64,
}

impl QueryTrace {
    /// Rows the query returned (the root operator's output).
    pub fn rows_out(&self) -> u64 {
        self.root.stats.rows_out
    }

    /// Number of operator nodes traced.
    pub fn node_count(&self) -> usize {
        self.root.node_count()
    }

    /// One-line JSON with a stable key order (nested `children` arrays
    /// mirror the tree). Keys per node: `op`, `rows_in`, `rows_out`,
    /// `build_rows`, `probe_rows`, `pages_read`, `pool_hits`,
    /// `pool_misses`, `wall_micros`, `interrupt_polls`, `spills`,
    /// `spill_pages`, `children`.
    pub fn to_json(&self) -> String {
        json::object(|w| {
            w.key("total_wall_micros").uint(self.total_wall_micros);
            write_node(&self.root, w.key("root"));
        })
    }
}

/// The JSON key of each [`OpStats::counters`] slot.
const COUNTER_KEYS: [&str; 11] = [
    "rows_in",
    "rows_out",
    "build_rows",
    "probe_rows",
    "pages_read",
    "pool_hits",
    "pool_misses",
    "wall_micros",
    "interrupt_polls",
    "spills",
    "spill_pages",
];

impl OpStats {
    /// The eleven counters in declaration order (`rows_in` through
    /// `spill_pages`) — the order [`QueryTrace::to_json`] writes them
    /// and `fj-net`'s TRACE_REPLY encoding carries them.
    pub fn counters(&self) -> [u64; 11] {
        [
            self.rows_in,
            self.rows_out,
            self.build_rows,
            self.probe_rows,
            self.pages_read,
            self.pool_hits,
            self.pool_misses,
            self.wall_micros,
            self.interrupt_polls,
            self.spills,
            self.spill_pages,
        ]
    }

    /// The inverse of [`OpStats::counters`].
    pub fn from_counters(label: String, c: [u64; 11]) -> OpStats {
        OpStats {
            label,
            rows_in: c[0],
            rows_out: c[1],
            build_rows: c[2],
            probe_rows: c[3],
            pages_read: c[4],
            pool_hits: c[5],
            pool_misses: c[6],
            wall_micros: c[7],
            interrupt_polls: c[8],
            spills: c[9],
            spill_pages: c[10],
        }
    }
}

fn write_node(node: &TraceNode, w: &mut json::Writer) {
    w.object(|w| {
        w.key("op").string(&node.stats.label);
        for (key, v) in COUNTER_KEYS.iter().zip(node.stats.counters()) {
            w.key(key).uint(v);
        }
        w.key("children").array(|w| {
            for c in &node.children {
                write_node(c, w);
            }
        });
    });
}

/// I/O observed across one plan node's subtree, as measured by the
/// interpreter around the node (ledger and buffer-pool counter deltas
/// between node entry and exit). [`TraceCollector::exit`] subtracts the
/// children's subtrees to get the node's own share.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SubtreeIo {
    /// Ledger `page_reads` delta across the subtree.
    pub pages_read: u64,
    /// Buffer-pool hit delta across the subtree (0 when in memory).
    pub pool_hits: u64,
    /// Buffer-pool miss delta across the subtree (0 when in memory).
    pub pool_misses: u64,
    /// Spill-event delta across the subtree (0 when memory governance
    /// is off).
    pub spills: u64,
    /// Temp-file pages written plus read back across the subtree.
    pub spill_pages: u64,
}

impl SubtreeIo {
    /// Pages only — the in-memory mode's measurement, where no buffer
    /// pool exists.
    pub fn pages(pages_read: u64) -> SubtreeIo {
        SubtreeIo {
            pages_read,
            ..SubtreeIo::default()
        }
    }

    fn saturating_sub(self, other: SubtreeIo) -> SubtreeIo {
        SubtreeIo {
            pages_read: self.pages_read.saturating_sub(other.pages_read),
            pool_hits: self.pool_hits.saturating_sub(other.pool_hits),
            pool_misses: self.pool_misses.saturating_sub(other.pool_misses),
            spills: self.spills.saturating_sub(other.spills),
            spill_pages: self.spill_pages.saturating_sub(other.spill_pages),
        }
    }

    fn add(&mut self, other: SubtreeIo) {
        self.pages_read += other.pages_read;
        self.pool_hits += other.pool_hits;
        self.pool_misses += other.pool_misses;
        self.spills += other.spills;
        self.spill_pages += other.spill_pages;
    }
}

/// One in-flight stack frame of the collector.
struct Frame {
    label: String,
    start: Instant,
    polls_at_entry: u64,
    /// Subtree interrupt polls already attributed to finished children.
    child_polls: u64,
    /// Subtree I/O already attributed to finished children.
    child_io: SubtreeIo,
    children: Vec<TraceNode>,
}

struct CollectorState {
    stack: Vec<Frame>,
    finished: Option<TraceNode>,
}

/// Builds a [`QueryTrace`] from `enter`/`exit` calls made by the plan
/// interpreter. One collector serves one query execution.
pub struct TraceCollector {
    state: Mutex<CollectorState>,
    polls: AtomicU64,
}

impl fmt::Debug for TraceCollector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceCollector")
            .field("polls", &self.polls.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Default for TraceCollector {
    fn default() -> Self {
        TraceCollector::new()
    }
}

impl TraceCollector {
    /// A fresh, empty collector.
    pub fn new() -> TraceCollector {
        TraceCollector {
            state: Mutex::new(CollectorState {
                stack: Vec::new(),
                finished: None,
            }),
            polls: AtomicU64::new(0),
        }
    }

    /// Enters a plan node. Must be balanced by one [`TraceCollector::exit`].
    pub fn enter(&self, label: String) {
        let polls_at_entry = self.polls.load(Ordering::Relaxed);
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.stack.push(Frame {
            label,
            start: Instant::now(),
            polls_at_entry,
            child_polls: 0,
            child_io: SubtreeIo::default(),
            children: Vec::new(),
        });
    }

    /// Counts one interrupt poll (callable from any thread).
    #[inline]
    pub fn note_poll(&self) {
        self.polls.fetch_add(1, Ordering::Relaxed);
    }

    /// Exits the innermost open node with its output cardinality and
    /// the I/O counter deltas ([`SubtreeIo`]: ledger `page_reads`, pool
    /// hits/misses) across the node's subtree. Rows in / build / probe
    /// counts derive from the finished children: first child = probe
    /// (outer), second = build (inner).
    ///
    /// Exits on error paths pass the rows produced before the failure
    /// (usually 0), keeping the stack balanced.
    pub fn exit(&self, rows_out: u64, subtree_io: SubtreeIo) {
        let polls_now = self.polls.load(Ordering::Relaxed);
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let Some(frame) = st.stack.pop() else {
            return; // unbalanced exit: drop rather than poison anything
        };
        let subtree_polls = polls_now.saturating_sub(frame.polls_at_entry);
        let rows_in = frame.children.iter().map(|c| c.stats.rows_out).sum();
        let probe_rows = frame.children.first().map_or(0, |c| c.stats.rows_out);
        let build_rows = if frame.children.len() == 2 {
            frame.children[1].stats.rows_out
        } else {
            0
        };
        let own_io = subtree_io.saturating_sub(frame.child_io);
        let node = TraceNode {
            stats: OpStats {
                label: frame.label,
                rows_in,
                rows_out,
                build_rows,
                probe_rows,
                pages_read: own_io.pages_read,
                pool_hits: own_io.pool_hits,
                pool_misses: own_io.pool_misses,
                wall_micros: frame.start.elapsed().as_micros() as u64,
                interrupt_polls: subtree_polls.saturating_sub(frame.child_polls),
                spills: own_io.spills,
                spill_pages: own_io.spill_pages,
            },
            children: frame.children,
        };
        match st.stack.last_mut() {
            Some(parent) => {
                parent.child_polls += subtree_polls;
                parent.child_io.add(subtree_io);
                parent.children.push(node);
            }
            None => st.finished = Some(node),
        }
    }

    /// Takes the finished trace, if the root node has exited. Frames
    /// still open (an execution abandoned mid-tree) yield `None`.
    pub fn finish(&self) -> Option<QueryTrace> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let root = st.finished.take()?;
        Some(QueryTrace {
            total_wall_micros: root.stats.wall_micros,
            root,
        })
    }
}

/// A trace paired with the query text that produced it, as kept by the
/// runtime's recent-trace ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TracedQuery {
    /// The query's display form.
    pub query: String,
    /// The measured trace.
    pub trace: QueryTrace,
}

impl TracedQuery {
    /// Stable-key JSON: `{"query":"...","trace":{...}}`.
    pub fn to_json(&self) -> String {
        json::object(|w| {
            w.key("query").string(&self.query);
            w.key("trace").raw(&self.trace.to_json());
        })
    }
}

/// A bounded ring of recent traces: pushing past capacity evicts the
/// oldest. Thread-safe; one ring serves a whole query service.
#[derive(Debug)]
pub struct TraceRing {
    cap: usize,
    entries: Mutex<VecDeque<TracedQuery>>,
    recorded: AtomicU64,
}

impl TraceRing {
    /// A ring holding at most `cap` traces (clamped to ≥ 1).
    pub fn new(cap: usize) -> TraceRing {
        TraceRing {
            cap: cap.max(1),
            entries: Mutex::new(VecDeque::new()),
            recorded: AtomicU64::new(0),
        }
    }

    /// Appends a trace, evicting the oldest when full.
    pub fn push(&self, entry: TracedQuery) {
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let mut q = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if q.len() == self.cap {
            q.pop_front();
        }
        q.push_back(entry);
    }

    /// The retained traces, oldest first.
    pub fn recent(&self) -> Vec<TracedQuery> {
        self.entries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// Traces recorded over the ring's lifetime (evictions included).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Currently retained count.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the ring holds no traces.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The retained traces as one JSON array, oldest first.
    pub fn to_json(&self) -> String {
        json::array(|w| {
            for e in self.recent() {
                w.raw(&e.to_json());
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(label: &str, rows: u64) -> TraceNode {
        TraceNode {
            stats: OpStats {
                label: label.into(),
                rows_out: rows,
                ..OpStats::default()
            },
            children: Vec::new(),
        }
    }

    #[test]
    fn collector_builds_a_nested_tree_with_attribution() {
        let c = TraceCollector::new();
        c.enter("join".into());
        {
            c.enter("scan A".into());
            c.note_poll();
            c.note_poll();
            c.exit(
                100,
                SubtreeIo {
                    pages_read: 10,
                    pool_hits: 7,
                    pool_misses: 3,
                    ..SubtreeIo::default()
                },
            );
            c.enter("scan B".into());
            c.note_poll();
            c.exit(40, SubtreeIo::pages(4));
        }
        c.note_poll(); // the join's own poll
        c.exit(
            60,
            SubtreeIo {
                pages_read: 20,
                pool_hits: 8,
                pool_misses: 3,
                spills: 2,
                spill_pages: 90,
            },
        );
        let trace = c.finish().expect("root exited");
        assert!(c.finish().is_none(), "finish consumes the trace");
        let root = &trace.root;
        assert_eq!(root.stats.label, "join");
        assert_eq!(root.stats.rows_out, 60);
        assert_eq!(root.stats.rows_in, 140);
        assert_eq!(root.stats.probe_rows, 100);
        assert_eq!(root.stats.build_rows, 40);
        assert_eq!(root.stats.pages_read, 6, "20 subtree - 14 from children");
        assert_eq!(root.stats.pool_hits, 1, "8 subtree - 7 from scan A");
        assert_eq!(root.stats.pool_misses, 0, "3 subtree - 3 from scan A");
        assert_eq!(root.stats.interrupt_polls, 1);
        assert_eq!(root.stats.spills, 2, "no child spilled; all its own");
        assert_eq!(root.stats.spill_pages, 90);
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].stats.interrupt_polls, 2);
        assert_eq!(root.children[0].stats.pool_hits, 7);
        assert_eq!(root.children[0].stats.pool_misses, 3);
        assert_eq!(root.children[1].stats.pages_read, 4);
        assert_eq!(root.children[1].stats.pool_hits, 0);
        assert_eq!(trace.node_count(), 3);
        assert_eq!(trace.rows_out(), 60);
        assert_eq!(trace.total_wall_micros, root.stats.wall_micros);
    }

    #[test]
    fn abandoned_execution_yields_no_trace() {
        let c = TraceCollector::new();
        c.enter("join".into());
        c.enter("scan".into());
        c.exit(5, SubtreeIo::default());
        // The root never exits (simulates an interrupt unwinding past
        // the wrapper) — finish must not fabricate a partial tree.
        assert!(c.finish().is_none());
    }

    #[test]
    fn unbalanced_exit_is_ignored() {
        let c = TraceCollector::new();
        c.exit(1, SubtreeIo::pages(1));
        assert!(c.finish().is_none());
    }

    #[test]
    fn to_json_pins_the_tree_with_a_stable_key_order() {
        let trace = QueryTrace {
            total_wall_micros: 1234,
            root: TraceNode {
                stats: OpStats {
                    label: "HashJoin on \"E.did\" = D\\did".into(),
                    rows_in: 140,
                    rows_out: 60,
                    build_rows: 40,
                    probe_rows: 100,
                    pages_read: 6,
                    pool_hits: 5,
                    pool_misses: 1,
                    wall_micros: 1234,
                    interrupt_polls: 1,
                    spills: 1,
                    spill_pages: 44,
                },
                children: vec![leaf("SeqScan Emp AS E", 100), leaf("SeqScan Dept AS D", 40)],
            },
        };
        let want = concat!(
            r#"{"total_wall_micros":1234,"root":{"op":"HashJoin on \"E.did\" = D\\did","#,
            r#""rows_in":140,"rows_out":60,"build_rows":40,"probe_rows":100,"pages_read":6,"#,
            r#""pool_hits":5,"pool_misses":1,"wall_micros":1234,"interrupt_polls":1,"spills":1,"#,
            r#""spill_pages":44,"children":["#,
            r#"{"op":"SeqScan Emp AS E","rows_in":0,"rows_out":100,"build_rows":0,"probe_rows":0,"#,
            r#""pages_read":0,"pool_hits":0,"pool_misses":0,"wall_micros":0,"interrupt_polls":0,"#,
            r#""spills":0,"spill_pages":0,"children":[]},"#,
            r#"{"op":"SeqScan Dept AS D","rows_in":0,"rows_out":40,"build_rows":0,"probe_rows":0,"#,
            r#""pages_read":0,"pool_hits":0,"pool_misses":0,"wall_micros":0,"interrupt_polls":0,"#,
            r#""spills":0,"spill_pages":0,"children":[]}]}}"#,
        );
        assert_eq!(trace.to_json(), want);
        let stats = &trace.root.stats;
        assert_eq!(
            OpStats::from_counters(stats.label.clone(), stats.counters()),
            *stats
        );
    }

    #[test]
    fn ring_evicts_oldest_and_counts_lifetime() {
        let ring = TraceRing::new(2);
        assert!(ring.is_empty());
        for i in 0..5u64 {
            ring.push(TracedQuery {
                query: format!("q{i}"),
                trace: QueryTrace {
                    total_wall_micros: i,
                    root: leaf("x", i),
                },
            });
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.recorded(), 5);
        let kept: Vec<String> = ring.recent().into_iter().map(|t| t.query).collect();
        assert_eq!(kept, vec!["q3", "q4"]);
        let json = ring.to_json();
        assert!(json.starts_with("[{\"query\":\"q3\""));
        assert!(json.ends_with("}]"));
    }

    #[test]
    fn traced_query_json_escapes_the_query_text() {
        let t = TracedQuery {
            query: "say \"hi\" \\ bye".into(),
            trace: QueryTrace {
                total_wall_micros: 0,
                root: leaf("x", 0),
            },
        };
        assert!(t
            .to_json()
            .starts_with("{\"query\":\"say \\\"hi\\\" \\\\ bye\""));
    }
}
