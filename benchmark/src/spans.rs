//! In-memory spans for the traced pass.
//!
//! Spans are recorded from the benchmark's own code, around its calls
//! into each layer's public functions, kept in memory, and written as
//! one JSON object per line when the pass ends. The traced pass runs a
//! single client, so the recorder is plain `&mut` state with no locks.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded interval. `parent` is the span that caused it; spans of
/// one request share `req`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub req: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// `true` for spans imported from the program's own TRACE_REPLY
    /// (per-operator wall micros) rather than timed by the benchmark.
    pub from_program: bool,
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::close`].
    pub fn open(&mut self, parent: Option<u64>, req: u64, name: &str) -> u64 {
        let id = self.spans.len() as u64;
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            req,
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            from_program: false,
        });
        id
    }

    pub fn close(&mut self, id: u64) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Times `f` as a child span of `parent`.
    pub fn time<T>(&mut self, parent: u64, name: &str, f: impl FnOnce() -> T) -> T {
        let req = self.spans[parent as usize].req;
        let id = self.open(Some(parent), req, name);
        let out = f();
        self.close(id);
        out
    }

    /// Adds a span from two instants observed elsewhere (a callback the
    /// program invoked while the parent was open).
    pub fn add(&mut self, parent: u64, name: &str, start: Instant, end: Instant) {
        let req = self.spans[parent as usize].req;
        let id = self.open(Some(parent), req, name);
        let span = &mut self.spans[id as usize];
        span.start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        span.end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
    }

    /// Imports an interval the program measured itself, placed at
    /// `offset_ns` after its parent's start. Returns the new span's id.
    pub fn import(&mut self, parent: u64, name: &str, offset_ns: u64, dur_ns: u64) -> u64 {
        let p = &self.spans[parent as usize];
        let (req, start_ns) = (p.req, p.start_ns + offset_ns);
        let id = self.spans.len() as u64;
        self.spans.push(Span {
            id,
            parent: Some(parent),
            req,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns + dur_ns,
            from_program: true,
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in nanoseconds, indexed by span id.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| self_time_ns(s.start_ns, s.end_ns, kids))
            .collect()
    }

    /// Per span name: the self time of each span of that name in
    /// microseconds, in recording order.
    pub fn self_micros_by_name(&self) -> BTreeMap<String, Vec<f64>> {
        let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_times_ns()) {
            out.entry(s.name.clone())
                .or_default()
                .push(ns as f64 / 1_000.0);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let src = if s.from_program {
                "program"
            } else {
                "benchmark"
            };
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"src\":\"{}\"}}",
                s.id,
                parent,
                s.req,
                crate::report::json_string(&s.name),
                s.start_ns,
                s.end_ns,
                src
            )?;
        }
        out.flush()
    }
}

/// A span's duration minus the part of `[start, end]` its child spans
/// cover (overlapping children are counted once; parts of a child
/// outside the parent are ignored).
pub fn self_time_ns(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = start;
    for &(cs, ce) in children.iter() {
        let (cs, ce) = (cs.max(cursor), ce.min(end));
        if ce > cs {
            covered += ce - cs;
            cursor = ce;
        }
    }
    (end - start).saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        // Disjoint children.
        assert_eq!(self_time_ns(0, 100, &mut [(10, 20), (30, 50)]), 70);
        // Overlapping children count once; order does not matter.
        assert_eq!(self_time_ns(0, 100, &mut [(30, 60), (10, 40)]), 50);
        // A child sticking out of its parent is clipped.
        assert_eq!(self_time_ns(10, 50, &mut [(0, 20), (40, 90)]), 20);
        // No children: the whole duration.
        assert_eq!(self_time_ns(5, 9, &mut []), 4);
        // Fully covered.
        assert_eq!(self_time_ns(0, 10, &mut [(0, 10), (2, 3)]), 0);
    }

    #[test]
    fn recorder_nests_spans_and_shares_the_request_id() {
        let mut rec = Recorder::new();
        let root = rec.open(None, 7, "request");
        let v = rec.time(root, "layer", || 41 + 1);
        let op = rec.import(root, "op", 5, 10);
        rec.close(root);
        assert_eq!(v, 42);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.req == 7));
        assert_eq!(spans[1].parent, Some(root));
        assert!(spans[op as usize].from_program);
        assert_eq!(spans[op as usize].end_ns - spans[op as usize].start_ns, 10);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let selfs = rec.self_times_ns();
        let dur = |i: usize| spans[i].end_ns - spans[i].start_ns;
        assert!(selfs[0] <= dur(0) - dur(1));
    }
}
