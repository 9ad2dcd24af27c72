//! The ledger charges, written once.
//!
//! Each function here is one charge as a pure function of the shapes
//! it sees — rows, pages, index probes, buffer memory `M` — returning a
//! [`Charge`]. [`CostLedger::book`](crate::CostLedger::book) is the only
//! way page I/O and tuple ops reach the ledger: the executor's
//! operators, its spill paths and the UDFs evaluate these functions at
//! the shapes they actually ran on, in exact `u64`, and book the
//! result. The access paths of [`Table`](crate::Table) and
//! [`Index`](crate::Index) take no ledger; the operator that calls them
//! books what they read. The optimizer's `CostParams` evaluates the *same*
//! functions at estimated shapes, in `f64`, and weighs the result as
//! `(read + written) + cpu_weight · tuple_ops` — the weighting
//! [`LedgerSnapshot::weighted`](crate::LedgerSnapshot::weighted) applies
//! to a measured ledger. So a predicted and a measured cost differ only
//! where a shape estimate is wrong, or where the cost model
//! deliberately prices something else: the gaps DESIGN.md lists under
//! "One set of charges" (`crates/optimizer/tests/charge_parity.rs`
//! checks both).
//!
//! Not here: shipping, which the ledger counts in bytes and messages
//! ([`CostLedger::ship`](crate::CostLedger::ship)); the count of UDF
//! invocations ([`CostLedger::udf_call`](crate::CostLedger::udf_call));
//! and the governor's materialized-pages budget, which is not a charge.

use crate::ledger::TUPLE_OPS_PER_PAGE;
use std::ops::{Add, Mul, Sub};

/// Page reads, page writes and tuple operations.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Charge<Q = u64> {
    /// Page reads.
    pub read: Q,
    /// Page writes.
    pub written: Q,
    /// Tuple operations (comparisons, hashes, moves).
    pub tuple_ops: Q,
}

/// A shape quantity: an exact count (`u64`, the executor) or an
/// estimate (`f64`, the cost model). The two impls are the only place
/// the arithmetic differs by type; each keeps the rounding its side has
/// always used.
pub trait Quantity:
    Copy + Default + PartialOrd + Add<Output = Self> + Sub<Output = Self> + Mul<Output = Self>
{
    /// The quantity `n`.
    fn of(n: u64) -> Self;
    /// `⌈self / d⌉`.
    fn ceil_div(self, d: Self) -> Self;
    /// `⌈log₂ self⌉`, for `self > 1`.
    fn ceil_log2(self) -> Self;
    /// Whole pages, `⌈self⌉`.
    fn whole(self) -> u64;
    /// `max(self, floor)`.
    fn at_least(self, floor: Self) -> Self;
}

impl Quantity for u64 {
    fn of(n: u64) -> u64 {
        n
    }
    fn ceil_div(self, d: u64) -> u64 {
        self.div_ceil(d)
    }
    fn ceil_log2(self) -> u64 {
        64 - (self - 1).leading_zeros() as u64
    }
    fn whole(self) -> u64 {
        self
    }
    fn at_least(self, floor: u64) -> u64 {
        self.max(floor)
    }
}

impl Quantity for f64 {
    fn of(n: u64) -> f64 {
        n as f64
    }
    fn ceil_div(self, d: f64) -> f64 {
        (self / d).ceil()
    }
    fn ceil_log2(self) -> f64 {
        self.log2().ceil()
    }
    fn whole(self) -> u64 {
        self.ceil() as u64
    }
    fn at_least(self, floor: f64) -> f64 {
        self.max(floor)
    }
}

/// `n` tuple operations: one per row for a filter, a projection, a
/// Bloom build or probe, a hash distinct's input, an index-nested-loops
/// outer row, an index-ordered scan's output.
pub fn ops<Q: Quantity>(n: Q) -> Charge<Q> {
    Charge {
        tuple_ops: n,
        ..Charge::default()
    }
}

/// A hash aggregate's CPU: per input row, one op for the group key and
/// one per aggregate call.
pub fn aggregate<Q: Quantity>(rows: Q, aggs: usize) -> Charge<Q> {
    ops(rows * Q::of(1 + aggs as u64))
}

/// Reading `pages` pages: a base table's sequential scan, the heap and
/// the B-tree leaves under an index-ordered scan, a temp table, or
/// spilled frames read back.
pub fn reads<Q: Quantity>(pages: Q) -> Charge<Q> {
    Charge {
        read: pages,
        ..Charge::default()
    }
}

/// Materializing `pages` pages (the writes; readers pay [`reads`]): a
/// temp table, or spilled frames.
pub fn writes<Q: Quantity>(pages: Q) -> Charge<Q> {
    Charge {
        written: pages,
        ..Charge::default()
    }
}

/// `pages` page reads and as many writes: one pass over spilled data.
fn io<Q: Quantity>(pages: Q) -> Charge<Q> {
    Charge {
        read: pages,
        written: pages,
        tuple_ops: Q::default(),
    }
}

/// A comparison sort's CPU: `n·⌈log₂ n⌉` tuple ops.
pub fn compares<Q: Quantity>(rows: Q) -> Charge<Q> {
    match rows > Q::of(1) {
        true => ops(rows * rows.ceil_log2()),
        false => Charge::default(),
    }
}

/// Number of merge passes to sort `pages` with `m` buffers:
/// `⌈log_{m−1}(⌈pages/m⌉)⌉`.
pub fn merge_passes(pages: u64, m: u64) -> u64 {
    let fan_in = (m - 1).max(2);
    // The run count before each pass, down to the last single run.
    let runs = std::iter::successors(Some(pages.div_ceil(m)), |&r| {
        (r > 1).then(|| r.div_ceil(fan_in))
    });
    runs.count() as u64 - 1
}

/// External merge sort (or hash partitioning) of `pages` pages under
/// `m` buffers: nothing when they fit; otherwise initial runs take one
/// read and one write of every page, and each of the [`merge_passes`]
/// another — `P·(1 + passes)` reads and as many writes.
pub fn external_sort<Q: Quantity>(pages: Q, m: u64) -> Charge<Q> {
    match pages <= Q::of(m) {
        true => Charge::default(),
        false => io(pages * Q::of(1 + merge_passes(pages.whole(), m))),
    }
}

/// Block nested loops beyond producing its inputs: the inner is
/// rescanned once per further outer block of `M − 2` pages,
/// `(⌈P_outer/(M−2)⌉ − 1)·P_inner` reads (the first scan is the inner
/// plan's own), and one tuple op per compared pair.
pub fn bnl<Q: Quantity>(
    outer_rows: Q,
    outer_pages: Q,
    inner_rows: Q,
    inner_pages: Q,
    m: u64,
) -> Charge<Q> {
    let one = Q::of(1);
    let blocks = outer_pages
        .ceil_div(Q::of(m.saturating_sub(2).max(1)))
        .at_least(one);
    Charge {
        read: (blocks - one) * inner_pages,
        ..ops(outer_rows * inner_rows.at_least(one))
    }
}

/// A hash join's Grace partition pass: when the build (inner) side
/// exceeds `m`, one write and one read of both inputs.
pub fn grace_partition<Q: Quantity>(outer_pages: Q, inner_pages: Q, m: u64) -> Charge<Q> {
    match inner_pages > Q::of(m) {
        true => io(outer_pages + inner_pages),
        false => Charge::default(),
    }
}

/// A hash or merge join's CPU: one op per row of either input (build
/// and probe, or merge) and one per output row.
pub fn join<Q: Quantity>(outer_rows: Q, inner_rows: Q, out_rows: Q) -> Charge<Q> {
    ops(outer_rows + inner_rows + out_rows)
}

/// One index probe: the index pages it reads (1 for a hash bucket, the
/// height of a B-tree; [`Index::probe_pages`](crate::Index::probe_pages))
/// and one heap page per matching row.
pub fn probe<Q: Quantity>(probe_pages: Q, matches: Q) -> Charge<Q> {
    reads(probe_pages + matches)
}

/// Index nested loops beyond producing the outer: per outer row one
/// tuple op, and per outer row with a non-NULL key (`keyed_rows` of
/// them; no index stores NULL, so a NULL key probes nothing) a
/// [`probe`] matching `matches` rows. The executor books the [`ops`]
/// once and each probe as it makes it.
pub fn index_nested_loops<Q: Quantity>(
    outer_rows: Q,
    keyed_rows: Q,
    probe_pages: Q,
    matches: Q,
) -> Charge<Q> {
    Charge {
        read: keyed_rows * probe(probe_pages, matches).read,
        ..ops(outer_rows)
    }
}

/// One invocation of a user-defined function whose cost is
/// `cost_pages` page units, booked as that many pages' worth of tuple
/// ops ([`TUPLE_OPS_PER_PAGE`] each, rounded).
pub fn invocation(cost_pages: f64) -> Charge {
    ops((cost_pages * TUPLE_OPS_PER_PAGE as f64).round() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_pass_counts() {
        assert_eq!(merge_passes(10, 100), 0); // fits after run formation
        assert_eq!(merge_passes(100, 10), 2); // 10 runs, fan-in 9 → 2 passes
        assert_eq!(merge_passes(1000, 10), 3);
    }

    #[test]
    fn both_sides_round_the_way_they_always_have() {
        assert_eq!(compares(1u64), Charge::default());
        assert_eq!(compares(5u64).tuple_ops, 5 * 3);
        assert_eq!(compares(4.5f64).tuple_ops, 4.5 * 3.0);
        assert_eq!(external_sort(10u64, 10), Charge::default());
        assert_eq!(external_sort(40u64, 4).read, 40 * 4);
        assert_eq!(external_sort(39.5f64, 4).written, 39.5 * 4.0);
    }

    #[test]
    fn bnl_rescans_the_inner_per_extra_outer_block() {
        // M = 3 leaves one page per outer block: 10 blocks, 9 rescans.
        let c = bnl(0u64, 10, 0, 5, 3);
        assert_eq!((c.read, c.tuple_ops), (9 * 5, 0));
        assert_eq!(bnl(100.0, 1.0, 100.0, 1.0, 128).read, 0.0);
        assert_eq!(bnl(100.0, 1.0, 0.5, 1.0, 128).tuple_ops, 100.0);
    }

    #[test]
    fn index_nested_loops_is_its_ops_and_one_probe_per_outer_row() {
        // Three outer rows into a height-2 B-tree, 4 heap pages a probe.
        let probes: Charge = (0..3).fold(ops(3), |c, _| {
            let p = probe(2u64, 4);
            Charge {
                read: c.read + p.read,
                ..c
            }
        });
        assert_eq!(probes, index_nested_loops(3u64, 3, 2, 4));
        assert_eq!(index_nested_loops(2.0, 2.0, 1.0, 0.5).read, 3.0);
        // A NULL-key outer row costs its op and no probe.
        let one_null = Charge {
            tuple_ops: probes.tuple_ops + 1,
            ..probes
        };
        assert_eq!(index_nested_loops(4u64, 3, 2, 4), one_null);
        assert_eq!(invocation(2.0), ops(200));
    }

    #[test]
    fn grace_pass_only_when_the_build_side_spills() {
        assert_eq!(grace_partition(1u64, 4, 4), Charge::default());
        let c = grace_partition(1u64, 100, 4);
        assert_eq!((c.read, c.written), (101, 101));
    }
}
