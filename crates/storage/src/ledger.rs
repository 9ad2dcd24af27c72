//! The cost ledger: deterministic accounting of the quantities the
//! paper's cost formulas are written in.
//!
//! Every operator books its page I/Os and tuple operations here as a
//! [`Charge`], and counts its shipped bytes, messages and user-function
//! invocations. Benchmarks read the
//! ledger to report *model-unit* costs (stable across machines) next to
//! wall-clock time, and integration tests assert exact counts — e.g. the
//! §5.3 claim that a local semi-join needs "two scans of the outer and
//! one scan of the inner".

use crate::charge::Charge;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Workspace-wide convention: one page I/O costs as much as this many
/// tuple operations (i.e. the default CPU weight is `1 /
/// TUPLE_OPS_PER_PAGE`). UDF implementations use it to charge their
/// page-unit invocation costs as tuple ops.
pub const TUPLE_OPS_PER_PAGE: u64 = 100;

/// Default CPU weight: the page-unit cost of one tuple operation.
pub const CPU_WEIGHT_DEFAULT: f64 = 1.0 / TUPLE_OPS_PER_PAGE as f64;

/// Shared, thread-safe cost counters.
///
/// All counters are monotone; [`CostLedger::snapshot`] captures a point
/// and [`LedgerSnapshot::delta`] computes charges between two points.
#[derive(Debug, Default)]
pub struct CostLedger {
    page_reads: AtomicU64,
    page_writes: AtomicU64,
    tuple_ops: AtomicU64,
    bytes_shipped: AtomicU64,
    messages: AtomicU64,
    udf_calls: AtomicU64,
}

impl CostLedger {
    /// A fresh ledger with all counters at zero.
    pub fn new() -> Arc<Self> {
        Arc::new(CostLedger::default())
    }

    /// Books `charge`: the one way page I/O and tuple ops reach the
    /// ledger (see [`crate::charge`]). Only the non-zero fields are
    /// added, so a one-page booking is one atomic add.
    pub fn book(&self, charge: Charge) {
        for (counter, n) in [
            (&self.page_reads, charge.read),
            (&self.page_writes, charge.written),
            (&self.tuple_ops, charge.tuple_ops),
        ] {
            if n != 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Charges `bytes` shipped across the network in one message.
    pub fn ship(&self, bytes: u64) {
        self.bytes_shipped.fetch_add(bytes, Ordering::Relaxed);
        self.messages.fetch_add(1, Ordering::Relaxed);
    }

    /// Charges one user-defined-function invocation.
    pub fn udf_call(&self) {
        self.udf_calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Captures the current counter values.
    pub fn snapshot(&self) -> LedgerSnapshot {
        LedgerSnapshot {
            page_reads: self.page_reads.load(Ordering::Relaxed),
            page_writes: self.page_writes.load(Ordering::Relaxed),
            tuple_ops: self.tuple_ops.load(Ordering::Relaxed),
            bytes_shipped: self.bytes_shipped.load(Ordering::Relaxed),
            messages: self.messages.load(Ordering::Relaxed),
            udf_calls: self.udf_calls.load(Ordering::Relaxed),
        }
    }
}

/// An immutable point-in-time copy of ledger counters, and the unit in
/// which measured costs are reported.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LedgerSnapshot {
    /// Logical page reads.
    pub page_reads: u64,
    /// Logical page writes.
    pub page_writes: u64,
    /// Tuple operations (comparisons / hashes / moves).
    pub tuple_ops: u64,
    /// Bytes shipped between sites.
    pub bytes_shipped: u64,
    /// Network messages sent.
    pub messages: u64,
    /// User-defined-function invocations.
    pub udf_calls: u64,
}

impl LedgerSnapshot {
    /// Charges accumulated since `earlier` (component-wise difference).
    pub fn delta(&self, earlier: &LedgerSnapshot) -> LedgerSnapshot {
        LedgerSnapshot {
            page_reads: self.page_reads - earlier.page_reads,
            page_writes: self.page_writes - earlier.page_writes,
            tuple_ops: self.tuple_ops - earlier.tuple_ops,
            bytes_shipped: self.bytes_shipped - earlier.bytes_shipped,
            messages: self.messages - earlier.messages,
            udf_calls: self.udf_calls - earlier.udf_calls,
        }
    }

    /// Total page I/Os (reads + writes).
    pub fn page_ios(&self) -> u64 {
        self.page_reads + self.page_writes
    }

    /// Collapses the snapshot to one scalar cost using the same weights
    /// the optimizer uses, so measured and predicted costs are in the
    /// same unit (see `fj-optimizer::cost::CostParams`).
    pub fn weighted(&self, cpu_weight: f64, net_per_byte: f64, net_per_msg: f64) -> f64 {
        self.page_ios() as f64
            + cpu_weight * self.tuple_ops as f64
            + net_per_byte * self.bytes_shipped as f64
            + net_per_msg * self.messages as f64
    }
}

impl fmt::Display for LedgerSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reads={} writes={} tupleops={} shipped={}B msgs={} udf={}",
            self.page_reads,
            self.page_writes,
            self.tuple_ops,
            self.bytes_shipped,
            self.messages,
            self.udf_calls
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::charge;

    #[test]
    fn counters_accumulate() {
        let l = CostLedger::new();
        l.book(charge::reads(3));
        l.book(charge::reads(2));
        l.book(charge::writes(1));
        l.book(charge::ops(10));
        l.ship(100);
        l.ship(50);
        l.udf_call();
        let s = l.snapshot();
        assert_eq!(s.page_reads, 5);
        assert_eq!(s.page_writes, 1);
        assert_eq!(s.page_ios(), 6);
        assert_eq!(s.tuple_ops, 10);
        assert_eq!(s.bytes_shipped, 150);
        assert_eq!(s.messages, 2);
        assert_eq!(s.udf_calls, 1);
    }

    #[test]
    fn delta_between_snapshots() {
        let l = CostLedger::new();
        l.book(charge::reads(4));
        let before = l.snapshot();
        l.book(charge::reads(6));
        l.book(charge::ops(2));
        let d = l.snapshot().delta(&before);
        assert_eq!(d.page_reads, 6);
        assert_eq!(d.tuple_ops, 2);
        assert_eq!(d.page_writes, 0);
    }

    #[test]
    fn weighted_cost_combines_dimensions() {
        let s = LedgerSnapshot {
            page_reads: 10,
            page_writes: 5,
            tuple_ops: 100,
            bytes_shipped: 1000,
            messages: 2,
            udf_calls: 0,
        };
        let c = s.weighted(0.01, 0.001, 1.0);
        assert!((c - (15.0 + 1.0 + 1.0 + 2.0)).abs() < 1e-9);
    }

    #[test]
    fn ledger_is_shareable_across_threads() {
        let l = CostLedger::new();
        let l2 = Arc::clone(&l);
        let h = std::thread::spawn(move || l2.book(charge::reads(7)));
        l.book(charge::reads(3));
        h.join().unwrap();
        assert_eq!(l.snapshot().page_reads, 10);
    }

    /// The charge totals two concurrently charging threads produce must
    /// reconcile exactly with the serial sum — the property that lets
    /// parallel operators keep measured costs identical to the System-R
    /// formulas (no charge may be lost to a data race).
    #[test]
    fn two_thread_charges_reconcile_exactly() {
        const PER_THREAD: u64 = 10_000;
        let l = CostLedger::new();
        let before = l.snapshot();
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let l = Arc::clone(&l);
                std::thread::spawn(move || {
                    for _ in 0..PER_THREAD {
                        l.book(Charge {
                            read: 1,
                            written: 2,
                            tuple_ops: 3,
                        });
                        l.ship(4);
                        l.udf_call();
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let d = l.snapshot().delta(&before);
        assert_eq!(d.page_reads, 2 * PER_THREAD);
        assert_eq!(d.page_writes, 4 * PER_THREAD);
        assert_eq!(d.tuple_ops, 6 * PER_THREAD);
        assert_eq!(d.bytes_shipped, 8 * PER_THREAD);
        assert_eq!(d.messages, 2 * PER_THREAD);
        assert_eq!(d.udf_calls, 2 * PER_THREAD);
        // And the weighted scalar cost equals the serial formula.
        let weighted = d.weighted(CPU_WEIGHT_DEFAULT, 0.001, 1.0);
        let serial = (2.0 + 4.0) * PER_THREAD as f64
            + CPU_WEIGHT_DEFAULT * 6.0 * PER_THREAD as f64
            + 0.001 * 8.0 * PER_THREAD as f64
            + 1.0 * 2.0 * PER_THREAD as f64;
        assert!((weighted - serial).abs() < 1e-6);
    }
}
