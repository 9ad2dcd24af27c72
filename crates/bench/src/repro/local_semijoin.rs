//! L1 — §5.3: the Filter Join on plain stored relations.
//!
//! "Assume that the filter set is small enough to fit in memory. It can
//! be created in a single scan of the outer relation. ... So in certain
//! situations, the join can be performed with two scans of the outer
//! and one scan of the inner, which may be much cheaper than any of the
//! other join methods."
//!
//! We run the four join methods with a tiny buffer pool (so full
//! computation spills) and verify both the ranking and the exact page
//! pattern of the local semi-join.

use super::technique::{self, Technique};
use crate::report::Report;
use crate::workloads::{orders_customers, ORDERS_CUSTOMERS as JOIN};
use fj_core::algebra::JoinKind;
use fj_core::{col, Catalog, PhysPlan};
use std::sync::Arc;

/// One method's measurements.
#[derive(Debug, Clone)]
pub struct MethodOutcome {
    /// Method name.
    pub method: &'static str,
    /// Page reads.
    pub reads: u64,
    /// Page writes.
    pub writes: u64,
    /// Weighted cost.
    pub cost: f64,
}

/// Runs all methods under a `memory_pages`-page buffer pool. The hash
/// join and the local semi-join are Figure 6's full computation and
/// filter join over a stored relation; the other two are L1's own.
pub fn methods(
    n_orders: usize,
    n_customers: usize,
    referenced: usize,
    memory_pages: u64,
) -> (Vec<MethodOutcome>, u64, u64) {
    let (orders, customers) = orders_customers(n_orders, n_customers, referenced, 31);
    let (op, ip) = (orders.page_count(), customers.page_count());
    let mut cat = Catalog::new();
    cat.add_table(orders.into_ref());
    cat.add_table(customers.into_ref());
    let cat = Arc::new(cat);
    let matrix = |t| {
        technique::plan(&cat, JOIN, t)
            .expect("plans")
            .expect("applies")
    };
    let plans = [
        (
            "block nested loops",
            PhysPlan::NestedLoops {
                outer: JOIN.outer_scan().boxed(),
                inner: JOIN.inner_scan().boxed(),
                predicate: Some(col(JOIN.outer_key()).eq(col(JOIN.inner_key()))),
                kind: JoinKind::Inner,
            },
        ),
        ("hash join", matrix(Technique::Full)),
        (
            "sort-merge join",
            PhysPlan::MergeJoin {
                outer: JOIN.outer_scan().boxed(),
                inner: JOIN.inner_scan().boxed(),
                keys: JOIN.keys(),
                residual: None,
            },
        ),
        (
            "local semi-join (filter join)",
            matrix(Technique::FilterJoin),
        ),
    ];
    let mut expected_rows = None;
    let out = plans.into_iter().map(|(method, plan)| {
        let m = technique::measure(&cat, &plan, memory_pages).expect("join method runs");
        let rows = *expected_rows.get_or_insert(m.rel.rows.len());
        assert_eq!(rows, m.rel.rows.len(), "{method} changed the answer");
        MethodOutcome {
            method,
            reads: m.ledger.page_reads,
            writes: m.ledger.page_writes,
            cost: m.cost,
        }
    });
    (out.collect(), op, ip)
}

/// The printable report.
pub fn run(n_orders: usize, n_customers: usize, referenced: usize) -> Report {
    let mem = 8;
    let (out, op, ip) = methods(n_orders, n_customers, referenced, mem);
    let mut r = Report::new(
        format!(
            "L1 (§5.3): local semi-join vs classic methods ({n_orders} orders [{op} pages], {n_customers} customers [{ip} pages], {referenced} referenced keys, M={mem})"
        ),
        &["method", "page reads", "page writes", "cost"],
    );
    for o in &out {
        r.row(vec![
            o.method.into(),
            o.reads.to_string(),
            o.writes.to_string(),
            Report::num(o.cost),
        ]);
    }
    r.note(format!(
        "semi-join page pattern: two scans of the outer ({op}+{op}) + one of the inner ({ip}) + small filter temp"
    ));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_scans_of_outer_one_of_inner() {
        let (out, op, ip) = methods(4000, 20000, 20, 8);
        let semi = out.last().unwrap();
        // Reads: outer scan (filter build) + outer scan (final join) +
        // inner scan + filter temp read; the filter set is tiny (1 page).
        let expected = 2 * op + ip;
        assert!(
            semi.reads >= expected && semi.reads <= expected + 4,
            "semi-join reads {} vs expected ~{expected}",
            semi.reads
        );
        assert!(semi.writes <= 2, "filter temp is small");
    }

    #[test]
    fn semi_join_beats_spilling_methods_with_tiny_memory() {
        let (out, _, _) = methods(4000, 20000, 20, 4);
        let hash = out.iter().find(|o| o.method == "hash join").unwrap();
        let semi = out.last().unwrap();
        assert!(
            semi.cost < hash.cost,
            "semi {} should beat spilling hash {}",
            semi.cost,
            hash.cost
        );
    }
}
