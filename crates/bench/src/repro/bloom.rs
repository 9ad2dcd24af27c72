//! B1 — lossy filter sets (§3.2, Appendix A): Bloom filter size vs
//! false-positive rate vs shipped bytes vs total cost, against the
//! exact filter set, in the distributed setting where the trade-off
//! bites (a Bloom filter ships at a *fixed* size; the exact set scales
//! with its cardinality but admits no false positives).

use super::technique::{self, Technique};
use crate::report::Report;
use crate::workloads::{orders_customers, two_site, ORDERS_CUSTOMERS as JOIN};
use fj_core::exec::context::DEFAULT_MEMORY_PAGES;
use fj_core::exec::TempStep;
use fj_core::{NetworkModel, PhysPlan};
use std::sync::Arc;

/// One filter-implementation outcome.
#[derive(Debug, Clone)]
pub struct BloomOutcome {
    /// Label ("exact" or "bloom Nb").
    pub label: String,
    /// Bytes shipped in total (filter out + survivors back).
    pub bytes_shipped: u64,
    /// Inner tuples surviving the filter (false positives inflate
    /// this).
    pub survivors: usize,
    /// Total weighted cost.
    pub cost: f64,
}

/// Runs the exact filter and Bloom filters of several sizes, each as one
/// Filter Join over a WAN. The restricted inner is materialized at the
/// query site before the final join, and the survivors are the rows the
/// trace shows it shipping home.
pub fn sweep(
    n_orders: usize,
    n_customers: usize,
    referenced: usize,
    bloom_bits: &[u64],
) -> Vec<BloomOutcome> {
    let (orders, customers) = orders_customers(n_orders, n_customers, referenced, 13);
    let catalog = Arc::new(two_site(orders, customers, NetworkModel::wan()));
    let lossy = bloom_bits
        .iter()
        .map(|&bits| (format!("bloom {bits}b"), Technique::Lossy { bits }));
    let run_one = |(label, technique)| {
        let (step, restricted) = technique::filter_join(&catalog, JOIN, technique)
            .expect("filter builds")
            .expect("applies to a remote table");
        let shipped_home = restricted.node_label();
        let plan = PhysPlan::WithTemp {
            steps: vec![step],
            body: PhysPlan::WithTemp {
                steps: vec![TempStep::Materialize {
                    name: "survivors".into(),
                    plan: restricted,
                }],
                body: JOIN
                    .hash_join(PhysPlan::TempScan {
                        name: "survivors".into(),
                        alias: String::new(),
                    })
                    .boxed(),
            }
            .boxed(),
        };
        let m =
            technique::measure(&catalog, &plan, DEFAULT_MEMORY_PAGES).expect("bloom variant runs");
        assert_eq!(m.rel.rows.len(), n_orders, "join answer preserved");
        let mut shipped = Vec::new();
        let trace = m.trace.as_ref().expect("measure traces");
        trace.root.walk(&mut |n| {
            if n.stats.label == shipped_home {
                shipped.push(n.stats.rows_out as usize);
            }
        });
        let [survivors] = shipped[..] else {
            panic!("expected one `{shipped_home}` node in the trace, found {shipped:?}");
        };
        BloomOutcome {
            label,
            bytes_shipped: m.ledger.bytes_shipped,
            survivors,
            cost: m.cost,
        }
    };
    std::iter::once(("exact".to_string(), Technique::FilterJoin))
        .chain(lossy)
        .map(run_one)
        .collect()
}

/// The printable report.
pub fn run(n_orders: usize, n_customers: usize, referenced: usize) -> Report {
    let outcomes = sweep(
        n_orders,
        n_customers,
        referenced,
        &[256, 1024, 4096, 65_536],
    );
    let mut r = Report::new(
        format!(
            "B1: exact vs lossy (Bloom) filter sets on a WAN ({n_orders} orders, {n_customers} customers, {referenced} referenced)"
        ),
        &["filter", "bytes shipped", "survivors", "fp tuples", "cost"],
    );
    for o in &outcomes {
        r.row(vec![
            o.label.clone(),
            o.bytes_shipped.to_string(),
            o.survivors.to_string(),
            (o.survivors.saturating_sub(referenced)).to_string(),
            Report::num(o.cost),
        ]);
    }
    r.note("small Bloom filters ship less but let false positives through; saturation makes them useless");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bigger_blooms_fewer_false_positives() {
        let out = sweep(500, 5000, 20, &[128, 16_384]);
        let small = &out[1];
        let big = &out[2];
        assert!(
            big.survivors <= small.survivors,
            "16k-bit bloom {} survivors vs 128-bit {}",
            big.survivors,
            small.survivors
        );
        // The exact filter admits exactly the referenced keys.
        assert_eq!(out[0].survivors, 20);
    }

    #[test]
    fn saturated_bloom_passes_everything() {
        let out = sweep(500, 5000, 400, &[64]);
        // 400 keys into 64 bits: saturated, nearly everything survives.
        assert!(out[1].survivors > 4000, "got {}", out[1].survivors);
    }
}
