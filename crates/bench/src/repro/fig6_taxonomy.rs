//! Figure 6: the cross-applicability matrix of join techniques —
//! measured.
//!
//! Rows are the paper's strategy families (repeated probe, repeated
//! probe with caching, full computation, filter join, lossy filter);
//! columns are the relation kinds (stored relation in a centralized
//! DBMS, remote relation in a distributed DBMS, view/table expression,
//! user-defined relation). Each applicable cell runs the technique on a
//! common-shape workload (outer of `N_OUTER` tuples referencing a small
//! key subset) and reports the measured weighted cost. Cells the paper
//! leaves empty — or that decorrelating engines like ours never execute
//! (correlated view iteration) — print `—`. The plans come from
//! [`technique`]; this module supplies each column's catalog.

use super::technique::{self, Join, Technique};
use crate::report::Report;
use crate::workloads::{orders_customers, two_site, ORDERS_CUSTOMERS};
use fj_core::exec::context::DEFAULT_MEMORY_PAGES;
use fj_core::{
    col, AggCall, AggFunc, Catalog, DataType, LogicalPlan, MemoUdf, NetworkModel, Schema,
    TableFunction, Value, ViewDef,
};
use std::sync::Arc;

const N_OUTER: usize = 2_000;
const N_INNER: usize = 10_000;
const REFERENCED: usize = 50;

const KINDS: [&str; 4] = ["stored", "remote", "view", "udf"];

/// Row labels, column labels, and the `grid[strategy][kind]` costs.
pub type TaxonomyMatrix = (Vec<&'static str>, Vec<&'static str>, Vec<Vec<Option<f64>>>);

/// The measured matrix: `grid[strategy][kind]`, `None` = not
/// applicable.
pub fn matrix() -> TaxonomyMatrix {
    let columns: Vec<_> = KINDS.iter().map(|kind| column(kind)).collect();
    let grid = (0..5)
        .map(|row| columns.iter().map(|c| c[row]).collect())
        .collect();
    let strategies = vec![
        "repeated probe",
        "  w/ caching",
        "full computation",
        "filter join",
        "lossy filter",
    ];
    (strategies, KINDS.to_vec(), grid)
}

/// Column `kind`'s five cells, top to bottom.
fn column(kind: &str) -> [Option<f64>; 5] {
    // §5.3's setting for stored relations: a buffer pool small enough
    // that full-computation methods spill, while the filter set stays
    // memory-resident.
    let memory = if kind == "stored" {
        8
    } else {
        DEFAULT_MEMORY_PAGES
    };
    let lossy = match kind {
        "remote" => Technique::lossy_for(N_OUTER),
        _ => Technique::Lossy { bits: 4096 },
    };
    let cell = |technique, cached| {
        // Caching adds nothing to an index probe or a fetch.
        if cached && kind != "udf" {
            return None;
        }
        let (catalog, join) = catalog(kind, N_OUTER, N_INNER, REFERENCED, cached);
        let m = technique::run(&catalog, join, technique, memory).expect("taxonomy cell runs")?;
        assert!(!m.rel.rows.is_empty(), "taxonomy cell produced no rows");
        Some(m.cost)
    };
    [
        cell(Technique::Probe, false),
        cell(Technique::Probe, true),
        cell(Technique::Full, false),
        cell(Technique::FilterJoin, false),
        cell(lossy, false),
    ]
}

/// Column `kind`'s catalog (a UDF column `cached` behind `MemoUdf`) and
/// the join its cells compute: orders against customers stored here or
/// at site 1 on a LAN, a per-customer average-score view, or a rating
/// function.
pub(crate) fn catalog(
    kind: &str,
    n_outer: usize,
    n_inner: usize,
    referenced: usize,
    cached: bool,
) -> (Arc<Catalog>, Join) {
    let (orders, mut customers) = orders_customers(n_outer, n_inner, referenced, 11);
    if kind == "remote" {
        customers.create_hash_index(0).expect("index on cust");
        let cat = two_site(orders, customers, NetworkModel::lan());
        return (Arc::new(cat), ORDERS_CUSTOMERS);
    }
    let mut cat = Catalog::new();
    cat.add_table(orders.into_ref());
    let join = match kind {
        "stored" => {
            customers.create_hash_index(0).expect("index on cust");
            cat.add_table(customers.into_ref());
            ORDERS_CUSTOMERS
        }
        "view" => {
            cat.add_table(customers.into_ref());
            let plan = LogicalPlan::scan("Customers", "C")
                .aggregate(
                    vec!["C.cust".into()],
                    vec![AggCall::new(AggFunc::Avg, "C.score", "avgscore")],
                )
                .project(vec![
                    (col("C.cust"), "cust".into()),
                    (col("avgscore"), "avgscore".into()),
                ]);
            let schema =
                Schema::from_pairs(&[("cust", DataType::Int), ("avgscore", DataType::Double)]);
            cat.add_view(ViewDef {
                name: "CustScore".into(),
                plan: plan.into_ref(),
                schema: schema.into_ref(),
            });
            Join {
                inner: "CustScore",
                ..ORDERS_CUSTOMERS
            }
        }
        "udf" => {
            let schema = Schema::from_pairs(&[("cust", DataType::Int), ("rating", DataType::Int)]);
            let domain = (0..n_inner as i64).map(|i| vec![Value::Int(i)]).collect();
            let rating = TableFunction::new("rating", schema.into_ref(), 1, 0.5, |args| {
                vec![vec![Value::Int(args[0].as_int().unwrap_or(0) % 5)]]
            })
            .with_domain(domain);
            if cached {
                cat.add_udf("rating", Arc::new(MemoUdf::new(rating)));
            } else {
                cat.add_udf("rating", Arc::new(rating));
            }
            Join {
                inner: "rating",
                ..ORDERS_CUSTOMERS
            }
        }
        _ => unreachable!("unknown Figure 6 column {kind}"),
    };
    (Arc::new(cat), join)
}

/// The printable report.
pub fn run() -> Report {
    let (strategies, kinds, grid) = matrix();
    let mut headers = vec!["strategy"];
    headers.extend(kinds.iter().copied());
    let mut r = Report::new(
        format!(
            "Figure 6: join-technique matrix (measured cost, page units; outer {N_OUTER}, inner {N_INNER}, {REFERENCED} referenced keys)"
        ),
        &headers,
    );
    for (s, row) in strategies.iter().zip(&grid) {
        let mut cells = vec![s.to_string()];
        cells.extend(row.iter().map(|c| match c {
            Some(v) => Report::num(*v),
            None => "—".to_string(),
        }));
        r.row(cells);
    }
    r.note("— = not applicable (see module docs); filter join should win every column at this selectivity");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_join_wins_every_applicable_column() {
        let (_, _, grid) = matrix();
        let full = &grid[2];
        let fj = &grid[3];
        for (kind, (full_c, fj_c)) in full.iter().zip(fj).enumerate() {
            if let (Some(f), Some(j)) = (full_c, fj_c) {
                assert!(
                    j < f,
                    "filter join {j} should beat full computation {f} in column {kind}"
                );
            }
        }
    }

    #[test]
    fn caching_beats_raw_probe_for_udfs() {
        let [raw, cached, ..] = column("udf");
        let (raw, cached) = (raw.unwrap(), cached.unwrap());
        assert!(
            cached < raw,
            "cached probe {cached} should beat raw probe {raw}"
        );
    }
}
