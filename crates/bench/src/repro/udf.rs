//! U1 — §5.2: joining a user-defined relation.
//!
//! An expensive function joined to a skewed outer (many duplicate
//! argument values). Strategies:
//!
//! * **repeated probe** — invoke once per outer tuple;
//! * **memoized probe** — function caching \[HS93\];
//! * **filter join** — "consecutive procedure calls": invoke once per
//!   *distinct* argument ("there will be no duplicate function
//!   invocations, because of the elimination of duplicates in the
//!   filter set").

use super::technique::{self, Join, Technique};
use crate::report::Report;
use fj_core::exec::context::DEFAULT_MEMORY_PAGES;
use fj_core::{Catalog, DataType, MemoUdf, Schema, TableBuilder, TableFunction, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// One strategy's measurements.
#[derive(Debug, Clone)]
pub struct UdfOutcome {
    /// Strategy name.
    pub strategy: &'static str,
    /// Actual function invocations performed (the ledger's `udf_calls`).
    pub invocations: u64,
    /// Measured weighted cost.
    pub cost: f64,
    /// Join output rows.
    pub rows: usize,
}

fn credit_fn() -> TableFunction {
    let schema =
        Schema::from_pairs(&[("cust", DataType::Int), ("credit", DataType::Int)]).into_ref();
    // 3 page-units per call: an expensive lookup.
    TableFunction::new("credit", schema, 1, 3.0, |args| {
        let c = args[0].as_int().unwrap_or(0);
        vec![vec![Value::Int((c * 7919) % 850)]]
    })
}

fn outer_catalog(n_outer: usize, distinct_args: usize, seed: u64) -> Catalog {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cat = Catalog::new();
    cat.add_table(
        TableBuilder::new("Txn")
            .column("cust", DataType::Int)
            .column("amount", DataType::Double)
            .rows((0..n_outer).map(|_| {
                vec![
                    Value::Int(rng.gen_range(0..distinct_args) as i64),
                    Value::Double(rng.gen_range(1.0..500.0)),
                ]
            }))
            .build()
            .expect("generated Txn conforms")
            .into_ref(),
    );
    cat
}

/// Runs the three strategies: the repeated probe over the raw and the
/// memoized function, and the Filter Join.
pub fn strategies(n_outer: usize, distinct_args: usize) -> Vec<UdfOutcome> {
    let join = Join {
        outer: "Txn",
        inner: "credit",
        key: "cust",
    };
    [
        ("repeated probe", Technique::Probe, false),
        ("memoized probe", Technique::Probe, true),
        ("filter join", Technique::FilterJoin, false),
    ]
    .into_iter()
    .map(|(strategy, t, memo)| {
        let mut cat = outer_catalog(n_outer, distinct_args, 77);
        if memo {
            cat.add_udf("credit", Arc::new(MemoUdf::new(credit_fn())));
        } else {
            cat.add_udf("credit", Arc::new(credit_fn()));
        }
        let m = technique::run(&Arc::new(cat), join, t, DEFAULT_MEMORY_PAGES)
            .expect("udf strategy runs")
            .expect("applies to a UDF");
        UdfOutcome {
            strategy,
            invocations: m.ledger.udf_calls,
            cost: m.cost,
            rows: m.rel.rows.len(),
        }
    })
    .collect()
}

/// The printable report.
pub fn run(n_outer: usize, distinct_args: usize) -> Report {
    let outcomes = strategies(n_outer, distinct_args);
    let mut r = Report::new(
        format!("U1 (§5.2): UDF join strategies ({n_outer} outer tuples, {distinct_args} distinct args)"),
        &["strategy", "invocations", "cost", "rows"],
    );
    for o in &outcomes {
        r.row(vec![
            o.strategy.into(),
            o.invocations.to_string(),
            Report::num(o.cost),
            o.rows.to_string(),
        ]);
    }
    r.note("filter join and memoized probe both invoke once per distinct argument");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invocation_counts_match_the_paper_claims() {
        let out = strategies(2000, 50);
        let probe = &out[0];
        let memo = &out[1];
        let fj = &out[2];
        assert_eq!(probe.invocations, 2000, "one call per outer tuple");
        assert_eq!(memo.invocations, 50, "one real call per distinct arg");
        assert_eq!(fj.invocations, 50, "no duplicate invocations (§5.2)");
        // All strategies produce the identical join.
        assert_eq!(probe.rows, 2000);
        assert_eq!(memo.rows, 2000);
        assert_eq!(fj.rows, 2000);
    }

    #[test]
    fn filter_join_much_cheaper_than_raw_probe() {
        let out = strategies(2000, 50);
        assert!(
            out[2].cost < out[0].cost / 5.0,
            "filter join {} vs probe {}",
            out[2].cost,
            out[0].cost
        );
    }
}
