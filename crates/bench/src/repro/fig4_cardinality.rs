//! Figure 4: restricted-view cardinality vs filter-set selectivity,
//! and the straight-line fit.
//!
//! The paper's observation: "the cardinality of the result of the
//! filtered inner relation is directly proportional to the selectivity
//! of the filter set". We measure the *actual* cardinality of the
//! restricted `DepAvgSal` view at 11 selectivities and compare with the
//! straight line fitted from a handful of equivalence classes.

use crate::report::Report;
use crate::workloads::{emp_dept, EmpDeptConfig};
use fj_core::exec::context::TempTable;
use fj_core::optimizer::ParametricFit;
use fj_core::storage::{Schema, Tuple};
use fj_core::{CostParams, DataType, ExecCtx, Value};
use std::sync::Arc;

/// One measured point.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Filter-set selectivity.
    pub selectivity: f64,
    /// Actual rows of the restricted view (materialized result).
    pub actual: f64,
    /// Rows reported by the root of the operator trace of the same
    /// execution — must always equal `actual`.
    pub traced: f64,
    /// Straight-line estimate.
    pub fitted: f64,
}

/// Executes the restricted view at `selectivity` and returns the actual
/// output cardinality.
pub fn actual_cardinality(
    catalog: &Arc<fj_core::Catalog>,
    n_depts: usize,
    selectivity: f64,
) -> f64 {
    traced_cardinality(catalog, n_depts, selectivity).0
}

/// Executes the restricted view at `selectivity` with per-operator
/// tracing attached and returns `(materialized rows, trace-root rows)`.
/// The pair cross-checks the observability layer against the result it
/// observes: any disagreement means the tracer is lying.
pub fn traced_cardinality(
    catalog: &Arc<fj_core::Catalog>,
    n_depts: usize,
    selectivity: f64,
) -> (f64, f64) {
    let collector = Arc::new(fj_core::TraceCollector::new());
    let ctx = ExecCtx::new(Arc::clone(catalog)).with_tracer(Arc::clone(&collector));
    let f_rows = ((n_depts as f64) * selectivity).round() as usize;
    let filter_schema = Schema::from_pairs(&[("k0", DataType::Int)]).into_ref();
    let rows: Vec<Tuple> = (0..f_rows)
        .map(|i| Tuple::new(vec![Value::Int(i as i64)]))
        .collect();
    ctx.register_temp("__f4", TempTable::new(filter_schema.clone(), rows));
    let restricted = fj_core::algebra::restricted_inner(
        catalog,
        "DepAvgSal",
        &["did".to_string()],
        "__f4",
        &filter_schema,
    )
    .expect("restriction builds");
    let phys = fj_core::exec::lower::lower(&restricted, catalog).expect("lowers");
    let rel = phys.execute(&ctx).expect("runs");
    let traced = collector
        .finish()
        .map(|t| t.rows_out() as f64)
        .unwrap_or(f64::NAN);
    (rel.rows.len() as f64, traced)
}

/// Executes the restricted view at `selectivity` and returns the
/// *measured* weighted cost of that execution (used by the Figure 5
/// experiment to score the cost step function).
pub fn actual_cost(catalog: &Arc<fj_core::Catalog>, n_depts: usize, selectivity: f64) -> f64 {
    let ctx = ExecCtx::new(Arc::clone(catalog));
    let f_rows = ((n_depts as f64) * selectivity).round() as usize;
    let filter_schema = Schema::from_pairs(&[("k0", DataType::Int)]).into_ref();
    let rows: Vec<Tuple> = (0..f_rows)
        .map(|i| Tuple::new(vec![Value::Int(i as i64)]))
        .collect();
    ctx.register_temp("__f4", TempTable::new(filter_schema.clone(), rows));
    let restricted = fj_core::algebra::restricted_inner(
        catalog,
        "DepAvgSal",
        &["did".to_string()],
        "__f4",
        &filter_schema,
    )
    .expect("restriction builds");
    let phys = fj_core::exec::lower::lower(&restricted, catalog).expect("lowers");
    let before = ctx.ledger.snapshot();
    phys.execute(&ctx).expect("runs");
    ctx.ledger
        .snapshot()
        .delta(&before)
        .weighted(fj_core::storage::CPU_WEIGHT_DEFAULT, 0.0, 0.0)
}

/// Measures actuals and the fit at `classes` equivalence classes.
pub fn points(n_emps: usize, n_depts: usize, classes: usize) -> (Vec<Point>, ParametricFit) {
    let catalog = Arc::new(emp_dept(EmpDeptConfig {
        n_emps,
        n_depts,
        ..Default::default()
    }));
    let mut invocations = 0;
    let fit = ParametricFit::fit(
        &catalog,
        CostParams::default(),
        "DepAvgSal",
        &["did".to_string()],
        classes,
        &mut invocations,
    )
    .expect("fit succeeds");
    let pts = (0..=10)
        .map(|i| {
            let s = i as f64 / 10.0;
            let (actual, traced) = traced_cardinality(&catalog, n_depts, s);
            Point {
                selectivity: s,
                actual,
                traced,
                fitted: fit.cardinality(s),
            }
        })
        .collect();
    (pts, fit)
}

/// The printable report.
pub fn run(n_emps: usize, n_depts: usize) -> Report {
    let (pts, fit) = points(n_emps, n_depts, 4);
    let mut r = Report::new(
        format!(
            "Figure 4: restricted-view cardinality vs filter selectivity ({n_emps} emps / {n_depts} depts, 4 classes)"
        ),
        &[
            "selectivity",
            "actual |R'k|",
            "traced |R'k|",
            "fitted |R'k|",
            "rel. error",
        ],
    );
    let mut max_err: f64 = 0.0;
    let mut trace_agrees = true;
    for p in &pts {
        let err = if p.actual > 0.0 {
            (p.fitted - p.actual).abs() / p.actual
        } else {
            (p.fitted - p.actual).abs() / n_depts as f64
        };
        max_err = max_err.max(err);
        trace_agrees &= p.traced == p.actual;
        r.row(vec![
            format!("{:.1}", p.selectivity),
            Report::num(p.actual),
            Report::num(p.traced),
            Report::num(p.fitted),
            format!("{:.1}%", err * 100.0),
        ]);
    }
    r.note(format!(
        "line: rows(s) = {:.1}·s + {:.1}; max relative error {:.1}%; trace agrees with result: {}",
        fit.card_slope,
        fit.card_intercept,
        max_err * 100.0,
        if trace_agrees { "yes" } else { "NO" }
    ));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actual_cardinality_is_linear_in_selectivity() {
        let catalog = Arc::new(emp_dept(EmpDeptConfig {
            n_emps: 5000,
            n_depts: 500,
            ..Default::default()
        }));
        let lo = actual_cardinality(&catalog, 500, 0.2);
        let hi = actual_cardinality(&catalog, 500, 0.8);
        // Every department has employees at this scale, so the view has
        // one group per filtered department: exactly 100 and 400.
        assert_eq!(lo, 100.0);
        assert_eq!(hi, 400.0);
    }

    #[test]
    fn trace_root_cardinality_matches_materialized_result() {
        let catalog = Arc::new(emp_dept(EmpDeptConfig {
            n_emps: 5000,
            n_depts: 500,
            ..Default::default()
        }));
        for s in [0.0, 0.3, 1.0] {
            let (actual, traced) = traced_cardinality(&catalog, 500, s);
            assert_eq!(traced, actual, "trace disagrees at selectivity {s}");
        }
    }

    #[test]
    fn fit_tracks_actuals_tightly() {
        let (pts, _) = points(5000, 500, 4);
        for p in &pts {
            let tol = 0.15 * 500.0; // 15% of the domain
            assert!(
                (p.fitted - p.actual).abs() <= tol,
                "at s={} fitted {} vs actual {}",
                p.selectivity,
                p.fitted,
                p.actual
            );
        }
    }
}
