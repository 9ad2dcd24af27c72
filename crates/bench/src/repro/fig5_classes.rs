//! Figure 5: equivalence classes as the accuracy/effort knob.
//!
//! "The greater the number of equivalence classes, the more the
//! complexity involved, but of course, the greater the accuracy of the
//! cost estimates. This provides a performance 'knob'."
//!
//! We sweep the class count and report: nested estimator invocations
//! (the optimization-time effort), fit wall time, and the cost-estimate
//! error of the fitted step function against the *measured* cost of the
//! restricted view at out-of-sample selectivities.

use crate::report::Report;
use crate::repro::fig4_cardinality::actual_cost;
use crate::workloads::{emp_dept, EmpDeptConfig};
use fj_core::optimizer::ParametricFit;
use fj_core::CostParams;
use std::sync::Arc;
use std::time::Instant;

/// One class-count outcome.
#[derive(Debug, Clone, Copy)]
pub struct KnobPoint {
    /// Equivalence classes probed.
    pub classes: usize,
    /// Nested estimator invocations (= classes).
    pub invocations: u64,
    /// Wall time to fit, microseconds.
    pub fit_micros: u128,
    /// Mean relative error of the cost step function at out-of-sample
    /// selectivities.
    pub mean_cost_error: f64,
}

/// Sweeps the knob.
pub fn sweep(n_emps: usize, n_depts: usize, class_counts: &[usize]) -> Vec<KnobPoint> {
    let catalog = Arc::new(emp_dept(EmpDeptConfig {
        n_emps,
        n_depts,
        ..Default::default()
    }));
    // Out-of-sample probe selectivities (never exactly on class centers
    // for small class counts).
    let probes = [0.13, 0.37, 0.61, 0.88];
    let measured: Vec<f64> = probes
        .iter()
        .map(|&s| actual_cost(&catalog, n_depts, s))
        .collect();

    class_counts
        .iter()
        .map(|&classes| {
            let mut invocations = 0;
            let t0 = Instant::now();
            let fit = ParametricFit::fit(
                &catalog,
                CostParams::default(),
                "DepAvgSal",
                &["did".to_string()],
                classes,
                &mut invocations,
            )
            .expect("fit succeeds");
            let fit_micros = t0.elapsed().as_micros();
            let mean_cost_error = probes
                .iter()
                .zip(&measured)
                .map(|(&s, &m)| {
                    let est = fit.cost(s);
                    if m > 0.0 {
                        (est - m).abs() / m
                    } else {
                        0.0
                    }
                })
                .sum::<f64>()
                / probes.len() as f64;
            KnobPoint {
                classes,
                invocations,
                fit_micros,
                mean_cost_error,
            }
        })
        .collect()
}

/// The printable report.
pub fn run(n_emps: usize, n_depts: usize) -> Report {
    let pts = sweep(n_emps, n_depts, &[2, 3, 4, 8, 16]);
    let mut r = Report::new(
        format!("Figure 5: equivalence-class knob ({n_emps} emps / {n_depts} depts)"),
        &[
            "classes",
            "nested invocations",
            "fit time (us)",
            "mean cost error",
        ],
    );
    for p in &pts {
        r.row(vec![
            p.classes.to_string(),
            p.invocations.to_string(),
            p.fit_micros.to_string(),
            format!("{:.1}%", p.mean_cost_error * 100.0),
        ]);
    }
    r.note("more classes -> more nested optimizer invocations, lower estimation error");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invocations_equal_classes() {
        for p in sweep(2000, 200, &[2, 4, 8]) {
            assert_eq!(p.invocations as usize, p.classes);
        }
    }

    #[test]
    fn more_classes_do_not_hurt_accuracy_much() {
        let pts = sweep(4000, 400, &[2, 16]);
        // The 16-class fit should be at least as good (allow slack for
        // step-function placement luck).
        assert!(
            pts[1].mean_cost_error <= pts[0].mean_cost_error + 0.10,
            "2-class err {:.3} vs 16-class err {:.3}",
            pts[0].mean_cost_error,
            pts[1].mean_cost_error
        );
    }
}
