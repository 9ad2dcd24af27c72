//! Figures 1–2: the motivating query, three ways.
//!
//! The paper's premise: magic rewriting helps when few departments are
//! big-with-young-employees and hurts when all are. We sweep the
//! fraction of big departments and execute the Figure 1 query under
//! three policies:
//!
//! * **naive** — the original query (join orders 5/6 of Figure 3): the
//!   view is computed in full;
//! * **always-magic** — the Figure 2 rewriting applied unconditionally
//!   (production set `{E, D}`, the heuristic a rewrite engine uses);
//! * **cost-based** — this paper: the optimizer decides per instance.
//!
//! Expected shape: naive is flat (the view always costs the same);
//! always-magic grows with the filter fraction and eventually exceeds
//! naive; cost-based tracks the minimum of the two.

use super::storm::sorted;
use crate::report::Report;
use crate::workloads::{emp_dept, paper_query, EmpDeptConfig};
use fj_core::{Database, Sips};

/// One sweep point.
#[derive(Debug, Clone)]
pub struct Point {
    /// Fraction of big departments.
    pub frac_big: f64,
    /// Measured cost of the naive plan.
    pub naive: f64,
    /// Measured cost of the always-magic plan.
    pub magic: f64,
    /// Measured cost of the cost-based plan.
    pub cost_based: f64,
    /// Did the optimizer choose a Filter Join?
    pub chose_magic: bool,
}

/// Runs the sweep at the given scale.
pub fn sweep(n_emps: usize, n_depts: usize, fracs: &[f64]) -> Vec<Point> {
    fracs
        .iter()
        .map(|&frac_big| {
            let cat = emp_dept(EmpDeptConfig {
                n_emps,
                n_depts,
                frac_big,
                ..Default::default()
            });
            let db = Database::with_catalog(cat);
            let q = paper_query();

            let naive = db.run_logical(&q.to_plan()).expect("naive plan runs");
            let sips = Sips::derive(db.catalog(), &q, &["E".to_string(), "D".to_string()], "V")
                .expect("the did key exists");
            let magic = db.run_magic(&q, &sips).expect("magic plan runs");
            let cost_based = db.execute(&q).expect("optimized plan runs");

            assert_eq!(
                sorted(naive.rows.clone()),
                sorted(magic.rows.clone()),
                "magic must preserve the answer"
            );
            assert_eq!(
                sorted(naive.rows.clone()),
                sorted(cost_based.rows.clone()),
                "optimizer must preserve the answer"
            );

            Point {
                frac_big,
                naive: naive.measured_cost,
                magic: magic.measured_cost,
                cost_based: cost_based.measured_cost,
                chose_magic: !cost_based.sips.is_empty(),
            }
        })
        .collect()
}

/// The printable report.
pub fn run(n_emps: usize, n_depts: usize) -> Report {
    let fracs = [0.01, 0.02, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0];
    let points = sweep(n_emps, n_depts, &fracs);
    let mut r = Report::new(
        format!("Figures 1-2: motivating query, {n_emps} emps / {n_depts} depts (measured cost, page units)"),
        &["frac_big", "naive", "always-magic", "cost-based", "optimizer chose"],
    );
    for p in &points {
        r.row(vec![
            format!("{:.2}", p.frac_big),
            Report::num(p.naive),
            Report::num(p.magic),
            Report::num(p.cost_based),
            if p.chose_magic {
                "filter join"
            } else {
                "no magic"
            }
            .into(),
        ]);
    }
    let wins = points.iter().filter(|p| p.magic < p.naive).count();
    r.note(format!(
        "magic wins at {wins}/{} sweep points; cost-based should track min(naive, magic)",
        points.len()
    ));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn magic_wins_when_selective_loses_when_not() {
        let pts = sweep(4000, 400, &[0.02, 1.0]);
        assert!(
            pts[0].magic < pts[0].naive,
            "selective: magic {} < naive {}",
            pts[0].magic,
            pts[0].naive
        );
        assert!(
            pts[1].magic > pts[1].naive * 0.9,
            "unselective: magic {} should not beat naive {} meaningfully",
            pts[1].magic,
            pts[1].naive
        );
    }

    #[test]
    fn cost_based_tracks_the_winner() {
        for p in sweep(3000, 300, &[0.02, 1.0]) {
            let best = p.naive.min(p.magic);
            assert!(
                p.cost_based <= best * 1.5 + 50.0,
                "cost-based {} strays too far above best {best} at frac {}",
                p.cost_based,
                p.frac_big
            );
        }
    }
}
