//! EXPLAIN rendering: physical plan, cost estimate, join order, SIPS
//! and Table 1 breakdowns — plus the EXPLAIN ANALYZE variant that
//! annotates each operator with estimated vs actual cardinality from a
//! recorded [`fj_trace::QueryTrace`].

use fj_exec::PhysPlan;
use fj_optimizer::{EstNode, OptimizedPlan};
use fj_trace::{QueryTrace, TraceNode};
use std::fmt::Write as _;

/// Renders an optimized plan as a human-readable EXPLAIN block.
pub fn render(plan: &OptimizedPlan) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "estimated cost: {:.2} page-units", plan.cost);
    let _ = writeln!(out, "estimated rows: {:.1}", plan.est_rows);
    let _ = writeln!(out, "join order:     {}", plan.order.join(" -> "));
    let _ = writeln!(
        out,
        "plans costed:   {} (nested estimator invocations: {})",
        plan.plans_considered, plan.nested_invocations
    );
    if plan.sips.is_empty() {
        let _ = writeln!(out, "filter joins:   none (magic rewriting not chosen)");
    } else {
        for (i, s) in plan.sips.iter().enumerate() {
            let keys = s
                .filter_keys
                .iter()
                .map(|k| format!("{} = {}", k.left, k.right))
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(
                out,
                "filter join #{i}: production [{}] -> inner {} on ({keys})",
                s.production.join(", "),
                s.inner
            );
            if let Some(c) = plan.filter_join_costs.get(i) {
                for (name, v) in c.components() {
                    let _ = writeln!(out, "    {name:>18}: {v:>12.2}");
                }
            }
        }
    }
    let _ = writeln!(out, "physical plan:");
    for line in plan.phys.display().lines() {
        let _ = writeln!(out, "  {line}");
    }
    out
}

/// Renders an EXPLAIN ANALYZE block: the optimized plan's operator
/// tree with each node annotated `[est R rows / P pages | actual R
/// rows / P pages, T us]`, flagging nodes whose estimated and actual
/// row counts differ by more than `ratio`× in either direction.
///
/// The estimates are the optimizer's own stamps (`plan.est`), and
/// `trace` must come from a traced execution of `plan.phys`. A node the
/// optimizer made no estimate for (inside a view's body) shows its
/// actuals only.
pub fn render_analyze(plan: &OptimizedPlan, trace: &QueryTrace, ratio: f64) -> String {
    let ratio = ratio.max(1.0);
    let mut out = String::new();
    let _ = writeln!(out, "estimated cost: {:.2} page-units", plan.cost);
    let _ = writeln!(out, "estimated rows: {:.1}", plan.est_rows);
    let _ = writeln!(out, "actual rows:    {}", trace.rows_out());
    let _ = writeln!(out, "wall time:      {} us", plan_wall(trace));
    let _ = writeln!(out, "join order:     {}", plan.order.join(" -> "));
    let _ = writeln!(out, "operators (estimated vs actual):");
    let est = &plan.est;
    analyze_node(&plan.phys, Some(est), Some(&trace.root), ratio, 1, &mut out);
    out
}

fn plan_wall(trace: &QueryTrace) -> u64 {
    trace.total_wall_micros.max(trace.root.stats.wall_micros)
}

fn analyze_node(
    plan: &PhysPlan,
    est: Option<&EstNode>,
    trace: Option<&TraceNode>,
    ratio: f64,
    depth: usize,
    out: &mut String,
) {
    let indent = "  ".repeat(depth);
    let label = plan.node_label();
    let _ = write!(out, "{indent}{label}");
    match (est, trace) {
        (Some(e), Some(t)) => {
            let _ = write!(
                out,
                "  [est {:.1} rows / {:.1} pages | actual {} rows / {} pages, {} us]",
                e.est_rows, e.est_pages, t.stats.rows_out, t.stats.pages_read, t.stats.wall_micros
            );
            let factor = misestimate_factor(e.est_rows, t.stats.rows_out);
            if factor > ratio {
                let _ = write!(out, "  <-- misestimate x{factor:.1}");
            }
            if t.stats.spills > 0 {
                let _ = write!(
                    out,
                    "  <-- spilled x{} ({} temp pages)",
                    t.stats.spills, t.stats.spill_pages
                );
            }
        }
        (Some(e), None) => {
            let _ = write!(
                out,
                "  [est {:.1} rows / {:.1} pages]",
                e.est_rows, e.est_pages
            );
        }
        (None, Some(t)) => {
            let _ = write!(
                out,
                "  [actual {} rows / {} pages, {} us]",
                t.stats.rows_out, t.stats.pages_read, t.stats.wall_micros
            );
            if t.stats.spills > 0 {
                let _ = write!(
                    out,
                    "  <-- spilled x{} ({} temp pages)",
                    t.stats.spills, t.stats.spill_pages
                );
            }
        }
        (None, None) => {}
    }
    let _ = writeln!(out);
    let children = plan.children();
    for (i, child) in children.iter().enumerate() {
        analyze_node(
            child,
            est.and_then(|e| e.children.get(i)),
            trace.and_then(|t| t.children.get(i)),
            ratio,
            depth + 1,
            out,
        );
    }
}

/// The symmetric over/under-estimation factor, with both sides clamped
/// to 1 row so empty results do not divide by zero.
fn misestimate_factor(est_rows: f64, actual_rows: u64) -> f64 {
    let e = est_rows.max(1.0);
    let a = (actual_rows as f64).max(1.0);
    (e / a).max(a / e)
}

#[cfg(test)]
mod tests {
    use fj_algebra::fixtures::{paper_catalog, paper_query};
    use fj_optimizer::{Optimizer, OptimizerConfig};
    use std::sync::Arc;

    #[test]
    fn render_contains_sections() {
        let cat = Arc::new(paper_catalog());
        let plan = Optimizer::new(cat, OptimizerConfig::default())
            .optimize(&paper_query())
            .unwrap();
        let s = super::render(&plan);
        assert!(s.contains("estimated cost"));
        assert!(s.contains("join order"));
        assert!(s.contains("physical plan"));
    }

    #[test]
    fn analyze_annotates_every_operator() {
        let db = crate::Database::with_catalog(paper_catalog());
        let s = db.explain_analyze(&paper_query()).unwrap();
        // Every plan line carries an actual, and an estimate unless it is
        // inside the view's body, which the optimizer never estimated.
        let op_lines: Vec<&str> = s
            .lines()
            .skip_while(|l| !l.starts_with("operators"))
            .skip(1)
            .collect();
        assert!(!op_lines.is_empty());
        let depth = |l: &str| l.len() - l.trim_start().len();
        let view = op_lines
            .iter()
            .position(|l| l.trim_start().starts_with("Project did AS V.did"))
            .expect("the fixture's plan reads the view");
        let below_view = op_lines[view + 1..].iter();
        let body = below_view
            .take_while(|l| depth(l) > depth(op_lines[view]))
            .count();
        assert!(body > 0);
        for (i, line) in op_lines.iter().enumerate() {
            let in_body = i > view && i <= view + body;
            assert_eq!(line.contains("[est "), !in_body, "{line}");
            assert!(line.contains("actual "), "missing actual: {line}");
        }
    }

    #[test]
    fn analyze_flags_gross_misestimates() {
        // ratio just above 1 flags essentially every fractional
        // estimate; the flag marker must appear with a tight ratio and
        // carry the factor.
        let db = crate::Database::with_catalog(paper_catalog());
        let tight = db
            .explain_analyze_with_ratio(&paper_query(), 1.0000001)
            .unwrap();
        let loose = db.explain_analyze_with_ratio(&paper_query(), 1e12).unwrap();
        assert!(!loose.contains("misestimate"), "loose ratio flags nothing");
        // The tight render is a superset: same operators, more flags.
        assert_eq!(tight.lines().count(), loose.lines().count());
    }

    #[test]
    fn misestimate_factor_is_symmetric_and_zero_safe() {
        assert_eq!(super::misestimate_factor(10.0, 10), 1.0);
        assert_eq!(super::misestimate_factor(50.0, 10), 5.0);
        assert_eq!(super::misestimate_factor(10.0, 50), 5.0);
        assert_eq!(super::misestimate_factor(0.0, 0), 1.0);
        assert_eq!(super::misestimate_factor(8.0, 0), 8.0);
    }

    #[test]
    fn render_without_filter_join_says_none() {
        let cat = Arc::new(paper_catalog());
        let plan = Optimizer::new(cat, OptimizerConfig::without_filter_join())
            .optimize(&paper_query())
            .unwrap();
        let s = super::render(&plan);
        assert!(s.contains("none"));
    }
}
