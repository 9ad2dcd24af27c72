//! Table 1: the seven Filter Join cost components — predicted by the
//! optimizer's formulas next to charges measured by staging the same
//! Filter Join phase by phase through the executor.
//!
//! The staged decomposition attributes temp-table *reads* to the phase
//! that performs them (the paper's formulas fold them into
//! `ProductionCost_P`/`AvailCost_F`), so individual rows can shift a
//! few page units between adjacent components; the totals are directly
//! comparable.

use crate::report::Report;
use crate::workloads::{emp_dept, EmpDeptConfig};
use fj_core::exec::context::TempTable;
use fj_core::exec::Rel;
use fj_core::expr::col;
use fj_core::optimizer::filter_join::{
    cost_filter_join, FilterJoinArgs, FilterJoinInner, FilterJoinSpec,
};
use fj_core::optimizer::{ParametricEstimator, PlanEstimator};
use fj_core::storage::CPU_WEIGHT_DEFAULT;
use fj_core::{lit, CostParams, ExecCtx, LedgerSnapshot, LogicalPlan, PhysPlan};
use std::sync::Arc;

/// Predicted vs measured for the seven components.
#[derive(Debug, Clone)]
pub struct ComponentRow {
    /// Component name (Table 1).
    pub name: &'static str,
    /// Formula prediction (page units).
    pub predicted: f64,
    /// Measured ledger charge of the corresponding phase (page units).
    pub measured: f64,
}

fn weighted(d: &LedgerSnapshot) -> f64 {
    d.weighted(CPU_WEIGHT_DEFAULT, 0.0, 0.0)
}

/// Stages the paper's Filter Join (production `{E ⋈ D}` filtered into
/// `DepAvgSal`) phase by phase.
pub fn staged(n_emps: usize, n_depts: usize, frac_big: f64) -> Vec<ComponentRow> {
    let cat = Arc::new(emp_dept(EmpDeptConfig {
        n_emps,
        n_depts,
        frac_big,
        ..Default::default()
    }));
    let params = CostParams::default();
    let estimator = PlanEstimator::new(&cat, params);

    // The production set: young employees of big departments.
    let outer_logical = LogicalPlan::scan("Emp", "E")
        .select(col("E.age").lt(lit(30)))
        .join(
            LogicalPlan::scan("Dept", "D").select(col("D.budget").gt(lit(100_000))),
            Some(col("E.did").eq(col("D.did"))),
        );
    let (outer_cost, outer_stats) = estimator.cost(&outer_logical).expect("estimates");

    // Predicted components from the optimizer's formula.
    let mut memo = ParametricEstimator::new(4);
    let keys = vec![("E.did".to_string(), "V.did".to_string())];
    let decision = cost_filter_join(FilterJoinArgs {
        catalog: &cat,
        params,
        memo: &mut memo,
        outer_cost,
        outer: &outer_stats,
        spec: FilterJoinSpec {
            inner: &FilterJoinInner::new(&cat, "DepAvgSal", "V").expect("view resolves"),
            keys: &keys,
            filter_keys: &keys,
            use_bloom: false,
        },
        prefix_production: None,
    })
    .expect("costing succeeds")
    .expect("applicable");
    let predicted = decision.cost;

    // ---- Measured, phase by phase.
    let ctx = ExecCtx::new(Arc::clone(&cat));
    let outer_phys = fj_core::exec::lower::lower(&outer_logical, &cat).expect("outer lowers");
    let snap = |ctx: &ExecCtx| ctx.ledger.snapshot();

    // Phase 1: JoinCost_P.
    let s0 = snap(&ctx);
    let p: Rel = outer_phys.execute(&ctx).expect("outer runs");
    let m_join_p = weighted(&snap(&ctx).delta(&s0));

    // Phase 2: ProductionCost_P (materialize).
    let s1 = snap(&ctx);
    ctx.register_temp("__p", TempTable::new(p.schema.clone(), p.rows.clone()));
    let m_prod_p = weighted(&snap(&ctx).delta(&s1));

    // Phase 3: ProjCost_F (scan P, distinct-project the key).
    let s2 = snap(&ctx);
    let f = PhysPlan::Distinct {
        input: PhysPlan::Project {
            input: PhysPlan::TempScan {
                name: "__p".into(),
                alias: String::new(),
            }
            .boxed(),
            exprs: vec![(col("E.did"), "k0".into())],
        }
        .boxed(),
    }
    .execute(&ctx)
    .expect("filter set computes");
    let m_proj_f = weighted(&snap(&ctx).delta(&s2));

    // Phase 4: AvailCost_F (materialize F).
    let s3 = snap(&ctx);
    ctx.register_temp("__f", TempTable::new(f.schema.clone(), f.rows.clone()));
    let m_avail_f = weighted(&snap(&ctx).delta(&s3));

    // Phase 5: FilterCost_Rk (restricted view).
    let s4 = snap(&ctx);
    let filter_schema = f.schema.clone();
    let restricted_logical = fj_core::algebra::restricted_inner(
        &cat,
        "DepAvgSal",
        &["did".to_string()],
        "__f",
        &filter_schema,
    )
    .expect("restriction builds");
    let restricted_phys = fj_core::exec::lower::lower(&restricted_logical, &cat).expect("lowers");
    let rk = restricted_phys.execute(&ctx).expect("restricted view runs");
    let m_filter_rk = weighted(&snap(&ctx).delta(&s4));

    // Phase 6: AvailCost_Rk' — pipelined, nothing to do.
    let m_avail_rk = 0.0;

    // Phase 7: FinalJoinCost (read P back, hash join with R'k).
    let s5 = snap(&ctx);
    let requalified = fj_core::exec::ops::filter::project(
        &ctx,
        rk,
        &[
            (col("did"), "V.did".into()),
            (col("avgsal"), "V.avgsal".into()),
        ],
    )
    .expect("requalifies");
    let p_again = PhysPlan::TempScan {
        name: "__p".into(),
        alias: String::new(),
    }
    .execute(&ctx)
    .expect("P rereads");
    let joined = fj_core::exec::ops::joins::hash_join(
        &ctx,
        p_again,
        requalified,
        &keys,
        None,
        fj_core::algebra::JoinKind::Inner,
    )
    .expect("final join runs");
    assert!(!joined.schema.columns().is_empty());
    let m_final = weighted(&snap(&ctx).delta(&s5));

    vec![
        ComponentRow {
            name: "JoinCost_P",
            predicted: predicted.join_cost_p,
            measured: m_join_p,
        },
        ComponentRow {
            name: "ProductionCost_P",
            predicted: predicted.production_cost_p,
            measured: m_prod_p,
        },
        ComponentRow {
            name: "ProjCost_F",
            predicted: predicted.proj_cost_f,
            measured: m_proj_f,
        },
        ComponentRow {
            name: "AvailCost_F",
            predicted: predicted.avail_cost_f,
            measured: m_avail_f,
        },
        ComponentRow {
            name: "FilterCost_Rk",
            predicted: predicted.filter_cost_rk,
            measured: m_filter_rk,
        },
        ComponentRow {
            name: "AvailCost_Rk'",
            predicted: predicted.avail_cost_rk,
            measured: m_avail_rk,
        },
        ComponentRow {
            name: "FinalJoinCost",
            predicted: predicted.final_join_cost,
            measured: m_final,
        },
    ]
}

/// The printable report.
pub fn run(n_emps: usize, n_depts: usize) -> Report {
    let rows = staged(n_emps, n_depts, 0.1);
    let mut r = Report::new(
        format!(
            "Table 1: Filter Join cost components ({n_emps} emps / {n_depts} depts, page units)"
        ),
        &["component", "predicted", "measured"],
    );
    let (mut tp, mut tm) = (0.0, 0.0);
    for c in &rows {
        tp += c.predicted;
        tm += c.measured;
        r.row(vec![
            c.name.into(),
            Report::num(c.predicted),
            Report::num(c.measured),
        ]);
    }
    r.row(vec!["TOTAL".into(), Report::num(tp), Report::num(tm)]);
    r.note("temp-table reads attach to the consuming phase in the measured column");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_agree_within_factor() {
        let rows = staged(4000, 400, 0.1);
        let tp: f64 = rows.iter().map(|c| c.predicted).sum();
        let tm: f64 = rows.iter().map(|c| c.measured).sum();
        assert!(tp > 0.0 && tm > 0.0);
        let ratio = tp / tm;
        assert!(
            (0.4..2.5).contains(&ratio),
            "predicted {tp} vs measured {tm} (ratio {ratio})"
        );
    }

    #[test]
    fn dominant_component_is_join_or_filter() {
        let rows = staged(4000, 400, 0.1);
        let max = rows
            .iter()
            .max_by(|a, b| a.measured.total_cmp(&b.measured))
            .unwrap();
        assert!(
            matches!(max.name, "JoinCost_P" | "FilterCost_Rk" | "FinalJoinCost"),
            "unexpected dominant component {}",
            max.name
        );
    }

    #[test]
    fn all_components_nonnegative() {
        for c in staged(1000, 100, 0.2) {
            assert!(c.predicted >= 0.0, "{c:?}");
            assert!(c.measured >= 0.0, "{c:?}");
        }
    }
}
