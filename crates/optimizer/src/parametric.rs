//! Parametric approximation of the inner restriction (§4.1–4.2).
//!
//! Costing a Filter Join requires the cost and cardinality of the inner
//! virtual relation *as restricted by a filter set* — a parametric
//! quantity. Invoking the nested estimator for every candidate filter
//! set would break Assumption 1 (O(1) per costing). Instead, the paper
//! proposes **equivalence classes** over the parameter:
//!
//! > "the cardinality of the result of the filtered inner relation is
//! > directly proportional to the selectivity of the filter set ...
//! > Once the selectivity has been computed for a few equivalence
//! > classes ... a straight line can be fitted to them" (Figure 4)
//!
//! [`ParametricFit`] probes a small, configurable number of filter-set
//! selectivities (the classes of Figure 5 — the paper's accuracy/effort
//! "knob"), fits a least-squares line for output cardinality, keeps a
//! step table for cost, and answers all subsequent probes in O(1).
//! [`ParametricEstimator`] memoizes fits per (relation, attribute-set),
//! so the whole optimization performs only `O(#virtual relations ×
//! classes)` nested estimator invocations.

use crate::cost::CostParams;
use crate::error::OptError;
use crate::estimate::{ColEst, EstStats, PlanEstimator};
use fj_algebra::{magic, Catalog, LogicalPlan};
use fj_storage::{Column, DataType, Schema};
use std::sync::Arc;

/// CTE name used for the synthetic filter set during fitting.
const FIT_CTE: &str = "__pfit";

/// One probed equivalence class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassPoint {
    /// Filter-set selectivity (fraction of the inner key domain).
    pub selectivity: f64,
    /// Filter-set cardinality at this selectivity.
    pub filter_rows: f64,
    /// Estimated cost of the restricted inner.
    pub cost: f64,
    /// Estimated output cardinality of the restricted inner.
    pub rows: f64,
}

/// A fitted parametric model for one (relation, filter attributes) pair.
#[derive(Debug, Clone)]
pub struct ParametricFit {
    /// Inner relation (catalog name).
    pub relation: String,
    /// Filter attributes (unqualified inner column names).
    pub attrs: Vec<String>,
    /// Distinct values of the (first) filter attribute in the inner —
    /// the domain the selectivity is relative to.
    pub key_domain: f64,
    /// Unrestricted inner stats (selectivity 1 without the semi-join
    /// machinery).
    pub unrestricted: EstStats,
    /// The probed classes, in increasing selectivity.
    pub points: Vec<ClassPoint>,
    /// Straight-line fit `rows(s) = slope·s + intercept`.
    pub card_slope: f64,
    /// Intercept of the cardinality line.
    pub card_intercept: f64,
}

impl ParametricFit {
    /// Fits a model by probing `classes` equivalence classes (clamped to
    /// 2..=16) of filter-set selectivity in `[0, 1]`.
    pub fn fit(
        catalog: &Catalog,
        params: CostParams,
        relation: &str,
        attrs: &[String],
        classes: usize,
        invocation_counter: &mut u64,
    ) -> Result<ParametricFit, OptError> {
        let classes = classes.clamp(2, 16);
        let estimator = PlanEstimator::new(catalog, params);
        let unrestricted =
            estimator.estimate(&LogicalPlan::scan(relation.to_string(), String::new()))?;
        let key_domain = unrestricted.distinct(&attrs[0]);

        // Filter-set schema: k0, k1, ... (all typed as the inner attrs
        // would be; Int is a safe stand-in for estimation purposes).
        let filter_schema = Schema::new(
            (0..attrs.len())
                .map(|i| Column::new(format!("k{i}"), DataType::Int))
                .collect(),
        )?
        .into_ref();
        let restricted =
            magic::restricted_inner(catalog, relation, attrs, FIT_CTE, &filter_schema)?;

        let mut points = Vec::with_capacity(classes);
        for i in 0..classes {
            let s = i as f64 / (classes - 1) as f64;
            let filter_rows = (s * key_domain).round();
            let filter_stats = EstStats {
                rows: filter_rows,
                width: filter_schema.row_width(),
                cols: (0..attrs.len())
                    .map(|j| {
                        (
                            format!("k{j}"),
                            ColEst {
                                distinct: filter_rows.max(1.0),
                                ..ColEst::default()
                            },
                        )
                    })
                    .collect(),
            };
            let nested = PlanEstimator::new(catalog, params).with_cte(FIT_CTE, filter_stats);
            *invocation_counter += 1;
            let (cost, stats) = nested.cost(&restricted)?;
            points.push(ClassPoint {
                selectivity: s,
                filter_rows,
                cost,
                rows: stats.rows,
            });
        }

        let (card_slope, card_intercept) = least_squares(
            &points
                .iter()
                .map(|p| (p.selectivity, p.rows))
                .collect::<Vec<_>>(),
        );

        Ok(ParametricFit {
            relation: relation.to_string(),
            attrs: attrs.to_vec(),
            key_domain,
            unrestricted,
            points,
            card_slope,
            card_intercept,
        })
    }

    /// Converts a filter-set cardinality to a selectivity in `[0, 1]`.
    pub fn selectivity_of(&self, filter_rows: f64) -> f64 {
        (filter_rows / self.key_domain.max(1.0)).clamp(0.0, 1.0)
    }

    /// O(1) cardinality estimate via the straight-line fit (Figure 4).
    pub fn cardinality(&self, selectivity: f64) -> f64 {
        (self.card_slope * selectivity.clamp(0.0, 1.0) + self.card_intercept).max(0.0)
    }

    /// O(1) cost estimate: the step function over equivalence classes
    /// (Figure 5) — the nearest probed class's cost.
    pub fn cost(&self, selectivity: f64) -> f64 {
        let s = selectivity.clamp(0.0, 1.0);
        self.points
            .iter()
            .min_by(|a, b| {
                (a.selectivity - s)
                    .abs()
                    .total_cmp(&(b.selectivity - s).abs())
            })
            .map(|p| p.cost)
            .unwrap_or(0.0)
    }
}

/// Least-squares straight-line fit; returns `(slope, intercept)`.
pub fn least_squares(points: &[(f64, f64)]) -> (f64, f64) {
    let n = points.len() as f64;
    if points.is_empty() {
        return (0.0, 0.0);
    }
    if points.len() == 1 {
        return (0.0, points[0].1);
    }
    let sx: f64 = points.iter().map(|(x, _)| x).sum();
    let sy: f64 = points.iter().map(|(_, y)| y).sum();
    let sxx: f64 = points.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = points.iter().map(|(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return (0.0, sy / n);
    }
    let slope = (n * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / n;
    (slope, intercept)
}

/// Memoizing front-end: one [`ParametricFit`] per (relation, attrs),
/// shared across the whole optimization (and across queries if reused).
#[derive(Debug, Default)]
pub struct ParametricEstimator {
    /// A query has a handful of these; a scan finds one without
    /// building an owned key.
    fits: Vec<Arc<ParametricFit>>,
    /// Equivalence classes probed per fit — the paper's knob.
    pub classes: usize,
    /// Total nested estimator invocations performed (observability for
    /// the complexity experiment).
    pub nested_invocations: u64,
}

impl ParametricEstimator {
    /// A memo probing `classes` classes per relation/attribute pair.
    pub fn new(classes: usize) -> ParametricEstimator {
        ParametricEstimator {
            fits: Vec::new(),
            classes: classes.clamp(2, 16),
            nested_invocations: 0,
        }
    }

    /// Returns the memoized fit, computing it on first use.
    pub fn fit(
        &mut self,
        catalog: &Catalog,
        params: CostParams,
        relation: &str,
        attrs: &[&str],
    ) -> Result<Arc<ParametricFit>, OptError> {
        let memoized = |f: &&Arc<ParametricFit>| f.relation == relation && f.attrs == attrs;
        if let Some(f) = self.fits.iter().find(memoized) {
            return Ok(Arc::clone(f));
        }
        let attrs: Vec<String> = attrs.iter().map(|a| a.to_string()).collect();
        let fit = Arc::new(ParametricFit::fit(
            catalog,
            params,
            relation,
            &attrs,
            self.classes,
            &mut self.nested_invocations,
        )?);
        self.fits.push(Arc::clone(&fit));
        Ok(fit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_algebra::fixtures::paper_catalog;

    #[test]
    fn least_squares_recovers_lines() {
        let (m, b) = least_squares(&[(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)]);
        assert!((m - 2.0).abs() < 1e-9);
        assert!((b - 1.0).abs() < 1e-9);
        assert_eq!(least_squares(&[]), (0.0, 0.0));
        assert_eq!(least_squares(&[(2.0, 7.0)]), (0.0, 7.0));
        // Vertical degenerate: same x everywhere.
        let (m, b) = least_squares(&[(1.0, 2.0), (1.0, 4.0)]);
        assert_eq!(m, 0.0);
        assert!((b - 3.0).abs() < 1e-9);
    }

    #[test]
    fn fit_on_paper_view_is_monotone() {
        let cat = paper_catalog();
        let mut n = 0;
        let fit = ParametricFit::fit(
            &cat,
            CostParams::default(),
            "DepAvgSal",
            &["did".to_string()],
            4,
            &mut n,
        )
        .unwrap();
        assert_eq!(n, 4, "one nested invocation per class");
        assert_eq!(fit.points.len(), 4);
        // Cardinality grows with selectivity (the Figure 4 line).
        assert!(fit.card_slope > 0.0, "slope {}", fit.card_slope);
        assert!(fit.cardinality(0.0) < fit.cardinality(1.0));
        // At selectivity 1 the restricted view has (close to) all groups.
        let full = fit.cardinality(1.0);
        assert!(
            (full - 3.0).abs() < 1.0,
            "sel=1 cardinality ~3 groups, got {full}"
        );
    }

    #[test]
    fn cost_step_function_is_nondecreasing_overall() {
        let cat = paper_catalog();
        let mut n = 0;
        let fit = ParametricFit::fit(
            &cat,
            CostParams::default(),
            "DepAvgSal",
            &["did".to_string()],
            5,
            &mut n,
        )
        .unwrap();
        assert!(fit.cost(0.0) <= fit.cost(1.0) + 1e-9);
    }

    #[test]
    fn memo_amortizes_nested_invocations() {
        let cat = paper_catalog();
        let mut memo = ParametricEstimator::new(4);
        let attrs = ["did"];
        memo.fit(&cat, CostParams::default(), "DepAvgSal", &attrs)
            .unwrap();
        assert_eq!(memo.nested_invocations, 4);
        // Hundreds of further probes: zero additional invocations.
        for _ in 0..500 {
            let f = memo
                .fit(&cat, CostParams::default(), "DepAvgSal", &attrs)
                .unwrap();
            let _ = f.cardinality(0.37);
            let _ = f.cost(0.37);
        }
        assert_eq!(memo.nested_invocations, 4);
        assert_eq!(memo.fits.len(), 1);
    }

    #[test]
    fn classes_clamped() {
        let memo = ParametricEstimator::new(1);
        assert_eq!(memo.classes, 2);
        let memo = ParametricEstimator::new(100);
        assert_eq!(memo.classes, 16);
    }

    #[test]
    fn selectivity_of_converts_cardinality() {
        let cat = paper_catalog();
        let mut n = 0;
        let fit = ParametricFit::fit(
            &cat,
            CostParams::default(),
            "DepAvgSal",
            &["did".to_string()],
            3,
            &mut n,
        )
        .unwrap();
        assert!((fit.selectivity_of(fit.key_domain) - 1.0).abs() < 1e-9);
        assert_eq!(fit.selectivity_of(0.0), 0.0);
        assert_eq!(fit.selectivity_of(1e9), 1.0);
    }
}
