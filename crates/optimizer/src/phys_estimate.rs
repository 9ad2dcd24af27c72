//! Per-node cardinality estimation over **physical** plans.
//!
//! `EXPLAIN ANALYZE` compares what the optimizer believed against what
//! execution measured, operator by operator. The enumerator only keeps
//! a cost and a root cardinality per plan, so this module re-derives a
//! per-node estimate tree from the finished [`PhysPlan`], using the
//! same Selinger machinery ([`PlanEstimator`]) the enumerator used —
//! base-table statistics, predicate selectivities, containment joins,
//! and the linear semi-join fraction of Figure 4.
//!
//! The estimate tree mirrors the plan's **execution order** (the order
//! [`PhysPlan::children`] reports and `fj-trace` records): outer before
//! inner, `WithTemp` steps before the body. Estimation is total — an
//! unresolvable relation degrades to a default guess instead of
//! failing, because an EXPLAIN must never refuse to render.

use crate::cost::CostParams;
use crate::estimate::{
    aggregate_stats, base_table_stats, project_stats, values_stats, ColEst, ColMap, EstStats,
    PlanEstimator,
};
use fj_algebra::{Catalog, JoinKind, RelationKind};
use fj_exec::{PhysPlan, TempStep};
use fj_expr::{col, Expr};
use std::collections::HashMap;

/// Row-count guess for a relation with no reachable statistics.
const DEFAULT_ROWS: f64 = 1000.0;

/// One node of the per-operator estimate tree; children mirror
/// [`PhysPlan::children`].
#[derive(Debug, Clone)]
pub struct EstNode {
    /// Estimated output rows of this operator.
    pub est_rows: f64,
    /// Estimated pages of this operator's output — the cost-model
    /// footprint EXPLAIN ANALYZE sets against measured page reads.
    pub est_pages: f64,
    /// Child estimates, in execution order.
    pub children: Vec<EstNode>,
}

impl EstNode {
    /// Number of nodes in the subtree (itself included).
    pub fn node_count(&self) -> usize {
        1 + self.children.iter().map(EstNode::node_count).sum::<usize>()
    }
}

/// Builds the per-node estimate tree for `plan`.
pub fn estimate_phys_plan(catalog: &Catalog, params: CostParams, plan: &PhysPlan) -> EstNode {
    let mut est = PhysEstimator {
        inner: PlanEstimator::new(catalog, params),
        temps: HashMap::new(),
        blooms: HashMap::new(),
    };
    est.node(plan).0
}

struct PhysEstimator<'a> {
    inner: PlanEstimator<'a>,
    /// Stats of temp tables materialized by enclosing `WithTemp`s.
    temps: HashMap<String, EstStats>,
    /// Stats of the producing plan of each registered Bloom filter,
    /// with the key columns it was built over.
    blooms: HashMap<String, (EstStats, Vec<String>)>,
}

impl<'a> PhysEstimator<'a> {
    fn node(&mut self, plan: &PhysPlan) -> (EstNode, EstStats) {
        let (mut en, stats) = self.node_inner(plan);
        en.est_pages = stats.pages(&self.inner.params);
        (en, stats)
    }

    fn node_inner(&mut self, plan: &PhysPlan) -> (EstNode, EstStats) {
        match plan {
            PhysPlan::SeqScan { table, alias }
            | PhysPlan::IndexOrderedScan { table, alias, .. } => {
                let stats = self.table_stats(table, alias);
                (leaf(stats.rows), stats)
            }
            PhysPlan::TempScan { name, alias } => {
                let stats = self
                    .temps
                    .get(name)
                    .cloned()
                    .unwrap_or_else(fallback_stats)
                    .requalify(alias);
                (leaf(stats.rows), stats)
            }
            PhysPlan::Values { schema, rows } => {
                let stats = values_stats(schema, rows.len());
                (leaf(stats.rows), stats)
            }
            PhysPlan::UdfFullScan { udf, alias } => {
                let stats = self.udf_stats(udf, None).requalify(alias);
                (leaf(stats.rows), stats)
            }
            PhysPlan::UdfProbe {
                outer, udf, alias, ..
            } => {
                let (child, os) = self.node(outer);
                let udf_stats = self.udf_stats(udf, Some(os.rows)).requalify(alias);
                let stats = EstStats {
                    rows: udf_stats.rows,
                    width: os.width + udf_stats.width.saturating_sub(8),
                    cols: ColMap::concat(&os.cols, &udf_stats.cols),
                };
                (unary(stats.rows, child), stats)
            }
            PhysPlan::Filter { input, predicate } => {
                let (child, is) = self.node(input);
                let sel = self.inner.selectivity(predicate, &is);
                let mut stats = is;
                stats.rows = (stats.rows * sel).max(0.0);
                (unary(stats.rows, child), stats)
            }
            PhysPlan::Project { input, exprs } => {
                let (child, is) = self.node(input);
                let stats = project_stats(&is, exprs);
                (unary(stats.rows, child), stats)
            }
            PhysPlan::Sort { input, .. } => {
                let (child, stats) = self.node(input);
                (unary(stats.rows, child), stats)
            }
            PhysPlan::Distinct { input } => {
                let (child, is) = self.node(input);
                let domain: f64 = is
                    .cols
                    .values()
                    .map(|c| c.distinct.max(1.0))
                    .product::<f64>()
                    .max(1.0);
                let rows = fj_storage::yao_distinct(is.rows.round() as u64, domain.round() as u64);
                let mut stats = is;
                stats.rows = rows;
                (unary(stats.rows, child), stats)
            }
            PhysPlan::HashAggregate {
                input,
                group_by,
                aggs,
            } => {
                let (child, is) = self.node(input);
                let stats = aggregate_stats(&is, group_by, aggs);
                (unary(stats.rows, child), stats)
            }
            PhysPlan::NestedLoops {
                outer,
                inner,
                predicate,
                kind,
            } => {
                let (oc, os) = self.node(outer);
                let (ic, is) = self.node(inner);
                let stats = self.inner.join_stats(&os, &is, predicate.as_ref(), *kind);
                (binary(stats.rows, oc, ic), stats)
            }
            PhysPlan::HashJoin {
                outer,
                inner,
                keys,
                residual,
                kind,
            } => {
                let (oc, os) = self.node(outer);
                let (ic, is) = self.node(inner);
                let pred = keys_predicate(keys);
                let mut stats = self.inner.join_stats(&os, &is, pred.as_ref(), *kind);
                if let Some(r) = residual {
                    stats.rows *= self.inner.selectivity(r, &stats);
                }
                (binary(stats.rows, oc, ic), stats)
            }
            PhysPlan::MergeJoin {
                outer,
                inner,
                keys,
                residual,
            } => {
                let (oc, os) = self.node(outer);
                let (ic, is) = self.node(inner);
                let pred = keys_predicate(keys);
                let mut stats = self
                    .inner
                    .join_stats(&os, &is, pred.as_ref(), JoinKind::Inner);
                if let Some(r) = residual {
                    stats.rows *= self.inner.selectivity(r, &stats);
                }
                (binary(stats.rows, oc, ic), stats)
            }
            PhysPlan::IndexNestedLoops {
                outer,
                table,
                alias,
                outer_key,
                inner_col,
                residual,
            } => {
                let (oc, os) = self.node(outer);
                let is = self.table_stats(table, alias);
                let pred = Some(col(outer_key.clone()).eq(col(format!("{alias}.{inner_col}"))));
                let mut stats = self
                    .inner
                    .join_stats(&os, &is, pred.as_ref(), JoinKind::Inner);
                if let Some(r) = residual {
                    stats.rows *= self.inner.selectivity(r, &stats);
                }
                (unary(stats.rows, oc), stats)
            }
            PhysPlan::BloomProbe {
                input,
                bloom,
                key_cols,
            } => {
                let (child, is) = self.node(input);
                let mut stats = is;
                if let Some((src, src_keys)) = self.blooms.get(bloom) {
                    // The lossy filter keeps the fraction of input keys
                    // present in the filter's source — the same linear
                    // fraction as an exact semi-join, ignoring the
                    // (small, by sizing) false-positive rate.
                    if let (Some(ik), Some(sk)) = (key_cols.first(), src_keys.first()) {
                        let frac = (src.distinct(sk) / stats.distinct(ik)).min(1.0);
                        stats.rows *= frac;
                    }
                }
                (unary(stats.rows, child), stats)
            }
            PhysPlan::Ship { input, .. } => {
                let (child, stats) = self.node(input);
                (unary(stats.rows, child), stats)
            }
            PhysPlan::WithTemp { steps, body } => {
                let mut children = Vec::with_capacity(steps.len() + 1);
                let mut registered: Vec<(bool, String)> = Vec::new();
                for step in steps {
                    match step {
                        TempStep::Materialize { name, plan } => {
                            let (child, stats) = self.node(plan);
                            children.push(child);
                            self.temps.insert(name.clone(), stats);
                            registered.push((true, name.clone()));
                        }
                        TempStep::BuildBloom {
                            name,
                            plan,
                            key_cols,
                            ..
                        } => {
                            let (child, stats) = self.node(plan);
                            children.push(child);
                            self.blooms.insert(name.clone(), (stats, key_cols.clone()));
                            registered.push((false, name.clone()));
                        }
                    }
                }
                let (bc, stats) = self.node(body);
                children.push(bc);
                for (is_temp, name) in registered {
                    if is_temp {
                        self.temps.remove(&name);
                    } else {
                        self.blooms.remove(&name);
                    }
                }
                (
                    EstNode {
                        est_rows: stats.rows,
                        est_pages: 0.0,
                        children,
                    },
                    stats,
                )
            }
        }
    }

    /// Base-table stats qualified under `alias`; defaults when the
    /// name does not resolve to a stored table.
    fn table_stats(&self, table: &str, alias: &str) -> EstStats {
        match self.inner.catalog.resolve(table) {
            Ok(RelationKind::Base(t)) | Ok(RelationKind::Remote(t, _)) => {
                base_table_stats(&t, alias)
            }
            _ => fallback_stats(),
        }
    }

    /// UDF output stats: the full extension for a scan, or one batch
    /// of calls per outer row for a probe.
    fn udf_stats(&self, name: &str, probe_rows: Option<f64>) -> EstStats {
        let Ok(udf) = self.inner.catalog.udf(name) else {
            return fallback_stats();
        };
        let rows = match probe_rows {
            Some(outer) => outer * udf.rows_per_call(),
            None => match udf.domain() {
                Some(d) => d.len() as f64 * udf.rows_per_call(),
                None => DEFAULT_ROWS,
            },
        };
        let schema = udf.schema();
        EstStats {
            rows,
            width: schema.row_width(),
            cols: schema
                .columns()
                .iter()
                .map(|c| {
                    (
                        c.name.clone(),
                        ColEst {
                            distinct: rows,
                            ..ColEst::default()
                        },
                    )
                })
                .collect(),
        }
    }
}

fn fallback_stats() -> EstStats {
    EstStats {
        rows: DEFAULT_ROWS,
        width: 8,
        cols: ColMap::default(),
    }
}

fn leaf(rows: f64) -> EstNode {
    EstNode {
        est_rows: rows,
        est_pages: 0.0,
        children: Vec::new(),
    }
}

fn unary(rows: f64, child: EstNode) -> EstNode {
    EstNode {
        est_rows: rows,
        est_pages: 0.0,
        children: vec![child],
    }
}

fn binary(rows: f64, a: EstNode, b: EstNode) -> EstNode {
    EstNode {
        est_rows: rows,
        est_pages: 0.0,
        children: vec![a, b],
    }
}

/// A conjunction of equi-join key predicates.
fn keys_predicate(keys: &[(String, String)]) -> Option<Expr> {
    keys.iter()
        .map(|(a, b)| col(a.clone()).eq(col(b.clone())))
        .reduce(|acc, e| acc.and(e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Optimizer, OptimizerConfig};
    use fj_algebra::fixtures::{paper_catalog, paper_query};
    use std::sync::Arc;

    /// The estimate tree must mirror the plan's execution-order shape
    /// exactly — that's what lets EXPLAIN ANALYZE zip it with a trace.
    fn assert_mirrors(est: &EstNode, plan: &PhysPlan) {
        let kids = plan.children();
        assert_eq!(
            est.children.len(),
            kids.len(),
            "shape mismatch at {}",
            plan.node_label()
        );
        for (e, p) in est.children.iter().zip(kids) {
            assert_mirrors(e, p);
        }
    }

    /// Does any join in the tree carry a composite (join) inner — the
    /// defining property of a bushy plan?
    fn join_with_composite_inner(p: &PhysPlan) -> bool {
        let here = match p {
            PhysPlan::HashJoin { inner, .. }
            | PhysPlan::MergeJoin { inner, .. }
            | PhysPlan::NestedLoops { inner, .. } => subtree_has_join(inner),
            _ => false,
        };
        here || p.children().iter().any(|c| join_with_composite_inner(c))
    }

    fn subtree_has_join(p: &PhysPlan) -> bool {
        matches!(
            p,
            PhysPlan::HashJoin { .. } | PhysPlan::MergeJoin { .. } | PhysPlan::NestedLoops { .. }
        ) || p.children().iter().any(|c| subtree_has_join(c))
    }

    /// A deterministic two-arm snowflake: `Fact(fid, d0, d1)` joined to
    /// `DimK(id, sub) ⋈ σ(SubK.attr < 15)` on each arm. The selective
    /// sub-dimensions make pre-joining each arm strictly cheaper than
    /// any left-deep chain, so the bushy enumerator picks a plan with a
    /// composite inner.
    fn snowflake_catalog() -> (Catalog, fj_algebra::JoinQuery) {
        use fj_algebra::FromItem;
        use fj_expr::lit;
        use fj_storage::{DataType, TableBuilder, Value};
        let mut cat = Catalog::new();
        let fact = (0..500i64).map(|i| {
            vec![
                Value::Int(i),
                Value::Int((i * 7 + 3) % 50),
                Value::Int((i * 13 + 5) % 50),
            ]
        });
        cat.add_table(
            TableBuilder::new("Fact")
                .column("fid", DataType::Int)
                .column("d0", DataType::Int)
                .column("d1", DataType::Int)
                .rows(fact)
                .build()
                .unwrap()
                .into_ref(),
        );
        for d in 0..2i64 {
            let dim = (0..50i64).map(|i| vec![Value::Int(i), Value::Int((i * 3 + d) % 25)]);
            cat.add_table(
                TableBuilder::new(format!("Dim{d}"))
                    .column("id", DataType::Int)
                    .column("sub", DataType::Int)
                    .rows(dim)
                    .build()
                    .unwrap()
                    .into_ref(),
            );
            let sub = (0..25i64).map(|i| vec![Value::Int(i), Value::Int((i * 11 + 7 * d) % 50)]);
            cat.add_table(
                TableBuilder::new(format!("Sub{d}"))
                    .column("id", DataType::Int)
                    .column("attr", DataType::Int)
                    .rows(sub)
                    .build()
                    .unwrap()
                    .into_ref(),
            );
        }
        let from = vec![
            FromItem::new("Fact", "f"),
            FromItem::new("Dim0", "d0"),
            FromItem::new("Sub0", "s0"),
            FromItem::new("Dim1", "d1"),
            FromItem::new("Sub1", "s1"),
        ];
        let pred = col("f.d0".to_string())
            .eq(col("d0.id".to_string()))
            .and(col("d0.sub".to_string()).eq(col("s0.id".to_string())))
            .and(col("s0.attr".to_string()).lt(lit(15i64)))
            .and(col("f.d1".to_string()).eq(col("d1.id".to_string())))
            .and(col("d1.sub".to_string()).eq(col("s1.id".to_string())))
            .and(col("s1.attr".to_string()).lt(lit(15i64)));
        (cat, fj_algebra::JoinQuery::new(from).with_predicate(pred))
    }

    /// Under [`crate::PlanShape::Bushy`] the snowflake winner carries a
    /// composite inner, and the estimate tree must mirror that shape
    /// node for node — that's what lets EXPLAIN ANALYZE zip a bushy
    /// plan with its trace.
    #[test]
    fn estimate_tree_mirrors_a_bushy_snowflake_plan() {
        let (cat, q) = snowflake_catalog();
        let cat = Arc::new(cat);
        let plan = Optimizer::new(Arc::clone(&cat), OptimizerConfig::bushy())
            .optimize(&q)
            .unwrap();
        assert!(
            join_with_composite_inner(&plan.phys),
            "expected a bushy winner (some join's inner is itself a join):\n{}",
            plan.phys.display()
        );
        let est = estimate_phys_plan(&cat, CostParams::default(), &plan.phys);
        assert_mirrors(&est, &plan.phys);
        assert!(est.est_rows >= 0.0);
    }

    #[test]
    fn estimate_tree_mirrors_the_optimized_paper_plan() {
        let cat = Arc::new(paper_catalog());
        let plan = Optimizer::new(Arc::clone(&cat), OptimizerConfig::default())
            .optimize(&paper_query())
            .unwrap();
        let est = estimate_phys_plan(&cat, CostParams::default(), &plan.phys);
        assert_mirrors(&est, &plan.phys);
        assert!(est.est_rows >= 0.0);
        assert!(est.node_count() >= 3);
    }

    #[test]
    fn scan_estimates_match_base_table_statistics() {
        let cat = paper_catalog();
        let plan = PhysPlan::SeqScan {
            table: "Emp".into(),
            alias: "E".into(),
        };
        let est = estimate_phys_plan(&cat, CostParams::default(), &plan);
        assert_eq!(est.est_rows, 5.0);
    }

    #[test]
    fn unknown_relations_degrade_instead_of_failing() {
        let cat = Catalog::new();
        let plan = PhysPlan::SeqScan {
            table: "nope".into(),
            alias: "N".into(),
        };
        let est = estimate_phys_plan(&cat, CostParams::default(), &plan);
        assert_eq!(est.est_rows, DEFAULT_ROWS);
    }
}
