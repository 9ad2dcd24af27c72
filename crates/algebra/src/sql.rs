//! Best-effort SQL rendering of logical plans — used to print the
//! magic-sets rewriting the way the paper presents it (Figure 2's
//! `CREATE VIEW PartialResult / Filter / RestrictedDepAvgSal` cascade).
//!
//! The renderer targets exactly the plan shapes this crate produces
//! (SPJ blocks, grouped aggregates, DISTINCT projections, semi-joins
//! against a filter CTE). Anything else falls back to an algebra
//! comment, so the output is always printable.

use crate::catalog::Catalog;
use crate::error::AlgebraError;
use crate::magic::Sips;
use crate::plan::{JoinKind, LogicalPlan};
use crate::query::JoinQuery;
use fj_expr::{split_conjuncts, Expr};
use std::fmt::Write as _;

/// One extracted SELECT block.
#[derive(Default)]
struct Block {
    select: Vec<String>,
    distinct: bool,
    from: Vec<String>,
    wheres: Vec<String>,
    group_by: Vec<String>,
}

impl Block {
    fn render(&self, indent: &str) -> String {
        let mut s = String::new();
        let sel = if self.select.is_empty() {
            "*".to_string()
        } else {
            self.select.join(", ")
        };
        let _ = write!(
            s,
            "{indent}SELECT {}{sel}",
            if self.distinct { "DISTINCT " } else { "" }
        );
        if !self.from.is_empty() {
            let _ = write!(s, "\n{indent}FROM {}", self.from.join(", "));
        }
        if !self.wheres.is_empty() {
            let _ = write!(
                s,
                "\n{indent}WHERE {}",
                self.wheres.join("\n{indent}  AND ")
            );
            s = s.replace("{indent}", indent);
        }
        if !self.group_by.is_empty() {
            let _ = write!(s, "\n{indent}GROUP BY {}", self.group_by.join(", "));
        }
        s
    }
}

fn render_query(plan: &LogicalPlan) -> String {
    let mut block = Block::default();
    if extract(plan, &mut block) {
        block.render("")
    } else {
        format!("/* non-SQL shape:\n{} */", plan.display())
    }
}

/// Folds `plan` into `block`; returns false when the shape is not
/// expressible as a single block.
fn extract(plan: &LogicalPlan, block: &mut Block) -> bool {
    match plan {
        LogicalPlan::Scan { relation, alias } => {
            block.from.push(if alias.is_empty() {
                relation.clone()
            } else {
                format!("{relation} {alias}")
            });
            true
        }
        LogicalPlan::CteRef { name, alias, .. } => {
            block.from.push(if alias.is_empty() {
                name.clone()
            } else {
                format!("{name} {alias}")
            });
            true
        }
        LogicalPlan::Select { input, predicate } => {
            if !extract(input, block) {
                return false;
            }
            block
                .wheres
                .extend(split_conjuncts(predicate).iter().map(render_expr));
            true
        }
        LogicalPlan::Project { input, exprs } => {
            if !extract(input, block) {
                return false;
            }
            if !block.select.is_empty() {
                // Two projections stacked: compose renames when every
                // outer expr is a bare column naming an inner item.
                let inner: Vec<(String, String)> = block
                    .select
                    .iter()
                    .map(|item| match item.rsplit_once(" AS ") {
                        Some((e, n)) => (e.to_string(), n.to_string()),
                        None => (item.clone(), item.clone()),
                    })
                    .collect();
                let mut composed = Vec::with_capacity(exprs.len());
                for (e, n) in exprs {
                    let Expr::Column(c) = e else { return false };
                    let Some((inner_e, _)) = inner.iter().find(|(ie, iname)| iname == c || ie == c)
                    else {
                        return false;
                    };
                    composed.push(if inner_e == n {
                        inner_e.clone()
                    } else {
                        format!("{inner_e} AS {n}")
                    });
                }
                block.select = composed;
                return true;
            }
            block.select = exprs
                .iter()
                .map(|(e, n)| {
                    let r = render_expr_raw(e);
                    if &r == n {
                        r
                    } else {
                        format!("{r} AS {n}")
                    }
                })
                .collect();
            true
        }
        LogicalPlan::Distinct { input } => {
            if !extract(input, block) {
                return false;
            }
            block.distinct = true;
            true
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            if !extract(input, block) || !block.select.is_empty() {
                return false;
            }
            block.group_by = group_by.clone();
            block.select = group_by.clone();
            block.select.extend(aggs.iter().map(|a| a.to_string()));
            true
        }
        LogicalPlan::Join {
            left,
            right,
            predicate,
            kind,
        } => match kind {
            JoinKind::Inner => {
                if !extract(left, block) || !extract(right, block) {
                    return false;
                }
                if let Some(p) = predicate {
                    block
                        .wheres
                        .extend(split_conjuncts(p).iter().map(render_expr));
                }
                true
            }
            JoinKind::Semi => {
                // The magic shape: semi-join against the filter CTE
                // renders as an IN subquery.
                let LogicalPlan::CteRef { name, alias, .. } = right.as_ref() else {
                    return false;
                };
                if !extract(left, block) {
                    return false;
                }
                let Some(p) = predicate else { return false };
                // Predicate: conjunction of attr = <alias>.kN.
                let mut lhs = Vec::new();
                let mut rhs = Vec::new();
                for c in split_conjuncts(p) {
                    let Expr::Binary {
                        op: fj_expr::BinOp::Eq,
                        left: a,
                        right: b,
                    } = c
                    else {
                        return false;
                    };
                    let (Expr::Column(a), Expr::Column(b)) = (a.as_ref(), b.as_ref()) else {
                        return false;
                    };
                    let (attr, key) = if b.starts_with(&format!("{alias}.")) {
                        (a.clone(), b.clone())
                    } else {
                        (b.clone(), a.clone())
                    };
                    lhs.push(attr);
                    rhs.push(
                        key.rsplit_once('.')
                            .map(|(_, k)| k.to_string())
                            .unwrap_or(key),
                    );
                }
                block.wheres.push(format!(
                    "({}) IN (SELECT {} FROM {name})",
                    lhs.join(", "),
                    rhs.join(", ")
                ));
                true
            }
        },
        LogicalPlan::With { .. } | LogicalPlan::Values { .. } => false,
    }
}

fn render_expr(e: &Expr) -> String {
    render_expr_raw(e)
}

fn render_expr_raw(e: &Expr) -> String {
    let s = e.to_string();
    // Strip one redundant outer parenthesis layer for readability.
    if s.starts_with('(') && s.ends_with(')') {
        s[1..s.len() - 1].to_string()
    } else {
        s
    }
}

/// Renders the full Figure 2 artifact: the magic rewriting of `query`
/// under `sips` as the paper presents it — a `CREATE VIEW` cascade for
/// `PartialResult`, `Filter` and the restricted inner, then the final
/// query.
pub fn render_figure2(
    catalog: &Catalog,
    query: &JoinQuery,
    sips: &Sips,
) -> Result<String, AlgebraError> {
    let parts = crate::magic::rewrite_parts(catalog, query, sips)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "CREATE VIEW PartialResult AS
({});
",
        render_query(&parts.partial).replace(crate::magic::PARTIAL_CTE, "PartialResult")
    );
    let _ = writeln!(
        out,
        "CREATE VIEW Filter AS
({});
",
        render_query(&parts.filter).replace(crate::magic::PARTIAL_CTE, "PartialResult")
    );
    let restricted_name = format!(
        "Restricted{}",
        query
            .item(&sips.inner)
            .map(|i| i.relation.clone())
            .unwrap_or_default()
    );
    let _ = writeln!(
        out,
        "CREATE VIEW {restricted_name} AS
({});
",
        render_query(&parts.restricted).replace(crate::magic::FILTER_CTE, "Filter")
    );
    // Final query: PartialResult ⋈ restricted view (under the inner's
    // alias) ⋈ the remaining FROM items, remaining predicate, original
    // projection.
    let mut block = Block::default();
    block.from.push("PartialResult".into());
    block
        .from
        .push(format!("{restricted_name} {}", parts.inner_alias));
    for item in &parts.others {
        block.from.push(format!("{} {}", item.relation, item.alias));
    }
    block.wheres = parts.remaining.iter().map(render_expr).collect();
    if let Some(sel) = &query.projection {
        block.select = sel
            .iter()
            .map(|(e, n)| {
                let r = render_expr_raw(e);
                if &r == n {
                    r
                } else {
                    format!("{r} AS {n}")
                }
            })
            .collect();
    }
    let _ = write!(out, "{};", block.render(""));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{paper_catalog, paper_query};
    use fj_expr::EquiJoinKey;

    fn paper_sips() -> Sips {
        Sips::new(
            vec!["E", "D"],
            "V",
            vec![EquiJoinKey {
                left: "E.did".into(),
                right: "V.did".into(),
            }],
        )
    }

    #[test]
    fn figure2_has_the_papers_landmarks() {
        let cat = paper_catalog();
        let sql = render_figure2(&cat, &paper_query(), &paper_sips()).unwrap();
        // The three views of Figure 2.
        assert!(sql.contains("CREATE VIEW PartialResult AS"), "{sql}");
        assert!(sql.contains("CREATE VIEW Filter AS"), "{sql}");
        assert!(sql.contains("CREATE VIEW RestrictedDepAvgSal AS"), "{sql}");
        assert!(sql.contains("SELECT DISTINCT"), "{sql}");
        // The restricted view: the filter applied *inside* the grouped
        // aggregate, as an IN subquery.
        assert!(sql.contains("IN (SELECT k0 FROM Filter)"), "{sql}");
        assert!(sql.contains("GROUP BY E.did"), "{sql}");
        // The production-set predicates moved into PartialResult.
        assert!(sql.contains("E.age < 30"), "{sql}");
        assert!(sql.contains("D.budget > 100000"), "{sql}");
        // The final query joins PartialResult with the restricted view.
        assert!(
            sql.contains("FROM PartialResult, RestrictedDepAvgSal V"),
            "{sql}"
        );
    }

    #[test]
    fn plain_query_renders_as_single_block() {
        let sql = render_query(&paper_query().to_plan());
        assert!(sql.starts_with("SELECT "));
        assert!(sql.contains("FROM Emp E, Dept D, DepAvgSal V"));
        assert!(sql.contains("WHERE"));
    }

    #[test]
    fn unsupported_shapes_fall_back_to_comment() {
        let plan = LogicalPlan::Values {
            schema: fj_storage::Schema::from_pairs(&[("x", fj_storage::DataType::Int)]).into_ref(),
            rows: vec![],
        };
        let sql = render_query(&plan);
        assert!(sql.contains("non-SQL shape"));
    }
}
