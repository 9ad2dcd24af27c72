//! Logical plans.
//!
//! A small, orthogonal algebra: scan / select / project / join /
//! aggregate / distinct, plus `With`/`CteRef` for the shared
//! subexpressions the magic rewriting introduces (the production set is
//! consumed both by the filter-set projection and by the final join).

use crate::catalog::Catalog;
use crate::error::AlgebraError;
use fj_expr::{AggCall, Expr};
use fj_storage::{Column, DataType, Schema, SchemaRef, Value};
use std::fmt::Write as _;
use std::sync::Arc;

/// Shared plan handle.
pub type PlanRef = Arc<LogicalPlan>;

/// Join kinds. The magic rewriting only needs inner joins (the filter
/// join's semi-join effect is expressed by `Distinct` + inner join), but
/// `Semi` is provided for explicit semi-join formulations and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinKind {
    /// Inner join.
    Inner,
    /// Left semi-join: emit left tuples with at least one match.
    Semi,
}

/// A logical plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Scan a catalog relation (base table, view, remote table, or UDF
    /// relation) under an alias.
    Scan {
        /// Catalog name.
        relation: String,
        /// Alias qualifying output columns (`"E"` → `E.did`).
        alias: String,
    },
    /// Scan a named common-table-expression defined by an enclosing
    /// [`LogicalPlan::With`].
    CteRef {
        /// CTE name.
        name: String,
        /// Alias for requalification; empty keeps the CTE's own names.
        alias: String,
        /// The CTE's output schema (unqualified), recorded at build time.
        schema: SchemaRef,
    },
    /// Filter rows by a predicate.
    Select {
        /// Input plan.
        input: PlanRef,
        /// Predicate over the input schema.
        predicate: Expr,
    },
    /// Compute expressions `AS` names.
    Project {
        /// Input plan.
        input: PlanRef,
        /// (expression, output name) pairs.
        exprs: Vec<(Expr, String)>,
    },
    /// Join two plans.
    Join {
        /// Left (outer) input.
        left: PlanRef,
        /// Right (inner) input.
        right: PlanRef,
        /// Join predicate (`None` = cross product).
        predicate: Option<Expr>,
        /// Inner or semi.
        kind: JoinKind,
    },
    /// Group-by aggregation. Output schema = group columns (names kept)
    /// then one column per aggregate call.
    Aggregate {
        /// Input plan.
        input: PlanRef,
        /// Grouping column names (resolved against the input schema).
        group_by: Vec<String>,
        /// Aggregate calls.
        aggs: Vec<AggCall>,
    },
    /// Duplicate elimination.
    Distinct {
        /// Input plan.
        input: PlanRef,
    },
    /// Defines CTEs (each materialized once, in order — later CTEs and
    /// the body may reference earlier ones) and evaluates `body`.
    With {
        /// (name, plan) pairs, in dependency order.
        ctes: Vec<(String, PlanRef)>,
        /// The main query.
        body: PlanRef,
    },
    /// Literal rows (used in tests and for singleton relations).
    Values {
        /// Output schema.
        schema: SchemaRef,
        /// The rows, as literal values.
        rows: Vec<Vec<Value>>,
    },
}

impl LogicalPlan {
    /// Wraps in an [`Arc`].
    pub fn into_ref(self) -> PlanRef {
        Arc::new(self)
    }

    /// Convenience: scan a relation under an alias.
    pub fn scan(relation: impl Into<String>, alias: impl Into<String>) -> LogicalPlan {
        LogicalPlan::Scan {
            relation: relation.into(),
            alias: alias.into(),
        }
    }

    /// Convenience: filter by `predicate`.
    pub fn select(self, predicate: Expr) -> LogicalPlan {
        LogicalPlan::Select {
            input: self.into_ref(),
            predicate,
        }
    }

    /// Convenience: project to `(expr, name)` pairs.
    pub fn project(self, exprs: Vec<(Expr, String)>) -> LogicalPlan {
        LogicalPlan::Project {
            input: self.into_ref(),
            exprs,
        }
    }

    /// Convenience: inner join with an optional predicate.
    pub fn join(self, right: LogicalPlan, predicate: Option<Expr>) -> LogicalPlan {
        LogicalPlan::Join {
            left: self.into_ref(),
            right: right.into_ref(),
            predicate,
            kind: JoinKind::Inner,
        }
    }

    /// Convenience: group-by aggregate.
    pub fn aggregate(self, group_by: Vec<String>, aggs: Vec<AggCall>) -> LogicalPlan {
        LogicalPlan::Aggregate {
            input: self.into_ref(),
            group_by,
            aggs,
        }
    }

    /// Convenience: duplicate elimination.
    pub fn distinct(self) -> LogicalPlan {
        LogicalPlan::Distinct {
            input: self.into_ref(),
        }
    }

    /// Computes the output schema against a catalog.
    ///
    /// Fails on unknown relations/columns, so it doubles as plan
    /// validation; the executor and optimizer call it once per node and
    /// trust it afterwards.
    pub fn schema(&self, catalog: &Catalog) -> Result<Schema, AlgebraError> {
        match self {
            LogicalPlan::Scan { relation, alias } => {
                let rel = catalog.resolve(relation)?;
                Ok(rel.schema().with_qualifier(alias))
            }
            LogicalPlan::CteRef { alias, schema, .. } => {
                if alias.is_empty() {
                    Ok((**schema).clone())
                } else {
                    Ok(schema.with_qualifier(alias))
                }
            }
            LogicalPlan::Select { input, predicate } => {
                let s = input.schema(catalog)?;
                // Validate the predicate binds.
                fj_expr::BoundExpr::bind(predicate, &s)?;
                Ok(s)
            }
            LogicalPlan::Project { input, exprs } => {
                let s = input.schema(catalog)?;
                let mut cols = Vec::with_capacity(exprs.len());
                for (e, name) in exprs {
                    let bound = fj_expr::BoundExpr::bind(e, &s)?;
                    cols.push(Column::nullable(name.clone(), bound.result_type(&s)));
                }
                Ok(Schema::new(cols)?)
            }
            LogicalPlan::Join {
                left,
                right,
                predicate,
                kind,
            } => {
                let ls = left.schema(catalog)?;
                let rs = right.schema(catalog)?;
                let joined = ls.join(&rs)?;
                if let Some(p) = predicate {
                    fj_expr::BoundExpr::bind(p, &joined)?;
                }
                Ok(match kind {
                    JoinKind::Inner => joined,
                    JoinKind::Semi => ls,
                })
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let s = input.schema(catalog)?;
                let mut cols = Vec::new();
                for g in group_by {
                    let i = s.resolve(g).map_err(AlgebraError::Schema)?;
                    cols.push(s.column(i).clone());
                }
                for a in aggs {
                    let input_ty = match &a.input {
                        Some(c) => {
                            let i = s.resolve(c).map_err(AlgebraError::Schema)?;
                            s.column(i).data_type
                        }
                        None => DataType::Int,
                    };
                    cols.push(Column::nullable(
                        a.output.clone(),
                        a.func.result_type(input_ty),
                    ));
                }
                Ok(Schema::new(cols)?)
            }
            LogicalPlan::Distinct { input } => input.schema(catalog),
            LogicalPlan::With { ctes, body } => {
                // CTE schemas are embedded in CteRef nodes; validate each
                // CTE plan, then the body.
                for (_, cte) in ctes {
                    cte.schema(catalog)?;
                }
                body.schema(catalog)
            }
            LogicalPlan::Values { schema, .. } => Ok((**schema).clone()),
        }
    }

    /// Pretty-prints the plan as an indented tree (EXPLAIN output).
    pub fn display(&self) -> String {
        let mut out = String::new();
        self.fmt_tree(&mut out, 0);
        out
    }

    fn fmt_tree(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        match self {
            LogicalPlan::Scan { relation, alias } => {
                let _ = writeln!(out, "{pad}Scan {relation} AS {alias}");
            }
            LogicalPlan::CteRef { name, alias, .. } => {
                let _ = writeln!(out, "{pad}CteRef {name} AS {alias}");
            }
            LogicalPlan::Select { input, predicate } => {
                let _ = writeln!(out, "{pad}Select {predicate}");
                input.fmt_tree(out, depth + 1);
            }
            LogicalPlan::Project { input, exprs } => {
                let list = exprs
                    .iter()
                    .map(|(e, n)| format!("{e} AS {n}"))
                    .collect::<Vec<_>>()
                    .join(", ");
                let _ = writeln!(out, "{pad}Project {list}");
                input.fmt_tree(out, depth + 1);
            }
            LogicalPlan::Join {
                left,
                right,
                predicate,
                kind,
            } => {
                let k = match kind {
                    JoinKind::Inner => "Join",
                    JoinKind::Semi => "SemiJoin",
                };
                match predicate {
                    Some(p) => {
                        let _ = writeln!(out, "{pad}{k} on {p}");
                    }
                    None => {
                        let _ = writeln!(out, "{pad}{k} (cross)");
                    }
                }
                left.fmt_tree(out, depth + 1);
                right.fmt_tree(out, depth + 1);
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let aggs_s = aggs
                    .iter()
                    .map(|a| a.to_string())
                    .collect::<Vec<_>>()
                    .join(", ");
                let _ = writeln!(
                    out,
                    "{pad}Aggregate group by [{}] compute [{aggs_s}]",
                    group_by.join(", ")
                );
                input.fmt_tree(out, depth + 1);
            }
            LogicalPlan::Distinct { input } => {
                let _ = writeln!(out, "{pad}Distinct");
                input.fmt_tree(out, depth + 1);
            }
            LogicalPlan::With { ctes, body } => {
                let _ = writeln!(out, "{pad}With");
                for (name, cte) in ctes {
                    let _ = writeln!(out, "{pad}  CTE {name}:");
                    cte.fmt_tree(out, depth + 2);
                }
                let _ = writeln!(out, "{pad}  Body:");
                body.fmt_tree(out, depth + 2);
            }
            LogicalPlan::Values { rows, .. } => {
                let _ = writeln!(out, "{pad}Values ({} rows)", rows.len());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, ViewDef};
    use fj_expr::{col, lit, AggFunc};
    use fj_storage::{DataType, TableBuilder};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_table(
            TableBuilder::new("Emp")
                .column("eid", DataType::Int)
                .column("did", DataType::Int)
                .column("sal", DataType::Double)
                .column("age", DataType::Int)
                .row(vec![1.into(), 10.into(), 1000.0.into(), 25.into()])
                .build()
                .unwrap()
                .into_ref(),
        );
        cat.add_table(
            TableBuilder::new("Dept")
                .column("did", DataType::Int)
                .column("budget", DataType::Double)
                .row(vec![10.into(), 500_000.0.into()])
                .build()
                .unwrap()
                .into_ref(),
        );
        // DepAvgSal view: SELECT E.did AS did, AVG(E.sal) AS avgsal ...
        let plan = LogicalPlan::scan("Emp", "E")
            .aggregate(
                vec!["E.did".into()],
                vec![AggCall::new(AggFunc::Avg, "E.sal", "avgsal")],
            )
            .project(vec![
                (col("E.did"), "did".into()),
                (col("avgsal"), "avgsal".into()),
            ]);
        let schema = Schema::from_pairs(&[("did", DataType::Int), ("avgsal", DataType::Double)]);
        cat.add_view(ViewDef {
            name: "DepAvgSal".into(),
            plan: plan.into_ref(),
            schema: schema.into_ref(),
        });
        cat
    }

    #[test]
    fn scan_schema_requalifies() {
        let cat = catalog();
        let s = LogicalPlan::scan("Emp", "E").schema(&cat).unwrap();
        assert!(s.contains("E.did"));
        assert_eq!(s.arity(), 4);
    }

    #[test]
    fn view_scan_schema() {
        let cat = catalog();
        let s = LogicalPlan::scan("DepAvgSal", "V").schema(&cat).unwrap();
        assert!(s.contains("V.did"));
        assert!(s.contains("V.avgsal"));
    }

    #[test]
    fn select_validates_predicate() {
        let cat = catalog();
        let ok = LogicalPlan::scan("Emp", "E").select(col("E.age").lt(lit(30)));
        assert!(ok.schema(&cat).is_ok());
        let bad = LogicalPlan::scan("Emp", "E").select(col("E.nothere").lt(lit(30)));
        assert!(bad.schema(&cat).is_err());
    }

    #[test]
    fn join_schema_concat_and_semi() {
        let cat = catalog();
        let join = LogicalPlan::scan("Emp", "E").join(
            LogicalPlan::scan("Dept", "D"),
            Some(col("E.did").eq(col("D.did"))),
        );
        let s = join.schema(&cat).unwrap();
        assert_eq!(s.arity(), 6);

        let semi = LogicalPlan::Join {
            left: LogicalPlan::scan("Emp", "E").into_ref(),
            right: LogicalPlan::scan("Dept", "D").into_ref(),
            predicate: Some(col("E.did").eq(col("D.did"))),
            kind: JoinKind::Semi,
        };
        assert_eq!(semi.schema(&cat).unwrap().arity(), 4);
    }

    #[test]
    fn aggregate_schema() {
        let cat = catalog();
        let agg = LogicalPlan::scan("Emp", "E").aggregate(
            vec!["E.did".into()],
            vec![
                AggCall::new(AggFunc::Avg, "E.sal", "avgsal"),
                AggCall::count_star("n"),
            ],
        );
        let s = agg.schema(&cat).unwrap();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.column(0).name, "E.did");
        assert_eq!(s.column(1).data_type, DataType::Double);
        assert_eq!(s.column(2).data_type, DataType::Int);
    }

    #[test]
    fn project_types_from_expressions() {
        let cat = catalog();
        let p = LogicalPlan::scan("Emp", "E").project(vec![
            (col("E.did"), "did".into()),
            (col("E.sal").mul(lit(2)), "dsal".into()),
            (col("E.age").lt(lit(30)), "young".into()),
        ]);
        let s = p.schema(&cat).unwrap();
        assert_eq!(s.column(0).data_type, DataType::Int);
        assert_eq!(s.column(1).data_type, DataType::Double);
        assert_eq!(s.column(2).data_type, DataType::Bool);
    }

    #[test]
    fn cte_ref_schema_requalifies() {
        let cat = catalog();
        let cte_schema = Schema::from_pairs(&[("did", DataType::Int)]).into_ref();
        let r = LogicalPlan::CteRef {
            name: "F".into(),
            alias: "F".into(),
            schema: Arc::clone(&cte_schema),
        };
        let s = r.schema(&cat).unwrap();
        assert!(s.contains("F.did"));
        let bare = LogicalPlan::CteRef {
            name: "F".into(),
            alias: String::new(),
            schema: cte_schema,
        };
        assert!(bare.schema(&cat).unwrap().contains("did"));
    }

    #[test]
    fn unknown_relation_fails() {
        let cat = catalog();
        assert!(LogicalPlan::scan("Nope", "N").schema(&cat).is_err());
    }

    #[test]
    fn display_is_indented_tree() {
        let plan = LogicalPlan::scan("Emp", "E")
            .join(
                LogicalPlan::scan("Dept", "D"),
                Some(col("E.did").eq(col("D.did"))),
            )
            .select(col("E.age").lt(lit(30)));
        let s = plan.display();
        assert!(s.contains("Select"));
        assert!(s.contains("  Join on"));
        assert!(s.contains("    Scan Emp AS E"));
    }

    #[test]
    fn values_schema() {
        let cat = catalog();
        let schema = Schema::from_pairs(&[("x", DataType::Int)]).into_ref();
        let v = LogicalPlan::Values {
            schema,
            rows: vec![vec![Value::Int(1)], vec![Value::Int(2)]],
        };
        assert_eq!(v.schema(&cat).unwrap().arity(), 1);
    }
}
