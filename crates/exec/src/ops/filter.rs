//! Filter and project.

use crate::context::ExecCtx;
use crate::error::ExecError;
use crate::interrupt::INTERRUPT_CHECK_INTERVAL;
use crate::physical::Rel;
use fj_expr::{BoundExpr, Expr};
use fj_storage::{charge, Column, Schema, Tuple};
use std::sync::Arc;

/// Row filter: keeps rows whose predicate evaluates to TRUE. Charges one
/// tuple op per input row.
pub fn filter(ctx: &ExecCtx, input: Rel, predicate: &Expr) -> Result<Rel, ExecError> {
    let bound = BoundExpr::bind(predicate, &input.schema)?;
    ctx.ledger.book(charge::ops(input.rows.len() as u64));
    let rows = input.rows.keep(|i, t| {
        if i % INTERRUPT_CHECK_INTERVAL == 0 {
            ctx.check_interrupt()?;
        }
        Ok(bound.eval_predicate(t)?)
    })?;
    Ok(Rel::new(input.schema, rows))
}

/// Projection: computes `(expr, name)` pairs per row. Charges one tuple
/// op per input row.
pub fn project(ctx: &ExecCtx, input: Rel, exprs: &[(Expr, String)]) -> Result<Rel, ExecError> {
    let bound: Vec<(BoundExpr, &String)> = exprs
        .iter()
        .map(|(e, n)| BoundExpr::bind(e, &input.schema).map(|b| (b, n)))
        .collect::<Result<_, _>>()?;
    let schema = Schema::new(
        bound
            .iter()
            .map(|(b, n)| Column::nullable((*n).clone(), b.result_type(&input.schema)))
            .collect(),
    )?;
    ctx.ledger.book(charge::ops(input.rows.len() as u64));
    let mut rows = Vec::with_capacity(input.rows.len());
    for (i, t) in input.rows.iter().enumerate() {
        if i % INTERRUPT_CHECK_INTERVAL == 0 {
            ctx.check_interrupt()?;
        }
        let mut vals = Vec::with_capacity(bound.len());
        for (b, _) in &bound {
            vals.push(b.eval(t)?);
        }
        rows.push(Tuple::new(vals));
    }
    Ok(Rel::new(Arc::new(schema), rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_algebra::Catalog;
    use fj_expr::{col, lit};
    use fj_storage::{tuple, DataType};

    fn ctx() -> ExecCtx {
        ExecCtx::new(Arc::new(Catalog::new()))
    }

    fn input() -> Rel {
        Rel::new(
            Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]).into_ref(),
            vec![tuple![1, 10], tuple![2, 20], tuple![3, 30]],
        )
    }

    #[test]
    fn filter_keeps_true_rows() {
        let c = ctx();
        let r = filter(&c, input(), &col("a").ge(lit(2))).unwrap();
        assert_eq!(r.rows, vec![tuple![2, 20], tuple![3, 30]]);
        assert_eq!(c.ledger.snapshot().tuple_ops, 3);
    }

    #[test]
    fn filter_bad_column_errors() {
        assert!(filter(&ctx(), input(), &col("zz").ge(lit(2))).is_err());
    }

    #[test]
    fn project_computes_and_names() {
        let c = ctx();
        let r = project(
            &c,
            input(),
            &[
                (col("b").add(col("a")), "sum".into()),
                (lit(1), "one".into()),
            ],
        )
        .unwrap();
        assert_eq!(r.schema.column(0).name, "sum");
        assert_eq!(r.rows[0], tuple![11, 1]);
        assert_eq!(r.rows[2], tuple![33, 1]);
    }

    #[test]
    fn project_empty_input() {
        let c = ctx();
        let empty = Rel::new(input().schema, vec![]);
        let r = project(&c, empty, &[(col("a"), "a".into())]).unwrap();
        assert!(r.rows.is_empty());
        assert_eq!(r.schema.arity(), 1);
    }
}
