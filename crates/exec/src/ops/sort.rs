//! Sorting with external-sort cost accounting.

use crate::context::{ExecCtx, Placement};
use crate::error::ExecError;
use crate::physical::Rel;
use fj_storage::{charge, PageLayout};

/// Sorts ascending by `keys` (NULLs first, per [`fj_storage::Value`]'s
/// total order).
///
/// Charges [`charge::compares`] (`n·⌈log₂ n⌉` tuple ops), plus
/// [`charge::external_sort`] when the input exceeds buffer memory.
pub fn sort(ctx: &ExecCtx, input: Rel, keys: &[String]) -> Result<Rel, ExecError> {
    // The comparison sort itself is a library call and cannot poll the
    // interrupt mid-run; bracket it instead — the run is bounded by
    // `n log n` comparisons, so the check bound holds per plan node.
    ctx.check_interrupt()?;
    let key_idx: Vec<usize> = keys
        .iter()
        .map(|k| input.schema.resolve(k))
        .collect::<Result<_, _>>()?;
    ctx.ledger.book(charge::compares(input.rows.len() as u64));
    // Memory governance: a physical external merge sort when the input
    // exceeds buffer memory or the broker denies the grant; otherwise
    // hold the grant (if any) for the in-memory sort below, which keeps
    // the seed's simulated external-sort charge.
    let _grant = match ctx.spill_decision(input.page_count()) {
        Placement::Spill(spill) => {
            let layout = PageLayout::for_schema(&input.schema);
            let rows = super::spill::external_sort_rows(ctx, &spill, layout, input.rows, &key_idx)?;
            return Ok(Rel::new(input.schema, rows));
        }
        Placement::Memory(grant) => grant,
    };
    charge_external_sort(ctx, input.page_count());
    let mut rows = input.rows.into_vec();
    rows.sort_by(|a, b| a.key_cmp(&key_idx, b, &key_idx));
    ctx.check_interrupt()?;
    Ok(Rel::new(input.schema, rows))
}

/// Books the simulated external sort of `pages` pages under the
/// context's buffer memory (nothing when they fit). Spilled runs count
/// against the governor's memory budget.
pub(crate) fn charge_external_sort(ctx: &ExecCtx, pages: u64) {
    ctx.ledger
        .book(charge::external_sort(pages, ctx.memory_pages));
    if pages > ctx.memory_pages {
        ctx.charge_materialized_pages(pages);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_algebra::Catalog;
    use fj_storage::{tuple, DataType, Schema, Tuple, Value};
    use std::sync::Arc;

    fn ctx() -> ExecCtx {
        ExecCtx::new(Arc::new(Catalog::new()))
    }

    #[test]
    fn sorts_by_multiple_keys() {
        let rel = Rel::new(
            Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]).into_ref(),
            vec![tuple![2, 1], tuple![1, 9], tuple![2, 0], tuple![1, 3]],
        );
        let r = sort(&ctx(), rel, &["a".into(), "b".into()]).unwrap();
        assert_eq!(
            r.rows,
            vec![tuple![1, 3], tuple![1, 9], tuple![2, 0], tuple![2, 1]]
        );
    }

    #[test]
    fn nulls_sort_first() {
        let rel = Rel::new(
            Schema::new(vec![fj_storage::Column::nullable("a", DataType::Int)])
                .unwrap()
                .into_ref(),
            vec![tuple![5], Tuple::new(vec![Value::Null]), tuple![1]],
        );
        let r = sort(&ctx(), rel, &["a".into()]).unwrap();
        assert!(r.rows[0].value(0).is_null());
        assert_eq!(r.rows[1], tuple![1]);
    }

    #[test]
    fn unknown_key_errors() {
        let rel = Rel::new(
            Schema::from_pairs(&[("a", DataType::Int)]).into_ref(),
            vec![],
        );
        assert!(sort(&ctx(), rel, &["zzz".into()]).is_err());
    }

    #[test]
    fn in_memory_sort_charges_no_io() {
        let c = ctx();
        let rel = Rel::new(
            Schema::from_pairs(&[("a", DataType::Int)]).into_ref(),
            (0..100).map(|i| tuple![100 - i]).collect(),
        );
        sort(&c, rel, &["a".into()]).unwrap();
        let s = c.ledger.snapshot();
        assert_eq!(s.page_ios(), 0);
        assert!(s.tuple_ops > 0);
    }

    #[test]
    fn external_sort_charges_passes() {
        let c = ctx().with_memory_pages(4);
        // A relation of ~40 pages (row width 17 → 240/page).
        let rel = Rel::new(
            Schema::from_pairs(&[("a", DataType::Int)]).into_ref(),
            (0..9600).map(|i| tuple![9600 - i]).collect(),
        );
        let pages = rel.page_count();
        assert!(pages > 4);
        sort(&c, rel, &["a".into()]).unwrap();
        let expected_passes = charge::merge_passes(pages, 4);
        let s = c.ledger.snapshot();
        assert_eq!(s.page_reads, pages * (1 + expected_passes));
        assert_eq!(s.page_writes, pages * (1 + expected_passes));
    }
}
