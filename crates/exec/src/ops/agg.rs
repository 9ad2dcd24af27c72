//! Hash-based duplicate elimination and aggregation.

use crate::context::{ExecCtx, Placement};
use crate::error::ExecError;
use crate::interrupt::INTERRUPT_CHECK_INTERVAL;
use crate::ops::key_index::KeyIndex;
use crate::ops::sort::charge_external_sort;
use crate::ops::spill::partitionwise;
use crate::physical::Rel;
use fj_expr::{Accumulator, AggCall};
use fj_storage::{charge, Column, PageLayout, Schema, Tuple, Value};
use std::sync::Arc;

/// Hash-based DISTINCT — the paper's `ProjCost_F` workhorse (the filter
/// set is a *distinct* projection of the production set).
///
/// Charges one tuple op per input row, plus external partitioning I/O
/// when the *output* (the hash table of distinct values) exceeds
/// memory — a streaming hash distinct only spills when its table does.
///
/// With memory governance enabled and an over-memory (or broker-denied)
/// input, degrades to hash partitioning on the whole row: each distinct
/// value lands in exactly one temp partition, so per-partition
/// deduplication yields the same distinct multiset, emitted
/// partition-major (duplicate elimination is order-agnostic).
pub fn distinct(ctx: &ExecCtx, input: Rel) -> Result<Rel, ExecError> {
    ctx.ledger.book(charge::ops(input.rows.len() as u64));
    let all_idx: Vec<usize> = (0..input.schema.arity()).collect();
    let _grant = match ctx.spill_decision(input.page_count()) {
        Placement::Spill(spill) => {
            let layout = PageLayout::for_schema(&input.schema);
            let rows = partitionwise(ctx, &spill, input.rows, layout, &all_idx, |p| {
                dedup(ctx, p, &all_idx)
            })?;
            return Ok(Rel::new(input.schema, rows));
        }
        Placement::Memory(grant) => grant,
    };
    let out = Rel::new(input.schema, dedup(ctx, input.rows.into_vec(), &all_idx)?);
    charge_external_sort(ctx, out.page_count());
    Ok(out)
}

/// First occurrence of each distinct row, in input order. Kept rows are
/// the input rows themselves; duplicates are found by hashing every
/// column in place (`all_idx`) and comparing candidates row to row.
fn dedup(ctx: &ExecCtx, input: Vec<Tuple>, all_idx: &[usize]) -> Result<Vec<Tuple>, ExecError> {
    let mut index = KeyIndex::with_capacity(input.len());
    let mut rows: Vec<Tuple> = Vec::new();
    for (n, t) in input.into_iter().enumerate() {
        if n % INTERRUPT_CHECK_INTERVAL == 0 {
            ctx.check_interrupt()?;
        }
        let hash = t.key_hash(all_idx);
        if !index.candidates(hash).any(|c| rows[c] == t) {
            index.insert(hash, rows.len());
            rows.push(t);
        }
    }
    Ok(rows)
}

/// The in-memory grouping kernel shared by the one-shot aggregate and
/// each spilled partition: accumulates `rows` into per-group
/// accumulator rows, emitted in first-seen group order. Per-row tuple
/// ops are charged by the caller, once, over the full input.
fn accumulate_groups(
    ctx: &ExecCtx,
    rows: &[Tuple],
    group_idx: &[usize],
    agg_idx: &[Option<usize>],
    aggs: &[AggCall],
) -> Result<Vec<Tuple>, ExecError> {
    // Group `g` is keyed by the group columns of its first row
    // (`firsts[g]`, read in place) and owns the `aggs.len()`
    // accumulators starting at `accs[g * aggs.len()]`.
    let mut index = KeyIndex::with_capacity(rows.len());
    let mut firsts: Vec<&Tuple> = Vec::new();
    let mut accs: Vec<Accumulator> = Vec::new();
    for (n, t) in rows.iter().enumerate() {
        if n % INTERRUPT_CHECK_INTERVAL == 0 {
            ctx.check_interrupt()?;
        }
        let hash = t.key_hash(group_idx);
        let found = index
            .candidates(hash)
            .find(|&g| t.key_eq(group_idx, firsts[g], group_idx));
        let g = match found {
            Some(g) => g,
            None => {
                index.insert(hash, firsts.len());
                firsts.push(t);
                accs.extend(aggs.iter().map(|a| Accumulator::new(a.func)));
                firsts.len() - 1
            }
        };
        let group_accs = &mut accs[g * aggs.len()..(g + 1) * aggs.len()];
        for (acc, idx) in group_accs.iter_mut().zip(agg_idx) {
            match idx {
                Some(i) => acc.update(t.value(*i))?,
                None => acc.update(&Value::Bool(true))?, // COUNT(*)
            }
        }
    }
    Ok(firsts
        .iter()
        .enumerate()
        .map(|(g, first)| {
            let keys = group_idx.iter().map(|&i| first.value(i).clone());
            let group_accs = &accs[g * aggs.len()..(g + 1) * aggs.len()];
            keys.chain(group_accs.iter().map(Accumulator::finish))
                .collect()
        })
        .collect())
}

/// Hash aggregation over `group_by` columns.
///
/// Output schema: the grouping columns (names preserved) followed by one
/// column per aggregate call. A query with no grouping columns produces
/// exactly one row (SQL scalar-aggregate semantics, even on empty
/// input).
///
/// Charges `1 + #aggregates` tuple ops per input row (group-key hash
/// plus accumulator updates), plus external partitioning I/O when the
/// *output* (the group hash table) exceeds memory.
///
/// With memory governance enabled, a grouped aggregate whose input
/// exceeds buffer memory (or whose grant is denied) hash-partitions the
/// input on the group key to temp files; each group is then fully
/// contained in one partition, so partitionwise accumulation produces
/// the exact group multiset, emitted partition-major. Scalar aggregates
/// (one output row) never spill.
pub fn hash_aggregate(
    ctx: &ExecCtx,
    input: Rel,
    group_by: &[String],
    aggs: &[AggCall],
) -> Result<Rel, ExecError> {
    let group_idx: Vec<usize> = group_by
        .iter()
        .map(|g| input.schema.resolve(g))
        .collect::<Result<_, _>>()?;
    let agg_idx: Vec<Option<usize>> = aggs
        .iter()
        .map(|a| match &a.input {
            Some(c) => input.schema.resolve(c).map(Some),
            None => Ok(None),
        })
        .collect::<Result<_, _>>()?;

    // Output schema.
    let mut cols = Vec::with_capacity(group_idx.len() + aggs.len());
    for &g in &group_idx {
        cols.push(input.schema.column(g).clone());
    }
    for (a, idx) in aggs.iter().zip(&agg_idx) {
        let input_ty = idx
            .map(|i| input.schema.column(i).data_type)
            .unwrap_or(fj_storage::DataType::Int);
        cols.push(Column::nullable(
            a.output.clone(),
            a.func.result_type(input_ty),
        ));
    }
    let schema = Arc::new(Schema::new(cols)?);

    ctx.ledger
        .book(charge::aggregate(input.rows.len() as u64, aggs.len()));

    let _grant = if group_idx.is_empty() {
        None
    } else {
        match ctx.spill_decision(input.page_count()) {
            Placement::Spill(spill) => {
                let layout = PageLayout::for_schema(&input.schema);
                let rows = partitionwise(ctx, &spill, input.rows, layout, &group_idx, |p| {
                    accumulate_groups(ctx, &p, &group_idx, &agg_idx, aggs)
                })?;
                return Ok(Rel::new(schema, rows));
            }
            Placement::Memory(grant) => grant,
        }
    };

    let rows = accumulate_groups(ctx, &input.rows, &group_idx, &agg_idx, aggs)?;

    // Scalar aggregate over empty input: one row of empty-group values.
    if group_idx.is_empty() && rows.is_empty() {
        let vals: Vec<Value> = aggs
            .iter()
            .map(|a| Accumulator::new(a.func).finish())
            .collect();
        return Ok(Rel::new(schema, vec![Tuple::new(vals)]));
    }

    let out = Rel::new(schema, rows);
    charge_external_sort(ctx, out.page_count());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_algebra::Catalog;
    use fj_expr::AggFunc;
    use fj_storage::{tuple, DataType};

    fn ctx() -> ExecCtx {
        ExecCtx::new(Arc::new(Catalog::new()))
    }

    fn emp() -> Rel {
        Rel::new(
            Schema::from_pairs(&[("did", DataType::Int), ("sal", DataType::Double)]).into_ref(),
            vec![tuple![10, 1000.0], tuple![10, 3000.0], tuple![20, 5000.0]],
        )
    }

    #[test]
    fn distinct_removes_duplicates_keeps_order() {
        let rel = Rel::new(
            Schema::from_pairs(&[("a", DataType::Int)]).into_ref(),
            vec![tuple![2], tuple![1], tuple![2], tuple![3], tuple![1]],
        );
        let r = distinct(&ctx(), rel).unwrap();
        assert_eq!(r.rows, vec![tuple![2], tuple![1], tuple![3]]);
    }

    #[test]
    fn group_by_avg_matches_paper_view() {
        let r = hash_aggregate(
            &ctx(),
            emp(),
            &["did".into()],
            &[AggCall::new(AggFunc::Avg, "sal", "avgsal")],
        )
        .unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0], tuple![10, 2000.0]);
        assert_eq!(r.rows[1], tuple![20, 5000.0]);
        assert_eq!(r.schema.column(1).name, "avgsal");
    }

    #[test]
    fn multiple_aggregates_one_pass() {
        let r = hash_aggregate(
            &ctx(),
            emp(),
            &["did".into()],
            &[
                AggCall::count_star("n"),
                AggCall::new(AggFunc::Max, "sal", "top"),
            ],
        )
        .unwrap();
        assert_eq!(r.rows[0], tuple![10, 2, 3000.0]);
    }

    #[test]
    fn scalar_aggregate_empty_input() {
        let empty = Rel::new(emp().schema, vec![]);
        let r = hash_aggregate(
            &ctx(),
            empty,
            &[],
            &[
                AggCall::count_star("n"),
                AggCall::new(AggFunc::Sum, "sal", "s"),
            ],
        )
        .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].value(0), &Value::Int(0));
        assert!(r.rows[0].value(1).is_null());
    }

    #[test]
    fn grouped_aggregate_empty_input_yields_no_rows() {
        let empty = Rel::new(emp().schema, vec![]);
        let r =
            hash_aggregate(&ctx(), empty, &["did".into()], &[AggCall::count_star("n")]).unwrap();
        assert!(r.rows.is_empty());
    }

    #[test]
    fn unknown_group_column_errors() {
        assert!(hash_aggregate(&ctx(), emp(), &["zzz".into()], &[]).is_err());
    }

    #[test]
    fn null_group_keys_form_one_group() {
        let rel = Rel::new(
            Schema::new(vec![
                Column::nullable("k", DataType::Int),
                Column::nullable("v", DataType::Int),
            ])
            .unwrap()
            .into_ref(),
            vec![
                Tuple::new(vec![Value::Null, Value::Int(1)]),
                Tuple::new(vec![Value::Null, Value::Int(2)]),
            ],
        );
        let r = hash_aggregate(
            &ctx(),
            rel,
            &["k".into()],
            &[AggCall::new(AggFunc::Sum, "v", "s")],
        )
        .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].value(1), &Value::Int(3));
    }
}
