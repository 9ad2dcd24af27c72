//! The join-method menu: block nested loops, index nested loops, hash
//! join, sort-merge join, and UDF probing — every row of Figure 6 except
//! the filter join itself, which is a *composition* (see
//! `crate::ops::temp` and `fj-optimizer`'s lowering).
//!
//! All joins implement SQL equality semantics: NULL keys never match.

use crate::context::{ExecCtx, Placement};
use crate::error::ExecError;
use crate::interrupt::INTERRUPT_CHECK_INTERVAL;
use crate::ops::key_index::KeyIndex;
use crate::ops::sort::charge_external_sort;
use crate::physical::{maybe_qualify, Rel, Rows};
use fj_algebra::JoinKind;
use fj_expr::{BoundExpr, Expr};
use fj_storage::{charge, Tuple, Value};
use std::sync::Arc;

/// Resolves `(outer_col, inner_col)` key pairs to index pairs.
fn resolve_keys(
    outer: &Rel,
    inner: &Rel,
    keys: &[(String, String)],
) -> Result<Vec<(usize, usize)>, ExecError> {
    keys.iter()
        .map(|(o, i)| Ok((outer.schema.resolve(o)?, inner.schema.resolve(i)?)))
        .collect()
}

/// Joined-row schema for inner joins.
fn joined_schema(outer: &Rel, inner: &Rel) -> Result<Arc<fj_storage::Schema>, ExecError> {
    Ok(Arc::new(outer.schema.join(&inner.schema)?))
}

fn bind_residual(
    residual: Option<&Expr>,
    schema: &fj_storage::Schema,
) -> Result<Option<BoundExpr>, ExecError> {
    residual
        .map(|p| BoundExpr::bind(p, schema))
        .transpose()
        .map_err(Into::into)
}

/// True iff `joined` passes the residual (every row does when there is
/// none).
fn passes(pred: &Option<BoundExpr>, joined: &Tuple) -> Result<bool, ExecError> {
    match pred {
        Some(p) => Ok(p.eval_predicate(joined)?),
        None => Ok(true),
    }
}

/// True iff the joined row `o ⊕ i` passes the residual. The joined row
/// is only built when there is a residual to evaluate against it.
fn passes_residual(pred: &Option<BoundExpr>, o: &Tuple, i: &Tuple) -> Result<bool, ExecError> {
    Ok(pred.is_none() || passes(pred, &o.concat(i))?)
}

/// Block nested-loops join.
///
/// Charges [`charge::bnl`]: `(⌈P_outer/(M−2)⌉ − 1)·P_inner` *re-scan*
/// page reads (the first inner scan was charged by the inner plan
/// itself), plus one tuple op per compared pair — the dominant CPU term
/// that makes BNLJ genuinely quadratic in wall time too.
pub fn block_nested_loops(
    ctx: &ExecCtx,
    outer: Rel,
    inner: Rel,
    predicate: Option<&Expr>,
    kind: JoinKind,
) -> Result<Rel, ExecError> {
    let full_schema = joined_schema(&outer, &inner)?;
    let out_schema = match kind {
        JoinKind::Inner => Arc::clone(&full_schema),
        JoinKind::Semi => Arc::clone(&outer.schema),
    };
    // The predicate sees outer ⊕ inner even when (for semi joins) only
    // outer columns are emitted.
    let pred = bind_residual(predicate, &full_schema)?;

    let (no, ni) = (outer.rows.len() as u64, inner.rows.len() as u64);
    let (op, ip) = (outer.page_count(), inner.page_count());
    ctx.ledger
        .book(charge::bnl(no, op, ni, ip, ctx.memory_pages));

    let mut rows = Vec::new();
    let mut since_check = 0usize;
    for o in &outer.rows {
        for i in &inner.rows {
            since_check += 1;
            if since_check >= INTERRUPT_CHECK_INTERVAL {
                since_check = 0;
                ctx.check_interrupt()?;
            }
            match kind {
                JoinKind::Inner => {
                    let joined = o.concat(i);
                    if passes(&pred, &joined)? {
                        rows.push(joined);
                    }
                }
                JoinKind::Semi => {
                    if passes_residual(&pred, o, i)? {
                        rows.push(o.clone());
                        break;
                    }
                }
            }
        }
    }
    Ok(Rel::new(out_schema, rows))
}

/// Index nested-loops join: the *repeated probe* strategy for stored
/// relations, through the index [`fj_storage::Table::probe_index`]
/// picks on `inner_col` of `table`. Books one op per outer row up
/// front and a [`charge::probe`] per probe (together
/// [`charge::index_nested_loops`]).
pub fn index_nested_loops(
    ctx: &ExecCtx,
    outer: Rel,
    table: &str,
    alias: &str,
    outer_key: &str,
    inner_col: &str,
    residual: Option<&Expr>,
) -> Result<Rel, ExecError> {
    let t = ctx.catalog.table(table)?;
    let col = t.schema().resolve(inner_col).map_err(ExecError::Storage)?;
    let okey = outer.schema.resolve(outer_key)?;
    let inner_schema = maybe_qualify(t.schema(), alias);
    let out_schema = Arc::new(outer.schema.join(&inner_schema)?);
    let pred = bind_residual(residual, &out_schema)?;

    let Some(idx) = t.probe_index(col) else {
        return Err(ExecError::InvalidPhysicalPlan(format!(
            "index nested loops requires an index on {table}.{inner_col}"
        )));
    };

    ctx.ledger.book(charge::ops(outer.rows.len() as u64));
    let probe_pages = idx.probe_pages();
    let mut rows = Vec::new();
    let mut since_check = 0usize;
    for o in &outer.rows {
        since_check += 1;
        if since_check >= INTERRUPT_CHECK_INTERVAL {
            since_check = 0;
            ctx.check_interrupt()?;
        }
        let key = o.value(okey);
        if key.is_null() {
            continue;
        }
        let matches = idx.probe(key);
        ctx.ledger
            .book(charge::probe(probe_pages, matches.len() as u64));
        for &rid in matches {
            let fetched = t
                .fetch_checked(rid, ctx.faults.as_deref())
                .map_err(ExecError::Storage)?;
            let joined = o.concat(fetched);
            if passes(&pred, &joined)? {
                rows.push(joined);
            }
        }
    }
    Ok(Rel::new(out_schema, rows))
}

/// Hash join: builds on `inner`, probes with `outer`.
///
/// Charges [`charge::join`] (one tuple op per build row, probe row, and
/// output row) and, when the build side exceeds buffer memory,
/// [`charge::grace_partition`]: one write + one read of *both* inputs.
pub fn hash_join(
    ctx: &ExecCtx,
    outer: Rel,
    inner: Rel,
    keys: &[(String, String)],
    residual: Option<&Expr>,
    kind: JoinKind,
) -> Result<Rel, ExecError> {
    if keys.is_empty() {
        return Err(ExecError::InvalidPhysicalPlan(
            "hash join requires at least one equi-key".into(),
        ));
    }
    let idx = resolve_keys(&outer, &inner, keys)?;
    let (okeys, ikeys): (Vec<usize>, Vec<usize>) = idx.into_iter().unzip();
    let full_schema = joined_schema(&outer, &inner)?;
    let out_schema = match kind {
        JoinKind::Inner => Arc::clone(&full_schema),
        JoinKind::Semi => Arc::clone(&outer.schema),
    };
    let pred = bind_residual(residual, &full_schema)?;

    // Grace partitioning when the build side exceeds buffer memory (or
    // the broker denies the grant). With spilling enabled the partition
    // pass is *physical* — temp files, charged page by page as written
    // and read back — and the partitions live on disk, not against the
    // governor's memory budget. Without it (seed behaviour), the same
    // pass is simulated: charged up front and counted as materialized.
    let (no, ni) = (outer.rows.len() as u64, inner.rows.len() as u64);
    let (op, ip) = (outer.page_count(), inner.page_count());
    let rows = match ctx.spill_decision(ip) {
        Placement::Spill(spill) => {
            super::spill::grace_hash_join(ctx, &spill, outer, inner, &okeys, &ikeys, &pred, kind)?
        }
        Placement::Memory(_grant) => {
            ctx.ledger
                .book(charge::grace_partition(op, ip, ctx.memory_pages));
            if ip > ctx.memory_pages {
                ctx.charge_materialized_pages(op + ip);
            }
            hash_probe(ctx, outer.rows, &inner.rows, &okeys, &ikeys, &pred, kind)?
        }
    };
    ctx.ledger.book(charge::join(no, ni, rows.len() as u64));
    Ok(Rel::new(out_schema, rows))
}

/// The build+probe kernel shared by the in-memory hash join and each
/// grace partition of the spilled one. A semi-join keeps its outer rows
/// with [`Rows::keep`]. Charges nothing: the caller books the join's
/// tuple ops, once, over the full inputs and output.
pub(crate) fn hash_probe(
    ctx: &ExecCtx,
    outer_rows: Rows,
    inner_rows: &[Tuple],
    okeys: &[usize],
    ikeys: &[usize],
    pred: &Option<BoundExpr>,
    kind: JoinKind,
) -> Result<Vec<Tuple>, ExecError> {
    // Build rows are filed last to first: chains prepend, so a probe
    // sees its matches in build order.
    let mut index = KeyIndex::with_capacity(inner_rows.len());
    for (n, i) in inner_rows.iter().enumerate().rev() {
        if n % INTERRUPT_CHECK_INTERVAL == 0 {
            ctx.check_interrupt()?;
        }
        if !i.key_has_null(ikeys) {
            index.insert(i.key_hash(ikeys), n);
        }
    }

    match kind {
        JoinKind::Inner => {
            let mut rows = Vec::new();
            for (n, o) in outer_rows.iter().enumerate() {
                if n % INTERRUPT_CHECK_INTERVAL == 0 {
                    ctx.check_interrupt()?;
                }
                if o.key_has_null(okeys) {
                    continue;
                }
                for i in build_matches(&index, inner_rows, ikeys, o, okeys) {
                    let joined = o.concat(i);
                    if passes(pred, &joined)? {
                        rows.push(joined);
                    }
                }
            }
            Ok(rows)
        }
        JoinKind::Semi => outer_rows.keep(|n, o| {
            if n % INTERRUPT_CHECK_INTERVAL == 0 {
                ctx.check_interrupt()?;
            }
            if o.key_has_null(okeys) {
                return Ok(false);
            }
            for i in build_matches(&index, inner_rows, ikeys, o, okeys) {
                if passes_residual(pred, o, i)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }),
    }
}

/// The rows filed in `index` over `inner_rows` whose key columns at
/// `ikeys` equal `o`'s at `okeys`, in build order.
fn build_matches<'a>(
    index: &'a KeyIndex,
    inner_rows: &'a [Tuple],
    ikeys: &'a [usize],
    o: &'a Tuple,
    okeys: &'a [usize],
) -> impl Iterator<Item = &'a Tuple> + 'a {
    index
        .candidates(o.key_hash(okeys))
        .map(|c| &inner_rows[c])
        .filter(move |i| o.key_eq(okeys, i, ikeys))
}

/// One merge-join input in its join-key order. The sortedness check
/// charges one tuple op per comparison (the detection pass a real
/// engine's sort operator performs before deciding to spill) — `n − 1`,
/// where the cost model prices `n` (a gap, DESIGN.md "One set of
/// charges"). An unsorted side is sorted, degrading to the external
/// merge sort when memory governance says to (same decision rule as the
/// standalone sort operator); the in-memory path keeps the seed's
/// simulated external-sort charge. A side already in order is returned
/// as it came, shared or owned.
fn sorted_side(
    ctx: &ExecCtx,
    rows: Rows,
    keys: &[usize],
    schema: &fj_storage::Schema,
) -> Result<Rows, ExecError> {
    let n = rows.len() as u64;
    ctx.ledger.book(charge::ops(n.saturating_sub(1)));
    if rows
        .windows(2)
        .all(|w| w[0].key_cmp(keys, &w[1], keys).is_le())
    {
        return Ok(rows);
    }
    ctx.ledger.book(charge::compares(n));
    let layout = fj_storage::PageLayout::for_schema(schema);
    let pages = layout.pages(n);
    let _grant = match ctx.spill_decision(pages) {
        Placement::Spill(spill) => {
            return super::spill::external_sort_rows(ctx, &spill, layout, rows, keys)
                .map(Rows::Owned);
        }
        Placement::Memory(grant) => grant,
    };
    charge_external_sort(ctx, pages);
    let mut rows = rows.into_vec();
    rows.sort_by(|a, b| a.key_cmp(keys, b, keys));
    Ok(Rows::Owned(rows))
}

/// Sort-merge join. Inputs that already arrive sorted by their join
/// keys (an *interesting order*, §3.1) skip their sort entirely — the
/// operator detects sortedness in one linear pass and only sorts (and
/// charges external-sort I/O via the shared sort-charge helper) the sides
/// that need it, so plans that preserve sort orders really are cheaper
/// at runtime, exactly as the optimizer's cost model predicts.
pub fn merge_join(
    ctx: &ExecCtx,
    outer: Rel,
    inner: Rel,
    keys: &[(String, String)],
    residual: Option<&Expr>,
) -> Result<Rel, ExecError> {
    if keys.is_empty() {
        return Err(ExecError::InvalidPhysicalPlan(
            "merge join requires at least one equi-key".into(),
        ));
    }
    let idx = resolve_keys(&outer, &inner, keys)?;
    let (okeys, ikeys): (Vec<usize>, Vec<usize>) = idx.into_iter().unzip();
    let out_schema = joined_schema(&outer, &inner)?;
    let pred = bind_residual(residual, &out_schema)?;

    // Sort whichever sides need it.
    let (no, ni) = (outer.rows.len() as u64, inner.rows.len() as u64);
    let left = sorted_side(ctx, outer.rows, &okeys, &outer.schema)?;
    let right = sorted_side(ctx, inner.rows, &ikeys, &inner.schema)?;

    let mut rows = Vec::new();
    let (mut li, mut ri) = (0usize, 0usize);
    let mut since_check = 0usize;
    while li < left.len() && ri < right.len() {
        since_check += 1;
        if since_check >= INTERRUPT_CHECK_INTERVAL {
            since_check = 0;
            ctx.check_interrupt()?;
        }
        if left[li].key_has_null(&okeys) {
            li += 1;
            continue;
        }
        if right[ri].key_has_null(&ikeys) {
            ri += 1;
            continue;
        }
        match left[li].key_cmp(&okeys, &right[ri], &ikeys) {
            std::cmp::Ordering::Less => li += 1,
            std::cmp::Ordering::Greater => ri += 1,
            std::cmp::Ordering::Equal => {
                // Emit the cross product of the equal-key groups.
                let (l_start, r_start) = (li, ri);
                let mut r_end = ri;
                while r_end < right.len() && right[r_end].key_eq(&ikeys, &left[l_start], &okeys) {
                    r_end += 1;
                }
                while li < left.len() && left[li].key_eq(&okeys, &left[l_start], &okeys) {
                    for r in &right[r_start..r_end] {
                        let joined = left[li].concat(r);
                        if passes(&pred, &joined)? {
                            rows.push(joined);
                        }
                    }
                    li += 1;
                }
                ri = r_end;
            }
        }
    }
    ctx.ledger.book(charge::join(no, ni, rows.len() as u64));
    Ok(Rel::new(out_schema, rows))
}

/// Repeated-probe join against a user-defined relation: invokes the UDF
/// once per outer row (duplicate-argument caching is the UDF wrapper's
/// concern — see `fj-udf`). Output = outer ⊕ udf schema.
pub fn udf_probe(
    ctx: &ExecCtx,
    outer: Rel,
    udf: &str,
    alias: &str,
    arg_cols: &[String],
) -> Result<Rel, ExecError> {
    let u = ctx.catalog.udf(udf)?;
    if arg_cols.len() != u.arg_count() {
        return Err(ExecError::InvalidPhysicalPlan(format!(
            "udf '{udf}' takes {} args, got {}",
            u.arg_count(),
            arg_cols.len()
        )));
    }
    let arg_idx: Vec<usize> = arg_cols
        .iter()
        .map(|c| outer.schema.resolve(c))
        .collect::<Result<_, _>>()?;
    let udf_schema = u.schema();
    let out_schema = Arc::new(outer.schema.join(&maybe_qualify(&udf_schema, alias))?);

    let mut rows = Vec::new();
    for (n, o) in outer.rows.iter().enumerate() {
        if n % INTERRUPT_CHECK_INTERVAL == 0 {
            ctx.check_interrupt()?;
        }
        let args: Vec<Value> = arg_idx.iter().map(|&i| o.value(i).clone()).collect();
        if args.iter().any(Value::is_null) {
            continue;
        }
        for t in u.invoke(&args, &ctx.ledger) {
            rows.push(o.concat(&t));
        }
    }
    Ok(Rel::new(out_schema, rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_algebra::Catalog;
    use fj_expr::{col, lit};
    use fj_storage::{tuple, DataType, Schema, TableBuilder};

    fn ctx() -> ExecCtx {
        ExecCtx::new(Arc::new(Catalog::new()))
    }

    fn left() -> Rel {
        Rel::new(
            Schema::from_pairs(&[("L.k", DataType::Int), ("L.v", DataType::Int)]).into_ref(),
            vec![
                tuple![1, 100],
                tuple![2, 200],
                tuple![2, 201],
                tuple![3, 300],
            ],
        )
    }

    fn right() -> Rel {
        Rel::new(
            Schema::from_pairs(&[("R.k", DataType::Int), ("R.w", DataType::Int)]).into_ref(),
            vec![tuple![2, -2], tuple![3, -3], tuple![3, -33], tuple![4, -4]],
        )
    }

    /// Expected inner-join row multiset on k: (2,200,-2), (2,201,-2),
    /// (3,300,-3), (3,300,-33).
    fn expected_inner() -> Vec<Tuple> {
        vec![
            tuple![2, 200, 2, -2],
            tuple![2, 201, 2, -2],
            tuple![3, 300, 3, -3],
            tuple![3, 300, 3, -33],
        ]
    }

    fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
        rows.sort();
        rows
    }

    #[test]
    fn all_join_methods_agree() {
        let keys = vec![("L.k".to_string(), "R.k".to_string())];
        let pred = col("L.k").eq(col("R.k"));

        let nlj =
            block_nested_loops(&ctx(), left(), right(), Some(&pred), JoinKind::Inner).unwrap();
        let hj = hash_join(&ctx(), left(), right(), &keys, None, JoinKind::Inner).unwrap();
        let mj = merge_join(&ctx(), left(), right(), &keys, None).unwrap();

        assert_eq!(sorted(nlj.rows.into_vec()), sorted(expected_inner()));
        assert_eq!(sorted(hj.rows.into_vec()), sorted(expected_inner()));
        assert_eq!(sorted(mj.rows.into_vec()), sorted(expected_inner()));
    }

    #[test]
    fn semi_join_variants_agree() {
        let keys = vec![("L.k".to_string(), "R.k".to_string())];
        let pred = col("L.k").eq(col("R.k"));
        let expect = vec![tuple![2, 200], tuple![2, 201], tuple![3, 300]];

        let nlj = block_nested_loops(&ctx(), left(), right(), Some(&pred), JoinKind::Semi).unwrap();
        let hj = hash_join(&ctx(), left(), right(), &keys, None, JoinKind::Semi).unwrap();
        assert_eq!(sorted(nlj.rows.into_vec()), sorted(expect.clone()));
        assert_eq!(sorted(hj.rows.into_vec()), sorted(expect));
        assert_eq!(nlj.schema.arity(), 2, "semi join keeps outer schema");
    }

    #[test]
    fn residual_free_semi_joins_emit_the_outer_rows_themselves() {
        // Regression: both semi-join kernels used to build `o ⊕ i` for
        // every candidate match and throw it away. Without a residual
        // nothing may be built at all — every output row must be the
        // outer input's own storage, in outer order.
        let outer_rows: Vec<Tuple> = (0..10_000).map(|i| tuple![i % 100, i]).collect();
        let outer = || {
            Rel::new(
                Schema::from_pairs(&[("L.k", DataType::Int), ("L.v", DataType::Int)]).into_ref(),
                outer_rows.clone(),
            )
        };
        let inner = || {
            Rel::new(
                Schema::from_pairs(&[("R.k", DataType::Int)]).into_ref(),
                (0..200).map(|i| tuple![i % 50]).collect(),
            )
        };
        let expect: Vec<&Tuple> = outer_rows
            .iter()
            .filter(|t| t.value(0).as_int().unwrap() < 50)
            .collect();
        let keys = vec![("L.k".to_string(), "R.k".to_string())];
        let hj = hash_join(&ctx(), outer(), inner(), &keys, None, JoinKind::Semi).unwrap();
        let small = || Rel::new(outer().schema, outer_rows[..300].to_vec());
        let nlj = block_nested_loops(&ctx(), small(), inner(), None, JoinKind::Semi).unwrap();
        assert_eq!(hj.rows.len(), 5_000);
        for (out, src) in hj.rows.iter().zip(&expect) {
            assert!(out.shares_storage_with(src), "{out} was copied");
        }
        // No predicate: every outer row with a non-empty inner survives.
        assert_eq!(nlj.rows.len(), 300);
        for (out, src) in nlj.rows.iter().zip(&outer_rows) {
            assert!(out.shares_storage_with(src), "{out} was copied");
        }
    }

    #[test]
    fn null_keys_never_match() {
        let l = Rel::new(
            Schema::new(vec![fj_storage::Column::nullable("L.k", DataType::Int)])
                .unwrap()
                .into_ref(),
            vec![Tuple::new(vec![Value::Null]), tuple![2]],
        );
        let r = Rel::new(
            Schema::new(vec![fj_storage::Column::nullable("R.k", DataType::Int)])
                .unwrap()
                .into_ref(),
            vec![Tuple::new(vec![Value::Null]), tuple![2]],
        );
        let keys = vec![("L.k".to_string(), "R.k".to_string())];
        let hj = hash_join(&ctx(), l.clone(), r.clone(), &keys, None, JoinKind::Inner).unwrap();
        assert_eq!(hj.rows, vec![tuple![2, 2]]);
        let mj = merge_join(&ctx(), l, r, &keys, None).unwrap();
        assert_eq!(mj.rows, vec![tuple![2, 2]]);
    }

    #[test]
    fn residual_predicate_applies() {
        let keys = vec![("L.k".to_string(), "R.k".to_string())];
        let resid = col("R.w").lt(lit(-3));
        let hj = hash_join(
            &ctx(),
            left(),
            right(),
            &keys,
            Some(&resid),
            JoinKind::Inner,
        )
        .unwrap();
        assert_eq!(sorted(hj.rows.into_vec()), vec![tuple![3, 300, 3, -33]]);
    }

    #[test]
    fn cross_product_via_nlj() {
        let r = block_nested_loops(&ctx(), left(), right(), None, JoinKind::Inner).unwrap();
        assert_eq!(r.rows.len(), 16);
    }

    #[test]
    fn empty_key_join_rejected() {
        assert!(hash_join(&ctx(), left(), right(), &[], None, JoinKind::Inner).is_err());
        assert!(merge_join(&ctx(), left(), right(), &[], None).is_err());
    }

    #[test]
    fn bnl_charges_rescan_io() {
        // Tiny memory forces multiple outer blocks.
        let c = ctx().with_memory_pages(3);
        let big_left = Rel::new(
            Schema::from_pairs(&[("L.k", DataType::Int)]).into_ref(),
            (0..2000).map(|i| tuple![i]).collect(),
        );
        let big_right = Rel::new(
            Schema::from_pairs(&[("R.k", DataType::Int)]).into_ref(),
            (0..2000).map(|i| tuple![i]).collect(),
        );
        let op = big_left.page_count();
        let ip = big_right.page_count();
        let before = c.ledger.snapshot();
        block_nested_loops(
            &c,
            big_left,
            big_right,
            Some(&col("L.k").eq(col("R.k"))),
            JoinKind::Inner,
        )
        .unwrap();
        let blocks = op.div_ceil(1); // M-2 = 1
        assert_eq!(
            c.ledger.snapshot().delta(&before).page_reads,
            (blocks - 1) * ip
        );
    }

    #[test]
    fn hash_join_grace_charge_when_build_spills() {
        let c = ctx().with_memory_pages(3);
        let l = Rel::new(
            Schema::from_pairs(&[("L.k", DataType::Int)]).into_ref(),
            (0..2000).map(|i| tuple![i]).collect(),
        );
        let r = Rel::new(
            Schema::from_pairs(&[("R.k", DataType::Int)]).into_ref(),
            (0..2000).map(|i| tuple![i]).collect(),
        );
        let p = l.page_count() + r.page_count();
        let keys = vec![("L.k".to_string(), "R.k".to_string())];
        let before = c.ledger.snapshot();
        hash_join(&c, l, r, &keys, None, JoinKind::Inner).unwrap();
        let d = c.ledger.snapshot().delta(&before);
        assert_eq!(d.page_writes, p);
        assert_eq!(d.page_reads, p);
    }

    #[test]
    fn index_nested_loops_probes() {
        let mut cat = Catalog::new();
        let mut t = TableBuilder::new("R")
            .column("k", DataType::Int)
            .column("w", DataType::Int)
            .rows((0..100i64).map(|i| vec![(i % 10).into(), i.into()]))
            .build()
            .unwrap();
        t.create_hash_index(0).unwrap();
        cat.add_table(t.into_ref());
        let c = ExecCtx::new(Arc::new(cat));

        let outer = Rel::new(
            Schema::from_pairs(&[("L.k", DataType::Int)]).into_ref(),
            vec![tuple![3], tuple![7]],
        );
        let r = index_nested_loops(&c, outer, "R", "R", "L.k", "k", None).unwrap();
        assert_eq!(r.rows.len(), 20); // 10 matches per probe value
        assert!(r.schema.contains("R.w"));
        // 2 probes (1 page each) + 20 fetches.
        assert_eq!(c.ledger.snapshot().page_reads, 22);
    }

    #[test]
    fn index_nested_loops_requires_index() {
        let mut cat = Catalog::new();
        cat.add_table(
            TableBuilder::new("R")
                .column("k", DataType::Int)
                .build()
                .unwrap()
                .into_ref(),
        );
        let c = ExecCtx::new(Arc::new(cat));
        let outer = Rel::new(
            Schema::from_pairs(&[("L.k", DataType::Int)]).into_ref(),
            vec![tuple![3]],
        );
        assert!(matches!(
            index_nested_loops(&c, outer, "R", "R", "L.k", "k", None),
            Err(ExecError::InvalidPhysicalPlan(_))
        ));
    }
}
