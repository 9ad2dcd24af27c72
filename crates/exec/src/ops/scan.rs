//! Scans: base tables, temp tables, literal values, UDF enumeration.

use crate::context::ExecCtx;
use crate::error::ExecError;
use crate::physical::{maybe_qualify, Rel};
use fj_storage::{charge, Index, SchemaRef, Tuple, Value};
use std::sync::Arc;

/// Sequential scan of a base table. Charges one read per table page.
/// The output rows *are* the table's row vector, shared
/// ([`Rows::Shared`](crate::physical::Rows::Shared)): the scan bumps one
/// reference count, not one per row. Page reads pass through the
/// context's fault plan, if any.
pub fn seq_scan(ctx: &ExecCtx, table: &str, alias: &str) -> Result<Rel, ExecError> {
    ctx.check_interrupt()?;
    let t = ctx.catalog.table(table)?;
    let src = t
        .scan_checked(ctx.faults.as_deref())
        .map_err(ExecError::Storage)?;
    ctx.ledger.book(charge::reads(t.page_count()));
    let rows = Arc::clone(src);
    Ok(Rel::shared(maybe_qualify(t.schema(), alias), rows))
}

/// Scan of a registered temp table. Charges its page count as reads.
/// Like [`seq_scan`], hands out the temp table's own row vector.
pub fn temp_scan(ctx: &ExecCtx, name: &str, alias: &str) -> Result<Rel, ExecError> {
    let t = ctx.temp(name)?;
    ctx.ledger.book(charge::reads(t.page_count()));
    Ok(Rel::shared(maybe_qualify(&t.schema, alias), t.rows))
}

/// Literal rows; free.
pub fn values(schema: &SchemaRef, rows: &[Vec<Value>]) -> Result<Rel, ExecError> {
    Ok(Rel::new(
        schema.clone(),
        rows.iter().map(|r| Tuple::new(r.clone())).collect(),
    ))
}

/// Ordered full scan of a base table through its B-tree index on
/// `col`: rows come out sorted by that column (NULL keys first, matching
/// the engine's sort convention) — the classic *interesting orders*
/// access path (§3.1). Books the heap pages (a clustered-scan
/// assumption; see DESIGN.md), the index's leaf pages, and one op per
/// row.
pub fn index_ordered_scan(
    ctx: &ExecCtx,
    table: &str,
    alias: &str,
    col: &str,
) -> Result<Rel, ExecError> {
    let t = ctx.catalog.table(table)?;
    let ci = t.schema().resolve(col).map_err(ExecError::Storage)?;
    let Some(idx) = t.btree_index(ci) else {
        return Err(ExecError::InvalidPhysicalPlan(format!(
            "ordered scan requires a B-tree index on {table}.{col}"
        )));
    };
    ctx.ledger.book(charge::reads(t.page_count()));
    // Disk mode: fetch every heap page through the backing explicitly
    // (not through `scan_checked`, which would add fault draws the
    // in-memory fault schedule never saw). Index leaf pages have no
    // physical shadow — only heap pages are stored — an intentional,
    // documented divergence between simulated and physical counts.
    for page_no in 0..t.page_count() {
        t.read_backed_page(page_no).map_err(ExecError::Storage)?;
    }
    // NULL keys are not indexed; they sort first by convention.
    let mut rows: Vec<Tuple> = t
        .rows()
        .iter()
        .filter(|r| r.value(ci).is_null())
        .cloned()
        .collect();
    for rid in idx.scan_all_ordered() {
        rows.push(t.rows()[rid].clone());
    }
    ctx.ledger.book(charge::reads(idx.page_count()));
    ctx.ledger.book(charge::ops(rows.len() as u64));
    Ok(Rel::new(maybe_qualify(t.schema(), alias), rows))
}

/// Full enumeration of a user-defined relation over its finite domain —
/// Figure 6's "full computation" column for UDFs. Each domain point is
/// one invocation (the UDF implementation books its own
/// [`charge::invocation`]).
pub fn udf_full_scan(ctx: &ExecCtx, udf: &str, alias: &str) -> Result<Rel, ExecError> {
    let u = ctx.catalog.udf(udf)?;
    let domain = u
        .domain()
        .ok_or_else(|| ExecError::UdfNotEnumerable(udf.to_string()))?;
    let mut rows = Vec::new();
    for args in &domain {
        rows.extend(u.invoke(args, &ctx.ledger));
    }
    Ok(Rel::new(maybe_qualify(&u.schema(), alias), rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_algebra::Catalog;
    use fj_storage::{tuple, DataType, Schema, TableBuilder};

    fn ctx_with_table() -> ExecCtx {
        let mut cat = Catalog::new();
        cat.add_table(
            TableBuilder::new("t")
                .column("a", DataType::Int)
                .row(vec![1.into()])
                .row(vec![2.into()])
                .build()
                .unwrap()
                .into_ref(),
        );
        ExecCtx::new(Arc::new(cat))
    }

    #[test]
    fn seq_scan_charges_and_qualifies() {
        let ctx = ctx_with_table();
        let r = seq_scan(&ctx, "t", "T").unwrap();
        assert_eq!(r.rows.len(), 2);
        assert!(r.schema.contains("T.a"));
        assert_eq!(ctx.ledger.snapshot().page_reads, 1);
    }

    #[test]
    fn seq_scan_shares_table_rows() {
        let ctx = ctx_with_table();
        let r = seq_scan(&ctx, "t", "T").unwrap();
        let table = ctx.catalog.table("t").unwrap();
        assert_eq!(
            r.rows.as_ptr(),
            table.rows().as_ptr(),
            "the scan copied the table's row slice"
        );
        assert_eq!(r.rows.len(), table.rows().len());
    }

    #[test]
    fn seq_scan_unknown_table() {
        let ctx = ctx_with_table();
        assert!(seq_scan(&ctx, "ghost", "").is_err());
    }

    #[test]
    fn temp_scan_round_trips() {
        let ctx = ctx_with_table();
        let schema = Schema::from_pairs(&[("x", DataType::Int)]).into_ref();
        ctx.register_temp(
            "tmp",
            crate::context::TempTable::new(schema, vec![tuple![7]]),
        );
        let before = ctx.ledger.snapshot();
        let r = temp_scan(&ctx, "tmp", "P").unwrap();
        assert_eq!(r.rows, vec![tuple![7]]);
        assert_eq!(
            r.rows.as_ptr(),
            ctx.temp("tmp").unwrap().rows.as_ptr(),
            "the scan copied the temp table's row slice"
        );
        assert!(r.schema.contains("P.x"));
        assert_eq!(ctx.ledger.snapshot().delta(&before).page_reads, 1);
        assert!(temp_scan(&ctx, "nope", "").is_err());
    }

    #[test]
    fn values_is_free() {
        let ctx = ctx_with_table();
        let schema = Schema::from_pairs(&[("x", DataType::Int)]).into_ref();
        let r = values(&schema, &[vec![Value::Int(9)]]).unwrap();
        assert_eq!(r.rows, vec![tuple![9]]);
        assert_eq!(ctx.ledger.snapshot().page_reads, 0);
    }
}
