//! The exchange operator for partitioned (distributed) execution: the
//! ordinal merge on the way back into a coordinator.
//!
//! It charges the ledger so a distributed run's model-unit costs stay
//! reconcilable with the serial oracle: one tuple operation per row
//! merged (the comparison), exactly as the local operators do, and
//! nothing else — shipping itself is charged by whoever puts the rows
//! on a wire.

use crate::context::ExecCtx;
use crate::error::ExecError;
use crate::physical::Rel;
use fj_storage::{charge, Tuple};

/// Merges gathered partitions back into one relation ordered by the
/// integer ordinal column at index `ord_col` (the coordinator's hidden
/// row-ordinal), dropping duplicates of the same ordinal — a replica
/// re-gather after failover must not double rows. Charges one tuple op
/// per input row. The ordinal column is *kept*; callers strip it when
/// rebuilding the base table.
pub fn merge_by_ordinal(
    ctx: &ExecCtx,
    schema: fj_storage::SchemaRef,
    parts: Vec<Vec<Tuple>>,
    ord_col: usize,
) -> Result<Rel, ExecError> {
    ctx.check_interrupt()?;
    let mut merged: std::collections::BTreeMap<Tuple, Tuple> = std::collections::BTreeMap::new();
    let mut n = 0u64;
    for part in parts {
        for row in part {
            if ord_col >= row.arity() {
                return Err(ExecError::InvalidPhysicalPlan(format!(
                    "ordinal column {} out of range for arity {}",
                    ord_col,
                    row.arity()
                )));
            }
            n += 1;
            let key = Tuple::new(vec![row.value(ord_col).clone()]);
            merged.entry(key).or_insert(row);
        }
    }
    ctx.ledger.book(charge::ops(n));
    Ok(Rel::new(schema, merged.into_values().collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_algebra::Catalog;
    use fj_storage::{tuple, DataType, Schema};
    use std::sync::Arc;

    fn rel() -> Rel {
        Rel::new(
            Schema::from_pairs(&[("k", DataType::Int), ("ord", DataType::Int)]).into_ref(),
            (0..100).map(|i| tuple![i % 7, i]).collect(),
        )
    }

    #[test]
    fn merge_restores_ordinal_order_and_dedups_replicas() {
        let ctx = ExecCtx::new(Arc::new(Catalog::new()));
        let r = rel();
        let mut gathered: Vec<Vec<Tuple>> = (0..4)
            .map(|p| r.rows.iter().skip(p).step_by(4).cloned().collect())
            .collect();
        // Simulate a replica double-gather of partition 0.
        gathered.push(gathered[0].clone());
        let merged = merge_by_ordinal(&ctx, r.schema.clone(), gathered, 1).unwrap();
        assert_eq!(merged.rows, r.rows);
    }
}
