//! Intra-query parallelism helpers: hash-partition routing for
//! partitioned joins.
//!
//! Parallel operators must leave the cost model untouched: the ledger is
//! charged exactly the amounts the serial operator would charge (the
//! [`fj_storage::CostLedger`] is atomic, so workers can charge their
//! per-row shares concurrently and the totals still reconcile with the
//! System-R formulas). Parallelism changes wall-clock time only — never
//! measured cost, and never the output row *multiset*.

use fj_storage::Tuple;

/// Minimum input rows before an operator bothers fanning out; below
/// this, thread spawn overhead dwarfs the work.
pub const PARALLEL_ROW_THRESHOLD: usize = 1024;

/// Routes a row to one of `parts` hash partitions by its key columns at
/// `key_idx`, hashed in place. Partitioning is by key hash, so every row
/// pair that could match lands in the same partition and per-partition
/// joins are independent.
pub fn route(row: &Tuple, key_idx: &[usize], parts: usize) -> usize {
    (row.key_hash(key_idx) % parts.max(1) as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_storage::Value;

    #[test]
    fn route_is_bounded_and_agrees_with_the_owned_key() {
        let row = Tuple::new(vec![
            Value::Str("pad".into()),
            Value::Int(42),
            Value::Str("x".into()),
            Value::Double(42.0),
        ]);
        let owned = Tuple::new(row.key(&[1, 2]));
        for parts in [1, 2, 7, 32] {
            let p = route(&row, &[1, 2], parts);
            assert!(p < parts);
            assert_eq!(p, route(&owned, &[0, 1], parts));
            // Int 42 and Double 42.0 are equal keys: same partition.
            assert_eq!(route(&row, &[1], parts), route(&row, &[3], parts));
        }
    }
}
