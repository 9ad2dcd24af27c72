//! Function caching ("memoing", \[HS93\] in the paper's Figure 6):
//! repeated invocations with the same arguments pay the invocation cost
//! once.

use fj_algebra::UdfRelation;
use fj_storage::{charge, CostLedger, SchemaRef, Tuple, Value};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A memoizing wrapper around any [`UdfRelation`].
///
/// The cache is keyed by the full argument tuple. Cache *hits* charge
/// one tuple op (a hash lookup); *misses* delegate to the inner
/// relation (which charges its invocation cost), so the ledger's
/// `udf_calls` counts exactly the real invocations.
#[derive(Debug)]
pub struct MemoUdf<U: UdfRelation> {
    inner: U,
    cache: Mutex<HashMap<Vec<Value>, Arc<Vec<Tuple>>>>,
}

impl<U: UdfRelation> MemoUdf<U> {
    /// Wraps `inner` with an unbounded memo cache.
    pub fn new(inner: U) -> MemoUdf<U> {
        MemoUdf {
            inner,
            cache: Mutex::new(HashMap::new()),
        }
    }

    fn cache(&self) -> MutexGuard<'_, HashMap<Vec<Value>, Arc<Vec<Tuple>>>> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Drops all cached entries.
    pub fn clear(&self) {
        self.cache().clear();
    }
}

impl<U: UdfRelation> UdfRelation for MemoUdf<U> {
    fn schema(&self) -> SchemaRef {
        self.inner.schema()
    }

    fn arg_count(&self) -> usize {
        self.inner.arg_count()
    }

    fn invoke(&self, args: &[Value], ledger: &CostLedger) -> Vec<Tuple> {
        if let Some(cached) = self.cache().get(args) {
            ledger.book(charge::ops(1));
            return cached.as_ref().clone();
        }
        let rows = self.inner.invoke(args, ledger);
        self.cache().insert(args.to_vec(), Arc::new(rows.clone()));
        rows
    }

    fn invocation_cost(&self) -> f64 {
        // Costing still assumes a miss; the optimizer treats the cache
        // as a bonus rather than relying on hit rates it cannot know.
        self.inner.invocation_cost()
    }

    fn rows_per_call(&self) -> f64 {
        self.inner.rows_per_call()
    }

    fn domain(&self) -> Option<Vec<Vec<Value>>> {
        self.inner.domain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::TableFunction;
    use fj_storage::{DataType, Schema};

    fn square_fn() -> TableFunction {
        let schema = Schema::from_pairs(&[("x", DataType::Int), ("sq", DataType::Int)]).into_ref();
        TableFunction::new("square", schema, 1, 1.0, |args| {
            let x = args[0].as_int().unwrap_or(0);
            vec![vec![Value::Int(x * x)]]
        })
    }

    #[test]
    fn duplicate_invocations_hit_cache() {
        let m = MemoUdf::new(square_fn());
        let ledger = CostLedger::new();
        for _ in 0..5 {
            let rows = m.invoke(&[Value::Int(3)], &ledger);
            assert_eq!(rows[0].value(1), &Value::Int(9));
        }
        // Only the miss paid the invocation cost; each hit is one lookup.
        assert_eq!(ledger.snapshot().udf_calls, 1);
        assert_eq!(ledger.snapshot().tuple_ops, 100 + 4);
    }

    #[test]
    fn distinct_args_all_miss() {
        let m = MemoUdf::new(square_fn());
        let ledger = CostLedger::new();
        for i in 0..10 {
            m.invoke(&[Value::Int(i)], &ledger);
        }
        // Ten real calls at 100 ops each, and no lookup hit.
        assert_eq!(ledger.snapshot().udf_calls, 10);
        assert_eq!(ledger.snapshot().tuple_ops, 10 * 100);
        assert_eq!(m.cache().len(), 10);
    }

    #[test]
    fn clear_resets_cache_but_not_counters() {
        let m = MemoUdf::new(square_fn());
        let ledger = CostLedger::new();
        m.invoke(&[Value::Int(1)], &ledger);
        m.clear();
        m.invoke(&[Value::Int(1)], &ledger);
        assert_eq!(ledger.snapshot().udf_calls, 2);
        assert_eq!(m.cache().len(), 1);
    }

    #[test]
    fn delegates_metadata() {
        let m = MemoUdf::new(square_fn());
        assert_eq!(m.arg_count(), 1);
        assert_eq!(m.invocation_cost(), 1.0);
        assert!(m.domain().is_none());
        assert_eq!(m.schema().arity(), 2);
    }
}
