//! Closure-backed user-defined relations.

use fj_algebra::UdfRelation;
use fj_storage::{charge, CostLedger, SchemaRef, Tuple, Value};
use std::fmt;
use std::sync::Arc;

/// The closure type evaluating a UDF: arguments in, result-column rows
/// out (each inner `Vec<Value>` holds only the *result* columns — the
/// relation prepends the arguments).
pub type UdfBody = dyn Fn(&[Value]) -> Vec<Vec<Value>> + Send + Sync;

/// A user-defined relation backed by a Rust closure.
pub struct TableFunction {
    name: String,
    schema: SchemaRef,
    arg_count: usize,
    invocation_cost: f64,
    rows_per_call: f64,
    domain: Option<Vec<Vec<Value>>>,
    body: Arc<UdfBody>,
}

impl TableFunction {
    /// Builds a table function.
    ///
    /// * `schema`: argument columns first, then result columns;
    /// * `arg_count`: how many leading columns are arguments;
    /// * `invocation_cost`: page-unit cost per call (booked as
    ///   [`charge::invocation`] at runtime);
    /// * `body`: computes result columns from argument values.
    pub fn new(
        name: impl Into<String>,
        schema: SchemaRef,
        arg_count: usize,
        invocation_cost: f64,
        body: impl Fn(&[Value]) -> Vec<Vec<Value>> + Send + Sync + 'static,
    ) -> TableFunction {
        assert!(
            arg_count <= schema.arity(),
            "arg_count exceeds schema arity"
        );
        TableFunction {
            name: name.into(),
            schema,
            arg_count,
            invocation_cost: invocation_cost.max(0.0),
            rows_per_call: 1.0,
            domain: None,
            body: Arc::new(body),
        }
    }

    /// Declares a finite argument domain, enabling full enumeration.
    pub fn with_domain(mut self, domain: Vec<Vec<Value>>) -> Self {
        self.domain = Some(domain);
        self
    }

    /// The function's name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl fmt::Debug for TableFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TableFunction")
            .field("name", &self.name)
            .field("arg_count", &self.arg_count)
            .field("invocation_cost", &self.invocation_cost)
            .field("domain_size", &self.domain.as_ref().map(Vec::len))
            .finish()
    }
}

impl UdfRelation for TableFunction {
    fn schema(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    fn arg_count(&self) -> usize {
        self.arg_count
    }

    fn invoke(&self, args: &[Value], ledger: &CostLedger) -> Vec<Tuple> {
        ledger.udf_call();
        ledger.book(charge::invocation(self.invocation_cost));
        (self.body)(args)
            .into_iter()
            .map(|results| {
                let mut vals = args.to_vec();
                vals.extend(results);
                Tuple::new(vals)
            })
            .collect()
    }

    fn invocation_cost(&self) -> f64 {
        self.invocation_cost
    }

    fn rows_per_call(&self) -> f64 {
        self.rows_per_call
    }

    fn domain(&self) -> Option<Vec<Vec<Value>>> {
        self.domain.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_storage::{DataType, Schema};

    /// distance(city) -> miles: a 1-arg function with a 3-city domain.
    pub(crate) fn distance_fn() -> TableFunction {
        let schema =
            Schema::from_pairs(&[("city", DataType::Str), ("miles", DataType::Int)]).into_ref();
        TableFunction::new("distance", schema, 1, 2.0, |args| {
            let miles = match args[0].as_str() {
                Some("madison") => 0,
                Some("chicago") => 147,
                Some("seattle") => 1996,
                _ => return vec![],
            };
            vec![vec![Value::Int(miles)]]
        })
        .with_domain(vec![
            vec![Value::Str("madison".into())],
            vec![Value::Str("chicago".into())],
            vec![Value::Str("seattle".into())],
        ])
    }

    #[test]
    fn invoke_prepends_args_and_charges() {
        let f = distance_fn();
        let ledger = CostLedger::new();
        let rows = f.invoke(&[Value::Str("chicago".into())], &ledger);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].value(0), &Value::Str("chicago".into()));
        assert_eq!(rows[0].value(1), &Value::Int(147));
        let s = ledger.snapshot();
        assert_eq!(s.udf_calls, 1);
        assert_eq!(s.tuple_ops, 200, "2.0 pages × 100 ops/page");
    }

    #[test]
    fn unknown_arg_yields_no_rows() {
        let f = distance_fn();
        let ledger = CostLedger::new();
        assert!(f
            .invoke(&[Value::Str("unknown".into())], &ledger)
            .is_empty());
        assert_eq!(ledger.snapshot().udf_calls, 1, "invocation still paid");
    }

    #[test]
    fn domain_enumeration() {
        let f = distance_fn();
        assert_eq!(f.domain().unwrap().len(), 3);
        assert_eq!(f.arg_count(), 1);
        assert_eq!(f.schema().arity(), 2);
    }

    #[test]
    #[should_panic(expected = "arg_count exceeds schema arity")]
    fn bad_arg_count_panics() {
        let schema = Schema::from_pairs(&[("a", DataType::Int)]).into_ref();
        let _ = TableFunction::new("bad", schema, 2, 1.0, |_| vec![]);
    }
}
