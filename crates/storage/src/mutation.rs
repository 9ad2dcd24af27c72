//! Logical mutations: INSERT / UPDATE / DELETE against one table.
//!
//! A [`Mutation`] is a *pure description* of a change; [`Mutation::apply`]
//! computes the post-state row vector from a schema and the current rows
//! without touching any storage. Every layer that needs the same answer
//! reuses it: the disk store applies it to build WAL page deltas, the
//! in-memory service mode applies it directly to a catalog table, and
//! the mutation-chaos oracle replays the committed mutation log through
//! it to predict what a recovered replica must serve. One definition,
//! three consumers — that is what makes "byte-identical to the oracle"
//! a meaningful check rather than two copies of the same bug.
//!
//! Predicates are deliberately minimal (equality on one column): the
//! point of this PR is the crash-safe *write path*, not a DML surface.

use crate::error::StorageError;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;

/// A single-table write: insert rows, update matching rows, or delete
/// matching rows. UPDATE and DELETE match rows by equality on one
/// column (`where_col == where_value`).
#[derive(Debug, Clone, PartialEq)]
pub enum Mutation {
    /// Append `rows` to `table`.
    Insert {
        /// Target table name (catalog name, not alias).
        table: String,
        /// New rows, in schema order.
        rows: Vec<Vec<Value>>,
    },
    /// Set columns on every row where `where_col == where_value`.
    Update {
        /// Target table name.
        table: String,
        /// `(column, new value)` assignments.
        set: Vec<(String, Value)>,
        /// Predicate column.
        where_col: String,
        /// Predicate value (equality).
        where_value: Value,
    },
    /// Remove every row where `where_col == where_value`.
    Delete {
        /// Target table name.
        table: String,
        /// Predicate column.
        where_col: String,
        /// Predicate value (equality).
        where_value: Value,
    },
}

impl Mutation {
    /// The table this mutation targets.
    pub fn table(&self) -> &str {
        match self {
            Mutation::Insert { table, .. }
            | Mutation::Update { table, .. }
            | Mutation::Delete { table, .. } => table,
        }
    }

    /// A short verb for logs and traces: `"INSERT"`, `"UPDATE"`, or
    /// `"DELETE"`.
    pub fn verb(&self) -> &'static str {
        match self {
            Mutation::Insert { .. } => "INSERT",
            Mutation::Update { .. } => "UPDATE",
            Mutation::Delete { .. } => "DELETE",
        }
    }

    /// Applies this mutation to `rows` under `schema`, returning the
    /// post-state rows and the number of rows affected (inserted,
    /// updated, or deleted). Pure: no storage is touched, inputs are
    /// not modified, and the output row *order* is deterministic
    /// (inserts append, updates rewrite in place, deletes preserve the
    /// order of survivors) — which is what lets the disk store, the
    /// in-memory mode, and the recovery oracle agree byte-for-byte.
    pub fn apply(
        &self,
        schema: &Schema,
        rows: &[Tuple],
    ) -> Result<(Vec<Tuple>, u64), StorageError> {
        let applied = self.apply_delta(schema, rows)?;
        Ok((applied.rows, applied.rows_affected))
    }

    /// [`Mutation::apply`], also handing back the delta: the rows the
    /// mutation took out and the rows it put in. An update's old
    /// versions are removed and its new versions added; a delete only
    /// removes, an insert only adds. The delta is what a table's next
    /// version merges into its statistics
    /// ([`crate::TableStats::with_delta`]) instead of re-analyzing.
    pub fn apply_delta(&self, schema: &Schema, rows: &[Tuple]) -> Result<Applied, StorageError> {
        match self {
            Mutation::Insert { table, rows: new } => {
                let mut added = Vec::with_capacity(new.len());
                for values in new {
                    let t = Tuple::new(values.clone());
                    if !t.conforms_to(schema) {
                        return Err(StorageError::SchemaMismatch {
                            table: table.clone(),
                            detail: format!("inserted row {t} does not conform to schema {schema}"),
                        });
                    }
                    added.push(t);
                }
                let mut out = Vec::with_capacity(rows.len() + added.len());
                out.extend_from_slice(rows);
                out.extend_from_slice(&added);
                Ok(Applied {
                    rows: out,
                    rows_affected: added.len() as u64,
                    removed: Vec::new(),
                    added,
                })
            }
            Mutation::Update {
                table,
                set,
                where_col,
                where_value,
            } => {
                let pred = schema.resolve(where_col)?;
                let mut assignments = Vec::with_capacity(set.len());
                for (col, value) in set {
                    let i = schema.resolve(col)?;
                    let c = schema.column(i);
                    if !value.fits(c.data_type) || (!c.nullable && value.is_null()) {
                        return Err(StorageError::SchemaMismatch {
                            table: table.clone(),
                            detail: format!(
                                "value {value} does not fit column '{}' ({})",
                                c.name, c.data_type
                            ),
                        });
                    }
                    assignments.push((i, value.clone()));
                }
                let mut out = rows.to_vec();
                let (mut removed, mut added) = (Vec::new(), Vec::new());
                for row in &mut out {
                    if row.value(pred) != where_value {
                        continue;
                    }
                    let mut values = row.values().to_vec();
                    for (i, v) in &assignments {
                        values[*i] = v.clone();
                    }
                    let new = Tuple::new(values);
                    removed.push(std::mem::replace(row, new.clone()));
                    added.push(new);
                }
                Ok(Applied {
                    rows: out,
                    rows_affected: added.len() as u64,
                    removed,
                    added,
                })
            }
            Mutation::Delete {
                where_col,
                where_value,
                ..
            } => {
                let pred = schema.resolve(where_col)?;
                let (removed, out): (Vec<Tuple>, Vec<Tuple>) = rows
                    .iter()
                    .cloned()
                    .partition(|r| r.value(pred) == where_value);
                Ok(Applied {
                    rows: out,
                    rows_affected: removed.len() as u64,
                    removed,
                    added: Vec::new(),
                })
            }
        }
    }
}

/// What [`Mutation::apply_delta`] computed: the post-state rows, the
/// affected count, and the delta between the pre- and post-state.
#[derive(Debug, Clone, PartialEq)]
pub struct Applied {
    /// The post-state rows, in [`Mutation::apply`]'s order.
    pub rows: Vec<Tuple>,
    /// Rows inserted, updated, or deleted.
    pub rows_affected: u64,
    /// Pre-state rows the mutation took out (deleted rows, the old
    /// versions of updated rows).
    pub removed: Vec<Tuple>,
    /// Rows the mutation put in (inserted rows, the new versions of
    /// updated rows).
    pub added: Vec<Tuple>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;
    use crate::value::DataType;

    fn emp_schema() -> Schema {
        Schema::from_pairs(&[
            ("eid", DataType::Int),
            ("did", DataType::Int),
            ("sal", DataType::Double),
        ])
    }

    fn emp_rows() -> Vec<Tuple> {
        vec![
            tuple![1, 10, 100.0],
            tuple![2, 20, 200.0],
            tuple![3, 10, 300.0],
        ]
    }

    #[test]
    fn insert_appends_conforming_rows() {
        let m = Mutation::Insert {
            table: "emp".into(),
            rows: vec![
                vec![Value::Int(4), Value::Int(30), Value::Double(400.0)],
                vec![Value::Int(5), Value::Int(10), Value::Double(500.0)],
            ],
        };
        let (rows, n) = m.apply(&emp_schema(), &emp_rows()).unwrap();
        assert_eq!(n, 2);
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[3], tuple![4, 30, 400.0]);
        assert_eq!(rows[..3], emp_rows()[..]);
    }

    #[test]
    fn insert_rejects_bad_arity_and_type() {
        let bad_arity = Mutation::Insert {
            table: "emp".into(),
            rows: vec![vec![Value::Int(4)]],
        };
        assert!(matches!(
            bad_arity.apply(&emp_schema(), &emp_rows()),
            Err(StorageError::SchemaMismatch { .. })
        ));
        let bad_type = Mutation::Insert {
            table: "emp".into(),
            rows: vec![vec![
                Value::Str("x".into()),
                Value::Int(1),
                Value::Double(1.0),
            ]],
        };
        assert!(matches!(
            bad_type.apply(&emp_schema(), &emp_rows()),
            Err(StorageError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn update_rewrites_matching_rows_in_place() {
        let m = Mutation::Update {
            table: "emp".into(),
            set: vec![("sal".into(), Value::Double(999.0))],
            where_col: "did".into(),
            where_value: Value::Int(10),
        };
        let (rows, n) = m.apply(&emp_schema(), &emp_rows()).unwrap();
        assert_eq!(n, 2);
        assert_eq!(rows[0], tuple![1, 10, 999.0]);
        assert_eq!(rows[1], tuple![2, 20, 200.0]);
        assert_eq!(rows[2], tuple![3, 10, 999.0]);
    }

    #[test]
    fn update_unknown_column_is_typed() {
        let m = Mutation::Update {
            table: "emp".into(),
            set: vec![("nope".into(), Value::Int(1))],
            where_col: "did".into(),
            where_value: Value::Int(10),
        };
        assert!(matches!(
            m.apply(&emp_schema(), &emp_rows()),
            Err(StorageError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn update_value_must_fit_column() {
        let m = Mutation::Update {
            table: "emp".into(),
            set: vec![("did".into(), Value::Str("hr".into()))],
            where_col: "eid".into(),
            where_value: Value::Int(1),
        };
        assert!(matches!(
            m.apply(&emp_schema(), &emp_rows()),
            Err(StorageError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn delete_preserves_survivor_order() {
        let m = Mutation::Delete {
            table: "emp".into(),
            where_col: "did".into(),
            where_value: Value::Int(10),
        };
        let (rows, n) = m.apply(&emp_schema(), &emp_rows()).unwrap();
        assert_eq!(n, 2);
        assert_eq!(rows, vec![tuple![2, 20, 200.0]]);
    }

    #[test]
    fn no_match_affects_zero_rows() {
        let m = Mutation::Delete {
            table: "emp".into(),
            where_col: "did".into(),
            where_value: Value::Int(777),
        };
        let (rows, n) = m.apply(&emp_schema(), &emp_rows()).unwrap();
        assert_eq!(n, 0);
        assert_eq!(rows, emp_rows());
    }

    #[test]
    fn apply_is_pure_and_replayable() {
        // Replaying the same committed log twice from the same base
        // yields identical rows — the oracle property the chaos
        // harness leans on.
        let log = vec![
            Mutation::Insert {
                table: "emp".into(),
                rows: vec![vec![Value::Int(9), Value::Int(90), Value::Double(9.0)]],
            },
            Mutation::Update {
                table: "emp".into(),
                set: vec![("sal".into(), Value::Double(1.5))],
                where_col: "eid".into(),
                where_value: Value::Int(9),
            },
            Mutation::Delete {
                table: "emp".into(),
                where_col: "did".into(),
                where_value: Value::Int(20),
            },
        ];
        let replay = || {
            let mut rows = emp_rows();
            for m in &log {
                rows = m.apply(&emp_schema(), &rows).unwrap().0;
            }
            rows
        };
        assert_eq!(replay(), replay());
        assert_eq!(replay().len(), 3);
    }

    #[test]
    fn apply_delta_reports_what_left_and_what_arrived() {
        let schema = emp_schema();
        let insert = Mutation::Insert {
            table: "emp".into(),
            rows: vec![vec![Value::Int(4), Value::Int(30), Value::Double(4.0)]],
        };
        let applied = insert.apply_delta(&schema, &emp_rows()).unwrap();
        assert_eq!(applied.removed, vec![]);
        assert_eq!(applied.added, vec![tuple![4, 30, 4.0]]);

        let update = Mutation::Update {
            table: "emp".into(),
            set: vec![("sal".into(), Value::Double(7.0))],
            where_col: "did".into(),
            where_value: Value::Int(10),
        };
        let applied = update.apply_delta(&schema, &emp_rows()).unwrap();
        assert_eq!(
            applied.removed,
            vec![emp_rows()[0].clone(), emp_rows()[2].clone()]
        );
        assert_eq!(applied.added, vec![tuple![1, 10, 7.0], tuple![3, 10, 7.0]]);
        assert_eq!(applied.rows_affected, 2);

        let delete = Mutation::Delete {
            table: "emp".into(),
            where_col: "eid".into(),
            where_value: Value::Int(2),
        };
        let applied = delete.apply_delta(&schema, &emp_rows()).unwrap();
        assert_eq!(applied.removed, vec![tuple![2, 20, 200.0]]);
        assert_eq!(applied.added, vec![]);

        // `apply` is `apply_delta` with the delta dropped.
        for m in [insert, update, delete] {
            let applied = m.apply_delta(&schema, &emp_rows()).unwrap();
            let plain = m.apply(&schema, &emp_rows()).unwrap();
            assert_eq!(plain, (applied.rows, applied.rows_affected));
        }
    }

    #[test]
    fn verb_and_table_accessors() {
        let m = Mutation::Delete {
            table: "emp".into(),
            where_col: "did".into(),
            where_value: Value::Int(1),
        };
        assert_eq!(m.verb(), "DELETE");
        assert_eq!(m.table(), "emp");
    }
}
