//! Statistics maintained by deltas equal statistics re-analyzed from
//! the rows, representatives included.
//!
//! A table's next version ([`Table::next_version`]) merges a
//! mutation's removed and added rows into the previous version's
//! sorted columns ([`TableStats::with_delta`]) instead of re-analyzing.
//! Over random insert/update/delete sequences on nullable Int, Double,
//! Str and Bool columns — with NaNs of both signs, `0.0` beside `-0.0`,
//! and `Int`s stored in the Double column, the values `Value::cmp`
//! calls equal without being the same — every step must leave exactly
//! what `TableStats::analyze` computes from the resulting rows: equal
//! under `==`, identical under `{:?}`, and the same values bit for bit.
//! And `analyze` itself must not depend on row order.

use fj_storage::{splitmix64, Column, DataType, Mutation, Schema, Table, TableStats, Tuple, Value};
use proptest::prelude::*;

const COLUMNS: [&str; 5] = ["k", "i", "d", "s", "b"];

fn schema() -> Schema {
    Schema::new(vec![
        Column::new("k", DataType::Int),
        Column::nullable("i", DataType::Int),
        Column::nullable("d", DataType::Double),
        Column::nullable("s", DataType::Str),
        Column::nullable("b", DataType::Bool),
    ])
    .expect("distinct names")
}

/// Column `col`'s palette, indexed by `pick` (wrapping). The Double
/// palette holds every pair `cmp` equates but a delta must keep apart.
fn value(col: usize, pick: usize) -> Value {
    let palette: &[Value] = match col {
        0 => &[Value::Int(0), Value::Int(1), Value::Int(2), Value::Int(3)],
        1 => &[Value::Null, Value::Int(-2), Value::Int(0), Value::Int(5)],
        2 => &[
            Value::Null,
            Value::Double(f64::NAN),
            Value::Double(-f64::NAN),
            Value::Double(0.0),
            Value::Double(-0.0),
            Value::Int(0),
            Value::Double(1.0),
            Value::Int(1),
            Value::Double(-2.5),
            Value::Double(f64::INFINITY),
        ],
        3 => &[
            Value::Null,
            Value::Str(String::new()),
            Value::Str("a".into()),
            Value::Str("ab".into()),
        ],
        _ => &[Value::Null, Value::Bool(false), Value::Bool(true)],
    };
    palette[pick % palette.len()].clone()
}

fn row(picks: (usize, usize, usize, usize, usize)) -> Vec<Value> {
    let (k, i, d, s, b) = picks;
    vec![
        value(0, k),
        value(1, i),
        value(2, d),
        value(3, s),
        value(4, b),
    ]
}

/// One step: `(kind, column, pick, set column, set pick, inserted rows)`.
type Step = (
    usize,
    usize,
    usize,
    usize,
    usize,
    Vec<(usize, usize, usize, usize, usize)>,
);

fn mutation(step: &Step) -> Mutation {
    let (kind, col, pick, set_col, set_pick, inserted) = step;
    let table = "T".to_string();
    match kind % 3 {
        0 => Mutation::Insert {
            table,
            rows: inserted.iter().copied().map(row).collect(),
        },
        1 => Mutation::Update {
            table,
            // `k` is not nullable: updates assign the other columns.
            set: vec![(
                COLUMNS[1 + set_col % 4].to_string(),
                value(1 + set_col % 4, *set_pick),
            )],
            where_col: COLUMNS[col % 5].to_string(),
            where_value: value(col % 5, *pick),
        },
        _ => Mutation::Delete {
            table,
            where_col: COLUMNS[col % 5].to_string(),
            where_value: value(col % 5, *pick),
        },
    }
}

/// A value as its exact bits: `{:?}` prints both NaNs as `NaN`.
fn exact(v: &Value) -> String {
    match v {
        Value::Double(d) => format!("Double({:#x})", d.to_bits()),
        other => format!("{other:?}"),
    }
}

/// Equal under `==`, under `{:?}`, and value for value bit for bit.
fn assert_same(got: &TableStats, want: &TableStats, context: &str) {
    assert_eq!(got, want, "{context}");
    assert_eq!(format!("{got:?}"), format!("{want:?}"), "{context}");
    for (g, w) in got.columns.iter().zip(&want.columns) {
        let bits = |s: &fj_storage::ColumnStats| {
            let ends = [&s.min, &s.max].map(|v| v.as_ref().map(exact));
            (ends, s.values().iter().map(exact).collect::<Vec<_>>())
        };
        assert_eq!(bits(g), bits(w), "{context}");
    }
}

fn shuffled(rows: &[Tuple], seed: u64) -> Vec<Tuple> {
    let mut out = rows.to_vec();
    for i in (1..out.len()).rev() {
        let j = (splitmix64(seed ^ i as u64) % (i as u64 + 1)) as usize;
        out.swap(i, j);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn delta_maintained_stats_equal_reanalysis(
        initial in prop::collection::vec((0usize..4, 0usize..4, 0usize..10, 0usize..4, 0usize..3), 0..40),
        steps in prop::collection::vec(
            (
                0usize..3,
                0usize..5,
                0usize..10,
                0usize..4,
                0usize..10,
                prop::collection::vec((0usize..4, 0usize..4, 0usize..10, 0usize..4, 0usize..3), 0..4),
            ),
            1..12,
        ),
    ) {
        let schema = schema();
        let rows: Vec<Tuple> = initial.into_iter().map(|p| Tuple::new(row(p))).collect();
        let mut table = Table::new("T", schema.clone(), rows).expect("rows conform");
        for (n, step) in steps.iter().enumerate() {
            let m = mutation(step);
            let applied = m.apply_delta(&schema, table.rows()).expect("mutation applies");
            let (removed, added) = (applied.removed, applied.added);
            table = table
                .next_version(applied.rows, &removed, &added)
                .expect("added rows conform");
            let fresh = TableStats::analyze(&schema, table.rows());
            assert_same(table.stats(), &fresh, &format!("step {n}: {m:?}"));
        }
    }

    #[test]
    fn analyze_ignores_row_order(
        initial in prop::collection::vec((0usize..4, 0usize..4, 0usize..10, 0usize..4, 0usize..3), 0..60),
        seed in 0u64..u64::MAX,
    ) {
        let schema = schema();
        let rows: Vec<Tuple> = initial.into_iter().map(|p| Tuple::new(row(p))).collect();
        let base = TableStats::analyze(&schema, &rows);
        let other = TableStats::analyze(&schema, &shuffled(&rows, seed));
        assert_same(&other, &base, "shuffled rows");
    }
}
