//! Exact pins of the shipping cost model: for each case, every row
//! `predict_all` returns, in its order (cheapest first, so the first
//! row is what `ShipStrategy::Auto` runs), with predicted messages,
//! bytes and the cost's bit pattern. The wire tests hold predictions to
//! the right order of magnitude; this one is what lets a rewrite of the
//! predictor claim "unchanged".
//!
//! A mismatch prints every case's rows in source form, so an
//! *intended* change is re-pinned by pasting them over the stale rows.

use fj_algebra::{Catalog, FromItem, JoinQuery};
use fj_bench::repro::dist::wire_catalog;
use fj_bench::workloads::{snowflake, star_selective};
use fj_dist::{predict_all, DistPlan};
use fj_expr::{col, lit};
use fj_storage::{DataType, TableBuilder, Value};

/// Every case runs over this many hash partitions.
const SHARDS: u32 = 3;

/// `(case, strategy, messages, bytes, cost bits)`.
type Pin<'a> = (&'a str, &'a str, f64, f64, u64);

#[rustfmt::skip]
const PINS: &[Pin<'static>] = &[
    ("d1b-small", "semijoin", 6.0, 11300.0, 0x4027090000000000), // cost 11.5176
    ("d1b-small", "bloom-semijoin", 6.0, 12183.0, 0x4027e5c000000000), // cost 11.9487
    ("d1b-small", "full-reducer", 9.0, 12100.0, 0x402dd10000000000), // cost 14.9082
    ("d1b-small", "fetch-matches", 28.0, 10900.0, 0x4040a94000000000), // cost 33.3223
    ("d1b-small", "ship-whole", 6.0, 150000.0, 0x4053cf8000000000), // cost 79.2422
    ("d1b", "semijoin", 6.0, 45200.0, 0x403c120000000000), // cost 28.0703
    ("d1b", "bloom-semijoin", 6.0, 48729.0, 0x403dcb2000000000), // cost 29.7935
    ("d1b", "full-reducer", 9.0, 48400.0, 0x4040510000000000), // cost 32.6328
    ("d1b", "fetch-matches", 103.0, 43600.0, 0x405f128000000000), // cost 124.2891
    ("d1b", "ship-whole", 6.0, 600000.0, 0x4072af8000000000), // cost 298.9688
    ("dist_3shard", "semijoin", 6.0, 11300.0, 0x4027090000000000), // cost 11.5176
    ("dist_3shard", "bloom-semijoin", 6.0, 12183.0, 0x4027e5c000000000), // cost 11.9487
    ("dist_3shard", "full-reducer", 9.0, 12100.0, 0x402dd10000000000), // cost 14.9082
    ("dist_3shard", "fetch-matches", 28.0, 10900.0, 0x4040a94000000000), // cost 33.3223
    ("dist_3shard", "ship-whole", 6.0, 150000.0, 0x4053cf8000000000), // cost 79.2422
    ("two-table", "ship-whole", 6.0, 1088.0, 0x401a200000000000), // cost 6.5312
    ("two-table", "bloom-semijoin", 6.0, 1118.0, 0x401a2f0000000000), // cost 6.5459
    ("two-table", "semijoin", 6.0, 1304.0, 0x401a8c0000000000), // cost 6.6367
    ("two-table", "full-reducer", 9.0, 1466.6666666666667, 0x40236eaaaaaaaaab), // cost 9.7161
    ("two-table", "fetch-matches", 12.0, 1160.0, 0x4029220000000000), // cost 12.5664
    ("chain", "ship-whole", 9.0, 1000.0, 0x4022fa0000000000), // cost 9.4883
    ("chain", "bloom-semijoin", 9.0, 1048.0, 0x4023060000000000), // cost 9.5117
    ("chain", "semijoin", 9.0, 1264.0, 0x40233c0000000000), // cost 9.6172
    ("chain", "full-reducer", 15.0, 1672.0, 0x402fa20000000000), // cost 15.8164
    ("chain", "fetch-matches", 36.0, 1264.0, 0x40424f0000000000), // cost 36.6172
    ("star", "ship-whole", 9.0, 5160.0, 0x40270a0000000000), // cost 11.5195
    ("star", "bloom-semijoin", 9.0, 5328.0, 0x4027340000000000), // cost 11.6016
    ("star", "semijoin", 9.0, 6312.0, 0x40282a0000000000), // cost 12.0820
    ("star", "full-reducer", 15.0, 7848.0, 0x4032d50000000000), // cost 18.8320
    ("star", "fetch-matches", 99.0, 5928.0, 0x4059794000000000), // cost 101.8945
    ("snowflake", "ship-whole", 9.0, 3720.0, 0x4025a20000000000), // cost 10.8164
    ("snowflake", "bloom-semijoin", 9.0, 3846.0, 0x4025c18000000000), // cost 10.8779
    ("snowflake", "semijoin", 9.0, 4584.0, 0x40267a0000000000), // cost 11.2383
    ("snowflake", "full-reducer", 15.0, 5980.0, 0x4031eb8000000000), // cost 17.9199
    ("snowflake", "fetch-matches", 111.0, 4584.0, 0x405c4f4000000000), // cost 113.2383
];

/// `(case, the strategy Auto picks)`.
#[rustfmt::skip]
const AUTO: &[(&str, &str)] = &[
    ("d1b-small", "semijoin"),
    ("d1b", "semijoin"),
    ("dist_3shard", "semijoin"),
    ("two-table", "ship-whole"),
    ("chain", "ship-whole"),
    ("star", "ship-whole"),
    ("snowflake", "ship-whole"),
];

/// A row as it is written in `PINS`.
fn render(&(case, strategy, messages, bytes, cost): &Pin<'_>) -> String {
    format!(
        "    ({case:?}, {strategy:?}, {messages:?}, {bytes:?}, {cost:#018x}), // cost {:.4}",
        f64::from_bits(cost)
    )
}

/// The `dist_3shard` benchmark workload's catalog: 500 orders over 25
/// referenced customers, 5 000 customers. The benchmark draws its
/// columns from its own seeded generator; the model reads only row
/// counts, value widths and the distinct counts of the join columns,
/// which this deterministic copy shares with it.
fn dist_3shard() -> (Catalog, JoinQuery) {
    let mut cat = Catalog::new();
    cat.add_table(
        TableBuilder::new("Orders")
            .column("cust", DataType::Int)
            .column("amount", DataType::Double)
            .rows((0..500).map(|i| vec![Value::Int(i % 25), Value::Double(1.0 + i as f64)]))
            .build()
            .unwrap()
            .into_ref(),
    );
    cat.add_table(
        TableBuilder::new("Customers")
            .column("cust", DataType::Int)
            .column("region", DataType::Int)
            .column("score", DataType::Double)
            .rows((0..5_000).map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i % 10),
                    Value::Double(i as f64 / 5_000.0),
                ]
            }))
            .build()
            .unwrap()
            .into_ref(),
    );
    let q = JoinQuery::new(vec![
        FromItem::new("Orders", "O"),
        FromItem::new("Customers", "C"),
    ])
    .with_predicate(col("O.cust").eq(col("C.cust")));
    (cat, q)
}

/// One table of `Int` columns named `cols`, one row per entry.
fn int_table(name: &str, cols: &[&str], rows: Vec<Vec<i64>>) -> fj_storage::TableRef {
    let mut b = TableBuilder::new(name);
    for c in cols {
        b = b.column(*c, DataType::Int);
    }
    b.rows(
        rows.into_iter()
            .map(|r| r.into_iter().map(Value::Int).collect()),
    )
    .build()
    .unwrap()
    .into_ref()
}

/// The differential suite's two-table join with duplicates and skew.
fn two_table() -> (Catalog, JoinQuery) {
    let mut cat = Catalog::new();
    cat.add_table(int_table(
        "L",
        &["k", "v"],
        (0..37).map(|i| vec![i % 7, i % 13]).collect(),
    ));
    cat.add_table(int_table(
        "R",
        &["k"],
        (0..29).map(|i| vec![i % 9]).collect(),
    ));
    let q = JoinQuery::new(vec![FromItem::new("L", "l"), FromItem::new("R", "r")])
        .with_predicate(col("l.k").eq(col("r.k")).and(col("l.v").ge(lit(4))));
    (cat, q)
}

/// The differential suite's three-table chain with one heavy key.
fn chain() -> (Catalog, JoinQuery) {
    let mut cat = Catalog::new();
    cat.add_table(int_table(
        "A",
        &["x", "y"],
        (0..24)
            .map(|i| vec![i, if i % 3 == 0 { 0 } else { i % 5 }])
            .collect(),
    ));
    cat.add_table(int_table(
        "B",
        &["y", "z"],
        (0..20).map(|i| vec![i % 5, i % 4]).collect(),
    ));
    cat.add_table(int_table(
        "C",
        &["z"],
        (0..10).map(|i| vec![i % 6]).collect(),
    ));
    let q = JoinQuery::new(vec![
        FromItem::new("A", "a"),
        FromItem::new("B", "b"),
        FromItem::new("C", "c"),
    ])
    .with_predicate(col("a.y").eq(col("b.y")).and(col("b.z").eq(col("c.z"))));
    (cat, q)
}

fn cases() -> Vec<(&'static str, Catalog, JoinQuery)> {
    let (d1b_small, q_small) = wire_catalog(500, 5_000, 25);
    let (d1b, q) = wire_catalog(2_000, 20_000, 100);
    let (bench, q_bench) = dist_3shard();
    let (two, q_two) = two_table();
    let (chain, q_chain) = chain();
    let (star, q_star) = star_selective(3, 150, 24, 15, 5);
    let (snow, q_snow) = snowflake(1, 150, 24, 12, 15, 5);
    vec![
        ("d1b-small", d1b_small, q_small),
        ("d1b", d1b, q),
        ("dist_3shard", bench, q_bench),
        ("two-table", two, q_two),
        ("chain", chain, q_chain),
        ("star", star, q_star),
        ("snowflake", snow, q_snow),
    ]
}

#[test]
fn predictions_are_pinned() {
    let mut rows = Vec::new();
    let mut picks = Vec::new();
    for (case, cat, q) in cases() {
        let plan = DistPlan::analyze(&q, &cat, SHARDS).unwrap();
        let predictions = predict_all(&plan, &cat, SHARDS);
        picks.push(format!(
            "    ({case:?}, {:?}),",
            predictions[0].strategy.name()
        ));
        rows.extend(predictions.iter().map(|p| {
            render(&(
                case,
                p.strategy.name(),
                p.messages,
                p.bytes,
                p.cost.to_bits(),
            ))
        }));
    }
    let pinned: Vec<String> = PINS.iter().map(render).collect();
    let pinned_picks: Vec<String> = AUTO
        .iter()
        .map(|(case, pick)| format!("    ({case:?}, {pick:?}),"))
        .collect();
    assert!(
        rows == pinned && picks == pinned_picks,
        "predictions differ from PINS / AUTO; actual rows:\n{}\nactual picks:\n{}",
        rows.join("\n"),
        picks.join("\n")
    );
}
