//! Quickstart: the paper's Figure 1 query, end to end.
//!
//! Builds the Emp/Dept schema and the `DepAvgSal` view, runs the
//! motivating query three ways (original, always-magic, cost-based),
//! and prints the optimizer's EXPLAIN — including, when a Filter Join
//! is chosen, the Table 1 cost breakdown and the SIPS that would drive
//! the textual magic rewriting.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use filterjoin::{
    col, fixtures, lit, AggCall, AggFunc, DataType, Database, FromItem, JoinQuery, LogicalPlan,
    Schema, Sips, TableBuilder, Value, ViewDef,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    // ---- 1. Build the database of Figure 1, scaled up enough that the
    // cost differences are visible (2 000 employees, 200 departments, a
    // tenth of them "big").
    let mut db = Database::new();
    let mut rng = StdRng::seed_from_u64(7);
    db.create_table(
        TableBuilder::new("Dept")
            .column("did", DataType::Int)
            .column("budget", DataType::Double)
            .rows((0..200).map(|d| {
                let budget = if d < 20 { 250_000.0 } else { 50_000.0 };
                vec![Value::Int(d), Value::Double(budget)]
            }))
            .build()
            .expect("Dept builds"),
    );
    db.create_table(
        TableBuilder::new("Emp")
            .column("eid", DataType::Int)
            .column("did", DataType::Int)
            .column("sal", DataType::Double)
            .column("age", DataType::Int)
            .rows((0..2_000).map(|e| {
                vec![
                    Value::Int(e),
                    Value::Int(rng.gen_range(0..200)),
                    Value::Double(rng.gen_range(1_000.0..10_000.0)),
                    Value::Int(rng.gen_range(21..65)),
                ]
            }))
            .build()
            .expect("Emp builds"),
    );

    // CREATE VIEW DepAvgSal AS
    //   SELECT E.did, AVG(E.sal) AS avgsal FROM Emp E GROUP BY E.did;
    let view_plan = LogicalPlan::scan("Emp", "E")
        .aggregate(
            vec!["E.did".into()],
            vec![AggCall::new(AggFunc::Avg, "E.sal", "avgsal")],
        )
        .project(vec![
            (col("E.did"), "did".into()),
            (col("avgsal"), "avgsal".into()),
        ]);
    db.create_view(ViewDef {
        name: "DepAvgSal".into(),
        plan: view_plan.into_ref(),
        schema: Schema::from_pairs(&[("did", DataType::Int), ("avgsal", DataType::Double)])
            .into_ref(),
    });

    // ---- 2. The query of Figure 1 (built here by hand; the shared
    // fixture `fixtures::paper_query()` is identical).
    let query = JoinQuery::new(vec![
        FromItem::new("Emp", "E"),
        FromItem::new("Dept", "D"),
        FromItem::new("DepAvgSal", "V"),
    ])
    .with_predicate(
        col("E.did")
            .eq(col("D.did"))
            .and(col("E.did").eq(col("V.did")))
            .and(col("E.sal").gt(col("V.avgsal")))
            .and(col("E.age").lt(lit(30)))
            .and(col("D.budget").gt(lit(100_000))),
    )
    .with_projection(vec![
        (col("E.did"), "did".into()),
        (col("E.sal"), "sal".into()),
        (col("V.avgsal"), "avgsal".into()),
    ]);
    assert_eq!(query, fixtures::paper_query());

    // ---- 3. Three roads to the same answer.
    println!("--- original query (no magic) ---");
    let naive = db.run_logical(&query.to_plan()).expect("naive runs");
    println!(
        "rows: {}   measured cost: {:.1} page units\n",
        naive.rows.len(),
        naive.measured_cost
    );

    println!("--- always-magic (Figure 2 rewriting, production {{E, D}}) ---");
    let sips = Sips::derive(
        db.catalog(),
        &query,
        &["E".to_string(), "D".to_string()],
        "V",
    )
    .expect("E.did = V.did exists");
    let magic = db.run_magic(&query, &sips).expect("magic runs");
    println!(
        "rows: {}   measured cost: {:.1} page units\n",
        magic.rows.len(),
        magic.measured_cost
    );

    println!("the Figure 2 rewriting this SIPS induces, as SQL:\n");
    println!("{}", db.render_magic_sql(&query, &sips).expect("renders"));
    println!();

    println!("--- cost-based (this paper) ---");
    let best = db.execute(&query).expect("optimized runs");
    println!(
        "rows: {}   measured cost: {:.1} page units   estimated: {:.1}",
        best.rows.len(),
        best.measured_cost,
        best.estimated_cost.unwrap_or(f64::NAN)
    );
    println!("\n{}", db.explain(&query).expect("explains"));

    assert_eq!(naive.rows.len(), magic.rows.len());
    assert_eq!(naive.rows.len(), best.rows.len());
    println!("first answers:");
    for t in best.rows.iter().take(5) {
        println!("  {t}");
    }

    // ---- 4. EXPLAIN ANALYZE: the same plan, executed with
    // per-operator tracing — the optimizer's own estimates vs actual
    // rows and pages, with gross misestimates flagged.
    println!("\n--- EXPLAIN ANALYZE ---");
    println!("{}", db.explain_analyze(&query).expect("analyzes"));
}
