//! §5.2: user-defined relations — a credit-score function joined to a
//! skewed transaction table.
//!
//! Shows the three execution disciplines of Figure 6's last column:
//! raw repeated probing, function caching (memoing), and the Filter
//! Join ("consecutive procedure calls" over the distinct filter set —
//! *no duplicate invocations*), with actual invocation counts. Also
//! demonstrates the cost-based optimizer planning a query over the UDF
//! relation via `Database::execute`.
//!
//! ```sh
//! cargo run --example udf_join
//! ```

use filterjoin::{
    col, DataType, Database, FromItem, JoinQuery, MemoUdf, Schema, TableBuilder, TableFunction,
    Value,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const N_TXNS: usize = 5_000;
const N_CUSTS: i64 = 100;

/// credit_score(cust) -> score: an "expensive" function (3 page-units
/// per call — think of a remote service or a heavyweight model).
fn credit_score() -> TableFunction {
    let schema =
        Schema::from_pairs(&[("cust", DataType::Int), ("score", DataType::Int)]).into_ref();
    TableFunction::new("credit_score", schema, 1, 3.0, |args| {
        let c = args[0].as_int().unwrap_or(0);
        vec![vec![Value::Int(300 + (c * 7919) % 550)]]
    })
    .with_domain((0..N_CUSTS).map(|i| vec![Value::Int(i)]).collect())
}

fn build_db(udf: Arc<dyn filterjoin::UdfRelation>) -> Database {
    let mut rng = StdRng::seed_from_u64(4);
    let mut db = Database::new();
    db.create_table(
        TableBuilder::new("Txn")
            .column("cust", DataType::Int)
            .column("amount", DataType::Double)
            .rows((0..N_TXNS).map(|_| {
                vec![
                    Value::Int(rng.gen_range(0..N_CUSTS)),
                    Value::Double(rng.gen_range(1.0..500.0)),
                ]
            }))
            .build()
            .expect("Txn builds"),
    );
    db.create_udf("credit_score", udf);
    db
}

fn main() {
    println!(
        "{N_TXNS} transactions over {N_CUSTS} customers; credit_score costs 3 page-units/call\n"
    );

    // The query: every transaction with its customer's credit score.
    let query = JoinQuery::new(vec![
        FromItem::new("Txn", "T"),
        FromItem::new("credit_score", "C"),
    ])
    .with_predicate(col("T.cust").eq(col("C.cust")))
    .with_projection(vec![
        (col("T.cust"), "cust".into()),
        (col("T.amount"), "amount".into()),
        (col("C.score"), "score".into()),
    ]);

    // --- 1. Raw function: the optimizer plans the join itself. Every
    // real call charges the ledger's `udf_calls`.
    let db = build_db(Arc::new(credit_score()));
    let result = db.execute(&query).expect("optimizes and runs");
    println!("cost-based plan over the raw function:");
    println!("  join order: {}", result.order.join(" -> "));
    println!(
        "  filter join: {}",
        if result.sips.is_empty() { "no" } else { "yes" }
    );
    println!(
        "  rows: {}   invocations: {}   measured cost: {:.1}\n",
        result.rows.len(),
        result.charges.udf_calls,
        result.measured_cost
    );

    // --- 2. Same query with a memoized function: a cache hit never
    // reaches the function, so `udf_calls` counts the underlying calls.
    let db = build_db(Arc::new(MemoUdf::new(credit_score())));
    let result = db.execute(&query).expect("optimizes and runs");
    println!("same plan with function caching (memoing):");
    println!(
        "  rows: {}   underlying invocations: {}   measured cost: {:.1}\n",
        result.rows.len(),
        result.charges.udf_calls,
        result.measured_cost
    );

    println!(
        "the filter join / memo both collapse {} probes to {} distinct invocations — \
         the paper's \"no duplicate function invocations\" (§5.2)",
        N_TXNS, N_CUSTS
    );
}
