//! End-to-end scenarios across crates: distributed joins, UDF
//! relations, Bloom variants, memory pressure, and the full
//! magic-rewriting loop from cost-based SIPS back to an executable
//! rewritten query.

use filterjoin::exec::context::DEFAULT_MEMORY_PAGES;
use filterjoin::{
    col, fixtures, lit, DataType, Database, FromItem, JoinQuery, NetworkModel, OptimizerConfig,
    Schema, TableBuilder, TableFunction, Tuple, Value,
};
use fj_bench::repro::technique::{self, Technique};
use fj_bench::workloads::{orders_customers, two_site, ORDERS_CUSTOMERS as JOIN};
use std::sync::Arc;

fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort();
    rows
}

#[test]
fn chosen_sips_drives_an_equivalent_magic_rewrite() {
    // The loop the paper closes: the optimizer picks a Filter Join,
    // reports its SIPS, and that SIPS drives the *textual* magic
    // rewriting (Figure 2 road) to the same answer.
    let cat = fj_bench::workloads::emp_dept(fj_bench::workloads::EmpDeptConfig {
        n_emps: 4_000,
        n_depts: 400,
        frac_big: 0.05,
        ..Default::default()
    });
    let db = Database::with_catalog(cat);
    let q = fixtures::paper_query();
    let optimized = db.execute(&q).unwrap();
    assert!(
        !optimized.sips.is_empty(),
        "expected a filter join at this selectivity"
    );
    // A filter join whose inner is the view corresponds directly to a
    // magic rewriting of the query.
    if let Some(view_sips) = optimized.sips.iter().find(|s| s.inner == "V") {
        let rewritten = db.run_magic(&q, view_sips).unwrap();
        assert_eq!(sorted(rewritten.rows), sorted(optimized.rows.clone()));
    }
}

#[test]
fn distributed_two_site_join_all_strategies_and_optimizer() {
    let (orders, mut customers) = orders_customers(400, 4_000, 15, 5);
    customers.create_hash_index(0).unwrap();
    let catalog = Arc::new(two_site(orders, customers, NetworkModel::wan()));
    let mut db = Database::with_catalog((*catalog).clone());
    db.set_network(NetworkModel::wan());
    let expected = sorted(db.run_logical(&JOIN.logical()).unwrap().rows);
    for t in [
        Technique::Full,
        Technique::Probe,
        Technique::FilterJoin,
        Technique::lossy_for(400),
    ] {
        let m = technique::run(&catalog, JOIN, t, DEFAULT_MEMORY_PAGES).unwrap();
        assert_eq!(
            sorted(m.unwrap().rel.rows.into_vec()),
            expected,
            "{t:?} must agree"
        );
    }
    // The optimizer's own plan over the same catalog also agrees.
    let q = JoinQuery::new(vec![
        FromItem::new("Orders", "O"),
        FromItem::new("Customers", "C"),
    ])
    .with_predicate(col("O.cust").eq(col("C.cust")));
    let r = db.execute(&q).unwrap();
    assert_eq!(r.rows.len(), expected.len());
    assert!(!r.sips.is_empty(), "WAN should force the semi-join");
}

#[test]
fn udf_query_via_optimizer_matches_domain_join() {
    let mut db = Database::new();
    db.create_table(
        TableBuilder::new("Txn")
            .column("cust", DataType::Int)
            .rows((0..500i64).map(|i| vec![Value::Int(i % 20)]))
            .build()
            .unwrap(),
    );
    let schema =
        Schema::from_pairs(&[("cust", DataType::Int), ("score", DataType::Int)]).into_ref();
    let udf = TableFunction::new("score", schema, 1, 2.0, |args| {
        vec![vec![Value::Int(args[0].as_int().unwrap_or(0) * 10)]]
    })
    .with_domain((0..100i64).map(|i| vec![Value::Int(i)]).collect());
    db.create_udf("score", Arc::new(udf));

    let q = JoinQuery::new(vec![FromItem::new("Txn", "T"), FromItem::new("score", "S")])
        .with_predicate(col("T.cust").eq(col("S.cust")));
    let r = db.execute(&q).unwrap();
    assert_eq!(r.rows.len(), 500, "every txn matches its score row");
    // Each matched score is cust*10.
    for t in &r.rows {
        let cust = t.value(0).as_int().unwrap();
        let score = t.value(2).as_int().unwrap();
        assert_eq!(score, cust * 10);
    }
}

#[test]
fn udf_without_domain_requires_probeable_key() {
    let mut db = Database::new();
    db.create_table(
        TableBuilder::new("T")
            .column("k", DataType::Int)
            .row(vec![Value::Int(1)])
            .build()
            .unwrap(),
    );
    let schema = Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)]).into_ref();
    db.create_udf(
        "f",
        Arc::new(TableFunction::new("f", schema, 1, 1.0, |args| {
            vec![vec![Value::Int(args[0].as_int().unwrap_or(0) + 1)]]
        })),
    );
    // With a key: plannable via probing.
    let q = JoinQuery::new(vec![FromItem::new("T", "t"), FromItem::new("f", "F")])
        .with_predicate(col("t.k").eq(col("F.k")));
    let r = db.execute(&q).unwrap();
    assert_eq!(r.rows.len(), 1);
    // Without a key: no finite plan exists (cross product with an
    // infinite relation).
    let q = JoinQuery::new(vec![FromItem::new("T", "t"), FromItem::new("f", "F")]);
    assert!(db.execute(&q).is_err());
}

#[test]
fn memory_pressure_changes_the_plan_landscape_not_the_answer() {
    let cat = fj_bench::workloads::emp_dept(fj_bench::workloads::EmpDeptConfig {
        n_emps: 6_000,
        n_depts: 300,
        frac_big: 0.2,
        ..Default::default()
    });
    let mut big = Database::with_catalog(cat.clone());
    big.set_memory_pages(4096);
    let mut small = Database::with_catalog(cat);
    small.set_memory_pages(4);
    let q = fixtures::paper_query();
    let a = big.execute(&q).unwrap();
    let b = small.execute(&q).unwrap();
    assert_eq!(sorted(a.rows), sorted(b.rows));
    assert!(
        b.measured_cost >= a.measured_cost,
        "tiny memory can only hurt: {} vs {}",
        b.measured_cost,
        a.measured_cost
    );
}

#[test]
fn selection_only_queries_work_through_the_whole_stack() {
    let db = Database::with_catalog(fixtures::paper_catalog());
    let q = JoinQuery::new(vec![FromItem::new("Emp", "E")])
        .with_predicate(col("E.sal").ge(lit(4_000)).and(col("E.age").lt(lit(30))))
        .with_projection(vec![(col("E.eid"), "eid".into())]);
    let r = db.execute(&q).unwrap();
    assert_eq!(
        sorted(r.rows),
        vec![
            Tuple::new(vec![Value::Int(1)]),
            Tuple::new(vec![Value::Int(3)]),
            Tuple::new(vec![Value::Int(5)]),
        ]
    );
}

#[test]
fn view_over_view_works_end_to_end() {
    // A view defined over another view: the engine must inline both
    // layers, the estimator must recurse, and the magic rewriting must
    // still preserve answers when filtering the outer view.
    use filterjoin::{AggCall, AggFunc, LogicalPlan, Schema, ViewDef};
    let mut db = Database::with_catalog(fixtures::paper_catalog());
    // HighPaid: departments whose average salary exceeds 3000 (over the
    // existing DepAvgSal view).
    db.create_view(ViewDef {
        name: "HighPaid".into(),
        plan: LogicalPlan::scan("DepAvgSal", "A")
            .select(col("A.avgsal").gt(lit(3_000)))
            .project(vec![
                (col("A.did"), "did".into()),
                (col("A.avgsal"), "avgsal".into()),
            ])
            .into_ref(),
        schema: Schema::from_pairs(&[
            ("did", filterjoin::DataType::Int),
            ("avgsal", filterjoin::DataType::Double),
        ])
        .into_ref(),
    });
    // And a second-level aggregate view over HighPaid.
    db.create_view(ViewDef {
        name: "HighPaidStats".into(),
        plan: LogicalPlan::scan("HighPaid", "H")
            .aggregate(
                vec!["H.did".into()],
                vec![AggCall::new(AggFunc::Max, "H.avgsal", "top")],
            )
            .project(vec![
                (col("H.did"), "did".into()),
                (col("top"), "top".into()),
            ])
            .into_ref(),
        schema: Schema::from_pairs(&[
            ("did", filterjoin::DataType::Int),
            ("top", filterjoin::DataType::Double),
        ])
        .into_ref(),
    });
    let q = JoinQuery::new(vec![
        FromItem::new("Emp", "E"),
        FromItem::new("HighPaidStats", "S"),
    ])
    .with_predicate(col("E.did").eq(col("S.did")))
    .with_projection(vec![
        (col("E.eid"), "eid".into()),
        (col("S.top"), "top".into()),
    ]);
    let naive = sorted(db.run_logical(&q.to_plan()).unwrap().rows);
    // Departments 10 (avg 5000) and 30 (avg 3000 — excluded, not > 3000)
    // and 20 (avg 5000): employees 1, 2, 3 qualify.
    assert_eq!(naive.len(), 3);
    let optimized = sorted(db.execute(&q).unwrap().rows);
    assert_eq!(naive, optimized);
    let sips = filterjoin::Sips::derive(db.catalog(), &q, &["E".to_string()], "S").unwrap();
    let magic = sorted(db.run_magic(&q, &sips).unwrap().rows);
    assert_eq!(naive, magic);
}

#[test]
fn bloom_variant_when_chosen_never_changes_answers() {
    // Force consideration of Bloom filter joins on a base-table inner
    // and check answers against the no-bloom configuration.
    let (orders, customers) = fj_bench::workloads::orders_customers(1_000, 20_000, 30, 9);
    let mut db = Database::new();
    db.create_table(orders);
    db.create_table(customers);
    db.set_memory_pages(8);
    let q = JoinQuery::new(vec![
        FromItem::new("Orders", "O"),
        FromItem::new("Customers", "C"),
    ])
    .with_predicate(col("O.cust").eq(col("C.cust")));
    let with_bloom = db.execute(&q).unwrap();
    let mut cfg = OptimizerConfig {
        enable_bloom: false,
        ..OptimizerConfig::default()
    };
    cfg.params.memory_pages = 8;
    let without = db.execute_with_config(&q, cfg).unwrap();
    assert_eq!(sorted(with_bloom.rows), sorted(without.rows));
}
