//! EXPLAIN ANALYZE prints the optimizer's own estimates: each `est` is
//! the stamp the dynamic program's plan builder put on that node
//! (`OptimizedPlan::est`), so a misestimate flag is a cost-model error,
//! never a disagreement between two estimators.

use filterjoin::optimizer::base_table_stats;
use filterjoin::optimizer::EstNode;
use filterjoin::udf::TableFunction;
use filterjoin::{
    col, fixtures, lit, Catalog, CostParams, DataType, Database, FromItem, JoinQuery, NetworkModel,
    OptimizedPlan, Optimizer, OptimizerConfig, PhysPlan, PlanShape, Schema, SiteId, TableBuilder,
    Value,
};
use fj_bench::workloads::{emp_dept, paper_query, snowflake, EmpDeptConfig};
use std::sync::Arc;

/// The Figure 1 query's catalog at the scale the plan pins use.
fn emp_dept_3000() -> Catalog {
    emp_dept(EmpDeptConfig {
        n_emps: 3_000,
        n_depts: 300,
        ..Default::default()
    })
}

/// The README's bushy snowflake, EXPLAIN ANALYZEd.
fn bushy_snowflake() -> String {
    let (cat, q) = snowflake(2, 500, 50, 25, 15, 13);
    let mut db = Database::with_catalog(cat);
    db.config_mut().plan_shape = PlanShape::Bushy;
    db.explain_analyze(&q).unwrap()
}

/// The operator lines of an EXPLAIN ANALYZE render.
fn operator_lines(render: &str) -> Vec<&str> {
    let lines = render.lines().skip_while(|l| !l.starts_with("operators"));
    lines.skip(1).collect()
}

/// The `est` cell of an operator line, as printed.
fn est(line: &str) -> &str {
    let cell = line
        .split("[est ")
        .nth(1)
        .unwrap_or_else(|| panic!("no estimate: {line}"));
    cell.split(' ').next().unwrap()
}

/// The operator line starting (after its indent) with `label`.
fn line<'a>(render: &'a str, label: &str) -> &'a str {
    operator_lines(render)
        .into_iter()
        .find(|l| l.trim_start().starts_with(label))
        .unwrap_or_else(|| panic!("no {label} line in:\n{render}"))
}

fn indent(line: &str) -> usize {
    line.len() - line.trim_start().len()
}

#[test]
fn header_rows_are_the_root_estimate() {
    let paper = Database::with_catalog(fixtures::paper_catalog());
    let scaled = Database::with_catalog(emp_dept_3000());
    let renders = [
        paper.explain_analyze(&fixtures::paper_query()).unwrap(),
        scaled.explain_analyze(&paper_query()).unwrap(),
        bushy_snowflake(),
    ];
    for render in &renders {
        let header = render
            .lines()
            .find_map(|l| l.strip_prefix("estimated rows: "))
            .unwrap();
        let root = operator_lines(render)[0];
        assert_eq!(est(root), header, "{render}");
    }
}

#[test]
fn bushy_snowflake_joins_print_the_dp_estimates() {
    let render = bushy_snowflake();
    let joins: Vec<&str> = operator_lines(&render)
        .into_iter()
        .filter(|l| l.trim_start().starts_with("HashJoin"))
        .map(est)
        .collect();
    assert_eq!(joins, ["66.1", "147.7", "14.8", "22.4"], "{render}");
}

#[test]
fn filter_join_nodes_print_the_costed_decision() {
    let db = Database::with_catalog(emp_dept_3000());
    let render = db.explain_analyze(&paper_query()).unwrap();
    let lines = operator_lines(&render);

    // V restricted by D's filter set: the parametric fit's cardinality,
    // within the flag ratio of what ran. Its view body is not the
    // optimizer's estimate, so it shows actuals only.
    let view = line(&render, "Project did AS V.did");
    assert_eq!(est(view), "16.6", "{render}");
    assert!(!view.contains("misestimate"), "{view}");
    let at = lines.iter().position(|l| *l == view).unwrap();
    let body = lines[at + 1..]
        .iter()
        .take_while(|l| indent(l) > indent(view));
    for l in body {
        assert!(!l.contains("[est"), "view body carries an estimate: {l}");
        assert!(l.contains("[actual "), "{l}");
    }

    // Emp restricted by the Bloom filter over {D, V}: a real miss.
    let bloom = line(&render, "BloomProbe");
    assert_eq!(est(bloom), "60.5", "{render}");
    assert!(bloom.contains("misestimate"), "{bloom}");

    // The last Filter Join's final join.
    let last = line(&render, "HashJoin on D.did = E.did AND V.did = E.did");
    assert_eq!(est(last), "3.7", "{render}");
}

/// The stamp tree never has more children than the plan node it
/// stamps: that is what lets EXPLAIN ANALYZE zip it with the plan and
/// its trace. With `exact`, it mirrors the plan node for node.
fn assert_fits(est: &EstNode, plan: &PhysPlan, exact: bool) {
    let kids = plan.children();
    let fits = if exact {
        est.children.len() == kids.len()
    } else {
        est.children.len() <= kids.len()
    };
    assert!(fits, "stamp tree outgrows {}", plan.node_label());
    for (e, p) in est.children.iter().zip(kids) {
        assert_fits(e, p, exact);
    }
}

fn optimize(cat: Catalog, q: &JoinQuery, cfg: OptimizerConfig) -> OptimizedPlan {
    Optimizer::new(Arc::new(cat), cfg).optimize(q).unwrap()
}

fn stamped_nodes(est: &EstNode) -> usize {
    1 + est.children.iter().map(stamped_nodes).sum::<usize>()
}

#[test]
fn stamps_never_outgrow_the_paper_plan() {
    let plan = optimize(
        fixtures::paper_catalog(),
        &fixtures::paper_query(),
        OptimizerConfig::default(),
    );
    assert_fits(&plan.est, &plan.phys, false);
    assert_eq!(plan.est.est_rows, plan.est_rows);
    assert!(stamped_nodes(&plan.est) >= 3);
}

#[test]
fn stamps_mirror_a_bushy_snowflake_plan() {
    let (cat, q) = snowflake(2, 500, 50, 25, 15, 13);
    let plan = optimize(cat, &q, OptimizerConfig::bushy());
    let display = plan.phys.display();
    assert!(
        display.contains("HashJoin on d1.sub = s1.id"),
        "expected the composite inner of the README plan:\n{display}"
    );
    // No view, so every node carries a stamp.
    assert_fits(&plan.est, &plan.phys, true);
}

/// A Filter Join was built with variant `tag` (`b` Bloom, `p` prefix
/// production): its temp names end in it.
fn has_filter_join(plan: &OptimizedPlan, tag: char) -> bool {
    let display = plan.phys.display();
    let names = display
        .split_whitespace()
        .filter(|w| w.starts_with("__filter_"));
    let mut tags = names.map(|w| w.rsplit('_').next().unwrap_or_default());
    tags.any(|t| t.contains(tag))
}

/// `Orders` at home joined to `Customers` across a WAN: the Filter Join
/// ships its filter set out and the restricted inner back.
fn remote_inner() -> (Catalog, JoinQuery, OptimizerConfig) {
    let mut cat = Catalog::new();
    let orders = (0..3000i64).map(|i| vec![i.into(), ((i * 13) % 150).into()]);
    cat.add_table(
        TableBuilder::new("Orders")
            .column("oid", DataType::Int)
            .column("cust", DataType::Int)
            .rows(orders)
            .build()
            .unwrap()
            .into_ref(),
    );
    let customers = (0..5000i64).map(|i| vec![i.into(), (i % 9).into()]);
    let customers = TableBuilder::new("Customers")
        .column("cust", DataType::Int)
        .column("region", DataType::Int)
        .rows(customers)
        .build()
        .unwrap();
    cat.add_remote_table(customers.into_ref(), SiteId(2));
    cat.set_network(NetworkModel::wan());
    let mut cfg = OptimizerConfig::default();
    cfg.params.network = NetworkModel::wan();
    let q = JoinQuery::new(vec![
        FromItem::new("Orders", "O"),
        FromItem::new("Customers", "C"),
    ])
    .with_predicate(col("O.cust").eq(col("C.cust")));
    (cat, q, cfg)
}

/// `Txn` joined to a table function with no domain: only a filter set
/// can drive it.
fn udf_inner() -> (Catalog, JoinQuery) {
    let mut cat = Catalog::new();
    let txns = (0..2000i64).map(|i| vec![Value::Int((i * 7) % 40), Value::Int(i)]);
    cat.add_table(
        TableBuilder::new("Txn")
            .column("cust", DataType::Int)
            .column("amount", DataType::Int)
            .rows(txns)
            .build()
            .unwrap()
            .into_ref(),
    );
    let schema =
        Schema::from_pairs(&[("cust", DataType::Int), ("score", DataType::Int)]).into_ref();
    let udf = TableFunction::new("score", schema, 1, 2.0, |args| {
        vec![vec![Value::Int(args[0].as_int().unwrap_or(0) * 10)]]
    });
    cat.add_udf("score", Arc::new(udf));
    let q = JoinQuery::new(vec![FromItem::new("Txn", "T"), FromItem::new("score", "S")])
        .with_predicate(col("T.cust").eq(col("S.cust")));
    (cat, q)
}

#[test]
fn stamps_never_outgrow_bloom_remote_udf_and_prefix_filter_joins() {
    let bloom = optimize(emp_dept_3000(), &paper_query(), OptimizerConfig::default());
    assert!(has_filter_join(&bloom, 'b'), "{}", bloom.phys.display());

    let (cat, q, cfg) = remote_inner();
    let remote = optimize(cat, &q, cfg);
    assert!(!remote.sips.is_empty() && remote.phys.display().contains("Ship"));

    let (cat, q) = udf_inner();
    let udf = optimize(cat, &q, OptimizerConfig::default());
    assert!(!udf.sips.is_empty() && udf.phys.display().contains("UdfProbe"));

    // Many small departments: the production set {D} is a strict
    // prefix of the outer D ⋈ E.
    let small_depts = emp_dept(EmpDeptConfig {
        n_emps: 1_000,
        n_depts: 500,
        frac_big: 0.05,
        ..Default::default()
    });
    let cfg = OptimizerConfig {
        allow_prefix_production: true,
        ..OptimizerConfig::default()
    };
    let prefix = optimize(small_depts, &paper_query(), cfg);
    assert!(has_filter_join(&prefix, 'p'), "{}", prefix.phys.display());

    for plan in [bloom, remote, udf, prefix] {
        assert_fits(&plan.est, &plan.phys, false);
        assert_eq!(plan.est.est_rows, plan.est_rows);
    }
}

#[test]
fn scan_stamps_are_base_table_statistics() {
    let cat = fixtures::paper_catalog();
    let emp = base_table_stats(&cat.table("Emp").unwrap(), "E");
    let q =
        JoinQuery::new(vec![FromItem::new("Emp", "E")]).with_predicate(col("E.age").lt(lit(30)));
    let plan = optimize(cat, &q, OptimizerConfig::default());
    // Project(Filter(SeqScan Emp)): the scan the filter reads carries
    // the table's statistics, the filter the access path's estimate.
    let filter = &plan.est.children[0];
    let scan = &filter.children[0];
    assert_eq!(scan.est_rows, 5.0);
    assert_eq!(scan.est_rows, emp.rows);
    assert_eq!(scan.est_pages, emp.pages(&CostParams::default()));
    assert!(filter.est_rows < scan.est_rows);
}
