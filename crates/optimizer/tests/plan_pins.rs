//! Exact pins of the enumerator's output: for each (workload, config)
//! row, the chosen plan's cost and cardinality *bit patterns*, the
//! candidate and nested-invocation counters, the join order, the SIPS
//! and a hash of the EXPLAIN text. Every other optimizer test asserts
//! ratios and inequalities; this one is what lets a refactor of the
//! enumerator claim "bit-identical".
//!
//! A mismatch prints the offending rows in source form together with
//! the plan text, so an *intended* change is re-pinned by pasting them
//! over the stale rows.

use fj_algebra::{Catalog, FromItem, JoinQuery, NetworkModel, SiteId};
use fj_bench::workloads::{
    chain, emp_dept, paper_query, snowflake, star, star_selective, EmpDeptConfig,
};
use fj_expr::col;
use fj_optimizer::{Digest, OptimizedPlan, Optimizer, OptimizerConfig};
use fj_storage::{DataType, Schema, TableBuilder, Value};
use fj_udf::TableFunction;
use std::sync::Arc;

/// `(case, cost bits, est_rows bits, plans_considered,
/// nested_invocations, order, sips, FNV-1a of the EXPLAIN text)`.
type Pin<'a> = (&'a str, u64, u64, u64, u64, &'a str, &'a str, u64);

#[rustfmt::skip]
const PINS: &[Pin<'static>] = &[
    ("paper/default", 0x4061afa5348abf2f, 0x3fda0a1bd3c63d48, 81, 4, "D V E", "{D}->V[D.did=V.did]; {D,V}->E[D.did=E.did,V.did=E.did]", 0x5e299d30e5b5db99), // cost 141.4889, rows 0.41
    ("paper/fj-off", 0x406693e6035e2999, 0x3fb7654320fedcc0, 45, 0, "V D E", "", 0x40cbb539f7acf36d), // cost 180.6218, rows 0.09
    ("paper/bushy", 0x4061afa5348abf2f, 0x3fda0a1bd3c63d48, 108, 4, "D V E", "{D}->V[D.did=V.did]; {D,V}->E[D.did=E.did,V.did=E.did]", 0x5e299d30e5b5db99), // cost 141.4889, rows 0.41
    ("paper/prefix", 0x4061afa5348abf2f, 0x3fda0a1bd3c63d48, 90, 4, "D V E", "{D}->V[D.did=V.did]; {D,V}->E[D.did=E.did,V.did=E.did]", 0x5e299d30e5b5db99), // cost 141.4889, rows 0.41
    ("fig3/EDV", 0x4063416f30cab727, 0x403b23fd085f47de, 15, 4, "E D V", "{E,D}->V[E.did=V.did]", 0x0464318a625916a9), // cost 154.0448, rows 27.14
    ("fig3/DEV", 0x40631dfcdab0a870, 0x4038819a0d17b9d0, 15, 4, "D E V", "{D}->E[D.did=E.did]; {D,E}->V[E.did=V.did]", 0x1b47e12dbe0fc88a), // cost 152.9371, rows 24.51
    ("fig3/DVE", 0x4061afa5348abf2f, 0x3fda0a1bd3c63d48, 19, 4, "D V E", "{D}->V[D.did=V.did]; {D,V}->E[D.did=E.did,V.did=E.did]", 0x5e299d30e5b5db99), // cost 141.4889, rows 0.41
    ("fig3/EVD", 0x406767f258bf258c, 0x403b6aaaaaaaaaaf, 15, 4, "E V D", "", 0x4fec00e259330f71), // cost 187.2483, rows 27.42
    ("fig3/VED", 0x406767f258bf258c, 0x403b6aaaaaaaaaaf, 15, 0, "V E D", "", 0x95642f4612a8717f), // cost 187.2483, rows 27.42
    ("fig3/VDE", 0x4065e4cb761b1ff5, 0x3fd111d9af6eff1b, 19, 0, "V D E", "{V,D}->E[D.did=E.did,V.did=E.did]", 0xd9341994239aa4e1), // cost 175.1498, rows 0.27
    ("fig3-prefix/EDV", 0x4063416f30cab727, 0x403b23fd085f47de, 17, 4, "E D V", "{E,D}->V[E.did=V.did]", 0x0464318a625916a9), // cost 154.0448, rows 27.14
    ("fig3-prefix/DEV", 0x40628fbb975f96c1, 0x4038bbf0fbfcf034, 17, 4, "D E V", "{D}->E[D.did=E.did]; {D}->V[D.did=V.did]", 0x2859b07188f1f24a), // cost 148.4916, rows 24.73
    ("fig3-prefix/DVE", 0x4061afa5348abf2f, 0x3fda0a1bd3c63d48, 21, 4, "D V E", "{D}->V[D.did=V.did]; {D,V}->E[D.did=E.did,V.did=E.did]", 0x5e299d30e5b5db99), // cost 141.4889, rows 0.41
    ("fig3-prefix/EVD", 0x406767f258bf258c, 0x403b6aaaaaaaaaaf, 17, 4, "E V D", "", 0x4fec00e259330f71), // cost 187.2483, rows 27.42
    ("fig3-prefix/VED", 0x406767f258bf258c, 0x403b6aaaaaaaaaaf, 17, 0, "V E D", "", 0x95642f4612a8717f), // cost 187.2483, rows 27.42
    ("fig3-prefix/VDE", 0x4065e4cb761b1ff5, 0x3fd111d9af6eff1b, 21, 0, "V D E", "{V,D}->E[D.did=E.did,V.did=E.did]", 0xd9341994239aa4e1), // cost 175.1498, rows 0.27
    ("chain2/fj-off", 0x4028000000000000, 0x4069000000000000, 6, 0, "t1 t0", "", 0xfae695d388176f67), // cost 12.0000, rows 200.00
    ("chain2/fj-on", 0x4028000000000000, 0x4069000000000000, 10, 0, "t1 t0", "", 0xfae695d388176f67), // cost 12.0000, rows 200.00
    ("chain2/prefix", 0x4028000000000000, 0x4069000000000000, 10, 0, "t1 t0", "", 0xfae695d388176f67), // cost 12.0000, rows 200.00
    ("chain3/fj-off", 0x4034000000000000, 0x4069000000000000, 35, 0, "t2 t1 t0", "", 0xf561d3f035b5737a), // cost 20.0000, rows 200.00
    ("chain3/fj-on", 0x4034000000000000, 0x4069000000000000, 59, 0, "t2 t1 t0", "", 0xf561d3f035b5737a), // cost 20.0000, rows 200.00
    ("chain3/prefix", 0x4034000000000000, 0x4069000000000000, 63, 0, "t2 t1 t0", "", 0xf561d3f035b5737a), // cost 20.0000, rows 200.00
    ("chain4/fj-off", 0x403c000000000000, 0x4069000000000000, 126, 0, "t3 t2 t1 t0", "", 0x654215128812c2d9), // cost 28.0000, rows 200.00
    ("chain4/fj-on", 0x403c000000000000, 0x4069000000000000, 218, 0, "t3 t2 t1 t0", "", 0x654215128812c2d9), // cost 28.0000, rows 200.00
    ("chain4/prefix", 0x403c000000000000, 0x4069000000000000, 244, 0, "t3 t2 t1 t0", "", 0x654215128812c2d9), // cost 28.0000, rows 200.00
    ("chain5/fj-off", 0x4042000000000000, 0x4069000000000000, 386, 0, "t4 t3 t2 t1 t0", "", 0x2f7b97a2d31e5b20), // cost 36.0000, rows 200.00
    ("chain5/fj-on", 0x4042000000000000, 0x4069000000000000, 674, 0, "t4 t3 t2 t1 t0", "", 0x2f7b97a2d31e5b20), // cost 36.0000, rows 200.00
    ("chain5/prefix", 0x4042000000000000, 0x4069000000000000, 782, 0, "t4 t3 t2 t1 t0", "", 0x2f7b97a2d31e5b20), // cost 36.0000, rows 200.00
    ("chain6/fj-off", 0x4046000000000000, 0x4069000000000000, 1072, 0, "t5 t4 t3 t2 t1 t0", "", 0xca2bc5639dda19ab), // cost 44.0000, rows 200.00
    ("chain6/fj-on", 0x4046000000000000, 0x4069000000000000, 1880, 0, "t5 t4 t3 t2 t1 t0", "", 0xca2bc5639dda19ab), // cost 44.0000, rows 200.00
    ("chain6/prefix", 0x4046000000000000, 0x4069000000000000, 2248, 0, "t5 t4 t3 t2 t1 t0", "", 0xca2bc5639dda19ab), // cost 44.0000, rows 200.00
    ("chain7/fj-off", 0x404a000000000000, 0x4069000000000000, 2790, 0, "t6 t5 t4 t3 t2 t1 t0", "", 0xed842c2481c77f9e), // cost 52.0000, rows 200.00
    ("chain7/fj-on", 0x404a000000000000, 0x4069000000000000, 4910, 0, "t6 t5 t4 t3 t2 t1 t0", "", 0xed842c2481c77f9e), // cost 52.0000, rows 200.00
    ("chain7/prefix", 0x404a000000000000, 0x4069000000000000, 6032, 0, "t6 t5 t4 t3 t2 t1 t0", "", 0xed842c2481c77f9e), // cost 52.0000, rows 200.00
    ("star3/fj-off", 0x402e000000000000, 0x4069000000000000, 35, 0, "d1 f d0", "", 0x3e7e3207771f1540), // cost 15.0000, rows 200.00
    ("star3/fj-on", 0x402e000000000000, 0x4069000000000000, 59, 0, "d1 f d0", "", 0x3e7e3207771f1540), // cost 15.0000, rows 200.00
    ("star3/prefix", 0x402e000000000000, 0x4069000000000000, 62, 0, "d1 f d0", "", 0x3e7e3207771f1540), // cost 15.0000, rows 200.00
    ("star4/fj-off", 0x4035800000000000, 0x4069000000000000, 129, 0, "d2 f d1 d0", "", 0xdb0c4a66e8498859), // cost 21.5000, rows 200.00
    ("star4/fj-on", 0x4035800000000000, 0x4069000000000000, 218, 0, "d2 f d1 d0", "", 0xdb0c4a66e8498859), // cost 21.5000, rows 200.00
    ("star4/prefix", 0x4035800000000000, 0x4069000000000000, 244, 0, "d2 f d1 d0", "", 0xdb0c4a66e8498859), // cost 21.5000, rows 200.00
    ("star5/fj-off", 0x403b000000000000, 0x4069000000000000, 385, 0, "d3 f d2 d1 d0", "", 0x77b123dc31c69610), // cost 27.0000, rows 200.00
    ("star5/fj-on", 0x403b000000000000, 0x4069000000000000, 651, 0, "d3 f d2 d1 d0", "", 0x77b123dc31c69610), // cost 27.0000, rows 200.00
    ("star5/prefix", 0x403b000000000000, 0x4069000000000000, 772, 0, "d3 f d2 d1 d0", "", 0x77b123dc31c69610), // cost 27.0000, rows 200.00
    ("star6/fj-off", 0x4040c00000000000, 0x4069000000000000, 1023, 0, "d4 f d3 d2 d1 d0", "", 0xb6c4fbc12b95400d), // cost 33.5000, rows 200.00
    ("star6/fj-on", 0x4040c00000000000, 0x4069000000000000, 1730, 0, "d4 f d3 d2 d1 d0", "", 0xb6c4fbc12b95400d), // cost 33.5000, rows 200.00
    ("star6/prefix", 0x4040c00000000000, 0x4069000000000000, 2169, 0, "d4 f d3 d2 d1 d0", "", 0xb6c4fbc12b95400d), // cost 33.5000, rows 200.00
    ("star-selective/left-deep", 0x407ea2877cff2bc0, 0x40416a0b10e17721, 218, 0, "d2 d0 f d1", "{d2,d0}->f[d0.id=f.d0,d2.id=f.d2]", 0x66d2eb49b5d72d4d), // cost 490.1581, rows 34.83
    ("star-selective/bushy", 0x407e8947ae147ae1, 0x4083200000000000, 374, 0, "f d0 d2 d1", "", 0x0114b34894e9d633), // cost 488.5800, rows 612.00
    ("snowflake/left-deep", 0x4082d31de4e4aa14, 0x4091b7919c88dff6, 674, 0, "s0 d0 f d1 s1", "{s0,d0}->f[d0.id=f.d0]", 0x13feb8a048243166), // cost 602.3896, rows 1133.89
    ("snowflake/bushy", 0x4080f4a8641fdb98, 0x409c09c71c71c71c, 1601, 0, "f d0 s0 d1 s1", "", 0x92c9e85bee40f0d7), // cost 542.5822, rows 1794.44
    ("two-col-key/default", 0x4060c27027027028, 0x400e79e79e79e79f, 94, 0, "s l r", "", 0xa2d2776a25b48a38), // cost 134.0762, rows 3.81
    ("two-col-key/bushy", 0x4060c27027027028, 0x400e79e79e79e79f, 121, 0, "l s r", "", 0x40c5f0152d6882e8), // cost 134.0762, rows 3.81
    ("two-col-key/prefix", 0x4060c27027027028, 0x400e79e79e79e79f, 103, 0, "s l r", "", 0xa2d2776a25b48a38), // cost 134.0762, rows 3.81
    ("two-col-key/forced-lrs", 0x406576db6db6db6e, 0x4091db6db6db6db7, 19, 0, "l r s", "", 0xd136b1125c47f7eb), // cost 171.7143, rows 1142.86
    ("two-col-key/remote", 0x4073e03c2eab9b08, 0x3faada4fbf4adbd4, 79, 0, "s l r", "{s,l}->r[l.a=r.a,s.a=r.a]", 0x3d542a41e0f3425f), // cost 318.0147, rows 0.05
    ("udf/enumerable", 0x40678ccccccccccd, 0x409f400000000000, 11, 0, "T S", "{T}->S[T.cust=S.cust]", 0x4182f7dfa10949d7), // cost 188.4000, rows 2000.00
    ("udf/probe-only", 0x40678ccccccccccd, 0x409f400000000000, 3, 0, "T S", "{T}->S[T.cust=S.cust]", 0x4182f7dfa10949d7), // cost 188.4000, rows 2000.00
    ("remote/wan", 0x4075f3a7ffb3d113, 0x40a76fffff3df4da, 10, 0, "O C", "{O}->C[O.cust=C.cust]", 0xf11782ec2cb06f29), // cost 351.2285, rows 3000.00
    ("btree-merge/default", 0x4093c80000000000, 0x40b7700000000000, 188, 0, "a c b", "", 0x30b1b9bdaf658079), // cost 1266.0000, rows 6000.00
    ("btree-merge/forced-abc", 0x409e600000000000, 0x40b7700000000000, 15, 0, "a b c", "", 0xddb644111efcc57d), // cost 1944.0000, rows 6000.00
    ("index-nl/hash", 0x40736bbbbbbbbbbc, 0x4070aaaaaaaaaaab, 11, 0, "O C", "", 0xd390cc56b75b50ee), // cost 310.7333, rows 266.67
    ("index-nl/btree", 0x4075ebbbbbbbbbbd, 0x4070aaaaaaaaaaab, 22, 0, "O C", "", 0xd390cc56b75b50ee), // cost 350.7333, rows 266.67
    ("bench-star/lt8/left-deep", 0x4050c2d0e5604188, 0x402c000000000000, 1730, 0, "d3 d2 f d0 d4 d1", "", 0xa7d00361505f26a2), // cost 67.0440, rows 14.00
    ("bench-star/lt8/bushy", 0x4050c2d0e5604188, 0x402c000000000000, 4838, 0, "f d2 d3 d0 d4 d1", "", 0x062d750123ea3638), // cost 67.0440, rows 14.00
    ("bench-star/lt25/left-deep", 0x405806be55ef2875, 0x40518c47bc5733c3, 1730, 0, "d0 f d4 d3 d2 d1", "", 0xf324f5eda2345220), // cost 96.1054, rows 70.19
    ("bench-star/lt25/bushy", 0x405806be55ef2875, 0x40518c47bc5733c3, 4838, 0, "f d0 d4 d3 d2 d1", "", 0x70f8c2a2f6b39fac), // cost 96.1054, rows 70.19
    ("bench-star/lt42/left-deep", 0x40673c387bf269c0, 0x408bf938ac18f81f, 1730, 0, "d4 f d0 d3 d2 d1", "", 0x1710993b8dc2d051), // cost 185.8819, rows 895.15
    ("bench-star/lt42/bushy", 0x40673c387bf269c0, 0x408bf938ac18f81f, 4838, 0, "f d4 d0 d3 d2 d1", "", 0x99c371f3950efd21), // cost 185.8819, rows 895.15
    ("prefix-view/optimize", 0x404ded426ee29af5, 0x40189c302a7cea99, 90, 4, "D E V", "{D}->V[D.did=V.did]", 0x8dae91fef1b209c5), // cost 59.8536, rows 6.15
];

/// A row as it is written in `PINS`.
fn render(&(case, cost, rows, plans, nested, order, sips, phys): &Pin<'_>) -> String {
    format!(
        "    ({case:?}, {cost:#018x}, {rows:#018x}, {plans}, {nested}, {order:?}, {sips:?}, {phys:#018x}), // cost {:.4}, rows {:.2}",
        f64::from_bits(cost),
        f64::from_bits(rows),
    )
}

/// The row `plan` should be pinned as.
fn render_plan(case: &str, plan: &OptimizedPlan) -> String {
    let sips: Vec<String> = plan
        .sips
        .iter()
        .map(|s| {
            let keys: Vec<String> = s
                .filter_keys
                .iter()
                .map(|k| format!("{}={}", k.left, k.right))
                .collect();
            format!(
                "{{{}}}->{}[{}]",
                s.production.join(","),
                s.inner,
                keys.join(",")
            )
        })
        .collect();
    render(&(
        case,
        plan.cost.to_bits(),
        plan.est_rows.to_bits(),
        plan.plans_considered,
        plan.nested_invocations,
        &plan.order.join(" "),
        &sips.join("; "),
        Digest::new().bytes(plan.phys.display().as_bytes()).finish(),
    ))
}

fn prefix_ablation() -> OptimizerConfig {
    OptimizerConfig {
        allow_prefix_production: true,
        ..OptimizerConfig::default()
    }
}

/// Collects `(case, plan)` rows.
struct Rows(Vec<(String, OptimizedPlan)>);

impl Rows {
    fn optimize(&mut self, case: String, cat: &Arc<Catalog>, q: &JoinQuery, cfg: OptimizerConfig) {
        let plan = Optimizer::new(Arc::clone(cat), cfg)
            .optimize(q)
            .unwrap_or_else(|e| panic!("{case}: {e}"));
        self.0.push((case, plan));
    }

    fn forced(
        &mut self,
        case: String,
        cat: &Arc<Catalog>,
        q: &JoinQuery,
        cfg: OptimizerConfig,
        order: &[&str],
    ) {
        let order: Vec<String> = order.iter().map(|s| s.to_string()).collect();
        let plan = Optimizer::new(Arc::clone(cat), cfg)
            .optimize_with_order(q, &order)
            .unwrap_or_else(|e| panic!("{case}: {e}"));
        self.0.push((case, plan));
    }

    /// FJ off / FJ on / Limitation-2 ablation — C1's three columns.
    fn c1_columns(&mut self, name: &str, cat: Catalog, q: &JoinQuery) {
        let cat = Arc::new(cat);
        for (tag, cfg) in [
            ("fj-off", OptimizerConfig::without_filter_join()),
            ("fj-on", OptimizerConfig::default()),
            ("prefix", prefix_ablation()),
        ] {
            self.optimize(format!("{name}/{tag}"), &cat, q, cfg);
        }
    }

    /// E1's two columns.
    fn both_shapes(&mut self, name: &str, cat: Catalog, q: &JoinQuery) {
        let cat = Arc::new(cat);
        self.optimize(
            format!("{name}/left-deep"),
            &cat,
            q,
            OptimizerConfig::default(),
        );
        self.optimize(format!("{name}/bushy"), &cat, q, OptimizerConfig::bushy());
    }
}

/// `L ⋈ R` on two columns (so the attribute-subset filter sets of
/// Limitation 3 are generated) and `R ⋈ S` on one. With `remote`, `R`
/// lives across a WAN, `b` is nearly constant and Bloom filters are
/// off, so the exact filter set that *omits* an attribute competes on
/// shipping cost with the full one.
fn two_column_key(remote: bool) -> (Catalog, JoinQuery, OptimizerConfig) {
    let mut cat = Catalog::new();
    let mb = if remote { 2 } else { 7 };
    for (name, rows, ma) in [("L", 400i64, 40), ("R", 6000, 300), ("S", 300, 300)] {
        let table = TableBuilder::new(name)
            .column("a", DataType::Int)
            .column("b", DataType::Int)
            .column("v", DataType::Int)
            .rows((0..rows).map(|i| vec![(i % ma).into(), (i % mb).into(), i.into()]))
            .build()
            .unwrap()
            .into_ref();
        if remote && name == "R" {
            cat.add_remote_table(table, SiteId(2));
        } else {
            cat.add_table(table);
        }
    }
    let mut cfg = OptimizerConfig::default();
    if remote {
        cat.set_network(NetworkModel::wan());
        cfg.params.network = NetworkModel::wan();
        cfg.enable_bloom = false;
    }
    let q = JoinQuery::new(vec![
        FromItem::new("L", "l"),
        FromItem::new("R", "r"),
        FromItem::new("S", "s"),
    ])
    .with_predicate(
        col("l.a")
            .eq(col("r.a"))
            .and(col("l.b").eq(col("r.b")))
            .and(col("r.a").eq(col("s.a"))),
    );
    (cat, q, cfg)
}

/// A skewed `Txn` table joined to a table function; `domain` makes the
/// function enumerable (full computation) as well as probeable.
fn udf_inner(domain: bool) -> (Catalog, JoinQuery) {
    let mut cat = Catalog::new();
    cat.add_table(
        TableBuilder::new("Txn")
            .column("cust", DataType::Int)
            .column("amount", DataType::Int)
            .rows((0..2000i64).map(|i| vec![Value::Int((i * 7) % 40), Value::Int(i)]))
            .build()
            .unwrap()
            .into_ref(),
    );
    let schema =
        Schema::from_pairs(&[("cust", DataType::Int), ("score", DataType::Int)]).into_ref();
    let mut udf = TableFunction::new("score", schema, 1, 2.0, |args| {
        vec![vec![Value::Int(args[0].as_int().unwrap_or(0) * 10)]]
    });
    if domain {
        udf = udf.with_domain((0..100i64).map(|i| vec![Value::Int(i)]).collect());
    }
    cat.add_udf("score", Arc::new(udf));
    let q = JoinQuery::new(vec![FromItem::new("Txn", "T"), FromItem::new("score", "S")])
        .with_predicate(col("T.cust").eq(col("S.cust")));
    (cat, q)
}

/// `Orders` at home, `Customers` at a remote site across a WAN.
fn remote_inner() -> (Catalog, JoinQuery, OptimizerConfig) {
    let mut cat = Catalog::new();
    cat.add_table(
        TableBuilder::new("Orders")
            .column("oid", DataType::Int)
            .column("cust", DataType::Int)
            .rows((0..3000i64).map(|i| vec![i.into(), ((i * 13) % 150).into()]))
            .build()
            .unwrap()
            .into_ref(),
    );
    let customers = TableBuilder::new("Customers")
        .column("cust", DataType::Int)
        .column("region", DataType::Int)
        .rows((0..5000i64).map(|i| vec![i.into(), (i % 9).into()]))
        .build()
        .unwrap()
        .into_ref();
    cat.add_remote_table(customers, SiteId(2));
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

/// Three B-tree-indexed tables joined on the same key under a tiny
/// buffer pool: ordered index scans feed a merge-join chain (§3.1's
/// interesting orders).
fn btree_merge_chain() -> (Catalog, JoinQuery, OptimizerConfig) {
    let mut cat = Catalog::new();
    for name in ["A", "B", "C"] {
        let mut b = TableBuilder::new(name).column("k", DataType::Int);
        for c in 0..7 {
            b = b.column(format!("v{c}"), DataType::Int);
        }
        let mut t = b
            .rows((0..6000i64).map(|i| {
                let mut row = vec![Value::Int((i * 37) % 6000)];
                row.extend((0..7).map(|c| Value::Int(i + c)));
                row
            }))
            .build()
            .unwrap();
        t.create_btree_index(0).unwrap();
        cat.add_table(t.into_ref());
    }
    let q = JoinQuery::new(vec![
        FromItem::new("A", "a"),
        FromItem::new("B", "b"),
        FromItem::new("C", "c"),
    ])
    .with_predicate(col("a.k").eq(col("b.k")).and(col("a.k").eq(col("c.k"))));
    let mut cfg = OptimizerConfig::default();
    cfg.params.memory_pages = 8;
    cfg.enable_index_nl = false;
    (cat, q, cfg)
}

/// A small outer joined to a large inner with a hash or B-tree index
/// on the join key and no NULL keys: index nested loops beats scanning
/// the inner.
fn indexed_inner(btree: bool) -> (Catalog, JoinQuery) {
    let mut cat = Catalog::new();
    cat.add_table(
        TableBuilder::new("Orders")
            .column("oid", DataType::Int)
            .column("cust", DataType::Int)
            .rows((0..40i64).map(|i| vec![i.into(), ((i * 37) % 3000).into()]))
            .build()
            .unwrap()
            .into_ref(),
    );
    let mut customers = TableBuilder::new("Customers")
        .column("cust", DataType::Int)
        .column("region", DataType::Int)
        .column("name", DataType::Str)
        .rows((0..20_000i64).map(|i| {
            let name = Value::Str(format!("customer {i}"));
            vec![(i % 3000).into(), (i % 9).into(), name]
        }))
        .build()
        .unwrap();
    match btree {
        true => customers.create_btree_index(0).unwrap(),
        false => customers.create_hash_index(0).unwrap(),
    }
    cat.add_table(customers.into_ref());
    let q = JoinQuery::new(vec![
        FromItem::new("Orders", "O"),
        FromItem::new("Customers", "C"),
    ])
    .with_predicate(col("O.cust").eq(col("C.cust")));
    (cat, q)
}

fn actual_rows() -> Vec<(String, OptimizedPlan)> {
    let mut rows = Rows(Vec::new());

    // The paper query at CI scale: four configurations, then Figure
    // 3's six forced orders with and without the Limitation-2 ablation.
    let paper = Arc::new(emp_dept(EmpDeptConfig {
        n_emps: 3_000,
        n_depts: 300,
        ..Default::default()
    }));
    let q = paper_query();
    for (tag, cfg) in [
        ("default", OptimizerConfig::default()),
        ("fj-off", OptimizerConfig::without_filter_join()),
        ("bushy", OptimizerConfig::bushy()),
        ("prefix", prefix_ablation()),
    ] {
        rows.optimize(format!("paper/{tag}"), &paper, &q, cfg);
    }
    let orders: [[&str; 3]; 6] = [
        ["E", "D", "V"],
        ["D", "E", "V"],
        ["D", "V", "E"],
        ["E", "V", "D"],
        ["V", "E", "D"],
        ["V", "D", "E"],
    ];
    for o in &orders {
        let case = format!("fig3/{}", o.join(""));
        rows.forced(case, &paper, &q, OptimizerConfig::default(), o);
    }
    for o in &orders {
        let case = format!("fig3-prefix/{}", o.join(""));
        rows.forced(case, &paper, &q, prefix_ablation(), o);
    }

    // C1: chains and stars at the sizes `reproduce complexity` prints.
    for n in 2..=7 {
        let (cat, q) = chain(n, 200, 5);
        rows.c1_columns(&format!("chain{n}"), cat, &q);
    }
    for n in 3..=6 {
        let (cat, q) = star(n, 200, 50, 5);
        rows.c1_columns(&format!("star{n}"), cat, &q);
    }

    // E1 at `reproduce bushy --small` scale.
    let (cat, q) = star_selective(4, 20_000, 100, 15, 11);
    rows.both_shapes("star-selective", cat, &q);
    let (cat, q) = snowflake(2, 20_000, 400, 60, 15, 13);
    rows.both_shapes("snowflake", cat, &q);

    // Method coverage the workloads above do not reach.
    let (cat, q, cfg) = two_column_key(false);
    let cat = Arc::new(cat);
    rows.optimize("two-col-key/default".into(), &cat, &q, cfg);
    rows.optimize(
        "two-col-key/bushy".into(),
        &cat,
        &q,
        OptimizerConfig::bushy(),
    );
    rows.optimize("two-col-key/prefix".into(), &cat, &q, prefix_ablation());
    rows.forced(
        "two-col-key/forced-lrs".into(),
        &cat,
        &q,
        prefix_ablation(),
        &["l", "r", "s"],
    );
    let (cat, q, cfg) = two_column_key(true);
    rows.optimize("two-col-key/remote".into(), &Arc::new(cat), &q, cfg);
    for domain in [true, false] {
        let (cat, q) = udf_inner(domain);
        let tag = if domain { "enumerable" } else { "probe-only" };
        rows.optimize(
            format!("udf/{tag}"),
            &Arc::new(cat),
            &q,
            OptimizerConfig::default(),
        );
    }
    let (cat, q, cfg) = remote_inner();
    rows.optimize("remote/wan".into(), &Arc::new(cat), &q, cfg);
    let (cat, q, cfg) = btree_merge_chain();
    let cat = Arc::new(cat);
    rows.optimize("btree-merge/default".into(), &cat, &q, cfg);
    rows.forced(
        "btree-merge/forced-abc".into(),
        &cat,
        &q,
        cfg,
        &["a", "b", "c"],
    );
    for (tag, btree) in [("hash", false), ("btree", true)] {
        let (cat, q) = indexed_inner(btree);
        rows.optimize(
            format!("index-nl/{tag}"),
            &Arc::new(cat),
            &q,
            OptimizerConfig::default(),
        );
    }

    // The shape the wall-clock benchmark's `adhoc_plan` runs: a fact
    // and five filtered dimensions at its sizes, three selectivities.
    for attr_lt in [8, 25, 42] {
        let (cat, q) = star_selective(6, 2_000, 100, attr_lt, 1);
        rows.both_shapes(&format!("bench-star/lt{attr_lt}"), cat, &q);
    }

    // Many small departments: `optimize` itself picks a Filter Join
    // into the view whose production set `{D}` is a strict prefix of
    // the outer `D ⋈ E`.
    let cat = Arc::new(emp_dept(EmpDeptConfig {
        n_emps: 1_000,
        n_depts: 500,
        frac_big: 0.05,
        ..Default::default()
    }));
    rows.optimize(
        "prefix-view/optimize".into(),
        &cat,
        &paper_query(),
        prefix_ablation(),
    );

    rows.0
}

#[test]
fn enumerator_output_is_pinned() {
    let actual = actual_rows();
    let mut stale = Vec::new();
    for (i, (case, plan)) in actual.iter().enumerate() {
        let got = render_plan(case, plan);
        let want = PINS.get(i).map(render).unwrap_or_default();
        if got != want {
            stale.push(format!("{got}\n{}", plan.phys.display()));
        }
    }
    assert!(
        stale.is_empty() && PINS.len() == actual.len(),
        "{} of {} rows differ from PINS ({} pinned); actual rows and plans:\n{}",
        stale.len(),
        actual.len(),
        PINS.len(),
        stale.join("\n")
    );
}
