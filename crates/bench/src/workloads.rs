//! Deterministic workload generators for the reproduction experiments.

use crate::repro::technique::Join;
use fj_core::storage::TableRef;
use fj_core::{
    col, fixtures, lit, Catalog, DataType, FromItem, JoinQuery, NetworkModel, SiteId, TableBuilder,
    Value,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the scaled Emp/Dept instance behind the motivating
/// query (Figures 1–2).
#[derive(Debug, Clone, Copy)]
pub struct EmpDeptConfig {
    /// Employees.
    pub n_emps: usize,
    /// Departments.
    pub n_depts: usize,
    /// Fraction of departments that are "big" (budget > 100 000).
    pub frac_big: f64,
    /// Fraction of employees that are "young" (age < 30).
    pub frac_young: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for EmpDeptConfig {
    fn default() -> Self {
        EmpDeptConfig {
            n_emps: 20_000,
            n_depts: 1_000,
            frac_big: 0.1,
            frac_young: 0.3,
            seed: 42,
        }
    }
}

/// Builds the scaled paper schema: `Emp(eid, did, sal, age)`,
/// `Dept(did, budget)`, and the `DepAvgSal` view. The fraction of
/// departments that can contribute to the filter set is
/// `frac_big` (budget) ∩ departments with young employees —
/// sweeping `frac_big` sweeps the filter-set selectivity.
pub fn emp_dept(cfg: EmpDeptConfig) -> Catalog {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut cat = Catalog::new();

    let n_big = ((cfg.n_depts as f64) * cfg.frac_big).round() as usize;
    let dept_rows = (0..cfg.n_depts).map(|d| {
        let budget = if d < n_big {
            150_000.0 + rng.gen_range(0.0..100_000.0)
        } else {
            20_000.0 + rng.gen_range(0.0..60_000.0)
        };
        vec![Value::Int(d as i64), Value::Double(budget)]
    });
    cat.add_table(
        TableBuilder::new("Dept")
            .column("did", DataType::Int)
            .column("budget", DataType::Double)
            .rows(dept_rows)
            .build()
            .expect("generated Dept conforms")
            .into_ref(),
    );

    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(1));
    let emp_rows = (0..cfg.n_emps).map(|e| {
        let did = rng.gen_range(0..cfg.n_depts) as i64;
        let age = if rng.gen_bool(cfg.frac_young) {
            rng.gen_range(21..30)
        } else {
            rng.gen_range(30..65)
        };
        let sal = 1_000.0 + rng.gen_range(0.0..9_000.0);
        vec![
            Value::Int(e as i64),
            Value::Int(did),
            Value::Double(sal),
            Value::Int(age),
        ]
    });
    cat.add_table(
        TableBuilder::new("Emp")
            .column("eid", DataType::Int)
            .column("did", DataType::Int)
            .column("sal", DataType::Double)
            .column("age", DataType::Int)
            .rows(emp_rows)
            .build()
            .expect("generated Emp conforms")
            .into_ref(),
    );

    fixtures::add_dep_avg_sal_view(&mut cat);
    cat
}

/// The Figure 1 query (identical text at every scale).
pub fn paper_query() -> JoinQuery {
    fixtures::paper_query()
}

/// A chain query over `n` relations `T0 ⋈ T1 ⋈ ... ⋈ T(n−1)` on
/// `Ti.next = T(i+1).id`, each with `rows` rows — the C1 complexity
/// workload.
pub fn chain(n: usize, rows: usize, seed: u64) -> (Catalog, JoinQuery) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cat = Catalog::new();
    for t in 0..n {
        let table_rows = (0..rows).map(|i| {
            vec![
                Value::Int(i as i64),
                Value::Int(rng.gen_range(0..rows) as i64),
                Value::Int(rng.gen_range(0..100)),
            ]
        });
        cat.add_table(
            TableBuilder::new(format!("T{t}"))
                .column("id", DataType::Int)
                .column("next", DataType::Int)
                .column("payload", DataType::Int)
                .rows(table_rows)
                .build()
                .expect("generated chain table conforms")
                .into_ref(),
        );
    }
    let from: Vec<FromItem> = (0..n)
        .map(|t| FromItem::new(format!("T{t}"), format!("t{t}")))
        .collect();
    let pred = (0..n - 1)
        .map(|t| col(format!("t{t}.next")).eq(col(format!("t{}.id", t + 1))))
        .reduce(|a, b| a.and(b));
    let mut q = JoinQuery::new(from);
    if let Some(p) = pred {
        q = q.with_predicate(p);
    }
    (cat, q)
}

/// A star query: one fact table joined to `n − 1` dimension tables.
pub fn star(n: usize, fact_rows: usize, dim_rows: usize, seed: u64) -> (Catalog, JoinQuery) {
    assert!(n >= 2, "a star needs a fact and at least one dimension");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cat = Catalog::new();
    let dims = n - 1;
    let fact = (0..fact_rows).map(|i| {
        let mut row = vec![Value::Int(i as i64)];
        for _ in 0..dims {
            row.push(Value::Int(rng.gen_range(0..dim_rows) as i64));
        }
        row
    });
    let mut fb = TableBuilder::new("Fact").column("fid", DataType::Int);
    for d in 0..dims {
        fb = fb.column(format!("d{d}"), DataType::Int);
    }
    cat.add_table(
        fb.rows(fact)
            .build()
            .expect("generated fact conforms")
            .into_ref(),
    );
    for d in 0..dims {
        let rows =
            (0..dim_rows).map(|i| vec![Value::Int(i as i64), Value::Int(rng.gen_range(0..50))]);
        cat.add_table(
            TableBuilder::new(format!("Dim{d}"))
                .column("id", DataType::Int)
                .column("attr", DataType::Int)
                .rows(rows)
                .build()
                .expect("generated dim conforms")
                .into_ref(),
        );
    }
    let mut from = vec![FromItem::new("Fact", "f")];
    from.extend((0..dims).map(|d| FromItem::new(format!("Dim{d}"), format!("d{d}"))));
    let pred = (0..dims)
        .map(|d| col(format!("f.d{d}")).eq(col(format!("d{d}.id"))))
        .reduce(|a, b| a.and(b))
        .expect("dims >= 1");
    (cat, JoinQuery::new(from).with_predicate(pred))
}

/// The [`star`] workload with a selective local predicate
/// `dK.attr < attr_lt` on every dimension (`attr` is uniform over
/// `0..50`, so `attr_lt = 15` keeps ~30% of each dimension). Selective
/// dimensions are what make join-tree *shape* matter: pre-joining the
/// filtered dimensions into one small build side lets a bushy plan
/// probe the fact exactly once, where a left-deep chain either probes
/// it once per dimension or Grace-partitions a fact-sized build.
pub fn star_selective(
    n: usize,
    fact_rows: usize,
    dim_rows: usize,
    attr_lt: i64,
    seed: u64,
) -> (Catalog, JoinQuery) {
    let (cat, mut q) = star(n, fact_rows, dim_rows, seed);
    let extra = (0..n - 1)
        .map(|d| col(format!("d{d}.attr")).lt(lit(attr_lt)))
        .reduce(|a, b| a.and(b))
        .expect("dims >= 1");
    let pred = match q.predicate.take() {
        Some(p) => p.and(extra),
        None => extra,
    };
    (cat, q.with_predicate(pred))
}

/// A snowflake query: one fact table joined to `dims` dimensions, each
/// of which is joined onward to its own sub-dimension carrying a
/// selective predicate `sK.attr < attr_lt` (`attr` uniform over
/// `0..50`). The `DimK ⋈ σ(SubK)` arms are connected subgraphs that do
/// not contain the fact — the canonical shape where only a bushy
/// enumerator can reduce each dimension before it ever touches the
/// fact table.
pub fn snowflake(
    dims: usize,
    fact_rows: usize,
    dim_rows: usize,
    sub_rows: usize,
    attr_lt: i64,
    seed: u64,
) -> (Catalog, JoinQuery) {
    assert!(dims >= 1, "a snowflake needs at least one dimension arm");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cat = Catalog::new();
    let fact = (0..fact_rows).map(|i| {
        let mut row = vec![Value::Int(i as i64)];
        for _ in 0..dims {
            row.push(Value::Int(rng.gen_range(0..dim_rows) as i64));
        }
        row
    });
    let mut fb = TableBuilder::new("Fact").column("fid", DataType::Int);
    for d in 0..dims {
        fb = fb.column(format!("d{d}"), DataType::Int);
    }
    cat.add_table(
        fb.rows(fact)
            .build()
            .expect("generated fact conforms")
            .into_ref(),
    );
    for d in 0..dims {
        let dim_table = (0..dim_rows).map(|i| {
            vec![
                Value::Int(i as i64),
                Value::Int(rng.gen_range(0..sub_rows) as i64),
            ]
        });
        cat.add_table(
            TableBuilder::new(format!("Dim{d}"))
                .column("id", DataType::Int)
                .column("sub", DataType::Int)
                .rows(dim_table)
                .build()
                .expect("generated dim conforms")
                .into_ref(),
        );
        let sub_table =
            (0..sub_rows).map(|i| vec![Value::Int(i as i64), Value::Int(rng.gen_range(0..50))]);
        cat.add_table(
            TableBuilder::new(format!("Sub{d}"))
                .column("id", DataType::Int)
                .column("attr", DataType::Int)
                .rows(sub_table)
                .build()
                .expect("generated sub-dim conforms")
                .into_ref(),
        );
    }
    let mut from = vec![FromItem::new("Fact", "f")];
    for d in 0..dims {
        from.push(FromItem::new(format!("Dim{d}"), format!("d{d}")));
        from.push(FromItem::new(format!("Sub{d}"), format!("s{d}")));
    }
    let pred = (0..dims)
        .flat_map(|d| {
            [
                col(format!("f.d{d}")).eq(col(format!("d{d}.id"))),
                col(format!("d{d}.sub")).eq(col(format!("s{d}.id"))),
                col(format!("s{d}.attr")).lt(lit(attr_lt)),
            ]
        })
        .reduce(|a, b| a.and(b))
        .expect("dims >= 1");
    (cat, JoinQuery::new(from).with_predicate(pred))
}

/// A two-table orders/customers instance where only `referenced`
/// customers appear in orders — the filter-set-selectivity workload for
/// the distributed and local semi-join experiments.
pub fn orders_customers(
    n_orders: usize,
    n_customers: usize,
    referenced: usize,
    seed: u64,
) -> (fj_core::storage::Table, fj_core::storage::Table) {
    let mut rng = StdRng::seed_from_u64(seed);
    let referenced = referenced.clamp(1, n_customers);
    let orders = TableBuilder::new("Orders")
        .column("cust", DataType::Int)
        .column("amount", DataType::Double)
        .rows((0..n_orders).map(|_| {
            vec![
                Value::Int(rng.gen_range(0..referenced) as i64),
                Value::Double(rng.gen_range(1.0..1000.0)),
            ]
        }))
        .build()
        .expect("generated Orders conforms");
    let customers = TableBuilder::new("Customers")
        .column("cust", DataType::Int)
        .column("region", DataType::Int)
        .column("score", DataType::Double)
        .rows((0..n_customers).map(|i| {
            vec![
                Value::Int(i as i64),
                Value::Int(rng.gen_range(0..10)),
                Value::Double(rng.gen_range(0.0..1.0)),
            ]
        }))
        .build()
        .expect("generated Customers conforms");
    (orders, customers)
}

/// The join [`orders_customers`] is built for.
pub const ORDERS_CUSTOMERS: Join = Join {
    outer: "Orders",
    inner: "Customers",
    key: "cust",
};

/// The §5.1 setting: `outer` at the local site, `inner` at site 1, the
/// link priced by `network`.
pub fn two_site(
    outer: impl Into<TableRef>,
    inner: impl Into<TableRef>,
    network: NetworkModel,
) -> Catalog {
    let mut catalog = Catalog::new();
    catalog.add_table(outer.into());
    catalog.add_remote_table(inner.into(), SiteId(1));
    catalog.set_network(network);
    catalog
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_core::Database;

    #[test]
    fn emp_dept_is_deterministic_and_valid() {
        let cfg = EmpDeptConfig {
            n_emps: 500,
            n_depts: 50,
            ..Default::default()
        };
        let a = emp_dept(cfg);
        let b = emp_dept(cfg);
        assert_eq!(
            a.table("Emp").unwrap().rows(),
            b.table("Emp").unwrap().rows()
        );
        paper_query().validate(&a).unwrap();
        let big = a
            .table("Dept")
            .unwrap()
            .rows()
            .iter()
            .filter(|t| t.value(1).as_double().unwrap() > 100_000.0)
            .count();
        assert_eq!(big, 5, "frac_big respected");
    }

    #[test]
    fn emp_dept_query_runs() {
        let cat = emp_dept(EmpDeptConfig {
            n_emps: 300,
            n_depts: 30,
            ..Default::default()
        });
        let db = Database::with_catalog(cat);
        let r = db.execute(&paper_query()).unwrap();
        // Some young above-average employees in big departments exist.
        assert!(!r.rows.is_empty());
    }

    #[test]
    fn chain_query_valid_and_joins() {
        let (cat, q) = chain(4, 50, 7);
        q.validate(&cat).unwrap();
        let db = Database::with_catalog(cat);
        assert!(db.execute(&q).is_ok());
    }

    #[test]
    fn star_query_valid() {
        let (cat, q) = star(4, 200, 20, 7);
        q.validate(&cat).unwrap();
        let db = Database::with_catalog(cat);
        let r = db.execute(&q).unwrap();
        assert_eq!(r.rows.len(), 200, "every fact row matches its dims");
    }

    #[test]
    fn orders_customers_reference_subset() {
        let (orders, customers) = orders_customers(100, 1000, 10, 3);
        assert_eq!(orders.row_count(), 100);
        assert_eq!(customers.row_count(), 1000);
        let max_cust = orders
            .rows()
            .iter()
            .map(|t| t.value(0).as_int().unwrap())
            .max()
            .unwrap();
        assert!(max_cust < 10);
    }
}
