//! The benchmark's own seeded input generators.
//!
//! These are deliberate copies of the shapes in `fj-bench`'s workload
//! module (same schemas, same distributions), kept here so that a later
//! change to the repository's generators cannot silently change what
//! the benchmark measures. Everything is a pure function of the seed.

use fj_core::{
    col, fixtures, lit, Catalog, DataType, FromItem, JoinQuery, Table, TableBuilder, Value,
};
use fj_net::Mutation;

/// SplitMix64 (Steele, Lea, Flood 2014): deterministic per seed, and
/// owned by the benchmark so its streams never change underneath it.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of `seed`: distinct `stream`
    /// tuples give independent sequences.
    pub fn stream(seed: u64, stream: &[u64]) -> Rng {
        let mut rng = Rng(seed);
        for s in stream {
            rng.0 = rng.next_u64() ^ s.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `lo..hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range");
        lo + (self.next_u64() % (hi - lo) as u64) as i64
    }

    /// Uniform double in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Fraction of departments with a budget over the Figure-1 threshold.
const FRAC_BIG: f64 = 0.1;
/// Fraction of employees under the Figure-1 age limit.
const FRAC_YOUNG: f64 = 0.3;

/// The scaled paper schema: `Emp(eid, did, sal, age)`, `Dept(did,
/// budget)` and the `DepAvgSal` view.
pub fn emp_dept(n_emps: usize, n_depts: usize, seed: u64) -> Catalog {
    let mut cat = Catalog::new();
    let mut rng = Rng::stream(seed, &[1]);
    let n_big = ((n_depts as f64) * FRAC_BIG).round() as usize;
    let depts = (0..n_depts).map(|d| {
        let budget = if d < n_big {
            150_000.0 + 100_000.0 * rng.unit()
        } else {
            20_000.0 + 60_000.0 * rng.unit()
        };
        vec![Value::Int(d as i64), Value::Double(budget)]
    });
    cat.add_table(
        TableBuilder::new("Dept")
            .column("did", DataType::Int)
            .column("budget", DataType::Double)
            .rows(depts)
            .build()
            .expect("generated Dept conforms")
            .into_ref(),
    );
    let mut rng = Rng::stream(seed, &[2]);
    let emps = (0..n_emps).map(|e| emp_row(e as i64, n_depts, &mut rng));
    cat.add_table(
        TableBuilder::new("Emp")
            .column("eid", DataType::Int)
            .column("did", DataType::Int)
            .column("sal", DataType::Double)
            .column("age", DataType::Int)
            .rows(emps)
            .build()
            .expect("generated Emp conforms")
            .into_ref(),
    );
    fixtures::add_dep_avg_sal_view(&mut cat);
    cat
}

fn emp_row(eid: i64, n_depts: usize, rng: &mut Rng) -> Vec<Value> {
    let did = rng.range(0, n_depts as i64);
    let age = if rng.unit() < FRAC_YOUNG {
        rng.range(21, 30)
    } else {
        rng.range(30, 65)
    };
    let sal = 1_000.0 + 9_000.0 * rng.unit();
    vec![
        Value::Int(eid),
        Value::Int(did),
        Value::Double(sal),
        Value::Int(age),
    ]
}

/// The paper's Figure-1 query (young, above-average earners of big
/// departments), with the paper's literals.
pub fn figure1_query() -> JoinQuery {
    JoinQuery::new(vec![
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
    ])
}

/// A star schema: `Fact(fid, d0..)` and `dims` dimension tables
/// `DimK(id, attr)` with `attr` uniform over `0..50`.
pub fn star(dims: usize, fact_rows: usize, dim_rows: usize, seed: u64) -> Catalog {
    let mut rng = Rng::stream(seed, &[3]);
    let mut cat = Catalog::new();
    let fact = (0..fact_rows).map(|i| {
        let mut row = vec![Value::Int(i as i64)];
        row.extend((0..dims).map(|_| Value::Int(rng.range(0, dim_rows as i64))));
        row
    });
    let mut fb = TableBuilder::new("Fact").column("fid", DataType::Int);
    for d in 0..dims {
        fb = fb.column(format!("d{d}"), DataType::Int);
    }
    cat.add_table(
        fb.rows(fact)
            .build()
            .expect("generated Fact conforms")
            .into_ref(),
    );
    for d in 0..dims {
        let mut rng = Rng::stream(seed, &[4, d as u64]);
        let rows = (0..dim_rows).map(|i| vec![Value::Int(i as i64), Value::Int(rng.range(0, 50))]);
        cat.add_table(
            TableBuilder::new(format!("Dim{d}"))
                .column("id", DataType::Int)
                .column("attr", DataType::Int)
                .rows(rows)
                .build()
                .expect("generated Dim conforms")
                .into_ref(),
        );
    }
    cat
}

/// The selective star query over [`star`]: every dimension joined to
/// the fact and filtered by its own `attr < attr_lt[k]`.
pub fn star_query(attr_lt: &[i64]) -> JoinQuery {
    let dims = attr_lt.len();
    let mut from = vec![FromItem::new("Fact", "f")];
    from.extend((0..dims).map(|d| FromItem::new(format!("Dim{d}"), format!("d{d}"))));
    let pred = (0..dims)
        .flat_map(|d| {
            [
                col(format!("f.d{d}")).eq(col(format!("d{d}.id"))),
                col(format!("d{d}.attr")).lt(lit(attr_lt[d])),
            ]
        })
        .reduce(|a, b| a.and(b))
        .expect("a star has at least one dimension");
    JoinQuery::new(from).with_predicate(pred)
}

/// The literals of request `i` of client `c`: one `attr <` bound per
/// dimension, drawn from `(seed, c, i)`. 40^dims combinations, so a
/// run never repeats a fingerprint in practice.
pub fn star_literals(dims: usize, seed: u64, client: usize, i: u64) -> Vec<i64> {
    let mut rng = Rng::stream(seed, &[5, client as u64, i]);
    (0..dims).map(|_| rng.range(5, 45)).collect()
}

/// `Orders(cust, amount)` referencing only the first `referenced` of
/// `Customers(cust, region, score)`, and the join between them.
pub fn orders_customers(
    n_orders: usize,
    n_customers: usize,
    referenced: usize,
    seed: u64,
) -> (Catalog, JoinQuery) {
    let mut rng = Rng::stream(seed, &[6]);
    let orders = TableBuilder::new("Orders")
        .column("cust", DataType::Int)
        .column("amount", DataType::Double)
        .rows((0..n_orders).map(|_| {
            vec![
                Value::Int(rng.range(0, referenced as i64)),
                Value::Double(1.0 + 999.0 * rng.unit()),
            ]
        }))
        .build()
        .expect("generated Orders conforms");
    let mut customers: Table = TableBuilder::new("Customers")
        .column("cust", DataType::Int)
        .column("region", DataType::Int)
        .column("score", DataType::Double)
        .rows((0..n_customers).map(|i| {
            vec![
                Value::Int(i as i64),
                Value::Int(rng.range(0, 10)),
                Value::Double(rng.unit()),
            ]
        }))
        .build()
        .expect("generated Customers conforms");
    customers.create_hash_index(0).expect("index on cust");
    let mut cat = Catalog::new();
    cat.add_table(orders.into_ref());
    cat.add_table(customers.into_ref());
    let q = JoinQuery::new(vec![
        FromItem::new("Orders", "O"),
        FromItem::new("Customers", "C"),
    ])
    .with_predicate(col("O.cust").eq(col("C.cust")));
    (cat, q)
}

/// Commit `i` of the `mutate_disk` writer: a cycle of single-row
/// INSERT (a fresh eid above the generated ones), UPDATE of a random
/// generated employee's salary, and DELETE of the row the cycle
/// inserted — so `Emp` stays within one row of `n_emps`.
pub fn emp_mutation(n_emps: usize, n_depts: usize, seed: u64, i: u64) -> Mutation {
    let mut rng = Rng::stream(seed, &[7, i]);
    let fresh_eid = n_emps as i64 + (i / 3) as i64;
    match i % 3 {
        0 => Mutation::Insert {
            table: "Emp".into(),
            rows: vec![emp_row(fresh_eid, n_depts, &mut rng)],
        },
        1 => Mutation::Update {
            table: "Emp".into(),
            set: vec![("sal".into(), Value::Double(1_000.0 + 9_000.0 * rng.unit()))],
            where_col: "eid".into(),
            where_value: Value::Int(rng.range(0, n_emps as i64)),
        },
        _ => Mutation::Delete {
            table: "Emp".into(),
            where_col: "eid".into(),
            where_value: Value::Int(fresh_eid),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let rows = |seed| {
            emp_dept(200, 20, seed)
                .table("Emp")
                .unwrap()
                .rows()
                .to_vec()
        };
        assert_eq!(rows(7), rows(7));
        assert_ne!(rows(7), rows(8));
        assert_eq!(star_literals(5, 1, 0, 9), star_literals(5, 1, 0, 9));
        assert_ne!(star_literals(5, 1, 0, 9), star_literals(5, 1, 1, 9));
        assert_eq!(emp_mutation(100, 10, 3, 4), emp_mutation(100, 10, 3, 4));
    }

    #[test]
    fn generated_queries_validate_against_their_catalogs() {
        figure1_query().validate(&emp_dept(100, 10, 1)).unwrap();
        star_query(&[10, 20, 30])
            .validate(&star(3, 50, 10, 1))
            .unwrap();
        let (cat, q) = orders_customers(20, 50, 5, 1);
        q.validate(&cat).unwrap();
    }

    #[test]
    fn mutation_cycle_keeps_emp_within_one_row() {
        let cat = emp_dept(50, 5, 2);
        let emp = cat.table("Emp").unwrap();
        let mut rows = emp.rows().to_vec();
        for i in 0..30 {
            let (next, affected) = emp_mutation(50, 5, 2, i)
                .apply(emp.schema(), &rows)
                .unwrap();
            assert_eq!(affected, 1, "commit {i} touches exactly one row");
            rows = next;
            assert!((50..=51).contains(&rows.len()));
        }
    }
}
