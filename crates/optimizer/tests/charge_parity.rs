//! Charge parity: every operator's executor charge against the
//! optimizer's price for it, at the operator's *actual* shapes.
//!
//! Each row runs one fj-exec operator on in-memory inputs (or, for the
//! access paths, a base table) over an `ExecCtx` with no spill
//! context, weighs the ledger delta with the default CPU weight, and
//! prices the same operator through `CostParams` at the rows and pages
//! it really saw and produced. Sizes
//! sit under (at) and over buffer memory for M ∈ {3, 8, 128}, so the
//! in-memory and the simulated external-sort / Grace / rescan branches
//! are all crossed.
//!
//! The check is `price − charge == gap(operator)`, within 1e-9: 0 for
//! every operator where the cost model and the executor agree, and the
//! documented difference where they do not (DESIGN.md, "One set of
//! charges"). A refactor of either side must pass this unmodified; a
//! gap closed on purpose edits its row in [`gap`].

use fj_algebra::{Catalog, JoinKind, NetworkModel};
use fj_exec::ops::{agg, bloom, filter, joins, scan, sort};
use fj_exec::{ExecCtx, Rel, TempTable};
use fj_expr::{col, lit, AggCall};
use fj_optimizer::{CostParams, ProbeShape};
use fj_storage::{
    charge, ColumnStats, DataType, Index, Schema, Table, TableBuilder, Tuple, Value,
    CPU_WEIGHT_DEFAULT,
};
use std::sync::Arc;

const W: f64 = CPU_WEIGHT_DEFAULT;

/// Columns of a wide relation: a key and padding, 908 bytes a row, so
/// four rows fill a page and "over M" stays a few hundred rows.
const WIDE_COLUMNS: usize = 100;

/// `price − charge` in page units for the operators whose price and
/// charge disagree; every other operator must agree exactly.
fn gap(op: &str, shape: &Shape) -> f64 {
    match op {
        // The sortedness check on each (non-empty) side is priced one
        // op per row but charged n − 1 comparisons.
        "merge join" => W * 2.0,
        // FilterCost_Rk prices the semi-join as `|R| + |F|` ops; the
        // executor also charges one op per output row.
        "semi join as FilterCost_Rk" => -W * shape.out,
        // FilterCost_Rk prices `|R| + |F|` ops for a Bloom-restricted
        // inner; the probe charges |R| (the |F| ops are the build's,
        // already priced in AvailCost_F).
        "bloom probe as FilterCost_Rk" => W * shape.inner,
        _ => 0.0,
    }
}

/// The actual shapes a row was priced at.
#[derive(Debug, Default, Clone, Copy)]
struct Shape {
    outer: f64,
    outer_pages: f64,
    inner: f64,
    inner_pages: f64,
    out: f64,
    out_pages: f64,
}

impl Shape {
    fn of(outer: &Rel, inner: Option<&Rel>, out: &Rel) -> Shape {
        Shape {
            outer: outer.rows.len() as f64,
            outer_pages: outer.page_count() as f64,
            inner: inner.map_or(0.0, |r| r.rows.len() as f64),
            inner_pages: inner.map_or(0.0, |r| r.page_count() as f64),
            out: out.rows.len() as f64,
            out_pages: out.page_count() as f64,
        }
    }
}

/// A wide relation `alias(k, p1, …)` whose keys are `keys`, in order.
fn wide(alias: &str, keys: impl Iterator<Item = i64>) -> Rel {
    let mut cols = vec![(format!("{alias}.k"), DataType::Int)];
    cols.extend((1..WIDE_COLUMNS).map(|i| (format!("{alias}.p{i}"), DataType::Int)));
    let pairs: Vec<(&str, DataType)> = cols.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    let schema = Schema::from_pairs(&pairs).into_ref();
    let rows = keys
        .map(|k| {
            let mut v = vec![Value::Int(k)];
            v.extend((1..WIDE_COLUMNS).map(|i| Value::Int(i as i64)));
            Tuple::new(v)
        })
        .collect();
    Rel::new(schema, rows)
}

/// `rel` with the key (its first column) of every fourth row NULL.
fn every_fourth_key_null(rel: &Rel) -> Rel {
    let rows = rel.rows.iter().enumerate().map(|(i, row)| {
        let mut values = row.values().to_vec();
        if i % 4 == 3 {
            values[0] = Value::Null;
        }
        Tuple::new(values)
    });
    Rel::new(rel.schema.clone(), rows.collect())
}

/// A one-column filter set `__F(k0)` holding `keys`.
fn filter_set(keys: impl Iterator<Item = i64>) -> Rel {
    let schema = Schema::from_pairs(&[("__F.k0", DataType::Int)]).into_ref();
    Rel::new(
        schema,
        keys.map(|k| Tuple::new(vec![Value::Int(k)])).collect(),
    )
}

/// A base table `I(k, v)` holding every key in `0..keys` four times,
/// then `nulls` rows with a NULL key, indexed on `k` by a B-tree or a
/// hash index.
fn indexed(keys: i64, nulls: usize, btree: bool) -> Table {
    let keyed = (0..4 * keys).map(|i| vec![Value::Int(i % keys), Value::Int(i)]);
    let null = (0..nulls).map(|i| vec![Value::Null, Value::Int(i as i64)]);
    let mut t = TableBuilder::new("I")
        .nullable_column("k", DataType::Int)
        .column("v", DataType::Int)
        .rows(keyed.chain(null))
        .build()
        .unwrap();
    match btree {
        true => t.create_btree_index(0).unwrap(),
        false => t.create_hash_index(0).unwrap(),
    }
    t
}

fn keys(outer: &str, inner: &str) -> Vec<(String, String)> {
    vec![(outer.to_string(), inner.to_string())]
}

/// The ledger delta of `run`, weighed as the cost model weighs it.
fn charged<T>(ctx: &ExecCtx, run: impl FnOnce(&ExecCtx) -> T) -> (f64, T) {
    let before = ctx.ledger.snapshot();
    let out = run(ctx);
    let cost = ctx.ledger.snapshot().delta(&before).weighted(W, 0.0, 0.0);
    (cost, out)
}

struct Parity {
    m: u64,
    rows: usize,
    failures: Vec<String>,
}

impl Parity {
    fn params(&self) -> CostParams {
        CostParams {
            cpu_weight: W,
            memory_pages: self.m,
            network: NetworkModel::free(),
        }
    }

    fn ctx(&self) -> ExecCtx {
        ExecCtx::new(Arc::new(Catalog::new())).with_memory_pages(self.m)
    }

    /// A context whose catalog holds `table`.
    fn ctx_with(&self, table: Table) -> ExecCtx {
        let mut catalog = Catalog::new();
        catalog.add_table(table.into_ref());
        ExecCtx::new(Arc::new(catalog)).with_memory_pages(self.m)
    }

    fn check(&mut self, op: &str, shape: Shape, price: f64, charge: f64) {
        let want = gap(op, &shape);
        let got = price - charge;
        if (got - want).abs() > 1e-9 * price.abs().max(1.0) {
            self.failures.push(format!(
                "M={} rows={} {op}: price {price} − charge {charge} = {got}, gap table says {want} ({shape:?})",
                self.m, self.rows
            ));
        }
    }

    fn run(&mut self) {
        let n = self.rows as i64;
        let c = self.params();

        // Sort (reverse input, so every row moves).
        let ctx = self.ctx();
        let input = wide("L", (0..n).rev());
        let (charge, out) = charged(&ctx, |x| sort::sort(x, input.clone(), &["L.k".into()]));
        let s = Shape::of(&input, None, &out.unwrap());
        self.check("sort", s, c.sort_cost(s.outer, s.outer_pages), charge);

        // Distinct: every row distinct, so the output is as wide as
        // the input.
        let ctx = self.ctx();
        let (charge, out) = charged(&ctx, |x| agg::distinct(x, input.clone()));
        let s = Shape::of(&input, None, &out.unwrap());
        let price = c.cpu(s.outer) + c.external_sort_io(s.out_pages);
        self.check("distinct", s, price, charge);

        // Aggregate: grouped on every column, so its output is wide too.
        let ctx = self.ctx();
        let group_by: Vec<String> = input
            .schema
            .columns()
            .iter()
            .map(|c| c.name.clone())
            .collect();
        let aggs = [AggCall::count_star("n")];
        let (charge, out) = charged(&ctx, |x| {
            agg::hash_aggregate(x, input.clone(), &group_by, &aggs)
        });
        let s = Shape::of(&input, None, &out.unwrap());
        let price = c.cpu(s.outer * (1 + aggs.len()) as f64) + c.external_sort_io(s.out_pages);
        self.check("aggregate", s, price, charge);

        // Block nested loops: the outer crosses M − 2, the inner is a
        // handful of rows rescanned per outer block.
        let ctx = self.ctx();
        let outer = wide("L", 0..n);
        let inner = wide("R", 0..9);
        let pred = col("L.k").eq(col("R.k"));
        let (charge, out) = charged(&ctx, |x| {
            joins::block_nested_loops(
                x,
                outer.clone(),
                inner.clone(),
                Some(&pred),
                JoinKind::Inner,
            )
        });
        let s = Shape::of(&outer, Some(&inner), &out.unwrap());
        let price = c.bnl_cost(s.outer, s.outer_pages, s.inner, s.inner_pages);
        self.check("block nested loops", s, price, charge);

        // Hash join, inner and semi: the build side crosses M.
        let build = wide("R", (0..n).map(|k| k * 2));
        for (op, kind) in [
            ("hash join", JoinKind::Inner),
            ("hash semi join", JoinKind::Semi),
        ] {
            let ctx = self.ctx();
            let (charge, out) = charged(&ctx, |x| {
                joins::hash_join(
                    x,
                    outer.clone(),
                    build.clone(),
                    &keys("L.k", "R.k"),
                    None,
                    kind,
                )
            });
            let s = Shape::of(&outer, Some(&build), &out.unwrap());
            let price = c.hash_join_cost(s.outer, s.outer_pages, s.inner, s.inner_pages, s.out);
            self.check(op, s, price, charge);
        }

        // Merge join, each side arriving sorted or not.
        for (outer_sorted, inner_sorted) in
            [(true, true), (true, false), (false, true), (false, false)]
        {
            let side = |alias, sorted| match sorted {
                true => wide(alias, 0..n),
                false => wide(alias, (0..n).rev()),
            };
            let (l, r) = (side("L", outer_sorted), side("R", inner_sorted));
            let ctx = self.ctx();
            let (charge, out) = charged(&ctx, |x| {
                joins::merge_join(x, l.clone(), r.clone(), &keys("L.k", "R.k"), None)
            });
            let s = Shape::of(&l, Some(&r), &out.unwrap());
            let price = c.merge_join_cost_with_orders(
                s.outer,
                s.outer_pages,
                s.inner,
                s.inner_pages,
                s.out,
                outer_sorted,
                inner_sorted,
            );
            self.check("merge join", s, price, charge);
        }

        // A temp table materialized, then scanned once.
        let ctx = self.ctx();
        let (charge, out) = charged(&ctx, |x| {
            x.register_temp(
                "t",
                TempTable::new(input.schema.clone(), input.rows.clone()),
            );
            scan::temp_scan(x, "t", "")
        });
        let s = Shape::of(&input, None, &out.unwrap());
        let price = c.materialize_cost(s.outer_pages) + s.outer_pages;
        self.check("temp materialize + temp scan", s, price, charge);

        // Filter and project: one op per input row.
        let ctx = self.ctx();
        let pred = col("L.k").lt(lit(n / 2));
        let (charge, out) = charged(&ctx, |x| filter::filter(x, input.clone(), &pred));
        let s = Shape::of(&input, None, &out.unwrap());
        self.check("filter", s, c.cpu(s.outer), charge);
        let ctx = self.ctx();
        let exprs = [(col("L.k"), "k".to_string())];
        let (charge, out) = charged(&ctx, |x| filter::project(x, input.clone(), &exprs));
        let s = Shape::of(&input, None, &out.unwrap());
        self.check("project", s, c.cpu(s.outer), charge);

        // Index nested loops into a hash- and a B-tree-indexed inner,
        // into an inner whose key has NULLs (no index stores them, so
        // no probe matches them), and from an outer whose key has NULLs
        // (a NULL key probes nothing), priced as the DP prices it: one
        // probe of `ProbeShape::of` per outer row whose key is not NULL,
        // the key column's `non_null_fraction` of them.
        let outer = wide("L", 0..n);
        for (op, probing, nulls, btree) in [
            ("index nested loops, hash", &outer, 0, false),
            ("index nested loops, B-tree", &outer, 0, true),
            (
                "index nested loops, NULL inner keys",
                &outer,
                self.rows,
                false,
            ),
            (
                "index nested loops, NULL outer keys",
                &every_fourth_key_null(&outer),
                0,
                false,
            ),
        ] {
            let table = indexed(n, nulls, btree);
            let probe = ProbeShape::of(&table, 0).unwrap();
            let ctx = self.ctx_with(table);
            let (charge, out) = charged(&ctx, |x| {
                joins::index_nested_loops(x, probing.clone(), "I", "", "L.k", "k", None)
            });
            let s = Shape::of(probing, None, &out.unwrap());
            let keyed = s.outer * ColumnStats::analyze(&probing.rows, 0).non_null_fraction();
            let inl = charge::index_nested_loops(s.outer, keyed, probe.pages, probe.matches);
            self.check(op, s, c.weigh(inl), charge);
        }

        // The index-ordered scan (NULL keys included): the heap, the
        // B-tree's leaves and one op per row, weighed as the DP adds
        // them onto the heap scan.
        let table = indexed(n, self.rows, true);
        let heap_pages = table.page_count() as f64;
        let index_pages = table.btree_index(0).unwrap().page_count() as f64;
        let ctx = self.ctx_with(table);
        let (charge, out) = charged(&ctx, |x| scan::index_ordered_scan(x, "I", "", "k"));
        let out = out.unwrap();
        let s = Shape::of(&out, None, &out);
        let price = c.weigh(charge::reads(heap_pages))
            + c.weigh(charge::reads(index_pages))
            + c.weigh(charge::ops(s.outer));
        self.check("index-ordered scan", s, price, charge);

        // The Filter Join's restricted inner, priced as FilterCost_Rk
        // prices its CPU (`cpu(|R| + |F|)`, filter_join.rs) next to what
        // the semi-join and the Bloom probe charge.
        let f = filter_set(0..(n / 4).max(1));
        let ctx = self.ctx();
        let (charge, out) = charged(&ctx, |x| {
            joins::hash_join(
                x,
                outer.clone(),
                f.clone(),
                &keys("L.k", "__F.k0"),
                None,
                JoinKind::Semi,
            )
        });
        let s = Shape::of(&outer, Some(&f), &out.unwrap());
        self.check(
            "semi join as FilterCost_Rk",
            s,
            c.cpu(s.outer + s.inner),
            charge,
        );

        let ctx = self.ctx();
        let (charge, filter) = charged(&ctx, |x| {
            bloom::build_bloom(x, &f, &["__F.k0".into()], 1 << 12, 3)
        });
        let s = Shape::of(&f, None, &f);
        self.check("bloom build as AvailCost_F", s, c.cpu(s.outer), charge);
        ctx.register_bloom("f", filter.unwrap());
        let (charge, out) = charged(&ctx, |x| {
            bloom::bloom_probe(x, outer.clone(), "f", &["L.k".into()])
        });
        let s = Shape::of(&outer, Some(&f), &out.unwrap());
        self.check(
            "bloom probe as FilterCost_Rk",
            s,
            c.cpu(s.outer + s.inner),
            charge,
        );
    }
}

#[test]
fn executor_charges_equal_cost_model_prices_up_to_the_gap_table() {
    let mut failures = Vec::new();
    for m in [3u64, 8, 128] {
        // At M pages (fits), and at 2M + 1 (spills, several merge
        // passes at the small M).
        for pages in [m, 2 * m + 1] {
            let rows = (pages * 4) as usize;
            let mut p = Parity {
                m,
                rows,
                failures: Vec::new(),
            };
            let input_pages = wide("L", 0..rows as i64).page_count();
            assert_eq!(input_pages, pages, "four wide rows a page");
            p.run();
            failures.extend(p.failures);
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
