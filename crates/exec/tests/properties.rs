//! Property-based tests of the executor's operator algebra: all join
//! methods compute the same relation, semi-joins and Bloom probes obey
//! their containment laws, and sort/distinct/aggregate behave like
//! their set-theoretic definitions — on arbitrary data, including
//! duplicates, NULLs and empty inputs — and no operator can tell a
//! scan's shared rows from owned ones.

use fj_algebra::{Catalog, JoinKind, SiteId};
use fj_exec::{ops, ExecCtx, ExecError, MemoryBroker, PhysPlan, Rel, SpillCtx, TempTable};
use fj_expr::{col, lit, AggCall, AggFunc};
use fj_storage::{
    Column, DataType, FaultPlan, Schema, StorageError, TableBuilder, TempStore, Tuple, Value,
};
use proptest::prelude::*;
use std::sync::Arc;

fn ctx() -> ExecCtx {
    ExecCtx::new(Arc::new(Catalog::new()))
}

/// Optional ints become nullable key columns.
fn rel(prefix: &str, rows: &[(Option<i64>, i64)]) -> Rel {
    let schema = Schema::new(vec![
        Column::nullable(format!("{prefix}.k"), DataType::Int),
        Column::new(format!("{prefix}.v"), DataType::Int),
    ])
    .expect("distinct names")
    .into_ref();
    Rel::new(
        schema,
        rows.iter()
            .map(|(k, v)| {
                Tuple::new(vec![
                    k.map(Value::Int).unwrap_or(Value::Null),
                    Value::Int(*v),
                ])
            })
            .collect(),
    )
}

fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort();
    rows
}

/// Reference nested-loops join on the key column, SQL NULL semantics.
fn expected_join_rows(l: &[(Option<i64>, i64)], r: &[(Option<i64>, i64)]) -> usize {
    l.iter()
        .map(|(lk, _)| match lk {
            None => 0,
            Some(lk) => r.iter().filter(|(rk, _)| *rk == Some(*lk)).count(),
        })
        .sum()
}

type Row = (Option<i64>, i64);
fn rows_strategy() -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec((prop::option::of(0i64..8), 0i64..100), 0..30)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_join_methods_agree(l in rows_strategy(), r in rows_strategy()) {
        let keys = vec![("L.k".to_string(), "R.k".to_string())];
        let pred = col("L.k").eq(col("R.k"));
        let nlj = ops::joins::block_nested_loops(
            &ctx(), rel("L", &l), rel("R", &r), Some(&pred), JoinKind::Inner).unwrap();
        let hj = ops::joins::hash_join(
            &ctx(), rel("L", &l), rel("R", &r), &keys, None, JoinKind::Inner).unwrap();
        let mj = ops::joins::merge_join(
            &ctx(), rel("L", &l), rel("R", &r), &keys, None).unwrap();
        let expected = expected_join_rows(&l, &r);
        prop_assert_eq!(nlj.rows.len(), expected);
        prop_assert_eq!(sorted(hj.rows.into_vec()), sorted(nlj.rows.to_vec()));
        prop_assert_eq!(sorted(mj.rows.into_vec()), sorted(nlj.rows.into_vec()));
    }

    #[test]
    fn semi_join_variants_agree_and_contain(l in rows_strategy(), r in rows_strategy()) {
        let keys = vec![("L.k".to_string(), "R.k".to_string())];
        let pred = col("L.k").eq(col("R.k"));
        let nlj = ops::joins::block_nested_loops(
            &ctx(), rel("L", &l), rel("R", &r), Some(&pred), JoinKind::Semi).unwrap();
        let hj = ops::joins::hash_join(
            &ctx(), rel("L", &l), rel("R", &r), &keys, None, JoinKind::Semi).unwrap();
        prop_assert_eq!(sorted(hj.rows.to_vec()), sorted(nlj.rows.into_vec()));
        // Semi output ⊆ outer, no duplicates beyond the outer's own.
        prop_assert!(hj.rows.len() <= l.len());
        // Every semi row's key appears in R.
        let r_keys: std::collections::HashSet<i64> =
            r.iter().filter_map(|(k, _)| *k).collect();
        for t in &hj.rows {
            let k = t.value(0).as_int().expect("nulls never match");
            prop_assert!(r_keys.contains(&k));
        }
    }

    #[test]
    fn bloom_probe_is_a_superset_of_the_semi_join(
        l in rows_strategy(), r in rows_strategy()
    ) {
        let c = ctx();
        let left = rel("L", &l);
        let bloom = ops::bloom::build_bloom(&c, &left, &["L.k".into()], 512, 4).unwrap();
        c.register_bloom("b", bloom);
        let probed = ops::bloom::bloom_probe(
            &c, rel("R", &r), "b", &["R.k".into()]).unwrap();
        // Exact semi-join of R against L's keys.
        let keys = vec![("R.k".to_string(), "L.k".to_string())];
        let exact = ops::joins::hash_join(
            &ctx(), rel("R", &r), rel("L", &l), &keys, None, JoinKind::Semi).unwrap();
        // No false negatives: every exact survivor also passes the Bloom.
        let probed_set: std::collections::HashSet<Tuple> =
            probed.rows.iter().cloned().collect();
        for t in &exact.rows {
            prop_assert!(probed_set.contains(t), "bloom dropped a true match {t}");
        }
    }

    #[test]
    fn sort_is_an_ordered_permutation(l in rows_strategy()) {
        let input = rel("L", &l);
        let before = sorted(input.rows.to_vec());
        let out = ops::sort::sort(&ctx(), input, &["L.k".into(), "L.v".into()]).unwrap();
        for w in out.rows.windows(2) {
            prop_assert!(w[0].key(&[0, 1]) <= w[1].key(&[0, 1]));
        }
        prop_assert_eq!(sorted(out.rows.into_vec()), before);
    }

    #[test]
    fn distinct_is_idempotent_and_minimal(l in rows_strategy()) {
        let once = ops::agg::distinct(&ctx(), rel("L", &l)).unwrap();
        let twice = ops::agg::distinct(&ctx(), Rel::new(once.schema.clone(), once.rows.to_vec()))
            .unwrap();
        prop_assert_eq!(&once.rows, &twice.rows);
        let unique: std::collections::HashSet<&Tuple> = once.rows.iter().collect();
        prop_assert_eq!(unique.len(), once.rows.len());
    }

    #[test]
    fn aggregate_groups_match_distinct_keys(l in rows_strategy()) {
        let agg = ops::agg::hash_aggregate(
            &ctx(),
            rel("L", &l),
            &["L.k".into()],
            &[AggCall::new(AggFunc::Sum, "L.v", "s"), AggCall::count_star("n")],
        )
        .unwrap();
        let distinct_keys: std::collections::HashSet<Option<i64>> =
            l.iter().map(|(k, _)| *k).collect();
        prop_assert_eq!(agg.rows.len(), distinct_keys.len());
        // COUNT(*) sums back to the input cardinality.
        let total: i64 = agg
            .rows
            .iter()
            .map(|t| t.value(2).as_int().expect("count is int"))
            .sum();
        prop_assert_eq!(total as usize, l.len());
    }

    #[test]
    fn filter_join_composition_equals_plain_join(
        l in rows_strategy(), r in rows_strategy()
    ) {
        // Local semi-join composition: distinct(π_k L) ⋉ R, then L ⋈ R'
        // must equal L ⋈ R.
        let c = ctx();
        let filter = ops::agg::distinct(
            &c,
            ops::filter::project(&c, rel("L", &l), &[(col("L.k"), "k0".into())]).unwrap(),
        )
        .unwrap();
        let restricted = ops::joins::hash_join(
            &c,
            rel("R", &r),
            filter,
            &[("R.k".to_string(), "k0".to_string())],
            None,
            JoinKind::Semi,
        )
        .unwrap();
        let via_filter = ops::joins::hash_join(
            &c,
            rel("L", &l),
            restricted,
            &[("L.k".to_string(), "R.k".to_string())],
            None,
            JoinKind::Inner,
        )
        .unwrap();
        prop_assert_eq!(via_filter.rows.len(), expected_join_rows(&l, &r));
    }

    #[test]
    fn seeded_fault_plans_yield_typed_errors_never_wrong_rows(
        l in rows_strategy(),
        seed in 0u64..u64::MAX,
        error_one_in in 0u64..4,
        stall_one_in in 0u64..4,
    ) {
        // Any seeded fault plan either leaves the answer untouched or
        // surfaces as the typed injected-fault error — never a panic,
        // never silently wrong rows.
        let mut cat = Catalog::new();
        cat.add_table(
            TableBuilder::new("T")
                .column("k", DataType::Int)
                .column("v", DataType::Int)
                .rows(l.iter().map(|(k, v)| vec![k.unwrap_or(0).into(), (*v).into()]))
                .build()
                .unwrap()
                .into_ref(),
        );
        let cat = Arc::new(cat);
        let plan = PhysPlan::SeqScan { table: "T".into(), alias: "T".into() };
        let clean = plan.execute(&ExecCtx::new(Arc::clone(&cat))).unwrap();

        let mut faults = FaultPlan::new(seed);
        if error_one_in > 0 {
            faults = faults.with_read_errors(error_one_in);
        }
        if stall_one_in > 0 {
            faults = faults.with_stalls(stall_one_in, std::time::Duration::from_micros(10));
        }
        let ctx = ExecCtx::new(cat).with_faults(Arc::new(faults));
        match plan.execute(&ctx) {
            Ok(rel) => prop_assert_eq!(rel.rows, clean.rows.clone()),
            Err(ExecError::Storage(StorageError::InjectedFault { .. })) => {}
            Err(e) => prop_assert!(false, "unexpected error class: {e}"),
        }
    }
}

// ---- Borrowed-key operators vs a reference keyed on `Tuple::key` ----
//
// The hash join, aggregate and distinct hash and compare key columns in
// place. These properties hold them to straightforward reference
// implementations over owned `Vec<Value>` keys in a std `HashMap`, on
// keys that mix `Int` and `Double` representations of the same number,
// NULLs, signed zeros, and a second (string) key column.

/// Key-column value for a generated word: NULL, small ints, the same
/// numbers as doubles, a non-integral double, and both zeros.
fn mixed_key(word: i64) -> Value {
    match word {
        0 => Value::Null,
        1..=3 => Value::Int(word),
        4..=6 => Value::Double((word - 3) as f64),
        7 => Value::Double(2.5),
        8 => Value::Double(0.0),
        9 => Value::Double(-0.0),
        _ => Value::Int(0),
    }
}

fn str_key(word: i64) -> Value {
    match word {
        0 => Value::Null,
        1 => Value::Str("a".into()),
        _ => Value::Str("b".into()),
    }
}

type KeyedRow = (i64, i64, i64);
fn keyed_rows() -> impl Strategy<Value = Vec<KeyedRow>> {
    prop::collection::vec((0i64..11, 0i64..3, 0i64..100), 0..40)
}

/// `(k0: mixed numeric, k1: string, v: int)` rows under `prefix`.
fn keyed_rel(prefix: &str, rows: &[KeyedRow]) -> Rel {
    let schema = Schema::new(vec![
        Column::nullable(format!("{prefix}.k0"), DataType::Double),
        Column::nullable(format!("{prefix}.k1"), DataType::Str),
        Column::new(format!("{prefix}.v"), DataType::Int),
    ])
    .expect("distinct names")
    .into_ref();
    let rows = rows
        .iter()
        .map(|&(k0, k1, v)| Tuple::new(vec![mixed_key(k0), str_key(k1), Value::Int(v)]))
        .collect();
    Rel::new(schema, rows)
}

/// Hash join over owned keys: build-order matches per probe row, probe
/// order overall — the serial operator's exact output order.
fn reference_hash_join(outer: &Rel, inner: &Rel, idx: &[usize], kind: JoinKind) -> Vec<Tuple> {
    let mut table: std::collections::HashMap<Vec<Value>, Vec<&Tuple>> = Default::default();
    for i in &inner.rows {
        let key = i.key(idx);
        if !key.iter().any(Value::is_null) {
            table.entry(key).or_default().push(i);
        }
    }
    let mut out = Vec::new();
    for o in &outer.rows {
        let key = o.key(idx);
        if key.iter().any(Value::is_null) {
            continue;
        }
        match (table.get(&key), kind) {
            (Some(matches), JoinKind::Inner) => out.extend(matches.iter().map(|i| o.concat(i))),
            (Some(_), JoinKind::Semi) => out.push(o.clone()),
            (None, _) => {}
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn borrowed_key_hash_join_matches_owned_key_reference(
        l in keyed_rows(), r in keyed_rows(), two_cols in 0u8..2
    ) {
        let (names, idx): (Vec<(String, String)>, Vec<usize>) = if two_cols == 1 {
            (vec![("L.k0".into(), "R.k0".into()), ("L.k1".into(), "R.k1".into())], vec![0, 1])
        } else {
            (vec![("L.k0".into(), "R.k0".into())], vec![0])
        };
        for kind in [JoinKind::Inner, JoinKind::Semi] {
            let expected = reference_hash_join(&keyed_rel("L", &l), &keyed_rel("R", &r), &idx, kind);
            let serial = ops::joins::hash_join(
                &ctx(), keyed_rel("L", &l), keyed_rel("R", &r), &names, None, kind).unwrap();
            prop_assert_eq!(&serial.rows, &expected, "serial order, {:?}", kind);
        }
    }

    #[test]
    fn borrowed_key_aggregate_matches_owned_key_reference(
        l in keyed_rows(), two_cols in 0u8..2
    ) {
        let (names, idx): (Vec<String>, Vec<usize>) = if two_cols == 1 {
            (vec!["L.k0".into(), "L.k1".into()], vec![0, 1])
        } else {
            (vec!["L.k0".into()], vec![0])
        };
        // First-seen group order; NULL keys group together; the group
        // key shown is the first row's representation.
        let input = keyed_rel("L", &l);
        let mut order: Vec<Vec<Value>> = Vec::new();
        let mut groups: std::collections::HashMap<Vec<Value>, (i64, i64)> = Default::default();
        for t in &input.rows {
            let key = t.key(&idx);
            let acc = groups.entry(key.clone()).or_insert_with(|| {
                order.push(key);
                (0, 0)
            });
            acc.0 += 1;
            acc.1 += t.value(2).as_int().expect("v is int");
        }
        let expected: Vec<Tuple> = order
            .into_iter()
            .map(|key| {
                let (n, s) = groups[&key];
                key.into_iter().chain([Value::Int(n), Value::Int(s)]).collect()
            })
            .collect();
        let agg = ops::agg::hash_aggregate(
            &ctx(),
            input,
            &names,
            &[AggCall::count_star("n"), AggCall::new(AggFunc::Sum, "L.v", "s")],
        )
        .unwrap();
        prop_assert_eq!(agg.rows.len(), expected.len());
        for (got, want) in agg.rows.iter().zip(&expected) {
            // Compare representations too: Int(1) == Double(1.0) under
            // `Value`'s equality, but the output must show the first row's.
            prop_assert_eq!(format!("{got}"), format!("{want}"));
        }
    }

    #[test]
    fn borrowed_key_distinct_matches_owned_key_reference(l in keyed_rows()) {
        let input = keyed_rel("L", &l);
        let mut seen: std::collections::HashSet<Vec<Value>> = Default::default();
        let expected: Vec<Tuple> = input
            .rows
            .iter()
            .filter(|t| seen.insert(t.values().to_vec()))
            .cloned()
            .collect();
        let out = ops::agg::distinct(&ctx(), input).unwrap();
        prop_assert_eq!(out.rows.len(), expected.len());
        for (got, want) in out.rows.iter().zip(&expected) {
            prop_assert!(got.shares_storage_with(want), "{got} is not the first occurrence");
        }
    }
}

// ---- Shared rows vs owned rows ----
//
// A scan hands out its table's row vector (`Rows::Shared`); every other
// operator hands out rows it owns. Each row-consuming operator must not
// be able to tell the two apart: the same rows, in the same order, and
// the same ledger and spill counters, whichever kind each input is.

/// Which ways of consuming rows an operator is run under.
#[derive(Debug, Clone, Copy)]
enum Mode {
    /// Everything in memory, no spill context.
    Memory,
    /// A spill context whose broker grants nothing: every hash join,
    /// sort, distinct and grouped aggregate takes its spilling path.
    Spill,
}

fn mode_ctx(cat: &Arc<Catalog>, mode: Mode) -> ExecCtx {
    let ctx = ExecCtx::new(Arc::clone(cat)).with_memory_pages(fj_exec::MIN_MEMORY_PAGES);
    match mode {
        Mode::Memory => ctx,
        Mode::Spill => ctx.with_spill(SpillCtx::new(
            Arc::new(TempStore::open_scratch().expect("scratch temp store")),
            MemoryBroker::new(0),
        )),
    }
}

/// `rel`'s rows as a relation that shares them, as a scan does
/// (`shared`), or owns a copy of them.
fn as_kind(rel: &Rel, shared: bool) -> Rel {
    if shared {
        Rel::shared(rel.schema.clone(), Arc::new(rel.rows.to_vec()))
    } else {
        Rel::new(rel.schema.clone(), rel.rows.to_vec())
    }
}

type BinaryOp = Box<dyn Fn(&ExecCtx, Rel, Rel) -> Result<Rel, ExecError>>;

/// Every row-consuming operator, as `(name, op(ctx, outer, inner))`;
/// single-input operators ignore `inner`.
fn row_consumers() -> Vec<(&'static str, BinaryOp)> {
    let keys = || vec![("L.k".to_string(), "R.k".to_string())];
    let key_pred = || col("L.k").eq(col("R.k"));
    let residual = || col("L.v").lt(col("R.v"));
    let bloom = |key_l: Vec<String>, key_r: Vec<String>| -> BinaryOp {
        Box::new(move |c: &ExecCtx, o: Rel, i: Rel| {
            let b = ops::bloom::build_bloom(c, &i, &key_r, 256, 3)?;
            c.register_bloom("b", b);
            ops::bloom::bloom_probe(c, o, "b", &key_l)
        })
    };
    vec![
        (
            "filter",
            Box::new(|c: &ExecCtx, o: Rel, _| ops::filter::filter(c, o, &col("L.v").lt(lit(50)))),
        ),
        (
            "project",
            Box::new(|c: &ExecCtx, o: Rel, _| {
                ops::filter::project(c, o, &[(col("L.v"), "v".into())])
            }),
        ),
        (
            "sort",
            Box::new(|c: &ExecCtx, o: Rel, _| ops::sort::sort(c, o, &["L.k".into()])),
        ),
        (
            "distinct",
            Box::new(|c: &ExecCtx, o: Rel, _| ops::agg::distinct(c, o)),
        ),
        (
            "aggregate",
            Box::new(|c: &ExecCtx, o: Rel, _| {
                ops::agg::hash_aggregate(
                    c,
                    o,
                    &["L.k".into()],
                    &[
                        AggCall::new(AggFunc::Sum, "L.v", "s"),
                        AggCall::count_star("n"),
                    ],
                )
            }),
        ),
        (
            "nested loops inner",
            Box::new(move |c: &ExecCtx, o, i| {
                ops::joins::block_nested_loops(c, o, i, Some(&key_pred()), JoinKind::Inner)
            }),
        ),
        (
            "nested loops semi",
            Box::new(move |c: &ExecCtx, o, i| {
                ops::joins::block_nested_loops(c, o, i, Some(&key_pred()), JoinKind::Semi)
            }),
        ),
        (
            "hash inner",
            Box::new(move |c: &ExecCtx, o, i| {
                ops::joins::hash_join(c, o, i, &keys(), None, JoinKind::Inner)
            }),
        ),
        (
            "hash semi",
            Box::new(move |c: &ExecCtx, o, i| {
                ops::joins::hash_join(c, o, i, &keys(), None, JoinKind::Semi)
            }),
        ),
        (
            "hash semi residual",
            Box::new(move |c: &ExecCtx, o, i| {
                ops::joins::hash_join(c, o, i, &keys(), Some(&residual()), JoinKind::Semi)
            }),
        ),
        (
            "merge",
            Box::new(move |c: &ExecCtx, o, i| ops::joins::merge_join(c, o, i, &keys(), None)),
        ),
        (
            "index nested loops",
            Box::new(|c: &ExecCtx, o, _| {
                ops::joins::index_nested_loops(c, o, "T", "R", "L.k", "k", None)
            }),
        ),
        ("bloom", bloom(vec!["L.k".into()], vec!["R.k".into()])),
        (
            "bloom composite",
            bloom(
                vec!["L.k".into(), "L.v".into()],
                vec!["R.k".into(), "R.v".into()],
            ),
        ),
        (
            "temp register",
            Box::new(|c: &ExecCtx, o: Rel, _| {
                c.register_temp("t", TempTable::new(o.schema, o.rows));
                ops::scan::temp_scan(c, "t", "")
            }),
        ),
        (
            "ship",
            Box::new(|c: &ExecCtx, o, _| ops::ship::ship(c, o, SiteId(0), SiteId(1))),
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn shared_and_owned_inputs_give_the_same_rows_and_charges(
        l in rows_strategy(), r in rows_strategy(), presorted in 0u8..2
    ) {
        let mut l = l;
        if presorted == 1 {
            // Merge join's sortedness check then passes its input along.
            l.sort();
        }
        let mut t = TableBuilder::new("T")
            .nullable_column("k", DataType::Int)
            .column("v", DataType::Int)
            .rows(r.iter().map(|(k, v)| vec![k.map_or(Value::Null, Value::Int), (*v).into()]))
            .build()
            .unwrap();
        t.create_hash_index(0).unwrap();
        let mut cat = Catalog::new();
        cat.add_table(t.into_ref());
        let cat = Arc::new(cat);
        let (outer, inner) = (rel("L", &l), rel("R", &r));
        for (name, op) in row_consumers() {
            for mode in [Mode::Memory, Mode::Spill] {
                let run = |shared_outer, shared_inner| {
                    let c = mode_ctx(&cat, mode);
                    let out = op(&c, as_kind(&outer, shared_outer), as_kind(&inner, shared_inner))
                        .unwrap_or_else(|e| panic!("{name} {mode:?}: {e}"));
                    (out.rows.to_vec(), c.ledger.snapshot(), c.spill_snapshot())
                };
                let owned = run(false, false);
                for (so, si) in [(true, false), (false, true), (true, true)] {
                    prop_assert_eq!(
                        &run(so, si), &owned,
                        "{} {:?}, shared outer {}, shared inner {}", name, mode, so, si
                    );
                }
            }
        }
    }
}
