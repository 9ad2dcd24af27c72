//! Lossy filter sets: building and probing Bloom filters.

use crate::context::ExecCtx;
use crate::error::ExecError;
use crate::interrupt::INTERRUPT_CHECK_INTERVAL;
use crate::physical::Rel;
use fj_storage::{charge, BloomFilter, Tuple, Value};
use std::borrow::Cow;
use std::hash::{Hash, Hasher};

/// The Bloom membership key of `row`'s columns at `idx`, or `None` when
/// one of them is NULL (a NULL key never equi-joins). A single column is
/// the row's own value, borrowed; a composite hash-folds its columns in
/// place into one `Int` (the fold loses information — acceptable for a
/// structure that is lossy by design and never produces false negatives
/// for the true key).
pub fn fold_key<'a>(row: &'a Tuple, idx: &[usize]) -> Option<Cow<'a, Value>> {
    if row.key_has_null(idx) {
        return None;
    }
    if let [i] = idx {
        return Some(Cow::Borrowed(row.value(*i)));
    }
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for &i in idx {
        row.value(i).hash(&mut h);
    }
    Some(Cow::Owned(Value::Int(h.finish() as i64)))
}

/// Builds a Bloom filter over `key_cols` of `input`. Charges one tuple
/// op per row.
pub fn build_bloom(
    ctx: &ExecCtx,
    input: &Rel,
    key_cols: &[String],
    bits: u64,
    hashes: u32,
) -> Result<BloomFilter, ExecError> {
    let idx: Vec<usize> = key_cols
        .iter()
        .map(|c| input.schema.resolve(c))
        .collect::<Result<_, _>>()?;
    let mut bloom = BloomFilter::new(bits, hashes);
    ctx.ledger.book(charge::ops(input.rows.len() as u64));
    for (n, t) in input.rows.iter().enumerate() {
        if n % INTERRUPT_CHECK_INTERVAL == 0 {
            ctx.check_interrupt()?;
        }
        if let Some(key) = fold_key(t, &idx) {
            bloom.insert(&key);
        }
    }
    Ok(bloom)
}

/// Drops input rows whose key is definitely absent from the registered
/// Bloom filter `bloom`. Charges one tuple op per row. Rows with NULL
/// keys are dropped (they can never equi-join).
pub fn bloom_probe(
    ctx: &ExecCtx,
    input: Rel,
    bloom: &str,
    key_cols: &[String],
) -> Result<Rel, ExecError> {
    let filter = ctx.bloom(bloom)?;
    let idx: Vec<usize> = key_cols
        .iter()
        .map(|c| input.schema.resolve(c))
        .collect::<Result<_, _>>()?;
    ctx.ledger.book(charge::ops(input.rows.len() as u64));
    let rows = input.rows.keep(|n, t| {
        if n % INTERRUPT_CHECK_INTERVAL == 0 {
            ctx.check_interrupt()?;
        }
        Ok(fold_key(t, &idx).is_some_and(|key| filter.contains(&key)))
    })?;
    Ok(Rel::new(input.schema, rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_algebra::Catalog;
    use fj_storage::{tuple, DataType, Schema, Tuple};
    use std::sync::Arc;

    fn ctx() -> ExecCtx {
        ExecCtx::new(Arc::new(Catalog::new()))
    }

    fn rel(vals: &[i64]) -> Rel {
        Rel::new(
            Schema::from_pairs(&[("k", DataType::Int)]).into_ref(),
            vals.iter().map(|&v| tuple![v]).collect(),
        )
    }

    #[test]
    fn probe_keeps_all_members() {
        let c = ctx();
        let b = build_bloom(&c, &rel(&[1, 2, 3]), &["k".into()], 1024, 4).unwrap();
        c.register_bloom("f", b);
        let r = bloom_probe(&c, rel(&[1, 2, 3]), "f", &["k".into()]).unwrap();
        assert_eq!(r.rows.len(), 3, "no false negatives");
    }

    #[test]
    fn probe_drops_most_nonmembers() {
        let c = ctx();
        let b = build_bloom(&c, &rel(&[1, 2, 3]), &["k".into()], 4096, 6).unwrap();
        c.register_bloom("f", b);
        let probe: Vec<i64> = (1000..2000).collect();
        let r = bloom_probe(&c, rel(&probe), "f", &["k".into()]).unwrap();
        assert!(r.rows.len() < 20, "fp count {} too high", r.rows.len());
    }

    #[test]
    fn null_keys_dropped() {
        let c = ctx();
        let b = build_bloom(&c, &rel(&[1]), &["k".into()], 128, 2).unwrap();
        c.register_bloom("f", b);
        let input = Rel::new(
            Schema::new(vec![fj_storage::Column::nullable("k", DataType::Int)])
                .unwrap()
                .into_ref(),
            vec![Tuple::new(vec![Value::Null]), tuple![1]],
        );
        let r = bloom_probe(&c, input, "f", &["k".into()]).unwrap();
        assert_eq!(r.rows, vec![tuple![1]]);
    }

    #[test]
    fn missing_filter_errors() {
        assert!(matches!(
            bloom_probe(&ctx(), rel(&[1]), "ghost", &["k".into()]),
            Err(ExecError::MissingRuntimeObject(_))
        ));
    }

    #[test]
    fn fold_borrows_one_column_and_hashes_a_composite_in_column_order() {
        let row = tuple![3, 4];
        match fold_key(&row, &[1]) {
            Some(Cow::Borrowed(v)) => assert!(std::ptr::eq(v, row.value(1))),
            other => panic!("single column not borrowed: {other:?}"),
        }
        // The composite fold is `DefaultHasher` over each column in key
        // order, as it was when every row collected a `Vec<&Value>`:
        // another order or hasher would move every false positive.
        let mut h = std::collections::hash_map::DefaultHasher::new();
        Value::Int(3).hash(&mut h);
        Value::Int(4).hash(&mut h);
        let folded = Value::Int(h.finish() as i64);
        assert_eq!(fold_key(&row, &[0, 1]).as_deref(), Some(&folded));
        let with_null = Tuple::new(vec![Value::Int(3), Value::Null]);
        assert_eq!(fold_key(&with_null, &[0, 1]), None);
        assert_eq!(fold_key(&with_null, &[1]), None);
    }

    #[test]
    fn multi_column_fold_no_false_negatives() {
        let c = ctx();
        let two = Rel::new(
            Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]).into_ref(),
            vec![tuple![1, 2], tuple![3, 4]],
        );
        let b = build_bloom(&c, &two, &["a".into(), "b".into()], 1024, 4).unwrap();
        c.register_bloom("f", b);
        let r = bloom_probe(
            &c,
            Rel::new(two.schema.clone(), vec![tuple![1, 2], tuple![3, 4]]),
            "f",
            &["a".into(), "b".into()],
        )
        .unwrap();
        assert_eq!(r.rows.len(), 2);
    }
}
