//! Lossy filter sets: building and probing Bloom filters.

use crate::context::ExecCtx;
use crate::error::ExecError;
use crate::interrupt::INTERRUPT_CHECK_INTERVAL;
use crate::physical::Rel;
use fj_storage::{charge, BloomFilter, Value};
use std::hash::{Hash, Hasher};

/// Folds a multi-column key into a single [`Value`] for Bloom
/// membership: single columns pass through, composites hash-fold (the
/// fold loses information — acceptable for a structure that is lossy by
/// design and never produces false negatives for the true key).
pub fn fold_key(values: &[&Value]) -> Value {
    if values.len() == 1 {
        values[0].clone()
    } else {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for v in values {
            v.hash(&mut h);
        }
        Value::Int(h.finish() as i64)
    }
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
        let vals: Vec<&Value> = idx.iter().map(|&i| t.value(i)).collect();
        if vals.iter().any(|v| v.is_null()) {
            continue;
        }
        bloom.insert(&fold_key(&vals));
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
    let mut rows = Vec::new();
    for (n, t) in input.rows.into_iter().enumerate() {
        if n % INTERRUPT_CHECK_INTERVAL == 0 {
            ctx.check_interrupt()?;
        }
        let vals: Vec<&Value> = idx.iter().map(|&i| t.value(i)).collect();
        if vals.iter().any(|v| v.is_null()) {
            continue;
        }
        if filter.contains(&fold_key(&vals)) {
            rows.push(t);
        }
    }
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
