//! Tuples: fixed-arity rows of [`Value`]s.

use crate::schema::Schema;
use crate::value::{KeyHasher, Value};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A row. Values are stored in schema order, immutable, and shared via
/// `Arc`: cloning a tuple bumps a reference count and copies no value.
/// A scan hands out its table's row vector as a whole, touching no row's
/// count; filters and semi-joins clone only the rows they keep from it,
/// and sorts the rows they reorder. Only operators that build *new*
/// rows ([`Tuple::concat`], [`Tuple::project`]) allocate.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple {
    values: Arc<[Value]>,
}

impl Tuple {
    /// Builds a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple {
            values: values.into(),
        }
    }

    /// The values, in schema order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Number of values.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Value at position `i`.
    pub fn value(&self, i: usize) -> &Value {
        &self.values[i]
    }

    /// True iff `self` and `other` are the same allocation — a clone of
    /// one another rather than equal copies.
    pub fn shares_storage_with(&self, other: &Tuple) -> bool {
        Arc::ptr_eq(&self.values, &other.values)
    }

    /// Concatenates two tuples (join output row).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        self.values
            .iter()
            .chain(other.values.iter())
            .cloned()
            .collect()
    }

    /// Projects values at the given positions into a new tuple.
    pub fn project(&self, indices: &[usize]) -> Tuple {
        indices.iter().map(|&i| self.values[i].clone()).collect()
    }

    /// Extracts the key values at `indices` — the join/grouping key — as
    /// an owned vector. Operators hash and compare keys in place
    /// ([`Tuple::key_hash`], [`Tuple::key_eq`], [`Tuple::key_cmp`]); this
    /// is for callers that must keep a key after the row is gone.
    pub fn key(&self, indices: &[usize]) -> Vec<Value> {
        indices.iter().map(|&i| self.values[i].clone()).collect()
    }

    /// Hash of the key columns at `indices`, read in place. Feeds
    /// [`KeyHasher`] the column count and then each column, exactly as
    /// hashing the owned [`Tuple::key`] vector would, so a borrowed key
    /// and its owned copy always agree; equal keys hash equally across
    /// `Int`/`Double` (see [`Value`]'s `Hash`).
    #[inline]
    pub fn key_hash(&self, indices: &[usize]) -> u64 {
        let mut h = KeyHasher::default();
        h.write_usize(indices.len());
        // The single-`Int` key every paper workload joins and groups on:
        // same words as the loop below, without the per-column dispatch.
        if let [i] = indices {
            if let Value::Int(v) = self.values[*i] {
                h.write_u8(1);
                h.write_u64((v as f64).to_bits());
                return h.finish();
            }
        }
        for &i in indices {
            self.values[i].hash(&mut h);
        }
        h.finish()
    }

    /// True iff any key column at `indices` is NULL (such a row can
    /// never match under SQL join equality).
    #[inline]
    pub fn key_has_null(&self, indices: &[usize]) -> bool {
        indices.iter().any(|&i| self.values[i].is_null())
    }

    /// Compares this row's key columns at `indices` with `other`'s at
    /// `other_indices`, column by column, in place — the order of the
    /// owned [`Tuple::key`] vectors.
    #[inline]
    pub fn key_cmp(&self, indices: &[usize], other: &Tuple, other_indices: &[usize]) -> Ordering {
        debug_assert_eq!(indices.len(), other_indices.len());
        for (&a, &b) in indices.iter().zip(other_indices) {
            match self.values[a].cmp(&other.values[b]) {
                Ordering::Equal => {}
                unequal => return unequal,
            }
        }
        Ordering::Equal
    }

    /// True iff the two rows' key columns are equal (NULL equals NULL,
    /// as for grouping; joins drop NULL keys first).
    #[inline]
    pub fn key_eq(&self, indices: &[usize], other: &Tuple, other_indices: &[usize]) -> bool {
        self.key_cmp(indices, other, other_indices) == Ordering::Equal
    }

    /// Checks arity and per-column type compatibility against a schema.
    pub fn conforms_to(&self, schema: &Schema) -> bool {
        self.values.len() == schema.arity()
            && self
                .values
                .iter()
                .zip(schema.columns())
                .all(|(v, c)| v.fits(c.data_type) && (c.nullable || !v.is_null()))
    }

    /// Total bytes this tuple occupies on the wire (distributed shipping).
    pub fn wire_width(&self) -> usize {
        4 + self.values.iter().map(Value::wire_width).sum::<usize>()
    }

    /// Consumes the tuple, returning its values.
    pub fn into_values(self) -> Vec<Value> {
        self.values.to_vec()
    }
}

impl Default for Tuple {
    fn default() -> Self {
        Tuple::new(Vec::new())
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Tuple {
            values: iter.into_iter().collect(),
        }
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

/// Shorthand for building a tuple from heterogeneous literals:
/// `tuple![1, 2.5, "hr"]`.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::Tuple::new(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::DataType;

    #[test]
    fn concat_and_project() {
        let a = tuple![1, "x"];
        let b = tuple![2.5];
        let c = a.concat(&b);
        assert_eq!(c.arity(), 3);
        assert_eq!(c.project(&[2, 0]), tuple![2.5, 1]);
    }

    #[test]
    fn key_extraction() {
        let t = tuple![10, 20, 30];
        assert_eq!(t.key(&[2, 0]), vec![Value::Int(30), Value::Int(10)]);
    }

    fn owned_key_hash(key: &[Value]) -> u64 {
        let mut h = KeyHasher::default();
        key.hash(&mut h);
        h.finish()
    }

    #[test]
    fn borrowed_key_hashes_like_its_owned_copy() {
        let t = Tuple::new(vec![
            Value::Int(7),
            Value::Null,
            Value::Str("dept".into()),
            Value::Double(-0.0),
            Value::Bool(true),
        ]);
        for idx in [&[][..], &[0], &[1], &[2], &[3, 0], &[4, 2, 1, 0, 3]] {
            assert_eq!(t.key_hash(idx), owned_key_hash(&t.key(idx)), "{idx:?}");
        }
        // Equal keys hash equally across Int/Double, so the single-Int
        // fast path must agree with the general one.
        assert_eq!(tuple![7].key_hash(&[0]), tuple![7.0].key_hash(&[0]));
        assert_eq!(tuple![0, 0.0].key_hash(&[1]), tuple![-0.0].key_hash(&[0]));
        assert_ne!(tuple![7].key_hash(&[0]), tuple![8].key_hash(&[0]));
    }

    #[test]
    fn key_hash_spreads_small_ints_over_low_and_high_bits() {
        // f64 bit patterns of small integers differ only in high bits;
        // the finalizer must spread them over both ends of the word
        // (routing takes the hash modulo, hash tables take its top bits).
        let low: std::collections::HashSet<u64> =
            (0..1024).map(|i| tuple![i].key_hash(&[0]) % 1024).collect();
        let high: std::collections::HashSet<u64> =
            (0..1024).map(|i| tuple![i].key_hash(&[0]) >> 54).collect();
        assert!(
            low.len() > 600 && high.len() > 600,
            "{} {}",
            low.len(),
            high.len()
        );
    }

    #[test]
    fn key_cmp_and_eq_match_owned_keys() {
        let a = tuple![1, "x", 2.5];
        let b = Tuple::new(vec![
            Value::Double(1.0),
            Value::Null,
            Value::Str("x".into()),
        ]);
        assert!(a.key_eq(&[0, 1], &b, &[0, 2]));
        assert_eq!(
            a.key_cmp(&[1, 0], &b, &[2, 1]),
            a.key(&[1, 0]).cmp(&b.key(&[2, 1]))
        );
        assert_eq!(a.key_cmp(&[2], &b, &[0]), Ordering::Greater);
        assert!(b.key_has_null(&[0, 1]) && !b.key_has_null(&[0, 2]));
        assert!(b.key_eq(&[1], &b, &[1]), "NULL groups with NULL");
    }

    #[test]
    fn clone_shares_storage_copies_do_not() {
        let a = tuple![1, "x"];
        let b = a.clone();
        assert!(a.shares_storage_with(&b));
        assert!(!a.shares_storage_with(&tuple![1, "x"]));
        assert_eq!(a, tuple![1, "x"]);
        assert_eq!(a.into_values(), vec![Value::Int(1), Value::Str("x".into())]);
        assert_eq!(Tuple::default().arity(), 0);
    }

    #[test]
    fn conformance_checks_arity_type_nullability() {
        let schema = Schema::new(vec![
            crate::schema::Column::new("a", DataType::Int),
            crate::schema::Column::nullable("b", DataType::Str),
        ])
        .unwrap();
        assert!(tuple![1, "x"].conforms_to(&schema));
        assert!(Tuple::new(vec![Value::Int(1), Value::Null]).conforms_to(&schema));
        assert!(!Tuple::new(vec![Value::Null, Value::Null]).conforms_to(&schema));
        assert!(!tuple![1].conforms_to(&schema));
        assert!(!tuple!["bad", "x"].conforms_to(&schema));
    }

    #[test]
    fn int_fits_double_column() {
        let schema = Schema::from_pairs(&[("sal", DataType::Double)]);
        assert!(tuple![100].conforms_to(&schema));
    }

    #[test]
    fn display() {
        assert_eq!(tuple![1, "hr"].to_string(), "[1, 'hr']");
    }

    #[test]
    fn wire_width_sums_values() {
        assert_eq!(tuple![1, true].wire_width(), 4 + 8 + 1);
    }
}
