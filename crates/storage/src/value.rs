//! Typed runtime values.
//!
//! The paper's queries manipulate integers, floating-point aggregates
//! (`AVG(E.sal)`), strings, and booleans; [`Value`] covers exactly those
//! plus SQL `NULL`. Values carry a *total* order (`NULL` sorts first,
//! doubles use IEEE `total_cmp`) so they can key B-trees and sort-merge
//! joins, and a hash consistent with equality so they can key hash joins
//! and filter sets.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The type of a [`Value`], used in [`crate::Schema`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE-754 float.
    Double,
    /// UTF-8 string.
    Str,
    /// Boolean.
    Bool,
}

impl DataType {
    /// Width in bytes that one value of this type occupies in the paged
    /// storage model. Strings are charged a fixed declared width (the
    /// paper-era engines used fixed-width CHAR columns); see
    /// [`crate::page::PageLayout`].
    pub fn fixed_width(self) -> usize {
        match self {
            DataType::Int => 8,
            DataType::Double => 8,
            DataType::Str => 24,
            DataType::Bool => 1,
        }
    }

    /// Human-readable name, used in `EXPLAIN` output.
    pub fn name(self) -> &'static str {
        match self {
            DataType::Int => "INT",
            DataType::Double => "DOUBLE",
            DataType::Str => "STR",
            DataType::Bool => "BOOL",
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A single runtime value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL. Compares less than every non-null value so sorts are
    /// deterministic; *equality* of two NULLs is true for grouping and
    /// duplicate elimination (SQL `DISTINCT` semantics), while three-valued
    /// predicate logic is handled in `fj-expr`.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float; ordered with `total_cmp`.
    Double(f64),
    /// UTF-8 string.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// The value's [`DataType`], or `None` for NULL (NULL inhabits every
    /// type).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Double(_) => Some(DataType::Double),
            Value::Str(_) => Some(DataType::Str),
            Value::Bool(_) => Some(DataType::Bool),
        }
    }

    /// True iff this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Float payload; integers are widened, so `as_double` is the numeric
    /// view used by arithmetic and aggregates.
    pub fn as_double(&self) -> Option<f64> {
        match self {
            Value::Double(d) => Some(*d),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// String payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Checks this value can be stored in a column of type `ty`
    /// (NULL fits everywhere; `Int` widens into `Double` columns).
    pub fn fits(&self, ty: DataType) -> bool {
        matches!(
            (self, ty),
            (Value::Null, _)
                | (Value::Int(_), DataType::Int)
                | (Value::Int(_), DataType::Double)
                | (Value::Double(_), DataType::Double)
                | (Value::Str(_), DataType::Str)
                | (Value::Bool(_), DataType::Bool)
        )
    }

    /// Byte width this value contributes to a shipped message in the
    /// distributed cost model (variable-width strings count their actual
    /// length; everything else its fixed width).
    pub fn wire_width(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Int(_) => 8,
            Value::Double(_) => 8,
            Value::Str(s) => s.len() + 4,
            Value::Bool(_) => 1,
        }
    }

    /// Rank used to order values of *different* types (a total order over
    /// the whole domain keeps sort operators panic-free even on typing
    /// bugs; well-typed plans never compare across types).
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Double(_) => 2, // numerics compare with each other
            Value::Str(_) => 3,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Total order on doubles that collapses `-0.0 == 0.0` (IEEE equality)
/// and falls back to `total_cmp` only for NaNs, so sorting is total while
/// numerically-equal values stay equal.
fn cmp_f64(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b).unwrap_or_else(|| a.total_cmp(&b))
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Int(a), Int(b)) => a.cmp(b),
            (Double(a), Double(b)) => cmp_f64(*a, *b),
            (Int(a), Double(b)) => cmp_f64(*a as f64, *b),
            (Double(a), Int(b)) => cmp_f64(*a, *b as f64),
            (Str(a), Str(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            // Int and Double must hash identically when numerically equal
            // because they compare equal (1 == 1.0); hash the f64 bits of
            // the numeric value for both.
            Value::Int(i) => {
                1u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Double(d) => {
                1u8.hash(state);
                // Normalize -0.0 to 0.0 so equal values hash equally.
                let d = if *d == 0.0 { 0.0 } else { *d };
                d.to_bits().hash(state);
            }
            Value::Str(s) => {
                2u8.hash(state);
                s.hash(state);
            }
            Value::Bool(b) => {
                3u8.hash(state);
                b.hash(state);
            }
        }
    }
}

/// SplitMix64: one step of the generator, equally a 64-bit mixer. The
/// one seeded stream behind fault schedules and retry and probe jitter:
/// the same input must give the same bits forever (replayable fault
/// plans depend on it).
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The one hasher behind every key-hashing decision in the executor:
/// hash-join and grouping tables, spill partitioning and shard routing
/// (`PartitionMap::shard_of`) all feed key columns through it (see
/// [`crate::Tuple::key_hash`]).
///
/// A multiply-rotate word mixer with a splitmix64 finalizer — a few
/// cycles per column where SipHash costs tens. It is deliberately
/// *unkeyed*: partition assignment (and therefore the page I/O a
/// spilling operator charges) must repeat exactly from run to run, which
/// a per-process random key would break. The finalizer matters: key
/// columns are mostly small integers hashed as `f64` bits, whose low
/// bits are all zero, and a bare multiplicative hash would leave them
/// zero.
#[derive(Debug, Default, Clone, Copy)]
pub struct KeyHasher(u64);

impl KeyHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

impl Hasher for KeyHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.mix(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Double(d) => write!(f, "{d:.4}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn splitmix64_is_pinned() {
        // The reference generator's first output from state 0.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
    }

    #[test]
    fn null_sorts_first() {
        let mut vals = [Value::Int(3), Value::Null, Value::Int(-1)];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
    }

    #[test]
    fn cross_numeric_comparison() {
        assert_eq!(Value::Int(1), Value::Double(1.0));
        assert!(Value::Int(1) < Value::Double(1.5));
        assert!(Value::Double(2.5) > Value::Int(2));
    }

    #[test]
    fn cross_numeric_hash_consistent_with_eq() {
        assert_eq!(hash_of(&Value::Int(7)), hash_of(&Value::Double(7.0)));
        assert_eq!(hash_of(&Value::Double(0.0)), hash_of(&Value::Double(-0.0)));
        assert_eq!(Value::Double(0.0), Value::Double(-0.0));
    }

    #[test]
    fn double_total_order_handles_nan() {
        let mut vals = [
            Value::Double(f64::NAN),
            Value::Double(1.0),
            Value::Double(f64::NEG_INFINITY),
        ];
        vals.sort();
        assert_eq!(vals[0], Value::Double(f64::NEG_INFINITY));
        assert_eq!(vals[1], Value::Double(1.0));
    }

    #[test]
    fn fits_checks_types() {
        assert!(Value::Int(1).fits(DataType::Int));
        assert!(Value::Int(1).fits(DataType::Double));
        assert!(!Value::Double(1.0).fits(DataType::Int));
        assert!(Value::Null.fits(DataType::Str));
        assert!(!Value::Str("x".into()).fits(DataType::Bool));
    }

    #[test]
    fn wire_width_counts_string_length() {
        assert_eq!(Value::Int(1).wire_width(), 8);
        assert_eq!(Value::Str("abcd".into()).wire_width(), 8);
        assert_eq!(Value::Null.wire_width(), 1);
    }

    #[test]
    fn display_round_trips_visually() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Str("hr".into()).to_string(), "'hr'");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Bool(true).to_string(), "true");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from(2.5), Value::Double(2.5));
        assert_eq!(Value::from("x"), Value::Str("x".into()));
        assert_eq!(Value::from(true), Value::Bool(true));
    }

    #[test]
    fn as_double_widens_ints() {
        assert_eq!(Value::Int(4).as_double(), Some(4.0));
        assert_eq!(Value::Str("4".into()).as_double(), None);
    }

    #[test]
    fn mixed_type_order_is_total_and_antisymmetric() {
        let vals = [
            Value::Null,
            Value::Bool(false),
            Value::Int(0),
            Value::Double(0.5),
            Value::Str("a".into()),
        ];
        for a in &vals {
            for b in &vals {
                let ab = a.cmp(b);
                let ba = b.cmp(a);
                assert_eq!(ab, ba.reverse(), "{a} vs {b}");
            }
        }
    }
}
