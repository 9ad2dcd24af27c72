//! Bloom filters — the paper's *lossy filter sets*.
//!
//! §3.2: "The filter set can be represented exactly, or in a lossy
//! fashion ... The lossiness may be introduced by an implementation like
//! a Bloom filter". A Bloom filter is a fixed-size bit vector representing
//! a superset of the filter set: membership tests never produce false
//! negatives (so filter joins stay *correct*), but false positives let
//! some non-matching inner tuples through, trading selectivity for a
//! compact, fixed shipping size (§5.1).

use crate::value::Value;
use std::hash::{Hash, Hasher};

/// Upper bound on Bloom filter size: 2^27 bits = 16 MiB, far beyond any
/// sensible filter set and small enough to survive an estimation blunder.
pub const MAX_BLOOM_BITS: u64 = 1 << 27;

/// A Bloom filter over [`Value`]s with `k` independent hash functions
/// derived from double hashing.
#[derive(Debug, Clone)]
pub struct BloomFilter {
    bits: Vec<u64>,
    n_bits: u64,
    n_hashes: u32,
    inserted: u64,
}

impl BloomFilter {
    /// A filter with `n_bits` bits (rounded up to a multiple of 64, min
    /// 64) and `n_hashes` hash functions (clamped to 1..=16).
    pub fn new(n_bits: u64, n_hashes: u32) -> BloomFilter {
        let n_bits = n_bits.max(64).div_ceil(64) * 64;
        BloomFilter {
            bits: vec![0u64; (n_bits / 64) as usize],
            n_bits,
            n_hashes: n_hashes.clamp(1, 16),
            inserted: 0,
        }
    }

    /// Analytic sizing for `expected` insertions at target
    /// false-positive rate `fp`: returns `(bits, hashes)` from the
    /// standard formulas `m = −n·ln p / (ln 2)²`, `k = (m/n)·ln 2` —
    /// with bits capped at [`MAX_BLOOM_BITS`] so a wild cardinality
    /// estimate can never demand an absurd allocation. Use this during
    /// query *costing*; it allocates nothing.
    pub fn sizing(expected: u64, fp: f64) -> (u64, u32) {
        let fp = fp.clamp(1e-9, 0.5);
        let n = (expected.max(1) as f64).min(MAX_BLOOM_BITS as f64);
        let m = (-n * fp.ln() / (2f64.ln() * 2f64.ln())).ceil();
        let m = (m as u64).clamp(64, MAX_BLOOM_BITS);
        let k = ((m as f64 / n) * 2f64.ln()).round().clamp(1.0, 16.0) as u32;
        (m, k)
    }

    /// Sizes and *allocates* a filter for `expected` insertions at
    /// target false-positive rate `fp` (see [`BloomFilter::sizing`]).
    pub fn with_capacity(expected: u64, fp: f64) -> BloomFilter {
        let (m, k) = BloomFilter::sizing(expected, fp);
        BloomFilter::new(m, k)
    }

    fn hash_pair(value: &Value) -> (u64, u64) {
        let mut h1 = std::collections::hash_map::DefaultHasher::new();
        value.hash(&mut h1);
        let a = h1.finish();
        let mut h2 = std::collections::hash_map::DefaultHasher::new();
        a.hash(&mut h2);
        0xdeadbeefu64.hash(&mut h2);
        (a, h2.finish() | 1) // odd step so probes cycle the whole table
    }

    /// Inserts a value.
    pub fn insert(&mut self, value: &Value) {
        let (a, b) = Self::hash_pair(value);
        for i in 0..self.n_hashes as u64 {
            let bit = a.wrapping_add(i.wrapping_mul(b)) % self.n_bits;
            self.bits[(bit / 64) as usize] |= 1 << (bit % 64);
        }
        self.inserted += 1;
    }

    /// Membership test: `false` means *definitely absent*; `true` means
    /// present or a false positive.
    pub fn contains(&self, value: &Value) -> bool {
        let (a, b) = Self::hash_pair(value);
        (0..self.n_hashes as u64).all(|i| {
            let bit = a.wrapping_add(i.wrapping_mul(b)) % self.n_bits;
            self.bits[(bit / 64) as usize] & (1 << (bit % 64)) != 0
        })
    }

    /// Size in bits.
    pub fn n_bits(&self) -> u64 {
        self.n_bits
    }

    /// Hash function count.
    pub fn n_hashes(&self) -> u32 {
        self.n_hashes
    }

    /// The raw bit words, for shipping the filter across the wire.
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Rebuilds a filter from shipped parts. Returns `None` unless the
    /// geometry is coherent: `n_bits` a positive multiple of 64 equal to
    /// `words.len() * 64`, at most [`MAX_BLOOM_BITS`], and `n_hashes`
    /// in `1..=16` — so a lying peer cannot make membership tests index
    /// out of bounds.
    pub fn from_parts(
        words: Vec<u64>,
        n_bits: u64,
        n_hashes: u32,
        inserted: u64,
    ) -> Option<BloomFilter> {
        if n_bits == 0
            || !n_bits.is_multiple_of(64)
            || n_bits > MAX_BLOOM_BITS
            || words.len() as u64 != n_bits / 64
            || !(1..=16).contains(&n_hashes)
        {
            return None;
        }
        Some(BloomFilter {
            bits: words,
            n_bits,
            n_hashes,
            inserted,
        })
    }

    /// Size in bytes — the fixed wire size when a lossy filter set is
    /// shipped to a remote site.
    pub fn byte_size(&self) -> u64 {
        self.n_bits / 8
    }

    /// Values inserted so far.
    pub fn inserted(&self) -> u64 {
        self.inserted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::new(1024, 4);
        for i in 0..100 {
            f.insert(&Value::Int(i));
        }
        for i in 0..100 {
            assert!(f.contains(&Value::Int(i)), "false negative at {i}");
        }
    }

    #[test]
    fn false_positive_rate_near_prediction() {
        let mut f = BloomFilter::with_capacity(1000, 0.01);
        for i in 0..1000 {
            f.insert(&Value::Int(i));
        }
        let fps = (1000..101_000)
            .filter(|&i| f.contains(&Value::Int(i)))
            .count();
        let measured = fps as f64 / 100_000.0;
        assert!(
            measured < 0.03,
            "measured fp rate {measured} too far above target 0.01"
        );
    }

    #[test]
    fn tiny_filter_saturates_gracefully() {
        let mut f = BloomFilter::new(64, 2);
        for i in 0..10_000 {
            f.insert(&Value::Int(i));
        }
        // Saturated filter: everything looks present (superset semantics
        // preserved; selectivity lost).
        assert!(f.contains(&Value::Int(123_456)));
    }

    #[test]
    fn works_for_strings_and_mixed_types() {
        let mut f = BloomFilter::new(512, 3);
        f.insert(&Value::Str("hr".into()));
        f.insert(&Value::Double(2.5));
        assert!(f.contains(&Value::Str("hr".into())));
        assert!(f.contains(&Value::Double(2.5)));
        // Int(2) != Double(2.5), overwhelmingly likely absent.
        assert!(!f.contains(&Value::Str("engineering-nonexistent".into())));
    }

    #[test]
    fn byte_size_is_fixed_regardless_of_insertions() {
        let mut f = BloomFilter::new(4096, 4);
        let before = f.byte_size();
        for i in 0..5000 {
            f.insert(&Value::Int(i));
        }
        assert_eq!(f.byte_size(), before);
        assert_eq!(before, 512);
    }

    #[test]
    fn capacity_sizing_reasonable() {
        let f = BloomFilter::with_capacity(10_000, 0.01);
        // ~9.6 bits per entry for 1% fp.
        assert!(
            f.n_bits() > 90_000 && f.n_bits() < 110_000,
            "{}",
            f.n_bits()
        );
    }

    #[test]
    fn int_double_equality_respected() {
        // Value::Int(5) == Value::Double(5.0) must hash equally, so a
        // filter built from ints matches the equal double.
        let mut f = BloomFilter::new(1024, 4);
        f.insert(&Value::Int(5));
        assert!(f.contains(&Value::Double(5.0)));
    }
}
