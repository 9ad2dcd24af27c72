//! The hash table under hash join, hash aggregate and distinct: a
//! chained index from a key hash ([`fj_storage::Tuple::key_hash`]) to
//! caller-defined ids — build-row positions for joins, group numbers
//! for aggregation. It stores no keys. A lookup yields *candidate* ids
//! whose key columns the caller compares in place, so building and
//! probing allocate nothing per row.

const NIL: u32 = u32::MAX;

/// Fixed-capacity chained hash index over ids `0..capacity`.
pub(crate) struct KeyIndex {
    /// Per-bucket first id, `NIL` when empty. Length is a power of two.
    heads: Vec<u32>,
    /// Per-id next id in the same bucket.
    next: Vec<u32>,
    /// Buckets are picked from the hash's *top* bits: partition routing
    /// takes the same hash modulo the partition count, which pins the
    /// low bits of every key inside one partition.
    shift: u32,
}

impl KeyIndex {
    /// An empty index for ids `0..capacity`, at most a quarter full: a
    /// probe for an absent key (nine in ten, under a filter join's
    /// semi-join) then mostly finds an empty bucket and never touches a
    /// build row.
    pub(crate) fn with_capacity(capacity: usize) -> KeyIndex {
        assert!(capacity < NIL as usize, "row count exceeds key index range");
        let buckets = (capacity * 4).next_power_of_two().max(2);
        KeyIndex {
            heads: vec![NIL; buckets],
            next: vec![NIL; capacity],
            shift: 64 - buckets.trailing_zeros(),
        }
    }

    /// Files `id` under `hash`, ahead of ids filed there earlier. Each
    /// id may be inserted once.
    pub(crate) fn insert(&mut self, hash: u64, id: usize) {
        let bucket = (hash >> self.shift) as usize;
        self.next[id] = self.heads[bucket];
        self.heads[bucket] = id as u32;
    }

    /// Ids filed under a hash that shares `hash`'s bucket, most recently
    /// inserted first. A superset of the ids whose key equals the probed
    /// key: the caller compares columns.
    pub(crate) fn candidates(&self, hash: u64) -> impl Iterator<Item = usize> + '_ {
        let mut cur = self.heads[(hash >> self.shift) as usize];
        std::iter::from_fn(move || {
            (cur != NIL).then(|| {
                let id = cur as usize;
                cur = self.next[id];
                id
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidates_come_back_newest_first_and_cover_every_insert() {
        let mut idx = KeyIndex::with_capacity(6);
        // Same hash → same chain, whatever the bucket count.
        for id in [4, 2, 0] {
            idx.insert(0xdead_beef_0000_0000, id);
        }
        assert_eq!(
            idx.candidates(0xdead_beef_0000_0000).collect::<Vec<_>>(),
            vec![0, 2, 4]
        );
        idx.insert(0x1234_0000_0000_0000, 5);
        assert!(idx.candidates(0x1234_0000_0000_0000).any(|c| c == 5));
    }

    #[test]
    fn empty_and_zero_capacity_indexes_yield_nothing() {
        assert_eq!(KeyIndex::with_capacity(0).candidates(u64::MAX).count(), 0);
        assert_eq!(KeyIndex::with_capacity(100).candidates(7).count(), 0);
    }
}
