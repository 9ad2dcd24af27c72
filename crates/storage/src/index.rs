//! Single-column indexes.
//!
//! Two access methods, matching what a System-R optimizer distinguishes:
//! a [`HashIndex`] (O(1) equality probes) and a [`BTreeIndex`] (ordered,
//! with an ordered full scan). Neither touches the ledger: the caller
//! books [`charge::probe`](crate::charge::probe) at
//! [`Index::probe_pages`] and the heap rows it fetched, and the
//! optimizer prices a probe with the same function.

use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::{BTreeMap, HashMap};

/// Common behaviour of both index kinds.
pub trait Index {
    /// Row ids whose key equals `key`.
    fn probe(&self, key: &Value) -> &[usize];
    /// Index pages one probe reads: a hash bucket page, or a B-tree's
    /// height.
    fn probe_pages(&self) -> u64;
    /// Pages this index occupies; a leaf holds 256 entries.
    fn page_count(&self) -> u64;
}

/// Index entries per logical page: an entry is a (key, row-id) pair of
/// roughly 16 bytes in a 4 KiB page.
const ENTRIES_PER_PAGE: u64 = 256;

fn index_pages(entries: usize) -> u64 {
    (entries as u64).div_ceil(ENTRIES_PER_PAGE).max(1)
}

/// Hash index: equality probes cost one page read (bucket page).
#[derive(Debug)]
pub struct HashIndex {
    map: HashMap<Value, Vec<usize>>,
    entries: usize,
}

impl HashIndex {
    /// Builds over `rows`, keyed by column `col`. NULL keys are not
    /// indexed (SQL equality never matches NULL).
    pub fn build(rows: &[Tuple], col: usize) -> HashIndex {
        let mut map: HashMap<Value, Vec<usize>> = HashMap::new();
        let mut entries = 0;
        for (i, t) in rows.iter().enumerate() {
            let v = t.value(col);
            if v.is_null() {
                continue;
            }
            map.entry(v.clone()).or_default().push(i);
            entries += 1;
        }
        HashIndex { map, entries }
    }
}

impl Index for HashIndex {
    fn probe(&self, key: &Value) -> &[usize] {
        self.map.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    fn probe_pages(&self) -> u64 {
        1
    }

    fn page_count(&self) -> u64 {
        index_pages(self.entries)
    }
}

/// Ordered index: probes cost the tree height in page reads; supports
/// an ordered full scan.
#[derive(Debug)]
pub struct BTreeIndex {
    map: BTreeMap<Value, Vec<usize>>,
    entries: usize,
}

impl BTreeIndex {
    /// Builds over `rows`, keyed by column `col`; NULLs are not indexed.
    pub fn build(rows: &[Tuple], col: usize) -> BTreeIndex {
        let mut map: BTreeMap<Value, Vec<usize>> = BTreeMap::new();
        let mut entries = 0;
        for (i, t) in rows.iter().enumerate() {
            let v = t.value(col);
            if v.is_null() {
                continue;
            }
            map.entry(v.clone()).or_default().push(i);
            entries += 1;
        }
        BTreeIndex { map, entries }
    }

    /// Height of the tree in pages (⌈log_fanout(leaves)⌉ + 1, minimum 1),
    /// the per-probe page-read charge.
    fn height(&self) -> u64 {
        let leaves = index_pages(self.entries);
        let mut h = 1u64;
        let mut n = leaves;
        while n > 1 {
            n = n.div_ceil(ENTRIES_PER_PAGE);
            h += 1;
        }
        h
    }

    /// Every indexed row id in key order — the ordered full scan behind
    /// the *interesting orders* access path, which reads all
    /// [`Index::page_count`] leaf pages.
    pub fn scan_all_ordered(&self) -> Vec<usize> {
        self.map.values().flatten().copied().collect()
    }
}

impl Index for BTreeIndex {
    fn probe(&self, key: &Value) -> &[usize] {
        self.map.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    fn probe_pages(&self) -> u64 {
        self.height()
    }

    fn page_count(&self) -> u64 {
        index_pages(self.entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn rows() -> Vec<Tuple> {
        vec![
            tuple![10, "a"],
            tuple![20, "b"],
            tuple![10, "c"],
            tuple![30, "d"],
        ]
    }

    #[test]
    fn hash_probe_finds_all_matches() {
        let idx = HashIndex::build(&rows(), 0);
        assert_eq!(idx.probe(&Value::Int(10)), &[0, 2]);
        assert_eq!(idx.probe(&Value::Int(99)), &[] as &[usize]);
        assert_eq!(idx.probe_pages(), 1);
    }

    #[test]
    fn nulls_not_indexed() {
        let rows = vec![Tuple::new(vec![Value::Null]), tuple![1]];
        let h = HashIndex::build(&rows, 0);
        assert!(h.probe(&Value::Null).is_empty());
        assert_eq!(h.entries, 1);
        let b = BTreeIndex::build(&rows, 0);
        assert!(b.probe(&Value::Null).is_empty());
        assert_eq!(b.scan_all_ordered(), vec![1]);
    }

    #[test]
    fn btree_probe_reads_its_height() {
        let idx = BTreeIndex::build(&rows(), 0);
        assert_eq!(idx.probe(&Value::Int(20)), &[1]);
        assert_eq!(idx.probe_pages(), 1);
        assert_eq!(idx.scan_all_ordered(), vec![0, 2, 1, 3]);
    }

    #[test]
    fn btree_height_grows_logarithmically() {
        let rows: Vec<Tuple> = (0..200_000i64).map(|i| tuple![i]).collect();
        let idx = BTreeIndex::build(&rows, 0);
        // 200k entries / 256 per page = 782 leaves → height 3
        assert_eq!(idx.probe_pages(), 3);
        assert_eq!(idx.page_count(), 782);
    }

    #[test]
    fn index_page_count_minimum_one() {
        let idx = HashIndex::build(&[], 0);
        assert_eq!(idx.page_count(), 1);
    }

    #[test]
    fn string_keys_work() {
        let idx = HashIndex::build(&rows(), 1);
        assert_eq!(idx.probe(&Value::Str("c".into())), &[2]);
    }
}
