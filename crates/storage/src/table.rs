//! In-memory, page-accounted heap tables.
//!
//! The access paths do the physical work — fault draws and, for a
//! backed table, page reads — and leave the ledger to their caller,
//! which books the [`crate::charge`] function of what it read.

use crate::backing::PageBacking;
use crate::error::StorageError;
use crate::fault::FaultPlan;
use crate::index::{BTreeIndex, HashIndex, Index};
use crate::page::PageLayout;
use crate::schema::{Schema, SchemaRef};
use crate::stats::TableStats;
use crate::tuple::Tuple;
use std::sync::{Arc, OnceLock};

/// Shared table handle. A table version is immutable once built (a
/// mutation installs a new version), which lets a scan hand out the
/// table's row vector itself: one reference-count bump per scan, none
/// per row.
pub type TableRef = Arc<Table>;

/// A heap table: schema, rows, page layout, statistics, optional indexes.
#[derive(Debug)]
pub struct Table {
    name: String,
    schema: SchemaRef,
    rows: Arc<Vec<Tuple>>,
    layout: PageLayout,
    stats: TableStats,
    hash_indexes: Vec<(usize, HashIndex)>,
    btree_indexes: Vec<(usize, BTreeIndex)>,
    backing: OnceLock<Arc<dyn PageBacking>>,
}

impl Table {
    /// Builds a table, validating every row against the schema and
    /// computing statistics eagerly (the engine's implicit `ANALYZE`).
    pub fn new(
        name: impl Into<String>,
        schema: Schema,
        rows: Vec<Tuple>,
    ) -> Result<Table, StorageError> {
        let name = name.into();
        for (i, t) in rows.iter().enumerate() {
            if !t.conforms_to(&schema) {
                return Err(StorageError::SchemaMismatch {
                    table: name,
                    detail: format!("row {i} ({t}) does not conform to {schema}"),
                });
            }
        }
        let layout = PageLayout::for_schema(&schema);
        let stats = TableStats::analyze(&schema, &rows);
        Ok(Table {
            name,
            schema: schema.into_ref(),
            rows: Arc::new(rows),
            layout,
            stats,
            hash_indexes: Vec::new(),
            btree_indexes: Vec::new(),
            backing: OnceLock::new(),
        })
    }

    /// This table's next version after a mutation: `rows` is the
    /// post-mutation row vector, `removed` and `added` the delta that
    /// produced it ([`crate::mutation::Applied`]). Only the added rows
    /// are checked against the schema — the rest already conformed —
    /// the layout is reused, and the statistics are this version's with
    /// the delta merged in ([`TableStats::with_delta`]), equal to what
    /// [`Table::new`] would analyze from `rows`. Indexes are rebuilt on
    /// the same columns; a page backing is not carried over.
    pub fn next_version(
        &self,
        rows: Vec<Tuple>,
        removed: &[Tuple],
        added: &[Tuple],
    ) -> Result<Table, StorageError> {
        if let Some(t) = added.iter().find(|t| !t.conforms_to(&self.schema)) {
            return Err(StorageError::SchemaMismatch {
                table: self.name.clone(),
                detail: format!("added row ({t}) does not conform to {}", self.schema),
            });
        }
        let stats = self.stats.with_delta(removed, added);
        debug_assert_eq!(stats.rows, rows.len() as u64, "delta does not match rows");
        let mut table = Table {
            name: self.name.clone(),
            schema: Arc::clone(&self.schema),
            rows: Arc::new(rows),
            layout: self.layout,
            stats,
            hash_indexes: Vec::new(),
            btree_indexes: Vec::new(),
            backing: OnceLock::new(),
        };
        for col in self.hash_indexed_columns() {
            table.create_hash_index(col)?;
        }
        for col in self.btree_indexed_columns() {
            table.create_btree_index(col)?;
        }
        Ok(table)
    }

    /// Attaches a physical page backing. From here on, the access paths
    /// ([`Table::scan_checked`] / [`Table::fetch_checked`] /
    /// [`Table::read_backed_page`]) fetch every logical page their
    /// callers book through the backing as well, so ledger counts and
    /// physical reads can be diffed. A second attach is ignored: a
    /// table is backed exactly once, when the disk-backed catalog is
    /// built.
    pub fn attach_backing(&self, backing: Arc<dyn PageBacking>) {
        let _ = self.backing.set(backing);
    }

    /// Logical page holding row `row_id`.
    fn page_of_row(&self, row_id: usize) -> u64 {
        row_id as u64 / self.layout.tuples_per_page
    }

    /// Fetches logical page `page_no` through the attached backing, a
    /// no-op for unbacked (pure in-memory) tables. The ordered index
    /// scan calls this per heap page so disk mode stays physically
    /// honest without adding fault draws the in-memory fault schedule
    /// never saw.
    pub fn read_backed_page(&self, page_no: u64) -> Result<(), StorageError> {
        match self.backing.get() {
            Some(b) => b.read_page(page_no),
            None => Ok(()),
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Schema handle.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Row count.
    pub fn row_count(&self) -> u64 {
        self.rows.len() as u64
    }

    /// Pages the table occupies.
    pub fn page_count(&self) -> u64 {
        self.layout.pages(self.rows.len() as u64)
    }

    /// The table's page layout.
    pub fn layout(&self) -> PageLayout {
        self.layout
    }

    /// Precomputed statistics.
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    /// Raw row access *without* fault draws or backed page reads — for
    /// index builds, statistics, and test assertions. Query operators
    /// use [`Table::scan_checked`].
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// A full scan through an optional [`FaultPlan`]: draws one fault
    /// decision per page the scan touches, so a seeded plan can fail or
    /// stall the scan deterministically, then reads every page through
    /// the backing, if any. The caller books
    /// [`charge::reads`](crate::charge::reads) of [`Table::page_count`].
    /// Returns the table's own row vector, shared: a scan clones the
    /// handle, not the rows. It is an `Arc<Vec<_>>` rather than an
    /// `Arc<[_]>` so that building a table moves its rows in instead of
    /// copying them (a mutation installs a table per commit).
    pub fn scan_checked(
        &self,
        faults: Option<&FaultPlan>,
    ) -> Result<&Arc<Vec<Tuple>>, StorageError> {
        if let Some(plan) = faults {
            for _ in 0..self.page_count() {
                plan.on_page_read()?;
            }
        }
        if let Some(backing) = self.backing.get() {
            for page_no in 0..self.page_count() {
                backing.read_page(page_no)?;
            }
        }
        Ok(&self.rows)
    }

    /// Adds a hash index on column `col`.
    pub fn create_hash_index(&mut self, col: usize) -> Result<(), StorageError> {
        if col >= self.schema.arity() {
            return Err(StorageError::BadIndexColumn {
                index: col,
                arity: self.schema.arity(),
            });
        }
        let idx = HashIndex::build(&self.rows, col);
        self.hash_indexes.retain(|(c, _)| *c != col);
        self.hash_indexes.push((col, idx));
        Ok(())
    }

    /// Adds an ordered (B-tree) index on column `col`.
    pub fn create_btree_index(&mut self, col: usize) -> Result<(), StorageError> {
        if col >= self.schema.arity() {
            return Err(StorageError::BadIndexColumn {
                index: col,
                arity: self.schema.arity(),
            });
        }
        let idx = BTreeIndex::build(&self.rows, col);
        self.btree_indexes.retain(|(c, _)| *c != col);
        self.btree_indexes.push((col, idx));
        Ok(())
    }

    /// Hash index on `col`, if one exists.
    fn hash_index(&self, col: usize) -> Option<&HashIndex> {
        self.hash_indexes
            .iter()
            .find(|(c, _)| *c == col)
            .map(|(_, i)| i)
    }

    /// B-tree index on `col`, if one exists.
    pub fn btree_index(&self, col: usize) -> Option<&BTreeIndex> {
        self.btree_indexes
            .iter()
            .find(|(c, _)| *c == col)
            .map(|(_, i)| i)
    }

    /// The index an equality probe on `col` uses: the hash index if
    /// there is one, else the B-tree. Index nested loops, fetch-matches
    /// and the optimizer's price for both choose through here.
    pub fn probe_index(&self, col: usize) -> Option<&dyn Index> {
        match self.hash_index(col) {
            Some(h) => Some(h),
            None => self.btree_index(col).map(|b| b as &dyn Index),
        }
    }

    /// Columns with a hash index, in creation order. Lets a disk-backed
    /// catalog rebuild a table's exact index set.
    pub fn hash_indexed_columns(&self) -> Vec<usize> {
        self.hash_indexes.iter().map(|(c, _)| *c).collect()
    }

    /// Columns with a B-tree index, in creation order.
    pub fn btree_indexed_columns(&self) -> Vec<usize> {
        self.btree_indexes.iter().map(|(c, _)| *c).collect()
    }

    /// Row `row_id` (for index lookups) through an optional
    /// [`FaultPlan`]: one fault decision for its page, then that page
    /// through the backing, if any. The caller books the page read as
    /// part of [`charge::probe`](crate::charge::probe).
    pub fn fetch_checked(
        &self,
        row_id: usize,
        faults: Option<&FaultPlan>,
    ) -> Result<&Tuple, StorageError> {
        if let Some(plan) = faults {
            plan.on_page_read()?;
        }
        self.read_backed_page(self.page_of_row(row_id))?;
        Ok(&self.rows[row_id])
    }

    /// Wraps in an [`Arc`].
    pub fn into_ref(self) -> TableRef {
        Arc::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;
    use crate::value::DataType;

    fn small_table() -> Table {
        let schema = Schema::from_pairs(&[("id", DataType::Int), ("name", DataType::Str)]);
        Table::new(
            "t",
            schema,
            vec![tuple![1, "a"], tuple![2, "b"], tuple![3, "c"]],
        )
        .unwrap()
    }

    #[test]
    fn rejects_nonconforming_rows() {
        let schema = Schema::from_pairs(&[("id", DataType::Int)]);
        let err = Table::new("t", schema, vec![tuple!["oops"]]).unwrap_err();
        assert!(matches!(err, StorageError::SchemaMismatch { .. }));
    }

    #[test]
    fn scan_returns_every_row() {
        let t = small_table();
        let rows = t.scan_checked(None).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(t.page_count(), 1);
    }

    #[test]
    fn page_count_scales_with_rows() {
        let schema = Schema::from_pairs(&[("id", DataType::Int)]);
        let rows: Vec<Tuple> = (0..10_000).map(|i| tuple![i]).collect();
        let t = Table::new("big", schema, rows).unwrap();
        // row width 8+9=17 → 240 tuples/page → 42 pages
        assert_eq!(t.page_count(), 10_000u64.div_ceil(4096 / 17));
    }

    #[test]
    fn stats_precomputed() {
        let t = small_table();
        assert_eq!(t.stats().rows, 3);
        assert_eq!(t.stats().column(0).unwrap().distinct, 3);
    }

    #[test]
    fn index_lifecycle() {
        let mut t = small_table();
        assert!(t.probe_index(0).is_none());
        t.create_hash_index(0).unwrap();
        assert!(t.hash_index(0).is_some());
        assert!(t.btree_index(0).is_none());
        t.create_btree_index(1).unwrap();
        assert!(t.btree_index(1).is_some());
        assert!(t.create_hash_index(7).is_err());
        // A probe prefers the hash index: one bucket page.
        t.create_btree_index(0).unwrap();
        assert_eq!(t.probe_index(0).unwrap().probe_pages(), 1);
        let b = crate::value::Value::Str("b".into());
        assert_eq!(t.probe_index(1).unwrap().probe(&b), &[1]);
        assert!(t.probe_index(2).is_none());
    }

    #[test]
    fn fetch_returns_the_row() {
        let t = small_table();
        let row = t.fetch_checked(1, None).unwrap();
        assert_eq!(row, &tuple![2, "b"]);
    }

    #[derive(Debug, Default)]
    struct CountingBacking {
        touched: std::sync::Mutex<Vec<u64>>,
        fail: bool,
    }

    impl PageBacking for CountingBacking {
        fn read_page(&self, page_no: u64) -> Result<(), StorageError> {
            if self.fail {
                return Err(StorageError::Backing {
                    detail: format!("no page {page_no}"),
                });
            }
            self.touched.lock().unwrap().push(page_no);
            Ok(())
        }
    }

    #[test]
    fn backed_scan_touches_every_page_once() {
        let schema = Schema::from_pairs(&[("id", DataType::Int)]);
        let rows: Vec<Tuple> = (0..1000).map(|i| tuple![i]).collect();
        let t = Table::new("b", schema, rows).unwrap();
        assert!(t.page_count() > 1);
        let backing = Arc::new(CountingBacking::default());
        t.attach_backing(backing.clone());
        t.scan_checked(None).unwrap();
        let touched = backing.touched.lock().unwrap().clone();
        // Exactly the pages a caller books for the scan.
        assert_eq!(touched, (0..t.page_count()).collect::<Vec<_>>());
    }

    #[test]
    fn backed_fetch_touches_the_rows_page() {
        let schema = Schema::from_pairs(&[("id", DataType::Int)]);
        let rows: Vec<Tuple> = (0..1000).map(|i| tuple![i]).collect();
        let t = Table::new("b", schema, rows).unwrap();
        let backing = Arc::new(CountingBacking::default());
        t.attach_backing(backing.clone());
        let row_id = t.layout().tuples_per_page as usize + 3; // second page
        t.fetch_checked(row_id, None).unwrap();
        assert_eq!(*backing.touched.lock().unwrap(), vec![1]);
    }

    #[test]
    fn backing_errors_surface_and_second_attach_is_ignored() {
        let t = small_table();
        t.attach_backing(Arc::new(CountingBacking {
            fail: true,
            ..Default::default()
        }));
        // Second attach must not replace the first.
        t.attach_backing(Arc::new(CountingBacking::default()));
        let err = t.scan_checked(None).unwrap_err();
        assert!(matches!(err, StorageError::Backing { .. }));
        // Unbacked read helper is a no-op.
        let plain = small_table();
        plain.read_backed_page(99).unwrap();
    }

    #[test]
    fn indexed_column_enumeration_round_trips() {
        let mut t = small_table();
        t.create_hash_index(0).unwrap();
        t.create_btree_index(1).unwrap();
        t.create_btree_index(0).unwrap();
        assert_eq!(t.hash_indexed_columns(), vec![0]);
        assert_eq!(t.btree_indexed_columns(), vec![1, 0]);
    }

    #[test]
    fn next_version_matches_a_fresh_build_and_keeps_indexes() {
        let mut t = small_table();
        t.create_hash_index(0).unwrap();
        t.create_btree_index(1).unwrap();
        let added = vec![tuple![4, "a"]];
        let removed = vec![t.rows()[1].clone()];
        let rows = vec![t.rows()[0].clone(), t.rows()[2].clone(), added[0].clone()];
        let next = t.next_version(rows.clone(), &removed, &added).unwrap();
        let fresh = Table::new("t", (**t.schema()).clone(), rows).unwrap();
        assert_eq!(next.stats(), fresh.stats());
        assert_eq!(next.rows(), fresh.rows());
        assert_eq!(next.hash_indexed_columns(), vec![0]);
        assert_eq!(next.btree_indexed_columns(), vec![1]);
        assert!(next.backing.get().is_none());

        let err = t
            .next_version(vec![], &[], &[tuple!["not an id", "x"]])
            .unwrap_err();
        assert!(matches!(err, StorageError::SchemaMismatch { .. }));
    }

    #[test]
    fn empty_table_zero_pages() {
        let schema = Schema::from_pairs(&[("id", DataType::Int)]);
        let t = Table::new("empty", schema, vec![]).unwrap();
        assert_eq!(t.page_count(), 0);
        assert!(t.scan_checked(None).unwrap().is_empty());
    }
}
