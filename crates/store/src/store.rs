//! The store: page file + buffer pool + WAL + manifest, with recovery.
//!
//! ## Protocol
//!
//! **Load**: append the table's meta and every page image to the WAL,
//! write each page to the page file (through the fault plan: this is
//! where torn writes land) and warm it into the pool, append a commit
//! marker, then group-fsync the WAL once. The page file is *not*
//! synced on load. Reloading an existing name is allowed: the new
//! incarnation gets a fresh `table_id` and `version + 1` — the
//! log-structured versioning that lets disk-mode catalog installs
//! replace tables instead of rejecting reuse.
//!
//! **Mutate** ([`Store::mutate`]): read the committed rows through the
//! pool (dirty frames are the freshest committed bytes), apply the
//! [`Mutation`] purely, diff old/new page payloads, then append one
//! [`WalRecord::PageDelta`] per changed page plus a
//! [`WalRecord::MutationCommit`] carrying the bumped meta, and
//! group-fsync — the atomic commit point. Only *after* that fsync do
//! the new payloads enter the pool as dirty frames
//! (steal-committed-only: nothing uncommitted can ever be written
//! back), and only then does the committed map advance. A cancellation
//! observed at any poll before the fsync returns
//! [`StoreError::Cancelled`] with zero WAL/pool/meta effects.
//!
//! **Recovery** ([`Store::open`]: opening is recovering): read the
//! manifest (tables durable as of the last checkpoint), scan the page
//! file (checksum-verifying every record), then replay the WAL —
//! committed loads and mutations only, in log order — writing page
//! images and deltas back into the page file *in place*. Replay is
//! idempotent: same images, same offsets, so replaying twice is
//! byte-identical. A torn WAL tail is truncated at scan time, never
//! replayed; a torn page-file record is healed by its WAL image;
//! deltas without their commit marker are dropped.
//!
//! **Fuzzy checkpoint** ([`Store::checkpoint`]): capture the WAL cut
//! (its durable length, read between mutations), flush every dirty
//! pool page through the pool's one write-back path (the eviction
//! path: verified writes, a torn write retried fault-free, and a frame
//! marked clean only once its bytes are written, one frame per
//! pool-lock hold), scrub every record the WAL still protects (healing
//! torn records from the *last* logged payload per page), fsync the
//! page file, atomically publish the manifest (tmp, rename, dir fsync,
//! under a brief metadata lock), then truncate exactly the WAL prefix
//! `[0, cut)`. Loads, mutations, and queries proceed concurrently:
//! anything committed after the cut stays in the kept suffix and
//! replays idempotently on recovery.

use crate::codec::{decode_rows, encode_rows, TableMeta};
use crate::error::StoreError;
use crate::page_file::PageFile;
use crate::pool::{BufferPool, PageKey, PoolStats};
use crate::wal::{Wal, WalRecord};
use fj_storage::codec::{Le, Reader, Writer};
use fj_storage::{
    Applied, FaultPlan, Mutation, PageBacking, PageLayout, PageWriteFault, Schema, StorageError,
    Table, Tuple,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

const MANIFEST: &str = "manifest.fj";
const PAGES: &str = "pages.fj";
const WAL: &str = "wal.fj";

/// Counter snapshot across the pool, WAL, and page file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Buffer-pool lookups served from memory.
    pub pool_hits: u64,
    /// Buffer-pool lookups that went to disk.
    pub pool_misses: u64,
    /// Pages displaced from the pool.
    pub pool_evictions: u64,
    /// WAL group fsyncs issued.
    pub wal_fsyncs: u64,
    /// Physical page-file record reads.
    pub physical_reads: u64,
    /// Physical page-file record writes.
    pub physical_writes: u64,
    /// Mutations committed since open.
    pub mutations_applied: u64,
    /// WAL page-delta records appended since open.
    pub wal_deltas: u64,
    /// Dirty pages currently resident in the pool (gauge).
    pub dirty_pages: u64,
    /// Dirty victims persisted by eviction write-back.
    pub dirty_writebacks: u64,
    /// Fuzzy checkpoints completed since open.
    pub checkpoints: u64,
}

/// What a committed [`Store::mutate`] changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutationResult {
    /// Rows inserted, updated, or deleted.
    pub rows_affected: u64,
    /// The table's post-mutation row count.
    pub row_count: u64,
    /// The table's post-mutation version.
    pub version: u64,
}

/// How far [`Store::checkpoint_until`] runs before returning — the
/// chaos harness's deterministic mid-checkpoint crash points. A real
/// checkpoint is `Done`; stopping earlier models a crash between
/// checkpoint steps (the caller then drops the store, exactly as a
/// kill would).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointPhase {
    /// Stop after flushing dirty pool pages (WAL intact).
    Flush,
    /// Stop after the scrub pass (WAL intact, page file healed).
    Scrub,
    /// Stop after the page-file fsync.
    Sync,
    /// Stop after publishing the manifest (WAL not yet truncated).
    Manifest,
    /// Run the whole checkpoint, ending with the WAL prefix truncate.
    Done,
}

#[derive(Debug)]
struct StoreInner {
    committed: BTreeMap<String, TableMeta>,
    next_table_id: u32,
}

/// A disk-backed page store rooted at one data directory.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    page_file: Arc<PageFile>,
    wal: Wal,
    pool: Arc<BufferPool>,
    faults: Option<Arc<FaultPlan>>,
    inner: Mutex<StoreInner>,
    /// Serializes mutations against each other (not against loads,
    /// queries, or checkpoints).
    mutation_lock: Mutex<()>,
    mutations_applied: AtomicU64,
    wal_deltas: AtomicU64,
    checkpoints: AtomicU64,
}

/// What [`Store::open`] found and did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Tables durable via the manifest (last checkpoint).
    pub manifest_tables: usize,
    /// Committed loads replayed from the WAL.
    pub replayed_tables: usize,
    /// Committed mutations replayed from the WAL.
    pub replayed_mutations: usize,
    /// Page images and deltas written back during replay.
    pub replayed_pages: usize,
    /// True iff a torn WAL tail was detected and truncated.
    pub torn_wal_tail: bool,
}

impl Store {
    /// Opens (and always recovers) the store at `dir`, creating it on
    /// first use. `pool_pages` sizes the buffer pool; `faults` is the
    /// seeded chaos plan threaded through writes and fsyncs.
    pub fn open(
        dir: impl AsRef<Path>,
        pool_pages: usize,
        faults: Option<Arc<FaultPlan>>,
    ) -> Result<(Store, RecoveryReport), StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| StoreError::io(format!("create {}", dir.display()), e))?;
        let page_file = Arc::new(PageFile::open(dir.join(PAGES))?);
        let mut committed = read_manifest(&dir.join(MANIFEST))?;
        let manifest_tables = committed.len();
        let (wal, scan) = Wal::open(dir.join(WAL))?;

        // Replay committed loads and mutations, in log order, page
        // images and deltas in place. Per table: the logged metadata
        // (if seen) plus (page_no, payload) images; mutations
        // accumulate deltas keyed by table_id until their commit.
        type PendingLoad = (Option<TableMeta>, Vec<(u32, Vec<u8>)>);
        let mut pending: BTreeMap<u32, PendingLoad> = BTreeMap::new();
        let mut pending_deltas: BTreeMap<u32, Vec<(u32, Vec<u8>)>> = BTreeMap::new();
        let mut replayed_tables = 0usize;
        let mut replayed_mutations = 0usize;
        let mut replayed_pages = 0usize;
        for record in &scan.records {
            match record {
                WalRecord::TableMeta(meta) => {
                    pending.entry(meta.table_id).or_default().0 = Some(meta.clone());
                }
                WalRecord::PageImage {
                    table_id,
                    page_no,
                    payload,
                } => {
                    pending
                        .entry(*table_id)
                        .or_default()
                        .1
                        .push((*page_no, payload.clone()));
                }
                WalRecord::LoadCommit { table_id } => {
                    let Some((Some(meta), images)) = pending.remove(table_id) else {
                        return Err(StoreError::Corrupt {
                            detail: format!("WAL commit for table {table_id} without a meta"),
                        });
                    };
                    for (page_no, payload) in &images {
                        // Replay never draws faults: recovery is the
                        // healing path, not the chaotic one.
                        page_file.write_page(meta.table_id, *page_no, payload, None)?;
                        replayed_pages += 1;
                    }
                    committed.insert(meta.name.clone(), meta);
                    replayed_tables += 1;
                }
                WalRecord::PageDelta {
                    table_id,
                    page_no,
                    payload,
                } => {
                    pending_deltas
                        .entry(*table_id)
                        .or_default()
                        .push((*page_no, payload.clone()));
                }
                WalRecord::MutationCommit { meta, .. } => {
                    for (page_no, payload) in
                        pending_deltas.remove(&meta.table_id).unwrap_or_default()
                    {
                        page_file.write_page(meta.table_id, page_no, &payload, None)?;
                        replayed_pages += 1;
                    }
                    committed.insert(meta.name.clone(), meta.clone());
                    replayed_mutations += 1;
                }
            }
        }
        // Deltas whose MutationCommit never reached the log are the
        // uncommitted suffix of an in-flight mutation: dropped, never
        // applied.
        if replayed_pages > 0 {
            page_file.sync()?;
        }

        let next_table_id = committed
            .values()
            .map(|m| m.table_id)
            .max()
            .map_or(0, |m| m + 1);
        let report = RecoveryReport {
            manifest_tables,
            replayed_tables,
            replayed_mutations,
            replayed_pages,
            torn_wal_tail: scan.torn_tail_truncated,
        };
        let pool = Arc::new(BufferPool::new(pool_pages));
        // The one write-back path, for eviction victims and the
        // checkpoint flush alike: verified, with a delta-class fault
        // draw.
        {
            let page_file = Arc::clone(&page_file);
            let faults = faults.clone();
            pool.set_writeback(Arc::new(move |key: PageKey, payload: &[u8]| {
                write_page_verified(
                    &page_file,
                    key.0,
                    key.1,
                    payload,
                    faults
                        .as_deref()
                        .map(|f| f.on_delta_write())
                        .unwrap_or(PageWriteFault::None),
                )
            }));
        }
        Ok((
            Store {
                dir,
                page_file,
                wal,
                pool,
                faults,
                inner: Mutex::new(StoreInner {
                    committed,
                    next_table_id,
                }),
                mutation_lock: Mutex::new(()),
                mutations_applied: AtomicU64::new(0),
                wal_deltas: AtomicU64::new(0),
                checkpoints: AtomicU64::new(0),
            },
            report,
        ))
    }

    /// The committed-table map. A panic while it was held cannot have
    /// left it half-written (every update is one `insert`), so a
    /// poisoned lock is recovered, not propagated.
    fn inner(&self) -> MutexGuard<'_, StoreInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The store's data directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Names of committed (recoverable) tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.inner().committed.keys().cloned().collect()
    }

    /// True iff `name` is committed in this store.
    pub fn has_table(&self, name: &str) -> bool {
        self.inner().committed.contains_key(name)
    }

    /// The committed meta for `name`, if any.
    pub fn meta(&self, name: &str) -> Option<TableMeta> {
        self.inner().committed.get(name).cloned()
    }

    /// Loads an in-memory table into the store: WAL images + commit
    /// (one group fsync), page-file writes (fault-injected), pool
    /// warm-up. Reloading an existing name is a log-structured
    /// replacement: the new incarnation gets a fresh `table_id` and
    /// the name's `version + 1`, and replay order makes it
    /// authoritative.
    pub fn load_table(&self, table: &Table) -> Result<u64, StoreError> {
        let mut inner = self.inner();
        let version = inner
            .committed
            .get(table.name())
            .map_or(1, |old| old.version + 1);
        let table_id = inner.next_table_id;
        inner.next_table_id += 1;
        let meta = TableMeta::describe(
            table_id,
            table.name(),
            table.schema(),
            table.row_count(),
            version,
        );
        self.wal.append([&WalRecord::TableMeta(meta.clone())])?;
        let per_page = table.layout().tuples_per_page as usize;
        let faults = self.faults.as_deref();
        for (page_no, chunk) in table.rows().chunks(per_page.max(1)).enumerate() {
            let payload = encode_rows(chunk)?;
            self.wal.append([&WalRecord::PageImage {
                table_id,
                page_no: page_no as u32,
                payload: payload.clone(),
            }])?;
            self.page_file
                .write_page(table_id, page_no as u32, &payload, faults)?;
            self.pool.put((table_id, page_no as u32), payload)?;
        }
        self.wal.append([&WalRecord::LoadCommit { table_id }])?;
        self.wal.commit(faults)?;
        inner.committed.insert(meta.name.clone(), meta);
        Ok(version)
    }

    /// A committed table's page payloads and decoded rows, page by
    /// page: a resident pool frame if any (dirty frames hold
    /// post-mutation payloads the page file may not have yet), else the
    /// page file. `cancelled` is polled before each page. Pages that
    /// decode to other than the meta's row count are
    /// [`StoreError::Corrupt`].
    fn committed_pages(
        &self,
        meta: &TableMeta,
        schema: &Schema,
        cancelled: &dyn Fn() -> bool,
    ) -> Result<(Vec<Vec<u8>>, Vec<Tuple>), StoreError> {
        let page_count = PageLayout::for_schema(schema).pages(meta.row_count);
        let mut payloads = Vec::with_capacity(page_count as usize);
        let mut rows = Vec::with_capacity(meta.row_count as usize);
        for page_no in 0..page_count as u32 {
            if cancelled() {
                return Err(StoreError::Cancelled);
            }
            let payload = match self.pool.peek((meta.table_id, page_no)) {
                Some(payload) => payload,
                None => self.page_file.read_page(meta.table_id, page_no)?,
            };
            rows.extend(decode_rows(&payload, schema.arity())?);
            payloads.push(payload);
        }
        if rows.len() as u64 != meta.row_count {
            return Err(StoreError::Corrupt {
                detail: format!(
                    "table '{}': meta promises {} rows, pages held {}",
                    meta.name,
                    meta.row_count,
                    rows.len()
                ),
            });
        }
        Ok((payloads, rows))
    }

    /// Reads a committed table back: schema from the meta, rows decoded
    /// page by page — pool frames first (dirty ones hold the freshest
    /// committed bytes on a live store), the page file otherwise. On a
    /// fresh open the pool is empty, so this is the restart path that
    /// proves the data really lives on disk.
    pub fn recovered_rows(&self, name: &str) -> Result<(Schema, Vec<Tuple>), StoreError> {
        let meta = self.meta(name).ok_or_else(|| StoreError::Meta {
            detail: format!("no committed table '{name}'"),
        })?;
        let schema = meta.schema()?;
        let (_, rows) = self.committed_pages(&meta, &schema, &|| false)?;
        Ok((schema, rows))
    }

    /// A [`PageBacking`] for a committed table, to attach to the
    /// in-memory [`Table`] serving queries.
    pub fn backing_for(&self, name: &str) -> Option<Arc<dyn PageBacking>> {
        let meta = self.meta(name)?;
        Some(Arc::new(TableBacking {
            table_name: meta.name,
            table_id: meta.table_id,
            pool: Arc::clone(&self.pool),
            page_file: Arc::clone(&self.page_file),
        }))
    }

    /// Applies a [`Mutation`] to a committed table, crash-safely.
    /// `cancelled` is polled at every stage boundary before the commit
    /// fsync; once it returns `true` the mutation aborts with
    /// [`StoreError::Cancelled`] and *nothing* — WAL, pool, committed
    /// map — has changed. After the fsync the mutation always
    /// completes. Mutations serialize against each other but run
    /// concurrently with loads, queries, and checkpoints.
    pub fn mutate(
        &self,
        mutation: &Mutation,
        cancelled: &dyn Fn() -> bool,
    ) -> Result<MutationResult, StoreError> {
        self.mutate_applied(mutation, cancelled)
            .map(|(result, _)| result)
    }

    /// [`Store::mutate`], also handing back what the commit computed
    /// on the way: the post-state rows and the delta
    /// ([`Mutation::apply_delta`]), so the caller can install the
    /// table's next version without reading it back.
    pub fn mutate_applied(
        &self,
        mutation: &Mutation,
        cancelled: &dyn Fn() -> bool,
    ) -> Result<(MutationResult, Applied), StoreError> {
        let _serialize = self
            .mutation_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if cancelled() {
            return Err(StoreError::Cancelled);
        }
        let name = mutation.table();
        let meta = self.meta(name).ok_or_else(|| StoreError::Meta {
            detail: format!("no committed table '{name}' to mutate"),
        })?;
        let schema = meta.schema()?;
        let layout = PageLayout::for_schema(&schema);
        let per_page = (layout.tuples_per_page as usize).max(1);

        // Old state, keeping the payloads for the diff below. Pages
        // that disagree with the meta fail here, before the WAL.
        let (old_payloads, old_rows) = self.committed_pages(&meta, &schema, cancelled)?;

        let applied = mutation
            .apply_delta(&schema, &old_rows)
            .map_err(|e| StoreError::Meta {
                detail: format!("{} on '{name}': {e}", mutation.verb()),
            })?;
        let (new_rows, rows_affected) = (&applied.rows, applied.rows_affected);

        // Diff old vs new page payloads: only changed pages become
        // deltas. A shrink leaves stale trailing records in the page
        // file; readers never touch them (reads are bounded by the
        // committed row count).
        let mut dirty: Vec<(u32, Vec<u8>)> = Vec::new();
        let mut chunks = new_rows.chunks(per_page);
        let new_page_count = layout.pages(new_rows.len() as u64);
        for page_no in 0..new_page_count {
            let payload = encode_rows(chunks.next().unwrap_or(&[]))?;
            let unchanged = old_payloads
                .get(page_no as usize)
                .is_some_and(|old| *old == payload);
            if !unchanged {
                dirty.push((page_no as u32, payload));
            }
        }

        let new_meta = TableMeta::describe(
            meta.table_id,
            name,
            &schema,
            new_rows.len() as u64,
            meta.version + 1,
        );

        // Last cancellation point: past here the records are appended
        // and will be fsynced. (The WAL's pending buffer is shared, so
        // an abort after appending could leak records into a concurrent
        // load's commit — hence poll *before* touching the log.)
        if cancelled() {
            return Err(StoreError::Cancelled);
        }
        let records: Vec<WalRecord> = dirty
            .iter()
            .map(|(page_no, payload)| WalRecord::PageDelta {
                table_id: meta.table_id,
                page_no: *page_no,
                payload: payload.clone(),
            })
            .chain([WalRecord::MutationCommit {
                meta: new_meta.clone(),
                rows_affected,
            }])
            .collect();
        self.wal.append(&records)?;
        self.wal.commit(self.faults.as_deref())?; // ← the commit point
        self.wal_deltas
            .fetch_add(dirty.len() as u64, Ordering::Relaxed);

        // Steal-committed-only: dirty payloads enter the pool only
        // after the commit fsync, so the pool's write-back can never
        // persist uncommitted bytes.
        for (page_no, payload) in dirty {
            self.pool.put_dirty((meta.table_id, page_no), payload)?;
        }
        self.inner()
            .committed
            .insert(name.to_string(), new_meta.clone());
        self.mutations_applied.fetch_add(1, Ordering::Relaxed);
        let result = MutationResult {
            rows_affected,
            row_count: new_meta.row_count,
            version: new_meta.version,
        };
        Ok((result, applied))
    }

    /// Fuzzy checkpoint: flush dirty pages, scrub, fsync, publish the
    /// manifest, truncate the WAL prefix captured at entry. Runs
    /// concurrently with loads, mutations, and queries: it holds the
    /// mutation lock only to read the cut, the pool lock for one
    /// frame's write at a time, and the metadata lock for the
    /// manifest's snapshot.
    pub fn checkpoint(&self) -> Result<(), StoreError> {
        self.checkpoint_until(CheckpointPhase::Done)
    }

    /// [`Store::checkpoint`] that stops after `phase` — the chaos
    /// harness's deterministic mid-checkpoint crash injection. Every
    /// prefix of the checkpoint must leave a recoverable store: the WAL
    /// is only truncated in the final step, after everything it
    /// protected is durable elsewhere.
    pub fn checkpoint_until(&self, phase: CheckpointPhase) -> Result<(), StoreError> {
        // 1. Capture the cut. Anything committed after this lands at
        //    offsets >= cut and survives the truncate. The cut is read
        //    with no mutation in flight: a mutation publishes in three
        //    steps (commit fsync, dirty pages into the pool, meta into
        //    `committed`), and a cut taken between them would truncate
        //    a commit whose pages step 2 never saw or whose meta step 5
        //    never saw. Mutations wait only for this read, never for
        //    the checkpoint's I/O.
        let cut = {
            let _no_mutation_in_flight = self
                .mutation_lock
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            self.wal.durable_len()?
        };

        // 2. Flush every dirty pool page through the pool's write-back
        //    (the eviction path): verified, so a torn write (delta
        //    fault class) is retried fault-free, and a frame turns
        //    clean only once its bytes are on the page file — the WAL
        //    must never be dropped while a flushed page is secretly
        //    torn or missing.
        self.pool.flush_dirty()?;
        if phase == CheckpointPhase::Flush {
            return Ok(());
        }

        // 3. Scrub from the log: the *last* logged payload per page
        //    (images and deltas; log order = commit order) must verify
        //    on disk before the log may be dropped. Scrub rewrites draw
        //    from their own fault class and are verified the same way.
        let mut protected: BTreeMap<(u32, u32), Vec<u8>> = BTreeMap::new();
        for record in self.wal.disk_records()? {
            match record {
                WalRecord::PageImage {
                    table_id,
                    page_no,
                    payload,
                }
                | WalRecord::PageDelta {
                    table_id,
                    page_no,
                    payload,
                } => {
                    protected.insert((table_id, page_no), payload);
                }
                _ => {}
            }
        }
        for ((table_id, page_no), payload) in protected {
            if !self.page_file.record_is_valid(table_id, page_no) {
                let fault = self
                    .faults
                    .as_deref()
                    .map(|f| f.on_scrub_write())
                    .unwrap_or(PageWriteFault::None);
                write_page_verified(&self.page_file, table_id, page_no, &payload, fault)?;
            }
        }
        if phase == CheckpointPhase::Scrub {
            return Ok(());
        }

        // 4. Make the page file durable.
        if let Some(plan) = &self.faults {
            plan.on_fsync();
        }
        self.page_file.sync()?;
        if phase == CheckpointPhase::Sync {
            return Ok(());
        }

        // 5. Publish the manifest. The snapshot is taken *after* the
        //    cut, so every commit the truncate will drop is in it;
        //    commits newer than the cut may also be in it, which is
        //    fine — their WAL records replay idempotently.
        let snapshot = self.inner().committed.clone();
        write_manifest(&self.dir, &snapshot)?;
        if phase == CheckpointPhase::Manifest {
            return Ok(());
        }

        // 6. Drop exactly what was protected at entry.
        self.wal.truncate_prefix(cut)?;
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Drops unpinned pool pages (cold-start lever for parity tests).
    pub fn clear_pool(&self) -> usize {
        self.pool.clear()
    }

    /// Counter snapshot across pool, WAL, and page file.
    pub fn stats(&self) -> StoreStats {
        let PoolStats {
            hits,
            misses,
            evictions,
            dirty_writebacks,
        } = self.pool.stats();
        StoreStats {
            pool_hits: hits,
            pool_misses: misses,
            pool_evictions: evictions,
            wal_fsyncs: self.wal.fsyncs(),
            physical_reads: self.page_file.physical_reads(),
            physical_writes: self.page_file.physical_writes(),
            mutations_applied: self.mutations_applied.load(Ordering::Relaxed),
            wal_deltas: self.wal_deltas.load(Ordering::Relaxed),
            dirty_pages: self.pool.dirty_pages() as u64,
            dirty_writebacks,
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
        }
    }

    /// Current WAL size in bytes (zero right after a checkpoint).
    pub fn wal_bytes(&self) -> u64 {
        self.wal.size_bytes()
    }
}

/// The per-table [`PageBacking`] handed to in-memory tables: a pool
/// lookup per logical page, a physical page-file read per miss.
#[derive(Debug)]
struct TableBacking {
    table_name: String,
    table_id: u32,
    pool: Arc<BufferPool>,
    page_file: Arc<PageFile>,
}

impl PageBacking for TableBacking {
    fn read_page(&self, page_no: u64) -> Result<(), StorageError> {
        let key = (self.table_id, page_no as u32);
        self.pool
            .get(key, || self.page_file.read_page(key.0, key.1))
            .map(|_guard| ())
            .map_err(|e| StorageError::Backing {
                detail: format!("table '{}' page {page_no}: {e}", self.table_name),
            })
    }
}

/// A page-file write that must not silently tear: perform the write
/// with the drawn `fault`, verify the record's checksum, and if the
/// fault took the write down retry once fault-free. Used by the pool's
/// write-back (eviction and checkpoint flush) and the checkpoint's
/// scrub — the WAL is the only place allowed to hold a page's sole
/// intact copy, and only until the checkpoint that drops it has proven
/// the disk copy valid.
fn write_page_verified(
    page_file: &PageFile,
    table_id: u32,
    page_no: u32,
    payload: &[u8],
    fault: PageWriteFault,
) -> Result<(), StoreError> {
    page_file.write_page_with(table_id, page_no, payload, fault)?;
    if !page_file.record_is_valid(table_id, page_no) {
        page_file.write_page_with(table_id, page_no, payload, PageWriteFault::None)?;
    }
    Ok(())
}

fn read_manifest(path: &Path) -> Result<BTreeMap<String, TableMeta>, StoreError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(BTreeMap::new()),
        Err(e) => return Err(StoreError::io(format!("read {}", path.display()), e)),
    };
    let tables = Reader::decode_all(&bytes, |r| {
        Reader::decode_all(r.frame()?, |body| body.list(TableMeta::decode))
    })
    .map_err(|e| StoreError::Corrupt {
        detail: format!("manifest: {e}"),
    })?;
    Ok(tables.into_iter().map(|m| (m.name.clone(), m)).collect())
}

fn write_manifest(dir: &Path, tables: &BTreeMap<String, TableMeta>) -> Result<(), StoreError> {
    let mut body = Writer::new();
    body.list("tables", tables.values(), |w, meta| meta.encode_into(w))
        .map_err(StoreError::unencodable)?;
    let mut framed = Writer::<Le>::new();
    framed
        .frame(&body.into_bytes())
        .map_err(StoreError::unencodable)?;

    let tmp = dir.join("manifest.tmp");
    let target = dir.join(MANIFEST);
    {
        let mut f = std::fs::File::create(&tmp)
            .map_err(|e| StoreError::io(format!("create {}", tmp.display()), e))?;
        use std::io::Write;
        f.write_all(&framed.into_bytes())
            .map_err(|e| StoreError::io(format!("write {}", tmp.display()), e))?;
        f.sync_all()
            .map_err(|e| StoreError::io(format!("fsync {}", tmp.display()), e))?;
    }
    std::fs::rename(&tmp, &target)
        .map_err(|e| StoreError::io(format!("rename to {}", target.display()), e))?;
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all(); // directory fsync: best-effort on non-POSIX
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;
    use fj_storage::{DataType, TableBuilder, Value};

    fn sample_table(name: &str, rows: usize) -> Table {
        TableBuilder::new(name)
            .column("k", DataType::Int)
            .column("label", DataType::Str)
            .rows((0..rows).map(|i| vec![Value::Int(i as i64), Value::Str(format!("row-{i}"))]))
            .build()
            .unwrap()
    }

    #[test]
    fn load_then_recover_round_trips_rows() {
        let dir = TempDir::new("store-rt");
        let table = sample_table("T", 500);
        {
            let (store, report) = Store::open(dir.path(), 64, None).unwrap();
            assert_eq!(report, RecoveryReport::default());
            store.load_table(&table).unwrap();
            assert!(store.has_table("T"));
            assert_eq!(store.stats().wal_fsyncs, 1);
            // No checkpoint: recovery must come from the WAL.
        }
        let (store, report) = Store::open(dir.path(), 64, None).unwrap();
        assert_eq!(report.replayed_tables, 1);
        assert!(report.replayed_pages > 0);
        let (schema, rows) = store.recovered_rows("T").unwrap();
        assert_eq!(&schema, table.schema().as_ref());
        assert_eq!(rows, table.rows());
    }

    #[test]
    fn checkpoint_truncates_wal_and_manifest_carries_tables() {
        let dir = TempDir::new("store-ckpt");
        let table = sample_table("T", 200);
        {
            let (store, _) = Store::open(dir.path(), 64, None).unwrap();
            store.load_table(&table).unwrap();
            assert!(store.wal_bytes() > 0);
            store.checkpoint().unwrap();
            assert_eq!(store.wal_bytes(), 0);
        }
        let (store, report) = Store::open(dir.path(), 64, None).unwrap();
        assert_eq!(report.manifest_tables, 1);
        assert_eq!(report.replayed_tables, 0, "nothing left in the WAL");
        let (_, rows) = store.recovered_rows("T").unwrap();
        assert_eq!(rows, table.rows());
    }

    #[test]
    fn reloading_a_name_bumps_its_version_and_replaces_rows() {
        let dir = TempDir::new("store-dup");
        {
            let (store, _) = Store::open(dir.path(), 16, None).unwrap();
            assert_eq!(store.load_table(&sample_table("T", 10)).unwrap(), 1);
            assert_eq!(store.load_table(&sample_table("T", 25)).unwrap(), 2);
            let meta = store.meta("T").unwrap();
            assert_eq!((meta.version, meta.row_count), (2, 25));
        }
        // Replay in log order makes the later incarnation authoritative.
        let (store, report) = Store::open(dir.path(), 16, None).unwrap();
        assert_eq!(report.replayed_tables, 2);
        let (_, rows) = store.recovered_rows("T").unwrap();
        assert_eq!(rows, sample_table("T", 25).rows());
    }

    #[test]
    fn backing_counts_hits_and_misses() {
        let dir = TempDir::new("store-backing");
        let (store, _) = Store::open(dir.path(), 64, None).unwrap();
        let table = sample_table("T", 300);
        store.load_table(&table).unwrap();
        let backing = store.backing_for("T").unwrap();
        table.attach_backing(backing);

        // Load warmed the pool: a scan is all hits, zero physical reads.
        let before = store.stats();
        table.scan_checked(None).unwrap();
        let after = store.stats();
        assert_eq!(after.pool_hits - before.pool_hits, table.page_count());
        assert_eq!(after.pool_misses, before.pool_misses);
        assert_eq!(after.physical_reads, before.physical_reads);

        // Cold pool: every page is a miss and a physical read, as many
        // as the page reads a scan books (`charge::reads(page_count)`).
        store.clear_pool();
        let before = store.stats();
        table.scan_checked(None).unwrap();
        let after = store.stats();
        assert_eq!(after.pool_misses - before.pool_misses, table.page_count());
        assert_eq!(
            after.physical_reads - before.physical_reads,
            table.page_count()
        );
    }

    #[test]
    fn empty_table_commits_with_zero_pages() {
        let dir = TempDir::new("store-empty");
        let table = sample_table("E", 0);
        {
            let (store, _) = Store::open(dir.path(), 16, None).unwrap();
            store.load_table(&table).unwrap();
        }
        let (store, _) = Store::open(dir.path(), 16, None).unwrap();
        let (_, rows) = store.recovered_rows("E").unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn torn_load_heals_on_recovery() {
        let dir = TempDir::new("store-torn");
        let table = sample_table("T", 400);
        {
            // Every page write torn: the page file is garbage, the WAL
            // is intact (its records are written + fsynced whole).
            let faults = Arc::new(FaultPlan::new(3).with_torn_page_writes(1));
            let (store, _) = Store::open(dir.path(), 64, Some(faults)).unwrap();
            store.load_table(&table).unwrap();
        }
        let (store, report) = Store::open(dir.path(), 64, None).unwrap();
        assert!(report.replayed_pages > 0);
        let (_, rows) = store.recovered_rows("T").unwrap();
        assert_eq!(rows, table.rows(), "WAL replay must heal torn pages");
    }

    #[test]
    fn checkpoint_scrub_heals_torn_pages_before_dropping_wal() {
        let dir = TempDir::new("store-scrub");
        let table = sample_table("T", 400);
        {
            let faults = Arc::new(FaultPlan::new(3).with_torn_page_writes(1));
            let (store, _) = Store::open(dir.path(), 64, Some(faults)).unwrap();
            store.load_table(&table).unwrap();
            // Checkpoint with torn pages on disk: scrub must heal them
            // from the WAL before truncating it.
            store.checkpoint().unwrap();
            assert_eq!(store.wal_bytes(), 0);
        }
        let (store, report) = Store::open(dir.path(), 64, None).unwrap();
        assert_eq!(report.replayed_tables, 0);
        let (_, rows) = store.recovered_rows("T").unwrap();
        assert_eq!(rows, table.rows());
    }

    #[test]
    fn uncommitted_load_invisible_after_crash() {
        let dir = TempDir::new("store-uncommitted");
        {
            let (store, _) = Store::open(dir.path(), 16, None).unwrap();
            store.load_table(&sample_table("A", 50)).unwrap();
            // Simulate a crash mid-load of B: append meta + images to
            // the WAL but no commit, and never fsync.
            let b = sample_table("B", 50);
            let meta = TableMeta::describe(99, "B", b.schema(), b.row_count(), 1);
            store
                .wal
                .append(&[
                    WalRecord::TableMeta(meta),
                    WalRecord::PageImage {
                        table_id: 99,
                        page_no: 0,
                        payload: encode_rows(&b.rows()[..10]).unwrap(),
                    },
                ])
                .unwrap();
            store.wal.commit(None).unwrap(); // batch reached disk, commit record did not
        }
        let (store, _) = Store::open(dir.path(), 16, None).unwrap();
        assert!(store.has_table("A"));
        assert!(!store.has_table("B"), "no LoadCommit → not recovered");
    }

    const NEVER: fn() -> bool = || false;

    fn delete_even(table: &str) -> Mutation {
        Mutation::Delete {
            table: table.into(),
            where_col: "label".into(),
            where_value: Value::Str("row-2".into()),
        }
    }

    #[test]
    fn mutations_round_trip_live_and_after_restart() {
        let dir = TempDir::new("store-mut");
        let table = sample_table("T", 300);
        let oracle_schema = table.schema().as_ref().clone();
        let mut oracle_rows = table.rows().to_vec();
        let muts = [
            Mutation::Insert {
                table: "T".into(),
                rows: vec![vec![Value::Int(900), Value::Str("extra".into())]],
            },
            Mutation::Update {
                table: "T".into(),
                set: vec![("label".into(), Value::Str("patched".into()))],
                where_col: "k".into(),
                where_value: Value::Int(7),
            },
            delete_even("T"),
        ];
        {
            let (store, _) = Store::open(dir.path(), 64, None).unwrap();
            store.load_table(&table).unwrap();
            for (i, m) in muts.iter().enumerate() {
                let result = store.mutate(m, &NEVER).unwrap();
                assert_eq!(result.version, 2 + i as u64, "each mutation bumps version");
                let (rows, affected) = m.apply(&oracle_schema, &oracle_rows).unwrap();
                assert_eq!(result.rows_affected, affected);
                assert_eq!(result.row_count, rows.len() as u64);
                oracle_rows = rows;
            }
            // Live reads see the mutated state through dirty frames.
            let (_, rows) = store.recovered_rows("T").unwrap();
            assert_eq!(rows, oracle_rows);
            let stats = store.stats();
            assert_eq!(stats.mutations_applied, 3);
            assert!(stats.wal_deltas > 0);
            assert!(
                stats.dirty_pages > 0,
                "no checkpoint yet: frames stay dirty"
            );
        }
        // Restart (no checkpoint ran): the WAL alone must rebuild the
        // mutated state, byte-identically, twice over.
        for _ in 0..2 {
            let (store, report) = Store::open(dir.path(), 64, None).unwrap();
            assert_eq!(report.replayed_mutations, 3);
            let (_, rows) = store.recovered_rows("T").unwrap();
            assert_eq!(rows, oracle_rows);
        }
    }

    #[test]
    fn mutate_applied_hands_back_the_rows_a_read_back_would_decode() {
        let dir = TempDir::new("store-applied");
        let (store, _) = Store::open(dir.path(), 4, None).unwrap();
        store.load_table(&sample_table("T", 300)).unwrap();
        let (result, applied) = store.mutate_applied(&delete_even("T"), &NEVER).unwrap();
        let (_, rows) = store.recovered_rows("T").unwrap();
        assert_eq!(format!("{:?}", applied.rows), format!("{rows:?}"));
        assert_eq!(result.row_count, rows.len() as u64);
        assert_eq!(applied.removed.len() as u64, result.rows_affected);
        assert!(applied.added.is_empty());
    }

    #[test]
    fn cancelled_mutation_leaves_no_state() {
        let dir = TempDir::new("store-cancel");
        let table = sample_table("T", 60);
        let (store, _) = Store::open(dir.path(), 16, None).unwrap();
        store.load_table(&table).unwrap();
        let before_wal = store.wal_bytes();
        let err = store.mutate(&delete_even("T"), &|| true).unwrap_err();
        assert_eq!(err, StoreError::Cancelled);
        assert_eq!(store.wal_bytes(), before_wal, "nothing reached the WAL");
        assert_eq!(store.meta("T").unwrap().version, 1);
        assert_eq!(store.stats().mutations_applied, 0);
        let (_, rows) = store.recovered_rows("T").unwrap();
        assert_eq!(rows, table.rows());
    }

    #[test]
    fn uncommitted_deltas_dropped_on_recovery() {
        let dir = TempDir::new("store-orphan-delta");
        let table = sample_table("T", 40);
        {
            let (store, _) = Store::open(dir.path(), 16, None).unwrap();
            store.load_table(&table).unwrap();
            // A mutation that crashed after its delta but before its
            // commit marker: the delta must never be applied.
            let meta = store.meta("T").unwrap();
            store
                .wal
                .append([&WalRecord::PageDelta {
                    table_id: meta.table_id,
                    page_no: 0,
                    payload: encode_rows(&table.rows()[..1]).unwrap(),
                }])
                .unwrap();
            store.wal.commit(None).unwrap(); // durable, but no MutationCommit
        }
        let (store, report) = Store::open(dir.path(), 16, None).unwrap();
        assert_eq!(report.replayed_mutations, 0);
        let (_, rows) = store.recovered_rows("T").unwrap();
        assert_eq!(rows, table.rows(), "orphan delta must not surface");
    }

    #[test]
    fn mutating_a_missing_table_is_a_meta_error() {
        let dir = TempDir::new("store-mut-missing");
        let (store, _) = Store::open(dir.path(), 16, None).unwrap();
        let err = store.mutate(&delete_even("Ghost"), &NEVER).unwrap_err();
        assert!(matches!(err, StoreError::Meta { .. }));
    }

    #[test]
    fn fuzzy_checkpoint_flushes_dirty_pages_and_truncates_wal() {
        let dir = TempDir::new("store-fuzzy");
        let table = sample_table("T", 200);
        let oracle = {
            let (rows, _) = delete_even("T")
                .apply(table.schema(), table.rows())
                .unwrap();
            rows
        };
        {
            let (store, _) = Store::open(dir.path(), 64, None).unwrap();
            store.load_table(&table).unwrap();
            store.mutate(&delete_even("T"), &NEVER).unwrap();
            assert!(store.stats().dirty_pages > 0);
            store.checkpoint().unwrap();
            let stats = store.stats();
            assert_eq!(stats.dirty_pages, 0, "checkpoint flushed every frame");
            assert_eq!(stats.checkpoints, 1);
            assert_eq!(store.wal_bytes(), 0);
        }
        let (store, report) = Store::open(dir.path(), 64, None).unwrap();
        assert_eq!(report.replayed_mutations, 0, "WAL fully truncated");
        assert_eq!(report.manifest_tables, 1);
        let (_, rows) = store.recovered_rows("T").unwrap();
        assert_eq!(rows, oracle);
    }

    #[test]
    fn commits_after_the_cut_survive_checkpoint_truncation() {
        let dir = TempDir::new("store-cut");
        let table = sample_table("T", 120);
        let (store, _) = Store::open(dir.path(), 64, None).unwrap();
        store.load_table(&table).unwrap();
        // Run the checkpoint up to (but not including) the truncate,
        // then commit a mutation — it lands after the captured cut and
        // must survive the truncate that a resumed checkpoint performs.
        store.checkpoint_until(CheckpointPhase::Manifest).unwrap();
        store.mutate(&delete_even("T"), &NEVER).unwrap();
        store.checkpoint().unwrap();
        drop(store);
        let (store, _) = Store::open(dir.path(), 64, None).unwrap();
        let (_, rows) = store.recovered_rows("T").unwrap();
        let (oracle, _) = delete_even("T")
            .apply(table.schema(), table.rows())
            .unwrap();
        assert_eq!(rows, oracle);
    }

    #[test]
    fn checkpoint_cuts_only_between_mutations() {
        // A mutation publishes in three steps (commit fsync, dirty
        // pages, meta). A checkpoint that cut the WAL between them
        // could truncate a commit whose pages or meta it never saw, so
        // it must wait out a mutation in flight. The mutation's own
        // cancellation poll (made under its lock) starts the checkpoint
        // and gives it every chance to finish early.
        let dir = TempDir::new("store-cut-between");
        let table = sample_table("T", 120);
        let (store, _) = Store::open(dir.path(), 64, None).unwrap();
        store.load_table(&table).unwrap();
        std::thread::scope(|s| {
            let checkpoint = std::sync::Mutex::new(None);
            let poll = || {
                let mut slot = checkpoint.lock().unwrap();
                if slot.is_none() {
                    let handle = s.spawn(|| store.checkpoint());
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    assert!(
                        !handle.is_finished(),
                        "checkpoint completed while a mutation was in flight"
                    );
                    *slot = Some(handle);
                }
                false
            };
            store.mutate(&delete_even("T"), &poll).unwrap();
            let handle = checkpoint.lock().unwrap().take().expect("poll ran");
            handle.join().expect("checkpoint thread").unwrap();
        });
        drop(store);
        let (store, _) = Store::open(dir.path(), 64, None).unwrap();
        let (_, rows) = store.recovered_rows("T").unwrap();
        let (oracle, _) = delete_even("T")
            .apply(table.schema(), table.rows())
            .unwrap();
        assert_eq!(rows, oracle);
    }

    #[test]
    fn every_checkpoint_phase_recovers_the_committed_prefix() {
        use CheckpointPhase::*;
        let table = sample_table("T", 250);
        let (deleted, _) = delete_even("T")
            .apply(table.schema(), table.rows())
            .unwrap();
        let (oracle, _) = insert_k(900).apply(table.schema(), &deleted).unwrap();
        for (i, phase) in [Flush, Scrub, Sync, Manifest, Done].into_iter().enumerate() {
            let dir = TempDir::new(&format!("store-phase-{i}"));
            {
                // Torn delta + scrub writes armed: the checkpoint's own
                // writes tear and must self-verify.
                let faults = Arc::new(
                    FaultPlan::new(0xD15C)
                        .with_torn_delta_writes(2)
                        .with_torn_scrub_writes(2),
                );
                let (store, _) = Store::open(dir.path(), 4, Some(faults)).unwrap();
                store.load_table(&table).unwrap();
                store.load_table(&sample_table("U", 400)).unwrap();
                store.mutate(&delete_even("T"), &NEVER).unwrap();
                store.checkpoint_until(phase).unwrap();
                // Evicting reads, then a mutation that must see the
                // first one's rows.
                read_all(&store, "U");
                read_all(&store, "T");
                let inserted = store.mutate(&insert_k(900), &NEVER).unwrap();
                assert_eq!(inserted.row_count, oracle.len() as u64, "phase {phase:?}");
                // Hard stop here: the store is dropped mid-checkpoint.
            }
            for round in 0..2 {
                let (store, _) = Store::open(dir.path(), 64, None).unwrap();
                let (_, rows) = store.recovered_rows("T").unwrap();
                assert_eq!(
                    rows, oracle,
                    "phase {phase:?}, re-open {round}: committed prefix must recover"
                );
            }
        }
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let dir = TempDir::new("store-evict-wb");
        // Pool of 4 frames, table of many pages: mutation dirties
        // frames, reloading another table evicts them through the
        // write-back path.
        let (store, _) = Store::open(dir.path(), 4, None).unwrap();
        let table = sample_table("T", 400);
        store.load_table(&table).unwrap();
        store
            .mutate(
                &Mutation::Update {
                    table: "T".into(),
                    set: vec![("label".into(), Value::Str("x".into()))],
                    where_col: "k".into(),
                    where_value: Value::Int(1),
                },
                &NEVER,
            )
            .unwrap();
        store.load_table(&sample_table("U", 400)).unwrap();
        assert!(store.stats().dirty_writebacks > 0, "eviction wrote back");
        drop(store);
        let (store, _) = Store::open(dir.path(), 64, None).unwrap();
        let (_, rows) = store.recovered_rows("T").unwrap();
        assert_eq!(rows.len(), 400);
        assert_eq!(rows[1].value(1), &Value::Str("x".into()));
    }

    // The flush window: a checkpoint that marked frames clean before
    // their bytes reached the page file lost committed writes. Each case
    // runs the flush, then an interleaving that lost a write in that
    // window, and ends in a Delete of a committed row that must find it.

    fn insert_k(k: i64) -> Mutation {
        Mutation::Insert {
            table: "T".into(),
            rows: vec![vec![Value::Int(k), Value::Str(format!("row-{k}"))]],
        }
    }

    fn delete_k(k: i64) -> Mutation {
        Mutation::Delete {
            table: "T".into(),
            where_col: "k".into(),
            where_value: Value::Int(k),
        }
    }

    /// Pool of 4 frames; `T` (300 rows, 4 pages) and `U` (400 rows, 5
    /// pages) loaded and checkpointed, so every frame is clean and the
    /// page file is current.
    fn window_store(case: &str) -> (TempDir, Store) {
        let dir = TempDir::new(&format!("store-window-{case}"));
        let (store, _) = Store::open(dir.path(), 4, None).unwrap();
        store.load_table(&sample_table("T", 300)).unwrap();
        store.load_table(&sample_table("U", 400)).unwrap();
        store.checkpoint().unwrap();
        (dir, store)
    }

    /// Reads every page of `name` through its backing, as a query
    /// does: pool hits, or misses that evict.
    fn read_all(store: &Store, name: &str) {
        let meta = store.meta(name).unwrap();
        let pages = PageLayout::for_schema(&meta.schema().unwrap()).pages(meta.row_count);
        let backing = store.backing_for(name).unwrap();
        for page_no in 0..pages {
            backing.read_page(page_no).unwrap();
        }
    }

    #[test]
    fn flush_window_a_evicted_frame_is_not_read_back_stale() {
        let (_dir, store) = window_store("a");
        store.mutate(&insert_k(900), &NEVER).unwrap();
        store.checkpoint_until(CheckpointPhase::Flush).unwrap();
        // A load evicts the inserted page's frame.
        store.load_table(&sample_table("V", 400)).unwrap();
        let deleted = store.mutate(&delete_k(900), &NEVER).unwrap();
        assert_eq!(deleted.rows_affected, 1, "the delete read a stale page");
    }

    #[test]
    fn flush_window_b_refetched_frame_is_not_served_stale() {
        let (_dir, store) = window_store("b");
        store.mutate(&insert_k(900), &NEVER).unwrap();
        store.checkpoint_until(CheckpointPhase::Flush).unwrap();
        // A reader evicts the inserted page, then faults it back in
        // from the page file.
        read_all(&store, "U");
        read_all(&store, "T");
        let deleted = store.mutate(&delete_k(900), &NEVER).unwrap();
        assert_eq!(deleted.rows_affected, 1, "the delete read a stale frame");
    }

    #[test]
    fn flush_window_c_older_bytes_never_overwrite_newer() {
        let (_dir, store) = window_store("c");
        store.mutate(&insert_k(900), &NEVER).unwrap();
        store.checkpoint_until(CheckpointPhase::Flush).unwrap();
        // Re-dirty the page and let an eviction write the newer bytes:
        // no older copy may land after them.
        store.mutate(&insert_k(901), &NEVER).unwrap();
        read_all(&store, "U");
        let deleted = store.mutate(&delete_k(901), &NEVER).unwrap();
        assert_eq!(deleted.rows_affected, 1, "the delete read an older page");
    }

    #[test]
    fn mutating_over_a_short_page_is_corrupt_before_the_wal() {
        let dir = TempDir::new("store-short-page");
        let (store, _) = Store::open(dir.path(), 64, None).unwrap();
        let table = sample_table("T", 300);
        store.load_table(&table).unwrap();
        store.clear_pool();
        // Rewrite T's last page one row short of what the meta promises.
        let meta = store.meta("T").unwrap();
        let layout = PageLayout::for_schema(table.schema());
        let last = layout.pages(meta.row_count) - 1;
        let short = encode_rows(&table.rows()[(last * layout.tuples_per_page) as usize..299]);
        store
            .page_file
            .write_page(meta.table_id, last as u32, &short.unwrap(), None)
            .unwrap();
        let wal_before = store.wal_bytes();
        let err = store.mutate(&delete_k(1), &NEVER).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "got {err:?}");
        assert_eq!(store.wal_bytes(), wal_before, "nothing reached the WAL");
    }
}
