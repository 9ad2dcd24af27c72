//! The redo-only write-ahead log (`wal.fj`).
//!
//! Every table load appends full-page-image records plus a commit
//! marker, then issues **one** group fsync for the whole batch — the
//! log's durability unit is the load, not the record. Recovery replays
//! committed loads into the page file; a load whose commit marker never
//! reached the log is invisible (its page images are skipped), so the
//! log needs no undo records.
//!
//! Records are frames in the shared `[len u32][crc64 u64][body]` layout
//! of [`fj_storage::codec`] (little-endian; DESIGN.md, "Byte formats").
//! Body kinds: `1` table meta ([`TableMeta::encode`]), `2` page image
//! (`table_id u32, page_no u32, payload`), `3` load commit
//! (`table_id u32`), `4` page delta (`table_id u32, page_no u32,
//! payload` — the full new payload of one page dirtied by a mutation),
//! `5` mutation commit (`rows_affected u64` ++ the post-mutation
//! [`TableMeta`] — carrying the meta inside the commit marker is what
//! keeps a crash *between* a mutation's records from ever being
//! mistaken for a half-loaded table). A record whose length overruns
//! the file or whose CRC fails is a torn tail: replay stops there and
//! the file is truncated to the last valid boundary — detected and
//! discarded, never replayed.

use crate::codec::TableMeta;
use crate::error::StoreError;
use fj_storage::codec::{CodecError, Le, Reader, Writer};
use fj_storage::FaultPlan;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// One logical WAL record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A table is about to be loaded.
    TableMeta(TableMeta),
    /// Full image of one logical page.
    PageImage {
        /// Owning table.
        table_id: u32,
        /// Logical page number within the table.
        page_no: u32,
        /// Encoded page payload (see [`crate::codec::encode_rows`]).
        payload: Vec<u8>,
    },
    /// The load of `table_id` is complete; replay may apply it.
    LoadCommit {
        /// The committed table.
        table_id: u32,
    },
    /// New payload of one page dirtied by an in-flight mutation.
    /// Redo-only: replay applies it iff a matching
    /// [`WalRecord::MutationCommit`] follows in the log.
    PageDelta {
        /// Owning table.
        table_id: u32,
        /// Logical page number within the table.
        page_no: u32,
        /// Full encoded post-mutation payload of the page.
        payload: Vec<u8>,
    },
    /// The mutation that produced the preceding deltas committed.
    /// Carries the complete post-mutation meta (new row count, bumped
    /// version) so replay needs no other record to apply it.
    MutationCommit {
        /// Post-mutation description of the table.
        meta: TableMeta,
        /// Rows inserted/updated/deleted by this mutation.
        rows_affected: u64,
    },
}

fn encode_body(record: &WalRecord) -> Result<Vec<u8>, CodecError> {
    let mut w = Writer::<Le>::new();
    match record {
        WalRecord::TableMeta(meta) => {
            w.u8(1);
            meta.encode_into(&mut w)?;
        }
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
            w.u8(if matches!(record, WalRecord::PageImage { .. }) {
                2
            } else {
                4
            });
            w.u32(*table_id);
            w.u32(*page_no);
            w.bytes(payload);
        }
        WalRecord::LoadCommit { table_id } => {
            w.u8(3);
            w.u32(*table_id);
        }
        WalRecord::MutationCommit {
            meta,
            rows_affected,
        } => {
            w.u8(5);
            w.u64(*rows_affected);
            meta.encode_into(&mut w)?;
        }
    }
    Ok(w.into_bytes())
}

fn decode_body(body: &[u8]) -> Result<WalRecord, StoreError> {
    Ok(Reader::<Le>::decode_all(body, |r| match r.u8()? {
        1 => Ok(WalRecord::TableMeta(TableMeta::decode(r)?)),
        2 => Ok(WalRecord::PageImage {
            table_id: r.u32()?,
            page_no: r.u32()?,
            payload: r.rest().to_vec(),
        }),
        3 => Ok(WalRecord::LoadCommit { table_id: r.u32()? }),
        4 => Ok(WalRecord::PageDelta {
            table_id: r.u32()?,
            page_no: r.u32()?,
            payload: r.rest().to_vec(),
        }),
        5 => Ok(WalRecord::MutationCommit {
            rows_affected: r.u64()?,
            meta: TableMeta::decode(r)?,
        }),
        tag => Err(CodecError::BadTag {
            what: "WAL record kind",
            tag,
        }),
    })?)
}

/// Parses framed records from `bytes`, stopping at the first invalid
/// one. Returns the records, the offset of the last valid record
/// boundary, and whether a torn tail was found.
fn scan_bytes(bytes: &[u8]) -> (Vec<WalRecord>, usize, bool) {
    let mut records = Vec::new();
    let mut r = Reader::<Le>::new(bytes);
    while r.remaining() > 0 {
        let valid_end = bytes.len() - r.remaining();
        match r.frame().map_err(StoreError::from).and_then(decode_body) {
            Ok(record) => records.push(record),
            Err(_) => return (records, valid_end, true),
        }
    }
    (records, bytes.len(), false)
}

/// What [`Wal::open`] found on disk.
#[derive(Debug)]
pub struct WalScan {
    /// All records up to the first invalid one, in log order.
    pub records: Vec<WalRecord>,
    /// True iff a torn tail was detected (and truncated away).
    pub torn_tail_truncated: bool,
}

/// The append-only log file with group fsync.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: Mutex<File>,
    pending: Mutex<Vec<u8>>,
    fsyncs: AtomicU64,
}

impl Wal {
    /// Opens (creating if absent) the log, scanning existing records
    /// and truncating any torn tail to the last valid record boundary.
    pub fn open(path: impl AsRef<Path>) -> Result<(Wal, WalScan), StoreError> {
        let path = path.as_ref().to_path_buf();
        // Append mode: every commit lands at the current EOF, which
        // keeps reopened logs and post-truncate writes correct without
        // cursor bookkeeping.
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)
            .map_err(|e| StoreError::io(format!("open {}", path.display()), e))?;
        let bytes = std::fs::read(&path)
            .map_err(|e| StoreError::io(format!("scan {}", path.display()), e))?;
        let (records, valid_end, torn) = scan_bytes(&bytes);
        if torn {
            file.set_len(valid_end as u64)
                .map_err(|e| StoreError::io(format!("truncate {}", path.display()), e))?;
            file.sync_all()
                .map_err(|e| StoreError::io(format!("fsync {}", path.display()), e))?;
        }
        Ok((
            Wal {
                path,
                file: Mutex::new(file),
                pending: Mutex::default(),
                fsyncs: AtomicU64::new(0),
            },
            WalScan {
                records,
                torn_tail_truncated: torn,
            },
        ))
    }

    /// Filesystem path of the log.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Group fsyncs issued so far.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs.load(Ordering::Relaxed)
    }

    /// Buffers `records`, all or none: a record the format cannot
    /// represent fails the call with nothing buffered, so a mutation's
    /// deltas never outlive a commit marker that failed to encode.
    /// Nothing reaches the file until [`Wal::commit`].
    pub fn append<'r>(
        &self,
        records: impl IntoIterator<Item = &'r WalRecord>,
    ) -> Result<(), StoreError> {
        let mut frames = Writer::<Le>::new();
        for record in records {
            encode_body(record)
                .and_then(|body| frames.frame(&body))
                .map_err(StoreError::unencodable)?;
        }
        self.pending
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend_from_slice(&frames.into_bytes());
        Ok(())
    }

    /// The append handle (a poisoned lock is recovered: the handle itself
    /// is never left half-changed).
    fn file(&self) -> MutexGuard<'_, File> {
        self.file.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Writes all buffered records and issues exactly one fsync — the
    /// group-commit point. A seeded `faults` plan may stall the fsync
    /// (slow-device injection); the stall happens before the write is
    /// acknowledged, as on real hardware.
    pub fn commit(&self, faults: Option<&FaultPlan>) -> Result<(), StoreError> {
        let batch = {
            let mut pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
            std::mem::take(&mut *pending)
        };
        let mut file = self.file();
        file.write_all(&batch)
            .map_err(|e| StoreError::io(format!("append {}", self.path.display()), e))?;
        if let Some(plan) = faults {
            plan.on_fsync();
        }
        file.sync_data()
            .map_err(|e| StoreError::io(format!("fsync {}", self.path.display()), e))?;
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Empties the log (the checkpoint's final step: everything the log
    /// protected is now durable in the page file and manifest).
    pub fn truncate(&self) -> Result<(), StoreError> {
        let file = self.file();
        file.set_len(0)
            .map_err(|e| StoreError::io(format!("truncate {}", self.path.display()), e))?;
        file.sync_all()
            .map_err(|e| StoreError::io(format!("fsync {}", self.path.display()), e))?;
        Ok(())
    }

    /// Durable log length in bytes, observed under the file lock so it
    /// is a consistent *cut*: every byte committed after this call
    /// lands at an offset `>= ` the returned value. The fuzzy
    /// checkpoint captures this before flushing and later truncates
    /// exactly `[0, cut)`.
    pub fn durable_len(&self) -> Result<u64, StoreError> {
        let file = self.file();
        file.metadata()
            .map(|m| m.len())
            .map_err(|e| StoreError::io(format!("stat {}", self.path.display()), e))
    }

    /// Drops the first `cut` bytes of the log, keeping any records
    /// committed after the cut was captured — the fuzzy checkpoint's
    /// final step. The suffix is written to a temp file and renamed
    /// over the log (atomic on POSIX), then the append handle is
    /// reopened on the new file. Concurrent commits are excluded by
    /// the file lock for the duration.
    pub fn truncate_prefix(&self, cut: u64) -> Result<(), StoreError> {
        let mut file = self.file();
        let bytes = std::fs::read(&self.path)
            .map_err(|e| StoreError::io(format!("scan {}", self.path.display()), e))?;
        let cut = (cut as usize).min(bytes.len());
        let tmp = self.path.with_extension("fj.tmp");
        std::fs::write(&tmp, &bytes[cut..])
            .map_err(|e| StoreError::io(format!("write {}", tmp.display()), e))?;
        {
            let t = File::open(&tmp).map_err(|e| StoreError::io("open wal tmp", e))?;
            t.sync_all()
                .map_err(|e| StoreError::io("fsync wal tmp", e))?;
        }
        std::fs::rename(&tmp, &self.path)
            .map_err(|e| StoreError::io(format!("rename over {}", self.path.display()), e))?;
        let reopened = OpenOptions::new()
            .read(true)
            .append(true)
            .open(&self.path)
            .map_err(|e| StoreError::io(format!("reopen {}", self.path.display()), e))?;
        reopened
            .sync_all()
            .map_err(|e| StoreError::io(format!("fsync {}", self.path.display()), e))?;
        *file = reopened;
        Ok(())
    }

    /// Current log size in bytes.
    pub fn size_bytes(&self) -> u64 {
        std::fs::metadata(&self.path).map(|m| m.len()).unwrap_or(0)
    }

    /// Re-reads the records currently durable in the log file (the
    /// checkpoint scrub's source of healing images). Buffered,
    /// uncommitted appends are not included.
    pub fn disk_records(&self) -> Result<Vec<WalRecord>, StoreError> {
        // Hold the file lock so a concurrent commit can't interleave
        // a half-written batch under the read.
        let _file = self.file();
        let bytes = std::fs::read(&self.path)
            .map_err(|e| StoreError::io(format!("scan {}", self.path.display()), e))?;
        let (records, _, _) = scan_bytes(&bytes);
        Ok(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;
    use fj_storage::{DataType, Schema};

    fn sample_records() -> Vec<WalRecord> {
        let schema = Schema::from_pairs(&[("k", DataType::Int)]);
        vec![
            WalRecord::TableMeta(TableMeta::describe(1, "T", &schema, 2, 1)),
            WalRecord::PageImage {
                table_id: 1,
                page_no: 0,
                payload: vec![1, 2, 3, 4],
            },
            WalRecord::LoadCommit { table_id: 1 },
        ]
    }

    fn mutation_records() -> Vec<WalRecord> {
        let schema = Schema::from_pairs(&[("k", DataType::Int)]);
        vec![
            WalRecord::PageDelta {
                table_id: 1,
                page_no: 3,
                payload: vec![9, 8, 7],
            },
            WalRecord::MutationCommit {
                meta: TableMeta::describe(1, "T", &schema, 5, 2),
                rows_affected: 3,
            },
        ]
    }

    #[test]
    fn append_commit_replay_round_trip() {
        let dir = TempDir::new("wal-rt");
        let path = dir.path().join("wal.fj");
        {
            let (wal, scan) = Wal::open(&path).unwrap();
            assert!(scan.records.is_empty());
            for r in sample_records() {
                wal.append([&r]).unwrap();
            }
            wal.commit(None).unwrap();
            assert_eq!(wal.fsyncs(), 1, "group commit: one fsync per batch");
        }
        let (_, scan) = Wal::open(&path).unwrap();
        assert_eq!(scan.records, sample_records());
        assert!(!scan.torn_tail_truncated);
    }

    #[test]
    fn uncommitted_appends_never_reach_disk() {
        let dir = TempDir::new("wal-pending");
        let path = dir.path().join("wal.fj");
        let (wal, _) = Wal::open(&path).unwrap();
        wal.append([&WalRecord::LoadCommit { table_id: 9 }])
            .unwrap();
        // No commit: the file stays empty.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
    }

    #[test]
    fn torn_tail_is_truncated_not_replayed() {
        let dir = TempDir::new("wal-torn");
        let path = dir.path().join("wal.fj");
        {
            let (wal, _) = Wal::open(&path).unwrap();
            for r in sample_records() {
                wal.append([&r]).unwrap();
            }
            wal.commit(None).unwrap();
        }
        let intact_len = std::fs::metadata(&path).unwrap().len();
        // Simulate a crash mid-append: half of a valid record's bytes.
        let extra = {
            let body = encode_body(&WalRecord::LoadCommit { table_id: 2 }).unwrap();
            let mut rec = Writer::<Le>::new();
            rec.frame(&body).unwrap();
            rec.into_bytes()
        };
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&extra[..extra.len() / 2]);
        std::fs::write(&path, &bytes).unwrap();

        let (_, scan) = Wal::open(&path).unwrap();
        assert_eq!(scan.records, sample_records());
        assert!(scan.torn_tail_truncated);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            intact_len,
            "torn tail must be cut back to the last valid boundary"
        );
        // A second open sees a clean log.
        let (_, scan) = Wal::open(&path).unwrap();
        assert!(!scan.torn_tail_truncated);
    }

    #[test]
    fn corrupted_record_body_stops_replay() {
        let dir = TempDir::new("wal-bitrot");
        let path = dir.path().join("wal.fj");
        {
            let (wal, _) = Wal::open(&path).unwrap();
            for r in sample_records() {
                wal.append([&r]).unwrap();
            }
            wal.commit(None).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (_, scan) = Wal::open(&path).unwrap();
        assert!(scan.torn_tail_truncated);
        assert!(scan.records.len() < sample_records().len());
    }

    #[test]
    fn mutation_records_round_trip() {
        let dir = TempDir::new("wal-mut-rt");
        let path = dir.path().join("wal.fj");
        {
            let (wal, _) = Wal::open(&path).unwrap();
            for r in sample_records().iter().chain(mutation_records().iter()) {
                wal.append([r]).unwrap();
            }
            wal.commit(None).unwrap();
        }
        let (_, scan) = Wal::open(&path).unwrap();
        let mut want = sample_records();
        want.extend(mutation_records());
        assert_eq!(scan.records, want);
        assert!(!scan.torn_tail_truncated);
    }

    #[test]
    fn mutation_commit_trailing_bytes_rejected() {
        let schema = Schema::from_pairs(&[("k", DataType::Int)]);
        let mut body = encode_body(&WalRecord::MutationCommit {
            meta: TableMeta::describe(1, "T", &schema, 5, 2),
            rows_affected: 3,
        })
        .unwrap();
        body.push(0xAB);
        assert!(matches!(
            decode_body(&body),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn truncate_prefix_keeps_records_after_the_cut() {
        let dir = TempDir::new("wal-cut");
        let path = dir.path().join("wal.fj");
        let (wal, _) = Wal::open(&path).unwrap();
        for r in sample_records() {
            wal.append([&r]).unwrap();
        }
        wal.commit(None).unwrap();
        let cut = wal.durable_len().unwrap();
        // Records committed after the cut was captured must survive.
        for r in mutation_records() {
            wal.append([&r]).unwrap();
        }
        wal.commit(None).unwrap();
        wal.truncate_prefix(cut).unwrap();
        assert_eq!(wal.disk_records().unwrap(), mutation_records());
        // The reopened append handle keeps working.
        wal.append([&WalRecord::LoadCommit { table_id: 4 }])
            .unwrap();
        wal.commit(None).unwrap();
        let mut want = mutation_records();
        want.push(WalRecord::LoadCommit { table_id: 4 });
        assert_eq!(wal.disk_records().unwrap(), want);
        // And a fresh open agrees byte-for-byte.
        drop(wal);
        let (_, scan) = Wal::open(&path).unwrap();
        assert_eq!(scan.records, want);
    }

    #[test]
    fn truncate_prefix_of_whole_log_empties_it() {
        let dir = TempDir::new("wal-cut-all");
        let path = dir.path().join("wal.fj");
        let (wal, _) = Wal::open(&path).unwrap();
        for r in sample_records() {
            wal.append([&r]).unwrap();
        }
        wal.commit(None).unwrap();
        let cut = wal.durable_len().unwrap();
        wal.truncate_prefix(cut).unwrap();
        assert_eq!(wal.size_bytes(), 0);
        // Cuts past EOF clamp rather than error.
        wal.truncate_prefix(u64::MAX).unwrap();
        assert_eq!(wal.size_bytes(), 0);
    }

    #[test]
    fn truncate_empties_log() {
        let dir = TempDir::new("wal-trunc");
        let path = dir.path().join("wal.fj");
        let (wal, _) = Wal::open(&path).unwrap();
        wal.append([&WalRecord::LoadCommit { table_id: 1 }])
            .unwrap();
        wal.commit(None).unwrap();
        assert!(wal.size_bytes() > 0);
        wal.truncate().unwrap();
        assert_eq!(wal.size_bytes(), 0);
    }
}
