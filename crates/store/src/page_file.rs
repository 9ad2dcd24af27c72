//! The frame-aligned, checksummed page file (`pages.fj`).
//!
//! One *logical* table page (the unit the [`fj_storage::CostLedger`]
//! charges) is stored as one *record*. A record starts on a 4 KiB frame
//! boundary and spans as many whole frames as its encoded payload
//! needs — encoded bytes carry tags and string lengths, so a logical
//! page's payload is not bounded by the model's 4096-byte row arithmetic.
//! The invariant the cost-parity check relies on is *one logical page =
//! one record = one physical read*, not byte-for-byte equality of model
//! and physical widths (see DESIGN.md for the documented divergence).
//!
//! Record layout (header is 32 bytes, CRC-64 covers header prefix +
//! payload, remainder of the last frame is zero padding):
//!
//! ```text
//! 0..4    magic  "FJPG"
//! 4..6    version            u16
//! 6..8    frame_count        u16
//! 8..12   table_id           u32
//! 12..16  page_no            u32
//! 16..20  payload_len        u32
//! 20..24  reserved (zero)    u32
//! 24..32  crc64(header[0..24] ++ payload)
//! 32..    payload
//! ```
//!
//! Opening a file rebuilds the record directory by scanning frame
//! boundaries: a frame whose header fails magic/version/CRC validation
//! is skipped (one frame at a time), so torn or half-written records
//! are invisible — the WAL, not the page file, is the recovery source
//! for anything that did not verify.

use crate::error::StoreError;
use fj_storage::codec::{Crc64, Le, Reader};
use fj_storage::{FaultPlan, PageWriteFault};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Physical frame size: records are aligned to this.
pub const FRAME_SIZE: usize = 4096;
/// Bytes of record header before the payload.
pub const RECORD_HEADER: usize = 32;

const MAGIC: [u8; 4] = *b"FJPG";
const VERSION: u16 = 1;

#[derive(Debug, Clone, Copy)]
struct DirEntry {
    offset_frame: u64,
    frame_count: u16,
}

#[derive(Debug)]
struct Directory {
    entries: HashMap<(u32, u32), DirEntry>,
    end_frame: u64,
}

/// A checksummed, frame-aligned record file keyed by
/// `(table_id, page_no)`.
#[derive(Debug)]
pub struct PageFile {
    path: PathBuf,
    file: File,
    dir: Mutex<Directory>,
    physical_reads: AtomicU64,
    physical_writes: AtomicU64,
}

fn frames_for(payload_len: usize) -> u16 {
    ((RECORD_HEADER + payload_len).div_ceil(FRAME_SIZE)) as u16
}

fn encode_record(table_id: u32, page_no: u32, payload: &[u8]) -> Vec<u8> {
    let frame_count = frames_for(payload.len());
    let mut header = [0u8; RECORD_HEADER];
    header[0..4].copy_from_slice(&MAGIC);
    header[4..6].copy_from_slice(&VERSION.to_le_bytes());
    header[6..8].copy_from_slice(&frame_count.to_le_bytes());
    header[8..12].copy_from_slice(&table_id.to_le_bytes());
    header[12..16].copy_from_slice(&page_no.to_le_bytes());
    header[16..20].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    let crc = Crc64::new().update(&header[0..24]).update(payload).finish();
    header[24..32].copy_from_slice(&crc.to_le_bytes());
    let mut record = vec![0u8; frame_count as usize * FRAME_SIZE];
    record[0..RECORD_HEADER].copy_from_slice(&header);
    record[RECORD_HEADER..RECORD_HEADER + payload.len()].copy_from_slice(payload);
    record
}

/// Parses and verifies one record at `bytes` (which must start at the
/// header), in place. Returns `(table_id, page_no, payload_len)` — the
/// payload is `bytes[RECORD_HEADER..][..payload_len]` — or `None` if
/// the bytes are not a valid record.
fn parse_record(bytes: &[u8]) -> Option<(u32, u32, usize)> {
    if bytes.len() < RECORD_HEADER || bytes[0..4] != MAGIC {
        return None;
    }
    let mut header = Reader::<Le>::new(&bytes[4..RECORD_HEADER]);
    let version = header.u16().ok()?;
    let frame_count = header.u16().ok()?;
    if version != VERSION || frame_count == 0 {
        return None;
    }
    let table_id = header.u32().ok()?;
    let page_no = header.u32().ok()?;
    let payload_len = header.u32().ok()? as usize;
    if RECORD_HEADER + payload_len > frame_count as usize * FRAME_SIZE
        || frame_count as usize * FRAME_SIZE > bytes.len()
    {
        return None;
    }
    let payload = &bytes[RECORD_HEADER..RECORD_HEADER + payload_len];
    header.u32().ok()?; // bytes 20..24: zero padding
    let want = header.u64().ok()?;
    let got = Crc64::new().update(&bytes[0..24]).update(payload).finish();
    if want != got {
        return None;
    }
    Some((table_id, page_no, payload_len))
}

impl PageFile {
    /// Opens (creating if absent) the page file and rebuilds the record
    /// directory by scanning frames. Invalid frames are skipped, not
    /// errors: they are torn writes awaiting WAL healing.
    pub fn open(path: impl AsRef<Path>) -> Result<PageFile, StoreError> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| StoreError::io(format!("open {}", path.display()), e))?;
        let bytes = std::fs::read(&path)
            .map_err(|e| StoreError::io(format!("scan {}", path.display()), e))?;
        let total_frames = (bytes.len() / FRAME_SIZE) as u64;
        let mut entries = HashMap::new();
        let mut frame = 0u64;
        while frame < total_frames {
            let at = (frame as usize) * FRAME_SIZE;
            match parse_record(&bytes[at..]) {
                Some((table_id, page_no, payload_len)) => {
                    let frame_count = frames_for(payload_len);
                    entries.insert(
                        (table_id, page_no),
                        DirEntry {
                            offset_frame: frame,
                            frame_count,
                        },
                    );
                    frame += frame_count as u64;
                }
                None => frame += 1,
            }
        }
        Ok(PageFile {
            path,
            file,
            dir: Mutex::new(Directory {
                entries,
                end_frame: total_frames,
            }),
            physical_reads: AtomicU64::new(0),
            physical_writes: AtomicU64::new(0),
        })
    }

    /// The record directory (a poisoned lock is recovered: entries are
    /// inserted whole).
    fn directory(&self) -> MutexGuard<'_, Directory> {
        self.dir.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Physical record reads served so far.
    pub fn physical_reads(&self) -> u64 {
        self.physical_reads.load(Ordering::Relaxed)
    }

    /// Physical record writes performed so far.
    pub fn physical_writes(&self) -> u64 {
        self.physical_writes.load(Ordering::Relaxed)
    }

    /// Writes one logical page's record, in place when a record of the
    /// same size already exists (the idempotence path WAL replay uses),
    /// appended otherwise.
    ///
    /// `faults` injects torn writes: a torn record persists only its
    /// first half, while the caller still sees success — the on-disk
    /// CRC is what catches it later.
    pub fn write_page(
        &self,
        table_id: u32,
        page_no: u32,
        payload: &[u8],
        faults: Option<&FaultPlan>,
    ) -> Result<(), StoreError> {
        let fault = faults
            .map(|f| f.on_page_write())
            .unwrap_or(PageWriteFault::None);
        self.write_page_with(table_id, page_no, payload, fault)
    }

    /// [`PageFile::write_page`] with the fault decision drawn by the
    /// caller — the dirty-page write-back and checkpoint-scrub paths
    /// draw from their own fault classes
    /// ([`FaultPlan::on_delta_write`] / [`FaultPlan::on_scrub_write`])
    /// so arming them never shifts the load-write schedule.
    pub fn write_page_with(
        &self,
        table_id: u32,
        page_no: u32,
        payload: &[u8],
        fault: PageWriteFault,
    ) -> Result<(), StoreError> {
        let record = encode_record(table_id, page_no, payload);
        let frame_count = frames_for(payload.len());
        let mut dir = self.directory();
        let offset_frame = match dir.entries.get(&(table_id, page_no)) {
            Some(e) if e.frame_count == frame_count => e.offset_frame,
            _ => {
                let f = dir.end_frame;
                dir.end_frame += frame_count as u64;
                f
            }
        };
        let torn = fault == PageWriteFault::Torn;
        // A torn write persists only the first disk sector; the file is
        // still extended over the record's whole frame span (the
        // allocation lands, the data doesn't — the classic power-cut
        // shape). Stale or zero bytes in the tail are exactly what the
        // record CRC exists to catch.
        let persisted = if torn {
            &record[..record.len().min(512)]
        } else {
            &record[..]
        };
        let base = offset_frame * FRAME_SIZE as u64;
        self.file
            .write_all_at(persisted, base)
            .map_err(|e| StoreError::io(format!("write page {table_id}/{page_no}"), e))?;
        let span_end = base + record.len() as u64;
        let cur_len = self
            .file
            .metadata()
            .map_err(|e| StoreError::io(format!("stat for page {table_id}/{page_no}"), e))?
            .len();
        if cur_len < span_end {
            self.file
                .set_len(span_end)
                .map_err(|e| StoreError::io(format!("extend for page {table_id}/{page_no}"), e))?;
        }
        dir.entries.insert(
            (table_id, page_no),
            DirEntry {
                offset_frame,
                frame_count,
            },
        );
        self.physical_writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Reads and verifies one record, returning its payload. One call
    /// is one physical page read — the quantity the cost-parity check
    /// diffs against the ledger.
    pub fn read_page(&self, table_id: u32, page_no: u32) -> Result<Vec<u8>, StoreError> {
        let entry = {
            let dir = self.directory();
            dir.entries
                .get(&(table_id, page_no))
                .copied()
                .ok_or_else(|| StoreError::Meta {
                    detail: format!("no record for table {table_id} page {page_no}"),
                })?
        };
        let bytes = self
            .read_frames(entry)
            .map_err(|e| StoreError::io(format!("read page {table_id}/{page_no}"), e))?;
        self.physical_reads.fetch_add(1, Ordering::Relaxed);
        match parse_record(&bytes) {
            Some((tid, pno, len)) if tid == table_id && pno == page_no => {
                Ok(bytes[RECORD_HEADER..RECORD_HEADER + len].to_vec())
            }
            _ => Err(StoreError::Corrupt {
                detail: format!(
                    "record for table {table_id} page {page_no} failed verification (torn write?)"
                ),
            }),
        }
    }

    /// Whether the stored record for `(table_id, page_no)` currently
    /// verifies. Missing counts as invalid. Does not charge a physical
    /// read (this is the checkpoint scrub's probe, not a query read).
    pub fn record_is_valid(&self, table_id: u32, page_no: u32) -> bool {
        let entry = {
            let dir = self.directory();
            match dir.entries.get(&(table_id, page_no)) {
                Some(e) => *e,
                None => return false,
            }
        };
        let bytes = match self.read_frames(entry) {
            Ok(b) => b,
            Err(_) => return false,
        };
        matches!(parse_record(&bytes), Some((tid, pno, _)) if tid == table_id && pno == page_no)
    }

    /// Reads a record's frame span, zero-padding past EOF (a torn
    /// append can leave the file shorter than the record it reserved).
    fn read_frames(&self, entry: DirEntry) -> std::io::Result<Vec<u8>> {
        let mut bytes = vec![0u8; entry.frame_count as usize * FRAME_SIZE];
        let mut filled = 0usize;
        let base = entry.offset_frame * FRAME_SIZE as u64;
        while filled < bytes.len() {
            match self
                .file
                .read_at(&mut bytes[filled..], base + filled as u64)
            {
                Ok(0) => break, // EOF: rest stays zero
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(bytes)
    }

    /// Flushes the file to stable storage.
    pub fn sync(&self) -> Result<(), StoreError> {
        self.file
            .sync_all()
            .map_err(|e| StoreError::io(format!("fsync {}", self.path.display()), e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;

    /// True iff a record for `(table_id, page_no)` is in the directory.
    fn contains(pf: &PageFile, table_id: u32, page_no: u32) -> bool {
        pf.directory().entries.contains_key(&(table_id, page_no))
    }

    #[test]
    fn write_read_round_trip() {
        let dir = TempDir::new("pagefile-rt");
        let pf = PageFile::open(dir.path().join("pages.fj")).unwrap();
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        pf.write_page(1, 0, &payload, None).unwrap();
        pf.write_page(1, 1, b"small", None).unwrap();
        assert_eq!(pf.read_page(1, 0).unwrap(), payload);
        assert_eq!(pf.read_page(1, 1).unwrap(), b"small");
        assert_eq!(pf.physical_reads(), 2);
        assert_eq!(pf.physical_writes(), 2);
    }

    #[test]
    fn directory_survives_reopen() {
        let dir = TempDir::new("pagefile-reopen");
        let path = dir.path().join("pages.fj");
        {
            let pf = PageFile::open(&path).unwrap();
            pf.write_page(7, 3, b"persisted", None).unwrap();
            pf.sync().unwrap();
        }
        let pf = PageFile::open(&path).unwrap();
        assert!(contains(&pf, 7, 3));
        assert_eq!(pf.read_page(7, 3).unwrap(), b"persisted");
    }

    #[test]
    fn in_place_rewrite_keeps_file_size() {
        let dir = TempDir::new("pagefile-inplace");
        let path = dir.path().join("pages.fj");
        let pf = PageFile::open(&path).unwrap();
        pf.write_page(1, 0, &[1u8; 100], None).unwrap();
        pf.write_page(1, 1, &[2u8; 100], None).unwrap();
        let size = std::fs::metadata(&path).unwrap().len();
        pf.write_page(1, 0, &[9u8; 100], None).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), size);
        assert_eq!(pf.read_page(1, 0).unwrap(), vec![9u8; 100]);
    }

    #[test]
    fn torn_write_detected_on_read() {
        let dir = TempDir::new("pagefile-torn");
        let pf = PageFile::open(dir.path().join("pages.fj")).unwrap();
        // one_in = 1 → every write torn.
        let faults = FaultPlan::new(1).with_torn_page_writes(1);
        pf.write_page(1, 0, &[5u8; 2000], Some(&faults)).unwrap();
        let err = pf.read_page(1, 0).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        assert!(!pf.record_is_valid(1, 0));
        // Healing: rewrite intact, then the read verifies again.
        pf.write_page(1, 0, &[5u8; 2000], None).unwrap();
        assert_eq!(pf.read_page(1, 0).unwrap(), vec![5u8; 2000]);
    }

    #[test]
    fn torn_record_skipped_by_reopen_scan() {
        let dir = TempDir::new("pagefile-scan");
        let path = dir.path().join("pages.fj");
        {
            let pf = PageFile::open(&path).unwrap();
            pf.write_page(1, 0, &[1u8; 100], None).unwrap();
            let faults = FaultPlan::new(1).with_torn_page_writes(1);
            pf.write_page(1, 1, &[2u8; 6000], Some(&faults)).unwrap();
            pf.write_page(1, 2, &[3u8; 100], None).unwrap();
        }
        let pf = PageFile::open(&path).unwrap();
        assert!(contains(&pf, 1, 0));
        assert!(!contains(&pf, 1, 1), "torn record must not verify");
        assert!(contains(&pf, 1, 2));
    }

    #[test]
    fn missing_page_is_meta_error() {
        let dir = TempDir::new("pagefile-missing");
        let pf = PageFile::open(dir.path().join("pages.fj")).unwrap();
        assert!(matches!(
            pf.read_page(9, 9).unwrap_err(),
            StoreError::Meta { .. }
        ));
    }
}
