//! Disk-backed temporary partition files for spilling operators.
//!
//! When a build side outgrows its memory grant, the spilling operators
//! in `fj-exec` (grace hash join, external merge sort, spillable
//! aggregate/distinct) partition their inputs into temp files managed
//! here. The store is deliberately simple — append-only files of
//! checksummed row frames — but it carries the same reliability
//! discipline as the WAL and page store:
//!
//! * **Checksummed frames.** Every flush writes one frame in the shared
//!   `[len u32][crc64 u64][body]` layout of [`crate::codec`]; a torn
//!   write (the device persists only a prefix, silently) is detected by
//!   the checksum. The body is `[arity u32]` once, then the page
//!   layout's rows (DESIGN.md, "Byte formats").
//! * **Write-verify-rewrite.** Unlike WAL records, temp data is still
//!   in memory when it is flushed, so a torn frame is not a loss: the
//!   writer reads each frame back, and rewrites it in place (bounded
//!   retries) when verification fails. Spills therefore survive torn
//!   temp writes with no client-visible failure.
//! * **Fault injection.** [`FaultPlan::on_temp_write`] /
//!   [`FaultPlan::on_temp_fsync`] draw torn-temp-write and
//!   slow-temp-fsync decisions on their own ordinal streams, so the
//!   memory-chaos harness can exercise the rewrite machinery
//!   deterministically.
//! * **RAII cleanup.** A [`SpillFile`] deletes its backing file on
//!   drop, so a query that errors, cancels, or panics mid-spill leaks
//!   nothing; the store removes its directory when dropped.

use crate::codec::{self, crc64, CodecError, Le, Reader, Writer, FRAME_HEADER};
use crate::error::StorageError;
use crate::fault::{FaultPlan, PageWriteFault};
use crate::tuple::Tuple;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Upper bound on a single frame body; a corrupt length prefix must
/// produce a typed error, not a giant allocation.
const MAX_FRAME_LEN: u32 = 1 << 30;

/// Bounded in-place rewrite attempts for a frame that keeps failing
/// read-back verification (i.e. the fault plan keeps tearing it).
const MAX_TORN_REWRITES: u32 = 8;

fn corrupt(detail: impl Into<String>) -> StorageError {
    StorageError::TempFile {
        detail: detail.into(),
    }
}

fn io_err(op: &str, err: std::io::Error) -> StorageError {
    StorageError::TempFile {
        detail: format!("{op}: {err}"),
    }
}

/// Fills `buf` from `file` until it is full or the file ends; returns
/// the bytes read.
fn read_full(file: &mut File, buf: &mut [u8], op: &str) -> Result<usize, StorageError> {
    let mut filled = 0;
    while filled < buf.len() {
        match file.read(&mut buf[filled..]).map_err(|e| io_err(op, e))? {
            0 => break,
            n => filled += n,
        }
    }
    Ok(filled)
}

/// One batch as a frame body: `[arity u32]`, then the rows. Every row
/// of a batch has the same arity.
fn encode_batch(rows: &[Tuple]) -> Result<Vec<u8>, CodecError> {
    let arity = rows.first().map_or(0, Tuple::arity);
    let mut w = Writer::<Le>::new();
    w.count("arity", arity)?;
    codec::encode_rows(&mut w, arity, rows)?;
    Ok(w.into_bytes())
}

fn decode_batch(body: &[u8]) -> Result<Vec<Tuple>, CodecError> {
    Reader::<Le>::decode_all(body, |r| {
        let arity = r.u32()? as usize;
        codec::decode_rows(r, arity)
    })
}

/// A point-in-time snapshot of the store's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TempStoreStats {
    /// Spill files created since the store opened.
    pub files_created: u64,
    /// Spill files deleted (RAII drop) since the store opened.
    pub files_deleted: u64,
    /// Frame bytes appended to spill files (excludes torn prefixes that
    /// were rewritten in place).
    pub bytes_written: u64,
    /// Frame bytes read back by spill readers.
    pub bytes_read: u64,
    /// Bytes currently held in live spill files.
    pub live_bytes: u64,
    /// High-water mark of `live_bytes`.
    pub peak_bytes: u64,
    /// Frames that failed read-back verification after a torn write and
    /// were rewritten in place.
    pub torn_rewrites: u64,
}

/// A directory of temp spill files with fault injection and RAII
/// lifecycle. Cheap to share (`Arc`); all counters are atomics.
#[derive(Debug)]
pub struct TempStore {
    dir: PathBuf,
    created_dir: bool,
    faults: Option<Arc<FaultPlan>>,
    next_id: AtomicU64,
    files_created: AtomicU64,
    files_deleted: AtomicU64,
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
    live_bytes: AtomicU64,
    peak_bytes: AtomicU64,
    torn_rewrites: AtomicU64,
}

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

impl TempStore {
    /// Opens (creating if needed) a temp store rooted at `dir`. The
    /// directory is removed again when the store is dropped if this
    /// call created it; a pre-existing directory is left in place
    /// (only its spill files are cleaned, via [`SpillFile`] drops).
    pub fn open(dir: impl Into<PathBuf>) -> Result<TempStore, StorageError> {
        let dir = dir.into();
        let created_dir = !dir.exists();
        fs::create_dir_all(&dir).map_err(|e| io_err("create spill dir", e))?;
        Ok(TempStore {
            dir,
            created_dir,
            faults: None,
            next_id: AtomicU64::new(0),
            files_created: AtomicU64::new(0),
            files_deleted: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            live_bytes: AtomicU64::new(0),
            peak_bytes: AtomicU64::new(0),
            torn_rewrites: AtomicU64::new(0),
        })
    }

    /// Opens a store in a fresh uniquely-named directory under the
    /// system temp dir (used when no spill dir is configured).
    pub fn open_scratch() -> Result<TempStore, StorageError> {
        let dir = std::env::temp_dir().join(format!(
            "fj-spill-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        TempStore::open(dir)
    }

    /// Threads a fault plan through every temp write and seal.
    pub fn with_faults(mut self, faults: Arc<FaultPlan>) -> TempStore {
        self.faults = Some(faults);
        self
    }

    /// The spill directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> TempStoreStats {
        TempStoreStats {
            files_created: self.files_created.load(Ordering::Relaxed),
            files_deleted: self.files_deleted.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            live_bytes: self.live_bytes.load(Ordering::Relaxed),
            peak_bytes: self.peak_bytes.load(Ordering::Relaxed),
            torn_rewrites: self.torn_rewrites.load(Ordering::Relaxed),
        }
    }

    /// Number of entries physically present in the spill directory —
    /// the leak check the cancel-storm and chaos tests assert to zero.
    pub fn live_files_on_disk(&self) -> Result<usize, StorageError> {
        Ok(fs::read_dir(&self.dir)
            .map_err(|e| io_err("read spill dir", e))?
            .count())
    }

    /// Creates a fresh spill file for writing.
    pub fn create_file(self: &Arc<Self>) -> Result<TempWriter, StorageError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let path = self.dir.join(format!("spill-{id:08}.fjt"));
        let file = OpenOptions::new()
            .create_new(true)
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| io_err("create spill file", e))?;
        self.files_created.fetch_add(1, Ordering::Relaxed);
        Ok(TempWriter {
            store: Arc::clone(self),
            guard: TempFileGuard {
                store: Arc::clone(self),
                path,
                bytes: 0,
            },
            file,
            offset: 0,
            rows: 0,
            frames: 0,
        })
    }

    fn note_written(&self, bytes: u64) {
        self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
        let live = self.live_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak_bytes.fetch_max(live, Ordering::Relaxed);
    }

    fn note_deleted(&self, bytes: u64) {
        self.files_deleted.fetch_add(1, Ordering::Relaxed);
        self.live_bytes.fetch_sub(bytes, Ordering::Relaxed);
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        // Best-effort: a store that created its directory owns it
        // outright; one handed an existing directory only removes it if
        // empty (all spill files were already reclaimed by RAII).
        if self.created_dir {
            let _ = fs::remove_dir_all(&self.dir);
        } else {
            let _ = fs::remove_dir(&self.dir);
        }
    }
}

/// RAII ownership of one on-disk spill file: deletes the file and
/// settles the store's live-byte accounting on drop, whether the drop
/// is an orderly scope exit, an error unwind, or a cancellation.
#[derive(Debug)]
struct TempFileGuard {
    store: Arc<TempStore>,
    path: PathBuf,
    bytes: u64,
}

impl Drop for TempFileGuard {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
        self.store.note_deleted(self.bytes);
    }
}

/// Appends checksummed row frames to a spill file.
#[derive(Debug)]
pub struct TempWriter {
    store: Arc<TempStore>,
    guard: TempFileGuard,
    file: File,
    offset: u64,
    rows: u64,
    frames: u64,
}

impl TempWriter {
    /// Flushes one batch of rows as a single checksummed frame.
    ///
    /// Draws a torn-temp-write decision from the fault plan per
    /// physical write attempt; a torn frame is caught by read-back
    /// verification and rewritten in place (bounded retries), so an
    /// armed fault plan slows spills down without corrupting them.
    pub fn write_rows(&mut self, rows: &[Tuple]) -> Result<(), StorageError> {
        let mut frame = Writer::<Le>::new();
        frame.frame(&encode_batch(rows)?)?;
        let frame = frame.into_bytes();

        for attempt in 0..=MAX_TORN_REWRITES {
            let torn = match self.store.faults.as_deref() {
                Some(f) => f.on_temp_write() == PageWriteFault::Torn,
                None => false,
            };
            self.file
                .seek(SeekFrom::Start(self.offset))
                .map_err(|e| io_err("seek spill file", e))?;
            if torn {
                // A torn write persists only a prefix; the tear point is
                // derived from the frame content so the whole frame —
                // header included — gets exercised over time.
                let tear_at = (crc64(&frame) % frame.len() as u64) as usize;
                self.file
                    .write_all(&frame[..tear_at])
                    .map_err(|e| io_err("write spill frame", e))?;
                self.file
                    .set_len(self.offset + tear_at as u64)
                    .map_err(|e| io_err("truncate spill file", e))?;
            } else {
                self.file
                    .write_all(&frame)
                    .map_err(|e| io_err("write spill frame", e))?;
            }
            if self.verify_frame(&frame)? {
                self.offset += frame.len() as u64;
                self.rows += rows.len() as u64;
                self.frames += 1;
                self.guard.bytes += frame.len() as u64;
                self.store.note_written(frame.len() as u64);
                return Ok(());
            }
            self.store.torn_rewrites.fetch_add(1, Ordering::Relaxed);
            if attempt == MAX_TORN_REWRITES {
                break;
            }
        }
        Err(corrupt(format!(
            "spill frame failed verification after {MAX_TORN_REWRITES} rewrites"
        )))
    }

    /// Reads the just-written frame back and checks it byte-for-byte.
    fn verify_frame(&mut self, frame: &[u8]) -> Result<bool, StorageError> {
        self.file
            .seek(SeekFrom::Start(self.offset))
            .map_err(|e| io_err("seek spill file", e))?;
        let mut got = vec![0u8; frame.len()];
        let n = read_full(&mut self.file, &mut got, "verify spill frame")?;
        Ok(n == frame.len() && got == frame)
    }

    /// Rows written so far.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Seals the file: draws a (possibly slow) temp-fsync decision,
    /// syncs, and returns the read handle.
    pub fn seal(self) -> Result<SpillFile, StorageError> {
        if let Some(f) = self.store.faults.as_deref() {
            f.on_temp_fsync();
        }
        self.file
            .sync_data()
            .map_err(|e| io_err("sync spill file", e))?;
        Ok(SpillFile {
            guard: self.guard,
            rows: self.rows,
            frames: self.frames,
        })
    }
}

/// A sealed, readable spill file. Deletes itself on drop.
#[derive(Debug)]
pub struct SpillFile {
    guard: TempFileGuard,
    rows: u64,
    frames: u64,
}

impl SpillFile {
    /// Rows stored in this file.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Frames stored in this file.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Frame bytes stored in this file.
    pub fn bytes(&self) -> u64 {
        self.guard.bytes
    }

    /// Opens a streaming reader over the file's frames.
    pub fn reader(&self) -> Result<SpillReader, StorageError> {
        let file = File::open(&self.guard.path).map_err(|e| io_err("open spill file", e))?;
        Ok(SpillReader {
            store: Arc::clone(&self.guard.store),
            file,
        })
    }

    /// Reads every row back, verifying each frame's checksum.
    pub fn read_all(&self) -> Result<Vec<Tuple>, StorageError> {
        let mut reader = self.reader()?;
        let mut rows = Vec::with_capacity(self.rows as usize);
        while let Some(batch) = reader.next_batch()? {
            rows.extend(batch);
        }
        Ok(rows)
    }
}

/// Streams frames out of a spill file, verifying checksums. Total:
/// arbitrary truncation or corruption yields a typed
/// [`StorageError::TempFile`], never a panic or silently wrong rows.
#[derive(Debug)]
pub struct SpillReader {
    store: Arc<TempStore>,
    file: File,
}

impl SpillReader {
    /// Reads the next frame, or `None` at a clean end of file.
    pub fn next_batch(&mut self) -> Result<Option<Vec<Tuple>>, StorageError> {
        let mut frame = vec![0u8; FRAME_HEADER];
        match read_full(&mut self.file, &mut frame, "read spill frame header")? {
            0 => return Ok(None),
            FRAME_HEADER => {}
            n => {
                return Err(corrupt(format!(
                    "truncated frame header: {n} of {FRAME_HEADER} bytes"
                )))
            }
        }
        let len = Reader::<Le>::new(&frame).u32()?;
        if len > MAX_FRAME_LEN {
            return Err(corrupt(format!("frame length {len} exceeds maximum")));
        }
        frame.resize(FRAME_HEADER + len as usize, 0);
        let got = read_full(
            &mut self.file,
            &mut frame[FRAME_HEADER..],
            "read spill frame",
        )?;
        if got < len as usize {
            return Err(corrupt(format!(
                "truncated frame payload: {got} of {len} bytes"
            )));
        }
        let body = Reader::<Le>::decode_all(&frame, |r| r.frame())?;
        self.store
            .bytes_read
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        Ok(Some(decode_batch(body)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;
    use crate::value::Value;

    fn sample_rows(n: i64) -> Vec<Tuple> {
        (0..n)
            .map(|i| tuple![i, format!("row-{i}"), i as f64 / 3.0, i % 2 == 0])
            .collect()
    }

    #[test]
    fn write_read_round_trip_and_raii_cleanup() {
        let store = Arc::new(TempStore::open_scratch().unwrap());
        let rows = sample_rows(100);
        let file = {
            let mut w = store.create_file().unwrap();
            w.write_rows(&rows[..40]).unwrap();
            w.write_rows(&rows[40..]).unwrap();
            w.seal().unwrap()
        };
        assert_eq!(file.rows(), 100);
        assert_eq!(file.frames(), 2);
        assert_eq!(file.read_all().unwrap(), rows);
        assert_eq!(store.live_files_on_disk().unwrap(), 1);

        let s = store.stats();
        assert_eq!(s.files_created, 1);
        assert_eq!(s.files_deleted, 0);
        assert!(s.bytes_written > 0);
        assert_eq!(s.live_bytes, s.bytes_written);
        assert_eq!(s.peak_bytes, s.bytes_written);
        assert!(s.bytes_read >= s.bytes_written);

        drop(file);
        assert_eq!(store.live_files_on_disk().unwrap(), 0);
        let s = store.stats();
        assert_eq!(s.files_deleted, 1);
        assert_eq!(s.live_bytes, 0);
    }

    #[test]
    fn store_drop_removes_scratch_dir() {
        let store = TempStore::open_scratch().unwrap();
        let dir = store.dir().to_path_buf();
        assert!(dir.exists());
        drop(store);
        assert!(!dir.exists());
    }

    #[test]
    fn writer_drop_without_seal_deletes_file() {
        let store = Arc::new(TempStore::open_scratch().unwrap());
        let mut w = store.create_file().unwrap();
        w.write_rows(&sample_rows(10)).unwrap();
        drop(w);
        assert_eq!(store.live_files_on_disk().unwrap(), 0);
        assert_eq!(store.stats().live_bytes, 0);
    }

    #[test]
    fn torn_temp_writes_are_rewritten_not_corrupting() {
        // Tear every other frame: every batch must still read back
        // exactly, with the rewrite counter recording the repairs.
        let faults = Arc::new(FaultPlan::new(1234).with_torn_temp_writes(2));
        let store = Arc::new(TempStore::open_scratch().unwrap().with_faults(faults));
        let rows = sample_rows(500);
        let mut w = store.create_file().unwrap();
        for chunk in rows.chunks(37) {
            w.write_rows(chunk).unwrap();
        }
        let file = w.seal().unwrap();
        assert_eq!(file.read_all().unwrap(), rows);
        let s = store.stats();
        assert!(s.torn_rewrites > 0, "1-in-2 tears over 14 frames must fire");
    }

    #[test]
    fn truncated_file_yields_typed_error() {
        let store = Arc::new(TempStore::open_scratch().unwrap());
        let mut w = store.create_file().unwrap();
        w.write_rows(&sample_rows(50)).unwrap();
        let file = w.seal().unwrap();
        let path = file.guard.path.clone();
        let full = fs::read(&path).unwrap();
        for cut in [full.len() - 1, full.len() / 2, FRAME_HEADER - 1, 1] {
            fs::write(&path, &full[..cut]).unwrap();
            let err = file.read_all().unwrap_err();
            assert!(
                matches!(err, StorageError::TempFile { .. }),
                "cut at {cut}: got {err:?}"
            );
        }
        // Restore and confirm the file still reads clean.
        fs::write(&path, &full).unwrap();
        assert_eq!(file.read_all().unwrap().len(), 50);
    }

    #[test]
    fn corrupt_payload_byte_yields_checksum_error() {
        let store = Arc::new(TempStore::open_scratch().unwrap());
        let mut w = store.create_file().unwrap();
        w.write_rows(&sample_rows(20)).unwrap();
        let file = w.seal().unwrap();
        let path = file.guard.path.clone();
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        let err = file.read_all().unwrap_err();
        assert!(err.to_string().contains("checksum"), "got {err}");
    }

    #[test]
    fn decode_rejects_trailing_bytes_and_bad_tags() {
        let mut bytes = encode_batch(&sample_rows(3)).unwrap();
        bytes.push(0);
        assert!(decode_batch(&bytes).is_err());

        let rows = sample_rows(1);
        let mut bytes = encode_batch(&rows).unwrap();
        bytes[8] = 9; // first value tag → unknown
        assert!(decode_batch(&bytes).is_err());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Maps one drawn `(tag, payload)` word pair onto a `Value`,
        /// covering every variant including NaN doubles (which compare
        /// equal by bits under `Value`'s total ordering) and non-ASCII
        /// strings.
        fn value_from(tag: u64, payload: u64) -> Value {
            const ALPHABET: [char; 8] = ['a', 'Z', '0', ' ', '\u{e9}', '\u{4e2d}', '"', '\\'];
            match tag % 5 {
                0 => Value::Null,
                1 => Value::Int(payload as i64),
                2 => Value::Double(f64::from_bits(payload)),
                3 => {
                    let len = (payload % 12) as usize;
                    let s: String = (0..len)
                        .map(|i| ALPHABET[((payload >> (i * 3)) % 8) as usize])
                        .collect();
                    Value::Str(s)
                }
                _ => Value::Bool(payload.is_multiple_of(2)),
            }
        }

        fn rows_from(words: &[(u64, u64)], arity: usize) -> Vec<Tuple> {
            if arity == 0 {
                return words.iter().map(|_| Tuple::new(Vec::new())).collect();
            }
            // Whole rows only: a spill frame carries one arity.
            words
                .chunks_exact(arity)
                .map(|chunk| Tuple::new(chunk.iter().map(|&(t, p)| value_from(t, p)).collect()))
                .collect()
        }

        proptest! {
            /// The temp partition codec is lossless over arbitrary
            /// value mixes.
            #[test]
            fn codec_round_trips(
                words in prop::collection::vec((0u64..5, 0u64..u64::MAX), 0..96),
                arity in 0usize..6,
            ) {
                let rows = rows_from(&words, arity);
                let bytes = encode_batch(&rows).unwrap();
                prop_assert_eq!(decode_batch(&bytes).unwrap(), rows);
            }

            /// Torn-at-any-byte: truncating an encoded spill file at
            /// every possible prefix either reads back the full rows
            /// (no truncation) or yields a typed error — never a panic,
            /// never silently wrong rows.
            #[test]
            fn torn_at_any_byte_is_typed_error(
                words in prop::collection::vec((0u64..5, 0u64..u64::MAX), 0..64),
                arity in 1usize..6,
                frac in 0.0f64..1.0,
            ) {
                let rows = rows_from(&words, arity);
                let store = Arc::new(TempStore::open_scratch().unwrap());
                let mut w = store.create_file().unwrap();
                w.write_rows(&rows).unwrap();
                let file = w.seal().unwrap();
                let path = file.guard.path.clone();
                let full = std::fs::read(&path).unwrap();
                let cut = ((full.len() as f64) * frac) as usize;
                std::fs::write(&path, &full[..cut]).unwrap();
                match file.read_all() {
                    // The only clean truncation points of a one-frame
                    // file are byte 0 (an empty file: zero rows) and
                    // the full length.
                    Ok(got) => {
                        if cut == 0 {
                            prop_assert!(got.is_empty());
                        } else {
                            prop_assert_eq!(cut, full.len());
                            prop_assert_eq!(got, rows);
                        }
                    }
                    Err(StorageError::TempFile { .. }) => {
                        prop_assert!(cut > 0 && cut < full.len());
                    }
                    Err(other) => prop_assert!(false, "unexpected error {}", other),
                }
            }
        }
    }
}
