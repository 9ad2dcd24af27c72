//! Recovery idempotence and torn-tail handling, end to end.
//!
//! The store's recovery contract is stronger than "the rows come back":
//! WAL replay writes page images *in place*, so recovering any number
//! of times from the same crash state yields a byte-identical page
//! file. These tests diff the actual on-disk bytes, not just decoded
//! rows.

use fj_storage::{DataType, Table, TableBuilder, Value};
use fj_store::{crc64, Store, TableMeta, TempDir, Wal, WalRecord};
use proptest::prelude::*;
use std::path::Path;

fn table(name: &str, rows: usize, salt: i64) -> Table {
    TableBuilder::new(name)
        .column("k", DataType::Int)
        .column("w", DataType::Double)
        .column("tag", DataType::Str)
        .rows((0..rows).map(|i| {
            vec![
                Value::Int(i as i64 ^ salt),
                Value::Double(i as f64 * 1.5),
                Value::Str(format!("{name}-{i}")),
            ]
        }))
        .build()
        .unwrap()
}

fn pages_bytes(dir: &Path) -> Vec<u8> {
    std::fs::read(dir.join("pages.fj")).unwrap_or_default()
}

fn wal_bytes_on_disk(dir: &Path) -> Vec<u8> {
    std::fs::read(dir.join("wal.fj")).unwrap_or_default()
}

/// Replaying the same WAL twice (two recoveries with no intervening
/// writes) leaves the page file byte-identical.
#[test]
fn double_replay_is_byte_identical() {
    let dir = TempDir::new("recovery-double");
    {
        let (store, _) = Store::open(dir.path(), 32, None).unwrap();
        store.load_table(&table("T", 700, 0)).unwrap();
        store.load_table(&table("U", 80, 7)).unwrap();
        // Crash: no checkpoint, WAL holds everything.
    }
    let (_, report1) = {
        let (store, r) = Store::open(dir.path(), 32, None).unwrap();
        drop(store);
        ((), r)
    };
    assert_eq!(report1.replayed_tables, 2);
    let after_first = pages_bytes(dir.path());
    let wal_after_first = wal_bytes_on_disk(dir.path());

    let (store, report2) = Store::open(dir.path(), 32, None).unwrap();
    assert_eq!(report2.replayed_tables, 2, "WAL is not consumed by replay");
    assert_eq!(
        pages_bytes(dir.path()),
        after_first,
        "second replay must write the same bytes at the same offsets"
    );
    assert_eq!(wal_bytes_on_disk(dir.path()), wal_after_first);
    let (_, rows) = store.recovered_rows("T").unwrap();
    assert_eq!(rows, table("T", 700, 0).rows());
}

/// Recovery from a checkpoint plus a WAL tail (tables loaded after the
/// checkpoint) is idempotent too, and sees both generations of tables.
#[test]
fn checkpoint_plus_partial_tail_recovers_idempotently() {
    let dir = TempDir::new("recovery-ckpt-tail");
    {
        let (store, _) = Store::open(dir.path(), 32, None).unwrap();
        store.load_table(&table("Old", 300, 1)).unwrap();
        store.checkpoint().unwrap();
        store.load_table(&table("New", 300, 2)).unwrap();
        // Crash: Old is manifest-durable, New lives only in the WAL.
    }
    let first = {
        let (store, report) = Store::open(dir.path(), 32, None).unwrap();
        assert_eq!(report.manifest_tables, 1);
        assert_eq!(report.replayed_tables, 1);
        let (_, old_rows) = store.recovered_rows("Old").unwrap();
        let (_, new_rows) = store.recovered_rows("New").unwrap();
        assert_eq!(old_rows, table("Old", 300, 1).rows());
        assert_eq!(new_rows, table("New", 300, 2).rows());
        pages_bytes(dir.path())
    };
    let (_store, report) = Store::open(dir.path(), 32, None).unwrap();
    assert_eq!(report.replayed_tables, 1);
    assert_eq!(pages_bytes(dir.path()), first);
}

/// A torn final WAL record (half a record's bytes, as a crash mid-write
/// leaves) is detected by checksum and truncated — the tables committed
/// before it recover, the torn suffix is never replayed, and the
/// truncation converges (a third open sees a clean log).
#[test]
fn torn_final_wal_record_truncated_not_replayed() {
    let dir = TempDir::new("recovery-torn-tail");
    {
        let (store, _) = Store::open(dir.path(), 32, None).unwrap();
        store.load_table(&table("T", 200, 0)).unwrap();
    }
    // Append garbage that *starts* like a record (plausible length
    // field) but whose body bytes never made it.
    let wal_path = dir.path().join("wal.fj");
    let mut bytes = std::fs::read(&wal_path).unwrap();
    let intact_len = bytes.len() as u64;
    bytes.extend_from_slice(&200u32.to_le_bytes());
    bytes.extend_from_slice(&0xDEAD_BEEFu64.to_le_bytes());
    bytes.extend_from_slice(&[0x55; 60]);
    std::fs::write(&wal_path, &bytes).unwrap();

    let (store, report) = Store::open(dir.path(), 32, None).unwrap();
    assert!(report.torn_wal_tail);
    assert_eq!(report.replayed_tables, 1);
    assert_eq!(
        std::fs::metadata(&wal_path).unwrap().len(),
        intact_len,
        "torn tail must be truncated to the last valid boundary"
    );
    let (_, rows) = store.recovered_rows("T").unwrap();
    assert_eq!(rows, table("T", 200, 0).rows());
    drop(store);

    let (_, report) = Store::open(dir.path(), 32, None).unwrap();
    assert!(!report.torn_wal_tail, "truncation converges");
}

/// Torn page-file writes during load plus a crash: recovery heals every
/// page from the WAL, and doing so twice is byte-identical.
#[test]
fn torn_page_writes_heal_idempotently() {
    use std::sync::Arc;
    let dir = TempDir::new("recovery-torn-pages");
    let t = table("T", 900, 3);
    {
        let faults = Arc::new(fj_storage::FaultPlan::new(42).with_torn_page_writes(3));
        let (store, _) = Store::open(dir.path(), 32, Some(faults)).unwrap();
        store.load_table(&t).unwrap();
    }
    let first = {
        let (store, _) = Store::open(dir.path(), 32, None).unwrap();
        let (_, rows) = store.recovered_rows("T").unwrap();
        assert_eq!(rows, t.rows());
        pages_bytes(dir.path())
    };
    let (_store, _) = Store::open(dir.path(), 32, None).unwrap();
    assert_eq!(pages_bytes(dir.path()), first);
}

/// The WAL's commit marker is the visibility boundary: records after
/// the last commit are parseable but belong to no committed load, so
/// recovery ignores them without truncating them away.
#[test]
fn valid_but_uncommitted_suffix_is_ignored() {
    let dir = TempDir::new("recovery-uncommitted");
    {
        let (store, _) = Store::open(dir.path(), 32, None).unwrap();
        store.load_table(&table("A", 100, 0)).unwrap();
    }
    // Hand-append a valid PageImage with no meta and no commit.
    {
        let (wal, _) = fj_store::Wal::open(dir.path().join("wal.fj")).unwrap();
        wal.append([&WalRecord::PageImage {
            table_id: 77,
            page_no: 0,
            payload: vec![1, 2, 3],
        }])
        .unwrap();
        wal.commit(None).unwrap();
    }
    let (store, report) = Store::open(dir.path(), 32, None).unwrap();
    assert!(!report.torn_wal_tail, "valid records are not a torn tail");
    assert_eq!(report.replayed_tables, 1);
    assert_eq!(store.table_names(), vec!["A".to_string()]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized loads and crash points: whatever committed before the
    /// crash recovers byte-identically, twice.
    #[test]
    fn recovery_idempotent_on_random_tables(
        sizes in prop::collection::vec(0usize..120, 1..4),
        salt in 0i64..1000,
        with_checkpoint in 0u64..2,
    ) {
        let dir = TempDir::new("recovery-prop");
        let tables: Vec<Table> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| table(&format!("T{i}"), n, salt))
            .collect();
        {
            let (store, _) = Store::open(dir.path(), 16, None).unwrap();
            for (i, t) in tables.iter().enumerate() {
                store.load_table(t).unwrap();
                if with_checkpoint == 1 && i == 0 {
                    store.checkpoint().unwrap();
                }
            }
        }
        let first = {
            let (store, _) = Store::open(dir.path(), 16, None).unwrap();
            for t in &tables {
                let (_, rows) = store.recovered_rows(t.name()).unwrap();
                prop_assert_eq!(&rows, &t.rows().to_vec());
            }
            pages_bytes(dir.path())
        };
        let (_store, _) = Store::open(dir.path(), 16, None).unwrap();
        prop_assert_eq!(pages_bytes(dir.path()), first);
    }
}

// ---------------------------------------------------------------------
// WAL record fuzzing: round-trips, torn tails at every byte, and
// adversarial bytes. These drive the record codec through the public
// `Wal` API — the same path recovery takes — so every property here is
// a property of real replay, not of a test-only decoder. Records are
// built deterministically from drawn words, mixing load-path kinds
// (TableMeta, PageImage, LoadCommit) with mutation-path kinds
// (PageDelta, MutationCommit) in one sequence.
// ---------------------------------------------------------------------

fn meta_from(seed: u64) -> TableMeta {
    let n_cols = (seed % 4) as usize;
    TableMeta {
        table_id: (seed >> 8) as u32,
        name: format!("t{}", seed % 97),
        columns: (0..n_cols)
            .map(|i| {
                let w = seed.rotate_left(7 * (i as u32 + 1));
                let ty = [DataType::Int, DataType::Double, DataType::Str][(w % 3) as usize];
                (format!("c{i}"), ty, w.is_multiple_of(2))
            })
            .collect(),
        row_count: seed.wrapping_mul(0x9E37),
        version: seed % 1000,
    }
}

/// One record of any of the five kinds, chosen by `kind_word % 5` and
/// filled deterministically from `seed`.
fn record_from(kind_word: u64, seed: u64) -> WalRecord {
    let payload: Vec<u8> = (0..(seed % 48))
        .map(|i| (seed.rotate_left(i as u32) ^ i) as u8)
        .collect();
    match kind_word % 5 {
        0 => WalRecord::TableMeta(meta_from(seed)),
        1 => WalRecord::PageImage {
            table_id: seed as u32,
            page_no: (seed >> 32) as u32,
            payload,
        },
        2 => WalRecord::LoadCommit {
            table_id: seed as u32,
        },
        3 => WalRecord::PageDelta {
            table_id: seed as u32,
            page_no: (seed >> 32) as u32,
            payload,
        },
        _ => WalRecord::MutationCommit {
            meta: meta_from(seed),
            rows_affected: seed >> 16,
        },
    }
}

fn records_from(specs: &[(u64, u64)]) -> Vec<WalRecord> {
    specs.iter().map(|&(k, s)| record_from(k, s)).collect()
}

/// Frames `body` exactly as the WAL does: `[len u32][crc64 u64][body]`.
fn frame(body: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(12 + body.len());
    rec.extend_from_slice(&(body.len() as u32).to_le_bytes());
    rec.extend_from_slice(&crc64(body).to_le_bytes());
    rec.extend_from_slice(body);
    rec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every record kind, in any mix and order, survives a commit and a
    /// reopen bit-for-bit.
    #[test]
    fn wal_record_sequences_round_trip(
        specs in prop::collection::vec((0u64..5, 0u64..u64::MAX), 1..10),
    ) {
        let records = records_from(&specs);
        let dir = TempDir::new("wal-prop-rt");
        let path = dir.path().join("wal.fj");
        {
            let (wal, scan) = Wal::open(&path).unwrap();
            prop_assert!(scan.records.is_empty());
            for r in &records {
                wal.append([r]).unwrap();
            }
            wal.commit(None).unwrap();
        }
        let (_, scan) = Wal::open(&path).unwrap();
        prop_assert_eq!(scan.records, records);
        prop_assert!(!scan.torn_tail_truncated);
    }

    /// Cutting a committed log at *any* byte offset — mid-header,
    /// mid-crc, mid-body, or at a boundary — recovers a prefix of the
    /// original sequence, and a second open converges (idempotent).
    #[test]
    fn wal_torn_at_any_byte_recovers_a_committed_prefix(
        specs in prop::collection::vec((0u64..5, 0u64..u64::MAX), 1..8),
        cut_frac in 0.0f64..1.0,
    ) {
        let records = records_from(&specs);
        let dir = TempDir::new("wal-prop-torn");
        let path = dir.path().join("wal.fj");
        {
            let (wal, _) = Wal::open(&path).unwrap();
            for r in &records {
                wal.append([r]).unwrap();
            }
            wal.commit(None).unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        std::fs::write(&path, &bytes[..cut]).unwrap();

        let (_, scan) = Wal::open(&path).unwrap();
        let n = scan.records.len();
        prop_assert!(n <= records.len());
        prop_assert_eq!(&scan.records[..], &records[..n], "replay is a prefix");
        // The truncated file is exactly the framed bytes of that prefix.
        let boundary = std::fs::metadata(&path).unwrap().len() as usize;
        prop_assert_eq!(&std::fs::read(&path).unwrap()[..], &bytes[..boundary]);
        // Second open: clean log, same prefix, nothing more to cut.
        let (_, again) = Wal::open(&path).unwrap();
        prop_assert!(!again.torn_tail_truncated);
        prop_assert_eq!(again.records, scan.records);
    }

    /// A log file of arbitrary bytes never panics the scanner: it
    /// decodes whatever valid prefix exists and truncates the rest.
    #[test]
    fn wal_arbitrary_bytes_never_panic(
        junk in prop::collection::vec(0u64..256, 0..256),
    ) {
        let junk: Vec<u8> = junk.into_iter().map(|b| b as u8).collect();
        let dir = TempDir::new("wal-prop-junk");
        let path = dir.path().join("wal.fj");
        std::fs::write(&path, &junk).unwrap();
        let (_, scan) = Wal::open(&path).unwrap();
        let (_, again) = Wal::open(&path).unwrap();
        prop_assert!(!again.torn_tail_truncated, "open is idempotent");
        prop_assert_eq!(again.records, scan.records);
    }

    /// A correctly framed record whose *body* is garbage (CRC passes,
    /// decode fails) is a torn tail, not a panic — and records before
    /// it still replay. This reaches the per-kind decoders directly.
    #[test]
    fn wal_valid_frame_with_garbage_body_is_typed(
        body in prop::collection::vec(0u64..256, 0..48),
        kind_word in 0u64..5,
        seed in 0u64..u64::MAX,
    ) {
        let body: Vec<u8> = body.into_iter().map(|b| b as u8).collect();
        let good = record_from(kind_word, seed);
        let dir = TempDir::new("wal-prop-body");
        let path = dir.path().join("wal.fj");
        {
            let (wal, _) = Wal::open(&path).unwrap();
            wal.append([&good]).unwrap();
            wal.commit(None).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let good_len = bytes.len();
        bytes.extend_from_slice(&frame(&body));
        std::fs::write(&path, &bytes).unwrap();

        let (_, scan) = Wal::open(&path).unwrap();
        // The garbage body either happens to decode as a real record
        // (possible: e.g. a PageImage body is any bytes after kind 2)
        // or is cut; the good record always survives either way.
        prop_assert!(!scan.records.is_empty());
        prop_assert_eq!(&scan.records[0], &good);
        if scan.records.len() == 1 {
            prop_assert!(scan.torn_tail_truncated);
            prop_assert_eq!(
                std::fs::metadata(&path).unwrap().len() as usize,
                good_len,
                "cut back to the last valid record"
            );
        }
    }
}

/// An unknown record kind (6) behind a valid CRC is detected by the
/// body decoder, not the checksum — the log stops replay there.
#[test]
fn wal_unknown_record_kind_is_a_torn_tail() {
    let dir = TempDir::new("wal-unknown-kind");
    let path = dir.path().join("wal.fj");
    std::fs::write(&path, frame(&[6u8, 1, 2, 3])).unwrap();
    let (_, scan) = Wal::open(&path).unwrap();
    assert!(scan.records.is_empty());
    assert!(scan.torn_tail_truncated);
    assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
}
