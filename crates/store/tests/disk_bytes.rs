//! Totality of the disk decoders, mirroring `random_bytes_never_panic`
//! in `crates/net/tests/wire.rs`: arbitrary bytes as a page payload, a
//! `TableMeta`, a WAL record body or a manifest body yield a typed error
//! or a value — never a panic, never an aborted allocation. The WAL and
//! manifest bodies are framed with a valid checksum, so the bytes reach
//! the body decoders instead of stopping at the CRC.

use fj_storage::codec::{Le, Reader, Writer};
use fj_store::codec::decode_rows;
use fj_store::{Store, StoreError, TableMeta, TempDir, Wal};
use proptest::prelude::*;

fn framed(body: &[u8]) -> Vec<u8> {
    let mut w = Writer::<Le>::new();
    w.frame(body).unwrap();
    w.into_bytes()
}

proptest! {
    #[test]
    fn random_bytes_never_panic(
        bytes in prop::collection::vec(0u64..256, 0..200),
        arity in 1usize..8,
    ) {
        let bytes: Vec<u8> = bytes.iter().map(|b| *b as u8).collect();
        let _ = decode_rows(&bytes, arity);
        let _ = Reader::<Le>::decode_all(&bytes, TableMeta::decode);

        let dir = TempDir::new("disk-bytes");
        let wal = dir.path().join("wal.fj");
        std::fs::write(&wal, framed(&bytes)).unwrap();
        let (_, scan) = Wal::open(&wal).unwrap();
        prop_assert!(scan.records.len() <= 1);

        std::fs::write(dir.path().join("manifest.fj"), framed(&bytes)).unwrap();
        match Store::open(dir.path(), 4, None) {
            Ok(_) | Err(StoreError::Corrupt { .. }) => {}
            Err(other) => prop_assert!(false, "manifest: unexpected {}", other),
        }
    }
}

/// The lying row count that used to ask the allocator for 64 GiB.
#[test]
fn all_ones_row_count_is_corrupt() {
    assert!(matches!(
        decode_rows(&[0xff; 4], 1),
        Err(StoreError::Corrupt { .. })
    ));
}

/// A bool byte of 2, which the page decoder used to read as `true`.
#[test]
fn bool_byte_two_is_corrupt() {
    // One row: the Bool tag (4), then the byte 2.
    assert!(matches!(
        decode_rows(&[1, 0, 0, 0, 4, 2], 1),
        Err(StoreError::Corrupt { .. })
    ));
}
