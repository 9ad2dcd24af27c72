//! Error type for the disk-backed store.

use fj_storage::codec::CodecError;
use fj_storage::StorageError;
use std::fmt;

/// Errors raised by the page store, WAL, and buffer pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An operating-system I/O failure.
    Io {
        /// What the store was doing (e.g. `"open pages.fj"`).
        op: String,
        /// The OS error text.
        detail: String,
    },
    /// On-disk bytes failed validation: bad magic, bad version, or a
    /// checksum mismatch (torn or bit-rotted write).
    Corrupt {
        /// What was corrupt and where.
        detail: String,
    },
    /// A metadata-level inconsistency: duplicate table load, unknown
    /// table, or a meta record that contradicts the page file.
    Meta {
        /// Human-readable description.
        detail: String,
    },
    /// The buffer pool could not evict a frame (every frame pinned).
    PoolExhausted {
        /// Configured pool capacity in pages.
        capacity: usize,
    },
    /// A mutation was cancelled before its commit point. Nothing
    /// reached the WAL or the pool: restart-invisible by construction.
    Cancelled,
    /// Something the on-disk format cannot represent (a count or length
    /// past its field width, a ragged page), refused at encode time
    /// before any byte reached disk.
    Unencodable {
        /// What could not be encoded.
        detail: String,
    },
}

impl StoreError {
    /// Wraps an [`std::io::Error`] with the operation it interrupted.
    pub fn io(op: impl Into<String>, err: std::io::Error) -> StoreError {
        StoreError::Io {
            op: op.into(),
            detail: err.to_string(),
        }
    }

    /// An encode-side codec failure.
    pub fn unencodable(e: CodecError) -> StoreError {
        StoreError::Unencodable {
            detail: e.to_string(),
        }
    }
}

/// A decode-side codec failure: the bytes on disk are not what the
/// format allows.
impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> StoreError {
        StoreError::Corrupt {
            detail: e.to_string(),
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, detail } => write!(f, "i/o failure during {op}: {detail}"),
            StoreError::Corrupt { detail } => write!(f, "corrupt store data: {detail}"),
            StoreError::Meta { detail } => write!(f, "store metadata error: {detail}"),
            StoreError::PoolExhausted { capacity } => {
                write!(f, "buffer pool exhausted: all {capacity} frames pinned")
            }
            StoreError::Cancelled => {
                write!(f, "mutation cancelled before commit; no state changed")
            }
            StoreError::Unencodable { detail } => {
                write!(f, "not representable on disk: {detail}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Store failures surface on the query path as the storage layer's
/// [`StorageError::Backing`] — operators need no new error arm.
impl From<StoreError> for StorageError {
    fn from(e: StoreError) -> StorageError {
        StorageError::Backing {
            detail: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversion() {
        let e = StoreError::Corrupt {
            detail: "page 3 crc mismatch".into(),
        };
        assert!(e.to_string().contains("crc mismatch"));
        let s: StorageError = e.into();
        assert!(matches!(s, StorageError::Backing { .. }));
        assert!(s.to_string().contains("page 3"));

        let e = StoreError::io("open pages.fj", std::io::Error::other("boom"));
        assert!(e.to_string().contains("open pages.fj"));
        assert!(StoreError::PoolExhausted { capacity: 4 }
            .to_string()
            .contains('4'));
    }
}
