//! Error type for the storage layer.

use crate::codec::CodecError;
use std::fmt;

/// Errors raised by the storage layer.
///
/// Storage errors are user-input errors (schema mismatches, unknown
/// columns) rather than internal invariant violations; internal
/// invariants are asserted with `debug_assert!`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A tuple's arity or value types do not match the table schema.
    SchemaMismatch {
        /// Name of the table the tuple was destined for.
        table: String,
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// A column name could not be resolved against a schema.
    UnknownColumn {
        /// The unresolved column name.
        column: String,
        /// Columns that were available.
        available: Vec<String>,
    },
    /// An index was requested over a column that does not exist.
    BadIndexColumn {
        /// The offending column index.
        index: usize,
        /// Number of columns in the schema.
        arity: usize,
    },
    /// Two schemas were combined with conflicting column names.
    DuplicateColumn(String),
    /// A page read failed because a seeded [`crate::FaultPlan`]
    /// injected an error at this I/O ordinal. Only ever produced by
    /// fault-aware access paths with an armed plan.
    InjectedFault {
        /// The 0-based page-read ordinal at which the fault fired.
        ordinal: u64,
    },
    /// A disk-backed page store (attached via [`crate::PageBacking`])
    /// failed to serve a physical page: I/O error, checksum mismatch,
    /// or a page missing from the file.
    Backing {
        /// Human-readable description of the failure.
        detail: String,
    },
    /// A temp spill file (see [`crate::TempStore`]) failed: I/O error,
    /// truncated frame, or checksum mismatch.
    TempFile {
        /// Human-readable description of the failure.
        detail: String,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::SchemaMismatch { table, detail } => {
                write!(f, "schema mismatch for table '{table}': {detail}")
            }
            StorageError::UnknownColumn { column, available } => {
                write!(
                    f,
                    "unknown column '{column}' (available: {})",
                    available.join(", ")
                )
            }
            StorageError::BadIndexColumn { index, arity } => {
                write!(f, "index column {index} out of range for arity {arity}")
            }
            StorageError::DuplicateColumn(name) => {
                write!(f, "duplicate column name '{name}' when combining schemas")
            }
            StorageError::InjectedFault { ordinal } => {
                write!(f, "injected I/O fault at page read {ordinal}")
            }
            StorageError::Backing { detail } => {
                write!(f, "page backing failure: {detail}")
            }
            StorageError::TempFile { detail } => {
                write!(f, "temp spill file failure: {detail}")
            }
        }
    }
}

impl std::error::Error for StorageError {}

/// The temp store is this crate's only codec user, so a codec failure
/// here is a spill-file failure.
impl From<CodecError> for StorageError {
    fn from(e: CodecError) -> StorageError {
        StorageError::TempFile {
            detail: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = StorageError::SchemaMismatch {
            table: "emp".into(),
            detail: "expected 3 values, got 2".into(),
        };
        assert!(e.to_string().contains("emp"));
        assert!(e.to_string().contains("expected 3"));

        let e = StorageError::UnknownColumn {
            column: "salry".into(),
            available: vec!["sal".into(), "age".into()],
        };
        assert!(e.to_string().contains("salry"));
        assert!(e.to_string().contains("sal, age"));

        let e = StorageError::BadIndexColumn { index: 5, arity: 3 };
        assert!(e.to_string().contains('5'));

        let e = StorageError::DuplicateColumn("did".into());
        assert!(e.to_string().contains("did"));
    }
}
