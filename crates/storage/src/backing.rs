//! Physical page backing: the seam between ledger-accounted in-memory
//! tables and a real disk-backed page store.
//!
//! The engine's tables are immutable in-memory heaps whose scans charge
//! *simulated* page I/O to the [`crate::CostLedger`]. A [`PageBacking`]
//! attached to a table makes those charges physical: every logical page
//! an access path touches is also fetched through the backing (a buffer
//! pool over a checksummed page file in `fj-store`), so the simulated
//! ledger counts and the backing's physical read counts can be diffed —
//! the validation the paper's Table-1 formulas never got.
//!
//! The trait lives here (not in `fj-store`) so `fj-storage` stays free
//! of disk dependencies and the crates don't cycle: `fj-store`
//! implements the trait, tables only name it.

use crate::error::StorageError;
use std::fmt::Debug;

/// A physical source of table pages, consulted page-by-page alongside
/// the ledger charges of the fault-aware access paths.
///
/// Implementations are expected to cache: a hot page costs nothing
/// physical, a cold page costs exactly one disk read. Row *contents*
/// still come from the in-memory heap — the backing's job is to be the
/// physical ground truth those bytes were loaded from (and verified
/// against at load/recovery time), not a second row source on the
/// query path.
pub trait PageBacking: Debug + Send + Sync {
    /// Fetches logical page `page_no` of this table through the pool.
    ///
    /// Errors surface real storage failures: I/O errors, checksum
    /// mismatches, or a page missing from the file.
    fn read_page(&self, page_no: u64) -> Result<(), StorageError>;
}
