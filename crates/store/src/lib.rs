//! # fj-store
//!
//! The disk-backed storage layer of the `filterjoin` reproduction: a
//! checksummed page file, a clock-eviction buffer pool, a redo-only
//! write-ahead log with group fsync, checkpoints, and crash recovery.
//!
//! The rest of the engine keeps executing against in-memory heap
//! tables whose access paths charge *simulated* page I/O to the
//! [`fj_storage::CostLedger`] — that is what keeps results and fault
//! schedules byte-identical to the pure in-memory mode. What this crate
//! adds is the *physical* shadow of those charges: every logical page a
//! query touches is also fetched through a buffer pool backed by a real
//! page file (via [`fj_storage::PageBacking`]), so simulated and
//! physical page counts can be diffed, cold starts genuinely read the
//! disk, and a crashed replica can rebuild its catalog from its data
//! directory ([`Store::open`]) and rejoin a cluster with
//! byte-identical answers.
//!
//! The write path mirrors the read path's discipline: mutations
//! ([`Store::mutate`]) commit through redo-only WAL page deltas (one
//! group fsync per mutation, the atomic commit point), dirty pages live
//! in the pool until an eviction write-back or a fuzzy checkpoint
//! ([`Store::checkpoint`]) flushes them, and recovery replays exactly
//! the committed mutation prefix — uncommitted deltas are dropped,
//! torn page writes heal from the log.
//!
//! See DESIGN.md §"Persistence & recovery" and §"Mutation & crash
//! recovery" for the page format, WAL record layout,
//! checkpoint/recovery protocol, and eviction policy.

pub mod codec;
pub mod error;
pub mod page_file;
pub mod pool;
pub mod store;
pub mod testutil;
pub mod wal;

pub use codec::TableMeta;
pub use error::StoreError;
pub use fj_storage::codec::{crc64, Crc64};
pub use page_file::{PageFile, FRAME_SIZE, RECORD_HEADER};
pub use pool::{BufferPool, PageKey, PoolStats, WritebackFn};
pub use store::{CheckpointPhase, MutationResult, RecoveryReport, Store, StoreStats};
pub use testutil::TempDir;
pub use wal::{Wal, WalRecord, WalScan};
