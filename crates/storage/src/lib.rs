//! # fj-storage
//!
//! The storage substrate for the `filterjoin` reproduction of *"Filter
//! Joins: Cost-Based Optimization for Magic Sets"* (Seshadri, Hellerstein,
//! Ramakrishnan, 1995; SIGMOD '96 as *"Cost-Based Optimization for Magic:
//! Algebra and Implementation"*).
//!
//! This crate provides everything the paper's System-R-style DBMS assumes
//! underneath the optimizer:
//!
//! * typed [`Value`]s, [`Schema`]s and [`Tuple`]s,
//! * paged in-memory heap [`Table`]s and their hash and ordered
//!   indexes ([`HashIndex`], [`BTreeIndex`]),
//! * the ledger [`charge`]s — every page-I/O and tuple-op charge as a
//!   pure function of its shapes — and the shared [`CostLedger`] that
//!   books them with deterministic counts,
//! * per-column [`stats`] (cardinality, distinct counts, min/max,
//!   equi-depth histograms) feeding the optimizer's selectivity model,
//! * [`bloom`] filters implementing the paper's *lossy filter sets*,
//! * the byte [`codec`] the wire, page payloads, WAL, manifest and
//!   spill files share.
//!
//! The engine is in-memory but **I/O-accounted**: every operator charges
//! the ledger for the page reads/writes, tuple operations, and network
//! bytes it would incur on the paper's hardware. All of the paper's claims
//! are about relative costs as predicted by such page/CPU/network
//! formulas, so a deterministic cost ledger reproduces exactly the
//! quantities the formulas reason about (see `DESIGN.md`, substitutions).

pub mod backing;
pub mod bloom;
pub mod builder;
pub mod charge;
pub mod codec;
pub mod error;
pub mod fault;
mod index;
mod ledger;
pub mod mutation;
pub mod page;
pub mod schema;
pub mod stats;
mod table;
pub mod tempstore;
pub mod tuple;
pub mod value;

pub use backing::PageBacking;
pub use bloom::BloomFilter;
pub use builder::TableBuilder;
pub use error::StorageError;
pub use fault::{FaultPlan, PageWriteFault};
pub use index::{BTreeIndex, HashIndex, Index};
pub use ledger::{CostLedger, LedgerSnapshot, CPU_WEIGHT_DEFAULT, TUPLE_OPS_PER_PAGE};
pub use mutation::{Applied, Mutation};
pub use page::{page_count, PageLayout, PAGE_SIZE};
pub use schema::{Column, Schema, SchemaRef};
pub use stats::yao_distinct;
pub use stats::{ColumnStats, Histogram, TableStats};
pub use table::{Table, TableRef};
pub use tempstore::{SpillFile, SpillReader, TempStore, TempStoreStats, TempWriter};
pub use tuple::Tuple;
pub use value::{splitmix64, DataType, KeyHasher, Value};
