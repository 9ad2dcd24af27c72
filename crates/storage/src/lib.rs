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
//!   indexes ([`Index`]),
//! * the ledger [`charge`]s — every page-I/O and tuple-op charge as a
//!   pure function of its shapes — and the shared [`CostLedger`] that
//!   books them with deterministic counts,
//! * per-column `stats` (cardinality, distinct counts, min/max,
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

mod backing;
pub mod bloom;
mod builder;
pub mod charge;
pub mod codec;
mod error;
mod fault;
mod index;
mod ledger;
mod mutation;
mod page;
mod schema;
mod stats;
mod table;
mod tempstore;
mod tuple;
mod value;

pub use backing::PageBacking;
pub use bloom::BloomFilter;
pub use builder::TableBuilder;
pub use error::StorageError;
pub use fault::{FaultPlan, PageWriteFault};
pub use index::{BTreeIndex, Index};
pub use ledger::{CostLedger, LedgerSnapshot, CPU_WEIGHT_DEFAULT};
pub use mutation::{Applied, Mutation};
pub use page::PageLayout;
pub use schema::{Column, Schema, SchemaRef};
pub use stats::{yao_distinct, ColumnStats, Histogram, TableStats};
pub use table::{Table, TableRef};
pub use tempstore::{SpillFile, SpillReader, TempStore, TempStoreStats, TempWriter};
pub use tuple::Tuple;
pub use value::{splitmix64, DataType, KeyHasher, Value};
