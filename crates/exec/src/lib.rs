//! # fj-exec
//!
//! The execution engine: materialising, operator-at-a-time physical
//! operators over the paged storage layer — each a function from whole
//! input relations to a whole output relation of shared, immutable
//! rows — with deterministic cost accounting.
//!
//! The crate provides:
//!
//! * [`context::ExecCtx`] — catalog + cost ledger + temp-table registry
//!   (the runtime home of materialized production sets and filter sets)
//!   + the buffer-memory parameter that drives join/sort I/O formulas;
//! * [`physical::PhysPlan`] — the physical algebra, including every join
//!   method of Figure 6's rows: **repeated probe** (index nested loops,
//!   UDF probing with and without caching), **full computation** (block
//!   nested loops, hash join, sort-merge), the **filter join** (semi-join
//!   restriction by a distinct filter set), and the **lossy filter**
//!   (Bloom); plus `Ship` for crossing sites in a distributed plan;
//! * [`lower`] — a heuristic (rule-based) lowering of logical plans with
//!   predicate pushdown and hash-join detection, used to execute view
//!   bodies and magic-rewritten plans directly; the cost-based System-R
//!   planner in `fj-optimizer` emits `PhysPlan`s itself.
//!
//! The engine executes in memory but books on the
//! [`fj_storage::CostLedger`] exactly the page I/Os the System-R cost
//! formulas prescribe (e.g. a block-nested-loops join really charges
//! `P_outer + ⌈P_outer/(M−2)⌉·P_inner`): each operator books a
//! [`fj_storage::charge`] function at the shapes it ran on, the same
//! function the optimizer's cost model evaluates at estimated shapes,
//! so measured ledger costs are directly comparable with its
//! predictions.

mod broker;
pub mod context;
mod error;
mod interrupt;
pub mod lower;
pub mod ops;
mod physical;

pub use broker::{MemoryBroker, MemoryGrant};
pub use context::{ExecCtx, PoolProbe, SpillCtx, SpillSnapshot, TempTable, MIN_MEMORY_PAGES};
pub use error::ExecError;
pub use interrupt::{Interrupt, InterruptReason};
pub use physical::{PhysPlan, Rel, Rows, TempStep};
