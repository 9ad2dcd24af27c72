//! # fj-udf
//!
//! User-defined relations (§5.2): functions exposed as relations, plus
//! the execution strategies of Figure 6's last column — repeated
//! procedure invocation, **function caching (memoing)**, and
//! **consecutive procedure calls** driven by a filter set.
//!
//! > "User-defined functions and methods are special cases of virtual
//! > relations that contain a single tuple for each specific set of
//! > argument values. ... [With a Filter Join] there will be no
//! > duplicate function invocations, because of the elimination of
//! > duplicates in the filter set."
//!
//! The crate provides:
//!
//! * [`TableFunction`] — a UDF relation wrapping a Rust closure, with a
//!   declared invocation cost and optional finite domain;
//! * [`MemoUdf`] — the *function caching* wrapper: memoizes results per
//!   argument tuple, so repeated probes with duplicate arguments pay
//!   the invocation cost once.
//!
//! Every real invocation charges one `udf_calls` to the ledger, so a
//! ledger delta counts invocations (under [`MemoUdf`], the misses).

pub mod function;
pub mod memo;

pub use function::TableFunction;
pub use memo::MemoUdf;
