//! # fj-expr
//!
//! Scalar expressions, predicates and aggregate functions for the
//! `filterjoin` engine.
//!
//! Expressions are built *by name* ([`Expr`], via the [`col`]/[`lit`]
//! helpers and operator methods), then **bound** against a
//! [`fj_storage::Schema`] into index-resolved [`BoundExpr`]s that
//! evaluate against tuples with SQL three-valued logic.
//!
//! The `analysis` module provides the predicate introspection the
//! optimizer needs: conjunct splitting, column-reference extraction, and
//! equi-join detection — the machinery behind choosing filter-set
//! attributes for a Filter Join.

mod agg;
mod analysis;
mod bound;
mod error;
mod expr;

pub use agg::{Accumulator, AggCall, AggFunc};
pub use analysis::{
    columns_of, conjoin, conjunct_refs, equi_join_key, equi_join_keys, for_each_column,
    split_conjuncts, EquiJoinKey,
};
pub use bound::BoundExpr;
pub use error::ExprError;
pub use expr::{col, lit, BinOp, Expr};
