//! Physical operator implementations.
//!
//! Each module implements one family of operators as free functions
//! `(ctx, inputs...) -> Result<Rel>`; [`crate::physical::PhysPlan`]
//! dispatches to them. Cost charges follow the System-R formulas: each
//! operator books a [`fj_storage::charge`] function evaluated at the shapes
//! it actually ran on (see each function's docs for which).

pub mod agg;
pub mod bloom;
pub mod exchange;
pub mod filter;
pub mod joins;
mod key_index;
pub mod scan;
pub mod ship;
pub mod sort;
pub mod spill;
pub mod temp;
