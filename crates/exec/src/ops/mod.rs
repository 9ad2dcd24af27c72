//! Physical operator implementations.
//!
//! Each module implements one family of operators as free functions
//! `(ctx, inputs...) -> Result<Rel>`; [`crate::physical::PhysPlan`]
//! dispatches to them. Cost charges follow the System-R formulas — see
//! each function's docs for the exact charge.

pub mod agg;
pub mod bloom;
pub mod exchange;
pub mod filter;
pub mod joins;
mod key_index;
pub mod parallel;
pub mod scan;
pub mod ship;
pub mod sort;
pub mod spill;
pub mod temp;
