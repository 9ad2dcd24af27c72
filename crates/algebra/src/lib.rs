//! # fj-algebra
//!
//! The relational algebra of the `filterjoin` engine: logical plans, the
//! catalog of base and **virtual** relations, and the **magic-sets
//! rewriting** expressed over that algebra.
//!
//! The paper's central move is to treat magic-sets rewriting not as an
//! opaque source transformation but as the algebraic shadow of a *join
//! method* (the Filter Join). This crate supplies both halves of that
//! correspondence:
//!
//! * [`plan::LogicalPlan`] — the algebra, including `With`/`CteRef`
//!   nodes so a production set can be computed once and consumed twice
//!   (once to build the filter set, once in the final join), exactly the
//!   sharing structure of Figure 2;
//! * [`catalog::Catalog`] — base tables plus the three kinds of *virtual
//!   relation* of §1/§5: views ([`catalog::ViewDef`]), remote relations
//!   (site-placed tables under a [`catalog::NetworkModel`]), and
//!   user-defined relations ([`catalog::UdfRelation`]);
//! * [`query::JoinQuery`] — the canonical select-project-join block the
//!   System-R optimizer enumerates;
//! * [`magic::rewrite`] — given a [`magic::Sips`] (the sideways
//!   information passing strategy, i.e. the production set and filter
//!   attributes chosen by the optimizer), emits the rewritten query of
//!   Figure 2 as a plain logical plan.

pub mod catalog;
pub mod error;
pub mod fixtures;
pub mod magic;
pub mod plan;
pub mod query;
pub mod sql;

pub use catalog::{
    Catalog, NetworkModel, PartitionMap, RelationKind, SiteId, UdfRelation, ViewDef,
};
pub use error::AlgebraError;
pub use magic::{restricted_inner, rewrite, rewrite_parts, MagicParts, Sips};
pub use plan::{JoinKind, LogicalPlan, PlanRef};
pub use query::{FromItem, JoinQuery};
pub use sql::{render_figure2, render_plan};
