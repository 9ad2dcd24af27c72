//! # fj-optimizer
//!
//! The cost-based query optimizer — the paper's primary contribution,
//! reproduced in full:
//!
//! * a **System-R bottom-up dynamic-programming enumerator**
//!   ([`enumerate`], §3.1) over left-deep join orders by default, or —
//!   under [`PlanShape::Bushy`] — the full bushy space via DPccp-style
//!   connected subgraph–complement splits of the join graph, choosing
//!   among block nested loops, index nested loops, hash join,
//!   sort-merge join — and the **Filter Join**;
//! * the **seven-component Filter Join cost formula** of Table 1
//!   ([`filter_join`], §4): `JoinCost_P + ProductionCost_P + ProjCost_F +
//!   AvailCost_F + FilterCost_Rk + AvailCost_Rk' + FinalJoinCost`, with
//!   the materialize-vs-recompute choice for the production set, the
//!   Yao projection estimate for the filter set, network terms for
//!   remote inners, and a Bloom (lossy) variant;
//! * the **search-space limitations** of §3.3: the production set is a
//!   prefix of the outer (Limitations 1+2, with a knob re-enabling all
//!   prefixes for the ablation), and a small constant number of filter
//!   sets per join (Limitation 3);
//! * the **parametric inner-restriction approximator** of §4.1–4.2
//!   ([`parametric`]): a small number of *equivalence classes* over
//!   filter-set selectivity, each probed once with a nested estimator
//!   invocation, then a straight-line fit for cardinality and a step
//!   table for cost — discharging Assumption 1 ("O(1) to estimate the
//!   cost of executing the Filter join").
//!
//! The optimizer emits [`fj_exec::PhysPlan`]s directly, and reports the
//! chosen SIPS so callers can also obtain the textual magic rewriting
//! (`fj_algebra::magic`) that the plan corresponds to.

pub mod cost;
pub mod enumerate;
pub mod error;
pub mod estimate;
pub mod filter_join;
pub mod fingerprint;
pub mod parametric;

pub use cost::{CostParams, ProbeShape};
pub use enumerate::{EstNode, OptimizedPlan, Optimizer, OptimizerConfig, PlanShape};
pub use error::OptError;
pub use estimate::{EstStats, PlanEstimator};
pub use filter_join::FilterJoinCost;
pub use fingerprint::{fingerprint, Digest};
pub use parametric::{ParametricEstimator, ParametricFit};
