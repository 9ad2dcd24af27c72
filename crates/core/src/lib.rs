//! # fj-core
//!
//! The public facade of the `filterjoin` engine: a [`Database`] that
//! owns a catalog, optimizes [`fj_algebra::JoinQuery`]s with the
//! cost-based Filter Join optimizer, executes the chosen plans, and
//! reports both estimated and *measured* costs.
//!
//! ```
//! use fj_core::Database;
//! use fj_algebra::fixtures;
//!
//! // The paper's Figure 1 database and query.
//! let db = Database::with_catalog(fixtures::paper_catalog());
//! let result = db.execute(&fixtures::paper_query()).unwrap();
//! assert_eq!(result.rows.len(), 2);
//! // The EXPLAIN output shows whether the optimizer chose a Filter
//! // Join (i.e. whether magic-sets rewriting pays off here).
//! println!("{}", db.explain(&fixtures::paper_query()).unwrap());
//! ```

pub mod database;
pub mod explain;

pub use database::{Database, QueryResult, DEFAULT_MISESTIMATE_RATIO};

// Re-export the full stack so downstream users need only one
// dependency.
pub use fj_algebra as algebra;
pub use fj_algebra::{
    fixtures, Catalog, FromItem, JoinQuery, LogicalPlan, NetworkModel, Sips, SiteId, UdfRelation,
    ViewDef,
};
pub use fj_exec as exec;
pub use fj_exec::{ExecCtx, PhysPlan};
pub use fj_expr as expr;
pub use fj_expr::{col, lit, AggCall, AggFunc, Expr};
pub use fj_optimizer as optimizer;
pub use fj_optimizer::{
    CostParams, FilterJoinCost, OptimizedPlan, Optimizer, OptimizerConfig, PlanShape,
};
pub use fj_storage as storage;
pub use fj_storage::{
    BloomFilter, CostLedger, DataType, LedgerSnapshot, Schema, Table, TableBuilder, Tuple, Value,
};
pub use fj_trace as trace;
pub use fj_trace::{
    OpStats, QueryTrace, SubtreeIo, TraceCollector, TraceNode, TraceRing, TracedQuery,
};
pub use fj_udf as udf;
pub use fj_udf::{MemoUdf, TableFunction};
