//! # filterjoin
//!
//! A complete, from-scratch reproduction of **"Filter Joins: Cost-Based
//! Optimization for Magic Sets"** (Seshadri, Hellerstein, Ramakrishnan;
//! TR #1273, 1995 — published at SIGMOD 1996 as *"Cost-Based
//! Optimization for Magic: Algebra and Implementation"*).
//!
//! This umbrella crate re-exports the full engine stack; see
//! [`fj_core`] for the primary API ([`Database`]), `README.md` for the
//! tour, `DESIGN.md` for the system inventory, and `EXPERIMENTS.md` for
//! the paper-vs-measured record of every reproduced figure and table.
//!
//! ```
//! use filterjoin::{fixtures, Database};
//!
//! let db = Database::with_catalog(fixtures::paper_catalog());
//! let result = db.execute(&fixtures::paper_query()).unwrap();
//! assert_eq!(result.rows.len(), 2);
//! ```

pub use fj_core::*;

/// The concurrent query-service runtime: worker pool, plan cache,
/// intra-query parallelism, cooperative cancellation, worker
/// self-healing, metrics, the disk-backed storage mode, the crash-safe
/// mutation path (WAL page deltas + fuzzy checkpoints), and graceful
/// degradation under memory pressure (memory broker + spilling
/// operators through a fault-injectable temp store). See
/// [`fj_runtime`].
pub use fj_runtime;
pub use fj_runtime::{
    CheckpointPhase, FaultPlan, InterruptReason, Mutation, QueryService, RuntimeError,
    ServiceConfig, StorageMode, Store,
};

/// The network boundary: TCP query server + blocking client over a
/// versioned binary wire protocol, with deadlines, cancellation, typed
/// retryable load shedding, and graceful drain. See [`fj_net`].
pub use fj_net;
pub use fj_net::{Client, ErrorCode, NetError, QueryOptions, Server, ServerConfig};

/// The replica tier: a cluster client fronting several servers with
/// health probes, per-replica circuit breakers, failover under a shared
/// retry budget, and hedged requests. See [`fj_cluster`].
pub use fj_cluster;
pub use fj_cluster::{ClusterClient, ClusterConfig, ShardMap};

/// Partitioned distributed execution: a coordinator that
/// hash-partitions base tables over `fj-net` shards, reduces them per
/// query with costed shipping strategies (fetch-matches, semijoin
/// programs, Bloom filters, a Yannakakis full reducer), and gathers a
/// result byte-identical to the serial oracle. See [`fj_dist`].
pub use fj_dist;
pub use fj_dist::{DistConfig, DistCoordinator, DistError, ShipStrategy};
