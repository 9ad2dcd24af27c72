//! # fj-dist — partitioned distributed execution
//!
//! Executes one join query across N `fj-net` servers. The coordinator
//! hash-partitions every base table across shards ([`DistCoordinator::deploy`]),
//! then per query reduces each table with a selectable shipping strategy
//! ([`ShipStrategy`]) — ship-whole, R* fetch-matches, SDD-1-style exact or
//! Bloom semijoin programs, or a Yannakakis full reducer for acyclic join
//! graphs — gathers survivors, and runs the final join locally so the
//! distributed answer is byte-identical to the serial oracle.
//!
//! Each strategy is a program (`ShipStrategy::program`): an ordered list
//! of exchanges — `Gather` an alias's rows (filtered or not), collect
//! one column's distinct `Keys` into a slot, or `Fetch` an alias key by
//! key. The coordinator runs a program one exchange at a time,
//! and [`predict_all`] walks the same program to price it with the
//! per-message/per-byte network model the paper's two-site simulation
//! uses, so a predicted message count is the requests actually sent.
//! `ShipStrategy::Auto` runs the cheapest prediction; the `dist-wire`
//! reproduce experiment reconciles predictions against bytes measured
//! on the wire.
//!
//! Fault tolerance: every partition is scattered to `replication`
//! replicas, and each per-partition exchange fails over down the replica
//! list on drain/shed/transport failures — one shard draining mid-query
//! is invisible to the client.

pub mod coordinator;
pub mod error;
pub mod plan;
pub mod strategy;

pub use coordinator::{DistConfig, DistCoordinator, DistHandle, DistResult, DistStats, PhaseHook};
pub use error::DistError;
pub use plan::{partition_table_name, DistPlan, ORD_COLUMN};
pub use strategy::{predict_all, CostPrediction, ShipStrategy};

pub use fj_cluster::ShardMap;
