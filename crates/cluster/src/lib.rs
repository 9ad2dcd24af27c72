//! # fj-cluster
//!
//! A replica-aware client for a fleet of `fj-net` query servers: the
//! layer that keeps queries succeeding while individual replicas fail,
//! drain, or slow down.
//!
//! * **Health probing** — a background prober polls every replica's
//!   HEALTH frame on a seeded-jitter schedule and classifies it ready /
//!   degraded / draining / dead. Draining replicas answer probes but
//!   refuse queries, so the router stops routing to them *before*
//!   refusals bounce; dead replicas do not answer at all.
//! * **Circuit breakers** — a per-replica three-state breaker
//!   ([`CircuitBreaker`]: closed → open → half-open) stops repeated
//!   attempts against a failing replica between probe rounds.
//! * **Failover with a shared [`RetryBudget`]** — replica-local
//!   failures (transport errors, SHED, SHUTTING_DOWN, INTERNAL) fail
//!   over to the next candidate; every hop withdraws from a shared
//!   token bucket, and a dry bucket surfaces as the typed
//!   [`ClusterError::RetryBudgetExhausted`] rather than a retry storm.
//! * **Hedged requests** — optionally re-issue a query that has not
//!   answered within the observed latency quantile against a second
//!   replica; first reply wins, the loser is cancelled via the CANCEL
//!   frame, or verified byte-identical with [`HedgeConfig::verify`].
//!
//! ```
//! use fj_algebra::fixtures::{paper_catalog, paper_query};
//! use fj_cluster::{ClusterClient, ClusterConfig};
//! use fj_net::{Server, ServerConfig};
//!
//! let servers: Vec<_> = (0..3)
//!     .map(|_| Server::bind("127.0.0.1:0", paper_catalog(), ServerConfig::default()).unwrap())
//!     .collect();
//! let addrs: Vec<_> = servers.iter().map(|s| s.local_addr()).collect();
//! let cluster = ClusterClient::connect(&addrs, ClusterConfig::default()).unwrap();
//! let reply = cluster.query(&paper_query()).unwrap();
//! assert_eq!(reply.rows.len(), 2);
//! cluster.shutdown();
//! for s in servers {
//!     s.shutdown();
//! }
//! ```

pub mod breaker;
pub mod client;
pub mod config;
pub mod replicas;
pub mod shard;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use client::{ClusterClient, ClusterError, ClusterStats, HedgeOutcome, TaggedTrace};
pub use config::{ClusterConfig, ClusterConfigError, HedgeConfig};
pub use fj_net::RetryBudget;
pub use replicas::{CancelToken, ReplicaHealth, ReplicaStatus, Replicas, Routed};
pub use shard::ShardMap;
