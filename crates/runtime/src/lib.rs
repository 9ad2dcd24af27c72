//! # fj-runtime
//!
//! A concurrent query service over the `filterjoin` engine: the layer
//! that turns the paper's single-shot optimize-and-execute pipeline
//! into a long-running, multi-client runtime.
//!
//! * [`QueryService`] — a fixed-size worker pool draining a **bounded
//!   submission queue**; a full queue blocks submitters (backpressure)
//!   rather than buffering without limit. Queries and mutations share
//!   the queue, one generic [`Ticket`], and one job runner.
//! * [`PlanCache`] — optimized plans keyed by the canonical
//!   [`fj_optimizer::fingerprint`] of (catalog epoch, logical query,
//!   optimizer config), with hit/miss accounting. Catalog mutations
//!   bump the epoch, so a stale plan can never be served.
//! * **Intra-query parallelism** — each worker can execute its query
//!   with parallel heap scans and hash-partitioned joins
//!   (`fj_exec::ops::parallel`); the atomic cost ledger keeps measured
//!   charges identical to serial execution.
//! * [`RuntimeMetrics`] — per-query latency histogram, throughput,
//!   cache hit rate, and queue depth.
//! * **Query governor** — every submission carries a shared
//!   [`Interrupt`] handle: deadlines, explicit [`Ticket::cancel`],
//!   and row/memory budgets all trip it, and operators poll it
//!   cooperatively so a query stops within a bounded number of tuples
//!   and returns [`RuntimeError::Interrupted`].
//! * **Self-healing workers** — a panic inside the engine is caught,
//!   reported on the query's ticket as
//!   [`RuntimeError::WorkerPanicked`], and the worker is respawned so
//!   pool capacity never degrades (`workers_replaced` counts these).
//! * **Fault injection** — [`ServiceConfig::fault_plan`] installs a
//!   seeded [`fj_storage::FaultPlan`] on the page-read path for
//!   deterministic chaos testing.
//! * **Memory governance & spilling** —
//!   [`ServiceConfig::spill_soft_watermark_pages`] arms a
//!   [`MemoryBroker`] and a [`TempStore`]: operators whose working set
//!   would breach the watermark spill to temp files (grace hash join,
//!   external merge sort, spillable aggregation) instead of dying on
//!   the memory budget, and the budget stays armed as a kill switch.
//!
//! ```
//! use fj_algebra::fixtures::{paper_catalog, paper_query};
//! use fj_runtime::{QueryService, ServiceConfig};
//!
//! // One worker makes the cache accounting deterministic here; real
//! // deployments use several (the default is 4).
//! let config = ServiceConfig { workers: 1, ..ServiceConfig::default() };
//! let service = QueryService::start(paper_catalog(), config);
//! let tickets: Vec<_> = (0..8)
//!     .map(|_| service.submit(paper_query()).unwrap())
//!     .collect();
//! for t in tickets {
//!     assert_eq!(t.wait().unwrap().rows.len(), 2);
//! }
//! let m = service.metrics();
//! assert_eq!(m.completed, 8);
//! assert_eq!(m.cache_hits, 7); // first execution optimizes, the rest hit
//! service.shutdown();
//! ```

pub mod cache;
pub mod metrics;
pub mod queue;
pub mod service;

pub use cache::{CacheStats, PlanCache};
pub use fj_exec::{Interrupt, InterruptReason, MemoryBroker, MemoryGrant, SpillSnapshot};
pub use fj_storage::FaultPlan;
pub use fj_storage::Mutation;
pub use fj_storage::{TempStore, TempStoreStats};
pub use fj_store::{CheckpointPhase, RecoveryReport, Store, StoreStats};
pub use fj_trace::{QueryTrace, TraceRing, TracedQuery};
pub use metrics::{
    Counter, LatencyHistogram, Metric, MetricsRecorder, RuntimeMetrics, HEALTH_KEYS,
    LATENCY_BUCKETS,
};
pub use queue::{BoundedQueue, PushError};
pub use service::{
    MutationStats, MutationTicket, QueryService, RuntimeError, ServiceConfig, StorageMode, Ticket,
};
