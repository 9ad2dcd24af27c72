//! The concurrent query service: a fixed worker pool draining a bounded
//! submission queue, executing against an immutable shared catalog
//! snapshot with a fingerprint-keyed plan cache.
//!
//! A request — query or mutation — has one lifecycle here: `enqueue`
//! (the only way into the queue, behind every `submit*`/`try_submit*`)
//! hands back a [`Ticket<T>`](Ticket), a worker pops the job, and
//! `run_job` takes it to its reply — the queued-cancel check,
//! `in_flight`, the panic guard, respawn-before-reply and the metrics
//! exist once, for both kinds.
//!
//! Concurrency model (see `DESIGN.md`, "Runtime & concurrency model"):
//!
//! * the catalog snapshot is an `Arc<Catalog>` behind an `RwLock` — a
//!   worker clones the `Arc` once per query, so queries in flight keep
//!   executing against the snapshot they started with even while a new
//!   catalog is installed;
//! * plans are cached under the [`fj_optimizer::fingerprint()`] of
//!   (catalog epoch, query, optimizer config) — installing a catalog
//!   bumps the epoch, so stale plans can never be served;
//! * the cost ledger is per-query (a fresh [`ExecCtx`] per job), so
//!   measured charges reconcile with the System-R formulas exactly as
//!   in a direct `Database` call;
//! * one buffer size `M` per service: [`ServiceConfig::memory_pages`]
//!   is written into every query's optimizer config before the plan is
//!   fingerprinted, so a plan is priced with the `M` it runs with.

use crate::cache::PlanCache;
use crate::metrics::{Counter, MetricsRecorder, RuntimeMetrics};
use crate::queue::{BoundedQueue, PushError};
use fj_algebra::{Catalog, JoinQuery, RelationKind, SiteId};
use fj_core::QueryResult;
use fj_exec::{ExecCtx, ExecError, Interrupt, InterruptReason, MemoryBroker, PoolProbe, SpillCtx};
use fj_optimizer::{fingerprint, OptError, Optimizer, OptimizerConfig};
use fj_storage::{Applied, FaultPlan, Mutation, Table, TableRef, TempStore, TempStoreStats};
use fj_store::{RecoveryReport, Store, StoreError, StoreStats};
use fj_trace::{TraceCollector, TraceRing, TracedQuery};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Service-level failures (distinct from per-query optimizer/executor
/// errors, which arrive as [`RuntimeError::Query`]).
#[derive(Debug)]
pub enum RuntimeError {
    /// The optimizer or executor rejected the query.
    Query(OptError),
    /// The query was interrupted mid-execution: cancelled, deadlined,
    /// or stopped by a governor budget. The worker that ran it is free
    /// and accepting new work.
    Interrupted(InterruptReason),
    /// A non-blocking submit found the queue at capacity.
    QueueFull,
    /// The service is shutting down and accepts no new queries.
    ShuttingDown,
    /// The worker executing this query disappeared without replying.
    WorkerLost,
    /// The worker panicked while executing this query. The pool has
    /// already respawned a replacement (see `workers_replaced` in the
    /// metrics); the panic message is preserved for diagnosis.
    WorkerPanicked(String),
    /// [`Ticket::wait_timeout`] expired. The expiry also trips the
    /// query's interrupt, so the abandoned query stops cooperatively
    /// and its worker frees up.
    DeadlineExceeded,
    /// [`ServiceConfig::validate`] rejected a zero-sized knob.
    InvalidConfig(String),
    /// Disk-backed storage failed: the data directory could not be
    /// opened/recovered, a load did not persist, or a recovered table's
    /// schema contradicts the catalog template.
    Storage(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Query(e) => write!(f, "query failed: {e}"),
            RuntimeError::Interrupted(reason) => write!(f, "query interrupted: {reason}"),
            RuntimeError::QueueFull => write!(f, "submission queue is full"),
            RuntimeError::ShuttingDown => write!(f, "query service is shutting down"),
            RuntimeError::WorkerLost => write!(f, "worker thread lost before replying"),
            RuntimeError::WorkerPanicked(msg) => {
                write!(f, "worker panicked while executing this query: {msg}")
            }
            RuntimeError::DeadlineExceeded => {
                write!(f, "deadline expired before the query finished")
            }
            RuntimeError::InvalidConfig(what) => write!(f, "invalid service config: {what}"),
            RuntimeError::Storage(what) => write!(f, "storage failure: {what}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<OptError> for RuntimeError {
    fn from(e: OptError) -> Self {
        match e {
            // An interrupt surfacing through the executor is a
            // first-class runtime outcome, not a query defect.
            OptError::Exec(ExecError::Interrupted(reason)) => RuntimeError::Interrupted(reason),
            other => RuntimeError::Query(other),
        }
    }
}

/// Where a service's base tables physically live.
#[derive(Debug, Clone, Default)]
pub enum StorageMode {
    /// Pure in-memory heaps (the default): page I/O is *simulated*
    /// through the cost ledger only. Byte-identical to the engine's
    /// behavior before disk backing existed.
    #[default]
    InMemory,
    /// Disk-backed: the catalog is reconciled with an [`fj_store::Store`]
    /// data directory at startup (crash recovery included), every base
    /// table's pages are physically read through a buffer pool, and the
    /// service can restart from the directory alone. Execution still
    /// runs against the in-memory rows, so results and fault schedules
    /// stay byte-identical to [`StorageMode::InMemory`] — the disk adds
    /// a physical shadow of the simulated I/O, not a new semantics.
    Disk {
        /// The data directory (created on first use).
        dir: PathBuf,
        /// Buffer-pool capacity in pages. Clamped to ≥ 1.
        pool_pages: usize,
    },
}

/// Plans the service's plan cache holds.
pub const PLAN_CACHE_CAPACITY: usize = 1024;

/// Recent per-query traces [`QueryService::recent_traces`] keeps.
pub const TRACE_RING_CAPACITY: usize = 16;

/// Tuning knobs for [`QueryService::start`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads draining the submission queue (inter-query
    /// parallelism). Clamped to ≥1.
    pub workers: usize,
    /// Bounded submission-queue capacity; a full queue blocks
    /// `submit` (backpressure) and fails `try_submit_with_options`.
    pub queue_capacity: usize,
    /// Buffer memory in pages: the cost model's `M` and the executor's.
    /// It overrides `params.memory_pages` of every submitted optimizer
    /// config, so plans are priced with the memory they run with. At
    /// least [`fj_exec::MIN_MEMORY_PAGES`].
    pub memory_pages: u64,
    /// Default optimizer configuration for submitted queries.
    pub optimizer: OptimizerConfig,
    /// Governor: per-query cap on materialized pages (temps, sort
    /// runs, grace partitions; `None` = unlimited). A breach interrupts
    /// with [`InterruptReason::MemoryBudget`].
    pub memory_budget_pages: Option<u64>,
    /// Seeded fault plan injected into every query's storage access
    /// paths (`None` = no injection). Test/chaos tooling only.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Physical storage mode: in-memory (the default) or disk-backed
    /// with a data directory and buffer pool (see [`StorageMode`]).
    pub storage: StorageMode,
    /// Memory-broker soft watermark in pages — the switch that turns
    /// spilling on. `Some(w)`: operators whose inputs exceed
    /// `memory_pages` (or whose broker reservation is denied because
    /// concurrent queries already hold `w` pages) partition to temp
    /// files instead of tripping [`InterruptReason::MemoryBudget`].
    /// `None` (the default): the pre-spilling behavior, byte-identical
    /// charges and all.
    pub spill_soft_watermark_pages: Option<u64>,
    /// Directory for spill temp files (`None` = a fresh scratch
    /// directory, removed when the service stops). Only meaningful
    /// when spilling is on.
    pub spill_dir: Option<PathBuf>,
    /// Bound on recursive grace-join repartitioning depth. Clamped to
    /// ≥ 1. Only meaningful when spilling is on.
    pub spill_max_recursion_depth: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            queue_capacity: 64,
            memory_pages: fj_exec::context::DEFAULT_MEMORY_PAGES,
            optimizer: OptimizerConfig::default(),
            memory_budget_pages: None,
            fault_plan: None,
            storage: StorageMode::InMemory,
            spill_soft_watermark_pages: None,
            spill_dir: None,
            spill_max_recursion_depth: fj_exec::DEFAULT_SPILL_MAX_DEPTH,
        }
    }
}

impl ServiceConfig {
    /// Strict validation: every sizing knob must be non-zero, and
    /// `memory_pages` at least [`fj_exec::MIN_MEMORY_PAGES`]. This is
    /// the check front ends (e.g. `fj-net`) should run on
    /// operator-supplied configuration before starting a service.
    pub fn validate(&self) -> Result<(), RuntimeError> {
        let reject = |what: &str| Err(RuntimeError::InvalidConfig(format!("{what} must be ≥ 1")));
        if self.workers == 0 {
            return reject("workers");
        }
        if self.queue_capacity == 0 {
            return reject("queue_capacity");
        }
        if self.memory_pages < fj_exec::MIN_MEMORY_PAGES {
            return Err(RuntimeError::InvalidConfig(format!(
                "memory_pages must be ≥ {}",
                fj_exec::MIN_MEMORY_PAGES
            )));
        }
        if let StorageMode::Disk { pool_pages, .. } = &self.storage {
            if *pool_pages == 0 {
                return reject("storage pool_pages");
            }
        }
        if self.spill_soft_watermark_pages == Some(0) {
            return reject("spill_soft_watermark_pages");
        }
        if self.spill_max_recursion_depth == 0 {
            return reject("spill_max_recursion_depth");
        }
        Ok(())
    }

    /// The lenient counterpart of [`ServiceConfig::validate`]: clamps
    /// every zero-sized knob up to 1, and `memory_pages` up to
    /// [`fj_exec::MIN_MEMORY_PAGES`]. [`QueryService::start`] applies
    /// this — it is the one place where clamping happens, so a
    /// `ServiceConfig { workers: 0, .. }` still yields a working
    /// single-worker service rather than a deadlocked one.
    pub fn normalized(mut self) -> ServiceConfig {
        self.workers = self.workers.max(1);
        self.queue_capacity = self.queue_capacity.max(1);
        self.memory_pages = self.memory_pages.max(fj_exec::MIN_MEMORY_PAGES);
        if let StorageMode::Disk { pool_pages, .. } = &mut self.storage {
            *pool_pages = (*pool_pages).max(1);
        }
        if let Some(w) = &mut self.spill_soft_watermark_pages {
            *w = (*w).max(1);
        }
        self.spill_max_recursion_depth = self.spill_max_recursion_depth.max(1);
        self
    }
}

/// One unit of work in the submission queue: a query or a mutation.
/// Both kinds share the worker pool, the interrupt machinery, the
/// queue's admission control, and one job runner ([`run_job`]).
enum Job {
    Query(Task<QuerySpec, QueryResult>),
    Mutation(Task<Mutation, MutationStats>),
}

/// A queued request: what to do, the flag that stops it, and where
/// the outcome goes.
struct Task<W, T> {
    work: W,
    interrupt: Interrupt,
    reply: mpsc::Sender<Result<T, RuntimeError>>,
}

struct QuerySpec {
    query: JoinQuery,
    config: OptimizerConfig,
    collect_trace: bool,
}

/// What a committed mutation changed, as reported on its
/// [`MutationTicket`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutationStats {
    /// Rows inserted, updated, or deleted.
    pub rows_affected: u64,
    /// The table's post-mutation row count.
    pub row_count: u64,
    /// The table's post-mutation data version (the store's
    /// log-structured version in disk mode, the catalog's
    /// [`relation_version`](Catalog::relation_version) in memory).
    pub version: u64,
}

struct Shared {
    queue: BoundedQueue<Job>,
    catalog: RwLock<Arc<Catalog>>,
    cache: PlanCache,
    metrics: MetricsRecorder,
    /// Bounded ring of recent per-query traces (traced queries only).
    traces: TraceRing,
    in_flight: AtomicUsize,
    /// Live worker JoinHandles. Behind a mutex because a panicking
    /// worker pushes its own replacement's handle before exiting.
    worker_handles: Mutex<Vec<JoinHandle<()>>>,
    /// Monotonic id source for replacement-worker thread names.
    worker_seq: AtomicUsize,
    /// Serializes catalog writers — mutations and catalog installs —
    /// across both storage modes: a mutation's read-apply-install
    /// window must not interleave with another writer's. Queries and
    /// checkpoints are unaffected.
    mutation_lock: Mutex<()>,
    /// The disk store behind the catalog's page backings
    /// (`None` = in-memory mode).
    store: Option<Arc<Store>>,
    /// Spilling infrastructure shared by every query: one temp store
    /// (RAII — deleting the scratch directory on shutdown) and one
    /// memory broker arbitrating the soft watermark across concurrent
    /// queries. `None` = spilling off.
    spill: Option<SpillShared>,
    /// What [`Store::open`] found at startup (disk mode only).
    recovery: Option<RecoveryReport>,
    cfg: ServiceConfig,
    started: Instant,
}

impl Shared {
    fn snapshot(&self) -> Arc<Catalog> {
        Arc::clone(&self.catalog.read().unwrap_or_else(|e| e.into_inner()))
    }
}

/// The service-wide spilling state (see [`ServiceConfig`]'s spill
/// knobs).
struct SpillShared {
    temp: Arc<TempStore>,
    broker: Arc<MemoryBroker>,
}

/// A pending request — a query by default, a mutation as
/// [`MutationTicket`]: redeem with [`Ticket::wait`], abort with
/// [`Ticket::cancel`]. Both kinds run under the same interrupt
/// machinery; for a mutation, an interrupt observed before the WAL
/// commit fsync aborts it with **zero** persistent or in-memory
/// effects, and one observed after it loses the race — the mutation
/// commits normally and the ticket carries its result.
#[derive(Debug)]
pub struct Ticket<T = QueryResult> {
    rx: mpsc::Receiver<Result<T, RuntimeError>>,
    interrupt: Interrupt,
}

/// A pending mutation; see [`Ticket`].
pub type MutationTicket = Ticket<MutationStats>;

impl<T> Ticket<T> {
    /// Cancels the request: trips its interrupt with
    /// [`InterruptReason::Cancelled`]. If the request is still queued
    /// it will never execute (the worker replies `Interrupted` on
    /// dequeue); if it is mid-execution it stops within a bounded
    /// number of tuples. Returns `true` if this call tripped the flag
    /// first (`false` if the request was already interrupted for
    /// another reason). The reply still arrives — `wait` after `cancel`
    /// returns either the completed result (the request won the race)
    /// or [`RuntimeError::Interrupted`], never both.
    pub fn cancel(&self) -> bool {
        self.interrupt.trip(InterruptReason::Cancelled)
    }

    /// A clone of the request's interrupt handle, for callers that
    /// need to trip it from another thread or with a different reason
    /// (the `fj-net` server trips [`InterruptReason::Deadline`] from
    /// its connection handler).
    pub fn interrupt_handle(&self) -> Interrupt {
        self.interrupt.clone()
    }

    /// Blocks until the worker finishes this request.
    pub fn wait(self) -> Result<T, RuntimeError> {
        self.rx.recv().unwrap_or(Err(RuntimeError::WorkerLost))
    }

    /// Blocks at most `timeout` for the worker to finish this request.
    ///
    /// Expiry **cancels the request**: the interrupt trips with
    /// [`InterruptReason::Deadline`], so an abandoned query stops
    /// within a bounded number of tuples (an abandoned uncommitted
    /// mutation aborts cleanly) and its worker frees up — the wait is
    /// never a leak. The caller gets
    /// [`RuntimeError::DeadlineExceeded`] immediately; the worker's
    /// own `Interrupted` reply goes to the dropped channel.
    pub fn wait_timeout(self, timeout: Duration) -> Result<T, RuntimeError> {
        self.poll(timeout).unwrap_or_else(|| {
            self.interrupt.trip(InterruptReason::Deadline);
            Err(RuntimeError::DeadlineExceeded)
        })
    }

    /// Non-consuming poll: waits at most `timeout` for the reply.
    /// `None` means the request is still running (the ticket remains
    /// redeemable) — the primitive for callers that interleave waiting
    /// with other work, like the `fj-net` connection handler watching
    /// for CANCEL frames.
    pub fn poll(&self, timeout: Duration) -> Option<Result<T, RuntimeError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(reply) => Some(reply),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(RuntimeError::WorkerLost)),
        }
    }
}

/// The concurrent query service; see the module docs.
pub struct QueryService {
    shared: Arc<Shared>,
}

impl fmt::Debug for QueryService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryService")
            .field("workers", &self.shared.cfg.workers)
            .field("queue_depth", &self.shared.queue.len())
            .finish()
    }
}

impl QueryService {
    /// Starts the worker pool over `catalog`. The config is passed
    /// through [`ServiceConfig::normalized`] first, so zero-sized knobs
    /// are clamped to 1 (use [`ServiceConfig::validate`] beforehand to
    /// reject them instead).
    pub fn start(catalog: Catalog, config: ServiceConfig) -> QueryService {
        match QueryService::try_start(catalog, config) {
            Ok(service) => service,
            Err(e) => panic!("failed to start query service: {e}"),
        }
    }

    /// Fallible counterpart of [`QueryService::start`] — the path for
    /// disk-backed services, where opening or recovering the data
    /// directory can fail ([`RuntimeError::Storage`]). In-memory
    /// startup never errors.
    ///
    /// In [`StorageMode::Disk`], `catalog` acts as a *template*: tables
    /// already committed in the data directory are recovered from disk
    /// (replacing the template's copy; their schemas must match),
    /// tables the store has never seen are loaded into it, and every
    /// base table is attached to the store's buffer pool so queries
    /// physically read pages through it.
    pub fn try_start(
        catalog: Catalog,
        config: ServiceConfig,
    ) -> Result<QueryService, RuntimeError> {
        let config = config.normalized();
        let (catalog, store, recovery) = match &config.storage {
            StorageMode::InMemory => (catalog, None, None),
            StorageMode::Disk { dir, pool_pages } => {
                let (store, report) = Store::open(dir, *pool_pages, config.fault_plan.clone())
                    .map_err(|e| RuntimeError::Storage(e.to_string()))?;
                let store = Arc::new(store);
                let catalog = build_disk_catalog(catalog, &store)?;
                (catalog, Some(store), Some(report))
            }
        };
        let spill = match config.spill_soft_watermark_pages {
            Some(watermark) => {
                let temp = match &config.spill_dir {
                    Some(dir) => TempStore::open(dir),
                    None => TempStore::open_scratch(),
                }
                .map_err(|e| RuntimeError::Storage(e.to_string()))?;
                let temp = match &config.fault_plan {
                    Some(faults) => temp.with_faults(Arc::clone(faults)),
                    None => temp,
                };
                Some(SpillShared {
                    temp: Arc::new(temp),
                    broker: MemoryBroker::new(watermark),
                })
            }
            None => None,
        };
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(config.queue_capacity),
            catalog: RwLock::new(Arc::new(catalog)),
            cache: PlanCache::new(PLAN_CACHE_CAPACITY),
            metrics: MetricsRecorder::default(),
            traces: TraceRing::new(TRACE_RING_CAPACITY),
            in_flight: AtomicUsize::new(0),
            worker_handles: Mutex::new(Vec::new()),
            worker_seq: AtomicUsize::new(config.workers),
            mutation_lock: Mutex::new(()),
            store,
            spill,
            recovery,
            cfg: config.clone(),
            started: Instant::now(),
        });
        for i in 0..shared.cfg.workers {
            spawn_worker(&shared, format!("fj-worker-{i}"));
        }
        Ok(QueryService { shared })
    }

    /// Enqueues a query under the service's default optimizer config.
    /// Blocks while the queue is full — that is the backpressure.
    pub fn submit(&self, query: JoinQuery) -> Result<Ticket, RuntimeError> {
        self.submit_with_options(query, self.shared.cfg.optimizer, false)
    }

    /// Blocking submit under an overridden optimizer config (cached
    /// separately: the config is part of the plan fingerprint), and
    /// whether this query records a per-operator trace. Tracing is off
    /// unless a submission asks for it; an untraced query takes the
    /// executor's zero-overhead path.
    pub fn submit_with_options(
        &self,
        query: JoinQuery,
        config: OptimizerConfig,
        collect_trace: bool,
    ) -> Result<Ticket, RuntimeError> {
        self.enqueue(
            Job::Query,
            QuerySpec {
                query,
                config,
                collect_trace,
            },
            true,
        )
    }

    /// Non-blocking submit: fails with [`RuntimeError::QueueFull`]
    /// instead of applying backpressure — the admission-control path
    /// network front ends use, so a full queue is reported as a
    /// retryable error at the edge instead of blocking a connection
    /// handler. `collect_trace` is the query's TRACE flag.
    pub fn try_submit_with_options(
        &self,
        query: JoinQuery,
        config: OptimizerConfig,
        collect_trace: bool,
    ) -> Result<Ticket, RuntimeError> {
        self.enqueue(
            Job::Query,
            QuerySpec {
                query,
                config,
                collect_trace,
            },
            false,
        )
    }

    /// The one way into the submission queue, behind every `submit*`
    /// (`block`: wait for room — the backpressure) and `try_submit*`
    /// (fail with [`RuntimeError::QueueFull`] instead).
    fn enqueue<W, T>(
        &self,
        into_job: fn(Task<W, T>) -> Job,
        work: W,
        block: bool,
    ) -> Result<Ticket<T>, RuntimeError> {
        let (reply, rx) = mpsc::channel();
        let interrupt = Interrupt::new();
        let job = into_job(Task {
            work,
            interrupt: interrupt.clone(),
            reply,
        });
        let pushed = if block {
            self.shared.queue.push(job)
        } else {
            self.shared.queue.try_push(job)
        };
        match pushed {
            Ok(()) => Ok(Ticket { rx, interrupt }),
            Err(PushError::Full) => Err(RuntimeError::QueueFull),
            Err(PushError::Closed) => Err(RuntimeError::ShuttingDown),
        }
    }

    /// Submit + wait: the synchronous convenience path.
    pub fn execute(&self, query: JoinQuery) -> Result<QueryResult, RuntimeError> {
        self.submit(query)?.wait()
    }

    /// Enqueues a mutation (INSERT/UPDATE/DELETE). Blocks while the
    /// queue is full, like [`submit`](QueryService::submit). In disk
    /// mode the mutation commits through the store's WAL before it
    /// becomes visible; in memory it swaps the catalog table in place.
    /// Either way the mutated table's plans go stale via its
    /// [`relation_version`](Catalog::relation_version) while every
    /// other cached plan stays warm.
    pub fn submit_mutation(&self, mutation: Mutation) -> Result<MutationTicket, RuntimeError> {
        self.enqueue(Job::Mutation, mutation, true)
    }

    /// Non-blocking mutation submit: fails with
    /// [`RuntimeError::QueueFull`] instead of applying backpressure —
    /// the admission-control path the network front end uses.
    pub fn try_submit_mutation(&self, mutation: Mutation) -> Result<MutationTicket, RuntimeError> {
        self.enqueue(Job::Mutation, mutation, false)
    }

    /// Submit + wait for a mutation: the synchronous convenience path.
    pub fn execute_mutation(&self, mutation: Mutation) -> Result<MutationStats, RuntimeError> {
        self.submit_mutation(mutation)?.wait()
    }

    /// Atomically installs a new catalog snapshot. Queries already
    /// executing finish against the snapshot they started with; the
    /// plan cache is cleared (its keys are dead anyway — the epoch is
    /// part of every fingerprint).
    pub fn install_catalog(&self, catalog: Catalog) {
        if let Err(e) = self.try_install_catalog(catalog) {
            panic!("failed to install catalog: {e}");
        }
    }

    /// Fallible catalog install. In disk mode the new catalog is
    /// reconciled with the store first (new tables are persisted and
    /// backed, previously committed ones recover from disk), which can
    /// fail with [`RuntimeError::Storage`]; in-memory installs never
    /// error.
    pub fn try_install_catalog(&self, catalog: Catalog) -> Result<(), RuntimeError> {
        // A catalog writer like a mutation: an install never lands
        // between a mutation's read of its table and its swap.
        let _serialize = self
            .shared
            .mutation_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let catalog = match &self.shared.store {
            Some(store) => build_disk_catalog(catalog, store)?,
            None => catalog,
        };
        *self
            .shared
            .catalog
            .write()
            .unwrap_or_else(|e| e.into_inner()) = Arc::new(catalog);
        self.shared.cache.clear();
        Ok(())
    }

    /// The current catalog snapshot (as queries would see it).
    pub fn catalog(&self) -> Arc<Catalog> {
        self.shared.snapshot()
    }

    /// The live metrics recorder, for layers above the service (e.g.
    /// the network server) that observe events the service itself
    /// cannot see — scattered partitions, shipped semijoin sets,
    /// gathered fragment bytes.
    pub fn metrics_recorder(&self) -> &crate::metrics::MetricsRecorder {
        &self.shared.metrics
    }

    /// The disk store's counter snapshot — all zeros in in-memory mode,
    /// so callers can difference without caring about the mode.
    pub fn store_stats(&self) -> StoreStats {
        self.shared
            .store
            .as_deref()
            .map(Store::stats)
            .unwrap_or_default()
    }

    /// The spill temp store's counter snapshot — all zeros when
    /// spilling is off, so callers can difference without caring.
    pub fn spill_stats(&self) -> TempStoreStats {
        self.shared
            .spill
            .as_ref()
            .map(|s| s.temp.stats())
            .unwrap_or_default()
    }

    /// The spill temp store itself (chaos harnesses verify its
    /// directory drains); `None` when spilling is off.
    pub fn spill_temp_store(&self) -> Option<&Arc<TempStore>> {
        self.shared.spill.as_ref().map(|s| &s.temp)
    }

    /// The memory broker arbitrating the soft watermark; `None` when
    /// spilling is off.
    pub fn memory_broker(&self) -> Option<&Arc<MemoryBroker>> {
        self.shared.spill.as_ref().map(|s| &s.broker)
    }

    /// The disk store itself (checkpointing, cold-start pool clears in
    /// tests); `None` in in-memory mode.
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.shared.store.as_ref()
    }

    /// What recovery found at startup; `None` in in-memory mode.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.shared.recovery
    }

    /// Checkpoints the disk store (scrub + manifest publish + WAL
    /// truncate); a no-op in in-memory mode.
    pub fn checkpoint(&self) -> Result<(), RuntimeError> {
        match &self.shared.store {
            Some(store) => store
                .checkpoint()
                .map_err(|e| RuntimeError::Storage(e.to_string())),
            None => Ok(()),
        }
    }

    /// The most recent per-query traces (oldest first, at most
    /// [`TRACE_RING_CAPACITY`]). Only queries that ran with tracing on
    /// appear here.
    pub fn recent_traces(&self) -> Vec<TracedQuery> {
        self.shared.traces.recent()
    }

    /// The recent traces as a JSON array (stable key order, same
    /// discipline as [`RuntimeMetrics::to_json`]).
    pub fn recent_traces_json(&self) -> String {
        self.shared.traces.to_json()
    }

    /// Live service metrics: one snapshot, taken once, that STATS and
    /// HEALTH are both rendered from.
    pub fn metrics(&self) -> RuntimeMetrics {
        let counters = &self.shared.metrics;
        let cache = self.shared.cache.stats();
        let uptime = self.shared.started.elapsed().as_secs_f64();
        let completed = counters.get(Counter::Completed);
        let store = self.store_stats();
        let temp = self.spill_stats();
        RuntimeMetrics {
            completed,
            errors: counters.get(Counter::Errors),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_hit_rate: cache.hit_rate(),
            cache_entries: cache.entries,
            cancelled: counters.get(Counter::Cancelled),
            interrupted_by_budget: counters.get(Counter::InterruptedByBudget),
            workers_replaced: counters.get(Counter::WorkersReplaced),
            workers: self.shared.cfg.workers,
            in_flight: self.shared.in_flight.load(Ordering::Relaxed),
            traces_recorded: self.shared.traces.recorded(),
            pool_hits: store.pool_hits,
            pool_misses: store.pool_misses,
            pool_evictions: store.pool_evictions,
            wal_fsyncs: store.wal_fsyncs,
            fragments_served: counters.get(Counter::FragmentsServed),
            semijoin_sets_shipped: counters.get(Counter::SemijoinSetsShipped),
            bytes_scattered: counters.get(Counter::BytesScattered),
            bytes_gathered: counters.get(Counter::BytesGathered),
            mutations_applied: counters.get(Counter::MutationsApplied),
            wal_deltas: store.wal_deltas,
            dirty_pages: store.dirty_pages,
            dirty_writebacks: store.dirty_writebacks,
            checkpoints: store.checkpoints,
            spills: counters.get(Counter::Spills),
            spill_partitions: counters.get(Counter::SpillPartitions),
            spill_bytes_written: temp.bytes_written,
            spill_bytes_read: temp.bytes_read,
            peak_temp_bytes: temp.peak_bytes,
            queue_depth: self.shared.queue.len(),
            uptime_secs: uptime,
            throughput_qps: if uptime > 0.0 {
                completed as f64 / uptime
            } else {
                0.0
            },
            latency: counters.histogram(),
        }
    }

    /// Stops accepting new queries, drains the queue, and joins the
    /// workers. Every accepted query still gets its reply.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.shared.queue.close();
        // A panicking worker pushes its replacement's handle while we
        // drain, so keep draining until the vector stays empty.
        loop {
            let handles: Vec<JoinHandle<()>> = {
                let mut guard = self
                    .shared
                    .worker_handles
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                guard.drain(..).collect()
            };
            if handles.is_empty() {
                break;
            }
            for w in handles {
                let _ = w.join();
            }
        }
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// Spawns a worker thread and registers its handle for shutdown.
fn spawn_worker(shared: &Arc<Shared>, name: String) {
    let cloned = Arc::clone(shared);
    let handle = std::thread::Builder::new()
        .name(name)
        .spawn(move || worker_loop(&cloned))
        .expect("spawn query-service worker");
    shared
        .worker_handles
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(handle);
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        let keep_going = match job {
            Job::Query(task) => run_job(shared, task, execute_query, |result, latency| {
                result.latency_micros = latency.as_micros() as u64;
            }),
            Job::Mutation(task) => run_job(shared, task, apply_mutation, |_, _| {
                shared.metrics.add(Counter::MutationsApplied, 1);
            }),
        };
        if !keep_going {
            // This worker's stack may be poisoned by whatever
            // panicked; the fresh replacement takes over.
            return;
        }
    }
}

/// Runs one dequeued job of either kind to its reply: `exec` does the
/// work, `on_ok` finishes a successful outcome with its measured
/// latency. Returns `false` when `exec` panicked and this worker must
/// exit in favour of its replacement.
fn run_job<W, T>(
    shared: &Arc<Shared>,
    task: Task<W, T>,
    exec: fn(&Shared, &W, &Interrupt) -> Result<T, RuntimeError>,
    on_ok: impl FnOnce(&mut T, Duration),
) -> bool {
    // Cancelled while still queued: report without ever executing (a
    // mutation never touches any state).
    if let Some(reason) = task.interrupt.tripped() {
        shared.metrics.record_interrupt(reason);
        shared.metrics.record(Duration::ZERO, false);
        let _ = task.reply.send(Err(RuntimeError::Interrupted(reason)));
        return true;
    }
    shared.in_flight.fetch_add(1, Ordering::Relaxed);
    let t0 = Instant::now();
    // Self-healing: a panic inside the engine is caught, reported
    // on this job's ticket, and answered by respawning a
    // replacement worker so pool capacity never degrades.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        exec(shared, &task.work, &task.interrupt)
    }));
    let latency = t0.elapsed();
    shared.in_flight.fetch_sub(1, Ordering::Relaxed);
    match outcome {
        Ok(mut result) => {
            shared.metrics.record(latency, result.is_ok());
            match &mut result {
                Ok(value) => on_ok(value, latency),
                Err(RuntimeError::Interrupted(reason)) => shared.metrics.record_interrupt(*reason),
                Err(_) => {}
            }
            // A dropped ticket just means the submitter stopped caring.
            let _ = task.reply.send(result);
            true
        }
        Err(payload) => {
            shared.metrics.record(latency, false);
            let msg = panic_message(payload.as_ref());
            // Replace first, answer second: by the time the caller
            // observes WorkerPanicked on its ticket, the pool is
            // back at strength and `workers_replaced` reflects it.
            shared.metrics.add(Counter::WorkersReplaced, 1);
            let id = shared.worker_seq.fetch_add(1, Ordering::Relaxed);
            spawn_worker(shared, format!("fj-worker-{id}"));
            let _ = task.reply.send(Err(RuntimeError::WorkerPanicked(msg)));
            false
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}

/// Optimize (through the cache) + execute one query against the current
/// snapshot. Mirrors `Database::execute_with_config`, with the catalog
/// shared instead of cloned per call.
fn execute_query(
    shared: &Shared,
    spec: &QuerySpec,
    interrupt: &Interrupt,
) -> Result<QueryResult, RuntimeError> {
    let query = &spec.query;
    let mut config = spec.config;
    config.params.memory_pages = shared.cfg.memory_pages;
    let catalog = shared.snapshot();
    let key = fingerprint(&catalog, query, &config);
    let (plan, cache_hit) = match shared.cache.get(key) {
        Some(plan) => (plan, true),
        None => {
            let plan = Arc::new(Optimizer::new(Arc::clone(&catalog), config).optimize(query)?);
            shared.cache.insert(key, Arc::clone(&plan));
            (plan, false)
        }
    };

    let mut ctx = ExecCtx::new(catalog)
        .with_memory_pages(config.params.memory_pages)
        .with_interrupt(interrupt.clone());
    if let Some(pages) = shared.cfg.memory_budget_pages {
        ctx = ctx.with_memory_budget_pages(pages);
    }
    if let Some(faults) = &shared.cfg.fault_plan {
        ctx = ctx.with_faults(Arc::clone(faults));
    }
    if let Some(spill) = &shared.spill {
        ctx = ctx.with_spill(
            SpillCtx::new(Arc::clone(&spill.temp), Arc::clone(&spill.broker))
                .with_max_depth(shared.cfg.spill_max_recursion_depth),
        );
    }
    if let Some(store) = &shared.store {
        let store = Arc::clone(store);
        ctx = ctx.with_pool_probe(PoolProbe::new(move || {
            let stats = store.stats();
            (stats.pool_hits, stats.pool_misses)
        }));
    }
    let collector = spec.collect_trace.then(|| Arc::new(TraceCollector::new()));
    if let Some(c) = &collector {
        ctx = ctx.with_tracer(Arc::clone(c));
    }
    let before = ctx.ledger.snapshot();
    let result = plan.phys.execute(&ctx);
    // Spill activity counts even for queries that end up interrupted
    // mid-spill — the temp I/O happened either way.
    let spilled = ctx.spill_snapshot();
    if spilled.spills > 0 || spilled.partitions > 0 {
        shared.metrics.add(Counter::Spills, spilled.spills);
        shared
            .metrics
            .add(Counter::SpillPartitions, spilled.partitions);
    }
    let rel = result.map_err(OptError::from)?;
    let charges = ctx.ledger.snapshot().delta(&before);
    let trace = collector.and_then(|c| c.finish());
    if let Some(t) = &trace {
        shared.traces.push(TracedQuery {
            query: query_tag(query),
            trace: t.clone(),
        });
    }
    let measured_cost = charges.weighted(
        config.params.cpu_weight,
        config.params.network.per_byte,
        config.params.network.per_message,
    );
    Ok(QueryResult {
        schema: rel.schema,
        rows: rel.rows.into_vec(),
        charges,
        measured_cost,
        estimated_cost: Some(plan.cost),
        plan: plan.phys.clone(),
        order: plan.order.clone(),
        sips: plan.sips.clone(),
        filter_join_costs: plan.filter_join_costs.clone(),
        cache_hit,
        latency_micros: 0,
        trace,
    })
}

/// Applies one mutation end to end: commit it to the storage layer
/// (WAL-durable in disk mode, pure apply in memory), build the mutated
/// table's next version from the current one and the commit's delta
/// ([`Table::next_version`]: statistics merged rather than re-analyzed,
/// indexes recreated), reattach the store's buffer pool, and swap it
/// into the live catalog via [`Catalog::replace_table`]. The catalog
/// write lock covers only the swap, so readers never wait out the
/// build. The plan cache is *not* cleared: the mutated relation's
/// bumped version already invalidates exactly the plans that read it.
fn apply_mutation(
    shared: &Shared,
    mutation: &Mutation,
    interrupt: &Interrupt,
) -> Result<MutationStats, RuntimeError> {
    // Serialize catalog writers: mutations and catalog installs both
    // hold this lock, so the table read here is the one the commit
    // applies to, and nothing lands between this read and the swap.
    let _serialize = shared
        .mutation_lock
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let name = mutation.table();
    let storage_err = |e: &dyn fmt::Display| RuntimeError::Storage(e.to_string());
    let cancelled = || interrupt.tripped().is_some();
    let interrupted =
        || RuntimeError::Interrupted(interrupt.tripped().unwrap_or(InterruptReason::Cancelled));

    let catalog = shared.snapshot();
    let old = catalog.table(name).map_err(|e| storage_err(&e))?;
    let (applied, store_version) = match &shared.store {
        Some(store) => {
            // Disk mode: the store's WAL commit is the atomic point. A
            // cancellation before it leaves zero state anywhere.
            let (result, applied) =
                store
                    .mutate_applied(mutation, &cancelled)
                    .map_err(|e| match e {
                        StoreError::Cancelled => interrupted(),
                        other => storage_err(&other),
                    })?;
            (applied, Some(result.version))
        }
        None => {
            // In-memory mode: pure apply. The final cancel poll sits
            // right before the install — the in-memory "commit point".
            let applied = mutation
                .apply_delta(old.schema(), old.rows())
                .map_err(|e| {
                    RuntimeError::Storage(format!("{} on '{name}': {e}", mutation.verb()))
                })?;
            if cancelled() {
                return Err(interrupted());
            }
            (applied, None)
        }
    };
    let Applied {
        rows,
        rows_affected,
        removed,
        added,
    } = applied;
    let row_count = rows.len() as u64;
    let table = old
        .next_version(rows, &removed, &added)
        .map_err(|e| storage_err(&e))?;
    if let Some(backing) = shared.store.as_ref().and_then(|s| s.backing_for(name)) {
        table.attach_backing(backing);
    }
    let mut next = (*catalog).clone();
    next.replace_table(table.into_ref());
    let version = store_version.unwrap_or_else(|| next.relation_version(name));
    *shared
        .catalog
        .write()
        .unwrap_or_else(PoisonError::into_inner) = Arc::new(next);
    Ok(MutationStats {
        rows_affected,
        row_count,
        version,
    })
}

/// Reconciles a catalog template with a disk store and returns the
/// disk-backed catalog a service executes against.
///
/// For every base table (local or remote) in the template:
///
/// * already committed in the store with the same schema → the
///   *recovered* rows are authoritative (they survived the crash; the
///   template's copy is discarded).
/// * committed but with a *different* schema → the template wins: the
///   table is reloaded as a log-structured replacement (fresh
///   `table_id`, bumped version), exactly like reloading a name in the
///   store itself. Installing a reshaped catalog over an old data
///   directory is a redeploy, not an error.
/// * unknown to the store → the template's rows are loaded (WAL +
///   page file + commit marker) so the next restart recovers them.
///
/// Each table is then rebuilt as a *fresh* [`Table`] — catalog clones
/// share `Arc<Table>`, so mutating the template in place would leak
/// backings into unrelated in-memory catalogs — with the template's
/// hash/B-tree indexes recreated and the store's buffer pool attached
/// as its [`fj_storage::PageBacking`]. Committed tables the template
/// does not mention (loaded by a previous catalog generation) are
/// recovered and served too, index-less.
///
/// Views, UDFs, and the network model pass through unchanged.
fn build_disk_catalog(template: Catalog, store: &Store) -> Result<Catalog, RuntimeError> {
    let storage_err = |e: fj_store::StoreError| RuntimeError::Storage(e.to_string());
    let mut catalog = template.clone();
    let template_tables: Vec<(TableRef, SiteId)> = template
        .relation_names()
        .iter()
        .filter_map(|name| match template.resolve(name) {
            Ok(RelationKind::Base(t)) => Some((t, SiteId::LOCAL)),
            Ok(RelationKind::Remote(t, site)) => Some((t, site)),
            _ => None,
        })
        .collect();
    for (tmpl, site) in &template_tables {
        let name = tmpl.name().to_string();
        let recovered = if store.has_table(&name) {
            let (schema, rows) = store.recovered_rows(&name).map_err(storage_err)?;
            (schema == **tmpl.schema()).then_some(rows)
        } else {
            None
        };
        let rows = match recovered {
            Some(rows) => rows,
            None => {
                // Unknown name, or a schema change: (re)load the
                // template's copy as a log-structured replacement.
                store.load_table(tmpl).map_err(storage_err)?;
                tmpl.rows().to_vec()
            }
        };
        let mut table = Table::new(&name, (**tmpl.schema()).clone(), rows)
            .map_err(|e| RuntimeError::Storage(e.to_string()))?;
        for col in tmpl.hash_indexed_columns() {
            table
                .create_hash_index(col)
                .map_err(|e| RuntimeError::Storage(e.to_string()))?;
        }
        for col in tmpl.btree_indexed_columns() {
            table
                .create_btree_index(col)
                .map_err(|e| RuntimeError::Storage(e.to_string()))?;
        }
        if let Some(backing) = store.backing_for(&name) {
            table.attach_backing(backing);
        }
        let table = table.into_ref();
        if *site == SiteId::LOCAL {
            catalog.add_table(table);
        } else {
            catalog.add_remote_table(table, *site);
        }
    }
    // Committed tables the template never mentioned: recover and serve.
    for name in store.table_names() {
        if template_tables.iter().any(|(t, _)| t.name() == name) {
            continue;
        }
        let (schema, rows) = store.recovered_rows(&name).map_err(storage_err)?;
        let table =
            Table::new(&name, schema, rows).map_err(|e| RuntimeError::Storage(e.to_string()))?;
        if let Some(backing) = store.backing_for(&name) {
            table.attach_backing(backing);
        }
        catalog.add_table(table.into_ref());
    }
    Ok(catalog)
}

/// A short human-readable tag for a query in the trace ring: its FROM
/// list ("Emp AS E, Dept AS D, DepAvgSal AS V").
fn query_tag(query: &JoinQuery) -> String {
    query
        .from
        .iter()
        .map(|f| format!("{} AS {}", f.relation, f.alias))
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        ServiceConfig::default().validate().unwrap();
    }

    #[test]
    fn zero_knobs_rejected_by_validate() {
        for mutate in [
            (|c: &mut ServiceConfig| c.workers = 0) as fn(&mut ServiceConfig),
            |c| c.queue_capacity = 0,
            |c| c.memory_pages = 0,
            |c| c.memory_pages = fj_exec::MIN_MEMORY_PAGES - 1,
            |c| c.spill_soft_watermark_pages = Some(0),
            |c| c.spill_max_recursion_depth = 0,
        ] {
            let mut cfg = ServiceConfig::default();
            mutate(&mut cfg);
            assert!(
                matches!(cfg.validate(), Err(RuntimeError::InvalidConfig(_))),
                "zeroed knob must fail validation"
            );
        }
    }

    #[test]
    fn normalized_clamps_every_zero_knob_to_its_floor() {
        let cfg = ServiceConfig {
            workers: 0,
            queue_capacity: 0,
            memory_pages: 0,
            spill_soft_watermark_pages: Some(0),
            spill_max_recursion_depth: 0,
            ..ServiceConfig::default()
        }
        .normalized();
        assert_eq!(cfg.workers, 1);
        assert_eq!(cfg.queue_capacity, 1);
        assert_eq!(cfg.memory_pages, fj_exec::MIN_MEMORY_PAGES);
        assert_eq!(cfg.spill_soft_watermark_pages, Some(1));
        assert_eq!(cfg.spill_max_recursion_depth, 1);
        cfg.validate().unwrap();
    }

    #[test]
    fn spilling_off_is_the_default_and_validates() {
        let cfg = ServiceConfig::default();
        assert_eq!(cfg.spill_soft_watermark_pages, None);
        assert_eq!(
            cfg.spill_max_recursion_depth,
            fj_exec::DEFAULT_SPILL_MAX_DEPTH
        );
        // `None` watermark stays `None` through normalization: spilling
        // never turns itself on.
        assert_eq!(cfg.normalized().spill_soft_watermark_pages, None);
    }

    #[test]
    fn metrics_reflect_pool_shape_and_idle_queue() {
        let service = QueryService::start(
            fj_algebra::fixtures::paper_catalog(),
            ServiceConfig {
                workers: 2,
                queue_capacity: 8,
                ..ServiceConfig::default()
            },
        );
        let m = service.metrics();
        assert_eq!(m.workers, 2);
        assert_eq!(m.workers_replaced, 0);
        assert_eq!(m.queue_depth, 0);
        // After a completed query the pool is idle again.
        service
            .execute(fj_algebra::fixtures::paper_query())
            .unwrap();
        let m = service.metrics();
        assert_eq!(m.in_flight, 0);
        assert_eq!(m.queue_depth, 0);
        service.shutdown();
    }

    use fj_algebra::FromItem;
    use fj_storage::{DataType, TableBuilder, Value};

    fn labeled_table(name: &str, rows: usize) -> TableRef {
        TableBuilder::new(name)
            .column("id", DataType::Int)
            .column("label", DataType::Str)
            .rows((0..rows).map(|i| vec![Value::Int(i as i64), Value::Str(format!("r{i}"))]))
            .build()
            .unwrap()
            .into_ref()
    }

    fn two_table_catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_table(labeled_table("A", 4));
        cat.add_table(labeled_table("B", 4));
        cat
    }

    fn scan(name: &str) -> JoinQuery {
        JoinQuery::new(vec![FromItem::new(name, name)])
    }

    fn insert_one(table: &str, id: i64) -> Mutation {
        Mutation::Insert {
            table: table.into(),
            rows: vec![vec![Value::Int(id), Value::Str(format!("new-{id}"))]],
        }
    }

    #[test]
    fn mutation_swaps_table_and_keeps_unrelated_plans_warm() {
        let service = QueryService::start(two_table_catalog(), ServiceConfig::default());
        service.execute(scan("A")).unwrap(); // cold: optimize + cache
        assert!(service.execute(scan("A")).unwrap().cache_hit);

        // Mutating B must not evict A's cached plan.
        let stats = service.execute_mutation(insert_one("B", 100)).unwrap();
        assert_eq!((stats.rows_affected, stats.row_count), (1, 5));
        assert_eq!(stats.version, 1);
        assert!(
            service.execute(scan("A")).unwrap().cache_hit,
            "plan over A stays warm across a mutation of B"
        );
        assert_eq!(service.execute(scan("B")).unwrap().rows.len(), 5);

        // Mutating A invalidates exactly A's plan — and the re-optimized
        // query sees the new rows.
        service.execute_mutation(insert_one("A", 200)).unwrap();
        let r = service.execute(scan("A")).unwrap();
        assert!(!r.cache_hit, "mutated relation's plan must go stale");
        assert_eq!(r.rows.len(), 5);

        assert_eq!(service.metrics().mutations_applied, 2);
        service.shutdown();
    }

    #[test]
    fn mutation_on_unknown_table_is_an_error_not_a_panic() {
        let service = QueryService::start(two_table_catalog(), ServiceConfig::default());
        let err = service
            .execute_mutation(insert_one("Ghost", 1))
            .unwrap_err();
        assert!(matches!(err, RuntimeError::Storage(_)));
        assert_eq!(service.metrics().workers_replaced, 0);
        service.shutdown();
    }

    #[test]
    fn cancelled_mutation_never_leaves_partial_state() {
        // The cancel races the worker; whichever side wins, the visible
        // state must exactly match the reported outcome — a cancelled
        // mutation leaves no trace, a committed one is fully visible.
        let service = QueryService::start(two_table_catalog(), ServiceConfig::default());
        let mut expected = 4u64;
        for i in 0..20 {
            let ticket = service.submit_mutation(insert_one("A", 1000 + i)).unwrap();
            ticket.cancel();
            match ticket.wait() {
                Ok(stats) => {
                    expected += 1;
                    assert_eq!(stats.row_count, expected);
                }
                Err(RuntimeError::Interrupted(_)) => {}
                Err(other) => panic!("unexpected mutation outcome: {other}"),
            }
            let rows = service.execute(scan("A")).unwrap().rows.len() as u64;
            assert_eq!(rows, expected, "state must match the reported outcome");
        }
        service.shutdown();
    }

    #[test]
    fn disk_mutations_survive_restart() {
        let dir = fj_store::TempDir::new("svc-mut-restart");
        let cfg = || ServiceConfig {
            workers: 2,
            storage: StorageMode::Disk {
                dir: dir.path().to_path_buf(),
                pool_pages: 64,
            },
            ..ServiceConfig::default()
        };
        {
            let service = QueryService::try_start(two_table_catalog(), cfg()).unwrap();
            let stats = service.execute_mutation(insert_one("A", 500)).unwrap();
            assert_eq!(stats.row_count, 5);
            assert!(stats.version >= 2, "store version bumps past the load");
            let m = service.metrics();
            assert_eq!(m.mutations_applied, 1);
            assert!(m.wal_deltas > 0, "the mutation logged page deltas");
            service.shutdown();
        }
        // Restart from the data directory with the *pre-mutation*
        // template: the recovered (mutated) rows are authoritative.
        let service = QueryService::try_start(two_table_catalog(), cfg()).unwrap();
        assert!(service.recovery_report().unwrap().replayed_mutations >= 1);
        assert_eq!(service.execute(scan("A")).unwrap().rows.len(), 5);
        assert_eq!(service.execute(scan("B")).unwrap().rows.len(), 4);
        service.shutdown();
    }

    #[test]
    fn disk_template_schema_change_reloads_instead_of_rejecting() {
        let dir = fj_store::TempDir::new("svc-reshape");
        let cfg = || ServiceConfig {
            storage: StorageMode::Disk {
                dir: dir.path().to_path_buf(),
                pool_pages: 64,
            },
            ..ServiceConfig::default()
        };
        {
            let service = QueryService::try_start(two_table_catalog(), cfg()).unwrap();
            service.shutdown();
        }
        // Same name, different shape: the reshaped template must win as
        // a log-structured replacement, not error out.
        let mut cat = Catalog::new();
        let reshaped = TableBuilder::new("A")
            .column("only", DataType::Int)
            .rows((0..7).map(|i| vec![Value::Int(i)]))
            .build()
            .unwrap()
            .into_ref();
        cat.add_table(reshaped);
        let service = QueryService::try_start(cat, cfg()).unwrap();
        let r = service.execute(scan("A")).unwrap();
        assert_eq!(r.rows.len(), 7);
        assert_eq!(r.schema.arity(), 1);
        service.shutdown();
    }

    #[test]
    fn spilling_service_completes_queries_the_governor_would_kill() {
        let catalog = || {
            let mut cat = Catalog::new();
            cat.add_table(labeled_table("Big", 600));
            cat.add_table(labeled_table("Wide", 600));
            cat
        };
        let join = || {
            JoinQuery::new(vec![FromItem::new("Big", "b"), FromItem::new("Wide", "w")])
                .with_predicate(fj_expr::col("b.id").eq(fj_expr::col("w.id")))
        };
        let tight = ServiceConfig {
            memory_pages: 4,
            memory_budget_pages: Some(5),
            ..ServiceConfig::default()
        };

        // Seed behavior: the materialization governor kills the join.
        let service = QueryService::start(catalog(), tight.clone());
        let err = service.execute(join()).unwrap_err();
        assert!(
            matches!(
                err,
                RuntimeError::Interrupted(InterruptReason::MemoryBudget)
            ),
            "expected a MemoryBudget kill, got: {err}"
        );
        service.shutdown();

        // Same budget with spilling on: the join completes, the spill
        // counters surface through metrics, and the temp directory
        // drains behind the query.
        let service = QueryService::start(
            catalog(),
            ServiceConfig {
                spill_soft_watermark_pages: Some(8),
                ..tight
            },
        );
        let rows = service.execute(join()).unwrap().rows;
        assert_eq!(rows.len(), 600);
        let m = service.metrics();
        assert!(m.spills > 0, "the join must actually have spilled");
        assert!(m.spill_partitions > 0);
        assert!(m.spill_bytes_written > 0);
        assert!(m.spill_bytes_read > 0);
        assert!(m.peak_temp_bytes > 0);
        assert_eq!(
            service
                .spill_temp_store()
                .unwrap()
                .live_files_on_disk()
                .unwrap(),
            0,
            "spill temp files are RAII-deleted once the query finishes"
        );
        let broker = service.memory_broker().unwrap();
        assert_eq!(broker.in_use_pages(), 0, "all grants released");
        service.shutdown();
    }

    #[test]
    fn normalized_preserves_non_zero_knobs() {
        let cfg = ServiceConfig {
            workers: 7,
            queue_capacity: 9,
            ..ServiceConfig::default()
        }
        .normalized();
        assert_eq!(cfg.workers, 7);
        assert_eq!(cfg.queue_capacity, 9);
    }
}
