//! Execution context: catalog, ledger, buffer memory, and the runtime
//! registries for temp tables and Bloom filters.

use crate::broker::{MemoryBroker, MemoryGrant};
use crate::error::ExecError;
use crate::interrupt::{Interrupt, InterruptReason};
use crate::physical::Rows;
use fj_algebra::Catalog;
use fj_storage::{
    charge, BloomFilter, CostLedger, FaultPlan, PageLayout, SchemaRef, TempStore, Tuple,
};
use fj_trace::TraceCollector;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// Default buffer memory, in pages (the `M` of the join formulas).
pub const DEFAULT_MEMORY_PAGES: u64 = 128;

/// The least buffer memory anything runs or is priced with: a join
/// needs an input page per side and an output page. Every place that
/// takes an `M` — [`ExecCtx::with_memory_pages`], the optimizer, the
/// service and `Database` configs — clamps to it.
pub const MIN_MEMORY_PAGES: u64 = 3;

/// A materialized temporary relation (a CTE result: production set,
/// filter set, spooled inner, ...).
#[derive(Debug, Clone)]
pub struct TempTable {
    /// Output schema.
    pub schema: SchemaRef,
    /// The rows, shared with every scan of the temp table.
    pub rows: Arc<Vec<Tuple>>,
    /// Page layout used for I/O charging.
    pub layout: PageLayout,
}

impl TempTable {
    /// Builds a temp table from rows, owned or shared (a scan's output),
    /// without copying either.
    pub fn new(schema: SchemaRef, rows: impl Into<Rows>) -> TempTable {
        let layout = PageLayout::for_schema(&schema);
        TempTable {
            schema,
            rows: rows.into().into_shared(),
            layout,
        }
    }

    /// Pages occupied.
    pub fn page_count(&self) -> u64 {
        self.layout.pages(self.rows.len() as u64)
    }
}

/// A probe the runtime installs in disk-backed mode so traced
/// executions can attribute buffer-pool traffic to plan nodes: calling
/// it returns the pool's cumulative `(hits, misses)` counters. The
/// interpreter snapshots it around each node exactly like the ledger's
/// `page_reads`, so the closure must be cheap and callable from any
/// thread.
#[derive(Clone)]
pub struct PoolProbe(Arc<dyn Fn() -> (u64, u64) + Send + Sync>);

impl PoolProbe {
    /// Wraps a `(hits, misses)` reader.
    pub fn new(read: impl Fn() -> (u64, u64) + Send + Sync + 'static) -> PoolProbe {
        PoolProbe(Arc::new(read))
    }

    /// The pool's cumulative `(hits, misses)` right now.
    pub fn read(&self) -> (u64, u64) {
        (self.0)()
    }
}

impl fmt::Debug for PoolProbe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PoolProbe").finish_non_exhaustive()
    }
}

/// Default bound on grace-hash recursive re-partitioning depth.
pub const DEFAULT_SPILL_MAX_DEPTH: usize = 4;

/// The spilling runtime attached to a context when memory governance is
/// enabled: where to put temp partitions, who arbitrates memory grants,
/// and how deep grace-hash recursion may go on skewed partitions.
#[derive(Debug, Clone)]
pub struct SpillCtx {
    /// The fault-injectable temp partition store.
    pub temp: Arc<TempStore>,
    /// The service-wide soft-watermark broker.
    pub broker: Arc<MemoryBroker>,
    /// Bound on grace-hash recursive re-partitioning depth.
    pub max_depth: usize,
}

impl SpillCtx {
    /// A spill context over `temp` and `broker` with the default
    /// recursion bound.
    pub fn new(temp: Arc<TempStore>, broker: Arc<MemoryBroker>) -> SpillCtx {
        SpillCtx {
            temp,
            broker,
            max_depth: DEFAULT_SPILL_MAX_DEPTH,
        }
    }

    /// Overrides the recursion bound (clamped to ≥1).
    pub fn with_max_depth(mut self, depth: usize) -> SpillCtx {
        self.max_depth = depth.max(1);
        self
    }
}

/// Where [`ExecCtx::spill_decision`] puts an operator's state.
pub enum Placement {
    /// In memory, holding the broker's grant (if spilling is enabled)
    /// for the operator's lifetime.
    Memory(Option<MemoryGrant>),
    /// On temp files through this spilling runtime.
    Spill(SpillCtx),
}

/// Per-query spill activity counters, shared by all operators of one
/// execution.
#[derive(Debug, Default)]
pub struct SpillStats {
    /// Operator invocations that spilled (one per spilling operator,
    /// including each grace-hash recursion level).
    pub spills: AtomicU64,
    /// Temp partition/run files written.
    pub partitions: AtomicU64,
    /// Pages written to temp files (by [`PageLayout`] accounting — the
    /// same accounting the ledger and the cost model use).
    pub pages_written: AtomicU64,
    /// Pages read back from temp files.
    pub pages_read: AtomicU64,
}

/// A plain-value snapshot of [`SpillStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillSnapshot {
    /// See [`SpillStats::spills`].
    pub spills: u64,
    /// See [`SpillStats::partitions`].
    pub partitions: u64,
    /// See [`SpillStats::pages_written`].
    pub pages_written: u64,
    /// See [`SpillStats::pages_read`].
    pub pages_read: u64,
}

/// Everything a physical plan needs at runtime.
#[derive(Debug, Clone)]
pub struct ExecCtx {
    /// The catalog (tables, views, UDFs, network model).
    pub catalog: Arc<Catalog>,
    /// The shared cost ledger.
    pub ledger: Arc<CostLedger>,
    /// Buffer memory in pages — `M` in the BNLJ/hash/sort formulas.
    pub memory_pages: u64,
    /// The query's cooperative interrupt flag. Cloned handles (e.g. a
    /// runtime `Ticket`) can trip it; operators poll it at bounded
    /// intervals via [`ExecCtx::check_interrupt`].
    pub interrupt: Interrupt,
    /// Optional seeded fault plan threaded down to the paged-heap
    /// access paths (`Table::scan_checked` / `fetch_checked`).
    pub faults: Option<Arc<FaultPlan>>,
    /// Per-query trace collector. `None` (the default) keeps tracing
    /// zero-cost: [`PhysPlan::execute`](crate::PhysPlan::execute) takes
    /// its untraced fast path and `check_interrupt` skips the poll
    /// counter.
    pub(crate) tracer: Option<Arc<TraceCollector>>,
    /// Buffer-pool counter probe for trace attribution (disk-backed
    /// mode only; `None` leaves every trace's pool counters at 0).
    pub(crate) pool_probe: Option<PoolProbe>,
    /// Governor: maximum pages the query may materialize (temp tables,
    /// sort runs, grace-hash partitions; `u64::MAX` = unlimited).
    memory_budget_pages: u64,
    /// Spilling runtime; `None` (the default) keeps every operator on
    /// its seed in-memory code path with simulated spill charges.
    spill: Option<SpillCtx>,
    spill_stats: Arc<SpillStats>,
    pages_materialized: Arc<AtomicU64>,
    temps: Arc<RwLock<HashMap<String, TempTable>>>,
    blooms: Arc<RwLock<HashMap<String, Arc<BloomFilter>>>>,
}

impl ExecCtx {
    /// A context over `catalog` with a fresh ledger and default memory.
    pub fn new(catalog: Arc<Catalog>) -> ExecCtx {
        ExecCtx {
            catalog,
            ledger: CostLedger::new(),
            memory_pages: DEFAULT_MEMORY_PAGES,
            interrupt: Interrupt::new(),
            faults: None,
            tracer: None,
            pool_probe: None,
            memory_budget_pages: u64::MAX,
            spill: None,
            spill_stats: Arc::new(SpillStats::default()),
            pages_materialized: Arc::new(AtomicU64::new(0)),
            temps: Arc::new(RwLock::new(HashMap::new())),
            blooms: Arc::new(RwLock::new(HashMap::new())),
        }
    }

    /// Overrides the buffer memory size.
    pub fn with_memory_pages(mut self, pages: u64) -> ExecCtx {
        self.memory_pages = pages.max(MIN_MEMORY_PAGES);
        self
    }

    /// Attaches an externally held interrupt handle (the runtime hands
    /// the same handle to the submitter's `Ticket`).
    pub fn with_interrupt(mut self, interrupt: Interrupt) -> ExecCtx {
        self.interrupt = interrupt;
        self
    }

    /// Attaches a seeded fault plan to the storage access paths.
    pub fn with_faults(mut self, faults: Arc<FaultPlan>) -> ExecCtx {
        self.faults = Some(faults);
        self
    }

    /// Attaches a per-query trace collector: every plan node then
    /// records an `OpStats` entry, and interrupt polls are counted.
    pub fn with_tracer(mut self, tracer: Arc<TraceCollector>) -> ExecCtx {
        self.tracer = Some(tracer);
        self
    }

    /// Attaches a buffer-pool counter probe so traces in disk-backed
    /// mode report per-operator pool hits and misses.
    pub fn with_pool_probe(mut self, probe: PoolProbe) -> ExecCtx {
        self.pool_probe = Some(probe);
        self
    }

    /// Caps the pages the query may materialize (temps, sort runs,
    /// grace-hash partitions).
    pub fn with_memory_budget_pages(mut self, pages: u64) -> ExecCtx {
        self.memory_budget_pages = pages;
        self
    }

    /// Enables spilling: operators consult the broker before pinning
    /// memory-sized state and degrade to temp-file partitioning when
    /// denied (or when the build side exceeds buffer memory outright).
    pub fn with_spill(mut self, spill: SpillCtx) -> ExecCtx {
        self.spill = Some(spill);
        self
    }

    /// Decides where an operator about to pin `pages` of state runs:
    /// in memory when spilling is disabled (seed behaviour: simulated
    /// charges); otherwise on temp files when the state exceeds buffer
    /// memory (`M`, the same trigger the simulated grace/sort charges
    /// key on) or the broker denies the grant (service-wide soft
    /// watermark), and in memory holding the grant if not.
    pub fn spill_decision(&self, pages: u64) -> Placement {
        let Some(spill) = &self.spill else {
            return Placement::Memory(None);
        };
        match pages > self.memory_pages {
            true => Placement::Spill(spill.clone()),
            false => match spill.broker.try_reserve(pages) {
                Some(grant) => Placement::Memory(Some(grant)),
                None => Placement::Spill(spill.clone()),
            },
        }
    }

    /// Per-query spill counters.
    pub fn spill_stats(&self) -> &SpillStats {
        &self.spill_stats
    }

    /// Snapshot of the per-query spill counters.
    pub fn spill_snapshot(&self) -> SpillSnapshot {
        SpillSnapshot {
            spills: self.spill_stats.spills.load(Ordering::Relaxed),
            partitions: self.spill_stats.partitions.load(Ordering::Relaxed),
            pages_written: self.spill_stats.pages_written.load(Ordering::Relaxed),
            pages_read: self.spill_stats.pages_read.load(Ordering::Relaxed),
        }
    }

    /// Polls the interrupt flag: `Err(Interrupted)` once any holder has
    /// tripped it. Operators call this once per plan node and every
    /// [`crate::INTERRUPT_CHECK_INTERVAL`] tuples inside hot loops.
    #[inline]
    pub fn check_interrupt(&self) -> Result<(), ExecError> {
        if let Some(t) = &self.tracer {
            t.note_poll();
        }
        match self.interrupt.tripped() {
            None => Ok(()),
            Some(reason) => Err(ExecError::Interrupted(reason)),
        }
    }

    /// Governor accounting: `pages` materialized (spooled temp, sort
    /// run, grace partition). Trips the interrupt with
    /// [`InterruptReason::MemoryBudget`] past the budget. This does not
    /// return an error — call sites are mid-materialization and the
    /// next bounded poll surfaces the trip — so infallible paths stay
    /// infallible.
    pub fn charge_materialized_pages(&self, pages: u64) {
        let total = self.pages_materialized.fetch_add(pages, Ordering::Relaxed) + pages;
        if total > self.memory_budget_pages {
            self.interrupt.trip(InterruptReason::MemoryBudget);
        }
    }

    /// Registers (or replaces) a temp table. Charges the page writes of
    /// materialization to the ledger and the governor's memory budget.
    pub fn register_temp(&self, name: impl Into<String>, table: TempTable) {
        let pages = table.page_count();
        self.ledger.book(charge::writes(pages));
        self.charge_materialized_pages(pages);
        self.temps
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(name.into(), table);
    }

    /// Looks up a temp table.
    pub fn temp(&self, name: &str) -> Result<TempTable, ExecError> {
        self.temps
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .cloned()
            .ok_or_else(|| ExecError::MissingRuntimeObject(format!("temp table '{name}'")))
    }

    /// Removes a temp table (end of a `With` scope).
    pub fn drop_temp(&self, name: &str) {
        self.temps
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(name);
    }

    /// Registers a Bloom filter under `name`.
    pub fn register_bloom(&self, name: impl Into<String>, bloom: BloomFilter) {
        self.blooms
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(name.into(), Arc::new(bloom));
    }

    /// Looks up a Bloom filter.
    pub fn bloom(&self, name: &str) -> Result<Arc<BloomFilter>, ExecError> {
        self.blooms
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .cloned()
            .ok_or_else(|| ExecError::MissingRuntimeObject(format!("bloom filter '{name}'")))
    }

    /// Removes a Bloom filter.
    pub fn drop_bloom(&self, name: &str) {
        self.blooms
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_storage::{tuple, DataType, Schema};

    fn ctx() -> ExecCtx {
        ExecCtx::new(Arc::new(Catalog::new()))
    }

    #[test]
    fn temp_registry_roundtrip_and_write_charge() {
        let c = ctx();
        let schema = Schema::from_pairs(&[("x", DataType::Int)]).into_ref();
        let t = TempTable::new(schema, vec![tuple![1], tuple![2]]);
        let pages = t.page_count();
        assert_eq!(pages, 1);
        c.register_temp("p", t);
        assert_eq!(c.ledger.snapshot().page_writes, pages);
        assert_eq!(c.temp("p").unwrap().rows.len(), 2);
        c.drop_temp("p");
        assert!(c.temp("p").is_err());
    }

    #[test]
    fn bloom_registry_roundtrip() {
        let c = ctx();
        let mut b = BloomFilter::new(128, 2);
        b.insert(&fj_storage::Value::Int(5));
        c.register_bloom("f", b);
        assert!(c.bloom("f").unwrap().contains(&fj_storage::Value::Int(5)));
        c.drop_bloom("f");
        assert!(c.bloom("f").is_err());
    }

    #[test]
    fn memory_clamped_to_minimum() {
        let c = ctx().with_memory_pages(0);
        assert_eq!(c.memory_pages, 3);
    }

    #[test]
    fn empty_temp_zero_pages() {
        let schema = Schema::from_pairs(&[("x", DataType::Int)]).into_ref();
        let t = TempTable::new(schema, vec![]);
        assert_eq!(t.page_count(), 0);
    }

    #[test]
    fn check_interrupt_surfaces_the_tripped_reason() {
        let c = ctx();
        assert!(c.check_interrupt().is_ok());
        c.interrupt.trip(InterruptReason::Cancelled);
        assert_eq!(
            c.check_interrupt(),
            Err(ExecError::Interrupted(InterruptReason::Cancelled))
        );
    }

    #[test]
    fn memory_budget_trips_on_temp_registration() {
        let c = ctx().with_memory_budget_pages(0);
        let schema = Schema::from_pairs(&[("x", DataType::Int)]).into_ref();
        c.register_temp("p", TempTable::new(schema, vec![tuple![1]]));
        assert_eq!(
            c.check_interrupt(),
            Err(ExecError::Interrupted(InterruptReason::MemoryBudget))
        );
    }

    #[test]
    fn unlimited_budgets_never_trip() {
        let c = ctx();
        c.charge_materialized_pages(u64::MAX / 2);
        assert!(c.check_interrupt().is_ok());
    }
}
