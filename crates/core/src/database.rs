//! The `Database` facade.

use fj_algebra::{Catalog, JoinQuery, LogicalPlan, NetworkModel, Sips, UdfRelation, ViewDef};
use fj_exec::{lower, ExecCtx, PhysPlan, Rel};
use fj_optimizer::{FilterJoinCost, OptError, OptimizedPlan, Optimizer, OptimizerConfig};
use fj_storage::{LedgerSnapshot, SchemaRef, Table, Tuple};
use fj_trace::{QueryTrace, TraceCollector};
use std::sync::Arc;

/// Default misestimate ratio for [`Database::explain_analyze`]: a node
/// is flagged when estimated and actual cardinality differ by more than
/// this factor in either direction.
pub const DEFAULT_MISESTIMATE_RATIO: f64 = 4.0;

/// A fully evaluated query with its plan and measured charges.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Result schema.
    pub schema: SchemaRef,
    /// Result rows.
    pub rows: Vec<Tuple>,
    /// Measured ledger charges of the execution.
    pub charges: LedgerSnapshot,
    /// Measured scalar cost in page units (ledger charges weighted with
    /// the cost parameters of the config the query ran under).
    pub measured_cost: f64,
    /// Optimizer's estimated cost (page units); `None` when the query
    /// was run through the heuristic lowering instead of the optimizer.
    pub estimated_cost: Option<f64>,
    /// The executed physical plan.
    pub plan: PhysPlan,
    /// Chosen join order (aliases), when optimized.
    pub order: Vec<String>,
    /// SIPS of the Filter Joins in the plan (empty = no magic).
    pub sips: Vec<Sips>,
    /// Table 1 breakdowns for each Filter Join used.
    pub filter_join_costs: Vec<FilterJoinCost>,
    /// Whether the plan came from a plan cache rather than a fresh
    /// optimization. Always `false` for direct `Database` calls; set by
    /// `fj-runtime`'s query service.
    pub cache_hit: bool,
    /// Wall-clock latency of optimize+execute in microseconds, when
    /// measured (the query service fills this in; direct `Database`
    /// calls leave it 0).
    pub latency_micros: u64,
    /// Per-operator execution trace, present only when the query ran
    /// through a traced entry point ([`Database::execute_traced`], or a
    /// service submission that asked for a trace). `None` means tracing
    /// was off and execution took the zero-overhead path.
    pub trace: Option<QueryTrace>,
}

impl QueryResult {
    /// The result of executing `plan`, optimized under `config`, into
    /// `rel` at a ledger cost of `charges`. `measured_cost` weighs the
    /// charges with `config`'s cost parameters. `Database` and
    /// `fj-runtime`'s query service both assemble results here.
    pub fn from_run(
        plan: &OptimizedPlan,
        config: &OptimizerConfig,
        rel: Rel,
        charges: LedgerSnapshot,
        cache_hit: bool,
        trace: Option<QueryTrace>,
    ) -> QueryResult {
        QueryResult {
            schema: rel.schema,
            rows: rel.rows.into_vec(),
            measured_cost: measured_cost(&charges, config),
            charges,
            estimated_cost: Some(plan.cost),
            plan: plan.phys.clone(),
            order: plan.order.clone(),
            sips: plan.sips.clone(),
            filter_join_costs: plan.filter_join_costs.clone(),
            cache_hit,
            latency_micros: 0,
            trace,
        }
    }
}

/// Ledger charges weighted with `config`'s cost parameters, in page
/// units.
fn measured_cost(charges: &LedgerSnapshot, config: &OptimizerConfig) -> f64 {
    let p = &config.params;
    charges.weighted(p.cpu_weight, p.network.per_byte, p.network.per_message)
}

/// The engine facade: catalog + optimizer + executor.
#[derive(Debug, Clone)]
pub struct Database {
    catalog: Catalog,
    config: OptimizerConfig,
}

impl Default for Database {
    fn default() -> Self {
        Database::new()
    }
}

impl Database {
    /// An empty database with default configuration.
    pub fn new() -> Database {
        Database {
            catalog: Catalog::new(),
            config: OptimizerConfig::default(),
        }
    }

    /// A database over an existing catalog.
    pub fn with_catalog(catalog: Catalog) -> Database {
        Database {
            catalog,
            ..Database::new()
        }
    }

    /// Read access to the catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Registers a local table.
    pub fn create_table(&mut self, table: Table) -> &mut Self {
        self.catalog.add_table(table.into_ref());
        self
    }

    /// Registers a view.
    pub fn create_view(&mut self, view: ViewDef) -> &mut Self {
        self.catalog.add_view(view);
        self
    }

    /// Registers a user-defined relation.
    pub fn create_udf(&mut self, name: impl Into<String>, udf: Arc<dyn UdfRelation>) -> &mut Self {
        self.catalog.add_udf(name, udf);
        self
    }

    /// Sets the network model (also propagated into the cost model).
    pub fn set_network(&mut self, network: NetworkModel) -> &mut Self {
        self.catalog.set_network(network);
        self.config.params.network = network;
        self
    }

    /// The optimizer configuration.
    pub fn config(&self) -> &OptimizerConfig {
        &self.config
    }

    /// Mutable optimizer configuration (enable/disable filter joins,
    /// Bloom filters, equivalence-class count, cost weights).
    pub fn config_mut(&mut self) -> &mut OptimizerConfig {
        &mut self.config
    }

    /// Sets the buffer memory `M` in pages (at least
    /// [`fj_exec::MIN_MEMORY_PAGES`]): the cost model prices plans with
    /// it and the executor runs them with it.
    pub fn set_memory_pages(&mut self, pages: u64) -> &mut Self {
        self.config.params.memory_pages = pages.max(fj_exec::MIN_MEMORY_PAGES);
        self
    }

    /// An executor context whose `M` is the one `config` prices with.
    fn exec_ctx(&self, config: &OptimizerConfig) -> ExecCtx {
        ExecCtx::new(Arc::new(self.catalog.clone())).with_memory_pages(config.params.memory_pages)
    }

    /// Optimizes and executes a join query.
    pub fn execute(&self, query: &JoinQuery) -> Result<QueryResult, OptError> {
        self.execute_with_config(query, self.config)
    }

    /// Optimizes and executes under an overridden configuration (used
    /// by the benchmarks to compare never-magic / always-magic /
    /// cost-based policies). The plan runs with `config`'s `M`.
    pub fn execute_with_config(
        &self,
        query: &JoinQuery,
        config: OptimizerConfig,
    ) -> Result<QueryResult, OptError> {
        self.execute_inner(query, config, false)
    }

    /// Like [`Database::execute`], but records a per-operator
    /// [`QueryTrace`] into the result's `trace` field.
    pub fn execute_traced(&self, query: &JoinQuery) -> Result<QueryResult, OptError> {
        self.execute_inner(query, self.config, true)
    }

    fn execute_inner(
        &self,
        query: &JoinQuery,
        config: OptimizerConfig,
        traced: bool,
    ) -> Result<QueryResult, OptError> {
        let optimizer = Optimizer::new(Arc::new(self.catalog.clone()), config);
        let plan = optimizer.optimize(query)?;
        let mut ctx = self.exec_ctx(&config);
        let collector = traced.then(|| Arc::new(TraceCollector::new()));
        if let Some(c) = &collector {
            ctx = ctx.with_tracer(Arc::clone(c));
        }
        let before = ctx.ledger.snapshot();
        let rel = plan.phys.execute(&ctx)?;
        let charges = ctx.ledger.snapshot().delta(&before);
        let trace = collector.and_then(|c| c.finish());
        Ok(QueryResult::from_run(
            &plan, &config, rel, charges, false, trace,
        ))
    }

    /// Optimizes without executing.
    pub fn optimize(&self, query: &JoinQuery) -> Result<fj_optimizer::OptimizedPlan, OptError> {
        Optimizer::new(Arc::new(self.catalog.clone()), self.config).optimize(query)
    }

    /// Executes a logical plan through the heuristic (rule-based)
    /// lowering, bypassing the cost-based optimizer — e.g. to run a
    /// magic-rewritten plan verbatim.
    pub fn run_logical(&self, plan: &LogicalPlan) -> Result<QueryResult, OptError> {
        let phys = lower::lower(plan, &self.catalog)?;
        let ctx = self.exec_ctx(&self.config);
        let before = ctx.ledger.snapshot();
        let rel = phys.execute(&ctx)?;
        let charges = ctx.ledger.snapshot().delta(&before);
        Ok(QueryResult {
            schema: rel.schema,
            rows: rel.rows.into_vec(),
            measured_cost: measured_cost(&charges, &self.config),
            charges,
            estimated_cost: None,
            plan: phys,
            order: Vec::new(),
            sips: Vec::new(),
            filter_join_costs: Vec::new(),
            cache_hit: false,
            latency_micros: 0,
            trace: None,
        })
    }

    /// Applies the magic-sets rewriting under `sips` and executes the
    /// rewritten query (the "query transformation" road, for comparison
    /// with the optimizer's integrated Filter Join road).
    pub fn run_magic(&self, query: &JoinQuery, sips: &Sips) -> Result<QueryResult, OptError> {
        let rewritten = fj_algebra::rewrite(&self.catalog, query, sips)?;
        self.run_logical(&rewritten)
    }

    /// Renders the Figure 2 SQL text of the magic rewriting `sips`
    /// induces on `query` (CREATE VIEW PartialResult / Filter /
    /// `Restricted<View>` + the final query).
    pub fn render_magic_sql(&self, query: &JoinQuery, sips: &Sips) -> Result<String, OptError> {
        Ok(fj_algebra::render_figure2(&self.catalog, query, sips)?)
    }

    /// EXPLAIN: the chosen physical plan with costs, order and SIPS.
    pub fn explain(&self, query: &JoinQuery) -> Result<String, OptError> {
        let plan = self.optimize(query)?;
        Ok(crate::explain::render(&plan))
    }

    /// EXPLAIN ANALYZE: optimizes, executes with tracing on, and
    /// renders the plan with *estimated vs actual* cardinality and cost
    /// per operator. Nodes whose estimate and actual differ by more
    /// than `DEFAULT_MISESTIMATE_RATIO` (4×) are flagged.
    pub fn explain_analyze(&self, query: &JoinQuery) -> Result<String, OptError> {
        self.explain_analyze_with_ratio(query, DEFAULT_MISESTIMATE_RATIO)
    }

    /// [`Database::explain_analyze`] with a caller-chosen misestimate
    /// ratio. `ratio` is clamped to at least 1.0 (a ratio of 1 flags
    /// every node whose estimate is not exactly the actual).
    pub fn explain_analyze_with_ratio(
        &self,
        query: &JoinQuery,
        ratio: f64,
    ) -> Result<String, OptError> {
        let plan = self.optimize(query)?;
        let collector = Arc::new(TraceCollector::new());
        let ctx = self
            .exec_ctx(&self.config)
            .with_tracer(Arc::clone(&collector));
        plan.phys.execute(&ctx)?;
        let trace = collector
            .finish()
            .ok_or_else(|| OptError::NoPlan("trace collection did not complete".into()))?;
        Ok(crate::explain::render_analyze(&plan, &trace, ratio))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_algebra::fixtures::{paper_catalog, paper_query};
    use fj_algebra::Sips;
    use fj_storage::tuple;

    fn db() -> Database {
        Database::with_catalog(paper_catalog())
    }

    fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
        rows.sort();
        rows
    }

    #[test]
    fn execute_paper_query() {
        let r = db().execute(&paper_query()).unwrap();
        assert_eq!(
            sorted(r.rows),
            vec![tuple![10, 9000.0, 5000.0], tuple![30, 4000.0, 3000.0]]
        );
        assert!(r.measured_cost > 0.0);
        assert!(r.estimated_cost.unwrap() > 0.0);
        assert_eq!(r.order.len(), 3);
    }

    #[test]
    fn three_roads_agree() {
        let d = db();
        let q = paper_query();
        let optimized = d.execute(&q).unwrap();
        let naive = d.run_logical(&q.to_plan()).unwrap();
        let sips = Sips::derive(d.catalog(), &q, &["E".to_string(), "D".to_string()], "V").unwrap();
        let magic = d.run_magic(&q, &sips).unwrap();
        assert_eq!(sorted(optimized.rows), sorted(naive.rows.clone()));
        assert_eq!(sorted(magic.rows), sorted(naive.rows));
    }

    #[test]
    fn magic_sql_renders_figure2() {
        let d = db();
        let q = paper_query();
        let sips = Sips::derive(d.catalog(), &q, &["E".to_string(), "D".to_string()], "V").unwrap();
        let sql = d.render_magic_sql(&q, &sips).unwrap();
        assert!(sql.contains("CREATE VIEW PartialResult AS"));
        assert!(sql.contains("RestrictedDepAvgSal"));
    }

    #[test]
    fn explain_mentions_plan_and_cost() {
        let s = db().explain(&paper_query()).unwrap();
        assert!(s.contains("estimated cost"));
        assert!(s.contains("join order"));
    }

    #[test]
    fn untraced_execution_carries_no_trace() {
        let r = db().execute(&paper_query()).unwrap();
        assert!(r.trace.is_none());
    }

    #[test]
    fn traced_execution_mirrors_result() {
        let d = db();
        let plain = d.execute(&paper_query()).unwrap();
        let traced = d.execute_traced(&paper_query()).unwrap();
        assert_eq!(sorted(plain.rows), sorted(traced.rows.clone()));
        let trace = traced.trace.expect("traced run records a trace");
        assert_eq!(trace.rows_out(), traced.rows.len() as u64);
        assert!(trace.node_count() >= 3, "plan has at least scan+join nodes");
        assert!(
            trace.root.stats.interrupt_polls > 0,
            "root accounts for at least one interrupt poll"
        );
    }

    #[test]
    fn traced_execution_matches_the_naive_oracle() {
        let d = db();
        let q = paper_query();
        let oracle = d.run_logical(&q.to_plan()).unwrap();
        let traced = d.execute_traced(&q).unwrap();
        assert_eq!(
            traced.trace.unwrap().rows_out(),
            oracle.rows.len() as u64,
            "trace root row count agrees with the logical oracle"
        );
    }

    #[test]
    fn explain_analyze_prints_estimated_vs_actual() {
        let d = db();
        let s = d.explain_analyze(&paper_query()).unwrap();
        let actual = d.run_logical(&paper_query().to_plan()).unwrap().rows.len();
        assert!(s.contains("operators (estimated vs actual)"));
        assert!(s.contains("est "), "per-node estimates rendered");
        assert!(
            s.contains(&format!("actual rows:    {actual}")),
            "top-line actual equals the oracle count:\n{s}"
        );
    }

    #[test]
    fn explain_analyze_ratio_one_flags_any_mismatch() {
        // With ratio clamped to 1.0, any node whose estimate is not
        // byte-exact gets flagged; the paper plan always has at least
        // one fractional estimate against an integral actual.
        let s = db()
            .explain_analyze_with_ratio(&paper_query(), 0.0)
            .unwrap();
        assert!(s.contains("operators (estimated vs actual)"));
    }

    #[test]
    fn config_override_disables_filter_join() {
        let d = db();
        let r = d
            .execute_with_config(&paper_query(), OptimizerConfig::without_filter_join())
            .unwrap();
        assert!(r.sips.is_empty());
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn measured_cost_is_weighed_with_the_config_that_ran() {
        let mut config = OptimizerConfig::default();
        config.params.cpu_weight *= 10.0;
        let r = db().execute_with_config(&paper_query(), config).unwrap();
        assert!(r.charges.tuple_ops > 0, "the CPU weight must matter");
        let p = config.params;
        assert_eq!(
            r.measured_cost,
            r.charges
                .weighted(p.cpu_weight, p.network.per_byte, p.network.per_message)
        );
    }

    #[test]
    fn memory_setting_propagates() {
        let mut d = db();
        d.set_memory_pages(0);
        assert_eq!(d.config().params.memory_pages, 3);
    }

    #[test]
    fn network_setting_propagates() {
        let mut d = db();
        d.set_network(NetworkModel::wan());
        assert!(d.config().params.network.per_byte > 0.0);
        assert!(d.catalog().network().per_message > 0.0);
    }

    #[test]
    fn builder_methods() {
        let mut d = Database::new();
        d.create_table(
            fj_storage::TableBuilder::new("t")
                .column("a", fj_storage::DataType::Int)
                .row(vec![1.into()])
                .build()
                .unwrap(),
        );
        let q = JoinQuery::new(vec![fj_algebra::FromItem::new("t", "T")]);
        assert_eq!(d.execute(&q).unwrap().rows.len(), 1);
    }
}
