//! The distributed coordinator: scatters hash-partitioned base tables
//! across `fj-net` shards at deploy time, reduces them per query with a
//! selectable shipping strategy, rebuilds the reduced tables locally in
//! original row order, and runs the final join through the ordinary
//! optimizer — so a partitioned run is byte-identical (as a sorted row
//! multiset) to the serial oracle.
//!
//! Fault model: every per-partition exchange walks the partition's
//! replica list in [`ShardMap`] order and fails over on retryable
//! refusals (drain, shed) and transport failures. Shards are stateless
//! after scatter — a replica holds identical partition rows forever —
//! so replaying a request verbatim against the next replica is always
//! safe, and one shard entering `begin_drain` mid-query is invisible to
//! the client.

use crate::error::DistError;
use crate::plan::{partition_table_name, AliasInfo, DistPlan, Edge, ORD_COLUMN};
use crate::strategy::{predict_all, CostPrediction, ShipStrategy};
use fj_algebra::{Catalog, FromItem, JoinQuery, PartitionMap};
use fj_cluster::ShardMap;
use fj_core::{Database, QueryResult};
use fj_exec::ops::exchange::merge_by_ordinal;
use fj_exec::{ExecCtx, Interrupt, InterruptReason};
use fj_expr::{col, Expr};
use fj_net::{
    Canceller, Client, FragmentRequest, KeyFilter, NetError, ScatterRequest, SemijoinAck,
    SemijoinRequest, WireBytes,
};
use fj_optimizer::OptimizerConfig;
use fj_storage::{BloomFilter, Column, DataType, Schema, SchemaRef, Table, Tuple, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Coordinator tuning knobs.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Shard-side deadline for each fragment.
    pub fragment_deadline: Duration,
    /// Client-side wait bound for scatter/semijoin exchanges.
    pub io_timeout: Duration,
    /// Target false-positive rate for shipped Bloom filters.
    pub bloom_fp: f64,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            fragment_deadline: Duration::from_secs(30),
            io_timeout: Duration::from_secs(30),
            bloom_fp: 0.01,
        }
    }
}

/// Wire accounting and outcome counters for one deploy or one query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DistStats {
    /// Request frames sent (including failover retries).
    pub messages: u64,
    /// Payload+header bytes put on the wire.
    pub bytes_sent: u64,
    /// Payload+header bytes read off the wire.
    pub bytes_received: u64,
    /// Rows gathered from shards (before ordinal dedup).
    pub rows_gathered: u64,
    /// Per-partition failovers to a later replica.
    pub failovers: u64,
}

impl DistStats {
    fn add_wire(&mut self, w: WireBytes) {
        self.messages += 1;
        self.bytes_sent += w.sent;
        self.bytes_received += w.received;
    }

    /// Total bytes both directions.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_sent + self.bytes_received
    }
}

/// Outcome of one distributed query.
#[derive(Debug)]
pub struct DistResult {
    /// The final result, produced by the ordinary local optimizer over
    /// the reduced tables — same shape as a serial [`QueryResult`].
    pub result: QueryResult,
    /// The shipping strategy that actually ran.
    pub strategy: ShipStrategy,
    /// Wire accounting for this query (scatter excluded — that's
    /// deploy-time).
    pub stats: DistStats,
    /// The cost model's prediction for the chosen strategy, for
    /// predicted-vs-actual reconciliation.
    pub predicted: Option<CostPrediction>,
}

/// A handle that tears a distributed query down from another thread:
/// trips the coordinator's interrupt (stopping it between exchanges)
/// and cancels every fragment currently in flight on a shard.
#[derive(Clone)]
pub struct DistHandle {
    interrupt: Arc<Interrupt>,
    cancellers: Arc<Mutex<Vec<Canceller>>>,
}

impl DistHandle {
    /// Trips the interrupt and cancels in-flight fragments.
    pub fn cancel(&self) {
        self.interrupt.trip(InterruptReason::Cancelled);
        let mut in_flight = self.cancellers.lock().unwrap();
        for c in in_flight.iter_mut() {
            let _ = c.cancel();
        }
    }
}

/// A callback invoked at coordinator phase boundaries (used by tests
/// to inject faults mid-query).
pub type PhaseHook = Box<dyn Fn(&str) + Send + Sync>;

/// The coordinator. Build with [`DistCoordinator::deploy`]; run queries
/// with [`DistCoordinator::execute_with_config`].
pub struct DistCoordinator {
    map: ShardMap,
    catalog: Arc<Catalog>,
    config: DistConfig,
    interrupt: Arc<Interrupt>,
    cancellers: Arc<Mutex<Vec<Canceller>>>,
    phase_hook: Option<PhaseHook>,
    /// Wire accounting for the deploy-time scatter.
    pub deploy_stats: DistStats,
}

impl DistCoordinator {
    /// Hash-partitions every base table of `catalog` and scatters the
    /// partitions to their shards (each partition to every replica in
    /// the [`ShardMap`]). The partition column comes from the catalog's
    /// [`Catalog::partitioning`] entry when present, else column 0; the
    /// shard count always follows the map.
    pub fn deploy(
        catalog: Catalog,
        map: ShardMap,
        config: DistConfig,
    ) -> Result<DistCoordinator, DistError> {
        let mut catalog = catalog;
        let names = catalog.relation_names();
        let mut deploy_stats = DistStats::default();
        // Resolve base tables first so partitioning metadata settles
        // before the catalog is frozen behind an Arc.
        let mut tables = Vec::new();
        for name in names {
            if let Ok(t) = catalog.table(&name) {
                let pmap = catalog
                    .partitioning(&name)
                    .map(|m| PartitionMap::new(m.column, map.shards()))
                    .unwrap_or_else(|| PartitionMap::new(0, map.shards()));
                if pmap.column >= t.schema().arity() {
                    return Err(DistError::Unsupported(format!(
                        "partition column {} out of range for table {name}",
                        pmap.column
                    )));
                }
                if t.schema().columns().iter().any(|c| c.name == ORD_COLUMN) {
                    return Err(DistError::Unsupported(format!(
                        "table {name} already has a column named {ORD_COLUMN}"
                    )));
                }
                catalog.set_partitioning(&name, pmap);
                tables.push((name, t, pmap));
            }
        }
        let coordinator = DistCoordinator {
            map,
            catalog: Arc::new(catalog),
            config,
            interrupt: Arc::new(Interrupt::new()),
            cancellers: Arc::new(Mutex::new(Vec::new())),
            phase_hook: None,
            deploy_stats,
        };
        let mut stats = DistStats::default();
        for (name, table, pmap) in tables {
            let part_schema = part_schema(table.schema())?;
            let mut parts: Vec<Vec<Tuple>> =
                (0..coordinator.map.shards()).map(|_| Vec::new()).collect();
            for (ord, row) in table.rows().iter().enumerate() {
                let shard = pmap.shard_of(row.value(pmap.column)) as usize;
                let mut values: Vec<Value> =
                    (0..row.arity()).map(|i| row.value(i).clone()).collect();
                values.push(Value::Int(ord as i64));
                parts[shard].push(Tuple::new(values));
            }
            for (p, rows) in parts.into_iter().enumerate() {
                let req = ScatterRequest {
                    table: partition_table_name(&name, p as u32),
                    schema: part_schema.clone(),
                    rows,
                };
                // Deploy writes to *every* replica: that is what makes
                // per-query failover safe later.
                for addr in coordinator.map.replicas(p as u32) {
                    let mut client = Client::connect(addr).map_err(DistError::Net)?;
                    let (_ack, wire) = client
                        .scatter(&req, coordinator.config.io_timeout)
                        .map_err(DistError::Net)?;
                    stats.add_wire(wire);
                }
            }
        }
        deploy_stats = stats;
        Ok(DistCoordinator {
            deploy_stats,
            ..coordinator
        })
    }

    /// The coordinator's full (unreduced) catalog.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// A teardown handle for this coordinator's queries.
    pub fn handle(&self) -> DistHandle {
        DistHandle {
            interrupt: self.interrupt.clone(),
            cancellers: self.cancellers.clone(),
        }
    }

    /// Installs a callback invoked at phase boundaries
    /// (`"reduce:<alias>"`, `"rebuild"`, `"local-join"`). The chaos and
    /// differential tests use this to drain a shard mid-query.
    pub fn set_phase_hook(&mut self, hook: PhaseHook) {
        self.phase_hook = Some(hook);
    }

    fn phase(&self, name: &str) {
        if let Some(hook) = &self.phase_hook {
            hook(name);
        }
    }

    fn check_interrupt(&self) -> Result<(), DistError> {
        match self.interrupt.tripped() {
            Some(reason) => Err(DistError::Interrupted(reason)),
            None => Ok(()),
        }
    }

    /// Executes `query` with the default optimizer config and automatic
    /// strategy selection.
    pub fn execute(&self, query: &JoinQuery) -> Result<DistResult, DistError> {
        self.execute_with_config(query, OptimizerConfig::default(), ShipStrategy::Auto)
    }

    /// Executes `query`: reduces every base table with `strategy`,
    /// rebuilds the reduced tables in original row order, and runs the
    /// final join locally under `config`.
    pub fn execute_with_config(
        &self,
        query: &JoinQuery,
        config: OptimizerConfig,
        strategy: ShipStrategy,
    ) -> Result<DistResult, DistError> {
        self.check_interrupt()?;
        let plan = DistPlan::analyze(query, &self.catalog, self.map.shards())?;
        let predictions = predict_all(
            &plan,
            &self.catalog,
            self.map.shards(),
            self.config.bloom_fp,
        );
        let effective = match strategy {
            ShipStrategy::Auto => predictions
                .first()
                .map(|p| p.strategy)
                .unwrap_or(ShipStrategy::ShipWhole),
            ShipStrategy::FullReducer if !plan.is_acyclic() => {
                return Err(DistError::Unsupported(
                    "full reducer requires an acyclic equi-join graph".into(),
                ))
            }
            s => s,
        };
        let predicted = predictions
            .iter()
            .find(|p| p.strategy == effective)
            .copied();

        let mut stats = DistStats::default();
        let reduced = match effective {
            ShipStrategy::ShipWhole => self.reduce_ship_whole(&mut stats, &plan)?,
            ShipStrategy::FetchMatches => {
                self.reduce_driven(&mut stats, &plan, Mode::FetchMatches)?
            }
            ShipStrategy::Semijoin => self.reduce_driven(&mut stats, &plan, Mode::Semijoin)?,
            ShipStrategy::BloomSemijoin => self.reduce_driven(&mut stats, &plan, Mode::Bloom)?,
            ShipStrategy::FullReducer => self.reduce_full(&mut stats, &plan)?,
            ShipStrategy::Auto => unreachable!(),
        };

        self.phase("rebuild");
        self.check_interrupt()?;
        let local = self.rebuild(&plan, reduced)?;
        self.phase("local-join");
        self.check_interrupt()?;
        let db = Database::with_catalog(local);
        let result = db.execute_with_config(query, config)?;
        Ok(DistResult {
            result,
            strategy: effective,
            stats,
            predicted,
        })
    }

    // ------------------------------------------------- reductions

    /// Ship every partition of every alias whole (modulo pushed local
    /// predicates).
    fn reduce_ship_whole(
        &self,
        stats: &mut DistStats,
        plan: &DistPlan,
    ) -> Result<Vec<Vec<Vec<Tuple>>>, DistError> {
        plan.aliases
            .iter()
            .map(|info| self.gather_whole(stats, info))
            .collect()
    }

    /// Driver-based reduction shared by fetch-matches and the semijoin
    /// variants: gather the smallest table whole, then walk the
    /// equi-join graph outward, reducing each alias by the keys its
    /// already-gathered neighbors actually contain.
    fn reduce_driven(
        &self,
        stats: &mut DistStats,
        plan: &DistPlan,
        mode: Mode,
    ) -> Result<Vec<Vec<Vec<Tuple>>>, DistError> {
        let driver = plan.driver(&self.catalog);
        let order = plan.reduction_order(driver);
        let mut reduced: Vec<Option<Vec<Vec<Tuple>>>> = vec![None; plan.aliases.len()];
        reduced[driver] = Some(self.gather_whole(stats, &plan.aliases[driver])?);
        for (v, edges) in &order[1..] {
            let info = &plan.aliases[*v];
            if edges.is_empty() {
                reduced[*v] = Some(self.gather_whole(stats, info)?);
                continue;
            }
            self.phase(&format!("reduce:{}", info.alias));
            let parts = match mode {
                Mode::FetchMatches => {
                    // Fetch by the first incoming edge only; extra
                    // edges still hold at the final local join.
                    let edge = &edges[0];
                    self.fetch_matches(stats, plan, &reduced, info, *v, edge)?
                }
                Mode::Semijoin | Mode::Bloom => {
                    // Semijoin against *every* incoming edge at once —
                    // filters are conjunctive on the shard.
                    let filters =
                        self.filters_from_edges(plan, &reduced, *v, edges, mode == Mode::Bloom)?;
                    self.semijoin_rows(stats, info, filters)?
                }
            };
            reduced[*v] = Some(parts);
        }
        Ok(reduced.into_iter().map(|r| r.unwrap_or_default()).collect())
    }

    /// Yannakakis full reducer: an up sweep shipping distinct key sets
    /// from the leaves toward the root, then a down sweep from the root
    /// back out — after which every gathered row joins into the result.
    fn reduce_full(
        &self,
        stats: &mut DistStats,
        plan: &DistPlan,
    ) -> Result<Vec<Vec<Vec<Tuple>>>, DistError> {
        let n = plan.aliases.len();
        let mut reduced: Vec<Option<Vec<Vec<Tuple>>>> = vec![None; n];
        // child_filters[v]: the up-sweep filters v accumulated from its
        // subtree, reused on the down sweep.
        let mut child_filters: Vec<Vec<(String, KeyFilter)>> = vec![Vec::new(); n];
        let mut visited = vec![false; n];
        for seed in 0..n {
            if visited[seed] {
                continue;
            }
            if plan.edges_of(seed).next().is_none() {
                visited[seed] = true;
                reduced[seed] = Some(self.gather_whole(stats, &plan.aliases[seed])?);
                continue;
            }
            // Root the sweep at the component's largest table: key sets
            // then flow from small relations toward the big one, and
            // the big one never ships its own keys anywhere.
            let root = component_members(plan, seed)
                .into_iter()
                .max_by_key(|&v| {
                    self.catalog
                        .table(&plan.aliases[v].table)
                        .map(|t| t.row_count())
                        .unwrap_or(0)
                })
                .unwrap_or(seed);
            // Up sweep (iterative post-order to keep borrowck simple).
            let postorder = tree_postorder(plan, root, &mut visited);
            for &(v, parent) in &postorder {
                self.phase(&format!("reduce:{}", plan.aliases[v].alias));
                if let Some(parent) = parent {
                    let edge = plan
                        .edges_of(v)
                        .find(|e| e.other(v) == parent)
                        .expect("tree edge")
                        .clone();
                    // Ship one distinct key set up per key column.
                    for (my_col, parent_col) in edge.keys_from(v) {
                        let keys = self.semijoin_keys(
                            stats,
                            &plan.aliases[v],
                            child_filters[v].clone(),
                            my_col,
                        )?;
                        child_filters[parent].push((
                            AliasInfo::base_col(parent_col).to_string(),
                            KeyFilter::Exact(keys),
                        ));
                    }
                } else {
                    // Root: fully filtered by its subtree; gather rows.
                    reduced[v] = Some(self.semijoin_rows(
                        stats,
                        &plan.aliases[v],
                        child_filters[v].clone(),
                    )?);
                }
            }
            // Down sweep (reverse post-order = parent before child).
            for &(v, parent) in postorder.iter().rev() {
                let Some(parent) = parent else { continue };
                let edge = plan
                    .edges_of(v)
                    .find(|e| e.other(v) == parent)
                    .expect("tree edge")
                    .clone();
                let parent_rows = reduced[parent].as_ref().expect("parent reduced first");
                let mut filters = child_filters[v].clone();
                for (my_col, parent_col) in edge.keys_from(v) {
                    let idx = plan.aliases[parent].col_index(parent_col)?;
                    let keys: BTreeSet<Value> = parent_rows
                        .iter()
                        .flatten()
                        .map(|row| row.value(idx).clone())
                        .collect();
                    filters.push((
                        AliasInfo::base_col(my_col).to_string(),
                        KeyFilter::Exact(keys.into_iter().collect()),
                    ));
                }
                reduced[v] = Some(self.semijoin_rows(stats, &plan.aliases[v], filters)?);
            }
        }
        Ok(reduced.into_iter().map(|r| r.unwrap_or_default()).collect())
    }

    // ------------------------------------------------- primitives

    /// Gathers every partition of `info`'s table whole (with its local
    /// predicate pushed down), one fragment per partition.
    fn gather_whole(
        &self,
        stats: &mut DistStats,
        info: &AliasInfo,
    ) -> Result<Vec<Vec<Tuple>>, DistError> {
        self.phase(&format!("gather:{}", info.alias));
        let mut parts = Vec::with_capacity(self.map.shards() as usize);
        for p in 0..self.map.shards() {
            let mut q = JoinQuery::new(vec![FromItem::new(
                partition_table_name(&info.table, p),
                info.alias.clone(),
            )]);
            if let Some(pred) = &info.local_pred {
                q = q.with_predicate(pred.clone());
            }
            let reply = self.fragment(stats, p, q)?;
            stats.rows_gathered += reply.rows.len() as u64;
            parts.push(reply.rows);
        }
        Ok(parts)
    }

    /// R* fetch-matches: one keyed fragment per distinct driver-side
    /// key combination, routed to the owning shard when the inner is
    /// partitioned on the join column, broadcast otherwise.
    fn fetch_matches(
        &self,
        stats: &mut DistStats,
        plan: &DistPlan,
        reduced: &[Option<Vec<Vec<Tuple>>>],
        info: &AliasInfo,
        v: usize,
        edge: &Edge,
    ) -> Result<Vec<Vec<Tuple>>, DistError> {
        let from = edge.other(v);
        let pairs = edge.keys_from(from);
        let from_info = &plan.aliases[from];
        let from_rows = reduced[from].as_ref().expect("source gathered first");
        let from_idxs: Vec<usize> = pairs
            .iter()
            .map(|(fc, _)| from_info.col_index(fc))
            .collect::<Result<_, _>>()?;
        let to_cols: Vec<&str> = pairs.iter().map(|(_, tc)| *tc).collect();
        let to_idxs: Vec<usize> = to_cols
            .iter()
            .map(|tc| info.col_index(tc))
            .collect::<Result<_, _>>()?;
        let keys: BTreeSet<Vec<Value>> = from_rows
            .iter()
            .flatten()
            .map(|row| from_idxs.iter().map(|&i| row.value(i).clone()).collect())
            .collect();
        // Partition pruning: if any fetched column is the partition
        // column, each key combination lives on exactly one shard.
        let route_on = to_idxs.iter().position(|&i| i == info.map.column);
        let mut parts: Vec<Vec<Tuple>> = Vec::new();
        for key in keys {
            let pred = to_cols
                .iter()
                .zip(&key)
                .map(|(tc, val)| {
                    col(format!("{}.{}", info.alias, AliasInfo::base_col(tc)))
                        .eq(Expr::Literal(val.clone()))
                })
                .reduce(|a, b| a.and(b))
                .expect("at least one key column");
            let pred = match &info.local_pred {
                Some(local) => pred.and(local.clone()),
                None => pred,
            };
            let targets: Vec<u32> = match route_on {
                Some(i) => vec![info.map.shard_of(&key[i])],
                None => (0..self.map.shards()).collect(),
            };
            for p in targets {
                let q = JoinQuery::new(vec![FromItem::new(
                    partition_table_name(&info.table, p),
                    info.alias.clone(),
                )])
                .with_predicate(pred.clone());
                let reply = self.fragment(stats, p, q)?;
                stats.rows_gathered += reply.rows.len() as u64;
                parts.push(reply.rows);
            }
        }
        Ok(parts)
    }

    /// Builds the conjunctive filter list reducing alias `v` through
    /// `edges` from already-gathered neighbors: one exact or Bloom key
    /// set per key column.
    fn filters_from_edges(
        &self,
        plan: &DistPlan,
        reduced: &[Option<Vec<Vec<Tuple>>>],
        v: usize,
        edges: &[Edge],
        bloom: bool,
    ) -> Result<Vec<(String, KeyFilter)>, DistError> {
        let mut filters = Vec::new();
        for edge in edges {
            let from = edge.other(v);
            let from_info = &plan.aliases[from];
            let from_rows = reduced[from].as_ref().expect("source gathered first");
            for (from_col, my_col) in edge.keys_from(from) {
                let idx = from_info.col_index(from_col)?;
                let keys: BTreeSet<Value> = from_rows
                    .iter()
                    .flatten()
                    .map(|row| row.value(idx).clone())
                    .collect();
                let filter = if bloom {
                    let mut f =
                        BloomFilter::with_capacity(keys.len().max(1) as u64, self.config.bloom_fp);
                    for k in &keys {
                        f.insert(k);
                    }
                    KeyFilter::Bloom(f)
                } else {
                    KeyFilter::Exact(keys.into_iter().collect())
                };
                filters.push((AliasInfo::base_col(my_col).to_string(), filter));
            }
        }
        Ok(filters)
    }

    /// One semijoin round over every partition of `info`'s table,
    /// returning surviving rows per partition.
    fn semijoin_rows(
        &self,
        stats: &mut DistStats,
        info: &AliasInfo,
        filters: Vec<(String, KeyFilter)>,
    ) -> Result<Vec<Vec<Tuple>>, DistError> {
        let mut parts = Vec::with_capacity(self.map.shards() as usize);
        for p in 0..self.map.shards() {
            let req = SemijoinRequest {
                table: partition_table_name(&info.table, p),
                filters: prune_for_partition(info, &filters, p),
                want_rows: true,
                keys_of: None,
            };
            let ack = self.semijoin(stats, p, &req)?;
            let rows = ack.rows.map(|(_, rows)| rows).unwrap_or_default();
            stats.rows_gathered += rows.len() as u64;
            parts.push(rows);
        }
        Ok(parts)
    }

    /// One semijoin round gathering only the distinct keys of
    /// `key_col` among survivors, unioned across partitions.
    fn semijoin_keys(
        &self,
        stats: &mut DistStats,
        info: &AliasInfo,
        filters: Vec<(String, KeyFilter)>,
        key_col: &str,
    ) -> Result<Vec<Value>, DistError> {
        let mut keys: BTreeSet<Value> = BTreeSet::new();
        for p in 0..self.map.shards() {
            let req = SemijoinRequest {
                table: partition_table_name(&info.table, p),
                filters: prune_for_partition(info, &filters, p),
                want_rows: false,
                keys_of: Some(AliasInfo::base_col(key_col).to_string()),
            };
            let ack = self.semijoin(stats, p, &req)?;
            keys.extend(ack.keys.unwrap_or_default());
        }
        Ok(keys.into_iter().collect())
    }

    // ------------------------------------------------- transport

    /// Runs `f` against partition `p`'s replicas in failover order.
    /// Replica-local failures ([`NetError::is_replica_local`]: a
    /// crashed, shedding, or draining replica must be invisible when
    /// another one holds the partition) move to the next replica;
    /// anything else is final.
    fn call_shard<T>(
        &self,
        stats: &mut DistStats,
        p: u32,
        f: impl Fn(&mut Client, &mut DistStats) -> Result<(T, WireBytes), NetError>,
    ) -> Result<T, DistError> {
        let replicas = self.map.replicas(p);
        let mut last = String::from("no replicas configured");
        for (i, addr) in replicas.iter().enumerate() {
            self.check_interrupt()?;
            if i > 0 {
                stats.failovers += 1;
            }
            let mut client = match Client::connect_timeout(addr, self.config.io_timeout) {
                Ok(c) => c,
                Err(e) => {
                    last = format!("{addr}: {e}");
                    continue;
                }
            };
            match f(&mut client, stats) {
                Ok((value, wire)) => {
                    stats.add_wire(wire);
                    return Ok(value);
                }
                Err(e) if e.is_replica_local() => {
                    // The request frame still went out.
                    stats.messages += 1;
                    last = format!("{addr}: {e}");
                }
                Err(e) => {
                    if self.interrupt.is_tripped() {
                        return self.check_interrupt().map(|_| unreachable!());
                    }
                    return Err(DistError::Net(e));
                }
            }
        }
        Err(DistError::NoHealthyReplica {
            shard: p,
            detail: last,
        })
    }

    /// One FRAGMENT exchange with partition `p`, registered for
    /// teardown while in flight.
    fn fragment(
        &self,
        stats: &mut DistStats,
        p: u32,
        query: JoinQuery,
    ) -> Result<fj_net::GatherReply, DistError> {
        let req = FragmentRequest {
            deadline_millis: self.config.fragment_deadline.as_millis() as u64,
            query,
        };
        let cancellers = &self.cancellers;
        self.call_shard(stats, p, move |client, _stats| {
            if let Ok(c) = client.canceller() {
                cancellers.lock().unwrap().push(c);
            }
            let out = client.fragment(&req);
            cancellers.lock().unwrap().pop();
            out
        })
    }

    /// One SEMIJOIN exchange with partition `p`.
    fn semijoin(
        &self,
        stats: &mut DistStats,
        p: u32,
        req: &SemijoinRequest,
    ) -> Result<SemijoinAck, DistError> {
        let timeout = self.config.io_timeout;
        self.call_shard(stats, p, move |client, _stats| {
            client.semijoin(req, timeout)
        })
    }

    // ------------------------------------------------- rebuild

    /// Rebuilds every reduced table in original row order (merging all
    /// aliases of the same table, deduplicating by ordinal), recreates
    /// its indexes, and installs it into a clone of the coordinator
    /// catalog.
    fn rebuild(
        &self,
        plan: &DistPlan,
        reduced: Vec<Vec<Vec<Tuple>>>,
    ) -> Result<Catalog, DistError> {
        let ctx = ExecCtx::new(self.catalog.clone());
        let mut by_table: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, info) in plan.aliases.iter().enumerate() {
            by_table.entry(info.table.as_str()).or_default().push(i);
        }
        let mut local = (*self.catalog).clone();
        for (table, alias_idxs) in by_table {
            let info = &plan.aliases[alias_idxs[0]];
            let base_schema = &info.schema;
            let pschema = part_schema(base_schema)?;
            let all_parts: Vec<Vec<Tuple>> = alias_idxs
                .iter()
                .flat_map(|&i| reduced[i].clone())
                .collect();
            let merged = merge_by_ordinal(&ctx, pschema, all_parts, base_schema.arity())?;
            let rows: Vec<Tuple> = merged
                .rows
                .into_iter()
                .map(|row| {
                    Tuple::new(
                        (0..base_schema.arity())
                            .map(|i| row.value(i).clone())
                            .collect(),
                    )
                })
                .collect();
            let mut t = Table::new(table, (**base_schema).clone(), rows)?;
            let original = self.catalog.table(table).map_err(|e| {
                DistError::Unsupported(format!("table {table} vanished from catalog: {e}"))
            })?;
            for c in original.hash_indexed_columns() {
                t.create_hash_index(c)?;
            }
            for c in original.btree_indexed_columns() {
                t.create_btree_index(c)?;
            }
            local.add_table(t.into_ref());
        }
        Ok(local)
    }
}

/// Driver-based reduction flavors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    FetchMatches,
    Semijoin,
    Bloom,
}

/// The scattered partition schema: the base schema plus the hidden
/// ordinal column.
fn part_schema(base: &SchemaRef) -> Result<SchemaRef, DistError> {
    let mut columns = base.columns().to_vec();
    columns.push(Column::new(ORD_COLUMN, DataType::Int));
    Ok(Schema::new(columns)?.into_ref())
}

/// Shrinks exact filters before they ship: a key on the table's own
/// partition column can only match rows of the partition it hashes to,
/// so each partition receives just its slice of the key set. Bloom
/// filters are opaque and ship whole.
fn prune_for_partition(
    info: &AliasInfo,
    filters: &[(String, KeyFilter)],
    p: u32,
) -> Vec<(String, KeyFilter)> {
    let part_col = info.schema.columns()[info.map.column].base_name();
    filters
        .iter()
        .map(|(c, f)| match f {
            KeyFilter::Exact(keys) if c == part_col => (
                c.clone(),
                KeyFilter::Exact(
                    keys.iter()
                        .filter(|k| info.map.shard_of(k) == p)
                        .cloned()
                        .collect(),
                ),
            ),
            _ => (c.clone(), f.clone()),
        })
        .collect()
}

/// Every alias reachable from `start` through equi-join edges,
/// including `start` itself.
fn component_members(plan: &DistPlan, start: usize) -> Vec<usize> {
    let mut seen = vec![false; plan.aliases.len()];
    let mut queue = vec![start];
    seen[start] = true;
    let mut out = Vec::new();
    while let Some(v) = queue.pop() {
        out.push(v);
        for e in plan.edges_of(v) {
            let o = e.other(v);
            if !seen[o] {
                seen[o] = true;
                queue.push(o);
            }
        }
    }
    out
}

/// Post-order traversal of the equi-join tree rooted at `root`:
/// `(node, parent)` pairs with every child before its parent. Marks
/// nodes visited.
fn tree_postorder(
    plan: &DistPlan,
    root: usize,
    visited: &mut [bool],
) -> Vec<(usize, Option<usize>)> {
    let mut out = Vec::new();
    let mut stack = vec![(root, None::<usize>, false)];
    visited[root] = true;
    while let Some((v, parent, expanded)) = stack.pop() {
        if expanded {
            out.push((v, parent));
            continue;
        }
        stack.push((v, parent, true));
        for e in plan.edges_of(v) {
            let o = e.other(v);
            if !visited[o] {
                visited[o] = true;
                stack.push((o, Some(v), false));
            }
        }
    }
    out
}
