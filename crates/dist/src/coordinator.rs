//! The distributed coordinator: scatters hash-partitioned base tables
//! across `fj-net` shards at deploy time, reduces them per query by
//! running a shipping strategy's `Program` one exchange at a time,
//! rebuilds the reduced tables locally in original row order, and runs
//! the final join through the ordinary optimizer — so a partitioned run
//! is byte-identical (as a sorted row multiset) to the serial oracle.
//!
//! Fault model: every request — the deploy-time scatter and each
//! per-partition exchange — is a call on one [`Replicas`] router over
//! [`ShardMap::servers`], the one `fj-cluster`'s client routes through.
//! An exchange walks the partition's replica list in [`ShardMap`] order
//! and fails over on replica-local failures (drain, shed, transport),
//! gated by per-server circuit breakers and charged to a shared retry
//! budget, both sized by [`ClusterConfig::default`]. Connections are
//! kept alive between exchanges. Shards are stateless after scatter — a
//! replica holds identical partition rows forever — so replaying a
//! request verbatim against the next replica, or against the same one
//! over a fresh connection when a kept-alive one turns out closed, is
//! always safe, and one shard entering `begin_drain` mid-query is
//! invisible to the client.

use crate::error::DistError;
use crate::plan::{partition_table_name, AliasInfo, DistPlan, Edge, ORD_COLUMN};
use crate::strategy::{
    predict_all, CostPrediction, Exchange, Filter, KeySource, Program, ShipStrategy, BLOOM_FP,
};
use fj_algebra::{Catalog, FromItem, JoinQuery, PartitionMap};
use fj_cluster::{CancelToken, ClusterConfig, ClusterError, Replicas, ShardMap};
use fj_core::{Database, QueryResult};
use fj_exec::ops::exchange::merge_by_ordinal;
use fj_exec::{ExecCtx, InterruptReason};
use fj_expr::{col, Expr};
use fj_net::{
    Client, FragmentRequest, KeyFilter, NetError, ScatterRequest, SemijoinAck, SemijoinRequest,
    WireBytes,
};
use fj_optimizer::OptimizerConfig;
use fj_storage::{BloomFilter, Column, DataType, Schema, SchemaRef, Table, Tuple, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Coordinator tuning knobs.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Shard-side deadline for each fragment.
    pub fragment_deadline: Duration,
    /// Client-side bound on each dial (connect and handshake) and on the
    /// wait for a scatter/semijoin reply.
    pub io_timeout: Duration,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            fragment_deadline: Duration::from_secs(30),
            io_timeout: Duration::from_secs(30),
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
    /// The cost model's prediction for the program that ran, for
    /// predicted-vs-actual reconciliation. Every strategy that runs is
    /// priced, so this is always `Some`.
    pub predicted: Option<CostPrediction>,
}

/// A handle that tears a distributed query down from another thread:
/// cancels the coordinator's token, which stops it between exchanges
/// and sends CANCEL on every exchange currently in flight on a shard.
/// Sticky: the coordinator stays cancelled.
#[derive(Clone)]
pub struct DistHandle {
    token: Arc<CancelToken>,
}

impl DistHandle {
    /// Cancels the coordinator and its in-flight exchanges.
    pub fn cancel(&self) {
        self.token.cancel();
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
    replicas: Replicas,
    /// `routes[p]`: partition `p`'s replicas as router indices, in
    /// [`ShardMap`] order.
    routes: Vec<Vec<usize>>,
    token: Arc<CancelToken>,
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
        mut catalog: Catalog,
        map: ShardMap,
        config: DistConfig,
    ) -> Result<DistCoordinator, DistError> {
        // Resolve base tables first so partitioning metadata settles
        // before the catalog is frozen behind an Arc.
        let mut tables = Vec::new();
        for name in catalog.relation_names() {
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
        let servers = map.servers();
        let index = |addr: &SocketAddr| servers.iter().position(|s| s == addr);
        let routes = (0..map.shards())
            .map(|p| map.replicas(p).iter().filter_map(index).collect())
            .collect();
        let mut coordinator = DistCoordinator {
            map,
            catalog: Arc::new(catalog),
            replicas: Replicas::new(&servers, &ClusterConfig::default(), config.io_timeout),
            config,
            routes,
            token: Arc::new(CancelToken::new()),
            phase_hook: None,
            deploy_stats: DistStats::default(),
        };
        let mut deploy_stats = DistStats::default();
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
                for &idx in &coordinator.routes[p] {
                    coordinator.call_shard(&mut deploy_stats, p as u32, &[idx], |client| {
                        client.scatter(&req, coordinator.config.io_timeout)
                    })?;
                }
            }
        }
        coordinator.deploy_stats = deploy_stats;
        Ok(coordinator)
    }

    /// The coordinator's full (unreduced) catalog.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// A teardown handle for this coordinator's queries.
    pub fn handle(&self) -> DistHandle {
        DistHandle {
            token: Arc::clone(&self.token),
        }
    }

    /// Installs a callback invoked at phase boundaries: before each
    /// exchange (`"gather:<alias>"` for an unfiltered Gather,
    /// `"reduce:<alias>"` for the others), then `"rebuild"` and
    /// `"local-join"`. The chaos and differential tests use this to
    /// drain a shard mid-query.
    pub fn set_phase_hook(&mut self, hook: PhaseHook) {
        self.phase_hook = Some(hook);
    }

    fn phase(&self, name: &str) {
        if let Some(hook) = &self.phase_hook {
            hook(name);
        }
    }

    fn check_interrupt(&self) -> Result<(), DistError> {
        if self.token.is_cancelled() {
            return Err(DistError::Interrupted(InterruptReason::Cancelled));
        }
        Ok(())
    }

    /// Executes `query` with the default optimizer config and automatic
    /// strategy selection.
    pub fn execute(&self, query: &JoinQuery) -> Result<DistResult, DistError> {
        self.execute_with_config(query, OptimizerConfig::default(), ShipStrategy::Auto)
    }

    /// Executes `query`: reduces every base table by running
    /// `strategy`'s program, rebuilds the reduced tables in original row
    /// order, and runs the final join locally under `config`.
    pub fn execute_with_config(
        &self,
        query: &JoinQuery,
        config: OptimizerConfig,
        strategy: ShipStrategy,
    ) -> Result<DistResult, DistError> {
        self.check_interrupt()?;
        let plan = DistPlan::analyze(query, &self.catalog, self.map.shards())?;
        let predictions = predict_all(&plan, &self.catalog, self.map.shards());
        let effective = match strategy {
            ShipStrategy::Auto => predictions
                .first()
                .map_or(ShipStrategy::ShipWhole, |p| p.strategy),
            s => s,
        };
        let program = effective.program(&plan, &self.catalog).ok_or_else(|| {
            DistError::Unsupported(format!(
                "{} requires an acyclic equi-join graph",
                effective.name()
            ))
        })?;
        let predicted = predictions
            .iter()
            .find(|p| p.strategy == effective)
            .copied();

        let mut stats = DistStats::default();
        let reduced = self.run(&mut stats, &plan, &program)?;

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

    /// Runs `program`'s exchanges in order, returning each alias's
    /// gathered rows, one vector per reply.
    fn run(
        &self,
        stats: &mut DistStats,
        plan: &DistPlan,
        program: &Program,
    ) -> Result<Vec<Vec<Vec<Tuple>>>, DistError> {
        let shards = self.map.shards();
        let mut gathered: Vec<Option<Vec<Vec<Tuple>>>> = vec![None; plan.aliases.len()];
        let mut slots: Vec<Vec<Value>> = Vec::new();
        for exchange in &program.0 {
            match exchange {
                Exchange::Gather(v, filters) if filters.is_empty() => {
                    let info = &plan.aliases[*v];
                    self.phase(&format!("gather:{}", info.alias));
                    let pred = info.local_pred.as_ref();
                    gathered[*v] = Some(self.fragments(stats, info, 0..shards, pred)?);
                }
                Exchange::Gather(v, filters) => {
                    let info = &plan.aliases[*v];
                    self.phase(&format!("reduce:{}", info.alias));
                    let filters = key_filters(plan, &gathered, &slots, filters)?;
                    let rows: Vec<Vec<Tuple>> = self
                        .semijoins(stats, info, &filters, None)?
                        .into_iter()
                        .map(|ack| ack.rows.map(|(_, rows)| rows).unwrap_or_default())
                        .collect();
                    stats.rows_gathered += rows.iter().map(Vec::len).sum::<usize>() as u64;
                    gathered[*v] = Some(rows);
                }
                Exchange::Keys(v, col, filters) => {
                    let info = &plan.aliases[*v];
                    self.phase(&format!("reduce:{}", info.alias));
                    let filters = key_filters(plan, &gathered, &slots, filters)?;
                    let keys: BTreeSet<Value> = self
                        .semijoins(stats, info, &filters, Some(col))?
                        .into_iter()
                        .flat_map(|ack| ack.keys.unwrap_or_default())
                        .collect();
                    slots.push(keys.into_iter().collect());
                }
                Exchange::Fetch(v, e) => {
                    self.phase(&format!("reduce:{}", plan.aliases[*v].alias));
                    let parts = self.fetch_matches(stats, plan, &gathered, *v, &plan.edges[*e])?;
                    gathered[*v] = Some(parts);
                }
            }
        }
        gathered
            .into_iter()
            .enumerate()
            .map(|(v, rows)| rows.ok_or_else(|| not_gathered(plan, v)))
            .collect()
    }

    // ------------------------------------------------- exchanges

    /// R* fetch-matches: one keyed fragment per distinct key
    /// combination the other end of `edge` gathered, routed to the
    /// owning shard when alias `v` is partitioned on a key column,
    /// broadcast otherwise.
    fn fetch_matches(
        &self,
        stats: &mut DistStats,
        plan: &DistPlan,
        gathered: &[Option<Vec<Vec<Tuple>>>],
        v: usize,
        edge: &Edge,
    ) -> Result<Vec<Vec<Tuple>>, DistError> {
        let info = &plan.aliases[v];
        let from = edge.other(v);
        let pairs = edge.keys_from(from);
        let from_info = &plan.aliases[from];
        let from_idxs: Vec<usize> = pairs
            .iter()
            .map(|(fc, _)| from_info.col_index(fc))
            .collect::<Result<_, _>>()?;
        let to_idxs: Vec<usize> = pairs
            .iter()
            .map(|(_, tc)| info.col_index(tc))
            .collect::<Result<_, _>>()?;
        let keys: BTreeSet<Vec<Value>> = rows_of(plan, gathered, from)?
            .iter()
            .flatten()
            .map(|row| from_idxs.iter().map(|&i| row.value(i).clone()).collect())
            .collect();
        // Partition pruning: if any fetched column is the partition
        // column, each key combination lives on exactly one shard.
        let route_on = to_idxs.iter().position(|&i| i == info.map.column);
        let mut parts: Vec<Vec<Tuple>> = Vec::new();
        for key in keys {
            // The key conjuncts, then the local predicate.
            let pred = pairs
                .iter()
                .zip(&key)
                .map(|((_, tc), val)| {
                    col(format!("{}.{}", info.alias, AliasInfo::base_col(tc)))
                        .eq(Expr::Literal(val.clone()))
                })
                .chain(info.local_pred.clone())
                .reduce(|a, b| a.and(b));
            let targets = match route_on {
                Some(i) => vec![info.map.shard_of(&key[i])],
                None => (0..self.map.shards()).collect(),
            };
            parts.extend(self.fragments(stats, info, targets, pred.as_ref())?);
        }
        Ok(parts)
    }

    /// One FRAGMENT over `info`'s table per partition in `parts`, under
    /// `pred`: each reply's rows.
    fn fragments(
        &self,
        stats: &mut DistStats,
        info: &AliasInfo,
        parts: impl IntoIterator<Item = u32>,
        pred: Option<&Expr>,
    ) -> Result<Vec<Vec<Tuple>>, DistError> {
        parts
            .into_iter()
            .map(|p| {
                let mut query = JoinQuery::new(vec![FromItem::new(
                    partition_table_name(&info.table, p),
                    info.alias.clone(),
                )]);
                if let Some(pred) = pred {
                    query = query.with_predicate(pred.clone());
                }
                let req = FragmentRequest {
                    deadline_millis: self.config.fragment_deadline.as_millis() as u64,
                    query,
                };
                let route = &self.routes[p as usize];
                let reply = self.call_shard(stats, p, route, |client| client.fragment(&req))?;
                stats.rows_gathered += reply.rows.len() as u64;
                Ok(reply.rows)
            })
            .collect()
    }

    /// One SEMIJOIN over `info`'s table per partition, under `filters`:
    /// the acks carry surviving rows, or with `keys_of` the distinct
    /// values of that column among them.
    fn semijoins(
        &self,
        stats: &mut DistStats,
        info: &AliasInfo,
        filters: &[(String, KeyFilter)],
        keys_of: Option<&str>,
    ) -> Result<Vec<SemijoinAck>, DistError> {
        (0..self.map.shards())
            .map(|p| {
                let req = SemijoinRequest {
                    table: partition_table_name(&info.table, p),
                    filters: prune_for_partition(info, filters, p),
                    want_rows: keys_of.is_none(),
                    keys_of: keys_of.map(|c| AliasInfo::base_col(c).to_string()),
                };
                self.call_shard(stats, p, &self.routes[p as usize], |c| {
                    c.semijoin(&req, self.config.io_timeout)
                })
            })
            .collect()
    }

    // ------------------------------------------------- transport

    /// Runs `f` on partition `p`'s replicas in `order` (router indices)
    /// through the router, which fails over on replica-local failures
    /// ([`NetError::is_replica_local`]: a crashed, shedding, or draining
    /// replica must be invisible when another one holds the partition).
    /// Charges the reply's wire bytes, and every failed request and
    /// failover hop, to `stats`.
    fn call_shard<T>(
        &self,
        stats: &mut DistStats,
        p: u32,
        order: &[usize],
        mut f: impl FnMut(&mut Client) -> Result<(T, WireBytes), NetError>,
    ) -> Result<T, DistError> {
        let routed = self
            .replicas
            .call(order, &self.token, |_, client| f(client));
        let routed = routed.map_err(|e| match e {
            ClusterError::Cancelled => DistError::Interrupted(InterruptReason::Cancelled),
            ClusterError::Net(e) => DistError::Net(e),
            e => DistError::NoHealthyReplica {
                shard: p,
                detail: e.to_string(),
            },
        })?;
        let (value, wire) = routed.value;
        stats.add_wire(wire);
        // A failed request's frame still went out.
        stats.messages += routed.failed_requests;
        stats.failovers += routed.failovers;
        Ok(value)
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

/// The error for a program that reads an alias before gathering it.
fn not_gathered(plan: &DistPlan, v: usize) -> DistError {
    DistError::Unsupported(format!(
        "program reads alias {} before gathering it",
        plan.aliases[v].alias
    ))
}

/// The rows an earlier exchange gathered for alias `v`.
fn rows_of<'a>(
    plan: &DistPlan,
    gathered: &'a [Option<Vec<Vec<Tuple>>>],
    v: usize,
) -> Result<&'a Vec<Vec<Tuple>>, DistError> {
    gathered[v].as_ref().ok_or_else(|| not_gathered(plan, v))
}

/// Materializes a program's filters: each one's key set, exact or as a
/// Bloom filter, keyed by the filtered base column.
fn key_filters(
    plan: &DistPlan,
    gathered: &[Option<Vec<Vec<Tuple>>>],
    slots: &[Vec<Value>],
    filters: &[Filter],
) -> Result<Vec<(String, KeyFilter)>, DistError> {
    filters
        .iter()
        .map(|f| {
            let keys = match &f.source {
                KeySource::Column(v, c) => {
                    let idx = plan.aliases[*v].col_index(c)?;
                    let keys: BTreeSet<Value> = rows_of(plan, gathered, *v)?
                        .iter()
                        .flatten()
                        .map(|row| row.value(idx).clone())
                        .collect();
                    keys.into_iter().collect()
                }
                KeySource::Slot(i) => slots.get(*i).cloned().ok_or_else(|| {
                    DistError::Unsupported(format!("program reads key slot {i} before filling it"))
                })?,
            };
            let filter = if f.bloom {
                let mut bloom = BloomFilter::with_capacity(keys.len().max(1) as u64, BLOOM_FP);
                for k in &keys {
                    bloom.insert(k);
                }
                KeyFilter::Bloom(bloom)
            } else {
                KeyFilter::Exact(keys)
            };
            Ok((AliasInfo::base_col(&f.col).to_string(), filter))
        })
        .collect()
}
