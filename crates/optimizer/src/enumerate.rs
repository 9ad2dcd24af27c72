//! The System-R bottom-up dynamic-programming enumerator (§3.1),
//! extended with the Filter Join as a join method (§3.2–3.3).
//!
//! There is one DP. `best[S]` holds a small frontier of the cheapest
//! plans joining the alias subset `S`; [`Search::run`] visits a list of
//! subset masks and, for each, asks a *split generator* for
//! `(outer, inner)` sub-masks, joins every retained outer entry with
//! every retained inner entry under every applicable method
//! ([`Search::join_candidates`]) and keeps the survivors of
//! [`insert_pruned`]. The three search spaces differ only in which
//! masks are visited and how each is split:
//!
//! * [`PlanShape::LeftDeep`] (the default, and the shape of every
//!   pinned paper experiment): every subset, split as `(S∖{j}, {j})`
//!   for each leaf `j` — the left-deep orders of System R. Each join
//!   considers O(1) methods and Filter Join costing is O(1) after the
//!   parametric fits (Assumption 1), so enabling the Filter Join
//!   multiplies the per-join work by a constant and leaves the
//!   `O(N·2^(N−1))` complexity of optimization unchanged — the property
//!   the complexity benchmark measures.
//! * [`PlanShape::Bushy`]: every subset, split DPccp-style into
//!   connected subgraph–complement pairs of the join graph (conjunct
//!   masks plus the equality-class transitive closure), both
//!   orientations. A split whose inner side is a single leaf is admitted
//!   even without a connecting edge, so every left-deep *tree* (cross
//!   products included) is also a bushy tree.
//! * A forced order ([`Optimizer::optimize_with_order`]): only the
//!   `n − 1` prefixes of the order, each split one way.
//!
//! Join methods that restrict a *named* relation — index nested loops,
//! UDF probes and the Filter Join — are offered when the inner side is
//! a single leaf; block nested loops, hash and sort-merge accept any
//! subtree on either side. The Filter Join itself is one method with a
//! list of variants ([`Search::filter_join_variants`]): Limitations 1–3
//! of §3.3 bound that list to a small constant per join.

use crate::cost::CostParams;
use crate::error::OptError;
use crate::estimate::{ColEst, EstStats, PlanEstimator};
use crate::filter_join::{
    build_filter_join_plan, cost_filter_join, FilterJoinArgs, FilterJoinCost, PrefixProduction,
};
use crate::parametric::ParametricEstimator;
use fj_algebra::{Catalog, JoinKind, JoinQuery, LogicalPlan, RelationKind, Sips};
use fj_exec::{lower, PhysPlan};
use fj_expr::{col, columns_of, conjoin, equi_join_keys, split_conjuncts, EquiJoinKey, Expr};
use fj_storage::{Index as _, Schema};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Which join-tree shapes the enumerator explores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PlanShape {
    /// Left-deep chains only (System-R; every pinned paper experiment
    /// and the `optimize_with_order` forced-order path use this shape).
    #[default]
    LeftDeep,
    /// The full bushy space: connected subgraph–complement pairs of
    /// the join graph plus every single-leaf extension, a strict
    /// superset of the left-deep space.
    Bushy,
}

/// Optimizer knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizerConfig {
    /// Consider the Filter Join method (the paper's contribution).
    pub enable_filter_join: bool,
    /// Consider the lossy (Bloom) filter variant for table inners.
    pub enable_bloom: bool,
    /// Consider index nested loops for indexed local tables.
    pub enable_index_nl: bool,
    /// Consider sort-merge joins.
    pub enable_merge_join: bool,
    /// Consider Filter Joins whose inner is a *local base table* (§5.3's
    /// local semi-join).
    pub filter_join_on_base: bool,
    /// Ablation of Limitation 2 (§3.3): also consider production sets
    /// that are strict *prefixes* of the outer (Limitation 1 alone).
    /// The paper predicts — and the complexity bench confirms — an
    /// extra O(N) factor in enumeration work.
    pub allow_prefix_production: bool,
    /// Join-tree shapes to enumerate. `LeftDeep` (the default) keeps
    /// every pinned result reproducible; `Bushy` explores the full
    /// DPccp-style space.
    pub plan_shape: PlanShape,
    /// Equivalence classes per parametric fit (Figure 5's knob).
    pub eq_classes: usize,
    /// Cost parameters.
    pub params: CostParams,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            enable_filter_join: true,
            enable_bloom: true,
            enable_index_nl: true,
            enable_merge_join: true,
            filter_join_on_base: true,
            allow_prefix_production: false,
            plan_shape: PlanShape::LeftDeep,
            eq_classes: 4,
            params: CostParams::default(),
        }
    }
}

impl OptimizerConfig {
    /// A configuration with the Filter Join disabled — the "traditional
    /// optimizer" baseline.
    pub fn without_filter_join() -> OptimizerConfig {
        OptimizerConfig {
            enable_filter_join: false,
            enable_bloom: false,
            filter_join_on_base: false,
            ..OptimizerConfig::default()
        }
    }

    /// The default configuration with bushy enumeration enabled.
    pub fn bushy() -> OptimizerConfig {
        OptimizerConfig {
            plan_shape: PlanShape::Bushy,
            ..OptimizerConfig::default()
        }
    }

    /// This configuration with `shape` selected.
    pub fn with_shape(self, shape: PlanShape) -> OptimizerConfig {
        OptimizerConfig {
            plan_shape: shape,
            ..self
        }
    }
}

/// The optimizer's output.
#[derive(Debug, Clone)]
pub struct OptimizedPlan {
    /// The chosen physical plan.
    pub phys: PhysPlan,
    /// Estimated total cost (page units).
    pub cost: f64,
    /// Estimated result cardinality.
    pub est_rows: f64,
    /// Leaves of the chosen join tree, left to right (aliases). For a
    /// left-deep plan this is the join order, outermost first.
    pub order: Vec<String>,
    /// SIPS of every Filter Join in the plan (empty = no magic).
    pub sips: Vec<Sips>,
    /// Table 1 breakdowns for each Filter Join used.
    pub filter_join_costs: Vec<FilterJoinCost>,
    /// Join alternatives costed during enumeration (the complexity
    /// metric of the C1 experiment).
    pub plans_considered: u64,
    /// Nested estimator invocations spent on parametric fits.
    pub nested_invocations: u64,
}

/// One dynamic-programming table entry.
#[derive(Debug, Clone)]
struct Entry {
    cost: f64,
    stats: EstStats,
    phys: PhysPlan,
    order: Vec<usize>,
    /// Output sort order (column names, major first); empty = none.
    /// This is the *interesting orders* property of §3.1: entries with
    /// a useful order are not pruned by cheaper unordered entries.
    order_by: Vec<String>,
    sips: Vec<Sips>,
    fj_costs: Vec<FilterJoinCost>,
}

/// `have` provides ordering `want` iff `want` is a prefix of `have`.
fn order_satisfies(have: &[String], want: &[String]) -> bool {
    want.len() <= have.len() && &have[..want.len()] == want
}

/// Max entries retained per subset (the System-R "interesting orders"
/// frontier, bounded to keep enumeration linear in practice).
const MAX_ENTRIES_PER_SUBSET: usize = 4;

/// Inserts `e` into a Pareto frontier over (cost, sort order): an entry
/// is dominated when another is no more expensive and provides at least
/// its ordering.
fn insert_pruned(entries: &mut Vec<Entry>, e: Entry) {
    let dominates = |k: &Entry, e: &Entry| {
        k.cost <= e.cost + 1e-12 && order_satisfies(&k.order_by, &e.order_by)
    };
    if entries.iter().any(|k| dominates(k, &e)) {
        return;
    }
    entries.retain(|k| !dominates(&e, k));
    entries.push(e);
    if entries.len() > MAX_ENTRIES_PER_SUBSET {
        // Never drop the cheapest; drop the most expensive of the rest.
        let min_cost = entries.iter().map(|k| k.cost).fold(f64::INFINITY, f64::min);
        let evict = entries
            .iter()
            .enumerate()
            .filter(|(_, k)| k.cost > min_cost)
            .max_by(|a, b| a.1.cost.total_cmp(&b.1.cost))
            .map(|(idx, _)| idx);
        if let Some(idx) = evict {
            entries.remove(idx);
        }
    }
}

/// The entry for `outer ⋈ inner`: leaf order, SIPS and Table 1
/// breakdowns concatenate left to right. Every join implementation
/// iterates the outer side in arrival order, so the outer's sort order
/// is kept; the merge join overwrites it with its own.
fn joined(outer: &Entry, inner: &Entry, cost: f64, stats: EstStats, phys: PhysPlan) -> Entry {
    Entry {
        cost,
        stats,
        phys,
        order: [&outer.order[..], &inner.order[..]].concat(),
        order_by: outer.order_by.clone(),
        sips: [&outer.sips[..], &inner.sips[..]].concat(),
        fj_costs: [&outer.fj_costs[..], &inner.fj_costs[..]].concat(),
    }
}

/// The cost-based optimizer.
#[derive(Debug, Clone)]
pub struct Optimizer {
    catalog: Arc<Catalog>,
    /// The active configuration.
    pub config: OptimizerConfig,
}

impl Optimizer {
    /// An optimizer over `catalog` with `config`.
    pub fn new(catalog: Arc<Catalog>, config: OptimizerConfig) -> Optimizer {
        Optimizer { catalog, config }
    }

    /// Optimizes a join query into a physical plan.
    pub fn optimize(&self, query: &JoinQuery) -> Result<OptimizedPlan, OptError> {
        query.validate(&self.catalog)?;
        let n = query.from.len();
        // Left-deep extension is O(N·2^(N−1)); bushy split enumeration
        // is O(3^N), so its cap is tighter.
        let limit = match self.config.plan_shape {
            PlanShape::LeftDeep => 20,
            PlanShape::Bushy => 14,
        };
        if n > limit {
            return Err(OptError::NoPlan(format!(
                "{n} relations exceed the {:?} enumerator's subset limit of {limit}",
                self.config.plan_shape
            )));
        }
        let mut search = Search::new(self, query)?;
        search.seed_ordered_access_paths();
        let full = (1u64 << n) - 1;
        let subsets = (1..=full).filter(|m| m.count_ones() >= 2);
        match self.config.plan_shape {
            PlanShape::LeftDeep => search.run(subsets, left_deep_splits)?,
            PlanShape::Bushy => {
                let adj = search.join_graph();
                search.run(subsets, |mask| bushy_splits(&adj, mask))?
            }
        }
        search.finish(full)
    }

    /// Optimizes a query under a *forced* join order (the aliases,
    /// outermost first) — still choosing the cheapest join method
    /// (including the Filter Join) at every position. This is how the
    /// Figure 3 experiment prices each of the six orders of the
    /// motivating query. Each relation is read through its plain access
    /// path; the ordered index scans `optimize` also seeds are not
    /// offered here.
    ///
    /// A forced order always denotes a forced **left-deep** chain:
    /// `["A", "B", "C"]` means `(A ⋈ B) ⋈ C`, never `A ⋈ (B ⋈ C)`.
    /// The [`OptimizerConfig::plan_shape`] knob is deliberately ignored
    /// here — there is no order-list syntax for a bushy tree, and
    /// silently reinterpreting the list under `Bushy` would price a
    /// different plan than the caller asked for. An order that is not a
    /// permutation of the query's aliases (wrong length, unknown alias,
    /// or duplicate alias — the inputs a bushy caller might plausibly
    /// construct) is rejected with
    /// [`OptError::InvalidForcedOrder`] rather than planned wrongly:
    /// before this check, a duplicated alias would silently drop the
    /// relations it displaced from the chain.
    pub fn optimize_with_order(
        &self,
        query: &JoinQuery,
        order: &[String],
    ) -> Result<OptimizedPlan, OptError> {
        query.validate(&self.catalog)?;
        let n = query.from.len();
        if order.len() != n {
            return Err(OptError::InvalidForcedOrder(format!(
                "order lists {} aliases, query has {n}",
                order.len()
            )));
        }
        let perm: Vec<usize> = order
            .iter()
            .map(|a| {
                query
                    .from
                    .iter()
                    .position(|i| &i.alias == a)
                    .ok_or_else(|| {
                        OptError::InvalidForcedOrder(format!("unknown alias '{a}' in order"))
                    })
            })
            .collect::<Result<_, _>>()?;
        let seen = perm.iter().fold(0u64, |m, &i| m | (1u64 << i));
        if seen.count_ones() as usize != n {
            let dup = order
                .iter()
                .enumerate()
                .find(|(i, a)| order[..*i].contains(a))
                .map(|(_, a)| a.as_str())
                .unwrap_or("?");
            return Err(OptError::InvalidForcedOrder(format!(
                "alias '{dup}' appears more than once in order"
            )));
        }

        // The same DP over the order's prefixes only; a prefix of
        // length k splits one way, into its first k − 1 relations and
        // the k-th.
        let mut search = Search::new(self, query)?;
        let prefixes = perm.iter().skip(1).scan(1u64 << perm[0], |mask, &j| {
            *mask |= 1u64 << j;
            Some(*mask)
        });
        search.run(prefixes, |mask| {
            let bit = 1u64 << perm[mask.count_ones() as usize - 1];
            vec![(mask & !bit, bit)]
        })?;
        search.finish(seen)
    }
}

/// Everything one optimization shares between the DP driver and the
/// candidate generator: the query and what is derived from it once, the
/// estimators, the two effort counters, and the DP table itself.
struct Search<'a> {
    catalog: &'a Catalog,
    config: OptimizerConfig,
    query: &'a JoinQuery,
    estimator: PlanEstimator<'a>,
    /// Parametric fits, memoized across the whole enumeration.
    memo: RefCell<ParametricEstimator>,
    plans_considered: Cell<u64>,
    /// Qualified schema of every FROM item, by position.
    schemas: Vec<Schema>,
    /// Conjuncts of the query predicate, each with the bitmask of
    /// aliases it references.
    conjuncts: Vec<(Expr, u64)>,
    /// Transitive closure of the predicate's column equalities.
    classes: Vec<BTreeSet<String>>,
    /// `best[S]`: the frontier of plans joining alias subset `S`.
    best: HashMap<u64, Vec<Entry>>,
}

/// One Filter Join alternative for a given (outer, leaf inner) pair.
struct FilterJoinVariant<'e> {
    /// `None`: the whole outer (Limitation 2). `Some(p)`: the cheapest
    /// plan for a strict prefix of the outer's leaves.
    production: Option<&'e Entry>,
    /// (production column, inner column) pairs the filter set projects.
    filter_keys: Vec<(String, String)>,
    /// Bloom filter instead of an exact filter set.
    lossy: bool,
    /// Distinguishes this variant's temp-table names.
    tag: String,
}

impl<'a> Search<'a> {
    /// Derives the per-query facts and seeds `best` with each alias's
    /// plain access path.
    fn new(opt: &'a Optimizer, query: &'a JoinQuery) -> Result<Search<'a>, OptError> {
        let catalog: &Catalog = &opt.catalog;
        let schemas: Vec<Schema> = query
            .from
            .iter()
            .map(|item| query.alias_schema(catalog, &item.alias))
            .collect::<Result<_, _>>()?;
        let conjuncts: Vec<(Expr, u64)> = query
            .predicate
            .iter()
            .flat_map(split_conjuncts)
            .map(|c| {
                let mask = columns_of(&c)
                    .iter()
                    .filter_map(|col| alias_of(&schemas, col))
                    .fold(0u64, |m, i| m | (1 << i));
                (c, mask)
            })
            .collect();
        let mut search = Search {
            catalog,
            config: opt.config,
            query,
            estimator: PlanEstimator::new(catalog, opt.config.params),
            memo: RefCell::new(ParametricEstimator::new(opt.config.eq_classes)),
            plans_considered: Cell::new(0),
            classes: equality_classes(&conjuncts),
            schemas,
            conjuncts,
            best: HashMap::new(),
        };
        for i in 0..query.from.len() {
            let leaf = search.leaf(i)?;
            search.best.insert(1u64 << i, vec![leaf]);
        }
        Ok(search)
    }

    /// The conjuncts that reference alias `i` alone, conjoined.
    fn local_predicate(&self, i: usize) -> Option<Expr> {
        let local = self.conjuncts.iter().filter(|(_, m)| *m == 1u64 << i);
        conjoin(local.map(|(c, _)| c.clone()))
    }

    /// Alias `i`'s access path with its local conjuncts applied.
    fn leaf(&self, i: usize) -> Result<Entry, OptError> {
        let item = &self.query.from[i];
        let mut logical = LogicalPlan::scan(item.relation.clone(), item.alias.clone());
        if let Some(p) = self.local_predicate(i) {
            logical = logical.select(p);
        }
        let (cost, stats, phys) = match self.query.alias_kind(self.catalog, &item.alias)? {
            // Only reachable by probing: never enumerated on its own.
            RelationKind::Udf(u) if u.domain().is_none() => {
                let stats = EstStats {
                    rows: 1000.0,
                    width: self.schemas[i].row_width(),
                    cols: self.schemas[i]
                        .columns()
                        .iter()
                        .map(|c| {
                            let est = ColEst {
                                distinct: 1000.0,
                                ..Default::default()
                            };
                            (c.name.clone(), est)
                        })
                        .collect(),
                };
                let phys = PhysPlan::UdfFullScan {
                    udf: item.relation.clone(),
                    alias: item.alias.clone(),
                };
                (f64::INFINITY, stats, phys)
            }
            _ => {
                let (cost, stats) = self.estimator.cost(&logical)?;
                (cost, stats, lower::lower(&logical, self.catalog)?)
            }
        };
        Ok(Entry {
            cost,
            stats,
            phys,
            order: vec![i],
            order_by: Vec::new(),
            sips: Vec::new(),
            fj_costs: Vec::new(),
        })
    }

    /// Adds the *ordered* access paths to the leaf frontiers: one per
    /// B-tree index on a local base table — the classic
    /// interesting-orders source (§3.1). The ordered scan costs the
    /// index's leaf pages on top of the heap scan, in exchange for a
    /// sort order later merge joins can exploit.
    fn seed_ordered_access_paths(&mut self) {
        for (i, item) in self.query.from.iter().enumerate() {
            let Ok(RelationKind::Base(t)) = self.query.alias_kind(self.catalog, &item.alias) else {
                continue;
            };
            let local = self.local_predicate(i);
            let frontier = self.best.get_mut(&(1u64 << i)).expect("leaf seeded");
            let leaf = frontier[0].clone();
            for (ci, column) in t.schema().columns().iter().enumerate() {
                let Some(index) = t.btree_index(ci) else {
                    continue;
                };
                let mut phys = PhysPlan::IndexOrderedScan {
                    table: item.relation.clone(),
                    alias: item.alias.clone(),
                    col: column.base_name().to_string(),
                };
                if let Some(p) = &local {
                    phys = PhysPlan::Filter {
                        input: phys.boxed(),
                        predicate: p.clone(),
                    };
                }
                let ordered = Entry {
                    cost: leaf.cost
                        + index.page_count() as f64
                        + self.config.params.cpu(t.row_count() as f64),
                    phys,
                    order_by: vec![format!("{}.{}", item.alias, column.base_name())],
                    ..leaf.clone()
                };
                insert_pruned(frontier, ordered);
            }
        }
    }

    /// The DP driver: fills `best[mask]` for each visited `mask` from
    /// the `(outer, inner)` sub-masks `splits(mask)` yields. `masks`
    /// must list every sub-mask before the masks split into it.
    fn run(
        &mut self,
        masks: impl Iterator<Item = u64>,
        splits: impl Fn(u64) -> Vec<(u64, u64)>,
    ) -> Result<(), OptError> {
        for mask in masks {
            let mut frontier: Vec<Entry> = Vec::new();
            for (om, im) in splits(mask) {
                let (Some(outers), Some(inners)) = (self.best.get(&om), self.best.get(&im)) else {
                    continue;
                };
                // Conjuncts first fully bound at this join: inside
                // `mask` and crossing the split.
                let applicable: Vec<Expr> = self
                    .conjuncts
                    .iter()
                    .filter(|(_, m)| *m & !mask == 0 && *m & om != 0 && *m & im != 0)
                    .map(|(c, _)| c.clone())
                    .collect();
                for outer in outers.iter().filter(|o| o.cost.is_finite()) {
                    for inner in inners {
                        for c in self.join_candidates(outer, inner, &applicable)? {
                            insert_pruned(&mut frontier, c);
                        }
                    }
                }
            }
            if !frontier.is_empty() {
                self.best.insert(mask, frontier);
            }
        }
        Ok(())
    }

    /// Turns the winner of `best[full]` into the optimizer's output.
    fn finish(mut self, full: u64) -> Result<OptimizedPlan, OptError> {
        // Pick the winner by *total* cost including the final
        // projection: cardinality estimates are path-dependent, so two
        // entries tied on entry cost can differ once the projection's
        // per-row CPU is added.
        let params = self.config.params;
        let total = |e: &Entry| e.cost + params.cpu(e.stats.rows);
        let winner = self
            .best
            .remove(&full)
            .unwrap_or_default()
            .into_iter()
            .min_by(|a, b| total(a).total_cmp(&total(b)))
            .ok_or_else(|| OptError::NoPlan("dynamic program found no plan".into()))?;
        if !winner.cost.is_finite() {
            return Err(OptError::NoPlan(
                "no finite-cost plan (non-enumerable UDF without probe keys?)".into(),
            ));
        }
        // The SELECT list: the user's projection, or — `SELECT *`
        // semantics — every column of every FROM item in declaration
        // order (the chosen join order must not leak into the output
        // schema).
        let exprs = self.query.projection.clone().unwrap_or_else(|| {
            let columns = self.schemas.iter().flat_map(|s| s.columns());
            columns
                .map(|c| (col(c.name.clone()), c.name.clone()))
                .collect()
        });
        Ok(OptimizedPlan {
            cost: total(&winner),
            est_rows: winner.stats.rows,
            phys: PhysPlan::Project {
                input: winner.phys.boxed(),
                exprs,
            },
            order: winner
                .order
                .iter()
                .map(|&i| self.query.from[i].alias.clone())
                .collect(),
            sips: winner.sips,
            filter_join_costs: winner.fj_costs,
            plans_considered: self.plans_considered.get(),
            nested_invocations: self.memo.borrow().nested_invocations,
        })
    }

    /// Per-alias neighbor bitmasks of the join graph. Alias `i` is
    /// adjacent to every alias it shares a multi-relation conjunct or an
    /// equality class with — the transitive closure is what lets the
    /// bushy enumerator treat `D ⋈ V` as connected under
    /// `E.did = D.did AND E.did = V.did` even though no conjunct names
    /// the pair directly (the same derivation Figure 3's order 3 uses).
    fn join_graph(&self) -> Vec<u64> {
        let class_masks = self.classes.iter().map(|class| {
            let aliases = class.iter().filter_map(|c| alias_of(&self.schemas, c));
            aliases.fold(0u64, |acc, i| acc | (1u64 << i))
        });
        let mut adj = vec![0u64; self.query.from.len()];
        for m in self.conjuncts.iter().map(|(_, m)| *m).chain(class_masks) {
            for (i, neighbors) in adj.iter_mut().enumerate() {
                if m & (1u64 << i) != 0 {
                    *neighbors |= m & !(1u64 << i);
                }
            }
        }
        adj
    }

    /// One derived key per equality class with a column on each side:
    /// how a pair of inputs the predicate only links through a third
    /// relation (Figure 3's order 3) still gets a join key.
    fn class_keys(&self, left: &EstStats, right: &EstStats) -> Vec<(String, String)> {
        let pick = |class: &BTreeSet<String>, side: &EstStats| {
            class.iter().find(|c| side.cols.contains_key(*c)).cloned()
        };
        self.classes
            .iter()
            .filter_map(|class| Some((pick(class, left)?, pick(class, right)?)))
            .collect()
    }

    /// All join-method candidates for joining `outer` with `inner`,
    /// where `applicable` are the conjuncts first bound by this join.
    /// The methods that restrict a *named* relation (index nested
    /// loops, UDF probes, and the Filter Join) need `inner` to be a
    /// single FROM item; with a composite inner (a bushy subtree) only
    /// the symmetric methods — BNL, hash join, sort-merge — apply.
    fn join_candidates(
        &self,
        outer: &Entry,
        inner: &Entry,
        applicable: &[Expr],
    ) -> Result<Vec<Entry>, OptError> {
        let params = self.config.params;
        let pred = conjoin(applicable.to_vec());
        let mut keys = pred
            .as_ref()
            .map(|p| written_keys(p, &outer.stats, &inner.stats))
            .unwrap_or_default();
        // Enforcing a derived key early is sound: the full predicate
        // implies it.
        let mut derived: Vec<Expr> = Vec::new();
        if keys.is_empty() {
            keys = self.class_keys(&outer.stats, &inner.stats);
            let equalities = keys.iter().map(|(o, i)| col(o.clone()).eq(col(i.clone())));
            derived = equalities.collect();
        }
        let residual = conjoin(
            applicable
                .iter()
                .filter(|c| !is_key_conjunct(c, &keys))
                .cloned(),
        );
        // Estimate with derived equalities included (they restrict the
        // output just like written ones).
        let pred_est = conjoin(applicable.iter().cloned().chain(derived));
        let out_stats = self.estimator.join_stats(
            &outer.stats,
            &inner.stats,
            pred_est.as_ref(),
            JoinKind::Inner,
        );

        let op = outer.stats.pages(&params);
        let ip = inner.stats.pages(&params);
        let both = outer.cost + inner.cost;
        let considered = || self.plans_considered.set(self.plans_considered.get() + 1);
        let mut out = Vec::new();

        // 1. Block nested loops (always applicable when the inner is
        // enumerable).
        if inner.cost.is_finite() {
            considered();
            out.push(joined(
                outer,
                inner,
                both + params.bnl_cost(outer.stats.rows, op, inner.stats.rows, ip),
                out_stats.clone(),
                PhysPlan::NestedLoops {
                    outer: outer.phys.clone().boxed(),
                    inner: inner.phys.clone().boxed(),
                    predicate: pred.clone(),
                    kind: JoinKind::Inner,
                },
            ));
        }

        if !keys.is_empty() && inner.cost.is_finite() {
            // 2. Hash join.
            considered();
            out.push(joined(
                outer,
                inner,
                both + params.hash_join_cost(
                    outer.stats.rows,
                    op,
                    inner.stats.rows,
                    ip,
                    out_stats.rows,
                ),
                out_stats.clone(),
                PhysPlan::HashJoin {
                    outer: outer.phys.clone().boxed(),
                    inner: inner.phys.clone().boxed(),
                    keys: keys.clone(),
                    residual: residual.clone(),
                    kind: JoinKind::Inner,
                },
            ));
            // 3. Sort-merge join — an *interesting order* producer: the
            // output is sorted by the outer key columns, and an outer
            // that already provides that order skips its sort (§3.1).
            if self.config.enable_merge_join {
                considered();
                let (okey_cols, ikey_cols): (Vec<String>, Vec<String>) =
                    keys.iter().cloned().unzip();
                let mut merge = joined(
                    outer,
                    inner,
                    both + params.merge_join_cost_with_orders(
                        outer.stats.rows,
                        op,
                        inner.stats.rows,
                        ip,
                        out_stats.rows,
                        order_satisfies(&outer.order_by, &okey_cols),
                        order_satisfies(&inner.order_by, &ikey_cols),
                    ),
                    out_stats.clone(),
                    PhysPlan::MergeJoin {
                        outer: outer.phys.clone().boxed(),
                        inner: inner.phys.clone().boxed(),
                        keys: keys.clone(),
                        residual: residual.clone(),
                    },
                );
                merge.order_by = okey_cols;
                out.push(merge);
            }
        }

        // Methods 4–6 restrict a *named* inner relation (an index
        // probe, a UDF invocation, or a filter applied to the inner's
        // access path); a composite (bushy) inner stops here.
        let [j] = inner.order[..] else {
            return Ok(out);
        };
        let item = &self.query.from[j];
        let kind = self.query.alias_kind(self.catalog, &item.alias)?;
        // Methods that bypass the leaf's own (filtered) access path
        // re-apply its local conjuncts together with the residual.
        let local = self
            .query
            .conjuncts_within(self.catalog, &[item.alias.as_str()]);
        let restriction = conjoin(local.into_iter().chain(residual.clone()));

        // 4. Index nested loops: local base table with an index on the
        // join column.
        if let (true, [(outer_key, inner_key)], RelationKind::Base(t)) =
            (self.config.enable_index_nl, &keys[..], &kind)
        {
            let inner_col = inner_key
                .strip_prefix(&format!("{}.", item.alias))
                .unwrap_or(inner_key)
                .to_string();
            if let Some(ci) = t
                .schema()
                .resolve(&inner_col)
                .ok()
                .filter(|&ci| t.has_index(ci))
            {
                considered();
                let probe_pages = if t.hash_index(ci).is_some() {
                    1.0
                } else {
                    t.btree_index(ci).map(|b| b.height() as f64).unwrap_or(1.0)
                };
                let base_rows = t.row_count() as f64;
                let d = t
                    .stats()
                    .column(ci)
                    .map(|s| s.distinct as f64)
                    .unwrap_or(1.0)
                    .max(1.0);
                // The probe sees unfiltered heap rows, and the leaf scan
                // is not performed.
                out.push(joined(
                    outer,
                    inner,
                    both + (params.inl_cost(outer.stats.rows, probe_pages, base_rows / d)
                        - inner.cost),
                    out_stats.clone(),
                    PhysPlan::IndexNestedLoops {
                        outer: outer.phys.clone().boxed(),
                        table: item.relation.clone(),
                        alias: item.alias.clone(),
                        outer_key: outer_key.clone(),
                        inner_col,
                        residual: restriction.clone(),
                    },
                ));
            }
        }

        // 5. UDF probe: keys cover the UDF's argument columns. The leaf
        // is never enumerated, so only the outer's cost is carried.
        if let RelationKind::Udf(u) = &kind {
            let schema = u.schema();
            let arg_cols: Option<Vec<String>> = (0..u.arg_count())
                .map(|i| {
                    let arg = format!("{}.{}", item.alias, schema.column(i).base_name());
                    let key = keys.iter().find(|(_, ik)| *ik == arg);
                    key.map(|(ok, _)| ok.clone())
                })
                .collect();
            if let Some(arg_cols) = arg_cols {
                considered();
                let mut stats = out_stats.clone();
                stats.rows = outer.stats.rows * u.rows_per_call();
                out.push(joined(
                    outer,
                    inner,
                    outer.cost + outer.stats.rows * u.invocation_cost(),
                    stats,
                    PhysPlan::UdfProbe {
                        outer: outer.phys.clone().boxed(),
                        udf: item.relation.clone(),
                        alias: item.alias.clone(),
                        arg_cols,
                    },
                ));
            }
        }

        // 6. The Filter Join.
        if self.config.enable_filter_join
            && !keys.is_empty()
            && (kind.is_virtual() || self.config.filter_join_on_base)
        {
            for variant in self.filter_join_variants(outer, inner, &keys, pred_est.as_ref()) {
                considered();
                out.extend(self.filter_join_entry(outer, inner, &keys, &restriction, variant)?);
            }
        }
        Ok(out)
    }

    /// The Filter Join alternatives for one (outer, leaf inner) pair.
    /// §3.3's limitations are what keep this list short: the production
    /// set is the whole outer (Limitations 1+2) and only a small
    /// constant number of filter sets is tried (Limitation 3) — exact,
    /// Bloom, and with several join attributes each filter set that
    /// omits one of them. The Limitation-2 ablation appends one exact
    /// variant per strict prefix of the outer whose columns reach the
    /// inner: the O(N) factor §3.3 warns about.
    fn filter_join_variants<'s>(
        &'s self,
        outer: &Entry,
        inner: &Entry,
        keys: &[(String, String)],
        pred_est: Option<&Expr>,
    ) -> Vec<FilterJoinVariant<'s>> {
        let whole_outer = |filter_keys, lossy, tag| FilterJoinVariant {
            production: None,
            filter_keys,
            lossy,
            tag,
        };
        let mut variants = vec![whole_outer(keys.to_vec(), false, String::new())];
        if self.config.enable_bloom {
            variants.push(whole_outer(keys.to_vec(), true, "b".into()));
        }
        if keys.len() > 1 {
            for omit in 0..keys.len() {
                let mut subset = keys.to_vec();
                subset.remove(omit);
                variants.push(whole_outer(subset, false, format!("s{omit}")));
            }
        }
        if self.config.allow_prefix_production {
            let cheapest = |v: &'s Vec<Entry>| v.iter().min_by(|a, b| a.cost.total_cmp(&b.cost));
            for k in 1..outer.order.len() {
                let mask = outer.order[..k].iter().fold(0u64, |m, &i| m | (1 << i));
                let Some(prefix) = self.best.get(&mask).and_then(cheapest) else {
                    continue;
                };
                let mut filter_keys = pred_est
                    .map(|p| written_keys(p, &prefix.stats, &inner.stats))
                    .unwrap_or_default();
                if filter_keys.is_empty() {
                    filter_keys = self.class_keys(&prefix.stats, &inner.stats);
                }
                if !filter_keys.is_empty() {
                    variants.push(FilterJoinVariant {
                        production: Some(prefix),
                        filter_keys,
                        lossy: false,
                        tag: format!("p{k}"),
                    });
                }
            }
        }
        variants
    }

    /// Costs one Filter Join variant (Table 1) and, when applicable,
    /// builds its plan and DP entry, with `restriction` (the inner's
    /// local conjuncts and the join's residual) filtering on top. The
    /// final join always consumes the whole outer, whatever the
    /// production set.
    fn filter_join_entry(
        &self,
        outer: &Entry,
        inner: &Entry,
        keys: &[(String, String)],
        restriction: &Option<Expr>,
        variant: FilterJoinVariant<'_>,
    ) -> Result<Option<Entry>, OptError> {
        let params = self.config.params;
        let j = inner.order[0];
        let item = &self.query.from[j];
        let production = variant.production;
        let decision = cost_filter_join(FilterJoinArgs {
            catalog: self.catalog,
            params,
            memo: &mut self.memo.borrow_mut(),
            outer_cost: outer.cost,
            outer: &outer.stats,
            keys,
            inner_alias: &item.alias,
            inner_relation: &item.relation,
            filter_keys: &variant.filter_keys,
            use_bloom: variant.lossy,
            prefix_production: production.map(|p| PrefixProduction {
                stats: &p.stats,
                cost: p.cost,
            }),
        })?;
        let Some(d) = decision else {
            return Ok(None);
        };
        let mask = outer.order.iter().fold(1u64 << j, |m, &i| m | (1 << i));
        let suffix = format!("_{mask:x}_{j}{}", variant.tag);
        let mut phys = build_filter_join_plan(
            self.catalog,
            &outer.phys,
            production.map(|p| &p.phys),
            &d,
            &suffix,
        )?;
        let mut stats = d.output;
        let mut cost_delta = d.cost.total() - outer.cost; // JoinCost_P already in base
        if let Some(p) = restriction.clone() {
            let sel = self.estimator.selectivity(&p, &stats);
            cost_delta += params.cpu(stats.rows);
            stats.rows *= sel;
            phys = PhysPlan::Filter {
                input: phys.boxed(),
                predicate: p,
            };
        }
        // The leaf's own access cost is replaced by FilterCost_Rk.
        let mut entry = joined(outer, inner, outer.cost + cost_delta, stats, phys);
        let produced = production.map_or(outer.order.len(), |p| p.order.len());
        entry.sips.push(Sips {
            production: outer.order[..produced]
                .iter()
                .map(|&i| self.query.from[i].alias.clone())
                .collect(),
            inner: item.alias.clone(),
            filter_keys: variant
                .filter_keys
                .into_iter()
                .map(|(left, right)| EquiJoinKey { left, right })
                .collect(),
        });
        entry.fj_costs.push(d.cost);
        Ok(Some(entry))
    }
}

/// The FROM position of the alias whose schema provides `col`.
fn alias_of(schemas: &[Schema], col: &str) -> Option<usize> {
    schemas.iter().position(|s| s.contains(col))
}

/// The left-deep splits of `mask`: each leaf `j` in turn as the inner,
/// the rest as the outer.
fn left_deep_splits(mask: u64) -> Vec<(u64, u64)> {
    let bits = (0..u64::BITS - mask.leading_zeros()).map(|j| 1u64 << j);
    bits.filter(|bit| mask & bit != 0)
        .map(|bit| (mask & !bit, bit))
        .collect()
}

/// The bushy splits of `mask`, DPccp-style: subgraph–complement pairs,
/// canonicalized on the side holding the lowest set bit so each
/// unordered split is visited once, then both orientations. Composite
/// inners require a join-graph edge (a csg–cmp pair); single-leaf
/// inners are always admitted, as the left-deep space (which freely
/// forms cross-product intermediates) admits them.
fn bushy_splits(adj: &[u64], mask: u64) -> Vec<(u64, u64)> {
    let low = mask & mask.wrapping_neg();
    let mut out = Vec::new();
    let mut s1 = (mask - 1) & mask;
    while s1 != 0 {
        if s1 & low != 0 {
            let s2 = mask & !s1;
            let linked = masks_connected(adj, s1, s2);
            for (om, im) in [(s1, s2), (s2, s1)] {
                if linked || im.count_ones() == 1 {
                    out.push((om, im));
                }
            }
        }
        s1 = (s1 - 1) & mask;
    }
    out
}

/// The equi-join keys `pred` writes between two inputs, as
/// `(left column, right column)`.
fn written_keys(pred: &Expr, left: &EstStats, right: &EstStats) -> Vec<(String, String)> {
    equi_join_keys(pred, &|c| left.cols.contains_key(c), &|c| {
        right.cols.contains_key(c)
    })
    .into_iter()
    .map(|k| (k.left, k.right))
    .collect()
}

/// Computes the transitive closure of column equalities in the query
/// predicate as equivalence classes. `E.did = D.did AND E.did = V.did`
/// puts all three columns in one class, which is how join order 3 of
/// Figure 3 can pass a `D`-derived filter set into `V` even though the
/// predicate never writes `D.did = V.did` explicitly.
pub fn equality_classes(conjuncts: &[(Expr, u64)]) -> Vec<BTreeSet<String>> {
    let mut classes: Vec<BTreeSet<String>> = Vec::new();
    for (c, _) in conjuncts {
        let Expr::Binary {
            op: fj_expr::BinOp::Eq,
            left,
            right,
        } = c
        else {
            continue;
        };
        let (Expr::Column(a), Expr::Column(b)) = (left.as_ref(), right.as_ref()) else {
            continue;
        };
        let ia = classes.iter().position(|s| s.contains(a));
        let ib = classes.iter().position(|s| s.contains(b));
        match (ia, ib) {
            (Some(x), Some(y)) => {
                if x != y {
                    let merged = classes.remove(y.max(x));
                    classes[y.min(x)].extend(merged);
                }
            }
            (Some(x), None) => {
                classes[x].insert(b.clone());
            }
            (None, Some(y)) => {
                classes[y].insert(a.clone());
            }
            (None, None) => {
                classes.push(BTreeSet::from([a.clone(), b.clone()]));
            }
        }
    }
    classes
}

/// True when some join-graph edge crosses from `s1` into `s2` — the
/// connectedness test that admits a csg–cmp split.
fn masks_connected(adj: &[u64], s1: u64, s2: u64) -> bool {
    let mut bits = s1;
    while bits != 0 {
        let i = bits.trailing_zeros() as usize;
        if adj.get(i).copied().unwrap_or(0) & s2 != 0 {
            return true;
        }
        bits &= bits - 1;
    }
    false
}

fn is_key_conjunct(c: &Expr, keys: &[(String, String)]) -> bool {
    if let Expr::Binary {
        op: fj_expr::BinOp::Eq,
        left,
        right,
    } = c
    {
        if let (Expr::Column(a), Expr::Column(b)) = (left.as_ref(), right.as_ref()) {
            return keys
                .iter()
                .any(|(l, r)| (l == a && r == b) || (l == b && r == a));
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_algebra::fixtures::{paper_catalog, paper_query};
    use fj_exec::ExecCtx;
    use fj_storage::tuple;

    fn run(phys: &PhysPlan, catalog: &Catalog) -> Vec<fj_storage::Tuple> {
        let ctx = ExecCtx::new(Arc::new(catalog.clone()));
        let mut rows = phys.execute(&ctx).unwrap().rows;
        rows.sort();
        rows
    }

    #[test]
    fn optimizes_paper_query_correctly() {
        let cat = Arc::new(paper_catalog());
        let opt = Optimizer::new(Arc::clone(&cat), OptimizerConfig::default());
        let plan = opt.optimize(&paper_query()).unwrap();
        assert!(plan.cost.is_finite());
        assert_eq!(plan.order.len(), 3);
        let rows = run(&plan.phys, &cat);
        assert_eq!(
            rows,
            vec![tuple![10, 9000.0, 5000.0], tuple![30, 4000.0, 3000.0]]
        );
    }

    #[test]
    fn filter_join_disabled_also_correct() {
        let cat = Arc::new(paper_catalog());
        let opt = Optimizer::new(Arc::clone(&cat), OptimizerConfig::without_filter_join());
        let plan = opt.optimize(&paper_query()).unwrap();
        assert!(plan.sips.is_empty(), "no SIPS without filter joins");
        let rows = run(&plan.phys, &cat);
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn both_configs_agree_on_answers() {
        let cat = Arc::new(paper_catalog());
        let with = Optimizer::new(Arc::clone(&cat), OptimizerConfig::default())
            .optimize(&paper_query())
            .unwrap();
        let without = Optimizer::new(Arc::clone(&cat), OptimizerConfig::without_filter_join())
            .optimize(&paper_query())
            .unwrap();
        assert_eq!(run(&with.phys, &cat), run(&without.phys, &cat));
        // Cost-based: the chosen plan with FJ enabled is never estimated
        // worse than without (superset of methods).
        assert!(with.cost <= without.cost + 1e-9);
    }

    #[test]
    fn enumeration_counts_grow_with_methods() {
        let cat = Arc::new(paper_catalog());
        let with = Optimizer::new(Arc::clone(&cat), OptimizerConfig::default())
            .optimize(&paper_query())
            .unwrap();
        let without = Optimizer::new(Arc::clone(&cat), OptimizerConfig::without_filter_join())
            .optimize(&paper_query())
            .unwrap();
        assert!(with.plans_considered > without.plans_considered);
        // Constant-factor, not asymptotic, growth: within ~4×.
        assert!(with.plans_considered <= 4 * without.plans_considered);
    }

    #[test]
    fn two_way_join_simple() {
        let cat = Arc::new(paper_catalog());
        let q = JoinQuery::new(vec![
            fj_algebra::FromItem::new("Emp", "E"),
            fj_algebra::FromItem::new("Dept", "D"),
        ])
        .with_predicate(fj_expr::col("E.did").eq(fj_expr::col("D.did")));
        let opt = Optimizer::new(Arc::clone(&cat), OptimizerConfig::default());
        let plan = opt.optimize(&q).unwrap();
        let rows = run(&plan.phys, &cat);
        assert_eq!(rows.len(), 5);
    }

    #[test]
    fn single_relation_query() {
        let cat = Arc::new(paper_catalog());
        let q = JoinQuery::new(vec![fj_algebra::FromItem::new("Emp", "E")])
            .with_predicate(fj_expr::col("E.age").lt(fj_expr::lit(30)));
        let opt = Optimizer::new(Arc::clone(&cat), OptimizerConfig::default());
        let plan = opt.optimize(&q).unwrap();
        let rows = run(&plan.phys, &cat);
        assert_eq!(rows.len(), 4);
    }

    #[test]
    fn cross_product_handled() {
        let cat = Arc::new(paper_catalog());
        let q = JoinQuery::new(vec![
            fj_algebra::FromItem::new("Emp", "E"),
            fj_algebra::FromItem::new("Dept", "D"),
        ]);
        let opt = Optimizer::new(Arc::clone(&cat), OptimizerConfig::default());
        let plan = opt.optimize(&q).unwrap();
        let rows = run(&plan.phys, &cat);
        assert_eq!(rows.len(), 15);
    }

    #[test]
    fn too_many_relations_rejected() {
        let cat = Arc::new(paper_catalog());
        let from: Vec<fj_algebra::FromItem> = (0..21)
            .map(|i| fj_algebra::FromItem::new("Emp", format!("E{i}")))
            .collect();
        let q = JoinQuery::new(from);
        let opt = Optimizer::new(cat, OptimizerConfig::default());
        assert!(matches!(opt.optimize(&q), Err(OptError::NoPlan(_))));
    }

    #[test]
    fn prefix_production_ablation_correct_and_more_plans() {
        let cat = Arc::new(paper_catalog());
        let q = paper_query();
        let limited = Optimizer::new(Arc::clone(&cat), OptimizerConfig::default())
            .optimize(&q)
            .unwrap();
        let cfg = OptimizerConfig {
            allow_prefix_production: true,
            ..OptimizerConfig::default()
        };
        let ablated = Optimizer::new(Arc::clone(&cat), cfg).optimize(&q).unwrap();
        // More candidates are costed (the O(N) factor of §3.3)...
        assert!(
            ablated.plans_considered > limited.plans_considered,
            "{} vs {}",
            ablated.plans_considered,
            limited.plans_considered
        );
        // ...the search space is a superset, so never a worse plan...
        assert!(ablated.cost <= limited.cost + 1e-9);
        // ...and answers are identical.
        assert_eq!(run(&ablated.phys, &cat), run(&limited.phys, &cat));
        // Any prefix-production SIPS is a proper prefix of the order.
        for s in &ablated.sips {
            let k = s.production.len();
            assert_eq!(&s.production[..], &ablated.order[..k]);
        }
    }

    #[test]
    fn forced_order_with_prefix_production_still_correct() {
        let cat = Arc::new(paper_catalog());
        let q = paper_query();
        let cfg = OptimizerConfig {
            allow_prefix_production: true,
            ..OptimizerConfig::default()
        };
        let opt = Optimizer::new(Arc::clone(&cat), cfg);
        let order = vec!["E".to_string(), "D".to_string(), "V".to_string()];
        let plan = opt.optimize_with_order(&q, &order).unwrap();
        let rows = run(&plan.phys, &cat);
        assert_eq!(
            rows,
            vec![tuple![10, 9000.0, 5000.0], tuple![30, 4000.0, 3000.0]]
        );
    }

    #[test]
    fn interesting_orders_let_merge_chains_skip_sorts() {
        // Three relations joined on the SAME key: once the first merge
        // join produces key order, the second merge join's outer side
        // is already sorted. The frontier must retain that entry even
        // when a hash join is cheaper at the two-way stage.
        let mut cat = Catalog::new();
        for name in ["A", "B", "C"] {
            cat.add_table(
                fj_storage::TableBuilder::new(name)
                    .column("k", fj_storage::DataType::Int)
                    .column("v", fj_storage::DataType::Int)
                    .rows((0..6000i64).map(|i| vec![((i * 37) % 6000).into(), i.into()]))
                    .build()
                    .unwrap()
                    .into_ref(),
            );
        }
        let q = JoinQuery::new(vec![
            fj_algebra::FromItem::new("A", "a"),
            fj_algebra::FromItem::new("B", "b"),
            fj_algebra::FromItem::new("C", "c"),
        ])
        .with_predicate(
            fj_expr::col("a.k")
                .eq(fj_expr::col("b.k"))
                .and(fj_expr::col("a.k").eq(fj_expr::col("c.k"))),
        );
        // Force sorts to matter: tiny memory makes spilling sorts and
        // grace hash joins expensive.
        let mut cfg = OptimizerConfig::default();
        cfg.params.memory_pages = 4;
        let cat = Arc::new(cat);
        let plan = Optimizer::new(Arc::clone(&cat), cfg).optimize(&q).unwrap();
        // Regardless of the methods chosen, answers must be exact.
        let ctx = fj_exec::ExecCtx::new(Arc::clone(&cat)).with_memory_pages(4);
        let rel = plan.phys.execute(&ctx).unwrap();
        assert_eq!(rel.rows.len(), 6000);
        // And the frontier machinery must never make plans worse than
        // the single-entry DP would have found: compare against a
        // hash-only configuration.
        let mut hash_only = cfg;
        hash_only.enable_merge_join = false;
        let hash_plan = Optimizer::new(cat, hash_only).optimize(&q).unwrap();
        assert!(plan.cost <= hash_plan.cost + 1e-6);
    }

    #[test]
    fn ordered_index_scan_access_path_when_it_pays() {
        // Two big tables with B-tree indexes on the join key and a tiny
        // buffer pool: a merge join over two *ordered index scans* skips
        // both sorts, while hash join pays Grace partitioning. The DP
        // must surface the ordered access path (§3.1).
        let mut cat = Catalog::new();
        for name in ["A", "B"] {
            let mut b = fj_storage::TableBuilder::new(name).column("k", fj_storage::DataType::Int);
            for c in 0..7 {
                b = b.column(format!("v{c}"), fj_storage::DataType::Int);
            }
            let mut t = b
                .rows((0..20_000i64).map(|i| {
                    let mut row = vec![fj_storage::Value::Int((i * 13) % 20_000)];
                    row.extend((0..7).map(|c| fj_storage::Value::Int(i + c)));
                    row
                }))
                .build()
                .unwrap();
            t.create_btree_index(0).unwrap();
            cat.add_table(t.into_ref());
        }
        let q = JoinQuery::new(vec![
            fj_algebra::FromItem::new("A", "a"),
            fj_algebra::FromItem::new("B", "b"),
        ])
        .with_predicate(fj_expr::col("a.k").eq(fj_expr::col("b.k")));
        let mut cfg = OptimizerConfig::default();
        cfg.params.memory_pages = 8;
        cfg.enable_index_nl = false; // isolate merge-vs-hash
        let cat = Arc::new(cat);
        let plan = Optimizer::new(Arc::clone(&cat), cfg).optimize(&q).unwrap();
        let d = plan.phys.display();
        assert!(
            d.contains("IndexOrderedScan") && d.contains("MergeJoin"),
            "expected ordered-scan merge join:\n{d}"
        );
        // And it executes correctly under the same memory budget.
        let ctx = fj_exec::ExecCtx::new(Arc::clone(&cat)).with_memory_pages(8);
        let rel = plan.phys.execute(&ctx).unwrap();
        assert_eq!(rel.rows.len(), 20_000);
    }

    #[test]
    fn order_satisfies_prefix_semantics() {
        let ab = vec!["a".to_string(), "b".to_string()];
        let a = vec!["a".to_string()];
        let b = vec!["b".to_string()];
        assert!(order_satisfies(&ab, &a), "sorted by (a,b) is sorted by a");
        assert!(!order_satisfies(&a, &ab));
        assert!(!order_satisfies(&ab, &b));
        assert!(order_satisfies(&a, &[]), "everything satisfies no order");
    }

    #[test]
    fn projection_applied() {
        let cat = Arc::new(paper_catalog());
        let plan = Optimizer::new(Arc::clone(&cat), OptimizerConfig::default())
            .optimize(&paper_query())
            .unwrap();
        let ctx = ExecCtx::new(Arc::clone(&cat));
        let rel = plan.phys.execute(&ctx).unwrap();
        assert_eq!(rel.schema.arity(), 3);
        assert_eq!(rel.schema.column(2).name, "avgsal");
    }
}
