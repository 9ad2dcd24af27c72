//! The System-R bottom-up dynamic-programming enumerator (§3.1),
//! extended with the Filter Join as a join method (§3.2–3.3).
//!
//! There is one DP. `best[S]` holds a small frontier of the cheapest
//! plans joining the alias subset `S`; `Search::run` visits a list of
//! subset masks and, for each, asks a *split generator* for
//! `(outer, inner)` sub-masks, joins every retained outer entry with
//! every retained inner entry under every applicable method
//! (`Search::join_pair`) and keeps the survivors of
//! `Search::offer`. The three search spaces differ only in which
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
//! list of variants (`Search::whole_outer_variants`): Limitations 1–3
//! of §3.3 bound that list to a small constant per join.
//!
//! A candidate is *costed*, not built. An `Entry` is a small record
//! in an arena: cost, output statistics (a shared handle), sort-order
//! id and a `Recipe` naming the method and the two sub-entries by id.
//! What every pair of entries across one split has in common — the
//! conjuncts the join binds, its keys, what an index probe or a UDF
//! call costs — is derived once per split (`Split`), and what every
//! join into one FROM item has in common once per query (`Alias`).
//! One set of output statistics serves every method's entry for a pair
//! of inputs; a Filter Join, whose output differs, is costed from
//! cardinalities alone and its statistics derived only if the frontier
//! will keep it. The physical plan, leaf order, SIPS and Table 1
//! breakdowns exist only for the winner: `Search::finish` walks its
//! recipe. DESIGN.md ("How the DP stores plans") has the rationale and
//! why the order candidates are offered in must not change.

use crate::cost::CostParams;
use crate::error::OptError;
use crate::estimate::{ColEst, EstStats, JoinTerm, PlanEstimator};
use crate::filter_join::{
    build_filter_join_plan, cost_filter_join, filter_join_stats, FilterJoinArgs, FilterJoinCost,
    FilterJoinDecision, FilterJoinInner, FilterJoinSpec, PrefixProduction,
};
use crate::parametric::ParametricEstimator;
use fj_algebra::{Catalog, JoinKind, JoinQuery, LogicalPlan, RelationKind, Sips};
use fj_exec::{lower, PhysPlan};
use fj_expr::{col, conjoin, conjunct_refs, equi_join_key, for_each_column, EquiJoinKey, Expr};
use fj_storage::{Index as _, Schema};
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::ops::Range;
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
    /// What the dynamic program estimated for each node of `phys`: the
    /// stamps `EXPLAIN ANALYZE` sets against what execution measured.
    /// The root's rows are `est_rows`.
    pub est: EstNode,
}

/// The rows and pages the dynamic program priced one node of a plan
/// at, with its children's stamps in [`PhysPlan::children`] order. The
/// tree stops where the program made no estimate (inside a view's
/// body), so a node never has more children than the plan node it
/// stamps, and may have fewer.
#[derive(Debug, Clone)]
pub struct EstNode {
    /// Estimated output rows.
    pub est_rows: f64,
    /// Estimated output pages.
    pub est_pages: f64,
    /// The children's stamps, in execution order.
    pub children: Vec<EstNode>,
}

impl EstNode {
    pub(crate) fn new(est_rows: f64, est_pages: f64, children: Vec<EstNode>) -> EstNode {
        EstNode {
            est_rows,
            est_pages,
            children,
        }
    }
}

/// Index of an [`Entry`] in [`Search::arena`]. Entries are never
/// removed, so an id never dangles.
type EntryId = u32;

/// Index of an interned sort order in [`Search::orders`].
type OrderId = u32;

/// The empty sort order.
const UNORDERED: OrderId = 0;

/// One dynamic-programming table entry: what a candidate plan costs
/// and produces, and how to build it should it win.
#[derive(Debug, Clone)]
struct Entry {
    cost: f64,
    /// Output statistics. The column estimates inside are shared with
    /// every entry derived from the same pair of inputs.
    stats: EstStats,
    /// Output sort order (interned column ids, major first). This is
    /// the *interesting orders* property of §3.1: entries with a useful
    /// order are not pruned by cheaper unordered entries.
    order_by: OrderId,
    /// The FROM items joined.
    mask: u64,
    recipe: Recipe,
}

/// How to build an entry's plan from the entries it was derived from.
#[derive(Debug, Clone, Copy)]
enum Recipe {
    /// FROM item `alias` through its plain access path, or through the
    /// B-tree index on column `ordered_on`.
    Leaf {
        alias: usize,
        ordered_on: Option<usize>,
    },
    /// `outer ⋈ inner`, reading the plans of both.
    Join {
        method: Symmetric,
        outer: EntryId,
        inner: EntryId,
    },
    /// `outer` joined into the relation the leaf `inner` names; the
    /// leaf's own access path is not run.
    Into {
        method: Named,
        outer: EntryId,
        inner: EntryId,
    },
}

/// The join methods that accept any subtree on either side.
#[derive(Debug, Clone, Copy)]
enum Symmetric {
    NestedLoops,
    Hash,
    Merge,
}

/// The join methods that restrict a *named* inner relation.
#[derive(Debug, Clone, Copy)]
enum Named {
    IndexNestedLoops,
    UdfProbe,
    FilterJoin(Variant),
}

/// One Filter Join alternative for a given (outer, leaf inner) pair.
#[derive(Debug, Clone, Copy)]
struct Variant {
    /// `None`: the whole outer (Limitation 2). `Some(p)`: the cheapest
    /// plan for a strict prefix of the outer's leaves.
    production: Option<EntryId>,
    /// The filter set projects every join key but this one.
    omit: Option<usize>,
    /// Bloom filter instead of an exact filter set.
    lossy: bool,
}

/// `have` provides ordering `want` iff `want` is a prefix of `have`.
fn order_satisfies<T: PartialEq>(have: &[T], want: &[T]) -> bool {
    want.len() <= have.len() && &have[..want.len()] == want
}

/// Max entries retained per subset (the System-R "interesting orders"
/// frontier, bounded to keep enumeration linear in practice).
const MAX_ENTRIES_PER_SUBSET: usize = 4;

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

/// What the search derives once per FROM item.
struct Alias {
    /// The relation, as a join whose inner side it is sees it.
    rel: FilterJoinInner,
    /// The plain access path, local conjuncts applied; lowered only
    /// if the winner reads it.
    access: LogicalPlan,
    /// The conjuncts (by position) that reference no other FROM item.
    local: Vec<usize>,
}

/// What every pair of entries joined across one `(outer, inner)` split
/// has in common: derived once per split, read per candidate, and
/// derived again by [`Search::build`] for the joins of the winner.
struct Split {
    /// Conjuncts (by position) first fully bound at this join.
    applicable: Vec<usize>,
    /// Equalities the predicate implies but does not write, enforced
    /// when it writes no key between the two sides.
    derived: Vec<Expr>,
    /// Join keys: (outer column, inner column).
    keys: Vec<(String, String)>,
    /// The applicable conjuncts that are not keys.
    residual: Vec<usize>,
    /// The sort orders a merge join needs of its inputs (the key
    /// columns), and gives its output (the outer's).
    outer_key_order: OrderId,
    inner_key_order: OrderId,
    /// Set when the inner side is a single FROM item.
    leaf: Option<LeafInner>,
}

impl Split {
    /// What the join enforces: the applicable conjuncts, then the
    /// derived equalities.
    fn conjuncts<'s>(&'s self, search: &'s Search<'_>) -> impl Iterator<Item = &'s Expr> {
        let applicable = self.applicable.iter().map(|&k| search.conjuncts[k].0);
        applicable.chain(&self.derived)
    }

    /// `variant` of the Filter Join into this split's leaf inner, as
    /// costing and plan construction take it.
    fn filter_join<'s>(
        &'s self,
        aliases: &'s [Alias],
        variant: Variant,
        filter_keys: &'s [(String, String)],
    ) -> FilterJoinSpec<'s> {
        let leaf = self.leaf.as_ref().expect("offered for a leaf inner");
        FilterJoinSpec {
            inner: &aliases[leaf.alias].rel,
            keys: &self.keys,
            filter_keys,
            use_bloom: variant.lossy,
        }
    }
}

/// The methods that restrict a *named* inner relation.
struct LeafInner {
    /// FROM position of the inner.
    alias: usize,
    /// What a method that bypasses the leaf's own (filtered) access
    /// path re-applies: its local conjuncts and the join's residual.
    restriction: Vec<usize>,
    index_probe: Option<IndexProbe>,
    udf_probe: Option<UdfProbe>,
    /// The Filter Joins whose production set is the whole outer; empty
    /// when the method is not offered.
    variants: Vec<Variant>,
}

/// Index nested loops into a local base table.
struct IndexProbe {
    outer_key: String,
    inner_col: String,
    /// Index pages read per probe.
    pages: f64,
    /// Unfiltered heap rows a probe returns.
    rows: f64,
}

/// A table function invoked once per outer row.
struct UdfProbe {
    /// The outer column feeding each argument.
    arg_cols: Vec<String>,
    rows_per_call: f64,
    invocation_cost: f64,
}

/// What walking the winner's recipe accumulates, left to right.
#[derive(Default)]
struct Built {
    order: Vec<usize>,
    sips: Vec<Sips>,
    fj_costs: Vec<FilterJoinCost>,
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
    memo: ParametricEstimator,
    plans_considered: u64,
    /// Qualified schema of every FROM item, by position.
    schemas: Vec<Schema>,
    aliases: Vec<Alias>,
    /// Conjuncts of the query predicate, each with the bitmask of
    /// aliases it references.
    conjuncts: Vec<(&'a Expr, u64)>,
    /// Transitive closure of the predicate's column equalities.
    classes: Vec<BTreeSet<String>>,
    /// Interned names of the columns sort orders mention.
    columns: Vec<String>,
    /// Interned sort orders, as column ids major first.
    orders: Vec<Vec<u32>>,
    /// Every entry ever retained, evicted ones included.
    arena: Vec<Entry>,
    /// The frontiers `best` points into, back to back.
    frontiers: Vec<EntryId>,
    /// `best[S]`: the frontier of plans joining alias subset `S`.
    best: HashMap<u64, Range<usize>>,
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
        let conjuncts: Vec<(&Expr, u64)> = query
            .predicate
            .iter()
            .flat_map(conjunct_refs)
            .map(|c| {
                let mut mask = 0u64;
                for_each_column(c, &mut |col| {
                    mask |= alias_of(&schemas, col).map_or(0, |i| 1 << i);
                });
                (c, mask)
            })
            .collect();
        let mut search = Search {
            catalog,
            config: opt.config,
            query,
            estimator: PlanEstimator::new(catalog, opt.config.params),
            memo: ParametricEstimator::new(opt.config.eq_classes),
            plans_considered: 0,
            classes: equality_classes(&conjuncts),
            schemas,
            aliases: Vec::new(),
            conjuncts,
            columns: Vec::new(),
            orders: vec![Vec::new()],
            arena: Vec::new(),
            frontiers: Vec::new(),
            best: HashMap::new(),
        };
        for (i, item) in query.from.iter().enumerate() {
            let rel = FilterJoinInner::new(catalog, &item.relation, &item.alias)?;
            let mut access = LogicalPlan::scan(item.relation.clone(), item.alias.clone());
            if let Some(p) = search.local_predicate(i) {
                access = access.select(p);
            }
            let (cost, stats) = search.access_cost(i, &rel, &access)?;
            let within = |(_, m): &(&Expr, u64)| m & !(1u64 << i) == 0;
            let local = (0..search.conjuncts.len())
                .filter(|&k| within(&search.conjuncts[k]))
                .collect();
            search.aliases.push(Alias { rel, access, local });
            let leaf = search.retain(Entry {
                cost,
                stats,
                order_by: UNORDERED,
                mask: 1u64 << i,
                recipe: Recipe::Leaf {
                    alias: i,
                    ordered_on: None,
                },
            });
            search.publish(1u64 << i, &[leaf]);
        }
        Ok(search)
    }

    /// The conjuncts that reference alias `i` alone, conjoined.
    fn local_predicate(&self, i: usize) -> Option<Expr> {
        let local = self.conjuncts.iter().filter(|(_, m)| *m == 1u64 << i);
        conjoin(local.map(|(c, _)| (*c).clone()))
    }

    /// Cost and output statistics of alias `i`'s access path.
    fn access_cost(
        &self,
        i: usize,
        rel: &FilterJoinInner,
        access: &LogicalPlan,
    ) -> Result<(f64, EstStats), OptError> {
        if !probe_only(&rel.kind) {
            return self.estimator.cost(access);
        }
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
                    (c.name.as_str(), est)
                })
                .collect(),
        };
        Ok((f64::INFINITY, stats))
    }

    /// Adds the *ordered* access paths to the leaf frontiers: one per
    /// B-tree index on a local base table — the classic
    /// interesting-orders source (§3.1). The ordered scan costs the
    /// index's leaf pages on top of the heap scan, in exchange for a
    /// sort order later merge joins can exploit.
    fn seed_ordered_access_paths(&mut self) {
        for i in 0..self.aliases.len() {
            let RelationKind::Base(t) = &self.aliases[i].rel.kind else {
                continue;
            };
            let t = Arc::clone(t);
            let plain = self.frontiers[self.best[&(1u64 << i)].start];
            let leaf = self.arena[plain as usize].clone();
            let mut frontier = vec![plain];
            for (ci, column) in t.schema().columns().iter().enumerate() {
                let Some(index) = t.btree_index(ci) else {
                    continue;
                };
                let sorted_on = format!("{}.{}", self.aliases[i].rel.alias, column.base_name());
                let ordered = Entry {
                    cost: leaf.cost
                        + index.page_count() as f64
                        + self.config.params.cpu(t.row_count() as f64),
                    order_by: self.intern_order([sorted_on.as_str()].into_iter()),
                    recipe: Recipe::Leaf {
                        alias: i,
                        ordered_on: Some(ci),
                    },
                    ..leaf.clone()
                };
                self.offer(&mut frontier, ordered);
            }
            self.publish(1u64 << i, &frontier);
        }
    }

    /// The id of the sort order `columns` (major first).
    fn intern_order<'c>(&mut self, columns: impl Iterator<Item = &'c str> + Clone) -> OrderId {
        let names = &self.columns;
        let is_it = |order: &Vec<u32>| {
            let mut wanted = columns.clone();
            let matched = order
                .iter()
                .all(|&c| wanted.next() == Some(&names[c as usize]));
            matched && wanted.next().is_none()
        };
        if let Some(known) = self.orders.iter().position(is_it) {
            return known as OrderId;
        }
        let mut ids = Vec::new();
        for name in columns {
            let known = self.columns.iter().position(|c| c == name);
            ids.push(known.unwrap_or_else(|| {
                self.columns.push(name.to_string());
                self.columns.len() - 1
            }) as u32);
        }
        self.orders.push(ids);
        (self.orders.len() - 1) as OrderId
    }

    /// Puts `e` in the arena.
    fn retain(&mut self, e: Entry) -> EntryId {
        self.arena.push(e);
        (self.arena.len() - 1) as EntryId
    }

    /// Makes `frontier` the retained plans of `mask`.
    fn publish(&mut self, mask: u64, frontier: &[EntryId]) {
        let start = self.frontiers.len();
        self.frontiers.extend_from_slice(frontier);
        self.best.insert(mask, start..self.frontiers.len());
    }

    /// The Pareto order on (cost, sort order): a plan dominates another
    /// when it is no more expensive and provides at least its ordering.
    fn dominates(&self, (cost, order): (f64, OrderId), (than, its): (f64, OrderId)) -> bool {
        cost <= than + 1e-12 && self.sorted(order, its)
    }

    /// Whether rows in order `have` are also in order `want`.
    fn sorted(&self, have: OrderId, want: OrderId) -> bool {
        order_satisfies(&self.orders[have as usize], &self.orders[want as usize])
    }

    /// The (cost, sort order) of entry `id`.
    fn rank(&self, id: EntryId) -> (f64, OrderId) {
        let e = &self.arena[id as usize];
        (e.cost, e.order_by)
    }

    /// Whether some plan in `frontier` dominates one of `rank`.
    fn dominated(&self, frontier: &[EntryId], rank: (f64, OrderId)) -> bool {
        frontier.iter().any(|&k| self.dominates(self.rank(k), rank))
    }

    /// Offers `e` to `frontier`: unless it is dominated it goes in (and
    /// into the arena), pushing out what it dominates. One pushed out
    /// stays in the arena, unreferenced.
    fn offer(&mut self, frontier: &mut Vec<EntryId>, e: Entry) {
        let rank = (e.cost, e.order_by);
        if self.dominated(frontier, rank) {
            return;
        }
        frontier.retain(|&k| !self.dominates(rank, self.rank(k)));
        let id = self.retain(e);
        frontier.push(id);
        if frontier.len() > MAX_ENTRIES_PER_SUBSET {
            // Never drop the cheapest; drop the most expensive of the rest.
            let cost = |&k: &EntryId| self.arena[k as usize].cost;
            let min_cost = frontier.iter().map(cost).fold(f64::INFINITY, f64::min);
            let evict = frontier
                .iter()
                .enumerate()
                .filter(|(_, k)| cost(k) > min_cost)
                .max_by(|a, b| cost(a.1).total_cmp(&cost(b.1)))
                .map(|(idx, _)| idx);
            if let Some(idx) = evict {
                frontier.remove(idx);
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
        let mut frontier: Vec<EntryId> = Vec::new();
        for mask in masks {
            frontier.clear();
            for (om, im) in splits(mask) {
                let (Some(outers), Some(inners)) = (self.best.get(&om), self.best.get(&im)) else {
                    continue;
                };
                let (outers, inners) = (outers.clone(), inners.clone());
                let mut split = None;
                for outer_at in outers {
                    let outer = self.frontiers[outer_at];
                    if !self.arena[outer as usize].cost.is_finite() {
                        continue;
                    }
                    for inner_at in inners.clone() {
                        let inner = self.frontiers[inner_at];
                        let split = split.get_or_insert_with(|| self.split(outer, inner));
                        self.join_pair(split, outer, inner, &mut frontier)?;
                    }
                }
            }
            if !frontier.is_empty() {
                self.publish(mask, &frontier);
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
        let frontier = self.best.get(&full).cloned().unwrap_or_default();
        let winner = self.frontiers[frontier]
            .iter()
            .map(|&id| (id, &self.arena[id as usize]))
            .min_by(|a, b| total(a.1).total_cmp(&total(b.1)))
            .ok_or_else(|| OptError::NoPlan("dynamic program found no plan".into()))?;
        if !winner.1.cost.is_finite() {
            return Err(OptError::NoPlan(
                "no finite-cost plan (non-enumerable UDF without probe keys?)".into(),
            ));
        }
        let (winner, cost, est_rows) = (winner.0, total(winner.1), winner.1.stats.rows);
        let mut built = Built::default();
        let (phys, est) = self.build(winner, &mut built)?;
        let est = self.stamp(winner, vec![est]);
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
            cost,
            est_rows,
            phys: PhysPlan::Project {
                input: phys.boxed(),
                exprs,
            },
            order: built.order.iter().map(|&i| self.alias(i).clone()).collect(),
            sips: built.sips,
            filter_join_costs: built.fj_costs,
            plans_considered: self.plans_considered,
            nested_invocations: self.memo.nested_invocations,
            est,
        })
    }

    /// The alias of FROM item `i`.
    fn alias(&self, i: usize) -> &String {
        &self.query.from[i].alias
    }

    /// The conjuncts at `positions`, conjoined.
    fn conjoined(&self, positions: &[usize]) -> Option<Expr> {
        conjoin(positions.iter().map(|&k| self.conjuncts[k].0.clone()))
    }

    /// Entry `id`'s estimate as the stamp of a node over `children`.
    fn stamp(&self, id: EntryId, children: Vec<EstNode>) -> EstNode {
        let stats = &self.arena[id as usize].stats;
        EstNode::new(stats.rows, stats.pages(&self.config.params), children)
    }

    /// Materialises the plan of entry `id` by walking its recipe,
    /// appending its leaves, SIPS and Table 1 breakdowns to `out` in
    /// left-to-right order. Each node it emits is stamped with what
    /// the entry that asked for it estimated.
    fn build(&mut self, id: EntryId, out: &mut Built) -> Result<(PhysPlan, EstNode), OptError> {
        let first_leaf = out.order.len();
        let (method, outer, inner) = match self.arena[id as usize].recipe {
            Recipe::Leaf { alias, ordered_on } => {
                out.order.push(alias);
                let phys = self.leaf_plan(alias, ordered_on)?;
                let est = self.leaf_stamps(id, alias, &phys);
                return Ok((phys, est));
            }
            Recipe::Join {
                method,
                outer,
                inner,
            } => {
                let split = self.split(outer, inner);
                let (outer, outer_est) = self.build(outer, out)?;
                let (inner, inner_est) = self.build(inner, out)?;
                let est = self.stamp(id, vec![outer_est, inner_est]);
                let (outer, inner) = (outer.boxed(), inner.boxed());
                let (keys, residual) = (split.keys, self.conjoined(&split.residual));
                let phys = match method {
                    Symmetric::NestedLoops => PhysPlan::NestedLoops {
                        outer,
                        inner,
                        predicate: self.conjoined(&split.applicable),
                        kind: JoinKind::Inner,
                    },
                    Symmetric::Hash => PhysPlan::HashJoin {
                        outer,
                        inner,
                        keys,
                        residual,
                        kind: JoinKind::Inner,
                    },
                    Symmetric::Merge => PhysPlan::MergeJoin {
                        outer,
                        inner,
                        keys,
                        residual,
                    },
                };
                return Ok((phys, est));
            }
            Recipe::Into {
                method,
                outer,
                inner,
            } => (method, outer, inner),
        };
        let split = self.split(outer, inner);
        let (outer_phys, outer_est) = self.build(outer, out)?;
        let outer_leaves = out.order.len() - first_leaf;
        let leaf = split.leaf.as_ref().expect("costed with a leaf inner");
        let j = leaf.alias;
        out.order.push(j);
        let item = &self.query.from[j];
        let restriction = self.conjoined(&leaf.restriction);
        Ok(match method {
            Named::IndexNestedLoops => {
                let probe = leaf.index_probe.as_ref().expect("costed with an index");
                let phys = PhysPlan::IndexNestedLoops {
                    outer: outer_phys.boxed(),
                    table: item.relation.clone(),
                    alias: item.alias.clone(),
                    outer_key: probe.outer_key.clone(),
                    inner_col: probe.inner_col.clone(),
                    residual: restriction,
                };
                (phys, self.stamp(id, vec![outer_est]))
            }
            Named::UdfProbe => {
                let probe = leaf.udf_probe.as_ref().expect("costed with probe keys");
                let phys = PhysPlan::UdfProbe {
                    outer: outer_phys.boxed(),
                    udf: item.relation.clone(),
                    alias: item.alias.clone(),
                    arg_cols: probe.arg_cols.clone(),
                };
                (phys, self.stamp(id, vec![outer_est]))
            }
            Named::FilterJoin(variant) => {
                let filter_keys = self.filter_keys(&split, variant, inner).into_owned();
                // Only a prefix production's plan is read; what it
                // accumulates belongs to no leaf of this plan.
                let (production, produced, tag) = match variant {
                    Variant {
                        production: Some(p),
                        ..
                    } => {
                        let k = self.arena[p as usize].mask.count_ones() as usize;
                        let prefix = self.build(p, &mut Built::default())?;
                        (Some(prefix), k, format!("p{k}"))
                    }
                    Variant { omit: Some(k), .. } => (None, outer_leaves, format!("s{k}")),
                    Variant { lossy: true, .. } => (None, outer_leaves, "b".to_string()),
                    _ => (None, outer_leaves, String::new()),
                };
                let (d, _) = self
                    .cost_variant(&split, outer, variant, &filter_keys)?
                    .expect("applicable when it was costed");
                let mask = self.arena[id as usize].mask;
                let (mut phys, mut est) = build_filter_join_plan(
                    self.catalog,
                    &self.config.params,
                    (outer_phys, outer_est),
                    production,
                    split.filter_join(&self.aliases, variant, &filter_keys),
                    &d,
                    &format!("_{mask:x}_{j}{tag}"),
                )?;
                if let Some(p) = restriction {
                    phys = PhysPlan::Filter {
                        input: phys.boxed(),
                        predicate: p,
                    };
                    est = self.stamp(id, vec![est]);
                }
                let producers = &out.order[first_leaf..first_leaf + produced];
                out.sips.push(Sips {
                    production: producers.iter().map(|&i| self.alias(i).clone()).collect(),
                    inner: item.alias.clone(),
                    filter_keys: filter_keys
                        .into_iter()
                        .map(|(left, right)| EquiJoinKey { left, right })
                        .collect(),
                });
                out.fj_costs.push(d.cost);
                (phys, est)
            }
        })
    }

    /// FROM item `alias` read through its plain access path, or in the
    /// order of the B-tree index on column `ordered_on`.
    fn leaf_plan(&self, alias: usize, ordered_on: Option<usize>) -> Result<PhysPlan, OptError> {
        let item = &self.query.from[alias];
        let Alias { rel, access, .. } = &self.aliases[alias];
        let Some(ci) = ordered_on else {
            if probe_only(&rel.kind) {
                return Ok(PhysPlan::UdfFullScan {
                    udf: item.relation.clone(),
                    alias: item.alias.clone(),
                });
            }
            return Ok(lower::lower(access, self.catalog)?);
        };
        let phys = PhysPlan::IndexOrderedScan {
            table: item.relation.clone(),
            alias: item.alias.clone(),
            col: self.schemas[alias].column(ci).base_name().to_string(),
        };
        Ok(match self.local_predicate(alias) {
            Some(predicate) => PhysPlan::Filter {
                input: phys.boxed(),
                predicate,
            },
            None => phys,
        })
    }

    /// Stamps the access path `phys` of leaf entry `id` over FROM item
    /// `alias`: the nodes down to the scan carry the entry, and the scan
    /// a filter reads carries the base-table statistics the entry was
    /// derived from (its rows and width, as `base_table_stats` gives
    /// them). What a filter reads of a view or a table function, and a
    /// view's body, carry none.
    fn leaf_stamps(&self, id: EntryId, alias: usize, phys: &PhysPlan) -> EstNode {
        let children = match (phys, &self.aliases[alias].rel.kind) {
            (PhysPlan::Ship { input, .. }, _) => vec![self.leaf_stamps(id, alias, input)],
            (PhysPlan::Filter { .. }, RelationKind::Base(t) | RelationKind::Remote(t, _)) => {
                let rows = t.row_count() as f64;
                let pages = self.config.params.pages(rows, t.schema().row_width());
                vec![EstNode::new(rows, pages, Vec::new())]
            }
            _ => Vec::new(),
        };
        self.stamp(id, children)
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
            class.iter().find(|c| side.cols.contains_key(c)).cloned()
        };
        self.classes
            .iter()
            .filter_map(|class| Some((pick(class, left)?, pick(class, right)?)))
            .collect()
    }

    /// The facts shared by every join of an entry over `outer`'s
    /// relations with one over `inner`'s (any two such entries have the
    /// same columns, which is all that is read of them here).
    fn split(&mut self, outer: EntryId, inner: EntryId) -> Split {
        let (o, i) = (&self.arena[outer as usize], &self.arena[inner as usize]);
        let (om, im) = (o.mask, i.mask);
        // Conjuncts first fully bound at this join: inside the joined
        // set and crossing the split.
        let bound_here = |m: u64| m & !(om | im) == 0 && m & om != 0 && m & im != 0;
        let applicable: Vec<usize> = (0..self.conjuncts.len())
            .filter(|&k| bound_here(self.conjuncts[k].1))
            .collect();
        let written = applicable.iter().map(|&k| self.conjuncts[k].0);
        let mut keys = written_keys(written, &o.stats, &i.stats);
        // Enforcing a derived key early is sound: the full predicate
        // implies it.
        let mut derived = Vec::new();
        if keys.is_empty() {
            keys = self.class_keys(&o.stats, &i.stats);
            let equalities = keys.iter().map(|(o, i)| col(o.clone()).eq(col(i.clone())));
            derived = equalities.collect();
        }
        let residual: Vec<usize> = applicable
            .iter()
            .copied()
            .filter(|&k| !is_key_conjunct(self.conjuncts[k].0, &keys))
            .collect();
        let leaf = (im.count_ones() == 1)
            .then(|| self.leaf_inner(im.trailing_zeros() as usize, &keys, &residual));
        Split {
            outer_key_order: self.intern_order(keys.iter().map(|(o, _)| o.as_str())),
            inner_key_order: self.intern_order(keys.iter().map(|(_, i)| i.as_str())),
            applicable,
            derived,
            keys,
            residual,
            leaf,
        }
    }

    /// What index nested loops, a UDF probe and the Filter Join need to
    /// know about joining into FROM item `j` on `keys`.
    fn leaf_inner(&self, j: usize, keys: &[(String, String)], residual: &[usize]) -> LeafInner {
        let Alias { rel, local, .. } = &self.aliases[j];
        // Local base table with an index on the join column. The probe
        // sees unfiltered heap rows.
        let mut index_probe = None;
        if let (true, [(outer_key, inner_key)], RelationKind::Base(t)) =
            (self.config.enable_index_nl, keys, &rel.kind)
        {
            let inner_col = rel.attr(inner_key);
            let indexed = t.schema().resolve(inner_col).ok();
            if let Some(ci) = indexed.filter(|&ci| t.has_index(ci)) {
                let pages = if t.hash_index(ci).is_some() {
                    1.0
                } else {
                    t.btree_index(ci).map(|b| b.height() as f64).unwrap_or(1.0)
                };
                let distinct = t.stats().column(ci).map(|s| s.distinct as f64);
                index_probe = Some(IndexProbe {
                    outer_key: outer_key.clone(),
                    inner_col: inner_col.to_string(),
                    pages,
                    rows: t.row_count() as f64 / distinct.unwrap_or(1.0).max(1.0),
                });
            }
        }
        // Keys cover the UDF's argument columns.
        let mut udf_probe = None;
        if let RelationKind::Udf(u) = &rel.kind {
            let schema = u.schema();
            let arg_cols: Option<Vec<String>> = (0..u.arg_count())
                .map(|i| {
                    let arg = format!("{}.{}", rel.alias, schema.column(i).base_name());
                    let key = keys.iter().find(|(_, ik)| *ik == arg);
                    key.map(|(ok, _)| ok.clone())
                })
                .collect();
            udf_probe = arg_cols.map(|arg_cols| UdfProbe {
                arg_cols,
                rows_per_call: u.rows_per_call(),
                invocation_cost: u.invocation_cost(),
            });
        }
        LeafInner {
            alias: j,
            restriction: local.iter().chain(residual).copied().collect(),
            index_probe,
            udf_probe,
            variants: self.whole_outer_variants(&rel.kind, keys.len()),
        }
    }

    /// The Filter Join alternatives for a join on `keys` keys into an
    /// inner of `kind`, production set the whole outer. §3.3's
    /// limitations are what keep this list short: Limitations 1+2 fix
    /// the production set and only a small constant number of filter
    /// sets is tried (Limitation 3) — exact, Bloom, and with several
    /// join attributes each filter set that omits one of them.
    fn whole_outer_variants(&self, kind: &RelationKind, keys: usize) -> Vec<Variant> {
        let offered = self.config.enable_filter_join
            && keys > 0
            && (kind.is_virtual() || self.config.filter_join_on_base);
        if !offered {
            return Vec::new();
        }
        let exact = Variant {
            production: None,
            omit: None,
            lossy: false,
        };
        let bloom = self.config.enable_bloom.then_some(Variant {
            lossy: true,
            ..exact
        });
        let omissions = (0..keys).filter(|_| keys > 1).map(|omit| Variant {
            omit: Some(omit),
            ..exact
        });
        [exact].into_iter().chain(bloom).chain(omissions).collect()
    }

    /// All join-method candidates for joining `outer` with `inner`,
    /// offered to `frontier` as they are costed. The methods that
    /// restrict a *named* relation (index nested loops, UDF probes, and
    /// the Filter Join) need `inner` to be a single FROM item; with a
    /// composite inner (a bushy subtree) only the symmetric methods —
    /// BNL, hash join, sort-merge — apply.
    fn join_pair(
        &mut self,
        split: &Split,
        outer: EntryId,
        inner: EntryId,
        frontier: &mut Vec<EntryId>,
    ) -> Result<(), OptError> {
        let params = self.config.params;
        let (o, i) = (&self.arena[outer as usize], &self.arena[inner as usize]);
        // Estimate with derived equalities included (they restrict the
        // output just like written ones). One result per pair, shared
        // by every method's entry.
        let out_stats = self.estimator.join_stats_terms(
            &o.stats,
            &i.stats,
            split.conjuncts(self).map(JoinTerm::Conjunct),
            JoinKind::Inner,
        );
        let (o_cost, o_rows, op) = (o.cost, o.stats.rows, o.stats.pages(&params));
        let (i_cost, i_rows, ip) = (i.cost, i.stats.rows, i.stats.pages(&params));
        let (o_order, i_order) = (o.order_by, i.order_by);
        let both = o_cost + i_cost;
        let mask = o.mask | i.mask;
        let entry = |recipe: Recipe, cost: f64, stats: &EstStats, order_by: OrderId| Entry {
            cost,
            stats: stats.clone(),
            order_by,
            mask,
            recipe,
        };
        let join = |method: Symmetric| Recipe::Join {
            method,
            outer,
            inner,
        };
        let into = |method: Named| Recipe::Into {
            method,
            outer,
            inner,
        };
        // Every join implementation iterates the outer side in arrival
        // order, so the outer's sort order is kept; the merge join
        // replaces it with its own.

        // 1. Block nested loops (always applicable when the inner is
        // enumerable).
        if i_cost.is_finite() {
            self.plans_considered += 1;
            let cost = both + params.bnl_cost(o_rows, op, i_rows, ip);
            self.offer(
                frontier,
                entry(join(Symmetric::NestedLoops), cost, &out_stats, o_order),
            );
        }

        if !split.keys.is_empty() && i_cost.is_finite() {
            // 2. Hash join.
            self.plans_considered += 1;
            let cost = both + params.hash_join_cost(o_rows, op, i_rows, ip, out_stats.rows);
            self.offer(
                frontier,
                entry(join(Symmetric::Hash), cost, &out_stats, o_order),
            );
            // 3. Sort-merge join — an *interesting order* producer: the
            // output is sorted by the outer key columns, and an outer
            // that already provides that order skips its sort (§3.1).
            if self.config.enable_merge_join {
                self.plans_considered += 1;
                let cost = both
                    + params.merge_join_cost_with_orders(
                        o_rows,
                        op,
                        i_rows,
                        ip,
                        out_stats.rows,
                        self.sorted(o_order, split.outer_key_order),
                        self.sorted(i_order, split.inner_key_order),
                    );
                self.offer(
                    frontier,
                    entry(
                        join(Symmetric::Merge),
                        cost,
                        &out_stats,
                        split.outer_key_order,
                    ),
                );
            }
        }

        // Methods 4–6 restrict a *named* inner relation (an index
        // probe, a UDF invocation, or a filter applied to the inner's
        // access path); a composite (bushy) inner stops here.
        let Some(leaf) = &split.leaf else {
            return Ok(());
        };

        // 4. Index nested loops. The leaf scan is not performed.
        if let Some(probe) = &leaf.index_probe {
            self.plans_considered += 1;
            let cost = both + (params.inl_cost(o_rows, probe.pages, probe.rows) - i_cost);
            self.offer(
                frontier,
                entry(into(Named::IndexNestedLoops), cost, &out_stats, o_order),
            );
        }

        // 5. UDF probe. The leaf is never enumerated, so only the
        // outer's cost is carried.
        if let Some(probe) = &leaf.udf_probe {
            self.plans_considered += 1;
            let stats = EstStats {
                rows: o_rows * probe.rows_per_call,
                ..out_stats.clone()
            };
            let cost = o_cost + o_rows * probe.invocation_cost;
            self.offer(
                frontier,
                entry(into(Named::UdfProbe), cost, &stats, o_order),
            );
        }

        // 6. The Filter Join.
        let prefixes = self.prefix_variants(leaf, outer);
        for variant in leaf.variants.iter().copied().chain(prefixes) {
            let filter_keys = self.filter_keys(split, variant, inner);
            if filter_keys.is_empty() {
                // A prefix whose columns do not reach the inner.
                continue;
            }
            self.plans_considered += 1;
            let Some((d, cost)) = self.cost_variant(split, outer, variant, &filter_keys)? else {
                continue;
            };
            // Costed from cardinalities alone; its statistics are
            // worth deriving only if it will be kept.
            if self.dominated(frontier, (cost, o_order)) {
                continue;
            }
            let stats = self.variant_stats(split, outer, variant, &filter_keys, &d);
            self.offer(
                frontier,
                entry(into(Named::FilterJoin(variant)), cost, &stats, o_order),
            );
        }
        Ok(())
    }

    /// The leaves of entry `id`'s plan, left to right.
    fn leaf_order(&self, id: EntryId, out: &mut Vec<usize>) {
        match self.arena[id as usize].recipe {
            Recipe::Leaf { alias, .. } => out.push(alias),
            Recipe::Join { outer, inner, .. } | Recipe::Into { outer, inner, .. } => {
                self.leaf_order(outer, out);
                self.leaf_order(inner, out);
            }
        }
    }

    /// The Limitation-2 ablation: one exact Filter Join per strict
    /// prefix of `outer`'s leaves, its production set the cheapest plan
    /// for that prefix — the O(N) factor §3.3 warns about.
    fn prefix_variants(&self, leaf: &LeafInner, outer: EntryId) -> Vec<Variant> {
        if !self.config.allow_prefix_production || leaf.variants.is_empty() {
            return Vec::new();
        }
        let mut order = Vec::new();
        self.leaf_order(outer, &mut order);
        let cost = |&id: &EntryId| self.arena[id as usize].cost;
        let prefixes = (1..order.len()).filter_map(|k| {
            let mask = order[..k].iter().fold(0u64, |m, &i| m | (1 << i));
            let frontier = &self.frontiers[self.best.get(&mask)?.clone()];
            let cheapest = frontier.iter().min_by(|a, b| cost(a).total_cmp(&cost(b)));
            cheapest.map(|&p| Variant {
                production: Some(p),
                omit: None,
                lossy: false,
            })
        });
        prefixes.collect()
    }

    /// The (production column, inner column) pairs `variant`'s filter
    /// set projects.
    fn filter_keys<'s>(
        &self,
        split: &'s Split,
        variant: Variant,
        inner: EntryId,
    ) -> Cow<'s, [(String, String)]> {
        match variant {
            Variant {
                production: Some(p),
                ..
            } => {
                let (prefix, inner) = (&self.arena[p as usize], &self.arena[inner as usize]);
                let written = written_keys(split.conjuncts(self), &prefix.stats, &inner.stats);
                Cow::Owned(if written.is_empty() {
                    self.class_keys(&prefix.stats, &inner.stats)
                } else {
                    written
                })
            }
            Variant { omit: Some(k), .. } => {
                let kept = split.keys.iter().enumerate().filter(|(at, _)| *at != k);
                Cow::Owned(kept.map(|(_, pair)| pair.clone()).collect())
            }
            _ => Cow::Borrowed(&split.keys),
        }
    }

    /// Costs one Filter Join variant (Table 1) with the inner's
    /// restriction (its local conjuncts and the join's residual)
    /// filtering on top: the decision and the entry's cost; `None` when
    /// the variant is not applicable. The final join always consumes
    /// the whole outer, whatever the production set.
    fn cost_variant(
        &mut self,
        split: &Split,
        outer: EntryId,
        variant: Variant,
        filter_keys: &[(String, String)],
    ) -> Result<Option<(FilterJoinDecision, f64)>, OptError> {
        let params = self.config.params;
        let o = &self.arena[outer as usize];
        let production = variant.production.map(|p| &self.arena[p as usize]);
        let leaf = split.leaf.as_ref().expect("offered for a leaf inner");
        let decision = cost_filter_join(FilterJoinArgs {
            catalog: self.catalog,
            params,
            memo: &mut self.memo,
            outer_cost: o.cost,
            outer: &o.stats,
            spec: split.filter_join(&self.aliases, variant, filter_keys),
            prefix_production: production.map(|p| PrefixProduction {
                stats: &p.stats,
                cost: p.cost,
            }),
        })?;
        let Some(d) = decision else {
            return Ok(None);
        };
        let mut cost_delta = d.cost.total() - o.cost; // JoinCost_P already in base
        if !leaf.restriction.is_empty() {
            cost_delta += params.cpu(d.output.rows);
        }
        // The leaf's own access cost is replaced by FilterCost_Rk.
        Ok(Some((d, o.cost + cost_delta)))
    }

    /// Output statistics of the Filter Join `d` was costed for, the
    /// restriction's selectivity applied.
    fn variant_stats(
        &self,
        split: &Split,
        outer: EntryId,
        variant: Variant,
        filter_keys: &[(String, String)],
        d: &FilterJoinDecision,
    ) -> EstStats {
        let leaf = split.leaf.as_ref().expect("offered for a leaf inner");
        let spec = split.filter_join(&self.aliases, variant, filter_keys);
        let outer = &self.arena[outer as usize].stats;
        let mut stats = filter_join_stats(&self.estimator, outer, spec, d);
        if !leaf.restriction.is_empty() {
            let conjuncts = leaf.restriction.iter().map(|&k| self.conjuncts[k].0);
            stats.rows *= self.estimator.selectivity_of(conjuncts, &stats);
        }
        stats
    }
}

/// A table function with no domain to enumerate: only reachable by
/// probing, never scanned on its own.
fn probe_only(kind: &RelationKind) -> bool {
    matches!(kind, RelationKind::Udf(u) if u.domain().is_none())
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

/// The equi-join keys `conjuncts` write between two inputs, as
/// `(left column, right column)`.
fn written_keys<'e>(
    conjuncts: impl Iterator<Item = &'e Expr>,
    left: &EstStats,
    right: &EstStats,
) -> Vec<(String, String)> {
    let (in_left, in_right) = (
        |c: &str| left.cols.contains_key(c),
        |c: &str| right.cols.contains_key(c),
    );
    conjuncts
        .filter_map(|c| equi_join_key(c, &in_left, &in_right))
        .map(|(l, r)| (l.to_string(), r.to_string()))
        .collect()
}

/// Computes the transitive closure of column equalities in the query
/// predicate as equivalence classes. `E.did = D.did AND E.did = V.did`
/// puts all three columns in one class, which is how join order 3 of
/// Figure 3 can pass a `D`-derived filter set into `V` even though the
/// predicate never writes `D.did = V.did` explicitly.
pub fn equality_classes(conjuncts: &[(&Expr, u64)]) -> Vec<BTreeSet<String>> {
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
