//! The shipping-strategy menu for partitioned execution. Each strategy
//! is a `Program`: an ordered list of exchanges with the shards. The
//! coordinator runs a program one exchange at a time, and
//! [`predict_all`] prices the same program under the same
//! per-message/per-byte weighting `NetworkModel` gives the paper's §5.1
//! two-site model, lifted to N hash partitions.
//!
//! Predictions deliberately mirror the optimizer's assumptions (uniform
//! keys, containment of join values) rather than the network's ground
//! truth; the `dist` reproduce experiment reconciles them against the
//! bytes actually measured on the wire.

use crate::plan::DistPlan;
use fj_algebra::Catalog;
use fj_storage::BloomFilter;

/// Target false-positive rate of every shipped Bloom filter.
pub(crate) const BLOOM_FP: f64 = 0.01;

/// How reduction filters move between shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShipStrategy {
    /// Ship every (locally pre-filtered) partition whole; join at the
    /// coordinator. The R* "fetch inner" baseline.
    ShipWhole,
    /// Gather the driver, then fetch each matching inner group with one
    /// keyed fragment per distinct join key — R* "fetch matches":
    /// message-heavy, byte-light.
    FetchMatches,
    /// Gather the driver, ship its exact distinct key set to each inner
    /// partition, gather only survivors — the SDD-1 semijoin program.
    Semijoin,
    /// The lossy variant: ship a Bloom filter of the key set. False
    /// positives cost shipped bytes, never correctness.
    BloomSemijoin,
    /// Yannakakis full reducer over the join tree (acyclic queries
    /// only): key sets travel up the tree, then the gathered rows'
    /// keys travel back down, so every gathered row is guaranteed to
    /// contribute to the result.
    FullReducer,
    /// Pick the cheapest applicable strategy by predicted network cost.
    Auto,
}

/// Where a [`Filter`]'s keys come from.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum KeySource {
    /// The distinct values of a column (qualified name) of an alias an
    /// earlier exchange gathered.
    Column(usize, String),
    /// The key set the slot-th [`Exchange::Keys`] of the program
    /// collected.
    Slot(usize),
}

/// One key filter a shard applies before it replies.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Filter {
    /// The filtered column of the exchange's alias (qualified name).
    pub col: String,
    /// Where the keys come from.
    pub source: KeySource,
    /// Ship a Bloom filter of the keys instead of the exact set.
    pub bloom: bool,
}

/// One step of a [`Program`], naming an alias by its index in
/// [`DistPlan::aliases`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Exchange {
    /// Gathers the alias's rows from every partition: a FRAGMENT each
    /// when there are no filters, a SEMIJOIN with `want_rows` otherwise.
    Gather(usize, Vec<Filter>),
    /// Collects the distinct values of one column (qualified name) of
    /// the alias's surviving rows with a SEMIJOIN per partition
    /// (`keys_of`), into the next key slot.
    Keys(usize, String, Vec<Filter>),
    /// Gathers the alias with one keyed FRAGMENT per distinct key that
    /// the other end of the edge (an index into [`DistPlan::edges`])
    /// holds: routed to one partition when the alias is partitioned on
    /// a key column, sent to all otherwise.
    Fetch(usize, usize),
}

/// The exchanges one strategy runs for one query, in order. Every
/// alias is gathered exactly once.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Program(pub Vec<Exchange>);

impl ShipStrategy {
    /// The concrete (non-Auto) strategies, in menu order.
    pub const ALL: [ShipStrategy; 5] = [
        ShipStrategy::ShipWhole,
        ShipStrategy::FetchMatches,
        ShipStrategy::Semijoin,
        ShipStrategy::BloomSemijoin,
        ShipStrategy::FullReducer,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ShipStrategy::ShipWhole => "ship-whole",
            ShipStrategy::FetchMatches => "fetch-matches",
            ShipStrategy::Semijoin => "semijoin",
            ShipStrategy::BloomSemijoin => "bloom-semijoin",
            ShipStrategy::FullReducer => "full-reducer",
            ShipStrategy::Auto => "auto",
        }
    }

    /// The exchanges this strategy runs for `plan`. `None` for `Auto`,
    /// which is no program of its own, and for the full reducer on a
    /// cyclic join graph.
    ///
    /// The driver-based strategies gather the smallest table whole,
    /// then visit the rest breadth-first ([`DistPlan::reduction_order`]);
    /// an alias no edge reaches is gathered whole.
    pub(crate) fn program(self, plan: &DistPlan, catalog: &Catalog) -> Option<Program> {
        let bloom = self == ShipStrategy::BloomSemijoin;
        let exchanges = match self {
            ShipStrategy::ShipWhole => (0..plan.aliases.len())
                .map(|v| Exchange::Gather(v, Vec::new()))
                .collect(),
            ShipStrategy::FetchMatches | ShipStrategy::Semijoin | ShipStrategy::BloomSemijoin => {
                plan.reduction_order(plan.driver(catalog))
                    .into_iter()
                    .map(|(v, edges)| match edges.first() {
                        // Fetch by the first incoming edge only; extra
                        // edges still hold at the final local join.
                        Some(&e) if self == ShipStrategy::FetchMatches => Exchange::Fetch(v, e),
                        // Filters are conjunctive on the shard, so a
                        // semijoin reduces by every incoming edge.
                        _ => Exchange::Gather(
                            v,
                            edges
                                .iter()
                                .flat_map(|&e| filters_from(plan, v, e, bloom))
                                .collect(),
                        ),
                    })
                    .collect()
            }
            ShipStrategy::FullReducer => full_reducer(plan, catalog)?,
            ShipStrategy::Auto => return None,
        };
        Some(Program(exchanges))
    }
}

/// The filters reducing alias `v` by the keys of the alias at the other
/// end of edge `e`, one per key column.
fn filters_from(plan: &DistPlan, v: usize, e: usize, bloom: bool) -> Vec<Filter> {
    let edge = &plan.edges[e];
    let from = edge.other(v);
    edge.keys_from(from)
        .into_iter()
        .map(|(from_col, col)| Filter {
            col: col.to_string(),
            source: KeySource::Column(from, from_col.to_string()),
            bloom,
        })
        .collect()
}

/// The Yannakakis full reducer, per connected component of the join
/// graph: rooted at the component's largest table (key sets then flow
/// from small relations toward the big one, which never ships its own
/// keys), Keys exchanges run up the tree leaves first, each alias
/// filtered by its subtree's key slots; the root is gathered under its
/// children's slots; then every other alias is gathered parent first,
/// filtered by its subtree's slots and its parent's gathered keys.
/// `None` when a component has a cycle.
fn full_reducer(plan: &DistPlan, catalog: &Catalog) -> Option<Vec<Exchange>> {
    let n = plan.aliases.len();
    let rows = |v: usize| {
        catalog
            .table(&plan.aliases[v].table)
            .map_or(0, |t| t.row_count())
    };
    let mut exchanges = Vec::new();
    let mut done = vec![false; n];
    let mut slots = 0;
    // Filters each alias inherits from the key slots of its children.
    let mut from_children: Vec<Vec<Filter>> = vec![Vec::new(); n];
    for seed in 0..n {
        if done[seed] {
            continue;
        }
        // Breadth-first from `seed`, the component is every alias up to
        // the first one no edge reaches.
        let component: Vec<usize> = plan
            .reduction_order(seed)
            .into_iter()
            .enumerate()
            .take_while(|(i, (_, edges))| *i == 0 || !edges.is_empty())
            .map(|(_, (v, _))| v)
            .collect();
        let root = component.iter().copied().max_by_key(|&v| rows(v))?;
        let mut tree = plan.reduction_order(root);
        tree.truncate(component.len());
        // Breadth-first, each alias lists every edge back to those
        // visited before it: a tree is exactly one per non-root alias.
        if tree[1..].iter().any(|(_, edges)| edges.len() != 1) {
            return None;
        }
        for (v, edges) in tree[1..].iter().rev() {
            let edge = &plan.edges[edges[0]];
            for (col, parent_col) in edge.keys_from(*v) {
                exchanges.push(Exchange::Keys(
                    *v,
                    col.to_string(),
                    from_children[*v].clone(),
                ));
                from_children[edge.other(*v)].push(Filter {
                    col: parent_col.to_string(),
                    source: KeySource::Slot(slots),
                    bloom: false,
                });
                slots += 1;
            }
        }
        for (v, edges) in &tree {
            let mut filters = std::mem::take(&mut from_children[*v]);
            if let Some(&e) = edges.first() {
                filters.extend(filters_from(plan, *v, e, false));
            }
            exchanges.push(Exchange::Gather(*v, filters));
            done[*v] = true;
        }
    }
    Some(exchanges)
}

/// Predicted network cost of one strategy on one query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostPrediction {
    /// The strategy predicted.
    pub strategy: ShipStrategy,
    /// Request/reply exchanges expected.
    pub messages: f64,
    /// Payload bytes expected on the wire, both directions.
    pub bytes: f64,
    /// Scalar cost under the catalog's network model.
    pub cost: f64,
}

/// Per-alias size facts the predictions work from.
#[derive(Clone)]
struct AliasFacts {
    bytes: f64,
    /// Distinct count per base column (containment assumption input).
    /// A program walk narrows a column to the size of the key set that
    /// filtered it.
    distinct: Vec<f64>,
    /// Average wire width per value, per base column.
    col_width: Vec<f64>,
}

fn facts(plan: &DistPlan, catalog: &Catalog) -> Vec<AliasFacts> {
    plan.aliases
        .iter()
        .map(|info| {
            let table = catalog.table(&info.table).ok();
            let (bytes, distinct, col_width) = match table {
                Some(t) => {
                    let n = t.row_count() as f64;
                    let total: u64 = t.rows().iter().map(|r| r.wire_width() as u64).sum();
                    let stats = t.stats();
                    let distinct = stats
                        .columns
                        .iter()
                        .map(|c| (c.distinct.max(1)) as f64)
                        .collect();
                    let widths = (0..info.schema.arity())
                        .map(|i| {
                            if t.rows().is_empty() {
                                9.0
                            } else {
                                t.rows()
                                    .iter()
                                    .map(|r| r.value(i).wire_width() as f64)
                                    .sum::<f64>()
                                    / n.max(1.0)
                            }
                        })
                        .collect();
                    (total as f64, distinct, widths)
                }
                None => (0.0, vec![], vec![]),
            };
            AliasFacts {
                bytes,
                distinct,
                col_width,
            }
        })
        .collect()
}

/// One walk over a program: the facts as the exchanges so far left
/// them, and each filled key slot's (distinct count, value width).
struct Walk<'a> {
    plan: &'a DistPlan,
    facts: Vec<AliasFacts>,
    slots: Vec<(f64, f64)>,
    shards: f64,
}

impl Walk<'_> {
    fn index(&self, v: usize, col: &str) -> Option<usize> {
        self.plan.aliases[v].col_index(col).ok()
    }

    fn distinct(&self, v: usize, col: &str) -> f64 {
        self.index(v, col)
            .and_then(|i| self.facts[v].distinct.get(i).copied())
            .unwrap_or(1.0)
    }

    fn width(&self, v: usize, col: &str) -> f64 {
        self.index(v, col)
            .and_then(|i| self.facts[v].col_width.get(i).copied())
            .unwrap_or(9.0)
    }

    /// A key set's (distinct count, value width).
    fn keys(&self, source: &KeySource) -> (f64, f64) {
        match source {
            KeySource::Column(v, col) => (self.distinct(*v, col), self.width(*v, col)),
            KeySource::Slot(i) => self.slots.get(*i).copied().unwrap_or((1.0, 9.0)),
        }
    }

    /// Bytes the filters add to one request per partition, and the
    /// fraction of `v`'s rows that pass them: under containment a
    /// filter of d keys passes min(1, d / d_col) of the column's values
    /// (plus the Bloom false positives), and the tightest filter
    /// bounds the conjunction.
    fn filters(&self, v: usize, filters: &[Filter]) -> (f64, f64) {
        let mut bytes = 0.0;
        let mut pass = 1.0f64;
        for f in filters {
            let (d, w) = self.keys(&f.source);
            let sel = (d / self.distinct(v, &f.col)).min(1.0);
            if f.bloom {
                let (n_bits, _) = BloomFilter::sizing(d as u64, BLOOM_FP);
                bytes += self.shards * (n_bits / 8) as f64;
                pass = pass.min(sel + BLOOM_FP * (1.0 - sel));
            } else {
                bytes += self.shards * d * w;
                pass = pass.min(sel);
            }
        }
        (bytes, pass)
    }

    /// Column `col` of `v` now holds at most `d` distinct values.
    fn narrow(&mut self, v: usize, col: &str, d: f64) {
        if let Some(i) = self.index(v, col) {
            if let Some(have) = self.facts[v].distinct.get_mut(i) {
                *have = have.min(d);
            }
        }
    }

    /// The program's predicted (messages, bytes).
    fn run(mut self, program: &Program) -> (f64, f64) {
        let s = self.shards;
        let (mut messages, mut bytes) = (0.0, 0.0);
        for exchange in &program.0 {
            match exchange {
                Exchange::Gather(v, filters) => {
                    let (filter_bytes, pass) = self.filters(*v, filters);
                    messages += s;
                    bytes += filter_bytes + pass * self.facts[*v].bytes;
                    for f in filters {
                        let (d, _) = self.keys(&f.source);
                        self.narrow(*v, &f.col, d);
                    }
                }
                Exchange::Keys(v, col, filters) => {
                    let (filter_bytes, _) = self.filters(*v, filters);
                    let d = filters
                        .iter()
                        .filter(|f| f.col == *col)
                        .map(|f| self.keys(&f.source).0)
                        .fold(self.distinct(*v, col), f64::min);
                    let w = self.width(*v, col);
                    messages += s;
                    bytes += filter_bytes + d * w;
                    self.slots.push((d, w));
                }
                Exchange::Fetch(v, e) => {
                    // Containment on the edge's first key column: the
                    // fraction of v's join values matched is
                    // min(1, d_from / d_v).
                    let edge = &self.plan.edges[*e];
                    let from = edge.other(*v);
                    let (from_col, col) = edge.keys_from(from)[0];
                    let d_from = self.distinct(from, from_col);
                    let sel = (d_from / self.distinct(*v, col)).min(1.0);
                    // Routed to one shard when v is partitioned on the
                    // fetched column.
                    let routed = self.index(*v, col) == Some(self.plan.aliases[*v].map.column);
                    let targets = if routed { 1.0 } else { s };
                    messages += d_from * targets;
                    bytes +=
                        d_from * targets * self.width(from, from_col) + sel * self.facts[*v].bytes;
                    self.narrow(*v, col, d_from);
                }
            }
        }
        (messages, bytes)
    }
}

/// Predicts every applicable strategy for `plan` by walking its
/// program, cheapest first; the full reducer is left out on a
/// cyclic join graph. A Gather or Keys exchange sends one request per
/// partition and a Fetch one per distinct key and target partition, so
/// the predicted messages are the requests the coordinator sends.
pub fn predict_all(plan: &DistPlan, catalog: &Catalog, shards: u32) -> Vec<CostPrediction> {
    let f = facts(plan, catalog);
    // A catalog defaults to the free network of the purely-local
    // setting, but shipping over real shards is never free: weight by
    // LAN unless an explicit model says otherwise.
    let mut net = catalog.network();
    if net.per_message == 0.0 && net.per_byte == 0.0 {
        net = fj_algebra::NetworkModel::lan();
    }
    let mut out: Vec<CostPrediction> = ShipStrategy::ALL
        .into_iter()
        .filter_map(|strategy| {
            let program = strategy.program(plan, catalog)?;
            let walk = Walk {
                plan,
                facts: f.clone(),
                slots: Vec::new(),
                shards: shards as f64,
            };
            let (messages, bytes) = walk.run(&program);
            Some(CostPrediction {
                strategy,
                messages,
                bytes,
                cost: messages * net.per_message + bytes * net.per_byte,
            })
        })
        .collect();
    out.sort_by(|a, b| {
        a.cost
            .partial_cmp(&b.cost)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_algebra::{FromItem, JoinQuery};
    use fj_expr::col;
    use fj_storage::{DataType, TableBuilder, Value};

    /// `a ⋈ b ⋈ c` on `a.y = b.y` and `b.z = c.z`, with `b` the largest
    /// table and `c` the smallest.
    fn chain() -> (DistPlan, Catalog) {
        let mut cat = Catalog::new();
        for (name, cols, rows) in [
            ("A", ["x", "y"], 4),
            ("B", ["y", "z"], 8),
            ("C", ["z", "w"], 2),
        ] {
            let mut b = TableBuilder::new(name);
            for c in cols {
                b = b.column(c, DataType::Int);
            }
            let table = b.rows((0..rows).map(|i| vec![Value::Int(i), Value::Int(i)]));
            cat.add_table(table.build().unwrap().into_ref());
        }
        let q = JoinQuery::new(vec![
            FromItem::new("A", "a"),
            FromItem::new("B", "b"),
            FromItem::new("C", "c"),
        ])
        .with_predicate(col("a.y").eq(col("b.y")).and(col("b.z").eq(col("c.z"))));
        (DistPlan::analyze(&q, &cat, 3).unwrap(), cat)
    }

    fn filter(col: &str, source: KeySource) -> Filter {
        Filter {
            col: col.into(),
            source,
            bloom: false,
        }
    }

    #[test]
    fn full_reducer_sweeps_keys_up_then_gathers_down() {
        let (plan, cat) = chain();
        let column = |v, c: &str| KeySource::Column(v, c.into());
        assert_eq!(
            ShipStrategy::FullReducer.program(&plan, &cat),
            Some(Program(vec![
                Exchange::Keys(2, "c.z".into(), vec![]),
                Exchange::Keys(0, "a.y".into(), vec![]),
                Exchange::Gather(
                    1,
                    vec![
                        filter("b.z", KeySource::Slot(0)),
                        filter("b.y", KeySource::Slot(1)),
                    ]
                ),
                Exchange::Gather(0, vec![filter("a.y", column(1, "b.y"))]),
                Exchange::Gather(2, vec![filter("c.z", column(1, "b.z"))]),
            ]))
        );
    }

    #[test]
    fn driver_strategies_start_from_the_smallest_table() {
        let (plan, cat) = chain();
        assert_eq!(
            ShipStrategy::FetchMatches.program(&plan, &cat),
            Some(Program(vec![
                Exchange::Gather(2, vec![]),
                Exchange::Fetch(1, 1),
                Exchange::Fetch(0, 0),
            ]))
        );
        let semijoin = ShipStrategy::Semijoin.program(&plan, &cat).unwrap();
        assert_eq!(
            semijoin.0[1],
            Exchange::Gather(1, vec![filter("b.z", KeySource::Column(2, "c.z".into()))])
        );
        assert_eq!(ShipStrategy::Auto.program(&plan, &cat), None);
    }
}
