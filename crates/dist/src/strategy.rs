//! The shipping-strategy menu for partitioned execution, with the
//! predicted network cost of each — the same per-message/per-byte
//! weighting `NetworkModel` gives the paper's §5.1 two-site model, lifted
//! to N hash partitions.
//!
//! Predictions deliberately mirror the optimizer's assumptions (uniform
//! keys, containment of join values) rather than the network's ground
//! truth; the `dist` reproduce experiment reconciles them against the
//! bytes actually measured on the wire.

use crate::plan::DistPlan;
use fj_algebra::Catalog;
use fj_storage::BloomFilter;

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
    /// only): an up sweep of key sets, then a down sweep, so every
    /// gathered row is guaranteed to contribute to the result.
    FullReducer,
    /// Pick the cheapest applicable strategy by predicted network cost.
    Auto,
}

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
struct AliasFacts {
    bytes: f64,
    /// Distinct count per base column (containment assumption input).
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

/// Predicts every applicable strategy for `plan`, cheapest first.
/// `FullReducer` is omitted for cyclic join graphs and edge-less
/// queries; the driver-based strategies degrade to ship-whole per
/// unreachable alias exactly as the executor does.
pub fn predict_all(
    plan: &DistPlan,
    catalog: &Catalog,
    shards: u32,
    bloom_fp: f64,
) -> Vec<CostPrediction> {
    let f = facts(plan, catalog);
    // A catalog defaults to the free network of the purely-local
    // setting, but shipping over real shards is never free: weight by
    // LAN unless an explicit model says otherwise.
    let mut net = catalog.network();
    if net.per_message == 0.0 && net.per_byte == 0.0 {
        net = fj_algebra::NetworkModel::lan();
    }
    let s = shards as f64;
    let driver = plan.driver(catalog);
    let order = plan.reduction_order(driver);

    let mut out: Vec<CostPrediction> = Vec::new();
    for strategy in ShipStrategy::ALL {
        if strategy == ShipStrategy::FullReducer && (!plan.is_acyclic() || plan.edges.is_empty()) {
            continue;
        }
        let mut messages = 0.0;
        let mut bytes = 0.0;
        match strategy {
            ShipStrategy::ShipWhole => {
                for facts in &f {
                    messages += s;
                    bytes += facts.bytes;
                }
            }
            ShipStrategy::FetchMatches | ShipStrategy::Semijoin | ShipStrategy::BloomSemijoin => {
                // Driver ships whole; every reachable alias is reduced
                // through its first incoming edge under the containment
                // assumption: the fraction of B's join values matched
                // is min(1, d_driverside / d_B).
                messages += s;
                bytes += f[driver].bytes;
                for (v, edges) in &order[1..] {
                    let fv = &f[*v];
                    let Some(edge) = edges.first() else {
                        messages += s;
                        bytes += fv.bytes;
                        continue;
                    };
                    let from = edge.other(*v);
                    let (from_col, to_col) = edge.keys_from(from)[0];
                    let from_info = &plan.aliases[from];
                    let to_info = &plan.aliases[*v];
                    let d_from = from_info
                        .col_index(from_col)
                        .ok()
                        .and_then(|i| f[from].distinct.get(i).copied())
                        .unwrap_or(1.0);
                    let to_idx = to_info.col_index(to_col).ok();
                    let d_to = to_idx
                        .and_then(|i| fv.distinct.get(i).copied())
                        .unwrap_or(1.0);
                    let key_w = from_info
                        .col_index(from_col)
                        .ok()
                        .and_then(|i| f[from].col_width.get(i).copied())
                        .unwrap_or(9.0);
                    let sel = (d_from / d_to).min(1.0);
                    let survivor_bytes = sel * fv.bytes;
                    match strategy {
                        ShipStrategy::FetchMatches => {
                            // One keyed fragment per distinct driver
                            // key, routed to one shard when the table
                            // is partitioned on the join column.
                            let routed = to_idx == Some(to_info.map.column);
                            let targets = if routed { 1.0 } else { s };
                            messages += d_from * targets;
                            bytes += d_from * targets * key_w + survivor_bytes;
                        }
                        ShipStrategy::Semijoin => {
                            messages += s;
                            bytes += s * d_from * key_w + survivor_bytes;
                        }
                        ShipStrategy::BloomSemijoin => {
                            let (n_bits, _) = BloomFilter::sizing(d_from as u64, bloom_fp);
                            let filter_bytes = (n_bits / 8) as f64;
                            messages += s;
                            bytes += s * filter_bytes + (sel + bloom_fp * (1.0 - sel)) * fv.bytes;
                        }
                        _ => unreachable!(),
                    }
                }
            }
            ShipStrategy::FullReducer => {
                // Two semijoin sweeps per edge (keys up, keys down),
                // then only contributing rows ship. "Contributing" is
                // approximated by the tightest pairwise containment
                // selectivity seen on any incident edge.
                for edge in &plan.edges {
                    for (a_col, b_col) in &edge.keys {
                        let da = plan.aliases[edge.a]
                            .col_index(a_col)
                            .ok()
                            .and_then(|i| f[edge.a].distinct.get(i).copied())
                            .unwrap_or(1.0);
                        let db = plan.aliases[edge.b]
                            .col_index(b_col)
                            .ok()
                            .and_then(|i| f[edge.b].distinct.get(i).copied())
                            .unwrap_or(1.0);
                        let key_w = 9.0;
                        messages += 2.0 * s;
                        bytes += s * (da.min(db)) * key_w * 2.0;
                    }
                }
                for (v, facts) in f.iter().enumerate() {
                    let sel = plan
                        .edges_of(v)
                        .filter_map(|e| {
                            let (my_col, other_col) = e.keys_from(v)[0];
                            let o = e.other(v);
                            let dm = plan.aliases[v]
                                .col_index(my_col)
                                .ok()
                                .and_then(|i| f[v].distinct.get(i).copied())?;
                            let d_o = plan.aliases[o]
                                .col_index(other_col)
                                .ok()
                                .and_then(|i| f[o].distinct.get(i).copied())?;
                            Some((d_o / dm).min(1.0))
                        })
                        .fold(1.0f64, f64::min);
                    messages += s;
                    bytes += sel * facts.bytes;
                }
            }
            ShipStrategy::Auto => unreachable!(),
        }
        out.push(CostPrediction {
            strategy,
            messages,
            bytes,
            cost: messages * net.per_message + bytes * net.per_byte,
        });
    }
    out.sort_by(|a, b| {
        a.cost
            .partial_cmp(&b.cost)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    out
}
