//! The Filter Join: Table 1 cost formula and physical plan construction.
//!
//! Definition 2.1: *"A distinct set of values of the join attribute of A
//! is created. This set is used as a filter to restrict the tuples of B
//! that are accessed. This restricted set of B tuples is then joined
//! with the relation A."*
//!
//! One candidate is described by three choices, and Limitations 1–3
//! (§3.3) are restrictions on them: the **production set** (the whole
//! outer under Limitation 2, or a strict prefix of it in the ablation —
//! [`FilterJoinArgs::prefix_production`]), the **filter attributes**
//! (all join keys, or a subset: Limitation 3's lossy filter "by
//! omitting one of the join attributes" — [`FilterJoinSpec::filter_keys`])
//! and **exact or lossy** representation ([`FilterJoinSpec::use_bloom`]).
//! [`cost_filter_join`] prices any such description with the seven
//! components of Table 1 and [`build_filter_join_plan`] builds it:
//!
//! | component | here |
//! |---|---|
//! | `JoinCost_P` | cost of the outer DP entry |
//! | `ProductionCost_P` | min(materialize P, recompute P) |
//! | `ProjCost_F` | distinct projection of the join attributes |
//! | `AvailCost_F` | materialize F (+ ship to the inner's site) |
//! | `FilterCost_Rk` | restricted inner: parametric fit for views, semi-join formula for tables, per-value invocation for UDFs |
//! | `AvailCost_Rk'` | pipelined (0) locally, shipping for remote inners |
//! | `FinalJoinCost` | hash join of P with R'k |
//!
//! Costing is what the enumerator does thousands of times per query, so
//! it copies nothing it is handed: what depends only on the inner
//! relation is derived once ([`FilterJoinInner`]), the description is
//! borrowed ([`FilterJoinSpec`]), and the plan is built from the same
//! description only for a candidate that won.

use crate::cost::CostParams;
use crate::enumerate::EstNode;
use crate::error::OptError;
use crate::estimate::{
    base_table_stats, equi_join_rows, ColEst, EstStats, JoinTerm, PlanEstimator,
};
use crate::parametric::ParametricEstimator;
use fj_algebra::{restricted_inner, Catalog, JoinKind, RelationKind, SiteId};
use fj_exec::{lower, PhysPlan, TempStep};
use fj_expr::col;
use fj_storage::{yao_distinct, Column, DataType, Schema};
use std::fmt;
use std::sync::OnceLock;

/// The seven cost components of Table 1, in page-I/O-equivalent units.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FilterJoinCost {
    /// Cost of performing the joins required to generate production set P.
    pub join_cost_p: f64,
    /// Cost of materializing (or recomputing) production set P.
    pub production_cost_p: f64,
    /// Cost of projecting P to generate the filter set F.
    pub proj_cost_f: f64,
    /// Cost of making F available to the inner relation.
    pub avail_cost_f: f64,
    /// Cost of generating the inner restricted by F.
    pub filter_cost_rk: f64,
    /// Cost of making the restricted inner available for the final join.
    pub avail_cost_rk: f64,
    /// Cost of the final join of P with the restricted inner.
    pub final_join_cost: f64,
    /// Whether P is materialized (true) or recomputed (false).
    pub materialize_production: bool,
    /// Whether the filter set is a lossy Bloom filter.
    pub lossy: bool,
}

impl FilterJoinCost {
    /// Total cost — the sum of the seven components.
    pub fn total(&self) -> f64 {
        self.join_cost_p
            + self.production_cost_p
            + self.proj_cost_f
            + self.avail_cost_f
            + self.filter_cost_rk
            + self.avail_cost_rk
            + self.final_join_cost
    }

    /// The component values in Table 1 order, with their paper names.
    pub fn components(&self) -> [(&'static str, f64); 7] {
        [
            ("JoinCost_P", self.join_cost_p),
            ("ProductionCost_P", self.production_cost_p),
            ("ProjCost_F", self.proj_cost_f),
            ("AvailCost_F", self.avail_cost_f),
            ("FilterCost_Rk", self.filter_cost_rk),
            ("AvailCost_Rk'", self.avail_cost_rk),
            ("FinalJoinCost", self.final_join_cost),
        ]
    }
}

impl fmt::Display for FilterJoinCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, v) in self.components() {
            writeln!(f, "{name:>18}: {v:>12.2}")?;
        }
        writeln!(f, "{:>18}: {:>12.2}", "TOTAL", self.total())
    }
}

/// What costing and building a Filter Join need to know about its inner
/// relation, derived once per FROM item rather than per candidate.
#[derive(Debug, Clone)]
pub struct FilterJoinInner {
    /// Alias of the inner relation in the query.
    pub alias: String,
    /// Catalog name of the inner relation.
    pub relation: String,
    /// What the name resolves to.
    pub kind: RelationKind,
    /// `"alias."`, the qualifier stripped from inner key columns.
    qualifier: String,
    /// Statistics of the whole relation, qualified under `alias`, once
    /// a Filter Join into it has been costed: a stored table's own, or
    /// a view's from its parametric fit (a table function has none).
    unrestricted: OnceLock<EstStats>,
}

impl FilterJoinInner {
    /// Resolves `relation` and derives what depends only on it.
    pub fn new(
        catalog: &Catalog,
        relation: &str,
        alias: &str,
    ) -> Result<FilterJoinInner, OptError> {
        Ok(FilterJoinInner {
            alias: alias.to_string(),
            relation: relation.to_string(),
            kind: catalog.resolve(relation)?,
            qualifier: format!("{alias}."),
            unrestricted: OnceLock::new(),
        })
    }

    /// Site where the inner lives (LOCAL unless it is a remote table).
    pub fn site(&self) -> SiteId {
        self.kind.site()
    }

    /// `column` without the alias qualifier — the attribute's name
    /// inside the relation.
    pub fn attr<'c>(&self, column: &'c str) -> &'c str {
        column.strip_prefix(&self.qualifier).unwrap_or(column)
    }
}

/// Which Filter Join: the inner relation, the final-join keys and the
/// filter set. Borrowed by both costing and plan construction.
#[derive(Debug, Clone, Copy)]
pub struct FilterJoinSpec<'a> {
    /// The inner relation.
    pub inner: &'a FilterJoinInner,
    /// Join keys: (qualified outer column, qualified inner column).
    pub keys: &'a [(String, String)],
    /// Filter-set keys (production-side column, inner column): all of
    /// `keys`, a subset of them (Limitation 3's filter "omitting one of
    /// the join attributes"), or the keys linking a prefix production to
    /// the inner.
    pub filter_keys: &'a [(String, String)],
    /// Use a Bloom filter instead of an exact filter set (base/remote
    /// table inners only).
    pub use_bloom: bool,
}

impl FilterJoinSpec<'_> {
    /// Inner-side attribute names (unqualified) of the filter keys.
    fn inner_attrs(&self) -> Vec<&str> {
        let attrs = self.filter_keys.iter().map(|(_, i)| self.inner.attr(i));
        attrs.collect()
    }
}

/// A production set that is a *strict prefix* of the outer — Limitation
/// 1 without Limitation 2 (§3.3). The paper notes that searching these
/// "would increase the complexity of optimization by a factor of O(N)";
/// the `allow_prefix_production` knob enables them for the ablation.
pub struct PrefixProduction<'a> {
    /// The prefix plan's output statistics.
    pub stats: &'a EstStats,
    /// Cost of producing the prefix.
    pub cost: f64,
}

/// Everything the enumerator passes to cost one Filter Join candidate.
pub struct FilterJoinArgs<'a> {
    /// The catalog.
    pub catalog: &'a Catalog,
    /// Cost parameters.
    pub params: CostParams,
    /// The parametric memo (shared across the optimization).
    pub memo: &'a mut ParametricEstimator,
    /// Cost of producing the outer (production set).
    pub outer_cost: f64,
    /// Outer output statistics.
    pub outer: &'a EstStats,
    /// The candidate's description.
    pub spec: FilterJoinSpec<'a>,
    /// Produce the filter set from a strict prefix of the outer instead
    /// of the whole outer (`None` = Limitation 2 applies).
    pub prefix_production: Option<PrefixProduction<'a>>,
}

/// Rows and pages of one intermediate result, as costing priced it.
#[derive(Debug, Clone, Copy)]
pub struct Priced {
    /// Estimated rows.
    pub rows: f64,
    /// Estimated pages.
    pub pages: f64,
}

impl Priced {
    /// This estimate as the stamp of a plan node over `children`.
    fn stamp(self, children: Vec<EstNode>) -> EstNode {
        EstNode::new(self.rows, self.pages, children)
    }
}

/// The costed decision: scalars only. Costing builds no statistics;
/// `filter_join_stats` derives the output's from these for a
/// candidate that is kept, and [`build_filter_join_plan`] stamps the
/// plan with them.
#[derive(Debug, Clone, Copy)]
pub struct FilterJoinDecision {
    /// The Table 1 breakdown.
    pub cost: FilterJoinCost,
    /// The join output.
    pub output: Priced,
    /// The production set.
    pub production: Priced,
    /// The filter set.
    pub filter: Priced,
    /// The restricted inner.
    pub restricted: Priced,
    /// Bloom bits (when lossy).
    pub bloom_bits: u64,
    /// Bloom hash count (when lossy).
    pub bloom_hashes: u32,
}

/// Wire width of one filter-set tuple with `n` keys.
fn filter_wire_width(n: usize) -> f64 {
    4.0 + 12.0 * n as f64
}

/// Costs a Filter Join candidate. Returns `None` when the method is not
/// applicable (no keys; Bloom requested for a view; UDF without a
/// probeable key).
pub fn cost_filter_join(args: FilterJoinArgs<'_>) -> Result<Option<FilterJoinDecision>, OptError> {
    let FilterJoinSpec {
        inner,
        keys,
        filter_keys,
        use_bloom,
    } = args.spec;
    if keys.is_empty() || filter_keys.is_empty() {
        return Ok(None);
    }
    let params = args.params;
    let remote = inner.site() != SiteId::LOCAL;
    if use_bloom && matches!(inner.kind, RelationKind::View(_) | RelationKind::Udf(_)) {
        // Lossy filters cannot be pushed through view definitions or
        // drive UDF invocation (a Bloom filter cannot be enumerated).
        return Ok(None);
    }

    let p_rows = args.outer.rows;
    let p_pages = args.outer.pages(&params);

    // The filter set's *source*: the whole outer (Limitation 2), read
    // twice when materialized (filter projection + final join), or a
    // strict prefix of it (the ablation), which only feeds the
    // projection.
    let (src_stats, src_cost, reads) = match &args.prefix_production {
        Some(pp) => (pp.stats, pp.cost, 1.0),
        None => (args.outer, args.outer_cost, 2.0),
    };
    let src_rows = src_stats.rows;
    let src_pages = src_stats.pages(&params);

    // ---- ProductionCost_P: materialize vs recompute. The reads of the
    // materialized set are priced here; a trace books each under the
    // node that consumes it (a gap in Table 1's split, not its total:
    // DESIGN.md, "One set of charges").
    let mat_cost = params.materialize_cost(src_pages) + reads * src_pages;
    let recompute_cost = src_cost;
    let (production_cost_p, materialize_production) = if mat_cost <= recompute_cost {
        (mat_cost, true)
    } else {
        (recompute_cost, false)
    };

    // ---- ProjCost_F: distinct projection of the production key columns.
    let key_domain: f64 = filter_keys
        .iter()
        .map(|(o, _)| src_stats.distinct(o))
        .product::<f64>()
        .max(1.0);
    let f_rows = yao_distinct(src_rows.round() as u64, key_domain.round() as u64);
    let f_width = 8 + 9 * filter_keys.len();
    let f_pages = params.pages(f_rows, f_width);
    // Prices the distinct (one op per row, then its external sort); the
    // executor's projection under it charges another op per row (a gap,
    // DESIGN.md "One set of charges").
    let proj_cost_f = params.cpu(src_rows) + params.external_sort_io(f_pages);
    let (avail_cost_f, bloom_bits, bloom_hashes) = if use_bloom {
        // Fixed-size bit vector; sized (analytically — no allocation
        // during costing) for ~2% false positives.
        let (bits, hashes) = fj_storage::BloomFilter::sizing(f_rows.round() as u64 + 1, 0.02);
        let bytes = bits / 8;
        let ship = if remote {
            params.network.per_message + params.network.per_byte * bytes as f64
        } else {
            0.0
        };
        // Building scans F in the pipeline (cpu); the filter itself
        // occupies negligible local pages.
        (params.cpu(f_rows) + ship, bits, hashes)
    } else {
        let ship = if remote {
            params.ship_cost(f_rows, filter_wire_width(filter_keys.len()))
        } else {
            0.0
        };
        (params.materialize_cost(f_pages) + f_pages + ship, 0, 0)
    };

    // ---- FilterCost_Rk: cost, cardinality and width of the restricted
    // inner, and the whole relation's statistics its columns come from.
    let (filter_cost_rk, restricted_rows, restricted_width, rk_wire_width, whole) =
        match &inner.kind {
            RelationKind::View(_) => {
                let fit = args.memo.fit(
                    args.catalog,
                    params,
                    &inner.relation,
                    &args.spec.inner_attrs(),
                )?;
                let s = fit.selectivity_of(f_rows);
                let whole = inner
                    .unrestricted
                    .get_or_init(|| fit.unrestricted.clone().requalify(&inner.alias));
                let width = whole.width;
                let wire = width as f64 + 4.0;
                (fit.cost(s), fit.cardinality(s), width, wire, Some(whole))
            }
            RelationKind::Base(t) | RelationKind::Remote(t, _) => {
                let whole = inner
                    .unrestricted
                    .get_or_init(|| base_table_stats(t, &inner.alias));
                let d: f64 = filter_keys
                    .iter()
                    .map(|(_, i)| whole.distinct(i))
                    .product::<f64>()
                    .max(1.0);
                let mut frac = (f_rows / d).min(1.0);
                if use_bloom {
                    // False positives let extra tuples through.
                    let fp = 0.02;
                    frac = (frac + fp * (1.0 - frac)).min(1.0);
                }
                // The scan, and `|R| + |F|` ops. Two gaps (DESIGN.md, "One
                // set of charges"): the exact semi-join also charges an op
                // per output row (and a Grace pass when F exceeds M), and
                // a Bloom probe charges only `|R|`, the `|F|` being the
                // build's, already in AvailCost_F.
                let cost = whole.pages(&params) + params.cpu(whole.rows + f_rows);
                let rows = (whole.rows * frac).max(0.0);
                let wire = t.schema().row_width() as f64 + 4.0;
                (cost, rows, whole.width, wire, Some(whole))
            }
            RelationKind::Udf(u) => {
                // A filter set can drive invocation only when it covers
                // every argument column of the function.
                let schema = u.schema();
                let inner_attrs = args.spec.inner_attrs();
                let covered = (0..u.arg_count()).all(|i| {
                    let arg = schema.column(i).base_name();
                    inner_attrs.contains(&arg)
                });
                if !covered {
                    return Ok(None);
                }
                let cost = f_rows * u.invocation_cost();
                let rows = f_rows * u.rows_per_call();
                let width = schema.row_width();
                let wire = width as f64 + 4.0;
                (cost, rows, width + 8 + 9 * filter_keys.len(), wire, None)
            }
        };
    let rk_pages = params.pages(restricted_rows, restricted_width);

    // ---- AvailCost_Rk': pipelined locally; shipped home when remote.
    let avail_cost_rk = if remote {
        params.ship_cost(restricted_rows, rk_wire_width)
    } else {
        0.0
    };

    // ---- FinalJoinCost: hash join of P (probe) with R'k (build). Its
    // cardinality is that of [`filter_join_stats`]'s output, from the
    // same distinct counts: the filtered keys keep at most f values.
    let restricted_distinct = |column: &str| {
        let known = whole.and_then(|w| w.cols.get(column)).map(|ce| {
            let filtered = filter_keys.iter().any(|(_, i)| i == column);
            if filtered {
                ce.distinct.min(f_rows.max(1.0))
            } else {
                ce.distinct
            }
        });
        known.unwrap_or(restricted_rows).max(1.0)
    };
    let key_distincts = keys
        .iter()
        .map(|(o, i)| (args.outer.distinct(o), restricted_distinct(i)));
    let rows = equi_join_rows(p_rows, restricted_rows, key_distincts);
    let final_join_cost = params.hash_join_cost(p_rows, p_pages, restricted_rows, rk_pages, rows);
    let output_width = args.outer.width + restricted_width.saturating_sub(8);

    let cost = FilterJoinCost {
        join_cost_p: args.outer_cost,
        production_cost_p,
        proj_cost_f,
        avail_cost_f,
        filter_cost_rk,
        avail_cost_rk,
        final_join_cost,
        materialize_production,
        lossy: use_bloom,
    };

    Ok(Some(FilterJoinDecision {
        cost,
        output: Priced {
            rows,
            pages: params.pages(rows, output_width),
        },
        production: Priced {
            rows: src_rows,
            pages: src_pages,
        },
        filter: Priced {
            rows: f_rows,
            pages: f_pages,
        },
        restricted: Priced {
            rows: restricted_rows,
            pages: rk_pages,
        },
        bloom_bits,
        bloom_hashes,
    }))
}

/// Statistics of the output of the Filter Join `decision` describes,
/// `decision` being what [`cost_filter_join`] returned for `spec` over
/// `outer`. Costing needs only cardinalities; this is for the
/// candidate that is kept.
pub(crate) fn filter_join_stats(
    estimator: &PlanEstimator<'_>,
    outer: &EstStats,
    spec: FilterJoinSpec<'_>,
    decision: &FilterJoinDecision,
) -> EstStats {
    let inner = spec.inner;
    let mut restricted = match &inner.kind {
        RelationKind::Udf(u) => {
            let schema = u.schema();
            let distinct = decision.restricted.rows.max(1.0);
            let cols = schema.columns().iter().map(|c| {
                let ce = ColEst {
                    distinct,
                    ..ColEst::default()
                };
                (c.name.as_str(), ce)
            });
            EstStats {
                rows: decision.restricted.rows,
                width: schema.row_width() + 8 + 9 * spec.filter_keys.len(),
                cols: cols.collect(),
            }
            .requalify(&inner.alias)
        }
        _ => {
            // The filtered keys keep at most f distinct values.
            let whole = inner.unrestricted.get().expect("set when it was costed");
            let mut stats = whole.clone();
            let cap = decision.filter.rows.max(1.0);
            for (_, i) in spec.filter_keys {
                // Looked up shared first: writing is what copies.
                if stats.cols.get(i).is_some_and(|ce| ce.distinct > cap) {
                    stats.cols.get_mut(i).expect("just found").distinct = cap;
                }
            }
            stats
        }
    };
    restricted.rows = decision.restricted.rows;
    let keys = spec.keys.iter().map(|(o, i)| JoinTerm::Key(o, i));
    let output = estimator.join_stats_terms(outer, &restricted, keys, JoinKind::Inner);
    debug_assert_eq!(output.rows.to_bits(), decision.output.rows.to_bits());
    output
}

/// Builds the physical plan for a costed Filter Join, with its stamps.
///
/// Shape (exact filter, materialized production, local inner):
///
/// ```text
/// WithTemp
///   Materialize __partial<sfx>: <outer plan>
///   Materialize __filter<sfx>:  Distinct(Project(TempScan __partial))
///   Body: HashJoin(TempScan __partial, <restricted inner>)
/// ```
///
/// Remote inners wrap the filter producer and the restricted inner in
/// `Ship` nodes (the SDD-1 semi-join of §5.1); Bloom variants replace
/// the filter materialization with a `BuildBloom` step and the semi-join
/// with a `BloomProbe`. `spec` is the description `decision` was costed
/// for; `production` is the production-set plan when it was costed
/// with a prefix production (`None` keeps Limitation 2: production =
/// the outer itself). The plans are taken by value: only a recomputed
/// whole-outer production is read twice and so copied.
///
/// Each plan comes with its stamp tree ([`EstNode`]), and so does the
/// result: the nodes built here carry what `decision` priced — the
/// production set's scan and key projection its rows, the filter set
/// its own, the node producing the restricted inner (and what ships
/// it) the restricted cardinality, a stored inner's scan the table's
/// statistics, and the join and `WithTemp` the output. A view's body
/// carries none.
pub fn build_filter_join_plan(
    catalog: &Catalog,
    params: &CostParams,
    outer: (PhysPlan, EstNode),
    production: Option<(PhysPlan, EstNode)>,
    spec: FilterJoinSpec<'_>,
    decision: &FilterJoinDecision,
    suffix: &str,
) -> Result<(PhysPlan, EstNode), OptError> {
    let FilterJoinSpec {
        inner,
        keys,
        filter_keys,
        ..
    } = spec;
    let d = decision;
    let partial_name = format!("__partial{suffix}");
    let filter_name = format!("__filter{suffix}");
    let inner_site = inner.site();
    let remote = inner_site != SiteId::LOCAL;

    // The production set is materialized once and scanned, or
    // recomputed where it is read. With a prefix production the final
    // join still consumes the *full* outer, pipelined; only the prefix
    // is materialized. `stamps` follows `steps`.
    let mut steps = Vec::new();
    let mut stamps = Vec::new();
    let scan_partial = || {
        let scan = PhysPlan::TempScan {
            name: partial_name.clone(),
            alias: String::new(),
        };
        (scan, d.production.stamp(Vec::new()))
    };
    let (outer_for_body, filter_src) = match (d.cost.materialize_production, production) {
        (true, Some((prefix, prefix_est))) => {
            steps.push(TempStep::Materialize {
                name: partial_name.clone(),
                plan: prefix,
            });
            stamps.push(prefix_est);
            (outer, scan_partial())
        }
        (true, None) => {
            steps.push(TempStep::Materialize {
                name: partial_name.clone(),
                plan: outer.0,
            });
            stamps.push(outer.1);
            (scan_partial(), scan_partial())
        }
        (false, Some(prefix)) => (outer, prefix),
        (false, None) => (outer.clone(), outer),
    };

    // Distinct projection of the production key columns as k0, k1, ...
    let filter_plan = PhysPlan::Distinct {
        input: PhysPlan::Project {
            input: filter_src.0.boxed(),
            exprs: filter_keys
                .iter()
                .enumerate()
                .map(|(i, (o, _))| (col(o.clone()), format!("k{i}")))
                .collect(),
        }
        .boxed(),
    };
    let filter_est = d.filter.stamp(vec![d.production.stamp(vec![filter_src.1])]);

    let inner_attrs: Vec<String> = spec.inner_attrs().into_iter().map(String::from).collect();
    // A stored inner's scan, stamped with the table's statistics.
    let scan_inner = || {
        let scan = PhysPlan::SeqScan {
            table: inner.relation.clone(),
            alias: inner.alias.clone(),
        };
        let table = inner.unrestricted.get().expect("set when it was costed");
        let est = EstNode::new(table.rows, table.pages(params), Vec::new());
        (scan.boxed(), est)
    };
    let scan_filter = |name: String| PhysPlan::TempScan {
        name,
        alias: "__F".into(),
    };

    let (mut restricted_phys, mut restricted_est) = if d.cost.lossy {
        // Bloom build (with shipping charge when remote), then a probe
        // over the inner scan at the inner's site.
        steps.push(TempStep::BuildBloom {
            name: filter_name.clone(),
            plan: filter_plan,
            key_cols: (0..filter_keys.len()).map(|i| format!("k{i}")).collect(),
            bits: d.bloom_bits.max(64),
            hashes: d.bloom_hashes.max(2),
            ship: remote.then_some((SiteId::LOCAL, inner_site)),
        });
        stamps.push(filter_est);
        let (scan, scan_est) = scan_inner();
        let probe = PhysPlan::BloomProbe {
            input: scan,
            bloom: filter_name,
            key_cols: keys.iter().map(|(_, i)| i.clone()).collect(),
        };
        (probe, d.restricted.stamp(vec![scan_est]))
    } else {
        // Exact filter set: materialize (shipping it to the inner's site
        // when remote), then the restricted inner.
        let (filter_step_plan, filter_est) = if remote {
            let ship = PhysPlan::Ship {
                input: filter_plan.boxed(),
                from: SiteId::LOCAL,
                to: inner_site,
            };
            (ship, d.filter.stamp(vec![filter_est]))
        } else {
            (filter_plan, filter_est)
        };
        steps.push(TempStep::Materialize {
            name: filter_name.clone(),
            plan: filter_step_plan,
        });
        stamps.push(filter_est);

        let filter_schema = Schema::new(
            (0..filter_keys.len())
                .map(|i| Column::new(format!("k{i}"), DataType::Int))
                .collect(),
        )?
        .into_ref();
        match &inner.kind {
            RelationKind::View(_) => {
                let restricted_logical = restricted_inner(
                    catalog,
                    &inner.relation,
                    &inner_attrs,
                    &filter_name,
                    &filter_schema,
                )?;
                let lowered = lower::lower(&restricted_logical, catalog)?;
                // View bodies produce unqualified names; requalify under
                // the inner alias for the final join predicate.
                let view = catalog.view(&inner.relation)?;
                let requalify = PhysPlan::Project {
                    input: lowered.boxed(),
                    exprs: view
                        .schema
                        .columns()
                        .iter()
                        .map(|c| {
                            (
                                col(c.name.clone()),
                                format!("{}.{}", inner.alias, c.base_name()),
                            )
                        })
                        .collect(),
                };
                (requalify, d.restricted.stamp(Vec::new()))
            }
            // UDF inners: the filter set drives *consecutive procedure
            // calls* (§5.2) — one invocation per distinct filter value.
            // The probe output (filter cols ++ UDF cols) is projected
            // down to the UDF columns so the final join schema matches.
            RelationKind::Udf(u) => {
                let schema = u.schema();
                let arg_cols: Vec<String> = (0..u.arg_count())
                    .map(|i| {
                        let arg = schema.column(i).base_name().to_string();
                        let ki = inner_attrs
                            .iter()
                            .position(|a| *a == arg)
                            .expect("costing checked coverage");
                        format!("__F.k{ki}")
                    })
                    .collect();
                let probe = PhysPlan::UdfProbe {
                    outer: scan_filter(filter_name).boxed(),
                    udf: inner.relation.clone(),
                    alias: inner.alias.clone(),
                    arg_cols,
                };
                let project = PhysPlan::Project {
                    input: probe.boxed(),
                    exprs: schema
                        .columns()
                        .iter()
                        .map(|c| {
                            let q = format!("{}.{}", inner.alias, c.base_name());
                            (col(q.clone()), q)
                        })
                        .collect(),
                };
                let probe_est = d.restricted.stamp(vec![d.filter.stamp(Vec::new())]);
                (project, d.restricted.stamp(vec![probe_est]))
            }
            // Base / remote inners: semi-join the scan directly. Built
            // by hand (not via `lower`) so a *remote* inner's scan is
            // not auto-shipped home — the semi-join runs at the inner's
            // site and only its result ships back (the SDD-1 semi-join
            // discipline).
            _ => {
                let (scan, scan_est) = scan_inner();
                let semi = PhysPlan::HashJoin {
                    outer: scan,
                    inner: scan_filter(filter_name).boxed(),
                    keys: filter_keys
                        .iter()
                        .enumerate()
                        .map(|(i, (_, inner))| (inner.clone(), format!("__F.k{i}")))
                        .collect(),
                    residual: None,
                    kind: JoinKind::Semi,
                };
                let filter_est = d.filter.stamp(Vec::new());
                (semi, d.restricted.stamp(vec![scan_est, filter_est]))
            }
        }
    };
    if remote {
        restricted_phys = PhysPlan::Ship {
            input: restricted_phys.boxed(),
            from: inner_site,
            to: SiteId::LOCAL,
        };
        restricted_est = d.restricted.stamp(vec![restricted_est]);
    }

    let body = PhysPlan::HashJoin {
        outer: outer_for_body.0.boxed(),
        inner: restricted_phys.boxed(),
        keys: keys.to_vec(),
        residual: None,
        kind: JoinKind::Inner,
    };
    stamps.push(d.output.stamp(vec![outer_for_body.1, restricted_est]));

    let plan = PhysPlan::WithTemp {
        steps,
        body: body.boxed(),
    };
    Ok((plan, d.output.stamp(stamps)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_algebra::fixtures::paper_catalog;
    use fj_algebra::LogicalPlan;
    use fj_exec::ExecCtx;
    use fj_expr::lit;
    use fj_storage::tuple;
    use std::sync::Arc;

    /// Outer = young employees joined with big departments (the paper's
    /// PartialResult), built as a physical plan.
    fn outer_phys() -> PhysPlan {
        PhysPlan::HashJoin {
            outer: PhysPlan::Filter {
                input: PhysPlan::SeqScan {
                    table: "Emp".into(),
                    alias: "E".into(),
                }
                .boxed(),
                predicate: col("E.age").lt(lit(30)),
            }
            .boxed(),
            inner: PhysPlan::Filter {
                input: PhysPlan::SeqScan {
                    table: "Dept".into(),
                    alias: "D".into(),
                }
                .boxed(),
                predicate: col("D.budget").gt(lit(100_000)),
            }
            .boxed(),
            keys: vec![("E.did".into(), "D.did".into())],
            residual: None,
            kind: JoinKind::Inner,
        }
    }

    fn outer_stats(catalog: &Catalog) -> (f64, EstStats) {
        let est = PlanEstimator::new(catalog, CostParams::default());
        let plan = LogicalPlan::scan("Emp", "E")
            .select(col("E.age").lt(lit(30)))
            .join(
                LogicalPlan::scan("Dept", "D").select(col("D.budget").gt(lit(100_000))),
                Some(col("E.did").eq(col("D.did"))),
            );
        est.cost(&plan).unwrap()
    }

    fn keys() -> Vec<(String, String)> {
        vec![("E.did".to_string(), "V.did".to_string())]
    }

    /// Costs `spec` over the outer `(cost, stats)`, whole-outer production.
    fn cost(
        cat: &Catalog,
        params: CostParams,
        memo: &mut ParametricEstimator,
        (outer_cost, outer): (f64, &EstStats),
        spec: FilterJoinSpec<'_>,
    ) -> Option<FilterJoinDecision> {
        cost_filter_join(FilterJoinArgs {
            catalog: cat,
            params,
            memo,
            outer_cost,
            outer,
            spec,
            prefix_production: None,
        })
        .unwrap()
    }

    /// Builds the Filter Join `d` was costed for over `outer`, whose
    /// stamp is a placeholder.
    fn build(
        cat: &Catalog,
        outer: PhysPlan,
        spec: FilterJoinSpec<'_>,
        d: &FilterJoinDecision,
        suffix: &str,
    ) -> PhysPlan {
        let outer = (outer, EstNode::new(0.0, 0.0, Vec::new()));
        let params = CostParams::default();
        let built = build_filter_join_plan(cat, &params, outer, None, spec, d, suffix);
        built.unwrap().0
    }

    #[test]
    fn costs_are_positive_and_sum() {
        let cat = paper_catalog();
        let mut memo = ParametricEstimator::new(4);
        let (ocost, ostats) = outer_stats(&cat);
        let inner = FilterJoinInner::new(&cat, "DepAvgSal", "V").unwrap();
        let spec = FilterJoinSpec {
            inner: &inner,
            keys: &keys(),
            filter_keys: &keys(),
            use_bloom: false,
        };
        let d = cost(
            &cat,
            CostParams::default(),
            &mut memo,
            (ocost, &ostats),
            spec,
        )
        .expect("applicable");
        let c = d.cost;
        assert!(c.total() > 0.0);
        let sum: f64 = c.components().iter().map(|(_, v)| v).sum();
        assert!((sum - c.total()).abs() < 1e-9);
        for (name, v) in c.components() {
            assert!(v >= 0.0, "{name} negative: {v}");
        }
    }

    #[test]
    fn no_keys_not_applicable() {
        let cat = paper_catalog();
        let mut memo = ParametricEstimator::new(4);
        let (ocost, ostats) = outer_stats(&cat);
        let inner = FilterJoinInner::new(&cat, "DepAvgSal", "V").unwrap();
        let spec = FilterJoinSpec {
            inner: &inner,
            keys: &[],
            filter_keys: &[],
            use_bloom: false,
        };
        let d = cost(
            &cat,
            CostParams::default(),
            &mut memo,
            (ocost, &ostats),
            spec,
        );
        assert!(d.is_none());
    }

    #[test]
    fn bloom_on_view_not_applicable() {
        let cat = paper_catalog();
        let mut memo = ParametricEstimator::new(4);
        let (ocost, ostats) = outer_stats(&cat);
        let inner = FilterJoinInner::new(&cat, "DepAvgSal", "V").unwrap();
        let spec = FilterJoinSpec {
            inner: &inner,
            keys: &keys(),
            filter_keys: &keys(),
            use_bloom: true,
        };
        let d = cost(
            &cat,
            CostParams::default(),
            &mut memo,
            (ocost, &ostats),
            spec,
        );
        assert!(d.is_none());
    }

    #[test]
    fn built_plan_executes_and_matches_semantics() {
        let cat = paper_catalog();
        let mut memo = ParametricEstimator::new(4);
        let (ocost, ostats) = outer_stats(&cat);
        let inner = FilterJoinInner::new(&cat, "DepAvgSal", "V").unwrap();
        let spec = FilterJoinSpec {
            inner: &inner,
            keys: &keys(),
            filter_keys: &keys(),
            use_bloom: false,
        };
        let d = cost(
            &cat,
            CostParams::default(),
            &mut memo,
            (ocost, &ostats),
            spec,
        )
        .unwrap();
        let plan = build(&cat, outer_phys(), spec, &d, "_t");
        let ctx = ExecCtx::new(Arc::new(cat.clone()));
        let rel = plan.execute(&ctx).unwrap();
        // Join output: (E ⨝ D filtered) ⨝ V — 3 young employees in big
        // depts (1, 4, 5) joined with their dept averages.
        assert_eq!(rel.rows.len(), 3);
        assert!(rel.schema.contains("V.avgsal"));
        // Apply the remaining conjunct E.sal > V.avgsal manually to reach
        // the final answer.
        let filtered =
            fj_exec::ops::filter::filter(&ctx, rel, &col("E.sal").gt(col("V.avgsal"))).unwrap();
        assert_eq!(filtered.rows.len(), 2);
    }

    #[test]
    fn filter_join_on_base_table_inner() {
        let cat = paper_catalog();
        let mut memo = ParametricEstimator::new(4);
        let est = PlanEstimator::new(&cat, CostParams::default());
        let eplan = LogicalPlan::scan("Emp", "E").select(col("E.age").lt(lit(30)));
        let (ocost, ostats) = est.cost(&eplan).unwrap();
        let keys = vec![("E.did".to_string(), "D.did".to_string())];
        let inner = FilterJoinInner::new(&cat, "Dept", "D").unwrap();
        let spec = FilterJoinSpec {
            inner: &inner,
            keys: &keys,
            filter_keys: &keys,
            use_bloom: false,
        };
        let d = cost(
            &cat,
            CostParams::default(),
            &mut memo,
            (ocost, &ostats),
            spec,
        )
        .unwrap();
        let outer = PhysPlan::Filter {
            input: PhysPlan::SeqScan {
                table: "Emp".into(),
                alias: "E".into(),
            }
            .boxed(),
            predicate: col("E.age").lt(lit(30)),
        };
        let plan = build(&cat, outer, spec, &d, "_b");
        let ctx = ExecCtx::new(Arc::new(cat.clone()));
        let rel = plan.execute(&ctx).unwrap();
        // Young employees (1,3,4,5) each joined with their department.
        assert_eq!(rel.rows.len(), 4);
    }

    #[test]
    fn bloom_filter_join_on_base_table() {
        let cat = paper_catalog();
        let mut memo = ParametricEstimator::new(4);
        let est = PlanEstimator::new(&cat, CostParams::default());
        let eplan = LogicalPlan::scan("Emp", "E").select(col("E.age").lt(lit(30)));
        let (ocost, ostats) = est.cost(&eplan).unwrap();
        let keys = vec![("E.did".to_string(), "D.did".to_string())];
        let inner = FilterJoinInner::new(&cat, "Dept", "D").unwrap();
        let spec = FilterJoinSpec {
            inner: &inner,
            keys: &keys,
            filter_keys: &keys,
            use_bloom: true,
        };
        let d = cost(
            &cat,
            CostParams::default(),
            &mut memo,
            (ocost, &ostats),
            spec,
        )
        .unwrap();
        assert!(d.cost.lossy);
        let outer = PhysPlan::Filter {
            input: PhysPlan::SeqScan {
                table: "Emp".into(),
                alias: "E".into(),
            }
            .boxed(),
            predicate: col("E.age").lt(lit(30)),
        };
        let plan = build(&cat, outer, spec, &d, "_bl");
        let ctx = ExecCtx::new(Arc::new(cat.clone()));
        let rel = plan.execute(&ctx).unwrap();
        // No false negatives: all 4 young-employee joins survive.
        assert!(rel.rows.len() >= 4);
        assert!(rel.rows.iter().any(|t| t.values().contains(&10.into())));
    }

    #[test]
    fn attribute_subset_filter_join_is_correct() {
        // Two join attributes; the filter projects only the first —
        // Limitation 3's lossy-by-omission variant. The final join
        // still enforces both keys, so the answer is exact.
        let mut cat = Catalog::new();
        cat.add_table(
            fj_storage::TableBuilder::new("L")
                .column("a", fj_storage::DataType::Int)
                .column("b", fj_storage::DataType::Int)
                .rows((0..50i64).map(|i| vec![(i % 5).into(), (i % 3).into()]))
                .build()
                .unwrap()
                .into_ref(),
        );
        cat.add_table(
            fj_storage::TableBuilder::new("R")
                .column("a", fj_storage::DataType::Int)
                .column("b", fj_storage::DataType::Int)
                .rows((0..60i64).map(|i| vec![(i % 10).into(), (i % 3).into()]))
                .build()
                .unwrap()
                .into_ref(),
        );
        let keys = vec![
            ("l.a".to_string(), "r.a".to_string()),
            ("l.b".to_string(), "r.b".to_string()),
        ];
        let subset = vec![("l.a".to_string(), "r.a".to_string())];
        let est = PlanEstimator::new(&cat, CostParams::default());
        let (ocost, ostats) = est.cost(&LogicalPlan::scan("L", "l")).unwrap();
        let mut memo = ParametricEstimator::new(4);
        let inner = FilterJoinInner::new(&cat, "R", "r").unwrap();
        let spec = FilterJoinSpec {
            inner: &inner,
            keys: &keys,
            filter_keys: &subset,
            use_bloom: false,
        };
        let d = cost(
            &cat,
            CostParams::default(),
            &mut memo,
            (ocost, &ostats),
            spec,
        )
        .unwrap();
        let outer = PhysPlan::SeqScan {
            table: "L".into(),
            alias: "l".into(),
        };
        let plan = build(&cat, outer, spec, &d, "_ss");
        let ctx = ExecCtx::new(Arc::new(cat.clone()));
        let rel = plan.execute(&ctx).unwrap();
        // Reference: count matches on (a, b).
        let lrows = cat.table("L").unwrap().rows().to_vec();
        let rrows = cat.table("R").unwrap().rows().to_vec();
        let expected: usize = lrows
            .iter()
            .map(|l| {
                rrows
                    .iter()
                    .filter(|r| l.value(0) == r.value(0) && l.value(1) == r.value(1))
                    .count()
            })
            .sum();
        assert_eq!(rel.rows.len(), expected);
    }

    #[test]
    fn remote_inner_ships_filter_and_result() {
        let mut cat = paper_catalog();
        let dept = cat.table("Dept").unwrap();
        cat.add_remote_table(dept, SiteId(3));
        cat.set_network(fj_algebra::NetworkModel::lan());
        let mut memo = ParametricEstimator::new(4);
        let params = CostParams {
            network: fj_algebra::NetworkModel::lan(),
            ..CostParams::default()
        };
        let est = PlanEstimator::new(&cat, params);
        let eplan = LogicalPlan::scan("Emp", "E");
        let (ocost, ostats) = est.cost(&eplan).unwrap();
        let keys = vec![("E.did".to_string(), "D.did".to_string())];
        let inner = FilterJoinInner::new(&cat, "Dept", "D").unwrap();
        let spec = FilterJoinSpec {
            inner: &inner,
            keys: &keys,
            filter_keys: &keys,
            use_bloom: false,
        };
        let d = cost(&cat, params, &mut memo, (ocost, &ostats), spec).unwrap();
        assert!(d.cost.avail_cost_f > 0.0, "filter shipping costed");
        assert!(
            d.cost.avail_cost_rk > 0.0,
            "restricted inner shipping costed"
        );
        let outer = PhysPlan::SeqScan {
            table: "Emp".into(),
            alias: "E".into(),
        };
        let plan = build(&cat, outer, spec, &d, "_r");
        let ctx = ExecCtx::new(Arc::new(cat.clone()));
        let rel = plan.execute(&ctx).unwrap();
        assert_eq!(rel.rows.len(), 5, "every employee matches a department");
        let s = ctx.ledger.snapshot();
        assert_eq!(s.messages, 2, "filter out + restricted back");
        assert!(s.bytes_shipped > 0);
        let _ = tuple![0]; // keep the macro import used
    }
}
