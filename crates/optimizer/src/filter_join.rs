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
//! omitting one of the join attributes" — [`FilterJoinArgs::filter_keys`])
//! and **exact or lossy** representation ([`FilterJoinArgs::use_bloom`]).
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

use crate::cost::CostParams;
use crate::error::OptError;
use crate::estimate::{base_table_stats, ColEst, EstStats, PlanEstimator};
use crate::parametric::ParametricEstimator;
use fj_algebra::{magic, Catalog, JoinKind, RelationKind, SiteId};
use fj_exec::{lower, PhysPlan, TempStep};
use fj_expr::col;
use fj_storage::{yao_distinct, Column, DataType, Schema};
use std::fmt;

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
    /// Join keys: (qualified outer column, qualified inner column).
    pub keys: &'a [(String, String)],
    /// Alias of the inner relation in the query.
    pub inner_alias: &'a str,
    /// Catalog name of the inner relation.
    pub inner_relation: &'a str,
    /// Filter-set keys (production-side column, inner column): all of
    /// `keys`, a subset of them (Limitation 3's filter "omitting one of
    /// the join attributes"), or the keys linking a prefix production to
    /// the inner.
    pub filter_keys: &'a [(String, String)],
    /// Use a Bloom filter instead of an exact filter set (base/remote
    /// table inners only).
    pub use_bloom: bool,
    /// Produce the filter set from a strict prefix of the outer instead
    /// of the whole outer (`None` = Limitation 2 applies).
    pub prefix_production: Option<PrefixProduction<'a>>,
}

/// The costed decision, carrying what the plan builder needs.
#[derive(Debug, Clone)]
pub struct FilterJoinDecision {
    /// The Table 1 breakdown.
    pub cost: FilterJoinCost,
    /// Estimated statistics of the restricted inner (qualified under the
    /// inner alias).
    pub restricted: EstStats,
    /// Estimated statistics of the join output.
    pub output: EstStats,
    /// Final-join keys (outer qualified, inner qualified).
    pub keys: Vec<(String, String)>,
    /// Filter-set keys (production-side column, inner column).
    pub filter_keys: Vec<(String, String)>,
    /// Inner alias.
    pub inner_alias: String,
    /// Inner catalog name.
    pub inner_relation: String,
    /// Inner site (LOCAL unless the inner is a remote table).
    pub inner_site: SiteId,
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
    let filter_keys = args.filter_keys;
    if args.keys.is_empty() || filter_keys.is_empty() {
        return Ok(None);
    }
    let params = args.params;
    let kind = args.catalog.resolve(args.inner_relation)?;
    let inner_site = kind.site();
    let remote = inner_site != SiteId::LOCAL;
    if args.use_bloom && matches!(kind, RelationKind::View(_) | RelationKind::Udf(_)) {
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

    // ---- ProductionCost_P: materialize vs recompute.
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
    let proj_cost_f = params.cpu(src_rows) + params.external_sort_io(f_pages);
    let (avail_cost_f, bloom_bits, bloom_hashes) = if args.use_bloom {
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

    // Inner-side attribute names (unqualified), from the filter keys.
    let inner_attrs: Vec<String> = filter_keys
        .iter()
        .map(|(_, i)| {
            i.strip_prefix(&format!("{}.", args.inner_alias))
                .unwrap_or(i)
                .to_string()
        })
        .collect();

    // ---- FilterCost_Rk and the restricted inner stats.
    let (filter_cost_rk, mut restricted, rk_wire_width) = match &kind {
        RelationKind::View(_) => {
            let fit = args
                .memo
                .fit(args.catalog, params, args.inner_relation, &inner_attrs)?;
            let s = fit.selectivity_of(f_rows);
            let cost = fit.cost(s);
            let rows = fit.cardinality(s);
            let mut stats = fit.unrestricted.clone();
            stats.rows = rows;
            // The filtered key keeps at most f distinct values.
            for a in &inner_attrs {
                if let Some(ce) = stats.cols.get_mut(a) {
                    ce.distinct = ce.distinct.min(f_rows.max(1.0));
                }
            }
            let width = stats.width as f64;
            (cost, stats, width + 4.0)
        }
        RelationKind::Base(t) | RelationKind::Remote(t, _) => {
            let stats = base_table_stats(t);
            let d: f64 = inner_attrs
                .iter()
                .map(|a| stats.distinct(a))
                .product::<f64>()
                .max(1.0);
            let mut frac = (f_rows / d).min(1.0);
            if args.use_bloom {
                // False positives let extra tuples through.
                let fp = 0.02;
                frac = (frac + fp * (1.0 - frac)).min(1.0);
            }
            let scan_pages = stats.pages(&params);
            let cost = scan_pages + params.cpu(stats.rows + f_rows);
            let mut out = stats.clone();
            out.rows = (out.rows * frac).max(0.0);
            for a in &inner_attrs {
                if let Some(ce) = out.cols.get_mut(a) {
                    ce.distinct = ce.distinct.min(f_rows.max(1.0));
                }
            }
            let width = t.schema().row_width() as f64;
            (cost, out, width + 4.0)
        }
        RelationKind::Udf(u) => {
            // A filter set can drive invocation only when it covers
            // every argument column of the function.
            let schema = u.schema();
            let covered = (0..u.arg_count()).all(|i| {
                let arg = schema.column(i).base_name();
                inner_attrs.iter().any(|a| a == arg)
            });
            if !covered {
                return Ok(None);
            }
            let cost = f_rows * u.invocation_cost();
            let rows = f_rows * u.rows_per_call();
            let stats = EstStats {
                rows,
                width: schema.row_width() + 8 + 9 * filter_keys.len(),
                cols: schema
                    .columns()
                    .iter()
                    .map(|c| {
                        (
                            c.name.clone(),
                            ColEst {
                                distinct: rows.max(1.0),
                                ..ColEst::default()
                            },
                        )
                    })
                    .collect(),
            };
            (cost, stats, schema.row_width() as f64 + 4.0)
        }
    };
    restricted = requalify_stats(restricted, args.inner_alias);

    // ---- AvailCost_Rk': pipelined locally; shipped home when remote.
    let avail_cost_rk = if remote {
        params.ship_cost(restricted.rows, rk_wire_width)
    } else {
        0.0
    };

    // ---- FinalJoinCost: hash join of P (probe) with R'k (build).
    let estimator = PlanEstimator::new(args.catalog, params);
    let key_pred = args
        .keys
        .iter()
        .map(|(o, i)| col(o.clone()).eq(col(i.clone())))
        .reduce(|a, b| a.and(b));
    let output = estimator.join_stats(args.outer, &restricted, key_pred.as_ref(), JoinKind::Inner);
    let rk_pages = restricted.pages(&params);
    let final_join_cost =
        params.hash_join_cost(p_rows, p_pages, restricted.rows, rk_pages, output.rows);

    let cost = FilterJoinCost {
        join_cost_p: args.outer_cost,
        production_cost_p,
        proj_cost_f,
        avail_cost_f,
        filter_cost_rk,
        avail_cost_rk,
        final_join_cost,
        materialize_production,
        lossy: args.use_bloom,
    };

    Ok(Some(FilterJoinDecision {
        cost,
        restricted,
        output,
        keys: args.keys.to_vec(),
        filter_keys: filter_keys.to_vec(),
        inner_alias: args.inner_alias.to_string(),
        inner_relation: args.inner_relation.to_string(),
        inner_site,
        bloom_bits,
        bloom_hashes,
    }))
}

fn requalify_stats(mut stats: EstStats, alias: &str) -> EstStats {
    if alias.is_empty() {
        return stats;
    }
    stats.cols = stats
        .cols
        .into_iter()
        .map(|(k, v)| {
            let base = k.rsplit_once('.').map(|(_, b)| b).unwrap_or(&k);
            (format!("{alias}.{base}"), v)
        })
        .collect();
    stats
}

/// Builds the physical plan for a costed Filter Join.
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
/// with a `BloomProbe`. `production_phys` is the production-set plan
/// when the decision was costed with a prefix production (`None` keeps
/// Limitation 2: production = the outer itself).
pub fn build_filter_join_plan(
    catalog: &Catalog,
    outer_phys: &PhysPlan,
    production_phys: Option<&PhysPlan>,
    decision: &FilterJoinDecision,
    suffix: &str,
) -> Result<PhysPlan, OptError> {
    let partial_name = format!("__partial{suffix}");
    let filter_name = format!("__filter{suffix}");
    let remote = decision.inner_site != SiteId::LOCAL;
    let src_phys = production_phys.unwrap_or(outer_phys);

    let mut steps = Vec::new();
    let outer_for_body: PhysPlan;
    let filter_src: PhysPlan;
    if decision.cost.materialize_production {
        steps.push(TempStep::Materialize {
            name: partial_name.clone(),
            plan: src_phys.clone(),
        });
        // With a prefix production the final join still consumes the
        // *full* outer, pipelined; only the prefix is materialized.
        outer_for_body = if production_phys.is_some() {
            outer_phys.clone()
        } else {
            PhysPlan::TempScan {
                name: partial_name.clone(),
                alias: String::new(),
            }
        };
        filter_src = PhysPlan::TempScan {
            name: partial_name,
            alias: String::new(),
        };
    } else {
        outer_for_body = outer_phys.clone();
        filter_src = src_phys.clone();
    }

    // Distinct projection of the production key columns as k0, k1, ...
    let filter_plan = PhysPlan::Distinct {
        input: PhysPlan::Project {
            input: filter_src.boxed(),
            exprs: decision
                .filter_keys
                .iter()
                .enumerate()
                .map(|(i, (o, _))| (col(o.clone()), format!("k{i}")))
                .collect(),
        }
        .boxed(),
    };

    let inner_attrs: Vec<String> = decision
        .filter_keys
        .iter()
        .map(|(_, i)| {
            i.strip_prefix(&format!("{}.", decision.inner_alias))
                .unwrap_or(i)
                .to_string()
        })
        .collect();

    let restricted_phys: PhysPlan = if decision.cost.lossy {
        // Bloom build (with shipping charge when remote), then a probe
        // over the inner scan at the inner's site.
        steps.push(TempStep::BuildBloom {
            name: filter_name.clone(),
            plan: filter_plan,
            key_cols: (0..decision.filter_keys.len())
                .map(|i| format!("k{i}"))
                .collect(),
            bits: decision.bloom_bits.max(64),
            hashes: decision.bloom_hashes.max(2),
            ship: remote.then_some((SiteId::LOCAL, decision.inner_site)),
        });
        let probe = PhysPlan::BloomProbe {
            input: PhysPlan::SeqScan {
                table: decision.inner_relation.clone(),
                alias: decision.inner_alias.clone(),
            }
            .boxed(),
            bloom: filter_name,
            key_cols: decision.keys.iter().map(|(_, i)| i.clone()).collect(),
        };
        if remote {
            PhysPlan::Ship {
                input: probe.boxed(),
                from: decision.inner_site,
                to: SiteId::LOCAL,
            }
        } else {
            probe
        }
    } else {
        // Exact filter set: materialize (shipping it to the inner's site
        // when remote), then the restricted inner.
        let filter_step_plan = if remote {
            PhysPlan::Ship {
                input: filter_plan.boxed(),
                from: SiteId::LOCAL,
                to: decision.inner_site,
            }
        } else {
            filter_plan
        };
        steps.push(TempStep::Materialize {
            name: filter_name.clone(),
            plan: filter_step_plan,
        });

        let filter_schema = Schema::new(
            (0..decision.filter_keys.len())
                .map(|i| Column::new(format!("k{i}"), DataType::Int))
                .collect(),
        )?
        .into_ref();
        let mut phys = match catalog.resolve(&decision.inner_relation)? {
            RelationKind::View(_) => {
                let restricted_logical = magic::restricted_inner(
                    catalog,
                    &decision.inner_relation,
                    &inner_attrs,
                    &filter_name,
                    &filter_schema,
                )?;
                let lowered = lower::lower(&restricted_logical, catalog)?;
                // View bodies produce unqualified names; requalify under
                // the inner alias for the final join predicate.
                let view = catalog.view(&decision.inner_relation)?;
                PhysPlan::Project {
                    input: lowered.boxed(),
                    exprs: view
                        .schema
                        .columns()
                        .iter()
                        .map(|c| {
                            (
                                col(c.name.clone()),
                                format!("{}.{}", decision.inner_alias, c.base_name()),
                            )
                        })
                        .collect(),
                }
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
                    outer: PhysPlan::TempScan {
                        name: filter_name,
                        alias: "__F".into(),
                    }
                    .boxed(),
                    udf: decision.inner_relation.clone(),
                    alias: decision.inner_alias.clone(),
                    arg_cols,
                };
                PhysPlan::Project {
                    input: probe.boxed(),
                    exprs: schema
                        .columns()
                        .iter()
                        .map(|c| {
                            let q = format!("{}.{}", decision.inner_alias, c.base_name());
                            (col(q.clone()), q)
                        })
                        .collect(),
                }
            }
            // Base / remote inners: semi-join the scan directly. Built
            // by hand (not via `lower`) so a *remote* inner's scan is
            // not auto-shipped home — the semi-join runs at the inner's
            // site and only its result ships back (the SDD-1 semi-join
            // discipline).
            _ => PhysPlan::HashJoin {
                outer: PhysPlan::SeqScan {
                    table: decision.inner_relation.clone(),
                    alias: decision.inner_alias.clone(),
                }
                .boxed(),
                inner: PhysPlan::TempScan {
                    name: filter_name,
                    alias: "__F".into(),
                }
                .boxed(),
                keys: decision
                    .filter_keys
                    .iter()
                    .enumerate()
                    .map(|(i, (_, inner))| (inner.clone(), format!("__F.k{i}")))
                    .collect(),
                residual: None,
                kind: JoinKind::Semi,
            },
        };
        if remote {
            phys = PhysPlan::Ship {
                input: phys.boxed(),
                from: decision.inner_site,
                to: SiteId::LOCAL,
            };
        }
        phys
    };

    let body = PhysPlan::HashJoin {
        outer: outer_for_body.boxed(),
        inner: restricted_phys.boxed(),
        keys: decision.keys.clone(),
        residual: None,
        kind: JoinKind::Inner,
    };

    Ok(PhysPlan::WithTemp {
        steps,
        body: body.boxed(),
    })
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

    #[test]
    fn costs_are_positive_and_sum() {
        let cat = paper_catalog();
        let mut memo = ParametricEstimator::new(4);
        let (ocost, ostats) = outer_stats(&cat);
        let d = cost_filter_join(FilterJoinArgs {
            catalog: &cat,
            params: CostParams::default(),
            memo: &mut memo,
            outer_cost: ocost,
            outer: &ostats,
            keys: &keys(),
            inner_alias: "V",
            inner_relation: "DepAvgSal",
            filter_keys: &keys(),
            use_bloom: false,
            prefix_production: None,
        })
        .unwrap()
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
        let d = cost_filter_join(FilterJoinArgs {
            catalog: &cat,
            params: CostParams::default(),
            memo: &mut memo,
            outer_cost: ocost,
            outer: &ostats,
            keys: &[],
            inner_alias: "V",
            inner_relation: "DepAvgSal",
            filter_keys: &[],
            use_bloom: false,
            prefix_production: None,
        })
        .unwrap();
        assert!(d.is_none());
    }

    #[test]
    fn bloom_on_view_not_applicable() {
        let cat = paper_catalog();
        let mut memo = ParametricEstimator::new(4);
        let (ocost, ostats) = outer_stats(&cat);
        let d = cost_filter_join(FilterJoinArgs {
            catalog: &cat,
            params: CostParams::default(),
            memo: &mut memo,
            outer_cost: ocost,
            outer: &ostats,
            keys: &keys(),
            inner_alias: "V",
            inner_relation: "DepAvgSal",
            filter_keys: &keys(),
            use_bloom: true,
            prefix_production: None,
        })
        .unwrap();
        assert!(d.is_none());
    }

    #[test]
    fn built_plan_executes_and_matches_semantics() {
        let cat = paper_catalog();
        let mut memo = ParametricEstimator::new(4);
        let (ocost, ostats) = outer_stats(&cat);
        let d = cost_filter_join(FilterJoinArgs {
            catalog: &cat,
            params: CostParams::default(),
            memo: &mut memo,
            outer_cost: ocost,
            outer: &ostats,
            keys: &keys(),
            inner_alias: "V",
            inner_relation: "DepAvgSal",
            filter_keys: &keys(),
            use_bloom: false,
            prefix_production: None,
        })
        .unwrap()
        .unwrap();
        let plan = build_filter_join_plan(&cat, &outer_phys(), None, &d, "_t").unwrap();
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
        let d = cost_filter_join(FilterJoinArgs {
            catalog: &cat,
            params: CostParams::default(),
            memo: &mut memo,
            outer_cost: ocost,
            outer: &ostats,
            keys: &keys,
            inner_alias: "D",
            inner_relation: "Dept",
            filter_keys: &keys,
            use_bloom: false,
            prefix_production: None,
        })
        .unwrap()
        .unwrap();
        let outer = PhysPlan::Filter {
            input: PhysPlan::SeqScan {
                table: "Emp".into(),
                alias: "E".into(),
            }
            .boxed(),
            predicate: col("E.age").lt(lit(30)),
        };
        let plan = build_filter_join_plan(&cat, &outer, None, &d, "_b").unwrap();
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
        let d = cost_filter_join(FilterJoinArgs {
            catalog: &cat,
            params: CostParams::default(),
            memo: &mut memo,
            outer_cost: ocost,
            outer: &ostats,
            keys: &keys,
            inner_alias: "D",
            inner_relation: "Dept",
            filter_keys: &keys,
            use_bloom: true,
            prefix_production: None,
        })
        .unwrap()
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
        let plan = build_filter_join_plan(&cat, &outer, None, &d, "_bl").unwrap();
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
        let d = cost_filter_join(FilterJoinArgs {
            catalog: &cat,
            params: CostParams::default(),
            memo: &mut memo,
            outer_cost: ocost,
            outer: &ostats,
            keys: &keys,
            inner_alias: "r",
            inner_relation: "R",
            filter_keys: &subset,
            use_bloom: false,
            prefix_production: None,
        })
        .unwrap()
        .unwrap();
        assert_eq!(d.filter_keys, subset);
        assert_eq!(d.keys, keys);
        let outer = PhysPlan::SeqScan {
            table: "L".into(),
            alias: "l".into(),
        };
        let plan = build_filter_join_plan(&cat, &outer, None, &d, "_ss").unwrap();
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
        let d = cost_filter_join(FilterJoinArgs {
            catalog: &cat,
            params,
            memo: &mut memo,
            outer_cost: ocost,
            outer: &ostats,
            keys: &keys,
            inner_alias: "D",
            inner_relation: "Dept",
            filter_keys: &keys,
            use_bloom: false,
            prefix_production: None,
        })
        .unwrap()
        .unwrap();
        assert!(d.cost.avail_cost_f > 0.0, "filter shipping costed");
        assert!(
            d.cost.avail_cost_rk > 0.0,
            "restricted inner shipping costed"
        );
        let outer = PhysPlan::SeqScan {
            table: "Emp".into(),
            alias: "E".into(),
        };
        let plan = build_filter_join_plan(&cat, &outer, None, &d, "_r").unwrap();
        let ctx = ExecCtx::new(Arc::new(cat.clone()));
        let rel = plan.execute(&ctx).unwrap();
        assert_eq!(rel.rows.len(), 5, "every employee matches a department");
        let s = ctx.ledger.snapshot();
        assert_eq!(s.messages, 2, "filter out + restricted back");
        assert!(s.bytes_shipped > 0);
        let _ = tuple![0]; // keep the macro import used
    }
}
