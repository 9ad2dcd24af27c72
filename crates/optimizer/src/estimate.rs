//! Cardinality, selectivity and cost estimation over logical plans.
//!
//! This is the estimation machinery behind both the System-R enumerator
//! (leaf statistics, predicate selectivities, join cardinalities) and
//! the nested estimator invocations of the parametric Filter Join
//! approximation (§4.2): [`PlanEstimator`] can estimate *any* logical
//! plan — in particular a view body with a filter-set CTE of a chosen
//! cardinality spliced in.
//!
//! Estimates follow the classic Selinger assumptions the paper builds
//! on (§2.3): known base-table statistics, attribute independence,
//! uniformity within histogram buckets, and containment of value sets
//! for joins.

use crate::cost::CostParams;
use crate::error::OptError;
use fj_algebra::{Catalog, JoinKind, LogicalPlan, RelationKind};
use fj_expr::{conjunct_refs, equi_join_key, AggCall, BinOp, Expr};
use fj_storage::{charge, yao_distinct, Histogram, Schema, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Default selectivity for an equality predicate with no statistics.
pub const DEFAULT_EQ_SEL: f64 = 0.1;
/// Default selectivity for a range predicate with no statistics.
pub const DEFAULT_RANGE_SEL: f64 = 1.0 / 3.0;
/// Default selectivity for an opaque predicate.
pub const DEFAULT_SEL: f64 = 0.5;

/// Per-column estimate.
#[derive(Debug, Clone, Default)]
pub struct ColEst {
    /// Estimated distinct values.
    pub distinct: f64,
    /// Minimum value, when known.
    pub min: Option<Value>,
    /// Maximum value, when known.
    pub max: Option<Value>,
    /// Histogram, when inherited from a base table (shared with it).
    pub histogram: Option<Arc<Histogram>>,
}

/// Per-column estimates keyed by output column name, in insertion
/// order. A plan has a handful of columns and the enumerator derives
/// thousands of these per query, so this is a shared slice rather than
/// a hash table: cloning bumps a reference count, a write through a
/// shared handle first copies the entries (one allocation), and a
/// lookup is a short scan.
#[derive(Debug, Clone)]
pub struct ColMap(Arc<[(Arc<str>, ColEst)]>);

impl Default for ColMap {
    fn default() -> ColMap {
        ColMap(Arc::new([]))
    }
}

impl ColMap {
    fn position(&self, name: &str) -> Option<usize> {
        self.0.iter().position(|(n, _)| &**n == name)
    }

    /// The entries, for writing: copied first if another handle shares
    /// them.
    fn entries_mut(&mut self) -> &mut [(Arc<str>, ColEst)] {
        if Arc::get_mut(&mut self.0).is_none() {
            self.0 = self.0.iter().cloned().collect();
        }
        Arc::get_mut(&mut self.0).expect("sole handle")
    }

    /// The estimate for column `name`.
    pub fn get(&self, name: &str) -> Option<&ColEst> {
        self.position(name).map(|i| &self.0[i].1)
    }

    /// The estimate for column `name`, for writing.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut ColEst> {
        let i = self.position(name)?;
        Some(&mut self.entries_mut()[i].1)
    }

    /// Whether column `name` is present.
    pub fn contains_key(&self, name: &str) -> bool {
        self.position(name).is_some()
    }

    /// `(name, estimate)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &ColEst)> {
        self.0.iter().map(|(n, e)| (&**n, e))
    }

    /// The estimates in insertion order.
    pub fn values(&self) -> impl Iterator<Item = &ColEst> {
        self.0.iter().map(|(_, e)| e)
    }

    /// The estimates in insertion order, for writing.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut ColEst> {
        self.entries_mut().iter_mut().map(|(_, e)| e)
    }

    /// The columns of `left` followed by those of `right` — a join's
    /// output columns. A column in both keeps `right`'s estimate.
    pub fn concat(left: &ColMap, right: &ColMap) -> ColMap {
        let both = left.0.iter().chain(right.0.iter()).cloned();
        if right.0.iter().any(|(n, _)| left.contains_key(n)) {
            return both.collect();
        }
        // Exact-size, so the slice is allocated once and filled in place.
        ColMap(both.collect())
    }
}

/// Collects `(name, estimate)` pairs; a repeated name keeps its first
/// position and its last estimate.
impl<N: Into<Arc<str>> + AsRef<str>> FromIterator<(N, ColEst)> for ColMap {
    fn from_iter<I: IntoIterator<Item = (N, ColEst)>>(iter: I) -> ColMap {
        let mut entries: Vec<(Arc<str>, ColEst)> = Vec::new();
        for (name, est) in iter {
            match entries.iter_mut().find(|(n, _)| **n == *name.as_ref()) {
                Some(slot) => slot.1 = est,
                None => entries.push((name.into(), est)),
            }
        }
        ColMap(entries.into())
    }
}

/// Estimated properties of a plan's output.
#[derive(Debug, Clone, Default)]
pub struct EstStats {
    /// Estimated row count.
    pub rows: f64,
    /// Row width in bytes.
    pub width: usize,
    /// Per-column estimates, keyed by qualified output column name.
    pub(crate) cols: ColMap,
}

/// One condition of a join, as [`PlanEstimator::join_stats_terms`]
/// takes it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum JoinTerm<'e> {
    /// An equi-join key already oriented `(left column, right column)`.
    Key(&'e str, &'e str),
    /// Any conjunct; `col = col` across the two inputs is recognised as
    /// a key, anything else is costed as a selection.
    Conjunct(&'e Expr),
}

impl EstStats {
    /// Pages this output would occupy.
    pub fn pages(&self, params: &CostParams) -> f64 {
        params.pages(self.rows, self.width)
    }

    /// Distinct count for a column (defaults to `rows` when unknown).
    pub fn distinct(&self, col: &str) -> f64 {
        self.cols
            .get(col)
            .map(|c| c.distinct)
            .unwrap_or(self.rows)
            .max(1.0)
    }

    pub(crate) fn requalify(mut self, alias: &str) -> EstStats {
        if alias.is_empty() {
            return self;
        }
        let mut name = String::new();
        self.cols = self
            .cols
            .iter()
            .map(|(k, v)| (qualified(alias, k, &mut name), v.clone()))
            .collect();
        self
    }

    fn cap_distincts(&mut self) {
        let rows = self.rows;
        for c in self.cols.values_mut() {
            c.distinct = c.distinct.min(rows).max(1.0);
        }
    }
}

/// Estimates cardinalities and costs of logical plans.
pub struct PlanEstimator<'a> {
    /// Catalog supplying base statistics.
    pub catalog: &'a Catalog,
    /// Cost parameters.
    pub params: CostParams,
    /// Statistics for CTEs referenced by name (the parametric estimator
    /// splices synthetic filter-set stats in here).
    pub cte_stats: HashMap<String, EstStats>,
}

/// Output statistics of projecting `input` onto `exprs`: a bare column
/// keeps its statistics, a computed one is taken to be all-distinct.
pub(crate) fn project_stats(input: &EstStats, exprs: &[(Expr, String)]) -> EstStats {
    let unknown = || ColEst {
        distinct: input.rows,
        ..ColEst::default()
    };
    let cols = exprs.iter().map(|(e, name)| {
        let ce = match e {
            Expr::Column(c) => input.cols.get(c).cloned().unwrap_or_else(unknown),
            _ => unknown(),
        };
        (name.as_str(), ce)
    });
    EstStats {
        rows: input.rows,
        width: 8 + 9 * exprs.len(),
        cols: cols.collect(),
    }
}

/// Output statistics of grouping `input` by `group_by`: one row per
/// combination of grouping values (independence, capped by the input).
pub(crate) fn aggregate_stats(input: &EstStats, group_by: &[String], aggs: &[AggCall]) -> EstStats {
    let groups = if group_by.is_empty() {
        1.0
    } else {
        group_by
            .iter()
            .map(|g| input.distinct(g))
            .product::<f64>()
            .min(input.rows)
            .max(1.0)
    };
    let grouped = group_by.iter().map(|g| {
        let mut ce = input.cols.get(g).cloned().unwrap_or_default();
        ce.distinct = ce.distinct.min(groups).max(1.0);
        (g.as_str(), ce)
    });
    let aggregated = aggs.iter().map(|a| {
        let ce = ColEst {
            distinct: groups,
            ..ColEst::default()
        };
        (a.output.as_str(), ce)
    });
    EstStats {
        rows: groups,
        width: 8 + 9 * (group_by.len() + aggs.len()),
        cols: grouped.chain(aggregated).collect(),
    }
}

/// Statistics of `n_rows` literal rows: every column all-distinct.
pub(crate) fn values_stats(schema: &Schema, n_rows: usize) -> EstStats {
    let all_distinct = || ColEst {
        distinct: n_rows as f64,
        ..ColEst::default()
    };
    EstStats {
        rows: n_rows as f64,
        width: schema.row_width(),
        cols: schema
            .columns()
            .iter()
            .map(|c| (c.name.clone(), all_distinct()))
            .collect(),
    }
}

impl<'a> PlanEstimator<'a> {
    /// A fresh estimator.
    pub fn new(catalog: &'a Catalog, params: CostParams) -> PlanEstimator<'a> {
        PlanEstimator {
            catalog,
            params,
            cte_stats: HashMap::new(),
        }
    }

    /// Registers synthetic stats for a CTE name.
    pub fn with_cte(mut self, name: impl Into<String>, stats: EstStats) -> Self {
        self.cte_stats.insert(name.into(), stats);
        self
    }

    /// Estimates the output statistics of `plan`.
    pub fn estimate(&self, plan: &LogicalPlan) -> Result<EstStats, OptError> {
        Ok(self.estimate_inner(plan)?.1)
    }

    /// Estimates the *cost* (page units) of evaluating `plan` with the
    /// heuristic lowering of `fj-exec`, together with its output stats.
    pub fn cost(&self, plan: &LogicalPlan) -> Result<(f64, EstStats), OptError> {
        self.estimate_inner(plan)
    }

    fn estimate_inner(&self, plan: &LogicalPlan) -> Result<(f64, EstStats), OptError> {
        match plan {
            LogicalPlan::Scan { relation, alias } => {
                let kind = self.catalog.resolve(relation)?;
                let remote = matches!(kind, RelationKind::Remote(..));
                match kind {
                    RelationKind::Base(t) | RelationKind::Remote(t, _) => {
                        let stats = base_table_stats(&t, alias);
                        let pages = stats.pages(&self.params);
                        let mut cost = self.params.weigh(charge::reads(pages));
                        if remote {
                            cost += self
                                .params
                                .ship_cost(stats.rows, wire_width_of(t.schema()) as f64);
                        }
                        Ok((cost, stats))
                    }
                    RelationKind::View(view) => {
                        let (cost, stats) = self.estimate_inner(&view.plan)?;
                        // Requalify project on top: one CPU op per row.
                        Ok((cost + self.params.cpu(stats.rows), stats.requalify(alias)))
                    }
                    RelationKind::Udf(udf) => {
                        let (rows, calls) = match udf.domain() {
                            Some(d) => (d.len() as f64 * udf.rows_per_call(), d.len() as f64),
                            None => (1000.0, 1000.0),
                        };
                        let schema = udf.schema();
                        let mut stats = EstStats {
                            rows,
                            width: schema.row_width(),
                            cols: schema
                                .columns()
                                .iter()
                                .map(|c| {
                                    (
                                        c.name.clone(),
                                        ColEst {
                                            distinct: rows,
                                            ..ColEst::default()
                                        },
                                    )
                                })
                                .collect(),
                        };
                        stats = stats.requalify(alias);
                        Ok((calls * udf.invocation_cost(), stats))
                    }
                }
            }
            LogicalPlan::CteRef { name, alias, .. } => {
                let stats = self
                    .cte_stats
                    .get(name)
                    .cloned()
                    .ok_or_else(|| OptError::NoPlan(format!("no stats for CTE '{name}'")))?;
                let cost = stats.pages(&self.params);
                Ok((cost, stats.requalify(alias)))
            }
            LogicalPlan::Select { input, predicate } => {
                let (cost, stats) = self.estimate_inner(input)?;
                let sel = self.selectivity(predicate, &stats);
                let mut out = stats;
                out.rows = (out.rows * sel).max(0.0);
                out.cap_distincts();
                Ok((cost + self.params.cpu(out.rows / sel.max(1e-9)), out))
            }
            LogicalPlan::Project { input, exprs } => {
                let (cost, stats) = self.estimate_inner(input)?;
                let out = project_stats(&stats, exprs);
                Ok((cost + self.params.cpu(stats.rows), out))
            }
            LogicalPlan::Join {
                left,
                right,
                predicate,
                kind,
            } => {
                let (lcost, ls) = self.estimate_inner(left)?;
                let (rcost, rs) = self.estimate_inner(right)?;
                let out = self.join_stats(&ls, &rs, predicate.as_ref(), *kind);
                // Cost as if lowered to a hash join when equi keys exist,
                // else BNL.
                let has_keys = predicate
                    .as_ref()
                    .map(|p| !self.equi_keys(p, &ls, &rs).is_empty())
                    .unwrap_or(false);
                let lp = ls.pages(&self.params);
                let rp = rs.pages(&self.params);
                let jcost = if has_keys {
                    self.params
                        .hash_join_cost(ls.rows, lp, rs.rows, rp, out.rows)
                } else {
                    self.params.bnl_cost(ls.rows, lp, rs.rows, rp)
                };
                Ok((lcost + rcost + jcost, out))
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let (cost, stats) = self.estimate_inner(input)?;
                let out = aggregate_stats(&stats, group_by, aggs);
                let agg_cost = self.params.weigh(charge::aggregate(stats.rows, aggs.len()))
                    + self.params.external_sort_io(out.pages(&self.params));
                Ok((cost + agg_cost, out))
            }
            LogicalPlan::Distinct { input } => {
                let (cost, stats) = self.estimate_inner(input)?;
                let domain: f64 = stats
                    .cols
                    .values()
                    .map(|c| c.distinct.max(1.0))
                    .product::<f64>()
                    .max(1.0);
                let rows = yao_distinct(stats.rows.round() as u64, domain.round() as u64);
                let mut out = stats.clone();
                out.rows = rows;
                out.cap_distincts();
                let dcost = self.params.cpu(stats.rows)
                    + self.params.external_sort_io(out.pages(&self.params));
                Ok((cost + dcost, out))
            }
            LogicalPlan::With { ctes, body } => {
                let mut nested = PlanEstimator {
                    catalog: self.catalog,
                    params: self.params,
                    cte_stats: self.cte_stats.clone(),
                };
                let mut total = 0.0;
                for (name, cte) in ctes {
                    let (c, s) = nested.estimate_inner(cte)?;
                    total += c + nested.params.materialize_cost(s.pages(&nested.params));
                    nested.cte_stats.insert(name.clone(), s);
                }
                let (c, s) = nested.estimate_inner(body)?;
                Ok((total + c, s))
            }
            LogicalPlan::Values { schema, rows } => Ok((0.0, values_stats(schema, rows.len()))),
        }
    }

    /// Join output statistics under containment + independence.
    pub fn join_stats(
        &self,
        ls: &EstStats,
        rs: &EstStats,
        predicate: Option<&Expr>,
        kind: JoinKind,
    ) -> EstStats {
        let conjuncts = predicate.map(conjunct_refs).unwrap_or_default();
        self.join_stats_terms(ls, rs, conjuncts.into_iter().map(JoinTerm::Conjunct), kind)
    }

    /// [`Self::join_stats`] over conditions already split into terms,
    /// applied in order — what the enumerator calls, once per pair of
    /// inputs, with the conjuncts it split once per query.
    pub(crate) fn join_stats_terms<'e>(
        &self,
        ls: &EstStats,
        rs: &EstStats,
        terms: impl IntoIterator<Item = JoinTerm<'e>>,
        kind: JoinKind,
    ) -> EstStats {
        let (mut cols, width) = match kind {
            JoinKind::Inner => (
                ColMap::concat(&ls.cols, &rs.cols),
                ls.width + rs.width.saturating_sub(8),
            ),
            JoinKind::Semi => (ls.cols.clone(), ls.width),
        };

        let mut rows = match kind {
            JoinKind::Inner => ls.rows * rs.rows,
            JoinKind::Semi => ls.rows,
        };
        for term in terms {
            let key = match term {
                JoinTerm::Key(lk, rk) => Ok((lk, rk)),
                JoinTerm::Conjunct(c) => equi_join_key(c, &|n| ls.cols.contains_key(n), &|n| {
                    rs.cols.contains_key(n)
                })
                .ok_or(c),
            };
            match key {
                Ok((lk, rk)) => match kind {
                    JoinKind::Inner => {
                        rows *= key_selectivity(ls.distinct(lk), rs.distinct(rk));
                        // Containment: joined key keeps min distinct.
                        let d = ls.distinct(lk).min(rs.distinct(rk));
                        if let Some(ce) = cols.get_mut(lk) {
                            ce.distinct = d;
                        }
                        if let Some(ce) = cols.get_mut(rk) {
                            ce.distinct = d;
                        }
                    }
                    JoinKind::Semi => {
                        // Fraction of outer keys present in the inner
                        // — for a filter set of f values over a
                        // domain of d, exactly f/d: the straight
                        // line of Figure 4.
                        let frac = (rs.distinct(rk) / ls.distinct(lk)).min(1.0);
                        rows *= frac;
                        // Only the filtered key values survive, which
                        // is what shrinks the group count when an
                        // aggregate sits above the semi-join.
                        let d = ls.distinct(lk).min(rs.distinct(rk));
                        if let Some(ce) = cols.get_mut(lk) {
                            ce.distinct = d;
                        }
                    }
                },
                Err(c) => {
                    // Non-equi or one-sided conjunct.
                    let combined = EstStats {
                        rows: 0.0,
                        width: 0,
                        cols: cols.clone(),
                    };
                    rows *= self.selectivity_conjunct(c, &combined);
                }
            }
        }
        let mut out = EstStats {
            rows: rows.max(0.0),
            width,
            cols,
        };
        out.cap_distincts();
        out
    }

    /// Extracts equi-join key pairs of `pred` between `ls` and `rs`.
    pub fn equi_keys(&self, pred: &Expr, ls: &EstStats, rs: &EstStats) -> Vec<(String, String)> {
        fj_expr::equi_join_keys(pred, &|c| ls.cols.contains_key(c), &|c| {
            rs.cols.contains_key(c)
        })
        .into_iter()
        .map(|k| (k.left, k.right))
        .collect()
    }

    /// Selectivity of a (possibly conjunctive) predicate against `stats`.
    pub fn selectivity(&self, pred: &Expr, stats: &EstStats) -> f64 {
        self.selectivity_of(conjunct_refs(pred), stats)
    }

    /// Selectivity of the conjunction of `conjuncts` against `stats`.
    pub(crate) fn selectivity_of<'e>(
        &self,
        conjuncts: impl IntoIterator<Item = &'e Expr>,
        stats: &EstStats,
    ) -> f64 {
        conjuncts
            .into_iter()
            .map(|c| self.selectivity_conjunct(c, stats))
            .product::<f64>()
            .clamp(0.0, 1.0)
    }

    fn selectivity_conjunct(&self, c: &Expr, stats: &EstStats) -> f64 {
        match c {
            Expr::Binary { op, left, right } => match (op, left.as_ref(), right.as_ref()) {
                (BinOp::Eq, Expr::Column(a), Expr::Column(b)) => {
                    1.0 / stats.distinct(a).max(stats.distinct(b))
                }
                (BinOp::Eq, Expr::Column(a), Expr::Literal(_))
                | (BinOp::Eq, Expr::Literal(_), Expr::Column(a)) => match stats.cols.get(a) {
                    Some(ce) if ce.distinct >= 1.0 => 1.0 / ce.distinct,
                    _ => DEFAULT_EQ_SEL,
                },
                (BinOp::Ne, _, _) => 1.0 - self.eq_flipped(c, stats),
                (BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge, l, r) => {
                    self.range_selectivity(*op, l, r, stats)
                }
                (BinOp::And, _, _) => {
                    self.selectivity_conjunct(left, stats) * self.selectivity_conjunct(right, stats)
                }
                (BinOp::Or, _, _) => {
                    let a = self.selectivity_conjunct(left, stats);
                    let b = self.selectivity_conjunct(right, stats);
                    (a + b - a * b).clamp(0.0, 1.0)
                }
                _ => DEFAULT_SEL,
            },
            Expr::Not(inner) => 1.0 - self.selectivity_conjunct(inner, stats),
            Expr::IsNull(_) => DEFAULT_EQ_SEL,
            Expr::Literal(Value::Bool(true)) => 1.0,
            Expr::Literal(Value::Bool(false)) => 0.0,
            _ => DEFAULT_SEL,
        }
    }

    fn eq_flipped(&self, c: &Expr, stats: &EstStats) -> f64 {
        if let Expr::Binary { left, right, .. } = c {
            let eq = Expr::Binary {
                op: BinOp::Eq,
                left: left.clone(),
                right: right.clone(),
            };
            self.selectivity_conjunct(&eq, stats)
        } else {
            DEFAULT_EQ_SEL
        }
    }

    fn range_selectivity(&self, op: BinOp, l: &Expr, r: &Expr, stats: &EstStats) -> f64 {
        // Normalize to `column op literal`.
        let (col_name, lit, op) = match (l, r) {
            (Expr::Column(c), Expr::Literal(v)) => (c, v, op),
            (Expr::Literal(v), Expr::Column(c)) => {
                let flipped = match op {
                    BinOp::Lt => BinOp::Gt,
                    BinOp::Le => BinOp::Ge,
                    BinOp::Gt => BinOp::Lt,
                    BinOp::Ge => BinOp::Le,
                    other => other,
                };
                (c, v, flipped)
            }
            _ => return DEFAULT_RANGE_SEL,
        };
        let Some(ce) = stats.cols.get(col_name) else {
            return DEFAULT_RANGE_SEL;
        };
        if let Some(h) = &ce.histogram {
            let le = h.fraction_le(lit);
            return match op {
                BinOp::Lt | BinOp::Le => le,
                BinOp::Gt | BinOp::Ge => 1.0 - le,
                _ => DEFAULT_RANGE_SEL,
            }
            .clamp(0.0, 1.0);
        }
        match (&ce.min, &ce.max) {
            (Some(mn), Some(mx)) => {
                let (mn, mx, v) = match (mn.as_double(), mx.as_double(), lit.as_double()) {
                    (Some(a), Some(b), Some(c)) => (a, b, c),
                    _ => return DEFAULT_RANGE_SEL,
                };
                if mx <= mn {
                    return DEFAULT_RANGE_SEL;
                }
                let frac = ((v - mn) / (mx - mn)).clamp(0.0, 1.0);
                match op {
                    BinOp::Lt | BinOp::Le => frac,
                    BinOp::Gt | BinOp::Ge => 1.0 - frac,
                    _ => DEFAULT_RANGE_SEL,
                }
            }
            _ => DEFAULT_RANGE_SEL,
        }
    }
}

/// Selectivity of an equi-join key whose columns have `left` and
/// `right` distinct values, under containment.
fn key_selectivity(left: f64, right: f64) -> f64 {
    1.0 / left.max(right)
}

/// Cardinality of the inner equi-join of inputs of `left_rows` and
/// `right_rows` rows on keys with the given (left, right) distinct
/// counts — what [`PlanEstimator::join_stats_terms`] estimates for the
/// same keys, without building the output's statistics.
pub(crate) fn equi_join_rows(
    left_rows: f64,
    right_rows: f64,
    key_distincts: impl Iterator<Item = (f64, f64)>,
) -> f64 {
    let selectivities = key_distincts.map(|(l, r)| key_selectivity(l, r));
    selectivities
        .fold(left_rows * right_rows, |rows, sel| rows * sel)
        .max(0.0)
}

/// `alias.base` for a column named `column` (`base` is what follows its
/// last dot), or `column` itself under the empty alias. `buf` is
/// scratch space, so a name costs one allocation.
fn qualified(alias: &str, column: &str, buf: &mut String) -> Arc<str> {
    if alias.is_empty() {
        return Arc::from(column);
    }
    let base = column.rsplit_once('.').map_or(column, |(_, base)| base);
    buf.clear();
    buf.extend([alias, ".", base]);
    Arc::from(buf.as_str())
}

/// Builds [`EstStats`] for a base table from its analyzed statistics,
/// with its columns qualified under `alias` (unqualified when empty).
pub fn base_table_stats(table: &fj_storage::Table, alias: &str) -> EstStats {
    let schema = table.schema();
    let stats = table.stats();
    let mut name = String::new();
    let cols = schema
        .columns()
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let cs = stats.column(i);
            (
                qualified(alias, &c.name, &mut name),
                ColEst {
                    distinct: cs.map(|s| s.distinct as f64).unwrap_or(1.0).max(1.0),
                    min: cs.and_then(|s| s.min.clone()),
                    max: cs.and_then(|s| s.max.clone()),
                    histogram: cs.and_then(|s| s.histogram.clone()),
                },
            )
        })
        .collect();
    EstStats {
        rows: table.row_count() as f64,
        width: schema.row_width(),
        cols,
    }
}

fn wire_width_of(schema: &Schema) -> usize {
    schema.row_width()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_algebra::fixtures::{paper_catalog, paper_query};
    use fj_expr::{col, lit};

    fn est(cat: &Catalog) -> PlanEstimator<'_> {
        PlanEstimator::new(cat, CostParams::default())
    }

    #[test]
    fn base_scan_stats() {
        let cat = paper_catalog();
        let e = est(&cat);
        let s = e.estimate(&LogicalPlan::scan("Emp", "E")).unwrap();
        assert_eq!(s.rows, 5.0);
        assert_eq!(s.distinct("E.did"), 3.0);
        assert!(s.cols.contains_key("E.sal"));
    }

    #[test]
    fn selection_reduces_rows() {
        let cat = paper_catalog();
        let e = est(&cat);
        let plan = LogicalPlan::scan("Emp", "E").select(col("E.did").eq(lit(10)));
        let s = e.estimate(&plan).unwrap();
        // 1/3 of 5 rows.
        assert!((s.rows - 5.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn equi_join_cardinality() {
        let cat = paper_catalog();
        let e = est(&cat);
        let plan = LogicalPlan::scan("Emp", "E").join(
            LogicalPlan::scan("Dept", "D"),
            Some(col("E.did").eq(col("D.did"))),
        );
        let s = e.estimate(&plan).unwrap();
        // 5 × 3 / max(3,3) = 5.
        assert!((s.rows - 5.0).abs() < 1e-9);
    }

    #[test]
    fn semi_join_fraction_is_linear_in_filter_size() {
        let cat = paper_catalog();
        let e = est(&cat);
        let body = e.estimate(&LogicalPlan::scan("Emp", "E")).unwrap();
        // Filter set with 1 of the 3 did values.
        let filter = EstStats {
            rows: 1.0,
            width: 17,
            cols: [(
                "__F.k0".to_string(),
                ColEst {
                    distinct: 1.0,
                    ..ColEst::default()
                },
            )]
            .into_iter()
            .collect(),
        };
        let out = e.join_stats(
            &body,
            &filter,
            Some(&col("E.did").eq(col("__F.k0"))),
            JoinKind::Semi,
        );
        assert!((out.rows - 5.0 / 3.0).abs() < 1e-9, "got {}", out.rows);
    }

    #[test]
    fn view_estimation_goes_through_aggregate() {
        let cat = paper_catalog();
        let e = est(&cat);
        let s = e.estimate(&LogicalPlan::scan("DepAvgSal", "V")).unwrap();
        // One group per department.
        assert!((s.rows - 3.0).abs() < 1e-9);
        assert!(s.cols.contains_key("V.avgsal"));
    }

    #[test]
    fn distinct_uses_yao() {
        let cat = paper_catalog();
        let e = est(&cat);
        let plan = LogicalPlan::scan("Emp", "E")
            .project(vec![(col("E.did"), "did".into())])
            .distinct();
        let s = e.estimate(&plan).unwrap();
        // Drawing 5 rows from 3 distinct dids: close to 3.
        assert!(s.rows > 2.0 && s.rows <= 3.0, "got {}", s.rows);
    }

    #[test]
    fn cte_ref_requires_stats() {
        let cat = paper_catalog();
        let e = est(&cat);
        let plan = LogicalPlan::CteRef {
            name: "x".into(),
            alias: String::new(),
            schema: Schema::from_pairs(&[("k", fj_storage::DataType::Int)]).into_ref(),
        };
        assert!(e.estimate(&plan).is_err());
        let e = est(&cat).with_cte(
            "x",
            EstStats {
                rows: 42.0,
                width: 17,
                cols: ColMap::default(),
            },
        );
        assert_eq!(e.estimate(&plan).unwrap().rows, 42.0);
    }

    #[test]
    fn range_selectivity_uses_histogram() {
        let cat = paper_catalog();
        let e = est(&cat);
        let plan = LogicalPlan::scan("Emp", "E").select(col("E.age").lt(lit(100)));
        let s = e.estimate(&plan).unwrap();
        assert!(s.rows > 4.0, "age<100 keeps ~everything, got {}", s.rows);
        let plan = LogicalPlan::scan("Emp", "E").select(col("E.age").lt(lit(0)));
        let s = e.estimate(&plan).unwrap();
        assert!(s.rows < 2.0, "age<0 keeps ~nothing, got {}", s.rows);
    }

    #[test]
    fn whole_paper_query_estimates_and_costs() {
        let cat = paper_catalog();
        let e = est(&cat);
        let (cost, stats) = e.cost(&paper_query().to_plan()).unwrap();
        assert!(cost > 0.0);
        assert!(stats.rows >= 0.0);
        assert_eq!(stats.cols.iter().count(), 3);
    }

    #[test]
    fn or_and_not_selectivities() {
        let cat = paper_catalog();
        let e = est(&cat);
        let s = e.estimate(&LogicalPlan::scan("Emp", "E")).unwrap();
        let p_or = col("E.did").eq(lit(10)).or(col("E.did").eq(lit(20)));
        let sel = e.selectivity(&p_or, &s);
        assert!(sel > 1.0 / 3.0 && sel < 0.7, "got {sel}");
        let p_not = col("E.did").eq(lit(10)).not();
        let sel = e.selectivity(&p_not, &s);
        assert!((sel - 2.0 / 3.0).abs() < 1e-9);
    }
}
