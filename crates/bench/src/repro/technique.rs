//! Figure 6 as one table: every §5 join technique over every kind of
//! inner relation.
//!
//! The paper's Figure 6 says repeated probe, full computation, filter
//! join and lossy filter are one strategy family across stored, remote,
//! view and user-defined relations. This module builds that family once.
//! A [`Join`] names `outer AS O ⋈ inner AS I on O.key = I.key`, the
//! catalog says what kind of relation the inner is, and a [`Technique`]
//! picks the row; `plan` returns the physical plan and [`run`]
//! executes it under the ledger. F6 is the loop over all cells; D1, U1,
//! L1 and B1 are slices of it over their own catalogs.
//!
//! Both filter joins have one shape in every column:
//!
//! ```text
//! WithTemp [filter := ship(keys of O, here -> inner's site)]
//!   HashJoin O.key = I.key (SeqScan outer AS O, ship(restricted inner, inner's site -> here))
//! ```
//!
//! The exact filter set is `Distinct(Project O.key)`, and the restricted
//! inner is a semi-join for a stored or remote table, the filter pushed
//! into the body for a view (§3.1's magic rewriting), and one call per
//! distinct key for a function. The lossy filter set is a Bloom filter
//! that a table scan probes. Two cells are not plans: repeated probe of
//! a remote table is fetch-matches, a loop of messages (`fetch_matches`),
//! and function caching is the repeated probe over a `MemoUdf`, a catalog
//! choice.

use fj_core::algebra::{restricted_inner, JoinKind, RelationKind};
use fj_core::exec::{lower::lower, ExecError, Rel, TempStep};
use fj_core::storage::{charge, CPU_WEIGHT_DEFAULT};
use fj_core::{
    col, BloomFilter, Catalog, CostLedger, ExecCtx, LedgerSnapshot, LogicalPlan, PhysPlan,
    QueryTrace, Schema, SiteId, TraceCollector,
};
use std::sync::Arc;

const OUTER: &str = "O";
const INNER: &str = "I";
const FILTER: &str = "__f";
/// Hash functions per lossy filter, in every experiment.
const HASHES: u32 = 4;

/// A row of Figure 6. Function caching is not a row of its own: it is
/// [`Technique::Probe`] over a memoized function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Technique {
    /// Repeated probe: index nested loops, fetch-matches, or one
    /// function call per outer row.
    Probe,
    /// Full computation: the whole inner, brought here and hash-joined.
    Full,
    /// The Filter Join with the exact filter set.
    FilterJoin,
    /// The Filter Join with a lossy filter set: a Bloom filter of `bits`
    /// bits probed with 4 hash functions.
    Lossy {
        /// Filter size in bits.
        bits: u64,
    },
}

impl Technique {
    /// A lossy filter sized for `keys` keys at a 2 % false-positive rate.
    pub fn lossy_for(keys: usize) -> Technique {
        Technique::Lossy {
            bits: BloomFilter::sizing(keys as u64, 0.02).0,
        }
    }
}

/// `outer AS O ⋈ inner AS I on O.key = I.key`: the key column has the
/// same name on both sides.
#[derive(Debug, Clone, Copy)]
pub struct Join {
    /// The local base table that drives the join.
    pub outer: &'static str,
    /// The inner relation: a table (local or remote), a view or a UDF.
    pub inner: &'static str,
    /// The join column.
    pub key: &'static str,
}

impl Join {
    /// `O.key`.
    pub(crate) fn outer_key(&self) -> String {
        format!("{OUTER}.{}", self.key)
    }

    /// `I.key`.
    pub(crate) fn inner_key(&self) -> String {
        format!("{INNER}.{}", self.key)
    }

    /// `SeqScan outer AS O`.
    pub(crate) fn outer_scan(&self) -> PhysPlan {
        PhysPlan::SeqScan {
            table: self.outer.into(),
            alias: OUTER.into(),
        }
    }

    /// `SeqScan inner AS I` (a table's scan at its own site).
    pub(crate) fn inner_scan(&self) -> PhysPlan {
        PhysPlan::SeqScan {
            table: self.inner.into(),
            alias: INNER.into(),
        }
    }

    /// The equi-join key pair `(O.key, I.key)`.
    pub(crate) fn keys(&self) -> Vec<(String, String)> {
        vec![(self.outer_key(), self.inner_key())]
    }

    /// The final join: the outer probes a hash table built on `inner`.
    pub(crate) fn hash_join(&self, inner: PhysPlan) -> PhysPlan {
        PhysPlan::HashJoin {
            outer: self.outer_scan().boxed(),
            inner: inner.boxed(),
            keys: self.keys(),
            residual: None,
            kind: JoinKind::Inner,
        }
    }

    /// The join as a logical plan, for `Database::run_logical`.
    pub fn logical(&self) -> LogicalPlan {
        let on = col(self.outer_key()).eq(col(self.inner_key()));
        LogicalPlan::scan(self.outer, OUTER).join(LogicalPlan::scan(self.inner, INNER), Some(on))
    }
}

/// `plan`'s rows moved `from` one site `to` another; nothing within one.
fn ship(plan: PhysPlan, from: SiteId, to: SiteId) -> PhysPlan {
    if from == to {
        return plan;
    }
    PhysPlan::Ship {
        input: plan.boxed(),
        from,
        to,
    }
}

/// The physical plan of `technique` for `join`, or `None` where Figure 6
/// leaves the cell empty or the cell is not a plan (fetch-matches).
pub(crate) fn plan(
    catalog: &Catalog,
    join: Join,
    technique: Technique,
) -> Result<Option<PhysPlan>, ExecError> {
    let kind = catalog.resolve(join.inner)?;
    Ok(Some(match (technique, &kind) {
        (Technique::Probe, RelationKind::Base(_)) => PhysPlan::IndexNestedLoops {
            outer: join.outer_scan().boxed(),
            table: join.inner.into(),
            alias: INNER.into(),
            outer_key: join.outer_key(),
            inner_col: join.key.into(),
            residual: None,
        },
        (Technique::Probe, RelationKind::Udf(_)) => PhysPlan::UdfProbe {
            outer: join.outer_scan().boxed(),
            udf: join.inner.into(),
            alias: INNER.into(),
            arg_cols: vec![join.outer_key()],
        },
        // A remote probe is fetch-matches; correlated iteration over a
        // view is decorrelated away by engines like this one.
        (Technique::Probe, _) => return Ok(None),
        (Technique::Full, _) => {
            join.hash_join(lower(&LogicalPlan::scan(join.inner, INNER), catalog)?)
        }
        _ => match filter_join(catalog, join, technique)? {
            Some((step, restricted)) => PhysPlan::WithTemp {
                steps: vec![step],
                body: join.hash_join(restricted).boxed(),
            },
            None => return Ok(None),
        },
    }))
}

/// The two halves of a Filter Join (`technique` exact or lossy): the
/// step that builds the filter set from the outer and sends it to the
/// inner's site, and the restricted inner shipped back. `None` where the
/// technique does not apply: a lossy filter cannot pass through an
/// aggregate view or drive function calls.
pub(crate) fn filter_join(
    catalog: &Catalog,
    join: Join,
    technique: Technique,
) -> Result<Option<(TempStep, PhysPlan)>, ExecError> {
    let kind = catalog.resolve(join.inner)?;
    let site = match kind {
        RelationKind::Remote(_, site) => site,
        _ => SiteId::LOCAL,
    };
    let keys = PhysPlan::Project {
        input: join.outer_scan().boxed(),
        exprs: vec![(col(join.outer_key()), "k0".into())],
    };
    let filter = PhysPlan::TempScan {
        name: FILTER.into(),
        alias: "F".into(),
    };
    let (step, restricted) = match (technique, &kind) {
        (Technique::Lossy { bits }, RelationKind::Base(_) | RelationKind::Remote(..)) => (
            TempStep::BuildBloom {
                name: FILTER.into(),
                plan: keys,
                key_cols: vec!["k0".into()],
                bits,
                hashes: HASHES,
                ship: (site != SiteId::LOCAL).then_some((SiteId::LOCAL, site)),
            },
            PhysPlan::BloomProbe {
                input: join.inner_scan().boxed(),
                bloom: FILTER.into(),
                key_cols: vec![join.inner_key()],
            },
        ),
        (Technique::FilterJoin, _) => {
            let restricted = match &kind {
                RelationKind::View(view) => {
                    let outer = catalog.table(join.outer)?.schema().clone();
                    let key_type = outer.column(outer.resolve(join.key)?).data_type;
                    let filter_schema = Schema::from_pairs(&[("k0", key_type)]).into_ref();
                    let body = restricted_inner(
                        catalog,
                        join.inner,
                        &[join.key.to_string()],
                        FILTER,
                        &filter_schema,
                    )?;
                    PhysPlan::Project {
                        input: lower(&body, catalog)?.boxed(),
                        exprs: (view.schema.columns().iter())
                            .map(|c| (col(c.name.clone()), format!("{INNER}.{}", c.base_name())))
                            .collect(),
                    }
                }
                RelationKind::Udf(_) => PhysPlan::UdfProbe {
                    outer: filter.boxed(),
                    udf: join.inner.into(),
                    alias: INNER.into(),
                    arg_cols: vec!["F.k0".into()],
                },
                _ => PhysPlan::HashJoin {
                    outer: join.inner_scan().boxed(),
                    inner: filter.boxed(),
                    keys: vec![(join.inner_key(), "F.k0".into())],
                    residual: None,
                    kind: JoinKind::Semi,
                },
            };
            let distinct = PhysPlan::Distinct {
                input: keys.boxed(),
            };
            let step = TempStep::Materialize {
                name: FILTER.into(),
                plan: ship(distinct, SiteId::LOCAL, site),
            };
            (step, restricted)
        }
        _ => return Ok(None),
    };
    Ok(Some((step, ship(restricted, site, SiteId::LOCAL))))
}

/// One measured execution.
#[derive(Debug, Clone)]
pub struct Measured {
    /// The join's rows.
    pub rel: Rel,
    /// Everything the run charged.
    pub ledger: LedgerSnapshot,
    /// The ledger weighted under the catalog's network, in page units.
    pub cost: f64,
    /// Per-operator trace; `None` for fetch-matches, which runs no plan.
    pub trace: Option<QueryTrace>,
}

impl Measured {
    fn new(catalog: &Catalog, rel: Rel, ledger: &CostLedger, trace: Option<QueryTrace>) -> Self {
        let (ledger, net) = (ledger.snapshot(), catalog.network());
        let cost = ledger.weighted(CPU_WEIGHT_DEFAULT, net.per_byte, net.per_message);
        Measured {
            rel,
            ledger,
            cost,
            trace,
        }
    }
}

/// Executes `plan` with a `memory_pages`-page buffer pool on a fresh
/// ledger, traced (tracing charges nothing).
pub(crate) fn measure(
    catalog: &Arc<Catalog>,
    plan: &PhysPlan,
    memory_pages: u64,
) -> Result<Measured, ExecError> {
    let tracer = Arc::new(TraceCollector::new());
    let ctx = ExecCtx::new(Arc::clone(catalog))
        .with_memory_pages(memory_pages)
        .with_tracer(Arc::clone(&tracer));
    let rel = plan.execute(&ctx)?;
    Ok(Measured::new(catalog, rel, &ctx.ledger, tracer.finish()))
}

/// Runs one cell: `plan` then `measure`, or `fetch_matches` for a
/// remote probe. `None` where the cell is empty.
pub fn run(
    catalog: &Arc<Catalog>,
    join: Join,
    technique: Technique,
    memory_pages: u64,
) -> Result<Option<Measured>, ExecError> {
    let remote = matches!(catalog.resolve(join.inner)?, RelationKind::Remote(..));
    if technique == Technique::Probe && remote {
        return fetch_matches(catalog, join).map(Some);
    }
    plan(catalog, join, technique)?
        .map(|p| measure(catalog, &p, memory_pages))
        .transpose()
}

/// Fetch-matches (System R*): one round trip per outer row, probing the
/// inner's index on the key. Each probe ships the key out (one message)
/// and the matching tuples back (another).
fn fetch_matches(catalog: &Catalog, join: Join) -> Result<Measured, ExecError> {
    let ledger = CostLedger::new();
    let outer = catalog.table(join.outer)?;
    let inner = catalog.table(join.inner)?;
    let okey = outer.schema().resolve(join.key)?;
    let ikey = inner.schema().resolve(join.key)?;
    let Some(index) = inner.probe_index(ikey) else {
        let why = format!(
            "fetch-matches needs an index on {}.{}",
            join.inner, join.key
        );
        return Err(ExecError::InvalidPhysicalPlan(why));
    };
    let schema = (outer.schema().with_qualifier(OUTER))
        .join(&inner.schema().with_qualifier(INNER))?
        .into_ref();
    let mut rows = Vec::new();
    let outer_rows = outer.scan_checked(None).map_err(ExecError::Storage)?;
    ledger.book(charge::reads(outer.page_count()));
    for o in outer_rows.iter() {
        let key = o.value(okey);
        if key.is_null() {
            continue;
        }
        ledger.ship(key.wire_width() as u64 + 4);
        let mut bytes = 4u64;
        let matches = index.probe(key);
        ledger.book(charge::probe(index.probe_pages(), matches.len() as u64));
        for &rid in matches {
            let t = inner.fetch_checked(rid, None).map_err(ExecError::Storage)?;
            bytes += t.wire_width() as u64;
            rows.push(o.concat(t));
        }
        ledger.ship(bytes);
    }
    Ok(Measured::new(
        catalog,
        Rel::new(schema, rows),
        &ledger,
        None,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repro::fig6_taxonomy;
    use crate::workloads::{two_site, ORDERS_CUSTOMERS as JOIN};
    use fj_core::exec::context::DEFAULT_MEMORY_PAGES;
    use fj_core::{DataType, Database, NetworkModel, TableBuilder, Tuple, Value};

    fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
        rows.sort();
        rows
    }

    /// `rel`'s rows cut down to the columns `names`, sorted.
    fn project(rel: &Rel, names: &[String]) -> Vec<Vec<Value>> {
        let idx: Vec<usize> = (names.iter())
            .map(|n| rel.schema.resolve(n).expect("column present"))
            .collect();
        let mut rows: Vec<Vec<Value>> = (rel.rows.iter())
            .map(|t| idx.iter().map(|&i| t.value(i).clone()).collect())
            .collect();
        rows.sort();
        rows
    }

    #[test]
    fn every_cell_matches_run_logical() {
        let techniques = [
            Technique::Probe,
            Technique::Full,
            Technique::FilterJoin,
            Technique::Lossy { bits: 4096 },
        ];
        let mut cells = 0;
        for (kind, cached) in [
            ("stored", false),
            ("remote", false),
            ("view", false),
            ("udf", false),
            ("udf", true),
        ] {
            let (catalog, join) = fig6_taxonomy::catalog(kind, 300, 1_000, 25, cached);
            let oracle = Database::with_catalog((*catalog).clone())
                .run_logical(&join.logical())
                .unwrap();
            // The outer's columns and the inner's non-key columns.
            let names: Vec<String> = (oracle.schema.columns().iter())
                .map(|c| c.name.clone())
                .filter(|n| *n != join.inner_key())
                .collect();
            let expected = project(&Rel::new(oracle.schema, oracle.rows), &names);
            assert_eq!(expected.len(), 300, "{kind}: every order has a match");
            for t in techniques {
                if cached && t != Technique::Probe {
                    continue; // caching is Figure 6's probe row only
                }
                if let Some(m) = run(&catalog, join, t, 8).unwrap() {
                    assert_eq!(project(&m.rel, &names), expected, "{kind} {t:?}");
                    cells += 1;
                }
            }
        }
        assert_eq!(cells, 14, "Figure 6 has 14 applicable cells");
    }

    /// 200 orders over 20 customers; 1 000 customers at site 1, indexed
    /// on the key.
    fn scenario(network: NetworkModel) -> Arc<Catalog> {
        let orders = TableBuilder::new("Orders")
            .column("cust", DataType::Int)
            .column("amount", DataType::Int)
            .rows((0..200i64).map(|i| vec![(i % 20).into(), i.into()]))
            .build()
            .unwrap();
        let mut customers = TableBuilder::new("Customers")
            .column("cust", DataType::Int)
            .column("region", DataType::Int)
            .rows((0..1000i64).map(|i| vec![i.into(), (i % 7).into()]))
            .build()
            .unwrap();
        customers.create_hash_index(0).unwrap();
        Arc::new(two_site(orders, customers, network))
    }

    fn strategy(catalog: &Arc<Catalog>, t: Technique) -> Measured {
        run(catalog, JOIN, t, DEFAULT_MEMORY_PAGES)
            .unwrap()
            .expect("applies to a remote table")
    }

    #[test]
    fn all_strategies_agree_on_result() {
        let s = scenario(NetworkModel::lan());
        let oracle = Database::with_catalog((*s).clone()).run_logical(&JOIN.logical());
        let expected = sorted(oracle.unwrap().rows);
        assert_eq!(expected.len(), 200);
        for t in [
            Technique::Full,
            Technique::Probe,
            Technique::FilterJoin,
            Technique::lossy_for(200),
        ] {
            assert_eq!(
                sorted(strategy(&s, t).rel.rows.into_vec()),
                expected,
                "{t:?}"
            );
        }
    }

    #[test]
    fn semi_join_ships_less_than_fetch_inner_when_selective() {
        // Only 20 of 1000 customers are referenced: the filter set is
        // tiny and the semi-join ships far fewer bytes.
        let s = scenario(NetworkModel::wan());
        let fetch = strategy(&s, Technique::Full);
        let semi = strategy(&s, Technique::FilterJoin);
        assert!(
            semi.ledger.bytes_shipped * 5 < fetch.ledger.bytes_shipped,
            "semi {} vs fetch {}",
            semi.ledger.bytes_shipped,
            fetch.ledger.bytes_shipped
        );
        assert!(semi.cost < fetch.cost, "semi-join wins on a WAN");
    }

    #[test]
    fn fetch_inner_wins_on_free_network() {
        // With free communication, the semi-join's extra local work
        // (second outer scan, distinct projection) makes it lose — the
        // R* critique of SDD-1.
        let s = scenario(NetworkModel::free());
        let fetch = strategy(&s, Technique::Full);
        let semi = strategy(&s, Technique::FilterJoin);
        assert!(fetch.cost <= semi.cost);
    }

    #[test]
    fn fetch_matches_message_count_scales_with_outer() {
        let s = scenario(NetworkModel::lan());
        // 200 probes × 2 messages each (request + response).
        assert_eq!(strategy(&s, Technique::Probe).ledger.messages, 400);
    }

    #[test]
    fn bloom_ships_fixed_size_filter() {
        let s = scenario(NetworkModel::wan());
        let bloom = strategy(&s, Technique::lossy_for(200));
        let semi = strategy(&s, Technique::FilterJoin);
        // The filter goes out in one message and the survivors come back
        // in one; with only 20 distinct keys the exact set is small too.
        assert!(bloom.ledger.messages <= 3);
        assert!(semi.ledger.messages <= 3);
    }

    #[test]
    fn fetch_matches_requires_index() {
        let table = |name: &str| {
            TableBuilder::new(name)
                .column("cust", DataType::Int)
                .row(vec![1.into()])
                .build()
                .unwrap()
        };
        let s = Arc::new(two_site(
            table("Orders"),
            table("Customers"),
            NetworkModel::lan(),
        ));
        assert!(run(&s, JOIN, Technique::Probe, DEFAULT_MEMORY_PAGES).is_err());
    }

    #[test]
    fn scenario_places_tables() {
        let s = scenario(NetworkModel::lan());
        assert!(matches!(
            s.resolve("Orders").unwrap(),
            RelationKind::Base(_)
        ));
        assert!(matches!(
            s.resolve("Customers").unwrap(),
            RelationKind::Remote(_, site) if site == SiteId(1)
        ));
        assert!(s.network().ship_cost(4096) > 0.0);
    }
}
