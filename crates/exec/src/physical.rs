//! The physical plan algebra and its interpreter.
//!
//! Every node's `execute` returns a fully evaluated [`Rel`]: a schema
//! plus [`Rows`], which a base or temp scan hands out as the table's own
//! row vector (shared, one reference-count bump per scan) and every
//! other operator as a vector it owns. Operators read either kind
//! through `&[Tuple]`; those that pass input rows along keep them with
//! [`Rows::keep`] (moving an owned input's survivors, cloning only a
//! shared input's), and those that must own their input take
//! [`Rows::into_vec`]. Rows flowing between operators model
//! *pipelining* and are not charged as I/O; only scans, explicit
//! materializations ([`TempStep::Materialize`]), and the
//! formula-mandated rescan/partition traffic of the join algorithms
//! charge pages. This makes measured ledger charges match the System-R
//! cost formulas the optimizer uses.

use crate::context::ExecCtx;
use crate::error::ExecError;
use crate::ops;
use fj_algebra::{JoinKind, SiteId};
use fj_expr::{AggCall, Expr};
use fj_storage::{Schema, SchemaRef, Tuple, Value};
use fj_trace::SubtreeIo;
use std::fmt::Write as _;
use std::sync::Arc;

/// A relation's rows: a vector the relation owns, or a stored table's
/// row vector shared with it. Both deref to `&[Tuple]`; consuming them
/// goes through [`Rows::keep`] or [`Rows::into_vec`], so shared rows
/// are copied only where an operator must own them.
#[derive(Debug, Clone)]
pub enum Rows {
    /// Rows built for (or moved into) this relation.
    Owned(Vec<Tuple>),
    /// A base or temp table's row vector, handed out by its scan.
    Shared(Arc<Vec<Tuple>>),
}

impl Rows {
    /// The rows `keep` accepts, in order. An owned input's survivors are
    /// moved out; a shared input's are cloned, so only the rows kept
    /// cost a reference-count bump. `keep` sees each row's position too
    /// (for interrupt polls) and may fail, which stops the pass.
    pub fn keep(
        self,
        mut keep: impl FnMut(usize, &Tuple) -> Result<bool, ExecError>,
    ) -> Result<Vec<Tuple>, ExecError> {
        let mut out = Vec::new();
        match self {
            Rows::Owned(rows) => {
                for (n, t) in rows.into_iter().enumerate() {
                    if keep(n, &t)? {
                        out.push(t);
                    }
                }
            }
            Rows::Shared(rows) => {
                for (n, t) in rows.iter().enumerate() {
                    if keep(n, t)? {
                        out.push(t.clone());
                    }
                }
            }
        }
        Ok(out)
    }

    /// The rows as an owned vector: free for owned rows, one clone per
    /// row of a shared vector that is still shared.
    pub fn into_vec(self) -> Vec<Tuple> {
        match self {
            Rows::Owned(rows) => rows,
            Rows::Shared(rows) => Arc::unwrap_or_clone(rows),
        }
    }

    /// The rows as a shared vector, without copying either kind.
    pub(crate) fn into_shared(self) -> Arc<Vec<Tuple>> {
        match self {
            Rows::Owned(rows) => Arc::new(rows),
            Rows::Shared(rows) => rows,
        }
    }
}

impl std::ops::Deref for Rows {
    type Target = [Tuple];

    fn deref(&self) -> &[Tuple] {
        match self {
            Rows::Owned(rows) => rows,
            Rows::Shared(rows) => rows,
        }
    }
}

impl<'a> IntoIterator for &'a Rows {
    type Item = &'a Tuple;
    type IntoIter = std::slice::Iter<'a, Tuple>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl From<Vec<Tuple>> for Rows {
    fn from(rows: Vec<Tuple>) -> Rows {
        Rows::Owned(rows)
    }
}

impl PartialEq for Rows {
    fn eq(&self, other: &Rows) -> bool {
        **self == **other
    }
}

impl PartialEq<Vec<Tuple>> for Rows {
    fn eq(&self, other: &Vec<Tuple>) -> bool {
        **self == **other
    }
}

/// An evaluated relation: runtime schema plus rows.
#[derive(Debug, Clone)]
pub struct Rel {
    /// Runtime schema of the rows.
    pub schema: SchemaRef,
    /// The tuples, owned or shared with a stored table.
    pub rows: Rows,
}

impl Rel {
    /// Builds a relation that owns its rows.
    pub fn new(schema: SchemaRef, rows: Vec<Tuple>) -> Rel {
        Rel {
            schema,
            rows: Rows::Owned(rows),
        }
    }

    /// Builds a relation over a stored table's row vector.
    pub fn shared(schema: SchemaRef, rows: Arc<Vec<Tuple>>) -> Rel {
        Rel {
            schema,
            rows: Rows::Shared(rows),
        }
    }

    /// Pages this relation would occupy if materialized.
    pub fn page_count(&self) -> u64 {
        fj_storage::PageLayout::for_schema(&self.schema).pages(self.rows.len() as u64)
    }
}

/// A preparatory step of a [`PhysPlan::WithTemp`] node.
#[derive(Debug, Clone, PartialEq)]
pub enum TempStep {
    /// Evaluate `plan` and register its result as temp table `name`
    /// (charging materialization page writes).
    Materialize {
        /// Temp table name.
        name: String,
        /// Producing plan.
        plan: PhysPlan,
    },
    /// Evaluate `plan` and build a Bloom filter over `key_cols`,
    /// registered under `name` — the *lossy filter set*.
    BuildBloom {
        /// Bloom filter name.
        name: String,
        /// Producing plan.
        plan: PhysPlan,
        /// Key columns (resolved against the plan's output schema).
        key_cols: Vec<String>,
        /// Filter size in bits.
        bits: u64,
        /// Hash function count.
        hashes: u32,
        /// When the filter will be consumed at another site, the
        /// (from, to) pair — building then charges one message of the
        /// filter's byte size (the fixed-size shipment that motivates
        /// Bloom filters in SDD-1-style semi-joins, §5.1).
        ship: Option<(SiteId, SiteId)>,
    },
}

/// A physical plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysPlan {
    /// Scan a base table (local or remote; shipping is explicit via
    /// [`PhysPlan::Ship`]).
    SeqScan {
        /// Catalog table name.
        table: String,
        /// Alias qualifying output columns (empty keeps base names).
        alias: String,
    },
    /// Ordered full scan of a base table via its B-tree index on `col`;
    /// output is sorted by that column — the interesting-orders access
    /// path.
    IndexOrderedScan {
        /// Catalog table name.
        table: String,
        /// Alias.
        alias: String,
        /// Indexed column (unqualified name).
        col: String,
    },
    /// Scan a registered temp table.
    TempScan {
        /// Temp table name.
        name: String,
        /// Alias (empty keeps the temp's column names).
        alias: String,
    },
    /// Literal rows.
    Values {
        /// Schema of the rows.
        schema: SchemaRef,
        /// Row values.
        rows: Vec<Vec<Value>>,
    },
    /// Enumerate a user-defined relation's full extension (requires a
    /// finite domain) — the *full computation* strategy for UDFs.
    UdfFullScan {
        /// Catalog UDF name.
        udf: String,
        /// Alias.
        alias: String,
    },
    /// Repeated-probe join against a user-defined relation: invoke the
    /// function once per outer row with arguments taken from
    /// `arg_cols`. Output schema = outer ⊕ udf (qualified by `alias`).
    UdfProbe {
        /// Outer input.
        outer: Box<PhysPlan>,
        /// Catalog UDF name.
        udf: String,
        /// Alias for the UDF columns.
        alias: String,
        /// Outer columns supplying the UDF arguments, in order.
        arg_cols: Vec<String>,
    },
    /// Filter by predicate.
    Filter {
        /// Input.
        input: Box<PhysPlan>,
        /// Predicate.
        predicate: Expr,
    },
    /// Compute expressions.
    Project {
        /// Input.
        input: Box<PhysPlan>,
        /// (expression, output name) pairs.
        exprs: Vec<(Expr, String)>,
    },
    /// Sort ascending by key columns (charges external-sort I/O when the
    /// input exceeds buffer memory).
    Sort {
        /// Input.
        input: Box<PhysPlan>,
        /// Key column names.
        keys: Vec<String>,
    },
    /// Hash-based duplicate elimination.
    Distinct {
        /// Input.
        input: Box<PhysPlan>,
    },
    /// Hash aggregation.
    HashAggregate {
        /// Input.
        input: Box<PhysPlan>,
        /// Grouping columns.
        group_by: Vec<String>,
        /// Aggregate calls.
        aggs: Vec<AggCall>,
    },
    /// Block nested-loops join; charges
    /// `⌈P_outer/(M−2)⌉·P_inner` rescan I/O beyond the children's own
    /// production cost.
    NestedLoops {
        /// Outer input.
        outer: Box<PhysPlan>,
        /// Inner input.
        inner: Box<PhysPlan>,
        /// Join predicate (`None` = cross product).
        predicate: Option<Expr>,
        /// Inner or semi.
        kind: JoinKind,
    },
    /// Index nested-loops join: probe `table`'s index on `inner_col`
    /// with each outer row's `outer_key` value — the *repeated probe*
    /// strategy for stored relations.
    IndexNestedLoops {
        /// Outer input.
        outer: Box<PhysPlan>,
        /// Inner base table (must have an index on `inner_col`).
        table: String,
        /// Alias for inner columns.
        alias: String,
        /// Outer key column name.
        outer_key: String,
        /// Inner indexed column (unqualified name).
        inner_col: String,
        /// Residual predicate applied to joined rows.
        residual: Option<Expr>,
    },
    /// Hash join: build on `inner`, probe with `outer`. Charges Grace
    /// partition I/O when the build side exceeds memory.
    HashJoin {
        /// Probe side.
        outer: Box<PhysPlan>,
        /// Build side.
        inner: Box<PhysPlan>,
        /// Equi-join keys: (outer column, inner column).
        keys: Vec<(String, String)>,
        /// Residual predicate applied to joined rows.
        residual: Option<Expr>,
        /// Inner or semi.
        kind: JoinKind,
    },
    /// Sort-merge join (sorts both inputs internally, charging sort
    /// I/O).
    MergeJoin {
        /// Left input.
        outer: Box<PhysPlan>,
        /// Right input.
        inner: Box<PhysPlan>,
        /// Equi-join keys: (outer column, inner column).
        keys: Vec<(String, String)>,
        /// Residual predicate.
        residual: Option<Expr>,
    },
    /// Drop input rows whose key is definitely absent from a registered
    /// Bloom filter — the lossy filter set (§3.2, Figure 6 bottom row).
    BloomProbe {
        /// Input.
        input: Box<PhysPlan>,
        /// Registered Bloom filter name.
        bloom: String,
        /// Key columns checked against the filter (hashed per-column in
        /// order; multi-column keys fold).
        key_cols: Vec<String>,
    },
    /// Ship the input's rows from one site to another, charging network
    /// bytes + one message (free when `from == to`).
    Ship {
        /// Input.
        input: Box<PhysPlan>,
        /// Producing site.
        from: SiteId,
        /// Consuming site.
        to: SiteId,
    },
    /// Run preparatory steps (materializations / Bloom builds), then the
    /// body; temps are dropped afterwards.
    WithTemp {
        /// Steps, in order.
        steps: Vec<TempStep>,
        /// Main plan.
        body: Box<PhysPlan>,
    },
}

impl PhysPlan {
    /// Boxes the plan.
    pub fn boxed(self) -> Box<PhysPlan> {
        Box::new(self)
    }

    /// Executes the plan, charging the context's ledger.
    ///
    /// Governor hook: the interrupt flag is polled at every plan-node
    /// entry (operators additionally poll inside their tuple loops at
    /// `INTERRUPT_CHECK_INTERVAL`).
    pub fn execute(&self, ctx: &ExecCtx) -> Result<Rel, ExecError> {
        let Some(tracer) = ctx.tracer.as_ref() else {
            // Tracing off: the zero-cost fast path — no label
            // formatting, no ledger snapshots, no clock reads.
            ctx.check_interrupt()?;
            return self.execute_node(ctx);
        };
        let tracer = Arc::clone(tracer);
        let pages_before = ctx.ledger.snapshot().page_reads;
        let pool_before = ctx.pool_probe.as_ref().map(|p| p.read());
        let spill_before = ctx.spill_snapshot();
        tracer.enter(self.node_label());
        // Everything between enter and exit — the entry poll included —
        // is attributed to this node's subtree; exit runs on the error
        // path too, keeping the collector's stack balanced.
        let result = ctx.check_interrupt().and_then(|()| self.execute_node(ctx));
        let mut io = SubtreeIo::pages(
            ctx.ledger
                .snapshot()
                .page_reads
                .saturating_sub(pages_before),
        );
        if let (Some(probe), Some((hits0, misses0))) = (ctx.pool_probe.as_ref(), pool_before) {
            let (hits, misses) = probe.read();
            io.pool_hits = hits.saturating_sub(hits0);
            io.pool_misses = misses.saturating_sub(misses0);
        }
        let spill_now = ctx.spill_snapshot();
        io.spills = spill_now.spills.saturating_sub(spill_before.spills);
        io.spill_pages = (spill_now.pages_written + spill_now.pages_read)
            .saturating_sub(spill_before.pages_written + spill_before.pages_read);
        let rows_out = result.as_ref().map(|r| r.rows.len() as u64).unwrap_or(0);
        tracer.exit(rows_out, io);
        result
    }

    /// The node's one-line EXPLAIN label — the same text
    /// [`PhysPlan::display`] prints for it, and the `op` field of its
    /// trace node.
    pub fn node_label(&self) -> String {
        match self {
            PhysPlan::SeqScan { table, alias } => format!("SeqScan {table} AS {alias}"),
            PhysPlan::IndexOrderedScan { table, alias, col } => {
                format!("IndexOrderedScan {table} AS {alias} (sorted by {col})")
            }
            PhysPlan::TempScan { name, alias } => format!("TempScan {name} AS {alias}"),
            PhysPlan::Values { rows, .. } => format!("Values ({} rows)", rows.len()),
            PhysPlan::UdfFullScan { udf, alias } => format!("UdfFullScan {udf} AS {alias}"),
            PhysPlan::UdfProbe {
                udf,
                alias,
                arg_cols,
                ..
            } => format!("UdfProbe {udf} AS {alias} args=({})", arg_cols.join(", ")),
            PhysPlan::Filter { predicate, .. } => format!("Filter {predicate}"),
            PhysPlan::Project { exprs, .. } => {
                let list = exprs
                    .iter()
                    .map(|(e, n)| format!("{e} AS {n}"))
                    .collect::<Vec<_>>()
                    .join(", ");
                format!("Project {list}")
            }
            PhysPlan::Sort { keys, .. } => format!("Sort by [{}]", keys.join(", ")),
            PhysPlan::Distinct { .. } => "Distinct".to_string(),
            PhysPlan::HashAggregate { group_by, aggs, .. } => {
                let aggs_s = aggs
                    .iter()
                    .map(|a| a.to_string())
                    .collect::<Vec<_>>()
                    .join(", ");
                format!(
                    "HashAggregate group by [{}] compute [{aggs_s}]",
                    group_by.join(", ")
                )
            }
            PhysPlan::NestedLoops {
                predicate, kind, ..
            } => {
                let k = if *kind == JoinKind::Semi { "Semi" } else { "" };
                match predicate {
                    Some(p) => format!("{k}NestedLoopsJoin on {p}"),
                    None => format!("{k}NestedLoopsJoin (cross)"),
                }
            }
            PhysPlan::IndexNestedLoops {
                table,
                alias,
                outer_key,
                inner_col,
                ..
            } => format!(
                "IndexNestedLoopsJoin {table} AS {alias} on {outer_key} = {alias}.{inner_col}"
            ),
            PhysPlan::HashJoin { keys, kind, .. } => {
                let k = if *kind == JoinKind::Semi { "Semi" } else { "" };
                let keys_s = keys
                    .iter()
                    .map(|(a, b)| format!("{a} = {b}"))
                    .collect::<Vec<_>>()
                    .join(" AND ");
                format!("{k}HashJoin on {keys_s}")
            }
            PhysPlan::MergeJoin { keys, .. } => {
                let keys_s = keys
                    .iter()
                    .map(|(a, b)| format!("{a} = {b}"))
                    .collect::<Vec<_>>()
                    .join(" AND ");
                format!("MergeJoin on {keys_s}")
            }
            PhysPlan::BloomProbe {
                bloom, key_cols, ..
            } => format!("BloomProbe {bloom} on [{}]", key_cols.join(", ")),
            PhysPlan::Ship { from, to, .. } => format!("Ship {from} -> {to}"),
            PhysPlan::WithTemp { .. } => "WithTemp".to_string(),
        }
    }

    /// The node's child plans **in execution order** — the order their
    /// trace nodes appear as children: single-input operators list
    /// their input; joins list outer then inner; `WithTemp` lists each
    /// step's plan, then the body. Leaves return an empty list.
    pub fn children(&self) -> Vec<&PhysPlan> {
        match self {
            PhysPlan::SeqScan { .. }
            | PhysPlan::IndexOrderedScan { .. }
            | PhysPlan::TempScan { .. }
            | PhysPlan::Values { .. }
            | PhysPlan::UdfFullScan { .. } => Vec::new(),
            PhysPlan::UdfProbe { outer, .. } => vec![outer],
            PhysPlan::Filter { input, .. }
            | PhysPlan::Project { input, .. }
            | PhysPlan::Sort { input, .. }
            | PhysPlan::Distinct { input }
            | PhysPlan::HashAggregate { input, .. }
            | PhysPlan::BloomProbe { input, .. }
            | PhysPlan::Ship { input, .. } => vec![input],
            PhysPlan::IndexNestedLoops { outer, .. } => vec![outer],
            PhysPlan::NestedLoops { outer, inner, .. }
            | PhysPlan::HashJoin { outer, inner, .. }
            | PhysPlan::MergeJoin { outer, inner, .. } => vec![outer, inner],
            PhysPlan::WithTemp { steps, body } => {
                let mut out: Vec<&PhysPlan> = steps
                    .iter()
                    .map(|s| match s {
                        TempStep::Materialize { plan, .. } => plan,
                        TempStep::BuildBloom { plan, .. } => plan,
                    })
                    .collect();
                out.push(body);
                out
            }
        }
    }

    fn execute_node(&self, ctx: &ExecCtx) -> Result<Rel, ExecError> {
        match self {
            PhysPlan::SeqScan { table, alias } => ops::scan::seq_scan(ctx, table, alias),
            PhysPlan::IndexOrderedScan { table, alias, col } => {
                ops::scan::index_ordered_scan(ctx, table, alias, col)
            }
            PhysPlan::TempScan { name, alias } => ops::scan::temp_scan(ctx, name, alias),
            PhysPlan::Values { schema, rows } => ops::scan::values(schema, rows),
            PhysPlan::UdfFullScan { udf, alias } => ops::scan::udf_full_scan(ctx, udf, alias),
            PhysPlan::UdfProbe {
                outer,
                udf,
                alias,
                arg_cols,
            } => {
                let o = outer.execute(ctx)?;
                ops::joins::udf_probe(ctx, o, udf, alias, arg_cols)
            }
            PhysPlan::Filter { input, predicate } => {
                let r = input.execute(ctx)?;
                ops::filter::filter(ctx, r, predicate)
            }
            PhysPlan::Project { input, exprs } => {
                let r = input.execute(ctx)?;
                ops::filter::project(ctx, r, exprs)
            }
            PhysPlan::Sort { input, keys } => {
                let r = input.execute(ctx)?;
                ops::sort::sort(ctx, r, keys)
            }
            PhysPlan::Distinct { input } => {
                let r = input.execute(ctx)?;
                ops::agg::distinct(ctx, r)
            }
            PhysPlan::HashAggregate {
                input,
                group_by,
                aggs,
            } => {
                let r = input.execute(ctx)?;
                ops::agg::hash_aggregate(ctx, r, group_by, aggs)
            }
            PhysPlan::NestedLoops {
                outer,
                inner,
                predicate,
                kind,
            } => {
                let o = outer.execute(ctx)?;
                let i = inner.execute(ctx)?;
                ops::joins::block_nested_loops(ctx, o, i, predicate.as_ref(), *kind)
            }
            PhysPlan::IndexNestedLoops {
                outer,
                table,
                alias,
                outer_key,
                inner_col,
                residual,
            } => {
                let o = outer.execute(ctx)?;
                ops::joins::index_nested_loops(
                    ctx,
                    o,
                    table,
                    alias,
                    outer_key,
                    inner_col,
                    residual.as_ref(),
                )
            }
            PhysPlan::HashJoin {
                outer,
                inner,
                keys,
                residual,
                kind,
            } => {
                let o = outer.execute(ctx)?;
                let i = inner.execute(ctx)?;
                ops::joins::hash_join(ctx, o, i, keys, residual.as_ref(), *kind)
            }
            PhysPlan::MergeJoin {
                outer,
                inner,
                keys,
                residual,
            } => {
                let o = outer.execute(ctx)?;
                let i = inner.execute(ctx)?;
                ops::joins::merge_join(ctx, o, i, keys, residual.as_ref())
            }
            PhysPlan::BloomProbe {
                input,
                bloom,
                key_cols,
            } => {
                let r = input.execute(ctx)?;
                ops::bloom::bloom_probe(ctx, r, bloom, key_cols)
            }
            PhysPlan::Ship { input, from, to } => {
                let r = input.execute(ctx)?;
                ops::ship::ship(ctx, r, *from, *to)
            }
            PhysPlan::WithTemp { steps, body } => ops::temp::with_temp(ctx, steps, body),
        }
    }

    /// Pretty-prints the physical plan as an indented tree.
    pub fn display(&self) -> String {
        let mut out = String::new();
        self.fmt_tree(&mut out, 0);
        out
    }

    fn fmt_tree(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        match self {
            PhysPlan::SeqScan { table, alias } => {
                let _ = writeln!(out, "{pad}SeqScan {table} AS {alias}");
            }
            PhysPlan::IndexOrderedScan { table, alias, col } => {
                let _ = writeln!(
                    out,
                    "{pad}IndexOrderedScan {table} AS {alias} (sorted by {col})"
                );
            }
            PhysPlan::TempScan { name, alias } => {
                let _ = writeln!(out, "{pad}TempScan {name} AS {alias}");
            }
            PhysPlan::Values { rows, .. } => {
                let _ = writeln!(out, "{pad}Values ({} rows)", rows.len());
            }
            PhysPlan::UdfFullScan { udf, alias } => {
                let _ = writeln!(out, "{pad}UdfFullScan {udf} AS {alias}");
            }
            PhysPlan::UdfProbe {
                outer,
                udf,
                alias,
                arg_cols,
            } => {
                let _ = writeln!(
                    out,
                    "{pad}UdfProbe {udf} AS {alias} args=({})",
                    arg_cols.join(", ")
                );
                outer.fmt_tree(out, depth + 1);
            }
            PhysPlan::Filter { input, predicate } => {
                let _ = writeln!(out, "{pad}Filter {predicate}");
                input.fmt_tree(out, depth + 1);
            }
            PhysPlan::Project { input, exprs } => {
                let list = exprs
                    .iter()
                    .map(|(e, n)| format!("{e} AS {n}"))
                    .collect::<Vec<_>>()
                    .join(", ");
                let _ = writeln!(out, "{pad}Project {list}");
                input.fmt_tree(out, depth + 1);
            }
            PhysPlan::Sort { input, keys } => {
                let _ = writeln!(out, "{pad}Sort by [{}]", keys.join(", "));
                input.fmt_tree(out, depth + 1);
            }
            PhysPlan::Distinct { input } => {
                let _ = writeln!(out, "{pad}Distinct");
                input.fmt_tree(out, depth + 1);
            }
            PhysPlan::HashAggregate {
                input,
                group_by,
                aggs,
            } => {
                let aggs_s = aggs
                    .iter()
                    .map(|a| a.to_string())
                    .collect::<Vec<_>>()
                    .join(", ");
                let _ = writeln!(
                    out,
                    "{pad}HashAggregate group by [{}] compute [{aggs_s}]",
                    group_by.join(", ")
                );
                input.fmt_tree(out, depth + 1);
            }
            PhysPlan::NestedLoops {
                outer,
                inner,
                predicate,
                kind,
            } => {
                let k = if *kind == JoinKind::Semi { "Semi" } else { "" };
                match predicate {
                    Some(p) => {
                        let _ = writeln!(out, "{pad}{k}NestedLoopsJoin on {p}");
                    }
                    None => {
                        let _ = writeln!(out, "{pad}{k}NestedLoopsJoin (cross)");
                    }
                }
                outer.fmt_tree(out, depth + 1);
                inner.fmt_tree(out, depth + 1);
            }
            PhysPlan::IndexNestedLoops {
                outer,
                table,
                alias,
                outer_key,
                inner_col,
                ..
            } => {
                let _ = writeln!(
                    out,
                    "{pad}IndexNestedLoopsJoin {table} AS {alias} on {outer_key} = {alias}.{inner_col}"
                );
                outer.fmt_tree(out, depth + 1);
            }
            PhysPlan::HashJoin {
                outer,
                inner,
                keys,
                kind,
                ..
            } => {
                let k = if *kind == JoinKind::Semi { "Semi" } else { "" };
                let keys_s = keys
                    .iter()
                    .map(|(a, b)| format!("{a} = {b}"))
                    .collect::<Vec<_>>()
                    .join(" AND ");
                let _ = writeln!(out, "{pad}{k}HashJoin on {keys_s}");
                outer.fmt_tree(out, depth + 1);
                inner.fmt_tree(out, depth + 1);
            }
            PhysPlan::MergeJoin {
                outer, inner, keys, ..
            } => {
                let keys_s = keys
                    .iter()
                    .map(|(a, b)| format!("{a} = {b}"))
                    .collect::<Vec<_>>()
                    .join(" AND ");
                let _ = writeln!(out, "{pad}MergeJoin on {keys_s}");
                outer.fmt_tree(out, depth + 1);
                inner.fmt_tree(out, depth + 1);
            }
            PhysPlan::BloomProbe {
                input,
                bloom,
                key_cols,
            } => {
                let _ = writeln!(out, "{pad}BloomProbe {bloom} on [{}]", key_cols.join(", "));
                input.fmt_tree(out, depth + 1);
            }
            PhysPlan::Ship { input, from, to } => {
                let _ = writeln!(out, "{pad}Ship {from} -> {to}");
                input.fmt_tree(out, depth + 1);
            }
            PhysPlan::WithTemp { steps, body } => {
                let _ = writeln!(out, "{pad}WithTemp");
                for s in steps {
                    match s {
                        TempStep::Materialize { name, plan } => {
                            let _ = writeln!(out, "{pad}  Materialize {name}:");
                            plan.fmt_tree(out, depth + 2);
                        }
                        TempStep::BuildBloom {
                            name,
                            plan,
                            key_cols,
                            bits,
                            ..
                        } => {
                            let _ = writeln!(
                                out,
                                "{pad}  BuildBloom {name} ({bits} bits) on [{}]:",
                                key_cols.join(", ")
                            );
                            plan.fmt_tree(out, depth + 2);
                        }
                    }
                }
                let _ = writeln!(out, "{pad}  Body:");
                body.fmt_tree(out, depth + 2);
            }
        }
    }
}

/// Requalifies `schema` under `alias` when the alias is non-empty.
pub(crate) fn maybe_qualify(schema: &Schema, alias: &str) -> SchemaRef {
    if alias.is_empty() {
        Arc::new(schema.clone())
    } else {
        Arc::new(schema.with_qualifier(alias))
    }
}
