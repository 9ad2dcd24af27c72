//! Wire encodings of expressions, queries, optimizer-config overrides,
//! requests, replies and the distributed-execution frames.
//!
//! Everything below the frame level is [`fj_storage::codec`]: the
//! cursors (big-endian on the wire), [`CodecError`], values, rows, and
//! the rules that keep every decoder **total** — adversarial bytes yield
//! a typed error, never a panic (DESIGN.md, "Byte formats"). What is
//! wire-specific lives here; expression trees and trace trees are
//! depth-limited ([`MAX_EXPR_DEPTH`]) on both encode and decode, so
//! recursion cannot overflow the stack.

use fj_algebra::{FromItem, JoinQuery, NetworkModel};
use fj_core::QueryResult;
use fj_expr::{BinOp, Expr};
use fj_optimizer::{CostParams, OptimizerConfig, PlanShape};
use fj_runtime::HEALTH_KEYS;
use fj_storage::codec::{self as bytes, decode_rows, encode_rows, narrow, Be};
pub use fj_storage::codec::{decode_value, encode_value, CodecError, MAX_DEPTH as MAX_EXPR_DEPTH};
use fj_storage::{BloomFilter, Column, DataType, Mutation, Schema, SchemaRef, Tuple, Value};
use fj_trace::{OpStats, QueryTrace, TraceNode};
use std::fmt;
use std::sync::Arc;

/// Cursor over a received wire payload.
pub type Reader<'a> = bytes::Reader<'a, Be>;

/// Growable wire payload buffer.
pub type Writer = bytes::Writer<Be>;

// ----------------------------------------------------------- expressions

const EXPR_COLUMN: u8 = 0;
const EXPR_LITERAL: u8 = 1;
const EXPR_BINARY: u8 = 2;
const EXPR_NOT: u8 = 3;
const EXPR_IS_NULL: u8 = 4;

fn binop_to_u8(op: BinOp) -> u8 {
    match op {
        BinOp::Eq => 0,
        BinOp::Ne => 1,
        BinOp::Lt => 2,
        BinOp::Le => 3,
        BinOp::Gt => 4,
        BinOp::Ge => 5,
        BinOp::And => 6,
        BinOp::Or => 7,
        BinOp::Add => 8,
        BinOp::Sub => 9,
        BinOp::Mul => 10,
        BinOp::Div => 11,
        BinOp::Mod => 12,
    }
}

fn binop_from_u8(tag: u8) -> Result<BinOp, CodecError> {
    Ok(match tag {
        0 => BinOp::Eq,
        1 => BinOp::Ne,
        2 => BinOp::Lt,
        3 => BinOp::Le,
        4 => BinOp::Gt,
        5 => BinOp::Ge,
        6 => BinOp::And,
        7 => BinOp::Or,
        8 => BinOp::Add,
        9 => BinOp::Sub,
        10 => BinOp::Mul,
        11 => BinOp::Div,
        12 => BinOp::Mod,
        tag => return Err(CodecError::BadTag { what: "binop", tag }),
    })
}

fn encode_expr_at(w: &mut Writer, e: &Expr, depth: usize) -> Result<(), CodecError> {
    if depth > MAX_EXPR_DEPTH {
        return Err(CodecError::TooDeep);
    }
    match e {
        Expr::Column(name) => {
            w.u8(EXPR_COLUMN);
            w.string(name)?;
        }
        Expr::Literal(v) => {
            w.u8(EXPR_LITERAL);
            encode_value(w, v)?;
        }
        Expr::Binary { op, left, right } => {
            w.u8(EXPR_BINARY);
            w.u8(binop_to_u8(*op));
            encode_expr_at(w, left, depth + 1)?;
            encode_expr_at(w, right, depth + 1)?;
        }
        Expr::Not(inner) => {
            w.u8(EXPR_NOT);
            encode_expr_at(w, inner, depth + 1)?;
        }
        Expr::IsNull(inner) => {
            w.u8(EXPR_IS_NULL);
            encode_expr_at(w, inner, depth + 1)?;
        }
    }
    Ok(())
}

fn decode_expr_at(r: &mut Reader<'_>, depth: usize) -> Result<Expr, CodecError> {
    if depth > MAX_EXPR_DEPTH {
        return Err(CodecError::TooDeep);
    }
    match r.u8()? {
        EXPR_COLUMN => Ok(Expr::Column(r.string()?)),
        EXPR_LITERAL => Ok(Expr::Literal(decode_value(r)?)),
        EXPR_BINARY => Ok(Expr::Binary {
            op: binop_from_u8(r.u8()?)?,
            left: Arc::new(decode_expr_at(r, depth + 1)?),
            right: Arc::new(decode_expr_at(r, depth + 1)?),
        }),
        EXPR_NOT => Ok(Expr::Not(Arc::new(decode_expr_at(r, depth + 1)?))),
        EXPR_IS_NULL => Ok(Expr::IsNull(Arc::new(decode_expr_at(r, depth + 1)?))),
        tag => Err(CodecError::BadTag { what: "expr", tag }),
    }
}

/// Encodes one [`Expr`] (depth-limited).
pub fn encode_expr(w: &mut Writer, e: &Expr) -> Result<(), CodecError> {
    encode_expr_at(w, e, 0)
}

/// Decodes one [`Expr`] (depth-limited).
pub fn decode_expr(r: &mut Reader<'_>) -> Result<Expr, CodecError> {
    decode_expr_at(r, 0)
}

// ---------------------------------------------------------------- queries

/// Encodes a [`JoinQuery`].
pub fn encode_query(w: &mut Writer, q: &JoinQuery) -> Result<(), CodecError> {
    w.list("from items", &q.from, |w, item| {
        w.string(&item.relation)?;
        w.string(&item.alias)
    })?;
    w.option(q.predicate.as_ref(), encode_expr)?;
    w.option(q.projection.as_ref(), |w, sel| {
        w.list("projection", sel, |w, (e, name)| {
            encode_expr(w, e)?;
            w.string(name)
        })
    })
}

/// Decodes a [`JoinQuery`].
pub fn decode_query(r: &mut Reader<'_>) -> Result<JoinQuery, CodecError> {
    Ok(JoinQuery {
        from: r.list(|r| Ok(FromItem::new(r.string()?, r.string()?)))?,
        predicate: r.option("predicate option", decode_expr)?,
        projection: r.option("projection option", |r| {
            r.list(|r| Ok((decode_expr(r)?, r.string()?)))
        })?,
    })
}

// ----------------------------------------------------- optimizer config

/// Encodes an [`OptimizerConfig`] override.
pub fn encode_config(w: &mut Writer, c: &OptimizerConfig) -> Result<(), CodecError> {
    let mut flags = 0u8;
    for (bit, on) in [
        c.enable_filter_join,
        c.enable_bloom,
        c.enable_index_nl,
        c.enable_merge_join,
        c.filter_join_on_base,
        c.allow_prefix_production,
        c.plan_shape == PlanShape::Bushy,
    ]
    .into_iter()
    .enumerate()
    {
        if on {
            flags |= 1 << bit;
        }
    }
    w.u8(flags);
    w.u32(narrow("eq_classes", c.eq_classes)?);
    w.f64(c.params.cpu_weight);
    w.u64(c.params.memory_pages);
    w.f64(c.params.network.per_message);
    w.f64(c.params.network.per_byte);
    Ok(())
}

/// Decodes an [`OptimizerConfig`] override.
pub fn decode_config(r: &mut Reader<'_>) -> Result<OptimizerConfig, CodecError> {
    let flags = r.u8()?;
    if flags >= 1 << 7 {
        return Err(CodecError::BadTag {
            what: "config flags",
            tag: flags,
        });
    }
    let eq_classes = r.u32()? as usize;
    let cpu_weight = r.f64()?;
    let memory_pages = r.u64()?;
    let per_message = r.f64()?;
    let per_byte = r.f64()?;
    Ok(OptimizerConfig {
        enable_filter_join: flags & (1 << 0) != 0,
        enable_bloom: flags & (1 << 1) != 0,
        enable_index_nl: flags & (1 << 2) != 0,
        enable_merge_join: flags & (1 << 3) != 0,
        filter_join_on_base: flags & (1 << 4) != 0,
        allow_prefix_production: flags & (1 << 5) != 0,
        plan_shape: if flags & (1 << 6) != 0 {
            PlanShape::Bushy
        } else {
            PlanShape::LeftDeep
        },
        eq_classes,
        params: CostParams {
            cpu_weight,
            memory_pages,
            network: NetworkModel {
                per_message,
                per_byte,
            },
        },
    })
}

// --------------------------------------------------------------- requests

/// A decoded QUERY request.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// Wall-clock budget in milliseconds measured from server receipt;
    /// 0 = no deadline.
    pub deadline_millis: u64,
    /// Whether the server should execute with per-operator tracing on
    /// and follow the RESULT frame with a TRACE_REPLY frame.
    pub want_trace: bool,
    /// Per-request optimizer override (`None` = the server's default).
    pub config: Option<OptimizerConfig>,
    /// The query itself.
    pub query: JoinQuery,
}

/// Encodes a QUERY request payload.
pub fn encode_request(req: &QueryRequest) -> Result<Vec<u8>, CodecError> {
    let mut w = Writer::new();
    w.u64(req.deadline_millis);
    w.bool(req.want_trace);
    w.option(req.config.as_ref(), encode_config)?;
    encode_query(&mut w, &req.query)?;
    Ok(w.into_bytes())
}

/// Decodes a QUERY request payload (consuming it fully).
pub fn decode_request(payload: &[u8]) -> Result<QueryRequest, CodecError> {
    Reader::decode_all(payload, |r| {
        Ok(QueryRequest {
            deadline_millis: r.u64()?,
            want_trace: r.bool()?,
            config: r.option("config option", decode_config)?,
            query: decode_query(r)?,
        })
    })
}

// -------------------------------------------------------------- mutations

const MUTATION_INSERT: u8 = 0;
const MUTATION_UPDATE: u8 = 1;
const MUTATION_DELETE: u8 = 2;

/// Encodes one [`Mutation`].
pub fn encode_mutation(w: &mut Writer, m: &Mutation) -> Result<(), CodecError> {
    match m {
        Mutation::Insert { table, rows } => {
            w.u8(MUTATION_INSERT);
            w.string(table)?;
            w.list("insert rows", rows, |w, row| {
                w.list("insert row values", row, encode_value)
            })?;
        }
        Mutation::Update {
            table,
            set,
            where_col,
            where_value,
        } => {
            w.u8(MUTATION_UPDATE);
            w.string(table)?;
            w.list("set clauses", set, |w, (col, v)| {
                w.string(col)?;
                encode_value(w, v)
            })?;
            w.string(where_col)?;
            encode_value(w, where_value)?;
        }
        Mutation::Delete {
            table,
            where_col,
            where_value,
        } => {
            w.u8(MUTATION_DELETE);
            w.string(table)?;
            w.string(where_col)?;
            encode_value(w, where_value)?;
        }
    }
    Ok(())
}

/// Decodes one [`Mutation`].
pub fn decode_mutation(r: &mut Reader<'_>) -> Result<Mutation, CodecError> {
    match r.u8()? {
        MUTATION_INSERT => Ok(Mutation::Insert {
            table: r.string()?,
            rows: r.list(|r| r.list(decode_value))?,
        }),
        MUTATION_UPDATE => Ok(Mutation::Update {
            table: r.string()?,
            set: r.list(|r| Ok((r.string()?, decode_value(r)?)))?,
            where_col: r.string()?,
            where_value: decode_value(r)?,
        }),
        MUTATION_DELETE => Ok(Mutation::Delete {
            table: r.string()?,
            where_col: r.string()?,
            where_value: decode_value(r)?,
        }),
        tag => Err(CodecError::BadTag {
            what: "mutation",
            tag,
        }),
    }
}

/// A decoded MUTATE request.
#[derive(Debug, Clone, PartialEq)]
pub struct MutationRequest {
    /// Wall-clock budget in milliseconds measured from server receipt;
    /// 0 = no deadline. A deadline that trips before the WAL commit
    /// cancels the mutation with no state change.
    pub deadline_millis: u64,
    /// The mutation itself.
    pub mutation: Mutation,
}

/// Encodes a MUTATE request payload.
pub fn encode_mutation_request(req: &MutationRequest) -> Result<Vec<u8>, CodecError> {
    let mut w = Writer::new();
    w.u64(req.deadline_millis);
    encode_mutation(&mut w, &req.mutation)?;
    Ok(w.into_bytes())
}

/// Decodes a MUTATE request payload (consuming it fully).
pub fn decode_mutation_request(payload: &[u8]) -> Result<MutationRequest, CodecError> {
    Reader::decode_all(payload, |r| {
        Ok(MutationRequest {
            deadline_millis: r.u64()?,
            mutation: decode_mutation(r)?,
        })
    })
}

/// A MUTATE_REPLY payload: the committed mutation's effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutationReply {
    /// Rows inserted, updated, or deleted.
    pub rows_affected: u64,
    /// The table's row count after the mutation.
    pub row_count: u64,
    /// The table's data version after the mutation (monotone per
    /// relation; plan fingerprints fold it in).
    pub version: u64,
}

/// Encodes a MUTATE_REPLY payload.
pub fn encode_mutation_reply(reply: &MutationReply) -> Result<Vec<u8>, CodecError> {
    let mut w = Writer::new();
    w.u64(reply.rows_affected);
    w.u64(reply.row_count);
    w.u64(reply.version);
    Ok(w.into_bytes())
}

/// Decodes a MUTATE_REPLY payload (consuming it fully).
pub fn decode_mutation_reply(payload: &[u8]) -> Result<MutationReply, CodecError> {
    Reader::decode_all(payload, |r| {
        Ok(MutationReply {
            rows_affected: r.u64()?,
            row_count: r.u64()?,
            version: r.u64()?,
        })
    })
}

// ---------------------------------------------------------------- replies

/// The client-side view of a query result: rows plus the per-query
/// runtime-metrics snapshot fields the server measured.
#[derive(Debug, Clone)]
pub struct QueryReply {
    /// Result schema.
    pub schema: SchemaRef,
    /// Result rows.
    pub rows: Vec<Tuple>,
    /// Ledger charges weighted into one scalar, as measured server-side.
    pub measured_cost: f64,
    /// The optimizer's estimate for the executed plan.
    pub estimated_cost: Option<f64>,
    /// Whether the plan came from the server's plan cache.
    pub cache_hit: bool,
    /// Server-side optimize+execute latency in microseconds.
    pub latency_micros: u64,
    /// Per-operator execution trace. Never part of the RESULT payload
    /// (which stays byte-comparable across replicas); the client fills
    /// this in from the separate TRACE_REPLY frame when it requested
    /// one.
    pub trace: Option<QueryTrace>,
}

fn datatype_to_u8(t: DataType) -> u8 {
    match t {
        DataType::Int => 0,
        DataType::Double => 1,
        DataType::Str => 2,
        DataType::Bool => 3,
    }
}

fn datatype_from_u8(tag: u8) -> Result<DataType, CodecError> {
    Ok(match tag {
        0 => DataType::Int,
        1 => DataType::Double,
        2 => DataType::Str,
        3 => DataType::Bool,
        tag => {
            return Err(CodecError::BadTag {
                what: "data type",
                tag,
            })
        }
    })
}

/// Encodes a schema as (count, [name, type byte, nullable]...).
fn encode_schema(w: &mut Writer, schema: &Schema) -> Result<(), CodecError> {
    w.list("columns", schema.columns(), |w, col| {
        w.string(&col.name)?;
        w.u8(datatype_to_u8(col.data_type));
        w.bool(col.nullable);
        Ok(())
    })
}

fn decode_schema(r: &mut Reader<'_>) -> Result<SchemaRef, CodecError> {
    let columns = r.list(|r| {
        let name = r.string()?;
        let data_type = datatype_from_u8(r.u8()?)?;
        Ok(if r.bool()? {
            Column::nullable(name, data_type)
        } else {
            Column::new(name, data_type)
        })
    })?;
    Ok(Schema::new(columns)
        .map_err(|e| CodecError::Invalid(format!("bad schema: {e}")))?
        .into_ref())
}

/// Encodes a RESULT payload from its constituent parts.
pub fn encode_reply_parts(
    schema: &Schema,
    rows: &[Tuple],
    measured_cost: f64,
    estimated_cost: Option<f64>,
    cache_hit: bool,
    latency_micros: u64,
) -> Result<Vec<u8>, CodecError> {
    let mut w = Writer::new();
    encode_schema(&mut w, schema)?;
    encode_rows(&mut w, schema.arity(), rows)?;
    w.f64(measured_cost);
    w.option(estimated_cost.as_ref(), |w, c| {
        w.f64(*c);
        Ok(())
    })?;
    w.bool(cache_hit);
    w.u64(latency_micros);
    Ok(w.into_bytes())
}

/// Encodes a RESULT payload from an executed [`QueryResult`].
pub fn encode_reply(result: &QueryResult) -> Result<Vec<u8>, CodecError> {
    encode_reply_parts(
        &result.schema,
        &result.rows,
        result.measured_cost,
        result.estimated_cost,
        result.cache_hit,
        result.latency_micros,
    )
}

/// Decodes a RESULT payload (consuming it fully).
pub fn decode_reply(payload: &[u8]) -> Result<QueryReply, CodecError> {
    Reader::decode_all(payload, |r| {
        let schema = decode_schema(r)?;
        Ok(QueryReply {
            rows: decode_rows(r, schema.arity())?,
            schema,
            measured_cost: r.f64()?,
            estimated_cost: r.option("estimate option", |r| r.f64())?,
            cache_hit: r.bool()?,
            latency_micros: r.u64()?,
            trace: None,
        })
    })
}

// ----------------------------------------------------------------- errors

/// Encodes an ERROR payload.
pub fn encode_error(code: crate::wire::ErrorCode, message: &str) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(code as u8);
    // Error messages are bounded so the error path itself can never
    // overflow a frame; back off to a char boundary when truncating.
    let msg = if message.len() > 4096 {
        let mut end = 4096;
        while !message.is_char_boundary(end) {
            end -= 1;
        }
        &message[..end]
    } else {
        message
    };
    w.string(msg).expect("truncated message fits in u32");
    w.into_bytes()
}

/// Decodes an ERROR payload.
pub fn decode_error(payload: &[u8]) -> Result<(crate::wire::ErrorCode, String), CodecError> {
    Reader::decode_all(payload, |r| {
        let tag = r.u8()?;
        let code = crate::wire::ErrorCode::from_u8(tag).ok_or(CodecError::BadTag {
            what: "error code",
            tag,
        })?;
        Ok((code, r.string()?))
    })
}

/// Encodes a STATS_REPLY payload: one JSON string.
pub fn encode_stats_reply(json: &str) -> Result<Vec<u8>, CodecError> {
    let mut w = Writer::new();
    w.string(json)?;
    Ok(w.into_bytes())
}

/// Decodes a STATS_REPLY payload.
pub fn decode_stats_reply(payload: &[u8]) -> Result<String, CodecError> {
    Reader::decode_all(payload, |r| r.string())
}

// ----------------------------------------------------------------- health

/// A replica's readiness classification, as reported in HEALTH replies.
///
/// The router contract: `Ready` and `Degraded` replicas accept new
/// queries (`Degraded` is deprioritized), `Draining` replicas finish
/// accepted work but refuse new queries, and a replica that cannot be
/// reached at all is *dead* — a state the replica cannot report, which
/// is why it is not a variant here. The discriminant is the status
/// byte of a HEALTH_REPLY.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum HealthStatus {
    /// Full pool strength, queue below capacity, accepting work.
    Ready = 0,
    /// Accepting work, but the pool has replaced workers after panics
    /// or the submission queue is at capacity (sheds likely).
    Degraded = 1,
    /// Finishing accepted work; new queries are refused with
    /// [`crate::wire::ErrorCode::ShuttingDown`].
    Draining = 2,
}

impl HealthStatus {
    /// The status word STATS reports.
    pub fn as_str(self) -> &'static str {
        match self {
            HealthStatus::Ready => "ready",
            HealthStatus::Degraded => "degraded",
            HealthStatus::Draining => "draining",
        }
    }
}

impl fmt::Display for HealthStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One replica's health report: the HEALTH reply payload. On the wire
/// it is the status byte followed by one `u64` per [`HEALTH_KEYS`]
/// entry, in that order; operators read the same counters, named, in
/// STATS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// Readiness classification (see [`HealthStatus`]).
    pub status: HealthStatus,
    /// One value per [`HEALTH_KEYS`] entry, in that order.
    counters: [u64; HEALTH_KEYS.len()],
}

impl HealthSnapshot {
    /// A snapshot with `value(key)` as the counter for each of
    /// [`HEALTH_KEYS`].
    pub fn new(status: HealthStatus, value: impl FnMut(&'static str) -> u64) -> HealthSnapshot {
        HealthSnapshot {
            status,
            counters: HEALTH_KEYS.map(value),
        }
    }

    /// The counter reported as `name`; `None` when HEALTH carries no
    /// such key.
    pub fn get(&self, name: &str) -> Option<u64> {
        let slot = HEALTH_KEYS.iter().position(|k| *k == name)?;
        Some(self.counters[slot])
    }
}

/// Encodes a HEALTH_REPLY payload: `[status u8][u64; HEALTH_KEYS.len()]`.
pub fn encode_health_reply(health: &HealthSnapshot) -> Result<Vec<u8>, CodecError> {
    let mut w = Writer::new();
    w.u8(health.status as u8);
    for v in health.counters {
        w.u64(v);
    }
    Ok(w.into_bytes())
}

/// Decodes a HEALTH_REPLY payload (consuming it fully).
pub fn decode_health_reply(payload: &[u8]) -> Result<HealthSnapshot, CodecError> {
    Reader::decode_all(payload, |r| {
        let tag = r.u8()?;
        let status = [
            HealthStatus::Ready,
            HealthStatus::Degraded,
            HealthStatus::Draining,
        ]
        .into_iter()
        .find(|s| *s as u8 == tag)
        .ok_or(CodecError::BadTag {
            what: "health status",
            tag,
        })?;
        let mut counters = [0; HEALTH_KEYS.len()];
        for v in &mut counters {
            *v = r.u64()?;
        }
        Ok(HealthSnapshot { status, counters })
    })
}

// ------------------------------------------------------------------ traces

fn encode_trace_node(w: &mut Writer, node: &TraceNode, depth: usize) -> Result<(), CodecError> {
    if depth >= MAX_EXPR_DEPTH {
        return Err(CodecError::TooDeep);
    }
    w.string(&node.stats.label)?;
    for v in node.stats.counters() {
        w.u64(v);
    }
    w.list("trace children", &node.children, |w, child| {
        encode_trace_node(w, child, depth + 1)
    })
}

fn decode_trace_node(r: &mut Reader<'_>, depth: usize) -> Result<TraceNode, CodecError> {
    if depth >= MAX_EXPR_DEPTH {
        return Err(CodecError::TooDeep);
    }
    let label = r.string()?;
    let mut counters = [0; 11];
    for v in &mut counters {
        *v = r.u64()?;
    }
    Ok(TraceNode {
        stats: OpStats::from_counters(label, counters),
        children: r.list(|r| decode_trace_node(r, depth + 1))?,
    })
}

/// Encodes a TRACE_REPLY payload: `total_wall_micros`, then the root
/// node. A node is its label, the eleven [`OpStats::counters`] and its
/// children as a list; a tree more than [`MAX_EXPR_DEPTH`] levels deep
/// is [`CodecError::TooDeep`].
pub fn encode_trace_reply(trace: &QueryTrace) -> Result<Vec<u8>, CodecError> {
    let mut w = Writer::new();
    w.u64(trace.total_wall_micros);
    encode_trace_node(&mut w, &trace.root, 0)?;
    Ok(w.into_bytes())
}

/// Decodes a TRACE_REPLY payload (consuming it fully; depth-limited
/// like the encoder).
pub fn decode_trace_reply(payload: &[u8]) -> Result<QueryTrace, CodecError> {
    Reader::decode_all(payload, |r| {
        Ok(QueryTrace {
            total_wall_micros: r.u64()?,
            root: decode_trace_node(r, 0)?,
        })
    })
}

// ------------------------------------------------- distributed execution

/// A SCATTER payload: one hash partition of a base table, to be
/// installed into the receiving shard's catalog under `table`.
#[derive(Debug, Clone)]
pub struct ScatterRequest {
    /// Shard-local name for the partition table (e.g. `orders__p2`).
    pub table: String,
    /// The partition's schema (the base schema plus the coordinator's
    /// hidden row-ordinal column).
    pub schema: SchemaRef,
    /// The partition's rows.
    pub rows: Vec<Tuple>,
}

/// A SCATTER_ACK payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScatterAck {
    /// Rows installed on the shard.
    pub rows_stored: u64,
    /// Their total wire width in bytes.
    pub bytes_stored: u64,
}

/// Encodes a SCATTER payload.
pub fn encode_scatter(req: &ScatterRequest) -> Result<Vec<u8>, CodecError> {
    let mut w = Writer::new();
    w.string(&req.table)?;
    encode_schema(&mut w, &req.schema)?;
    encode_rows(&mut w, req.schema.arity(), &req.rows)?;
    Ok(w.into_bytes())
}

/// Decodes a SCATTER payload (consuming it fully).
pub fn decode_scatter(payload: &[u8]) -> Result<ScatterRequest, CodecError> {
    Reader::decode_all(payload, |r| {
        let table = r.string()?;
        let schema = decode_schema(r)?;
        Ok(ScatterRequest {
            table,
            rows: decode_rows(r, schema.arity())?,
            schema,
        })
    })
}

/// Encodes a SCATTER_ACK payload.
pub fn encode_scatter_ack(ack: &ScatterAck) -> Result<Vec<u8>, CodecError> {
    let mut w = Writer::new();
    w.u64(ack.rows_stored);
    w.u64(ack.bytes_stored);
    Ok(w.into_bytes())
}

/// Decodes a SCATTER_ACK payload (consuming it fully).
pub fn decode_scatter_ack(payload: &[u8]) -> Result<ScatterAck, CodecError> {
    Reader::decode_all(payload, |r| {
        Ok(ScatterAck {
            rows_stored: r.u64()?,
            bytes_stored: r.u64()?,
        })
    })
}

/// A filter set shipped to a shard — the paper's exact vs lossy
/// representations (§3.2): an exact key list, or a Bloom filter whose
/// false positives cost shipped bytes but never correctness.
#[derive(Debug, Clone)]
pub enum KeyFilter {
    /// The exact distinct key set.
    Exact(Vec<Value>),
    /// A lossy Bloom representation of the key set.
    Bloom(BloomFilter),
}

impl KeyFilter {
    /// Membership test; `Bloom` may return false positives, never
    /// false negatives.
    pub fn contains(&self, v: &Value) -> bool {
        match self {
            KeyFilter::Exact(keys) => keys.contains(v),
            KeyFilter::Bloom(f) => f.contains(v),
        }
    }
}

impl PartialEq for KeyFilter {
    fn eq(&self, other: &KeyFilter) -> bool {
        match (self, other) {
            (KeyFilter::Exact(a), KeyFilter::Exact(b)) => a == b,
            (KeyFilter::Bloom(a), KeyFilter::Bloom(b)) => {
                a.words() == b.words()
                    && a.n_bits() == b.n_bits()
                    && a.n_hashes() == b.n_hashes()
                    && a.inserted() == b.inserted()
            }
            _ => false,
        }
    }
}

fn encode_key_filter(w: &mut Writer, f: &KeyFilter) -> Result<(), CodecError> {
    match f {
        KeyFilter::Exact(keys) => {
            w.u8(0);
            w.list("filter keys", keys, encode_value)?;
        }
        KeyFilter::Bloom(bloom) => {
            w.u8(1);
            w.u64(bloom.n_bits());
            w.u8(bloom.n_hashes() as u8);
            w.u64(bloom.inserted());
            for word in bloom.words() {
                w.u64(*word);
            }
        }
    }
    Ok(())
}

fn decode_key_filter(r: &mut Reader<'_>) -> Result<KeyFilter, CodecError> {
    match r.u8()? {
        0 => Ok(KeyFilter::Exact(r.list(decode_value)?)),
        1 => {
            let n_bits = r.u64()?;
            let n_hashes = u32::from(r.u8()?);
            let inserted = r.u64()?;
            // Validate geometry *before* allocating word storage, so a
            // lying n_bits cannot demand 2^61 words.
            if n_bits == 0 || n_bits % 64 != 0 || n_bits > fj_storage::bloom::MAX_BLOOM_BITS {
                return Err(CodecError::TooLarge {
                    what: "bloom bits",
                    len: n_bits,
                });
            }
            let n_words = (n_bits / 64) as usize;
            if r.remaining() < n_words * 8 {
                return Err(CodecError::UnexpectedEof);
            }
            let mut words = Vec::with_capacity(n_words);
            for _ in 0..n_words {
                words.push(r.u64()?);
            }
            let bloom = BloomFilter::from_parts(words, n_bits, n_hashes, inserted).ok_or(
                CodecError::BadTag {
                    what: "bloom hash count",
                    tag: n_hashes as u8,
                },
            )?;
            Ok(KeyFilter::Bloom(bloom))
        }
        tag => Err(CodecError::BadTag {
            what: "key filter",
            tag,
        }),
    }
}

/// A SEMIJOIN payload: reduce shard-resident `table` by the conjunction
/// of the shipped per-column filters, then report what the coordinator
/// asked for — surviving rows, distinct keys of one column, or both
/// (the SDD-1 reducer building block).
#[derive(Debug, Clone, PartialEq)]
pub struct SemijoinRequest {
    /// Shard-local table to reduce.
    pub table: String,
    /// `(column name, filter)` pairs; a row survives if every filter
    /// accepts its value in that column. Empty = no reduction.
    pub filters: Vec<(String, KeyFilter)>,
    /// Return the surviving rows.
    pub want_rows: bool,
    /// Return the distinct values of this column among survivors.
    pub keys_of: Option<String>,
}

/// A SEMIJOIN_ACK payload.
#[derive(Debug, Clone)]
pub struct SemijoinAck {
    /// Partition rows before reduction.
    pub rows_before: u64,
    /// Rows surviving all filters.
    pub rows_after: u64,
    /// Surviving rows, when requested.
    pub rows: Option<(SchemaRef, Vec<Tuple>)>,
    /// Distinct surviving keys, when requested.
    pub keys: Option<Vec<Value>>,
}

/// Encodes a SEMIJOIN payload.
pub fn encode_semijoin(req: &SemijoinRequest) -> Result<Vec<u8>, CodecError> {
    let mut w = Writer::new();
    w.string(&req.table)?;
    w.list("filters", &req.filters, |w, (column, filter)| {
        w.string(column)?;
        encode_key_filter(w, filter)
    })?;
    w.bool(req.want_rows);
    w.option(req.keys_of.as_deref(), |w, col| w.string(col))?;
    Ok(w.into_bytes())
}

/// Decodes a SEMIJOIN payload (consuming it fully).
pub fn decode_semijoin(payload: &[u8]) -> Result<SemijoinRequest, CodecError> {
    Reader::decode_all(payload, |r| {
        Ok(SemijoinRequest {
            table: r.string()?,
            filters: r.list(|r| Ok((r.string()?, decode_key_filter(r)?)))?,
            want_rows: r.bool()?,
            keys_of: r.option("keys_of option", |r| r.string())?,
        })
    })
}

/// Encodes a SEMIJOIN_ACK payload.
pub fn encode_semijoin_ack(ack: &SemijoinAck) -> Result<Vec<u8>, CodecError> {
    let mut w = Writer::new();
    w.u64(ack.rows_before);
    w.u64(ack.rows_after);
    w.option(ack.rows.as_ref(), |w, (schema, rows)| {
        encode_schema(w, schema)?;
        encode_rows(w, schema.arity(), rows)
    })?;
    w.option(ack.keys.as_ref(), |w, keys| {
        w.list("keys", keys, encode_value)
    })?;
    Ok(w.into_bytes())
}

/// Decodes a SEMIJOIN_ACK payload (consuming it fully).
pub fn decode_semijoin_ack(payload: &[u8]) -> Result<SemijoinAck, CodecError> {
    Reader::decode_all(payload, |r| {
        Ok(SemijoinAck {
            rows_before: r.u64()?,
            rows_after: r.u64()?,
            rows: r.option("rows option", |r| {
                let schema = decode_schema(r)?;
                let rows = decode_rows(r, schema.arity())?;
                Ok((schema, rows))
            })?,
            keys: r.option("keys option", |r| r.list(decode_value))?,
        })
    })
}

/// A FRAGMENT payload: one query fragment to run through the shard's
/// query service, with the same deadline semantics as a QUERY frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FragmentRequest {
    /// Milliseconds the coordinator will wait; 0 = no deadline.
    pub deadline_millis: u64,
    /// The fragment, phrased over shard-local partition tables.
    pub query: JoinQuery,
}

/// Encodes a FRAGMENT payload.
pub fn encode_fragment(req: &FragmentRequest) -> Result<Vec<u8>, CodecError> {
    let mut w = Writer::new();
    w.u64(req.deadline_millis);
    encode_query(&mut w, &req.query)?;
    Ok(w.into_bytes())
}

/// Decodes a FRAGMENT payload (consuming it fully).
pub fn decode_fragment(payload: &[u8]) -> Result<FragmentRequest, CodecError> {
    Reader::decode_all(payload, |r| {
        Ok(FragmentRequest {
            deadline_millis: r.u64()?,
            query: decode_query(r)?,
        })
    })
}

/// A GATHER payload: one fragment's partial result.
#[derive(Debug, Clone)]
pub struct GatherReply {
    /// Fragment result schema.
    pub schema: SchemaRef,
    /// Fragment result rows.
    pub rows: Vec<Tuple>,
    /// Shard-side fragment latency in microseconds.
    pub latency_micros: u64,
}

/// Encodes a GATHER payload.
pub fn encode_gather(reply: &GatherReply) -> Result<Vec<u8>, CodecError> {
    let mut w = Writer::new();
    encode_schema(&mut w, &reply.schema)?;
    encode_rows(&mut w, reply.schema.arity(), &reply.rows)?;
    w.u64(reply.latency_micros);
    Ok(w.into_bytes())
}

/// Decodes a GATHER payload (consuming it fully).
pub fn decode_gather(payload: &[u8]) -> Result<GatherReply, CodecError> {
    Reader::decode_all(payload, |r| {
        let schema = decode_schema(r)?;
        Ok(GatherReply {
            rows: decode_rows(r, schema.arity())?,
            schema,
            latency_micros: r.u64()?,
        })
    })
}
