//! Hand-rolled binary encoding of values, expressions, queries,
//! optimizer-config overrides, and query replies.
//!
//! Every decoder is **total**: adversarial bytes yield a typed
//! [`CodecError`], never a panic. Three disciplines make that hold:
//!
//! * element counts are never trusted for allocation — vectors grow by
//!   pushing, and a lying count simply runs the reader into
//!   [`CodecError::UnexpectedEof`];
//! * string lengths are checked against the bytes actually remaining
//!   before any allocation;
//! * expression trees are depth-limited ([`MAX_EXPR_DEPTH`]) on both
//!   encode and decode, so recursion cannot overflow the stack.
//!
//! All integers are big-endian; doubles travel as IEEE-754 bit
//! patterns (NaN payloads survive a round trip).

use fj_algebra::{FromItem, JoinQuery, NetworkModel};
use fj_core::QueryResult;
use fj_expr::{BinOp, Expr};
use fj_optimizer::{CostParams, OptimizerConfig, PlanShape};
use fj_runtime::HEALTH_KEYS;
use fj_storage::{BloomFilter, Column, DataType, Mutation, Schema, SchemaRef, Tuple, Value};
use fj_trace::json;
use std::fmt;
use std::sync::Arc;

/// Maximum expression-tree depth accepted on either side of the wire.
pub const MAX_EXPR_DEPTH: usize = 200;

/// Payload-level decode/encode failures.
#[derive(Debug)]
pub enum CodecError {
    /// The payload ended before the structure did.
    UnexpectedEof,
    /// The structure ended before the payload did.
    TrailingBytes(usize),
    /// An enum discriminant outside its domain.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A length field exceeded what the payload can hold.
    TooLarge {
        /// What was being decoded.
        what: &'static str,
        /// Claimed length.
        len: u64,
    },
    /// An expression nested beyond [`MAX_EXPR_DEPTH`].
    TooDeep,
    /// A structurally valid payload that violates an invariant (e.g.
    /// duplicate schema column names).
    Invalid(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => f.write_str("payload truncated"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
            CodecError::BadTag { what, tag } => write!(f, "bad {what} tag 0x{tag:02x}"),
            CodecError::BadUtf8 => f.write_str("string field is not UTF-8"),
            CodecError::TooLarge { what, len } => {
                write!(f, "{what} length {len} exceeds remaining payload")
            }
            CodecError::TooDeep => write!(f, "expression deeper than {MAX_EXPR_DEPTH}"),
            CodecError::Invalid(msg) => write!(f, "invalid payload: {msg}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Cursor over a received payload.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Fails unless every byte was consumed — requests with junk
    /// appended are rejected, not silently half-read.
    pub fn finish(self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(CodecError::TrailingBytes(n)),
        }
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(self.u64()? as i64)
    }

    fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::BadTag { what: "bool", tag }),
        }
    }

    fn string(&mut self) -> Result<String, CodecError> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(CodecError::TooLarge {
                what: "string",
                len: len as u64,
            });
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadUtf8)
    }
}

/// Growable payload buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The finished payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    fn string(&mut self, s: &str) -> Result<(), CodecError> {
        let len: u32 = s.len().try_into().map_err(|_| CodecError::TooLarge {
            what: "string",
            len: s.len() as u64,
        })?;
        self.u32(len);
        self.buf.extend_from_slice(s.as_bytes());
        Ok(())
    }

    fn count(&mut self, what: &'static str, n: usize) -> Result<(), CodecError> {
        let n: u32 = n.try_into().map_err(|_| CodecError::TooLarge {
            what,
            len: n as u64,
        })?;
        self.u32(n);
        Ok(())
    }
}

// ---------------------------------------------------------------- values

const VALUE_NULL: u8 = 0;
const VALUE_INT: u8 = 1;
const VALUE_DOUBLE: u8 = 2;
const VALUE_STR: u8 = 3;
const VALUE_BOOL: u8 = 4;

/// Encodes one [`Value`].
pub fn encode_value(w: &mut Writer, v: &Value) -> Result<(), CodecError> {
    match v {
        Value::Null => w.u8(VALUE_NULL),
        Value::Int(i) => {
            w.u8(VALUE_INT);
            w.i64(*i);
        }
        Value::Double(d) => {
            w.u8(VALUE_DOUBLE);
            w.f64(*d);
        }
        Value::Str(s) => {
            w.u8(VALUE_STR);
            w.string(s)?;
        }
        Value::Bool(b) => {
            w.u8(VALUE_BOOL);
            w.bool(*b);
        }
    }
    Ok(())
}

/// Decodes one [`Value`].
pub fn decode_value(r: &mut Reader<'_>) -> Result<Value, CodecError> {
    match r.u8()? {
        VALUE_NULL => Ok(Value::Null),
        VALUE_INT => Ok(Value::Int(r.i64()?)),
        VALUE_DOUBLE => Ok(Value::Double(r.f64()?)),
        VALUE_STR => Ok(Value::Str(r.string()?)),
        VALUE_BOOL => Ok(Value::Bool(r.bool()?)),
        tag => Err(CodecError::BadTag { what: "value", tag }),
    }
}

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

fn binop_from_u8(b: u8) -> Option<BinOp> {
    Some(match b {
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
        _ => return None,
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
        EXPR_BINARY => {
            let op_byte = r.u8()?;
            let op = binop_from_u8(op_byte).ok_or(CodecError::BadTag {
                what: "binop",
                tag: op_byte,
            })?;
            let left = decode_expr_at(r, depth + 1)?;
            let right = decode_expr_at(r, depth + 1)?;
            Ok(Expr::Binary {
                op,
                left: Arc::new(left),
                right: Arc::new(right),
            })
        }
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
    w.count("from items", q.from.len())?;
    for item in &q.from {
        w.string(&item.relation)?;
        w.string(&item.alias)?;
    }
    match &q.predicate {
        None => w.u8(0),
        Some(p) => {
            w.u8(1);
            encode_expr(w, p)?;
        }
    }
    match &q.projection {
        None => w.u8(0),
        Some(sel) => {
            w.u8(1);
            w.count("projection", sel.len())?;
            for (e, name) in sel {
                encode_expr(w, e)?;
                w.string(name)?;
            }
        }
    }
    Ok(())
}

/// Decodes a [`JoinQuery`].
pub fn decode_query(r: &mut Reader<'_>) -> Result<JoinQuery, CodecError> {
    let n_from = r.u32()?;
    let mut from = Vec::new();
    for _ in 0..n_from {
        let relation = r.string()?;
        let alias = r.string()?;
        from.push(FromItem::new(relation, alias));
    }
    let predicate = match r.u8()? {
        0 => None,
        1 => Some(decode_expr(r)?),
        tag => {
            return Err(CodecError::BadTag {
                what: "predicate option",
                tag,
            })
        }
    };
    let projection = match r.u8()? {
        0 => None,
        1 => {
            let n = r.u32()?;
            let mut sel = Vec::new();
            for _ in 0..n {
                let e = decode_expr(r)?;
                let name = r.string()?;
                sel.push((e, name));
            }
            Some(sel)
        }
        tag => {
            return Err(CodecError::BadTag {
                what: "projection option",
                tag,
            })
        }
    };
    Ok(JoinQuery {
        from,
        predicate,
        projection,
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
    let eq: u32 = c.eq_classes.try_into().map_err(|_| CodecError::TooLarge {
        what: "eq_classes",
        len: c.eq_classes as u64,
    })?;
    w.u32(eq);
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
    match &req.config {
        None => w.u8(0),
        Some(c) => {
            w.u8(1);
            encode_config(&mut w, c)?;
        }
    }
    encode_query(&mut w, &req.query)?;
    Ok(w.into_bytes())
}

/// Decodes a QUERY request payload (consuming it fully).
pub fn decode_request(payload: &[u8]) -> Result<QueryRequest, CodecError> {
    let mut r = Reader::new(payload);
    let deadline_millis = r.u64()?;
    let want_trace = r.bool()?;
    let config = match r.u8()? {
        0 => None,
        1 => Some(decode_config(&mut r)?),
        tag => {
            return Err(CodecError::BadTag {
                what: "config option",
                tag,
            })
        }
    };
    let query = decode_query(&mut r)?;
    r.finish()?;
    Ok(QueryRequest {
        deadline_millis,
        want_trace,
        config,
        query,
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
            w.count("insert rows", rows.len())?;
            for row in rows {
                w.count("insert row values", row.len())?;
                for v in row {
                    encode_value(w, v)?;
                }
            }
        }
        Mutation::Update {
            table,
            set,
            where_col,
            where_value,
        } => {
            w.u8(MUTATION_UPDATE);
            w.string(table)?;
            w.count("set clauses", set.len())?;
            for (col, v) in set {
                w.string(col)?;
                encode_value(w, v)?;
            }
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
        MUTATION_INSERT => {
            let table = r.string()?;
            let nrows = r.u32()?;
            let mut rows = Vec::new();
            for _ in 0..nrows {
                let nvals = r.u32()?;
                let mut row = Vec::new();
                for _ in 0..nvals {
                    row.push(decode_value(r)?);
                }
                rows.push(row);
            }
            Ok(Mutation::Insert { table, rows })
        }
        MUTATION_UPDATE => {
            let table = r.string()?;
            let nset = r.u32()?;
            let mut set = Vec::new();
            for _ in 0..nset {
                let col = r.string()?;
                let v = decode_value(r)?;
                set.push((col, v));
            }
            let where_col = r.string()?;
            let where_value = decode_value(r)?;
            Ok(Mutation::Update {
                table,
                set,
                where_col,
                where_value,
            })
        }
        MUTATION_DELETE => {
            let table = r.string()?;
            let where_col = r.string()?;
            let where_value = decode_value(r)?;
            Ok(Mutation::Delete {
                table,
                where_col,
                where_value,
            })
        }
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
    let mut r = Reader::new(payload);
    let deadline_millis = r.u64()?;
    let mutation = decode_mutation(&mut r)?;
    r.finish()?;
    Ok(MutationRequest {
        deadline_millis,
        mutation,
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
    let mut r = Reader::new(payload);
    let rows_affected = r.u64()?;
    let row_count = r.u64()?;
    let version = r.u64()?;
    r.finish()?;
    Ok(MutationReply {
        rows_affected,
        row_count,
        version,
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
    pub trace: Option<fj_trace::QueryTrace>,
}

fn datatype_to_u8(t: DataType) -> u8 {
    match t {
        DataType::Int => 0,
        DataType::Double => 1,
        DataType::Str => 2,
        DataType::Bool => 3,
    }
}

fn datatype_from_u8(b: u8) -> Option<DataType> {
    Some(match b {
        0 => DataType::Int,
        1 => DataType::Double,
        2 => DataType::Str,
        3 => DataType::Bool,
        _ => return None,
    })
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
    w.count("columns", schema.arity())?;
    for col in schema.columns() {
        w.string(&col.name)?;
        w.u8(datatype_to_u8(col.data_type));
        w.bool(col.nullable);
    }
    w.count("rows", rows.len())?;
    for row in rows {
        if row.arity() != schema.arity() {
            return Err(CodecError::Invalid(format!(
                "row arity {} does not match schema arity {}",
                row.arity(),
                schema.arity()
            )));
        }
        for v in row.values() {
            encode_value(&mut w, v)?;
        }
    }
    w.f64(measured_cost);
    match estimated_cost {
        None => w.u8(0),
        Some(c) => {
            w.u8(1);
            w.f64(c);
        }
    }
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
    let mut r = Reader::new(payload);
    let ncols = r.u32()?;
    let mut columns = Vec::new();
    for _ in 0..ncols {
        let name = r.string()?;
        let ty_byte = r.u8()?;
        let data_type = datatype_from_u8(ty_byte).ok_or(CodecError::BadTag {
            what: "data type",
            tag: ty_byte,
        })?;
        let nullable = r.bool()?;
        columns.push(if nullable {
            Column::nullable(name, data_type)
        } else {
            Column::new(name, data_type)
        });
    }
    let schema = Schema::new(columns)
        .map_err(|e| CodecError::Invalid(format!("bad schema: {e}")))?
        .into_ref();
    let rows = decode_rows(&mut r, &schema)?;
    let measured_cost = r.f64()?;
    let estimated_cost = match r.u8()? {
        0 => None,
        1 => Some(r.f64()?),
        tag => {
            return Err(CodecError::BadTag {
                what: "estimate option",
                tag,
            })
        }
    };
    let cache_hit = r.bool()?;
    let latency_micros = r.u64()?;
    r.finish()?;
    Ok(QueryReply {
        schema,
        rows,
        measured_cost,
        estimated_cost,
        cache_hit,
        latency_micros,
        trace: None,
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
    let mut r = Reader::new(payload);
    let code_byte = r.u8()?;
    let code = crate::wire::ErrorCode::from_u8(code_byte).ok_or(CodecError::BadTag {
        what: "error code",
        tag: code_byte,
    })?;
    let message = r.string()?;
    r.finish()?;
    Ok((code, message))
}

/// Encodes a STATS_REPLY payload: one JSON string, the shape
/// TRACE_REPLY and HEALTH_REPLY payloads share.
pub fn encode_stats_reply(json: &str) -> Result<Vec<u8>, CodecError> {
    let mut w = Writer::new();
    w.string(json)?;
    Ok(w.into_bytes())
}

/// Decodes a STATS_REPLY payload.
pub fn decode_stats_reply(payload: &[u8]) -> Result<String, CodecError> {
    let mut r = Reader::new(payload);
    let json = r.string()?;
    r.finish()?;
    Ok(json)
}

// ----------------------------------------------------------------- health

/// A replica's readiness classification, as reported in HEALTH replies.
///
/// The router contract: `Ready` and `Degraded` replicas accept new
/// queries (`Degraded` is deprioritized), `Draining` replicas finish
/// accepted work but refuse new queries, and a replica that cannot be
/// reached at all is *dead* — a state the replica cannot report, which
/// is why it is not a variant here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthStatus {
    /// Full pool strength, queue below capacity, accepting work.
    Ready,
    /// Accepting work, but the pool has replaced workers after panics
    /// or the submission queue is at capacity (sheds likely).
    Degraded,
    /// Finishing accepted work; new queries are refused with
    /// [`crate::wire::ErrorCode::ShuttingDown`].
    Draining,
}

impl HealthStatus {
    /// The status word HEALTH and STATS report.
    pub fn as_str(self) -> &'static str {
        match self {
            HealthStatus::Ready => "ready",
            HealthStatus::Degraded => "degraded",
            HealthStatus::Draining => "draining",
        }
    }

    fn from_str(s: &str) -> Option<HealthStatus> {
        [
            HealthStatus::Ready,
            HealthStatus::Degraded,
            HealthStatus::Draining,
        ]
        .into_iter()
        .find(|status| status.as_str() == s)
    }
}

impl fmt::Display for HealthStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One replica's health report: the HEALTH reply payload, carried on
/// the wire as a flat JSON object so operators can read it off a
/// tcpdump and other tooling can scrape it without our codec. The
/// object is `status` followed by the counters [`HEALTH_KEYS`] names.
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

    /// Renders the snapshot as its wire JSON: one flat object with a
    /// stable key order.
    pub fn to_json(&self) -> String {
        json::object(|w| {
            w.key("status").string(self.status.as_str());
            for (key, v) in HEALTH_KEYS.iter().zip(self.counters) {
                w.key(key).uint(v);
            }
        })
    }

    /// Parses the wire JSON back into a snapshot. The parser is total
    /// and strict: a flat object with exactly the expected keys (any
    /// order, each exactly once), unsigned-integer counters, and a
    /// known status string. Anything else — junk bytes, duplicate or
    /// unknown keys, nested values, numeric overflow — is a typed
    /// [`CodecError`], never a panic.
    pub fn from_json(text: &str) -> Result<HealthSnapshot, CodecError> {
        let mut keys = vec!["status"];
        keys.extend(HEALTH_KEYS);
        let mut status = String::new();
        let mut counters = [0; HEALTH_KEYS.len()];
        let mut r = json::Reader::new(text);
        r.object(&keys, |r, slot| {
            match slot {
                0 => status = r.string()?,
                n => counters[n - 1] = r.u64()?,
            }
            Ok(())
        })
        .and_then(|()| r.end())
        .map_err(|e| CodecError::Invalid(format!("health json: {e}")))?;
        let status = HealthStatus::from_str(&status)
            .ok_or_else(|| CodecError::Invalid(format!("health: unknown status {status:?}")))?;
        Ok(HealthSnapshot { status, counters })
    }
}

// ------------------------------------------------------------------ traces

/// Encodes a TRACE_REPLY payload (the trace's JSON as one string).
pub fn encode_trace_reply(trace: &fj_trace::QueryTrace) -> Result<Vec<u8>, CodecError> {
    encode_stats_reply(&trace.to_json())
}

/// Decodes a TRACE_REPLY payload (consuming it fully). The embedded
/// JSON goes through [`fj_trace::QueryTrace::from_json`], which is
/// strict and total like the HEALTH parser: truncations, duplicate or
/// unknown keys, depth bombs, and malformed numbers are all typed
/// errors, never panics.
pub fn decode_trace_reply(payload: &[u8]) -> Result<fj_trace::QueryTrace, CodecError> {
    fj_trace::QueryTrace::from_json(&decode_stats_reply(payload)?)
        .map_err(|e| CodecError::Invalid(format!("trace json: {e}")))
}

/// Encodes a HEALTH_REPLY payload (the snapshot's JSON as one string).
pub fn encode_health_reply(health: &HealthSnapshot) -> Result<Vec<u8>, CodecError> {
    encode_stats_reply(&health.to_json())
}

/// Decodes a HEALTH_REPLY payload (consuming it fully).
pub fn decode_health_reply(payload: &[u8]) -> Result<HealthSnapshot, CodecError> {
    HealthSnapshot::from_json(&decode_stats_reply(payload)?)
}

// ------------------------------------------------- distributed execution

/// Encodes a schema as (count, [name, type byte, nullable]...).
fn encode_schema(w: &mut Writer, schema: &Schema) -> Result<(), CodecError> {
    w.count("columns", schema.arity())?;
    for col in schema.columns() {
        w.string(&col.name)?;
        w.u8(datatype_to_u8(col.data_type));
        w.bool(col.nullable);
    }
    Ok(())
}

fn decode_schema(r: &mut Reader<'_>) -> Result<SchemaRef, CodecError> {
    let ncols = r.u32()?;
    let mut columns = Vec::new();
    for _ in 0..ncols {
        let name = r.string()?;
        let ty_byte = r.u8()?;
        let data_type = datatype_from_u8(ty_byte).ok_or(CodecError::BadTag {
            what: "data type",
            tag: ty_byte,
        })?;
        let nullable = r.bool()?;
        columns.push(if nullable {
            Column::nullable(name, data_type)
        } else {
            Column::new(name, data_type)
        });
    }
    Ok(Schema::new(columns)
        .map_err(|e| CodecError::Invalid(format!("bad schema: {e}")))?
        .into_ref())
}

/// Encodes rows against `schema`, rejecting arity mismatches.
fn encode_rows(w: &mut Writer, schema: &Schema, rows: &[Tuple]) -> Result<(), CodecError> {
    w.count("rows", rows.len())?;
    for row in rows {
        if row.arity() != schema.arity() {
            return Err(CodecError::Invalid(format!(
                "row arity {} does not match schema arity {}",
                row.arity(),
                schema.arity()
            )));
        }
        for v in row.values() {
            encode_value(w, v)?;
        }
    }
    Ok(())
}

fn decode_rows(r: &mut Reader<'_>, schema: &Schema) -> Result<Vec<Tuple>, CodecError> {
    let nrows = r.u32()?;
    let mut rows = Vec::new();
    // One scratch vector for every row: draining it into the tuple's
    // shared storage costs a single exact-size allocation per row.
    let mut values = Vec::with_capacity(schema.arity());
    for _ in 0..nrows {
        for _ in 0..schema.arity() {
            values.push(decode_value(r)?);
        }
        rows.push(values.drain(..).collect());
    }
    Ok(rows)
}

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
    encode_rows(&mut w, &req.schema, &req.rows)?;
    Ok(w.into_bytes())
}

/// Decodes a SCATTER payload (consuming it fully).
pub fn decode_scatter(payload: &[u8]) -> Result<ScatterRequest, CodecError> {
    let mut r = Reader::new(payload);
    let table = r.string()?;
    let schema = decode_schema(&mut r)?;
    let rows = decode_rows(&mut r, &schema)?;
    r.finish()?;
    Ok(ScatterRequest {
        table,
        schema,
        rows,
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
    let mut r = Reader::new(payload);
    let rows_stored = r.u64()?;
    let bytes_stored = r.u64()?;
    r.finish()?;
    Ok(ScatterAck {
        rows_stored,
        bytes_stored,
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
            w.count("filter keys", keys.len())?;
            for k in keys {
                encode_value(w, k)?;
            }
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
        0 => {
            let n = r.u32()?;
            let mut keys = Vec::new();
            for _ in 0..n {
                keys.push(decode_value(r)?);
            }
            Ok(KeyFilter::Exact(keys))
        }
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
    w.count("filters", req.filters.len())?;
    for (column, filter) in &req.filters {
        w.string(column)?;
        encode_key_filter(&mut w, filter)?;
    }
    w.bool(req.want_rows);
    match &req.keys_of {
        None => w.u8(0),
        Some(col) => {
            w.u8(1);
            w.string(col)?;
        }
    }
    Ok(w.into_bytes())
}

/// Decodes a SEMIJOIN payload (consuming it fully).
pub fn decode_semijoin(payload: &[u8]) -> Result<SemijoinRequest, CodecError> {
    let mut r = Reader::new(payload);
    let table = r.string()?;
    let nfilters = r.u32()?;
    let mut filters = Vec::new();
    for _ in 0..nfilters {
        let column = r.string()?;
        let filter = decode_key_filter(&mut r)?;
        filters.push((column, filter));
    }
    let want_rows = r.bool()?;
    let keys_of = match r.u8()? {
        0 => None,
        1 => Some(r.string()?),
        tag => {
            return Err(CodecError::BadTag {
                what: "keys_of option",
                tag,
            })
        }
    };
    r.finish()?;
    Ok(SemijoinRequest {
        table,
        filters,
        want_rows,
        keys_of,
    })
}

/// Encodes a SEMIJOIN_ACK payload.
pub fn encode_semijoin_ack(ack: &SemijoinAck) -> Result<Vec<u8>, CodecError> {
    let mut w = Writer::new();
    w.u64(ack.rows_before);
    w.u64(ack.rows_after);
    match &ack.rows {
        None => w.u8(0),
        Some((schema, rows)) => {
            w.u8(1);
            encode_schema(&mut w, schema)?;
            encode_rows(&mut w, schema, rows)?;
        }
    }
    match &ack.keys {
        None => w.u8(0),
        Some(keys) => {
            w.u8(1);
            w.count("keys", keys.len())?;
            for k in keys {
                encode_value(&mut w, k)?;
            }
        }
    }
    Ok(w.into_bytes())
}

/// Decodes a SEMIJOIN_ACK payload (consuming it fully).
pub fn decode_semijoin_ack(payload: &[u8]) -> Result<SemijoinAck, CodecError> {
    let mut r = Reader::new(payload);
    let rows_before = r.u64()?;
    let rows_after = r.u64()?;
    let rows = match r.u8()? {
        0 => None,
        1 => {
            let schema = decode_schema(&mut r)?;
            let rows = decode_rows(&mut r, &schema)?;
            Some((schema, rows))
        }
        tag => {
            return Err(CodecError::BadTag {
                what: "rows option",
                tag,
            })
        }
    };
    let keys = match r.u8()? {
        0 => None,
        1 => {
            let n = r.u32()?;
            let mut keys = Vec::new();
            for _ in 0..n {
                keys.push(decode_value(&mut r)?);
            }
            Some(keys)
        }
        tag => {
            return Err(CodecError::BadTag {
                what: "keys option",
                tag,
            })
        }
    };
    r.finish()?;
    Ok(SemijoinAck {
        rows_before,
        rows_after,
        rows,
        keys,
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
    let mut r = Reader::new(payload);
    let deadline_millis = r.u64()?;
    let query = decode_query(&mut r)?;
    r.finish()?;
    Ok(FragmentRequest {
        deadline_millis,
        query,
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
    encode_rows(&mut w, &reply.schema, &reply.rows)?;
    w.u64(reply.latency_micros);
    Ok(w.into_bytes())
}

/// Decodes a GATHER payload (consuming it fully).
pub fn decode_gather(payload: &[u8]) -> Result<GatherReply, CodecError> {
    let mut r = Reader::new(payload);
    let schema = decode_schema(&mut r)?;
    let rows = decode_rows(&mut r, &schema)?;
    let latency_micros = r.u64()?;
    r.finish()?;
    Ok(GatherReply {
        schema,
        rows,
        latency_micros,
    })
}
