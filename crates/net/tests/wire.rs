//! Property tests of the wire codec: arbitrary queries, configs,
//! values, and result rows survive an encode → decode round trip
//! unchanged, and adversarial bytes — random, truncated, mutated, or
//! crafted (depth bombs, lying lengths) — produce typed errors, never
//! panics.

use fj_algebra::{FromItem, JoinQuery, NetworkModel};
use fj_expr::{col, lit, Expr};
use fj_net::codec::{
    decode_expr, decode_fragment, decode_gather, decode_health_reply, decode_mutation_reply,
    decode_mutation_request, decode_reply, decode_request, decode_scatter, decode_scatter_ack,
    decode_semijoin, decode_semijoin_ack, decode_trace_reply, decode_value, encode_expr,
    encode_fragment, encode_gather, encode_health_reply, encode_mutation_reply,
    encode_mutation_request, encode_reply_parts, encode_request, encode_scatter,
    encode_scatter_ack, encode_semijoin, encode_semijoin_ack, encode_trace_reply, encode_value,
    CodecError, FragmentRequest, GatherReply, HealthSnapshot, HealthStatus, KeyFilter,
    MutationReply, MutationRequest, QueryRequest, Reader, ScatterAck, ScatterRequest, SemijoinAck,
    SemijoinRequest, Writer, MAX_EXPR_DEPTH,
};
use fj_net::HEALTH_KEYS;
use fj_optimizer::{CostParams, OptimizerConfig, PlanShape};
use fj_storage::{BloomFilter, Column, DataType, Mutation, Schema, Tuple, Value};
use proptest::prelude::*;

/// Deterministic value from two generated words.
fn value_from(tag: u64, payload: u64) -> Value {
    match tag % 5 {
        0 => Value::Null,
        1 => Value::Int(payload as i64),
        2 => Value::Double(f64::from_bits(payload)),
        3 => Value::Str(format!("s{}", payload % 1000)),
        _ => Value::Bool(payload & 1 == 0),
    }
}

/// Deterministic expression tree from a word stream (consumes words;
/// bottoms out at columns when the stream runs dry or depth is hit).
fn expr_from(words: &mut dyn Iterator<Item = u64>, depth: usize) -> Expr {
    let Some(w) = words.next() else {
        return col("T.leaf");
    };
    if depth > 24 {
        return col(format!("T.c{}", w % 8));
    }
    match w % 6 {
        0 => col(format!("T.c{}", w % 8)),
        1 => Expr::Literal(value_from(w / 7, w.rotate_left(13))),
        2 | 3 => {
            let ops = [
                fj_expr::BinOp::Eq,
                fj_expr::BinOp::Ne,
                fj_expr::BinOp::Lt,
                fj_expr::BinOp::Le,
                fj_expr::BinOp::Gt,
                fj_expr::BinOp::Ge,
                fj_expr::BinOp::And,
                fj_expr::BinOp::Or,
                fj_expr::BinOp::Add,
                fj_expr::BinOp::Sub,
                fj_expr::BinOp::Mul,
                fj_expr::BinOp::Div,
                fj_expr::BinOp::Mod,
            ];
            let op = ops[(w / 6) as usize % ops.len()];
            let left = expr_from(words, depth + 1);
            let right = expr_from(words, depth + 1);
            left.binary_for_test(op, right)
        }
        4 => expr_from(words, depth + 1).not(),
        _ => expr_from(words, depth + 1).is_null(),
    }
}

/// Builds `Expr::Binary` without a public constructor per operator.
trait BinaryForTest {
    fn binary_for_test(self, op: fj_expr::BinOp, rhs: Expr) -> Expr;
}
impl BinaryForTest for Expr {
    fn binary_for_test(self, op: fj_expr::BinOp, rhs: Expr) -> Expr {
        use fj_expr::BinOp::*;
        match op {
            Eq => self.eq(rhs),
            Ne => self.ne(rhs),
            Lt => self.lt(rhs),
            Le => self.le(rhs),
            Gt => self.gt(rhs),
            Ge => self.ge(rhs),
            And => self.and(rhs),
            Or => self.or(rhs),
            Add => self.add(rhs),
            Sub => self.sub(rhs),
            Mul => self.mul(rhs),
            Div => self.div(rhs),
            Mod => self.rem(rhs),
        }
    }
}

fn query_from(
    from_words: &[u64],
    pred_words: Option<Vec<u64>>,
    proj_words: Option<Vec<u64>>,
) -> JoinQuery {
    let from = from_words
        .iter()
        .enumerate()
        .map(|(i, w)| FromItem::new(format!("Rel{}", w % 12), format!("A{i}")))
        .collect();
    let mut q = JoinQuery::new(from);
    if let Some(words) = pred_words {
        q = q.with_predicate(expr_from(&mut words.into_iter(), 0));
    }
    if let Some(words) = proj_words {
        let sel = words
            .chunks(3)
            .enumerate()
            .map(|(i, chunk)| (expr_from(&mut chunk.iter().copied(), 0), format!("out{i}")))
            .collect();
        q = q.with_projection(sel);
    }
    q
}

/// Deterministic trace tree from a word stream: fan-out and counters
/// all derive from the words, and some labels carry quotes,
/// backslashes and non-ASCII characters.
fn trace_node_from(words: &mut dyn Iterator<Item = u64>, depth: usize) -> fj_trace::TraceNode {
    let w = words.next().unwrap_or(0);
    let label = match w % 4 {
        0 => format!("seq scan {}", w % 12),
        1 => format!("hash join \"J{}\"", w % 12),
        2 => format!("filter \\{}\\", w % 12),
        _ => "π".to_string(),
    };
    let fan_out = if depth < 5 { (w % 3) as usize } else { 0 };
    fj_trace::TraceNode {
        stats: fj_trace::OpStats {
            label,
            rows_in: w.rotate_left(7),
            rows_out: w.rotate_left(11),
            build_rows: w % 100_000,
            probe_rows: w % 77_777,
            pages_read: w % 4096,
            pool_hits: w % 513,
            pool_misses: w % 129,
            wall_micros: w % 1_000_000,
            interrupt_polls: w % 64,
            spills: w % 17,
            spill_pages: w % 9_999,
        },
        children: (0..fan_out)
            .map(|_| trace_node_from(words, depth + 1))
            .collect(),
    }
}

fn config_from(flags: u64, eq_classes: usize, cpu: f64, pages: u64) -> OptimizerConfig {
    OptimizerConfig {
        enable_filter_join: flags & 1 != 0,
        enable_bloom: flags & 2 != 0,
        enable_index_nl: flags & 4 != 0,
        enable_merge_join: flags & 8 != 0,
        filter_join_on_base: flags & 16 != 0,
        allow_prefix_production: flags & 32 != 0,
        plan_shape: if flags & 64 != 0 {
            PlanShape::Bushy
        } else {
            PlanShape::LeftDeep
        },
        eq_classes,
        params: CostParams {
            cpu_weight: cpu,
            memory_pages: pages,
            network: NetworkModel {
                per_message: cpu * 3.0,
                per_byte: cpu / 1024.0,
            },
        },
    }
}

/// A snapshot whose counter for `HEALTH_KEYS[i]` is `values[i]`.
fn health_from(status: HealthStatus, values: &[u64]) -> HealthSnapshot {
    let mut values = values.iter().copied();
    HealthSnapshot::new(status, |_| values.next().expect("one value per HEALTH key"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn value_round_trip(tag in 0u64..5, payload in 0u64..u64::MAX) {
        let v = value_from(tag, payload);
        let mut w = Writer::new();
        encode_value(&mut w, &v).unwrap();
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = decode_value(&mut r).unwrap();
        r.finish().unwrap();
        // Compare through Debug so Int(1) / Double(1.0) cannot blur:
        // the round trip must preserve the exact variant and payload.
        prop_assert_eq!(format!("{:?}", back), format!("{:?}", v));
    }

    #[test]
    fn expr_round_trip(words in prop::collection::vec(0u64..u64::MAX, 1..40)) {
        let e = expr_from(&mut words.into_iter(), 0);
        let mut w = Writer::new();
        encode_expr(&mut w, &e).unwrap();
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = decode_expr(&mut r).unwrap();
        r.finish().unwrap();
        prop_assert_eq!(back, e);
    }

    #[test]
    fn request_round_trip(
        from_words in prop::collection::vec(0u64..u64::MAX, 1..6),
        pred_words in prop::option::of(prop::collection::vec(0u64..u64::MAX, 1..30)),
        proj_words in prop::option::of(prop::collection::vec(0u64..u64::MAX, 1..12)),
        deadline in 0u64..100_000,
        flags in 0u64..128,
        eq_classes in 0usize..16,
        cpu in 0.0f64..10.0,
        pages in 1u64..1_000_000,
        with_config in 0u64..2,
    ) {
        let request = QueryRequest {
            deadline_millis: deadline,
            want_trace: flags & 1 != 0,
            config: (with_config == 1).then(|| config_from(flags, eq_classes, cpu, pages)),
            query: query_from(&from_words, pred_words, proj_words),
        };
        let bytes = encode_request(&request).unwrap();
        let back = decode_request(&bytes).unwrap();
        prop_assert_eq!(back, request);
    }

    #[test]
    fn reply_round_trip(
        col_words in prop::collection::vec((0u64..4, 0u64..2), 1..6),
        row_words in prop::collection::vec(0u64..u64::MAX, 0..60),
        measured in 0.0f64..1e9,
        latency in 0u64..u64::MAX,
        est in prop::option::of(0.0f64..1e9),
        cache_hit in 0u64..2,
    ) {
        let types = [DataType::Int, DataType::Double, DataType::Str, DataType::Bool];
        let columns: Vec<Column> = col_words
            .iter()
            .enumerate()
            .map(|(i, (t, n))| {
                let ty = types[*t as usize % types.len()];
                if *n == 1 {
                    Column::nullable(format!("T.c{i}"), ty)
                } else {
                    Column::new(format!("T.c{i}"), ty)
                }
            })
            .collect();
        let schema = Schema::new(columns).unwrap();
        let arity = schema.arity();
        let rows: Vec<Tuple> = row_words
            .chunks(arity * 2)
            .filter(|c| c.len() == arity * 2)
            .map(|c| {
                Tuple::new(
                    (0..arity)
                        .map(|i| value_from(c[2 * i], c[2 * i + 1]))
                        .collect(),
                )
            })
            .collect();
        let bytes = encode_reply_parts(
            &schema, &rows, measured, est, cache_hit == 1, latency,
        )
        .unwrap();
        let reply = decode_reply(&bytes).unwrap();
        prop_assert_eq!(reply.schema.as_ref(), &schema);
        prop_assert_eq!(
            format!("{:?}", reply.rows),
            format!("{:?}", rows)
        );
        prop_assert_eq!(reply.measured_cost.to_bits(), measured.to_bits());
        prop_assert_eq!(reply.estimated_cost.map(f64::to_bits), est.map(f64::to_bits));
        prop_assert_eq!(reply.cache_hit, cache_hit == 1);
        prop_assert_eq!(reply.latency_micros, latency);
    }

    /// Random bytes never panic the request decoder.
    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(0u64..256, 0..200)) {
        let payload: Vec<u8> = bytes.iter().map(|b| *b as u8).collect();
        let _ = decode_request(&payload);
        let _ = decode_reply(&payload);
        let _ = fj_net::codec::decode_error(&payload);
        let _ = fj_net::codec::decode_stats_reply(&payload);
        let _ = decode_health_reply(&payload);
        let _ = decode_trace_reply(&payload);
        let _ = decode_scatter(&payload);
        let _ = decode_scatter_ack(&payload);
        let _ = decode_semijoin(&payload);
        let _ = decode_semijoin_ack(&payload);
        let _ = decode_fragment(&payload);
        let _ = decode_gather(&payload);
        let _ = decode_mutation_request(&payload);
        let _ = decode_mutation_reply(&payload);
    }

    /// Every health snapshot survives the encode → decode round trip.
    #[test]
    fn health_reply_round_trip(
        status_word in 0u64..3,
        values in prop::collection::vec(0u64..u64::MAX, HEALTH_KEYS.len()..HEALTH_KEYS.len() + 1),
    ) {
        let status = [HealthStatus::Ready, HealthStatus::Degraded, HealthStatus::Draining]
            [status_word as usize];
        let health = health_from(status, &values);
        for (key, value) in HEALTH_KEYS.iter().zip(&values) {
            prop_assert_eq!(health.get(key), Some(*value));
        }
        let payload = encode_health_reply(&health).unwrap();
        prop_assert_eq!(decode_health_reply(&payload).unwrap(), health);
    }

    /// Truncations and single-byte mutations of a valid health reply
    /// are typed errors or different valid snapshots — never panics.
    #[test]
    fn health_reply_mutations_never_panic(
        queued in 0u64..1_000_000,
        pos_word in 0u64..u64::MAX,
        new_byte in 0u64..256,
    ) {
        let health = HealthSnapshot::new(HealthStatus::Ready, |key| match key {
            "workers" => 4,
            "queued" => queued,
            "queue_capacity" => 64,
            "connections_active" => 2,
            _ => 0,
        });
        let mut payload = encode_health_reply(&health).unwrap();
        for cut in 0..payload.len() {
            prop_assert!(decode_health_reply(&payload[..cut]).is_err());
        }
        let pos = (pos_word as usize) % payload.len();
        payload[pos] = new_byte as u8;
        let _ = decode_health_reply(&payload);
    }

    /// Every generated trace tree survives the framed encode → decode
    /// round trip — including labels with quotes, backslashes and
    /// non-ASCII characters.
    #[test]
    fn trace_reply_round_trip(
        words in prop::collection::vec(0u64..u64::MAX, 1..40),
        total in 0u64..u64::MAX,
    ) {
        let trace = fj_trace::QueryTrace {
            root: trace_node_from(&mut words.into_iter(), 0),
            total_wall_micros: total,
        };
        let payload = encode_trace_reply(&trace).unwrap();
        prop_assert_eq!(decode_trace_reply(&payload).unwrap(), trace);
    }

    /// Truncations of a valid trace reply are typed errors and
    /// single-byte mutations never panic (they may decode to a
    /// different valid trace; framing checksums are TCP's job).
    #[test]
    fn trace_reply_mutations_never_panic(
        words in prop::collection::vec(0u64..u64::MAX, 1..12),
        pos_word in 0u64..u64::MAX,
        new_byte in 0u64..256,
    ) {
        let trace = fj_trace::QueryTrace {
            root: trace_node_from(&mut words.into_iter(), 0),
            total_wall_micros: 42,
        };
        let mut payload = encode_trace_reply(&trace).unwrap();
        for cut in 0..payload.len() {
            prop_assert!(decode_trace_reply(&payload[..cut]).is_err());
        }
        let pos = (pos_word as usize) % payload.len();
        payload[pos] = new_byte as u8;
        let _ = decode_trace_reply(&payload);
    }

    /// Every truncation of a valid request is a typed error (or, only
    /// at full length, a success) — never a panic.
    #[test]
    fn truncations_are_typed_errors(
        from_words in prop::collection::vec(0u64..u64::MAX, 1..4),
        pred_words in prop::option::of(prop::collection::vec(0u64..u64::MAX, 1..20)),
    ) {
        let request = QueryRequest {
            deadline_millis: 17,
            want_trace: true,
            config: Some(OptimizerConfig::default()),
            query: query_from(&from_words, pred_words, None),
        };
        let bytes = encode_request(&request).unwrap();
        for cut in 0..bytes.len() {
            match decode_request(&bytes[..cut]) {
                Err(_) => {}
                Ok(_) => panic!("truncated payload decoded at cut {cut}/{}", bytes.len()),
            }
        }
        prop_assert_eq!(decode_request(&bytes).unwrap(), request);
    }

    /// Single-byte mutations never panic (they may decode to a
    /// different valid request; that is fine — framing checksums are
    /// TCP's job).
    #[test]
    fn mutations_never_panic(
        from_words in prop::collection::vec(0u64..u64::MAX, 1..4),
        pos_word in 0u64..u64::MAX,
        new_byte in 0u64..256,
    ) {
        let request = QueryRequest {
            deadline_millis: 3,
            want_trace: false,
            config: None,
            query: query_from(&from_words, Some(vec![pos_word]), None),
        };
        let mut bytes = encode_request(&request).unwrap();
        let pos = (pos_word as usize) % bytes.len();
        bytes[pos] = new_byte as u8;
        let _ = decode_request(&bytes);
    }
}

#[test]
fn depth_bomb_is_too_deep_not_a_stack_overflow() {
    // 300 nested NOT tags around a column: decoding must stop at
    // MAX_EXPR_DEPTH with a typed error instead of recursing away.
    let mut payload = Vec::new();
    payload.extend_from_slice(&0u64.to_be_bytes()); // deadline
    payload.push(0); // tracing off
    payload.push(0); // no config override
    payload.extend_from_slice(&1u32.to_be_bytes()); // one FROM item
    payload.extend_from_slice(&1u32.to_be_bytes());
    payload.push(b'R');
    payload.extend_from_slice(&1u32.to_be_bytes());
    payload.push(b'A');
    payload.push(1); // predicate present
    payload.extend(vec![3u8; MAX_EXPR_DEPTH + 100]); // EXPR_NOT tags
    payload.push(0); // EXPR_COLUMN
    payload.extend_from_slice(&1u32.to_be_bytes());
    payload.push(b'x');
    payload.push(0); // no projection
    assert!(matches!(decode_request(&payload), Err(CodecError::TooDeep)));
}

#[test]
fn lying_string_length_is_rejected_before_allocation() {
    let mut payload = Vec::new();
    payload.extend_from_slice(&0u64.to_be_bytes());
    payload.push(0); // tracing off
    payload.push(0);
    payload.extend_from_slice(&1u32.to_be_bytes());
    payload.extend_from_slice(&u32::MAX.to_be_bytes()); // "4 GiB" name
    payload.push(b'R');
    assert!(matches!(
        decode_request(&payload),
        Err(CodecError::TooLarge { .. })
    ));
}

#[test]
fn non_utf8_string_is_typed() {
    let mut payload = Vec::new();
    payload.extend_from_slice(&0u64.to_be_bytes());
    payload.push(0); // tracing off
    payload.push(0);
    payload.extend_from_slice(&1u32.to_be_bytes());
    payload.extend_from_slice(&2u32.to_be_bytes());
    payload.extend_from_slice(&[0xFF, 0xFE]); // invalid UTF-8 relation
    assert!(matches!(decode_request(&payload), Err(CodecError::BadUtf8)));
}

#[test]
fn trailing_bytes_are_rejected() {
    let request = QueryRequest {
        deadline_millis: 0,
        want_trace: false,
        config: None,
        query: JoinQuery::new(vec![FromItem::new("Emp", "E")])
            .with_predicate(col("E.age").lt(lit(30))),
    };
    let mut bytes = encode_request(&request).unwrap();
    bytes.push(0xAB);
    assert!(matches!(
        decode_request(&bytes),
        Err(CodecError::TrailingBytes(1))
    ));
}

#[test]
fn trace_depth_bomb_is_too_deep_not_a_stack_overflow() {
    // A hand-built TRACE_REPLY nesting one child per node far past
    // MAX_EXPR_DEPTH: decoding must stop with a typed error instead of
    // recursing away.
    let levels = MAX_EXPR_DEPTH + 50;
    let mut payload = 0u64.to_be_bytes().to_vec(); // total_wall_micros
    for level in 0..levels {
        payload.extend_from_slice(&1u32.to_be_bytes()); // label "x"
        payload.push(b'x');
        payload.extend_from_slice(&[0; 11 * 8]); // the eleven counters
        let children = u32::from(level + 1 < levels); // the last has none
        payload.extend_from_slice(&children.to_be_bytes());
    }
    assert!(matches!(
        decode_trace_reply(&payload),
        Err(CodecError::TooDeep)
    ));
    // The encoder refuses one level past the limit; a tree at the limit
    // round-trips.
    let chain = |levels: usize| {
        let mut node = trace_node_from(&mut std::iter::empty(), 5);
        for _ in 1..levels {
            node = fj_trace::TraceNode {
                stats: node.stats.clone(),
                children: vec![node],
            };
        }
        fj_trace::QueryTrace {
            root: node,
            total_wall_micros: 0,
        }
    };
    assert!(matches!(
        encode_trace_reply(&chain(MAX_EXPR_DEPTH + 1)),
        Err(CodecError::TooDeep)
    ));
    let deepest = chain(MAX_EXPR_DEPTH);
    let payload = encode_trace_reply(&deepest).unwrap();
    assert_eq!(decode_trace_reply(&payload).unwrap(), deepest);
}

#[test]
fn duplicate_reply_columns_are_invalid_not_panic() {
    // Hand-craft a reply payload whose schema repeats a column name:
    // Schema::new rejects it, and the codec must surface that as a
    // typed Invalid error.
    let mut payload = Vec::new();
    payload.extend_from_slice(&2u32.to_be_bytes()); // two columns
    for _ in 0..2 {
        payload.extend_from_slice(&3u32.to_be_bytes());
        payload.extend_from_slice(b"T.a");
        payload.push(0); // Int
        payload.push(0); // non-nullable
    }
    payload.extend_from_slice(&0u32.to_be_bytes()); // zero rows
    payload.extend_from_slice(&0f64.to_bits().to_be_bytes());
    payload.push(0); // no estimate
    payload.push(0); // cache_hit = false
    payload.extend_from_slice(&0u64.to_be_bytes());
    assert!(matches!(
        decode_reply(&payload),
        Err(CodecError::Invalid(_))
    ));
}

// ---------------------------------------------- distributed frames

/// Deterministic schema from generated (type, nullable) words.
fn schema_from(col_words: &[(u64, u64)]) -> Schema {
    let types = [
        DataType::Int,
        DataType::Double,
        DataType::Str,
        DataType::Bool,
    ];
    Schema::new(
        col_words
            .iter()
            .enumerate()
            .map(|(i, (t, n))| {
                let ty = types[*t as usize % types.len()];
                if *n == 1 {
                    Column::nullable(format!("T.c{i}"), ty)
                } else {
                    Column::new(format!("T.c{i}"), ty)
                }
            })
            .collect(),
    )
    .unwrap()
}

/// Deterministic rows from a word stream, two words per value.
fn rows_from(row_words: &[u64], arity: usize) -> Vec<Tuple> {
    row_words
        .chunks(arity * 2)
        .filter(|c| c.len() == arity * 2)
        .map(|c| {
            Tuple::new(
                (0..arity)
                    .map(|i| value_from(c[2 * i], c[2 * i + 1]))
                    .collect(),
            )
        })
        .collect()
}

/// Deterministic key filter: exact key list or a Bloom filter over the
/// same keys, chosen by `tag`.
fn key_filter_from(tag: u64, key_words: &[(u64, u64)]) -> KeyFilter {
    let keys: Vec<Value> = key_words.iter().map(|(t, p)| value_from(*t, *p)).collect();
    if tag == 0 {
        KeyFilter::Exact(keys)
    } else {
        let mut bloom = BloomFilter::with_capacity(keys.len().max(1) as u64, 0.01);
        for k in &keys {
            bloom.insert(k);
        }
        KeyFilter::Bloom(bloom)
    }
}

fn semijoin_from(
    filter_words: &[(u64, u64, u64)],
    want_rows: bool,
    keys_of: Option<u64>,
) -> SemijoinRequest {
    SemijoinRequest {
        table: "Emp__p1".to_string(),
        filters: filter_words
            .iter()
            .enumerate()
            .map(|(i, (tag, a, b))| {
                (
                    format!("c{i}"),
                    key_filter_from(*tag % 2, &[(*a % 5, *b), (*b % 5, *a)]),
                )
            })
            .collect(),
        want_rows,
        keys_of: keys_of.map(|w| format!("c{}", w % 4)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every SCATTER payload survives the encode → decode round trip.
    #[test]
    fn scatter_round_trip(
        col_words in prop::collection::vec((0u64..4, 0u64..2), 1..5),
        row_words in prop::collection::vec(0u64..u64::MAX, 0..40),
    ) {
        let schema = schema_from(&col_words).into_ref();
        let rows = rows_from(&row_words, schema.arity());
        let req = ScatterRequest {
            table: "orders__p2".to_string(),
            schema: schema.clone(),
            rows,
        };
        let bytes = encode_scatter(&req).unwrap();
        let back = decode_scatter(&bytes).unwrap();
        prop_assert_eq!(&back.table, &req.table);
        prop_assert_eq!(back.schema.as_ref(), schema.as_ref());
        prop_assert_eq!(format!("{:?}", back.rows), format!("{:?}", req.rows));
    }

    /// SCATTER_ACK round-trips exactly.
    #[test]
    fn scatter_ack_round_trip(rows_stored in 0u64..u64::MAX, bytes_stored in 0u64..u64::MAX) {
        let ack = ScatterAck { rows_stored, bytes_stored };
        let bytes = encode_scatter_ack(&ack).unwrap();
        prop_assert_eq!(decode_scatter_ack(&bytes).unwrap(), ack);
    }

    /// Every SEMIJOIN payload — exact and Bloom filters, row/key reply
    /// selectors — survives the round trip, including Bloom geometry.
    #[test]
    fn semijoin_round_trip(
        filter_words in prop::collection::vec((0u64..2, 0u64..u64::MAX, 0u64..u64::MAX), 0..4),
        want_rows_word in 0u64..2,
        keys_of in prop::option::of(0u64..u64::MAX),
    ) {
        let req = semijoin_from(&filter_words, want_rows_word == 1, keys_of);
        let bytes = encode_semijoin(&req).unwrap();
        let back = decode_semijoin(&bytes).unwrap();
        prop_assert_eq!(&back.table, &req.table);
        prop_assert_eq!(back.want_rows, req.want_rows);
        prop_assert_eq!(&back.keys_of, &req.keys_of);
        prop_assert_eq!(back.filters.len(), req.filters.len());
        for ((na, fa), (nb, fb)) in back.filters.iter().zip(req.filters.iter()) {
            prop_assert_eq!(na, nb);
            prop_assert!(fa == fb);
        }
    }

    /// Every SEMIJOIN_ACK payload survives the round trip.
    #[test]
    fn semijoin_ack_round_trip(
        rows_before in 0u64..u64::MAX,
        rows_after in 0u64..u64::MAX,
        col_words in prop::collection::vec((0u64..4, 0u64..2), 1..4),
        row_words in prop::collection::vec(0u64..u64::MAX, 0..24),
        with_rows_word in 0u64..2,
        key_words in prop::option::of(prop::collection::vec((0u64..5, 0u64..u64::MAX), 0..12)),
    ) {
        let schema = schema_from(&col_words).into_ref();
        let rows = rows_from(&row_words, schema.arity());
        let ack = SemijoinAck {
            rows_before,
            rows_after,
            rows: (with_rows_word == 1).then(|| (schema.clone(), rows)),
            keys: key_words
                .map(|ks| ks.iter().map(|(t, p)| value_from(*t, *p)).collect()),
        };
        let bytes = encode_semijoin_ack(&ack).unwrap();
        let back = decode_semijoin_ack(&bytes).unwrap();
        prop_assert_eq!(back.rows_before, ack.rows_before);
        prop_assert_eq!(back.rows_after, ack.rows_after);
        prop_assert_eq!(format!("{:?}", back.rows), format!("{:?}", ack.rows));
        prop_assert_eq!(format!("{:?}", back.keys), format!("{:?}", ack.keys));
    }

    /// Every FRAGMENT payload (a deadline plus a full join query)
    /// survives the round trip.
    #[test]
    fn fragment_round_trip(
        deadline in 0u64..u64::MAX,
        from_words in prop::collection::vec(0u64..u64::MAX, 1..5),
        pred_words in prop::option::of(prop::collection::vec(0u64..u64::MAX, 1..24)),
        proj_words in prop::option::of(prop::collection::vec(0u64..u64::MAX, 1..9)),
    ) {
        let req = FragmentRequest {
            deadline_millis: deadline,
            query: query_from(&from_words, pred_words, proj_words),
        };
        let bytes = encode_fragment(&req).unwrap();
        let back = decode_fragment(&bytes).unwrap();
        prop_assert_eq!(back.deadline_millis, req.deadline_millis);
        prop_assert_eq!(back.query, req.query);
    }

    /// Every GATHER payload survives the round trip.
    #[test]
    fn gather_round_trip(
        col_words in prop::collection::vec((0u64..4, 0u64..2), 1..5),
        row_words in prop::collection::vec(0u64..u64::MAX, 0..40),
        latency in 0u64..u64::MAX,
    ) {
        let schema = schema_from(&col_words).into_ref();
        let rows = rows_from(&row_words, schema.arity());
        let reply = GatherReply {
            schema: schema.clone(),
            rows,
            latency_micros: latency,
        };
        let bytes = encode_gather(&reply).unwrap();
        let back = decode_gather(&bytes).unwrap();
        prop_assert_eq!(back.schema.as_ref(), schema.as_ref());
        prop_assert_eq!(format!("{:?}", back.rows), format!("{:?}", reply.rows));
        prop_assert_eq!(back.latency_micros, latency);
    }

    /// Every truncation of a valid dist payload is a typed error, and
    /// single-byte mutations never panic — the same adversarial
    /// discipline the QUERY/HEALTH/TRACE codecs keep.
    #[test]
    fn dist_truncations_and_mutations_are_typed(
        which in 0u64..4,
        filter_words in prop::collection::vec((0u64..2, 0u64..u64::MAX, 0u64..u64::MAX), 0..3),
        col_words in prop::collection::vec((0u64..4, 0u64..2), 1..4),
        row_words in prop::collection::vec(0u64..u64::MAX, 0..16),
        pos_word in 0u64..u64::MAX,
        new_byte in 0u64..256,
    ) {
        let schema = schema_from(&col_words).into_ref();
        let rows = rows_from(&row_words, schema.arity());
        let mut bytes = match which {
            0 => encode_scatter(&ScatterRequest {
                table: "t__p0".to_string(),
                schema: schema.clone(),
                rows,
            })
            .unwrap(),
            1 => encode_semijoin(&semijoin_from(&filter_words, true, Some(pos_word))).unwrap(),
            2 => encode_fragment(&FragmentRequest {
                deadline_millis: 9,
                query: query_from(&[1, 2], None, None),
            })
            .unwrap(),
            _ => encode_gather(&GatherReply {
                schema: schema.clone(),
                rows,
                latency_micros: 5,
            })
            .unwrap(),
        };
        let decode = |b: &[u8]| -> bool {
            match which {
                0 => decode_scatter(b).is_err(),
                1 => decode_semijoin(b).is_err(),
                2 => decode_fragment(b).is_err(),
                _ => decode_gather(b).is_err(),
            }
        };
        for cut in 0..bytes.len() {
            prop_assert!(decode(&bytes[..cut]), "truncation decoded at cut {}", cut);
        }
        let pos = (pos_word as usize) % bytes.len();
        bytes[pos] = new_byte as u8;
        let ok = !decode(&bytes);
        // Mutations may still decode (to a different valid payload) —
        // the only requirement is no panic, checked by getting here.
        let _ = ok;
    }
}

#[test]
fn bloom_geometry_bomb_is_rejected_before_allocation() {
    // A SEMIJOIN filter claiming 2^60 Bloom bits must be refused by
    // geometry validation, not by attempting the allocation.
    let mut payload = Vec::new();
    payload.extend_from_slice(&1u32.to_be_bytes()); // table name len
    payload.push(b'T');
    // One filter: column name, tag 1 = Bloom, absurd n_bits.
    payload.extend_from_slice(&1u32.to_be_bytes()); // one filter
    payload.extend_from_slice(&1u32.to_be_bytes()); // name len
    payload.push(b'k');
    payload.push(1); // Bloom tag
    payload.extend_from_slice(&(1u64 << 60).to_be_bytes()); // n_bits
    payload.push(4); // n_hashes
    payload.extend_from_slice(&0u64.to_be_bytes()); // inserted
    assert!(matches!(
        decode_semijoin(&payload),
        Err(CodecError::TooLarge { .. })
    ));
}

#[test]
fn bloom_word_count_is_bounded_by_remaining_bytes() {
    // Valid-looking geometry (1 MiB of bits) but a payload that ends
    // immediately: the decoder must notice the words cannot be present
    // instead of allocating and reading off the end.
    let mut payload = Vec::new();
    payload.extend_from_slice(&1u32.to_be_bytes());
    payload.push(b'T');
    payload.extend_from_slice(&1u32.to_be_bytes());
    payload.extend_from_slice(&1u32.to_be_bytes());
    payload.push(b'k');
    payload.push(1);
    payload.extend_from_slice(&(1u64 << 23).to_be_bytes()); // 8 Mbit = 1 MiB
    payload.push(4);
    payload.extend_from_slice(&0u64.to_be_bytes());
    // No words follow.
    assert!(decode_semijoin(&payload).is_err());
}

#[test]
fn dist_trailing_bytes_are_rejected() {
    let ack = ScatterAck {
        rows_stored: 1,
        bytes_stored: 2,
    };
    let mut bytes = encode_scatter_ack(&ack).unwrap();
    bytes.push(0x55);
    assert!(matches!(
        decode_scatter_ack(&bytes),
        Err(CodecError::TrailingBytes(1))
    ));
}

// ------------------------------------------------- mutation frames

/// Deterministic mutation from generated words, covering all three
/// verbs and all value shapes.
fn mutation_from(verb: u64, table_word: u64, words: &[u64]) -> Mutation {
    let table = format!("Tab{}", table_word % 7);
    match verb % 3 {
        0 => Mutation::Insert {
            table,
            rows: words
                .chunks(4)
                .map(|c| {
                    c.chunks(2)
                        .map(|p| value_from(p[0], p.get(1).copied().unwrap_or(0)))
                        .collect()
                })
                .collect(),
        },
        1 => Mutation::Update {
            table,
            set: words
                .chunks(2)
                .enumerate()
                .map(|(i, c)| {
                    (
                        format!("c{i}"),
                        value_from(c[0], c.get(1).copied().unwrap_or(0)),
                    )
                })
                .collect(),
            where_col: "key".to_string(),
            where_value: value_from(table_word, table_word.rotate_left(17)),
        },
        _ => Mutation::Delete {
            table,
            where_col: "key".to_string(),
            where_value: value_from(table_word, table_word.rotate_left(29)),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every MUTATE request — all three verbs, all value shapes —
    /// survives the encode → decode round trip.
    #[test]
    fn mutation_request_round_trip(
        verb in 0u64..3,
        table_word in 0u64..u64::MAX,
        words in prop::collection::vec(0u64..u64::MAX, 0..24),
        deadline in 0u64..100_000,
    ) {
        let req = MutationRequest {
            deadline_millis: deadline,
            mutation: mutation_from(verb, table_word, &words),
        };
        let bytes = encode_mutation_request(&req).unwrap();
        // Compare through Debug so Int(1) / Double(1.0) cannot blur.
        prop_assert_eq!(
            format!("{:?}", decode_mutation_request(&bytes).unwrap()),
            format!("{:?}", req)
        );
    }

    /// MUTATE_REPLY round-trips exactly.
    #[test]
    fn mutation_reply_round_trip(
        rows_affected in 0u64..u64::MAX,
        row_count in 0u64..u64::MAX,
        version in 0u64..u64::MAX,
    ) {
        let reply = MutationReply { rows_affected, row_count, version };
        let bytes = encode_mutation_reply(&reply).unwrap();
        prop_assert_eq!(decode_mutation_reply(&bytes).unwrap(), reply);
    }

    /// Every truncation of a valid MUTATE request is a typed error, and
    /// single-byte mutations never panic.
    #[test]
    fn mutation_request_truncations_and_mutations_are_typed(
        verb in 0u64..3,
        table_word in 0u64..u64::MAX,
        words in prop::collection::vec(0u64..u64::MAX, 0..12),
        pos_word in 0u64..u64::MAX,
        new_byte in 0u64..256,
    ) {
        let req = MutationRequest {
            deadline_millis: 5,
            mutation: mutation_from(verb, table_word, &words),
        };
        let mut bytes = encode_mutation_request(&req).unwrap();
        for cut in 0..bytes.len() {
            prop_assert!(
                decode_mutation_request(&bytes[..cut]).is_err(),
                "truncated MUTATE payload decoded at cut {}",
                cut
            );
        }
        let pos = (pos_word as usize) % bytes.len();
        bytes[pos] = new_byte as u8;
        // May decode to a different valid request; must never panic.
        let _ = decode_mutation_request(&bytes);
    }
}

#[test]
fn mutation_bad_verb_tag_is_typed() {
    let req = MutationRequest {
        deadline_millis: 0,
        mutation: Mutation::Delete {
            table: "T".to_string(),
            where_col: "k".to_string(),
            where_value: Value::Int(1),
        },
    };
    let mut bytes = encode_mutation_request(&req).unwrap();
    bytes[8] = 9; // the verb tag right after the deadline
    assert!(matches!(
        decode_mutation_request(&bytes),
        Err(CodecError::BadTag { .. })
    ));
}

#[test]
fn mutation_trailing_bytes_are_rejected() {
    let reply = MutationReply {
        rows_affected: 1,
        row_count: 5,
        version: 2,
    };
    let mut bytes = encode_mutation_reply(&reply).unwrap();
    bytes.push(0x7E);
    assert!(matches!(
        decode_mutation_reply(&bytes),
        Err(CodecError::TrailingBytes(1))
    ));
}

#[test]
fn semijoin_bad_option_tag_is_typed() {
    let req = SemijoinRequest {
        table: "T".to_string(),
        filters: vec![],
        want_rows: false,
        keys_of: None,
    };
    let mut bytes = encode_semijoin(&req).unwrap();
    // The trailing byte is the keys_of option tag (0 = absent).
    *bytes.last_mut().unwrap() = 7;
    assert!(matches!(
        decode_semijoin(&bytes),
        Err(CodecError::BadTag { .. })
    ));
}
