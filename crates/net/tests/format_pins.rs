//! Exact wire bytes of six frame payloads. The first four were recorded
//! before the byte codec moved into `fj_storage::codec`, the TRACE_REPLY
//! and HEALTH_REPLY rows when those payloads moved onto it (protocol
//! version 2). A change to any of them breaks every peer running the
//! old code, so a mismatch here is a protocol break, not a test to
//! regenerate: the failure prints the bytes the encoder produces now,
//! for diagnosis only.

use fj_algebra::fixtures::paper_query;
use fj_algebra::NetworkModel;
use fj_net::codec::{
    encode_health_reply, encode_mutation_request, encode_reply_parts, encode_request,
    encode_semijoin, encode_trace_reply, HealthSnapshot, HealthStatus, KeyFilter, MutationRequest,
    QueryRequest, SemijoinRequest,
};
use fj_optimizer::{CostParams, OptimizerConfig, PlanShape};
use fj_storage::{BloomFilter, Column, DataType, Mutation, Schema, Tuple, Value};
use fj_trace::{OpStats, QueryTrace, TraceNode};

type Pin = (&'static str, fn() -> Vec<u8>, &'static str);

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// QUERY for the paper's Figure 1 query with every config field off its
/// default.
fn query() -> Vec<u8> {
    let config = OptimizerConfig {
        enable_filter_join: true,
        enable_bloom: false,
        enable_index_nl: true,
        enable_merge_join: false,
        filter_join_on_base: false,
        allow_prefix_production: true,
        plan_shape: PlanShape::Bushy,
        eq_classes: 7,
        params: CostParams {
            cpu_weight: 0.125,
            memory_pages: 333,
            network: NetworkModel {
                per_message: 2.5,
                per_byte: 0.001,
            },
        },
    };
    encode_request(&QueryRequest {
        deadline_millis: 1500,
        want_trace: true,
        config: Some(config),
        query: paper_query(),
    })
    .unwrap()
}

/// RESULT over every value kind: NULL, a negative Int, a NaN with a
/// payload, a non-ASCII string, both bools.
fn result() -> Vec<u8> {
    let schema = Schema::new(vec![
        Column::nullable("T.i", DataType::Int),
        Column::new("T.d", DataType::Double),
        Column::new("T.s", DataType::Str),
        Column::nullable("T.b", DataType::Bool),
    ])
    .unwrap();
    let rows = vec![
        Tuple::new(vec![
            Value::Null,
            Value::Double(f64::from_bits(0x7ff8_0000_0000_0abc)),
            Value::Str("héllo, 世界".into()),
            Value::Bool(true),
        ]),
        Tuple::new(vec![
            Value::Int(-42),
            Value::Double(-0.5),
            Value::Str(String::new()),
            Value::Bool(false),
        ]),
    ];
    encode_reply_parts(&schema, &rows, 12.5, Some(3.35), true, 987_654).unwrap()
}

/// SEMIJOIN with one exact and one Bloom filter. The Bloom filter is
/// built from its parts so the pin does not depend on its hash.
fn semijoin() -> Vec<u8> {
    let bloom = BloomFilter::from_parts(vec![0x0123_4567_89ab_cdef, 1 << 63], 128, 3, 5).unwrap();
    encode_semijoin(&SemijoinRequest {
        table: "orders__p2".into(),
        filters: vec![
            (
                "o_cust".into(),
                KeyFilter::Exact(vec![Value::Int(7), Value::Str("ü".into()), Value::Null]),
            ),
            ("o_date".into(), KeyFilter::Bloom(bloom)),
        ],
        want_rows: true,
        keys_of: Some("o_id".into()),
    })
    .unwrap()
}

/// MUTATE carrying a two-row insert.
fn mutate_insert() -> Vec<u8> {
    encode_mutation_request(&MutationRequest {
        deadline_millis: 250,
        mutation: Mutation::Insert {
            table: "Emp".into(),
            rows: vec![
                vec![Value::Int(900), Value::Double(61_000.0), Value::Int(28)],
                vec![Value::Int(901), Value::Null, Value::Str("x".into())],
            ],
        },
    })
    .unwrap()
}

/// TRACE_REPLY for a join over one scan; node counters count up from
/// 1 and 101, and the root's label is non-ASCII and quoted.
fn trace_reply() -> Vec<u8> {
    let node = |label: &str, first: u64, children| TraceNode {
        stats: OpStats::from_counters(label.into(), std::array::from_fn(|i| first + i as u64)),
        children,
    };
    encode_trace_reply(&QueryTrace {
        total_wall_micros: 1234,
        root: node("HashJoin \"é\"", 1, vec![node("SeqScan Emp", 101, vec![])]),
    })
    .unwrap()
}

/// HEALTH_REPLY from a degraded replica; counter `i` of `HEALTH_KEYS`
/// reports `i + 1`.
fn health_reply() -> Vec<u8> {
    let mut next = 0;
    encode_health_reply(&HealthSnapshot::new(HealthStatus::Degraded, |_| {
        next += 1;
        next
    }))
    .unwrap()
}

const PINS: [Pin; 6] = [
    (
        "QUERY",
        query,
        "00000000000005dc010165000000073fc0000000000000000000000000014d40040000000000003f50624dd2f1a9fc0000000300000003456d700000000145000000044465707400000001440000000944657041766753616c000000015601020602060206020602000000000005452e6469640000000005442e64696402000000000005452e6469640000000005562e64696402040000000005452e73616c0000000008562e61766773616c02020000000005452e6167650101000000000000001e02040000000008442e627564676574010100000000000186a001000000030000000005452e646964000000036469640000000005452e73616c0000000373616c0000000008562e61766773616c0000000661766773616c",
    ),
    (
        "RESULT",
        result,
        "0000000400000003542e69000100000003542e64010000000003542e73020000000003542e6203010000000200027ff8000000000abc030000000e68c3a96c6c6f2c20e4b896e7958c040101ffffffffffffffd602bfe000000000000003000000000400402900000000000001400acccccccccccd0100000000000f1206",
    ),
    (
        "SEMIJOIN",
        semijoin,
        "0000000a6f72646572735f5f703200000002000000066f5f6375737400000000030100000000000000070300000002c3bc00000000066f5f646174650100000000000000800300000000000000050123456789abcdef80000000000000000101000000046f5f6964",
    ),
    (
        "MUTATE insert",
        mutate_insert,
        "00000000000000fa0000000003456d7000000002000000030100000000000003840240edc9000000000001000000000000001c0000000301000000000000038500030000000178",
    ),
    (
        "TRACE_REPLY",
        trace_reply,
        "00000000000004d20000000d486173684a6f696e2022c3a922000000000000000100000000000000020000000000000003000000000000000400000000000000050000000000000006000000000000000700000000000000080000000000000009000000000000000a000000000000000b000000010000000b5365715363616e20456d7000000000000000650000000000000066000000000000006700000000000000680000000000000069000000000000006a000000000000006b000000000000006c000000000000006d000000000000006e000000000000006f00000000",
    ),
    (
        "HEALTH_REPLY",
        health_reply,
        "01000000000000000100000000000000020000000000000003000000000000000400000000000000050000000000000006000000000000000700000000000000080000000000000009000000000000000a000000000000000b000000000000000c000000000000000d000000000000000e000000000000000f00000000000000100000000000000011000000000000001200000000000000130000000000000014000000000000001500000000000000160000000000000017",
    ),
];

#[test]
fn format_pins() {
    let mut broken = Vec::new();
    for (name, encode, want) in PINS {
        let got = hex(&encode());
        if got != want {
            broken.push(format!("{name}: {got}"));
        }
    }
    assert!(
        broken.is_empty(),
        "wire bytes changed:\n{}",
        broken.join("\n")
    );
}
