//! Exact wire bytes of four frame payloads, recorded before the byte
//! codec moved into `fj_storage::codec`. A change to any of them breaks
//! every peer running the old code, so a mismatch here is a protocol
//! break, not a test to regenerate: the failure prints the bytes the
//! encoder produces now, for diagnosis only.

use fj_algebra::fixtures::paper_query;
use fj_algebra::NetworkModel;
use fj_net::codec::{
    encode_mutation_request, encode_reply_parts, encode_request, encode_semijoin, KeyFilter,
    MutationRequest, QueryRequest, SemijoinRequest,
};
use fj_optimizer::{CostParams, OptimizerConfig, PlanShape};
use fj_storage::{BloomFilter, Column, DataType, Mutation, Schema, Tuple, Value};

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

const PINS: [Pin; 4] = [
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
