//! Exact on-disk bytes of a page payload, a `TableMeta`, a WAL holding
//! every record kind and a written manifest, recorded before the byte
//! codec moved into `fj_storage::codec`. A data directory written by the old code
//! must recover under the new, so a mismatch here is a format break,
//! not a test to regenerate: the failure prints the bytes the encoder
//! produces now, for diagnosis only.

use fj_storage::{DataType, Mutation, Schema, Table, TableBuilder, Tuple, Value};
use fj_store::codec::encode_rows;
use fj_store::{Store, TableMeta, TempDir};
use std::fmt::Debug;

/// The encoders became fallible when the codec moved; this accepts
/// either shape, so the pins compile unmodified on both sides of it.
trait Bytes {
    fn bytes(self) -> Vec<u8>;
}

impl Bytes for Vec<u8> {
    fn bytes(self) -> Vec<u8> {
        self
    }
}

impl<E: Debug> Bytes for Result<Vec<u8>, E> {
    fn bytes(self) -> Vec<u8> {
        self.unwrap()
    }
}

type Pin = (&'static str, fn() -> Vec<u8>, &'static str);

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn schema() -> Schema {
    Schema::from_pairs(&[
        ("eid", DataType::Int),
        ("sal", DataType::Double),
        ("name", DataType::Str),
        ("active", DataType::Bool),
    ])
}

fn rows() -> Vec<Tuple> {
    vec![
        Tuple::new(vec![
            Value::Int(-7),
            Value::Double(f64::from_bits(0x7ff8_0000_0000_0abc)),
            Value::Str("héllo".into()),
            Value::Bool(true),
        ]),
        Tuple::new(vec![
            Value::Null,
            Value::Double(3.25),
            Value::Str(String::new()),
            Value::Bool(false),
        ]),
    ]
}

fn page() -> Vec<u8> {
    encode_rows(&rows()).bytes()
}

fn meta() -> Vec<u8> {
    TableMeta::describe(3, "Emp", &schema(), 1234, 7)
        .encode()
        .bytes()
}

fn emp() -> Table {
    TableBuilder::new("Emp")
        .nullable_column("eid", DataType::Int)
        .column("name", DataType::Str)
        .rows((0..3).map(|i| vec![Value::Int(i), Value::Str(format!("e{i}"))]))
        .build()
        .unwrap()
}

/// The log after one load and one insert: `TableMeta`, `PageImage`,
/// `LoadCommit`, `PageDelta` and `MutationCommit`, each framed.
fn wal() -> Vec<u8> {
    let dir = TempDir::new("pins-wal");
    let (store, _) = Store::open(dir.path(), 16, None).unwrap();
    store.load_table(&emp()).unwrap();
    let insert = Mutation::Insert {
        table: "Emp".into(),
        rows: vec![vec![Value::Null, Value::Str("ü".into())]],
    };
    store.mutate(&insert, &|| false).unwrap();
    std::fs::read(dir.path().join("wal.fj")).unwrap()
}

/// The manifest a checkpoint publishes over two loaded tables.
fn manifest() -> Vec<u8> {
    let dir = TempDir::new("pins-manifest");
    let (store, _) = Store::open(dir.path(), 16, None).unwrap();
    let dept = TableBuilder::new("Dept")
        .column("did", DataType::Int)
        .column("budget", DataType::Double)
        .rows([vec![Value::Int(10), Value::Double(500_000.0)]])
        .build()
        .unwrap();
    store.load_table(&emp()).unwrap();
    store.load_table(&dept).unwrap();
    store.checkpoint().unwrap();
    std::fs::read(dir.path().join("manifest.fj")).unwrap()
}

const PINS: [Pin; 4] = [
    (
        "page payload",
        page,
        "0200000001f9ffffffffffffff02bc0a00000000f87f030600000068c3a96c6c6f040100020000000000000a4003000000000400",
    ),
    (
        "TableMeta",
        meta,
        "0300000003000000456d70d204000000000000070000000000000004000300000065696401000300000073616c0200040000006e616d650300060000006163746976650400",
    ),
    (
        "WAL load + insert",
        wal,
        "31000000fcfd4ef221efbcb0010000000003000000456d70030000000000000001000000000000000200030000006569640101040000006e616d6503003d000000ee1b09c8447dbee80200000000000000000300000001000000000000000003020000006530010100000000000000030200000065310102000000000000000302000000653205000000d7800fba7f4b932f0300000000450000006dd614e01d50a3f804000000000000000004000000010000000000000000030200000065300101000000000000000302000000653101020000000000000003020000006532000302000000c3bc3900000022e70ad1462cb60d0501000000000000000000000003000000456d70040000000000000002000000000000000200030000006569640101040000006e616d650300",
    ),
    (
        "manifest",
        manifest,
        "67000000be8cff58ce855da6020000000100000004000000446570740100000000000000010000000000000002000300000064696401000600000062756467657402000000000003000000456d70030000000000000001000000000000000200030000006569640101040000006e616d650300",
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
        "on-disk bytes changed:\n{}",
        broken.join("\n")
    );
}
