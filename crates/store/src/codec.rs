//! On-disk encodings: values, row pages, and table metadata.
//!
//! All integers are little-endian. Values are tag-prefixed so a page
//! payload is self-describing (decode never needs to guess widths) and
//! a corrupted tag fails loudly instead of misparsing.

use crate::error::StoreError;
use fj_storage::{Column, DataType, Schema, Tuple, Value};

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn take<'a>(buf: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], StoreError> {
    let end = pos.checked_add(n).filter(|&e| e <= buf.len());
    match end {
        Some(end) => {
            let slice = &buf[*pos..end];
            *pos = end;
            Ok(slice)
        }
        None => Err(StoreError::Corrupt {
            detail: format!("truncated record: wanted {n} bytes at offset {pos}"),
        }),
    }
}

pub(crate) fn get_u16(buf: &[u8], pos: &mut usize) -> Result<u16, StoreError> {
    Ok(u16::from_le_bytes(take(buf, pos, 2)?.try_into().unwrap()))
}

pub(crate) fn get_u32(buf: &[u8], pos: &mut usize) -> Result<u32, StoreError> {
    Ok(u32::from_le_bytes(take(buf, pos, 4)?.try_into().unwrap()))
}

pub(crate) fn get_u64(buf: &[u8], pos: &mut usize) -> Result<u64, StoreError> {
    Ok(u64::from_le_bytes(take(buf, pos, 8)?.try_into().unwrap()))
}

pub(crate) fn get_str(buf: &[u8], pos: &mut usize) -> Result<String, StoreError> {
    let len = get_u32(buf, pos)? as usize;
    let bytes = take(buf, pos, len)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| StoreError::Corrupt {
        detail: format!("non-UTF-8 string at offset {pos}"),
    })
}

fn encode_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Int(i) => {
            out.push(1);
            put_u64(out, *i as u64);
        }
        Value::Double(d) => {
            out.push(2);
            put_u64(out, d.to_bits());
        }
        Value::Str(s) => {
            out.push(3);
            put_str(out, s);
        }
        Value::Bool(b) => {
            out.push(4);
            out.push(*b as u8);
        }
    }
}

fn decode_value(buf: &[u8], pos: &mut usize) -> Result<Value, StoreError> {
    let tag = take(buf, pos, 1)?[0];
    Ok(match tag {
        0 => Value::Null,
        1 => Value::Int(get_u64(buf, pos)? as i64),
        2 => Value::Double(f64::from_bits(get_u64(buf, pos)?)),
        3 => Value::Str(get_str(buf, pos)?),
        4 => Value::Bool(take(buf, pos, 1)?[0] != 0),
        other => {
            return Err(StoreError::Corrupt {
                detail: format!("unknown value tag {other} at offset {pos}"),
            })
        }
    })
}

/// Encodes one logical page's rows as a page payload.
pub fn encode_rows(rows: &[Tuple]) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, rows.len() as u32);
    for row in rows {
        for v in row.values() {
            encode_value(&mut out, v);
        }
    }
    out
}

/// Decodes a page payload of `arity`-wide rows. The whole payload must
/// be consumed: trailing bytes mean the payload and the schema disagree.
pub fn decode_rows(buf: &[u8], arity: usize) -> Result<Vec<Tuple>, StoreError> {
    let mut pos = 0;
    let n = get_u32(buf, &mut pos)? as usize;
    let mut rows = Vec::with_capacity(n);
    // One scratch vector for every row: draining it into the tuple's
    // shared storage costs a single exact-size allocation per row.
    let mut values = Vec::with_capacity(arity);
    for _ in 0..n {
        for _ in 0..arity {
            values.push(decode_value(buf, &mut pos)?);
        }
        rows.push(values.drain(..).collect());
    }
    if pos != buf.len() {
        return Err(StoreError::Corrupt {
            detail: format!("page payload has {} trailing bytes", buf.len() - pos),
        });
    }
    Ok(rows)
}

fn datatype_tag(t: DataType) -> u8 {
    match t {
        DataType::Int => 1,
        DataType::Double => 2,
        DataType::Str => 3,
        DataType::Bool => 4,
    }
}

fn datatype_from_tag(tag: u8, pos: usize) -> Result<DataType, StoreError> {
    Ok(match tag {
        1 => DataType::Int,
        2 => DataType::Double,
        3 => DataType::Str,
        4 => DataType::Bool,
        other => {
            return Err(StoreError::Corrupt {
                detail: format!("unknown datatype tag {other} at offset {pos}"),
            })
        }
    })
}

/// Durable description of one stored table: everything recovery needs
/// to rebuild the in-memory heap from page payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableMeta {
    /// Store-assigned id, the page-file namespace for this table.
    pub table_id: u32,
    /// Catalog name.
    pub name: String,
    /// Column names, types, and nullability, in schema order.
    pub columns: Vec<(String, DataType, bool)>,
    /// Total rows across all pages.
    pub row_count: u64,
    /// Log-structured version of this table *name*: each reload of the
    /// same name and each committed mutation bumps it. Replay in log
    /// order makes the highest committed version authoritative.
    pub version: u64,
}

impl TableMeta {
    /// Captures a table's identity for the WAL/manifest.
    pub fn describe(
        table_id: u32,
        name: &str,
        schema: &Schema,
        row_count: u64,
        version: u64,
    ) -> TableMeta {
        TableMeta {
            table_id,
            name: name.to_string(),
            columns: schema
                .columns()
                .iter()
                .map(|c| (c.name.clone(), c.data_type, c.nullable))
                .collect(),
            row_count,
            version,
        }
    }

    /// Rebuilds the schema this meta describes.
    pub fn schema(&self) -> Result<Schema, StoreError> {
        let columns = self
            .columns
            .iter()
            .map(|(name, ty, nullable)| {
                if *nullable {
                    Column::nullable(name.clone(), *ty)
                } else {
                    Column::new(name.clone(), *ty)
                }
            })
            .collect();
        Schema::new(columns).map_err(|e| StoreError::Meta {
            detail: format!("meta for '{}' has an invalid schema: {e}", self.name),
        })
    }

    /// Serializes the meta.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, self.table_id);
        put_str(&mut out, &self.name);
        put_u64(&mut out, self.row_count);
        put_u64(&mut out, self.version);
        put_u16(&mut out, self.columns.len() as u16);
        for (name, ty, nullable) in &self.columns {
            put_str(&mut out, name);
            out.push(datatype_tag(*ty));
            out.push(*nullable as u8);
        }
        out
    }

    /// Deserializes a meta from `buf` starting at `pos`.
    pub fn decode(buf: &[u8], pos: &mut usize) -> Result<TableMeta, StoreError> {
        let table_id = get_u32(buf, pos)?;
        let name = get_str(buf, pos)?;
        let row_count = get_u64(buf, pos)?;
        let version = get_u64(buf, pos)?;
        let n_cols = get_u16(buf, pos)? as usize;
        let mut columns = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            let col_name = get_str(buf, pos)?;
            let tag = take(buf, pos, 1)?[0];
            let ty = datatype_from_tag(tag, *pos)?;
            let nullable = take(buf, pos, 1)?[0] != 0;
            columns.push((col_name, ty, nullable));
        }
        Ok(TableMeta {
            table_id,
            name,
            columns,
            row_count,
            version,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rows() -> Vec<Tuple> {
        vec![
            Tuple::new(vec![
                Value::Int(-7),
                Value::Double(3.25),
                Value::Str("héllo".into()),
                Value::Bool(true),
                Value::Null,
            ]),
            Tuple::new(vec![
                Value::Int(i64::MAX),
                Value::Double(f64::NAN),
                Value::Str(String::new()),
                Value::Bool(false),
                Value::Int(0),
            ]),
        ]
    }

    #[test]
    fn rows_round_trip() {
        let rows = sample_rows();
        let buf = encode_rows(&rows);
        let back = decode_rows(&buf, 5).unwrap();
        assert_eq!(back.len(), 2);
        // NaN != NaN under PartialEq; compare via total order instead.
        assert_eq!(back[0], rows[0]);
        assert_eq!(back[1].cmp(&rows[1]), std::cmp::Ordering::Equal);
    }

    #[test]
    fn empty_page_round_trips() {
        let buf = encode_rows(&[]);
        assert!(decode_rows(&buf, 3).unwrap().is_empty());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = encode_rows(&sample_rows());
        buf.push(0xFF);
        let err = decode_rows(&buf, 5).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }));
    }

    #[test]
    fn truncation_rejected() {
        let buf = encode_rows(&sample_rows());
        let err = decode_rows(&buf[..buf.len() - 3], 5).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }));
    }

    #[test]
    fn bad_tag_rejected() {
        let mut buf = encode_rows(&sample_rows());
        buf[4] = 9; // first value's tag
        assert!(matches!(
            decode_rows(&buf, 5),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn meta_round_trips() {
        let schema = Schema::from_pairs(&[
            ("eid", DataType::Int),
            ("sal", DataType::Double),
            ("name", DataType::Str),
            ("active", DataType::Bool),
        ]);
        let meta = TableMeta::describe(3, "Emp", &schema, 1234, 7);
        let bytes = meta.encode();
        let mut pos = 0;
        let back = TableMeta::decode(&bytes, &mut pos).unwrap();
        assert_eq!(pos, bytes.len());
        assert_eq!(back, meta);
        assert_eq!(back.schema().unwrap(), schema);
    }
}
