//! Page payloads and table metadata, over the little-endian cursor of
//! [`fj_storage::codec`] (DESIGN.md, "Byte formats").
//!
//! A page payload is the shared rows encoding: `[count u32]`, then each
//! row's tagged values. Tags make the payload self-describing (decode
//! never guesses widths) and a corrupted tag fail loudly instead of
//! misparsing.

use crate::error::StoreError;
use fj_storage::codec::{self, CodecError, Le, Reader, Writer};
use fj_storage::{Column, DataType, Schema, Tuple};

/// Encodes one logical page's rows as a page payload.
pub fn encode_rows(rows: &[Tuple]) -> Result<Vec<u8>, StoreError> {
    let mut w = Writer::<Le>::new();
    codec::encode_rows(&mut w, rows.first().map_or(0, Tuple::arity), rows)
        .map_err(StoreError::unencodable)?;
    Ok(w.into_bytes())
}

/// Decodes a page payload of `arity`-wide rows. The whole payload must
/// be consumed: trailing bytes mean the payload and the schema disagree.
pub fn decode_rows(buf: &[u8], arity: usize) -> Result<Vec<Tuple>, StoreError> {
    Ok(Reader::<Le>::decode_all(buf, |r| {
        codec::decode_rows(r, arity)
    })?)
}

fn datatype_tag(t: DataType) -> u8 {
    match t {
        DataType::Int => 1,
        DataType::Double => 2,
        DataType::Str => 3,
        DataType::Bool => 4,
    }
}

fn datatype_from_tag(tag: u8) -> Result<DataType, CodecError> {
    Ok(match tag {
        1 => DataType::Int,
        2 => DataType::Double,
        3 => DataType::Str,
        4 => DataType::Bool,
        tag => {
            return Err(CodecError::BadTag {
                what: "datatype",
                tag,
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

    /// Serializes the meta. A table the format cannot describe (more
    /// than `u16::MAX` columns, a name past `u32::MAX` bytes) is an
    /// error here, before any byte reaches disk.
    pub fn encode(&self) -> Result<Vec<u8>, StoreError> {
        let mut w = Writer::new();
        self.encode_into(&mut w).map_err(StoreError::unencodable)?;
        Ok(w.into_bytes())
    }

    /// Appends the meta to `w` (a WAL body or the manifest).
    pub fn encode_into(&self, w: &mut Writer<Le>) -> Result<(), CodecError> {
        w.u32(self.table_id);
        w.string(&self.name)?;
        w.u64(self.row_count);
        w.u64(self.version);
        w.u16(codec::narrow("columns", self.columns.len())?);
        for (name, ty, nullable) in &self.columns {
            w.string(name)?;
            w.u8(datatype_tag(*ty));
            w.bool(*nullable);
        }
        Ok(())
    }

    /// Reads one meta off `r`.
    pub fn decode(r: &mut Reader<'_, Le>) -> Result<TableMeta, CodecError> {
        let table_id = r.u32()?;
        let name = r.string()?;
        let row_count = r.u64()?;
        let version = r.u64()?;
        let n_cols = r.u16()?;
        let mut columns = Vec::new();
        for _ in 0..n_cols {
            columns.push((r.string()?, datatype_from_tag(r.u8()?)?, r.bool()?));
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
    use fj_storage::Value;

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

    fn corrupt<T: std::fmt::Debug>(r: Result<T, StoreError>) -> bool {
        matches!(r, Err(StoreError::Corrupt { .. }))
    }

    #[test]
    fn rows_round_trip() {
        let rows = sample_rows();
        let buf = encode_rows(&rows).unwrap();
        let back = decode_rows(&buf, 5).unwrap();
        assert_eq!(back.len(), 2);
        // NaN != NaN under PartialEq; compare via total order instead.
        assert_eq!(back[0], rows[0]);
        assert_eq!(back[1].cmp(&rows[1]), std::cmp::Ordering::Equal);
    }

    #[test]
    fn empty_page_round_trips() {
        let buf = encode_rows(&[]).unwrap();
        assert!(decode_rows(&buf, 3).unwrap().is_empty());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = encode_rows(&sample_rows()).unwrap();
        buf.push(0xFF);
        assert!(corrupt(decode_rows(&buf, 5)));
    }

    #[test]
    fn truncation_rejected() {
        let buf = encode_rows(&sample_rows()).unwrap();
        assert!(corrupt(decode_rows(&buf[..buf.len() - 3], 5)));
    }

    #[test]
    fn bad_tag_rejected() {
        let mut buf = encode_rows(&sample_rows()).unwrap();
        buf[4] = 9; // first value's tag
        assert!(corrupt(decode_rows(&buf, 5)));
    }

    #[test]
    fn ragged_page_is_refused_at_encode() {
        let rows = [Tuple::new(vec![Value::Null]), Tuple::new(Vec::new())];
        let err = encode_rows(&rows).unwrap_err();
        assert!(matches!(err, StoreError::Unencodable { .. }), "{err}");
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
        let bytes = meta.encode().unwrap();
        let back = Reader::decode_all(&bytes, TableMeta::decode).unwrap();
        assert_eq!(back, meta);
        assert_eq!(back.schema().unwrap(), schema);
    }

    #[test]
    fn meta_wider_than_u16_columns_is_an_error_not_bytes() {
        let columns = (0..=u16::MAX as usize)
            .map(|i| Column::new(format!("c{i}"), DataType::Int))
            .collect();
        let schema = Schema::new(columns).unwrap();
        assert_eq!(schema.arity(), 65_536);
        let err = TableMeta::describe(0, "Wide", &schema, 0, 1)
            .encode()
            .unwrap_err();
        assert!(matches!(err, StoreError::Unencodable { .. }), "{err}");
        assert!(err.to_string().contains("columns"), "{err}");
    }
}
