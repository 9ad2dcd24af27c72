//! The one byte codec under every format the engine writes: the fj-net
//! wire, page payloads, the WAL, the manifest and spill files (DESIGN.md,
//! "Byte formats").
//!
//! Every decoder is **total**: adversarial bytes yield a typed
//! [`CodecError`], never a panic or an aborted allocation. The rules
//! that make that hold:
//!
//! * counts are never trusted for allocation — lists grow by pushing, so
//!   a lying count runs the reader into [`CodecError::UnexpectedEof`],
//!   and a row count is checked against the bytes left before rows are
//!   reserved;
//! * lengths are checked against the bytes remaining on decode, and
//!   against their field width before narrowing on encode;
//! * a bool is the byte 0 or 1, nothing else;
//! * recursive encodings are depth-limited ([`MAX_DEPTH`]).
//!
//! The formats disagree on one thing, byte order, and both orders are
//! fixed by bytes already on the wire and on disk: the wire is
//! big-endian ([`Be`]), every disk format little-endian ([`Le`]). The
//! order is a type parameter of [`Reader`] and [`Writer`], chosen once
//! per format. Doubles travel as IEEE-754 bit patterns, so NaN payloads
//! survive a round trip.

use crate::{Tuple, Value};
use std::fmt;
use std::marker::PhantomData;

/// Nesting bound for recursive encodings (fj-net's expression and trace
/// trees), enforced on encode and decode so recursion cannot overflow
/// the stack.
pub const MAX_DEPTH: usize = 200;

/// Most zero-width rows one rows encoding may claim: they carry no
/// bytes a count could be checked against.
const MAX_EMPTY_ROWS: usize = 1 << 20;

/// Bytes in front of a frame body: `len u32` + `crc64 u64`.
pub(crate) const FRAME_HEADER: usize = 12;

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
    /// A length or count exceeded what the payload holds (decode) or
    /// what its field can carry (encode).
    TooLarge {
        /// What was being coded.
        what: &'static str,
        /// Claimed length.
        len: u64,
    },
    /// A structure nested beyond [`MAX_DEPTH`].
    TooDeep,
    /// A frame body whose CRC-64 disagrees with its header.
    Checksum {
        /// The checksum the header carries.
        stored: u64,
        /// The checksum of the body as read.
        computed: u64,
    },
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
                write!(f, "{what} length {len} exceeds its field or the payload")
            }
            CodecError::TooDeep => write!(f, "nested deeper than {MAX_DEPTH}"),
            CodecError::Checksum { stored, computed } => write!(
                f,
                "frame checksum mismatch: stored {stored:#x}, computed {computed:#x}"
            ),
            CodecError::Invalid(msg) => write!(f, "invalid payload: {msg}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// `n` as the field type `T`, or [`CodecError::TooLarge`] naming the
/// field — the one checked narrowing every encoder's counts go through.
pub fn narrow<T: TryFrom<usize>>(what: &'static str, n: usize) -> Result<T, CodecError> {
    T::try_from(n).map_err(|_| CodecError::TooLarge {
        what,
        len: n as u64,
    })
}

/// How the cursors lay out fixed-width integers: the low `N` bytes of a
/// `u64`, in this order.
pub trait ByteOrder {
    /// Appends the low `N` bytes of `v`.
    fn put<const N: usize>(out: &mut Vec<u8>, v: u64);
    /// Reads `N` bytes back into the low bytes of a `u64`.
    fn get<const N: usize>(bytes: [u8; N]) -> u64;
}

/// Big-endian: the fj-net wire.
#[derive(Debug)]
pub struct Be;

/// Little-endian: page payloads, the WAL, the manifest and spill files.
#[derive(Debug)]
pub struct Le;

impl ByteOrder for Be {
    #[inline]
    fn put<const N: usize>(out: &mut Vec<u8>, v: u64) {
        out.extend_from_slice(&v.to_be_bytes()[8 - N..]);
    }

    #[inline]
    fn get<const N: usize>(bytes: [u8; N]) -> u64 {
        let mut wide = [0; 8];
        wide[8 - N..].copy_from_slice(&bytes);
        u64::from_be_bytes(wide)
    }
}

impl ByteOrder for Le {
    #[inline]
    fn put<const N: usize>(out: &mut Vec<u8>, v: u64) {
        out.extend_from_slice(&v.to_le_bytes()[..N]);
    }

    #[inline]
    fn get<const N: usize>(bytes: [u8; N]) -> u64 {
        let mut wide = [0; 8];
        wide[..N].copy_from_slice(&bytes);
        u64::from_le_bytes(wide)
    }
}

// ---------------------------------------------------------------- cursors

/// Cursor over a received payload.
#[derive(Debug)]
pub struct Reader<'a, O> {
    buf: &'a [u8],
    pos: usize,
    order: PhantomData<O>,
}

impl<'a, O: ByteOrder> Reader<'a, O> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader {
            buf,
            pos: 0,
            order: PhantomData,
        }
    }

    /// Decodes all of `buf` with `f`: bytes left over are
    /// [`CodecError::TrailingBytes`], so a payload with junk appended
    /// is rejected, not half-read.
    pub fn decode_all<T>(
        buf: &'a [u8],
        f: impl FnOnce(&mut Self) -> Result<T, CodecError>,
    ) -> Result<T, CodecError> {
        let mut r = Reader::new(buf);
        let value = f(&mut r)?;
        r.finish()?;
        Ok(value)
    }

    /// Fails unless every byte was consumed.
    pub fn finish(self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(CodecError::TrailingBytes(n)),
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes.
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Every byte not yet consumed.
    pub fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    fn uint<const N: usize>(&mut self) -> Result<u64, CodecError> {
        let mut bytes = [0; N];
        bytes.copy_from_slice(self.take(N)?);
        Ok(O::get(bytes))
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// A `u16`.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(self.uint::<2>()? as u16)
    }

    /// A `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(self.uint::<4>()? as u32)
    }

    /// A `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        self.uint::<8>()
    }

    /// An `i64` (two's complement).
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(self.u64()? as i64)
    }

    /// An `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A bool: the byte 0 or 1.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::BadTag { what: "bool", tag }),
        }
    }

    /// A `u32`-length UTF-8 string.
    pub fn string(&mut self) -> Result<String, CodecError> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(CodecError::TooLarge {
                what: "string",
                len: len as u64,
            });
        }
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| CodecError::BadUtf8)
    }

    /// A `[count u32]` list of `item`s.
    pub fn list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        let n = self.u32()?;
        let mut items = Vec::new();
        for _ in 0..n {
            items.push(item(self)?);
        }
        Ok(items)
    }

    /// A 0/1-tagged option; any other tag is a [`CodecError::BadTag`]
    /// naming `what`.
    pub fn option<T>(
        &mut self,
        what: &'static str,
        some: impl FnOnce(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Option<T>, CodecError> {
        match self.u8()? {
            0 => Ok(None),
            1 => some(self).map(Some),
            tag => Err(CodecError::BadTag { what, tag }),
        }
    }
}

impl<'a> Reader<'a, Le> {
    /// One `[len u32][crc64 u64][body]` frame's body, checksum-verified.
    pub fn frame(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.u32()? as usize;
        let stored = self.u64()?;
        let body = self.take(len)?;
        let computed = crc64(body);
        if computed != stored {
            return Err(CodecError::Checksum { stored, computed });
        }
        Ok(body)
    }
}

/// Growable payload buffer.
#[derive(Debug)]
pub struct Writer<O> {
    buf: Vec<u8>,
    order: PhantomData<O>,
}

impl<O> Default for Writer<O> {
    fn default() -> Self {
        Writer {
            buf: Vec::new(),
            order: PhantomData,
        }
    }
}

impl<O: ByteOrder> Writer<O> {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// The finished payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Raw bytes, unprefixed.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A `u16`.
    pub fn u16(&mut self, v: u16) {
        O::put::<2>(&mut self.buf, v.into());
    }

    /// A `u32`.
    pub fn u32(&mut self, v: u32) {
        O::put::<4>(&mut self.buf, v.into());
    }

    /// A `u64`.
    pub fn u64(&mut self, v: u64) {
        O::put::<8>(&mut self.buf, v);
    }

    /// An `i64` (two's complement).
    pub fn i64(&mut self, v: i64) {
        self.u64(v as u64);
    }

    /// An `f64` as its bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// A bool as the byte 0 or 1.
    pub fn bool(&mut self, v: bool) {
        self.u8(v.into());
    }

    /// A `u32`-length string.
    pub fn string(&mut self, s: &str) -> Result<(), CodecError> {
        self.count("string", s.len())?;
        self.bytes(s.as_bytes());
        Ok(())
    }

    /// A `u32` count of `what`.
    pub fn count(&mut self, what: &'static str, n: usize) -> Result<(), CodecError> {
        self.u32(narrow(what, n)?);
        Ok(())
    }

    /// `[count u32]`, then each of `items` through `item`.
    pub fn list<I>(
        &mut self,
        what: &'static str,
        items: I,
        mut item: impl FnMut(&mut Self, I::Item) -> Result<(), CodecError>,
    ) -> Result<(), CodecError>
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
    {
        let items = items.into_iter();
        self.count(what, items.len())?;
        for it in items {
            item(self, it)?;
        }
        Ok(())
    }

    /// `0` for `None`, else `1` and the value through `some`.
    pub fn option<T: ?Sized>(
        &mut self,
        value: Option<&T>,
        some: impl FnOnce(&mut Self, &T) -> Result<(), CodecError>,
    ) -> Result<(), CodecError> {
        match value {
            None => {
                self.u8(0);
                Ok(())
            }
            Some(v) => {
                self.u8(1);
                some(self, v)
            }
        }
    }
}

impl Writer<Le> {
    /// Appends `body` framed as `[len u32][crc64 u64][body]`.
    pub fn frame(&mut self, body: &[u8]) -> Result<(), CodecError> {
        self.count("frame", body.len())?;
        self.u64(crc64(body));
        self.bytes(body);
        Ok(())
    }
}

// ----------------------------------------------------------- values, rows

const VALUE_NULL: u8 = 0;
const VALUE_INT: u8 = 1;
const VALUE_DOUBLE: u8 = 2;
const VALUE_STR: u8 = 3;
const VALUE_BOOL: u8 = 4;

/// Encodes one [`Value`]: a tag byte, then the payload.
pub fn encode_value<O: ByteOrder>(w: &mut Writer<O>, v: &Value) -> Result<(), CodecError> {
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
pub fn decode_value<O: ByteOrder>(r: &mut Reader<'_, O>) -> Result<Value, CodecError> {
    match r.u8()? {
        VALUE_NULL => Ok(Value::Null),
        VALUE_INT => Ok(Value::Int(r.i64()?)),
        VALUE_DOUBLE => Ok(Value::Double(r.f64()?)),
        VALUE_STR => Ok(Value::Str(r.string()?)),
        VALUE_BOOL => Ok(Value::Bool(r.bool()?)),
        tag => Err(CodecError::BadTag { what: "value", tag }),
    }
}

/// Encodes `[count u32]`, then each row's values. Every row must be
/// `arity` wide: the decoder is told the arity, not each row's.
pub fn encode_rows<O: ByteOrder>(
    w: &mut Writer<O>,
    arity: usize,
    rows: &[Tuple],
) -> Result<(), CodecError> {
    w.count("rows", rows.len())?;
    for row in rows {
        if row.arity() != arity {
            return Err(CodecError::Invalid(format!(
                "row arity {} does not match schema arity {arity}",
                row.arity()
            )));
        }
        for v in row.values() {
            encode_value(w, v)?;
        }
    }
    Ok(())
}

/// Decodes what [`encode_rows`] wrote for `arity`-wide rows. Each value
/// takes at least one byte, so a count the remaining bytes cannot hold
/// is rejected before anything is reserved; zero-width rows take no
/// bytes, so their count has a fixed cap instead.
pub fn decode_rows<O: ByteOrder>(
    r: &mut Reader<'_, O>,
    arity: usize,
) -> Result<Vec<Tuple>, CodecError> {
    let n = r.u32()? as usize;
    let most = match arity {
        0 => MAX_EMPTY_ROWS,
        _ => r.remaining() / arity,
    };
    if n > most {
        return Err(CodecError::TooLarge {
            what: "rows",
            len: n as u64,
        });
    }
    let mut rows = Vec::with_capacity(n);
    // One scratch vector for every row: draining it into the tuple's
    // shared storage costs a single exact-size allocation per row.
    let mut values = Vec::with_capacity(arity.min(r.remaining()));
    for _ in 0..n {
        for _ in 0..arity {
            values.push(decode_value(r)?);
        }
        rows.push(values.drain(..).collect());
    }
    Ok(rows)
}

// ---------------------------------------------------------------- crc64

const CRC64_POLY: u64 = 0xC96C_5795_D787_0F42;

const fn crc64_table() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ CRC64_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Slicing-by-8 tables: `T[0]` is the bytewise table, and `T[k][i]` is
/// the CRC of byte `i` followed by `k` zero bytes, so eight input bytes
/// fold into the state with eight independent lookups.
const fn crc64_slicing_tables() -> [[u64; 256]; 8] {
    let mut tables = [[0u64; 256]; 8];
    tables[0] = crc64_table();
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xff) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC64_TABLES: [[u64; 256]; 8] = crc64_slicing_tables();

/// Streaming CRC-64/XZ (reflected ECMA-182 polynomial, slicing-by-8 over
/// compile-time tables: eight bytes per step, bit-identical to the
/// bytewise definition), so multi-part records (header + payload) hash
/// without concatenation.
/// A 64-bit CRC makes a torn or bit-rotted frame vanishingly unlikely
/// to verify, which is what every recovery path leans on.
#[derive(Debug, Clone)]
pub struct Crc64 {
    state: u64,
}

impl Crc64 {
    /// Begins a fresh checksum.
    pub fn new() -> Crc64 {
        Crc64 { state: !0 }
    }

    /// Feeds `bytes` and returns `self` for chaining.
    pub fn update(mut self, bytes: &[u8]) -> Crc64 {
        let t = &CRC64_TABLES;
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            let x = self.state ^ u64::from_le_bytes(word);
            self.state = t[7][(x & 0xff) as usize]
                ^ t[6][((x >> 8) & 0xff) as usize]
                ^ t[5][((x >> 16) & 0xff) as usize]
                ^ t[4][((x >> 24) & 0xff) as usize]
                ^ t[3][((x >> 32) & 0xff) as usize]
                ^ t[2][((x >> 40) & 0xff) as usize]
                ^ t[1][((x >> 48) & 0xff) as usize]
                ^ t[0][(x >> 56) as usize];
        }
        for &b in chunks.remainder() {
            self.state = t[0][((self.state ^ u64::from(b)) & 0xff) as usize] ^ (self.state >> 8);
        }
        self
    }

    /// Final checksum value.
    pub fn finish(self) -> u64 {
        !self.state
    }
}

impl Default for Crc64 {
    fn default() -> Self {
        Crc64::new()
    }
}

/// One-shot CRC-64/XZ of `bytes`.
pub fn crc64(bytes: &[u8]) -> u64 {
    Crc64::new().update(bytes).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc64_known_vector() {
        // The CRC-64/XZ check value from the CRC catalogue.
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
    }

    #[test]
    fn crc64_streaming_equals_one_shot() {
        let parts = Crc64::new().update(b"hello ").update(b"world").finish();
        assert_eq!(parts, crc64(b"hello world"));
    }

    /// The CRC-64/XZ definition, one byte per table lookup: the
    /// reference the kernel in `Crc64::update` must match bit for bit.
    fn crc64_bytewise(state: u64, bytes: &[u8]) -> u64 {
        let table = crc64_table();
        bytes.iter().fold(state, |crc, &b| {
            table[((crc ^ u64::from(b)) & 0xff) as usize] ^ (crc >> 8)
        })
    }

    fn reference(bytes: &[u8]) -> u64 {
        !crc64_bytewise(!0, bytes)
    }

    #[test]
    fn crc64_matches_bytewise_reference() {
        let buf: Vec<u8> = (0..4_200u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        // Every short length at every alignment of the start.
        for start in 0..8 {
            for len in 0..=64 {
                let bytes = &buf[start..start + len];
                assert_eq!(crc64(bytes), reference(bytes), "start {start} len {len}");
                assert_eq!(
                    Crc64::new().update(bytes).finish(),
                    reference(bytes),
                    "start {start} len {len}"
                );
            }
        }
        // Around one page.
        for len in [4_095, 4_096, 4_097] {
            assert_eq!(crc64(&buf[..len]), reference(&buf[..len]), "len {len}");
        }
        // Two updates split at every point, as the page file feeds its
        // 24-byte header and then a payload of any length.
        let hundred = &buf[..100];
        for split in 0..=100 {
            let (head, tail) = hundred.split_at(split);
            assert_eq!(
                Crc64::new().update(head).update(tail).finish(),
                reference(hundred),
                "split {split}"
            );
        }
    }

    #[test]
    fn crc64_single_bit_flip_detected() {
        let mut page = vec![0xABu8; 4096];
        let before = crc64(&page);
        page[2048] ^= 0x01;
        assert_ne!(before, crc64(&page));
    }

    #[test]
    fn byte_orders_differ_only_in_order() {
        let mut be = Writer::<Be>::new();
        let mut le = Writer::<Le>::new();
        be.u16(0x0102);
        be.u32(0x0304_0506);
        be.u64(0x0708_090a_0b0c_0d0e);
        le.u16(0x0102);
        le.u32(0x0304_0506);
        le.u64(0x0708_090a_0b0c_0d0e);
        let be = be.into_bytes();
        let le = le.into_bytes();
        assert_eq!(be, [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14]);
        assert_eq!(le, [2, 1, 6, 5, 4, 3, 14, 13, 12, 11, 10, 9, 8, 7]);
        let mut r = Reader::<Be>::new(&be);
        assert_eq!(
            (r.u16().unwrap(), r.u32().unwrap(), r.u64().unwrap()),
            (0x0102, 0x0304_0506, 0x0708_090a_0b0c_0d0e)
        );
        let mut r = Reader::<Le>::new(&le);
        assert_eq!(
            (r.u16().unwrap(), r.u32().unwrap(), r.u64().unwrap()),
            (0x0102, 0x0304_0506, 0x0708_090a_0b0c_0d0e)
        );
    }

    #[test]
    fn frames_verify_their_body() {
        let mut w = Writer::<Le>::new();
        w.frame(b"first").unwrap();
        w.frame(b"").unwrap();
        let bytes = w.into_bytes();
        let mut r = Reader::<Le>::new(&bytes);
        assert_eq!(r.frame().unwrap(), b"first");
        assert_eq!(r.frame().unwrap(), b"");
        assert_eq!(r.remaining(), 0);

        let mut flipped = bytes.clone();
        flipped[FRAME_HEADER] ^= 1;
        let err = Reader::<Le>::new(&flipped).frame().unwrap_err();
        assert!(matches!(err, CodecError::Checksum { .. }), "{err:?}");
        let err = Reader::<Le>::new(&bytes[..FRAME_HEADER + 2]).frame();
        assert!(matches!(err, Err(CodecError::UnexpectedEof)));
    }

    #[test]
    fn counts_no_byte_can_check_are_still_bounded() {
        // Zero rows may name any arity without it being reserved.
        let rows = Reader::<Le>::decode_all(&[0; 4], |r| decode_rows(r, usize::MAX)).unwrap();
        assert!(rows.is_empty());
        // Zero-width rows carry no bytes; their count has a ceiling.
        let mut w = Writer::<Le>::new();
        w.count("rows", MAX_EMPTY_ROWS).unwrap();
        let at_cap = w.into_bytes();
        let rows = Reader::<Le>::decode_all(&at_cap, |r| decode_rows(r, 0)).unwrap();
        assert_eq!(rows.len(), MAX_EMPTY_ROWS);
        let over = (MAX_EMPTY_ROWS as u32 + 1).to_le_bytes();
        let err = Reader::<Le>::decode_all(&over, |r| decode_rows(r, 0));
        assert!(matches!(
            err,
            Err(CodecError::TooLarge { what: "rows", .. })
        ));
    }
}
