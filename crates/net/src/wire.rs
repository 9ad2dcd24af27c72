//! The framed wire protocol: magic + version handshake, then
//! length-prefixed frames.
//!
//! Layout (all integers big-endian):
//!
//! ```text
//! handshake   client → server   [4B magic "FJNT"][u16 version]
//!             server → client   [4B magic "FJNT"][u16 version]
//!                               (version 0xFFFF = rejected)
//! frame       either direction  [u8 type][u32 payload_len][payload]
//! ```
//!
//! Frame payloads are encoded by [`crate::codec`]. Every decode path
//! is total: adversarial bytes produce typed errors, never panics, and
//! a claimed payload length above the configured cap is rejected
//! *before* any allocation ([`WireError::FrameTooLarge`]).

use std::fmt;
use std::io::{self, Read, Write};

/// Protocol magic: the first four bytes on every connection.
pub const MAGIC: [u8; 4] = *b"FJNT";

/// Protocol version spoken by this build. Version 2 carries
/// TRACE_REPLY and HEALTH_REPLY payloads in the byte codec (version 1
/// sent them as JSON strings).
pub const VERSION: u16 = 2;

/// Version value the server echoes to refuse a handshake.
pub const VERSION_REJECTED: u16 = 0xFFFF;

/// Default cap on one frame's payload (16 MiB).
pub const DEFAULT_MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

/// Bytes of a frame header: 1 type byte + 4 length bytes.
pub const FRAME_HEADER_BYTES: usize = 5;

/// Frame discriminants. Requests use the low range, responses the
/// high range, so a peer speaking the wrong role is caught immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameType {
    /// Client → server: execute a query (payload: request encoding).
    Query = 0x01,
    /// Client → server: fetch server + runtime counters.
    Stats = 0x02,
    /// Client → server: cancel the in-flight query on this connection
    /// (empty payload). The server trips the query's interrupt; the
    /// reply is an [`ErrorCode::Cancelled`] error frame (or the result,
    /// if the query won the race).
    Cancel = 0x03,
    /// Client → server: health/readiness probe (empty payload). Served
    /// even while the server drains, so a replica router can tell
    /// "draining" from "dead".
    Health = 0x04,
    /// Coordinator → shard: install one hash partition of a base table
    /// into the shard's catalog (payload: table name + schema + rows).
    /// Refused with a retryable error while the shard drains.
    Scatter = 0x05,
    /// Coordinator → shard: semijoin-filter a shard-resident table by
    /// shipped key / Bloom filter sets, optionally returning surviving
    /// rows and/or the distinct keys of one column (the SDD-1 reducer
    /// step, §5.1).
    Semijoin = 0x06,
    /// Coordinator → shard: run one query fragment (a [`fj_algebra::JoinQuery`]
    /// over shard-local partition tables) through the shard's query
    /// service — admission, governor and CANCEL apply exactly as for
    /// [`FrameType::Query`].
    Fragment = 0x07,
    /// Client → server: execute a mutation (INSERT/UPDATE/DELETE;
    /// payload: [`crate::codec::MutationRequest`] encoding). Admission
    /// control, deadlines, and CANCEL apply exactly as for
    /// [`FrameType::Query`]; a cancellation observed before the WAL
    /// commit leaves no state.
    Mutate = 0x08,
    /// Server → client: query result (payload: reply encoding).
    Result = 0x81,
    /// Server → client: stats reply (payload: one JSON string).
    StatsReply = 0x82,
    /// Server → client: health reply (payload: a status byte and the
    /// HEALTH counters — see [`crate::codec::encode_health_reply`]).
    HealthReply = 0x83,
    /// Server → client: the per-operator execution trace of the query
    /// just answered with [`FrameType::Result`] (payload: the trace
    /// tree — see [`crate::codec::encode_trace_reply`]). Sent only when the
    /// request set its trace flag, always immediately after the RESULT
    /// frame, so the reply encoding itself stays byte-comparable
    /// across replicas.
    TraceReply = 0x84,
    /// Shard → coordinator: acknowledgement of a [`FrameType::Scatter`]
    /// (payload: rows stored + bytes stored).
    ScatterAck = 0x85,
    /// Shard → coordinator: reply to a [`FrameType::Semijoin`] (payload:
    /// row counts before/after reduction, optional surviving rows,
    /// optional distinct key set).
    SemijoinAck = 0x86,
    /// Shard → coordinator: the rows of one executed fragment (payload:
    /// schema + rows + latency), the partial-result half of the
    /// scatter/gather exchange.
    Gather = 0x87,
    /// Server → client: reply to a [`FrameType::Mutate`] (payload:
    /// rows affected + new row count + new table version).
    MutateReply = 0x88,
    /// Server → client: typed error (payload: code + message).
    Error = 0x7F,
}

impl FrameType {
    /// Decodes a frame-type byte.
    pub fn from_u8(b: u8) -> Option<FrameType> {
        match b {
            0x01 => Some(FrameType::Query),
            0x02 => Some(FrameType::Stats),
            0x03 => Some(FrameType::Cancel),
            0x04 => Some(FrameType::Health),
            0x05 => Some(FrameType::Scatter),
            0x06 => Some(FrameType::Semijoin),
            0x07 => Some(FrameType::Fragment),
            0x08 => Some(FrameType::Mutate),
            0x81 => Some(FrameType::Result),
            0x82 => Some(FrameType::StatsReply),
            0x83 => Some(FrameType::HealthReply),
            0x84 => Some(FrameType::TraceReply),
            0x85 => Some(FrameType::ScatterAck),
            0x86 => Some(FrameType::SemijoinAck),
            0x87 => Some(FrameType::Gather),
            0x88 => Some(FrameType::MutateReply),
            0x7F => Some(FrameType::Error),
            _ => None,
        }
    }
}

/// Typed error codes carried in [`FrameType::Error`] frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The request payload failed to decode.
    Malformed = 1,
    /// Admission control refused the query (submission queue or
    /// connection cap full). Retryable after backoff.
    Shed = 2,
    /// The per-request deadline expired before the query finished.
    DeadlineExceeded = 3,
    /// The server is draining and accepts no new work. Retryable
    /// against another replica.
    ShuttingDown = 4,
    /// The optimizer or executor rejected the query.
    QueryFailed = 5,
    /// The handshake offered a protocol version this peer cannot speak.
    UnsupportedVersion = 6,
    /// A frame claimed a payload larger than the configured cap.
    FrameTooLarge = 7,
    /// Anything else (worker lost, internal invariant).
    Internal = 8,
    /// The query was cancelled — by a client CANCEL frame or a
    /// server-side deadline tearing down execution.
    Cancelled = 9,
}

impl ErrorCode {
    /// Decodes an error-code byte.
    pub fn from_u8(b: u8) -> Option<ErrorCode> {
        match b {
            1 => Some(ErrorCode::Malformed),
            2 => Some(ErrorCode::Shed),
            3 => Some(ErrorCode::DeadlineExceeded),
            4 => Some(ErrorCode::ShuttingDown),
            5 => Some(ErrorCode::QueryFailed),
            6 => Some(ErrorCode::UnsupportedVersion),
            7 => Some(ErrorCode::FrameTooLarge),
            8 => Some(ErrorCode::Internal),
            9 => Some(ErrorCode::Cancelled),
            _ => None,
        }
    }

    /// Whether a client should retry (possibly elsewhere, after
    /// backoff): load shedding and drain are transient by design.
    pub fn is_retryable(self) -> bool {
        matches!(self, ErrorCode::Shed | ErrorCode::ShuttingDown)
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorCode::Malformed => "MALFORMED",
            ErrorCode::Shed => "SHED",
            ErrorCode::DeadlineExceeded => "DEADLINE",
            ErrorCode::ShuttingDown => "SHUTTING_DOWN",
            ErrorCode::QueryFailed => "QUERY_FAILED",
            ErrorCode::UnsupportedVersion => "UNSUPPORTED_VERSION",
            ErrorCode::FrameTooLarge => "FRAME_TOO_LARGE",
            ErrorCode::Internal => "INTERNAL",
            ErrorCode::Cancelled => "CANCELLED",
        };
        f.write_str(s)
    }
}

/// Transport-layer failures (framing and handshake; payload decoding
/// errors are [`crate::codec::CodecError`]).
#[derive(Debug)]
pub enum WireError {
    /// Socket-level failure.
    Io(io::Error),
    /// The peer's first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The peer speaks an incompatible protocol version.
    VersionMismatch {
        /// Version the peer offered (or echoed).
        theirs: u16,
    },
    /// A frame-type byte outside the protocol.
    UnknownFrameType(u8),
    /// A frame header claimed more payload than the cap allows.
    FrameTooLarge {
        /// Claimed payload length.
        len: u32,
        /// Configured cap.
        max: u32,
    },
    /// The connection closed mid-frame.
    TruncatedFrame,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "io error: {e}"),
            WireError::BadMagic(m) => write!(f, "bad protocol magic {m:02x?}"),
            WireError::VersionMismatch { theirs } => {
                write!(
                    f,
                    "peer speaks protocol version {theirs}, we speak {VERSION}"
                )
            }
            WireError::UnknownFrameType(b) => write!(f, "unknown frame type 0x{b:02x}"),
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds cap of {max}")
            }
            WireError::TruncatedFrame => f.write_str("connection closed mid-frame"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Writes one frame; returns the total bytes put on the wire.
pub fn write_frame(w: &mut impl Write, ty: FrameType, payload: &[u8]) -> io::Result<usize> {
    debug_assert!(payload.len() <= u32::MAX as usize);
    let mut header = [0u8; FRAME_HEADER_BYTES];
    header[0] = ty as u8;
    header[1..].copy_from_slice(&(payload.len() as u32).to_be_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(FRAME_HEADER_BYTES + payload.len())
}

/// Incremental frame reader: buffers partial reads so a socket with a
/// read timeout never loses sync, and lets the caller interleave a
/// stop condition (the server's drain flag) between reads.
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    max: u32,
}

/// One received frame plus its size on the wire.
#[derive(Debug)]
pub struct Frame {
    /// Frame discriminant.
    pub ty: FrameType,
    /// Decoded payload bytes.
    pub payload: Vec<u8>,
    /// Header + payload size, for byte accounting.
    pub wire_bytes: usize,
}

impl FrameReader {
    /// A reader enforcing `max` payload bytes per frame.
    pub fn new(max: u32) -> FrameReader {
        FrameReader {
            buf: Vec::new(),
            max,
        }
    }

    /// Parses a complete frame out of the buffer, if present.
    fn take_buffered(&mut self) -> Result<Option<Frame>, WireError> {
        if self.buf.len() < FRAME_HEADER_BYTES {
            return Ok(None);
        }
        let ty = FrameType::from_u8(self.buf[0]).ok_or(WireError::UnknownFrameType(self.buf[0]))?;
        let len = u32::from_be_bytes([self.buf[1], self.buf[2], self.buf[3], self.buf[4]]);
        if len > self.max {
            return Err(WireError::FrameTooLarge { len, max: self.max });
        }
        let total = FRAME_HEADER_BYTES + len as usize;
        if self.buf.len() < total {
            return Ok(None);
        }
        let payload = self.buf[FRAME_HEADER_BYTES..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(Frame {
            ty,
            payload,
            wire_bytes: total,
        }))
    }

    /// Reads until one frame is complete, the peer closes cleanly
    /// between frames (`Ok(None)`), or `should_stop(mid_frame)` says to
    /// give up. Timeout-flavoured read errors re-check `should_stop`
    /// instead of failing, so a socket read timeout bounds how late the
    /// caller notices its stop condition (the server's read side uses
    /// it to notice a drain) without delaying a frame: a read returns
    /// as soon as bytes arrive.
    pub fn read_frame<R: Read>(
        &mut self,
        r: &mut R,
        mut should_stop: impl FnMut(bool) -> bool,
    ) -> Result<Option<Frame>, WireError> {
        let mut chunk = [0u8; 8 * 1024];
        loop {
            if let Some(frame) = self.take_buffered()? {
                return Ok(Some(frame));
            }
            if should_stop(!self.buf.is_empty()) {
                return Ok(None);
            }
            match r.read(&mut chunk) {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        Ok(None)
                    } else {
                        Err(WireError::TruncatedFrame)
                    };
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(WireError::Io(e)),
            }
        }
    }

    /// Blocking convenience: reads one frame with no stop condition.
    pub fn read_frame_blocking<R: Read>(&mut self, r: &mut R) -> Result<Option<Frame>, WireError> {
        self.read_frame(r, |_| false)
    }
}

/// Client side of the handshake: offer our magic + version, check the
/// echo.
pub fn client_handshake<S: Read + Write>(stream: &mut S) -> Result<(), WireError> {
    let mut hello = [0u8; 6];
    hello[..4].copy_from_slice(&MAGIC);
    hello[4..].copy_from_slice(&VERSION.to_be_bytes());
    stream.write_all(&hello)?;
    stream.flush()?;

    let mut echo = [0u8; 6];
    stream.read_exact(&mut echo).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            WireError::TruncatedFrame
        } else {
            WireError::Io(e)
        }
    })?;
    let magic: [u8; 4] = [echo[0], echo[1], echo[2], echo[3]];
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let theirs = u16::from_be_bytes([echo[4], echo[5]]);
    if theirs != VERSION {
        return Err(WireError::VersionMismatch { theirs });
    }
    Ok(())
}

/// Server side of the handshake: read the client's offer, echo our
/// version on success, echo [`VERSION_REJECTED`] (then error) on a
/// version we cannot speak.
pub fn server_handshake<S: Read + Write>(stream: &mut S) -> Result<(), WireError> {
    let mut hello = [0u8; 6];
    stream.read_exact(&mut hello).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            WireError::TruncatedFrame
        } else {
            WireError::Io(e)
        }
    })?;
    let magic: [u8; 4] = [hello[0], hello[1], hello[2], hello[3]];
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let theirs = u16::from_be_bytes([hello[4], hello[5]]);
    let mut echo = [0u8; 6];
    echo[..4].copy_from_slice(&MAGIC);
    if theirs != VERSION {
        echo[4..].copy_from_slice(&VERSION_REJECTED.to_be_bytes());
        let _ = stream.write_all(&echo);
        let _ = stream.flush();
        return Err(WireError::VersionMismatch { theirs });
    }
    echo[4..].copy_from_slice(&VERSION.to_be_bytes());
    stream.write_all(&echo)?;
    stream.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_round_trip() {
        let mut wire = Vec::new();
        let n = write_frame(&mut wire, FrameType::Query, b"hello").unwrap();
        assert_eq!(n, FRAME_HEADER_BYTES + 5);
        let mut fr = FrameReader::new(DEFAULT_MAX_FRAME_BYTES);
        let frame = fr
            .read_frame_blocking(&mut Cursor::new(wire))
            .unwrap()
            .unwrap();
        assert_eq!(frame.ty, FrameType::Query);
        assert_eq!(frame.payload, b"hello");
        assert_eq!(frame.wire_bytes, n);
    }

    #[test]
    fn two_frames_in_one_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameType::Stats, b"").unwrap();
        write_frame(&mut wire, FrameType::Error, &[2]).unwrap();
        let mut cur = Cursor::new(wire);
        let mut fr = FrameReader::new(DEFAULT_MAX_FRAME_BYTES);
        assert_eq!(
            fr.read_frame_blocking(&mut cur).unwrap().unwrap().ty,
            FrameType::Stats
        );
        let second = fr.read_frame_blocking(&mut cur).unwrap().unwrap();
        assert_eq!(second.ty, FrameType::Error);
        assert_eq!(second.payload, vec![2]);
        assert!(fr.read_frame_blocking(&mut cur).unwrap().is_none());
    }

    #[test]
    fn dist_frame_types_round_trip() {
        for ty in [
            FrameType::Scatter,
            FrameType::Semijoin,
            FrameType::Fragment,
            FrameType::ScatterAck,
            FrameType::SemijoinAck,
            FrameType::Gather,
            FrameType::Mutate,
            FrameType::MutateReply,
        ] {
            assert_eq!(FrameType::from_u8(ty as u8), Some(ty));
            let mut wire = Vec::new();
            write_frame(&mut wire, ty, b"x").unwrap();
            let mut fr = FrameReader::new(DEFAULT_MAX_FRAME_BYTES);
            let frame = fr
                .read_frame_blocking(&mut Cursor::new(wire))
                .unwrap()
                .unwrap();
            assert_eq!(frame.ty, ty);
            assert_eq!(frame.payload, b"x");
        }
    }

    #[test]
    fn oversized_frame_rejected_before_allocation() {
        let mut wire = vec![FrameType::Query as u8];
        wire.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut fr = FrameReader::new(1024);
        assert!(matches!(
            fr.read_frame_blocking(&mut Cursor::new(wire)),
            Err(WireError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn unknown_type_and_truncation_are_typed_errors() {
        let mut fr = FrameReader::new(1024);
        let wire = vec![0xEEu8, 0, 0, 0, 0];
        assert!(matches!(
            fr.read_frame_blocking(&mut Cursor::new(wire)),
            Err(WireError::UnknownFrameType(0xEE))
        ));
        let mut fr = FrameReader::new(1024);
        let mut wire = vec![FrameType::Query as u8];
        wire.extend_from_slice(&8u32.to_be_bytes());
        wire.extend_from_slice(b"abc"); // promises 8, delivers 3
        assert!(matches!(
            fr.read_frame_blocking(&mut Cursor::new(wire)),
            Err(WireError::TruncatedFrame)
        ));
    }

    #[test]
    fn handshake_agrees_over_a_pipe() {
        // Emulate the two directions with separate buffers.
        struct Duplex {
            incoming: Cursor<Vec<u8>>,
            outgoing: Vec<u8>,
        }
        impl Read for Duplex {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.incoming.read(buf)
            }
        }
        impl Write for Duplex {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.outgoing.write(buf)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        // Client writes its hello...
        let mut client = Duplex {
            incoming: Cursor::new(Vec::new()),
            outgoing: Vec::new(),
        };
        let mut hello = [0u8; 6];
        hello[..4].copy_from_slice(&MAGIC);
        hello[4..].copy_from_slice(&VERSION.to_be_bytes());
        // ...the server consumes it and echoes...
        let mut server = Duplex {
            incoming: Cursor::new(hello.to_vec()),
            outgoing: Vec::new(),
        };
        server_handshake(&mut server).unwrap();
        // ...and the client accepts the echo.
        client.incoming = Cursor::new(server.outgoing.clone());
        client_handshake(&mut client).unwrap();
    }

    #[test]
    fn server_rejects_bad_magic_and_version() {
        let mut bad_magic = Cursor::new(b"NOPE\x00\x01".to_vec());
        assert!(matches!(
            server_handshake(&mut bad_magic),
            Err(WireError::BadMagic(_))
        ));
        let mut hello = MAGIC.to_vec();
        hello.extend_from_slice(&99u16.to_be_bytes());
        let mut bad_version = Cursor::new(hello);
        assert!(matches!(
            server_handshake(&mut bad_version),
            Err(WireError::VersionMismatch { theirs: 99 })
        ));
    }

    #[test]
    fn error_codes_round_trip_and_classify() {
        for code in [
            ErrorCode::Malformed,
            ErrorCode::Shed,
            ErrorCode::DeadlineExceeded,
            ErrorCode::ShuttingDown,
            ErrorCode::QueryFailed,
            ErrorCode::UnsupportedVersion,
            ErrorCode::FrameTooLarge,
            ErrorCode::Internal,
            ErrorCode::Cancelled,
        ] {
            assert_eq!(ErrorCode::from_u8(code as u8), Some(code));
        }
        assert_eq!(ErrorCode::from_u8(0), None);
        assert!(ErrorCode::Shed.is_retryable());
        assert!(ErrorCode::ShuttingDown.is_retryable());
        assert!(!ErrorCode::Malformed.is_retryable());
        assert!(
            !ErrorCode::Cancelled.is_retryable(),
            "a cancellation is deliberate, never retried"
        );
    }

    #[test]
    fn health_frames_round_trip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameType::Health, b"").unwrap();
        write_frame(&mut wire, FrameType::HealthReply, b"{}").unwrap();
        let mut cur = Cursor::new(wire);
        let mut fr = FrameReader::new(DEFAULT_MAX_FRAME_BYTES);
        let probe = fr.read_frame_blocking(&mut cur).unwrap().unwrap();
        assert_eq!(probe.ty, FrameType::Health);
        assert!(probe.payload.is_empty());
        let reply = fr.read_frame_blocking(&mut cur).unwrap().unwrap();
        assert_eq!(reply.ty, FrameType::HealthReply);
        assert_eq!(reply.payload, b"{}");
    }

    #[test]
    fn cancel_frame_round_trips() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameType::Cancel, b"").unwrap();
        let mut fr = FrameReader::new(DEFAULT_MAX_FRAME_BYTES);
        let frame = fr
            .read_frame_blocking(&mut Cursor::new(wire))
            .unwrap()
            .unwrap();
        assert_eq!(frame.ty, FrameType::Cancel);
        assert!(frame.payload.is_empty());
    }
}
