//! Blocking TCP client for the `fj-net` protocol.
//!
//! One [`Client`] owns one connection and runs one request at a time
//! (the protocol is strictly request/response per connection — run
//! several clients for concurrency). Server-refused work surfaces as
//! [`NetError::Remote`] with the typed [`ErrorCode`]; the
//! [`NetError::is_retryable`] helper identifies shed/drain replies a
//! caller should back off and retry.

use crate::codec::{
    self, CodecError, FragmentRequest, GatherReply, HealthSnapshot, MutationReply, MutationRequest,
    QueryReply, QueryRequest, ScatterAck, ScatterRequest, SemijoinAck, SemijoinRequest,
};
use crate::wire::{self, ErrorCode, FrameReader, FrameType, WireError};
use fj_algebra::JoinQuery;
use fj_optimizer::OptimizerConfig;
use fj_storage::Mutation;
use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Client-side failures.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure.
    Io(io::Error),
    /// Framing/handshake failure.
    Wire(WireError),
    /// The server's payload failed to decode.
    Codec(CodecError),
    /// The server refused or failed the request with a typed code.
    Remote {
        /// Typed error code.
        code: ErrorCode,
        /// Human-readable detail from the server.
        message: String,
    },
    /// The server closed the connection before replying.
    ConnectionClosed,
    /// The server replied with a frame type that makes no sense here.
    Protocol(&'static str),
}

impl NetError {
    /// The typed server error code, if this is a [`NetError::Remote`].
    pub fn error_code(&self) -> Option<ErrorCode> {
        match self {
            NetError::Remote { code, .. } => Some(*code),
            _ => None,
        }
    }

    /// Whether backing off and retrying (possibly against another
    /// replica) can succeed: load-shed and draining replies.
    pub fn is_retryable(&self) -> bool {
        self.error_code().is_some_and(ErrorCode::is_retryable)
    }

    /// Whether this is a transport-level failure (socket, framing, or
    /// an unannounced close) rather than a typed server reply. A
    /// replica router treats these as "this replica, right now, is
    /// broken" and fails over.
    pub fn is_transport(&self) -> bool {
        matches!(
            self,
            NetError::Io(_) | NetError::Wire(_) | NetError::ConnectionClosed
        )
    }

    /// Whether this failure says something about *this replica* rather
    /// than about the request — the one failover predicate: transport
    /// failures (dead or partitioned replica), load shedding, drain
    /// refusals, and internal server errors (a worker lost
    /// mid-request). Deterministic rejections (malformed, query
    /// failed, deadline) are not: every replica would answer the same.
    pub fn is_replica_local(&self) -> bool {
        self.is_transport()
            || matches!(
                self.error_code(),
                Some(ErrorCode::Shed | ErrorCode::ShuttingDown | ErrorCode::Internal)
            )
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io error: {e}"),
            NetError::Wire(e) => write!(f, "wire error: {e}"),
            NetError::Codec(e) => write!(f, "codec error: {e}"),
            NetError::Remote { code, message } => write!(f, "server error [{code}]: {message}"),
            NetError::ConnectionClosed => f.write_str("server closed the connection"),
            NetError::Protocol(what) => write!(f, "protocol violation: {what}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}

impl From<CodecError> for NetError {
    fn from(e: CodecError) -> Self {
        NetError::Codec(e)
    }
}

/// Per-request options.
#[derive(Debug, Clone, Default)]
pub struct QueryOptions {
    /// Give the server at most this long (measured from its receipt of
    /// the request) before it answers [`ErrorCode::DeadlineExceeded`].
    pub deadline: Option<Duration>,
    /// Optimizer-config override for this request only.
    pub config: Option<OptimizerConfig>,
    /// Request per-operator tracing: the server executes with tracing
    /// on and follows the RESULT frame with a TRACE_REPLY frame, which
    /// lands in [`QueryReply::trace`].
    pub want_trace: bool,
}

/// Exact wire bytes exchanged by one distributed request/reply pair,
/// measured at the framing layer (header included). The `dist`
/// reproduce experiment reconciles these against the optimizer's
/// predicted network costs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireBytes {
    /// Bytes put on the wire for the request frame.
    pub sent: u64,
    /// Bytes read off the wire for the reply frame.
    pub received: u64,
}

impl WireBytes {
    fn of(sent: usize, reply_payload: usize) -> WireBytes {
        WireBytes {
            sent: sent as u64,
            received: (reply_payload + wire::FRAME_HEADER_BYTES) as u64,
        }
    }

    /// Total bytes both directions.
    pub fn total(&self) -> u64 {
        self.sent + self.received
    }

    /// Accumulates another exchange into this tally.
    pub fn add(&mut self, other: WireBytes) {
        self.sent += other.sent;
        self.received += other.received;
    }
}

/// A handle that cancels the query in flight on its [`Client`]'s
/// connection, from another thread (the client itself is blocked
/// waiting for the reply). Obtained from [`Client::canceller`].
#[derive(Debug)]
pub struct Canceller {
    stream: TcpStream,
    writing: WriteLock,
}

/// Held while a frame is written to a connection that a [`Client`] and
/// its [`Canceller`]s share: a frame is a header write and a payload
/// write, and a CANCEL landing between the two would corrupt the
/// request. It guards no data, so a poisoned lock is taken as is.
type WriteLock = Arc<Mutex<()>>;

fn hold(writing: &WriteLock) -> MutexGuard<'_, ()> {
    writing.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Canceller {
    /// Sends a CANCEL frame. The server trips the query's interrupt;
    /// the blocked `query*` call returns [`ErrorCode::Cancelled`] (or
    /// the result, if the query won the race). Harmless when no query
    /// is in flight, or while the client is still sending one: the
    /// frame then goes out before or after the request, never inside.
    pub fn cancel(&mut self) -> Result<(), NetError> {
        let _writing = hold(&self.writing);
        wire::write_frame(&mut self.stream, FrameType::Cancel, &[])?;
        Ok(())
    }
}

/// A blocking connection to an `fj-net` server.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    reader: FrameReader,
    writing: WriteLock,
    /// The read timeout last armed on `stream`, so an exchange pays the
    /// `setsockopt` only when its timeout differs.
    read_timeout: Option<Duration>,
}

impl Client {
    /// Connects and performs the magic + version handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, NetError> {
        let mut stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        wire::client_handshake(&mut stream)?;
        Ok(Client {
            stream,
            reader: FrameReader::new(wire::DEFAULT_MAX_FRAME_BYTES),
            writing: WriteLock::default(),
            read_timeout: None,
        })
    }

    /// Like [`Client::connect`], but gives up on the TCP connect after
    /// `timeout` — a replica router probing a possibly-dead server must
    /// not block for the OS default (minutes).
    pub fn connect_timeout(addr: &SocketAddr, timeout: Duration) -> Result<Client, NetError> {
        let mut stream = TcpStream::connect_timeout(addr, timeout)?;
        let _ = stream.set_nodelay(true);
        // Bound the handshake reads too: a half-up server that accepts
        // but never responds would otherwise hang the probe.
        stream.set_read_timeout(Some(timeout))?;
        wire::client_handshake(&mut stream)?;
        stream.set_read_timeout(None)?;
        Ok(Client {
            stream,
            reader: FrameReader::new(wire::DEFAULT_MAX_FRAME_BYTES),
            writing: WriteLock::default(),
            read_timeout: None,
        })
    }

    /// Executes `query` under the server's default optimizer config,
    /// with no deadline.
    pub fn query(&mut self, query: &JoinQuery) -> Result<QueryReply, NetError> {
        self.query_with(query, &QueryOptions::default())
    }

    /// Executes `query` with per-request options.
    pub fn query_with(
        &mut self,
        query: &JoinQuery,
        opts: &QueryOptions,
    ) -> Result<QueryReply, NetError> {
        self.query_with_raw(query, opts).map(|(reply, _)| reply)
    }

    /// Like [`Client::query_with`], but also returns the raw RESULT
    /// payload bytes. A cluster client hedging the same query against
    /// two replicas compares these bytes to verify the replies agree.
    pub fn query_with_raw(
        &mut self,
        query: &JoinQuery,
        opts: &QueryOptions,
    ) -> Result<(QueryReply, Vec<u8>), NetError> {
        let request = QueryRequest {
            deadline_millis: deadline_millis(opts.deadline),
            want_trace: opts.want_trace,
            config: opts.config,
            query: query.clone(),
        };
        let payload = codec::encode_request(&request)?;
        let (ty, raw, _) = self.exchange(FrameType::Query, &payload, patience(opts.deadline))?;
        let raw = reply_body(ty, raw, FrameType::Result, "expected RESULT or ERROR frame")?;
        let mut reply = codec::decode_reply(&raw)?;
        if opts.want_trace {
            // The trace travels in its own frame right behind the
            // RESULT, keeping the result bytes themselves
            // replica-comparable.
            let (ty, body) = self.recv()?;
            let expected = "expected TRACE_REPLY or ERROR frame";
            let body = reply_body(ty, body, FrameType::TraceReply, expected)?;
            reply.trace = Some(codec::decode_trace_reply(&body)?);
        }
        Ok((reply, raw))
    }

    /// Probes the server's health/readiness. Served even while the
    /// server drains, so a router can tell "draining" from "dead". The
    /// wait is bounded by `timeout`.
    pub fn health(&mut self, timeout: Duration) -> Result<HealthSnapshot, NetError> {
        let (ty, body, _) = self.exchange(FrameType::Health, &[], Some(timeout))?;
        let expected = "expected HEALTH_REPLY or ERROR frame";
        let body = reply_body(ty, body, FrameType::HealthReply, expected)?;
        Ok(codec::decode_health_reply(&body)?)
    }

    /// A [`Canceller`] for this connection (a cloned socket handle), to
    /// tear down an in-flight query from another thread.
    pub fn canceller(&self) -> Result<Canceller, NetError> {
        Ok(Canceller {
            stream: self.stream.try_clone()?,
            writing: Arc::clone(&self.writing),
        })
    }

    /// Fetches the server's combined stats JSON line.
    pub fn stats_json(&mut self) -> Result<String, NetError> {
        let (ty, body, _) = self.exchange(FrameType::Stats, &[], None)?;
        let expected = "expected STATS_REPLY or ERROR frame";
        let body = reply_body(ty, body, FrameType::StatsReply, expected)?;
        Ok(codec::decode_stats_reply(&body)?)
    }

    /// Ships one partition of a base table to this shard (deploy-time
    /// only; shards never mutate after scatter). Returns the ack plus
    /// the exact wire bytes exchanged, for predicted-vs-actual network
    /// cost reconciliation.
    pub fn scatter(
        &mut self,
        req: &ScatterRequest,
        timeout: Duration,
    ) -> Result<(ScatterAck, WireBytes), NetError> {
        let payload = codec::encode_scatter(req)?;
        let (ty, body, wire) = self.exchange(FrameType::Scatter, &payload, Some(timeout))?;
        let expected = "expected SCATTER_ACK or ERROR frame";
        let body = reply_body(ty, body, FrameType::ScatterAck, expected)?;
        Ok((codec::decode_scatter_ack(&body)?, wire))
    }

    /// Runs one stateless semijoin step against this shard: filters the
    /// named shard-resident table by the shipped key/Bloom sets and
    /// returns surviving rows and/or distinct keys, plus the exact wire
    /// bytes exchanged.
    pub fn semijoin(
        &mut self,
        req: &SemijoinRequest,
        timeout: Duration,
    ) -> Result<(SemijoinAck, WireBytes), NetError> {
        let payload = codec::encode_semijoin(req)?;
        let (ty, body, wire) = self.exchange(FrameType::Semijoin, &payload, Some(timeout))?;
        let expected = "expected SEMIJOIN_ACK or ERROR frame";
        let body = reply_body(ty, body, FrameType::SemijoinAck, expected)?;
        Ok((codec::decode_semijoin_ack(&body)?, wire))
    }

    /// Runs one query fragment on this shard through its admission
    /// control and returns the partial result as a GATHER reply, plus
    /// the exact wire bytes exchanged. The fragment's `deadline_millis`
    /// bounds the shard-side run; use a [`Canceller`] from another
    /// thread to tear an in-flight fragment down early.
    pub fn fragment(
        &mut self,
        req: &FragmentRequest,
    ) -> Result<(GatherReply, WireBytes), NetError> {
        let payload = codec::encode_fragment(req)?;
        let deadline = match req.deadline_millis {
            0 => None,
            ms => Some(Duration::from_millis(ms)),
        };
        let (ty, body, wire) = self.exchange(FrameType::Fragment, &payload, patience(deadline))?;
        let body = reply_body(
            ty,
            body,
            FrameType::Gather,
            "expected GATHER or ERROR frame",
        )?;
        Ok((codec::decode_gather(&body)?, wire))
    }

    /// Executes one mutation (INSERT/UPDATE/DELETE) on the server, with
    /// no deadline. The reply reports rows affected, the table's new
    /// row count, and its new data version.
    pub fn mutate(&mut self, mutation: &Mutation) -> Result<MutationReply, NetError> {
        self.mutate_with(mutation, None)
    }

    /// Like [`Client::mutate`], with a server-side deadline. A deadline
    /// that trips before the server's WAL commit aborts the mutation
    /// with no state change ([`ErrorCode::DeadlineExceeded`]); one that
    /// trips after it loses the race and the committed reply arrives.
    /// Use a [`Canceller`] from another thread to abort mid-flight.
    pub fn mutate_with(
        &mut self,
        mutation: &Mutation,
        deadline: Option<Duration>,
    ) -> Result<MutationReply, NetError> {
        let request = MutationRequest {
            deadline_millis: deadline_millis(deadline),
            mutation: mutation.clone(),
        };
        let payload = codec::encode_mutation_request(&request)?;
        let (ty, body, _) = self.exchange(FrameType::Mutate, &payload, patience(deadline))?;
        let expected = "expected MUTATE_REPLY or ERROR frame";
        let body = reply_body(ty, body, FrameType::MutateReply, expected)?;
        Ok(codec::decode_mutation_reply(&body)?)
    }

    /// One request/response round trip, the only place a request frame
    /// is written: arm the read timeout if it changed (every reply read
    /// on this connection happens under the timeout of the exchange it
    /// belongs to), send the request, read the reply frame. Also
    /// reports the exact wire bytes exchanged.
    fn exchange(
        &mut self,
        ty: FrameType,
        payload: &[u8],
        read_timeout: Option<Duration>,
    ) -> Result<(FrameType, Vec<u8>, WireBytes), NetError> {
        if read_timeout != self.read_timeout {
            self.stream.set_read_timeout(read_timeout)?;
            self.read_timeout = read_timeout;
        }
        let sent = {
            let _writing = hold(&self.writing);
            wire::write_frame(&mut self.stream, ty, payload)?
        };
        let (reply_ty, body) = self.recv()?;
        let wire = WireBytes::of(sent, body.len());
        Ok((reply_ty, body, wire))
    }

    fn recv(&mut self) -> Result<(FrameType, Vec<u8>), NetError> {
        match self.reader.read_frame_blocking(&mut self.stream) {
            Ok(Some(frame)) => Ok((frame.ty, frame.payload)),
            Ok(None) => Err(NetError::ConnectionClosed),
            Err(e) => Err(NetError::Wire(e)),
        }
    }
}

/// The wire form of an optional server-side deadline (`0` = none; a
/// sub-millisecond deadline rounds up so it is not mistaken for none).
fn deadline_millis(deadline: Option<Duration>) -> u64 {
    deadline.map_or(0, |d| (d.as_millis() as u64).max(1))
}

/// How long to wait for a reply the server bounds by `deadline`: a bit
/// past it, so a dead server cannot hang a deadline-scoped call
/// forever.
fn patience(deadline: Option<Duration>) -> Option<Duration> {
    deadline.map(|d| d + Duration::from_secs(30))
}

/// The body of a reply frame of type `want`; an ERROR frame becomes the
/// typed [`NetError::Remote`], anything else is a protocol violation
/// described by `expected`.
fn reply_body(
    ty: FrameType,
    body: Vec<u8>,
    want: FrameType,
    expected: &'static str,
) -> Result<Vec<u8>, NetError> {
    if ty == want {
        Ok(body)
    } else if ty == FrameType::Error {
        let (code, message) = codec::decode_error(&body)?;
        Err(NetError::Remote { code, message })
    } else {
        Err(NetError::Protocol(expected))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_local_failures_are_transport_shed_drain_and_internal_only() {
        let remote = |code| NetError::Remote {
            code,
            message: String::new(),
        };
        assert!(remote(ErrorCode::Shed).is_replica_local());
        assert!(remote(ErrorCode::ShuttingDown).is_replica_local());
        assert!(remote(ErrorCode::Internal).is_replica_local());
        assert!(NetError::ConnectionClosed.is_replica_local());
        assert!(
            !remote(ErrorCode::QueryFailed).is_replica_local(),
            "deterministic rejection"
        );
        assert!(
            !remote(ErrorCode::DeadlineExceeded).is_replica_local(),
            "the deadline is global"
        );
    }
}
