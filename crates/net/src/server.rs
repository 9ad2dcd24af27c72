//! The TCP query server: a blocking accept thread feeding two threads
//! per connection. The read side decodes framed requests and runs them
//! through [`fj_runtime::QueryService`] admission control; the reply
//! side waits on each queued request's ticket and replies with its
//! result or a typed error.
//!
//! Every request takes one lifecycle, written once (see `DESIGN.md`,
//! "Network service & wire protocol"): `admit` (count, drain refusal,
//! decode) → the service's queue (`try_submit*`) → `complete` (the only
//! wait: the reply side blocks on the ticket alone, bounded by the
//! request's deadline) → the success frame, or `send_runtime_error`
//! (the only `RuntimeError` → [`ErrorCode`] table). QUERY, FRAGMENT
//! and MUTATE handlers are decode + submit + encode-success around
//! those pieces; SCATTER and SEMIJOIN share `admit` and run inline on
//! the read side. No reply waits on a timer: the worker's completion
//! wakes the thread that writes, and the read side, blocked in a read,
//! wakes on the next frame.
//!
//! * **Load shedding** — `try_submit_*` maps a full submission queue to
//!   a retryable [`ErrorCode::Shed`] reply instead of blocking the
//!   connection handler, and the connection cap sheds the same way at
//!   accept time;
//! * **Deadlines** — a request's `deadline_millis` is measured from the
//!   instant its frame was received; expiry **tears the work down**:
//!   the reply side trips its interrupt with
//!   [`fj_runtime::InterruptReason::Deadline`], the worker stops within
//!   a bounded number of tuples, and the client gets
//!   [`ErrorCode::DeadlineExceeded`];
//! * **Cancellation** — a [`FrameType::Cancel`] frame the read side
//!   receives while a request is in flight trips its interrupt with
//!   [`fj_runtime::InterruptReason::Cancelled`]; the reply is an
//!   [`ErrorCode::Cancelled`] error (or the result, if the work won
//!   the race). A stale CANCEL between requests is a no-op. A peer
//!   that closes its connection mid-flight cancels the same way;
//! * **Graceful drain** — [`Server::shutdown`] stops the accept loop,
//!   lets every handler finish the request it is serving (replies
//!   included), then closes the worker pool. Accepted work is never
//!   dropped; connections idling between requests are closed.

use crate::codec::{self, HealthSnapshot, HealthStatus};
use crate::wire::{self, ErrorCode, Frame, FrameReader, FrameType, WireError};
use fj_algebra::Catalog;
use fj_optimizer::OptimizerConfig;
use fj_runtime::{
    Counter, Interrupt, InterruptReason, QueryService, RuntimeError, RuntimeMetrics, ServiceConfig,
    Ticket,
};
use fj_trace::json;
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a handler mid-request-frame at shutdown may keep reading
/// before its connection is dropped.
const DRAIN_GRACE: Duration = Duration::from_secs(2);

/// Tuning knobs for [`Server::bind`]. Request frames are capped at
/// [`wire::DEFAULT_MAX_FRAME_BYTES`], the same cap the client reads
/// replies with.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Concurrent connections accepted before shedding at the edge.
    pub max_connections: usize,
    /// The query-service pool fronted by this server.
    pub service: ServiceConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            service: ServiceConfig::default(),
        }
    }
}

/// Live server-side counters (monotonic except `connections_active`).
#[derive(Debug, Default)]
struct Counters {
    connections_total: AtomicU64,
    connections_active: AtomicUsize,
    connections_shed: AtomicU64,
    requests: AtomicU64,
    results: AtomicU64,
    sheds: AtomicU64,
    deadline_hits: AtomicU64,
    errors_sent: AtomicU64,
    health_probes: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
}

/// One observable snapshot of the server counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted since start (including later-shed ones).
    pub connections_total: u64,
    /// Connections currently open.
    pub connections_active: usize,
    /// Connections refused by the connection cap.
    pub connections_shed: u64,
    /// Request frames received — QUERY, FRAGMENT, MUTATE, SCATTER and
    /// SEMIJOIN — counted on arrival, before the drain check and the
    /// decode (so refused and malformed ones are included).
    pub requests: u64,
    /// Success replies to queued requests: RESULT, GATHER and
    /// MUTATE_REPLY frames (acks to SCATTER/SEMIJOIN are not counted).
    pub results: u64,
    /// ERROR frames sent with [`ErrorCode::Shed`]: any queued request
    /// kind refused by a full queue, plus connections refused by the
    /// connection cap.
    pub sheds: u64,
    /// ERROR frames sent with [`ErrorCode::DeadlineExceeded`], for any
    /// queued request kind.
    pub deadline_hits: u64,
    /// ERROR frames sent (all codes).
    pub errors_sent: u64,
    /// HEALTH probes answered.
    pub health_probes: u64,
    /// Bytes received (frames after handshake).
    pub bytes_in: u64,
    /// Bytes sent (frames after handshake).
    pub bytes_out: u64,
}

struct Shared {
    service: QueryService,
    default_config: OptimizerConfig,
    counters: Counters,
    /// Soft drain: refuse new queries (typed, retryable), keep serving
    /// HEALTH/STATS and finish accepted work. Connections stay open.
    draining: AtomicBool,
    /// Full stop: accept loop exits, handlers close between requests.
    shutting_down: AtomicBool,
    /// Hard kill: handlers drop connections immediately — mid-frame,
    /// mid-query — without replies, and tear their queries down. Models
    /// a crashed replica for the cluster chaos harness.
    aborting: AtomicBool,
    /// The fronted service's submission-queue capacity (the shed
    /// threshold), reported by HEALTH.
    queue_capacity: usize,
}

impl Shared {
    fn stats(&self) -> ServerStats {
        let c = &self.counters;
        ServerStats {
            connections_total: c.connections_total.load(Ordering::Relaxed),
            connections_active: c.connections_active.load(Ordering::Relaxed),
            connections_shed: c.connections_shed.load(Ordering::Relaxed),
            requests: c.requests.load(Ordering::Relaxed),
            results: c.results.load(Ordering::Relaxed),
            sheds: c.sheds.load(Ordering::Relaxed),
            deadline_hits: c.deadline_hits.load(Ordering::Relaxed),
            errors_sent: c.errors_sent.load(Ordering::Relaxed),
            health_probes: c.health_probes.load(Ordering::Relaxed),
            bytes_in: c.bytes_in.load(Ordering::Relaxed),
            bytes_out: c.bytes_out.load(Ordering::Relaxed),
        }
    }

    /// Whether new request frames are refused with SHUTTING_DOWN.
    fn refusing_queries(&self) -> bool {
        self.draining.load(Ordering::SeqCst) || self.shutting_down.load(Ordering::SeqCst)
    }

    /// Classifies one metrics snapshot for the replica router.
    fn status_of(&self, m: &RuntimeMetrics) -> HealthStatus {
        if self.refusing_queries() {
            HealthStatus::Draining
        } else if m.workers_replaced > 0 || m.queue_depth >= self.queue_capacity {
            HealthStatus::Degraded
        } else {
            HealthStatus::Ready
        }
    }

    /// The HEALTH reply body: drain state, pool strength, and queue
    /// pressure, all read from one metrics snapshot.
    fn health(&self) -> HealthSnapshot {
        let m = self.service.metrics();
        HealthSnapshot::new(self.status_of(&m), |key| match key {
            "queued" => m.queue_depth as u64,
            "queue_capacity" => self.queue_capacity as u64,
            "connections_active" => self.counters.connections_active.load(Ordering::Relaxed) as u64,
            shared => m
                .counter(shared)
                .expect("every other HEALTH key names a STATS runtime counter"),
        })
    }

    /// Server counters + runtime metrics as one stable-key JSON line —
    /// the STATS reply body and [`Server::stats_json`]. `state` and
    /// `runtime` come from the same metrics snapshot.
    fn stats_json(&self) -> String {
        let s = self.stats();
        let m = self.service.metrics();
        json::object(|w| {
            w.key("state").string(self.status_of(&m).as_str());
            for (key, v) in [
                ("connections_total", s.connections_total),
                ("connections_active", s.connections_active as u64),
                ("connections_shed", s.connections_shed),
                ("requests", s.requests),
                ("results", s.results),
                ("sheds", s.sheds),
                ("deadline_hits", s.deadline_hits),
                ("errors_sent", s.errors_sent),
                ("health_probes", s.health_probes),
                ("bytes_in", s.bytes_in),
                ("bytes_out", s.bytes_out),
            ] {
                w.key(key).uint(v);
            }
            w.key("runtime").raw(&m.to_json());
        })
    }
}

/// The TCP query server; see the module docs.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .field("stats", &self.shared.stats())
            .finish()
    }
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port), starts the
    /// query service over `catalog`, and begins accepting connections.
    ///
    /// The service config is validated strictly — a zero-sized knob is
    /// an error here, not a clamp: a network server with a silently
    /// resized queue would lie to its operators.
    pub fn bind(
        addr: impl ToSocketAddrs,
        catalog: Catalog,
        config: ServerConfig,
    ) -> io::Result<Server> {
        config
            .service
            .validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        if config.max_connections == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "max_connections must be ≥ 1",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;

        let shared = Arc::new(Shared {
            service: QueryService::start(catalog, config.service.clone()),
            default_config: config.service.optimizer,
            counters: Counters::default(),
            draining: AtomicBool::new(false),
            shutting_down: AtomicBool::new(false),
            aborting: AtomicBool::new(false),
            queue_capacity: config.service.queue_capacity,
        });
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept = {
            let shared = Arc::clone(&shared);
            let handlers = Arc::clone(&handlers);
            let max_conns = config.max_connections;
            std::thread::Builder::new()
                .name("fj-net-accept".into())
                .spawn(move || accept_loop(&listener, &shared, &handlers, max_conns))
                .expect("spawn fj-net accept thread")
        };

        Ok(Server {
            shared,
            local_addr,
            accept: Some(accept),
            handlers,
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Snapshot of the server-side counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// The combined server + runtime stats JSON line (same body a
    /// STATS request returns).
    pub fn stats_json(&self) -> String {
        self.shared.stats_json()
    }

    /// Live metrics of the fronted query service.
    pub fn metrics(&self) -> RuntimeMetrics {
        self.shared.service.metrics()
    }

    /// The server's current health report (what a HEALTH frame returns).
    pub fn health(&self) -> HealthSnapshot {
        self.shared.health()
    }

    /// What recovery found when this server started from a disk-backed
    /// data directory; `None` for the in-memory storage mode.
    pub fn recovery_report(&self) -> Option<fj_runtime::RecoveryReport> {
        self.shared.service.recovery_report()
    }

    /// Store counters of the fronted service (all zero in memory mode).
    pub fn store_stats(&self) -> fj_runtime::StoreStats {
        self.shared.service.store_stats()
    }

    /// Runs one fuzzy checkpoint on the fronted store (a no-op in
    /// memory mode): dirty pages flush, the manifest is published, and
    /// the WAL prefix is truncated — all without blocking concurrent
    /// queries, loads, or mutations.
    pub fn checkpoint(&self) -> Result<(), fj_runtime::RuntimeError> {
        self.shared.service.checkpoint()
    }

    /// Begins a **soft drain**: new request frames are refused with a
    /// typed, retryable [`ErrorCode::ShuttingDown`] so clients fail
    /// over, while queries already accepted finish with full replies.
    /// Unlike [`Server::shutdown`], the listener stays up and
    /// HEALTH/STATS requests keep being served (reporting `draining`),
    /// so a replica router can tell a draining replica from a dead one.
    /// Irreversible; call [`Server::shutdown`] to finish the teardown.
    pub fn begin_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// Whether [`Server::begin_drain`] has been called.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// **Hard kill**, modelling a crashed replica: every connection is
    /// dropped immediately — mid-frame, mid-query, no replies — and
    /// in-flight queries are torn down via their interrupts. Clients
    /// observe transport errors, exactly as they would against a
    /// process that died. The worker pool is still joined before this
    /// returns so the test harness leaks nothing.
    pub fn abort(mut self) {
        self.shared.aborting.store(true, Ordering::SeqCst);
        self.stop();
    }

    /// Graceful drain: stop accepting, finish every in-flight request
    /// (replies included), then stop the worker pool. Idempotent with
    /// respect to `Drop`.
    pub fn shutdown(mut self) {
        self.stop();
        // Dropping `self` drops the last `Arc<Shared>`, which shuts the
        // QueryService down (close queue + join workers). The queue is
        // already empty: every submitted request had a handler waiting
        // on its ticket, and all handlers have been joined.
    }

    fn stop(&mut self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept.take() {
            // The accept thread blocks in `accept`: one connection wakes
            // it to see the flag.
            let _ = TcpStream::connect(wake_addr(self.local_addr));
            let _ = t.join();
        }
        let drained: Vec<JoinHandle<()>> = {
            let mut guard = self.handlers.lock().unwrap_or_else(|e| e.into_inner());
            guard.drain(..).collect()
        };
        for t in drained {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Where [`Server::stop`] connects to wake the accept thread: the bound
/// address, or loopback when that is unspecified.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let mut addr = bound;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    handlers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
    max_conns: usize,
) {
    for accepted in listener.incoming() {
        if shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = accepted else {
            continue;
        };
        let c = &shared.counters;
        c.connections_total.fetch_add(1, Ordering::Relaxed);
        let active = c.connections_active.fetch_add(1, Ordering::Relaxed);
        let over_cap = active >= max_conns;
        if over_cap {
            c.connections_shed.fetch_add(1, Ordering::Relaxed);
        }
        let conn_shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("fj-net-conn".into())
            .spawn(move || {
                handle_connection(stream, &conn_shared, over_cap);
                conn_shared
                    .counters
                    .connections_active
                    .fetch_sub(1, Ordering::Relaxed);
            });
        match spawned {
            Ok(handle) => {
                let mut guard = handlers.lock().unwrap_or_else(|e| e.into_inner());
                // Reap finished handlers so long-lived servers don't
                // accumulate handles.
                guard.retain(|h| !h.is_finished());
                guard.push(handle);
            }
            Err(_) => {
                // Spawn failure: undo the active count; the stream drops
                // (connection refused).
                c.connections_active.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
}

/// How long a read between requests blocks before it re-checks the
/// drain and kill flags. A read returns as soon as bytes arrive, so
/// this bounds only how late an idle connection notices a drain; it
/// holds back no reply.
const DRAIN_NOTICE: Duration = Duration::from_millis(50);

/// What a connection's two threads share, behind one lock: the socket's
/// write half, the queued request in flight, and whether the connection
/// is still worth keeping — `open` goes false when the peer is gone (a
/// write failed) or the protocol says to close. Both threads write
/// through it, so a reply and the read side's own answers never
/// interleave on the wire, and the read side judges each frame against
/// the flight as the reply side last left it.
struct Conn<'a> {
    shared: &'a Shared,
    stream: TcpStream,
    flight: Flight,
    open: bool,
}

/// The queued request a connection is serving, if any.
enum Flight {
    /// Nothing in flight: a CANCEL is stale, any other frame is served.
    Idle,
    /// Submitted and not yet answered. The read side trips this
    /// interrupt when a CANCEL arrives.
    Running(Interrupt),
    /// The read side ended the wait: a frame other than CANCEL arrived.
    Violated,
    /// The read side ended the wait: the peer closed, the socket
    /// failed, or the server is being killed.
    Gone,
}

/// The rest of one queued request, run on the reply side: wait out its
/// ticket, then answer it.
type Job<'a> = Box<dyn FnOnce(&Mutex<Conn<'a>>) + Send + 'a>;

fn lock<'c, 'a>(conn: &'c Mutex<Conn<'a>>) -> MutexGuard<'c, Conn<'a>> {
    conn.lock().unwrap_or_else(|e| e.into_inner())
}

/// Serves one connection with two threads. The read side (this thread)
/// owns the socket's read half: it reads every frame, answers those no
/// worker runs, and admits and submits queued requests. The reply side
/// waits on each submitted request's ticket alone and writes its reply,
/// so the thread the worker wakes is the thread that writes.
fn handle_connection(mut stream: TcpStream, shared: &Shared, over_cap: bool) {
    let _ = stream.set_nodelay(true);
    // Generous handshake window; a silent peer cannot pin the handler.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    if wire::server_handshake(&mut stream).is_err() {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let conn = Mutex::new(Conn {
        shared,
        stream: write_half,
        flight: Flight::Idle,
        open: true,
    });
    if over_cap {
        return lock(&conn).send_error(ErrorCode::Shed, "connection limit reached; retry later");
    }
    let _ = stream.set_read_timeout(Some(DRAIN_NOTICE));
    let (replies, jobs) = mpsc::channel::<Job>();
    std::thread::scope(|scope| {
        let conn = &conn;
        let reply_side = std::thread::Builder::new()
            .name("fj-net-reply".into())
            .spawn_scoped(scope, move || jobs.into_iter().for_each(|job| job(conn)));
        if reply_side.is_ok() {
            read_side(conn, stream, replies);
        }
        // `replies` is dropped: the reply side answers the request in
        // flight, if any, and the scope joins it.
    });
}

/// The read side of one connection (see [`handle_connection`]). While
/// a request is in flight it still reads: a CANCEL trips the request's
/// interrupt, and any other frame, a peer close or a hard kill trips it
/// and ends the wait, which the reply side then answers.
fn read_side<'a>(conn: &Mutex<Conn<'a>>, mut stream: TcpStream, replies: mpsc::Sender<Job<'a>>) {
    let shared = lock(conn).shared;
    let mut reader = FrameReader::new(wire::DEFAULT_MAX_FRAME_BYTES);
    let mut drain_started: Option<Instant> = None;
    loop {
        let polled = reader.read_frame(&mut stream, |mid_frame| {
            if shared.aborting.load(Ordering::SeqCst) {
                return true; // hard kill: drop the connection as-is
            }
            // A drain lets the request in flight finish, still watched.
            if !shared.shutting_down.load(Ordering::SeqCst)
                || matches!(lock(conn).flight, Flight::Running(_))
            {
                return false;
            }
            if !mid_frame {
                return true;
            }
            // Mid-frame at drain time: the request is partially on the
            // wire, so grant a grace window to finish receiving it.
            let started = *drain_started.get_or_insert_with(Instant::now);
            started.elapsed() >= DRAIN_GRACE
        });
        let mut conn = lock(conn);
        if let Flight::Running(interrupt) = &conn.flight {
            let interrupt = interrupt.clone();
            conn.flight = match polled {
                Ok(Some(f)) if f.ty == FrameType::Cancel => {
                    shared
                        .counters
                        .bytes_in
                        .fetch_add(f.wire_bytes as u64, Ordering::Relaxed);
                    interrupt.trip(InterruptReason::Cancelled);
                    continue;
                }
                Ok(Some(_)) => Flight::Violated,
                // End of stream, a socket error, or the kill flag.
                _ => {
                    let _ = stream.shutdown(Shutdown::Both);
                    Flight::Gone
                }
            };
            interrupt.trip(InterruptReason::Cancelled);
            return;
        }
        if !conn.open {
            return;
        }
        let frame = match polled {
            Ok(Some(frame)) => frame,
            Ok(None) => return, // clean close or drain between frames
            Err(WireError::FrameTooLarge { len, max }) => {
                let message = format!("frame of {len} bytes exceeds cap of {max}");
                return conn.send_error(ErrorCode::FrameTooLarge, &message);
            }
            Err(WireError::UnknownFrameType(b)) => {
                let message = format!("unknown frame type 0x{b:02x}");
                return conn.send_error(ErrorCode::Malformed, &message);
            }
            Err(_) => return, // socket error or truncation: just close
        };
        shared
            .counters
            .bytes_in
            .fetch_add(frame.wire_bytes as u64, Ordering::Relaxed);

        let queued = match frame.ty {
            FrameType::Query => conn.handle_query(&frame),
            FrameType::Fragment => conn.handle_fragment(&frame),
            FrameType::Mutate => conn.handle_mutate(&frame),
            FrameType::Scatter => {
                conn.handle_scatter(&frame);
                None
            }
            FrameType::Semijoin => {
                conn.handle_semijoin(&frame);
                None
            }
            // A CANCEL with no request in flight lost the race against
            // the reply; it is a harmless no-op.
            FrameType::Cancel => None,
            FrameType::Health => {
                shared
                    .counters
                    .health_probes
                    .fetch_add(1, Ordering::Relaxed);
                match codec::encode_health_reply(&shared.health()) {
                    Ok(payload) => conn.send_frame(FrameType::HealthReply, &payload),
                    Err(_) => return,
                }
                None
            }
            FrameType::Stats => {
                match codec::encode_stats_reply(&shared.stats_json()) {
                    Ok(payload) => conn.send_frame(FrameType::StatsReply, &payload),
                    Err(_) => return,
                }
                None
            }
            FrameType::Result
            | FrameType::StatsReply
            | FrameType::HealthReply
            | FrameType::TraceReply
            | FrameType::ScatterAck
            | FrameType::SemijoinAck
            | FrameType::Gather
            | FrameType::MutateReply
            | FrameType::Error => {
                return conn.send_error(ErrorCode::Malformed, "response frame sent to server");
            }
        };
        drop(conn);
        if let Some(job) = queued {
            if replies.send(job).is_err() {
                return;
            }
        }
    }
}

/// The words that differ between request kinds in error replies.
struct Kind {
    noun: &'static str,
    deadline: &'static str,
    cancelled: &'static str,
}

const QUERY: Kind = Kind {
    noun: "query",
    deadline: "deadline expired; query cancelled",
    cancelled: "query cancelled",
};

const FRAGMENT: Kind = Kind {
    noun: "fragment",
    deadline: "deadline expired; fragment cancelled",
    cancelled: "fragment cancelled",
};

const MUTATION: Kind = Kind {
    noun: "mutation",
    deadline: "deadline expired; mutation aborted without state change",
    cancelled: "mutation cancelled; no state change",
};

/// How the wait for an in-flight request ended.
enum Waited<T> {
    Reply(Result<T, RuntimeError>),
    DeadlineExpired,
    ProtocolViolation,
    /// The peer vanished, or the server was hard-killed: no reply can
    /// or should be sent.
    ConnectionGone,
}

impl<'a> Conn<'a> {
    /// Sends one frame, charging the byte counter; a failed write means
    /// the peer is gone.
    fn send_frame(&mut self, ty: FrameType, payload: &[u8]) {
        match wire::write_frame(&mut self.stream, ty, payload) {
            Ok(n) => {
                self.shared
                    .counters
                    .bytes_out
                    .fetch_add(n as u64, Ordering::Relaxed);
            }
            Err(_) => self.open = false,
        }
    }

    fn send_error(&mut self, code: ErrorCode, message: &str) {
        let counters = &self.shared.counters;
        counters.errors_sent.fetch_add(1, Ordering::Relaxed);
        if code == ErrorCode::Shed {
            counters.sheds.fetch_add(1, Ordering::Relaxed);
        }
        if code == ErrorCode::DeadlineExceeded {
            counters.deadline_hits.fetch_add(1, Ordering::Relaxed);
        }
        self.send_frame(FrameType::Error, &codec::encode_error(code, message));
    }

    /// Sends a success reply, or INTERNAL if it would not encode.
    fn send_reply(&mut self, ty: FrameType, encoded: Result<Vec<u8>, codec::CodecError>) {
        match encoded {
            Ok(payload) => self.send_frame(ty, &payload),
            Err(e) => self.send_error(ErrorCode::Internal, &e.to_string()),
        }
    }

    /// [`Conn::send_reply`] for the frame that answers a queued
    /// request, counted in [`ServerStats::results`].
    fn send_result(&mut self, ty: FrameType, encoded: Result<Vec<u8>, codec::CodecError>) {
        if encoded.is_ok() {
            self.shared.counters.results.fetch_add(1, Ordering::Relaxed);
        }
        self.send_reply(ty, encoded);
    }

    /// The one `RuntimeError` → wire error table, for refused
    /// submissions and failed outcomes of every request kind.
    fn send_runtime_error(&mut self, kind: &Kind, error: RuntimeError) {
        let noun = kind.noun;
        let (code, message) = match error {
            RuntimeError::QueueFull => (
                ErrorCode::Shed,
                "submission queue full; retry with backoff".to_string(),
            ),
            RuntimeError::ShuttingDown => (ErrorCode::ShuttingDown, "server draining".to_string()),
            RuntimeError::Interrupted(InterruptReason::Cancelled) => {
                (ErrorCode::Cancelled, kind.cancelled.to_string())
            }
            RuntimeError::Interrupted(InterruptReason::Deadline)
            | RuntimeError::DeadlineExceeded => {
                (ErrorCode::DeadlineExceeded, kind.deadline.to_string())
            }
            RuntimeError::Interrupted(reason) => (
                ErrorCode::QueryFailed,
                format!("{noun} interrupted: {reason}"),
            ),
            RuntimeError::Query(e) => (ErrorCode::QueryFailed, e.to_string()),
            RuntimeError::Storage(msg) => {
                (ErrorCode::QueryFailed, format!("{noun} rejected: {msg}"))
            }
            RuntimeError::WorkerPanicked(msg) => {
                (ErrorCode::Internal, format!("worker panicked: {msg}"))
            }
            e => (ErrorCode::Internal, e.to_string()),
        };
        self.send_error(code, &message);
    }

    /// The prologue every request handler shares: count the request,
    /// refuse it while draining — accepted work keeps running, but
    /// nothing new is admitted, and the typed, retryable refusal sends
    /// clients elsewhere — then decode its payload. `None`: the
    /// refusal has been sent and the handler is done.
    fn admit<R>(
        &mut self,
        frame: &Frame,
        decode: impl FnOnce(&[u8]) -> Result<R, codec::CodecError>,
    ) -> Option<R> {
        self.shared
            .counters
            .requests
            .fetch_add(1, Ordering::Relaxed);
        if self.shared.refusing_queries() {
            self.send_error(ErrorCode::ShuttingDown, "server draining");
            return None;
        }
        match decode(&frame.payload) {
            Ok(request) => Some(request),
            Err(e) => {
                self.send_error(ErrorCode::Malformed, &e.to_string());
                None
            }
        }
    }

    /// How the wait for the request in flight ended, given what its
    /// ticket delivered (`None`: the deadline expired first) and what
    /// the read side saw meanwhile. The flight is over either way.
    fn settle<T>(&mut self, reply: Option<Result<T, RuntimeError>>) -> Waited<T> {
        match (std::mem::replace(&mut self.flight, Flight::Idle), reply) {
            (Flight::Violated, _) => Waited::ProtocolViolation,
            (Flight::Gone, _) => Waited::ConnectionGone,
            _ if self.shared.aborting.load(Ordering::SeqCst) => Waited::ConnectionGone,
            (_, Some(reply)) => Waited::Reply(reply),
            (_, None) => Waited::DeadlineExpired,
        }
    }

    /// Takes an admitted request from submission to its outcome. A
    /// refused submission is answered here, on the read side. An
    /// accepted one becomes the connection's flight, and the returned
    /// job, run on the reply side, waits out the ticket, answers every
    /// non-success ending, and hands a success to `finish` to encode.
    fn complete<T: Send + 'a>(
        &mut self,
        kind: &'static Kind,
        submitted: Result<Ticket<T>, RuntimeError>,
        deadline_millis: u64,
        received: Instant,
        finish: impl FnOnce(&mut Conn<'a>, T) + Send + 'a,
    ) -> Option<Job<'a>> {
        let ticket = match submitted {
            Ok(ticket) => ticket,
            Err(e) => {
                self.send_runtime_error(kind, e);
                return None;
            }
        };
        let deadline = match deadline_millis {
            0 => None,
            ms => Some(Duration::from_millis(ms)),
        };
        let interrupt = ticket.interrupt_handle();
        self.flight = Flight::Running(interrupt.clone());
        Some(Box::new(move |conn: &Mutex<Conn<'a>>| {
            // Nothing but the ticket wakes this wait; the deadline runs
            // from `received`.
            let reply = match deadline {
                None => Some(ticket.wait()),
                Some(d) => ticket.poll(d.saturating_sub(received.elapsed())),
            };
            let mut conn = lock(conn);
            match conn.settle(reply) {
                Waited::Reply(Ok(value)) => finish(&mut conn, value),
                Waited::Reply(Err(e)) => conn.send_runtime_error(kind, e),
                Waited::DeadlineExpired => {
                    // Expiry cancels: the worker stops within a bounded
                    // number of tuples (its Interrupted reply goes to the
                    // dropped ticket), and the client hears immediately.
                    interrupt.trip(InterruptReason::Deadline);
                    conn.send_runtime_error(kind, RuntimeError::DeadlineExceeded);
                }
                Waited::ProtocolViolation => {
                    // Any other frame while a request is in flight is a
                    // protocol violation: the work is torn down (the read
                    // side tripped it), and the connection closes.
                    let noun = kind.noun;
                    let message = format!("only CANCEL may be sent while a {noun} is in flight");
                    conn.send_error(ErrorCode::Malformed, &message);
                    conn.open = false;
                }
                Waited::ConnectionGone => {
                    // Tear the work down and vanish without a reply, as a
                    // crashed process would. For a mutation, crash safety
                    // does the rest — either the commit fsync already
                    // happened (it survives restart) or it did not (no
                    // trace of it survives).
                    interrupt.trip(InterruptReason::Cancelled);
                    conn.open = false;
                }
            }
        }))
    }

    /// Serves one QUERY frame.
    fn handle_query(&mut self, frame: &Frame) -> Option<Job<'a>> {
        let received = Instant::now();
        let request = self.admit(frame, codec::decode_request)?;
        let config = request.config.unwrap_or(self.shared.default_config);
        let want_trace = request.want_trace;
        let service = &self.shared.service;
        let submitted = service.try_submit_with_options(request.query, config, want_trace);
        let deadline_millis = request.deadline_millis;
        self.complete(
            &QUERY,
            submitted,
            deadline_millis,
            received,
            move |conn, result| {
                let encoded = codec::encode_reply(&result);
                let replied = encoded.is_ok();
                conn.send_result(FrameType::Result, encoded);
                if !(want_trace && replied && conn.open) {
                    return;
                }
                // The trace rides in its own frame after the RESULT so the
                // result encoding stays byte-comparable across replicas
                // whether or not tracing was requested.
                match &result.trace {
                    Some(trace) => {
                        conn.send_reply(FrameType::TraceReply, codec::encode_trace_reply(trace))
                    }
                    // A client that asked for a trace is waiting on a second
                    // frame; never leave it hanging.
                    None => conn.send_error(ErrorCode::Internal, "trace unavailable"),
                }
            },
        )
    }

    /// Serves one FRAGMENT frame: the fragment query runs through the
    /// shard's query service — the same lifecycle as a QUERY frame —
    /// and the partial result returns as a GATHER frame.
    fn handle_fragment(&mut self, frame: &Frame) -> Option<Job<'a>> {
        let received = Instant::now();
        let req = self.admit(frame, codec::decode_fragment)?;
        let shared = self.shared;
        let submitted =
            shared
                .service
                .try_submit_with_options(req.query, shared.default_config, false);
        self.complete(
            &FRAGMENT,
            submitted,
            req.deadline_millis,
            received,
            move |conn, result| {
                let encoded = codec::encode_gather(&codec::GatherReply {
                    schema: result.schema,
                    rows: result.rows,
                    latency_micros: result.latency_micros,
                });
                if let Ok(payload) = &encoded {
                    let recorder = shared.service.metrics_recorder();
                    recorder.add(Counter::FragmentsServed, 1);
                    recorder.add(Counter::BytesGathered, payload.len() as u64);
                }
                conn.send_result(FrameType::Gather, encoded);
            },
        )
    }

    /// Serves one MUTATE frame through the service's mutation path —
    /// the same lifecycle as a QUERY frame. A deadline expiry or CANCEL
    /// that wins the race against the WAL commit aborts the mutation
    /// with **no state change**; one that loses it gets the committed
    /// result.
    fn handle_mutate(&mut self, frame: &Frame) -> Option<Job<'a>> {
        let received = Instant::now();
        let req = self.admit(frame, codec::decode_mutation_request)?;
        let submitted = self.shared.service.try_submit_mutation(req.mutation);
        self.complete(
            &MUTATION,
            submitted,
            req.deadline_millis,
            received,
            |conn, stats| {
                let reply = codec::MutationReply {
                    rows_affected: stats.rows_affected,
                    row_count: stats.row_count,
                    version: stats.version,
                };
                conn.send_result(FrameType::MutateReply, codec::encode_mutation_reply(&reply));
            },
        )
    }

    /// Serves one SCATTER frame: installs a partition table into the
    /// shard's catalog (epoch bump invalidates the plan cache). Refused
    /// with a retryable SHUTTING_DOWN while draining, so a coordinator
    /// fails over to the partition's replica shard.
    fn handle_scatter(&mut self, frame: &Frame) {
        let Some(req) = self.admit(frame, codec::decode_scatter) else {
            return;
        };
        let service = &self.shared.service;
        let bytes_stored: u64 = req.rows.iter().map(|t| t.wire_width() as u64).sum();
        let rows_stored = req.rows.len() as u64;
        let table = match fj_storage::Table::new(&req.table, (*req.schema).clone(), req.rows) {
            Ok(t) => t,
            Err(e) => {
                let message = format!("scatter rejected: {e}");
                return self.send_error(ErrorCode::QueryFailed, &message);
            }
        };
        let mut catalog = (*service.catalog()).clone();
        catalog.add_table(table.into_ref());
        if let Err(e) = service.try_install_catalog(catalog) {
            return self.send_error(ErrorCode::Internal, &e.to_string());
        }
        service
            .metrics_recorder()
            .add(Counter::BytesScattered, frame.payload.len() as u64);
        let ack = codec::ScatterAck {
            rows_stored,
            bytes_stored,
        };
        self.send_reply(FrameType::ScatterAck, codec::encode_scatter_ack(&ack));
    }

    /// Serves one SEMIJOIN frame: filters a shard-resident table by the
    /// shipped key / Bloom sets and returns surviving rows and/or
    /// distinct keys. Stateless — the shard's stored partition is never
    /// mutated, so a coordinator can replay any step against a replica
    /// after failover.
    fn handle_semijoin(&mut self, frame: &Frame) {
        let Some(req) = self.admit(frame, codec::decode_semijoin) else {
            return;
        };
        let service = &self.shared.service;
        let catalog = service.catalog();
        let table = match catalog.table(&req.table) {
            Ok(t) => t,
            Err(e) => return self.send_error(ErrorCode::QueryFailed, &e.to_string()),
        };
        let schema = table.schema();
        let mut filter_cols = Vec::with_capacity(req.filters.len());
        for (name, filter) in &req.filters {
            match schema.resolve(name) {
                Ok(i) => filter_cols.push((i, filter)),
                Err(e) => return self.send_error(ErrorCode::QueryFailed, &e.to_string()),
            }
        }
        let keys_col = match &req.keys_of {
            None => None,
            Some(name) => match schema.resolve(name) {
                Ok(i) => Some(i),
                Err(e) => return self.send_error(ErrorCode::QueryFailed, &e.to_string()),
            },
        };
        let rows_before = table.rows().len() as u64;
        let survivors: Vec<fj_storage::Tuple> = table
            .rows()
            .iter()
            .filter(|row| filter_cols.iter().all(|(i, f)| f.contains(row.value(*i))))
            .cloned()
            .collect();
        let rows_after = survivors.len() as u64;
        let keys = keys_col.map(|i| {
            let distinct: std::collections::BTreeSet<fj_storage::Value> =
                survivors.iter().map(|r| r.value(i).clone()).collect();
            distinct.into_iter().collect::<Vec<_>>()
        });
        let ack = codec::SemijoinAck {
            rows_before,
            rows_after,
            rows: req.want_rows.then(|| (schema.clone(), survivors)),
            keys,
        };
        let recorder = service.metrics_recorder();
        recorder.add(Counter::SemijoinSetsShipped, req.filters.len() as u64);
        let encoded = codec::encode_semijoin_ack(&ack);
        if let Ok(payload) = &encoded {
            recorder.add(Counter::BytesGathered, payload.len() as u64);
        }
        self.send_reply(FrameType::SemijoinAck, encoded);
    }
}
