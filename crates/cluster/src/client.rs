//! The replica-aware cluster client: routing, failover, and hedging.
//!
//! One [`ClusterClient`] fronts N `fj-net` servers serving the same
//! catalog. A background prober keeps a per-replica health view
//! (ready / degraded / draining / dead) fresh via the HEALTH frame;
//! queries are routed round-robin across the healthiest tier, skipping
//! draining and dead replicas and replicas whose [`CircuitBreaker`] is
//! open. A failed attempt fails over to the next candidate, but every
//! hop must withdraw a token from the shared [`RetryBudget`] — when the
//! budget runs dry the client gives up with the typed
//! [`ClusterError::RetryBudgetExhausted`] instead of amplifying an
//! outage into a retry storm.
//!
//! With [`HedgeConfig::enabled`], a query that has not answered within
//! the observed latency quantile is re-issued against a different
//! replica and the first reply wins; the loser is cancelled over its
//! own connection (via the CANCEL frame), or — with
//! [`HedgeConfig::verify`] — allowed to finish so the two replies can
//! be checked byte-identical modulo per-execution fields.
//!
//! [`HedgeConfig::enabled`]: crate::HedgeConfig
//! [`HedgeConfig::verify`]: crate::HedgeConfig

use crate::breaker::{BreakerState, CircuitBreaker};
use crate::config::{ClusterConfig, ClusterConfigError, PROBE_JITTER, PROBE_JITTER_SEED};
use fj_algebra::JoinQuery;
use fj_net::client::{Canceller, Client, QueryOptions};
use fj_net::{json, splitmix64, ErrorCode, HealthStatus, NetError, QueryReply, RetryBudget};
use fj_runtime::MetricsRecorder;
use std::fmt;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// Cluster-level failures — everything a caller can see from
/// [`ClusterClient::query`] beyond a successful reply.
#[derive(Debug)]
pub enum ClusterError {
    /// The configuration was rejected (strict [`ClusterConfig::validate`]).
    Config(ClusterConfigError),
    /// The client was built with an empty replica list.
    NoReplicas,
    /// Every routable replica was tried (or none was routable) and the
    /// query still failed.
    NoHealthyReplica {
        /// Replicas actually attempted.
        attempted: usize,
        /// The error from the last attempt, when any attempt ran.
        last: Option<NetError>,
    },
    /// The shared retry budget ran dry mid-failover: the cluster chose
    /// to stop retrying rather than storm the surviving replicas.
    RetryBudgetExhausted {
        /// The failure that wanted another hop.
        last: NetError,
    },
    /// The caller's [`CancelToken`] fired.
    Cancelled,
    /// Hedge verification found two replicas returning different result
    /// bytes for the same query — a replica divergence, never expected.
    Mismatch {
        /// Replica that answered first.
        winner: SocketAddr,
        /// Replica whose reply disagreed.
        loser: SocketAddr,
    },
    /// A non-failover server error (bad request, query failed,
    /// deadline exceeded, …), passed through typed.
    Net(NetError),
    /// The client could not start a thread it needs (the health prober
    /// at connect time).
    Spawn(std::io::Error),
    /// A hedged query's attempt threads all ended without reporting an
    /// outcome (each one panicked).
    AttemptLost,
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Config(e) => write!(f, "{e}"),
            ClusterError::NoReplicas => f.write_str("cluster client needs at least one replica"),
            ClusterError::NoHealthyReplica { attempted, last } => {
                write!(f, "no healthy replica ({attempted} attempted")?;
                match last {
                    Some(e) => write!(f, "; last error: {e})"),
                    None => f.write_str(")"),
                }
            }
            ClusterError::RetryBudgetExhausted { last } => {
                write!(f, "cluster retry budget exhausted; last error: {last}")
            }
            ClusterError::Cancelled => f.write_str("query cancelled"),
            ClusterError::Mismatch { winner, loser } => write!(
                f,
                "replica divergence: {winner} and {loser} returned different result bytes"
            ),
            ClusterError::Net(e) => write!(f, "{e}"),
            ClusterError::Spawn(e) => write!(f, "cluster client could not spawn a thread: {e}"),
            ClusterError::AttemptLost => f.write_str("every hedged attempt ended without a reply"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<ClusterConfigError> for ClusterError {
    fn from(e: ClusterConfigError) -> Self {
        ClusterError::Config(e)
    }
}

/// The prober's view of one replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaHealth {
    /// Not probed yet — routable (the first queries race the prober).
    Unknown,
    /// Probe succeeded, server reports ready.
    Ready,
    /// Probe succeeded, server reports degraded (replaced workers or a
    /// saturated queue) — routable, but after ready replicas.
    Degraded,
    /// Server reports draining: it answers probes but refuses queries.
    /// Not routable; distinct from dead so the router stops sending
    /// work *before* the drain refusals would bounce it.
    Draining,
    /// Probe failed (connect/timeout/protocol): presumed crashed.
    Dead,
}

impl ReplicaHealth {
    /// Lower-case name, for JSON/state dumps.
    pub fn as_str(&self) -> &'static str {
        match self {
            ReplicaHealth::Unknown => "unknown",
            ReplicaHealth::Ready => "ready",
            ReplicaHealth::Degraded => "degraded",
            ReplicaHealth::Draining => "draining",
            ReplicaHealth::Dead => "dead",
        }
    }

    /// Routing preference tier; lower routes first. `None` = skip.
    fn rank(self) -> Option<u8> {
        match self {
            ReplicaHealth::Ready => Some(0),
            ReplicaHealth::Unknown => Some(1),
            ReplicaHealth::Degraded => Some(2),
            ReplicaHealth::Draining | ReplicaHealth::Dead => None,
        }
    }
}

/// One replica's address, prober view, and breaker state — the
/// observable routing inputs, surfaced through [`ClusterStats`].
#[derive(Debug, Clone)]
pub struct ReplicaStatus {
    /// The replica's address.
    pub addr: SocketAddr,
    /// Latest probe result.
    pub health: ReplicaHealth,
    /// Circuit-breaker state.
    pub breaker: BreakerState,
}

struct Replica {
    addr: SocketAddr,
    breaker: CircuitBreaker,
    health: Mutex<ReplicaHealth>,
}

#[derive(Debug, Default)]
struct Counters {
    queries: AtomicU64,
    failovers: AtomicU64,
    hedges_launched: AtomicU64,
    hedges_won: AtomicU64,
    hedge_mismatches: AtomicU64,
    probes: AtomicU64,
    probe_failures: AtomicU64,
}

/// Counter snapshot plus per-replica status, from
/// [`ClusterClient::stats`].
#[derive(Debug, Clone)]
pub struct ClusterStats {
    /// Cluster-level queries issued.
    pub queries: u64,
    /// Failover hops (attempt N+1 on a different replica).
    pub failovers: u64,
    /// Hedge attempts launched.
    pub hedges_launched: u64,
    /// Hedge attempts that delivered the winning reply.
    pub hedges_won: u64,
    /// Hedge verifications that found divergent result bytes.
    pub hedge_mismatches: u64,
    /// Health probes sent.
    pub probes: u64,
    /// Health probes that failed (replica presumed dead).
    pub probe_failures: u64,
    /// Circuit-breaker trips, summed over replicas.
    pub breaker_opens: u64,
    /// Whole retry tokens currently available.
    pub budget_available: u64,
    /// Retry tokens withdrawn (retries + failover hops granted).
    pub budget_withdrawals: u64,
    /// Withdrawals refused because the budget was dry.
    pub budget_exhaustions: u64,
    /// Per-replica status, in construction order.
    pub replicas: Vec<ReplicaStatus>,
}

impl ClusterStats {
    /// One-line JSON with a stable key order, matching the style of
    /// `RuntimeMetrics::to_json` / the server STATS reply.
    pub fn to_json(&self) -> String {
        json::object(|w| {
            for (key, v) in [
                ("queries", self.queries),
                ("failovers", self.failovers),
                ("hedges_launched", self.hedges_launched),
                ("hedges_won", self.hedges_won),
                ("hedge_mismatches", self.hedge_mismatches),
                ("probes", self.probes),
                ("probe_failures", self.probe_failures),
                ("breaker_opens", self.breaker_opens),
                ("budget_available", self.budget_available),
                ("budget_withdrawals", self.budget_withdrawals),
                ("budget_exhaustions", self.budget_exhaustions),
            ] {
                w.key(key).uint(v);
            }
            w.key("replicas").array(|w| {
                for r in &self.replicas {
                    w.object(|w| {
                        w.key("addr").string(&r.addr.to_string());
                        w.key("health").string(r.health.as_str());
                        w.key("breaker").string(r.breaker.as_str());
                    });
                }
            });
        })
    }
}

/// Cancels a cluster query from another thread: trips a flag the
/// routing loop polls between attempts, and sends CANCEL frames on
/// every connection the query currently has in flight.
///
/// One token is for one logical query; share it via [`Arc`].
#[derive(Debug, Default)]
pub struct CancelToken {
    cancelled: AtomicBool,
    cancellers: Mutex<Vec<Canceller>>,
    children: Mutex<Vec<Arc<CancelToken>>>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Whether [`CancelToken::cancel`] has fired.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }

    /// Cancels the query: every registered in-flight connection gets a
    /// CANCEL frame (best-effort — a dead connection is already
    /// cancelled), and hedge attempts sharing this token are cancelled
    /// too. Idempotent.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
        for mut canceller in locked(&self.cancellers).drain(..) {
            let _ = canceller.cancel();
        }
        for child in locked(&self.children).drain(..) {
            child.cancel();
        }
    }

    /// Registers an in-flight connection; cancels it on the spot when
    /// the token already fired (closing the register/cancel race).
    fn register(&self, mut canceller: Canceller) {
        if self.is_cancelled() {
            let _ = canceller.cancel();
            return;
        }
        locked(&self.cancellers).push(canceller);
        if self.is_cancelled() {
            // cancel() may have drained between the check and the push.
            for mut c in locked(&self.cancellers).drain(..) {
                let _ = c.cancel();
            }
        }
    }

    /// Links a child token (a hedge attempt) so cancelling the parent
    /// cancels it.
    fn adopt(&self, child: Arc<CancelToken>) {
        if self.is_cancelled() {
            child.cancel();
            return;
        }
        locked(&self.children).push(child);
    }
}

struct Shared {
    cfg: ClusterConfig,
    replicas: Vec<Replica>,
    budget: RetryBudget,
    rr: AtomicUsize,
    latency: MetricsRecorder,
    counters: Counters,
    stop: AtomicBool,
}

/// One attempt's result: the reply, its raw payload bytes, and the
/// index of the replica that produced it.
type AttemptOutcome = Result<(QueryReply, Vec<u8>, usize), ClusterError>;

/// How a reply was obtained relative to hedging — part of the
/// provenance [`TaggedTrace`] records next to an operator trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HedgeOutcome {
    /// No hedge attempt was launched for this query.
    NotHedged,
    /// A hedge was launched but the primary attempt answered first.
    Primary,
    /// The hedge attempt answered first.
    Hedge,
}

impl HedgeOutcome {
    /// Lower-case name, for JSON/state dumps.
    pub fn as_str(&self) -> &'static str {
        match self {
            HedgeOutcome::NotHedged => "not_hedged",
            HedgeOutcome::Primary => "primary",
            HedgeOutcome::Hedge => "hedge",
        }
    }
}

/// An operator trace tagged with its cluster provenance: which replica
/// executed the query and how the reply won (hedged or not). This is
/// what distinguishes "this plan was slow" from "this replica was
/// slow" when reading traces fleet-wide.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaggedTrace {
    /// The replica that executed the traced query.
    pub replica: SocketAddr,
    /// Whether the reply came from a hedge attempt.
    pub hedge: HedgeOutcome,
    /// The per-operator execution trace from that replica.
    pub trace: fj_net::QueryTrace,
}

impl TaggedTrace {
    /// One-line JSON: provenance keys first, then the trace under
    /// `trace` (the stable [`fj_net::QueryTrace::to_json`] encoding).
    pub fn to_json(&self) -> String {
        json::object(|w| {
            w.key("replica").string(&self.replica.to_string());
            w.key("hedge").string(self.hedge.as_str());
            w.key("trace").raw(&self.trace.to_json());
        })
    }
}

/// A replica-aware client for a fleet of `fj-net` servers.
pub struct ClusterClient {
    shared: Arc<Shared>,
    prober: Mutex<Option<thread::JoinHandle<()>>>,
}

impl fmt::Debug for ClusterClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClusterClient")
            .field("replicas", &self.shared.replicas.len())
            .finish_non_exhaustive()
    }
}

impl ClusterClient {
    /// Builds a client over `addrs` (normalizing `config`) and starts
    /// the background health prober. No connection is made up front —
    /// replicas start `Unknown` and the first queries race the prober.
    pub fn connect(
        addrs: &[SocketAddr],
        config: ClusterConfig,
    ) -> Result<ClusterClient, ClusterError> {
        if addrs.is_empty() {
            return Err(ClusterError::NoReplicas);
        }
        let cfg = config.normalized();
        let replicas = addrs
            .iter()
            .map(|&addr| Replica {
                addr,
                breaker: CircuitBreaker::new(cfg.breaker.clone()),
                health: Mutex::new(ReplicaHealth::Unknown),
            })
            .collect();
        let budget = RetryBudget::new(cfg.retry_budget_capacity, cfg.retry_deposit_per_success);
        let shared = Arc::new(Shared {
            cfg,
            replicas,
            budget,
            rr: AtomicUsize::new(0),
            latency: MetricsRecorder::default(),
            counters: Counters::default(),
            stop: AtomicBool::new(false),
        });
        let prober = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("fj-cluster-prober".into())
                .spawn(move || prober_loop(&shared))
                .map_err(ClusterError::Spawn)?
        };
        Ok(ClusterClient {
            shared,
            prober: Mutex::new(Some(prober)),
        })
    }

    /// Executes `query` with default options and no external
    /// cancellation.
    pub fn query(&self, query: &JoinQuery) -> Result<QueryReply, ClusterError> {
        self.query_with(query, &QueryOptions::default())
    }

    /// Executes `query` with per-request options.
    pub fn query_with(
        &self,
        query: &JoinQuery,
        opts: &QueryOptions,
    ) -> Result<QueryReply, ClusterError> {
        self.query_with_token(query, opts, &Arc::new(CancelToken::new()))
    }

    /// Executes `query`, cancellable from another thread via `token`.
    pub fn query_with_token(
        &self,
        query: &JoinQuery,
        opts: &QueryOptions,
        token: &Arc<CancelToken>,
    ) -> Result<QueryReply, ClusterError> {
        self.query_full(query, opts, token)
            .map(|(reply, _, _)| reply)
    }

    /// Executes `query` with tracing forced on and returns the reply
    /// plus its [`TaggedTrace`]: the operator trace from whichever
    /// replica served the query, tagged with that replica's address
    /// and the hedge outcome.
    pub fn query_traced(
        &self,
        query: &JoinQuery,
    ) -> Result<(QueryReply, TaggedTrace), ClusterError> {
        self.query_traced_with(query, &QueryOptions::default())
    }

    /// [`ClusterClient::query_traced`] with per-request options (the
    /// trace flag is forced on regardless of `opts.want_trace`).
    pub fn query_traced_with(
        &self,
        query: &JoinQuery,
        opts: &QueryOptions,
    ) -> Result<(QueryReply, TaggedTrace), ClusterError> {
        let mut opts = opts.clone();
        opts.want_trace = true;
        let (reply, idx, hedge) = self.query_full(query, &opts, &Arc::new(CancelToken::new()))?;
        let trace = match reply.trace.clone() {
            Some(t) => t,
            None => {
                return Err(ClusterError::Net(NetError::Protocol(
                    "traced reply carried no trace",
                )))
            }
        };
        let tagged = TaggedTrace {
            replica: self.shared.replicas[idx].addr,
            hedge,
            trace,
        };
        Ok((reply, tagged))
    }

    /// The shared query core: routes (hedged or not) and keeps the
    /// provenance — winning replica index and hedge outcome — that
    /// [`ClusterClient::query_traced`] needs and plain queries drop.
    fn query_full(
        &self,
        query: &JoinQuery,
        opts: &QueryOptions,
        token: &Arc<CancelToken>,
    ) -> Result<(QueryReply, usize, HedgeOutcome), ClusterError> {
        self.shared.counters.queries.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let result = match self.hedge_delay() {
            Some(delay) => self.hedged_query(query, opts, token, delay),
            None => failover_query(&self.shared, query, opts, token, None, None)
                .map(|(reply, _, idx)| (reply, idx, HedgeOutcome::NotHedged)),
        };
        if result.is_ok() {
            self.shared.latency.record(started.elapsed(), true);
        }
        result
    }

    /// The hedge trigger, when armed: the configured latency quantile
    /// of observed successes, floored at `min_delay`. `None` while
    /// hedging is disabled or the histogram is too cold.
    fn hedge_delay(&self) -> Option<Duration> {
        let hedge = &self.shared.cfg.hedge;
        if !hedge.enabled {
            return None;
        }
        let hist = self.shared.latency.histogram();
        if hist.count() < hedge.min_samples {
            return None;
        }
        let micros = hist.quantile_micros(hedge.quantile);
        Some(Duration::from_micros(micros).max(hedge.min_delay))
    }

    /// Primary attempt in a worker thread; if no reply lands within
    /// `delay`, a hedge attempt starts on a different replica and the
    /// first reply wins.
    fn hedged_query(
        &self,
        query: &JoinQuery,
        opts: &QueryOptions,
        token: &Arc<CancelToken>,
        delay: Duration,
    ) -> Result<(QueryReply, usize, HedgeOutcome), ClusterError> {
        let (tx, rx) = mpsc::channel();
        // Which replica the primary attempt is on (index + 1; 0 = not
        // yet chosen), so the hedge can avoid doubling onto it.
        let primary_on = Arc::new(AtomicUsize::new(0));
        let primary_token = Arc::new(CancelToken::new());
        token.adopt(Arc::clone(&primary_token));
        {
            let shared = Arc::clone(&self.shared);
            let query = query.clone();
            let opts = opts.clone();
            let token = Arc::clone(&primary_token);
            let primary_on = Arc::clone(&primary_on);
            let tx = tx.clone();
            thread::spawn(move || {
                let result =
                    failover_query(&shared, &query, &opts, &token, None, Some(&primary_on));
                let _ = tx.send((false, result));
            });
        }
        let first = match rx.recv_timeout(delay) {
            Ok(outcome) => outcome,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                // Primary is slow: launch the hedge and take whichever
                // answers first.
                self.shared
                    .counters
                    .hedges_launched
                    .fetch_add(1, Ordering::Relaxed);
                let hedge_token = Arc::new(CancelToken::new());
                token.adopt(Arc::clone(&hedge_token));
                // Give the primary a beat to publish which replica it
                // landed on — hedging onto the same replica would race
                // it against itself and forfeit the latency win.
                let publish_wait = Instant::now();
                while primary_on.load(Ordering::Relaxed) == 0
                    && publish_wait.elapsed() < Duration::from_millis(2)
                {
                    thread::yield_now();
                }
                {
                    let shared = Arc::clone(&self.shared);
                    let query = query.clone();
                    let opts = opts.clone();
                    let htoken = Arc::clone(&hedge_token);
                    let exclude = primary_on.load(Ordering::Relaxed).checked_sub(1);
                    let tx = tx.clone();
                    thread::spawn(move || {
                        let result = failover_query(&shared, &query, &opts, &htoken, exclude, None);
                        let _ = tx.send((true, result));
                    });
                }
                drop(tx);
                let (winner_is_hedge, winner) = rx.recv().map_err(|_| ClusterError::AttemptLost)?;
                if winner_is_hedge {
                    self.shared
                        .counters
                        .hedges_won
                        .fetch_add(1, Ordering::Relaxed);
                }
                return self.settle_hedge(
                    winner_is_hedge,
                    winner,
                    rx,
                    &primary_token,
                    &hedge_token,
                );
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return Err(ClusterError::AttemptLost),
        };
        first
            .1
            .map(|(reply, _, idx)| (reply, idx, HedgeOutcome::NotHedged))
    }

    /// Resolves a hedge race: verify the loser against the winner
    /// (when configured and the winner succeeded), or cancel it.
    fn settle_hedge(
        &self,
        winner_is_hedge: bool,
        winner: AttemptOutcome,
        rx: mpsc::Receiver<(bool, AttemptOutcome)>,
        primary_token: &Arc<CancelToken>,
        hedge_token: &Arc<CancelToken>,
    ) -> Result<(QueryReply, usize, HedgeOutcome), ClusterError> {
        let loser_token = if winner_is_hedge {
            primary_token
        } else {
            hedge_token
        };
        let (reply, winner_raw, winner_idx) = match winner {
            Ok(parts) => parts,
            Err(e) => {
                // The first finisher failed; the race is now just the
                // other attempt. Wait it out.
                return match rx.recv() {
                    Ok((late_is_hedge, Ok((reply, _, idx)))) => {
                        let outcome = if late_is_hedge {
                            HedgeOutcome::Hedge
                        } else {
                            HedgeOutcome::Primary
                        };
                        Ok((reply, idx, outcome))
                    }
                    Ok((_, Err(other))) => Err(pick_hedge_error(e, other)),
                    Err(_) => Err(e),
                };
            }
        };
        if self.shared.cfg.hedge.verify {
            // Let the loser finish and compare result bytes. A losing
            // *error* is not a divergence (it may have been racing a
            // fault or a drain); only a successful disagreeing reply is.
            if let Ok((_, Ok((_, loser_raw, loser_idx)))) =
                rx.recv_timeout(Duration::from_secs(30)).map_err(|_| ())
            {
                if comparable_reply_bytes(&winner_raw) != comparable_reply_bytes(&loser_raw) {
                    self.shared
                        .counters
                        .hedge_mismatches
                        .fetch_add(1, Ordering::Relaxed);
                    return Err(ClusterError::Mismatch {
                        winner: self.shared.replicas[winner_idx].addr,
                        loser: self.shared.replicas[loser_idx].addr,
                    });
                }
            }
        } else {
            loser_token.cancel();
        }
        let outcome = if winner_is_hedge {
            HedgeOutcome::Hedge
        } else {
            HedgeOutcome::Primary
        };
        Ok((reply, winner_idx, outcome))
    }

    /// Counter snapshot plus per-replica status.
    pub fn stats(&self) -> ClusterStats {
        let c = &self.shared.counters;
        ClusterStats {
            queries: c.queries.load(Ordering::Relaxed),
            failovers: c.failovers.load(Ordering::Relaxed),
            hedges_launched: c.hedges_launched.load(Ordering::Relaxed),
            hedges_won: c.hedges_won.load(Ordering::Relaxed),
            hedge_mismatches: c.hedge_mismatches.load(Ordering::Relaxed),
            probes: c.probes.load(Ordering::Relaxed),
            probe_failures: c.probe_failures.load(Ordering::Relaxed),
            breaker_opens: self.shared.replicas.iter().map(|r| r.breaker.opens()).sum(),
            budget_available: self.shared.budget.available(),
            budget_withdrawals: self.shared.budget.withdrawals(),
            budget_exhaustions: self.shared.budget.exhaustions(),
            replicas: self
                .shared
                .replicas
                .iter()
                .map(|r| ReplicaStatus {
                    addr: r.addr,
                    health: *locked(&r.health),
                    breaker: r.breaker.state(),
                })
                .collect(),
        }
    }

    /// The shared retry budget (shared with any co-operating plain
    /// [`Client`] retry loops the caller runs next to the cluster).
    pub fn retry_budget(&self) -> &RetryBudget {
        &self.shared.budget
    }

    /// Runs one health-probe round right now, on the caller's thread —
    /// lets tests (and impatient routers) refresh the health view
    /// without waiting out the probe interval.
    pub fn probe_now(&self) {
        for idx in 0..self.shared.replicas.len() {
            probe_one(&self.shared, idx);
        }
    }

    /// Stops the prober and waits for it to exit (what dropping the
    /// client does).
    pub fn shutdown(self) {}
}

impl Drop for ClusterClient {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = locked(&self.prober).take() {
            let _ = handle.join();
        }
    }
}

/// Locks `m`, recovering a poisoned lock: every value behind these
/// locks is replaced or drained in one step, so it is never torn.
fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// When both hedge attempts fail, prefer the more meaningful error:
/// anything over "cancelled" (the loser is usually cancelled by us).
fn pick_hedge_error(first: ClusterError, second: ClusterError) -> ClusterError {
    match (&first, &second) {
        (ClusterError::Cancelled, _) => second,
        _ => first,
    }
}

/// The RESULT-payload prefix that must be byte-identical across
/// replicas: everything except the trailing `cache_hit` (1 byte) and
/// `latency_micros` (8 bytes) fields, which legitimately differ per
/// execution. The codec encodes them last, so a 9-byte strip isolates
/// them exactly.
fn comparable_reply_bytes(raw: &[u8]) -> &[u8] {
    &raw[..raw.len().saturating_sub(9)]
}

/// One query attempt against replica `idx`, registering the connection
/// with the cancel token for the duration.
fn attempt_on(
    shared: &Shared,
    idx: usize,
    query: &JoinQuery,
    opts: &QueryOptions,
    token: &CancelToken,
) -> Result<(QueryReply, Vec<u8>), NetError> {
    let replica = &shared.replicas[idx];
    let mut client = Client::connect_timeout(&replica.addr, shared.cfg.connect_timeout)?;
    token.register(client.canceller()?);
    client.query_with_raw(query, opts)
}

/// The routing core: walk the candidate replicas (healthiest tier
/// first, round-robin within a tier), failing over on replica-local
/// errors, charging every hop after the first to the shared budget.
/// Returns the reply, its raw payload, and the winning replica index.
fn failover_query(
    shared: &Shared,
    query: &JoinQuery,
    opts: &QueryOptions,
    token: &CancelToken,
    exclude: Option<usize>,
    report_replica: Option<&AtomicUsize>,
) -> AttemptOutcome {
    // A hedge (exclude is set) is a side-car of a primary attempt that
    // already advanced the rotation: advancing again would lock the
    // round-robin parity and pin every primary onto the same replica.
    let order = candidate_order(shared, exclude.is_none());
    let mut last: Option<NetError> = None;
    let mut attempted = 0usize;
    for idx in order {
        if exclude == Some(idx) {
            continue;
        }
        if token.is_cancelled() {
            return Err(ClusterError::Cancelled);
        }
        let replica = &shared.replicas[idx];
        if !replica.breaker.try_acquire() {
            continue;
        }
        // Every hop past the first — each follows a replica-local
        // failure — is a retry the cluster must afford.
        match last {
            Some(last) if !shared.budget.try_withdraw() => {
                return Err(ClusterError::RetryBudgetExhausted { last });
            }
            Some(_) => {
                shared.counters.failovers.fetch_add(1, Ordering::Relaxed);
            }
            None => {}
        }
        attempted += 1;
        if let Some(slot) = report_replica {
            slot.store(idx + 1, Ordering::Relaxed);
        }
        match attempt_on(shared, idx, query, opts, token) {
            Ok((reply, raw)) => {
                replica.breaker.record_success();
                shared.budget.record_success();
                return Ok((reply, raw, idx));
            }
            Err(e) => {
                if token.is_cancelled() || e.error_code() == Some(ErrorCode::Cancelled) {
                    return Err(ClusterError::Cancelled);
                }
                if e.is_replica_local() {
                    replica.breaker.record_failure();
                    last = Some(e);
                    continue;
                }
                // The replica answered decisively (query failed,
                // deadline, malformed): its health is fine and no other
                // replica would answer differently.
                replica.breaker.record_success();
                return Err(ClusterError::Net(e));
            }
        }
    }
    Err(ClusterError::NoHealthyReplica { attempted, last })
}

/// Candidate replica indices: rotate round-robin, then stable-sort by
/// health tier (ready < unknown < degraded); draining and dead replicas
/// are dropped. The rotation survives the stable sort, so load spreads
/// within each tier. `advance` rotates the shared counter; peeking
/// callers (hedges) see the current rotation without consuming a turn.
fn candidate_order(shared: &Shared, advance: bool) -> Vec<usize> {
    let n = shared.replicas.len();
    let start = if advance {
        shared.rr.fetch_add(1, Ordering::Relaxed)
    } else {
        shared.rr.load(Ordering::Relaxed)
    } % n;
    let mut ranked: Vec<(u8, usize)> = (0..n)
        .filter_map(|offset| {
            let idx = (start + offset) % n;
            let health = *locked(&shared.replicas[idx].health);
            health.rank().map(|rank| (rank, idx))
        })
        .collect();
    ranked.sort_by_key(|&(rank, _)| rank);
    ranked.into_iter().map(|(_, idx)| idx).collect()
}

/// One health probe against replica `idx`, updating its health slot.
fn probe_one(shared: &Shared, idx: usize) {
    let replica = &shared.replicas[idx];
    shared.counters.probes.fetch_add(1, Ordering::Relaxed);
    let outcome = Client::connect_timeout(&replica.addr, shared.cfg.probe_timeout)
        .and_then(|mut client| client.health(shared.cfg.probe_timeout));
    let health = match outcome {
        Ok(snapshot) => match snapshot.status {
            HealthStatus::Ready => ReplicaHealth::Ready,
            HealthStatus::Degraded => ReplicaHealth::Degraded,
            HealthStatus::Draining => ReplicaHealth::Draining,
        },
        Err(_) => {
            shared
                .counters
                .probe_failures
                .fetch_add(1, Ordering::Relaxed);
            ReplicaHealth::Dead
        }
    };
    *locked(&replica.health) = health;
}

/// Prober thread: probe every replica, sleep a jittered interval,
/// repeat until shutdown. The jitter stream is seeded
/// ([`PROBE_JITTER_SEED`]), so a given interval replays the same probe
/// schedule.
fn prober_loop(shared: &Shared) {
    let mut jitter_state = splitmix64(PROBE_JITTER_SEED);
    while !shared.stop.load(Ordering::SeqCst) {
        for idx in 0..shared.replicas.len() {
            if shared.stop.load(Ordering::SeqCst) {
                return;
            }
            probe_one(shared, idx);
        }
        let base = shared.cfg.probe_interval.as_micros() as u64;
        jitter_state = splitmix64(jitter_state);
        // factor in [1-j, 1+j], from a uniform draw in [0, 2j).
        let spread = (2.0 * PROBE_JITTER * base as f64) as u64;
        let low = base - (PROBE_JITTER * base as f64) as u64;
        let sleep_micros = low + if spread > 0 { jitter_state % spread } else { 0 };
        let deadline = Instant::now() + Duration::from_micros(sleep_micros);
        // Sleep in slices so shutdown stays prompt.
        while Instant::now() < deadline {
            if shared.stop.load(Ordering::SeqCst) {
                return;
            }
            thread::sleep(Duration::from_millis(2));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparable_bytes_strip_only_the_volatile_tail() {
        let raw = vec![1u8, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12];
        assert_eq!(comparable_reply_bytes(&raw), &raw[..3]);
        let short = vec![1u8, 2];
        assert_eq!(comparable_reply_bytes(&short), &[] as &[u8]);
    }

    #[test]
    fn cancel_token_is_idempotent_and_sticky() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        token.cancel();
        token.cancel();
        assert!(token.is_cancelled());
    }

    #[test]
    fn cancelling_a_parent_cancels_adopted_children() {
        let parent = CancelToken::new();
        let child = Arc::new(CancelToken::new());
        parent.adopt(Arc::clone(&child));
        parent.cancel();
        assert!(child.is_cancelled());
        // Adopting into an already-cancelled parent fires immediately.
        let late = Arc::new(CancelToken::new());
        parent.adopt(Arc::clone(&late));
        assert!(late.is_cancelled());
    }
}
