//! The replica-aware cluster client: routing, failover, and hedging.
//!
//! One [`ClusterClient`] fronts N `fj-net` servers serving the same
//! catalog. A background prober keeps a per-replica health view
//! (ready / degraded / draining / dead) fresh via the HEALTH frame;
//! queries are routed round-robin across the healthiest tier, skipping
//! draining and dead replicas and replicas whose
//! [`CircuitBreaker`](crate::CircuitBreaker) is open. A failed attempt
//! fails over to the next candidate, but every hop must withdraw a token
//! from the shared [`RetryBudget`](crate::RetryBudget) — when the budget
//! runs dry the client gives up with the typed
//! [`ClusterError::RetryBudgetExhausted`] instead of amplifying an
//! outage into a retry storm. Routing, connections and failover live in
//! the [`Replicas`] router; this module adds the prober and hedging.
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

use crate::config::{ClusterConfig, ClusterConfigError, PROBE_JITTER, PROBE_JITTER_SEED};
use crate::replicas::{locked, CancelToken, ReplicaStatus, Replicas};
use fj_algebra::JoinQuery;
use fj_net::client::QueryOptions;
use fj_net::{json, splitmix64, NetError, QueryReply};
use fj_runtime::MetricsRecorder;
use std::fmt;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
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

#[derive(Debug, Default)]
struct Counters {
    queries: AtomicU64,
    hedges_launched: AtomicU64,
    hedges_won: AtomicU64,
    hedge_mismatches: AtomicU64,
}

/// Counter snapshot plus per-replica status, from
/// [`ClusterClient::stats`].
#[derive(Debug, Clone, Default)]
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

struct Shared {
    cfg: ClusterConfig,
    replicas: Replicas,
    latency: MetricsRecorder,
    counters: Counters,
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
    /// The prober thread, and the sender whose drop stops it.
    prober: Mutex<Option<(mpsc::Sender<()>, thread::JoinHandle<()>)>>,
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
        let shared = Arc::new(Shared {
            replicas: Replicas::new(addrs, &cfg, cfg.connect_timeout),
            cfg,
            latency: MetricsRecorder::default(),
            counters: Counters::default(),
        });
        let (stop, stopped) = mpsc::channel();
        let prober = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("fj-cluster-prober".into())
                .spawn(move || prober_loop(&shared, &stopped))
                .map_err(ClusterError::Spawn)?
        };
        Ok(ClusterClient {
            shared,
            prober: Mutex::new(Some((stop, prober))),
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
        let missing = NetError::Protocol("traced reply carried no trace");
        let trace = reply.trace.clone().ok_or(ClusterError::Net(missing))?;
        let tagged = TaggedTrace {
            replica: self.shared.replicas.addr(idx),
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
            None => failover_query(&self.shared, query, opts, token, None, &AtomicUsize::new(0))
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
        token: &CancelToken,
        delay: Duration,
    ) -> Result<(QueryReply, usize, HedgeOutcome), ClusterError> {
        let (tx, rx) = mpsc::channel();
        // Which replica the primary attempt is on (index + 1; 0 = not
        // yet chosen), so the hedge can avoid doubling onto it.
        let on = Arc::new(AtomicUsize::new(0));
        // One attempt on its own thread, under a child of `token`, which
        // it returns; the outcome goes to `tx` tagged with `role`.
        let spawn = |role: HedgeOutcome, exclude: Option<usize>| {
            let child = Arc::new(CancelToken::new());
            token.adopt(Arc::clone(&child));
            let (shared, token) = (Arc::clone(&self.shared), Arc::clone(&child));
            let (query, opts, on, tx) = (query.clone(), opts.clone(), Arc::clone(&on), tx.clone());
            thread::spawn(move || {
                let result = failover_query(&shared, &query, &opts, &token, exclude, &on);
                let _ = tx.send((role, result));
            });
            child
        };
        let primary = spawn(HedgeOutcome::Primary, None);
        match rx.recv_timeout(delay) {
            Ok((_, first)) => return first.map(|(r, _, idx)| (r, idx, HedgeOutcome::NotHedged)),
            Err(mpsc::RecvTimeoutError::Disconnected) => return Err(ClusterError::AttemptLost),
            Err(mpsc::RecvTimeoutError::Timeout) => {}
        }
        // Primary is slow: launch the hedge and take whichever answers
        // first.
        let counters = &self.shared.counters;
        counters.hedges_launched.fetch_add(1, Ordering::Relaxed);
        // Give the primary a beat to publish which replica it landed on —
        // hedging onto the same replica would race it against itself and
        // forfeit the latency win.
        let publish_wait = Instant::now();
        while on.load(Ordering::Relaxed) == 0 && publish_wait.elapsed() < Duration::from_millis(2) {
            thread::yield_now();
        }
        let exclude = on.load(Ordering::Relaxed).checked_sub(1);
        let hedge = spawn(HedgeOutcome::Hedge, exclude);
        drop(tx);
        let (role, winner) = rx.recv().map_err(|_| ClusterError::AttemptLost)?;
        let loser = if role == HedgeOutcome::Hedge {
            counters.hedges_won.fetch_add(1, Ordering::Relaxed);
            primary
        } else {
            hedge
        };
        self.settle_hedge(role, winner, rx, &loser)
    }

    /// Resolves a hedge race won by `role`: verify the loser against
    /// the winner (when configured and the winner succeeded), or cancel
    /// it.
    fn settle_hedge(
        &self,
        role: HedgeOutcome,
        winner: AttemptOutcome,
        rx: mpsc::Receiver<(HedgeOutcome, AttemptOutcome)>,
        loser: &CancelToken,
    ) -> Result<(QueryReply, usize, HedgeOutcome), ClusterError> {
        let (reply, winner_raw, winner_idx) = match winner {
            Ok(parts) => parts,
            Err(e) => {
                // The first finisher failed; the race is now just the
                // other attempt. Wait it out.
                return match rx.recv() {
                    Ok((late, Ok((reply, _, idx)))) => Ok((reply, idx, late)),
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
                        winner: self.shared.replicas.addr(winner_idx),
                        loser: self.shared.replicas.addr(loser_idx),
                    });
                }
            }
        } else {
            loser.cancel();
        }
        Ok((reply, winner_idx, role))
    }

    /// Counter snapshot plus per-replica status.
    pub fn stats(&self) -> ClusterStats {
        let c = &self.shared.counters;
        ClusterStats {
            queries: c.queries.load(Ordering::Relaxed),
            hedges_launched: c.hedges_launched.load(Ordering::Relaxed),
            hedges_won: c.hedges_won.load(Ordering::Relaxed),
            hedge_mismatches: c.hedge_mismatches.load(Ordering::Relaxed),
            ..self.shared.replicas.stats()
        }
    }

    /// Runs one health-probe round right now, on the caller's thread —
    /// lets tests (and impatient routers) refresh the health view
    /// without waiting out the probe interval.
    pub fn probe_now(&self) {
        for idx in 0..self.shared.replicas.len() {
            self.shared
                .replicas
                .probe(idx, self.shared.cfg.probe_timeout);
        }
    }

    /// Stops the prober and waits for it to exit (what dropping the
    /// client does).
    pub fn shutdown(self) {}
}

impl Drop for ClusterClient {
    fn drop(&mut self) {
        if let Some((stop, handle)) = locked(&self.prober).take() {
            drop(stop);
            let _ = handle.join();
        }
    }
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

/// The query core under hedging: routes `query` over the replicas in
/// health order, minus `exclude` (the replica a primary attempt is on),
/// and publishes the replica each attempt lands on into `on` (index + 1)
/// for a hedge to avoid. Returns the reply, its raw payload, and the
/// winning replica index.
fn failover_query(
    shared: &Shared,
    query: &JoinQuery,
    opts: &QueryOptions,
    token: &CancelToken,
    exclude: Option<usize>,
    on: &AtomicUsize,
) -> AttemptOutcome {
    // A hedge (exclude is set) is a side-car of a primary attempt that
    // already advanced the rotation: advancing again would lock the
    // round-robin parity and pin every primary onto the same replica.
    let mut order = shared.replicas.ranked(exclude.is_none());
    order.retain(|&idx| Some(idx) != exclude);
    let routed = shared.replicas.call(&order, token, |idx, client| {
        on.store(idx + 1, Ordering::Relaxed);
        let (reply, raw) = client.query_with_raw(query, opts)?;
        Ok((reply, raw, idx))
    })?;
    Ok(routed.value)
}

/// Prober thread: probe every replica, wait a jittered interval, repeat
/// until `stop`'s sender is dropped (which also cuts the wait short).
/// The jitter stream is seeded ([`PROBE_JITTER_SEED`]), so a given
/// interval replays the same probe schedule.
fn prober_loop(shared: &Shared, stop: &mpsc::Receiver<()>) {
    let mut jitter_state = splitmix64(PROBE_JITTER_SEED);
    let mut wait = Duration::ZERO;
    while stop.recv_timeout(wait) == Err(mpsc::RecvTimeoutError::Timeout) {
        for idx in 0..shared.replicas.len() {
            if stop.try_recv() != Err(mpsc::TryRecvError::Empty) {
                return;
            }
            shared.replicas.probe(idx, shared.cfg.probe_timeout);
        }
        let base = shared.cfg.probe_interval.as_micros() as u64;
        jitter_state = splitmix64(jitter_state);
        // factor in [1-j, 1+j], from a uniform draw in [0, 2j).
        let spread = (2.0 * PROBE_JITTER * base as f64) as u64;
        let low = base - (PROBE_JITTER * base as f64) as u64;
        let sleep_micros = low + if spread > 0 { jitter_state % spread } else { 0 };
        wait = Duration::from_micros(sleep_micros);
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
