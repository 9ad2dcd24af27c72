//! The replica router: the one place a request walks replicas, and the
//! one owner of their connections.
//!
//! A [`Replicas`] holds, per replica, its address, [`CircuitBreaker`],
//! health tier and a stack of idle [`Client`]s, plus the shared
//! [`RetryBudget`]. [`Replicas::call`] walks the replica indices the
//! caller ordered: it takes an idle connection or dials one, runs the
//! caller's request on it, and fails over on
//! [`NetError::is_replica_local`] errors, each hop gated by the next
//! replica's breaker and charged to the budget. The
//! [`ClusterClient`](crate::ClusterClient) (queries and health probes)
//! and `fj-dist`'s coordinator (scatter and every exchange) route
//! through it.
//!
//! Three rules make a kept-alive connection behave like a fresh one:
//! * **No stray CANCEL.** Each connection's [`Canceller`] is registered
//!   with the call's [`CancelToken`] while its request runs, and
//!   withdrawn under the token's lock afterwards. A connection goes
//!   back on its stack only after a complete reply *and* a successful
//!   withdrawal, so a CANCEL sent to a losing hedge can never land on
//!   the next request over the same socket.
//! * **A stale connection is not a failure.** A transport error on a
//!   *reused* connection (the server closed it while it sat idle) is
//!   replayed once on a fresh dial to the same replica and counts
//!   nothing: no failover, no breaker failure, no budget withdrawal.
//!   Every request routed here is a read, so the replay is safe. A
//!   timeout is not replayed (the replica is slow, not gone), and a
//!   failure on a fresh dial counts as a failure.
//! * **Counters count requests, not connections.**

use crate::breaker::{BreakerState, CircuitBreaker};
use crate::client::{ClusterError, ClusterStats};
use crate::config::ClusterConfig;
use fj_net::{Canceller, Client, ErrorCode, HealthStatus, NetError, WireError};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

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

    /// Routing preference tier; lower routes first. `None` = skip. An
    /// unprobed replica shares the ready tier: kept-alive queries outrun
    /// the prober's first round, and ranking it lower would pin them all
    /// onto whichever replica that round reached first.
    fn rank(self) -> Option<u8> {
        match self {
            ReplicaHealth::Ready | ReplicaHealth::Unknown => Some(0),
            ReplicaHealth::Degraded => Some(1),
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

/// Cancels a routed call from another thread: trips a flag the walk
/// checks between attempts, and sends CANCEL frames on every connection
/// the call currently has in flight.
///
/// One token is for one logical query; share it via [`Arc`].
#[derive(Debug, Default)]
pub struct CancelToken {
    cancelled: AtomicBool,
    next_id: AtomicU64,
    in_flight: Mutex<Vec<(u64, Canceller)>>,
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
        for (_, mut canceller) in locked(&self.in_flight).drain(..) {
            let _ = canceller.cancel();
        }
        for child in locked(&self.children).drain(..) {
            child.cancel();
        }
    }

    /// Registers an in-flight connection; `None` when the token has
    /// already fired and the request must not be sent. The check runs
    /// under the lock `cancel` drains under, which closes the
    /// register/cancel race.
    fn register(&self, canceller: Canceller) -> Option<u64> {
        let mut in_flight = locked(&self.in_flight);
        if self.is_cancelled() {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        in_flight.push((id, canceller));
        Some(id)
    }

    /// Withdraws connection `id`; `false` when `cancel` took it first
    /// (a CANCEL frame went out on it).
    fn withdraw(&self, id: u64) -> bool {
        let mut in_flight = locked(&self.in_flight);
        let found = in_flight.iter().position(|&(i, _)| i == id);
        found.map(|at| in_flight.swap_remove(at)).is_some()
    }

    /// Links a child token (a hedge attempt) so cancelling the parent
    /// cancels it.
    pub(crate) fn adopt(&self, child: Arc<CancelToken>) {
        if self.is_cancelled() {
            child.cancel();
            return;
        }
        locked(&self.children).push(child);
    }
}

/// A routed call's answer, and what the walk spent reaching it.
#[derive(Debug)]
pub struct Routed<T> {
    /// What the request returned on the replica that answered.
    pub value: T,
    /// Hops to a later replica after a replica-local failure.
    pub failovers: u64,
    /// Requests that reached a replica and failed there replica-locally
    /// (a failed dial sent none; a stale connection's replay is not
    /// counted).
    pub failed_requests: u64,
}

struct Replica {
    addr: SocketAddr,
    breaker: CircuitBreaker,
    health: Mutex<ReplicaHealth>,
    idle: Mutex<Vec<Client>>,
}

/// An attempt's error, and whether its request reached the replica.
type Failed = (NetError, bool);

/// The replica router. See the module docs.
pub struct Replicas {
    replicas: Vec<Replica>,
    budget: RetryBudget,
    rr: AtomicUsize,
    dial_timeout: Duration,
    failovers: AtomicU64,
    probes: AtomicU64,
    probe_failures: AtomicU64,
}

impl Replicas {
    /// A router over `addrs` with `cfg`'s breaker thresholds and retry
    /// budget; [`Replicas::call`] bounds each dial (connect and
    /// handshake) by `dial_timeout`. No connection is made up front.
    pub fn new(addrs: &[SocketAddr], cfg: &ClusterConfig, dial_timeout: Duration) -> Replicas {
        Replicas {
            replicas: addrs
                .iter()
                .map(|&addr| Replica {
                    addr,
                    breaker: CircuitBreaker::new(cfg.breaker.clone()),
                    health: Mutex::new(ReplicaHealth::Unknown),
                    idle: Mutex::new(Vec::new()),
                })
                .collect(),
            budget: RetryBudget::new(cfg.retry_budget_capacity, cfg.retry_deposit_per_success),
            rr: AtomicUsize::new(0),
            dial_timeout,
            failovers: AtomicU64::new(0),
            probes: AtomicU64::new(0),
            probe_failures: AtomicU64::new(0),
        }
    }

    /// Number of replicas.
    pub(crate) fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Replica `idx`'s address.
    pub(crate) fn addr(&self, idx: usize) -> SocketAddr {
        self.replicas[idx].addr
    }

    /// The router's share of [`ClusterStats`]: failovers, probes,
    /// breakers, budget and per-replica status; the rest is zero.
    pub(crate) fn stats(&self) -> ClusterStats {
        ClusterStats {
            failovers: self.failovers.load(Ordering::Relaxed),
            probes: self.probes.load(Ordering::Relaxed),
            probe_failures: self.probe_failures.load(Ordering::Relaxed),
            breaker_opens: self.replicas.iter().map(|r| r.breaker.opens()).sum(),
            budget_available: self.budget.available(),
            budget_withdrawals: self.budget.withdrawals(),
            budget_exhaustions: self.budget.exhaustions(),
            replicas: self
                .replicas
                .iter()
                .map(|r| ReplicaStatus {
                    addr: r.addr,
                    health: *locked(&r.health),
                    breaker: r.breaker.state(),
                })
                .collect(),
            ..ClusterStats::default()
        }
    }

    /// Replica indices in routing order: rotate round-robin, then
    /// stable-sort by health tier (ready and unknown < degraded); draining
    /// and dead replicas are dropped. The rotation survives the stable
    /// sort, so load spreads within each tier. `advance` rotates the
    /// shared counter; peeking callers (hedges) see the current rotation
    /// without consuming a turn.
    pub(crate) fn ranked(&self, advance: bool) -> Vec<usize> {
        let n = self.replicas.len();
        let start = if advance {
            self.rr.fetch_add(1, Ordering::Relaxed)
        } else {
            self.rr.load(Ordering::Relaxed)
        } % n;
        let mut ranked: Vec<(u8, usize)> = (0..n)
            .filter_map(|offset| {
                let idx = (start + offset) % n;
                let health = *locked(&self.replicas[idx].health);
                health.rank().map(|rank| (rank, idx))
            })
            .collect();
        ranked.sort_by_key(|&(rank, _)| rank);
        ranked.into_iter().map(|(_, idx)| idx).collect()
    }

    /// The one failover walk: runs `f(replica, connection)` on the
    /// replicas of `order` in turn until one answers. A replica whose
    /// breaker is open is skipped; a replica-local failure moves on to
    /// the next, and every hop past the first withdraws from the retry
    /// budget. Any other error is the answer: the replica answered
    /// decisively, and no other would answer differently.
    pub fn call<T>(
        &self,
        order: &[usize],
        token: &CancelToken,
        mut f: impl FnMut(usize, &mut Client) -> Result<T, NetError>,
    ) -> Result<Routed<T>, ClusterError> {
        let mut last: Option<NetError> = None;
        let (mut attempted, mut failovers, mut failed_requests) = (0, 0, 0);
        for &idx in order {
            if token.is_cancelled() {
                return Err(ClusterError::Cancelled);
            }
            let replica = &self.replicas[idx];
            if !replica.breaker.try_acquire() {
                continue;
            }
            // Every hop past the first — each follows a replica-local
            // failure — is a retry the cluster must afford.
            match last {
                Some(last) if !self.budget.try_withdraw() => {
                    return Err(ClusterError::RetryBudgetExhausted { last });
                }
                Some(_) => {
                    self.failovers.fetch_add(1, Ordering::Relaxed);
                    failovers += 1;
                }
                None => {}
            }
            attempted += 1;
            match self.attempt(idx, self.dial_timeout, token, &mut f) {
                Ok(value) => {
                    replica.breaker.record_success();
                    self.budget.record_success();
                    return Ok(Routed {
                        value,
                        failovers,
                        failed_requests,
                    });
                }
                Err((e, _))
                    if token.is_cancelled() || e.error_code() == Some(ErrorCode::Cancelled) =>
                {
                    return Err(ClusterError::Cancelled);
                }
                Err((e, _)) if !e.is_replica_local() => {
                    replica.breaker.record_success();
                    return Err(ClusterError::Net(e));
                }
                Err((e, sent)) => {
                    replica.breaker.record_failure();
                    failed_requests += u64::from(sent);
                    last = Some(e);
                }
            }
        }
        Err(ClusterError::NoHealthyReplica { attempted, last })
    }

    /// Probes replica `idx`'s HEALTH, `timeout` bounding the dial and
    /// the reply, and records the answer as its health tier. Probes
    /// bypass the breaker and the budget: they are how a replica earns
    /// its way back. A routable answer re-admits an open breaker (see
    /// [`CircuitBreaker::readmit`]): a replica the prober sees back is
    /// not kept out for the rest of a cooldown.
    pub(crate) fn probe(&self, idx: usize, timeout: Duration) {
        self.probes.fetch_add(1, Ordering::Relaxed);
        let probed = self.attempt(idx, timeout, &CancelToken::new(), &mut |_, client| {
            client.health(timeout)
        });
        let replica = &self.replicas[idx];
        let health = match probed.map(|snapshot| snapshot.status) {
            Ok(HealthStatus::Ready) => ReplicaHealth::Ready,
            Ok(HealthStatus::Degraded) => ReplicaHealth::Degraded,
            Ok(HealthStatus::Draining) => ReplicaHealth::Draining,
            Err(_) => {
                self.probe_failures.fetch_add(1, Ordering::Relaxed);
                ReplicaHealth::Dead
            }
        };
        if health.rank().is_some() {
            replica.breaker.readmit();
        }
        *locked(&replica.health) = health;
    }

    /// One request on replica `idx`, over an idle connection or a dial
    /// bounded by `timeout`. The connection's canceller is registered
    /// with `token` while `f` runs, and the connection is pooled again
    /// only after a complete reply the token did not fire at. A reused
    /// connection the server has closed gets one replay on a fresh dial.
    fn attempt<T>(
        &self,
        idx: usize,
        timeout: Duration,
        token: &CancelToken,
        f: &mut impl FnMut(usize, &mut Client) -> Result<T, NetError>,
    ) -> Result<T, Failed> {
        let replica = &self.replicas[idx];
        let mut idle = locked(&replica.idle).pop();
        loop {
            let reused = idle.is_some();
            let mut client = match idle.take() {
                Some(client) => client,
                None => Client::connect_timeout(&replica.addr, timeout).map_err(|e| (e, false))?,
            };
            let canceller = client.canceller().map_err(|e| (e, false))?;
            let Some(id) = token.register(canceller) else {
                return Err((NetError::Io(io::ErrorKind::Interrupted.into()), false));
            };
            let out = f(idx, &mut client);
            if token.withdraw(id) && out.is_ok() {
                locked(&replica.idle).push(client);
            }
            match out {
                Err(e) if reused && closed_by_peer(&e) && !token.is_cancelled() => {}
                out => return out.map_err(|e| (e, true)),
            }
        }
    }
}

/// Whether `e` says the peer closed the connection, as a connection the
/// server dropped while it sat idle reports on its next use. A timeout
/// is a transport error too, but says the replica is slow, not gone.
fn closed_by_peer(e: &NetError) -> bool {
    match e {
        NetError::Io(io) | NetError::Wire(WireError::Io(io)) => !matches!(
            io.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        ),
        other => other.is_transport(),
    }
}

/// Locks `m`, recovering a poisoned lock: every value behind these
/// locks is replaced or drained in one step, so it is never torn.
pub(crate) fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A shared **retry budget**: a token bucket that bounds the total
/// retry volume the router's failover may generate, so a dying server
/// cannot trigger a retry storm.
///
/// Every retry or failover attempt withdraws one token
/// ([`RetryBudget::try_withdraw`]); every successful request deposits a
/// configurable fraction of a token ([`RetryBudget::record_success`]).
/// In steady state the budget therefore caps the retry rate at
/// `deposit_per_success` retries per successful request, with a burst
/// allowance of `capacity` tokens. All state is atomic — one budget is
/// meant to be shared across threads and connections.
///
/// Tokens are tracked in integer **millitokens** so deposits like 0.1
/// accumulate exactly; the arithmetic is saturating and lock-free.
#[derive(Debug)]
struct RetryBudget {
    millitokens: AtomicU64,
    capacity_milli: u64,
    deposit_milli: u64,
    exhausted: AtomicU64,
    withdrawn: AtomicU64,
}

/// One withdrawal in millitokens.
const WITHDRAW_MILLI: u64 = 1000;

impl RetryBudget {
    /// A budget holding `capacity` tokens (starts full), depositing
    /// `deposit_per_success` tokens per recorded success (in
    /// `[0, 1000]`, which [`ClusterConfig::validate`] checks). Fractions
    /// below a millitoken round to zero (no replenishment).
    fn new(capacity: u32, deposit_per_success: f64) -> RetryBudget {
        let capacity_milli = u64::from(capacity) * WITHDRAW_MILLI;
        RetryBudget {
            millitokens: AtomicU64::new(capacity_milli),
            capacity_milli,
            deposit_milli: (deposit_per_success * WITHDRAW_MILLI as f64) as u64,
            exhausted: AtomicU64::new(0),
            withdrawn: AtomicU64::new(0),
        }
    }

    /// Deposits the per-success fraction, saturating at capacity.
    fn record_success(&self) {
        let mut cur = self.millitokens.load(Ordering::Relaxed);
        loop {
            let next = cur
                .saturating_add(self.deposit_milli)
                .min(self.capacity_milli);
            match self.millitokens.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Withdraws one retry token. `false` means the budget is dry —
    /// the caller must give up (typed) instead of retrying.
    fn try_withdraw(&self) -> bool {
        let mut cur = self.millitokens.load(Ordering::Relaxed);
        loop {
            if cur < WITHDRAW_MILLI {
                self.exhausted.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            match self.millitokens.compare_exchange_weak(
                cur,
                cur - WITHDRAW_MILLI,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.withdrawn.fetch_add(1, Ordering::Relaxed);
                    return true;
                }
                Err(seen) => cur = seen,
            }
        }
    }

    /// Whole tokens currently available.
    fn available(&self) -> u64 {
        self.millitokens.load(Ordering::Relaxed) / WITHDRAW_MILLI
    }

    /// Times a withdrawal was refused (budget dry).
    fn exhaustions(&self) -> u64 {
        self.exhausted.load(Ordering::Relaxed)
    }

    /// Retry tokens successfully withdrawn so far.
    fn withdrawals(&self) -> u64 {
        self.withdrawn.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_budget_withdraws_until_dry_then_refuses() {
        let budget = RetryBudget::new(3, 0.0);
        assert_eq!(budget.available(), 3);
        assert!(budget.try_withdraw());
        assert!(budget.try_withdraw());
        assert!(budget.try_withdraw());
        assert!(!budget.try_withdraw(), "fourth withdrawal must fail");
        assert!(!budget.try_withdraw(), "stays dry without deposits");
        assert_eq!(budget.available(), 0);
        assert_eq!(budget.withdrawals(), 3);
        assert_eq!(budget.exhaustions(), 2);
    }

    #[test]
    fn retry_budget_fractional_deposits_accumulate_exactly() {
        // 0.1 token per success: ten successes buy one retry.
        let budget = RetryBudget::new(1, 0.1);
        assert!(budget.try_withdraw());
        assert!(!budget.try_withdraw());
        for _ in 0..9 {
            budget.record_success();
            assert!(!budget.try_withdraw(), "9 deposits of 0.1 are not enough");
        }
        budget.record_success();
        assert!(budget.try_withdraw(), "10 × 0.1 must buy exactly one token");
        assert!(!budget.try_withdraw());
    }

    #[test]
    fn retry_budget_deposits_saturate_at_capacity() {
        let budget = RetryBudget::new(2, 1.0);
        for _ in 0..100 {
            budget.record_success();
        }
        assert_eq!(budget.available(), 2, "deposits must cap at capacity");
        assert!(budget.try_withdraw());
        assert!(budget.try_withdraw());
        assert!(!budget.try_withdraw());
    }

    #[test]
    fn retry_budget_is_shared_across_threads() {
        use std::sync::Arc;
        let budget = Arc::new(RetryBudget::new(64, 0.0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let b = Arc::clone(&budget);
                std::thread::spawn(move || (0..16).filter(|_| b.try_withdraw()).count())
            })
            .collect();
        let granted: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(granted, 64, "exactly capacity tokens may be granted");
        assert_eq!(budget.exhaustions(), 8 * 16 - 64);
    }
}
