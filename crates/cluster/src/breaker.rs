//! Per-replica three-state circuit breaker.
//!
//! The breaker stops the cluster client from hammering a replica that
//! keeps failing: after `failure_threshold` consecutive failures it
//! **opens** and refuses traffic for `cooldown`; the first acquisition
//! after the cooldown moves it to **half-open**, where a bounded trickle
//! of probe requests decides its fate — `half_open_successes` wins in a
//! row close it again, any failure re-opens it for another cooldown.
//!
//! All transitions are driven by the caller's `try_acquire` /
//! `record_success` / `record_failure` calls; there is no internal
//! timer thread. The `*_at` variants take an explicit [`Instant`] so
//! tests can replay a transition schedule without sleeping.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Sizing knobs for one [`CircuitBreaker`].
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Consecutive failures (while closed) that open the breaker.
    pub failure_threshold: u32,
    /// How long an open breaker refuses traffic before letting a
    /// half-open probe through.
    pub cooldown: Duration,
    /// Consecutive successes (while half-open) that close the breaker.
    pub half_open_successes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_millis(250),
            half_open_successes: 2,
        }
    }
}

/// Observable breaker state (the internal state also carries counters
/// and the cooldown deadline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Traffic flows; consecutive failures are being counted.
    Closed,
    /// Traffic is refused until the cooldown elapses.
    Open,
    /// Probe traffic flows; the next success/failure decides.
    HalfOpen,
}

impl BreakerState {
    /// Lower-case name, for JSON/state dumps.
    pub fn as_str(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

#[derive(Debug)]
enum State {
    Closed { consecutive_failures: u32 },
    Open { until: Instant },
    HalfOpen { successes: u32 },
}

/// A three-state circuit breaker (closed → open → half-open → closed).
/// Thread-safe; one instance guards one replica.
#[derive(Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: Mutex<State>,
    opens: AtomicU64,
}

impl CircuitBreaker {
    /// A closed breaker with the given thresholds.
    pub fn new(cfg: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            cfg,
            state: Mutex::new(State::Closed {
                consecutive_failures: 0,
            }),
            opens: AtomicU64::new(0),
        }
    }

    /// The state, locked. Every transition is a single assignment, so
    /// a poisoned lock still holds a valid state.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether a request may be sent through this breaker right now.
    /// An open breaker whose cooldown has elapsed transitions to
    /// half-open and admits the request as a probe.
    pub fn try_acquire(&self) -> bool {
        self.try_acquire_at(Instant::now())
    }

    /// [`CircuitBreaker::try_acquire`] with an explicit clock reading.
    pub fn try_acquire_at(&self, now: Instant) -> bool {
        let mut state = self.lock();
        match *state {
            State::Closed { .. } | State::HalfOpen { .. } => true,
            State::Open { until } => {
                if now >= until {
                    *state = State::HalfOpen { successes: 0 };
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Reports a successful request. Closed: resets the failure run.
    /// Half-open: counts toward closing. Open: ignored (a late reply
    /// from before the trip).
    pub fn record_success(&self) {
        let mut state = self.lock();
        match *state {
            State::Closed { .. } => {
                *state = State::Closed {
                    consecutive_failures: 0,
                }
            }
            State::HalfOpen { successes } => {
                if successes + 1 >= self.cfg.half_open_successes {
                    *state = State::Closed {
                        consecutive_failures: 0,
                    };
                } else {
                    *state = State::HalfOpen {
                        successes: successes + 1,
                    };
                }
            }
            State::Open { .. } => {}
        }
    }

    /// Reports a failed request. Closed: counts toward the threshold
    /// and opens on reaching it. Half-open: re-opens immediately.
    pub fn record_failure(&self) {
        self.record_failure_at(Instant::now());
    }

    /// [`CircuitBreaker::record_failure`] with an explicit clock
    /// reading (the cooldown deadline is `now + cooldown`).
    pub fn record_failure_at(&self, now: Instant) {
        let mut state = self.lock();
        match *state {
            State::Closed {
                consecutive_failures,
            } => {
                if consecutive_failures + 1 >= self.cfg.failure_threshold {
                    *state = State::Open {
                        until: now + self.cfg.cooldown,
                    };
                    self.opens.fetch_add(1, Ordering::Relaxed);
                } else {
                    *state = State::Closed {
                        consecutive_failures: consecutive_failures + 1,
                    };
                }
            }
            State::HalfOpen { .. } => {
                *state = State::Open {
                    until: now + self.cfg.cooldown,
                };
                self.opens.fetch_add(1, Ordering::Relaxed);
            }
            State::Open { .. } => {}
        }
    }

    /// A health probe found the replica answering again: an open
    /// breaker skips the rest of its cooldown and goes half-open, so the
    /// next request is the trial that decides it.
    pub fn readmit(&self) {
        let mut state = self.lock();
        if let State::Open { .. } = *state {
            *state = State::HalfOpen { successes: 0 };
        }
    }

    /// The observable state (open breakers stay "open" here until a
    /// `try_acquire` actually transitions them).
    pub fn state(&self) -> BreakerState {
        match *self.lock() {
            State::Closed { .. } => BreakerState::Closed,
            State::Open { .. } => BreakerState::Open,
            State::HalfOpen { .. } => BreakerState::HalfOpen,
        }
    }

    /// Times this breaker has tripped open (closed→open and
    /// half-open→open both count).
    pub fn opens(&self) -> u64 {
        self.opens.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker() -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_secs(10),
            half_open_successes: 2,
        })
    }

    #[test]
    fn closed_until_threshold_consecutive_failures() {
        let b = breaker();
        let now = Instant::now();
        b.record_failure_at(now);
        b.record_failure_at(now);
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.try_acquire_at(now));
        b.record_failure_at(now);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.try_acquire_at(now), "open breaker refuses traffic");
        assert_eq!(b.opens(), 1);
    }

    #[test]
    fn success_resets_the_failure_run() {
        let b = breaker();
        let now = Instant::now();
        b.record_failure_at(now);
        b.record_failure_at(now);
        b.record_success();
        b.record_failure_at(now);
        b.record_failure_at(now);
        assert_eq!(b.state(), BreakerState::Closed, "run was reset");
    }

    #[test]
    fn cooldown_elapsing_admits_a_half_open_probe() {
        let b = breaker();
        let now = Instant::now();
        for _ in 0..3 {
            b.record_failure_at(now);
        }
        assert!(!b.try_acquire_at(now + Duration::from_secs(9)));
        assert!(b.try_acquire_at(now + Duration::from_secs(10)));
        assert_eq!(b.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn half_open_closes_after_enough_successes() {
        let b = breaker();
        let now = Instant::now();
        for _ in 0..3 {
            b.record_failure_at(now);
        }
        assert!(b.try_acquire_at(now + Duration::from_secs(10)));
        b.record_success();
        assert_eq!(
            b.state(),
            BreakerState::HalfOpen,
            "one success is not enough"
        );
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.opens(), 1);
    }

    #[test]
    fn half_open_failure_reopens_for_another_cooldown() {
        let b = breaker();
        let now = Instant::now();
        for _ in 0..3 {
            b.record_failure_at(now);
        }
        let probe_at = now + Duration::from_secs(10);
        assert!(b.try_acquire_at(probe_at));
        b.record_failure_at(probe_at);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opens(), 2);
        assert!(!b.try_acquire_at(probe_at + Duration::from_secs(9)));
        assert!(b.try_acquire_at(probe_at + Duration::from_secs(10)));
    }

    #[test]
    fn readmit_turns_an_open_breaker_half_open_and_leaves_others_alone() {
        let b = breaker();
        b.readmit();
        assert_eq!(b.state(), BreakerState::Closed);
        let now = Instant::now();
        for _ in 0..3 {
            b.record_failure_at(now);
        }
        b.readmit();
        assert_eq!(b.state(), BreakerState::HalfOpen, "no cooldown wait");
        assert!(b.try_acquire_at(now));
        b.record_failure_at(now);
        assert_eq!(b.state(), BreakerState::Open, "the trial still decides");
        assert_eq!(b.opens(), 2);
    }
}
