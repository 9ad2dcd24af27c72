//! Cluster-client configuration, with one range rule as the runtime's
//! `ServiceConfig` has: [`ClusterConfig::validate`] rejects an
//! out-of-range knob with a typed error, and `ClusterClient::connect`
//! runs it, so a sloppy config is an error rather than a wedged client.

use crate::breaker::BreakerConfig;
use std::fmt;
use std::time::Duration;

/// Hedged-request knobs.
///
/// When enabled, a query that has not answered within the observed
/// latency quantile is re-issued against a second replica; the first
/// verified reply wins and the loser is cancelled (or, with
/// [`HedgeConfig::verify`], allowed to finish so the two replies can be
/// checked byte-identical).
#[derive(Debug, Clone)]
pub struct HedgeConfig {
    /// Master switch. Off by default: hedging doubles worst-case load.
    pub enabled: bool,
    /// Latency quantile of observed successes after which the hedge
    /// fires (e.g. `0.95` = hedge the slowest 5%). Must be in (0, 1].
    pub quantile: f64,
    /// Floor on the hedge delay, so a cold histogram (or a very fast
    /// workload) cannot hedge every single request.
    pub min_delay: Duration,
    /// Observed successes required before hedging arms — below this
    /// the quantile estimate is noise.
    pub min_samples: u64,
    /// Let the losing attempt finish and verify its reply is
    /// byte-identical to the winner's (modulo per-execution fields);
    /// a divergence is reported as `ClusterError::ReplicaMismatch`.
    /// When `false` the loser is cancelled the moment the winner lands.
    pub verify: bool,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig {
            enabled: false,
            quantile: 0.95,
            min_delay: Duration::from_millis(1),
            min_samples: 32,
            verify: false,
        }
    }
}

/// Jitter applied to each probe sleep as a fraction of
/// [`ClusterConfig::probe_interval`]: probes are spread across
/// `[interval·(1−jitter), interval·(1+jitter)]` by a seeded stream so
/// replicas are never probed in lockstep.
pub const PROBE_JITTER: f64 = 0.2;

/// Seed of the probe-jitter stream, so a given interval replays the
/// same probe schedule.
pub const PROBE_JITTER_SEED: u64 = 0xc1a5;

/// TCP connect timeout for query connections.
pub const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);

/// Everything the replica-aware [`crate::ClusterClient`] needs to know.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Base interval between health-probe rounds, jittered by
    /// `PROBE_JITTER`.
    pub probe_interval: Duration,
    /// Per-probe I/O timeout (connect, handshake, and reply each).
    pub probe_timeout: Duration,
    /// Per-replica circuit-breaker thresholds.
    pub breaker: BreakerConfig,
    /// Capacity of the shared retry budget (tokens). Retries and
    /// failovers both draw from it; successes deposit
    /// [`ClusterConfig::retry_deposit_per_success`] back.
    pub retry_budget_capacity: u32,
    /// Tokens deposited per successful query, in `[0, 1000]`.
    pub retry_deposit_per_success: f64,
    /// Hedged-request knobs.
    pub hedge: HedgeConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            probe_interval: Duration::from_millis(50),
            probe_timeout: Duration::from_millis(250),
            breaker: BreakerConfig::default(),
            retry_budget_capacity: 32,
            retry_deposit_per_success: 0.1,
            hedge: HedgeConfig::default(),
        }
    }
}

/// [`ClusterConfig::validate`] rejection: which knob, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterConfigError {
    /// The offending knob's name.
    pub knob: &'static str,
    /// What a valid value looks like.
    pub expected: &'static str,
}

impl fmt::Display for ClusterConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid cluster config: {} must be {}",
            self.knob, self.expected
        )
    }
}

impl std::error::Error for ClusterConfigError {}

fn reject(knob: &'static str, expected: &'static str) -> Result<(), ClusterConfigError> {
    Err(ClusterConfigError { knob, expected })
}

impl ClusterConfig {
    /// The one range rule: every knob must be in range.
    /// `ClusterClient::connect` runs it.
    pub fn validate(&self) -> Result<(), ClusterConfigError> {
        if self.probe_interval.is_zero() {
            return reject("probe_interval", "positive");
        }
        if self.probe_timeout.is_zero() {
            return reject("probe_timeout", "positive");
        }
        if self.breaker.failure_threshold == 0 {
            return reject("breaker.failure_threshold", "≥ 1");
        }
        if self.breaker.half_open_successes == 0 {
            return reject("breaker.half_open_successes", "≥ 1");
        }
        if self.retry_budget_capacity == 0 {
            return reject("retry_budget_capacity", "≥ 1");
        }
        if !(0.0..=1000.0).contains(&self.retry_deposit_per_success) {
            return reject("retry_deposit_per_success", "in [0, 1000]");
        }
        if !(self.hedge.quantile > 0.0 && self.hedge.quantile <= 1.0) {
            return reject("hedge.quantile", "in (0, 1]");
        }
        if self.hedge.min_samples == 0 {
            return reject("hedge.min_samples", "≥ 1");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        ClusterConfig::default().validate().unwrap();
    }

    #[test]
    fn each_bad_knob_is_rejected_by_name() {
        let cases: Vec<(ClusterConfig, &str)> = vec![
            (
                ClusterConfig {
                    probe_interval: Duration::ZERO,
                    ..ClusterConfig::default()
                },
                "probe_interval",
            ),
            (
                ClusterConfig {
                    probe_timeout: Duration::ZERO,
                    ..ClusterConfig::default()
                },
                "probe_timeout",
            ),
            (
                ClusterConfig {
                    breaker: BreakerConfig {
                        failure_threshold: 0,
                        ..BreakerConfig::default()
                    },
                    ..ClusterConfig::default()
                },
                "breaker.failure_threshold",
            ),
            (
                ClusterConfig {
                    breaker: BreakerConfig {
                        half_open_successes: 0,
                        ..BreakerConfig::default()
                    },
                    ..ClusterConfig::default()
                },
                "breaker.half_open_successes",
            ),
            (
                ClusterConfig {
                    retry_budget_capacity: 0,
                    ..ClusterConfig::default()
                },
                "retry_budget_capacity",
            ),
            (
                ClusterConfig {
                    retry_deposit_per_success: -0.5,
                    ..ClusterConfig::default()
                },
                "retry_deposit_per_success",
            ),
            (
                ClusterConfig {
                    hedge: HedgeConfig {
                        quantile: 0.0,
                        ..HedgeConfig::default()
                    },
                    ..ClusterConfig::default()
                },
                "hedge.quantile",
            ),
            (
                ClusterConfig {
                    hedge: HedgeConfig {
                        min_samples: 0,
                        ..HedgeConfig::default()
                    },
                    ..ClusterConfig::default()
                },
                "hedge.min_samples",
            ),
        ];
        for (cfg, knob) in cases {
            let err = cfg.validate().expect_err(knob);
            assert_eq!(err.knob, knob);
        }
    }
}
