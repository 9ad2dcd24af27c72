//! The closed-loop load generator: one OS thread per client, each
//! sending its next operation only after the previous reply arrived.

use crate::stats;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Which latency series an operation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// The workload's primary operation (`p50_us`, `qps`).
    Primary,
    /// A read running beside a primary write (`read_p50_us`); on
    /// read-only workloads the primary operation *is* the read.
    Read,
}

/// One client's connection to the system under test: each call sends
/// one operation, waits for its reply, checks it, and says whether it
/// was correct.
pub type ClientOp<'a> = Box<dyn FnMut() -> bool + Send + 'a>;

/// A live system under test that clients can be attached to.
pub trait Target: Sync {
    /// Closed-loop clients the workload is defined with.
    fn clients(&self) -> usize;
    /// Which series client `c`'s operations belong to.
    fn class(&self, c: usize) -> Class;
    /// Connects client `c`.
    fn connect(&self, c: usize) -> Result<ClientOp<'_>, String>;
}

/// When a pass stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// Each client stops starting operations after this long.
    After(Duration),
    /// Each client sends exactly this many operations.
    Ops(u64),
}

/// Operations attempted and failed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Counts one operation checked outside the load generator.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// What one pass observed.
#[derive(Debug, Default)]
pub struct Window {
    /// Latencies of primary operations, microseconds, all clients.
    pub primary_us: Vec<f64>,
    /// Latencies of beside-the-writer reads, microseconds.
    pub read_us: Vec<f64>,
    /// Primary operations per second: the sum of each primary client's
    /// own completion rate.
    pub qps: f64,
    pub tally: Tally,
}

impl Window {
    pub fn p50_us(&self) -> f64 {
        stats::median(&mut self.primary_us.clone())
    }

    /// Median read latency; the primary median where reads are primary.
    pub fn read_p50_us(&self) -> f64 {
        if self.read_us.is_empty() {
            self.p50_us()
        } else {
            stats::median(&mut self.read_us.clone())
        }
    }
}

/// One client's pass: its class, latencies in microseconds, failed
/// operations, and seconds from its first send to its last reply.
type ClientRun = (Class, Vec<f64>, u64, f64);

/// Drives every client of `target` until `stop`. Connecting happens
/// before the clock starts; all clients start together.
pub fn run(target: &dyn Target, stop: Stop) -> Result<Window, String> {
    let clients = target.clients();
    let barrier = Barrier::new(clients);
    let per_client: Vec<Result<ClientRun, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let barrier = &barrier;
                s.spawn(move || {
                    let op = target.connect(c);
                    // Every client reaches the barrier, connected or not.
                    barrier.wait();
                    let mut op = op?;
                    let mut latencies = Vec::new();
                    let mut failed = 0u64;
                    let start = Instant::now();
                    let mut now = start;
                    loop {
                        let done = match stop {
                            Stop::After(d) => now.duration_since(start) >= d,
                            Stop::Ops(n) => latencies.len() as u64 >= n,
                        };
                        if done {
                            break;
                        }
                        let ok = op();
                        let end = Instant::now();
                        latencies.push(end.duration_since(now).as_nanos() as f64 / 1_000.0);
                        failed += u64::from(!ok);
                        now = end;
                    }
                    let secs = now.duration_since(start).as_secs_f64();
                    Ok((target.class(c), latencies, failed, secs))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "a client thread panicked".to_string())?
            })
            .collect()
    });
    let mut window = Window::default();
    for client in per_client {
        let (class, latencies, failed, secs) = client?;
        window.tally.add(Tally {
            attempted: latencies.len() as u64,
            failed,
        });
        match class {
            Class::Primary => {
                if secs > 0.0 {
                    window.qps += latencies.len() as f64 / secs;
                }
                window.primary_us.extend(latencies);
            }
            Class::Read => window.read_us.extend(latencies),
        }
    }
    Ok(window)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct Sleeper {
        calls: AtomicU64,
    }

    impl Target for Sleeper {
        fn clients(&self) -> usize {
            2
        }
        fn class(&self, c: usize) -> Class {
            if c == 0 {
                Class::Primary
            } else {
                Class::Read
            }
        }
        fn connect(&self, c: usize) -> Result<ClientOp<'_>, String> {
            Ok(Box::new(move || {
                let n = self.calls.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(1));
                // The reader's every other operation "fails".
                c == 0 || n.is_multiple_of(2)
            }))
        }
    }

    #[test]
    fn count_bound_pass_sends_exactly_that_many_per_client() {
        let target = Sleeper {
            calls: AtomicU64::new(0),
        };
        let w = run(&target, Stop::Ops(5)).unwrap();
        assert_eq!(w.tally.attempted, 10);
        assert_eq!((w.primary_us.len(), w.read_us.len()), (5, 5));
        assert!(w.tally.failed <= 5);
        assert!(w.p50_us() >= 1_000.0, "each op sleeps a millisecond");
        assert!(
            w.qps > 0.0 && w.qps <= 1_000.0,
            "one primary client, ≥ 1 ms per op"
        );
        assert!(w.read_p50_us() >= 1_000.0);
    }

    #[test]
    fn time_bound_pass_stops_and_counts_only_primary_ops_in_qps() {
        let target = Sleeper {
            calls: AtomicU64::new(0),
        };
        let w = run(&target, Stop::After(Duration::from_millis(30))).unwrap();
        assert!(w.tally.attempted >= 4);
        let rate = w.primary_us.len() as f64 / (w.primary_us.iter().sum::<f64>() / 1e6);
        assert!(
            (w.qps - rate).abs() / rate < 0.05,
            "qps {} vs {rate}",
            w.qps
        );
    }
}
