//! Runtime metrics: the one table every reported counter is declared
//! in, a per-query latency histogram, and the snapshot STATS and HEALTH
//! are rendered from.
//!
//! `stats_rows!` lists, once and in wire order, the
//! [`RuntimeMetrics`] fields that are rows of the STATS `runtime`
//! object ([`RuntimeMetrics::entries`] is that list plus the latency
//! summary). A row written `@Variant field` is also a monotonic
//! counter: `Variant` of [`Counter`], one slot of [`MetricsRecorder`]'s
//! atomic array, bumped with one relaxed `fetch_add`. The enum, its
//! size and the rows all come from the one list, so a counter cannot
//! exist without its slot or its row, and the order of the variants is
//! only the order they print in. [`HEALTH_KEYS`] names the subset a
//! HEALTH reply carries. Nothing downstream (`fj-net`'s server, codec
//! and client) spells a counter name again.
//!
//! All counters are atomics updated by worker threads with `Relaxed`
//! ordering (they are statistics, not synchronization), matching the
//! cost ledger's accounting discipline. The latency histogram uses
//! power-of-two microsecond buckets: bucket *i* covers
//! `[2^i, 2^(i+1))` µs, so quantile estimates are upper bounds accurate
//! to a factor of two.

use fj_exec::InterruptReason;
use fj_trace::json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of power-of-two latency buckets (covers up to ~2^40 µs ≈ 12
/// days; the last bucket absorbs anything longer).
pub const LATENCY_BUCKETS: usize = 40;

/// Declares the STATS rows that are fields of [`RuntimeMetrics`], in
/// wire order, and from the rows marked `@Variant` the [`Counter`]
/// enum.
macro_rules! stats_rows {
    ($( $( $(#[$doc:meta])* @$variant:ident )? $field:ident, )*) => {
        /// The monotonic counters [`MetricsRecorder`] keeps, one atomic
        /// slot each. The [`RuntimeMetrics`] field a variant is listed
        /// with in `stats_rows!` documents what it counts.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Counter {
            $( $( $(#[$doc])* $variant, )? )*
        }

        impl Counter {
            /// Every counter, in slot order.
            pub const ALL: &'static [Counter] = &[ $( $( Counter::$variant, )? )* ];

            /// The counter's STATS row (and [`RuntimeMetrics`] field).
            pub fn name(self) -> &'static str {
                match self {
                    $( $( Counter::$variant => stringify!($field), )? )*
                }
            }
        }

        impl RuntimeMetrics {
            /// The rows that are fields, in wire order.
            fn field_rows(&self) -> Vec<(&'static str, Metric)> {
                vec![ $( (stringify!($field), Metric::from(self.$field)), )* ]
            }
        }
    };
}

stats_rows! {
    /// Successfully completed queries.
    @Completed completed,
    /// Queries that returned an error.
    @Errors errors,
    /// Stopped by explicit cancellation or deadline expiry.
    @Cancelled cancelled,
    /// Stopped by the memory-page budget.
    @InterruptedByBudget interrupted_by_budget,
    /// Workers respawned after a caught panic.
    @WorkersReplaced workers_replaced,
    workers,
    in_flight,
    traces_recorded,
    pool_hits,
    pool_misses,
    pool_evictions,
    wal_fsyncs,
    /// Distributed query fragments executed to completion.
    @FragmentsServed fragments_served,
    /// Semijoin filter sets received and applied.
    @SemijoinSetsShipped semijoin_sets_shipped,
    /// Partition payload bytes scattered onto this node.
    @BytesScattered bytes_scattered,
    /// Partial-result payload bytes gathered off this node.
    @BytesGathered bytes_gathered,
    /// Mutations committed.
    @MutationsApplied mutations_applied,
    wal_deltas,
    dirty_pages,
    dirty_writebacks,
    checkpoints,
    /// Operator spill events (each grace recursion level counts once).
    @Spills spills,
    /// Temp partitions created by spilling operators.
    @SpillPartitions spill_partitions,
    spill_bytes_written,
    spill_bytes_read,
    peak_temp_bytes,
    cache_hits,
    cache_misses,
    cache_hit_rate,
    cache_entries,
    queue_depth,
    uptime_secs,
    throughput_qps,
}

/// Slots in [`MetricsRecorder`]'s table.
const COUNTERS: usize = Counter::ALL.len();

/// Live counters shared by the workers (interior; see
/// [`RuntimeMetrics`] for the snapshot type).
#[derive(Debug)]
pub struct MetricsRecorder {
    counters: [AtomicU64; COUNTERS],
    latency_sum_micros: AtomicU64,
    latency_max_micros: AtomicU64,
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl Default for MetricsRecorder {
    fn default() -> Self {
        MetricsRecorder {
            counters: Default::default(),
            latency_sum_micros: AtomicU64::new(0),
            latency_max_micros: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

fn bucket_of(micros: u64) -> usize {
    (63 - micros.max(1).leading_zeros() as usize).min(LATENCY_BUCKETS - 1)
}

impl MetricsRecorder {
    /// Adds `n` to `counter`.
    pub fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// The current value of `counter`.
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// Records one finished query (successful or not).
    pub fn record(&self, latency: Duration, ok: bool) {
        let us = latency.as_micros() as u64;
        if ok {
            self.add(Counter::Completed, 1);
        } else {
            self.add(Counter::Errors, 1);
        }
        self.latency_sum_micros.fetch_add(us, Ordering::Relaxed);
        self.latency_max_micros.fetch_max(us, Ordering::Relaxed);
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one interrupted query under the counter its reason maps
    /// to: explicit/deadline cancellations vs. governor budget trips.
    pub fn record_interrupt(&self, reason: InterruptReason) {
        let counter = match reason {
            InterruptReason::Deadline | InterruptReason::Cancelled => Counter::Cancelled,
            InterruptReason::MemoryBudget => Counter::InterruptedByBudget,
        };
        self.add(counter, 1);
    }

    /// Snapshot of the histogram counters.
    pub fn histogram(&self) -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum_micros: self.latency_sum_micros.load(Ordering::Relaxed),
            max_micros: self.latency_max_micros.load(Ordering::Relaxed),
        }
    }
}

/// Power-of-two latency histogram snapshot.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    /// `buckets[i]` = queries with latency in `[2^i, 2^(i+1))` µs.
    pub buckets: [u64; LATENCY_BUCKETS],
    /// Sum of all recorded latencies, µs.
    pub sum_micros: u64,
    /// Largest recorded latency, µs.
    pub max_micros: u64,
}

impl LatencyHistogram {
    /// Total recorded queries.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean latency in µs (0 when empty).
    pub fn mean_micros(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_micros as f64 / n as f64
        }
    }

    /// Upper bound of the bucket containing quantile `q` (0 < q ≤ 1);
    /// accurate to a factor of two. Returns 0 when empty.
    pub fn quantile_micros(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return 1u64 << (i + 1);
            }
        }
        self.max_micros
    }
}

/// One observable snapshot of the whole service, from
/// `QueryService::metrics`.
#[derive(Debug, Clone)]
pub struct RuntimeMetrics {
    /// Successfully completed queries since service start.
    pub completed: u64,
    /// Queries that returned an error.
    pub errors: u64,
    /// Queries stopped by explicit cancellation or deadline expiry.
    pub cancelled: u64,
    /// Queries stopped by the memory-page budget.
    pub interrupted_by_budget: u64,
    /// Workers respawned after a caught panic (pool stays at size).
    pub workers_replaced: u64,
    /// Configured worker-pool size — with `workers_replaced`, a
    /// router's view of pool strength.
    pub workers: usize,
    /// Queries a worker is executing right now.
    pub in_flight: usize,
    /// Per-query traces recorded over the service's lifetime (the
    /// trace ring keeps only the most recent ones; this counts all).
    pub traces_recorded: u64,
    /// Buffer-pool hits since start (0 in in-memory mode).
    pub pool_hits: u64,
    /// Buffer-pool misses — physical page-file reads — since start
    /// (0 in in-memory mode).
    pub pool_misses: u64,
    /// Pages evicted from the buffer pool since start.
    pub pool_evictions: u64,
    /// WAL group fsyncs issued since start.
    pub wal_fsyncs: u64,
    /// Distributed query fragments executed since start.
    pub fragments_served: u64,
    /// Semijoin filter sets received and applied since start.
    pub semijoin_sets_shipped: u64,
    /// Partition payload bytes scattered onto this node since start.
    pub bytes_scattered: u64,
    /// Partial-result payload bytes gathered off this node since start.
    pub bytes_gathered: u64,
    /// Mutations committed since start (both storage modes).
    pub mutations_applied: u64,
    /// WAL page-delta records appended since start (0 in in-memory
    /// mode).
    pub wal_deltas: u64,
    /// Dirty pages currently resident in the buffer pool (gauge; 0 in
    /// in-memory mode).
    pub dirty_pages: u64,
    /// Dirty pool victims persisted by eviction write-back since start.
    pub dirty_writebacks: u64,
    /// Fuzzy checkpoints completed since start (0 in in-memory mode).
    pub checkpoints: u64,
    /// Operator spill events since start (each grace recursion level
    /// counts once; 0 when spilling is off).
    pub spills: u64,
    /// Temp partitions created by spilling operators since start.
    pub spill_partitions: u64,
    /// Bytes appended to spill temp files since start.
    pub spill_bytes_written: u64,
    /// Bytes read back from spill temp files since start.
    pub spill_bytes_read: u64,
    /// High-water mark of bytes simultaneously held in live spill temp
    /// files.
    pub peak_temp_bytes: u64,
    /// Plan-cache hits.
    pub cache_hits: u64,
    /// Plan-cache misses.
    pub cache_misses: u64,
    /// `cache_hits / (cache_hits + cache_misses)`; 0 when unused.
    pub cache_hit_rate: f64,
    /// Plans currently cached.
    pub cache_entries: usize,
    /// Jobs waiting in the submission queue right now.
    pub queue_depth: usize,
    /// Wall-clock seconds since the service started.
    pub uptime_secs: f64,
    /// `completed / uptime` — queries per second since start.
    pub throughput_qps: f64,
    /// Latency distribution of finished queries.
    pub latency: LatencyHistogram,
}

/// One reported value: an integer counter or gauge, or a real that
/// renders with six decimals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Metric {
    /// A counter or gauge.
    Count(u64),
    /// A rate or ratio (always finite).
    Real(f64),
}

impl From<u64> for Metric {
    fn from(v: u64) -> Metric {
        Metric::Count(v)
    }
}

impl From<usize> for Metric {
    fn from(v: usize) -> Metric {
        Metric::Count(v as u64)
    }
}

impl From<f64> for Metric {
    fn from(v: f64) -> Metric {
        Metric::Real(v)
    }
}

/// The counters a HEALTH reply carries after `status`, in wire order.
/// `queued` is [`RuntimeMetrics::queue_depth`] under its HEALTH name,
/// `queue_capacity` and `connections_active` are the server's own;
/// every other key is the same-named [`RuntimeMetrics::entries`] row,
/// read from the same snapshot STATS renders.
pub const HEALTH_KEYS: [&str; 23] = [
    "workers",
    "workers_replaced",
    "queued",
    "in_flight",
    "queue_capacity",
    "connections_active",
    "pool_hits",
    "pool_misses",
    "pool_evictions",
    "wal_fsyncs",
    "fragments_served",
    "semijoin_sets_shipped",
    "bytes_scattered",
    "bytes_gathered",
    "mutations_applied",
    "wal_deltas",
    "dirty_pages",
    "checkpoints",
    "spills",
    "spill_partitions",
    "spill_bytes_written",
    "spill_bytes_read",
    "peak_temp_bytes",
];

impl RuntimeMetrics {
    /// Every reported name with its value, in wire order: the
    /// `stats_rows!` list, then the latency summary. The key set is a
    /// wire contract pinned by `to_json_key_set_snapshot`.
    pub fn entries(&self) -> Vec<(&'static str, Metric)> {
        let mut rows = self.field_rows();
        let latency = &self.latency;
        rows.extend([
            ("latency_mean_micros", latency.mean_micros().into()),
            ("latency_p50_micros", latency.quantile_micros(0.5).into()),
            ("latency_p99_micros", latency.quantile_micros(0.99).into()),
            ("latency_max_micros", latency.max_micros.into()),
        ]);
        rows
    }

    /// The integer counter or gauge reported as `name`, if there is one.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.entries().into_iter().find_map(|row| match row {
            (n, Metric::Count(v)) if n == name => Some(v),
            _ => None,
        })
    }

    /// One-line JSON rendering of [`RuntimeMetrics::entries`], so both
    /// the `fj-net` STATS reply and the reproduce binary emit the same
    /// scrapeable shape. Floats are fixed to six decimals (every field
    /// here is finite, so the output is always valid JSON).
    pub fn to_json(&self) -> String {
        json::object(|w| {
            for (name, value) in self.entries() {
                match value {
                    Metric::Count(v) => w.key(name).uint(v),
                    Metric::Real(v) => w.key(name).float6(v),
                };
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A snapshot with every value zero.
    fn zeros() -> RuntimeMetrics {
        RuntimeMetrics {
            completed: 0,
            errors: 0,
            cancelled: 0,
            interrupted_by_budget: 0,
            workers_replaced: 0,
            workers: 0,
            in_flight: 0,
            traces_recorded: 0,
            pool_hits: 0,
            pool_misses: 0,
            pool_evictions: 0,
            wal_fsyncs: 0,
            fragments_served: 0,
            semijoin_sets_shipped: 0,
            bytes_scattered: 0,
            bytes_gathered: 0,
            mutations_applied: 0,
            wal_deltas: 0,
            dirty_pages: 0,
            dirty_writebacks: 0,
            checkpoints: 0,
            spills: 0,
            spill_partitions: 0,
            spill_bytes_written: 0,
            spill_bytes_read: 0,
            peak_temp_bytes: 0,
            cache_hits: 0,
            cache_misses: 0,
            cache_hit_rate: 0.0,
            cache_entries: 0,
            queue_depth: 0,
            uptime_secs: 0.0,
            throughput_qps: 0.0,
            latency: MetricsRecorder::default().histogram(),
        }
    }

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), LATENCY_BUCKETS - 1);
    }

    #[test]
    fn record_and_summarize() {
        let m = MetricsRecorder::default();
        m.record(Duration::from_micros(10), true);
        m.record(Duration::from_micros(100), true);
        m.record(Duration::from_micros(1000), false);
        assert_eq!(m.get(Counter::Completed), 2);
        assert_eq!(m.get(Counter::Errors), 1);
        let h = m.histogram();
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum_micros, 1110);
        assert_eq!(h.max_micros, 1000);
        assert!((h.mean_micros() - 370.0).abs() < 1e-9);
        // p50 falls in the 100µs bucket: [64,128) → upper bound 128.
        assert_eq!(h.quantile_micros(0.5), 128);
        assert!(h.quantile_micros(1.0) >= 1024);
    }

    #[test]
    fn interrupts_count_as_cancelled_or_budget_by_reason() {
        let m = MetricsRecorder::default();
        m.record_interrupt(InterruptReason::Deadline);
        m.record_interrupt(InterruptReason::Cancelled);
        m.record_interrupt(InterruptReason::MemoryBudget);
        assert_eq!(m.get(Counter::Cancelled), 2);
        assert_eq!(m.get(Counter::InterruptedByBudget), 1);
    }

    #[test]
    fn to_json_is_stable_and_parseable_shaped() {
        let m = RuntimeMetrics {
            completed: 3,
            errors: 1,
            cancelled: 2,
            interrupted_by_budget: 1,
            workers_replaced: 1,
            workers: 4,
            in_flight: 2,
            traces_recorded: 5,
            pool_hits: 9,
            pool_misses: 3,
            pool_evictions: 1,
            wal_fsyncs: 2,
            fragments_served: 7,
            semijoin_sets_shipped: 4,
            bytes_scattered: 640,
            bytes_gathered: 320,
            mutations_applied: 6,
            wal_deltas: 8,
            dirty_pages: 5,
            dirty_writebacks: 3,
            checkpoints: 2,
            spills: 4,
            spill_partitions: 16,
            spill_bytes_written: 4096,
            spill_bytes_read: 4096,
            peak_temp_bytes: 2048,
            cache_hits: 2,
            cache_misses: 2,
            cache_hit_rate: 0.5,
            cache_entries: 2,
            queue_depth: 0,
            uptime_secs: 1.25,
            throughput_qps: 2.4,
            latency: MetricsRecorder::default().histogram(),
        };
        let j = m.to_json();
        assert!(j.starts_with("{\"completed\":3,"));
        assert!(j.ends_with("\"latency_max_micros\":0}"));
        assert!(j.contains("\"cache_hit_rate\":0.500000"));
        assert!(j.contains("\"queue_depth\":0"));
        assert!(j.contains("\"cancelled\":2"));
        assert!(j.contains("\"interrupted_by_budget\":1"));
        assert!(j.contains("\"workers_replaced\":1"));
        assert!(j.contains("\"workers\":4"));
        assert!(j.contains("\"in_flight\":2"));
        assert!(j.contains("\"traces_recorded\":5"));
        assert!(j.contains("\"pool_hits\":9"));
        assert!(j.contains("\"pool_misses\":3"));
        assert!(j.contains("\"pool_evictions\":1"));
        assert!(j.contains("\"wal_fsyncs\":2"));
        assert!(j.contains("\"fragments_served\":7"));
        assert!(j.contains("\"semijoin_sets_shipped\":4"));
        assert!(j.contains("\"bytes_scattered\":640"));
        assert!(j.contains("\"bytes_gathered\":320"));
        assert!(j.contains("\"mutations_applied\":6"));
        assert!(j.contains("\"wal_deltas\":8"));
        assert!(j.contains("\"dirty_pages\":5"));
        assert!(j.contains("\"dirty_writebacks\":3"));
        assert!(j.contains("\"checkpoints\":2"));
        assert!(j.contains("\"spills\":4"));
        assert!(j.contains("\"spill_partitions\":16"));
        assert!(j.contains("\"spill_bytes_written\":4096"));
        assert!(j.contains("\"spill_bytes_read\":4096"));
        assert!(j.contains("\"peak_temp_bytes\":2048"));
        // Stable key order: completed always precedes errors precedes
        // cache_hits.
        let (a, b, c) = (
            j.find("\"completed\"").unwrap(),
            j.find("\"errors\"").unwrap(),
            j.find("\"cache_hits\"").unwrap(),
        );
        assert!(a < b && b < c);
    }

    #[test]
    fn to_json_key_set_snapshot() {
        // The exact ordered key set of the metrics JSON is a wire
        // contract (the STATS reply and the reproduce binary both
        // scrape it): adding, removing, or reordering a key must be a
        // conscious change to this list. Every value is a bare number,
        // so the quoted tokens are precisely the keys.
        let j = zeros().to_json();
        let keys: Vec<&str> = j.split('"').skip(1).step_by(2).collect();
        assert_eq!(
            keys,
            [
                "completed",
                "errors",
                "cancelled",
                "interrupted_by_budget",
                "workers_replaced",
                "workers",
                "in_flight",
                "traces_recorded",
                "pool_hits",
                "pool_misses",
                "pool_evictions",
                "wal_fsyncs",
                "fragments_served",
                "semijoin_sets_shipped",
                "bytes_scattered",
                "bytes_gathered",
                "mutations_applied",
                "wal_deltas",
                "dirty_pages",
                "dirty_writebacks",
                "checkpoints",
                "spills",
                "spill_partitions",
                "spill_bytes_written",
                "spill_bytes_read",
                "peak_temp_bytes",
                "cache_hits",
                "cache_misses",
                "cache_hit_rate",
                "cache_entries",
                "queue_depth",
                "uptime_secs",
                "throughput_qps",
                "latency_mean_micros",
                "latency_p50_micros",
                "latency_p99_micros",
                "latency_max_micros",
            ]
        );
    }

    #[test]
    fn every_counter_has_a_slot_and_exactly_one_stats_row() {
        let recorder = MetricsRecorder::default();
        for (slot, &counter) in Counter::ALL.iter().enumerate() {
            assert_eq!(counter as usize, slot, "{counter:?} indexes its own slot");
            recorder.add(counter, slot as u64 + 1);
        }
        for (slot, &counter) in Counter::ALL.iter().enumerate() {
            assert_eq!(recorder.get(counter), slot as u64 + 1, "{counter:?}");
        }
        let rows = zeros().entries();
        for &counter in Counter::ALL {
            let named = rows.iter().filter(|(name, _)| *name == counter.name());
            assert_eq!(named.count(), 1, "{counter:?} has one STATS row");
        }
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = MetricsRecorder::default().histogram();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_micros(), 0.0);
        assert_eq!(h.quantile_micros(0.5), 0);
    }
}
