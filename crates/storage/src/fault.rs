//! Deterministic fault injection for the paged I/O paths.
//!
//! A [`FaultPlan`] is a seeded schedule of storage misbehavior: every
//! page read that passes through a fault-aware access path
//! ([`crate::Table::scan_checked`] / [`crate::Table::fetch_checked`])
//! advances a per-plan ordinal counter, and the plan decides — purely as
//! a function of `(seed, ordinal)` — whether that read succeeds, fails
//! with a typed [`StorageError::InjectedFault`], stalls for a configured
//! latency, or panics (modelling a crashing worker). The disk-backed
//! page store (`fj-store`) threads the same plan through its *write*
//! path: [`FaultPlan::on_page_write`] draws torn-page decisions (the
//! write silently persists only a prefix of the page, detectable later
//! by checksum) and [`FaultPlan::on_fsync`] draws slow-fsync stalls —
//! each class on its own ordinal counter so arming one never perturbs
//! the schedule of another.
//!
//! Determinism is the point: a single-threaded execution replays the
//! exact same fault sequence for a given seed, which makes "any seeded
//! fault plan yields a typed error, never a panic or a wrong row set"
//! a property-testable statement. Under concurrency the *set* of
//! ordinals drawn is still fixed; only their attribution to queries
//! races, which is exactly the situation a chaos soak wants.

use crate::error::StorageError;
use crate::value::splitmix64;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

/// A seeded, deterministic schedule of injected page-read faults.
///
/// All knobs default to "off": `FaultPlan::new(seed)` injects nothing
/// until a `with_*` builder arms it. Rates are expressed as
/// "one in `n`" (`n = 0` disables the fault class).
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    /// One stream per [`Class`], indexed by it. The read stream's rate
    /// and stall are its stalls'.
    streams: [Stream; 7],
    /// One in `read_errors` page reads fails, on a second draw from the
    /// read stream's word (`0`: none).
    read_errors: u64,
    panic_at: Option<u64>,
}

/// The fault classes. Each draws on its own ordinal counter, mixed
/// with its own domain constant, so arming or drawing one never shifts
/// the schedule of another.
#[derive(Clone, Copy)]
enum Class {
    Read,
    PageWrite,
    DeltaWrite,
    ScrubWrite,
    Fsync,
    TempWrite,
    TempFsync,
}

/// Domain-separation constants, indexed by [`Class`].
const DOMAIN: [u64; 7] = [
    0,
    0x7f4a_7c15_9e37_79b9,
    0xbf58_476d_1ce4_e5b9,
    0x94d0_49bb_e5b9_1ce4,
    0x1331_11eb_94d0_49bb,
    0x1ce4_e5b9_bf58_476d,
    0x49bb_94d0_11eb_1331,
];

/// One class's schedule: it fires on one in `one_in` draws (`0`: never)
/// and sleeps for `stall` when it does.
#[derive(Debug, Default)]
struct Stream {
    one_in: u64,
    stall: Duration,
    ordinal: AtomicU64,
}

/// The decision [`FaultPlan::on_page_write`] draws for one page write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageWriteFault {
    /// The write goes through intact.
    None,
    /// The write is torn: only a prefix of the page reaches the disk,
    /// silently (the writer sees success — exactly the failure mode a
    /// checksummed page header exists to catch at read/recovery time).
    Torn,
}

impl FaultPlan {
    /// A quiescent plan: no faults until armed with the builders.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            streams: Default::default(),
            read_errors: 0,
            panic_at: None,
        }
    }

    fn arm(mut self, class: Class, one_in: u64, stall: Duration) -> FaultPlan {
        let stream = &mut self.streams[class as usize];
        (stream.one_in, stream.stall) = (one_in, stall);
        self
    }

    /// Arms injected read errors at a rate of one in `one_in` page
    /// reads (deterministically chosen by the seed; `0` disables).
    pub fn with_read_errors(mut self, one_in: u64) -> FaultPlan {
        self.read_errors = one_in;
        self
    }

    /// Arms latency stalls of `stall` at a rate of one in `one_in`
    /// page reads (`0` disables).
    pub fn with_stalls(self, one_in: u64, stall: Duration) -> FaultPlan {
        self.arm(Class::Read, one_in, stall)
    }

    /// Arms a process-local panic on exactly the `ordinal`-th page read
    /// (0-based). Used by the chaos harness to kill one worker
    /// mid-query and prove the pool self-heals.
    pub fn with_panic_at(mut self, ordinal: u64) -> FaultPlan {
        self.panic_at = Some(ordinal);
        self
    }

    /// Arms torn page writes at a rate of one in `one_in` page writes
    /// (`0` disables). A torn write persists only a prefix of the page;
    /// the writer is not told — detection is the checksum's job at the
    /// next read or recovery.
    pub fn with_torn_page_writes(self, one_in: u64) -> FaultPlan {
        self.arm(Class::PageWrite, one_in, Duration::ZERO)
    }

    /// Arms torn *delta* writes at a rate of one in `one_in` dirty-page
    /// write-backs (`0` disables): mutation write-backs and checkpoint
    /// flushes.
    pub fn with_torn_delta_writes(self, one_in: u64) -> FaultPlan {
        self.arm(Class::DeltaWrite, one_in, Duration::ZERO)
    }

    /// Arms torn *scrub* writes at a rate of one in `one_in` checkpoint
    /// scrub rewrites (`0` disables): the checkpoint's heal-from-WAL
    /// pass.
    pub fn with_torn_scrub_writes(self, one_in: u64) -> FaultPlan {
        self.arm(Class::ScrubWrite, one_in, Duration::ZERO)
    }

    /// Arms slow fsyncs: one in `one_in` fsync calls stalls for
    /// `stall` before completing (`0` disables). Models a device whose
    /// write cache periodically drains under group commit.
    pub fn with_slow_fsync(self, one_in: u64, stall: Duration) -> FaultPlan {
        self.arm(Class::Fsync, one_in, stall)
    }

    /// Arms torn *temp* writes at a rate of one in `one_in` spill-frame
    /// writes (`0` disables): partition frames spilling operators flush
    /// through [`crate::TempStore`].
    pub fn with_torn_temp_writes(self, one_in: u64) -> FaultPlan {
        self.arm(Class::TempWrite, one_in, Duration::ZERO)
    }

    /// Arms slow temp fsyncs: one in `one_in` spill-file seals stalls
    /// for `stall` before completing (`0` disables).
    pub fn with_slow_temp_fsync(self, one_in: u64, stall: Duration) -> FaultPlan {
        self.arm(Class::TempFsync, one_in, stall)
    }

    /// Draws of `class` so far.
    fn count(&self, class: Class) -> u64 {
        self.streams[class as usize].ordinal.load(Relaxed)
    }

    /// Page-read events drawn so far.
    pub fn events(&self) -> u64 {
        self.count(Class::Read)
    }

    /// Temp-write events drawn so far.
    pub fn temp_write_events(&self) -> u64 {
        self.count(Class::TempWrite)
    }

    /// Temp-fsync events drawn so far.
    pub fn temp_fsync_events(&self) -> u64 {
        self.count(Class::TempFsync)
    }

    /// Advances `class`'s ordinal: the ordinal drawn and its word.
    fn next(&self, class: Class) -> (u64, u64) {
        let n = self.streams[class as usize].ordinal.fetch_add(1, Relaxed);
        let mixed = self.seed ^ DOMAIN[class as usize] ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (n, splitmix64(mixed))
    }

    /// Whether `class` fires on draw `word`, after sleeping for the
    /// class's stall if so.
    fn fire(&self, class: Class, word: u64) -> bool {
        let Stream { one_in, stall, .. } = &self.streams[class as usize];
        let fired = *one_in > 0 && word.is_multiple_of(*one_in);
        if fired {
            std::thread::sleep(*stall);
        }
        fired
    }

    /// Draws the next decision of `class`.
    fn fires(&self, class: Class) -> bool {
        let (_, word) = self.next(class);
        self.fire(class, word)
    }

    fn torn(&self, class: Class) -> PageWriteFault {
        if self.fires(class) {
            PageWriteFault::Torn
        } else {
            PageWriteFault::None
        }
    }

    /// Draws the next fault decision. Called once per accounted page
    /// read on the fault-aware access paths.
    ///
    /// Ordering of effects: an armed panic fires first (it models a
    /// crash, which preempts everything), then a stall (I/O that is
    /// slow *and then* fails is the nastier case, so a stall draw does
    /// not shadow an error draw), then the error decision.
    pub fn on_page_read(&self) -> Result<(), StorageError> {
        let (n, word) = self.next(Class::Read);
        if self.panic_at == Some(n) {
            panic!("fault plan: induced panic at page read {n}");
        }
        self.fire(Class::Read, word);
        // An independent second draw so stall and error rates don't
        // correlate on the same ordinals.
        if self.read_errors > 0 && splitmix64(word).is_multiple_of(self.read_errors) {
            return Err(StorageError::InjectedFault { ordinal: n });
        }
        Ok(())
    }

    /// Draws the next write-path fault decision. Called once per page
    /// write by the disk-backed page store.
    pub fn on_page_write(&self) -> PageWriteFault {
        self.torn(Class::PageWrite)
    }

    /// Draws the next *delta*-write fault decision. Called once per
    /// dirty-page write-back (mutation flush, eviction write-back, and
    /// checkpoint dirty flush) by the disk-backed page store.
    pub fn on_delta_write(&self) -> PageWriteFault {
        self.torn(Class::DeltaWrite)
    }

    /// Draws the next *scrub*-write fault decision. Called once per
    /// checkpoint scrub rewrite (healing a torn on-disk record from its
    /// logged WAL bytes).
    pub fn on_scrub_write(&self) -> PageWriteFault {
        self.torn(Class::ScrubWrite)
    }

    /// Draws the next fsync fault decision, sleeping for the configured
    /// stall when it fires. Called once per physical `fsync` by the
    /// WAL's group-commit path. Returns `true` iff this fsync stalled
    /// (so callers can count slow fsyncs if they care).
    pub fn on_fsync(&self) -> bool {
        self.fires(Class::Fsync)
    }

    /// Draws the next *temp*-write fault decision. Called once per
    /// spill frame flushed by [`crate::TempStore`].
    pub fn on_temp_write(&self) -> PageWriteFault {
        self.torn(Class::TempWrite)
    }

    /// Draws the next temp-fsync fault decision, sleeping for the
    /// configured stall when it fires. Called once per spill-file seal
    /// by [`crate::TempStore`]. Returns `true` iff this seal stalled.
    pub fn on_temp_fsync(&self) -> bool {
        self.fires(Class::TempFsync)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-class counters only these tests read.
    trait Counters {
        fn write_events(&self) -> u64;
        fn delta_events(&self) -> u64;
        fn scrub_events(&self) -> u64;
        fn fsync_events(&self) -> u64;
    }

    impl Counters for FaultPlan {
        fn write_events(&self) -> u64 {
            self.count(Class::PageWrite)
        }
        fn delta_events(&self) -> u64 {
            self.count(Class::DeltaWrite)
        }
        fn scrub_events(&self) -> u64 {
            self.count(Class::ScrubWrite)
        }
        fn fsync_events(&self) -> u64 {
            self.count(Class::Fsync)
        }
    }

    fn fault_ordinals(plan: &FaultPlan, draws: u64) -> Vec<u64> {
        (0..draws)
            .filter_map(|_| match plan.on_page_read() {
                Ok(()) => None,
                Err(StorageError::InjectedFault { ordinal }) => Some(ordinal),
                Err(other) => panic!("unexpected error {other}"),
            })
            .collect()
    }

    #[test]
    fn quiescent_plan_never_faults() {
        let plan = FaultPlan::new(42);
        for _ in 0..10_000 {
            plan.on_page_read().unwrap();
        }
        assert_eq!(plan.events(), 10_000);
    }

    #[test]
    fn same_seed_same_fault_schedule() {
        let a = FaultPlan::new(7).with_read_errors(50);
        let b = FaultPlan::new(7).with_read_errors(50);
        let fa = fault_ordinals(&a, 5_000);
        let fb = fault_ordinals(&b, 5_000);
        assert_eq!(fa, fb);
        assert!(!fa.is_empty(), "1-in-50 over 5000 draws must fire");
        // Roughly the configured rate (loose bounds; it's a hash, not
        // a Bernoulli sampler).
        assert!(fa.len() > 20 && fa.len() < 400, "got {}", fa.len());
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::new(1).with_read_errors(20);
        let b = FaultPlan::new(2).with_read_errors(20);
        assert_ne!(fault_ordinals(&a, 2_000), fault_ordinals(&b, 2_000));
    }

    #[test]
    fn panic_fires_at_exact_ordinal() {
        let plan = FaultPlan::new(0).with_panic_at(3);
        for _ in 0..3 {
            plan.on_page_read().unwrap();
        }
        let err = std::panic::catch_unwind(|| plan.on_page_read()).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("page read 3"), "got {msg:?}");
    }

    #[test]
    fn stall_delays_but_succeeds() {
        let plan = FaultPlan::new(9).with_stalls(1, Duration::from_millis(5));
        let t0 = std::time::Instant::now();
        plan.on_page_read().unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(5));
    }

    fn torn_ordinals(plan: &FaultPlan, draws: u64) -> Vec<u64> {
        (0..draws)
            .filter(|_| plan.on_page_write() == PageWriteFault::Torn)
            .collect()
    }

    #[test]
    fn quiescent_plan_never_tears_writes() {
        let plan = FaultPlan::new(3);
        for _ in 0..5_000 {
            assert_eq!(plan.on_page_write(), PageWriteFault::None);
            assert!(!plan.on_fsync());
        }
        assert_eq!(plan.write_events(), 5_000);
        assert_eq!(plan.fsync_events(), 5_000);
    }

    #[test]
    fn same_seed_same_torn_write_schedule() {
        let a = FaultPlan::new(11).with_torn_page_writes(40);
        let b = FaultPlan::new(11).with_torn_page_writes(40);
        let ta = torn_ordinals(&a, 4_000);
        let tb = torn_ordinals(&b, 4_000);
        assert_eq!(ta, tb);
        assert!(!ta.is_empty(), "1-in-40 over 4000 draws must fire");
        assert!(ta.len() < 500, "got {}", ta.len());
    }

    #[test]
    fn write_draws_do_not_shift_read_schedule() {
        // Same seed, same read rate; one plan also draws write, delta,
        // scrub, and fsync decisions interleaved. Read fault ordinals
        // must be identical: the classes live on independent counters.
        let quiet = FaultPlan::new(21).with_read_errors(30);
        let noisy = FaultPlan::new(21)
            .with_read_errors(30)
            .with_torn_page_writes(5)
            .with_torn_delta_writes(3)
            .with_torn_scrub_writes(4)
            .with_slow_fsync(0, Duration::ZERO);
        let expected = fault_ordinals(&quiet, 2_000);
        let got: Vec<u64> = (0..2_000u64)
            .filter_map(|_| {
                noisy.on_page_write();
                noisy.on_delta_write();
                noisy.on_scrub_write();
                let r = match noisy.on_page_read() {
                    Ok(()) => None,
                    Err(StorageError::InjectedFault { ordinal }) => Some(ordinal),
                    Err(other) => panic!("unexpected error {other}"),
                };
                noisy.on_fsync();
                r
            })
            .collect();
        assert_eq!(expected, got);
    }

    #[test]
    fn delta_draws_do_not_shift_load_write_schedule() {
        // Arming the new delta and scrub classes must leave the
        // load-path torn-write schedule untouched, and vice versa: the
        // delta schedule is identical whether or not load writes are
        // interleaved and armed.
        let quiet = FaultPlan::new(33).with_torn_page_writes(7);
        let noisy = FaultPlan::new(33)
            .with_torn_page_writes(7)
            .with_torn_delta_writes(3)
            .with_torn_scrub_writes(5);
        let expected = torn_ordinals(&quiet, 3_000);
        let got: Vec<u64> = (0..3_000u64)
            .filter(|_| {
                noisy.on_delta_write();
                noisy.on_scrub_write();
                noisy.on_page_write() == PageWriteFault::Torn
            })
            .collect();
        assert_eq!(expected, got);

        let solo = FaultPlan::new(33).with_torn_delta_writes(3);
        let mixed = FaultPlan::new(33)
            .with_torn_delta_writes(3)
            .with_torn_page_writes(2)
            .with_torn_scrub_writes(2);
        let solo_deltas: Vec<bool> = (0..3_000)
            .map(|_| solo.on_delta_write() == PageWriteFault::Torn)
            .collect();
        let mixed_deltas: Vec<bool> = (0..3_000)
            .map(|_| {
                mixed.on_page_write();
                mixed.on_scrub_write();
                mixed.on_delta_write() == PageWriteFault::Torn
            })
            .collect();
        assert_eq!(solo_deltas, mixed_deltas);
        assert!(solo_deltas.iter().any(|&t| t), "1-in-3 must fire");
    }

    #[test]
    fn delta_and_scrub_schedules_differ_from_each_other() {
        // Same seed, same rate: the domain constants must still
        // separate the two streams.
        let plan = FaultPlan::new(55)
            .with_torn_delta_writes(4)
            .with_torn_scrub_writes(4);
        let deltas: Vec<bool> = (0..2_000)
            .map(|_| plan.on_delta_write() == PageWriteFault::Torn)
            .collect();
        let scrubs: Vec<bool> = (0..2_000)
            .map(|_| plan.on_scrub_write() == PageWriteFault::Torn)
            .collect();
        assert_ne!(deltas, scrubs);
    }

    #[test]
    fn temp_write_schedule_independent_and_distinct() {
        // Arming the temp classes must leave every existing schedule
        // untouched, and the temp stream must not mirror the load-path
        // write stream at the same seed and rate.
        let solo = FaultPlan::new(91).with_torn_temp_writes(6);
        let mixed = FaultPlan::new(91)
            .with_torn_temp_writes(6)
            .with_torn_page_writes(2)
            .with_torn_delta_writes(2)
            .with_torn_scrub_writes(2)
            .with_slow_fsync(2, Duration::ZERO);
        let solo_temps: Vec<bool> = (0..3_000)
            .map(|_| solo.on_temp_write() == PageWriteFault::Torn)
            .collect();
        let mixed_temps: Vec<bool> = (0..3_000)
            .map(|_| {
                mixed.on_page_write();
                mixed.on_delta_write();
                mixed.on_scrub_write();
                mixed.on_fsync();
                mixed.on_temp_write() == PageWriteFault::Torn
            })
            .collect();
        assert_eq!(solo_temps, mixed_temps);
        assert!(solo_temps.iter().any(|&t| t), "1-in-6 must fire");

        let both = FaultPlan::new(91)
            .with_torn_temp_writes(6)
            .with_torn_page_writes(6);
        let temps: Vec<bool> = (0..2_000)
            .map(|_| both.on_temp_write() == PageWriteFault::Torn)
            .collect();
        let pages: Vec<bool> = (0..2_000)
            .map(|_| both.on_page_write() == PageWriteFault::Torn)
            .collect();
        assert_ne!(temps, pages);
    }

    #[test]
    fn slow_temp_fsync_stalls_when_drawn() {
        let plan = FaultPlan::new(5).with_slow_temp_fsync(1, Duration::from_millis(5));
        let t0 = std::time::Instant::now();
        assert!(plan.on_temp_fsync());
        assert!(t0.elapsed() >= Duration::from_millis(5));
        assert_eq!(plan.temp_fsync_events(), 1);
    }

    #[test]
    fn slow_fsync_stalls_when_drawn() {
        let plan = FaultPlan::new(5).with_slow_fsync(1, Duration::from_millis(5));
        let t0 = std::time::Instant::now();
        assert!(plan.on_fsync());
        assert!(t0.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn fsync_schedule_reproducible_from_seed() {
        let a = FaultPlan::new(77).with_slow_fsync(25, Duration::ZERO);
        let b = FaultPlan::new(77).with_slow_fsync(25, Duration::ZERO);
        let sa: Vec<bool> = (0..2_000).map(|_| a.on_fsync()).collect();
        let sb: Vec<bool> = (0..2_000).map(|_| b.on_fsync()).collect();
        assert_eq!(sa, sb);
        assert!(sa.iter().any(|&s| s), "1-in-25 over 2000 draws must fire");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Satellite 1: fault schedules — read errors, torn writes,
            /// and slow fsyncs together — are a pure function of the
            /// seed. Two plans built from the same seed and rates agree
            /// on every draw of every class.
            #[test]
            fn fault_schedules_reproducible_from_seed(
                seed in 0u64..u64::MAX,
                read_one_in in 0u64..64,
                torn_one_in in 0u64..64,
                delta_one_in in 0u64..64,
                scrub_one_in in 0u64..64,
                fsync_one_in in 0u64..64,
                temp_one_in in 0u64..64,
                temp_fsync_one_in in 0u64..64,
                draws in 1u64..512,
            ) {
                let build = || {
                    FaultPlan::new(seed)
                        .with_read_errors(read_one_in)
                        .with_torn_page_writes(torn_one_in)
                        .with_torn_delta_writes(delta_one_in)
                        .with_torn_scrub_writes(scrub_one_in)
                        .with_slow_fsync(fsync_one_in, Duration::ZERO)
                        .with_torn_temp_writes(temp_one_in)
                        .with_slow_temp_fsync(temp_fsync_one_in, Duration::ZERO)
                };
                let (a, b) = (build(), build());
                for _ in 0..draws {
                    prop_assert_eq!(
                        a.on_page_read().is_err(),
                        b.on_page_read().is_err()
                    );
                    prop_assert_eq!(a.on_page_write(), b.on_page_write());
                    prop_assert_eq!(a.on_delta_write(), b.on_delta_write());
                    prop_assert_eq!(a.on_scrub_write(), b.on_scrub_write());
                    prop_assert_eq!(a.on_fsync(), b.on_fsync());
                    prop_assert_eq!(a.on_temp_write(), b.on_temp_write());
                    prop_assert_eq!(a.on_temp_fsync(), b.on_temp_fsync());
                }
                prop_assert_eq!(a.events(), draws);
                prop_assert_eq!(a.write_events(), draws);
                prop_assert_eq!(a.delta_events(), draws);
                prop_assert_eq!(a.scrub_events(), draws);
                prop_assert_eq!(a.fsync_events(), draws);
                prop_assert_eq!(a.temp_write_events(), draws);
                prop_assert_eq!(a.temp_fsync_events(), draws);
            }

            /// Arming any subset of the five fault classes never shifts
            /// the schedule of a class outside the subset: each class is
            /// a pure function of (seed, own ordinal).
            #[test]
            fn arming_one_class_never_shifts_another(
                seed in 0u64..u64::MAX,
                torn_one_in in 1u64..32,
                delta_one_in in 1u64..32,
                scrub_one_in in 1u64..32,
                draws in 1u64..256,
            ) {
                let solo = FaultPlan::new(seed).with_torn_delta_writes(delta_one_in);
                let all = FaultPlan::new(seed)
                    .with_read_errors(11)
                    .with_torn_page_writes(torn_one_in)
                    .with_torn_delta_writes(delta_one_in)
                    .with_torn_scrub_writes(scrub_one_in)
                    .with_slow_fsync(13, Duration::ZERO)
                    .with_torn_temp_writes(torn_one_in)
                    .with_slow_temp_fsync(17, Duration::ZERO);
                for _ in 0..draws {
                    let _ = all.on_page_read();
                    all.on_page_write();
                    all.on_scrub_write();
                    all.on_fsync();
                    all.on_temp_write();
                    all.on_temp_fsync();
                    prop_assert_eq!(solo.on_delta_write(), all.on_delta_write());
                }

                // And the temp stream itself is unshifted by every
                // other class drawing around it.
                let solo_temp = FaultPlan::new(seed).with_torn_temp_writes(torn_one_in);
                let noisy = FaultPlan::new(seed)
                    .with_read_errors(7)
                    .with_torn_page_writes(torn_one_in)
                    .with_torn_delta_writes(delta_one_in)
                    .with_torn_scrub_writes(scrub_one_in)
                    .with_slow_fsync(9, Duration::ZERO)
                    .with_torn_temp_writes(torn_one_in)
                    .with_slow_temp_fsync(11, Duration::ZERO);
                for _ in 0..draws {
                    let _ = noisy.on_page_read();
                    noisy.on_page_write();
                    noisy.on_delta_write();
                    noisy.on_scrub_write();
                    noisy.on_fsync();
                    noisy.on_temp_fsync();
                    prop_assert_eq!(solo_temp.on_temp_write(), noisy.on_temp_write());
                }
            }
        }
    }
}
