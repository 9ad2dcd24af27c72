//! Pins the fault schedule of every `FaultPlan` class: which of the
//! first 256 draws fire under two seeds, and, for page reads, that an
//! armed panic preempts a stall and a stall does not shadow an error.
//!
//! A mismatch means a seeded chaos run no longer replays the faults it
//! used to. The failure prints the ordinals that fired now.

use fj_storage::{FaultPlan, PageWriteFault, StorageError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

const DRAWS: u64 = 256;
const SEEDS: [u64; 2] = [1, 0x5eed_f00d];
/// Every class is armed at one in seven.
const ONE_IN: u64 = 7;
/// Read stalls are armed at one in 32...
const STALL_ONE_IN: u64 = 32;
/// ...and last long enough to tell from a scheduling hiccup.
const STALL: Duration = Duration::from_millis(40);

/// The ordinals among the first [`DRAWS`] for which `fired` is true.
fn fired(mut fired: impl FnMut() -> bool) -> Vec<u64> {
    (0..DRAWS).filter(|_| fired()).collect()
}

fn torn(fault: PageWriteFault) -> bool {
    fault == PageWriteFault::Torn
}

/// `(class, seed) -> fired ordinals` for every class that reports its
/// decision without sleeping.
fn schedules() -> Vec<(&'static str, u64, Vec<u64>)> {
    let mut out = Vec::new();
    for seed in SEEDS {
        let plan = || FaultPlan::new(seed);
        let p = plan().with_read_errors(ONE_IN);
        out.push(("read", seed, fired(|| p.on_page_read().is_err())));
        let p = plan().with_torn_page_writes(ONE_IN);
        out.push(("write", seed, fired(|| torn(p.on_page_write()))));
        let p = plan().with_torn_delta_writes(ONE_IN);
        out.push(("delta", seed, fired(|| torn(p.on_delta_write()))));
        let p = plan().with_torn_scrub_writes(ONE_IN);
        out.push(("scrub", seed, fired(|| torn(p.on_scrub_write()))));
        let p = plan().with_slow_fsync(ONE_IN, Duration::ZERO);
        out.push(("fsync", seed, fired(|| p.on_fsync())));
        let p = plan().with_torn_temp_writes(ONE_IN);
        out.push(("temp_write", seed, fired(|| torn(p.on_temp_write()))));
        let p = plan().with_slow_temp_fsync(ONE_IN, Duration::ZERO);
        out.push(("temp_fsync", seed, fired(|| p.on_temp_fsync())));
    }
    out
}

#[rustfmt::skip]
const PINNED: &[(&str, u64, &[u64])] = &[
    ("read", 0x1, &[0, 4, 6, 8, 16, 22, 45, 66, 74, 86, 102, 108, 111, 124, 125, 130, 131, 136, 146, 148, 156, 168, 173, 178, 195, 198, 199, 215, 226, 231, 251]),
    ("write", 0x1, &[13, 14, 20, 25, 26, 39, 40, 50, 55, 62, 64, 66, 89, 91, 98, 105, 106, 109, 115, 117, 125, 126, 137, 139, 140, 146, 148, 149, 151, 159, 180, 213, 214, 221, 227, 230, 232, 234, 242]),
    ("delta", 0x1, &[0, 27, 29, 37, 40, 45, 51, 59, 63, 99, 101, 107, 113, 119, 122, 124, 143, 145, 146, 151, 154, 167, 172, 175, 180, 181, 188, 189, 190, 191, 200, 201, 205, 210, 223, 224, 226, 238, 240]),
    ("scrub", 0x1, &[10, 15, 17, 21, 32, 34, 42, 47, 54, 56, 57, 59, 62, 67, 74, 84, 85, 87, 88, 102, 104, 105, 125, 126, 130, 134, 139, 143, 155, 161, 166, 172, 174, 176, 192, 196, 197, 203, 224, 231, 244, 245, 254]),
    ("fsync", 0x1, &[0, 16, 18, 20, 31, 44, 63, 69, 71, 78, 80, 82, 93, 104, 119, 123, 124, 127, 138, 142, 154, 158, 170, 176, 184, 185, 202, 223, 248, 254, 255]),
    ("temp_write", 0x1, &[1, 9, 12, 19, 55, 64, 72, 93, 110, 122, 131, 136, 143, 151, 154, 159, 175, 186, 188, 200, 244, 250, 251]),
    ("temp_fsync", 0x1, &[2, 6, 12, 16, 22, 24, 26, 34, 45, 50, 75, 80, 85, 90, 92, 94, 108, 109, 111, 112, 117, 125, 127, 128, 129, 132, 138, 148, 159, 161, 165, 167, 168, 171, 175, 190, 195, 196, 202, 204, 205, 215, 224, 226, 240, 245, 246, 249, 250]),
    ("read", 0x5eedf00d, &[5, 15, 27, 28, 39, 47, 55, 75, 79, 92, 98, 100, 104, 109, 116, 118, 122, 134, 135, 138, 144, 146, 150, 151, 152, 157, 163, 181, 183, 197, 199, 208, 214, 226, 228]),
    ("write", 0x5eedf00d, &[3, 9, 23, 27, 29, 30, 31, 47, 50, 51, 60, 65, 77, 81, 85, 88, 98, 102, 115, 120, 124, 135, 137, 162, 165, 169, 171, 176, 184, 185, 201, 217, 221, 222, 230, 232, 235, 246, 248]),
    ("delta", 0x5eedf00d, &[15, 21, 35, 42, 50, 76, 80, 86, 88, 89, 94, 95, 106, 119, 126, 135, 145, 150, 152, 156, 162, 174, 206, 222, 224, 237, 248, 251]),
    ("scrub", 0x5eedf00d, &[5, 17, 19, 23, 29, 35, 40, 48, 55, 60, 64, 65, 69, 74, 83, 92, 93, 104, 109, 112, 139, 146, 147, 165, 169, 176, 179, 181, 183, 185, 188, 191, 207, 232, 239, 241, 245, 246]),
    ("fsync", 0x5eedf00d, &[9, 16, 24, 36, 45, 53, 64, 69, 73, 74, 88, 93, 94, 95, 96, 98, 107, 115, 117, 120, 121, 125, 128, 140, 142, 161, 164, 167, 186, 193, 202, 203, 204, 205, 206, 214, 216, 217, 222, 236, 247, 251]),
    ("temp_write", 0x5eedf00d, &[3, 4, 7, 12, 15, 16, 23, 25, 26, 31, 32, 36, 51, 56, 59, 63, 64, 68, 73, 89, 104, 119, 122, 128, 129, 130, 138, 142, 149, 152, 153, 161, 171, 174, 177, 183, 185, 220, 227, 231, 239, 243, 244, 249, 250, 255]),
    ("temp_fsync", 0x5eedf00d, &[8, 12, 19, 22, 33, 42, 56, 71, 78, 83, 95, 110, 117, 118, 121, 127, 135, 156, 175, 182, 183, 186, 202, 215, 226, 230, 241, 243, 249, 255]),
];

#[test]
fn every_class_fires_on_the_pinned_ordinals() {
    let now = schedules();
    let same = now.len() == PINNED.len()
        && now
            .iter()
            .zip(PINNED)
            .all(|((c, s, o), (pc, ps, po))| c == pc && s == ps && o.as_slice() == *po);
    if !same {
        let rows: Vec<String> = now
            .iter()
            .map(|(c, s, o)| format!("    ({c:?}, {s:#x}, &{o:?}),"))
            .collect();
        panic!("fault schedule moved; now:\n{}", rows.join("\n"));
    }
}

/// Read stalls at one in 32 and errors at one in 7, per seed.
#[rustfmt::skip]
const PINNED_READ_STALLS: &[(u64, &[u64])] = &[
    (0x1, &[12, 99, 171, 219, 234, 240]),
    (0x5eedf00d, &[14, 48, 55, 68, 74, 90, 126, 140, 198, 200, 248]),
];

#[test]
fn read_stalls_fire_on_the_pinned_ordinals_and_never_shadow_errors() {
    assert_eq!(PINNED_READ_STALLS.len(), SEEDS.len());
    let mut stalled_errors = 0;
    for (seed, stalls) in PINNED_READ_STALLS {
        let plan = FaultPlan::new(*seed)
            .with_stalls(STALL_ONE_IN, STALL)
            .with_read_errors(ONE_IN);
        let mut slow = Vec::new();
        let mut errors = Vec::new();
        for n in 0..DRAWS {
            let t0 = Instant::now();
            let r = plan.on_page_read();
            if t0.elapsed() >= STALL {
                slow.push(n);
            }
            match r {
                Ok(()) => {}
                Err(StorageError::InjectedFault { ordinal }) => errors.push(ordinal),
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        // A stall always takes its full duration, so every pinned stall
        // is slow; a descheduled thread can only add a stray slow draw.
        let missing: Vec<&u64> = stalls.iter().filter(|n| !slow.contains(n)).collect();
        let stray = slow.iter().filter(|n| !stalls.contains(n)).count();
        assert!(
            missing.is_empty() && stray <= 2,
            "seed {seed:#x}: read stalls moved; slow draws now {slow:?}"
        );
        // Arming stalls leaves the error schedule as pinned.
        assert_eq!(errors, read_errors(*seed), "seed {seed:#x}");
        stalled_errors += stalls.iter().filter(|n| errors.contains(n)).count();
    }
    assert!(stalled_errors > 0, "no read both stalled and failed");
}

/// The pinned read-error ordinals of `seed`.
fn read_errors(seed: u64) -> &'static [u64] {
    let row = PINNED.iter().find(|(c, s, _)| *c == "read" && *s == seed);
    row.map(|(_, _, o)| *o).unwrap()
}

/// Arms a panic at read `at` and draws up to it: the panic must fire
/// there, and the panicking read still counts.
fn panics_at(plan: FaultPlan, at: u64) {
    let plan = plan.with_panic_at(at);
    for n in 0..at {
        let r = catch_unwind(AssertUnwindSafe(|| plan.on_page_read()));
        assert!(r.is_ok(), "panicked early at read {n}");
    }
    let t0 = Instant::now();
    let r = catch_unwind(AssertUnwindSafe(|| plan.on_page_read()));
    assert!(r.is_err(), "no panic at read {at}");
    // The stall armed below is 10 s: a stall-first ordering is obvious.
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "stalled before panicking"
    );
    assert_eq!(plan.events(), at + 1);
}

#[test]
fn an_armed_panic_preempts_the_stall_and_the_error_on_its_ordinal() {
    for (seed, stalls) in PINNED_READ_STALLS {
        // The first of each, so no earlier draw stalls for 10 s.
        let stall = FaultPlan::new(*seed).with_stalls(STALL_ONE_IN, Duration::from_secs(10));
        panics_at(stall, stalls[0]);
        let errors = FaultPlan::new(*seed).with_read_errors(ONE_IN);
        panics_at(errors, read_errors(*seed)[0]);
    }
}
