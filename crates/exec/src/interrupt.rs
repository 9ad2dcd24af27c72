//! Cooperative query interruption.
//!
//! An [`Interrupt`] is a cheap shared handle (one atomic byte) that any
//! holder — the runtime's [`Ticket`](../../fj_runtime), a deadline
//! watcher, or the governor's own budget accounting — can *trip* with a
//! typed [`InterruptReason`]. Operators poll it at bounded intervals
//! ([`INTERRUPT_CHECK_INTERVAL`] tuples inside hot loops, plus once per
//! plan node), so a running query stops within a bounded number of
//! tuple operations of the signal and surfaces
//! [`ExecError::Interrupted`](crate::ExecError) instead of burning a
//! worker to completion.
//!
//! The first trip wins: once a reason is recorded, later trips are
//! no-ops, so a query that blows its memory budget in the same instant
//! it is cancelled reports exactly one reason.

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

/// How often operator hot loops poll the interrupt flag, in tuples.
///
/// A power of two so the check compiles to a mask test. At 1024 tuples
/// per poll the governor adds one relaxed atomic load per ~1k tuple
/// operations — well under the 3% overhead budget on the throughput
/// experiment (the load is uncontended and stays in cache).
pub const INTERRUPT_CHECK_INTERVAL: usize = 1024;

/// Why a query was interrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterruptReason {
    /// A deadline attached to the query expired.
    Deadline,
    /// The client (or operator) explicitly cancelled the query.
    Cancelled,
    /// The query materialized more pages than its memory budget.
    MemoryBudget,
}

impl InterruptReason {
    fn from_u8(v: u8) -> Option<InterruptReason> {
        match v {
            1 => Some(InterruptReason::Deadline),
            2 => Some(InterruptReason::Cancelled),
            3 => Some(InterruptReason::MemoryBudget),
            _ => None,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            InterruptReason::Deadline => 1,
            InterruptReason::Cancelled => 2,
            InterruptReason::MemoryBudget => 3,
        }
    }
}

impl fmt::Display for InterruptReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterruptReason::Deadline => write!(f, "deadline expired"),
            InterruptReason::Cancelled => write!(f, "cancelled"),
            InterruptReason::MemoryBudget => write!(f, "memory budget exceeded"),
        }
    }
}

/// A shared, clonable interrupt flag. `0` means "not tripped"; any
/// other value encodes the winning [`InterruptReason`].
#[derive(Debug, Clone, Default)]
pub struct Interrupt {
    flag: Arc<AtomicU8>,
}

impl Interrupt {
    /// A fresh, untripped handle.
    pub fn new() -> Interrupt {
        Interrupt::default()
    }

    /// Trips the flag with `reason`. Returns `true` if this call won
    /// the race (the flag was untripped); `false` if a reason was
    /// already recorded (the existing reason is kept).
    pub fn trip(&self, reason: InterruptReason) -> bool {
        self.flag
            .compare_exchange(0, reason.as_u8(), Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// The recorded reason, if tripped.
    pub fn tripped(&self) -> Option<InterruptReason> {
        InterruptReason::from_u8(self.flag.load(Ordering::Acquire))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_trip_wins() {
        let i = Interrupt::new();
        assert_eq!(i.tripped(), None);
        assert!(i.trip(InterruptReason::Cancelled));
        assert!(!i.trip(InterruptReason::Deadline));
        assert_eq!(i.tripped(), Some(InterruptReason::Cancelled));
    }

    #[test]
    fn clones_share_the_flag() {
        let i = Interrupt::new();
        let j = i.clone();
        i.trip(InterruptReason::MemoryBudget);
        assert_eq!(j.tripped(), Some(InterruptReason::MemoryBudget));
    }

    #[test]
    fn reasons_round_trip_and_display() {
        for r in [
            InterruptReason::Deadline,
            InterruptReason::Cancelled,
            InterruptReason::MemoryBudget,
        ] {
            assert_eq!(InterruptReason::from_u8(r.as_u8()), Some(r));
            assert!(!r.to_string().is_empty());
        }
        assert_eq!(InterruptReason::from_u8(0), None);
        assert_eq!(InterruptReason::from_u8(9), None);
    }

    #[test]
    fn check_interval_is_a_power_of_two() {
        assert!(INTERRUPT_CHECK_INTERVAL.is_power_of_two());
    }
}
