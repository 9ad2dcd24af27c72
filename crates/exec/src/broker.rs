//! The memory broker: soft-watermark grant accounting above the hard
//! memory budget.
//!
//! The governor's `memory_budget_pages` is a kill-switch: crossing it
//! trips [`crate::InterruptReason::MemoryBudget`] and the query dies.
//! The broker sits *below* that line. Operators that are about to pin a
//! build side, sort input, or aggregation table ask it to reserve the
//! pages first; a denial — the service-wide soft watermark would be
//! crossed — is a signal to degrade to the spilling code path instead
//! of pinning the memory. Reservations are RAII ([`MemoryGrant`]
//! releases on drop), so a query that errors, cancels, or panics
//! mid-operator never strands its grant.
//!
//! The broker never blocks and never fails a query: every denial has a
//! disk-backed fallback. It converts "the service is over its memory
//! comfort line" into "some queries run slower", which is the entire
//! point of the memory-governance layer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Service-wide soft-watermark page accounting. Shared across all
/// concurrently executing queries of a service.
#[derive(Debug)]
pub struct MemoryBroker {
    soft_limit_pages: u64,
    in_use: AtomicU64,
    granted: AtomicU64,
    denied: AtomicU64,
}

impl MemoryBroker {
    /// A broker with `soft_limit_pages` of grantable memory (clamped to
    /// at least one page so a grant is always possible at idle).
    pub fn new(soft_limit_pages: u64) -> Arc<MemoryBroker> {
        Arc::new(MemoryBroker {
            soft_limit_pages: soft_limit_pages.max(1),
            in_use: AtomicU64::new(0),
            granted: AtomicU64::new(0),
            denied: AtomicU64::new(0),
        })
    }

    /// Tries to reserve `pages` against the soft watermark. `None`
    /// means the watermark would be crossed — the caller should spill.
    /// A zero-page reservation always succeeds (nothing to pin).
    pub fn try_reserve(self: &Arc<Self>, pages: u64) -> Option<MemoryGrant> {
        let mut current = self.in_use.load(Ordering::Relaxed);
        loop {
            if current.saturating_add(pages) > self.soft_limit_pages {
                self.denied.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            match self.in_use.compare_exchange_weak(
                current,
                current + pages,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.granted.fetch_add(1, Ordering::Relaxed);
                    return Some(MemoryGrant {
                        broker: Arc::clone(self),
                        pages,
                    });
                }
                Err(seen) => current = seen,
            }
        }
    }

    /// Pages currently reserved.
    pub fn in_use_pages(&self) -> u64 {
        self.in_use.load(Ordering::Relaxed)
    }

    /// Reservations granted so far.
    pub fn grants(&self) -> u64 {
        self.granted.load(Ordering::Relaxed)
    }

    /// Reservations denied so far (each denial is one spill signal).
    pub fn denials(&self) -> u64 {
        self.denied.load(Ordering::Relaxed)
    }
}

/// An RAII page reservation; releases its pages back on drop.
#[derive(Debug)]
pub struct MemoryGrant {
    broker: Arc<MemoryBroker>,
    pages: u64,
}

impl MemoryGrant {
    /// Pages held by this grant.
    pub fn pages(&self) -> u64 {
        self.pages
    }
}

impl Drop for MemoryGrant {
    fn drop(&mut self) {
        self.broker.in_use.fetch_sub(self.pages, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_until_watermark_then_denies() {
        let b = MemoryBroker::new(10);
        let g1 = b.try_reserve(6).unwrap();
        assert_eq!(b.in_use_pages(), 6);
        assert!(b.try_reserve(5).is_none());
        assert_eq!(b.denials(), 1);
        let g2 = b.try_reserve(4).unwrap();
        assert_eq!(b.in_use_pages(), 10);
        drop(g1);
        assert_eq!(b.in_use_pages(), 4);
        drop(g2);
        assert_eq!(b.in_use_pages(), 0);
        assert_eq!(b.grants(), 2);
    }

    #[test]
    fn zero_page_reservation_always_succeeds() {
        let b = MemoryBroker::new(1);
        let _g = b.try_reserve(1).unwrap();
        assert!(b.try_reserve(0).is_some());
    }

    #[test]
    fn watermark_clamped_to_one() {
        let b = MemoryBroker::new(0);
        let _one = b.try_reserve(1).unwrap();
        assert!(b.try_reserve(1).is_none());
    }

    #[test]
    fn concurrent_reserve_release_settles_to_zero() {
        let b = MemoryBroker::new(64);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let b = Arc::clone(&b);
                s.spawn(move || {
                    for _ in 0..1000 {
                        if let Some(g) = b.try_reserve(3) {
                            assert!(b.in_use_pages() <= 64);
                            drop(g);
                        }
                    }
                });
            }
        });
        assert_eq!(b.in_use_pages(), 0);
    }
}
