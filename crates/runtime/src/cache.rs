//! The plan cache: fingerprint → optimized plan, with hit/miss
//! accounting and insertion-order eviction.
//!
//! Keys come from [`fj_optimizer::fingerprint()`], which folds in the
//! catalog epoch *and* the data version of every relation the query
//! reads — a structural catalog change strands every old key, while a
//! data mutation (INSERT/UPDATE/DELETE) strands only the keys of plans
//! that read the mutated table; plans over other tables stay warm
//! across mutations. The service still calls [`PlanCache::clear`] on
//! full catalog installation to release the memory the dead entries
//! hold; mutations skip the clear on purpose.

use fj_optimizer::OptimizedPlan;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<u64, Arc<OptimizedPlan>>,
    /// Insertion order, oldest first (the eviction queue).
    order: VecDeque<u64>,
}

/// Cache hit/miss counters, as reported by [`PlanCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a plan.
    pub hits: u64,
    /// Lookups that found nothing (the caller then optimizes).
    pub misses: u64,
    /// Plans currently cached.
    pub entries: usize,
}

impl CacheStats {
    /// Hits over total lookups; 0 when never consulted.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A bounded fingerprint-keyed plan cache; see the module docs.
#[derive(Debug)]
pub struct PlanCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (clamped to ≥1).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            inner: Mutex::new(Inner::default()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up `fingerprint`, counting a hit or miss.
    pub fn get(&self, fingerprint: u64) -> Option<Arc<OptimizedPlan>> {
        let found = self.lock().map.get(&fingerprint).cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Stores a plan, evicting the oldest entry when at capacity.
    /// Concurrent double-optimization of the same query is benign: the
    /// second insert just replaces an identical plan.
    pub fn insert(&self, fingerprint: u64, plan: Arc<OptimizedPlan>) {
        let mut inner = self.lock();
        if inner.map.insert(fingerprint, plan).is_none() {
            inner.order.push_back(fingerprint);
        }
        while inner.map.len() > self.capacity {
            match inner.order.pop_front() {
                Some(oldest) => {
                    inner.map.remove(&oldest);
                }
                None => break,
            }
        }
    }

    /// Empties the cache (counters are kept — they describe the
    /// service's lifetime, not one catalog generation).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.map.clear();
        inner.order.clear();
    }

    /// Current counters and size.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.lock().map.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_exec::PhysPlan;
    use fj_storage::Schema;

    fn plan(cost: f64) -> Arc<OptimizedPlan> {
        Arc::new(OptimizedPlan {
            phys: PhysPlan::Values {
                schema: Schema::empty().into_ref(),
                rows: Vec::new(),
            },
            cost,
            est_rows: 0.0,
            order: Vec::new(),
            sips: Vec::new(),
            filter_join_costs: Vec::new(),
            plans_considered: 0,
            nested_invocations: 0,
            est: fj_optimizer::EstNode {
                est_rows: 0.0,
                est_pages: 0.0,
                children: Vec::new(),
            },
        })
    }

    #[test]
    fn hit_and_miss_accounting() {
        let c = PlanCache::new(8);
        assert!(c.get(1).is_none());
        c.insert(1, plan(10.0));
        assert_eq!(c.get(1).unwrap().cost, 10.0);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn eviction_is_oldest_first() {
        let c = PlanCache::new(2);
        c.insert(1, plan(1.0));
        c.insert(2, plan(2.0));
        c.insert(3, plan(3.0));
        assert!(c.get(1).is_none(), "oldest evicted");
        assert!(c.get(2).is_some());
        assert!(c.get(3).is_some());
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let c = PlanCache::new(4);
        c.insert(1, plan(1.0));
        c.get(1);
        c.clear();
        assert!(c.get(1).is_none());
        let s = c.stats();
        assert_eq!(s.entries, 0);
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn reinsert_does_not_duplicate_eviction_slot() {
        let c = PlanCache::new(2);
        c.insert(1, plan(1.0));
        c.insert(1, plan(1.5));
        c.insert(2, plan(2.0));
        assert_eq!(c.get(1).unwrap().cost, 1.5);
        assert!(c.get(2).is_some());
    }
}
