//! The buffer pool: fixed frames, clock eviction, pin counts.
//!
//! The pool is the boundary between *simulated* page charges (every
//! logical page an operator touches is charged to the
//! [`fj_storage::CostLedger`], hit or miss) and *physical* reads (only
//! a miss fetches from the page file). Diffing the two is the point of
//! the whole disk layer: the ledger models a bufferless System-R
//! device, the pool shows what a real memory hierarchy absorbs.
//!
//! Eviction is the classic clock (second-chance) policy: frames carry a
//! referenced bit set on every hit; the hand sweeps, clearing bits,
//! and evicts the first unreferenced, unpinned frame it meets. Pinned
//! frames are never evicted — a [`PoolGuard`] holds the pin until
//! dropped.

use crate::error::StoreError;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Key of one cached page: `(table_id, page_no)`.
pub type PageKey = (u32, u32);

/// Callback that persists a dirty frame: an eviction's victim before
/// its frame is reused, or every dirty frame at a checkpoint flush.
/// Installed by the store (it closes over the page file); the pool
/// itself stays I/O-free.
pub type WritebackFn = Arc<dyn Fn(PageKey, &[u8]) -> Result<(), StoreError> + Send + Sync>;

#[derive(Debug)]
struct Frame {
    key: Option<PageKey>,
    payload: Vec<u8>,
    pins: u32,
    referenced: bool,
    dirty: bool,
}

#[derive(Debug)]
struct PoolInner {
    frames: Vec<Frame>,
    map: HashMap<PageKey, usize>,
    hand: usize,
}

/// A fixed-capacity page cache with clock eviction and dirty-page
/// tracking (no-force: mutations dirty frames in memory; a checkpoint
/// flush or eviction pressure writes them back, both through one
/// write-back path, and a frame turns clean only after its bytes are
/// written).
pub struct BufferPool {
    capacity: usize,
    inner: Mutex<PoolInner>,
    writeback: Mutex<Option<WritebackFn>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    dirty_writebacks: AtomicU64,
}

impl fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

/// Counter snapshot for metrics and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Lookups served from a resident frame.
    pub hits: u64,
    /// Lookups that had to fetch from the page file.
    pub misses: u64,
    /// Resident pages displaced to make room.
    pub evictions: u64,
    /// Dirty victims persisted by eviction write-back.
    pub dirty_writebacks: u64,
}

impl BufferPool {
    /// A pool of `capacity` frames (clamped to at least 1).
    pub fn new(capacity: usize) -> BufferPool {
        let capacity = capacity.max(1);
        BufferPool {
            capacity,
            inner: Mutex::new(PoolInner {
                frames: Vec::new(),
                map: HashMap::new(),
                hand: 0,
            }),
            writeback: Mutex::new(None),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            dirty_writebacks: AtomicU64::new(0),
        }
    }

    /// Configured capacity in frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The frame table. A panic while it was held is recovered, not
    /// propagated: every frame update leaves the table consistent.
    fn frames(&self) -> MutexGuard<'_, PoolInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Pages currently resident.
    pub fn resident(&self) -> usize {
        self.frames().map.len()
    }

    /// Dirty pages currently resident (awaiting checkpoint flush or
    /// eviction write-back).
    pub fn dirty_pages(&self) -> usize {
        self.frames()
            .frames
            .iter()
            .filter(|f| f.key.is_some() && f.dirty)
            .count()
    }

    /// Installs the write-back callback. Without one, writing back a
    /// dirty frame is an error (the read-only regime of PR 6 never
    /// dirties frames, so it never trips this).
    pub fn set_writeback(&self, f: WritebackFn) {
        *self
            .writeback
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(f);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            dirty_writebacks: self.dirty_writebacks.load(Ordering::Relaxed),
        }
    }

    /// Looks up `key`, calling `fetch` on a miss to produce the page
    /// bytes (one physical read). Returns a pinned guard; the frame
    /// cannot be evicted until the guard drops.
    pub fn get<'a>(
        &'a self,
        key: PageKey,
        fetch: impl FnOnce() -> Result<Vec<u8>, StoreError>,
    ) -> Result<PoolGuard<'a>, StoreError> {
        let mut inner = self.frames();
        if let Some(&slot) = inner.map.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            let frame = &mut inner.frames[slot];
            frame.referenced = true;
            frame.pins += 1;
            return Ok(PoolGuard { pool: self, slot });
        }
        // Find the slot before reading: a pool with every frame pinned
        // fails without a physical read. Fetch while holding the pool
        // lock: I/O serializes, which keeps miss accounting
        // deterministic (no double-fetch races) at this engine's scale.
        let slot = self.free_slot(&mut inner)?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        let payload = fetch()?;
        self.evict_slot(&mut inner, slot)?;
        inner.frames[slot] = Frame {
            key: Some(key),
            payload,
            pins: 1,
            referenced: true,
            dirty: false,
        };
        inner.map.insert(key, slot);
        Ok(PoolGuard { pool: self, slot })
    }

    /// Inserts `key` without counting a hit or miss — the load path's
    /// write-through, so freshly loaded pages are warm exactly like a
    /// real engine's dirty pages.
    pub fn put(&self, key: PageKey, payload: Vec<u8>) -> Result<(), StoreError> {
        self.put_inner(key, payload, false)
    }

    /// Inserts `key` and marks the frame dirty: the new payload exists
    /// in the WAL (already committed) and in this frame, but not yet in
    /// the page file. A checkpoint flush or eviction write-back makes
    /// it physical; a later `put_dirty` re-dirties a flushed frame.
    /// Only call *after* the WAL commit fsync — the steal-committed-only
    /// rule that keeps every page the pool ever writes back
    /// durable-committed data.
    pub fn put_dirty(&self, key: PageKey, payload: Vec<u8>) -> Result<(), StoreError> {
        self.put_inner(key, payload, true)
    }

    fn put_inner(&self, key: PageKey, payload: Vec<u8>, dirty: bool) -> Result<(), StoreError> {
        let mut inner = self.frames();
        if let Some(&slot) = inner.map.get(&key) {
            inner.frames[slot].payload = payload;
            inner.frames[slot].referenced = true;
            inner.frames[slot].dirty = dirty || inner.frames[slot].dirty;
            return Ok(());
        }
        let slot = self.free_slot(&mut inner)?;
        self.evict_slot(&mut inner, slot)?;
        inner.frames[slot] = Frame {
            key: Some(key),
            payload,
            pins: 0,
            referenced: true,
            dirty,
        };
        inner.map.insert(key, slot);
        Ok(())
    }

    /// Returns a copy of `key`'s payload if resident, without pinning
    /// or touching hit/miss counters or the referenced bit. The store's
    /// committed-read path uses this so a dirty (not-yet-flushed) page
    /// is served from memory instead of the stale page file.
    pub fn peek(&self, key: PageKey) -> Option<Vec<u8>> {
        let inner = self.frames();
        inner
            .map
            .get(&key)
            .map(|&slot| inner.frames[slot].payload.clone())
    }

    /// Writes every dirty frame's current bytes through the write-back
    /// callback, in slot order, holding the pool lock for one frame at
    /// a time: the checkpoint's flush. A page re-dirtied after its
    /// write stays dirty, protected by the WAL suffix the checkpoint
    /// keeps.
    pub fn flush_dirty(&self) -> Result<(), StoreError> {
        let slots = self.frames().frames.len();
        for slot in 0..slots {
            self.write_back(&mut self.frames(), slot)?;
        }
        Ok(())
    }

    /// Writes `slot` back if it is dirty, and marks it clean only once
    /// the write returned `Ok`: the one way a dirty frame turns clean.
    fn write_back(&self, inner: &mut PoolInner, slot: usize) -> Result<(), StoreError> {
        let frame = &mut inner.frames[slot];
        let (Some(key), true) = (frame.key, frame.dirty) else {
            return Ok(());
        };
        let writeback = self
            .writeback
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        // Losing a dirty frame silently would make the page file stale
        // forever (its WAL protection is dropped at the next
        // checkpoint). Refuse instead.
        let writeback = writeback.ok_or_else(|| StoreError::Meta {
            detail: format!("dirty page {key:?} with no write-back installed"),
        })?;
        writeback(key, &frame.payload)?;
        frame.dirty = false;
        Ok(())
    }

    /// Evacuates whatever currently occupies `slot`, writing a dirty
    /// victim back first.
    fn evict_slot(&self, inner: &mut PoolInner, slot: usize) -> Result<(), StoreError> {
        let Some(old) = inner.frames[slot].key else {
            return Ok(());
        };
        if inner.frames[slot].dirty {
            self.write_back(inner, slot)?;
            self.dirty_writebacks.fetch_add(1, Ordering::Relaxed);
        }
        inner.frames[slot].key = None;
        inner.map.remove(&old);
        self.evictions.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Drops every unpinned, *clean* resident page (a cold-start lever
    /// for cost-parity experiments). Dirty frames are kept: their
    /// payloads may not be in the page file yet. Returns how many pages
    /// were dropped.
    pub fn clear(&self) -> usize {
        let mut inner = self.frames();
        let mut dropped = 0;
        for slot in 0..inner.frames.len() {
            if inner.frames[slot].pins == 0 && !inner.frames[slot].dirty {
                if let Some(key) = inner.frames[slot].key.take() {
                    inner.map.remove(&key);
                    inner.frames[slot].payload = Vec::new();
                    dropped += 1;
                }
            }
        }
        dropped
    }

    /// Finds a slot to (re)use: an unallocated frame while below
    /// capacity, else the clock's victim.
    fn free_slot(&self, inner: &mut PoolInner) -> Result<usize, StoreError> {
        if inner.frames.len() < self.capacity {
            inner.frames.push(Frame {
                key: None,
                payload: Vec::new(),
                pins: 0,
                referenced: false,
                dirty: false,
            });
            return Ok(inner.frames.len() - 1);
        }
        // Reuse an emptied frame first (clear() leaves those behind).
        if let Some(slot) = inner.frames.iter().position(|f| f.key.is_none()) {
            return Ok(slot);
        }
        // Clock sweep: two full passes guarantee every unpinned frame
        // has had its referenced bit cleared once.
        let n = inner.frames.len();
        for _ in 0..2 * n {
            let slot = inner.hand;
            inner.hand = (inner.hand + 1) % n;
            let frame = &mut inner.frames[slot];
            if frame.pins > 0 {
                continue;
            }
            if frame.referenced {
                frame.referenced = false;
                continue;
            }
            return Ok(slot);
        }
        Err(StoreError::PoolExhausted {
            capacity: self.capacity,
        })
    }
}

/// Pin on one resident frame; dropping it unpins.
#[derive(Debug)]
pub struct PoolGuard<'a> {
    pool: &'a BufferPool,
    slot: usize,
}

impl Drop for PoolGuard<'_> {
    fn drop(&mut self) {
        let mut inner = self.pool.frames();
        let frame = &mut inner.frames[self.slot];
        debug_assert!(frame.pins > 0, "unbalanced unpin");
        frame.pins = frame.pins.saturating_sub(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fetch(byte: u8) -> impl FnOnce() -> Result<Vec<u8>, StoreError> {
        move || Ok(vec![byte; 8])
    }

    /// The bytes of the page `g` pins.
    fn payload(g: &PoolGuard) -> Vec<u8> {
        g.pool.frames().frames[g.slot].payload.clone()
    }

    fn fail() -> Result<Vec<u8>, StoreError> {
        Err(StoreError::Corrupt {
            detail: "should not fetch".into(),
        })
    }

    #[test]
    fn hit_after_miss() {
        let pool = BufferPool::new(4);
        drop(pool.get((1, 0), fetch(7)).unwrap());
        let g = pool.get((1, 0), fail).unwrap();
        assert_eq!(payload(&g), vec![7u8; 8]);
        drop(g);
        assert_eq!(
            pool.stats(),
            PoolStats {
                hits: 1,
                misses: 1,
                evictions: 0,
                dirty_writebacks: 0,
            }
        );
    }

    #[test]
    fn eviction_at_capacity() {
        let pool = BufferPool::new(2);
        drop(pool.get((1, 0), fetch(0)).unwrap());
        drop(pool.get((1, 1), fetch(1)).unwrap());
        drop(pool.get((1, 2), fetch(2)).unwrap());
        assert_eq!(pool.resident(), 2);
        assert_eq!(pool.stats().evictions, 1);
        // The evicted page misses again.
        let before = pool.stats().misses;
        drop(pool.get((1, 0), fetch(0)).unwrap());
        assert_eq!(pool.stats().misses, before + 1);
    }

    #[test]
    fn pinned_frames_survive_pressure() {
        let pool = BufferPool::new(2);
        let pinned = pool.get((1, 0), fetch(0)).unwrap();
        drop(pool.get((1, 1), fetch(1)).unwrap());
        drop(pool.get((1, 2), fetch(2)).unwrap());
        drop(pool.get((1, 3), fetch(3)).unwrap());
        // (1,0) was pinned throughout: still a hit.
        let g = pool.get((1, 0), fail).unwrap();
        drop(g);
        drop(pinned);
    }

    #[test]
    fn all_pinned_pool_is_exhausted() {
        let pool = BufferPool::new(2);
        let _a = pool.get((1, 0), fetch(0)).unwrap();
        let _b = pool.get((1, 1), fetch(1)).unwrap();
        // No slot, no read: the fetch must not run, nor count a miss.
        let err = pool.get((1, 2), fail).unwrap_err();
        assert!(matches!(err, StoreError::PoolExhausted { capacity: 2 }));
        assert_eq!(pool.stats().misses, 2);
    }

    #[test]
    fn fetch_error_propagates_and_pool_stays_clean() {
        let pool = BufferPool::new(2);
        assert!(pool.get((1, 0), fail).is_err());
        assert_eq!(pool.resident(), 0);
        drop(pool.get((1, 0), fetch(5)).unwrap());
        assert_eq!(pool.resident(), 1);
    }

    #[test]
    fn put_makes_pages_warm() {
        let pool = BufferPool::new(4);
        pool.put((1, 0), vec![9; 4]).unwrap();
        let g = pool.get((1, 0), fail).unwrap();
        drop(g);
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(pool.stats().misses, 0);
    }

    #[test]
    fn clear_makes_pages_cold_again() {
        let pool = BufferPool::new(4);
        pool.put((1, 0), vec![1; 4]).unwrap();
        pool.put((1, 1), vec![2; 4]).unwrap();
        assert_eq!(pool.clear(), 2);
        assert_eq!(pool.resident(), 0);
        drop(pool.get((1, 0), fetch(1)).unwrap());
        assert_eq!(pool.stats().misses, 1);
    }

    type WriteLog = Arc<Mutex<Vec<(PageKey, Vec<u8>)>>>;

    /// Installs a write-back that logs every write, failing the first
    /// `failures` calls.
    fn log_writes(pool: &BufferPool, failures: u32) -> WriteLog {
        let written: WriteLog = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&written);
        let left = Mutex::new(failures);
        pool.set_writeback(Arc::new(move |key, payload| {
            let mut left = left.lock().unwrap();
            if *left > 0 {
                *left -= 1;
                return Err(StoreError::Corrupt {
                    detail: "write failed".into(),
                });
            }
            sink.lock().unwrap().push((key, payload.to_vec()));
            Ok(())
        }));
        written
    }

    #[test]
    fn flush_writes_the_current_bytes() {
        let pool = BufferPool::new(4);
        let written = log_writes(&pool, 0);
        pool.put((1, 0), vec![1; 4]).unwrap();
        pool.put_dirty((1, 1), vec![2; 4]).unwrap();
        pool.put_dirty((1, 2), vec![3; 4]).unwrap();
        pool.put_dirty((1, 1), vec![4; 4]).unwrap();
        assert_eq!(pool.dirty_pages(), 2);
        pool.flush_dirty().unwrap();
        assert_eq!(
            written.lock().unwrap().as_slice(),
            &[((1, 1), vec![4; 4]), ((1, 2), vec![3; 4])]
        );
        assert_eq!(pool.dirty_pages(), 0);
        // Pages stay resident (warm); a flush is no eviction.
        assert_eq!(pool.resident(), 3);
        assert_eq!(pool.stats().dirty_writebacks, 0);
        pool.flush_dirty().unwrap();
        assert_eq!(
            written.lock().unwrap().len(),
            2,
            "clean frames are not rewritten"
        );
    }

    #[test]
    fn a_failed_write_back_leaves_the_frame_dirty_and_eviction_retries() {
        let pool = BufferPool::new(2);
        let written = log_writes(&pool, 1);
        pool.put_dirty((1, 0), vec![7; 4]).unwrap();
        assert!(pool.flush_dirty().is_err());
        assert_eq!(pool.dirty_pages(), 1);
        assert!(written.lock().unwrap().is_empty());
        drop(pool.get((1, 1), fetch(1)).unwrap());
        drop(pool.get((1, 2), fetch(2)).unwrap());
        assert_eq!(written.lock().unwrap().as_slice(), &[((1, 0), vec![7; 4])]);
        assert_eq!(pool.stats().dirty_writebacks, 1);
        assert_eq!(pool.dirty_pages(), 0);
    }

    #[test]
    fn put_dirty_after_a_flush_redirties_the_frame() {
        let pool = BufferPool::new(4);
        let written = log_writes(&pool, 0);
        pool.put_dirty((1, 0), vec![1; 4]).unwrap();
        pool.flush_dirty().unwrap();
        pool.put_dirty((1, 0), vec![2; 4]).unwrap();
        assert_eq!(pool.dirty_pages(), 1);
        pool.flush_dirty().unwrap();
        assert_eq!(
            written.lock().unwrap().as_slice(),
            &[((1, 0), vec![1; 4]), ((1, 0), vec![2; 4])]
        );
    }

    #[test]
    fn overwriting_a_dirty_page_with_put_keeps_it_dirty() {
        let pool = BufferPool::new(4);
        pool.put_dirty((1, 0), vec![1; 4]).unwrap();
        pool.put((1, 0), vec![2; 4]).unwrap();
        assert_eq!(pool.dirty_pages(), 1, "clean put must not launder dirt");
    }

    #[test]
    fn evicting_dirty_frame_writes_back() {
        let pool = BufferPool::new(2);
        let written = log_writes(&pool, 0);
        pool.put_dirty((1, 0), vec![7; 4]).unwrap();
        drop(pool.get((1, 1), fetch(1)).unwrap());
        // Third page forces the clock to evict; the dirty (1,0) must be
        // written back before its frame is reused.
        drop(pool.get((1, 2), fetch(2)).unwrap());
        assert_eq!(written.lock().unwrap().as_slice(), &[((1, 0), vec![7; 4])]);
        assert_eq!(pool.stats().dirty_writebacks, 1);
        assert_eq!(pool.dirty_pages(), 0);
    }

    #[test]
    fn evicting_dirty_frame_without_writeback_is_refused() {
        let pool = BufferPool::new(1);
        pool.put_dirty((1, 0), vec![7; 4]).unwrap();
        let err = pool.get((1, 1), fetch(1)).unwrap_err();
        assert!(matches!(err, StoreError::Meta { .. }), "got {err:?}");
        // The dirty page is still intact and resident.
        assert_eq!(pool.dirty_pages(), 1);
        let g = pool.get((1, 0), fail).unwrap();
        assert_eq!(payload(&g), vec![7u8; 4]);
        drop(g);
    }

    #[test]
    fn clear_keeps_dirty_pages() {
        let pool = BufferPool::new(4);
        pool.put((1, 0), vec![1; 4]).unwrap();
        pool.put_dirty((1, 1), vec![2; 4]).unwrap();
        assert_eq!(pool.clear(), 1);
        assert_eq!(pool.resident(), 1);
        assert_eq!(pool.dirty_pages(), 1);
    }

    #[test]
    fn clock_prefers_unreferenced_victims() {
        let pool = BufferPool::new(3);
        drop(pool.get((1, 0), fetch(0)).unwrap());
        drop(pool.get((1, 1), fetch(1)).unwrap());
        drop(pool.get((1, 2), fetch(2)).unwrap());
        // First overflow: the sweep clears every referenced bit, wraps,
        // and evicts the first frame — (1,0). Resident: {3, 1, 2}, with
        // (1,1) and (1,2) unreferenced.
        drop(pool.get((1, 3), fetch(3)).unwrap());
        // Second-chance: touching (1,2) re-references it, so the next
        // overflow must pick (1,1), not (1,2).
        drop(pool.get((1, 2), fail).unwrap());
        drop(pool.get((1, 4), fetch(4)).unwrap());
        // (1,2) and (1,3) survived; (1,1) is the victim.
        drop(pool.get((1, 2), fail).unwrap());
        drop(pool.get((1, 3), fail).unwrap());
        let before = pool.stats().misses;
        drop(pool.get((1, 1), fetch(1)).unwrap());
        assert_eq!(pool.stats().misses, before + 1, "(1,1) was the victim");
    }
}
