//! A counting global allocator.
//!
//! Counters are per thread, so measuring a single-threaded call costs
//! the other threads of the process no shared cache line and the
//! end-to-end pass two plain increments per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator, counting the calling thread's
/// allocations (`alloc`, `alloc_zeroed`, `realloc`) and the bytes they
/// asked for.
pub struct Counting;

fn note(bytes: usize) {
    // `try_with` because the allocator can run while a thread's locals
    // are being torn down; those allocations go uncounted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// `Cell<u64>` thread-locals that have no destructor and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with `layout`, and that `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// `(allocations, bytes requested)` by the calling thread so far.
pub fn thread_counts() -> (u64, u64) {
    (
        ALLOCS.try_with(Cell::get).unwrap_or(0),
        BYTES.try_with(Cell::get).unwrap_or(0),
    )
}

/// Runs `f` and returns its result with the allocations and bytes the
/// calling thread requested meanwhile.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, b0) = thread_counts();
    let out = f();
    let (a1, b1) = thread_counts();
    (out, a1 - a0, b1 - b0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_the_calling_threads_allocations_and_bytes() {
        let (v, allocs, bytes) = counted(|| Vec::<u8>::with_capacity(1000));
        assert_eq!((allocs, bytes), (1, 1000));
        drop(v);
        let (_, allocs, bytes) = counted(|| {
            let mut v = Vec::<u64>::with_capacity(4);
            v.extend([1, 2, 3, 4]);
            v.reserve_exact(4); // realloc to 8 elements
            v
        });
        assert_eq!((allocs, bytes), (2, 32 + 64));
        let (_, allocs, bytes) = counted(|| 1 + 1);
        assert_eq!((allocs, bytes), (0, 0));
    }

    #[test]
    fn another_threads_allocations_are_not_counted_here() {
        const BIG: usize = 1 << 20;
        let ((), _, bytes) = counted(|| {
            std::thread::scope(|s| {
                s.spawn(|| drop(std::hint::black_box(vec![0u8; BIG])));
            });
        });
        // Spawning allocates a little on this thread; the megabyte the
        // other thread asked for is its own.
        assert!((bytes as usize) < BIG, "counted {bytes} bytes");
    }
}
