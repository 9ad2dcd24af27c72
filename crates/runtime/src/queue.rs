//! A bounded MPMC submission queue built on `Mutex` + `Condvar`.
//!
//! Producers block in [`BoundedQueue::push`] while the queue is at
//! capacity — that blocking *is* the service's backpressure: an
//! overloaded service slows its callers down instead of buffering
//! unboundedly. [`BoundedQueue::try_push`] is the non-blocking variant
//! for callers that prefer an error over waiting.
//!
//! Closing the queue wakes everyone: pending pushes fail, and pops
//! drain the remaining items before returning `None` — so a shutdown
//! still completes every query that was accepted.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// `try_push` found the queue at capacity.
    Full,
    /// The queue was closed (service shutting down).
    Closed,
}

#[derive(Debug)]
struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded blocking queue; see the module docs.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (clamped to ≥1).
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Current number of queued items.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Blocks until there is room, then enqueues `item`. Fails only
    /// when the queue is closed.
    pub fn push(&self, item: T) -> Result<(), PushError> {
        let mut inner = self.lock();
        loop {
            if inner.closed {
                return Err(PushError::Closed);
            }
            if inner.items.len() < self.capacity {
                inner.items.push_back(item);
                self.not_empty.notify_one();
                return Ok(());
            }
            inner = self.not_full.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Enqueues without blocking; fails with [`PushError::Full`] at
    /// capacity.
    pub fn try_push(&self, item: T) -> Result<(), PushError> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(PushError::Closed);
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full);
        }
        inner.items.push_back(item);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks until an item is available (returning it) or the queue is
    /// closed *and* drained (returning `None`).
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.lock();
        loop {
            if let Some(item) = inner.items.pop_front() {
                self.not_full.notify_one();
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .not_empty
                .wait(inner)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Closes the queue: future pushes fail, blocked pushers and
    /// poppers wake. Already-queued items still drain through `pop`.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn fifo_order() {
        let q = BoundedQueue::new(4);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn try_push_full_then_room_after_pop() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(PushError::Full));
        assert_eq!(q.pop(), Some(1));
        q.try_push(3).unwrap();
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn blocking_push_waits_for_room() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(1).unwrap();
        let q2 = Arc::clone(&q);
        let pusher = std::thread::spawn(move || q2.push(2));
        // Give the pusher time to block, then free a slot.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.pop(), Some(1));
        pusher.join().unwrap().unwrap();
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BoundedQueue::new(4);
        q.push(1).unwrap();
        q.close();
        assert_eq!(q.push(2), Err(PushError::Closed));
        assert_eq!(q.try_push(2), Err(PushError::Closed));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_wakes_blocked_popper() {
        let q = Arc::new(BoundedQueue::<i32>::new(1));
        let q2 = Arc::clone(&q);
        let popper = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(popper.join().unwrap(), None);
    }
}
