//! The pending-event set.
//!
//! A binary heap keyed by `(time, sequence)` so that simultaneous events fire
//! in scheduling order (FIFO tie-break), which is what makes runs replayable.
//! Cancellation is supported by lazy deletion: a cancelled entry stays in the
//! heap but is skipped when popped.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::clock::SimTime;

/// Opaque handle identifying a scheduled event, usable to cancel it later.
///
/// Handles are unique for the lifetime of one [`EventQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventHandle(u64);

struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest-first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A future-event list ordered by time with FIFO tie-breaking.
///
/// # Examples
///
/// ```
/// use oaq_sim::{EventQueue, SimTime};
/// let mut q = EventQueue::new();
/// q.push(SimTime::new(2.0), "late");
/// q.push(SimTime::new(1.0), "early");
/// let (t, ev) = q.pop().unwrap();
/// assert_eq!((t, ev), (SimTime::new(1.0), "early"));
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Sequence numbers of cancelled-but-not-yet-skipped entries, sorted.
    /// Every pop and peek consults this set, so it is a sorted vector — the
    /// membership probe is a binary search over a handful of entries (free
    /// when empty, the overwhelmingly common case) instead of a hash.
    cancelled: Vec<u64>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            cancelled: Vec::new(),
            next_seq: 0,
        }
    }

    /// Empties the queue and invalidates all outstanding handles, keeping
    /// the allocated capacity — a recycled queue behaves exactly like
    /// [`EventQueue::new`] without touching the allocator.
    pub fn reset(&mut self) {
        self.heap.clear();
        self.cancelled.clear();
        self.next_seq = 0;
    }

    /// Reserves room for `additional` cancelled-but-not-yet-skipped
    /// entries, so a run that never has more than that many outstanding
    /// does not grow the cancellation list mid-run.
    pub fn reserve_cancellations(&mut self, additional: usize) {
        self.cancelled.reserve(additional);
    }

    /// Schedules `payload` at `time`, returning a cancellation handle.
    pub fn push(&mut self, time: SimTime, payload: E) -> EventHandle {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, payload });
        EventHandle(seq)
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event was still pending. Cancelling an already
    /// fired or already cancelled event returns `false` and is harmless.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        if handle.0 >= self.next_seq {
            return false;
        }
        match self.cancelled.binary_search(&handle.0) {
            Ok(_) => false,
            Err(i) => {
                self.cancelled.insert(i, handle.0);
                true
            }
        }
    }

    /// Removes and returns the earliest pending event, skipping cancelled
    /// entries. Returns `None` when the queue is exhausted.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(entry) = self.heap.pop() {
            if let Ok(i) = self.cancelled.binary_search(&entry.seq) {
                self.cancelled.remove(i);
                continue;
            }
            return Some((entry.time, entry.payload));
        }
        None
    }

    /// Time of the next live event without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            let seq = self.heap.peek()?.seq;
            if let Ok(i) = self.cancelled.binary_search(&seq) {
                self.cancelled.remove(i);
                self.heap.pop();
                continue;
            }
            return self.heap.peek().map(|e| e.time);
        }
    }

    /// Number of entries in the heap, including not-yet-skipped cancelled
    /// ones (an upper bound on live events).
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len() - self.cancelled.len()
    }

    /// `true` when no live events remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("live_events", &self.len())
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::new(3.0), 3);
        q.push(SimTime::new(1.0), 1);
        q.push(SimTime::new(2.0), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_tie_break_for_simultaneous_events() {
        let mut q = EventQueue::new();
        q.push(SimTime::new(1.0), "a");
        q.push(SimTime::new(1.0), "b");
        q.push(SimTime::new(1.0), "c");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn cancellation_skips_event() {
        let mut q = EventQueue::new();
        let h = q.push(SimTime::new(1.0), "dead");
        q.push(SimTime::new(2.0), "alive");
        assert!(q.cancel(h));
        assert!(!q.cancel(h), "double-cancel reports false");
        assert_eq!(q.pop().map(|(_, e)| e), Some("alive"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_unknown_handle_is_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventHandle(99)));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let h = q.push(SimTime::new(1.0), 1);
        q.push(SimTime::new(5.0), 2);
        q.cancel(h);
        assert_eq!(q.peek_time(), Some(SimTime::new(5.0)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn len_accounts_for_cancellations() {
        let mut q = EventQueue::new();
        let h = q.push(SimTime::new(1.0), 1);
        q.push(SimTime::new(2.0), 2);
        assert_eq!(q.len(), 2);
        q.cancel(h);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }
}
