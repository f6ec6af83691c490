//! A minimal discrete-event scheduler.
//!
//! The network simulation is day-structured, but *within* a crawl day
//! the crawler's connection attempts are scheduled on a seconds
//! timeline against its bandwidth budget — that is what makes the
//! coverage decline of Fig. 1 mechanistic rather than assumed. This
//! queue is the only scheduling primitive either layer needs.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A time-ordered event queue with FIFO tie-breaking.
///
/// # Examples
///
/// ```
/// use edonkey_netsim::event::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.schedule(10, "b");
/// q.schedule(5, "a");
/// q.schedule(10, "c");
/// assert_eq!(q.pop(), Some((5, "a")));
/// assert_eq!(q.pop(), Some((10, "b")), "FIFO among equal times");
/// assert_eq!(q.pop(), Some((10, "c")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    now: u64,
}

struct Entry<E> {
    time: u64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time 0.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0,
        }
    }

    /// The time of the most recently popped event (0 initially).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Schedules `event` at absolute `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past (before the last popped event) —
    /// a scheduling bug that would silently reorder causality otherwise.
    pub fn schedule(&mut self, time: u64, event: E) {
        assert!(
            time >= self.now,
            "scheduling into the past: {time} < {}",
            self.now
        );
        self.heap.push(Reverse(Entry {
            time,
            seq: self.seq,
            event,
        }));
        self.seq += 1;
    }

    /// Pops the earliest event, advancing the clock.
    pub fn pop(&mut self) -> Option<(u64, E)> {
        let Reverse(entry) = self.heap.pop()?;
        self.now = entry.time;
        Some((entry.time, entry.event))
    }

    /// Drops every pending event, returning how many were discarded —
    /// the crawler's abandoned-attempt accounting when a budget expires.
    pub fn clear(&mut self) -> usize {
        let n = self.heap.len();
        self.heap.clear();
        n
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
    fn orders_by_time_then_fifo() {
        let mut q = EventQueue::new();
        q.schedule(3, 'c');
        q.schedule(1, 'a');
        q.schedule(3, 'd');
        q.schedule(2, 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c', 'd']);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), 0);
        q.schedule(7, ());
        q.schedule(2, ());
        assert_eq!(q.pop().unwrap().0, 2);
        assert_eq!(q.now(), 2);
        q.schedule(q.now() + 1, ());
        assert_eq!(q.pop().unwrap().0, 3);
        assert_eq!(q.pop().unwrap().0, 7);
    }

    #[test]
    fn clear_discards_pending_events() {
        let mut q = EventQueue::new();
        q.schedule(5, 'x');
        q.schedule(10, 'y');
        assert_eq!(q.pop(), Some((5, 'x')));
        assert_eq!(q.clear(), 1);
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), 5, "clearing does not move the clock");
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn past_scheduling_panics() {
        let mut q = EventQueue::new();
        q.schedule(5, ());
        q.pop();
        q.schedule(3, ());
    }
}
