//! The pre-wheel event queue (FIFO front lane over a binary heap), its
//! push/pop/peek logic kept verbatim as the oracle for the
//! event-order property tests: the timing wheel must produce pop sequences
//! byte-identical to this queue for every schedule.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use wifiq_sim::Nanos;

struct Entry<E> {
    time: Nanos,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The two-lane queue: same observable contract as `EventQueue` (minus
/// `pop_tick`), exact (time, push order) pop order.
pub struct ReferenceQueue<E> {
    /// In-order lane: non-decreasing times, all strictly earlier than
    /// every heap entry, popped front-first with no heap churn.
    front: VecDeque<Entry<E>>,
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: Nanos,
}

impl<E> ReferenceQueue<E> {
    pub fn new() -> Self {
        ReferenceQueue {
            front: VecDeque::new(),
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: Nanos::ZERO,
        }
    }

    pub fn now(&self) -> Nanos {
        self.now
    }

    pub fn push(&mut self, at: Nanos, payload: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: {at} < now {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Entry {
            time: at,
            seq,
            payload,
        };
        // Front-lane admission: the push keeps the lane's times
        // non-decreasing and must fire strictly before the earliest heap
        // entry (an equal-time heap entry holds an older seq and goes
        // first).
        let after_front = self.front.back().is_none_or(|back| at >= back.time);
        let before_heap = self.heap.peek().is_none_or(|top| at < top.time);
        if after_front && before_heap {
            self.front.push_back(entry);
        } else {
            if !after_front {
                self.heap.extend(self.front.drain(..));
            }
            self.heap.push(entry);
        }
    }

    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        let entry = self.front.pop_front().or_else(|| self.heap.pop())?;
        self.now = entry.time;
        Some((entry.time, entry.payload))
    }

    pub fn peek_time(&self) -> Option<Nanos> {
        self.front
            .front()
            .or_else(|| self.heap.peek())
            .map(|entry| entry.time)
    }

    pub fn len(&self) -> usize {
        self.front.len() + self.heap.len()
    }
}
