//! The pre-wheel event queue (FIFO front lane over a binary heap), its
//! push/cancel/pop/peek logic kept verbatim as the oracle for the
//! event-order property tests: the timing wheel must produce pop sequences
//! byte-identical to this queue for every schedule.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet, VecDeque};

use wifiq_sim::Nanos;

/// Cancellation handle of a [`ReferenceQueue`] event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefId(u64);

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
    cancelled: HashSet<u64>,
    /// Sequence numbers currently in the heap; guards `cancel` against
    /// tombstoning an event that already fired.
    pending: HashSet<u64>,
    next_seq: u64,
    now: Nanos,
}

impl<E> ReferenceQueue<E> {
    pub fn new() -> Self {
        ReferenceQueue {
            front: VecDeque::new(),
            heap: BinaryHeap::new(),
            cancelled: HashSet::new(),
            pending: HashSet::new(),
            next_seq: 0,
            now: Nanos::ZERO,
        }
    }

    pub fn now(&self) -> Nanos {
        self.now
    }

    pub fn push(&mut self, at: Nanos, payload: E) -> RefId {
        assert!(
            at >= self.now,
            "event scheduled in the past: {at} < now {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.insert(seq);
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
        RefId(seq)
    }

    pub fn cancel(&mut self, id: RefId) -> bool {
        if !self.pending.contains(&id.0) {
            return false;
        }
        self.pending.remove(&id.0);
        self.cancelled.insert(id.0)
    }

    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        while let Some(entry) = self.front.pop_front() {
            if self.cancelled.remove(&entry.seq) {
                continue;
            }
            self.pending.remove(&entry.seq);
            self.now = entry.time;
            return Some((entry.time, entry.payload));
        }
        while let Some(entry) = self.heap.pop() {
            if self.cancelled.remove(&entry.seq) {
                continue;
            }
            self.pending.remove(&entry.seq);
            self.now = entry.time;
            return Some((entry.time, entry.payload));
        }
        None
    }

    pub fn peek_time(&mut self) -> Option<Nanos> {
        while let Some(entry) = self.front.front() {
            if self.cancelled.contains(&entry.seq) {
                let seq = entry.seq;
                self.front.pop_front();
                self.cancelled.remove(&seq);
            } else {
                return Some(entry.time);
            }
        }
        while let Some(entry) = self.heap.peek() {
            if self.cancelled.contains(&entry.seq) {
                let seq = entry.seq;
                self.heap.pop();
                self.cancelled.remove(&seq);
            } else {
                return Some(entry.time);
            }
        }
        None
    }

    pub fn len(&self) -> usize {
        self.front.len() + self.heap.len() - self.cancelled.len()
    }
}
