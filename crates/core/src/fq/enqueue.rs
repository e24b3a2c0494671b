//! Algorithm 1 — enqueue under the global limit — and the backlog heap
//! that makes its drop-from-longest O(1): every flow holding packets, as a
//! binary max-heap on byte backlog with each flow's position stored
//! intrusively. The dequeue and detach paths report their shrinkage
//! through [`MacFq::heap_shrank`].

use wifiq_sim::Nanos;
use wifiq_telemetry::{DropReason, EventKind, Label};

use super::{DropPolicy, MacFq, Membership, NOT_IN_HEAP};
use crate::packet::FqPacket;
use crate::table::TidId;

impl<P: FqPacket> MacFq<P> {
    /// Swaps two heap slots, keeping the intrusive positions in sync.
    #[inline]
    fn heap_swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.flows[self.heap[i]].heap_pos = i;
        self.flows[self.heap[j]].heap_pos = j;
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.flows[self.heap[i]].backlog_bytes <= self.flows[self.heap[parent]].backlog_bytes
            {
                break;
            }
            self.heap_swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let left = 2 * i + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let mut child = left;
            if right < self.heap.len()
                && self.flows[self.heap[right]].backlog_bytes
                    > self.flows[self.heap[left]].backlog_bytes
            {
                child = right;
            }
            if self.flows[self.heap[child]].backlog_bytes <= self.flows[self.heap[i]].backlog_bytes
            {
                break;
            }
            self.heap_swap(i, child);
            i = child;
        }
    }

    /// Records a backlog increase for `fi`: inserts the flow into the
    /// backlog heap if it just became nonempty, else restores the heap
    /// property upward from its stored slot.
    fn heap_grew(&mut self, fi: usize) {
        let pos = self.flows[fi].heap_pos;
        if pos == NOT_IN_HEAP {
            let i = self.heap.len();
            self.heap.push(fi);
            self.flows[fi].heap_pos = i;
            self.sift_up(i);
        } else {
            self.sift_up(pos);
        }
    }

    /// Records a backlog decrease for `fi`: removes the flow from the heap
    /// once its queue is empty, else restores the heap property downward.
    pub(super) fn heap_shrank(&mut self, fi: usize) {
        let pos = self.flows[fi].heap_pos;
        if pos == NOT_IN_HEAP {
            return;
        }
        if self.flows[fi].queue.is_empty() {
            self.heap.swap_remove(pos);
            self.flows[fi].heap_pos = NOT_IN_HEAP;
            if pos < self.heap.len() {
                let moved = self.heap[pos];
                self.flows[moved].heap_pos = pos;
                // The filler came off a leaf: it can be smaller than the
                // new children or larger than the new parent, never both,
                // so one of these is a no-op.
                self.sift_down(pos);
                self.sift_up(self.flows[moved].heap_pos);
            }
        } else {
            self.sift_down(pos);
        }
    }

    /// The flow with the largest byte backlog (Algorithm 1 line 3): the
    /// heap root, O(1).
    fn find_longest_queue(&self) -> Option<usize> {
        self.heap.first().copied()
    }

    /// Drops the head packet of the globally longest queue, returning it.
    ///
    /// "A global queue size limit is kept, and when this is exceeded,
    /// packets are dropped from the globally longest queue, which prevents
    /// a single flow from locking out other flows on overload."
    fn drop_from_longest(&mut self, now: Nanos) -> Option<P> {
        let fi = self.find_longest_queue()?;
        let flow = &mut self.flows[fi];
        let pkt = flow.queue.pop_front(&mut self.arena)?;
        flow.backlog_bytes -= pkt.wire_len();
        self.total_packets -= 1;
        self.stats.drops_overlimit += 1;
        let victim_tid = flow.tid;
        if let Some(ti) = victim_tid {
            self.tids[ti].backlog_packets -= 1;
            self.tids[ti].backlog_bytes -= pkt.wire_len();
        }
        if let Some(mut rec) = self.tele.batch() {
            rec.add(self.fq_tele.drops_overlimit, 1);
            let (victims, label) = match victim_tid {
                Some(ti) => (self.tids[ti].tele.victims, Label::Tid(ti as u32)),
                None => (self.fq_tele.orphan_victims, Label::Global),
            };
            rec.add(victims, 1);
            rec.event(
                now,
                self.component,
                EventKind::Drop {
                    label,
                    bytes: pkt.wire_len() as u32,
                    reason: DropReason::Overlimit,
                },
            );
        }
        self.heap_shrank(fi);
        Some(pkt)
    }

    /// Enqueues a packet for a TID — Algorithm 1.
    ///
    /// Returns the packet dropped to make room, if the global limit was
    /// reached — the head of the longest queue, or under
    /// [`DropPolicy::TailDrop`] the offered packet itself. Either way it
    /// leaves the structure here and is the caller's to count and free.
    ///
    /// The packet must already carry its enqueue timestamp
    /// ([`QueuedPacket::enqueue_time`](crate::packet::QueuedPacket::enqueue_time)
    /// is read by CoDel at dequeue).
    pub fn enqueue(&mut self, pkt: P, tid: TidId, now: Nanos) -> Option<P> {
        let ti = self.tid_slot(tid);

        // Global limit (Algorithm 1 lines 2–4).
        let dropped = if self.total_packets >= self.params.limit {
            match self.params.drop_policy {
                DropPolicy::DropLongest => self.drop_from_longest(now),
                DropPolicy::TailDrop => {
                    self.stats.drops_overlimit += 1;
                    if let Some(mut rec) = self.tele.batch() {
                        rec.add(self.fq_tele.drops_overlimit, 1);
                        rec.event(
                            now,
                            self.component,
                            EventKind::Drop {
                                label: Label::Tid(ti as u32),
                                bytes: pkt.wire_len() as u32,
                                reason: DropReason::QueueFull,
                            },
                        );
                    }
                    return Some(pkt);
                }
            }
        } else {
            None
        };

        // Hash to a queue; on cross-TID collision use the overflow queue
        // (lines 5–8). A power-of-two pool reduces to a mask.
        let hash = pkt.flow_hash();
        let mut fi = match self.hash_mask {
            Some(mask) => (hash & mask) as usize,
            None => (hash % self.params.flows as u64) as usize,
        };
        if self.flows[fi].tid.is_some_and(|t| t != ti) {
            fi = self.tids[ti].overflow_flow;
            self.stats.collisions += 1;
            self.tele.add(self.tids[ti].tele.collisions, 1);
        }
        self.flows[fi].tid = Some(ti);

        // Append and activate (lines 9–12).
        let len = pkt.wire_len();
        let flow = &mut self.flows[fi];
        flow.queue.push_back(&mut self.arena, pkt);
        flow.backlog_bytes += len;
        self.total_packets += 1;
        self.stats.enqueued += 1;
        let tid_state = &mut self.tids[ti];
        tid_state.backlog_packets += 1;
        tid_state.backlog_bytes += len;
        if self.flows[fi].membership == Membership::Idle {
            self.flows[fi].membership = Membership::New;
            // A freshly activated flow starts with a full quantum, exactly
            // as fq_codel does — without this, the first deficit check
            // would rotate it to the old list and void its new-flow
            // (sparse) priority.
            self.flows[fi].deficit = self.params.quantum as i64;
            self.tids[ti].new_flows.push_back(fi);
        }
        self.heap_grew(fi);

        if let Some(mut rec) = self.tele.batch() {
            rec.add(self.tids[ti].tele.enqueued, 1);
            rec.set(self.fq_tele.occupancy_gauge, self.total_packets as f64);
            rec.record(self.fq_tele.occupancy_hist, self.total_packets as u64);
            rec.event(
                now,
                self.component,
                EventKind::Enqueue {
                    label: Label::Tid(ti as u32),
                    bytes: len as u32,
                },
            );
        }

        dropped
    }
}
