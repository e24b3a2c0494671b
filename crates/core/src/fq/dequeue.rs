//! Algorithm 2 — the per-TID dequeue: deficit round-robin over the TID's
//! flow queues with new-queue (sparse flow) priority, CoDel at each head.
//!
//! A flow alone on its TID's lists takes its idle laps in one step: at the
//! default 300-byte quantum a 1,500-byte frame costs it five laps, and
//! each lap would pop it off its one-element old list and push it back on
//! (DESIGN §8 "Idle DRR laps").

use wifiq_codel::{CodelParams, CodelQueue, QueuedPacket};
use wifiq_sim::Nanos;

use super::{MacFq, Membership};
use crate::packet::{FqPacket, PacketArena, PacketFifo};
use crate::table::TidId;

/// Adapter giving CoDel a head-droppable view of one arena-backed flow
/// queue.
struct FlowQueueRef<'a, P> {
    arena: &'a mut PacketArena<P>,
    queue: &'a mut PacketFifo,
    backlog_bytes: &'a mut u64,
}

impl<P: QueuedPacket> CodelQueue for FlowQueueRef<'_, P> {
    type Packet = P;

    fn pop_head(&mut self) -> Option<P> {
        let pkt = self.queue.pop_front(self.arena)?;
        *self.backlog_bytes -= pkt.wire_len();
        Some(pkt)
    }

    fn backlog_bytes(&self) -> u64 {
        *self.backlog_bytes
    }
}

impl<P: FqPacket> MacFq<P> {
    /// Moves `fi`, the head of the TID's new list (`from_new`) or old
    /// list, to the old list's tail: a spent deficit's lap, or a new flow
    /// demoted on running empty.
    fn rotate_to_old(&mut self, ti: usize, fi: usize, from_new: bool) {
        let t = &mut self.tids[ti];
        let list = if from_new {
            &mut t.new_flows
        } else {
            &mut t.old_flows
        };
        let head = list.pop_front(&self.flows);
        debug_assert_eq!(head, Some(fi), "rotated a flow off a list it does not head");
        t.old_flows.push_back(&mut self.flows, fi);
        self.flows[fi].membership = Membership::Old;
    }

    /// Dequeues the next packet for a TID — Algorithm 2.
    ///
    /// `codel_params` are the parameters for the *station* owning this TID
    /// (paper §3.1.1). Returns `None` when the TID has no eligible packet.
    /// CoDel's victims are dropped; [`MacFq::dequeue_with`] hands them to
    /// the caller instead.
    pub fn dequeue(&mut self, tid: TidId, now: Nanos, codel_params: &CodelParams) -> Option<P> {
        self.dequeue_with(tid, now, codel_params, |_| {})
    }

    /// [`MacFq::dequeue`], handing every packet CoDel drops on the way to
    /// `on_drop` in the order it dropped them.
    pub fn dequeue_with(
        &mut self,
        tid: TidId,
        now: Nanos,
        codel_params: &CodelParams,
        mut on_drop: impl FnMut(P),
    ) -> Option<P> {
        let ti = self.tid_slot(tid);

        loop {
            // Pick the head of new_flows, else old_flows (lines 2–7).
            let (fi, from_new) = {
                let t = &self.tids[ti];
                if let Some(fi) = t.new_flows.front() {
                    (fi, true)
                } else if let Some(fi) = t.old_flows.front() {
                    (fi, false)
                } else {
                    return None;
                }
            };

            // A lone flow's idle laps in one step. With the new list
            // empty and the head alone on the old list, each lap of the
            // deficit check below pops the flow and pushes it straight
            // back, so `laps` of them leave the lists as they are and
            // only the deficit and the lap count move. `laps` is the
            // fewest that bring the deficit above zero.
            if !from_new && self.flows[fi].deficit <= 0 && self.tids[ti].old_flows.is_lone() {
                let quantum = self.params.quantum as i64;
                let laps = -self.flows[fi].deficit / quantum + 1;
                self.flows[fi].deficit += laps * quantum;
                self.tid_count(ti, |t| t.drr_rounds, laps as u64);
            }

            // Deficit check (lines 8–11): replenish and rotate to old.
            if self.flows[fi].deficit <= 0 {
                self.flows[fi].deficit += self.params.quantum as i64;
                self.rotate_to_old(ti, fi, from_new);
                self.tid_count(ti, |t| t.drr_rounds, 1);
                continue;
            }

            // CoDel dequeue (line 12); drops are charged to this TID.
            let mut codel_drops = 0usize;
            let mut codel_drop_bytes = 0u64;
            let pkt = {
                let flow = &mut self.flows[fi];
                let mut qref = FlowQueueRef {
                    arena: &mut self.arena,
                    queue: &mut flow.queue,
                    backlog_bytes: &mut flow.backlog_bytes,
                };
                let victim = |p: P| {
                    codel_drops += 1;
                    codel_drop_bytes += p.wire_len();
                    on_drop(p);
                };
                if self.tele.is_enabled() {
                    let ct = &self.tid_tele[ti].codel;
                    flow.codel
                        .dequeue_tracked(now, codel_params, &mut qref, victim, ct)
                } else {
                    flow.codel.dequeue(now, codel_params, &mut qref, victim)
                }
            };
            self.total_packets -= codel_drops;
            self.stats.drops_codel += codel_drops as u64;
            {
                let t = &mut self.tids[ti];
                t.backlog_packets -= codel_drops as u32;
                t.backlog_bytes -= codel_drop_bytes;
            }

            match pkt {
                None => {
                    // Queue empty (lines 13–19): new flows get demoted to
                    // old (the anti-gaming rule); old flows are released.
                    self.heap_shrank(fi);
                    if from_new {
                        self.rotate_to_old(ti, fi, true);
                    } else {
                        self.tids[ti].old_flows.pop_front(&self.flows);
                        self.flows[fi].membership = Membership::Idle;
                        self.flows[fi].tid = None;
                    }
                    continue;
                }
                Some(pkt) => {
                    // Charge the deficit and hand the packet out
                    // (lines 20–21).
                    let len = pkt.wire_len();
                    self.flows[fi].deficit -= len as i64;
                    self.total_packets -= 1;
                    self.stats.dequeued += 1;
                    if from_new {
                        self.tid_count(ti, |t| t.sparse_hits, 1);
                    }
                    let t = &mut self.tids[ti];
                    t.backlog_packets -= 1;
                    t.backlog_bytes -= len;
                    self.heap_shrank(fi);
                    return Some(pkt);
                }
            }
        }
    }
}
