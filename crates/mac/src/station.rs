//! Station-side (client) uplink stack.
//!
//! Clients are *unmodified* in all schemes — the paper's solution runs
//! only at the access point. A station therefore keeps simple per-AC
//! FIFOs (the stock qdisc + driver queueing collapsed into one queue) and
//! builds aggregates from them with the standard limits.

use std::collections::VecDeque;

use wifiq_codel::CodelParams;
use wifiq_core::fq::{FqParams, MacFq};
use wifiq_core::table::TidId;
use wifiq_phy::{AccessCategory, PhyRate};
use wifiq_sim::{Nanos, SimRng};
use wifiq_telemetry::Telemetry;

use crate::aggregation::{build_aggregate_into, Aggregate};
use crate::packet::{StationIdx, Ticket};
use crate::ratectrl::Minstrel;

/// Pooled frame buffers per station: one pending aggregate per AC plus a
/// little slack for the recycle round-trip.
const FRAME_POOL_CAP: usize = 8;

/// The client's uplink queueing: the stock per-AC FIFO, or the paper's
/// FQ-CoDel structure ("WiFi client devices can also benefit from the
/// proposed queueing structure").
// One instance exists per station and `fq` sits on the per-packet
// path; boxing the large variant would trade a few one-off bytes for
// an extra pointer chase per packet.
#[allow(clippy::large_enum_variant)]
enum UplinkQueues {
    Fifo {
        queues: [VecDeque<Ticket>; AccessCategory::COUNT],
        limit: usize,
    },
    Fq {
        fq: MacFq<Ticket>,
        tids: [TidId; AccessCategory::COUNT],
        codel: CodelParams,
    },
}

impl UplinkQueues {
    /// Queues `t`, returning the packet dropped to make room: `t` itself
    /// at a full FIFO, the FQ's longest-queue victim on overlimit — "one
    /// packet was dropped at this uplink", not necessarily the offered one.
    fn enqueue(&mut self, t: Ticket) -> Option<Ticket> {
        match self {
            UplinkQueues::Fifo { queues, limit } => {
                let q = &mut queues[t.ac.index()];
                if q.len() >= *limit {
                    return Some(t);
                }
                q.push_back(t);
                None
            }
            UplinkQueues::Fq { fq, tids, .. } => fq.enqueue(t, tids[t.ac.index()], t.enqueued),
        }
    }

    fn has_data(&self, ac: AccessCategory) -> bool {
        match self {
            UplinkQueues::Fifo { queues, .. } => !queues[ac.index()].is_empty(),
            UplinkQueues::Fq { fq, tids, .. } => fq.tid_has_data(tids[ac.index()]),
        }
    }

    /// The next packet for `ac`; CoDel's victims on the way (FQ uplink
    /// only) go to `on_drop`.
    fn pop(
        &mut self,
        ac: AccessCategory,
        now: Nanos,
        on_drop: impl FnMut(Ticket),
    ) -> Option<Ticket> {
        match self {
            UplinkQueues::Fifo { queues, .. } => queues[ac.index()].pop_front(),
            UplinkQueues::Fq { fq, tids, codel } => {
                fq.dequeue_with(tids[ac.index()], now, codel, on_drop)
            }
        }
    }

    fn backlog(&self) -> usize {
        match self {
            UplinkQueues::Fifo { queues, .. } => queues.iter().map(|q| q.len()).sum(),
            UplinkQueues::Fq { fq, .. } => fq.total_packets(),
        }
    }

    fn arena_live(&self) -> usize {
        match self {
            UplinkQueues::Fifo { .. } => 0,
            UplinkQueues::Fq { fq, .. } => fq.arena_live(),
        }
    }
}

/// One wireless client's transmit state. It holds [`Ticket`]s: the packets
/// themselves stay in the network's store, and every packet this uplink
/// drops leaves through the `on_drop` sink its caller passes.
pub struct StationUplink {
    idx: StationIdx,
    rate: PhyRate,
    queues: UplinkQueues,
    /// A packet pulled for an aggregate that didn't fit, offered first
    /// next time (per AC).
    stash: [Option<Ticket>; AccessCategory::COUNT],
    /// A built aggregate awaiting (re)transmission, per AC.
    pending: [Option<Aggregate<Ticket>>; AccessCategory::COUNT],
    /// Current contention window per AC (doubles on failure).
    pub cw: [u32; AccessCategory::COUNT],
    /// Packets tail-dropped at the uplink FIFO.
    pub drops: u64,
    /// The client's own rate controller (clients run Minstrel too;
    /// "unmodified" in the paper refers to queueing, not rate control).
    /// Boxed: 432 bytes touched once per aggregate, and absent by default.
    rc: Option<Box<Minstrel>>,
    /// Private RNG stream for rate sampling.
    rng: SimRng,
    /// Recycled `Aggregate::frames` buffers (see
    /// [`recycle_frames`](Self::recycle_frames)).
    frame_pool: Vec<Vec<Ticket>>,
}

impl StationUplink {
    /// Creates the uplink stack for station `idx` at `rate` with the
    /// given per-AC FIFO `limit`.
    pub fn new(idx: StationIdx, rate: PhyRate, limit: usize) -> StationUplink {
        StationUplink {
            idx,
            rate,
            queues: UplinkQueues::Fifo {
                queues: Default::default(),
                limit,
            },
            stash: Default::default(),
            pending: Default::default(),
            cw: AccessCategory::ALL.map(|ac| ac.edca().cw_min),
            drops: 0,
            rc: None,
            rng: SimRng::new(idx as u64),
            frame_pool: Vec::new(),
        }
    }

    /// Returns an emptied `Aggregate::frames` buffer for the next
    /// aggregate build to reuse (the network layer calls this after
    /// delivering or dropping an uplink aggregate).
    pub fn recycle_frames(&mut self, mut frames: Vec<Ticket>) {
        frames.clear();
        if self.frame_pool.len() < FRAME_POOL_CAP && frames.capacity() > 0 {
            self.frame_pool.push(frames);
        }
    }

    /// Switches the uplink to the paper's MAC FQ structure (one TID per
    /// access category, WiFi CoDel defaults). Call before any traffic is
    /// queued.
    ///
    /// # Panics
    ///
    /// Panics if packets are already queued.
    pub fn enable_fq(&mut self) {
        assert_eq!(self.backlog(), 0, "enable_fq on a non-empty station");
        let mut fq = MacFq::new(FqParams::default());
        let tids = AccessCategory::ALL.map(|_| fq.register_tid());
        self.queues = UplinkQueues::Fq {
            fq,
            tids,
            codel: CodelParams::wifi_default(),
        };
    }

    /// Attaches a telemetry handle to the FQ uplink (metrics under
    /// component "client_fq"). No-op for the stock FIFO uplink, which has
    /// nothing beyond the tail-drop counter to report.
    pub fn set_telemetry(&mut self, tele: Telemetry) {
        if let UplinkQueues::Fq { fq, .. } = &mut self.queues {
            fq.set_telemetry(tele, "client_fq");
        }
    }

    /// Enables the client-side rate controller (no-op for legacy rates,
    /// which have nothing to adapt between).
    pub fn enable_rate_control(&mut self, rng: SimRng) {
        if matches!(self.rate, PhyRate::Ht { .. }) {
            self.rc = Some(Box::new(Minstrel::new(self.rate)));
            self.rng = rng;
        }
    }

    /// The station's PHY rate.
    pub fn rate(&self) -> PhyRate {
        self.rate
    }

    /// Queues an uplink packet. The ticket's `enqueued` stamp must be
    /// current (CoDel reads it under the FQ uplink). A packet dropped to
    /// make room — this one at a full FIFO — is counted in
    /// [`drops`](Self::drops) and handed to `on_drop`.
    pub fn enqueue(&mut self, t: Ticket, mut on_drop: impl FnMut(Ticket)) {
        if let Some(victim) = self.queues.enqueue(t) {
            self.drops += 1;
            on_drop(victim);
        }
    }

    /// Total packets queued (queues + stash + pending aggregates).
    pub fn backlog(&self) -> usize {
        self.queues.backlog()
            + self.stash.iter().filter(|s| s.is_some()).count()
            + self
                .pending
                .iter()
                .map(|p| p.as_ref().map_or(0, |a| a.frames.len()))
                .sum::<usize>()
    }

    /// Tickets live in the uplink's FQ arena (zero for the FIFO uplink,
    /// which queues them in plain deques). Stash and pending aggregates
    /// hold tickets outside the arena, so a fully drained station must
    /// report exactly zero.
    pub fn arena_live(&self) -> usize {
        self.queues.arena_live()
    }

    /// The highest-priority access category with traffic ready to
    /// transmit, building its aggregate if needed.
    ///
    /// `now` is needed because the FQ uplink runs CoDel at dequeue; its
    /// victims go to `on_drop`.
    pub fn best_ready_ac(
        &mut self,
        now: Nanos,
        mut on_drop: impl FnMut(Ticket),
    ) -> Option<AccessCategory> {
        for ac in AccessCategory::ALL {
            let aci = ac.index();
            let has = self.stash[aci].is_some() || self.queues.has_data(ac);
            if self.pending[aci].is_none() && has {
                let rate = match self.rc.as_mut() {
                    Some(rc) => rc.rate_for_next(&mut self.rng),
                    None => self.rate,
                };
                let queues = &mut self.queues;
                let stash = &mut self.stash[aci];
                let frames_buf = self.frame_pool.pop().unwrap_or_default();
                let (built, leftover) =
                    build_aggregate_into(self.idx, ac, rate, frames_buf, || {
                        stash.take().or_else(|| queues.pop(ac, now, &mut on_drop))
                    });
                self.stash[aci] = leftover;
                self.pending[aci] = match built {
                    Ok(agg) => Some(agg),
                    Err(buf) => {
                        if self.frame_pool.len() < FRAME_POOL_CAP && buf.capacity() > 0 {
                            self.frame_pool.push(buf);
                        }
                        None
                    }
                };
            }
            if self.pending[aci].is_some() {
                return Some(ac);
            }
        }
        None
    }

    /// The pending aggregate for `ac`, if built.
    pub fn pending(&self, ac: AccessCategory) -> Option<&Aggregate<Ticket>> {
        self.pending[ac.index()].as_ref()
    }

    /// What the network needs to settle the attempt that just left the air
    /// under `ac`: the pending aggregate, the contention window it
    /// contended with and the client's rate controller.
    pub(crate) fn attempt(
        &mut self,
        ac: AccessCategory,
    ) -> (&mut Aggregate<Ticket>, &mut u32, Option<&mut Minstrel>) {
        let agg = self.pending[ac.index()].as_mut();
        (
            agg.expect("station attempt with no pending aggregate"),
            &mut self.cw[ac.index()],
            self.rc.as_deref_mut(),
        )
    }

    /// Takes the pending aggregate for `ac` once the retry chain is done
    /// with it: delivered, or dropped at the retry limit.
    pub(crate) fn take_pending(&mut self, ac: AccessCategory) -> Aggregate<Ticket> {
        let done = self.pending[ac.index()].take();
        done.expect("settled attempt with no pending aggregate")
    }

    /// The station left: hands everything it had queued, built or stashed
    /// to `on_drop` and returns how many packets that was. What remains is
    /// an inert stand-in that accepts nothing; the network's occupancy
    /// bitmap keeps it out of contention until the slot's next occupant
    /// replaces it.
    pub(crate) fn vacate(&mut self, mut on_drop: impl FnMut(Ticket)) -> usize {
        let discarded = self.backlog();
        let gone = std::mem::replace(self, StationUplink::new(self.idx, self.rate, 0));
        match gone.queues {
            UplinkQueues::Fifo { queues, .. } => {
                queues.into_iter().flatten().for_each(&mut on_drop)
            }
            // Taken out whole, as the uplink is discarded whole: no
            // per-TID detach drops are recorded for a departed client.
            UplinkQueues::Fq { mut fq, tids, .. } => {
                for tid in tids {
                    fq.unregister_tid_migrate(tid)
                        .into_iter()
                        .for_each(&mut on_drop);
                }
            }
        }
        gone.stash.into_iter().flatten().for_each(&mut on_drop);
        let built = gone.pending.into_iter().flatten();
        built.flat_map(|agg| agg.frames).for_each(&mut on_drop);
        discarded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{NodeAddr, Packet};
    use wifiq_core::packet::FqPacket;
    use wifiq_sim::Nanos;

    fn pkt(ac: AccessCategory) -> Ticket {
        Packet {
            id: 0,
            src: NodeAddr::Station(0),
            dst: NodeAddr::Server,
            flow: 1,
            len: 1500,
            ac,
            created: Nanos::ZERO,
            enqueued: Nanos::ZERO,
            payload: (),
        }
        .loose_ticket()
    }

    /// Tickets these tests let the uplink drop, unfreed: no store here.
    fn ignore(_: Ticket) {}

    fn ready(s: &mut StationUplink) -> Option<AccessCategory> {
        s.best_ready_ac(Nanos::ZERO, ignore)
    }

    fn sta() -> StationUplink {
        StationUplink::new(0, PhyRate::fast_station(), 100)
    }

    /// One step of the retry chain on the pending best-effort aggregate,
    /// as the network's `settle` takes it.
    fn fail_or_ack(s: &mut StationUplink, success: bool, max_retries: u32) -> bool {
        let (agg, cw, rc) = s.attempt(AccessCategory::Be);
        agg.after_attempt(success, cw, rc.as_deref(), max_retries)
    }

    #[test]
    fn empty_station_has_nothing_ready() {
        let mut s = sta();
        assert_eq!(ready(&mut s), None);
        assert_eq!(s.backlog(), 0);
    }

    #[test]
    fn builds_aggregate_from_fifo() {
        let mut s = sta();
        for _ in 0..5 {
            s.enqueue(pkt(AccessCategory::Be), ignore);
        }
        assert_eq!(ready(&mut s), Some(AccessCategory::Be));
        let agg = s.pending(AccessCategory::Be).unwrap();
        assert_eq!(agg.frames.len(), 5);
        assert_eq!(s.backlog(), 5, "frames moved to pending, not lost");
    }

    #[test]
    fn vo_preempts_be() {
        let mut s = sta();
        s.enqueue(pkt(AccessCategory::Be), ignore);
        s.enqueue(pkt(AccessCategory::Vo), ignore);
        assert_eq!(ready(&mut s), Some(AccessCategory::Vo));
    }

    #[test]
    fn success_resets_cw_and_clears_pending() {
        let mut s = sta();
        s.enqueue(pkt(AccessCategory::Be), ignore);
        ready(&mut s);
        s.cw[AccessCategory::Be.index()] = 255;
        assert!(fail_or_ack(&mut s, true, 7), "acknowledged: done");
        let agg = s.take_pending(AccessCategory::Be);
        assert_eq!(agg.frames.len(), 1);
        assert_eq!(s.cw[AccessCategory::Be.index()], 15);
        assert_eq!(s.backlog(), 0);
    }

    #[test]
    fn failure_doubles_cw_until_drop() {
        let mut s = sta();
        s.enqueue(pkt(AccessCategory::Be), ignore);
        ready(&mut s);
        assert!(!fail_or_ack(&mut s, false, 2));
        assert_eq!(s.cw[AccessCategory::Be.index()], 31);
        assert!(!fail_or_ack(&mut s, false, 2));
        assert_eq!(s.cw[AccessCategory::Be.index()], 63);
        // Third failure exceeds max_retries = 2: aggregate dropped.
        assert!(fail_or_ack(&mut s, false, 2));
        assert_eq!(s.take_pending(AccessCategory::Be).retries, 3);
        assert_eq!(s.cw[AccessCategory::Be.index()], 15, "cw resets on drop");
        assert_eq!(ready(&mut s), None);
    }

    #[test]
    fn fifo_limit_tail_drops() {
        let mut s = StationUplink::new(0, PhyRate::fast_station(), 3);
        for _ in 0..5 {
            s.enqueue(pkt(AccessCategory::Be), ignore);
        }
        assert_eq!(s.drops, 2);
        assert_eq!(s.backlog(), 3);
    }

    #[test]
    fn fq_uplink_enqueues_and_builds() {
        let mut s = StationUplink::new(0, PhyRate::fast_station(), 100);
        s.enable_fq();
        for _ in 0..5 {
            s.enqueue(pkt(AccessCategory::Be), ignore);
        }
        assert_eq!(s.backlog(), 5);
        assert_eq!(ready(&mut s), Some(AccessCategory::Be));
        assert_eq!(s.pending(AccessCategory::Be).unwrap().frames.len(), 5);
    }

    #[test]
    fn fq_uplink_interleaves_flows() {
        // Two flows; the FQ uplink should interleave them in the
        // aggregate rather than serving strictly in arrival order.
        #[derive(Debug)]
        struct FlowMsg;
        let _ = FlowMsg;
        let mut s = StationUplink::new(0, PhyRate::slow_station(), 100);
        s.enable_fq();
        let mk = |flow: u64| Packet {
            id: 0,
            src: NodeAddr::Station(0),
            dst: NodeAddr::Server,
            flow,
            len: 1500,
            ac: AccessCategory::Be,
            created: Nanos::ZERO,
            enqueued: Nanos::ZERO,
            payload: (),
        };
        let sparse = mk(2).flow_hash();
        for _ in 0..6 {
            s.enqueue(mk(1).loose_ticket(), ignore);
        }
        s.enqueue(mk(2).loose_ticket(), ignore);
        // Slow rate: 2-frame aggregates. The sparse flow 2 should appear
        // in the first aggregate thanks to new-flow priority.
        ready(&mut s);
        let flows: Vec<u64> = s
            .pending(AccessCategory::Be)
            .unwrap()
            .frames
            .iter()
            .map(|t| t.flow_hash)
            .collect();
        assert!(
            flows.contains(&sparse),
            "sparse flow missing from {flows:?}"
        );
    }

    #[test]
    #[should_panic(expected = "enable_fq on a non-empty station")]
    fn enable_fq_rejects_queued_traffic() {
        let mut s = StationUplink::new(0, PhyRate::fast_station(), 100);
        s.enqueue(pkt(AccessCategory::Be), ignore);
        s.enable_fq();
    }

    #[test]
    fn leftover_goes_back_to_fifo_front() {
        // Slow rate: 4 ms cap → 2 frames per aggregate; the third pulled
        // packet must return to the FIFO head.
        let mut s = StationUplink::new(0, PhyRate::slow_station(), 100);
        for _ in 0..5 {
            s.enqueue(pkt(AccessCategory::Be), ignore);
        }
        ready(&mut s);
        assert_eq!(s.pending(AccessCategory::Be).unwrap().frames.len(), 2);
        assert_eq!(s.backlog(), 5);
        // Draining: 2 + 2 + 1.
        let mut total = s.take_pending(AccessCategory::Be).frames.len();
        while ready(&mut s).is_some() {
            total += s.take_pending(AccessCategory::Be).frames.len();
        }
        assert_eq!(total, 5);
    }
}
