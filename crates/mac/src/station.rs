//! Station-side (client) uplink stack.
//!
//! Clients are *unmodified* in all schemes — the paper's solution runs
//! only at the access point. A station therefore keeps simple per-AC
//! FIFOs (the stock qdisc + driver queueing collapsed into one queue), or
//! the paper's FQ-CoDel structure with a TID per AC ("WiFi client devices
//! can also benefit"): a [`Qdisc`] with a band per AC, the AP's legacy
//! qdisc's type. It builds aggregates from them with the standard limits.

use wifiq_phy::{AccessCategory, PhyRate};
use wifiq_qdisc::Qdisc;
use wifiq_sim::{Nanos, SimRng};
use wifiq_telemetry::Telemetry;

use crate::aggregation::{build_aggregate_into, Aggregate};
use crate::packet::{StationIdx, Ticket};
use crate::ratectrl::Minstrel;

/// Pooled frame buffers per station: one pending aggregate per AC plus a
/// little slack for the recycle round-trip.
const FRAME_POOL_CAP: usize = 8;

// The uplink queues access category `ac` in band `ac.index()`.
const _: () = assert!(wifiq_qdisc::BANDS == AccessCategory::COUNT);

/// What an uplink holds once it has queued a packet or enabled its FQ:
/// the queues, the stash and pending aggregates built from them, and the
/// frame buffers those aggregates recycle. A station that never sends
/// never allocates it.
struct Queued {
    /// FIFOs, or the FQ uplink, which is boxed: only client-FQ
    /// experiments enable it, and inline it would grow every uplink's
    /// body by 200 bytes.
    queues: Qdisc<Ticket>,
    /// A packet pulled for an aggregate that didn't fit, offered first
    /// next time (per AC).
    stash: [Option<Ticket>; AccessCategory::COUNT],
    /// A built aggregate awaiting (re)transmission, per AC.
    pending: [Option<Aggregate<Ticket>>; AccessCategory::COUNT],
    /// Recycled `Aggregate::frames` buffers (see
    /// [`StationUplink::recycle_frames`]).
    frame_pool: Vec<Vec<Ticket>>,
}

impl Queued {
    fn boxed(queues: Qdisc<Ticket>) -> Box<Queued> {
        Box::new(Queued {
            queues,
            stash: Default::default(),
            pending: Default::default(),
            frame_pool: Vec::new(),
        })
    }

    fn backlog(&self) -> usize {
        self.queues.len()
            + self.stash.iter().filter(|s| s.is_some()).count()
            + self
                .pending
                .iter()
                .map(|p| p.as_ref().map_or(0, |a| a.frames.len()))
                .sum::<usize>()
    }
}

/// One wireless client's transmit state. It holds [`Ticket`]s: the packets
/// themselves stay in the network's store, and every packet this uplink
/// drops leaves through the `on_drop` sink its caller passes.
///
/// Inline it keeps only what an idle station needs; its queues, stash,
/// pending aggregates and frame buffers are one box that the first
/// [`enqueue`](Self::enqueue) (or [`enable_fq`](Self::enable_fq))
/// allocates. Without the box the uplink answers as an empty one does,
/// and an idle station's uplink is 64 bytes.
pub struct StationUplink {
    idx: StationIdx,
    rate: PhyRate,
    /// Per-AC FIFO limit.
    limit: usize,
    /// Current contention window per AC (doubles on failure).
    pub cw: [u32; AccessCategory::COUNT],
    /// Packets tail-dropped at the uplink FIFO.
    pub drops: u64,
    /// The client's own rate controller (clients run Minstrel too;
    /// "unmodified" in the paper refers to queueing, not rate control)
    /// and the private RNG stream only it draws from for rate sampling.
    /// Boxed: 464 bytes touched once per aggregate, and absent by default.
    rc: Option<Box<(Minstrel, SimRng)>>,
    /// The queueing state, allocated at first use (see above).
    queued: Option<Box<Queued>>,
}

impl StationUplink {
    /// Creates the uplink stack for station `idx` at `rate` with the
    /// given per-AC FIFO `limit`.
    pub fn new(idx: StationIdx, rate: PhyRate, limit: usize) -> StationUplink {
        StationUplink {
            idx,
            rate,
            limit,
            cw: AccessCategory::ALL.map(|ac| ac.edca().cw_min),
            drops: 0,
            rc: None,
            queued: None,
        }
    }

    /// Returns an emptied `Aggregate::frames` buffer for the next
    /// aggregate build to reuse (the network layer calls this after
    /// delivering or dropping an uplink aggregate). An uplink without
    /// queues has no pool to keep it in and drops it.
    pub fn recycle_frames(&mut self, mut frames: Vec<Ticket>) {
        let Some(q) = self.queued.as_deref_mut() else {
            return;
        };
        frames.clear();
        if q.frame_pool.len() < FRAME_POOL_CAP && frames.capacity() > 0 {
            q.frame_pool.push(frames);
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
        self.queued = Some(Queued::boxed(Qdisc::client_fq()));
    }

    /// Attaches a telemetry handle to the FQ uplink (metrics under
    /// component "client_fq"). No-op for the stock FIFO uplink, which has
    /// nothing beyond the tail-drop counter to report.
    pub fn set_telemetry(&mut self, tele: Telemetry) {
        if let Some(Queued {
            queues: Qdisc::Fq { fq, .. },
            ..
        }) = self.queued.as_deref_mut()
        {
            fq.set_telemetry(tele, "client_fq");
        }
    }

    /// Enables the client-side rate controller, drawing its rate samples
    /// from `rng` (no-op for legacy rates, which have nothing to adapt
    /// between).
    pub fn enable_rate_control(&mut self, rng: SimRng) {
        if matches!(self.rate, PhyRate::Ht { .. }) {
            self.rc = Some(Box::new((Minstrel::new(self.rate), rng)));
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
        let q = self
            .queued
            .get_or_insert_with(|| Queued::boxed(Qdisc::fifo()));
        if let Some(victim) = q.queues.enqueue(t, t.ac.index(), self.limit, t.enqueued) {
            self.drops += 1;
            on_drop(victim);
        }
    }

    /// Total packets queued (queues + stash + pending aggregates).
    pub fn backlog(&self) -> usize {
        self.queued.as_ref().map_or(0, |q| q.backlog())
    }

    /// Tickets live in the uplink's FQ arena (zero for the FIFO uplink,
    /// which queues them in plain deques). Stash and pending aggregates
    /// hold tickets outside the arena, so a fully drained station must
    /// report exactly zero.
    pub fn arena_live(&self) -> usize {
        self.queued.as_ref().map_or(0, |q| q.queues.arena_live())
    }

    /// The highest-priority access category with traffic ready to
    /// transmit, building its aggregate if needed.
    ///
    /// `now` is needed because the FQ uplink runs CoDel at dequeue; its
    /// victims go to `on_drop`.
    #[inline]
    pub fn best_ready_ac(
        &mut self,
        now: Nanos,
        mut on_drop: impl FnMut(Ticket),
    ) -> Option<AccessCategory> {
        let q = self.queued.as_deref_mut()?;
        for ac in AccessCategory::ALL {
            let aci = ac.index();
            let has = q.stash[aci].is_some() || q.queues.has(aci);
            if q.pending[aci].is_none() && has {
                let rate = match self.rc.as_deref_mut() {
                    Some((rc, rng)) => rc.rate_for_next(rng),
                    None => self.rate,
                };
                let queues = &mut q.queues;
                let stash = &mut q.stash[aci];
                let frames_buf = q.frame_pool.pop().unwrap_or_default();
                let (built, leftover) =
                    build_aggregate_into(self.idx, ac, rate, frames_buf, || {
                        stash.take().or_else(|| queues.pop(aci, now, &mut on_drop))
                    });
                q.stash[aci] = leftover;
                q.pending[aci] = match built {
                    Ok(agg) => Some(agg),
                    Err(buf) => {
                        if q.frame_pool.len() < FRAME_POOL_CAP && buf.capacity() > 0 {
                            q.frame_pool.push(buf);
                        }
                        None
                    }
                };
            }
            if q.pending[aci].is_some() {
                return Some(ac);
            }
        }
        None
    }

    /// The pending aggregate for `ac`, if built.
    pub fn pending(&self, ac: AccessCategory) -> Option<&Aggregate<Ticket>> {
        self.queued.as_ref()?.pending[ac.index()].as_ref()
    }

    /// What the network needs to settle the attempt that just left the air
    /// under `ac`: the pending aggregate, the contention window it
    /// contended with and the client's rate controller.
    pub(crate) fn attempt(
        &mut self,
        ac: AccessCategory,
    ) -> (&mut Aggregate<Ticket>, &mut u32, Option<&mut Minstrel>) {
        let agg = self
            .queued
            .as_deref_mut()
            .and_then(|q| q.pending[ac.index()].as_mut());
        (
            agg.expect("station attempt with no pending aggregate"),
            &mut self.cw[ac.index()],
            self.rc.as_deref_mut().map(|(rc, _)| rc),
        )
    }

    /// Takes the pending aggregate for `ac` once the retry chain is done
    /// with it: delivered, or dropped at the retry limit.
    pub(crate) fn take_pending(&mut self, ac: AccessCategory) -> Aggregate<Ticket> {
        let done = self
            .queued
            .as_deref_mut()
            .and_then(|q| q.pending[ac.index()].take());
        done.expect("settled attempt with no pending aggregate")
    }

    /// The station left: hands everything it had queued, built or stashed
    /// to `on_drop` and returns how many packets that was. What remains is
    /// an inert stand-in without queues that accepts nothing; the
    /// network's occupancy bitmap keeps it out of contention until the
    /// slot's next occupant replaces it.
    pub(crate) fn vacate(&mut self, mut on_drop: impl FnMut(Ticket)) -> usize {
        let discarded = self.backlog();
        let gone = std::mem::replace(self, StationUplink::new(self.idx, self.rate, 0));
        let Some(gone) = gone.queued else {
            return discarded;
        };
        let Queued {
            queues,
            stash,
            pending,
            ..
        } = *gone;
        queues.take_all(&mut on_drop);
        stash.into_iter().flatten().for_each(&mut on_drop);
        let built = pending.into_iter().flatten();
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
    fn queues_are_allocated_at_the_first_enqueue() {
        let mut s = sta();
        assert!(s.queued.is_none(), "a fresh uplink allocated its queues");
        assert_eq!(ready(&mut s), None);
        assert!(s.queued.is_none(), "looking for traffic allocated queues");
        assert_eq!(s.pending(AccessCategory::Be).map(|a| a.frames.len()), None);
        s.enqueue(pkt(AccessCategory::Be), ignore);
        assert!(s.queued.is_some(), "the first packet found no queue");
        assert_eq!(ready(&mut s), Some(AccessCategory::Be));
        assert_eq!(s.vacate(ignore), 1);
        assert!(s.queued.is_none(), "the stand-in kept the queues");
        assert_eq!((s.backlog(), ready(&mut s)), (0, None));
    }

    #[test]
    fn vacating_an_idle_uplink_discards_nothing() {
        let mut s = sta();
        let mut dropped = 0;
        assert_eq!(s.vacate(|_| dropped += 1), 0);
        assert_eq!(dropped, 0);
        assert!(s.queued.is_none());
    }

    /// Only a station that queues pays for the box; the inline part every
    /// station pays for is guarded beside the app payload, in
    /// `wifiq-traffic` (DESIGN §13 "Where the memory goes").
    #[test]
    fn queued_body_stays_small() {
        let size = std::mem::size_of::<Queued>();
        assert!(size <= 568, "an uplink's queue box grew to {size} bytes");
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
