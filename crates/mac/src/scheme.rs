//! The access point's transmit path under each of the four queue
//! management schemes.
//!
//! The legacy path (FIFO / FQ-CoDel schemes) models the stock Linux stack
//! of Figure 2: a qdisc feeding unmanaged per-TID driver FIFOs under a
//! shared frame budget, eagerly refilled — the structure whose lower-layer
//! queueing defeats qdisc AQM and whose buffer-hogging by slow stations
//! starves fast stations' aggregation (§4.1.2).
//!
//! The FQ path (FQ-MAC / Airtime schemes) is the paper's structure of
//! Figure 3: the qdisc layer is bypassed and packets enter the MAC FQ
//! directly; stations are selected either round-robin (FQ-MAC) or by the
//! airtime-fairness scheduler (Airtime).
//!
//! Station state lives in a [`StationTable`] (DESIGN.md §14): the hot
//! per-round scheduler fields sit in the table's flat slabs, everything
//! the per-aggregate path needs (`ColdSta`) in its cold side table, and
//! the MAC FQ's TID handles in its per-slot TID stripe. All

//! station-keyed access goes through generational [`StaId`] handles; a
//! handle that outlives its station panics instead of addressing the
//! slot's next occupant.

use std::collections::VecDeque;

use wifiq_codel::{CodelParams, StationCodelParams};
use wifiq_core::fq::MacFq;
use wifiq_core::scheduler::AirtimeScheduler;
use wifiq_core::table::{StaId, StationTable};
use wifiq_phy::{AccessCategory, PhyRate};
use wifiq_qdisc::{FqCodelQdisc, PfifoFastQdisc, Qdisc};
use wifiq_sim::Nanos;
use wifiq_telemetry::Telemetry;

use crate::aggregation::{build_aggregate_into, Aggregate};
use crate::config::{NetworkConfig, SchemeKind, StationCfg};
use crate::packet::{Packet, StationIdx};

/// Upper bound on pooled frame buffers; enough to cover every hardware
/// queue slot plus in-flight recycling without holding memory forever.
const FRAME_POOL_CAP: usize = 32;

/// Driver FIFO index for the legacy path's per-TID buf_q array. This is
/// hardware-queue addressing (ath9k keys buf_q by TID number on the air),
/// not station-state access — the station store itself is only reached
/// through [`StationTable`] handles.
#[inline]
fn buf_index(slot: usize, ac: AccessCategory) -> usize {
    slot * AccessCategory::COUNT + ac.index()
}

enum LegacyQdisc<M> {
    Pfifo(PfifoFastQdisc<Packet<M>>),
    // Boxed: the FQ-CoDel qdisc is hundreds of bytes of flow state, the
    // pfifo variant a few pointers; one qdisc exists per network, so the
    // indirection is off the per-packet path.
    FqCodel(Box<FqCodelQdisc<Packet<M>>>),
}

/// `pfifo_fast`'s three-band 802.1d classification, by access category:
/// VO/VI → band 0, BE → band 1, BK → band 2.
fn pfifo_fast_band<M>(pkt: &Packet<M>) -> usize {
    match pkt.ac {
        AccessCategory::Vo | AccessCategory::Vi => 0,
        AccessCategory::Be => 1,
        AccessCategory::Bk => 2,
    }
}

impl<M> LegacyQdisc<M> {
    fn enqueue(&mut self, pkt: Packet<M>, now: Nanos) -> Option<Packet<M>> {
        match self {
            LegacyQdisc::Pfifo(q) => q.enqueue(pkt, now),
            LegacyQdisc::FqCodel(q) => q.enqueue(pkt, now),
        }
    }

    fn dequeue(&mut self, now: Nanos) -> Option<Packet<M>> {
        match self {
            LegacyQdisc::Pfifo(q) => q.dequeue(now),
            LegacyQdisc::FqCodel(q) => q.dequeue(now),
        }
    }

    fn len(&self) -> usize {
        match self {
            LegacyQdisc::Pfifo(q) => q.len(),
            LegacyQdisc::FqCodel(q) => q.len(),
        }
    }

    fn arena_live(&self) -> usize {
        match self {
            LegacyQdisc::Pfifo(q) => q.arena_live(),
            LegacyQdisc::FqCodel(q) => q.arena_live(),
        }
    }
}

enum StaSched {
    /// Per-AC round-robin over active stations (pre-airtime mainline).
    /// The lists hold station slots; `listed` is scheduler-internal
    /// bookkeeping keyed by slot, kept in step with the table's roster.
    Rr {
        lists: [VecDeque<usize>; AccessCategory::COUNT],
        listed: Vec<[bool; AccessCategory::COUNT]>,
    },
    /// The paper's airtime-fairness scheduler; all its per-station state
    /// (deficits, weights, DRR list links) lives in the station table.
    Airtime(AirtimeScheduler),
}

// One instance exists per network and the `fq` field sits on the
// per-packet path, so boxing to shrink the enum would trade a few
// hundred one-off bytes for an extra pointer chase per packet.
#[allow(clippy::large_enum_variant)]
enum PathInner<M> {
    Legacy {
        qdisc: LegacyQdisc<M>,
        /// Per-TID driver FIFOs (ath9k's buf_q), indexed by [`buf_index`].
        bufq: Vec<VecDeque<Packet<M>>>,
        buf_total: usize,
        buf_cap: usize,
        /// Per-AC round-robin of TIDs with queued frames.
        rr: [VecDeque<usize>; AccessCategory::COUNT],
        listed: Vec<bool>,
    },
    Fq {
        fq: MacFq<Packet<M>>,
        sched: StaSched,
    },
}

/// Per-station state off the per-round scheduling path, stored in the
/// station table's cold side table: the per-aggregate build path touches
/// it once per aggregate, not once per round.
struct ColdSta<M> {
    /// The rate the next aggregate for this station builds at.
    rate: PhyRate,
    /// Per-station CoDel parameter selection (§3.1.1).
    codel: StationCodelParams,
    /// One parked packet per AC: pulled for an aggregate but didn't fit
    /// (the retry_q head slot of Figure 3).
    stash: [Option<Packet<M>>; AccessCategory::COUNT],
}

/// The AP transmit path: scheme-specific queueing plus station selection
/// and aggregate construction.
pub struct ApTxPath<M> {
    kind: SchemeKind,
    inner: PathInner<M>,
    /// The station store: occupancy, generational handles, the airtime
    /// scheduler's hot slabs, the FQ TID-handle stripe, and `ColdSta`.
    table: StationTable<ColdSta<M>>,
    /// Remembered so stations added after construction get the same CoDel
    /// parameter policy as the initial roster.
    adaptive_codel: bool,
    /// Packets dropped at AP queueing layers (qdisc tail-drop, FQ
    /// overlimit; CoDel drops are counted by the FQ structures).
    pub queue_drops: u64,
    /// Recycled `Aggregate::frames` buffers: built aggregates draw from
    /// here and the network layer returns the emptied Vec after TX, so
    /// the steady state allocates no frame buffers at all.
    frame_pool: Vec<Vec<Packet<M>>>,
    tele: Telemetry,
}

/// CoDel parameter state for one station under the configured policy.
fn codel_params_for(adaptive: bool) -> StationCodelParams {
    if adaptive {
        StationCodelParams::new()
    } else {
        // Ablation: pin the global defaults regardless of rate.
        StationCodelParams::with_config(
            CodelParams::wifi_default(),
            CodelParams::wifi_default(),
            0,
            Nanos::ZERO,
        )
    }
}

impl<M: std::fmt::Debug> ApTxPath<M> {
    /// Builds the transmit path for the configured scheme.
    pub fn new(cfg: &NetworkConfig) -> ApTxPath<M> {
        let n = cfg.num_stations();
        let inner = match cfg.scheme {
            SchemeKind::Fifo | SchemeKind::FqCodelQdisc => PathInner::Legacy {
                qdisc: if cfg.scheme == SchemeKind::Fifo {
                    LegacyQdisc::Pfifo(PfifoFastQdisc::new(3, cfg.pfifo_limit, pfifo_fast_band))
                } else {
                    LegacyQdisc::FqCodel(Box::new(FqCodelQdisc::with_defaults()))
                },
                bufq: Vec::new(),
                buf_total: 0,
                buf_cap: cfg.driver_buf_frames,
                rr: Default::default(),
                listed: Vec::new(),
            },
            SchemeKind::FqMac | SchemeKind::AirtimeFair => {
                let fq = MacFq::new(cfg.fq);
                let sched = if cfg.scheme == SchemeKind::FqMac {
                    StaSched::Rr {
                        lists: Default::default(),
                        listed: Vec::new(),
                    }
                } else {
                    StaSched::Airtime(AirtimeScheduler::new(cfg.airtime))
                };
                PathInner::Fq { fq, sched }
            }
        };
        let mut path = ApTxPath {
            kind: cfg.scheme,
            inner,
            table: StationTable::with_capacity(n),
            adaptive_codel: cfg.adaptive_codel,
            queue_drops: 0,
            frame_pool: Vec::new(),
            tele: Telemetry::disabled(),
        };
        for station in &cfg.stations {
            path.add_station(station);
        }
        path
    }

    /// Returns an emptied `Aggregate::frames` buffer to the pool for the
    /// next [`build`](Self::build) to reuse. Buffers beyond the pool cap
    /// are simply dropped.
    pub fn recycle_frames(&mut self, mut frames: Vec<Packet<M>>) {
        frames.clear();
        if self.frame_pool.len() < FRAME_POOL_CAP && frames.capacity() > 0 {
            self.frame_pool.push(frames);
        }
    }

    /// Pooled frame buffers currently available.
    #[cfg(test)]
    fn frame_pool_len(&self) -> usize {
        self.frame_pool.len()
    }

    /// Attaches a station to the transmit path, reusing the most recently
    /// removed slot when one is free (otherwise growing every per-slot
    /// table). Returns the generational handle for the new station.
    ///
    /// Slot reuse relies on the LIFO lockstep between the table's free
    /// list and the FQ structure's TID free list: both are pushed/popped
    /// only from here, so a reused slot always reclaims the TID set it
    /// released — and because the actual TID handles are stored in the
    /// table's stripe, nothing downstream depends on that arithmetic.
    pub fn add_station(&mut self, station: &StationCfg) -> StaId {
        let cold = ColdSta {
            rate: station.rate,
            codel: codel_params_for(self.adaptive_codel),
            stash: Default::default(),
        };
        let id = match &mut self.inner {
            PathInner::Fq {
                sched: StaSched::Airtime(s),
                ..
            } => {
                let id = s.register_station(&mut self.table, cold);
                self.table.set_weight(id, station.airtime_weight);
                id
            }
            _ => self.table.alloc(cold),
        };
        let slot = id.slot();
        self.table
            .cold_mut(id)
            .codel
            .set_telemetry(&self.tele, slot as u32);
        match &mut self.inner {
            PathInner::Legacy { bufq, listed, .. } => {
                while bufq.len() < (slot + 1) * AccessCategory::COUNT {
                    bufq.push(VecDeque::new());
                    listed.push(false);
                }
            }
            PathInner::Fq { fq, sched } => {
                for ac in 0..AccessCategory::COUNT {
                    let tid = fq.register_tid();
                    debug_assert_eq!(
                        tid.slot() / AccessCategory::COUNT,
                        slot,
                        "TID free list out of lockstep with station slots"
                    );
                    self.table.set_tid(id, ac, tid);
                }
                if let StaSched::Rr { listed, .. } = sched {
                    while listed.len() <= slot {
                        listed.push([false; AccessCategory::COUNT]);
                    }
                    listed[slot] = [false; AccessCategory::COUNT];
                }
            }
        }
        id
    }

    /// Detaches a station: the single teardown path shared by churn
    /// removal and roaming hand-off. Drops or hands back every frame
    /// queued for the station at the AP (stash, driver FIFOs or FQ
    /// flows), pulls its TIDs/slot out of all scheduling lists mid-round
    /// without disturbing the survivors' rotation order or deficits, and
    /// frees the table slot — which bumps the generation, so every
    /// outstanding handle to the station goes stale. Returns the frames
    /// handed back (`migrate`) and the number dropped (otherwise).
    pub(crate) fn detach_station(
        &mut self,
        id: StaId,
        now: Nanos,
        migrate: bool,
    ) -> (Vec<Packet<M>>, usize) {
        let mut moved: Vec<Packet<M>> = Vec::new();
        let mut dropped = 0usize;
        // `cold_mut` validates the handle (stale/double-free panics here).
        for ac in 0..AccessCategory::COUNT {
            if let Some(p) = self.table.cold_mut(id).stash[ac].take() {
                if migrate {
                    moved.push(p);
                } else {
                    dropped += 1;
                }
            }
        }
        let slot = id.slot();
        match &mut self.inner {
            PathInner::Legacy {
                qdisc,
                bufq,
                buf_total,
                rr,
                listed,
                ..
            } => {
                // Packets for the station may still sit in the shared
                // qdisc; those surface into bufq via pull_from_qdisc and
                // are only discarded when addressed to a freed slot at the
                // network layer. Here we clear the driver FIFOs, which
                // also releases the shared frame budget they pinned.
                for ac in AccessCategory::ALL {
                    let tid = buf_index(slot, ac);
                    *buf_total -= bufq[tid].len();
                    if migrate {
                        moved.extend(bufq[tid].drain(..));
                    } else {
                        dropped += bufq[tid].len();
                        bufq[tid].clear();
                    }
                    if listed[tid] {
                        rr[ac.index()].retain(|&t| t != tid);
                        listed[tid] = false;
                    }
                }
                // Only the pfifo qdisc can be filtered per-station; the
                // shared FQ-CoDel qdisc's stale frames surface and are
                // discarded later, exactly as under churn.
                if migrate {
                    if let LegacyQdisc::Pfifo(q) = qdisc {
                        moved.extend(q.drain_matching(|p| p.wireless_peer() == slot));
                    }
                }
            }
            PathInner::Fq { fq, sched } => {
                for ac in 0..AccessCategory::COUNT {
                    let tid = self.table.tid(id, ac);
                    if migrate {
                        moved.extend(fq.unregister_tid_migrate(tid));
                    } else {
                        dropped += fq.unregister_tid(tid, now);
                    }
                }
                if let StaSched::Rr { lists, listed } = sched {
                    for (aci, l) in lists.iter_mut().enumerate() {
                        if listed[slot][aci] {
                            l.retain(|&x| x != slot);
                            listed[slot][aci] = false;
                        }
                    }
                }
                // Airtime: `table.free` below unlinks the station from the
                // DRR lists without touching the survivors.
            }
        }
        self.table.free(id);
        (moved, dropped)
    }

    /// Detaches a station under churn, dropping every frame queued for it
    /// at the AP. Returns the number of packets dropped. The handle goes
    /// stale; the slot is parked for reuse.
    pub fn remove_station(&mut self, id: StaId, now: Nanos) -> usize {
        self.detach_station(id, now, false).1
    }

    /// Detaches a station like [`remove_station`](Self::remove_station),
    /// but hands back every frame queued for it at the AP (stash, driver
    /// FIFOs, MAC FQ flows, and — for the pfifo qdiscs — the shared
    /// qdisc) so a roaming hand-off can carry them to the target BSS.
    pub fn remove_station_migrate(&mut self, id: StaId) -> Vec<Packet<M>> {
        self.detach_station(id, Nanos::ZERO, true).0
    }

    /// The current generational handle for the station at `slot`, or
    /// `None` if the slot is empty. Wire addressing (packets, aggregates)
    /// speaks slots; everything stateful speaks handles — this is the
    /// bridge.
    pub fn sta_id(&self, slot: StationIdx) -> Option<StaId> {
        self.table.id_at(slot)
    }

    /// Whether slot `sta` currently hosts a station.
    pub fn station_active(&self, sta: StationIdx) -> bool {
        self.table.id_at(sta).is_some()
    }

    /// Whether `id` still addresses a live station (i.e. the station has
    /// not been removed since the handle was issued).
    pub fn station_current(&self, id: StaId) -> bool {
        self.table.is_current(id)
    }

    /// Re-writes one station's per-AC airtime weights (compiled policy
    /// output). Deficits are untouched — the scheduler picks the new
    /// weights up at the station's next replenishment — so applying a
    /// policy switch never disturbs stations whose weights are unchanged.
    /// A no-op under the non-airtime schemes.
    pub fn set_station_weights(&mut self, id: StaId, weights: [u32; AccessCategory::COUNT]) {
        if let PathInner::Fq {
            sched: StaSched::Airtime(_),
            ..
        } = &self.inner
        {
            if self.table.is_current(id) {
                self.table.set_ac_weights(id, weights);
            }
        }
    }

    /// One station's current airtime weight at `ac` (test/telemetry
    /// probe); `None` under the non-airtime schemes or for a stale handle.
    pub fn station_ac_weight(&self, id: StaId, ac: AccessCategory) -> Option<u32> {
        match &self.inner {
            PathInner::Fq {
                sched: StaSched::Airtime(_),
                ..
            } if self.table.is_current(id) => Some(self.table.ac_weight(id, ac.index())),
            _ => None,
        }
    }

    /// Number of station slots ever allocated (active + tombstoned).
    pub fn station_slots(&self) -> usize {
        self.table.slots()
    }

    /// Attaches a telemetry handle, propagating it to the MAC FQ structure
    /// (metrics under component "fq") and the per-station CoDel parameter
    /// switches (component "codel").
    pub fn set_telemetry(&mut self, tele: Telemetry) {
        if let PathInner::Fq { fq, .. } = &mut self.inner {
            fq.set_telemetry(tele.clone(), "fq");
        }
        let ids: Vec<StaId> = self.table.iter().collect();
        for id in ids {
            self.table
                .cold_mut(id)
                .codel
                .set_telemetry(&tele, id.slot() as u32);
        }
        self.tele = tele;
    }

    /// The scheme this path implements.
    pub fn kind(&self) -> SchemeKind {
        self.kind
    }

    /// Total packets queued at the AP (qdisc + driver, or MAC FQ),
    /// excluding stashed frames.
    pub fn backlog(&self) -> usize {
        match &self.inner {
            PathInner::Legacy {
                qdisc, buf_total, ..
            } => qdisc.len() + buf_total,
            PathInner::Fq { fq, .. } => fq.total_packets(),
        }
    }

    /// Frames pulled for an aggregate that did not fit, waiting in their
    /// station's stash — what [`ApTxPath::backlog`] leaves out.
    #[cfg(test)]
    pub(crate) fn stashed(&self) -> usize {
        self.table
            .iter()
            .map(|id| self.table.cold(id).stash.iter().flatten().count())
            .sum()
    }

    /// Packets live in the path's packet arena — the teardown audit's
    /// counterpart to [`ApTxPath::backlog`]. Stashed frames and driver
    /// FIFOs hold owned packets outside the arena, so after a full drain
    /// this must be exactly zero: any residue is a leaked arena slot.
    pub fn arena_live(&self) -> usize {
        match &self.inner {
            PathInner::Legacy { qdisc, .. } => qdisc.arena_live(),
            PathInner::Fq { fq, .. } => fq.arena_live(),
        }
    }

    /// Whether `(id, ac)` has pending data (stash included).
    fn tid_has_data(&self, id: StaId, ac: AccessCategory) -> bool {
        if self.table.cold(id).stash[ac.index()].is_some() {
            return true;
        }
        match &self.inner {
            PathInner::Legacy { bufq, .. } => !bufq[buf_index(id.slot(), ac)].is_empty(),
            PathInner::Fq { fq, .. } => fq.tid_has_data(self.table.tid(id, ac.index())),
        }
    }

    /// Accepts a downlink packet from the IP layer. The packet must have
    /// `enqueued` stamped with the current time.
    pub fn enqueue(&mut self, pkt: Packet<M>, now: Nanos) {
        let slot = pkt.wireless_peer();
        let ac = pkt.ac;
        match &mut self.inner {
            PathInner::Legacy { qdisc, .. } => {
                debug_assert!(
                    self.table.id_at(slot).is_some(),
                    "enqueue for a removed station"
                );
                if qdisc.enqueue(pkt, now).is_some() {
                    self.queue_drops += 1;
                }
                self.pull_from_qdisc(now);
            }
            PathInner::Fq { fq, sched } => {
                let id = self
                    .table
                    .id_at(slot)
                    .expect("enqueue for a removed station");
                let tid = self.table.tid(id, ac.index());
                if fq.enqueue(pkt, tid, now).is_some() {
                    self.queue_drops += 1;
                }
                match sched {
                    StaSched::Rr { lists, listed } => {
                        if !listed[slot][ac.index()] {
                            listed[slot][ac.index()] = true;
                            lists[ac.index()].push_back(slot);
                        }
                    }
                    StaSched::Airtime(s) => s.notify_active(&mut self.table, id, ac.index()),
                }
            }
        }
    }

    /// Eagerly moves packets from the qdisc into the driver FIFOs while
    /// the shared frame budget allows — the unmanaged lower-layer
    /// queueing of Figure 2.
    fn pull_from_qdisc(&mut self, now: Nanos) {
        let PathInner::Legacy {
            qdisc,
            bufq,
            buf_total,
            buf_cap,
            rr,
            listed,
        } = &mut self.inner
        else {
            return;
        };
        while *buf_total < *buf_cap {
            let Some(pkt) = qdisc.dequeue(now) else { break };
            // The shared qdisc cannot be filtered on removal; frames for a
            // since-departed station are discarded as they surface.
            if self.table.id_at(pkt.wireless_peer()).is_none() {
                self.queue_drops += 1;
                continue;
            }
            let tid = buf_index(pkt.wireless_peer(), pkt.ac);
            let ac = pkt.ac.index();
            bufq[tid].push_back(pkt);
            *buf_total += 1;
            if !listed[tid] {
                listed[tid] = true;
                rr[ac].push_back(tid);
            }
        }
    }

    /// Picks the station whose TID should build the next aggregate at
    /// access category `ac`, or `None` if nothing is pending there.
    ///
    /// `eligible` lets the driver veto stations this refill round (the
    /// AQL mechanism: a station whose hardware-queued airtime exceeds its
    /// budget is treated as having nothing to send, and is rotated out of
    /// the scheduling lists exactly like an empty station). It applies to
    /// the FQ paths only — AQL post-dates the legacy stack. A vetoed
    /// station with remaining traffic must be re-listed via
    /// [`reactivate`](Self::reactivate) once its hardware airtime drains.
    pub fn next_tx(
        &mut self,
        ac: AccessCategory,
        _now: Nanos,
        eligible: impl Fn(StaId) -> bool,
    ) -> Option<StaId> {
        let aci = ac.index();
        match &mut self.inner {
            PathInner::Legacy {
                bufq, rr, listed, ..
            } => loop {
                let &tid = rr[aci].front()?;
                let slot = tid / AccessCategory::COUNT;
                let stashed = self
                    .table
                    .cold_at(slot)
                    .is_some_and(|c| c.stash[aci].is_some());
                if stashed || !bufq[tid].is_empty() {
                    // Teardown unlists a departing station's TIDs, so the
                    // slot at the front is always occupied.
                    return self.table.id_at(slot);
                }
                rr[aci].pop_front();
                listed[tid] = false;
            },
            PathInner::Fq { fq, sched } => match sched {
                StaSched::Rr { lists, listed } => loop {
                    let &slot = lists[aci].front()?;
                    let id = self.table.id_at(slot)?;
                    let tid = self.table.tid(id, aci);
                    let has = (self.table.cold(id).stash[aci].is_some() || fq.tid_has_data(tid))
                        && eligible(id);
                    if has {
                        return Some(id);
                    }
                    lists[aci].pop_front();
                    listed[slot][aci] = false;
                },
                StaSched::Airtime(s) => {
                    let fq_ref = &*fq;
                    s.next_station(&mut self.table, aci, |t, id| {
                        (t.cold(id).stash[aci].is_some() || fq_ref.tid_has_data(t.tid(id, aci)))
                            && eligible(id)
                    })
                }
            },
        }
    }

    /// Re-lists a station that still has queued traffic but was rotated
    /// out of the scheduling lists (AQL veto, or a race between drain and
    /// enqueue). Idempotent.
    ///
    /// Under the airtime scheduler this re-enters via the *new* list
    /// (sparse priority). That is benign for the stations AQL vetoes:
    /// they are heavy airtime users whose deficits are deeply negative,
    /// so the deficit check rotates them straight to the old list before
    /// any priority is realised.
    pub fn reactivate(&mut self, id: StaId, ac: AccessCategory) {
        if !self.tid_has_data(id, ac) {
            return;
        }
        let aci = ac.index();
        if let PathInner::Fq { sched, .. } = &mut self.inner {
            match sched {
                StaSched::Rr { lists, listed } => {
                    let slot = id.slot();
                    if !listed[slot][aci] {
                        listed[slot][aci] = true;
                        lists[aci].push_back(slot);
                    }
                }
                StaSched::Airtime(s) => s.notify_active(&mut self.table, id, aci),
            }
        }
    }

    /// Builds an aggregate for `(id, ac)` and performs the scheme's
    /// post-build rotation (RR advance). Returns `None` if the TID turned
    /// out to be empty (e.g. CoDel dropped its remaining packets).
    pub fn build(&mut self, id: StaId, ac: AccessCategory, now: Nanos) -> Option<Aggregate<M>> {
        let slot = id.slot();
        let rate = self.table.cold(id).rate;
        let codel_params = self.table.cold(id).codel.current();
        let fq_tid = match &self.inner {
            PathInner::Fq { .. } => self.table.tid(id, ac.index()),
            PathInner::Legacy { .. } => wifiq_core::table::TidId::NONE,
        };
        let stash_slot = &mut self.table.cold_mut(id).stash[ac.index()];
        let frames_buf = self.frame_pool.pop().unwrap_or_default();

        let (built, leftover) = match &mut self.inner {
            PathInner::Legacy {
                bufq, buf_total, ..
            } => {
                let q = &mut bufq[buf_index(slot, ac)];
                let mut taken = 0usize;
                let (built, leftover) = build_aggregate_into(slot, ac, rate, frames_buf, || {
                    if let Some(p) = stash_slot.take() {
                        return Some(p);
                    }
                    let p = q.pop_front();
                    if p.is_some() {
                        taken += 1;
                    }
                    p
                });
                *buf_total -= taken;
                (built, leftover)
            }
            PathInner::Fq { fq, .. } => build_aggregate_into(slot, ac, rate, frames_buf, || {
                if let Some(p) = stash_slot.take() {
                    return Some(p);
                }
                fq.dequeue(fq_tid, now, &codel_params)
            }),
        };
        self.table.cold_mut(id).stash[ac.index()] = leftover;
        let agg = match built {
            Ok(agg) => Some(agg),
            Err(buf) => {
                // Nothing to send: hand the untouched buffer back.
                if self.frame_pool.len() < FRAME_POOL_CAP && buf.capacity() > 0 {
                    self.frame_pool.push(buf);
                }
                None
            }
        };

        // Post-build rotation for the round-robin schemes; the airtime
        // scheduler rotates via deficits instead.
        let aci = ac.index();
        match &mut self.inner {
            PathInner::Legacy { rr, .. } => {
                let tid = buf_index(slot, ac);
                if let Some(&front) = rr[aci].front() {
                    if front == tid {
                        rr[aci].pop_front();
                        rr[aci].push_back(tid);
                    }
                }
            }
            PathInner::Fq { sched, .. } => {
                if let StaSched::Rr { lists, .. } = sched {
                    if let Some(&front) = lists[aci].front() {
                        if front == slot {
                            lists[aci].pop_front();
                            lists[aci].push_back(slot);
                        }
                    }
                }
            }
        }

        // Refill the driver FIFOs from the qdisc after taking frames out.
        self.pull_from_qdisc(now);
        agg
    }

    /// Reports a completed transmission attempt's airtime (TX direction):
    /// charges the airtime scheduler and refreshes the station's CoDel
    /// parameters from `rate_estimate_bps` — the station's current
    /// throughput estimate, which is the configured rate under static
    /// rate control or the Minstrel estimate when rate control runs
    /// (§3.1.1: "obtained from the rate selection algorithm").
    ///
    /// Callers resolve the handle from the aggregate's wire slot at
    /// completion time; an exchange completing after its target departed
    /// simply finds no current handle and never reaches this method.
    pub fn on_tx_airtime(
        &mut self,
        id: StaId,
        ac: AccessCategory,
        airtime: Nanos,
        now: Nanos,
        rate_estimate_bps: u64,
    ) {
        if let PathInner::Fq {
            sched: StaSched::Airtime(s),
            ..
        } = &mut self.inner
        {
            s.charge(&mut self.table, id, ac.index(), airtime);
        }
        self.table.cold_mut(id).codel.update_rate_observed(
            now,
            rate_estimate_bps,
            &self.tele,
            id.slot() as u32,
        );
    }

    /// The rate the next aggregate for the station will be built at.
    pub fn rate_of(&self, id: StaId) -> PhyRate {
        self.table.cold(id).rate
    }

    /// Whether the §3.1.1 slow-station CoDel parameters are currently
    /// active for the station (recovery tracking for fault injection).
    pub fn codel_degraded(&self, id: StaId) -> bool {
        self.table.cold(id).codel.is_degraded()
    }

    /// Overrides the downlink rate for the station (driven by the rate
    /// controller between aggregates).
    pub fn set_rate(&mut self, id: StaId, rate: PhyRate) {
        self.table.cold_mut(id).rate = rate;
    }

    /// Charges *received* airtime to a station's deficit (§3.2 point 2:
    /// "also accounting the airtime from received frames"), unless the
    /// scheduler is configured for TX-only accounting (ablation).
    pub fn on_rx_airtime(&mut self, id: StaId, ac: AccessCategory, airtime: Nanos) {
        if let PathInner::Fq {
            sched: StaSched::Airtime(s),
            ..
        } = &mut self.inner
        {
            if s.params().charge_rx {
                s.charge(&mut self.table, id, ac.index(), airtime);
            }
        }
    }

    /// Whether any station at `ac` has pending data (stash included).
    pub fn has_data_at(&self, ac: AccessCategory) -> bool {
        self.table.iter().any(|id| self.tid_has_data(id, ac))
    }

    /// CoDel drop count accumulated in the MAC FQ (0 for legacy paths; the
    /// FQ-CoDel qdisc's own drops are internal to it).
    pub fn codel_drops(&self) -> u64 {
        match &self.inner {
            PathInner::Legacy { qdisc, .. } => match qdisc {
                LegacyQdisc::FqCodel(q) => q.codel_drops(),
                LegacyQdisc::Pfifo(_) => 0,
            },
            PathInner::Fq { fq, .. } => fq.stats.drops_codel,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::NodeAddr;

    type P = Packet<()>;

    fn cfg(scheme: SchemeKind) -> NetworkConfig {
        NetworkConfig::paper_testbed(scheme)
    }

    fn pkt(sta: StationIdx, flow: u64, now: Nanos) -> P {
        Packet {
            id: 0,
            src: NodeAddr::Server,
            dst: NodeAddr::Station(sta),
            flow,
            len: 1500,
            ac: AccessCategory::Be,
            created: now,
            enqueued: now,
            payload: (),
        }
    }

    fn drain_one(path: &mut ApTxPath<()>, now: Nanos) -> Option<Aggregate<()>> {
        let id = path.next_tx(AccessCategory::Be, now, |_| true)?;
        path.build(id, AccessCategory::Be, now)
    }

    /// Frames parked in a station slot's stash (test probe).
    fn stashed(path: &ApTxPath<()>, slot: usize) -> usize {
        path.table
            .cold_at(slot)
            .map_or(0, |c| c.stash.iter().filter(|s| s.is_some()).count())
    }

    #[test]
    fn all_schemes_pass_packets_through() {
        for scheme in SchemeKind::ALL {
            let mut path: ApTxPath<()> = ApTxPath::new(&cfg(scheme));
            let now = Nanos::ZERO;
            for i in 0..10 {
                path.enqueue(pkt(0, 1, Nanos::from_micros(i)), now);
            }
            let agg = drain_one(&mut path, now).unwrap_or_else(|| panic!("{scheme}: no aggregate"));
            assert_eq!(agg.station, 0);
            assert!(!agg.frames.is_empty());
        }
    }

    #[test]
    fn legacy_driver_budget_is_shared() {
        // Fill with slow-station packets first; the driver budget (128)
        // should be consumed by station 2's TID, leaving the fast
        // station's packets in the qdisc.
        let mut path: ApTxPath<()> = ApTxPath::new(&cfg(SchemeKind::Fifo));
        let now = Nanos::ZERO;
        for i in 0..500 {
            path.enqueue(pkt(2, 1, Nanos::from_nanos(i)), now);
        }
        for i in 0..100 {
            path.enqueue(pkt(0, 2, Nanos::from_nanos(1000 + i)), now);
        }
        // Driver holds 128 slow frames; fast station cannot transmit more
        // than what trickles in later — right now its bufq is empty, so
        // the only serviceable TID is the slow one.
        let agg = drain_one(&mut path, now).unwrap();
        assert_eq!(agg.station, 2, "slow station hogs the driver buffer");
    }

    #[test]
    fn fq_mac_keeps_stations_separate() {
        let mut path: ApTxPath<()> = ApTxPath::new(&cfg(SchemeKind::FqMac));
        let now = Nanos::ZERO;
        for i in 0..200 {
            path.enqueue(pkt(2, 1, Nanos::from_nanos(i)), now);
        }
        for i in 0..50 {
            path.enqueue(pkt(0, 2, Nanos::from_nanos(1000 + i)), now);
        }
        // RR alternates stations even though the slow one queued first.
        let a = drain_one(&mut path, now).unwrap();
        let b = drain_one(&mut path, now).unwrap();
        assert_ne!(a.station, b.station, "RR must alternate stations");
    }

    #[test]
    fn airtime_scheme_charges_affect_selection() {
        let mut path: ApTxPath<()> = ApTxPath::new(&cfg(SchemeKind::AirtimeFair));
        let now = Nanos::ZERO;
        for i in 0..100 {
            path.enqueue(pkt(0, 1, Nanos::from_nanos(i)), now);
            path.enqueue(pkt(1, 2, Nanos::from_nanos(i)), now);
        }
        let first = path.next_tx(AccessCategory::Be, now, |_| true).unwrap();
        // Charge the first station heavily; the other must be selected.
        path.on_tx_airtime(
            first,
            AccessCategory::Be,
            Nanos::from_millis(5),
            now,
            144_000_000,
        );
        let second = path.next_tx(AccessCategory::Be, now, |_| true).unwrap();
        assert_ne!(first, second);
    }

    #[test]
    fn stash_is_offered_first() {
        let mut path: ApTxPath<()> = ApTxPath::new(&cfg(SchemeKind::FqMac));
        let now = Nanos::ZERO;
        // 50 packets for the slow station: the 4 ms cap means 2 frames per
        // aggregate and one stashed.
        for i in 0..50 {
            path.enqueue(pkt(2, 1, Nanos::from_nanos(i)), now);
        }
        let a = drain_one(&mut path, now).unwrap();
        assert_eq!(a.station, 2);
        assert_eq!(a.frames.len(), 2);
        // Total conservation across repeated builds.
        let mut total = a.frames.len();
        while let Some(agg) = drain_one(&mut path, now) {
            total += agg.frames.len();
        }
        assert_eq!(total, 50, "stashed packets must not be lost");
    }

    #[test]
    fn backlog_reports_queued_packets() {
        for scheme in SchemeKind::ALL {
            let mut path: ApTxPath<()> = ApTxPath::new(&cfg(scheme));
            let now = Nanos::ZERO;
            for i in 0..20 {
                path.enqueue(pkt(0, 1, Nanos::from_nanos(i)), now);
            }
            assert_eq!(path.backlog(), 20, "{scheme}");
            assert!(path.has_data_at(AccessCategory::Be), "{scheme}");
            assert!(!path.has_data_at(AccessCategory::Vo), "{scheme}");
        }
    }

    #[test]
    fn eligibility_veto_and_reactivate() {
        let mut path: ApTxPath<()> = ApTxPath::new(&cfg(SchemeKind::AirtimeFair));
        let now = Nanos::ZERO;
        for i in 0..20 {
            path.enqueue(pkt(0, 1, Nanos::from_nanos(i)), now);
        }
        let id0 = path.sta_id(0).unwrap();
        // Vetoed: the scheduler treats station 0 as empty and, having no
        // other candidates, returns None (rotating it off the lists).
        assert_eq!(path.next_tx(AccessCategory::Be, now, |_| false), None);
        // Without reactivation the station stays invisible even though
        // its queue is non-empty.
        assert_eq!(path.next_tx(AccessCategory::Be, now, |_| true), None);
        // Reactivate re-lists it.
        path.reactivate(id0, AccessCategory::Be);
        assert_eq!(path.next_tx(AccessCategory::Be, now, |_| true), Some(id0));
        // Reactivating an empty station is a no-op.
        let mut drained = 0;
        while drain_one(&mut path, now).is_some() {
            drained += 1;
        }
        assert!(drained >= 1);
        path.reactivate(id0, AccessCategory::Be);
        assert_eq!(path.next_tx(AccessCategory::Be, now, |_| true), None);
    }

    #[test]
    fn remove_then_readd_station_reuses_slot() {
        for scheme in SchemeKind::ALL {
            let mut path: ApTxPath<()> = ApTxPath::new(&cfg(scheme));
            let now = Nanos::ZERO;
            for i in 0..30 {
                path.enqueue(pkt(0, 1, Nanos::from_nanos(i)), now);
                path.enqueue(pkt(1, 2, Nanos::from_nanos(i)), now);
            }
            let id1 = path.sta_id(1).unwrap();
            path.remove_station(id1, now);
            assert!(!path.station_active(1), "{scheme}");
            assert!(!path.station_current(id1), "{scheme}: handle not stale");
            while let Some(agg) = drain_one(&mut path, now) {
                assert_ne!(agg.station, 1, "{scheme}: removed station was scheduled");
            }
            assert_eq!(path.backlog(), 0, "{scheme}: backlog left behind");
            let readded = path.add_station(&StationCfg::clean(PhyRate::fast_station()));
            assert_eq!(readded.slot(), 1, "{scheme}: LIFO slot reuse");
            assert_ne!(readded, id1, "{scheme}: generation not bumped on reuse");
            assert_eq!(path.station_slots(), 3, "{scheme}: slot table grew");
            path.enqueue(pkt(1, 3, now), now);
            let agg = drain_one(&mut path, now).expect("readded station must transmit");
            assert_eq!(agg.station, 1, "{scheme}");
        }
    }

    #[test]
    #[should_panic(expected = "stale station handle")]
    fn stale_handle_panics_on_use() {
        let mut path: ApTxPath<()> = ApTxPath::new(&cfg(SchemeKind::AirtimeFair));
        let now = Nanos::ZERO;
        let id1 = path.sta_id(1).unwrap();
        path.remove_station(id1, now);
        path.add_station(&StationCfg::clean(PhyRate::fast_station()));
        // The slot is occupied again, but this handle predates the churn.
        path.rate_of(id1);
    }

    #[test]
    fn remove_station_migrate_carries_queued_frames() {
        for scheme in SchemeKind::ALL {
            let mut path: ApTxPath<()> = ApTxPath::new(&cfg(scheme));
            let now = Nanos::ZERO;
            for i in 0..30 {
                path.enqueue(pkt(1, 1, Nanos::from_nanos(i)), now);
                path.enqueue(pkt(0, 2, Nanos::from_nanos(i)), now);
            }
            // One build may park a leftover frame in station 1's stash;
            // the migrate must pick that up too.
            while let Some(agg) = drain_one(&mut path, now) {
                if agg.station == 1 {
                    break;
                }
            }
            let before = path.backlog() + stashed(&path, 1);
            let id1 = path.sta_id(1).unwrap();
            let moved = path.remove_station_migrate(id1);
            assert!(!path.station_active(1), "{scheme}");
            assert!(
                moved.iter().all(|p| p.wireless_peer() == 1),
                "{scheme}: migrated a bystander's frame"
            );
            // Under FQ-CoDel the shared qdisc keeps station 1's frames
            // (cannot be filtered); everywhere else the AP must hold no
            // frame for the roamer any more.
            if scheme != SchemeKind::FqCodelQdisc {
                assert_eq!(
                    path.backlog() + stashed(&path, 1) + moved.len(),
                    before,
                    "{scheme}: frames vanished in migration"
                );
                while let Some(agg) = drain_one(&mut path, now) {
                    assert_ne!(agg.station, 1, "{scheme}: roamer still scheduled");
                }
            }
            // The slot is reusable, exactly as after a plain removal.
            let readded = path.add_station(&StationCfg::clean(PhyRate::fast_station()));
            assert_eq!(readded.slot(), 1, "{scheme}: LIFO slot reuse after migrate");
        }
    }

    #[test]
    fn add_station_grows_roster() {
        for scheme in SchemeKind::ALL {
            let mut path: ApTxPath<()> = ApTxPath::new(&cfg(scheme));
            let now = Nanos::ZERO;
            let id = path.add_station(&StationCfg::clean(PhyRate::slow_station()));
            assert_eq!(id.slot(), 3, "{scheme}: new slot appended");
            path.enqueue(pkt(3, 9, now), now);
            let agg = drain_one(&mut path, now).expect("new station must transmit");
            assert_eq!(agg.station, 3, "{scheme}");
        }
    }

    #[test]
    fn frame_pool_round_trip_reuses_buffers() {
        let mut path: ApTxPath<()> = ApTxPath::new(&cfg(SchemeKind::FqMac));
        let now = Nanos::ZERO;
        for i in 0..10 {
            path.enqueue(pkt(0, 1, Nanos::from_nanos(i)), now);
        }
        let id0 = path.sta_id(0).unwrap();
        let agg = drain_one(&mut path, now).unwrap();
        assert_eq!(path.frame_pool_len(), 0, "pool starts empty");
        let mut frames = agg.frames;
        frames.drain(..);
        let cap = frames.capacity();
        let ptr = frames.as_ptr();
        path.recycle_frames(frames);
        assert_eq!(path.frame_pool_len(), 1);
        // The next build must draw the recycled buffer, not allocate.
        for i in 0..5 {
            path.enqueue(pkt(0, 1, Nanos::from_nanos(100 + i)), now);
        }
        let agg = drain_one(&mut path, now).unwrap();
        assert_eq!(agg.frames.as_ptr(), ptr);
        assert_eq!(agg.frames.capacity(), cap);
        assert_eq!(path.frame_pool_len(), 0);
        // A build that finds nothing returns the buffer to the pool.
        path.recycle_frames(agg.frames);
        assert!(path.build(id0, AccessCategory::Be, now).is_none());
        assert_eq!(path.frame_pool_len(), 1, "empty build re-pools its buffer");
    }

    #[test]
    fn fifo_scheme_drops_past_qdisc_limit() {
        let mut c = cfg(SchemeKind::Fifo);
        c.pfifo_limit = 50;
        c.driver_buf_frames = 10;
        let mut path: ApTxPath<()> = ApTxPath::new(&c);
        let now = Nanos::ZERO;
        for i in 0..100 {
            path.enqueue(pkt(0, 1, Nanos::from_nanos(i)), now);
        }
        // 10 in driver + 50 in qdisc = 60 kept, 40 dropped.
        assert_eq!(path.backlog(), 60);
        assert_eq!(path.queue_drops, 40);
    }
}
