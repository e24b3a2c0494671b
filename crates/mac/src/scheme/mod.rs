//! The access point's transmit path under each of the four queue
//! management schemes, one file per path:
//!
//! - `legacy` (FIFO / FQ-CoDel schemes) models the stock Linux stack of
//!   Figure 2: a qdisc feeding unmanaged per-TID driver FIFOs;
//! - `fq` (FQ-MAC / Airtime schemes) is the paper's structure of Figure 3:
//!   the MAC FQ with a round-robin or airtime-fair station scheduler.
//!
//! What both share lives here: the station table, the per-station stash
//! and the aggregate build. Every layer holds [`Ticket`]s — the packets
//! stay in the network's store — and a packet dropped anywhere on the path
//! (qdisc tail-drop, FQ overlimit, CoDel, a departed station's frames)
//! leaves through the `on_drop` sink the caller passes, so that the
//! network can free its slot.
//!
//! Station state lives in a [`StationTable`] (DESIGN.md §14): the hot
//! per-round scheduler fields sit in the table's flat slabs, everything
//! the per-aggregate path needs (`ColdSta`) in its cold side table, and
//! the MAC FQ's TID handles in its per-slot TID stripe. All station-keyed
//! access goes through generational [`StaId`] handles; a handle that
//! outlives its station panics instead of addressing the slot's next
//! occupant.

mod fq;
mod legacy;

use wifiq_codel::{CodelParams, StationCodelParams};
use wifiq_core::scheduler::AirtimeScheduler;
use wifiq_core::table::{StaId, StationTable, TidId};
use wifiq_phy::{AccessCategory, PhyRate};
use wifiq_sim::Nanos;
use wifiq_telemetry::Telemetry;

use crate::aggregation::{build_aggregate_into, Aggregate};
use crate::config::{NetworkConfig, SchemeKind, StationCfg};
use crate::packet::{StationIdx, Ticket};

use fq::{FqPath, StaSched};
use legacy::Legacy;

/// Upper bound on pooled frame buffers; enough to cover every hardware
/// queue slot plus in-flight recycling without holding memory forever.
const FRAME_POOL_CAP: usize = 32;

// One instance exists per network and the FQ path sits on the per-packet
// path, so boxing to shrink the enum would trade a few hundred one-off
// bytes for an extra pointer chase per packet.
#[allow(clippy::large_enum_variant)]
enum PathInner {
    Legacy(Legacy),
    Fq(FqPath),
}

/// Per-station state off the per-round scheduling path, stored in the
/// station table's cold side table: the per-aggregate build path touches
/// it once per aggregate, not once per round.
struct ColdSta {
    /// The rate the next aggregate for this station builds at.
    rate: PhyRate,
    /// Per-station CoDel parameter selection (§3.1.1).
    codel: StationCodelParams,
    /// One parked packet per AC: pulled for an aggregate but didn't fit
    /// (the retry_q head slot of Figure 3).
    stash: [Option<Ticket>; AccessCategory::COUNT],
}

/// The station store both paths key their per-station state by.
type Table = StationTable<ColdSta>;

/// The AP transmit path: scheme-specific queueing plus station selection
/// and aggregate construction.
pub struct ApTxPath {
    kind: SchemeKind,
    inner: PathInner,
    /// The station store: occupancy, generational handles, the airtime
    /// scheduler's hot slabs, the FQ TID-handle stripe, and `ColdSta`.
    table: Table,
    /// Remembered so stations added after construction get the same CoDel
    /// parameter policy as the initial roster.
    adaptive_codel: bool,
    /// Recycled `Aggregate::frames` buffers: built aggregates draw from
    /// here and the network layer returns the emptied Vec after TX, so
    /// the steady state allocates no frame buffers at all.
    frame_pool: Vec<Vec<Ticket>>,
    tele: Telemetry,
}

/// The airtime scheduler, under the Airtime scheme.
fn airtime_sched(inner: &mut PathInner) -> Option<&mut AirtimeScheduler> {
    match inner {
        PathInner::Fq(FqPath {
            sched: StaSched::Airtime(s),
            ..
        }) => Some(s),
        _ => None,
    }
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

impl ApTxPath {
    /// Builds the transmit path for the configured scheme.
    pub fn new(cfg: &NetworkConfig) -> ApTxPath {
        let inner = match cfg.scheme {
            SchemeKind::Fifo | SchemeKind::FqCodelQdisc => PathInner::Legacy(Legacy::new(cfg)),
            SchemeKind::FqMac | SchemeKind::AirtimeFair => PathInner::Fq(FqPath::new(cfg)),
        };
        let mut path = ApTxPath {
            kind: cfg.scheme,
            inner,
            table: StationTable::with_capacity(cfg.num_stations()),
            adaptive_codel: cfg.adaptive_codel,
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
    pub fn recycle_frames(&mut self, mut frames: Vec<Ticket>) {
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
    pub fn add_station(&mut self, station: &StationCfg) -> StaId {
        let cold = ColdSta {
            rate: station.rate,
            codel: codel_params_for(self.adaptive_codel),
            stash: Default::default(),
        };
        let id = match &mut self.inner {
            PathInner::Fq(f) => f.alloc(&mut self.table, cold, station.airtime_weight),
            PathInner::Legacy(_) => self.table.alloc(cold),
        };
        let slot = id.slot();
        self.table
            .cold_mut(id)
            .codel
            .set_telemetry(&self.tele, slot as u32);
        match &mut self.inner {
            PathInner::Legacy(l) => l.add_slot(slot),
            PathInner::Fq(f) => f.attach(&mut self.table, id),
        }
        id
    }

    /// Detaches a station: the single teardown path shared by churn
    /// removal and roaming hand-off. Every frame queued for the station at
    /// the AP (stash, driver FIFOs, FQ flows — and, for a hand-off, the
    /// pfifo qdisc) goes to `carry` when there is one, else to `on_drop`.
    /// Its TIDs and slot leave all scheduling lists mid-round without
    /// disturbing the survivors' rotation order or deficits, and the table
    /// slot is freed — which bumps the generation, so every outstanding
    /// handle to the station goes stale. Returns the number dropped.
    pub(crate) fn detach_station(
        &mut self,
        id: StaId,
        now: Nanos,
        mut carry: Option<&mut Vec<Ticket>>,
        mut on_drop: impl FnMut(Ticket),
    ) -> usize {
        let mut dropped = 0;
        // `cold_mut` validates the handle (stale/double-free panics here).
        for ac in 0..AccessCategory::COUNT {
            if let Some(t) = self.table.cold_mut(id).stash[ac].take() {
                match carry.as_deref_mut() {
                    Some(out) => out.push(t),
                    None => {
                        dropped += 1;
                        on_drop(t);
                    }
                }
            }
        }
        dropped += match &mut self.inner {
            PathInner::Legacy(l) => l.detach(id.slot(), carry, on_drop),
            PathInner::Fq(f) => f.detach(&self.table, id, now, carry, on_drop),
        };
        self.table.free(id);
        dropped
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
        if self.kind == SchemeKind::AirtimeFair && self.table.is_current(id) {
            self.table.set_ac_weights(id, weights);
        }
    }

    /// One station's current airtime weight at `ac` (test/telemetry
    /// probe); `None` under the non-airtime schemes or for a stale handle.
    pub fn station_ac_weight(&self, id: StaId, ac: AccessCategory) -> Option<u32> {
        let airtime = self.kind == SchemeKind::AirtimeFair;
        (airtime && self.table.is_current(id)).then(|| self.table.ac_weight(id, ac.index()))
    }

    /// Number of station slots ever allocated (active + tombstoned).
    pub fn station_slots(&self) -> usize {
        self.table.slots()
    }

    /// Attaches a telemetry handle, propagating it to the MAC FQ structure
    /// (metrics under component "fq") and the per-station CoDel parameter
    /// switches (component "codel").
    pub fn set_telemetry(&mut self, tele: Telemetry) {
        if let PathInner::Fq(f) = &mut self.inner {
            f.fq.set_telemetry(tele.clone(), "fq");
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
            PathInner::Legacy(l) => l.backlog(),
            PathInner::Fq(f) => f.fq.total_packets(),
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

    /// Tickets live in the path's queueing arenas (the qdisc's, or the
    /// MAC FQ's) — the teardown audit's counterpart to
    /// [`ApTxPath::backlog`]. Stashed frames and driver FIFOs hold tickets
    /// outside those arenas, so after a full drain this must be exactly
    /// zero: any residue is a leaked arena slot.
    pub fn arena_live(&self) -> usize {
        match &self.inner {
            PathInner::Legacy(l) => l.arena_live(),
            PathInner::Fq(f) => f.fq.arena_live(),
        }
    }

    /// Packets dropped at AP queueing layers: qdisc tail-drop or FQ
    /// overlimit, and legacy frames that surfaced for a departed station.
    /// CoDel drops are [`codel_drops`](Self::codel_drops).
    pub fn queue_drops(&self) -> u64 {
        match &self.inner {
            PathInner::Legacy(l) => l.drops,
            PathInner::Fq(f) => f.fq.stats.drops_overlimit,
        }
    }

    /// Whether `(id, ac)` has pending data (stash included).
    fn tid_has_data(&self, id: StaId, ac: AccessCategory) -> bool {
        if self.table.cold(id).stash[ac.index()].is_some() {
            return true;
        }
        match &self.inner {
            PathInner::Legacy(l) => l.has_data(id.slot(), ac),
            PathInner::Fq(f) => f.fq.tid_has_data(self.table.tid(id, ac.index())),
        }
    }

    /// Accepts a downlink packet from the IP layer. The ticket must have
    /// `enqueued` stamped with the current time. A packet dropped to make
    /// room goes to `on_drop`.
    pub fn enqueue(&mut self, t: Ticket, now: Nanos, on_drop: impl FnMut(Ticket)) {
        match &mut self.inner {
            PathInner::Legacy(l) => {
                debug_assert!(
                    self.table.id_at(t.peer()).is_some(),
                    "enqueue for a removed station"
                );
                l.enqueue(t, now, &self.table, on_drop);
            }
            PathInner::Fq(f) => f.enqueue(t, now, &mut self.table, on_drop),
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
        match &mut self.inner {
            PathInner::Legacy(l) => l.next_tx(ac, &self.table),
            PathInner::Fq(f) => f.next_tx(ac, &mut self.table, eligible),
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
        if let PathInner::Fq(f) = &mut self.inner {
            f.reactivate(&mut self.table, id, ac.index());
        }
    }

    /// Builds an aggregate for `(id, ac)` and performs the scheme's
    /// post-build rotation (RR advance). Returns `None` if the TID turned
    /// out to be empty (e.g. CoDel dropped its remaining packets). CoDel's
    /// victims, and the legacy path's drops while it refills its driver
    /// FIFOs, go to `on_drop`.
    pub fn build(
        &mut self,
        id: StaId,
        ac: AccessCategory,
        now: Nanos,
        mut on_drop: impl FnMut(Ticket),
    ) -> Option<Aggregate<Ticket>> {
        let slot = id.slot();
        let rate = self.table.cold(id).rate;
        let codel_params = self.table.cold(id).codel.current();
        let fq_tid = match &self.inner {
            PathInner::Fq(_) => self.table.tid(id, ac.index()),
            PathInner::Legacy(_) => TidId::NONE,
        };
        let stash_slot = &mut self.table.cold_mut(id).stash[ac.index()];
        let frames_buf = self.frame_pool.pop().unwrap_or_default();

        let (built, leftover) = match &mut self.inner {
            PathInner::Legacy(l) => build_aggregate_into(slot, ac, rate, frames_buf, || {
                stash_slot.take().or_else(|| l.pop(slot, ac))
            }),
            PathInner::Fq(f) => build_aggregate_into(slot, ac, rate, frames_buf, || {
                let fq = &mut f.fq;
                stash_slot
                    .take()
                    .or_else(|| fq.dequeue_with(fq_tid, now, &codel_params, &mut on_drop))
            }),
        };
        self.table.cold_mut(id).stash[ac.index()] = leftover;
        let agg = match built {
            Ok(agg) => Some(agg),
            Err(buf) => {
                // Nothing to send: hand the untouched buffer back.
                self.recycle_frames(buf);
                None
            }
        };

        // Post-build rotation for the round-robin schemes, then refill the
        // legacy driver FIFOs from the qdisc after taking frames out.
        match &mut self.inner {
            PathInner::Legacy(l) => {
                l.rotate(slot, ac);
                l.pull_from_qdisc(now, &self.table, on_drop);
            }
            PathInner::Fq(f) => f.rotate(slot, ac.index()),
        }
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
        if let Some(s) = airtime_sched(&mut self.inner) {
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
        if let Some(s) = airtime_sched(&mut self.inner) {
            if s.params().charge_rx {
                s.charge(&mut self.table, id, ac.index(), airtime);
            }
        }
    }

    /// Whether any station at `ac` has pending data (stash included).
    pub fn has_data_at(&self, ac: AccessCategory) -> bool {
        self.table.iter().any(|id| self.tid_has_data(id, ac))
    }

    /// CoDel drop count accumulated in the MAC FQ or the FQ-CoDel qdisc
    /// (0 under pfifo).
    pub fn codel_drops(&self) -> u64 {
        match &self.inner {
            PathInner::Legacy(l) => l.codel_drops(),
            PathInner::Fq(f) => f.fq.stats.drops_codel,
        }
    }
}

#[cfg(test)]
mod tests;
