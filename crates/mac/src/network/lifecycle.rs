//! Station lifecycle: association, departure (churn or roaming, at once or
//! deferred behind the exchange on the air) and a roamer's arrival. One
//! constructor builds a station's state and one teardown discards it.

use wifiq_core::StaId;
use wifiq_phy::{AccessCategory, PhyRate};
use wifiq_sim::SimRng;
use wifiq_telemetry::Label;

use super::{discard, Medium, RoamHandoff, StaTele, WifiNetwork};
use crate::config::{NetworkConfig, StationCfg};
use crate::contention::Participant;
use crate::packet::{NodeAddr, Packet, StationIdx, Ticket};
use crate::ratectrl::Minstrel;
use crate::station::StationUplink;

/// Builds what slot `sta` holds for an associating station: its uplink
/// stack and, under rate control, the AP's downlink controller for it.
/// Only under rate control is `rng` forked, `salt` telling joins apart.
pub(super) fn associate(
    cfg: &NetworkConfig,
    rng: &mut SimRng,
    sta: StationIdx,
    station: &StationCfg,
    salt: u64,
) -> (StationUplink, Option<Box<Minstrel>>) {
    let mut up = StationUplink::new(sta, station.rate, cfg.station_fifo_limit);
    if cfg.station_fq {
        up.enable_fq();
    }
    if cfg.rate_control {
        up.enable_rate_control(rng.fork(salt));
    }
    // Legacy and VHT rates keep their configured rate; the Minstrel table
    // only spans the HT MCS set.
    let adapts = cfg.rate_control && matches!(station.rate, PhyRate::Ht { .. });
    (up, adapts.then(|| Box::new(Minstrel::new(station.rate))))
}

impl Medium {
    /// Discards every aggregate queued for `sta` in the hardware, sparing
    /// one that is on the air at the head of its queue, and hands their
    /// frames to `on_drop`. Returns the number of frames discarded.
    fn purge(&mut self, sta: StationIdx, mut on_drop: impl FnMut(Ticket)) -> u64 {
        let mut purged = 0;
        for (ac, q) in AccessCategory::ALL.into_iter().zip(&mut self.hw) {
            let mut head_on_air = self.in_flight.contains(&Participant::Ap { ac });
            q.retain(|agg| {
                let on_air = std::mem::take(&mut head_on_air);
                let keep = agg.station != sta || on_air;
                if !keep {
                    purged += agg.frames.len() as u64;
                    agg.frames.iter().copied().for_each(&mut on_drop);
                }
                keep
            });
        }
        purged
    }
}

impl<M: std::fmt::Debug> WifiNetwork<M> {
    /// Associates a new station mid-run, reusing the most recently vacated
    /// slot when one exists (the station table's LIFO free list governs
    /// slot choice). Returns the station's generational handle; read the
    /// wire slot it occupies from [`StaId::slot`]. Safe to call between
    /// [`run`](Self::run) windows.
    pub fn add_station(&mut self, station: StationCfg) -> StaId {
        let id = self.ap.add_station(&station);
        let sta = id.slot();
        self.join_seq += 1;
        let (mut up, rc) = associate(&self.cfg, &mut self.rng, sta, &station, self.join_seq);
        up.set_telemetry(self.obs.tele.clone());
        if sta == self.stations.len() {
            if self.obs.tele.is_enabled() {
                let ids = StaTele::resolve(&self.obs.tele, sta);
                self.obs.mac_tele.stations.push(ids);
            }
            self.stations.push(up);
            self.ratectrl.push(rc);
            self.cfg.stations.push(station);
            self.contenders.push_slot();
        } else {
            self.stations[sta] = up;
            self.ratectrl[sta] = rc;
            self.cfg.stations[sta] = station;
            // The reused slot hosts a fresh, empty uplink.
            self.contenders.forget(sta);
        }
        self.active.insert(sta);
        self.obs.meter.ensure_station(sta);
        self.obs.meter.reset_station(sta);
        self.chaos.ensure_station(sta);
        // A joining station inherits the weights of the policy in force;
        // a slot the roster never covered falls back to neutral.
        if let Some(active) = super::policy_rt::active(&self.policy) {
            self.ap.set_station_weights(id, active.station_weights(sta));
        }
        self.obs
            .tele
            .count("mac", "station_joins", Label::Global, 1);
        id
    }

    /// Disassociates a station. It immediately stops contending and
    /// receiving; its queued packets (AP-side and uplink) are dropped and
    /// counted in [`churn_drops`](Self::churn_drops). If the station's
    /// exchange is on the air right now, the teardown is deferred until
    /// that exchange completes — aggregates already committed to hardware
    /// finish (or retry out) normally, as on real hardware.
    pub fn remove_station(&mut self, id: StaId) {
        self.churn_drops += self.leave(id, false).dropped;
    }

    /// Disassociates a roaming station, extracting its queued downlink
    /// flow state so the hand-off can carry it to the target BSS instead
    /// of dropping it (the old AP forwards buffered frames over the
    /// distribution system, 802.11f-style). What cannot migrate — frames
    /// already committed to the hardware queue and the station's own
    /// uplink backlog — is dropped and counted in
    /// [`roam_drops`](Self::roam_drops).
    ///
    /// If the station's exchange is on the air right now the hand-off
    /// degrades to the churn-style deferred detach: nothing migrates, the
    /// teardown happens when the exchange completes, and its drops are
    /// counted as [`churn_drops`](Self::churn_drops). The returned
    /// hand-off is marked [`deferred`](RoamHandoff::deferred).
    pub fn roam_out(&mut self, id: StaId) -> RoamHandoff<M> {
        let handoff = self.leave(id, true);
        self.roam_drops += handoff.dropped;
        handoff
    }

    /// The departure both ways of leaving share. The station stops
    /// contending and receiving at once; its state is torn down now, or —
    /// `deferred`, nothing dropped or carried yet — once the exchange it
    /// is part of has cleared the air.
    fn leave(&mut self, id: StaId, migrate: bool) -> RoamHandoff<M> {
        let sta = id.slot();
        assert!(
            self.ap.station_current(id) && self.active.contains(sta),
            "{} unknown or already-removed station {id:?}",
            if migrate { "roaming out" } else { "removing" }
        );
        self.active.remove(sta);
        self.contenders.forget(sta);
        self.obs
            .tele
            .count("mac", "station_leaves", Label::Global, 1);
        if self.station_in_flight(sta) {
            self.pending_detach.push(id);
            return RoamHandoff {
                packets: Vec::new(),
                dropped: 0,
                deferred: true,
            };
        }
        self.teardown(id, migrate)
    }

    /// Whether the current in-flight exchange involves `sta`, either as
    /// the uplink transmitter or as the target of the AP's head-of-line
    /// aggregate.
    pub(super) fn station_in_flight(&self, sta: StationIdx) -> bool {
        self.medium.in_flight.iter().any(|p| match *p {
            Participant::Station { idx, .. } => idx == sta,
            Participant::Ap { ac } => {
                self.medium.hw[ac.index()].front().map(|a| a.station) == Some(sta)
            }
        })
    }

    /// Tears down a departed station's state, once nothing of it is on
    /// the air: purges its hardware-queued aggregates, detaches its TIDs
    /// and scheduler slot at the AP — taking the frames queued there out
    /// of the store to carry when `migrate`, dropping them otherwise — and
    /// discards its uplink backlog. `dropped` counts what was lost; the
    /// caller books it.
    pub(super) fn teardown(&mut self, id: StaId, migrate: bool) -> RoamHandoff<M> {
        let sta = id.slot();
        let now = self.queue.now();
        let mut carried = Vec::new();
        let mut dropped = self.medium.purge(sta, discard(&mut self.packets));
        let carry = migrate.then_some(&mut carried);
        let at_ap = self
            .ap
            .detach_station(id, now, carry, discard(&mut self.packets));
        dropped += (at_ap + self.stations[sta].vacate(discard(&mut self.packets))) as u64;
        self.ratectrl[sta] = None;
        // A deferred teardown follows the station's last exchange, which
        // marked the slot dirty again.
        self.contenders.forget(sta);
        let packets = carried.into_iter();
        RoamHandoff {
            packets: packets.map(|t| self.packets.remove(t.handle)).collect(),
            dropped,
            deferred: false,
        }
    }

    /// Associates a roaming station arriving from another BSS, re-homing
    /// the carried flow state onto its new slot: each packet is
    /// re-addressed to the slot the roamer now occupies and re-enters the
    /// AP queueing path with a fresh enqueue stamp (CoDel sojourn restarts;
    /// end-to-end `created` timestamps survive, so latency metrics see the
    /// full hand-off cost). Returns the roamer's new handle.
    pub fn roam_in(&mut self, station: StationCfg, carried: Vec<Packet<M>>) -> StaId {
        let id = self.add_station(station);
        let slot = id.slot();
        let now = self.queue.now();
        let mut acs = [false; AccessCategory::COUNT];
        for mut pkt in carried {
            pkt.dst = NodeAddr::Station(slot);
            pkt.enqueued = now;
            acs[pkt.ac.index()] = true;
            let t = self.admit(pkt);
            self.ap.enqueue(t, now, discard(&mut self.packets));
        }
        for ac in AccessCategory::ALL {
            if acs[ac.index()] {
                self.ap_schedule(ac, now);
            }
        }
        self.try_contend(now);
        id
    }
}
