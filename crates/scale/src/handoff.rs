//! The hand-off itself — `depart` and `arrive`, which every schedule
//! executes — and the state machine applied to a single BSS.
//!
//! [`SoloRoam`] replays a [`RoamDriver`] schedule against one
//! [`WifiNetwork`]: every move disassociates the station mid-flow
//! ([`WifiNetwork::roam_out`]), parks the extracted downlink flow state
//! for the reassociation gap, and re-homes it onto the slot the station
//! reoccupies ([`WifiNetwork::roam_in`]). With a single BSS the "target"
//! is the same network, but the full hand-off machinery runs end to end
//! — queued-state migration, in-flight loss accounting, MCS re-draw,
//! policy-tree reattachment — which is exactly what a scenario file's
//! `roaming` block plugs into its [`Roster`](crate::Roster). The
//! multi-BSS version that carries state *between* networks lives in
//! [`crate::engine`].

use wifiq_mac::{Packet, StaId, StationCfg, StationIdx, WifiNetwork};
use wifiq_phy::{AccessCategory, PhyRate};
use wifiq_sim::Nanos;
use wifiq_telemetry::{Label, Telemetry};

use crate::driver::{RoamCfg, RoamDriver};

/// Aggregate hand-off accounting, kept by both the single-BSS replayer
/// and the multi-BSS engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoamStats {
    /// Hand-offs executed (disassociations, deferred or not).
    pub handoffs: u64,
    /// Hand-offs that degraded to a churn-style deferred detach because
    /// the station's exchange was on the air.
    pub deferred: u64,
    /// In-flight packets lost to hand-offs (hardware-committed frames +
    /// uplink backlog; mirrors [`WifiNetwork::roam_drops`]).
    pub roam_drops: u64,
    /// Queued downlink frames carried intact to the new association.
    pub migrated_frames: u64,
    /// Reassociations that landed inside a covering policy-tree node.
    pub policy_reattach: u64,
    /// Reassociations on a slot no policy node covers (neutral weight).
    pub neutral_fallback: u64,
    /// Moves skipped because the targeted slot was vacant at departure
    /// time (a concurrent churn schedule had removed the occupant).
    pub skipped: u64,
    /// Longest observed reassociation gap.
    pub max_reassoc: Nanos,
}

impl RoamStats {
    /// The hand-off conservation law: every hand-off has landed —
    /// reattached under a policy node or on the neutral weight — or is
    /// one of the `in_transit` stations still between associations. A
    /// skipped move never departed, so it is not a hand-off.
    pub fn is_conserved(&self, in_transit: usize) -> bool {
        self.policy_reattach + self.neutral_fallback + in_transit as u64 == self.handoffs
    }
}

/// A station between associations: disassociated at `departed_at`, due
/// on BSS `to` at `rejoin_at` with its carried flow state.
#[derive(Debug)]
pub(crate) struct Transit<M> {
    pub station: u32,
    pub to: u32,
    pub departed_at: Nanos,
    pub rejoin_at: Nanos,
    pub rate: PhyRate,
    pub packets: Vec<Packet<M>>,
}

/// The departure half of a hand-off, as both schedules execute it:
/// disassociates `id` mid-flow and accounts for what was lost and what
/// is carried. Returns the queued downlink frames that travel with the
/// station.
pub(crate) fn depart<M: std::fmt::Debug>(
    net: &mut WifiNetwork<M>,
    id: StaId,
    stats: &mut RoamStats,
    tele: &Telemetry,
) -> Vec<Packet<M>> {
    let h = net.roam_out(id);
    let migrated = h.packets.len() as u64;
    stats.handoffs += 1;
    stats.deferred += u64::from(h.deferred);
    stats.roam_drops += h.dropped;
    stats.migrated_frames += migrated;
    tele.count("roam", "handoffs", Label::Global, 1);
    if h.deferred {
        tele.count("roam", "deferred_handoffs", Label::Global, 1);
    }
    if h.dropped > 0 {
        tele.count("roam", "roam_drops", Label::Global, h.dropped);
    }
    if migrated > 0 {
        tele.count("roam", "migrated_frames", Label::Global, migrated);
    }
    h.packets
}

/// The landing half: reassociates `t`'s station on `net` at `now` with
/// its carried frames, and accounts for whether the slot it took is
/// owned by a policy node (any access category) or falls back to the
/// neutral weight.
pub(crate) fn arrive<M: std::fmt::Debug>(
    net: &mut WifiNetwork<M>,
    t: Transit<M>,
    now: Nanos,
    stats: &mut RoamStats,
    tele: &Telemetry,
) -> StaId {
    let id = net.roam_in(StationCfg::clean(t.rate), t.packets);
    let covered = AccessCategory::ALL
        .iter()
        .any(|&ac| net.policy_node_of(id.slot(), ac).is_some());
    let metric = if covered {
        stats.policy_reattach += 1;
        "policy_reattach"
    } else {
        stats.neutral_fallback += 1;
        "neutral_fallback"
    };
    let reassoc = now - t.departed_at;
    stats.max_reassoc = stats.max_reassoc.max(reassoc);
    tele.count("roam", metric, Label::Global, 1);
    tele.observe_value("roam", "reassoc_ms", Label::Global, reassoc.as_millis());
    id
}

/// Takes the transits due at or before `now` out of `transit`, lowest
/// station id first: the landing order (and hence slot assignment) must
/// not depend on transit-buffer layout.
pub(crate) fn take_due<M>(transit: &mut Vec<Transit<M>>, now: Nanos) -> Vec<Transit<M>> {
    let (mut due, keep): (Vec<_>, Vec<_>) = transit.drain(..).partition(|t| t.rejoin_at <= now);
    *transit = keep;
    due.sort_by_key(|t| t.station);
    due
}

/// Replays a roam schedule against one network, carrying flow state
/// across each reassociation gap.
#[derive(Debug)]
pub struct SoloRoam<M> {
    driver: RoamDriver,
    /// Slot currently occupied by each schedule station (stale while the
    /// station is in transit).
    slot_of: Vec<StationIdx>,
    transit: Vec<Transit<M>>,
    tele: Telemetry,
    /// Running hand-off accounting.
    pub stats: RoamStats,
}

impl<M: std::fmt::Debug> SoloRoam<M> {
    /// A replayer for `roster` stations already associated on slots
    /// `0..roster` of the target network (the usual builder layout).
    pub fn new(cfg: RoamCfg, seed: u64, roster: usize) -> SoloRoam<M> {
        SoloRoam {
            driver: RoamDriver::new(cfg, seed, roster, 1),
            slot_of: (0..roster).collect(),
            transit: Vec::new(),
            tele: Telemetry::disabled(),
            stats: RoamStats::default(),
        }
    }

    /// Routes `roam/*` counters into `tele` — pass the same hub the
    /// network uses so the rollup carries one registry.
    pub fn set_telemetry(&mut self, tele: Telemetry) {
        self.tele = tele;
    }

    /// Stations currently between associations.
    pub fn in_transit(&self) -> usize {
        self.transit.len()
    }

    /// Virtual time of the next hand-off action (departure or rejoin).
    pub(crate) fn next_at(&self) -> Nanos {
        let arrive = self
            .transit
            .iter()
            .map(|t| t.rejoin_at)
            .min()
            .unwrap_or(Nanos::MAX);
        arrive.min(self.driver.next_at())
    }

    /// Applies every hand-off action due at or before `now`. The caller
    /// — [`Roster::step`](crate::Roster::step) — must already have
    /// advanced `net` to `now`. A schedule whose first move lies beyond
    /// the run never touches the network at all.
    pub(crate) fn catch_up(&mut self, net: &mut WifiNetwork<M>, now: Nanos) {
        // Rejoins before departures at the same instant, so a slot
        // freed by a departure is never resurrected out of order.
        self.process_rejoins(net, now);
        while self.driver.next_at() <= now {
            self.depart(net);
        }
    }

    fn depart(&mut self, net: &mut WifiNetwork<M>) {
        let m = self.driver.next_move();
        let slot = self.slot_of[m.station as usize];
        // Resolve the remembered slot to its current handle; a vacant or
        // disassociated slot means a concurrent churn schedule removed
        // whoever held it, so there is nothing to hand off.
        let id = net.station_active(slot).then(|| net.sta_id(slot)).flatten();
        let Some(id) = id else {
            self.stats.skipped += 1;
            self.tele.count("roam", "skipped_moves", Label::Global, 1);
            return;
        };
        let packets = depart(net, id, &mut self.stats, &self.tele);
        self.transit.push(Transit {
            station: m.station,
            to: m.to,
            departed_at: m.at,
            rejoin_at: m.rejoin_at,
            rate: m.rate,
            packets,
        });
    }

    fn process_rejoins(&mut self, net: &mut WifiNetwork<M>, now: Nanos) {
        for t in take_due(&mut self.transit, now) {
            let station = t.station as usize;
            let id = arrive(net, t, now, &mut self.stats, &self.tele);
            self.slot_of[station] = id.slot();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Roster;
    use wifiq_mac::{App, Commands, Delivery, NetworkConfig, NodeAddr, SchemeKind};

    /// Steady downlink flood to every station slot the app knows about.
    struct Flood {
        slots: usize,
        sent: u64,
    }

    impl App<()> for Flood {
        fn on_packet(&mut self, _: Delivery, _: Packet<()>, _: Nanos, _: &mut Commands<()>) {}
        fn on_timer(&mut self, token: u64, now: Nanos, cmds: &mut Commands<()>) {
            for sta in 0..self.slots {
                self.sent += 1;
                cmds.send(Packet {
                    id: self.sent,
                    src: NodeAddr::Server,
                    dst: NodeAddr::Station(sta),
                    flow: sta as u64,
                    len: 1200,
                    ac: AccessCategory::Be,
                    created: now,
                    enqueued: now,
                    payload: (),
                });
            }
            cmds.set_timer(token, now + Nanos::from_millis(1));
        }
    }

    fn net(stations: usize) -> WifiNetwork<()> {
        let cfg = NetworkConfig::builder()
            .scheme(SchemeKind::AirtimeFair)
            .stations_at(stations, PhyRate::fast_station())
            .build();
        WifiNetwork::new(cfg)
    }

    fn roam_cfg(mean_dwell_ms: u64) -> RoamCfg {
        RoamCfg {
            mean_dwell: Nanos::from_millis(mean_dwell_ms),
            ..RoamCfg::default()
        }
    }

    /// Replays `roam` against `net` to `until` through the roster pump
    /// and hands the replayer back for inspection.
    fn replay(
        roam: SoloRoam<()>,
        net: &mut WifiNetwork<()>,
        until: Nanos,
        app: &mut impl App<()>,
    ) -> SoloRoam<()> {
        let mut roster = Roster {
            churn: None,
            roam: Some(roam),
        };
        roster.run_to(net, app, until);
        roster.roam.expect("the roster keeps its replayer")
    }

    #[test]
    fn handoffs_preserve_roster_and_count_consistently() {
        let mut n = net(4);
        n.seed_timer(0, Nanos::ZERO);
        let mut app = Flood { slots: 4, sent: 0 };
        let roam = SoloRoam::new(roam_cfg(100), 9, 4);
        let roam = replay(roam, &mut n, Nanos::from_secs(5), &mut app);
        assert!(roam.stats.handoffs > 10, "schedule too quiet");
        // Whoever is not mid-transit is associated.
        assert_eq!(n.active_stations() + roam.in_transit(), 4);
        assert_eq!(n.roam_drops(), roam.stats.roam_drops);
        assert!(
            roam.stats.is_conserved(roam.in_transit()),
            "a hand-off left no trace: {:?}",
            roam.stats
        );
        assert!(
            roam.stats.max_reassoc <= Nanos::from_millis(80) + Nanos::from_millis(1),
            "reassociation gap beyond the configured bound: {:?}",
            roam.stats.max_reassoc
        );
    }

    #[test]
    fn migrated_frames_survive_the_handoff() {
        let mut n = net(3);
        n.seed_timer(0, Nanos::ZERO);
        let mut app = Flood { slots: 3, sent: 0 };
        let roam = replay(
            SoloRoam::new(roam_cfg(50), 4, 3),
            &mut n,
            Nanos::from_secs(4),
            &mut app,
        );
        assert!(
            roam.stats.migrated_frames > 0,
            "a busy downlink never migrated a queued frame across {} handoffs",
            roam.stats.handoffs
        );
    }

    #[test]
    fn quiet_schedule_is_byte_invisible() {
        let drive = |attach_roam: bool| {
            let mut n = net(3);
            let tele = Telemetry::enabled();
            n.set_telemetry(tele.clone());
            n.seed_timer(0, Nanos::ZERO);
            let mut app = Flood { slots: 3, sent: 0 };
            let until = Nanos::from_millis(200);
            if attach_roam {
                // Dwell far beyond the horizon: the driver exists but
                // never fires.
                let mut roam = SoloRoam::new(roam_cfg(3_600_000), 7, 3);
                roam.set_telemetry(tele.clone());
                let roam = replay(roam, &mut n, until, &mut app);
                assert_eq!(roam.stats.handoffs, 0, "schedule was not quiet");
            } else {
                n.run(until, &mut app);
            }
            tele.snapshot("solo", 7).pretty()
        };
        assert_eq!(drive(true), drive(false));
    }

    #[test]
    fn telemetry_counters_mirror_stats() {
        let mut n = net(4);
        let tele = Telemetry::enabled();
        n.set_telemetry(tele.clone());
        n.seed_timer(0, Nanos::ZERO);
        let mut app = Flood { slots: 4, sent: 0 };
        let mut roam = SoloRoam::new(roam_cfg(80), 21, 4);
        roam.set_telemetry(tele.clone());
        let roam = replay(roam, &mut n, Nanos::from_secs(3), &mut app);
        assert!(roam.stats.is_conserved(roam.in_transit()));
        assert_eq!(
            tele.counter("roam", "handoffs", Label::Global),
            roam.stats.handoffs
        );
        assert_eq!(
            tele.counter("roam", "roam_drops", Label::Global),
            roam.stats.roam_drops
        );
        assert_eq!(
            tele.counter("roam", "policy_reattach", Label::Global)
                + tele.counter("roam", "neutral_fallback", Label::Global),
            roam.stats.policy_reattach + roam.stats.neutral_fallback
        );
    }
}
