//! The multi-BSS roaming engine: mid-flow hand-offs *between* shards.
//!
//! [`RoamSet`] extends the shard-set model with stations that move
//! between BSS instances while traffic is flowing. The shards of a
//! [`ShardSet`] are fully independent; roaming couples
//! them, so a roam set is **one simulated world stepped on the calling
//! thread** in windowed lockstep:
//!
//! - Virtual time is cut into fixed windows. Per window the engine lands
//!   the arrivals due, advances every BSS to the boundary in shard
//!   order, then executes the departures due.
//! - Hand-offs are quantised to boundaries: a station disassociates at
//!   the end of the window its move falls in, waits out its gap as a
//!   parked payload of carried flow state, and reassociates at the
//!   first boundary past its reassociation gap.
//! - Every random draw (who moves, where to, which MCS, how long the
//!   gap) happens on the engine's [`RoamDriver`] stream; the networks
//!   make none on its behalf.
//! - Arrivals and departures at one boundary are applied in station-id
//!   order and registries are merged in shard order, so the rollup is a
//!   pure function of the set's parameters.
//!
//! Independent repetitions of a roam set are the parallel unit (the
//! experiment harness runs them side by side); a single set never
//! spawns.

use std::collections::BTreeMap;

use wifiq_mac::{StaId, StationCfg, StationIdx, WifiNetwork};
use wifiq_sim::Nanos;
use wifiq_telemetry::{Registry, Telemetry};

use crate::driver::{RoamCfg, RoamDriver, RoamMove};
use crate::handoff::{arrive, depart, take_due, RoamStats, Transit};
use crate::shard::{merge_in_shard_order, ShardCtx, ShardRun, ShardSet};

/// One BSS plus whatever drives its traffic.
///
/// The engine calls [`roam_in`](WifiNetwork::roam_in) /
/// [`roam_out`](WifiNetwork::roam_out) on the wrapped network itself;
/// the host only has to advance simulation time and keep its traffic
/// sources aware of the roster.
pub trait BssHost {
    /// Packet payload carried across hand-offs.
    type M: std::fmt::Debug;

    /// The network under this host.
    fn net_mut(&mut self) -> &mut WifiNetwork<Self::M>;

    /// Advances the simulation to `until`, driving traffic.
    fn advance(&mut self, until: Nanos);

    /// Roster notification: schedule station `station` now occupies
    /// `slot` on this BSS.
    fn station_arrived(&mut self, _station: u32, _slot: StationIdx) {}

    /// Roster notification: schedule station `station` left `slot`.
    fn station_departed(&mut self, _station: u32, _slot: StationIdx) {}
}

/// The merged outcome of a roaming multi-BSS run.
#[derive(Debug)]
pub struct RoamRun<T> {
    /// Per-shard results, in shard order.
    pub outputs: Vec<T>,
    /// Shard registries merged under `shardN` labels (in shard order),
    /// plus the engine's `roam/*` hand-off telemetry.
    pub registry: Registry,
    /// Hand-off accounting.
    pub stats: RoamStats,
}

/// Runs N coupled BSS instances with stations roaming between them.
#[derive(Debug, Clone)]
pub struct RoamSet {
    bss: u32,
    master_seed: u64,
    window: Nanos,
    roster: usize,
    cfg: RoamCfg,
}

impl RoamSet {
    /// A set of `bss` instances and a default roster of two stations per
    /// BSS.
    pub fn new(bss: u32, master_seed: u64) -> RoamSet {
        assert!(bss > 0, "a roam set needs at least one BSS");
        RoamSet {
            bss,
            master_seed,
            window: Nanos::from_millis(100),
            roster: bss as usize * 2,
            cfg: RoamCfg::default(),
        }
    }

    /// Sets the roaming-station roster size.
    pub fn with_roster(mut self, roster: usize) -> RoamSet {
        assert!(roster > 0, "empty roster");
        self.roster = roster;
        self
    }

    /// Sets the mobility-schedule parameters.
    pub fn with_roam(mut self, cfg: RoamCfg) -> RoamSet {
        self.cfg = cfg;
        self
    }

    /// Sets the lockstep window length. Shorter windows reduce hand-off
    /// quantisation (a station departs at the end of the window its move
    /// falls in, and executes at most one hand-off per window) at the
    /// cost of stopping every network more often.
    pub fn with_window(mut self, window: Nanos) -> RoamSet {
        assert!(!window.is_zero(), "zero lockstep window");
        self.window = window;
        self
    }

    /// Runs every shard to `duration`, roaming stations between them.
    ///
    /// `build` constructs one host per shard (the network must start
    /// with an empty roster — the engine places every schedule station
    /// at its home BSS at time zero, announcing it through
    /// [`BssHost::station_arrived`]). `finish` consumes each host into
    /// its result and optional registry.
    pub fn run<B, T, F, G>(&self, duration: Nanos, build: F, finish: G) -> RoamRun<T>
    where
        B: BssHost,
        F: Fn(&ShardCtx) -> B,
        G: Fn(u32, B) -> (T, Option<Registry>),
    {
        assert!(!duration.is_zero(), "zero-length run");
        let mut driver = RoamDriver::new(self.cfg.clone(), self.master_seed, self.roster, self.bss);
        // (host, schedule station → handle), in shard order, on a plain
        // shard set's seeds.
        let mut hosts: Vec<(B, BTreeMap<u32, StaId>)> = ShardSet::new(self.bss, self.master_seed)
            .contexts()
            .iter()
            .map(|c| (build(c), BTreeMap::new()))
            .collect();

        // Window boundaries; the last one is exactly `duration`.
        let mut boundaries = Vec::new();
        let mut t = Nanos::ZERO;
        while t < duration {
            t = (t + self.window).min(duration);
            boundaries.push(t);
        }

        let tele = Telemetry::enabled();
        let mut stats = RoamStats::default();
        let mut transit: Vec<Transit<B::M>> = Vec::new();
        // Moves drawn while their station was mid-transit (boundary
        // quantisation can delay an arrival past the station's next
        // scheduled departure); executed once the station lands.
        let mut held: Vec<RoamMove> = Vec::new();
        let mut present = vec![true; self.roster];

        // The roster starts at its homes at time zero: a placement, not
        // a hand-off, so nothing is accounted.
        for g in 0..self.roster {
            let (host, slots) = &mut hosts[driver.home(g) as usize];
            let id = host
                .net_mut()
                .roam_in(StationCfg::clean(driver.rate(g)), Vec::new());
            slots.insert(g as u32, id);
            host.station_arrived(g as u32, id.slot());
        }

        // One window per boundary, plus a flush window at `duration`
        // that lands any hand-off still in flight.
        let mut start = Nanos::ZERO;
        let windows = boundaries.iter().copied().chain([duration]);
        for (wi, end) in windows.enumerate() {
            for t in take_due(&mut transit, start) {
                let station = t.station;
                present[station as usize] = true;
                let (host, slots) = &mut hosts[t.to as usize];
                let id = arrive(host.net_mut(), t, start, &mut stats, &tele);
                slots.insert(station, id);
                host.station_arrived(station, id.slot());
            }

            for (host, _) in &mut hosts {
                host.advance(end);
            }
            if wi == boundaries.len() {
                break; // the flush window only lands and advances
            }

            // Departures executing at this window's end: held moves
            // whose station has landed, then freshly due draws. At most
            // one departure per station per window — marking the station
            // absent as its move is taken keeps a backlog of
            // quantisation-delayed moves from double-departing it.
            let mut due = std::mem::take(&mut held);
            while driver.next_at() <= end {
                due.push(driver.next_move());
            }
            let (mut departs, waiting): (Vec<_>, Vec<_>) = due
                .into_iter()
                .partition(|m| std::mem::take(&mut present[m.station as usize]));
            held = waiting;
            departs.sort_by_key(|m| m.station);
            for m in departs {
                let (host, slots) = &mut hosts[m.from as usize];
                let id = slots
                    .remove(&m.station)
                    .expect("departing station is not on its BSS");
                let packets = depart(host.net_mut(), id, &mut stats, &tele);
                host.station_departed(m.station, id.slot());
                // First boundary past the reassociation gap; a gap
                // outliving the run lands at the flush.
                let rejoin_at = boundaries[wi..]
                    .iter()
                    .copied()
                    .find(|&b| b >= m.rejoin_at)
                    .unwrap_or(duration);
                transit.push(Transit {
                    station: m.station,
                    to: m.to,
                    departed_at: end,
                    rejoin_at,
                    rate: m.rate,
                    packets,
                });
            }
            start = end;
        }
        debug_assert!(transit.is_empty(), "hand-off missed the flush window");

        let finished = hosts.into_iter().enumerate();
        let ShardRun {
            outputs,
            mut registry,
        } = merge_in_shard_order(finished.map(|(i, (host, _))| finish(i as u32, host)));
        if let Some(roam_reg) = tele.take_registry() {
            registry.merge_relabeled(&roam_reg, |l| l);
        }
        RoamRun {
            outputs,
            registry,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use wifiq_mac::{App, Commands, Delivery, NetworkConfig, NodeAddr, Packet, SchemeKind};
    use wifiq_phy::AccessCategory;
    use wifiq_telemetry::Label;

    /// Downlink flood to whatever slots the roster notifications say are
    /// currently associated.
    #[derive(Default)]
    struct Flood {
        slots: BTreeSet<StationIdx>,
        sent: u64,
        delivered: u64,
    }

    impl App<()> for Flood {
        fn on_packet(&mut self, at: Delivery, _: Packet<()>, _: Nanos, _: &mut Commands<()>) {
            if matches!(at, Delivery::AtStation(_)) {
                self.delivered += 1;
            }
        }
        fn on_timer(&mut self, token: u64, now: Nanos, cmds: &mut Commands<()>) {
            for &sta in &self.slots {
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

    struct Host {
        net: WifiNetwork<()>,
        app: Flood,
        tele: Telemetry,
    }

    impl BssHost for Host {
        type M = ();
        fn net_mut(&mut self) -> &mut WifiNetwork<()> {
            &mut self.net
        }
        fn advance(&mut self, until: Nanos) {
            self.net.run(until, &mut self.app);
        }
        fn station_arrived(&mut self, _station: u32, slot: StationIdx) {
            self.app.slots.insert(slot);
        }
        fn station_departed(&mut self, _station: u32, slot: StationIdx) {
            self.app.slots.remove(&slot);
        }
    }

    fn build(ctx: &ShardCtx) -> Host {
        let cfg = NetworkConfig::builder()
            .scheme(SchemeKind::AirtimeFair)
            .build();
        let mut net = WifiNetwork::new(cfg);
        let tele = Telemetry::enabled();
        net.set_telemetry(tele.clone());
        net.seed_timer(0, Nanos::ZERO);
        let _ = ctx;
        Host {
            net,
            app: Flood::default(),
            tele,
        }
    }

    type Out = (usize, u64, u64);

    fn finish(_shard: u32, host: Host) -> (Out, Option<Registry>) {
        let active = host.net.active_stations();
        let drops = host.net.roam_drops();
        (
            (active, host.app.delivered, drops),
            host.tele.take_registry(),
        )
    }

    fn set() -> RoamSet {
        RoamSet::new(4, 42)
            .with_roster(8)
            .with_roam(RoamCfg {
                mean_dwell: Nanos::from_millis(300),
                ..RoamCfg::default()
            })
            .with_window(Nanos::from_millis(50))
    }

    #[test]
    fn roster_is_conserved_across_handoffs() {
        let run = set().run(Nanos::from_secs(2), build, finish);
        let active: usize = run.outputs.iter().map(|&(a, _, _)| a).sum();
        assert_eq!(active, 8, "stations leaked or duplicated while roaming");
        let delivered: u64 = run.outputs.iter().map(|&(_, d, _)| d).sum();
        assert!(delivered > 0, "no traffic flowed");
    }

    #[test]
    fn coordinator_telemetry_lands_in_the_rollup() {
        let run = set().run(Nanos::from_secs(2), build, finish);
        assert_eq!(
            run.registry.counter("roam", "handoffs", Label::Global),
            run.stats.handoffs
        );
        let drops: u64 = run.outputs.iter().map(|&(_, _, d)| d).sum();
        assert_eq!(run.stats.roam_drops, drops);
        assert!(
            run.stats.is_conserved(0),
            "every hand-off must ack a reattachment: {:?}",
            run.stats
        );
    }

    #[test]
    fn quiet_schedule_matches_a_plain_shard_set() {
        // With no moves before the horizon the lockstep engine must
        // reproduce the independent shard-set outputs for the same
        // initial placement.
        let quiet = RoamCfg {
            mean_dwell: Nanos::from_secs(3_600),
            ..RoamCfg::default()
        };
        let until = Nanos::from_millis(400);
        let a = set().with_roam(quiet.clone()).run(until, build, finish);
        let b = ShardSet::new(4, 42).run(|ctx| {
            let driver = RoamDriver::new(quiet.clone(), 42, 8, 4);
            let mut host = build(ctx);
            for g in (0..8).filter(|&g| driver.home(g) == ctx.shard) {
                let id = host
                    .net
                    .roam_in(StationCfg::clean(driver.rate(g)), Vec::new());
                host.station_arrived(g as u32, id.slot());
            }
            host.advance(until);
            finish(ctx.shard, host)
        });
        assert_eq!(a.stats.handoffs, 0, "schedule was not quiet");
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.registry.to_json().pretty(), b.registry.to_json().pretty());
    }
}
