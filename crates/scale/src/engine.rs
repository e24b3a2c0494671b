//! The multi-BSS roaming engine: mid-flow hand-offs *between* shards.
//!
//! [`RoamSet`] extends the shard-set model with stations that move
//! between BSS instances while traffic is flowing. The shards of a
//! [`ShardSet`] are fully independent; roaming couples
//! them, so a roam set is **one simulated world stepped on the calling
//! thread** in windowed lockstep:
//!
//! - Virtual time is cut into fixed 50 ms windows. Per window the
//!   engine lands the arrivals due, advances every BSS to the boundary in
//!   shard order, then executes the departures due.
//! - Hand-offs are quantised to boundaries: a station disassociates at
//!   the end of the window its move falls in, waits out its gap as a
//!   parked payload of carried flow state, and reassociates at the
//!   first boundary past its reassociation gap.
//! - Every random draw (who moves, where to, which MCS, how long the
//!   gap) happens on the engine's [`RoamDriver`] stream; the networks
//!   make none on its behalf.
//! - Arrivals and departures at one boundary are applied in station-id
//!   order, so every BSS's run is a pure function of the set's
//!   parameters. A hand-off's `roam/*` counters land in the telemetry of
//!   the network it acts on: the departure on the BSS left, the landing
//!   on the BSS joined.
//!
//! Independent repetitions of a roam set are the parallel unit (the
//! experiment harness runs them side by side); a single set never
//! spawns.

use std::collections::BTreeMap;

use wifiq_mac::{StaId, StationCfg, WifiNetwork};
use wifiq_sim::Nanos;

use crate::driver::{RoamCfg, RoamDriver, RoamMove};
use crate::handoff::{arrive, depart, take_due, RoamStats, Transit};
use crate::shard::{ShardCtx, ShardSet};

/// One BSS plus whatever drives its traffic.
///
/// The engine calls [`roam_in`](WifiNetwork::roam_in) /
/// [`roam_out`](WifiNetwork::roam_out) on the wrapped network itself;
/// the host only has to advance simulation time. A schedule station's
/// meter identity on every BSS is its station number, so a host reads
/// per-station results from the meters, not from a slot map.
pub trait BssHost {
    /// Packet payload carried across hand-offs.
    type M: std::fmt::Debug;

    /// The network under this host.
    fn net_mut(&mut self) -> &mut WifiNetwork<Self::M>;

    /// Advances the simulation to `until`, driving traffic.
    fn advance(&mut self, until: Nanos);
}

/// The outcome of a roaming multi-BSS run.
#[derive(Debug)]
pub struct RoamRun<T> {
    /// Per-shard results, in shard order.
    pub outputs: Vec<T>,
    /// Hand-off accounting.
    pub stats: RoamStats,
}

/// The lockstep window. A station departs at the end of the window its
/// move falls in and executes at most one hand-off per window, so a
/// shorter window quantises hand-offs less at the cost of stopping every
/// network more often.
const WINDOW: Nanos = Nanos::from_millis(50);

/// Runs N coupled BSS instances with stations roaming between them.
#[derive(Debug, Clone)]
pub struct RoamSet {
    bss: u32,
    master_seed: u64,
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

    /// Runs every shard to `duration`, roaming stations between them.
    ///
    /// `build` constructs one host per shard (the network must start
    /// with an empty roster — the engine places every schedule station
    /// at its home BSS at time zero, under its station number as meter
    /// identity). `finish` consumes each host into its result.
    pub fn run<B, T, F, G>(&self, duration: Nanos, build: F, finish: G) -> RoamRun<T>
    where
        B: BssHost,
        F: Fn(&ShardCtx) -> B,
        G: Fn(u32, B) -> T,
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
            t = (t + WINDOW).min(duration);
            boundaries.push(t);
        }

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
                .roam_in(StationCfg::clean(driver.rate(g)), Vec::new(), g);
            slots.insert(g as u32, id);
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
                let id = arrive(host.net_mut(), t, start, &mut stats);
                slots.insert(station, id);
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
                let packets = depart(host.net_mut(), id, &mut stats);
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
        RoamRun {
            outputs: finished
                .map(|(i, (host, _))| finish(i as u32, host))
                .collect(),
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wifiq_mac::{App, Commands, Delivery, NetworkConfig, NodeAddr, Packet, SchemeKind};
    use wifiq_phy::{AccessCategory, PhyRate};
    use wifiq_telemetry::{Label, Telemetry};

    /// Downlink flood to slots `0..slots` (the roster): no BSS holds
    /// more, and the AP drops what is sent to a vacant one.
    struct Flood {
        slots: usize,
        sent: u64,
        delivered: u64,
    }

    const ROSTER: usize = 8;

    impl App<()> for Flood {
        fn on_packet(&mut self, at: Delivery, _: Packet<()>, _: Nanos, _: &mut Commands<()>) {
            if matches!(at, Delivery::AtStation(_)) {
                self.delivered += 1;
            }
        }
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
    }

    fn build(slots: usize) -> impl Fn(&ShardCtx) -> Host {
        move |_| {
            let cfg = NetworkConfig::builder()
                .scheme(SchemeKind::AirtimeFair)
                .build();
            let mut net = WifiNetwork::new(cfg);
            let tele = Telemetry::enabled();
            net.set_telemetry(tele.clone());
            net.seed_timer(0, Nanos::ZERO);
            Host {
                net,
                app: Flood {
                    slots,
                    sent: 0,
                    delivered: 0,
                },
                tele,
            }
        }
    }

    #[derive(Debug, PartialEq)]
    struct Out {
        active: usize,
        slots: usize,
        delivered: u64,
        drops: u64,
        /// This BSS's `roam/handoffs` and `roam/{policy_reattach,
        /// neutral_fallback}` counters.
        departures: u64,
        landings: u64,
        /// The BSS's telemetry snapshot.
        snapshot: String,
    }

    fn finish(shard: u32, host: Host) -> Out {
        let roam = |metric| host.tele.counter("roam", metric, Label::Global);
        Out {
            active: host.net.active_stations(),
            slots: host.net.station_slots(),
            delivered: host.app.delivered,
            drops: host.net.roam_drops(),
            departures: roam("handoffs"),
            landings: roam("policy_reattach") + roam("neutral_fallback"),
            snapshot: host.tele.snapshot("bss", shard.into()).pretty(),
        }
    }

    fn set() -> RoamSet {
        RoamSet::new(4, 42).with_roster(ROSTER).with_roam(RoamCfg {
            mean_dwell: Nanos::from_millis(300),
            ..RoamCfg::default()
        })
    }

    /// The roster tests' schedules, each with its roster size: [`set`],
    /// and a brisk one over 16 stations whose 20 ms dwell is shorter than
    /// the window, so moves drawn while their station is in transit are
    /// held until it lands, and whose arrivals re-roll a mixed palette.
    fn schedules() -> [(RoamSet, usize); 2] {
        let brisk = RoamSet::new(4, 42).with_roster(16).with_roam(RoamCfg {
            mean_dwell: Nanos::from_millis(20),
            reassoc_min: Nanos::from_millis(5),
            reassoc_max: Nanos::from_millis(15),
            rate_palette: vec![PhyRate::fast_station(), PhyRate::slow_station()],
        });
        [(set(), ROSTER), (brisk, 16)]
    }

    #[test]
    fn roster_is_conserved_across_handoffs() {
        for (set, roster) in schedules() {
            let run = set.run(Nanos::from_secs(2), build(roster), finish);
            assert!(run.stats.handoffs > 0, "the schedule never moved a station");
            let active: usize = run.outputs.iter().map(|o| o.active).sum();
            assert_eq!(
                active, roster,
                "stations leaked or duplicated while roaming"
            );
            // A hand-off reuses the slot a departure freed, so no BSS's
            // slot table outgrows the roster.
            for out in &run.outputs {
                assert!(
                    out.slots <= roster,
                    "a slot table grew to {} over a roster of {roster}",
                    out.slots
                );
            }
            let delivered: u64 = run.outputs.iter().map(|o| o.delivered).sum();
            assert!(delivered > 0, "no traffic flowed");
        }
    }

    /// Each hand-off is counted once, on the BSS the station left, and
    /// each landing on the BSS it joined.
    #[test]
    fn handoff_telemetry_lands_on_each_network() {
        for (set, roster) in schedules() {
            let run = set.run(Nanos::from_secs(2), build(roster), finish);
            let total = |count: fn(&Out) -> u64| run.outputs.iter().map(count).sum::<u64>();
            assert_eq!(total(|o| o.departures), run.stats.handoffs);
            assert_eq!(
                total(|o| o.landings),
                run.stats.policy_reattach + run.stats.neutral_fallback
            );
            let drops: u64 = run.outputs.iter().map(|o| o.drops).sum();
            assert_eq!(run.stats.roam_drops, drops);
            assert!(
                run.stats.is_conserved(0),
                "every hand-off must ack a reattachment: {:?}",
                run.stats
            );
        }
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
        let a = set()
            .with_roam(quiet.clone())
            .run(until, build(ROSTER), finish);
        let b = ShardSet::new(4, 42).run(|ctx| {
            let driver = RoamDriver::new(quiet.clone(), 42, ROSTER, 4);
            let mut host = build(ROSTER)(ctx);
            for g in (0..ROSTER).filter(|&g| driver.home(g) == ctx.shard) {
                host.net
                    .roam_in(StationCfg::clean(driver.rate(g)), Vec::new(), g);
            }
            host.advance(until);
            finish(ctx.shard, host)
        });
        assert_eq!(a.stats.handoffs, 0, "schedule was not quiet");
        assert_eq!(a.outputs, b);
    }
}
