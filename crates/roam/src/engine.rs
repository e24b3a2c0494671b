//! The multi-BSS roaming engine: mid-flow hand-offs *between* shards.
//!
//! [`RoamSet`] extends the shard-set execution model with stations that
//! move between BSS instances while traffic is flowing. The shards of a
//! [`wifiq_scale::ShardSet`] are fully independent; roaming couples them,
//! and coupling is where worker-count determinism usually dies. The
//! engine keeps the rollup byte-identical at any worker count by running
//! the shards in **windowed lockstep**:
//!
//! - Virtual time is cut into fixed windows. Every shard simulates one
//!   window, then all workers barrier at the boundary.
//! - Hand-offs are quantised to boundaries: a station disassociates at
//!   the end of the window its move falls in, crosses the coordinator as
//!   a [`RoamHandoff`](wifiq_mac::RoamHandoff) payload of carried flow
//!   state, and reassociates at the first boundary past its
//!   reassociation gap.
//! - Every random draw (who moves, where to, which MCS, how long the
//!   gap) happens on the coordinator's [`RoamDriver`] stream; workers
//!   make no draws, so their count cannot perturb the schedule.
//! - Departures and arrivals at one boundary are applied in station-id
//!   order, replies are folded in worker-index order, and registries are
//!   merged in shard order — every ordering a thread race could disturb
//!   is pinned.
//!
//! Networks are created **and stepped** on their owning worker thread
//! for their entire life (a `WifiNetwork`'s telemetry hub is `Rc`-based
//! and must not cross threads); only carried packets, acks, and final
//! results cross the channels.

use std::collections::BTreeMap;
use std::sync::mpsc::{self, Receiver, Sender};

use wifiq_mac::{Packet, StaId, StationCfg, StationIdx, WifiNetwork};
use wifiq_phy::PhyRate;
use wifiq_scale::{ShardCtx, ShardSet};
use wifiq_sim::Nanos;
use wifiq_telemetry::{Label, Registry, Telemetry};

use crate::driver::{RoamCfg, RoamDriver, RoamMove};
use crate::handoff::{policy_covered, tele_arrive, tele_depart, RoamStats};

/// One BSS plus whatever drives its traffic, owned by a worker thread.
///
/// The engine calls [`roam_in`](WifiNetwork::roam_in) /
/// [`roam_out`](WifiNetwork::roam_out) on the wrapped network itself;
/// the host only has to advance simulation time and keep its traffic
/// sources aware of the roster.
pub trait BssHost {
    /// Packet payload carried across hand-offs (crosses worker threads).
    type M: std::fmt::Debug + Send;

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
    /// plus the coordinator's `roam/*` hand-off telemetry.
    pub registry: Registry,
    /// Coordinator-side hand-off accounting.
    pub stats: RoamStats,
}

/// A station arriving on a shard at a window start.
struct Arrival<M> {
    shard: u32,
    station: u32,
    rate: PhyRate,
    packets: Vec<Packet<M>>,
}

/// A station departing a shard at a window end.
struct Depart {
    shard: u32,
    station: u32,
}

enum Cmd<M> {
    /// Apply `arrivals`, simulate to `until`, then apply `departs`.
    Window {
        until: Nanos,
        arrivals: Vec<Arrival<M>>,
        departs: Vec<Depart>,
    },
    /// Tear down: finalise every shard and reply with its result.
    Finish,
}

struct DepartAck<M> {
    station: u32,
    dropped: u64,
    deferred: bool,
    packets: Vec<Packet<M>>,
}

enum Reply<M, T> {
    Window {
        /// Extracted hand-off state, in (shard, station) order.
        departures: Vec<DepartAck<M>>,
        /// `(station, policy-covered)` per applied arrival.
        arrivals: Vec<(u32, bool)>,
    },
    Shard {
        shard: u32,
        out: T,
        /// Boxed: the recorder table is several hundred bytes inline, and
        /// this variant travels once per shard.
        registry: Option<Box<Registry>>,
    },
}

/// A hand-off crossing the coordinator between two boundaries.
struct Transit<M> {
    arrive_at: Nanos,
    station: u32,
    to: u32,
    rate: PhyRate,
    packets: Vec<Packet<M>>,
}

/// Runs N coupled BSS instances with stations roaming between them.
#[derive(Debug, Clone)]
pub struct RoamSet {
    bss: u32,
    master_seed: u64,
    workers: usize,
    window: Nanos,
    roster: usize,
    cfg: RoamCfg,
}

impl RoamSet {
    /// A set of `bss` instances and a default roster of two stations per
    /// BSS, executing sequentially until
    /// [`with_workers`](Self::with_workers) raises the parallelism.
    pub fn new(bss: u32, master_seed: u64) -> RoamSet {
        assert!(bss > 0, "a roam set needs at least one BSS");
        RoamSet {
            bss,
            master_seed,
            workers: 1,
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
    /// cost of more barriers.
    pub fn with_window(mut self, window: Nanos) -> RoamSet {
        assert!(!window.is_zero(), "zero lockstep window");
        self.window = window;
        self
    }

    /// Sets the worker-thread count (clamped to the BSS count). This
    /// changes wall-clock time only, never the merged output.
    pub fn with_workers(mut self, workers: usize) -> RoamSet {
        self.workers = workers.max(1).min(self.bss as usize);
        self
    }

    /// Number of BSS instances in the set.
    pub fn bss_count(&self) -> u32 {
        self.bss
    }

    /// The per-shard contexts (seed-split exactly like a plain
    /// [`ShardSet`], so a roam set over quiet schedules reproduces the
    /// shard set's per-BSS seeds).
    pub fn contexts(&self) -> Vec<ShardCtx> {
        ShardSet::new(self.bss, self.master_seed).contexts()
    }

    /// Runs every shard to `duration`, roaming stations between them.
    ///
    /// `build` constructs one host per shard **on its worker thread**
    /// (the network must start with an empty roster — the engine places
    /// every schedule station at its home BSS at time zero, announcing
    /// it through [`BssHost::station_arrived`]). `finish` consumes each
    /// host into its result and optional registry.
    pub fn run<B, T, F, G>(&self, duration: Nanos, build: F, finish: G) -> RoamRun<T>
    where
        B: BssHost,
        T: Send,
        F: Fn(&ShardCtx) -> B + Sync,
        G: Fn(u32, B) -> (T, Option<Registry>) + Sync,
    {
        assert!(!duration.is_zero(), "zero-length run");
        let ctxs = self.contexts();
        let workers = self.workers.max(1).min(self.bss as usize);
        let owner = |shard: u32| shard as usize % workers;
        let mut driver = RoamDriver::new(self.cfg.clone(), self.master_seed, self.roster, self.bss);

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
        let mut present = vec![false; self.roster];
        // Reassociation gap of each in-flight hand-off, recorded when its
        // arrival is dispatched and folded in when the shard acks it.
        let mut pending_gap: BTreeMap<u32, Nanos> = BTreeMap::new();
        let mut outputs: Vec<Option<T>> = (0..self.bss).map(|_| None).collect();
        let mut regs: Vec<Option<Registry>> = (0..self.bss).map(|_| None).collect();

        std::thread::scope(|s| {
            let mut cmd_txs: Vec<Sender<Cmd<B::M>>> = Vec::with_capacity(workers);
            let mut reply_rxs: Vec<Receiver<Reply<B::M, T>>> = Vec::with_capacity(workers);
            let mut shard_counts = vec![0usize; workers];
            for (w, count) in shard_counts.iter_mut().enumerate() {
                let mine: Vec<ShardCtx> = ctxs
                    .iter()
                    .copied()
                    .filter(|c| owner(c.shard) == w)
                    .collect();
                *count = mine.len();
                let (ctx, crx) = mpsc::channel::<Cmd<B::M>>();
                let (rtx, rrx) = mpsc::channel::<Reply<B::M, T>>();
                cmd_txs.push(ctx);
                reply_rxs.push(rrx);
                let (build, finish) = (&build, &finish);
                s.spawn(move || worker_loop(mine, crx, rtx, build, finish));
            }

            // The roster starts at its homes at time zero; windows then
            // follow, plus one flush window at `duration` that lands any
            // hand-off still in flight.
            transit.extend((0..self.roster).map(|g| Transit {
                arrive_at: Nanos::ZERO,
                station: g as u32,
                to: driver.home(g),
                rate: driver.rate(g),
                packets: Vec::new(),
            }));

            let mut start = Nanos::ZERO;
            let windows: Vec<(Nanos, Nanos)> = boundaries
                .iter()
                .map(|&end| {
                    let w = (start, end);
                    start = end;
                    w
                })
                .chain(std::iter::once((duration, duration)))
                .collect();

            for (wi, &(start, end)) in windows.iter().enumerate() {
                let flush = wi + 1 == windows.len();

                // Arrivals due at this window's start.
                type Split<M> = (Vec<Transit<M>>, Vec<Transit<M>>);
                let (mut landing, rest): Split<B::M> =
                    transit.drain(..).partition(|t| t.arrive_at <= start);
                transit = rest;
                landing.sort_by_key(|t| t.station);
                for t in &landing {
                    present[t.station as usize] = true;
                }

                // Departures executing at this window's end: held moves
                // whose station has landed, then freshly due draws. At
                // most one departure per station per window — marking the
                // station absent as its move is taken keeps a backlog of
                // quantisation-delayed moves from double-departing it.
                let mut departs_now: Vec<RoamMove> = Vec::new();
                if !flush {
                    let mut still_held = Vec::new();
                    for m in held.drain(..) {
                        if present[m.station as usize] {
                            present[m.station as usize] = false;
                            departs_now.push(m);
                        } else {
                            still_held.push(m);
                        }
                    }
                    held = still_held;
                    while driver.next_at() <= end {
                        let m = driver.next_move();
                        if present[m.station as usize] {
                            present[m.station as usize] = false;
                            departs_now.push(m);
                        } else {
                            held.push(m);
                        }
                    }
                }
                let move_of: BTreeMap<u32, RoamMove> =
                    departs_now.iter().map(|m| (m.station, *m)).collect();

                // Dispatch the window to every worker (an empty window is
                // still a barrier), arrivals and departures pre-sorted by
                // (shard, station) in each worker's host order.
                let mut per_worker_arr: Vec<Vec<Arrival<B::M>>> =
                    (0..workers).map(|_| Vec::new()).collect();
                for t in landing {
                    per_worker_arr[owner(t.to)].push(Arrival {
                        shard: t.to,
                        station: t.station,
                        rate: t.rate,
                        packets: t.packets,
                    });
                }
                let mut per_worker_dep: Vec<Vec<Depart>> =
                    (0..workers).map(|_| Vec::new()).collect();
                let mut departs_sorted: Vec<&RoamMove> = departs_now.iter().collect();
                departs_sorted.sort_by_key(|m| (m.from, m.station));
                for m in departs_sorted {
                    per_worker_dep[owner(m.from)].push(Depart {
                        shard: m.from,
                        station: m.station,
                    });
                }
                for (w, (arrivals, departs)) in
                    per_worker_arr.into_iter().zip(per_worker_dep).enumerate()
                {
                    let mut arrivals = arrivals;
                    arrivals.sort_by_key(|a| (a.shard, a.station));
                    cmd_txs[w]
                        .send(Cmd::Window {
                            until: end,
                            arrivals,
                            departs,
                        })
                        .expect("worker hung up mid-run");
                }

                // Fold replies in worker-index order.
                for rrx in &reply_rxs {
                    let (departures, arrivals) = match rrx.recv() {
                        Ok(Reply::Window {
                            departures,
                            arrivals,
                        }) => (departures, arrivals),
                        _ => panic!("worker hung up mid-window"),
                    };
                    for (station, covered) in arrivals {
                        // Initial placements at time zero are not
                        // hand-offs; only acked reassociations carry a
                        // pending gap.
                        if let Some(gap) = pending_gap.remove(&station) {
                            stats.on_arrive(covered, gap);
                            tele_arrive(&tele, covered, gap);
                        }
                    }
                    for d in departures {
                        let m = move_of[&d.station];
                        stats.on_depart(d.dropped, d.packets.len(), d.deferred);
                        tele_depart(&tele, d.dropped, d.packets.len(), d.deferred);
                        // First boundary past the reassociation gap; a
                        // gap outliving the run lands at the flush.
                        let arrive_at = boundaries[wi..]
                            .iter()
                            .copied()
                            .find(|&b| b >= m.rejoin_at)
                            .unwrap_or(duration);
                        pending_gap.insert(d.station, arrive_at - end);
                        transit.push(Transit {
                            arrive_at,
                            station: d.station,
                            to: m.to,
                            rate: m.rate,
                            packets: d.packets,
                        });
                    }
                }
            }
            debug_assert!(transit.is_empty(), "hand-off missed the flush window");

            for tx in &cmd_txs {
                tx.send(Cmd::Finish).expect("worker hung up at finish");
            }
            for (w, rrx) in reply_rxs.iter().enumerate() {
                for _ in 0..shard_counts[w] {
                    match rrx.recv() {
                        Ok(Reply::Shard {
                            shard,
                            out,
                            registry,
                        }) => {
                            outputs[shard as usize] = Some(out);
                            regs[shard as usize] = registry.map(|r| *r);
                        }
                        _ => panic!("worker exited with an unfinished shard"),
                    }
                }
            }
        });

        let mut registry = Registry::new();
        for (i, reg) in regs.iter().enumerate() {
            if let Some(reg) = reg {
                registry.merge_relabeled(reg, |_| Label::Shard(i as u32));
            }
        }
        if let Some(roam_reg) = tele.take_registry() {
            registry.merge_relabeled(&roam_reg, |l| l);
        }
        let outputs = outputs
            .into_iter()
            .map(|o| o.expect("shard produced no output"))
            .collect();
        RoamRun {
            outputs,
            registry,
            stats,
        }
    }
}

fn worker_loop<B, T, F, G>(
    ctxs: Vec<ShardCtx>,
    rx: Receiver<Cmd<B::M>>,
    tx: Sender<Reply<B::M, T>>,
    build: &F,
    finish: &G,
) where
    B: BssHost,
    F: Fn(&ShardCtx) -> B,
    G: Fn(u32, B) -> (T, Option<Registry>),
{
    // (shard, host, schedule-station → handle) in ascending shard order,
    // matching the coordinator's per-worker sort.
    let mut hosts: Vec<(u32, B, BTreeMap<u32, StaId>)> = ctxs
        .iter()
        .map(|c| (c.shard, build(c), BTreeMap::new()))
        .collect();
    while let Ok(cmd) = rx.recv() {
        match cmd {
            Cmd::Window {
                until,
                arrivals,
                departs,
            } => {
                let mut arr_iter = arrivals.into_iter().peekable();
                let mut dep_ack = Vec::new();
                let mut arr_ack = Vec::new();
                for (shard, host, slots) in hosts.iter_mut() {
                    while let Some(a) = arr_iter.next_if(|a| a.shard == *shard) {
                        let id = host.net_mut().roam_in(StationCfg::clean(a.rate), a.packets);
                        slots.insert(a.station, id);
                        let covered = policy_covered(host.net_mut(), id.slot());
                        host.station_arrived(a.station, id.slot());
                        arr_ack.push((a.station, covered));
                    }
                    host.advance(until);
                    for d in departs.iter().filter(|d| d.shard == *shard) {
                        let id = slots
                            .remove(&d.station)
                            .expect("departing station is not on this shard");
                        let h = host.net_mut().roam_out(id);
                        host.station_departed(d.station, id.slot());
                        dep_ack.push(DepartAck {
                            station: d.station,
                            dropped: h.dropped,
                            deferred: h.deferred,
                            packets: h.packets,
                        });
                    }
                }
                if tx
                    .send(Reply::Window {
                        departures: dep_ack,
                        arrivals: arr_ack,
                    })
                    .is_err()
                {
                    return; // coordinator gone (panic unwind)
                }
            }
            Cmd::Finish => {
                for (shard, host, _) in hosts.drain(..) {
                    let (out, registry) = finish(shard, host);
                    if tx
                        .send(Reply::Shard {
                            shard,
                            out,
                            registry: registry.map(Box::new),
                        })
                        .is_err()
                    {
                        return;
                    }
                }
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use wifiq_mac::{App, Commands, Delivery, NetworkConfig, NodeAddr, SchemeKind};
    use wifiq_phy::AccessCategory;

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

    fn set(workers: usize) -> RoamSet {
        RoamSet::new(4, 42)
            .with_roster(8)
            .with_roam(RoamCfg {
                mean_dwell: Nanos::from_millis(300),
                ..RoamCfg::default()
            })
            .with_window(Nanos::from_millis(50))
            .with_workers(workers)
    }

    #[test]
    fn rollup_is_byte_identical_across_worker_counts() {
        let a = set(1).run(Nanos::from_secs(2), build, finish);
        let b = set(4).run(Nanos::from_secs(2), build, finish);
        assert!(a.stats.handoffs > 5, "schedule too quiet to prove anything");
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(
            a.registry.to_json().pretty(),
            b.registry.to_json().pretty(),
            "worker count leaked into the rollup"
        );
    }

    #[test]
    fn roster_is_conserved_across_handoffs() {
        let run = set(2).run(Nanos::from_secs(2), build, finish);
        let active: usize = run.outputs.iter().map(|&(a, _, _)| a).sum();
        assert_eq!(active, 8, "stations leaked or duplicated while roaming");
        let delivered: u64 = run.outputs.iter().map(|&(_, d, _)| d).sum();
        assert!(delivered > 0, "no traffic flowed");
    }

    #[test]
    fn coordinator_telemetry_lands_in_the_rollup() {
        let run = set(2).run(Nanos::from_secs(2), build, finish);
        assert_eq!(
            run.registry.counter("roam", "handoffs", Label::Global),
            run.stats.handoffs
        );
        let drops: u64 = run.outputs.iter().map(|&(_, _, d)| d).sum();
        assert_eq!(run.stats.roam_drops, drops);
        assert_eq!(
            run.stats.policy_reattach + run.stats.neutral_fallback,
            run.stats.handoffs,
            "every hand-off must ack a reattachment"
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
        let a = set(1)
            .with_roam(quiet.clone())
            .run(Nanos::from_millis(400), build, finish);
        let b = set(3)
            .with_roam(quiet)
            .run(Nanos::from_millis(400), build, finish);
        assert_eq!(a.stats.handoffs, 0, "schedule was not quiet");
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.registry.to_json().pretty(), b.registry.to_json().pretty());
    }
}
