//! The discrete-event 802.11n network: the AP, the stations, and the
//! event loop. Channel arbitration — the contention round the loop runs
//! whenever the medium goes idle — is described in `contention.rs`.
//!
//! # What is charged as airtime
//!
//! Each attempt occupies the medium for `data PPDU + SIFS + (Block)ACK`.
//! That duration is charged to the involved station's meter and — under
//! the airtime scheme — its scheduler deficit, for *both* directions and
//! including retries, exactly as §3.2 specifies.

use wifiq_chaos::ChaosInjector;
use wifiq_core::{PacketArena, PacketHandle, StaId};
use wifiq_phy::consts::SLOT_TIME;
use wifiq_phy::AccessCategory;
use wifiq_policy::{CompiledPolicy, NODE_NONE};
use wifiq_sim::{EventQueue, Nanos, SimRng};
use wifiq_telemetry::{CounterId, DropReason, EventKind, GaugeId, HistId, Label, Telemetry};

use crate::aggregation::Aggregate;
use crate::app::{App, Commands, Delivery};
use crate::config::{NetworkConfig, SchemeKind};
use crate::contention::{ContenderSet, Participant};
use crate::meter::{AirtimeMeter, StationMeter};
use crate::occupancy::Occupancy;
use crate::packet::{NodeAddr, Packet, StationIdx};
use crate::ratectrl::Minstrel;
use crate::scheme::ApTxPath;
use crate::station::StationUplink;
use crate::trace::{TxDirection, TxMonitor, TxRecord};

/// What the wheel carries. A packet crossing the wire is parked in
/// `WifiNetwork::wire` and the event holds its handle, so every event is
/// two words whatever the payload type: the wheel's nodes and the
/// `pop_tick` batch buffer move 16 bytes per event, not a whole packet.
enum Event {
    /// A downlink packet reaches the AP from the wired side.
    WireToAp(PacketHandle),
    /// An uplink packet reaches the server from the AP.
    WireToServer(PacketHandle),
    /// The in-flight exchange (data + ack) completes.
    TxEnd,
    /// An application timer fires.
    AppTimer(u64),
}

const _: () = assert!(std::mem::size_of::<Event>() <= 16);

/// Compiled airtime-policy state: the active weight table plus pending
/// runtime switches in ascending time order. Exists only when
/// `cfg.policy` is non-empty, so the no-policy path pays one `None`
/// branch per scheduling round and nothing else.
struct PolicyRuntime {
    /// The weight table currently applied to the scheduler (`None` until
    /// a timeline with no initial set reaches its first switch).
    active: Option<CompiledPolicy>,
    /// Remaining switches, strictly ascending; applied lazily at the
    /// first scheduler round boundary at or after their due time.
    switches: Vec<(Nanos, CompiledPolicy)>,
    /// Index of the next due switch in `switches`.
    next: usize,
    /// Switches applied so far (telemetry).
    applied: u64,
}

/// One station slot's `mac/*` recorders under `Label::Station(slot)`. The
/// label is the slot, so a slot's ids outlive its occupants.
#[derive(Debug, Clone, Copy)]
struct StaTele {
    tx_airtime: CounterId,
    rx_airtime: CounterId,
    aggregate_frames: HistId,
    retries: CounterId,
    retry_drops: CounterId,
}

impl StaTele {
    fn resolve(tele: &Telemetry, sta: StationIdx) -> StaTele {
        let sl = Label::Station(sta as u32);
        StaTele {
            tx_airtime: tele.counter_id("mac", "tx_airtime_ns", sl),
            rx_airtime: tele.counter_id("mac", "rx_airtime_ns", sl),
            aggregate_frames: tele.hist_id("mac", "aggregate_frames", sl),
            retries: tele.counter_id("mac", "retries", sl),
            retry_drops: tele.counter_id("mac", "retry_drops", sl),
        }
    }
}

/// What the event loop itself records per aggregate, resolved in
/// [`WifiNetwork::set_telemetry`] and kept up to date by `add_station` and
/// policy switches, so that a record is an indexed write.
#[derive(Debug, Default)]
struct MacTele {
    hw_depth_gauge: GaugeId,
    hw_depth_hist: HistId,
    collisions: CounterId,
    /// Per station slot while the sink is on; empty (and never read)
    /// while it is off.
    stations: Vec<StaTele>,
    /// `policy/node_airtime_ns` per node of the policy in force.
    nodes: Vec<CounterId>,
}

/// Flow state extracted from a departing roamer by
/// [`WifiNetwork::roam_out`], to be re-homed on the target BSS via
/// [`WifiNetwork::roam_in`].
#[derive(Debug)]
pub struct RoamHandoff<M> {
    /// Queued downlink frames carried to the target BSS (stash, driver
    /// FIFOs, MAC FQ flows, and pfifo-family shared qdiscs).
    pub packets: Vec<Packet<M>>,
    /// Frames that could not migrate (hardware-committed aggregates,
    /// uplink backlog), already counted in [`WifiNetwork::roam_drops`].
    pub dropped: u64,
    /// The station's exchange was on the air: teardown was deferred and
    /// nothing migrated (drops will surface as churn drops instead).
    pub deferred: bool,
}

/// The simulated WiFi network under one queue-management scheme.
///
/// `M` is the application payload type carried in packets.
pub struct WifiNetwork<M> {
    cfg: NetworkConfig,
    queue: EventQueue<Event>,
    /// Packets on the wire hop, parked between the push of their
    /// `WireToAp` / `WireToServer` event and its dispatch. Inserted only
    /// where those two events are pushed, removed only where they are
    /// dispatched, so `live()` is the number of packets on the wire.
    wire: PacketArena<Packet<M>>,
    rng: SimRng,
    ap: ApTxPath<M>,
    /// Per-AC hardware queues of built aggregates (depth
    /// `cfg.hw_queue_depth`, normally 2).
    hw: [std::collections::VecDeque<Aggregate<M>>; AccessCategory::COUNT],
    ap_cw: [u32; AccessCategory::COUNT],
    stations: Vec<StationUplink<M>>,
    /// Per-station downlink rate controllers (only when
    /// `cfg.rate_control`; legacy-rate stations never adapt).
    ratectrl: Vec<Option<Minstrel>>,
    /// Fault injection (off — a `None` branch per query — unless
    /// `cfg.faults` has entries). Draws from a chaos-private stream, so
    /// the main RNG sequence is identical with chaos on or off.
    chaos: ChaosInjector,
    /// Airtime policy runtime (`None` unless `cfg.policy` is non-empty).
    policy: Option<PolicyRuntime>,
    /// Which station slots host an associated station.
    active: Occupancy,
    /// Stations removed while their exchange was on the air; detached as
    /// soon as that exchange completes. The handles stay current until
    /// [`detach_station`](Self::detach_station) frees the table slot, so
    /// a deferred slot can never be reused before its teardown runs.
    pending_detach: Vec<StaId>,
    /// Which stations contend for the medium, cached between mutations.
    contenders: ContenderSet,
    /// Monotonic join counter — gives every join (including slot reuse) a
    /// fresh RNG fork salt, so a rejoining station never replays its
    /// predecessor's stream.
    join_seq: u64,
    /// Packets discarded because their station departed (queued at
    /// removal, or committed to hardware and purged).
    churn_drops: u64,
    /// Packets lost to roaming hand-offs: hardware-committed frames and
    /// uplink backlog that [`roam_out`](Self::roam_out) could not migrate.
    roam_drops: u64,
    /// Packets discarded on arrival because they addressed a slot with no
    /// associated station.
    absent_drops: u64,
    /// Participants of the exchange currently on the air; empty when the
    /// medium is idle. The buffer is reused across exchanges.
    in_flight: Vec<Participant>,
    meter: AirtimeMeter,
    /// Optional monitor-mode sink receiving every transmission record.
    monitor: Option<Box<dyn TxMonitor>>,
    tele: Telemetry,
    mac_tele: MacTele,
    /// Total events processed (telemetry / runaway guard).
    pub events_processed: u64,
}

impl<M: std::fmt::Debug> WifiNetwork<M> {
    /// Builds the network from a configuration.
    pub fn new(cfg: NetworkConfig) -> WifiNetwork<M> {
        let mut rng = SimRng::new(cfg.seed);
        let stations: Vec<StationUplink<M>> = cfg
            .stations
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut sta = StationUplink::new(i, s.rate, cfg.station_fifo_limit);
                if cfg.station_fq {
                    sta.enable_fq();
                }
                if cfg.rate_control {
                    sta.enable_rate_control(rng.fork(i as u64 + 1));
                }
                sta
            })
            .collect();
        // Burn one draw so seed 0's first backoff is not the raw seed.
        let _ = rng.gen_f64();
        let ratectrl = cfg
            .stations
            .iter()
            .map(|s| {
                if cfg.rate_control && matches!(s.rate, wifiq_phy::PhyRate::Ht { .. }) {
                    Some(Minstrel::new(s.rate))
                } else {
                    // Legacy and VHT rates keep their configured rate;
                    // the Minstrel table only spans the HT MCS set.
                    None
                }
            })
            .collect();
        let policy = if cfg.policy.is_none() {
            None
        } else {
            // The builder validates the timeline; a hand-rolled
            // NetworkConfig fails here with the same message.
            let compiled = cfg
                .policy
                .compile(cfg.stations.len())
                .unwrap_or_else(|msg| panic!("invalid policy: {msg}"));
            Some(PolicyRuntime {
                active: compiled.initial,
                switches: compiled.switches,
                next: 0,
                applied: 0,
            })
        };
        let mut net = WifiNetwork {
            ap: ApTxPath::new(&cfg),
            ratectrl,
            chaos: ChaosInjector::from_schedule(&cfg.faults, cfg.seed, cfg.stations.len()),
            policy,
            hw: Default::default(),
            ap_cw: AccessCategory::ALL.map(|ac| ac.edca().cw_min),
            active: Occupancy::full(stations.len()),
            pending_detach: Vec::new(),
            contenders: ContenderSet::new(stations.len()),
            join_seq: stations.len() as u64,
            churn_drops: 0,
            roam_drops: 0,
            absent_drops: 0,
            stations,
            in_flight: Vec::new(),
            meter: AirtimeMeter::new(cfg.num_stations()),
            monitor: None,
            tele: Telemetry::disabled(),
            mac_tele: MacTele::default(),
            queue: EventQueue::new(),
            wire: PacketArena::new(),
            rng,
            cfg,
            events_processed: 0,
        };
        if let Some(active) = net.policy.as_ref().and_then(|p| p.active.clone()) {
            net.apply_policy(&active);
        }
        net
    }

    /// Attaches a monitor-mode sink that receives a [`TxRecord`] for
    /// every transmission attempt (replacing any previous monitor).
    pub fn attach_monitor(&mut self, monitor: Box<dyn TxMonitor>) {
        self.monitor = Some(monitor);
    }

    /// Detaches and returns the monitor, if one was attached.
    pub fn take_monitor(&mut self) -> Option<Box<dyn TxMonitor>> {
        self.monitor.take()
    }

    /// Attaches a telemetry handle and propagates it through the stack:
    /// the AP transmit path (FQ/CoDel metrics), every station's FQ uplink,
    /// and the MAC-level counters recorded by the event loop itself.
    pub fn set_telemetry(&mut self, tele: Telemetry) {
        self.ap.set_telemetry(tele.clone());
        for sta in &mut self.stations {
            sta.set_telemetry(tele.clone());
        }
        self.mac_tele = MacTele {
            hw_depth_gauge: tele.gauge_id("mac", "hw_queue_depth", Label::Global),
            hw_depth_hist: tele.hist_id("mac", "hw_queue_depth", Label::Global),
            collisions: tele.counter_id("mac", "collisions", Label::Global),
            stations: (0..self.stations.len())
                .filter(|_| tele.is_enabled())
                .map(|sta| StaTele::resolve(&tele, sta))
                .collect(),
            nodes: Vec::new(),
        };
        self.chaos.set_telemetry(tele.clone());
        self.tele = tele;
        self.observe_active_policy();
    }

    /// Reports the policy in force (if any) and resolves its per-node
    /// airtime counters. Runs when the sink is attached and after every
    /// switch — never per aggregate.
    fn observe_active_policy(&mut self) {
        let Some(active) = self.policy.as_ref().and_then(|p| p.active.as_ref()) else {
            return;
        };
        let nodes = active.node_count();
        self.tele
            .gauge("policy", "active_nodes", Label::Global, nodes as f64);
        self.mac_tele.nodes = (0..nodes as u32)
            .map(|n| {
                self.tele
                    .counter_id("policy", "node_airtime_ns", Label::Node(n))
            })
            .collect();
    }

    /// Pushes a compiled policy's per-(station, AC) weights into the
    /// airtime scheduler. Deficits are untouched — a reweight changes
    /// only future refills, so switches never drain queues or reset
    /// credit already earned by unrelated nodes.
    fn apply_policy(&mut self, compiled: &CompiledPolicy) {
        // Policy trees address station *slots* (stable wire addressing);
        // resolve each occupied slot to its current handle.
        for slot in 0..self.stations.len() {
            if let Some(id) = self.ap.sta_id(slot) {
                self.ap
                    .set_station_weights(id, compiled.station_weights(slot));
            }
        }
    }

    /// Pops the next policy switch if its due time has arrived.
    fn due_policy_switch(&mut self, now: Nanos) -> Option<CompiledPolicy> {
        let pol = self.policy.as_mut()?;
        if pol.next < pol.switches.len() && pol.switches[pol.next].0 <= now {
            let compiled = pol.switches[pol.next].1.clone();
            pol.next += 1;
            pol.applied += 1;
            Some(compiled)
        } else {
            None
        }
    }

    /// Applies any policy switches that have come due. Called at the top
    /// of every scheduler round so a switch lands exactly at a round
    /// boundary: in-flight aggregates and queued packets are untouched.
    fn poll_policy(&mut self, now: Nanos) {
        while let Some(compiled) = self.due_policy_switch(now) {
            self.apply_policy(&compiled);
            self.tele.count("policy", "switches", Label::Global, 1);
            if let Some(pol) = self.policy.as_mut() {
                pol.active = Some(compiled);
            }
            self.observe_active_policy();
        }
    }

    /// Number of policy switches applied so far.
    pub fn policy_switches_applied(&self) -> u64 {
        self.policy.as_ref().map_or(0, |p| p.applied)
    }

    /// The effective scheduler weight of `(sta, ac)` under the current
    /// scheme, or `None` when the scheme has no airtime scheduler or the
    /// handle is stale (the station departed).
    pub fn station_ac_weight(&self, sta: StaId, ac: AccessCategory) -> Option<u32> {
        self.ap.station_ac_weight(sta, ac)
    }

    /// The current handle of the station occupying `slot`, or `None` when
    /// the slot is vacant. This is the bridge from wire addressing
    /// (packets and aggregates carry slots) to the handle-keyed station
    /// table (DESIGN.md §14).
    pub fn sta_id(&self, slot: StationIdx) -> Option<StaId> {
        self.ap.sta_id(slot)
    }

    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.queue.now()
    }

    /// The scheme under test.
    pub fn scheme(&self) -> SchemeKind {
        self.cfg.scheme
    }

    /// The network configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.cfg
    }

    /// Per-station airtime / throughput meters.
    pub fn meter(&self) -> &AirtimeMeter {
        &self.meter
    }

    /// One station's meter.
    pub fn station_meter(&self, i: StationIdx) -> &StationMeter {
        self.meter.station(i)
    }

    /// Packets queued at the AP (all layers).
    pub fn ap_backlog(&self) -> usize {
        self.ap.backlog()
    }

    /// Packets live across every packet arena in the network — the AP
    /// path's plus each station uplink's. Backlogs count stashed and
    /// in-flight frames that live outside the arenas, so this is the
    /// stricter teardown check: once all queues report empty, any
    /// nonzero residue here is a leaked arena slot (a packet removed
    /// from every list but never freed).
    pub fn arena_live(&self) -> usize {
        self.ap.arena_live() + self.stations.iter().map(|s| s.arena_live()).sum::<usize>()
    }

    /// Packets on the wire hop right now: sent by the server and not yet at
    /// the AP, or received from a station and not yet at the server. With
    /// the backlogs and the drop counters this closes the packet balance
    /// between two `run` calls.
    pub fn wire_in_flight(&self) -> usize {
        self.wire.live()
    }

    /// Packets dropped at AP queueing layers (tail/overlimit drops).
    pub fn ap_queue_drops(&self) -> u64 {
        self.ap.queue_drops
    }

    /// Packets dropped by CoDel in the AP's FQ structure or qdisc.
    pub fn ap_codel_drops(&self) -> u64 {
        self.ap.codel_drops()
    }

    /// Packets queued at one station's uplink (all layers).
    pub fn station_backlog(&self, sta: StationIdx) -> usize {
        self.stations[sta].backlog()
    }

    /// The AP's current throughput estimate for a station, in bits/s:
    /// the Minstrel estimate under rate control, else the configured
    /// rate.
    pub fn rate_estimate(&self, sta: StationIdx) -> u64 {
        match &self.ratectrl[sta] {
            Some(rc) => rc.estimated_throughput(),
            None => self.cfg.stations[sta].rate.bits_per_second(),
        }
    }

    /// Seeds an application timer before the run starts.
    pub fn seed_timer(&mut self, token: u64, at: Nanos) {
        self.queue.push(at, Event::AppTimer(token));
    }

    /// Associates a new station mid-run, reusing the most recently vacated
    /// slot when one exists (the station table's LIFO free list governs
    /// slot choice). Returns the station's generational handle; read the
    /// wire slot it occupies from [`StaId::slot`]. Safe to call between
    /// [`run`](Self::run) windows.
    pub fn add_station(&mut self, station: crate::config::StationCfg) -> StaId {
        let id = self.ap.add_station(&station);
        let sta = id.slot();
        self.join_seq += 1;
        let mut up = StationUplink::new(sta, station.rate, self.cfg.station_fifo_limit);
        if self.cfg.station_fq {
            up.enable_fq();
        }
        if self.cfg.rate_control {
            up.enable_rate_control(self.rng.fork(self.join_seq));
        }
        up.set_telemetry(self.tele.clone());
        let rc = if self.cfg.rate_control && matches!(station.rate, wifiq_phy::PhyRate::Ht { .. }) {
            Some(Minstrel::new(station.rate))
        } else {
            None
        };
        if sta == self.stations.len() {
            if self.tele.is_enabled() {
                self.mac_tele
                    .stations
                    .push(StaTele::resolve(&self.tele, sta));
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
        self.meter.ensure_station(sta);
        self.meter.reset_station(sta);
        self.chaos.ensure_station(sta);
        // A joining station inherits the weights of the policy in force;
        // a slot the roster never covered falls back to neutral.
        if let Some(active) = self.policy.as_ref().and_then(|p| p.active.as_ref()) {
            let weights = active.station_weights(sta);
            self.ap.set_station_weights(id, weights);
        }
        self.tele.count("mac", "station_joins", Label::Global, 1);
        id
    }

    /// Disassociates a station. It immediately stops contending and
    /// receiving; its queued packets (AP-side and uplink) are dropped and
    /// counted in [`churn_drops`](Self::churn_drops). If the station's
    /// exchange is on the air right now, the teardown is deferred until
    /// that exchange completes — aggregates already committed to hardware
    /// finish (or retry out) normally, as on real hardware.
    pub fn remove_station(&mut self, id: StaId) {
        let sta = id.slot();
        assert!(
            self.ap.station_current(id) && self.active.contains(sta),
            "removing unknown or already-removed station {id:?}"
        );
        self.deactivate(sta);
        if self.station_in_flight(sta) {
            self.pending_detach.push(id);
        } else {
            self.detach_station(id);
        }
    }

    /// Marks `sta` departed: it stops contending and receiving at once,
    /// whether or not its teardown has to wait for the air to clear.
    fn deactivate(&mut self, sta: StationIdx) {
        self.active.remove(sta);
        self.contenders.forget(sta);
        self.tele.count("mac", "station_leaves", Label::Global, 1);
    }

    /// Whether the current in-flight exchange involves `sta`, either as
    /// the uplink transmitter or as the target of the AP's head-of-line
    /// aggregate.
    fn station_in_flight(&self, sta: StationIdx) -> bool {
        self.in_flight.iter().any(|p| match *p {
            Participant::Station { idx, .. } => idx == sta,
            Participant::Ap { ac } => self.hw[ac.index()].front().map(|a| a.station) == Some(sta),
        })
    }

    /// Tears down a departed station's state: purges its hardware-queued
    /// aggregates (sparing one that is on the air), detaches its TIDs and
    /// scheduler slot at the AP, and discards its uplink backlog.
    fn detach_station(&mut self, id: StaId) {
        let sta = id.slot();
        let now = self.queue.now();
        let mut inflight_ap = [false; AccessCategory::COUNT];
        for p in &self.in_flight {
            if let Participant::Ap { ac } = p {
                inflight_ap[ac.index()] = true;
            }
        }
        for (aci, &on_air) in inflight_ap.iter().enumerate() {
            let q = std::mem::take(&mut self.hw[aci]);
            for (i, agg) in q.into_iter().enumerate() {
                if agg.station != sta || (i == 0 && on_air) {
                    self.hw[aci].push_back(agg);
                } else {
                    self.churn_drops += agg.frames.len() as u64;
                }
            }
        }
        self.churn_drops += self.ap.remove_station(id, now) as u64;
        self.churn_drops += self.stations[sta].backlog() as u64;
        // Replacing the whole uplink discards its queues, stash and any
        // non-in-flight pending aggregate; `active` keeps the inert
        // replacement out of contention.
        self.stations[sta] = StationUplink::new(
            sta,
            self.cfg.stations[sta].rate,
            self.cfg.station_fifo_limit,
        );
        self.ratectrl[sta] = None;
        // A deferred teardown follows the station's last exchange, which
        // marked the slot dirty again.
        self.contenders.forget(sta);
    }

    /// Whether slot `sta` currently hosts an associated station.
    pub fn station_active(&self, sta: StationIdx) -> bool {
        self.active.contains(sta)
    }

    /// The slot of the `k`-th associated station in ascending slot order
    /// (`k` from 0), or `None` when `k >= active_stations()`. Equals
    /// `(0..station_slots()).filter(|&s| self.station_active(s)).nth(k)`
    /// without visiting every slot.
    pub fn nth_active_station(&self, k: usize) -> Option<StationIdx> {
        self.active.nth(k)
    }

    /// Number of currently associated stations.
    pub fn active_stations(&self) -> usize {
        self.active.count()
    }

    /// Number of station slots ever allocated (associated + tombstoned).
    pub fn station_slots(&self) -> usize {
        self.stations.len()
    }

    /// Packets dropped because their station departed while they were
    /// queued or committed to hardware.
    pub fn churn_drops(&self) -> u64 {
        self.churn_drops
    }

    /// Packets dropped on arrival for a slot with no associated station
    /// (traffic sources that have not yet noticed a departure).
    pub fn absent_drops(&self) -> u64 {
        self.absent_drops
    }

    /// Packets dropped during roaming hand-offs ([`roam_out`](Self::roam_out)):
    /// frames already committed to the hardware queue, plus the departing
    /// station's uplink backlog — the in-flight losses a real hand-off
    /// cannot save.
    pub fn roam_drops(&self) -> u64 {
        self.roam_drops
    }

    /// The leaf policy node owning `(sta, ac)` under the currently active
    /// policy, or `None` when no policy is in force or the tree does not
    /// cover the slot (a roamer landing there falls back to the neutral
    /// weight).
    pub fn policy_node_of(&self, sta: StationIdx, ac: AccessCategory) -> Option<u32> {
        let active = self.policy.as_ref()?.active.as_ref()?;
        let node = active.node_of(sta, ac.index());
        (node != NODE_NONE).then_some(node)
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
        let sta = id.slot();
        assert!(
            self.ap.station_current(id) && self.active.contains(sta),
            "roaming out unknown or already-removed station {id:?}"
        );
        self.deactivate(sta);
        if self.station_in_flight(sta) {
            self.pending_detach.push(id);
            return RoamHandoff {
                packets: Vec::new(),
                dropped: 0,
                deferred: true,
            };
        }
        // No aggregate of this station can be on the air (that would have
        // made it in-flight above), so every hardware-queued aggregate of
        // its is purgeable.
        let mut dropped = 0u64;
        for aci in 0..AccessCategory::COUNT {
            let q = std::mem::take(&mut self.hw[aci]);
            for agg in q {
                if agg.station == sta {
                    dropped += agg.frames.len() as u64;
                } else {
                    self.hw[aci].push_back(agg);
                }
            }
        }
        let packets = self.ap.remove_station_migrate(id);
        dropped += self.stations[sta].backlog() as u64;
        self.stations[sta] = StationUplink::new(
            sta,
            self.cfg.stations[sta].rate,
            self.cfg.station_fifo_limit,
        );
        self.ratectrl[sta] = None;
        self.roam_drops += dropped;
        RoamHandoff {
            packets,
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
    pub fn roam_in(
        &mut self,
        station: crate::config::StationCfg,
        carried: Vec<Packet<M>>,
    ) -> StaId {
        let id = self.add_station(station);
        let slot = id.slot();
        let now = self.queue.now();
        let mut acs = [false; AccessCategory::COUNT];
        for mut pkt in carried {
            pkt.dst = NodeAddr::Station(slot);
            pkt.enqueued = now;
            acs[pkt.ac.index()] = true;
            self.ap.enqueue(pkt, now);
        }
        for ac in AccessCategory::ALL {
            if acs[ac.index()] {
                self.ap_schedule(ac, now);
            }
        }
        self.try_contend(now);
        id
    }

    /// Runs the event loop until virtual time `until`, driving `app`.
    ///
    /// Returns at the first event time strictly greater than `until` (that
    /// event remains queued for a later `run` call).
    pub fn run<A: App<M>>(&mut self, until: Nanos, app: &mut A) {
        // One command buffer for the whole run: `apply` drains it after
        // each event, so the Vecs' capacity is reused instead of
        // reallocated per event.
        let mut cmds = Commands::new();
        // Same-tick events are drained in one `pop_tick` call and dispatched
        // from this batch buffer, so a burst of co-timed deliveries costs a
        // single wheel settle instead of one pop per event. Events a handler
        // pushes *at* the current tick are picked up by the next `pop_tick`;
        // they carry larger seqs than everything batched here, so dispatch
        // order is identical to the one-pop-at-a-time loop.
        let mut batch = Vec::new();
        while let Some(now) = self.queue.pop_tick(until, &mut batch) {
            for ev in batch.drain(..) {
                self.events_processed += 1;
                debug_assert!(cmds.is_empty(), "command buffer not drained");
                match ev {
                    Event::WireToAp(h) => {
                        let mut pkt = self.wire.remove(h);
                        if !self.station_active(pkt.wireless_peer()) {
                            // Addressed to a departed (or never-associated)
                            // station: the AP has no client to send it to.
                            self.absent_drops += 1;
                        } else {
                            pkt.enqueued = now;
                            let ac = pkt.ac;
                            self.ap.enqueue(pkt, now);
                            self.ap_schedule(ac, now);
                        }
                    }
                    Event::WireToServer(h) => {
                        let pkt = self.wire.remove(h);
                        app.on_packet(Delivery::AtServer, pkt, now, &mut cmds);
                    }
                    Event::AppTimer(token) => {
                        app.on_timer(token, now, &mut cmds);
                    }
                    Event::TxEnd => {
                        self.handle_tx_end(now, app, &mut cmds);
                    }
                }
                self.apply(&mut cmds, now);
                self.try_contend(now);
            }
        }
    }

    /// Applies and drains buffered application commands.
    fn apply(&mut self, cmds: &mut Commands<M>, now: Nanos) {
        if cmds.is_empty() {
            return;
        }
        for mut pkt in cmds.sends.drain(..) {
            match pkt.src {
                NodeAddr::Server => {
                    // Wire hop: propagation + 1 Gbps serialisation.
                    let delay = self.cfg.wire_delay + Nanos::for_bits(pkt.len * 8, 1_000_000_000);
                    let h = self.wire.insert(pkt);
                    self.queue.push(now + delay, Event::WireToAp(h));
                }
                NodeAddr::Station(i) => {
                    assert!(i < self.stations.len(), "send from unknown station {i}");
                    if !self.active.contains(i) {
                        // An application timer outliving its departed
                        // station; nothing to transmit from.
                        self.absent_drops += 1;
                        continue;
                    }
                    pkt.enqueued = now;
                    self.stations[i].enqueue(pkt);
                    self.contenders.mark_dirty(i);
                }
            }
        }
        for (token, at) in cmds.timers.drain(..) {
            self.queue.push(at.max(now), Event::AppTimer(token));
        }
    }

    /// Refills the hardware queue for `ac` — the paper's `schedule()`
    /// loop: "while the hardware queue is not full … build_aggregate".
    ///
    /// With AQL enabled, a station already holding its airtime budget in
    /// the hardware is skipped for this refill round (its frames stay in
    /// the MAC FQ, where CoDel and the scheduler govern them).
    fn ap_schedule(&mut self, ac: AccessCategory, now: Nanos) {
        // Policy switches land here, at the round boundary, before any
        // aggregate is built under the new weights.
        self.poll_policy(now);
        // A chaos backpressure spike narrows the effective depth; it can
        // never widen it past the configured hardware limit.
        let depth = match self.chaos.hw_depth_clamp(now) {
            Some(clamp) => clamp.min(self.cfg.hw_queue_depth),
            None => self.cfg.hw_queue_depth,
        };
        while self.hw[ac.index()].len() < depth {
            // AQL eligibility: stations at their hardware-airtime budget
            // are invisible to the scheduler this round.
            let sta = {
                let aql = self.cfg.aql;
                let hw = &self.hw[ac.index()];
                self.ap.next_tx(ac, now, |sta: StaId| match aql {
                    None => true,
                    Some(limit) => {
                        let slot = sta.slot();
                        let queued: Nanos = hw
                            .iter()
                            .filter(|a| a.station == slot)
                            .map(|a| a.exchange_airtime())
                            .sum();
                        queued < limit
                    }
                })
            };
            let Some(sta) = sta else { break };
            let slot = sta.slot();
            if let Some(rc) = self.ratectrl[slot].as_mut() {
                // The cap makes a chaos rate collapse visible to the
                // controller itself: it cannot probe above the collapsed
                // channel while the fault window is open.
                rc.set_cap(self.chaos.rate_override(slot, now));
                self.ap.set_rate(sta, rc.rate_for_next(&mut self.rng));
            } else if self.chaos.is_enabled() {
                match self.chaos.rate_override(slot, now) {
                    Some(rate) => {
                        self.ap.set_rate(sta, rate);
                        self.chaos.note_rate_override(slot);
                    }
                    // Restore the configured rate once the window closes
                    // (nothing else resets it without a controller).
                    None => self.ap.set_rate(sta, self.cfg.stations[slot].rate),
                }
            }
            match self.ap.build(sta, ac, now) {
                Some(agg) => self.hw[ac.index()].push_back(agg),
                // The TID drained (e.g. CoDel dropped the rest): loop and
                // ask the scheduler again; it will rotate the station out.
                None => continue,
            }
        }
        if let Some(mut rec) = self.tele.batch() {
            let total: usize = self.hw.iter().map(|q| q.len()).sum();
            rec.set(self.mac_tele.hw_depth_gauge, total as f64);
            rec.record(self.mac_tele.hw_depth_hist, total as u64);
        }
    }

    /// Runs one contention round if the medium is idle and anyone has a
    /// frame ready (DESIGN.md §14): phase A brings the cached contender
    /// set up to date, phase B draws every backoff from the main RNG — the
    /// AP first, then the contenders in ascending slot order — folding the
    /// earliest transmit time and the tied transmitters into `in_flight`.
    fn try_contend(&mut self, now: Nanos) {
        if !self.in_flight.is_empty() {
            return;
        }
        self.contenders
            .refresh(&mut self.stations, &self.active, now);
        // This crate's own tests re-evaluate every slot every round, in any
        // profile; every other debug build audits one word, rotating.
        let mut audit = |word| {
            self.contenders
                .audit(&mut self.stations, &self.active, word, now)
        };
        #[cfg(test)]
        assert_eq!(audit(None), Ok(()));
        #[cfg(not(test))]
        debug_assert_eq!(audit(Some(self.events_processed as usize)), Ok(()));

        let aifs = AccessCategory::ALL.map(|ac| ac.edca().aifs());
        let mut t_min = Nanos::MAX;
        // The AP contends with its highest-priority non-empty hw queue and
        // draws first.
        if let Some(ac) = AccessCategory::ALL
            .into_iter()
            .find(|ac| !self.hw[ac.index()].is_empty())
        {
            let slots = self.rng.backoff_slots(self.ap_cw[ac.index()]);
            t_min = aifs[ac.index()] + SLOT_TIME * slots as u64;
            self.in_flight.push(Participant::Ap { ac });
        }
        let t_min = self
            .contenders
            .draw(&mut self.rng, &aifs, t_min, &mut self.in_flight);

        // The exchange occupies the medium until the slowest tied
        // transmission (plus its ack slot) completes.
        let Some(dur) = self
            .in_flight
            .iter()
            .map(|p| self.participant_airtime(*p))
            .max()
        else {
            return;
        };
        self.queue.push(now + t_min + dur, Event::TxEnd);
    }

    fn participant_airtime(&self, p: Participant) -> Nanos {
        match p {
            Participant::Ap { ac } => self.hw[ac.index()]
                .front()
                .expect("AP contended with empty hw queue")
                .exchange_airtime(),
            Participant::Station { idx, ac } => self.stations[idx]
                .pending(ac)
                .expect("station contended with no pending aggregate")
                .exchange_airtime(),
        }
    }

    fn handle_tx_end<A: App<M>>(&mut self, now: Nanos, app: &mut A, cmds: &mut Commands<M>) {
        let mut participants = std::mem::take(&mut self.in_flight);
        assert!(!participants.is_empty(), "TxEnd with nothing in flight");
        let collision = participants.len() > 1;
        if collision {
            self.tele
                .add(self.mac_tele.collisions, participants.len() as u64);
        }

        for p in participants.drain(..) {
            match p {
                Participant::Ap { ac } => self.finish_ap_attempt(ac, collision, now, app, cmds),
                Participant::Station { idx, ac } => {
                    self.finish_station_attempt(idx, ac, collision, now)
                }
            }
        }

        // Removals that waited for this exchange to clear the air.
        if !self.pending_detach.is_empty() {
            for sta in std::mem::take(&mut self.pending_detach) {
                self.detach_station(sta);
            }
        }
        // Hand the emptied buffer back for the next exchange.
        self.in_flight = participants;
    }

    fn finish_ap_attempt<A: App<M>>(
        &mut self,
        ac: AccessCategory,
        collision: bool,
        now: Nanos,
        app: &mut A,
        cmds: &mut Commands<M>,
    ) {
        let aci = ac.index();
        let sta = self.hw[aci]
            .front()
            .expect("AP attempt with empty hw queue")
            .station;
        let front = self.hw[aci].front().expect("checked");
        let airtime = front.exchange_airtime();
        let tx_rate = front.rate;
        let failed = collision
            || self
                .rng
                .chance(self.cfg.stations[sta].errors.exchange_error_prob(tx_rate))
            || self.chaos.exchange_lost(sta, now);

        // Airtime is consumed whether or not the exchange succeeded.
        self.meter.station_mut(sta).tx_airtime += airtime;
        if let Some(mut rec) = self.tele.batch() {
            let front = self.hw[aci].front().expect("checked");
            let st = self.mac_tele.stations[sta];
            rec.add(st.tx_airtime, airtime.as_nanos());
            // Achieved airtime rolled up to the policy node governing
            // this (station, AC) — the observable the ≤5% share gate
            // checks against the configured tree.
            if let Some(active) = self.policy.as_ref().and_then(|p| p.active.as_ref()) {
                let node = active.node_of(sta, aci);
                if node != NODE_NONE {
                    rec.add(self.mac_tele.nodes[node as usize], airtime.as_nanos());
                }
            }
            rec.record(st.aggregate_frames, front.frames.len() as u64);
            if front.retries > 0 {
                rec.add(st.retries, 1);
            }
            rec.event(
                now,
                "mac",
                EventKind::Tx {
                    station: sta as u32,
                    ac: aci as u8,
                    frames: front.frames.len() as u32,
                    bytes: front.payload_bytes(),
                    airtime,
                    uplink: false,
                    success: !failed,
                    retry: front.retries > 0,
                },
            );
        }
        if let Some(mon) = self.monitor.as_mut() {
            let front = self.hw[aci].front().expect("checked");
            mon.on_tx(&TxRecord {
                at: now,
                station: sta,
                direction: TxDirection::Downlink,
                ac,
                rate: tx_rate,
                frames: front.frames.len(),
                payload_bytes: front.payload_bytes(),
                airtime,
                success: !failed,
                retry: front.retries,
            });
        }
        let rate_estimate = match self.ratectrl[sta].as_mut() {
            Some(rc) => {
                rc.report(tx_rate, !failed, now);
                rc.estimated_throughput()
            }
            None => self.cfg.stations[sta].rate.bits_per_second(),
        };
        // A collapsed channel must drive the §3.1.1 parameter switch:
        // while a chaos rate fault is active the estimate is the
        // impaired rate, not the configured/controller one.
        let rate_estimate = match self.chaos.rate_override(sta, now) {
            Some(rate) => rate.bits_per_second(),
            None => rate_estimate,
        };
        // Resolve the aggregate's wire slot to the station's current
        // handle. Removals of an on-air target are deferred until this
        // exchange has been torn down, so the handle is normally current;
        // a vacant slot (impossible today, but cheap to tolerate) simply
        // skips the per-station charge — the meter above already billed
        // the airtime.
        if let Some(id) = self.ap.sta_id(sta) {
            self.ap.on_tx_airtime(id, ac, airtime, now, rate_estimate);
            if self.chaos.is_enabled() {
                self.chaos
                    .observe_codel(sta, self.ap.codel_degraded(id), now);
            }
        }

        if failed {
            self.meter.station_mut(sta).failures += 1;
            self.ap_cw[aci] = ac.edca().next_cw(self.ap_cw[aci]);
            let drop = {
                let agg = self.hw[aci].front_mut().expect("checked");
                agg.retries += 1;
                // Retry chain: under rate control, each retry steps the
                // rate down the ladder (real drivers' MRR series).
                if let Some(rc) = self.ratectrl[sta].as_ref() {
                    let lower = rc.lower_rate(agg.rate);
                    if lower != agg.rate {
                        agg.retune(lower);
                    }
                }
                agg.retries > self.cfg.max_retries
            };
            if drop {
                let agg = self.hw[aci].pop_front().expect("checked");
                self.meter.station_mut(sta).retry_drops += agg.frames.len() as u64;
                if let Some(mut rec) = self.tele.batch() {
                    rec.add(
                        self.mac_tele.stations[sta].retry_drops,
                        agg.frames.len() as u64,
                    );
                    rec.event(
                        now,
                        "mac",
                        EventKind::Drop {
                            label: Label::Station(sta as u32),
                            bytes: agg.payload_bytes() as u32,
                            reason: DropReason::RetryLimit,
                        },
                    );
                }
                self.ap_cw[aci] = ac.edca().cw_min;
                self.ap.recycle_frames(agg.frames);
            }
        } else {
            self.ap_cw[aci] = ac.edca().cw_min;
            let agg = self.hw[aci].pop_front().expect("checked");
            let m = self.meter.station_mut(sta);
            m.tx_aggregates += 1;
            m.tx_aggregate_frames += agg.frames.len() as u64;
            let mut frames = agg.frames;
            for pkt in frames.drain(..) {
                let m = self.meter.station_mut(sta);
                m.tx_frames += 1;
                m.tx_bytes += pkt.len;
                app.on_packet(Delivery::AtStation(sta), pkt, now, cmds);
            }
            self.ap.recycle_frames(frames);
        }
        // A station vetoed by AQL may have been rotated off the lists
        // while still holding traffic; now that hardware airtime drained,
        // re-list it.
        if let Some(id) = self.ap.sta_id(sta) {
            self.ap.reactivate(id, ac);
        }
        self.ap_schedule(ac, now);
    }

    fn finish_station_attempt(
        &mut self,
        idx: StationIdx,
        ac: AccessCategory,
        collision: bool,
        now: Nanos,
    ) {
        // Success frees the pending aggregate, failure moves the window
        // (or drops the aggregate): the cached answer is stale either way.
        self.contenders.mark_dirty(idx);
        let airtime = self.stations[idx]
            .pending(ac)
            .expect("station attempt with no pending aggregate")
            .exchange_airtime();
        let up_rate = self.stations[idx]
            .pending(ac)
            .expect("station attempt with no pending aggregate")
            .rate;
        let failed = collision
            || self
                .rng
                .chance(self.cfg.stations[idx].errors.exchange_error_prob(up_rate))
            || self.chaos.exchange_lost(idx, now);

        self.meter.station_mut(idx).rx_airtime += airtime;
        if let Some(mut rec) = self.tele.batch() {
            let agg = self.stations[idx]
                .pending(ac)
                .expect("station attempt with no pending aggregate");
            let st = self.mac_tele.stations[idx];
            rec.add(st.rx_airtime, airtime.as_nanos());
            rec.record(st.aggregate_frames, agg.frames.len() as u64);
            if agg.retries > 0 {
                rec.add(st.retries, 1);
            }
            rec.event(
                now,
                "mac",
                EventKind::Tx {
                    station: idx as u32,
                    ac: ac.index() as u8,
                    frames: agg.frames.len() as u32,
                    bytes: agg.payload_bytes(),
                    airtime,
                    uplink: true,
                    success: !failed,
                    retry: agg.retries > 0,
                },
            );
        }
        if let Some(mon) = self.monitor.as_mut() {
            let agg = self.stations[idx]
                .pending(ac)
                .expect("station attempt with no pending aggregate");
            mon.on_tx(&TxRecord {
                at: now,
                station: idx,
                direction: TxDirection::Uplink,
                ac,
                rate: up_rate,
                frames: agg.frames.len(),
                payload_bytes: agg.payload_bytes(),
                airtime,
                success: !failed,
                retry: agg.retries,
            });
        }
        // RX airtime is charged to the station's scheduler deficit so the
        // AP can compensate for upstream usage it cannot control (§3.2).
        // A contending station is associated, so its slot resolves.
        if let Some(id) = self.ap.sta_id(idx) {
            self.ap.on_rx_airtime(id, ac, airtime);
        }

        if failed {
            self.meter.station_mut(idx).failures += 1;
            if let Some(agg) = self.stations[idx].on_failure(ac, self.cfg.max_retries, now) {
                self.meter.station_mut(idx).retry_drops += agg.frames.len() as u64;
                if let Some(mut rec) = self.tele.batch() {
                    rec.add(
                        self.mac_tele.stations[idx].retry_drops,
                        agg.frames.len() as u64,
                    );
                    rec.event(
                        now,
                        "mac",
                        EventKind::Drop {
                            label: Label::Station(idx as u32),
                            bytes: agg.payload_bytes() as u32,
                            reason: DropReason::RetryLimit,
                        },
                    );
                }
                self.stations[idx].recycle_frames(agg.frames);
            }
        } else {
            let agg = self.stations[idx].take_success(ac, now);
            let m = self.meter.station_mut(idx);
            m.rx_frames += agg.frames.len() as u64;
            let mut frames = agg.frames;
            for pkt in frames.drain(..) {
                // Station-to-station forwarding through the AP is not
                // modelled; every uplink frame terminates at the server.
                debug_assert!(
                    pkt.dst == NodeAddr::Server,
                    "uplink packet addressed to {:?}; peer-to-peer traffic is unsupported",
                    pkt.dst
                );
                self.meter.station_mut(idx).rx_bytes += pkt.len;
                // Forward across the wire to the server.
                let delay = self.cfg.wire_delay + Nanos::for_bits(pkt.len * 8, 1_000_000_000);
                let h = self.wire.insert(pkt);
                self.queue.push(now + delay, Event::WireToServer(h));
            }
            self.stations[idx].recycle_frames(frames);
        }
    }
}

#[cfg(test)]
mod conservation;

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal app: the server floods UDP-like packets to each station on
    /// a timer; stations count deliveries.
    struct FloodApp {
        next_id: u64,
        interval: Nanos,
        per_station_bytes: Vec<u64>,
        latencies: Vec<Vec<Nanos>>,
        stations: usize,
    }

    impl FloodApp {
        fn new(stations: usize, interval: Nanos) -> FloodApp {
            FloodApp {
                next_id: 0,
                interval,
                per_station_bytes: vec![0; stations],
                latencies: vec![Vec::new(); stations],
                stations,
            }
        }
    }

    impl App<()> for FloodApp {
        fn on_packet(
            &mut self,
            at: Delivery,
            pkt: Packet<()>,
            now: Nanos,
            _cmds: &mut Commands<()>,
        ) {
            if let Delivery::AtStation(i) = at {
                self.per_station_bytes[i] += pkt.len;
                self.latencies[i].push(now - pkt.created);
            }
        }

        fn on_timer(&mut self, token: u64, now: Nanos, cmds: &mut Commands<()>) {
            for i in 0..self.stations {
                self.next_id += 1;
                cmds.send(Packet {
                    id: self.next_id,
                    src: NodeAddr::Server,
                    dst: NodeAddr::Station(i),
                    flow: i as u64 + 1,
                    len: 1500,
                    ac: AccessCategory::Be,
                    created: now,
                    enqueued: now,
                    payload: (),
                });
            }
            cmds.set_timer(token, now + self.interval);
        }
    }

    fn run_flood(scheme: SchemeKind, secs: u64, interval: Nanos) -> (WifiNetwork<()>, FloodApp) {
        let cfg = NetworkConfig::paper_testbed(scheme);
        let mut net = WifiNetwork::new(cfg);
        let mut app = FloodApp::new(3, interval);
        net.seed_timer(0, Nanos::ZERO);
        net.run(Nanos::from_secs(secs), &mut app);
        (net, app)
    }

    #[test]
    fn light_traffic_flows_under_all_schemes() {
        for scheme in SchemeKind::ALL {
            // 1500 B per station every 10 ms = 1.2 Mbps each: no overload.
            let (net, app) = run_flood(scheme, 2, Nanos::from_millis(10));
            for i in 0..3 {
                let expect = 2_000 / 10 * 1500; // ~200 packets
                let got = app.per_station_bytes[i];
                assert!(
                    got as f64 > expect as f64 * 0.9,
                    "{scheme} station {i}: {got} of {expect} bytes"
                );
            }
            assert!(
                net.ap_queue_drops() == 0,
                "{scheme} dropped under light load"
            );
        }
    }

    #[test]
    fn light_traffic_latency_is_low() {
        for scheme in SchemeKind::ALL {
            let (_, app) = run_flood(scheme, 2, Nanos::from_millis(10));
            for i in 0..3 {
                let max = app.latencies[i].iter().max().unwrap();
                assert!(
                    *max < Nanos::from_millis(30),
                    "{scheme} station {i}: worst latency {max}"
                );
            }
        }
    }

    #[test]
    fn saturation_reveals_the_anomaly_under_fifo() {
        // Offered load far above capacity: 1500 B per station every 200 µs
        // = 60 Mbps each.
        let (net, _) = run_flood(SchemeKind::Fifo, 4, Nanos::from_micros(200));
        let shares = net.meter().airtime_shares();
        // The slow station (index 2) must dominate airtime — the 802.11
        // performance anomaly (~80% in the paper).
        assert!(
            shares[2] > 0.6,
            "anomaly absent under FIFO: shares {shares:?}"
        );
    }

    #[test]
    fn airtime_scheme_equalises_airtime() {
        let (net, _) = run_flood(SchemeKind::AirtimeFair, 4, Nanos::from_micros(200));
        let shares = net.meter().airtime_shares();
        for (i, s) in shares.iter().enumerate() {
            assert!(
                (s - 1.0 / 3.0).abs() < 0.05,
                "station {i} share {s:.3}: {shares:?}"
            );
        }
    }

    #[test]
    fn airtime_scheme_beats_fifo_on_total_throughput() {
        let (fifo, app_fifo) = run_flood(SchemeKind::Fifo, 4, Nanos::from_micros(200));
        let (air, app_air) = run_flood(SchemeKind::AirtimeFair, 4, Nanos::from_micros(200));
        let total_fifo: u64 = app_fifo.per_station_bytes.iter().sum();
        let total_air: u64 = app_air.per_station_bytes.iter().sum();
        assert!(
            total_air as f64 > total_fifo as f64 * 2.0,
            "expected big throughput win: FIFO {total_fifo}, airtime {total_air}"
        );
        let _ = (fifo, air);
    }

    #[test]
    fn aggregation_starvation_under_fifo() {
        // Under FIFO saturation, fast stations get only small aggregates
        // (the slow station hogs the driver buffer); under FQ-MAC they
        // aggregate well. Paper Table 1: 4.47 vs 18.44 mean frames.
        let (fifo, _) = run_flood(SchemeKind::Fifo, 4, Nanos::from_micros(200));
        let (fqmac, _) = run_flood(SchemeKind::FqMac, 4, Nanos::from_micros(200));
        let fast_fifo = fifo.station_meter(0).mean_aggregation();
        let fast_fqmac = fqmac.station_meter(0).mean_aggregation();
        assert!(
            fast_fqmac > fast_fifo * 2.0,
            "FQ-MAC should restore aggregation: FIFO {fast_fifo:.2}, FQ-MAC {fast_fqmac:.2}"
        );
    }

    #[test]
    fn hw_queue_depth_knob_works() {
        // Any depth ≥ 1 must carry traffic; deeper queues may pipeline
        // slightly better but never break.
        for depth in [1usize, 2, 8] {
            let mut cfg = NetworkConfig::paper_testbed(SchemeKind::AirtimeFair);
            cfg.hw_queue_depth = depth;
            let mut net = WifiNetwork::new(cfg);
            let mut app = FloodApp::new(3, Nanos::from_millis(1));
            net.seed_timer(0, Nanos::ZERO);
            net.run(Nanos::from_secs(1), &mut app);
            let total: u64 = app.per_station_bytes.iter().sum();
            assert!(total > 1_000_000, "depth {depth}: only {total} bytes");
        }
    }

    #[test]
    fn station_fifo_limit_causes_uplink_drops() {
        struct UpFlood;
        impl App<()> for UpFlood {
            fn on_packet(&mut self, _: Delivery, _: Packet<()>, _: Nanos, _: &mut Commands<()>) {}
            fn on_timer(&mut self, token: u64, now: Nanos, cmds: &mut Commands<()>) {
                // 50 packets per ms: far beyond a tiny uplink queue.
                for i in 0..50 {
                    cmds.send(Packet {
                        id: i,
                        src: NodeAddr::Station(0),
                        dst: NodeAddr::Server,
                        flow: 1,
                        len: 1500,
                        ac: AccessCategory::Be,
                        created: now,
                        enqueued: now,
                        payload: (),
                    });
                }
                if now < Nanos::from_millis(100) {
                    cmds.set_timer(token, now + Nanos::from_millis(1));
                }
            }
        }
        let mut cfg = NetworkConfig::paper_testbed(SchemeKind::FqMac);
        cfg.station_fifo_limit = 4;
        let mut net = WifiNetwork::new(cfg);
        net.seed_timer(0, Nanos::ZERO);
        net.run(Nanos::from_millis(300), &mut UpFlood);
        assert!(net.station_backlog(0) <= 4 + 64, "backlog unbounded");
    }

    #[test]
    fn wire_delay_sets_the_latency_floor() {
        let mut cfg = NetworkConfig::paper_testbed(SchemeKind::AirtimeFair);
        cfg.wire_delay = Nanos::from_millis(25);
        let mut net = WifiNetwork::new(cfg);
        // One packet; its one-way delay must exceed the wire delay and
        // stay well under 2× it plus a couple of ms of WiFi time.
        struct OneShot {
            delay: Option<Nanos>,
        }
        impl App<()> for OneShot {
            fn on_packet(
                &mut self,
                _: Delivery,
                pkt: Packet<()>,
                now: Nanos,
                _: &mut Commands<()>,
            ) {
                self.delay = Some(now - pkt.created);
            }
            fn on_timer(&mut self, _: u64, now: Nanos, cmds: &mut Commands<()>) {
                cmds.send(Packet {
                    id: 0,
                    src: NodeAddr::Server,
                    dst: NodeAddr::Station(0),
                    flow: 1,
                    len: 1500,
                    ac: AccessCategory::Be,
                    created: now,
                    enqueued: now,
                    payload: (),
                });
            }
        }
        let mut app = OneShot { delay: None };
        net.seed_timer(0, Nanos::ZERO);
        net.run(Nanos::from_secs(1), &mut app);
        let d = app.delay.expect("packet delivered");
        assert!(d >= Nanos::from_millis(25), "{d} below the wire delay");
        assert!(d < Nanos::from_millis(28), "{d} far above wire + WiFi time");
    }

    #[test]
    fn aql_bounds_fast_station_hol_latency() {
        // One 1 Mbps legacy hog plus a fast station; the hog's 12.5 ms
        // frames otherwise occupy both hardware slots back to back. With
        // a 5 ms AQL budget only one can be queued, so the fast station's
        // frames interleave and its latency tightens. Compare the fast
        // station's mean delivery latency.
        let run = |aql: Option<Nanos>| {
            let cfg = NetworkConfig::builder()
                .station(wifiq_phy::PhyRate::fast_station())
                .station(wifiq_phy::PhyRate::Legacy(wifiq_phy::LegacyRate::Dsss1))
                .scheme(SchemeKind::AirtimeFair)
                .aql(aql)
                .build();
            let mut net = WifiNetwork::new(cfg);
            let mut app = FloodApp::new(2, Nanos::from_millis(2));
            net.seed_timer(0, Nanos::ZERO);
            net.run(Nanos::from_secs(5), &mut app);
            let lat: Vec<f64> = app.latencies[0].iter().map(|l| l.as_millis_f64()).collect();
            assert!(!lat.is_empty(), "fast station starved");
            (
                lat.iter().sum::<f64>() / lat.len() as f64,
                app.per_station_bytes[1],
            )
        };
        let (without, hog_bytes_without) = run(None);
        let (with, hog_bytes_with) = run(Some(Nanos::from_millis(5)));
        assert!(
            with < without,
            "AQL did not reduce fast-station latency: {with:.2} vs {without:.2} ms"
        );
        // The hog must not be starved outright: within 2x.
        assert!(
            hog_bytes_with * 2 >= hog_bytes_without,
            "AQL starved the slow station: {hog_bytes_with} vs {hog_bytes_without}"
        );
    }

    #[test]
    fn telemetry_airtime_matches_meter() {
        let cfg = NetworkConfig::paper_testbed(SchemeKind::AirtimeFair);
        let mut net = WifiNetwork::new(cfg);
        let tele = Telemetry::enabled();
        net.set_telemetry(tele.clone());
        let mut app = FloodApp::new(3, Nanos::from_micros(500));
        net.seed_timer(0, Nanos::ZERO);
        net.run(Nanos::from_secs(2), &mut app);
        // The telemetry counters and the AirtimeMeter observe the same
        // exchanges; they must agree exactly.
        for i in 0..3 {
            assert_eq!(
                tele.counter("mac", "tx_airtime_ns", Label::Station(i as u32)),
                net.station_meter(i).tx_airtime.as_nanos(),
                "station {i} airtime mismatch"
            );
        }
        let fq_enqueued = tele
            .with_registry(|r| r.counter_total("fq", "enqueued"))
            .unwrap();
        assert!(
            fq_enqueued > 0,
            "MAC FQ saw no enqueues through the network path"
        );
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let (a, app_a) = run_flood(SchemeKind::AirtimeFair, 2, Nanos::from_micros(500));
        let (b, app_b) = run_flood(SchemeKind::AirtimeFair, 2, Nanos::from_micros(500));
        assert_eq!(app_a.per_station_bytes, app_b.per_station_bytes);
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.meter().airtime_shares(), b.meter().airtime_shares());
    }

    /// Sends whatever the test queued since the last timer, then idles.
    struct Inject {
        pending: Vec<Packet<()>>,
    }

    impl App<()> for Inject {
        fn on_packet(&mut self, _: Delivery, _: Packet<()>, _: Nanos, _: &mut Commands<()>) {}
        fn on_timer(&mut self, _: u64, _: Nanos, cmds: &mut Commands<()>) {
            for pkt in self.pending.drain(..) {
                cmds.send(pkt);
            }
        }
    }

    fn uplink_pkt(sta: StationIdx, ac: AccessCategory, now: Nanos) -> Packet<()> {
        Packet {
            id: 0,
            src: NodeAddr::Station(sta),
            dst: NodeAddr::Server,
            flow: sta as u64 * 4 + ac.index() as u64,
            len: 700,
            ac,
            created: now,
            enqueued: now,
            payload: (),
        }
    }

    /// One step of the contender-cache differential test.
    #[derive(Debug, Clone)]
    enum CacheOp {
        /// `n` uplink packets on one access category of station `k`.
        Up { k: usize, ac: usize, n: usize },
        /// One downlink packet to station `k` (the AP contends; `k`
        /// becomes an on-air target).
        Down { k: usize },
        /// Advance the simulation.
        Run { us: u64 },
        /// Join, as a `roam_in` of the last roam-out's frames if any wait.
        Add,
        /// Remove (or roam out) the `k`-th active station.
        Leave { k: usize, roam: bool },
        /// Remove (or roam out) a station taking part in the exchange on
        /// the air, if there is one.
        LeaveOnAir { roam: bool },
    }

    fn cache_op() -> impl proptest::Strategy<Value = CacheOp> {
        use proptest::prelude::*;
        let up =
            || (0usize.., 0usize..4, 1usize..4).prop_map(|(k, ac, n)| CacheOp::Up { k, ac, n });
        let run = || (1u64..600).prop_map(|us| CacheOp::Run { us });
        prop_oneof![
            up(),
            up(),
            up(),
            up(),
            (0usize..).prop_map(|k| CacheOp::Down { k }),
            run(),
            run(),
            run(),
            Just(CacheOp::Add),
            (0usize.., proptest::bool::ANY).prop_map(|(k, roam)| CacheOp::Leave { k, roam }),
            proptest::bool::ANY.prop_map(|roam| CacheOp::LeaveOnAir { roam }),
            proptest::bool::ANY.prop_map(|roam| CacheOp::LeaveOnAir { roam }),
        ]
    }

    /// Replays `ops` on a 200-station BSS (four bitmap words) in which
    /// every fifth station has a lossy channel and retry chains are short.
    /// `try_contend` audits the whole contender set against a from-scratch
    /// re-evaluation on every round of this crate's tests, so any stale
    /// cache entry panics inside `run`. After every op the occupancy
    /// bitmap is checked against a scan of every slot: the count, and
    /// `nth_active_station(k)` for every `k` up to and including the first
    /// that must be `None`.
    fn replay_cache_ops(ops: &[CacheOp], fq: bool, rate_control: bool) {
        let mut b = NetworkConfig::builder()
            .scheme(SchemeKind::AirtimeFair)
            .station_fq(fq)
            .rate_control(rate_control)
            .max_retries(2);
        for i in 0..200 {
            b = match i % 5 {
                0 => b.lossy_station(wifiq_phy::PhyRate::slow_station(), 0.4),
                _ => b.station(wifiq_phy::PhyRate::fast_station()),
            };
        }
        let mut net: WifiNetwork<()> = WifiNetwork::new(b.build());
        let mut app = Inject {
            pending: Vec::new(),
        };
        let nth_active = |net: &WifiNetwork<()>, k: usize| {
            net.nth_active_station(k % net.active_stations().max(1))
        };
        // Leaves; a roam-out hands back the frames it carries away.
        let leave = |net: &mut WifiNetwork<()>, slot: StationIdx, roam: bool| {
            let id = net.sta_id(slot).expect("active slot has a handle");
            if roam {
                Some(net.roam_out(id).packets)
            } else {
                net.remove_station(id);
                None
            }
        };
        let mut carried = None;
        for op in ops {
            let now = net.now();
            match *op {
                CacheOp::Up { k, ac, n } => {
                    let sta = k % net.station_slots();
                    for _ in 0..n {
                        app.pending
                            .push(uplink_pkt(sta, AccessCategory::ALL[ac], now));
                    }
                    net.seed_timer(0, now);
                }
                CacheOp::Down { k } => {
                    let sta = k % net.station_slots();
                    app.pending.push(Packet {
                        src: NodeAddr::Server,
                        dst: NodeAddr::Station(sta),
                        ..uplink_pkt(sta, AccessCategory::Be, now)
                    });
                    net.seed_timer(0, now);
                }
                CacheOp::Run { us } => net.run(now + Nanos::from_micros(us), &mut app),
                CacheOp::Add => {
                    let cfg = crate::config::StationCfg::clean(wifiq_phy::PhyRate::fast_station());
                    match carried.take() {
                        Some(packets) => net.roam_in(cfg, packets),
                        None => net.add_station(cfg),
                    };
                }
                CacheOp::Leave { k, roam } => {
                    if let Some(slot) = nth_active(&net, k) {
                        carried = leave(&mut net, slot, roam).or(carried);
                    }
                }
                CacheOp::LeaveOnAir { roam } => {
                    let on_air = (0..net.station_slots())
                        .find(|&s| net.station_active(s) && net.station_in_flight(s));
                    if let Some(slot) = on_air {
                        carried = leave(&mut net, slot, roam).or(carried);
                    }
                }
            }
            let live: Vec<_> = (0..net.station_slots())
                .filter(|&s| net.station_active(s))
                .collect();
            assert_eq!(net.active_stations(), live.len(), "active count drifted");
            for k in 0..=live.len() {
                assert_eq!(
                    net.nth_active_station(k),
                    live.get(k).copied(),
                    "k = {k} of {} after {op:?}",
                    live.len()
                );
            }
        }
        // Let the air clear and the deferred teardowns land.
        let end = net.now() + Nanos::from_millis(50);
        net.run(end, &mut app);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]
        /// The cached contender set equals a full re-evaluation of every
        /// active station after every round (the audit inside
        /// `try_contend`), whatever mix of uplink enqueues, channel
        /// errors, retry-limit drops, joins, removals and roam-outs —
        /// on-air targets included — produced it.
        #[test]
        fn cached_contenders_match_full_rescan(
            ops in proptest::collection::vec(cache_op(), 50..400),
            fq in proptest::bool::ANY,
            rate_control in proptest::bool::ANY,
        ) {
            replay_cache_ops(&ops, fq, rate_control);
        }
    }

    #[test]
    fn station_churn_mid_run() {
        for scheme in SchemeKind::ALL {
            let cfg = NetworkConfig::paper_testbed(scheme);
            let mut net = WifiNetwork::new(cfg);
            // The app keeps flooding all 3 slots throughout; it does not
            // know about the departure (exercises the absent-drop guard).
            let mut app = FloodApp::new(3, Nanos::from_micros(500));
            net.seed_timer(0, Nanos::ZERO);
            net.run(Nanos::from_secs(1), &mut app);
            let departing = net.sta_id(2).expect("slot 2 occupied");
            net.remove_station(departing);
            assert!(!net.station_active(2), "{scheme}");
            assert_eq!(net.active_stations(), 2, "{scheme}");
            let at_removal = app.per_station_bytes[2];
            let survivor = app.per_station_bytes[0];
            net.run(Nanos::from_secs(2), &mut app);
            // Only frames already committed to hardware may dribble out.
            assert!(
                app.per_station_bytes[2] - at_removal <= 64 * 1500,
                "{scheme}: departed station kept receiving"
            );
            assert!(
                app.per_station_bytes[0] > survivor,
                "{scheme}: survivors starved by the removal"
            );
            assert!(net.absent_drops() > 0, "{scheme}: no absent drops counted");
            // Rejoin reuses the vacated slot and traffic resumes.
            let rejoined = net.add_station(crate::config::StationCfg::clean(
                wifiq_phy::PhyRate::fast_station(),
            ));
            assert_eq!(rejoined.slot(), 2, "{scheme}: slot not reused");
            assert_ne!(
                rejoined, departing,
                "{scheme}: slot reuse must mint a fresh generation"
            );
            let at_rejoin = app.per_station_bytes[2];
            net.run(Nanos::from_secs(3), &mut app);
            assert!(
                app.per_station_bytes[2] > at_rejoin + 100 * 1500,
                "{scheme}: rejoined station starved"
            );
        }
    }

    #[test]
    fn churn_determinism_same_schedule_same_result() {
        let run = || {
            let cfg = NetworkConfig::paper_testbed(SchemeKind::AirtimeFair);
            let mut net = WifiNetwork::new(cfg);
            let mut app = FloodApp::new(3, Nanos::from_micros(500));
            net.seed_timer(0, Nanos::ZERO);
            net.run(Nanos::from_millis(500), &mut app);
            let id = net.sta_id(1).expect("slot 1 occupied");
            net.remove_station(id);
            net.run(Nanos::from_secs(1), &mut app);
            net.add_station(crate::config::StationCfg::clean(
                wifiq_phy::PhyRate::slow_station(),
            ));
            net.run(Nanos::from_secs(2), &mut app);
            (app.per_station_bytes.clone(), net.events_processed)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn uplink_packets_reach_server() {
        struct UpApp {
            received: u64,
        }
        impl App<()> for UpApp {
            fn on_packet(
                &mut self,
                at: Delivery,
                _pkt: Packet<()>,
                _now: Nanos,
                _c: &mut Commands<()>,
            ) {
                if at == Delivery::AtServer {
                    self.received += 1;
                }
            }
            fn on_timer(&mut self, token: u64, now: Nanos, cmds: &mut Commands<()>) {
                cmds.send(Packet {
                    id: token,
                    src: NodeAddr::Station(0),
                    dst: NodeAddr::Server,
                    flow: 9,
                    len: 200,
                    ac: AccessCategory::Be,
                    created: now,
                    enqueued: now,
                    payload: (),
                });
                if now < Nanos::from_millis(500) {
                    cmds.set_timer(token, now + Nanos::from_millis(1));
                }
            }
        }
        let cfg = NetworkConfig::paper_testbed(SchemeKind::FqMac);
        let mut net = WifiNetwork::new(cfg);
        let mut app = UpApp { received: 0 };
        net.seed_timer(1, Nanos::ZERO);
        net.run(Nanos::from_secs(1), &mut app);
        assert!(app.received > 480, "got {}", app.received);
        assert!(net.station_meter(0).rx_airtime > Nanos::ZERO);
    }

    #[test]
    fn channel_errors_cause_retries_but_traffic_still_flows() {
        let mut cfg = NetworkConfig::paper_testbed(SchemeKind::AirtimeFair);
        cfg.stations[0].errors = crate::config::ErrorModel::Fixed(0.3);
        let mut net = WifiNetwork::new(cfg);
        let mut app = FloodApp::new(3, Nanos::from_millis(5));
        net.seed_timer(0, Nanos::ZERO);
        net.run(Nanos::from_secs(2), &mut app);
        assert!(net.station_meter(0).failures > 0, "no failures injected?");
        assert!(
            app.per_station_bytes[0] > 0,
            "retries should still deliver traffic"
        );
        // The lossy station's airtime per delivered byte must exceed the
        // clean fast station's.
        let m0 = net.station_meter(0);
        let m1 = net.station_meter(1);
        let cost0 = m0.tx_airtime.as_nanos() as f64 / m0.tx_bytes.max(1) as f64;
        let cost1 = m1.tx_airtime.as_nanos() as f64 / m1.tx_bytes.max(1) as f64;
        assert!(
            cost0 > cost1,
            "retries must cost airtime: {cost0} vs {cost1}"
        );
    }

    #[test]
    fn rate_control_converges_in_situ() {
        // Stations start at MCS7 but their channels support MCS 12 / 2;
        // the controller should find the cliffs under live traffic.
        let start = wifiq_phy::PhyRate::ht(7, wifiq_phy::ChannelWidth::Ht20, true);
        let cfg = NetworkConfig::builder()
            .cliff_station(start, 12)
            .cliff_station(start, 2)
            .scheme(SchemeKind::AirtimeFair)
            .rate_control(true)
            .build();
        let mut net = WifiNetwork::new(cfg);
        let mut app = FloodApp::new(2, Nanos::from_micros(300));
        net.seed_timer(0, Nanos::ZERO);
        net.run(Nanos::from_secs(8), &mut app);
        let est0 = net.rate_estimate(0);
        let est1 = net.rate_estimate(1);
        // MCS12 = 86.7 Mbps, MCS2 = 21.7 Mbps (HT20 SGI).
        assert!(
            (60_000_000..95_000_000).contains(&est0),
            "station 0 estimate {est0}"
        );
        assert!(
            (12_000_000..26_000_000).contains(&est1),
            "station 1 estimate {est1}"
        );
        // Both stations actually received traffic at their channel's pace.
        assert!(app.per_station_bytes[0] > app.per_station_bytes[1]);
    }

    #[test]
    fn bidirectional_contention_works() {
        // Downlink flood + uplink flood from station 0 simultaneously.
        struct BiApp {
            inner: FloodApp,
            up_received: u64,
        }
        impl App<()> for BiApp {
            fn on_packet(
                &mut self,
                at: Delivery,
                pkt: Packet<()>,
                now: Nanos,
                cmds: &mut Commands<()>,
            ) {
                if at == Delivery::AtServer {
                    self.up_received += 1;
                }
                self.inner.on_packet(at, pkt, now, cmds);
            }
            fn on_timer(&mut self, token: u64, now: Nanos, cmds: &mut Commands<()>) {
                if token == 0 {
                    self.inner.on_timer(token, now, cmds);
                } else {
                    cmds.send(Packet {
                        id: 0,
                        src: NodeAddr::Station(0),
                        dst: NodeAddr::Server,
                        flow: 77,
                        len: 1500,
                        ac: AccessCategory::Be,
                        created: now,
                        enqueued: now,
                        payload: (),
                    });
                    cmds.set_timer(token, now + Nanos::from_millis(1));
                }
            }
        }
        let cfg = NetworkConfig::paper_testbed(SchemeKind::AirtimeFair);
        let mut net = WifiNetwork::new(cfg);
        let mut app = BiApp {
            inner: FloodApp::new(3, Nanos::from_millis(1)),
            up_received: 0,
        };
        net.seed_timer(0, Nanos::ZERO);
        net.seed_timer(1, Nanos::ZERO);
        net.run(Nanos::from_secs(2), &mut app);
        assert!(
            app.up_received > 1000,
            "uplink starved: {}",
            app.up_received
        );
        let down: u64 = app.inner.per_station_bytes.iter().sum();
        assert!(down > 0);
    }
}
