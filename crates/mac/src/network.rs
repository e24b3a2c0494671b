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
//!
//! State, accessors and the event loop live here; what the loop calls
//! lives one seam per file — `exchange`, `ap_tx`, `lifecycle`,
//! `policy_rt` (table in DESIGN.md §14).

mod ap_tx;
mod exchange;
mod lifecycle;
mod policy_rt;

use std::collections::VecDeque;

use wifiq_chaos::ChaosInjector;
use wifiq_core::{PacketArena, PacketHandle, StaId};
use wifiq_phy::AccessCategory;
use wifiq_sim::{EventQueue, Nanos, SimRng};
use wifiq_telemetry::{CounterId, GaugeId, HistId, Label, Telemetry};

use crate::aggregation::Aggregate;
use crate::app::{App, Commands, Delivery};
use crate::config::{NetworkConfig, SchemeKind};
use crate::contention::{ContenderSet, Participant};
use crate::meter::{AirtimeMeter, StationMeter};
use crate::occupancy::Occupancy;
use crate::packet::{NodeAddr, Packet, StationIdx, Ticket};
use crate::ratectrl::Minstrel;
use crate::scheme::ApTxPath;
use crate::station::StationUplink;
use crate::trace::TxMonitor;

use policy_rt::PolicyRuntime;

/// What the wheel carries. A packet crossing the wire stays in
/// `WifiNetwork::packets` and the event holds its handle, so every event is
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
    /// The leaver's meter identity ([`AirtimeMeter`]), for `roam_in` to
    /// take back. Its airtime so far stays billed on this network.
    pub identity: usize,
}

/// The shared medium as the AP sees it: committed aggregates, who is on air.
struct Medium {
    /// Per-AC hardware queues of built aggregates (depth
    /// `cfg.hw_queue_depth`, normally 2).
    hw: [VecDeque<Aggregate<Ticket>>; AccessCategory::COUNT],
    ap_cw: [u32; AccessCategory::COUNT],
    /// Participants of the exchange currently on the air; empty when the
    /// medium is idle. The buffer is reused across exchanges.
    in_flight: Vec<Participant>,
}

/// Everything that watches attempts go by and changes none of them.
struct Observers {
    meter: AirtimeMeter,
    /// Optional monitor-mode sink receiving every transmission record.
    monitor: Option<Box<dyn TxMonitor>>,
    tele: Telemetry,
    mac_tele: MacTele,
}

/// The simulated WiFi network under one queue-management scheme.
///
/// `M` is the application payload type carried in packets.
pub struct WifiNetwork<M> {
    cfg: NetworkConfig,
    queue: EventQueue<Event>,
    /// The packet store: every packet in the network, from the `apply` of
    /// its send to its delivery, its drop, or a roaming hand-off carrying
    /// it away. Everything in between — queues, stashes, aggregates,
    /// hardware queues, the wire hop — holds its [`Ticket`] or handle.
    packets: PacketArena<Packet<M>>,
    /// Packets on the wire hop: their `WireToAp` / `WireToServer` event is
    /// pushed and not yet dispatched.
    on_wire: usize,
    rng: SimRng,
    ap: ApTxPath,
    medium: Medium,
    stations: Vec<StationUplink>,
    /// Per-station downlink rate controllers (only when
    /// `cfg.rate_control`; legacy-rate stations never adapt).
    ratectrl: Vec<Option<Box<Minstrel>>>,
    /// Which station slots host an associated station.
    active: Occupancy,
    /// Stations removed while their exchange was on the air; torn down as
    /// soon as that exchange completes. The handles stay current until
    /// [`teardown`](Self::teardown) frees the table slot, so a deferred
    /// slot can never be reused before its teardown runs.
    pending_detach: Vec<StaId>,
    /// Which stations contend for the medium, cached between mutations.
    contenders: ContenderSet,
    /// Monotonic join counter — gives every join (including slot reuse) a
    /// fresh RNG fork salt, so a rejoining station never replays its
    /// predecessor's stream.
    join_seq: u64,
    obs: Observers,
    /// Fault injection (off — a `None` branch per query — unless
    /// `cfg.faults` has entries). Draws from a chaos-private stream, so
    /// the main RNG sequence is identical with chaos on or off.
    chaos: ChaosInjector,
    /// Airtime policy runtime (`None` unless `cfg.policy` is non-empty).
    policy: Option<PolicyRuntime>,
    /// Packets discarded because their station departed (queued at
    /// removal, or committed to hardware and purged).
    churn_drops: u64,
    /// Packets lost to roaming hand-offs: hardware-committed frames and
    /// uplink backlog that [`roam_out`](Self::roam_out) could not migrate.
    roam_drops: u64,
    /// Packets discarded on arrival because they addressed a slot with no
    /// associated station.
    absent_drops: u64,
    /// Total events processed (telemetry / runaway guard).
    pub events_processed: u64,
}

impl<M: std::fmt::Debug> WifiNetwork<M> {
    /// Builds the network from a configuration.
    pub fn new(cfg: NetworkConfig) -> WifiNetwork<M> {
        let mut rng = SimRng::new(cfg.seed);
        let (stations, ratectrl): (Vec<_>, Vec<_>) = cfg
            .stations
            .iter()
            .enumerate()
            .map(|(i, s)| lifecycle::associate(&cfg, &mut rng, i, s, i as u64 + 1))
            .unzip();
        // Burn one draw so seed 0's first backoff is not the raw seed.
        let _ = rng.gen_f64();
        let mut net = WifiNetwork {
            ap: ApTxPath::new(&cfg),
            chaos: ChaosInjector::from_schedule(&cfg.faults, cfg.seed, cfg.stations.len()),
            policy: PolicyRuntime::compile(&cfg),
            medium: Medium {
                hw: Default::default(),
                ap_cw: AccessCategory::ALL.map(|ac| ac.edca().cw_min),
                in_flight: Vec::new(),
            },
            ratectrl,
            active: Occupancy::full(stations.len()),
            pending_detach: Vec::new(),
            contenders: ContenderSet::new(stations.len()),
            join_seq: stations.len() as u64,
            stations,
            obs: Observers {
                meter: AirtimeMeter::new(cfg.num_stations()),
                monitor: None,
                tele: Telemetry::disabled(),
                mac_tele: MacTele::default(),
            },
            churn_drops: 0,
            roam_drops: 0,
            absent_drops: 0,
            queue: EventQueue::new(),
            packets: PacketArena::new(),
            on_wire: 0,
            rng,
            cfg,
            events_processed: 0,
        };
        // A saturated run holds the AP's global limit in the store, besides
        // what is on the wire, in station queues and on the air: room for
        // twice the limit means no saturated set-up regrows it by doubling.
        net.packets.reserve(2 * net.cfg.fq.limit);
        net.push_policy_weights();
        net
    }

    /// Attaches a monitor-mode sink that receives a [`crate::TxRecord`] for
    /// every transmission attempt (replacing any previous monitor).
    pub fn attach_monitor(&mut self, monitor: Box<dyn TxMonitor>) {
        self.obs.monitor = Some(monitor);
    }

    /// Attaches a telemetry handle and propagates it through the stack:
    /// the AP transmit path (FQ/CoDel metrics), every station's FQ uplink,
    /// and the MAC-level counters recorded by the event loop itself.
    pub fn set_telemetry(&mut self, tele: Telemetry) {
        self.ap.set_telemetry(tele.clone());
        for sta in &mut self.stations {
            sta.set_telemetry(tele.clone());
        }
        self.obs.mac_tele = MacTele {
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
        self.obs.tele = tele;
        self.observe_active_policy();
    }

    /// The attached telemetry handle (disabled until
    /// [`set_telemetry`](Self::set_telemetry)), for whoever drives this
    /// network and records beside it: a hand-off's `roam/*` counters land
    /// in the registry of the network it acts on.
    pub fn telemetry(&self) -> &Telemetry {
        &self.obs.tele
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
        &self.obs.meter
    }

    /// The meter of slot `i`'s occupant (its last one while vacant).
    pub fn station_meter(&self, i: StationIdx) -> &StationMeter {
        self.obs.meter.station(i)
    }

    /// Packets queued at the AP (all layers).
    pub fn ap_backlog(&self) -> usize {
        self.ap.backlog()
    }

    /// Tickets live across the queueing layers' arenas — the AP path's
    /// (MAC FQ or qdisc) plus each FQ station uplink's; the packet store
    /// is not one of them. Backlogs count stashed and in-flight frames
    /// that live outside those arenas, so this is the stricter teardown
    /// check: once all queues report empty, any nonzero residue here is a
    /// leaked arena slot (a ticket removed from every list but never
    /// freed).
    pub fn arena_live(&self) -> usize {
        let uplinks: usize = self.stations.iter().map(|s| s.arena_live()).sum();
        self.ap.arena_live() + uplinks
    }

    /// Packets on the wire hop right now: sent by the server and not yet at
    /// the AP, or received from a station and not yet at the server. With
    /// the backlogs and the drop counters this closes the packet balance
    /// between two `run` calls.
    pub fn wire_in_flight(&self) -> usize {
        self.on_wire
    }

    /// Packets dropped at AP queueing layers (tail/overlimit drops).
    pub fn ap_queue_drops(&self) -> u64 {
        self.ap.queue_drops()
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
        // the wheel appends them behind everything batched here, so
        // dispatch order is identical to the one-pop-at-a-time loop.
        let mut batch = Vec::new();
        while let Some(now) = self.queue.pop_tick(until, &mut batch) {
            for ev in batch.drain(..) {
                self.events_processed += 1;
                debug_assert!(cmds.is_empty(), "command buffer not drained");
                match ev {
                    Event::WireToAp(h) => {
                        self.on_wire -= 1;
                        let pkt = self.packets.get_mut(h);
                        if !self.active.contains(pkt.wireless_peer()) {
                            // Addressed to a departed (or never-associated)
                            // station: the AP has no client to send it to.
                            self.packets.remove(h);
                            self.absent_drops += 1;
                        } else {
                            pkt.enqueued = now;
                            let t = pkt.ticket(h);
                            self.ap.enqueue(t, now, discard(&mut self.packets));
                            self.ap_schedule(t.ac, now);
                        }
                    }
                    Event::WireToServer(h) => {
                        self.on_wire -= 1;
                        let pkt = self.packets.remove(h);
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
                    let len = pkt.len;
                    let h = self.packets.insert(pkt);
                    self.wire_hop(h, len, now, Event::WireToAp);
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
                    let t = self.admit(pkt);
                    self.stations[i].enqueue(t, discard(&mut self.packets));
                    self.contenders.mark_dirty(i);
                }
            }
        }
        for (token, at) in cmds.timers.drain(..) {
            self.queue.push(at.max(now), Event::AppTimer(token));
        }
    }

    /// Writes `pkt` into the store, where it stays until delivered,
    /// dropped or carried away, and returns the ticket the queueing layers
    /// will carry for it.
    fn admit(&mut self, pkt: Packet<M>) -> Ticket {
        let h = self.packets.insert(pkt);
        self.packets.get(h).ticket(h)
    }

    /// Sends the stored packet `h`, `len` bytes, across the wire between
    /// the AP and the server (propagation + 1 Gbps serialisation):
    /// schedules the `arrival` event that will collect it.
    fn wire_hop(
        &mut self,
        h: PacketHandle,
        len: u64,
        now: Nanos,
        arrival: fn(PacketHandle) -> Event,
    ) {
        let delay = self.cfg.wire_delay + Nanos::for_bits(len * 8, 1_000_000_000);
        self.on_wire += 1;
        self.queue.push(now + delay, arrival(h));
    }
}

/// The drop sink the network hands every queueing layer: frees a dropped
/// packet's slot in the store. Counting the drop is the layer's business.
///
/// It does not drop the packet in place. `remove` moves the packet out of
/// its slot and the sink drops the moved value: the release build reads
/// the slot's generation (at +104) and the payload's niche (at +0),
/// unlinks the slot, copies the 104-byte packet out with six 16-byte
/// loads, and then runs the payload's drop glue on the copy. The full
/// read costs nothing that matters: the store's free list is LIFO, so the
/// next `apply` writes its packet into this very slot, and the read has
/// already brought its lines into cache. A true in-place drop
/// (`slot.payload = None`, no move) measured about 5 % slower on
/// `roster20k_churn`, slower in 6 of 6 paired runs (DESIGN.md §13).
fn discard<M>(packets: &mut PacketArena<Packet<M>>) -> impl FnMut(Ticket) + '_ {
    move |t| {
        packets.remove(t.handle);
    }
}

#[cfg(test)]
mod conservation;
#[cfg(test)]
mod tests;
