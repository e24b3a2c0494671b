//! Packet conservation: every packet an application sends is, at any
//! instant between two `run` calls, in exactly one place — delivered,
//! counted by one drop counter, queued, committed to hardware, or on the
//! wire. And the packet store holds exactly the packets that are still in
//! the network: a drop site that counts a packet but never frees its slot
//! (a CoDel or overlimit victim, a purged aggregate) leaks it, and the
//! store audit catches that at the next slice. The hardware queues, the
//! AP's stash, the store and the stations' tail-drop counters are
//! private, which is why this lives here (the root
//! `tests/packet_conservation.rs` checks the public half).

use wifiq_core::FqParams;
use wifiq_phy::PhyRate;

use super::*;
use crate::config::StationCfg;

/// Flow ids are a base plus the slot: floods below `PING`, echo requests
/// from `PING`, their replies from `PONG`.
const PING: u64 = 1 << 32;
const PONG: u64 = 1 << 33;
/// Timer tokens: the downlink tick, the uplink tick, the ping tick.
const DOWN: u64 = 0;
const UP: u64 = 1;
const PINGS: u64 = 2;

/// Downlink floods, uplink floods and pings by slot number, whoever
/// occupies the slot — the sources never notice churn.
struct Mixed {
    down: Vec<StationIdx>,
    up: Vec<StationIdx>,
    pinged: Vec<StationIdx>,
    /// Timers stop re-arming here, so the network can drain.
    stop: Nanos,
    offered: u64,
    delivered: u64,
}

impl Mixed {
    fn send(
        &mut self,
        cmds: &mut Commands<()>,
        (src, dst): (NodeAddr, NodeAddr),
        flow: u64,
        len: u64,
        now: Nanos,
    ) {
        self.offered += 1;
        cmds.send(Packet {
            id: self.offered,
            src,
            dst,
            flow,
            len,
            ac: if flow >= PING {
                AccessCategory::Vo
            } else {
                AccessCategory::Be
            },
            created: now,
            enqueued: now,
            payload: (),
        });
    }
}

impl App<()> for Mixed {
    fn on_packet(&mut self, at: Delivery, pkt: Packet<()>, now: Nanos, cmds: &mut Commands<()>) {
        self.delivered += 1;
        if let (Delivery::AtStation(sta), PING..PONG) = (at, pkt.flow) {
            let back = (NodeAddr::Station(sta), NodeAddr::Server);
            self.send(cmds, back, PONG + sta as u64, 64, now);
        }
    }

    fn on_timer(&mut self, token: u64, now: Nanos, cmds: &mut Commands<()>) {
        if now >= self.stop {
            return;
        }
        let (slots, uplink, flow, len, gap) = match token {
            DOWN => (self.down.clone(), false, 0, 1500, Nanos::from_micros(150)),
            UP => (self.up.clone(), true, 100, 1500, Nanos::from_micros(100)),
            _ => (self.pinged.clone(), false, PING, 64, Nanos::from_millis(2)),
        };
        for sta in slots {
            let ends = match uplink {
                true => (NodeAddr::Station(sta), NodeAddr::Server),
                false => (NodeAddr::Server, NodeAddr::Station(sta)),
            };
            self.send(cmds, ends, flow + sta as u64, len, now);
        }
        cmds.set_timer(token, now + gap);
    }
}

/// Every retry drop so far: a meter row per station identity, departed
/// stations' included.
fn retry_drops(net: &WifiNetwork<()>) -> u64 {
    net.meter().all().iter().map(|m| m.retry_drops).sum()
}

/// Every place a sent packet can still be in the network, summed: queued
/// at the AP or in its stash, committed to hardware, queued at a station,
/// or on the wire.
fn in_network(net: &WifiNetwork<()>) -> usize {
    let slots = 0..net.station_slots();
    let station_backlog: usize = slots.map(|s| net.station_backlog(s)).sum();
    let in_hardware: usize = net
        .medium
        .hw
        .iter()
        .flatten()
        .map(|agg| agg.frames.len())
        .sum();
    net.ap_backlog() + net.ap.stashed() + station_backlog + in_hardware + net.wire_in_flight()
}

/// Everywhere a sent packet can be, summed.
fn accounted(net: &WifiNetwork<()>, app: &Mixed) -> u64 {
    let tail_drops: u64 = net.stations.iter().map(|s| s.drops).sum();
    app.delivered
        + net.absent_drops()
        + net.ap_queue_drops()
        + net.ap_codel_drops()
        + net.churn_drops()
        + net.roam_drops()
        + retry_drops(net)
        + tail_drops
        + in_network(net) as u64
}

/// Twelve slots: 0 and 1 flood uplink through a 16-packet FIFO and never
/// leave (a replaced uplink forgets its tail drops, and a deferred
/// teardown replaces it mid-`run`); 2..8 take a downlink flood four times
/// what the air carries; 2, 5 and 9 are pinged; 4 is lossy and retries
/// are short, so aggregates die at the retry limit.
fn network(seed: u64) -> (WifiNetwork<()>, Mixed) {
    let mut b = NetworkConfig::builder()
        .seed(seed)
        .scheme(SchemeKind::AirtimeFair)
        .max_retries(1)
        .station_fifo_limit(16)
        .fq(FqParams {
            limit: 1024,
            ..FqParams::default()
        });
    for i in 0..12 {
        b = match i {
            4 => b.lossy_station(PhyRate::slow_station(), 0.4),
            7 => b.station(PhyRate::slow_station()),
            _ => b.station(PhyRate::fast_station()),
        };
    }
    let net = WifiNetwork::new(b.build());
    let app = Mixed {
        down: (2..8).collect(),
        up: vec![0, 1],
        pinged: vec![2, 5, 9],
        stop: Nanos::MAX,
        offered: 0,
        delivered: 0,
    };
    (net, app)
}

/// The drop counters a run must exercise, by name.
const DROPS: [&str; 7] = [
    "absent",
    "overlimit",
    "CoDel",
    "churn",
    "roam",
    "retry",
    "uplink tail",
];

/// What one seed's run exercised: whether a removal hit a station on the
/// air, and each of [`DROPS`].
#[derive(Debug, Default)]
struct Coverage {
    deferred: bool,
    drops: [u64; DROPS.len()],
}

/// One seed of the mixed run: the balance closes after every slice and
/// every lifecycle call, the drain empties every queue, and the store
/// recycles its slots. Returns what the run exercised.
fn conserve(seed: u64) -> Coverage {
    let (mut net, mut app) = network(seed);
    let fast = || StationCfg::clean(PhyRate::fast_station());
    for token in [DOWN, UP, PINGS] {
        net.seed_timer(token, Nanos::ZERO);
    }
    let slice = Nanos::from_millis(3);
    let (busy, slices) = (160, 200);
    app.stop = slice * busy;
    let mut store_at_stop = 0;
    let mut seen_deferred = false;
    for i in 1..=slices {
        net.run(slice * i, &mut app);
        assert_eq!(
            app.offered,
            accounted(&net, &app),
            "seed {seed}, slice {i}: packets unaccounted for"
        );
        assert_eq!(
            net.packets.live(),
            in_network(&net),
            "seed {seed}, slice {i}: the store holds a packet no queue does, or lost one"
        );
        assert!(
            net.stations[2..].iter().all(|s| s.drops == 0),
            "seed {seed}, slice {i}: a churned slot tail-dropped; its count would not survive the slot"
        );
        if i == busy {
            store_at_stop = net.packets.capacity();
        }
        // Lifecycle between slices, only among slots 2 and up.
        let leavers = net.active_stations() - 2;
        match i % 8 {
            1 if leavers > 4 => {
                // A plain leave — of a station on the air when there is one,
                // which defers its teardown into the next slice.
                let on_air = (2..net.station_slots())
                    .find(|&s| net.station_active(s) && net.station_in_flight(s));
                seen_deferred |= on_air.is_some();
                let slot = on_air
                    .or_else(|| net.nth_active_station(2 + i as usize % leavers))
                    .expect("k below the active count");
                net.remove_station(net.sta_id(slot).expect("active slot"));
            }
            3 if leavers > 4 => {
                // A hand-off that comes straight back: the carried frames
                // re-enter the AP queue (or its overlimit drop) at once.
                let slot = net
                    .nth_active_station(2 + (i as usize / 8) % leavers)
                    .expect("k below the active count");
                let out = net.roam_out(net.sta_id(slot).expect("active slot"));
                net.roam_in(fast(), out.packets, out.identity);
            }
            5 => {
                net.add_station(fast());
            }
            _ => {}
        }
        assert_eq!(
            app.offered,
            accounted(&net, &app),
            "seed {seed}, slice {i}: a lifecycle call lost or double-counted packets"
        );
        assert_eq!(
            net.packets.live(),
            in_network(&net),
            "seed {seed}, slice {i}: a lifecycle call leaked or double-freed a stored packet"
        );
    }
    // The sources stopped 40 slices ago: everything has drained, and the
    // balance closes on deliveries and drops alone.
    assert_eq!(net.wire_in_flight(), 0, "seed {seed}");
    assert_eq!(
        net.ap_backlog() + net.ap.stashed(),
        0,
        "seed {seed}: frames stranded at the AP"
    );
    assert!(net.medium.hw.iter().all(|q| q.is_empty()), "seed {seed}");
    assert!(
        (0..net.station_slots()).all(|s| net.station_backlog(s) == 0),
        "seed {seed}: frames stranded in an uplink"
    );
    assert_eq!(
        net.packets.live(),
        0,
        "seed {seed}: the drained network still stores packets"
    );
    // The store's capacity is the network's peak occupancy: a running
    // maximum, which creeps up by a few slots for as long as the traffic
    // runs (to its last slice on some seeds), as stashes, hardware queues
    // and the wire happen to fill together. Through the 40 slices of drain
    // after it — stations leave, roam out and back in with their frames,
    // and pings in flight are answered — it is no larger: every packet
    // stored then took a slot off the free list.
    assert!(store_at_stop > 0);
    assert!(
        net.packets.capacity() <= store_at_stop,
        "seed {seed}: packet store grew from {store_at_stop} to {} slots",
        net.packets.capacity()
    );
    Coverage {
        deferred: seen_deferred,
        drops: [
            net.absent_drops(),
            net.ap_queue_drops(),
            net.ap_codel_drops(),
            net.churn_drops(),
            net.roam_drops(),
            retry_drops(&net),
            net.stations.iter().map(|s| s.drops).sum(),
        ],
    }
}

#[test]
fn packet_conservation() {
    let mut seen = Coverage::default();
    for seed in 0..=20 {
        let run = conserve(seed);
        seen.deferred |= run.deferred;
        for (total, n) in seen.drops.iter_mut().zip(run.drops) {
            *total += n;
        }
    }
    // The seeds together exercised what the test claims to.
    assert!(seen.deferred, "no removal ever hit a station on the air");
    for (what, n) in DROPS.into_iter().zip(seen.drops) {
        assert!(n > 0, "no {what} drops in any run");
    }
}

#[test]
fn a_packet_on_the_wire_to_a_leaving_station_is_an_absent_drop() {
    let (mut net, mut app) = network(1);
    app.down = vec![3];
    app.stop = Nanos::from_micros(1);
    // One tick: a single packet to slot 3, then the source stops.
    net.seed_timer(DOWN, Nanos::ZERO);
    net.run(Nanos::from_micros(100), &mut app);
    assert_eq!((app.offered, net.wire_in_flight()), (1, 1));
    net.remove_station(net.sta_id(3).expect("slot 3 occupied"));
    net.run(Nanos::from_millis(1), &mut app);
    assert_eq!(net.absent_drops(), 1);
    assert_eq!((app.delivered, net.wire_in_flight()), (0, 0));
    // The freed slot stores the next packet: no second slot is allocated.
    app.stop = Nanos::MAX;
    app.down = vec![2];
    net.seed_timer(DOWN, net.now());
    net.run(net.now() + Nanos::from_micros(100), &mut app);
    assert_eq!((net.wire_in_flight(), net.packets.capacity()), (1, 1));
}
