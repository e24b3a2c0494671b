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

fn retry_drops(net: &WifiNetwork<()>) -> u64 {
    (0..net.station_slots())
        .map(|s| net.station_meter(s).retry_drops)
        .sum()
}

/// Joins a station, bringing `carried` frames along if there are any.
/// `add_station` zeroes the reused slot's meter: returns the retry drops
/// that wiped, for the caller to carry.
fn rejoin(net: &mut WifiNetwork<()>, carried: Option<Vec<Packet<()>>>) -> u64 {
    let before = retry_drops(net);
    let cfg = StationCfg::clean(PhyRate::fast_station());
    match carried {
        Some(packets) => net.roam_in(cfg, packets),
        None => net.add_station(cfg),
    };
    before - retry_drops(net)
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
fn accounted(net: &WifiNetwork<()>, app: &Mixed, retry_carry: u64) -> u64 {
    let tail_drops: u64 = net.stations.iter().map(|s| s.drops).sum();
    app.delivered
        + net.absent_drops()
        + net.ap_queue_drops()
        + net.ap_codel_drops()
        + net.churn_drops()
        + net.roam_drops()
        + retry_carry
        + retry_drops(net)
        + tail_drops
        + in_network(net) as u64
}

/// Twelve slots: 0 and 1 flood uplink through a 16-packet FIFO and never
/// leave (a replaced uplink forgets its tail drops, and a deferred
/// teardown replaces it mid-`run`); 2..8 take a downlink flood four times
/// what the air carries; 2, 5 and 9 are pinged; 4 is lossy and retries
/// are short, so aggregates die at the retry limit.
fn network() -> (WifiNetwork<()>, Mixed) {
    let mut b = NetworkConfig::builder()
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

#[test]
fn packet_conservation() {
    let (mut net, mut app) = network();
    let mut retry_carry = 0;
    for token in [DOWN, UP, PINGS] {
        net.seed_timer(token, Nanos::ZERO);
    }
    let slice = Nanos::from_millis(3);
    let (busy, slices) = (160, 200);
    app.stop = slice * busy;
    let mut store_cap_early = 0;
    let mut seen_deferred = false;
    for i in 1..=slices {
        net.run(slice * i, &mut app);
        assert_eq!(
            app.offered,
            accounted(&net, &app, retry_carry),
            "slice {i}: packets unaccounted for"
        );
        assert_eq!(
            net.packets.live(),
            in_network(&net),
            "slice {i}: the store holds a packet no queue does, or lost one"
        );
        assert!(
            net.stations[2..].iter().all(|s| s.drops == 0),
            "slice {i}: a churned slot tail-dropped; its count would not survive the slot"
        );
        if i == busy / 2 {
            store_cap_early = net.packets.capacity();
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
                retry_carry += rejoin(&mut net, Some(out.packets));
            }
            5 => retry_carry += rejoin(&mut net, None),
            _ => {}
        }
        assert_eq!(
            app.offered,
            accounted(&net, &app, retry_carry),
            "slice {i}: a lifecycle call lost or double-counted packets"
        );
        assert_eq!(
            net.packets.live(),
            in_network(&net),
            "slice {i}: a lifecycle call leaked or double-freed a stored packet"
        );
    }
    // The run exercised what it claims to.
    assert!(seen_deferred, "no removal ever hit a station on the air");
    for (what, n) in [
        ("absent", net.absent_drops()),
        ("overlimit", net.ap_queue_drops()),
        ("CoDel", net.ap_codel_drops()),
        ("churn", net.churn_drops()),
        ("roam", net.roam_drops()),
        ("retry", retry_carry + retry_drops(&net)),
        ("uplink tail", net.stations.iter().map(|s| s.drops).sum()),
    ] {
        assert!(n > 0, "no {what} drops in the run");
    }
    // The sources stopped 40 slices ago: everything has drained, and the
    // balance closes on deliveries and drops alone.
    assert_eq!(net.wire_in_flight(), 0);
    assert_eq!(net.ap_backlog() + net.ap.stashed(), 0);
    assert!(net.medium.hw.iter().all(|q| q.is_empty()));
    assert!((0..net.station_slots()).all(|s| net.station_backlog(s) == 0));
    assert_eq!(
        net.packets.live(),
        0,
        "the drained network still stores packets"
    );
    // The store's capacity is the network's peak occupancy, reached in the
    // first half of the traffic (it creeps up by a few slots for ~60
    // slices as stashes, hardware queues and the wire fill together); as
    // much traffic again later it is no larger: slots recycle through its
    // free list.
    assert!(store_cap_early > 0);
    assert!(
        net.packets.capacity() <= store_cap_early,
        "packet store grew from {store_cap_early} to {} slots",
        net.packets.capacity()
    );
}

#[test]
fn a_packet_on_the_wire_to_a_leaving_station_is_an_absent_drop() {
    let (mut net, mut app) = network();
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
