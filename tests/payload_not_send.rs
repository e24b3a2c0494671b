//! A simulated world runs on one thread, so `WifiNetwork<M>` and the
//! multi-BSS `RoamSet` ask nothing of a payload but `Debug`: a payload
//! that is `!Send` goes through the event loop, a churn step, a roaming
//! hand-off and a hand-off between two networks like any other. While
//! the contention round, and later the roam set's BSSs, could fan out to
//! worker threads every `impl` here carried `M: Send`, and this file did
//! not compile.

use std::cell::Cell;
use std::rc::Rc;

use ending_anomaly::mac::{
    App, Commands, Delivery, NetworkConfig, NodeAddr, Packet, SchemeKind, WifiNetwork,
};
use ending_anomaly::phy::{AccessCategory, PhyRate};
use ending_anomaly::scale::{
    BssHost, ChurnCfg, ChurnDriver, ChurnEvent, RoamCfg, RoamSet, Roster, SoloRoam,
};
use ending_anomaly::sim::Nanos;

/// Every packet carries a handle on one shared counter and bumps it on
/// arrival at its station.
type Tally = Rc<Cell<u32>>;

struct Flood {
    tally: Tally,
    slots: usize,
}

impl App<Tally> for Flood {
    fn on_packet(&mut self, at: Delivery, pkt: Packet<Tally>, _: Nanos, _: &mut Commands<Tally>) {
        if matches!(at, Delivery::AtStation(_)) {
            pkt.payload.set(pkt.payload.get() + 1);
        }
    }

    fn on_timer(&mut self, token: u64, now: Nanos, cmds: &mut Commands<Tally>) {
        for sta in 0..self.slots {
            cmds.send(Packet {
                id: 0,
                src: NodeAddr::Server,
                dst: NodeAddr::Station(sta),
                flow: sta as u64 + 1,
                len: 1500,
                ac: AccessCategory::Be,
                created: now,
                enqueued: now,
                payload: self.tally.clone(),
            });
        }
        cmds.set_timer(token, now + Nanos::from_millis(1));
    }
}

/// A hand-off every 40 ms per station, with a gap short enough that
/// queued frames are still there to carry.
fn brisk_roaming() -> RoamCfg {
    RoamCfg {
        mean_dwell: Nanos::from_millis(40),
        reassoc_min: Nanos::from_millis(2),
        reassoc_max: Nanos::from_millis(5),
        ..RoamCfg::default()
    }
}

#[test]
fn a_payload_that_is_not_send_runs_churns_and_roams() {
    const N: usize = 4;
    let cfg = NetworkConfig::builder()
        .stations_at(N, PhyRate::fast_station())
        .scheme(SchemeKind::AirtimeFair)
        .build();
    let mut net: WifiNetwork<Tally> = WifiNetwork::new(cfg);
    let tally = Tally::default();
    let mut app = Flood {
        tally: tally.clone(),
        slots: N,
    };
    net.seed_timer(0, Nanos::ZERO);
    net.run(Nanos::from_millis(50), &mut app);
    let after_run = tally.get();
    assert!(after_run > 0, "nothing arrived through `run`");

    // At its roster minimum the driver's step is a join.
    let churn_cfg = ChurnCfg {
        min_stations: N,
        ..ChurnCfg::default()
    };
    let joined = ChurnDriver::new(churn_cfg, 1).step(&mut net);
    assert!(matches!(joined, ChurnEvent::Join { id } if id.slot() == N));
    app.slots = net.station_slots();
    net.run(Nanos::from_millis(100), &mut app);
    let after_churn = tally.get();
    assert!(after_churn > after_run, "nothing arrived after the join");

    // Hand-offs carry queued `Packet<Tally>`s out of the network and back.
    let mut roster = Roster {
        churn: None,
        roam: Some(SoloRoam::<Tally>::new(brisk_roaming(), 1, N)),
    };
    roster.run_to(&mut net, &mut app, Nanos::from_millis(400));
    let roam = roster.roam.expect("the roster keeps its replayer");
    assert!(
        roam.stats.handoffs > 0,
        "the schedule never moved a station"
    );
    assert!(roam.stats.migrated_frames > 0, "no hand-off carried frames");
    assert!(
        tally.get() > after_churn,
        "nothing arrived across hand-offs"
    );
}

/// One BSS of a roam set, flooding slots `0..4`: no BSS of a 4-station
/// roster holds more.
struct Bss {
    net: WifiNetwork<Tally>,
    app: Flood,
}

impl BssHost for Bss {
    type M = Tally;
    fn net_mut(&mut self) -> &mut WifiNetwork<Tally> {
        &mut self.net
    }
    fn advance(&mut self, until: Nanos) {
        self.net.run(until, &mut self.app);
    }
}

#[test]
fn a_payload_that_is_not_send_crosses_between_networks() {
    let tally = Tally::default();
    let run = RoamSet::new(2, 1)
        .with_roster(4)
        .with_roam(brisk_roaming())
        .run(
            Nanos::from_millis(400),
            |_| {
                let cfg = NetworkConfig::builder()
                    .scheme(SchemeKind::AirtimeFair)
                    .build();
                let mut net = WifiNetwork::new(cfg);
                net.seed_timer(0, Nanos::ZERO);
                let tally = tally.clone();
                Bss {
                    net,
                    app: Flood { tally, slots: 4 },
                }
            },
            |_, bss| bss.net.active_stations(),
        );
    assert!(run.stats.handoffs > 0, "the schedule never moved a station");
    assert!(
        run.stats.migrated_frames > 0,
        "no hand-off carried frames to the other network"
    );
    assert_eq!(run.outputs.iter().sum::<usize>(), 4, "roster not conserved");
    assert!(tally.get() > 0, "nothing arrived");
}
