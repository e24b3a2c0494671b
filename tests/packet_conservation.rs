//! The public half of the packet balance: with `wire_in_flight()` the
//! getters account for every offered packet except the frames committed
//! to the hardware queues (and the at most one stashed frame per TID),
//! and for every packet once the network has drained. The exact,
//! every-slice balance over the private state is
//! `wifiq-mac`'s `network::conservation::packet_conservation`.

use ending_anomaly::mac::{
    App, Commands, Delivery, NetworkConfig, Packet, SchemeKind, StationCfg, WifiNetwork,
};
use ending_anomaly::phy::consts::BA_WINDOW;
use ending_anomaly::phy::{AccessCategory, PhyRate};
use ending_anomaly::sim::Nanos;
use ending_anomaly::traffic::{AppMsg, TrafficApp};

/// Counts packets at the `App` boundary, as `benchmark/` does, and can
/// silence the sources so the network drains.
struct Tap {
    inner: TrafficApp,
    muted: bool,
    offered: u64,
    delivered: u64,
}

impl App<AppMsg> for Tap {
    fn on_packet(
        &mut self,
        at: Delivery,
        pkt: Packet<AppMsg>,
        now: Nanos,
        cmds: &mut Commands<AppMsg>,
    ) {
        self.delivered += 1;
        let before = cmds.sends().len();
        self.inner.on_packet(at, pkt, now, cmds);
        self.offered += (cmds.sends().len() - before) as u64;
    }

    fn on_timer(&mut self, token: u64, now: Nanos, cmds: &mut Commands<AppMsg>) {
        if self.muted {
            return;
        }
        let before = cmds.sends().len();
        self.inner.on_timer(token, now, cmds);
        self.offered += (cmds.sends().len() - before) as u64;
    }
}

/// Every retry drop so far: one meter row per station identity, departed
/// stations' included.
fn retry_drops(net: &WifiNetwork<AppMsg>) -> u64 {
    net.meter().all().iter().map(|m| m.retry_drops).sum()
}

/// Offered packets no public getter can see.
fn unseen(net: &WifiNetwork<AppMsg>, tap: &Tap) -> i64 {
    let backlog: usize = (0..net.station_slots())
        .map(|s| net.station_backlog(s))
        .sum::<usize>()
        + net.ap_backlog()
        + net.wire_in_flight();
    let seen = tap.delivered
        + net.absent_drops()
        + net.ap_queue_drops()
        + net.ap_codel_drops()
        + net.churn_drops()
        + net.roam_drops()
        + retry_drops(net)
        + backlog as u64;
    tap.offered as i64 - seen as i64
}

#[test]
fn the_getters_balance_up_to_the_hardware_queues_and_exactly_once_drained() {
    const N: usize = 8;
    let cfg = NetworkConfig::builder()
        .stations_at(N - 1, PhyRate::fast_station())
        .station(PhyRate::slow_station())
        .scheme(SchemeKind::AirtimeFair)
        .build();
    let hw_depth = cfg.hw_queue_depth;
    let mut net: WifiNetwork<AppMsg> = WifiNetwork::new(cfg);
    let mut traffic = TrafficApp::with_seed(7);
    for sta in 1..6 {
        traffic.add_udp_down(sta, 60_000_000, Nanos::ZERO);
    }
    traffic.add_udp_down(N - 1, 20_000_000, Nanos::ZERO);
    // Far below what would fill the 1000-packet uplink FIFO: station tail
    // drops have no public getter.
    traffic.add_udp_up(0, 4_000_000, Nanos::ZERO);
    for sta in [2, 6] {
        traffic.add_ping(sta, Nanos::ZERO);
    }
    traffic.install(&mut net);
    let mut tap = Tap {
        inner: traffic,
        muted: false,
        offered: 0,
        delivered: 0,
    };

    let slice = Nanos::from_millis(10);
    let fast = || StationCfg::clean(PhyRate::fast_station());
    let mut roamed = 0;
    let mut hand_off = false;
    for i in 1..=60u64 {
        net.run(slice * i, &mut tap);
        match i % 6 {
            1 => {
                let slot = net
                    .nth_active_station(1 + i as usize % (net.active_stations() - 1))
                    .expect("k below the active count");
                net.remove_station(net.sta_id(slot).expect("active slot"));
            }
            3 => {
                net.add_station(fast());
            }
            4 if i == 34 => hand_off = true,
            _ => {}
        }
        if hand_off {
            // Mid-run hand-off of a flooded station (slots 1-5 each take a
            // 60 Mbit/s stream), straight back in. A station on the air
            // defers its hand-off, which then carries nothing: retry on
            // the next slice, from slot 3 or else the first flooded slot
            // still associated.
            let slot = [3, 1, 2, 4, 5]
                .into_iter()
                .find(|&s| net.station_active(s))
                .expect("a flooded station associated");
            let out = net.roam_out(net.sta_id(slot).expect("active slot"));
            roamed += out.packets.len();
            hand_off = out.deferred;
            net.roam_in(fast(), out.packets, out.identity);
        }
        // The AP commits at most `hw_depth` aggregates of one BlockAck
        // window each per access category, and stashes one frame per TID.
        let hidden = hw_depth * AccessCategory::COUNT * BA_WINDOW
            + AccessCategory::COUNT * net.station_slots();
        let gap = unseen(&net, &tap);
        assert!(
            (0..=hidden as i64).contains(&gap),
            "slice {i}: {gap} packets unseen, at most {hidden} can be in hardware"
        );
    }
    assert!(roamed > 0, "the hand-off carried nothing");
    assert!(net.ap_queue_drops() + net.ap_codel_drops() > 0);
    assert!(net.churn_drops() > 0 && net.absent_drops() > 0);

    tap.muted = true;
    net.run(slice * 100, &mut tap);
    assert_eq!(net.wire_in_flight(), 0, "packets parked on an idle wire");
    assert_eq!(net.ap_backlog(), 0);
    assert_eq!(
        unseen(&net, &tap),
        0,
        "drained, yet the getters do not add up to what was offered"
    );
}
