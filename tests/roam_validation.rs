//! Roaming validation: arbitrary interleavings of hand-offs and station
//! churn must leak nothing — no orphaned flow queues, no slot-table
//! growth beyond peak occupancy, no policy nodes or telemetry labels
//! referencing slots that never existed — and a roaming driver whose
//! schedule never fires must be byte-invisible to the simulation.

use ending_anomaly::mac::{
    App, Commands, Delivery, NetworkConfig, NodeAddr, Packet, PolicySet, SchemeKind, WifiNetwork,
};
use ending_anomaly::phy::{AccessCategory, PhyRate};
use ending_anomaly::roam::{RoamCfg, SoloRoam};
use ending_anomaly::scale::{ChurnCfg, ChurnDriver};
use ending_anomaly::sim::Nanos;
use ending_anomaly::telemetry::{Label, Telemetry};
use ending_anomaly::traffic::{AppMsg, TrafficApp};
use proptest::prelude::*;

/// Downlink flood over the first `n` slots that stops offering load at
/// `stop`, so queues can drain before the leak audit.
struct Flood {
    n: usize,
    stop: Nanos,
    sent: u64,
}

impl App<()> for Flood {
    fn on_packet(&mut self, _: Delivery, _: Packet<()>, _: Nanos, _: &mut Commands<()>) {}
    fn on_timer(&mut self, token: u64, now: Nanos, cmds: &mut Commands<()>) {
        if now >= self.stop {
            return;
        }
        for slot in 0..self.n {
            self.sent += 1;
            cmds.send(Packet {
                id: self.sent,
                src: NodeAddr::Server,
                dst: NodeAddr::Station(slot),
                flow: slot as u64,
                len: 1500,
                ac: AccessCategory::Be,
                created: now,
                enqueued: now,
                payload: (),
            });
        }
        cmds.set_timer(token, now + Nanos::from_micros(700));
    }
}

/// One arbitrary roam/churn interleaving, audited for leaks at the end.
///
/// The pump mirrors `BuiltScenario::run_to`: both drivers interleave in
/// time order, roam actions land before churn at the same instant. Peak
/// occupancy (active + in transit) is tracked across every event so the
/// final slot table can be held to it exactly.
fn interleaving_leaks_nothing(n: usize, dwell_ms: u64, churn_ms: u64, seed: u64) {
    let weights: Vec<u32> = (0..n as u32).map(|i| 1 + 2 * (i % 2)).collect();
    let cfg = NetworkConfig::builder()
        .stations_at(n, PhyRate::fast_station())
        .scheme(SchemeKind::AirtimeFair)
        .policy(PolicySet::flat(&weights))
        .seed(seed)
        .build();
    let mut net: WifiNetwork<()> = WifiNetwork::new(cfg);
    let tele = Telemetry::enabled();
    net.set_telemetry(tele.clone());
    net.seed_timer(0, Nanos::ZERO);

    let horizon = Nanos::from_millis(1_500);
    let mut app = Flood {
        n,
        stop: horizon,
        sent: 0,
    };
    let mut roam = SoloRoam::new(
        RoamCfg {
            mean_dwell: Nanos::from_millis(dwell_ms),
            ..RoamCfg::default()
        },
        seed,
        n,
    );
    roam.set_telemetry(tele.clone());
    let mut churn = ChurnDriver::new(
        ChurnCfg {
            mean_interval: Nanos::from_millis(churn_ms),
            min_stations: 1,
            max_stations: n + 2,
            ..ChurnCfg::default()
        },
        seed ^ 0x00C0_FFEE,
    );

    let mut peak = net.active_stations();
    loop {
        let tr = roam.next_at();
        let tc = churn.next_at();
        let t = tr.min(tc);
        if t >= horizon {
            break;
        }
        net.run(t, &mut app);
        if tr <= t {
            roam.catch_up(&mut net, t);
        }
        if tc <= t {
            churn.step(&mut net);
        }
        peak = peak.max(net.active_stations() + roam.in_transit());
    }
    // Load stops at the horizon; give every queue time to empty (a slow
    // station drains a deep FQ backlog at single-digit Mbps, so the
    // drain is adaptive). The drivers stay parked, so in-transit
    // stations remain out — their carried frames live in the replayer,
    // not in the network.
    let mut drained_to = horizon;
    for _ in 0..24 {
        let clean =
            net.ap_backlog() == 0 && (0..net.station_slots()).all(|s| net.station_backlog(s) == 0);
        if clean {
            break;
        }
        drained_to += Nanos::from_millis(250);
        net.run(drained_to, &mut app);
    }

    let slots = net.station_slots();
    let s = roam.stats;
    assert!(s.handoffs > 0, "schedule too quiet to prove anything");

    // No orphaned flow queues: with the load gone, every AP-side and
    // uplink queue must have drained, including slots whose occupant
    // roamed or churned away mid-flow.
    assert_eq!(net.ap_backlog(), 0, "AP backlog survived the drain");
    for slot in 0..slots {
        assert_eq!(
            net.station_backlog(slot),
            0,
            "slot {slot} kept an uplink backlog after the drain"
        );
    }

    // No leaked arena slots: the backlog counters above are derived from
    // the flow lists; this audits the packet arenas underneath them. A
    // packet unlinked from every list but never freed (e.g. during a
    // mid-flow detach) would be invisible to the backlogs yet pin an
    // arena slot forever — exactly the leak the generational arena is
    // meant to surface.
    assert_eq!(
        net.arena_live(),
        0,
        "packet arenas kept {} live slots after the drain",
        net.arena_live()
    );

    // The maintained roster size agrees with a recount of the slot table.
    assert_eq!(
        net.active_stations(),
        (0..slots).filter(|&s| net.station_active(s)).count(),
        "active-station counter drifted from the slot table"
    );

    // No slot leaks: `add_station` must have reused freed slots, so the
    // table never outgrows peak concurrent occupancy — across hundreds
    // of hand-offs and churn events, not one slot per arrival.
    assert!(
        slots <= peak,
        "slot table grew to {slots} but peak occupancy was {peak}"
    );

    // Every departure is accounted for: reattached under the policy,
    // reattached neutral, or still in transit — nothing vanished. (A
    // skipped move never departed; it is not a hand-off.)
    assert_eq!(
        s.policy_reattach + s.neutral_fallback + roam.in_transit() as u64,
        s.handoffs,
        "a hand-off left no trace: {s:?}"
    );

    // No orphaned policy nodes: the compiled tree covers exactly the
    // built roster, so every slot beyond it must resolve to no node and
    // every slot within it to some node — regardless of how many times
    // the slot changed hands.
    for slot in 0..slots {
        for ac in AccessCategory::ALL {
            assert_eq!(
                net.policy_node_of(slot, ac).is_some(),
                slot < n,
                "slot {slot} has a policy node it should not (or lost one)"
            );
        }
    }

    // No orphaned telemetry labels: per-TID sojourn histograms may only
    // reference TIDs of slots that exist.
    tele.with_registry(|r| {
        for component in ["fq", "client_fq"] {
            let orphan = r.hist_merged_where(
                component,
                "sojourn_ns",
                |l| matches!(l, Label::Tid(t) if t as usize >= slots * AccessCategory::COUNT),
            );
            assert!(
                orphan.is_none(),
                "{component} histograms reference TIDs beyond the slot table"
            );
        }
    })
    .expect("telemetry enabled");

    // Telemetry mirrors the replayer's own accounting.
    assert_eq!(tele.counter("roam", "handoffs", Label::Global), s.handoffs);
    assert_eq!(
        tele.counter("roam", "roam_drops", Label::Global),
        s.roam_drops
    );
    assert_eq!(net.roam_drops(), s.roam_drops);
}

/// Fingerprint of the paper testbed under real transport traffic, with
/// or without a parked roaming driver attached (same shape as
/// `tests/determinism.rs`).
fn fingerprint(seed: u64, parked_roam: bool) -> (u64, Vec<u64>, String) {
    let cfg = NetworkConfig::builder()
        .preset(ending_anomaly::mac::Preset::PaperTestbed)
        .scheme(SchemeKind::AirtimeFair)
        .seed(seed)
        .build();
    let mut net: WifiNetwork<AppMsg> = WifiNetwork::new(cfg);
    let tele = Telemetry::enabled();
    net.set_telemetry(tele.clone());
    let mut app = TrafficApp::new();
    let tcp = app.add_tcp_down(0, Nanos::ZERO);
    let udp = app.add_udp_down(1, 50_000_000, Nanos::ZERO);
    app.install(&mut net);
    let until = Nanos::from_millis(800);
    if parked_roam {
        // Dwell far beyond the horizon: the driver exists, draws its
        // schedule, and never once touches the network.
        let mut roam = SoloRoam::new(
            RoamCfg {
                mean_dwell: Nanos::from_secs(3_600),
                ..RoamCfg::default()
            },
            seed ^ 0x0123,
            3,
        );
        roam.set_telemetry(tele.clone());
        roam.run_until(&mut net, until, &mut app);
        assert_eq!(roam.stats.handoffs, 0, "schedule was not quiet");
    } else {
        net.run(until, &mut app);
    }
    (
        net.events_processed,
        vec![
            app.tcp(tcp).delivered_bytes(),
            app.udp(udp).delivered,
            net.station_meter(0).tx_airtime.as_nanos(),
            net.station_meter(1).tx_bytes,
        ],
        tele.snapshot("roam_quiet", seed).pretty(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Whatever the interleaving of hand-offs and churn, the network
    /// ends clean: queues drained, slots bounded by peak occupancy,
    /// policy coverage intact, telemetry labels within the slot table.
    #[test]
    fn roam_churn_interleavings_leak_nothing(
        n in 3usize..6,
        dwell_ms in 30u64..200,
        churn_ms in 25u64..150,
        seed in 0u64..1_000_000,
    ) {
        interleaving_leaks_nothing(n, dwell_ms, churn_ms, seed);
    }

    /// A roaming driver whose first move lies beyond the horizon is
    /// byte-invisible: event counts, transport progress, airtime meters
    /// and the full telemetry snapshot all match a run without it.
    #[test]
    fn zero_roam_schedule_is_byte_invisible(seed in 0u64..1_000_000) {
        prop_assert_eq!(fingerprint(seed, true), fingerprint(seed, false));
    }
}
