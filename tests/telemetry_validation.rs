//! Telemetry cross-validation: the metrics registry is a *third*,
//! independently accumulating account of the simulation, so it can be
//! cross-checked against the airtime meter and the monitor-mode capture
//! the same way the paper validated its in-kernel measurement against a
//! capture tool (§4.1.5, agreement "to within 1.5%, on average").

use std::cell::RefCell;
use std::rc::Rc;

use ending_anomaly::mac::{
    AirtimeCapture, NetworkConfig, Preset, SchemeKind, StationCfg, TxDirection, TxMonitor,
    TxRecord, WifiNetwork,
};
use ending_anomaly::phy::{AccessCategory, PhyRate};
use ending_anomaly::sim::Nanos;
use ending_anomaly::telemetry::{Json, Label, Telemetry};
use ending_anomaly::traffic::{AppMsg, TrafficApp, WebPage};

/// Runs a busy bidirectional workload with telemetry attached and returns
/// `(net, capture, tele)` for post-run inspection.
fn run_busy(
    scheme: SchemeKind,
    seed: u64,
    secs: u64,
) -> (WifiNetwork<AppMsg>, Rc<RefCell<AirtimeCapture>>, Telemetry) {
    let mut cfg = NetworkConfig::paper_testbed(scheme);
    cfg.seed = seed;
    let mut net: WifiNetwork<AppMsg> = WifiNetwork::new(cfg);
    let capture = Rc::new(RefCell::new(AirtimeCapture::new(3)));
    net.attach_monitor(Box::new(capture.clone()));
    let tele = Telemetry::enabled();
    net.set_telemetry(tele.clone());
    let mut app = TrafficApp::new();
    for sta in 0..3 {
        app.add_tcp_down(sta, Nanos::ZERO);
        app.add_tcp_up(sta, Nanos::ZERO);
    }
    app.add_ping(2, Nanos::ZERO);
    app.set_telemetry(&tele);
    app.install(&mut net);
    net.run(Nanos::from_secs(secs), &mut app);
    (net, capture, tele)
}

/// The paper's meter-vs-monitor cross-check, re-implemented over the
/// telemetry registry: per-station airtime from the meter, the
/// monitor-mode capture, and the `mac/tx_airtime_ns` + `mac/rx_airtime_ns`
/// counters must agree to within 1.5% (in the simulator they share exact
/// timing, so the tolerance is generous).
#[test]
fn meter_capture_and_registry_agree_within_1_5_percent() {
    let (net, capture, tele) = run_busy(SchemeKind::AirtimeFair, 7, 3);
    let capture = capture.borrow();
    for sta in 0..3 {
        let meter = net.station_meter(sta).total_airtime().as_nanos() as f64;
        let cap = capture.airtime(sta).as_nanos() as f64;
        let reg = (tele.counter("mac", "tx_airtime_ns", Label::Station(sta as u32))
            + tele.counter("mac", "rx_airtime_ns", Label::Station(sta as u32)))
            as f64;
        assert!(meter > 0.0, "station {sta} saw no airtime");
        let cap_err = (meter - cap).abs() / meter * 100.0;
        let reg_err = (meter - reg).abs() / meter * 100.0;
        assert!(
            cap_err <= 1.5,
            "station {sta}: meter {meter} vs capture {cap} differ by {cap_err:.4}%"
        );
        assert!(
            reg_err <= 1.5,
            "station {sta}: meter {meter} vs registry {reg} differ by {reg_err:.4}%"
        );
    }
}

/// Two runs of the same (configuration, seed) must export *byte-identical*
/// snapshots — the registry orders keys deterministically and timestamps
/// come only from the simulated clock.
#[test]
fn same_seed_snapshots_are_byte_identical() {
    let (_, _, a) = run_busy(SchemeKind::AirtimeFair, 42, 2);
    let (_, _, b) = run_busy(SchemeKind::AirtimeFair, 42, 2);
    assert_eq!(
        a.snapshot("det", 42).pretty(),
        b.snapshot("det", 42).pretty(),
        "JSON snapshots diverged under the same seed"
    );
    assert_eq!(
        a.snapshot_csv("det", 42),
        b.snapshot_csv("det", 42),
        "CSV snapshots diverged under the same seed"
    );
}

/// Different seeds must leave *some* trace in the registry — otherwise the
/// byte-identical test above would pass vacuously.
#[test]
fn different_seeds_produce_different_snapshots() {
    let (_, _, a) = run_busy(SchemeKind::AirtimeFair, 1, 2);
    let (_, _, b) = run_busy(SchemeKind::AirtimeFair, 2, 2);
    assert_ne!(
        a.snapshot("det", 0).pretty(),
        b.snapshot("det", 0).pretty(),
        "seeds 1 and 2 produced identical registries"
    );
}

// --- Snapshot goldens -------------------------------------------------
//
// Full `snapshot` + `snapshot_csv` of three fixed-seed runs, generated on
// the commit before the recorder table replaced the `BTreeMap` registry
// and `cmp`-ed ever since: they pin key order, gauge last-write, every
// histogram statistic and the ring's `capacity/total/shed/entries` tail.
// The ring is kept short so the fixtures stay reviewable; it still wraps
// thousands of times. On a mismatch the observed text is written to
// `$CARGO_TARGET_TMPDIR/<fixture>.actual` for diffing.
//
// One value differs from what that commit wrote, and was updated by hand:
// the gauge `client_fq/occupancy_packets/global` in `telemetry_churn_fq`
// (1 → 25). Every station's uplink FQ writes it under the one key; the
// old registry reported the last value of the most recently *registered*
// uplink that had written since the previous read, the table reports the
// last write.

const GOLDEN_RING: usize = 96;

/// A network built from `cfg` with `tele` attached through the stack.
fn observed(cfg: NetworkConfig, tele: &Telemetry) -> WifiNetwork<AppMsg> {
    let mut net = WifiNetwork::new(cfg);
    net.set_telemetry(tele.clone());
    net
}

fn assert_snapshot_golden(name: &str, seed: u64, tele: &Telemetry) {
    let mut json = tele.snapshot(name, seed).pretty();
    json.push('\n');
    let mut differing = Vec::new();
    for (ext, actual) in [("json", json), ("csv", tele.snapshot_csv(name, seed))] {
        let file = format!("{name}.{ext}");
        let path = format!(
            "{}/tests/fixtures/golden/{file}",
            env!("CARGO_MANIFEST_DIR")
        );
        if std::fs::read_to_string(&path).unwrap_or_default() != actual {
            let dump = format!("{}/{file}.actual", env!("CARGO_TARGET_TMPDIR"));
            std::fs::write(&dump, &actual).expect("write the observed snapshot");
            differing.push(format!("{path} (observed: {dump})"));
        }
    }
    assert!(differing.is_empty(), "snapshot differs from {differing:?}");
}

/// The paper's anomaly testbed under saturating downstream UDP: FQ
/// overlimit drops, CoDel drops and marks, the slow station's parameter
/// switch, per-station airtime and aggregate histograms.
#[test]
fn udp3_snapshot_matches_golden() {
    let cfg = NetworkConfig::builder()
        .preset(Preset::PaperTestbed4)
        .scheme(SchemeKind::AirtimeFair)
        .seed(21)
        .build();
    let tele = Telemetry::with_event_capacity(GOLDEN_RING);
    let mut net = observed(cfg, &tele);
    let mut app = TrafficApp::new();
    for (sta, rate) in [(0, 100_000_000), (1, 100_000_000), (2, 10_000_000)] {
        app.add_udp_down(sta, rate, Nanos::ZERO);
    }
    app.add_ping(3, Nanos::ZERO);
    app.set_telemetry(&tele);
    app.install(&mut net);
    net.run(Nanos::from_secs(2), &mut app);
    assert_snapshot_golden("telemetry_udp3", 21, &tele);
}

/// §4.1.5's 30-station testbed: TCP both ways (per-flow cwnd / sRTT
/// gauges and histograms, retransmit counters), one web session (a fresh
/// sender per request) and a VoIP stream.
#[test]
fn tcp30_snapshot_matches_golden() {
    let cfg = NetworkConfig::builder()
        .preset(Preset::Testbed30)
        .scheme(SchemeKind::AirtimeFair)
        .seed(22)
        .build();
    let tele = Telemetry::with_event_capacity(GOLDEN_RING);
    let mut net = observed(cfg, &tele);
    let mut app = TrafficApp::with_seed(22);
    for sta in 0..28 {
        app.add_tcp_down(sta, Nanos::ZERO);
    }
    for sta in 0..10 {
        app.add_tcp_up(sta, Nanos::ZERO);
    }
    app.add_web(28, WebPage::small(), Nanos::from_millis(100));
    app.add_voip(29, AccessCategory::Vo, Nanos::ZERO);
    app.add_ping(29, Nanos::ZERO);
    app.set_telemetry(&tele);
    app.install(&mut net);
    net.run(Nanos::from_millis(1_500), &mut app);
    assert_snapshot_golden("telemetry_tcp30", 22, &tele);
}

/// A churning roster with FQ-CoDel uplinks, rate control and one lossy
/// slow station (retry chains and retry-limit drops): every join
/// builds a fresh uplink on a reused slot (re-resolving its `client_fq`
/// instruments), leaves drop queued frames as `drops_detached`, and
/// traffic keeps arriving for absent slots.
#[test]
fn churn_fq_snapshot_matches_golden() {
    const N: usize = 24;
    let cfg = NetworkConfig::builder()
        .stations_at(N - 1, PhyRate::fast_station())
        .lossy_station(PhyRate::slow_station(), 0.35)
        .max_retries(3)
        .scheme(SchemeKind::AirtimeFair)
        .station_fq(true)
        .rate_control(true)
        .seed(23)
        .build();
    let tele = Telemetry::with_event_capacity(GOLDEN_RING);
    let mut net = observed(cfg, &tele);
    let mut app = TrafficApp::with_seed(23);
    for sta in 0..N {
        app.add_udp_up(sta, 4_000_000, Nanos::ZERO);
        if sta % 3 == 0 {
            app.add_udp_down(sta, 6_000_000, Nanos::ZERO);
        }
        if sta % 8 == 1 {
            app.add_tcp_up(sta, Nanos::ZERO);
        }
    }
    app.set_telemetry(&tele);
    app.install(&mut net);

    let mut lcg: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut absent = 0usize;
    for step in 1..=300u64 {
        net.run(Nanos::from_millis(5 * step), &mut app);
        lcg = lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let slot = (lcg >> 33) as usize % N;
        match (
            step % 2,
            net.sta_id(slot).filter(|_| net.station_active(slot)),
        ) {
            (0, Some(id)) if absent < N / 2 => {
                net.remove_station(id);
                absent += 1;
            }
            (1, _) if absent > 0 => {
                let rate = if step % 5 == 0 {
                    PhyRate::slow_station()
                } else {
                    PhyRate::fast_station()
                };
                net.add_station(StationCfg::clean(rate));
                absent -= 1;
            }
            _ => {}
        }
    }
    assert_snapshot_golden("telemetry_churn_fq", 23, &tele);
}

// --- One record per attempt --------------------------------------------

/// A monitor that keeps every record it is handed.
#[derive(Default)]
struct Tape(Vec<TxRecord>);

impl TxMonitor for Tape {
    fn on_tx(&mut self, record: &TxRecord) {
        self.0.push(*record);
    }
}

/// Every attempt, uplink or downlink, is billed once and reported the same
/// way to everyone watching: the monitor's `TxRecord`s and the ring's `Tx`
/// events pair up one to one and agree field for field, their airtime
/// sums to the meter's per station and direction exactly, and the
/// retry-limit `Drop` events are the aggregates whose last allowed retry
/// failed — their frames are the meter's `retry_drops`. Bidirectional UDP
/// over two lossy stations with rate control and one retry allowed.
#[test]
fn monitor_ring_and_meter_agree_on_every_attempt() {
    const MAX_RETRIES: u32 = 1;
    let cfg = NetworkConfig::builder()
        .station(PhyRate::fast_station())
        .lossy_station(PhyRate::fast_station(), 0.3)
        .lossy_station(PhyRate::slow_station(), 0.4)
        .station(PhyRate::fast_station())
        .scheme(SchemeKind::AirtimeFair)
        .rate_control(true)
        .max_retries(MAX_RETRIES)
        .seed(41)
        .build();
    let tele = Telemetry::with_event_capacity(1 << 18);
    let mut net = observed(cfg, &tele);
    let tape = Rc::new(RefCell::new(Tape::default()));
    net.attach_monitor(Box::new(tape.clone()));
    let mut app = TrafficApp::with_seed(41);
    for sta in 0..4 {
        app.add_udp_down(sta, 20_000_000, Nanos::ZERO);
        app.add_udp_up(sta, 5_000_000, Nanos::ZERO);
    }
    app.install(&mut net);
    net.run(Nanos::from_millis(250), &mut app);

    let snapshot = tele.snapshot("attempts", 41);
    let ring = snapshot
        .get("events")
        .expect("an enabled sink exports its ring");
    assert_eq!(ring.get("shed").and_then(|s| s.as_u64()), Some(0));
    let of_kind = |kind: &str| -> Vec<&Json> {
        let entries = ring.get("entries").and_then(|e| e.as_array());
        let mac = |e: &&Json| {
            let field = |k: &str| e.get(k).and_then(|v| v.as_str());
            field("component") == Some("mac") && field("kind") == Some(kind)
        };
        entries.expect("ring entries").iter().filter(mac).collect()
    };
    let num = |e: &Json, k: &str| e.get(k).and_then(|v| v.as_u64()).expect("numeric field");
    let flag = |e: &Json, k: &str| e.get(k).and_then(|v| v.as_bool()).expect("boolean field");

    let tape = tape.borrow();
    let txs = of_kind("tx");
    assert_eq!(txs.len(), tape.0.len(), "one Tx event per TxRecord");
    // [station][uplink] airtime and retried attempts, from the records.
    let mut airtime = [[Nanos::ZERO; 2]; 4];
    let mut retried = [0u32; 2];
    for (ev, rec) in txs.iter().zip(&tape.0) {
        let uplink = rec.direction == TxDirection::Uplink;
        assert_eq!(
            (
                num(ev, "at_ns"),
                num(ev, "station") as usize,
                num(ev, "ac") as usize,
                num(ev, "frames") as usize,
                num(ev, "bytes"),
                num(ev, "airtime_ns"),
            ),
            (
                rec.at.as_nanos(),
                rec.station,
                rec.ac.index(),
                rec.frames,
                rec.payload_bytes,
                rec.airtime.as_nanos(),
            ),
            "event {ev:?} against {rec:?}"
        );
        assert_eq!(
            (flag(ev, "uplink"), flag(ev, "success"), flag(ev, "retry")),
            (uplink, rec.success, rec.retry > 0),
            "event {ev:?} against {rec:?}"
        );
        airtime[rec.station][uplink as usize] += rec.airtime;
        retried[uplink as usize] += (rec.retry > 0) as u32;
    }
    for (sta, [down, up]) in airtime.into_iter().enumerate() {
        let m = net.station_meter(sta);
        assert_eq!((down, up), (m.tx_airtime, m.rx_airtime), "station {sta}");
        assert!(down > Nanos::ZERO && up > Nanos::ZERO, "station {sta} idle");
    }
    assert!(retried[0] > 0 && retried[1] > 0, "retries {retried:?}");

    // An attempt that fails with its retry budget spent is the drop.
    let spent: Vec<&TxRecord> = tape
        .0
        .iter()
        .filter(|r| !r.success && r.retry == MAX_RETRIES)
        .collect();
    let drops = of_kind("drop");
    assert_eq!(
        drops.len(),
        spent.len(),
        "one Drop event per spent aggregate"
    );
    for (ev, rec) in drops.iter().zip(&spent) {
        assert_eq!(
            ev.get("reason").and_then(|r| r.as_str()),
            Some("retry_limit")
        );
        assert_eq!(
            (num(ev, "at_ns"), num(ev, "bytes")),
            (rec.at.as_nanos(), rec.payload_bytes)
        );
    }
    for uplink in [false, true] {
        let this_way = |r: &&TxRecord| (r.direction == TxDirection::Uplink) == uplink;
        assert!(spent.iter().any(this_way), "no uplink={uplink} drop");
    }
    for sta in 0..4 {
        let frames: usize = spent
            .iter()
            .filter(|r| r.station == sta)
            .map(|r| r.frames)
            .sum();
        assert_eq!(frames as u64, net.station_meter(sta).retry_drops);
        assert_eq!(
            tele.counter("mac", "retry_drops", Label::Station(sta as u32)),
            frames as u64
        );
    }
}

// --- Resolution discipline --------------------------------------------

/// After install, recording looks no key up: `resolutions()` counts every
/// keyed write and every id handed out, and must stay flat across the
/// second half of a steady run. Checked on the two per-packet regimes —
/// the ack-clocked 30-station TCP mix (AP FQ, CoDel, per-flow sender
/// gauges, per-aggregate MAC counters) and an uplink flood through
/// FQ-CoDel station uplinks (the `client_fq` instruments, collisions).
#[test]
fn steady_state_recording_resolves_no_keys() {
    let tcp = NetworkConfig::builder()
        .preset(Preset::Testbed30)
        .scheme(SchemeKind::AirtimeFair)
        .seed(31)
        .build();
    let flood = NetworkConfig::builder()
        .stations_at(24, PhyRate::fast_station())
        .scheme(SchemeKind::AirtimeFair)
        .station_fq(true)
        .seed(32)
        .build();
    fn tcp_mix(app: &mut TrafficApp) {
        for sta in 0..29 {
            app.add_tcp_down(sta, Nanos::ZERO);
        }
        for sta in 0..10 {
            app.add_tcp_up(sta, Nanos::ZERO);
        }
        app.add_ping(29, Nanos::ZERO);
    }
    fn uplink_flood(app: &mut TrafficApp) {
        for sta in 0..24 {
            app.add_udp_up(sta, 8_000_000, Nanos::ZERO);
        }
        app.add_udp_down(0, 20_000_000, Nanos::ZERO);
    }
    type Traffic = fn(&mut TrafficApp);
    let cases = [
        ("tcp30", tcp, tcp_mix as Traffic),
        ("uplink flood", flood, uplink_flood as Traffic),
    ];
    for (name, cfg, traffic) in cases {
        let tele = Telemetry::enabled();
        let mut net = observed(cfg, &tele);
        let mut app = TrafficApp::new();
        traffic(&mut app);
        app.set_telemetry(&tele);
        app.install(&mut net);
        net.run(Nanos::from_secs(1), &mut app);
        let (resolved, events) = (tele.resolutions(), net.events_processed);
        assert!(resolved > 0, "{name}: install resolved nothing");
        net.run(Nanos::from_secs(2), &mut app);
        assert!(
            net.events_processed > events + 10_000,
            "{name}: the second half was idle"
        );
        assert_eq!(
            tele.resolutions(),
            resolved,
            "{name}: a per-packet path looked a key up"
        );
    }
}

/// Resolving is idempotent, so the recorder table is bounded by the keys
/// that exist, not by how often they are resolved: 1 000 leave/join cycles
/// (each join builds a fresh FQ uplink that re-resolves its instruments)
/// and a page load that attaches a fresh sender per request leave as many
/// recorders as the warmed-up roster had.
#[test]
fn churn_and_page_loads_do_not_grow_the_recorder_table() {
    const N: usize = 16;
    let cfg = NetworkConfig::builder()
        .stations_at(N, PhyRate::fast_station())
        .scheme(SchemeKind::AirtimeFair)
        .station_fq(true)
        .seed(33)
        .build();
    let tele = Telemetry::enabled();
    let mut net = observed(cfg, &tele);
    let mut app = TrafficApp::with_seed(33);
    for sta in 1..N {
        app.add_udp_up(sta, 2_000_000, Nanos::ZERO);
        app.add_udp_down(sta, 2_000_000, Nanos::ZERO);
    }
    // Station 0 never leaves: its 110-request page keeps making progress.
    let web = app.add_web(0, WebPage::large(), Nanos::ZERO);
    app.set_telemetry(&tele);
    app.install(&mut net);

    let mut warmed = None;
    for cycle in 0..1_000u64 {
        net.run(Nanos::from_millis(4 * (cycle + 1)), &mut app);
        let slot = 1 + (cycle as usize * 7) % (N - 1);
        let id = net
            .sta_id(slot)
            .expect("every slot is occupied between cycles");
        net.remove_station(id);
        net.run(Nanos::from_millis(4 * (cycle + 1) + 2), &mut app);
        net.add_station(StationCfg::clean(PhyRate::fast_station()));
        if cycle == 100 {
            warmed = Some((tele.recorders(), app.web(web).completed()));
        }
    }
    let (recorders, pages) = warmed.expect("ran past the warm-up cycle");
    assert!(
        app.web(web).completed() > pages + 10,
        "the page load stalled: {} requests then, {} now",
        pages,
        app.web(web).completed()
    );
    assert_eq!(
        tele.recorders(),
        recorders,
        "900 more cycles and {} more requests grew the recorder table",
        app.web(web).completed() - pages
    );
    // Per slot: 5 mac/* + 1 codel/param_switches + 4 TIDs x 8 fq/*; shared:
    // the client_fq set, per-connection tcp/*, and a handful of globals.
    assert!(
        recorders <= N * 38 + 120,
        "{recorders} recorders for {N} slots"
    );
}
