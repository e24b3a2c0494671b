//! Telemetry cross-validation: the metrics registry is a *third*,
//! independently accumulating account of the simulation, so it can be
//! cross-checked against the airtime meter and the monitor-mode capture
//! the same way the paper validated its in-kernel measurement against a
//! capture tool (§4.1.5, agreement "to within 1.5%, on average").
//!
//! The `observed` tests run the `wifiq` binary with the sink on: the
//! fig04–fig11 figures must match their byte goldens, and every snapshot
//! those runs export must keep the exported-snapshot rules.

use std::cell::RefCell;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::rc::Rc;

use ending_anomaly::mac::{
    NetworkConfig, Preset, SchemeKind, StationCfg, TxDirection, TxMonitor, TxRecord, WifiNetwork,
};
use ending_anomaly::phy::{AccessCategory, PhyRate};
use ending_anomaly::sim::Nanos;
use ending_anomaly::telemetry::{Json, Label, Telemetry};
use ending_anomaly::traffic::{AppMsg, TrafficApp, WebPage};

/// A monitor-mode capture: per-station airtime (both directions) summed
/// from the records alone.
struct Capture(Vec<Nanos>);

impl TxMonitor for Capture {
    fn on_tx(&mut self, record: &TxRecord) {
        self.0[record.station] += record.airtime;
    }
}

/// Runs a busy bidirectional workload with telemetry attached and returns
/// `(net, capture, tele)` for post-run inspection.
fn run_busy(
    scheme: SchemeKind,
    seed: u64,
    secs: u64,
) -> (WifiNetwork<AppMsg>, Rc<RefCell<Capture>>, Telemetry) {
    let mut cfg = NetworkConfig::paper_testbed(scheme);
    cfg.seed = seed;
    let mut net: WifiNetwork<AppMsg> = WifiNetwork::new(cfg);
    let capture = Rc::new(RefCell::new(Capture(vec![Nanos::ZERO; 3])));
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

/// The paper's meter-vs-monitor cross-check (§4.1.5 allows 1.5%),
/// re-implemented over the telemetry registry: per-station airtime from
/// the meter, the monitor-mode capture, and the `mac/tx_airtime_ns` +
/// `mac/rx_airtime_ns` counters must be the same number of nanoseconds.
/// All three are billed from one attempt's airtime, so any difference at
/// all is an accounting bug — one account skipping some attempts.
#[test]
fn meter_capture_and_registry_agree_exactly() {
    let (net, capture, tele) = run_busy(SchemeKind::AirtimeFair, 7, 3);
    let capture = capture.borrow();
    for sta in 0..3 {
        let meter = net.station_meter(sta).total_airtime().as_nanos();
        let cap = capture.0[sta].as_nanos();
        let reg = tele.counter("mac", "tx_airtime_ns", Label::Station(sta as u32))
            + tele.counter("mac", "rx_airtime_ns", Label::Station(sta as u32));
        assert!(meter > 0, "station {sta} saw no airtime");
        assert_eq!(cap, meter, "station {sta}: capture vs meter (ns)");
        assert_eq!(reg, meter, "station {sta}: registry vs meter (ns)");
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

// --- Exported snapshots -----------------------------------------------
//
// Under `WIFIQ_METRICS=1`, `wifiq` exports one snapshot per network of
// each repetition: `<name>.json` beside `<name>.csv`. Each rule below
// holds for every such pair.

type Verdict = Result<(), String>;
type Rule = fn(&Json, &str) -> Verdict;

fn check(ok: bool, why: String) -> Verdict {
    ok.then_some(()).ok_or(why)
}

/// `[component, metric, label]` and the entry itself, for each of the
/// registry's `counters`, `gauges` or `histograms`.
fn entries<'a>(snap: &'a Json, kind: &str) -> impl Iterator<Item = ([&'a str; 3], &'a Json)> {
    let list = snap.get("registry").and_then(|r| r.get(kind));
    let list = list.and_then(Json::as_array).unwrap_or(&[]);
    let part = |e: &'a Json, k| e.get(k).and_then(Json::as_str).unwrap_or("");
    list.iter()
        .map(move |e| (["component", "metric", "label"].map(|k| part(e, k)), e))
}

/// A numeric field of an entry; NaN, which fails every comparison, if absent.
fn num(entry: &Json, field: &str) -> f64 {
    entry.get(field).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// `field` of the counter or histogram keyed `component/metric/label`.
fn stat(snap: &Json, key: &str, field: &str) -> f64 {
    let all = entries(snap, "counters").chain(entries(snap, "histograms"));
    let mut found = all.filter(|(k, _)| k.join("/") == key);
    found.next().map_or(f64::NAN, |(_, e)| num(e, field))
}

/// The `kind` entries of `component` whose metric is none of the
/// space-separated `known`.
fn unknown(snap: &Json, kind: &str, component: &str, known: &str) -> Vec<String> {
    let known = |m: &str| known.split(' ').any(|k| k == m);
    let odd = entries(snap, kind).filter(|([c, m, _], _)| *c == component && !known(m));
    odd.map(|(k, _)| k.join("/")).collect()
}

/// Every histogram reports all its statistics, and
/// `min <= p50 <= p95 <= p99 <= max` once it holds a sample.
fn monotone_quantiles(snap: &Json, _: &str) -> Verdict {
    for (key, h) in entries(snap, "histograms") {
        let stats = ["count", "sum", "min", "p50", "p95", "p99", "max"].map(|f| num(h, f));
        let sorted = stats[2..].windows(2).all(|w| w[0] <= w[1]);
        let ok = !stats.iter().any(|s| s.is_nan()) && (stats[0] == 0.0 || sorted);
        check(ok, format!("{}: {stats:?}", key.join("/")))?;
    }
    Ok(())
}

/// Chaos metrics come from the injector's vocabulary, and no station
/// leaves degraded CoDel more often than it entered it.
fn chaos_vocabulary(snap: &Json, _: &str) -> Verdict {
    let counters = "stalled_exchanges forced_loss acks_lost rate_overrides hw_clamped_rounds \
                    codel_degraded_entries codel_recoveries";
    let mut bad = unknown(snap, "counters", "chaos", counters);
    bad.extend(unknown(
        snap,
        "histograms",
        "chaos",
        "loss_burst_len recovery_ms",
    ));
    for ([c, m, l], e) in entries(snap, "counters") {
        let entered = stat(snap, &format!("chaos/codel_degraded_entries/{l}"), "value");
        if [c, m] == ["chaos", "codel_recoveries"] && num(e, "value") > entered.max(0.0) {
            bad.push(format!("{l} recovered more often than it degraded"));
        }
    }
    check(bad.is_empty(), format!("{bad:?}"))
}

/// Policy metrics come from the engine's vocabulary, and achieved airtime
/// is labelled by its node.
fn policy_vocabulary(snap: &Json, _: &str) -> Verdict {
    let mut bad = unknown(snap, "counters", "policy", "switches node_airtime_ns");
    bad.extend(unknown(snap, "gauges", "policy", "active_nodes"));
    bad.extend(unknown(snap, "histograms", "policy", "convergence_ms"));
    let airtime = entries(snap, "counters").map(|(k, _)| k);
    let node =
        |[c, m, l]: &[&str; 3]| [*c, *m] == ["policy", "node_airtime_ns"] && !l.starts_with("node");
    let odd = airtime.filter(node);
    bad.extend(odd.map(|k| k.join("/")));
    check(bad.is_empty(), format!("{bad:?}"))
}

/// Every snapshot shows a station transmitting, so a disabled sink's
/// empty export fails here, and so does a snapshot of anything but a
/// network that ran.
fn station_airtime(snap: &Json, _: &str) -> Verdict {
    let sent = |[c, m, l]: [&str; 3], e| {
        [c, m] == ["mac", "tx_airtime_ns"] && l.starts_with("sta") && num(e, "value") > 0.0
    };
    let ok = entries(snap, "counters").any(|(k, e)| sent(k, e));
    check(ok, "no station transmitted".to_string())
}

/// The `.csv` sibling is in long format.
fn csv_header(_: &Json, csv: &str) -> Verdict {
    let header = csv.lines().next().unwrap_or("no .csv sibling");
    let ok = header == "kind,component,metric,label,stat,value";
    check(ok, header.to_string())
}

const RULES: [(&str, Rule); 5] = [
    ("monotone_quantiles", monotone_quantiles),
    ("chaos_vocabulary", chaos_vocabulary),
    ("policy_vocabulary", policy_vocabulary),
    ("station_airtime", station_airtime),
    ("csv_header", csv_header),
];

/// `rule: why` for each rule the snapshot `json`, with `csv`, breaks.
fn broken(json: &str, csv: &str) -> Vec<String> {
    let snap = serde_json::from_str(json).expect("an exported snapshot parses");
    let why = |(name, rule): &(&str, Rule)| rule(&snap, csv).err().map(|e| format!("{name}: {e}"));
    RULES.iter().filter_map(why).collect()
}

/// A snapshot that keeps every rule; each case below breaks one.
const GOOD: &str = r#"{"run": "r", "seed": 1, "enabled": true, "events": {}, "registry": {
  "counters": [
    {"component": "mac", "metric": "tx_airtime_ns", "label": "sta1", "value": 9},
    {"component": "chaos", "metric": "codel_degraded_entries", "label": "sta0", "value": 2},
    {"component": "chaos", "metric": "codel_recoveries", "label": "sta0", "value": 1},
    {"component": "policy", "metric": "node_airtime_ns", "label": "node0", "value": 9}],
  "gauges": [],
  "histograms": [{"component": "policy", "metric": "convergence_ms", "label": "global",
    "count": 3, "sum": 6, "min": 1, "p50": 2, "p95": 2, "p99": 3, "max": 3}]}}"#;

/// Each case edits `GOOD` (the last, its CSV) so that exactly the named
/// rule breaks.
#[test]
fn each_snapshot_rule_catches_its_own_violation() {
    let csv = "kind,component,metric,label,stat,value\n";
    assert_eq!(broken(GOOD, csv), Vec::<String>::new());
    let cases = [
        ("monotone_quantiles", "\"p95\": 2", "\"p95\": 4"),
        ("chaos_vocabulary", "\"value\": 1}", "\"value\": 3}"),
        ("policy_vocabulary", "node0", "tenant0"),
        ("station_airtime", "\"value\": 9", "\"value\": 0"),
        ("csv_header", csv, "kind,metric\n"),
    ];
    for (rule, from, to) in cases {
        let broken = broken(&GOOD.replace(from, to), &csv.replace(from, to));
        let named: Vec<&str> = broken
            .iter()
            .map(|b| b.split(':').next().unwrap())
            .collect();
        assert_eq!(named, [rule], "{broken:?}");
    }
}

/// Runs `wifiq <experiment>` quick and observed, into a fresh
/// results directory and under no other environment, and holds every
/// snapshot it exports to the rules above. Returns the directory.
fn run_observed(experiment: &str) -> PathBuf {
    observe_into(experiment, experiment)
}

/// [`run_observed`] into the scratch directory `name`.
fn observe_into(experiment: &str, name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_wifiq"))
        .arg(experiment)
        .env_clear()
        .env("WIFIQ_QUICK", "1")
        .env("WIFIQ_METRICS", "1")
        .env("WIFIQ_RESULTS_DIR", &dir)
        .output()
        .expect("spawn wifiq");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "wifiq {experiment}: {stderr}");
    let (mut snapshots, mut bad) = (0, Vec::new());
    for entry in fs::read_dir(dir.join("metrics")).expect("exported metrics") {
        let path = entry.expect("a metrics entry").path();
        if path.extension().is_some_and(|e| e == "json") {
            let json = fs::read_to_string(&path).expect("read a snapshot");
            let csv = fs::read_to_string(path.with_extension("csv")).unwrap_or_default();
            for why in broken(&json, &csv) {
                bad.push(format!("{}: {why}", path.display()));
            }
            snapshots += 1;
        }
    }
    assert!(
        snapshots > 0 && bad.is_empty(),
        "{snapshots} snapshots: {bad:#?}"
    );
    dir
}

/// A snapshot holds simulated quantities only: two observed runs of the
/// same experiment export byte-identical `metrics/` directories.
#[test]
fn observed_reruns_export_identical_snapshots() {
    let metrics = |name: &str| {
        let dir = observe_into("table1_model_validation", name).join("metrics");
        let files = fs::read_dir(dir).expect("exported metrics").map(|entry| {
            let path = entry.expect("a metrics entry").path();
            (
                path.file_name().unwrap().to_owned(),
                fs::read(&path).unwrap(),
            )
        });
        files.collect::<std::collections::BTreeMap<_, _>>()
    };
    let first = metrics("table1_rerun_a");
    assert!(!first.is_empty(), "no snapshot exported");
    let second = metrics("table1_rerun_b");
    let differ = first
        .iter()
        .filter(|(name, bytes)| second.get(*name) != Some(bytes));
    let differ: Vec<_> = differ.map(|(name, _)| name).collect();
    assert!(
        differ.is_empty() && first.len() == second.len(),
        "{differ:?} differ between two runs"
    );
}

/// One test per observed run, so the test harness overlaps them; each
/// `=> golden` names the figure JSON that must equal its golden
/// `tests/fixtures/golden/<golden>_quick.json` byte for byte.
macro_rules! observed_runs {
    ($($test:ident: $experiment:literal $(=> $golden:literal)?;)*) => {$(
        #[test]
        fn $test() {
            let _results = run_observed($experiment);
            $(
                let ran = _results.join(concat!($golden, ".json"));
                let root = env!("CARGO_MANIFEST_DIR");
                let golden = format!("{root}/tests/fixtures/golden/{}_quick.json", $golden);
                let same = fs::read(&ran).expect("the figure's JSON") == fs::read(&golden).unwrap();
                assert!(same, "{} differs from {golden}", ran.display());
            )?
        }
    )*};
}

/// fig04–fig11 on fixed seeds: a divergence means event or packet
/// ordering changed. fig04 was captured before the timing-wheel, arena
/// and batched-dispatch rewrite and survived the SoA station-table
/// rewrite unchanged; fig05–fig11 pin the full figure set from the SoA
/// cutover on. The goldens were written with the sink off and these runs
/// attach a live hub to every network a figure measures, so they also
/// show that observing a figure changes nothing it reports. The
/// extensions add per-shard, per-BSS, chaos and policy snapshots.
mod observed {
    use super::*;

    observed_runs! {
        fig04_latency: "fig04_latency_tcp" => "fig04_latency";
        fig05_airtime_udp: "fig05_airtime_udp" => "fig05_airtime_udp";
        fig06_jain: "fig06_jain_index" => "fig06_jain";
        fig07_tcp_download: "fig07_tcp_throughput" => "fig07_tcp_download";
        fig08_sparse: "fig08_sparse_station" => "fig08_sparse";
        fig09_30sta: "fig09_30sta_airtime" => "fig09_30sta";
        fig10_30sta_latency: "fig10_30sta_latency" => "fig10_30sta_latency";
        fig11_web: "fig11_web_plt" => "fig11_web";
        ext_scale: "ext_scale";
        ext_chaos: "ext_chaos";
        ext_policy: "ext_policy";
        ext_roam: "ext_roam";
    }
}
