//! Reproducibility: simulations are functions of (configuration, seed)
//! and nothing else.

use ending_anomaly::mac::{NetworkConfig, SchemeKind, WifiNetwork};
use ending_anomaly::sim::Nanos;
use ending_anomaly::traffic::{AppMsg, FlowHandle, TrafficApp, WebPage};

/// A busy mixed-traffic scenario, installed and not yet run.
struct Busy {
    net: WifiNetwork<AppMsg>,
    app: TrafficApp,
    ping: FlowHandle,
    tcp: FlowHandle,
    udp: FlowHandle,
    web: FlowHandle,
}

const BUSY_END: Nanos = Nanos::from_secs(5);

fn busy(scheme: SchemeKind, seed: u64) -> Busy {
    let mut cfg = NetworkConfig::paper_testbed(scheme);
    cfg.seed = seed;
    cfg.stations[1].errors = ending_anomaly::mac::ErrorModel::Fixed(0.05); // retries too
    let mut net: WifiNetwork<AppMsg> = WifiNetwork::new(cfg);
    let mut app = TrafficApp::new();
    let ping = app.add_ping(2, Nanos::ZERO);
    let tcp = app.add_tcp_down(0, Nanos::ZERO);
    let udp = app.add_udp_down(1, 50_000_000, Nanos::ZERO);
    let web = app.add_web(0, WebPage::small(), Nanos::from_secs(1));
    app.install(&mut net);
    Busy {
        net,
        app,
        ping,
        tcp,
        udp,
        web,
    }
}

/// Runs the busy scenario and returns a behavioural fingerprint.
fn fingerprint(scheme: SchemeKind, seed: u64) -> (u64, Vec<u64>, Vec<String>) {
    let mut b = busy(scheme, seed);
    b.net.run(BUSY_END, &mut b.app);
    let (net, app) = (&b.net, &b.app);

    let rtts: Vec<String> = app
        .ping(b.ping)
        .rtts
        .iter()
        .map(|(t, r)| format!("{}:{}", t.as_nanos(), r.as_nanos()))
        .collect();
    (
        net.events_processed,
        vec![
            app.tcp(b.tcp).delivered_bytes(),
            app.udp(b.udp).delivered,
            app.web(b.web).plt.map_or(0, |p| p.as_nanos()),
            net.station_meter(0).tx_airtime.as_nanos(),
            net.station_meter(1).failures,
        ],
        rtts,
    )
}

#[test]
fn same_seed_bit_identical() {
    for scheme in SchemeKind::ALL {
        let a = fingerprint(scheme, 123);
        let b = fingerprint(scheme, 123);
        assert_eq!(a, b, "{scheme:?} diverged under the same seed");
    }
}

#[test]
fn different_seeds_differ() {
    let a = fingerprint(SchemeKind::AirtimeFair, 1);
    let b = fingerprint(SchemeKind::AirtimeFair, 2);
    // Event counts or fine-grained RTT fingerprints must differ; the
    // macroscopic numbers may coincide.
    assert!(
        a.0 != b.0 || a.2 != b.2,
        "seeds 1 and 2 produced identical runs"
    );
}

#[test]
fn virtual_time_is_wall_clock_free() {
    // Two identical runs executed back-to-back at different wall-clock
    // times must match exactly (no hidden time sources).
    let a = fingerprint(SchemeKind::FqMac, 55);
    std::thread::sleep(std::time::Duration::from_millis(20));
    let b = fingerprint(SchemeKind::FqMac, 55);
    assert_eq!(a, b);
}

/// The busy scenario run to its end with a stop at each of `cuts` on the
/// way: event count, every station meter, and the whole application state
/// (every flow's counters, TCP endpoints and RTT samples) as `Debug` text.
fn run_with_cuts(scheme: SchemeKind, cuts: &[Nanos]) -> (u64, String, String) {
    let mut b = busy(scheme, 9);
    for &cut in cuts.iter().chain([&BUSY_END]) {
        b.net.run(cut, &mut b.app);
    }
    (
        b.net.events_processed,
        format!("{:?}", b.net.meter().all()),
        format!("{:?}", b.app),
    )
}

/// What every warm-up snapshot leans on (a counter copied between two
/// `run`s, subtracted after the second): stopping a run and resuming it
/// changes nothing, wherever the stop falls — including exactly on a
/// pending event's timestamp, which `run` includes.
#[test]
fn a_run_cut_at_any_instant_equals_the_uncut_run() {
    // The 10 Hz ping timer fires at exactly 1 s: the cut there lands on a
    // pending event, and that event belongs to the first slice.
    let on_event = Nanos::from_secs(1);
    let mut b = busy(SchemeKind::AirtimeFair, 9);
    b.net.run(on_event, &mut b.app);
    assert_eq!(b.app.ping(b.ping).sent, 11, "run(until) includes `until`");

    let between_events = Nanos::from_nanos(2_345_678_901);
    for scheme in SchemeKind::ALL {
        let uncut = run_with_cuts(scheme, &[]);
        let cut = run_with_cuts(scheme, &[on_event, between_events]);
        assert_eq!(uncut, cut, "{scheme:?}: a cut run diverged");
    }
}
