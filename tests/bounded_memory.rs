//! Memory is sized by the scenario, not by the run: once the queues have
//! filled, a saturated network's resident set stays flat however long it
//! runs. A per-delivered-packet log anywhere on the delivery path fails
//! this (16 B × ~7.6 k deliveries per simulated second is 22 MB over the
//! 180 s measured here).
//!
//! One test in its own binary, so no other test's allocations share the
//! process. `VmRSS` is read from `/proc/self/status`; no custom allocator.

use ending_anomaly::mac::{NetworkConfig, Preset, SchemeKind, WifiNetwork};
use ending_anomaly::sim::Nanos;
use ending_anomaly::traffic::{AppMsg, TrafficApp};

/// Resident set size in kB, or `None` where `/proc/self/status` is absent.
fn vm_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmRSS:"))?;
    line.trim().trim_end_matches("kB").trim().parse().ok()
}

#[test]
fn resident_set_is_flat_in_run_length() {
    if vm_rss_kb().is_none() {
        println!("skipped: no VmRSS in /proc/self/status on this platform");
        return;
    }
    // The benchmark's `udp3_sat` shape: the 4-station testbed, saturating
    // UDP down to the two fast stations and the slow one, a ping to the
    // fourth.
    let cfg = NetworkConfig::builder()
        .preset(Preset::PaperTestbed4)
        .scheme(SchemeKind::AirtimeFair)
        .seed(1)
        .build();
    let mut net: WifiNetwork<AppMsg> = WifiNetwork::new(cfg);
    let mut app = TrafficApp::new();
    let floods: Vec<_> = [(0, 100_000_000), (1, 100_000_000), (2, 10_000_000)]
        .into_iter()
        .map(|(sta, rate)| app.add_udp_down(sta, rate, Nanos::ZERO))
        .collect();
    app.add_ping(3, Nanos::ZERO);
    app.install(&mut net);

    net.run(Nanos::from_secs(20), &mut app);
    let early = vm_rss_kb().expect("read a moment ago");
    net.run(Nanos::from_secs(200), &mut app);
    let late = vm_rss_kb().expect("read a moment ago");

    let delivered: u64 = floods.iter().map(|&f| app.udp(f).delivered).sum();
    assert!(
        delivered > 1_000_000,
        "not saturated: {delivered} deliveries"
    );
    let growth_kb = late.saturating_sub(early);
    assert!(
        growth_kb <= 4 * 1024,
        "RSS grew {growth_kb} kB between 20 s and 200 s of simulated time \
         ({early} -> {late} kB, {delivered} deliveries): something on the \
         delivery path grows per packet"
    );
}
