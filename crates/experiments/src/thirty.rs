//! The 30-station scaling experiment (§4.1.5, Figures 9 and 10): 28 fast
//! bulk clients, one ping-only fast client, and one client pinned to
//! 1 Mbps legacy rate, under FQ-CoDel / FQ-MAC / Airtime.

use serde::Serialize;
use wifiq_mac::{SchemeKind, StationMeter, WifiNetwork};
use wifiq_sim::Nanos;
use wifiq_stats::{jain_index, Cdf, Summary};
use wifiq_traffic::TrafficApp;

use crate::runner::{
    delivered_bytes, delivered_since, mean, meter_window, run_seeds, shares_of, to_ms, RunCfg,
};
use crate::scenario::{self, PINGONLY30, SLOW30};

/// The schemes the third-party testbed ran (no FIFO case).
pub const SCHEMES30: [SchemeKind; 3] = [
    SchemeKind::FqCodelQdisc,
    SchemeKind::FqMac,
    SchemeKind::AirtimeFair,
];

/// One scheme's results in the 30-station test.
#[derive(Debug, Clone, Serialize)]
pub struct ThirtyResult {
    /// Scheme label.
    pub scheme: String,
    /// Airtime share of the 1 Mbps station.
    pub slow_share: f64,
    /// Mean airtime share of the 28 bulk fast stations.
    pub fast_share_mean: f64,
    /// Jain's index over the 29 active stations' airtime.
    pub jain: f64,
    /// Total TCP goodput, bits/s.
    pub total_goodput_bps: f64,
    /// Ping RTT to the slow station, ms.
    pub slow_latency: Summary,
    /// Ping RTT to one of the bulk fast stations, ms.
    pub fast_latency: Summary,
    /// Ping RTT to the sparse (ping-only) station, ms.
    pub sparse_latency: Summary,
    /// CDFs for the Figure 10 plot.
    pub slow_cdf: Cdf,
    /// Fast-station CDF for the Figure 10 plot.
    pub fast_cdf: Cdf,
}

/// Runs one scheme of the 30-station experiment.
pub fn run_scheme(scheme: SchemeKind, cfg: &RunCfg) -> ThirtyResult {
    // (slow share, fast share mean, jain, goodput, slow/fast/sparse RTTs)
    // per repetition.
    type ThirtyRep = (f64, f64, f64, f64, Vec<f64>, Vec<f64>, Vec<f64>);
    let reps: Vec<ThirtyRep> = run_seeds("thirty", scheme.slug(), "", cfg, |seed| {
        let net_cfg = scenario::testbed30(scheme, seed);
        let mut net: WifiNetwork<wifiq_traffic::AppMsg> = WifiNetwork::new(net_cfg);
        let mut app = TrafficApp::new();
        let ping_sparse = app.add_ping(PINGONLY30, Nanos::ZERO);
        let ping_slow = app.add_ping(SLOW30, Nanos::ZERO);
        let ping_fast = app.add_ping(1, Nanos::ZERO); // one bulk fast client
        let mut tcps = vec![app.add_tcp_down(SLOW30, Nanos::ZERO)];
        for sta in scenario::bulk30() {
            tcps.push(app.add_tcp_down(sta, Nanos::ZERO));
        }
        app.install(&mut net);

        net.run(cfg.warmup, &mut app);
        let before: Vec<StationMeter> = net.meter().all().to_vec();
        let delivered = delivered_bytes(&app, &tcps);
        net.run(cfg.duration, &mut app);
        let window: Vec<StationMeter> = meter_window(net.meter().all(), &before);

        // Airtime over the 29 stations that carry traffic (the ping-only
        // client is excluded from the share plot, as in Figure 9).
        let active: Vec<StationMeter> = window
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != PINGONLY30)
            .map(|(_, m)| *m)
            .collect();
        let shares = shares_of(&active);
        let secs = cfg.window().as_secs_f64();
        let goodput: f64 = delivered_since(&app, &tcps, &delivered)
            .into_iter()
            .map(|b| b as f64 * 8.0 / secs)
            .sum();
        let rtts = |flow| -> Vec<f64> { to_ms(&app.ping(flow).rtts_after(cfg.warmup)) };
        (
            shares[SLOW30],
            mean(&shares[1..]),
            jain_index(&shares),
            goodput,
            rtts(ping_slow),
            rtts(ping_fast),
            rtts(ping_sparse),
        )
    });

    let slow_ms: Vec<f64> = reps.iter().flat_map(|r| r.4.iter().copied()).collect();
    let fast_ms: Vec<f64> = reps.iter().flat_map(|r| r.5.iter().copied()).collect();
    let sparse_ms: Vec<f64> = reps.iter().flat_map(|r| r.6.iter().copied()).collect();
    ThirtyResult {
        scheme: scheme.label().to_string(),
        slow_share: mean(&reps.iter().map(|r| r.0).collect::<Vec<_>>()),
        fast_share_mean: mean(&reps.iter().map(|r| r.1).collect::<Vec<_>>()),
        jain: crate::runner::median(&reps.iter().map(|r| r.2).collect::<Vec<_>>()),
        total_goodput_bps: mean(&reps.iter().map(|r| r.3).collect::<Vec<_>>()),
        slow_latency: Summary::of(&slow_ms),
        fast_latency: Summary::of(&fast_ms),
        sparse_latency: Summary::of(&sparse_ms),
        slow_cdf: Cdf::of(&slow_ms, 150),
        fast_cdf: Cdf::of(&fast_ms, 150),
    }
}

/// Runs all three schemes of the 30-station experiment.
pub fn run_all(cfg: &RunCfg) -> Vec<ThirtyResult> {
    SCHEMES30.into_iter().map(|s| run_scheme(s, cfg)).collect()
}
