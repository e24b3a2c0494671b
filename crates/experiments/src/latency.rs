//! Latency under load (Figures 1 and 4): ICMP ping with simultaneous bulk
//! TCP traffic, per scheme, for a fast and the slow station.

use serde::Serialize;
use wifiq_mac::{SchemeKind, WifiNetwork};
use wifiq_stats::{Cdf, Summary};
use wifiq_traffic::TrafficApp;

use crate::runner::{run_seeds, to_ms, RunCfg};
use crate::scenario::{self, FAST1, SLOW};

/// Latency distribution for one station class under one scheme.
#[derive(Debug, Clone, Serialize)]
pub struct LatencyDist {
    /// Summary statistics in milliseconds.
    pub summary: Summary,
    /// Empirical CDF (ms, probability), downsampled.
    pub cdf: Cdf,
}

impl LatencyDist {
    fn of(samples_ms: &[f64]) -> LatencyDist {
        LatencyDist {
            summary: Summary::of(samples_ms),
            cdf: Cdf::of(samples_ms, 200),
        }
    }
}

/// One scheme's latency result.
#[derive(Debug, Clone, Serialize)]
pub struct SchemeLatency {
    /// Scheme label.
    pub scheme: String,
    /// Fast-station ping RTT distribution.
    pub fast: LatencyDist,
    /// Slow-station ping RTT distribution.
    pub slow: LatencyDist,
}

/// Runs the Figure 4 workload (ping + TCP download to every station)
/// under one scheme; `bidir` adds simultaneous uploads (the online
/// appendix variant mentioned in §4.1.1).
pub fn run_scheme(scheme: SchemeKind, cfg: &RunCfg, bidir: bool) -> SchemeLatency {
    let config = if bidir { "bidir" } else { "down" };
    // (fast RTTs, slow RTTs) in ms, one tuple per repetition.
    let reps: Vec<(Vec<f64>, Vec<f64>)> =
        run_seeds("latency", scheme.slug(), config, cfg, |seed| {
            let net_cfg = scenario::testbed3(scheme, seed);
            let mut net: WifiNetwork<wifiq_traffic::AppMsg> = WifiNetwork::new(net_cfg);
            let mut app = TrafficApp::new();
            let ping_fast = app.add_ping(FAST1, wifiq_sim::Nanos::ZERO);
            let ping_slow = app.add_ping(SLOW, wifiq_sim::Nanos::ZERO);
            for sta in 0..3 {
                app.add_tcp_down(sta, wifiq_sim::Nanos::ZERO);
                if bidir {
                    app.add_tcp_up(sta, wifiq_sim::Nanos::ZERO);
                }
            }
            app.install(&mut net);
            net.run(cfg.duration, &mut app);
            let rtts = |flow| -> Vec<f64> { to_ms(&app.ping(flow).rtts_after(cfg.warmup)) };
            (rtts(ping_fast), rtts(ping_slow))
        });
    let fast_ms: Vec<f64> = reps.iter().flat_map(|r| r.0.iter().copied()).collect();
    let slow_ms: Vec<f64> = reps.iter().flat_map(|r| r.1.iter().copied()).collect();
    SchemeLatency {
        scheme: scheme.label().to_string(),
        fast: LatencyDist::of(&fast_ms),
        slow: LatencyDist::of(&slow_ms),
    }
}

/// Runs all four schemes (Figure 4; Figure 1 is the FIFO-vs-modified
/// subset of the same data).
pub fn run_all(cfg: &RunCfg, bidir: bool) -> Vec<SchemeLatency> {
    SchemeKind::ALL
        .into_iter()
        .map(|s| run_scheme(s, cfg, bidir))
        .collect()
}
