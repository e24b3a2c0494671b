//! One-way UDP saturation runs — the workload behind Table 1 and
//! Figure 5, and the UDP column of Figure 6.

use serde::Serialize;
use wifiq_mac::{SchemeKind, StationMeter, WifiNetwork};
use wifiq_sim::Nanos;
use wifiq_traffic::TrafficApp;

use crate::runner::{
    delivered_bytes, delivered_since, export_metrics, mean, meter_window, run_seeds, shares_of,
    RunCfg,
};
use crate::scenario;

/// Offered UDP load per station (well above any station's capacity).
pub const SAT_RATE_BPS: u64 = 100_000_000;

/// Per-station measurements from one saturation run (averaged over
/// repetitions).
#[derive(Debug, Clone, Serialize)]
pub struct UdpStation {
    /// Airtime share (0–1).
    pub airtime_share: f64,
    /// Mean A-MPDU aggregation level (frames per aggregate).
    pub aggregation: f64,
    /// Delivered goodput, bits/s.
    pub goodput_bps: f64,
}

/// Result of running the saturation workload under one scheme.
#[derive(Debug, Clone, Serialize)]
pub struct UdpSatResult {
    /// Scheme label.
    pub scheme: String,
    /// Per-station results, station order as configured.
    pub stations: Vec<UdpStation>,
    /// Per-repetition airtime share vectors (for Jain's index).
    pub rep_shares: Vec<Vec<f64>>,
}

impl UdpSatResult {
    /// Total goodput across stations in bits/s.
    pub fn total_goodput(&self) -> f64 {
        self.stations.iter().map(|s| s.goodput_bps).sum()
    }
}

/// Runs one-way UDP saturation to every station of the 3-station testbed
/// under `scheme`.
pub fn run_scheme(scheme: SchemeKind, cfg: &RunCfg) -> UdpSatResult {
    let n = 3;
    // (shares, aggregation, goodput) per station, one tuple per repetition.
    let reps: Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> =
        run_seeds("udp_sat", scheme.slug(), "", cfg, |seed| {
            let net_cfg = scenario::testbed3(scheme, seed);
            let mut net: WifiNetwork<wifiq_traffic::AppMsg> = WifiNetwork::new(net_cfg);
            let tele = cfg.telemetry();
            net.set_telemetry(tele.clone());
            let mut app = TrafficApp::new();
            let flows: Vec<_> = (0..n)
                .map(|sta| app.add_udp_down(sta, SAT_RATE_BPS, Nanos::ZERO))
                .collect();
            app.install(&mut net);

            net.run(cfg.warmup, &mut app);
            let before: Vec<StationMeter> = net.meter().all().to_vec();
            let delivered = delivered_bytes(&app, &flows);
            net.run(cfg.duration, &mut app);
            let window: Vec<StationMeter> = meter_window(net.meter().all(), &before);

            let shares = shares_of(&window);
            let aggr: Vec<f64> = window.iter().map(StationMeter::mean_aggregation).collect();
            let thr: Vec<f64> = delivered_since(&app, &flows, &delivered)
                .into_iter()
                .map(|bytes| bytes as f64 * 8.0 / cfg.window().as_secs_f64())
                .collect();
            let snapshot = format!("udp_sat_{}_seed{seed}", scheme.slug());
            export_metrics(cfg, &tele, &snapshot, seed);
            (shares, aggr, thr)
        });

    UdpSatResult {
        scheme: scheme.label().to_string(),
        stations: (0..n)
            .map(|sta| UdpStation {
                airtime_share: mean(&reps.iter().map(|r| r.0[sta]).collect::<Vec<_>>()),
                aggregation: mean(&reps.iter().map(|r| r.1[sta]).collect::<Vec<_>>()),
                goodput_bps: mean(&reps.iter().map(|r| r.2[sta]).collect::<Vec<_>>()),
            })
            .collect(),
        rep_shares: reps.into_iter().map(|r| r.0).collect(),
    }
}

/// Runs the workload under all four schemes (Figure 5).
pub fn run_all(cfg: &RunCfg) -> Vec<UdpSatResult> {
    SchemeKind::ALL
        .into_iter()
        .map(|s| run_scheme(s, cfg))
        .collect()
}
