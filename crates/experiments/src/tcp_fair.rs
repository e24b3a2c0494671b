//! TCP workloads over the 3-station testbed: per-station throughput
//! (Figure 7) and airtime fairness under TCP (Figure 6's TCP columns).

use serde::Serialize;
use wifiq_mac::{SchemeKind, StationMeter, WifiNetwork};
use wifiq_sim::Nanos;
use wifiq_stats::jain_index;
use wifiq_traffic::TrafficApp;

use crate::runner::{
    delivered_bytes, delivered_since, export_metrics, mean, meter_window, run_seeds, shares_of,
    RunCfg,
};
use crate::scenario;

/// TCP traffic pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum TcpPattern {
    /// Bulk download to every station.
    Download,
    /// Simultaneous bulk upload and download for every station.
    Bidirectional,
}

impl TcpPattern {
    /// Label used in tables ("TCP dl" / "TCP bidir" as in Figure 6).
    pub fn label(self) -> &'static str {
        match self {
            TcpPattern::Download => "TCP dl",
            TcpPattern::Bidirectional => "TCP bidir",
        }
    }

    /// Filesystem-safe identifier for artifact names.
    pub fn slug(self) -> &'static str {
        match self {
            TcpPattern::Download => "dl",
            TcpPattern::Bidirectional => "bidir",
        }
    }
}

/// Result of one scheme × pattern run.
#[derive(Debug, Clone, Serialize)]
pub struct TcpRunResult {
    /// Scheme label.
    pub scheme: String,
    /// Pattern label.
    pub pattern: String,
    /// Mean per-station download goodput, bits/s.
    pub down_bps: Vec<f64>,
    /// Mean per-station upload goodput, bits/s (zero for Download).
    pub up_bps: Vec<f64>,
    /// Mean per-station airtime shares.
    pub airtime_shares: Vec<f64>,
    /// Median (across reps) Jain's index over station airtimes.
    pub jain: f64,
}

impl TcpRunResult {
    /// Mean of the per-station download goodputs (the "Average" group of
    /// Figure 7), bits/s.
    pub fn average_down(&self) -> f64 {
        mean(&self.down_bps)
    }

    /// Total goodput over all stations and directions, bits/s.
    pub fn total(&self) -> f64 {
        self.down_bps.iter().sum::<f64>() + self.up_bps.iter().sum::<f64>()
    }
}

/// Runs `pattern` under `scheme` on the 3-station testbed.
pub fn run_scheme(scheme: SchemeKind, pattern: TcpPattern, cfg: &RunCfg) -> TcpRunResult {
    let n = 3;
    // (down bps, up bps, shares, jain) per repetition.
    type TcpRep = (Vec<f64>, Vec<f64>, Vec<f64>, f64);
    let reps: Vec<TcpRep> = run_seeds("tcp_fair", scheme.slug(), pattern.slug(), cfg, |seed| {
        let net_cfg = scenario::testbed3(scheme, seed);
        let mut net: WifiNetwork<wifiq_traffic::AppMsg> = WifiNetwork::new(net_cfg);
        let tele = cfg.telemetry();
        net.set_telemetry(tele.clone());
        let mut app = TrafficApp::new();
        // The `n` downloads, then (bidirectional only) the `n` uploads.
        let mut tcps: Vec<_> = (0..n).map(|s| app.add_tcp_down(s, Nanos::ZERO)).collect();
        if pattern == TcpPattern::Bidirectional {
            tcps.extend((0..n).map(|s| app.add_tcp_up(s, Nanos::ZERO)));
        }
        app.set_telemetry(&tele);
        app.install(&mut net);

        net.run(cfg.warmup, &mut app);
        let before: Vec<StationMeter> = net.meter().all().to_vec();
        let delivered = delivered_bytes(&app, &tcps);
        net.run(cfg.duration, &mut app);
        let window: Vec<StationMeter> = meter_window(net.meter().all(), &before);

        let secs = cfg.window().as_secs_f64();
        let mut down: Vec<f64> = delivered_since(&app, &tcps, &delivered)
            .into_iter()
            .map(|b| b as f64 * 8.0 / secs)
            .collect();
        let up = down.split_off(n);
        let shares = shares_of(&window);
        let jain = jain_index(&shares);
        let snapshot = format!("tcp_{}_{}_seed{seed}", pattern.slug(), scheme.slug());
        export_metrics(cfg, &tele, &snapshot, seed);
        (down, up, shares, jain)
    });

    let per_sta = |pick: fn(&TcpRep) -> &Vec<f64>, sta: usize| {
        mean(
            &reps
                .iter()
                .filter_map(|r| pick(r).get(sta).copied())
                .collect::<Vec<_>>(),
        )
    };
    TcpRunResult {
        scheme: scheme.label().to_string(),
        pattern: pattern.label().to_string(),
        down_bps: (0..n).map(|sta| per_sta(|r| &r.0, sta)).collect(),
        up_bps: (0..n).map(|sta| per_sta(|r| &r.1, sta)).collect(),
        airtime_shares: (0..n).map(|sta| per_sta(|r| &r.2, sta)).collect(),
        jain: crate::runner::median(&reps.iter().map(|r| r.3).collect::<Vec<_>>()),
    }
}

/// Runs a pattern under all four schemes.
pub fn run_all(pattern: TcpPattern, cfg: &RunCfg) -> Vec<TcpRunResult> {
    SchemeKind::ALL
        .into_iter()
        .map(|s| run_scheme(s, pattern, cfg))
        .collect()
}
