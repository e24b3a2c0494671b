//! One-way UDP saturation runs — the workload behind Table 1 and
//! Figure 5, and the UDP column of Figure 6.

use serde::Serialize;
use wifiq_mac::meter::airtime_shares;
use wifiq_mac::{SchemeKind, StationMeter};

use crate::runner::{bps, export_metrics, mean, run_seeds, RunCfg};
use crate::scenario::{self, TESTBED3};
use crate::scenario_file::{ScenarioFile, Window};

/// Offered UDP load per station, Mbps (well above any station's capacity).
pub const SAT_MBPS: u64 = 100;

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

/// One repetition of the saturation workload: saturating UDP to every
/// station of the 3-station testbed under `scheme`.
pub fn cell(scheme: SchemeKind, seed: u64, cfg: &RunCfg) -> ScenarioFile {
    let traffic = (0..3).map(|sta| scenario::udp(sta, SAT_MBPS)).collect();
    scenario::cell(scheme, &TESTBED3, traffic, seed, cfg)
}

/// Runs [`cell`] under `scheme` over `cfg`'s repetitions.
pub fn run_scheme(scheme: SchemeKind, cfg: &RunCfg) -> Result<UdpSatResult, String> {
    let n = 3;
    // (shares, aggregation, goodput) per station, one tuple per repetition.
    let reps: Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> =
        run_seeds("udp_sat", scheme.slug(), "", cfg, |seed| {
            let mut built = cell(scheme, seed, cfg).build()?;
            let tele = cfg.telemetry();
            built.net.set_telemetry(tele.clone());
            let Window {
                meters, delivered, ..
            } = built.measure(cfg.warmup);

            let shares = airtime_shares(&meters);
            let aggr: Vec<f64> = meters.iter().map(StationMeter::mean_aggregation).collect();
            let thr: Vec<f64> = delivered.iter().map(|&b| bps(b, cfg.window())).collect();
            let snapshot = format!("udp_sat_{}_seed{seed}", scheme.slug());
            export_metrics(cfg, &tele, &snapshot, seed);
            Ok((shares, aggr, thr))
        })?;

    Ok(UdpSatResult {
        scheme: scheme.label().to_string(),
        stations: (0..n)
            .map(|sta| UdpStation {
                airtime_share: mean(&reps.iter().map(|r| r.0[sta]).collect::<Vec<_>>()),
                aggregation: mean(&reps.iter().map(|r| r.1[sta]).collect::<Vec<_>>()),
                goodput_bps: mean(&reps.iter().map(|r| r.2[sta]).collect::<Vec<_>>()),
            })
            .collect(),
        rep_shares: reps.into_iter().map(|r| r.0).collect(),
    })
}

/// Runs the workload under all four schemes (Figure 5).
pub fn run_all(cfg: &RunCfg) -> Result<Vec<UdpSatResult>, String> {
    SchemeKind::ALL
        .into_iter()
        .map(|s| run_scheme(s, cfg))
        .collect()
}
