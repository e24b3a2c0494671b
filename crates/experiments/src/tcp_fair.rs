//! TCP workloads over the 3-station testbed: per-station throughput
//! (Figure 7) and airtime fairness under TCP (Figure 6's TCP columns).

use serde::Serialize;
use wifiq_mac::meter::airtime_shares;
use wifiq_mac::SchemeKind;
use wifiq_stats::jain_index;

use crate::runner::{bps, export_metrics, mean, run_seeds, RunCfg};
use crate::scenario::{self, tcp_down, tcp_up, TESTBED3};
use crate::scenario_file::{ScenarioFile, Window};

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

/// One repetition of `pattern` under `scheme` on the 3-station testbed:
/// the three downloads, then (bidirectional only) the three uploads.
pub fn cell(scheme: SchemeKind, pattern: TcpPattern, seed: u64, cfg: &RunCfg) -> ScenarioFile {
    let mut traffic: Vec<_> = (0..3).map(tcp_down).collect();
    if pattern == TcpPattern::Bidirectional {
        traffic.extend((0..3).map(tcp_up));
    }
    scenario::cell(scheme, &TESTBED3, traffic, seed, cfg)
}

/// Runs [`cell`] over `cfg`'s repetitions.
pub fn run_scheme(
    scheme: SchemeKind,
    pattern: TcpPattern,
    cfg: &RunCfg,
) -> Result<TcpRunResult, String> {
    let n = 3;
    // (down bps, up bps, shares, jain) per repetition.
    type TcpRep = (Vec<f64>, Vec<f64>, Vec<f64>, f64);
    let reps: Vec<TcpRep> = run_seeds("tcp_fair", scheme.slug(), pattern.slug(), cfg, |seed| {
        let mut built = cell(scheme, pattern, seed, cfg).build()?;
        let tele = cfg.telemetry();
        built.net.set_telemetry(tele.clone());
        built.app.set_telemetry(&tele);
        let Window {
            meters, delivered, ..
        } = built.measure(cfg.warmup);

        let mut down: Vec<f64> = delivered.iter().map(|&b| bps(b, cfg.window())).collect();
        let up = down.split_off(n);
        let shares = airtime_shares(&meters);
        let jain = jain_index(&shares);
        let snapshot = format!("tcp_{}_{}_seed{seed}", pattern.slug(), scheme.slug());
        export_metrics(cfg, &tele, &snapshot, seed);
        Ok((down, up, shares, jain))
    })?;

    let per_sta = |pick: fn(&TcpRep) -> &Vec<f64>, sta: usize| {
        mean(
            &reps
                .iter()
                .filter_map(|r| pick(r).get(sta).copied())
                .collect::<Vec<_>>(),
        )
    };
    Ok(TcpRunResult {
        scheme: scheme.label().to_string(),
        pattern: pattern.label().to_string(),
        down_bps: (0..n).map(|sta| per_sta(|r| &r.0, sta)).collect(),
        up_bps: (0..n).map(|sta| per_sta(|r| &r.1, sta)).collect(),
        airtime_shares: (0..n).map(|sta| per_sta(|r| &r.2, sta)).collect(),
        jain: crate::runner::median(&reps.iter().map(|r| r.3).collect::<Vec<_>>()),
    })
}

/// Runs a pattern under all four schemes.
pub fn run_all(pattern: TcpPattern, cfg: &RunCfg) -> Result<Vec<TcpRunResult>, String> {
    SchemeKind::ALL
        .into_iter()
        .map(|s| run_scheme(s, pattern, cfg))
        .collect()
}
