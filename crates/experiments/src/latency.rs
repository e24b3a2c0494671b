//! Latency under load (Figures 1 and 4): ICMP ping with simultaneous bulk
//! TCP traffic, per scheme, for a fast and the slow station.

use serde::Serialize;
use wifiq_mac::SchemeKind;
use wifiq_stats::{Cdf, Summary};
use wifiq_traffic::FlowHandle;

use crate::runner::{run_seeds, to_ms, RunCfg};
use crate::scenario::{self, ping, tcp_down, tcp_up, FAST1, SLOW, TESTBED3};
use crate::scenario_file::ScenarioFile;

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

/// One repetition of the Figure 4 workload: pings to a fast and to the
/// slow station (components 0 and 1) and a TCP download to every station;
/// `bidir` adds simultaneous uploads (the online appendix variant
/// mentioned in §4.1.1).
pub fn cell(scheme: SchemeKind, bidir: bool, seed: u64, cfg: &RunCfg) -> ScenarioFile {
    let mut traffic = vec![ping(FAST1), ping(SLOW)];
    for station in 0..3 {
        traffic.push(tcp_down(station));
        if bidir {
            traffic.push(tcp_up(station));
        }
    }
    scenario::cell(scheme, &TESTBED3, traffic, seed, cfg)
}

/// Runs [`cell`] under one scheme over `cfg`'s repetitions.
pub fn run_scheme(scheme: SchemeKind, cfg: &RunCfg, bidir: bool) -> Result<SchemeLatency, String> {
    let config = if bidir { "bidir" } else { "down" };
    // (fast RTTs, slow RTTs) in ms, one tuple per repetition.
    let reps: Vec<(Vec<f64>, Vec<f64>)> =
        run_seeds("latency", scheme.slug(), config, cfg, |rep| {
            let mut built = cell(scheme, bidir, rep.seed, cfg).build()?;
            built.observe(&rep.hub());
            let window = built.measure(cfg.warmup);
            let rtts = |flow| to_ms(&built.app.ping(FlowHandle(flow)).rtts_after(window.from));
            Ok((rtts(0), rtts(1)))
        })?;
    let fast_ms: Vec<f64> = reps.iter().flat_map(|r| r.0.iter().copied()).collect();
    let slow_ms: Vec<f64> = reps.iter().flat_map(|r| r.1.iter().copied()).collect();
    Ok(SchemeLatency {
        scheme: scheme.label().to_string(),
        fast: LatencyDist::of(&fast_ms),
        slow: LatencyDist::of(&slow_ms),
    })
}

/// Runs all four schemes (Figure 4; Figure 1 is the FIFO-vs-modified
/// subset of the same data).
pub fn run_all(cfg: &RunCfg, bidir: bool) -> Result<Vec<SchemeLatency>, String> {
    SchemeKind::ALL
        .into_iter()
        .map(|s| run_scheme(s, cfg, bidir))
        .collect()
}
