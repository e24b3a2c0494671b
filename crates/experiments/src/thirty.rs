//! The 30-station scaling experiment (§4.1.5, Figures 9 and 10): 28 fast
//! bulk clients, one ping-only fast client, and one client pinned to
//! 1 Mbps legacy rate, under FQ-CoDel / FQ-MAC / Airtime.

use serde::Serialize;
use wifiq_mac::meter::airtime_shares;
use wifiq_mac::{SchemeKind, StationMeter};
use wifiq_stats::{jain_index, Cdf, Summary};
use wifiq_traffic::FlowHandle;

use crate::runner::{bps, mean, run_seeds, to_ms, RunCfg};
use crate::scenario::{self, ping, tcp_down, PINGONLY30, SLOW30, TESTBED30};
use crate::scenario_file::ScenarioFile;

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

/// One repetition of the 30-station test under `scheme`: pings to the
/// ping-only client, the slow client and one bulk fast client (components
/// 0–2), then a TCP download to the slow client and to each bulk client.
pub fn cell(scheme: SchemeKind, seed: u64, cfg: &RunCfg) -> ScenarioFile {
    let mut traffic = vec![ping(PINGONLY30), ping(SLOW30), ping(1), tcp_down(SLOW30)];
    traffic.extend(scenario::bulk30().map(tcp_down));
    scenario::cell(scheme, &TESTBED30, traffic, seed, cfg)
}

/// Runs [`cell`] under one scheme over `cfg`'s repetitions.
pub fn run_scheme(scheme: SchemeKind, cfg: &RunCfg) -> Result<ThirtyResult, String> {
    // (slow share, fast share mean, jain, goodput, slow/fast/sparse RTTs)
    // per repetition.
    type ThirtyRep = (f64, f64, f64, f64, Vec<f64>, Vec<f64>, Vec<f64>);
    let reps: Vec<ThirtyRep> = run_seeds("thirty", scheme.slug(), "", cfg, |seed| {
        let mut built = cell(scheme, seed, cfg).build()?;
        let window = built.measure(cfg.warmup);

        // Airtime over the 29 stations that carry traffic (the ping-only
        // client is excluded from the share plot, as in Figure 9).
        let active: Vec<StationMeter> = window
            .meters
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != PINGONLY30)
            .map(|(_, m)| *m)
            .collect();
        let shares = airtime_shares(&active);
        let goodput = window.delivered[3..].iter().map(|&b| bps(b, cfg.window()));
        let goodput: f64 = goodput.sum();
        let rtts = |flow| to_ms(&built.app.ping(FlowHandle(flow)).rtts_after(window.from));
        Ok((
            shares[SLOW30],
            mean(&shares[1..]),
            jain_index(&shares),
            goodput,
            rtts(1),
            rtts(2),
            rtts(0),
        ))
    })?;

    let slow_ms: Vec<f64> = reps.iter().flat_map(|r| r.4.iter().copied()).collect();
    let fast_ms: Vec<f64> = reps.iter().flat_map(|r| r.5.iter().copied()).collect();
    let sparse_ms: Vec<f64> = reps.iter().flat_map(|r| r.6.iter().copied()).collect();
    Ok(ThirtyResult {
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
    })
}

/// Runs all three schemes of the 30-station experiment.
pub fn run_all(cfg: &RunCfg) -> Result<Vec<ThirtyResult>, String> {
    SCHEMES30.into_iter().map(|s| run_scheme(s, cfg)).collect()
}
