//! The VoIP experiment (Table 2): MOS and total throughput when a VoIP
//! stream to the slow station competes with bulk TCP, for VO vs BE
//! markings and 5 ms vs 50 ms baseline one-way delay.

use serde::Serialize;
use wifiq_mac::SchemeKind;
use wifiq_phy::AccessCategory;
use wifiq_sim::Nanos;
use wifiq_stats::VoipMetrics;
use wifiq_traffic::FlowHandle;

use crate::runner::{bps, mean, run_seeds, RunCfg};
use crate::scenario::{self, tcp_down, SLOW, TESTBED4};
use crate::scenario_file::{ScenarioFile, TrafficSpec};

/// One Table 2 cell.
#[derive(Debug, Clone, Serialize)]
pub struct VoipCell {
    /// Scheme label.
    pub scheme: String,
    /// QoS marking label ("VO" / "BE").
    pub qos: String,
    /// Baseline one-way delay, ms.
    pub owd_ms: u64,
    /// Mean E-model MOS across repetitions.
    pub mos: f64,
    /// Mean total bulk TCP goodput, bits/s.
    pub throughput_bps: f64,
    /// Mean VoIP one-way delay, ms (diagnostic).
    pub delay_ms: f64,
    /// Mean VoIP loss fraction (diagnostic).
    pub loss: f64,
}

/// One repetition of a Table 2 cell under `scheme`: VoIP marked `ac` to
/// the slow station (component 0), then bulk TCP to all four stations —
/// "the slow station receives both VoIP traffic and bulk traffic, while
/// the fast stations receive bulk traffic".
pub fn cell(scheme: SchemeKind, ac: AccessCategory, seed: u64, cfg: &RunCfg) -> ScenarioFile {
    let mut traffic = vec![TrafficSpec::Voip {
        station: SLOW,
        qos: ac.label().to_lowercase(),
    }];
    traffic.extend((0..4).map(tcp_down));
    scenario::cell(scheme, &TESTBED4, traffic, seed, cfg)
}

/// Runs [`cell`] with a baseline one-way wire delay of `owd`.
pub fn run_cell(
    scheme: SchemeKind,
    ac: AccessCategory,
    owd: Nanos,
    cfg: &RunCfg,
) -> Result<VoipCell, String> {
    let config = format!("{}_{}ms", ac.label(), owd.as_millis());
    // (mos, throughput, delay, loss) per repetition.
    let reps: Vec<(f64, f64, f64, f64)> = run_seeds("voip", scheme.slug(), &config, cfg, |rep| {
        let mut built = cell(scheme, ac, rep.seed, cfg).build_with(|c| c.wire_delay = owd)?;
        built.observe(&rep.hub());
        let window = built.measure(cfg.warmup);

        let delays = built.app.voip(FlowHandle(0)).delays_after(window.from);
        // Frames sent within the window (20 ms spacing).
        let sent = (cfg.window().as_millis() / 20) as usize;
        let metrics = VoipMetrics::from_delays(&delays, sent.max(delays.len()));

        let thr = window.delivered[1..].iter().map(|&b| bps(b, cfg.window()));
        let thr: f64 = thr.sum();
        Ok((metrics.mos(), thr, metrics.mean_delay_ms, metrics.loss))
    })?;

    Ok(VoipCell {
        scheme: scheme.label().to_string(),
        qos: ac.label().to_string(),
        owd_ms: owd.as_millis(),
        mos: mean(&reps.iter().map(|r| r.0).collect::<Vec<_>>()),
        throughput_bps: mean(&reps.iter().map(|r| r.1).collect::<Vec<_>>()),
        delay_ms: mean(&reps.iter().map(|r| r.2).collect::<Vec<_>>()),
        loss: mean(&reps.iter().map(|r| r.3).collect::<Vec<_>>()),
    })
}

/// Runs the full Table 2 matrix: 4 schemes × {VO, BE} × {5 ms, 50 ms}.
pub fn run_all(cfg: &RunCfg) -> Result<Vec<VoipCell>, String> {
    let mut cells = Vec::new();
    for scheme in SchemeKind::ALL {
        for ac in [AccessCategory::Vo, AccessCategory::Be] {
            for owd in [Nanos::from_millis(5), Nanos::from_millis(50)] {
                cells.push(run_cell(scheme, ac, owd, cfg)?);
            }
        }
    }
    Ok(cells)
}
