//! The VoIP experiment (Table 2): MOS and total throughput when a VoIP
//! stream to the slow station competes with bulk TCP, for VO vs BE
//! markings and 5 ms vs 50 ms baseline one-way delay.

use serde::Serialize;
use wifiq_mac::{SchemeKind, WifiNetwork};
use wifiq_phy::AccessCategory;
use wifiq_sim::Nanos;
use wifiq_stats::VoipMetrics;
use wifiq_traffic::TrafficApp;

use crate::runner::{delivered_bytes, delivered_since, mean, run_seeds, RunCfg};
use crate::scenario::{self, SLOW};

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

/// Runs one Table 2 cell: VoIP (+bulk) to the slow station, bulk TCP to
/// the three fast stations, under `scheme`.
pub fn run_cell(scheme: SchemeKind, ac: AccessCategory, owd: Nanos, cfg: &RunCfg) -> VoipCell {
    let config = format!("{}_{}ms", ac.label(), owd.as_millis());
    // (mos, throughput, delay, loss) per repetition.
    let reps: Vec<(f64, f64, f64, f64)> = run_seeds("voip", scheme.slug(), &config, cfg, |seed| {
        let net_cfg = scenario::with_wire_delay(scenario::testbed4(scheme, seed), owd);
        let mut net: WifiNetwork<wifiq_traffic::AppMsg> = WifiNetwork::new(net_cfg);
        let mut app = TrafficApp::new();
        let voip = app.add_voip(SLOW, ac, Nanos::ZERO);
        // "the slow station receives both VoIP traffic and bulk traffic,
        // while the fast stations receive bulk traffic".
        let mut tcps = Vec::new();
        for sta in 0..4 {
            tcps.push(app.add_tcp_down(sta, Nanos::ZERO));
        }
        app.install(&mut net);
        net.run(cfg.warmup, &mut app);
        let delivered = delivered_bytes(&app, &tcps);
        net.run(cfg.duration, &mut app);

        let flow = app.voip(voip);
        let delays = flow.delays_after(cfg.warmup);
        // Frames sent within the window (20 ms spacing).
        let sent = (cfg.window().as_millis() / 20) as usize;
        let metrics = VoipMetrics::from_delays(&delays, sent.max(delays.len()));

        let secs = cfg.window().as_secs_f64();
        let thr: f64 = delivered_since(&app, &tcps, &delivered)
            .into_iter()
            .map(|b| b as f64 * 8.0 / secs)
            .sum();
        (metrics.mos(), thr, metrics.mean_delay_ms, metrics.loss)
    });

    VoipCell {
        scheme: scheme.label().to_string(),
        qos: ac.label().to_string(),
        owd_ms: owd.as_millis(),
        mos: mean(&reps.iter().map(|r| r.0).collect::<Vec<_>>()),
        throughput_bps: mean(&reps.iter().map(|r| r.1).collect::<Vec<_>>()),
        delay_ms: mean(&reps.iter().map(|r| r.2).collect::<Vec<_>>()),
        loss: mean(&reps.iter().map(|r| r.3).collect::<Vec<_>>()),
    }
}

/// Runs the full Table 2 matrix: 4 schemes × {VO, BE} × {5 ms, 50 ms}.
pub fn run_all(cfg: &RunCfg) -> Vec<VoipCell> {
    let mut cells = Vec::new();
    for scheme in SchemeKind::ALL {
        for ac in [AccessCategory::Vo, AccessCategory::Be] {
            for owd in [Nanos::from_millis(5), Nanos::from_millis(50)] {
                cells.push(run_cell(scheme, ac, owd, cfg));
            }
        }
    }
    cells
}
