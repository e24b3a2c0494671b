//! Extension experiment: robustness under channel errors.
//!
//! The paper's model and clean-channel testbed assume essentially no
//! transmission errors; real deployments see plenty. This experiment
//! injects per-exchange error probabilities at the slow station and
//! checks that the airtime scheduler's fairness and latency advantages
//! survive — retries burn the lossy station's own airtime budget (§3.2:
//! deficits are charged "including any retries"), not everyone else's.
//!
//! Loss is injected through the `wifiq-chaos` fault schedule (a
//! whole-run uniform-loss window at the slow station) rather than the
//! old per-station `ErrorModel::Fixed` knob. Chaos draws its loss
//! decisions from a private RNG stream, so absolute numbers drift
//! slightly from results archived before the port; the qualitative
//! gates (flat fast-station latency under the airtime scheduler) are
//! unchanged.

use std::fmt::Write as _;

use crate::report::{pct, write_json, Table};
use crate::runner::{
    delivered_bytes, delivered_since, mean, meter_window, run_seeds, shares_of, to_ms,
};
use crate::{scenario, RunCfg};
use wifiq_mac::{FaultEntry, FaultTarget, Impairment, SchemeKind, StationMeter, WifiNetwork};
use wifiq_sim::Nanos;
use wifiq_stats::Summary;
use wifiq_traffic::TrafficApp;

#[derive(serde::Serialize)]
struct Row {
    scheme: String,
    error_pct: u32,
    slow_share: f64,
    fast_median_ms: f64,
    total_mbps: f64,
}

fn measure(scheme: SchemeKind, err: f64, cfg: &RunCfg) -> Row {
    let error_pct = (err * 100.0).round() as u32;
    let config = format!("err{error_pct}");
    // (slow share, fast RTTs in ms, total Mbps) per repetition.
    let reps: Vec<(f64, Vec<f64>, f64)> =
        run_seeds("ext_lossy_channel", scheme.slug(), &config, cfg, |seed| {
            let mut net_cfg = scenario::testbed3(scheme, seed);
            if err > 0.0 {
                net_cfg.faults.push(FaultEntry::new(
                    Nanos::ZERO,
                    cfg.duration,
                    FaultTarget::Station(scenario::SLOW),
                    Impairment::uniform_loss(err),
                ));
            }
            let mut net: WifiNetwork<wifiq_traffic::AppMsg> = WifiNetwork::new(net_cfg);
            let mut app = TrafficApp::new();
            let ping = app.add_ping(scenario::FAST1, Nanos::ZERO);
            let tcps: Vec<_> = (0..3).map(|s| app.add_tcp_down(s, Nanos::ZERO)).collect();
            app.install(&mut net);
            net.run(cfg.warmup, &mut app);
            let before: Vec<StationMeter> = net.meter().all().to_vec();
            let delivered = delivered_bytes(&app, &tcps);
            net.run(cfg.duration, &mut app);
            let window: Vec<StationMeter> = meter_window(net.meter().all(), &before);
            let fast_ms: Vec<f64> = to_ms(&app.ping(ping).rtts_after(cfg.warmup));
            let secs = cfg.window().as_secs_f64();
            let total = delivered_since(&app, &tcps, &delivered)
                .into_iter()
                .map(|b| b as f64 * 8.0 / secs)
                .sum::<f64>()
                / 1e6;
            (shares_of(&window)[scenario::SLOW], fast_ms, total)
        });
    let fast_ms: Vec<f64> = reps.iter().flat_map(|r| r.1.iter().copied()).collect();
    Row {
        scheme: scheme.label().to_string(),
        error_pct,
        slow_share: mean(&reps.iter().map(|r| r.0).collect::<Vec<_>>()),
        fast_median_ms: Summary::of(&fast_ms).median,
        total_mbps: mean(&reps.iter().map(|r| r.2).collect::<Vec<_>>()),
    }
}

pub fn run(cfg: &RunCfg, _args: &[String]) -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Extension: channel errors at the slow station, TCP download \
         ({} reps x {}s)\n",
        cfg.reps,
        cfg.duration.as_millis() / 1000
    );
    let mut rows = Vec::new();
    for scheme in [SchemeKind::Fifo, SchemeKind::AirtimeFair] {
        for err in [0.0, 0.1, 0.3] {
            rows.push(measure(scheme, err, cfg));
        }
    }
    let mut t = Table::new(vec![
        "Scheme",
        "Slow error",
        "Slow airtime share",
        "Fast ping median (ms)",
        "Total (Mbps)",
    ]);
    for r in &rows {
        t.row(vec![
            r.scheme.clone(),
            format!("{}%", r.error_pct),
            pct(r.slow_share),
            format!("{:.1}", r.fast_median_ms),
            format!("{:.1}", r.total_mbps),
        ]);
    }
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "\nThe loss is internalised: retries are charged to the lossy\n\
         station's own deficit (and its TCP backs off when retries are\n\
         exhausted), so the fast stations' latency stays flat under the\n\
         airtime scheduler while FIFO's stays an order of magnitude worse\n\
         at every error rate."
    );
    write_json(cfg, "ext_lossy_channel", &rows);
    Ok(out)
}
