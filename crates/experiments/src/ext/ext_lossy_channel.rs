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
use crate::runner::{bps, mean, run_seeds, to_ms};
use crate::scenario::{self, fault, ping, tcp_down, FAST1, SLOW, TESTBED3};
use crate::scenario_file::{FaultKind, ScenarioFile};
use crate::RunCfg;
use wifiq_mac::meter::airtime_shares;
use wifiq_mac::SchemeKind;
use wifiq_stats::Summary;
use wifiq_traffic::FlowHandle;

#[derive(serde::Serialize)]
struct Row {
    scheme: String,
    error_pct: u32,
    slow_share: f64,
    fast_median_ms: f64,
    total_mbps: f64,
}

/// A ping to a fast station (component 0) and a TCP download to every
/// station, with uniform loss `err` at the slow station for the whole
/// run (none at 0).
pub(crate) fn cell(scheme: SchemeKind, err: f64, seed: u64, cfg: &RunCfg) -> ScenarioFile {
    let mut traffic = vec![ping(FAST1)];
    traffic.extend((0..3).map(tcp_down));
    let mut doc = scenario::cell(scheme, &TESTBED3, traffic, seed, cfg);
    if err > 0.0 {
        let loss = FaultKind::Loss { prob: err };
        doc.faults
            .push(fault(0.0, doc.secs as f64, Some(SLOW), loss));
    }
    doc
}

fn measure(scheme: SchemeKind, err: f64, cfg: &RunCfg) -> Result<Row, String> {
    let error_pct = (err * 100.0).round() as u32;
    let config = format!("err{error_pct}");
    // (slow share, fast RTTs in ms, total Mbps) per repetition.
    let reps: Vec<(f64, Vec<f64>, f64)> =
        run_seeds("ext_lossy_channel", scheme.slug(), &config, cfg, |rep| {
            let mut built = cell(scheme, err, rep.seed, cfg).build()?;
            built.observe(&rep.hub());
            let window = built.measure(cfg.warmup);
            let fast_ms: Vec<f64> = to_ms(&built.app.ping(FlowHandle(0)).rtts_after(window.from));
            let total = window.delivered[1..].iter().map(|&b| bps(b, cfg.window()));
            let total = total.sum::<f64>() / 1e6;
            Ok((airtime_shares(&window.meters)[SLOW], fast_ms, total))
        })?;
    let fast_ms: Vec<f64> = reps.iter().flat_map(|r| r.1.iter().copied()).collect();
    Ok(Row {
        scheme: scheme.label().to_string(),
        error_pct,
        slow_share: mean(&reps.iter().map(|r| r.0).collect::<Vec<_>>()),
        fast_median_ms: Summary::of(&fast_ms).median,
        total_mbps: mean(&reps.iter().map(|r| r.2).collect::<Vec<_>>()),
    })
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
            rows.push(measure(scheme, err, cfg)?);
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
