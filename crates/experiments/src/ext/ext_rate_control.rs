//! Extension experiment: airtime fairness under live (Minstrel-style)
//! rate control rather than the paper's pinned rates.
//!
//! Three stations start at MCS3 (a conservative initial rate, as real
//! Minstrel uses); their channels actually support MCS 13, 13 and 0. The
//! rate controller must find the cliffs while the airtime scheduler keeps
//! the shares fair, and the §3.1.1 CoDel adaptation must flip to
//! slow-station parameters once the third station's estimate falls below
//! 12 Mbps. A light UDP stream per station keeps the controller probing
//! even while TCP is in timeout recovery (early on, the third station's
//! start rate fails badly and its TCP backs off; the background stream is
//! what real networks' ambient traffic provides).

use std::fmt::Write as _;

use crate::report::{pct, write_json, Table};
use crate::runner::{mbps, mean, run_seeds};
use crate::scenario::{self, tcp_down, udp};
use crate::scenario_file::ScenarioFile;
use crate::RunCfg;
use wifiq_mac::meter::airtime_shares;
use wifiq_mac::SchemeKind;

#[derive(serde::Serialize)]
struct Row {
    scheme: String,
    shares: Vec<f64>,
    estimates_mbps: Vec<f64>,
    goodput_mbps: Vec<f64>,
}

/// Three stations starting at MCS3 over channels with cliffs at MCS 13,
/// 13 and 0, under rate control: a TCP download to each (components 0–2),
/// then a light UDP stream to each.
pub(crate) fn cell(scheme: SchemeKind, seed: u64, cfg: &RunCfg) -> ScenarioFile {
    let mut traffic: Vec<_> = (0..3).map(tcp_down).collect();
    traffic.extend((0..3).map(|station| udp(station, 1)));
    let mut doc = scenario::cell(scheme, &["mcs3"; 3], traffic, seed, cfg);
    for (station, best_mcs) in doc.stations.iter_mut().zip([13, 13, 0]) {
        station.mcs_cliff = Some(best_mcs);
    }
    doc.rate_control = true;
    doc
}

fn measure(scheme: SchemeKind, cfg: &RunCfg) -> Result<Row, String> {
    // (shares, rate estimates Mbps, goodput Mbps) per repetition.
    type RateRep = (Vec<f64>, Vec<f64>, Vec<f64>);
    let reps: Vec<RateRep> = run_seeds("ext_rate_control", scheme.slug(), "", cfg, |rep| {
        let mut built = cell(scheme, rep.seed, cfg).build()?;
        built.observe(&rep.hub());
        let window = built.measure(cfg.warmup);
        let est: Vec<f64> = (0..3)
            .map(|sta| built.net.rate_estimate(sta) as f64 / 1e6)
            .collect();
        let thr: Vec<f64> = window.delivered[..3]
            .iter()
            .map(|&b| mbps(b, cfg.window()))
            .collect();
        Ok((airtime_shares(&window.meters), est, thr))
    })?;
    let col = |pick: fn(&RateRep) -> &Vec<f64>, sta: usize| {
        mean(&reps.iter().map(|r| pick(r)[sta]).collect::<Vec<_>>())
    };
    Ok(Row {
        scheme: scheme.label().to_string(),
        shares: (0..3).map(|sta| col(|r| &r.0, sta)).collect(),
        estimates_mbps: (0..3).map(|sta| col(|r| &r.1, sta)).collect(),
        goodput_mbps: (0..3).map(|sta| col(|r| &r.2, sta)).collect(),
    })
}

pub fn run(cfg: &RunCfg, _args: &[String]) -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Extension: airtime fairness under live rate control \
         ({} reps x {}s; channels support MCS 13/13/0, start at MCS3)\n",
        cfg.reps,
        cfg.duration.as_millis() / 1000
    );
    let rows: Vec<Row> = [SchemeKind::FqCodelQdisc, SchemeKind::AirtimeFair]
        .into_iter()
        .map(|s| measure(s, cfg))
        .collect::<Result<_, _>>()?;
    let mut t = Table::new(vec![
        "Scheme",
        "Shares (1/2/slow)",
        "Rate estimates (Mbps)",
        "Goodput (Mbps)",
    ]);
    for r in &rows {
        t.row(vec![
            r.scheme.clone(),
            format!(
                "{} / {} / {}",
                pct(r.shares[0]),
                pct(r.shares[1]),
                pct(r.shares[2])
            ),
            format!(
                "{:.0} / {:.0} / {:.0}",
                r.estimates_mbps[0], r.estimates_mbps[1], r.estimates_mbps[2]
            ),
            format!(
                "{:.1} / {:.1} / {:.1}",
                r.goodput_mbps[0], r.goodput_mbps[1], r.goodput_mbps[2]
            ),
        ]);
    }
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "\nThe anomaly and its fix both survive a live rate controller: the\n\
         third station's estimate drops below 12 Mbps (engaging the slow-\n\
         station CoDel parameters) and the airtime scheduler still splits\n\
         the medium three ways."
    );
    write_json(cfg, "ext_rate_control", &rows);
    Ok(out)
}
