//! Extension experiment: Airtime Queue Limits (AQL) — the mainline
//! (kernel 5.5) continuation of this paper's work.
//!
//! Even with the MAC FQ structure and the airtime scheduler, a slow
//! station's aggregates sitting in the two-deep hardware queue add
//! head-of-line latency for everyone else. AQL caps the airtime any one
//! station may hold in the hardware; frames past the cap wait in the MAC
//! FQ where CoDel and the scheduler govern them.

use std::fmt::Write as _;

use crate::report::{write_json, Table};
use crate::runner::{mbps, mean, run_seeds, to_ms};
use crate::scenario::{self, ping, tcp_down};
use crate::scenario_file::ScenarioFile;
use crate::RunCfg;
use wifiq_mac::SchemeKind;
use wifiq_stats::Summary;
use wifiq_traffic::FlowHandle;

#[derive(serde::Serialize)]
struct Row {
    aql_ms: Option<u64>,
    fast_median_ms: f64,
    fast_p95_ms: f64,
    slow_goodput_mbps: f64,
    total_mbps: f64,
}

/// Two fast stations and a 1 Mbps legacy device — the worst
/// hardware-queue hog the testbed family produces — under the airtime
/// scheme with an `aql_ms` limit: a ping to a fast station (component 0),
/// then a TCP download to every station.
pub(crate) fn cell(aql_ms: Option<u64>, seed: u64, cfg: &RunCfg) -> ScenarioFile {
    let mut traffic = vec![ping(0)];
    traffic.extend((0..3).map(tcp_down));
    let rates = ["mcs15", "mcs15", "1mbps"];
    ScenarioFile {
        aql_ms,
        ..scenario::cell(SchemeKind::AirtimeFair, &rates, traffic, seed, cfg)
    }
}

fn measure(aql_ms: Option<u64>, cfg: &RunCfg) -> Result<Row, String> {
    let config = aql_ms.map_or("off".to_string(), |ms| format!("{ms}ms"));
    // (fast RTTs in ms, slow Mbps, total Mbps) per repetition.
    let reps: Vec<(Vec<f64>, f64, f64)> = run_seeds("ext_aql", &config, "", cfg, |rep| {
        let mut built = cell(aql_ms, rep.seed, cfg).build()?;
        built.observe(&rep.hub());
        let window = built.measure(cfg.warmup);
        let fast_ms: Vec<f64> = to_ms(&built.app.ping(FlowHandle(0)).rtts_after(window.from));
        let per: Vec<f64> = window.delivered[1..]
            .iter()
            .map(|&b| mbps(b, cfg.window()))
            .collect();
        Ok((fast_ms, per[2], per.iter().sum()))
    })?;
    let fast_ms: Vec<f64> = reps.iter().flat_map(|r| r.0.iter().copied()).collect();
    let s = Summary::of(&fast_ms);
    Ok(Row {
        aql_ms,
        fast_median_ms: s.median,
        fast_p95_ms: s.p95,
        slow_goodput_mbps: mean(&reps.iter().map(|r| r.1).collect::<Vec<_>>()),
        total_mbps: mean(&reps.iter().map(|r| r.2).collect::<Vec<_>>()),
    })
}

pub fn run(cfg: &RunCfg, _args: &[String]) -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Extension: airtime queue limits (AQL), 2 fast + one 1 Mbps hog \
         under the airtime scheme ({} reps x {}s)\n",
        cfg.reps,
        cfg.duration.as_millis() / 1000
    );
    let rows: Vec<Row> = [None, Some(12), Some(5)]
        .into_iter()
        .map(|aql_ms| measure(aql_ms, cfg))
        .collect::<Result<_, _>>()?;
    let mut t = Table::new(vec![
        "AQL",
        "Fast ping median (ms)",
        "p95 (ms)",
        "Slow goodput (Mbps)",
        "Total (Mbps)",
    ]);
    for r in &rows {
        t.row(vec![
            r.aql_ms.map_or("off".to_string(), |ms| format!("{ms} ms")),
            format!("{:.1}", r.fast_median_ms),
            format!("{:.1}", r.fast_p95_ms),
            format!("{:.2}", r.slow_goodput_mbps),
            format!("{:.1}", r.total_mbps),
        ]);
    }
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "\nAQL trims the residual head-of-line latency the hardware queue\n\
         adds behind a slow station's long frames, at no throughput cost —\n\
         the refinement that followed this machinery into kernel 5.5."
    );
    write_json(cfg, "ext_aql", &rows);
    Ok(out)
}
