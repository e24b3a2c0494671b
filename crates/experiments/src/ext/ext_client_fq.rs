//! Extension experiment: the paper's remark that "WiFi client devices can
//! also benefit from the proposed queueing structure" (§3).
//!
//! A station runs a bulk TCP upload while pinging; with the stock FIFO
//! uplink, the ping replies queue behind the upload's standing queue at
//! the *client*. Enabling the FQ-CoDel structure on the station gives the
//! sparse ping flow its own queue and new-flow priority.

use std::fmt::Write as _;

use crate::report::{write_json, Table};
use crate::runner::{mbps, to_ms};
use crate::{scenario, RunCfg};
use wifiq_mac::{SchemeKind, WifiNetwork};
use wifiq_sim::Nanos;
use wifiq_stats::Summary;
use wifiq_traffic::TrafficApp;

#[derive(serde::Serialize)]
struct Row {
    station_fq: bool,
    median_ms: f64,
    p95_ms: f64,
    upload_mbps: f64,
}

fn measure(station_fq: bool, cfg: &RunCfg) -> Row {
    let config = if station_fq { "fq" } else { "fifo" };
    // (ping RTTs in ms, upload Mbps) per repetition.
    let reps: Vec<(Vec<f64>, f64)> =
        crate::runner::run_seeds("ext_client_fq", config, "", cfg, |seed| {
            let mut net_cfg = scenario::testbed3(SchemeKind::AirtimeFair, seed);
            net_cfg.station_fq = station_fq;
            let mut net: WifiNetwork<wifiq_traffic::AppMsg> = WifiNetwork::new(net_cfg);
            let mut app = TrafficApp::new();
            // The ping crosses the same station's uplink as the bulk upload —
            // the reply is what queues at the client.
            let ping = app.add_ping(0, Nanos::ZERO);
            let up = app.add_tcp_up(0, Nanos::ZERO);
            app.install(&mut net);
            net.run(cfg.warmup, &mut app);
            let delivered = app.delivered_bytes(up);
            net.run(cfg.duration, &mut app);
            let rtts: Vec<f64> = to_ms(&app.ping(ping).rtts_after(cfg.warmup));
            let b = app.delivered_bytes(up) - delivered;
            (rtts, mbps(b, cfg.window()))
        });
    let rtts: Vec<f64> = reps.iter().flat_map(|r| r.0.iter().copied()).collect();
    let s = Summary::of(&rtts);
    Row {
        station_fq,
        median_ms: s.median,
        p95_ms: s.p95,
        upload_mbps: crate::runner::mean(&reps.iter().map(|r| r.1).collect::<Vec<_>>()),
    }
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
    let rows = [measure(false, cfg), measure(true, cfg)];
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
