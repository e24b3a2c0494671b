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
use crate::runner::{delivered_bytes, delivered_since, mbps, to_ms};
use crate::RunCfg;
use wifiq_mac::{NetworkConfig, SchemeKind, WifiNetwork};
use wifiq_phy::{LegacyRate, PhyRate};
use wifiq_sim::Nanos;
use wifiq_stats::Summary;
use wifiq_traffic::TrafficApp;

#[derive(serde::Serialize)]
struct Row {
    aql_ms: Option<u64>,
    fast_median_ms: f64,
    fast_p95_ms: f64,
    slow_goodput_mbps: f64,
    total_mbps: f64,
}

fn measure(aql: Option<Nanos>, cfg: &RunCfg) -> Row {
    let config = aql.map_or("off".to_string(), |a| format!("{}ms", a.as_millis()));
    // (fast RTTs in ms, slow Mbps, total Mbps) per repetition.
    let reps: Vec<(Vec<f64>, f64, f64)> =
        crate::runner::run_seeds("ext_aql", &config, "", cfg, |seed| {
            // Two fast stations and a 1 Mbps legacy device — the worst
            // hardware-queue hog the testbed family produces.
            let net_cfg = NetworkConfig::builder()
                .stations_at(2, PhyRate::fast_station())
                .station(PhyRate::Legacy(LegacyRate::Dsss1))
                .scheme(SchemeKind::AirtimeFair)
                .aql(aql)
                .seed(seed)
                .build();
            let mut net: WifiNetwork<wifiq_traffic::AppMsg> = WifiNetwork::new(net_cfg);
            let mut app = TrafficApp::new();
            let ping = app.add_ping(0, Nanos::ZERO);
            let tcps: Vec<_> = (0..3).map(|s| app.add_tcp_down(s, Nanos::ZERO)).collect();
            app.install(&mut net);
            net.run(cfg.warmup, &mut app);
            let delivered = delivered_bytes(&app, &tcps);
            net.run(cfg.duration, &mut app);
            let fast_ms: Vec<f64> = to_ms(&app.ping(ping).rtts_after(cfg.warmup));
            let per: Vec<f64> = delivered_since(&app, &tcps, &delivered)
                .into_iter()
                .map(|b| mbps(b, cfg.window()))
                .collect();
            (fast_ms, per[2], per.iter().sum())
        });
    let fast_ms: Vec<f64> = reps.iter().flat_map(|r| r.0.iter().copied()).collect();
    let s = Summary::of(&fast_ms);
    Row {
        aql_ms: aql.map(|a| a.as_millis()),
        fast_median_ms: s.median,
        fast_p95_ms: s.p95,
        slow_goodput_mbps: crate::runner::mean(&reps.iter().map(|r| r.1).collect::<Vec<_>>()),
        total_mbps: crate::runner::mean(&reps.iter().map(|r| r.2).collect::<Vec<_>>()),
    }
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
    let rows: Vec<Row> = [
        None,
        Some(Nanos::from_millis(12)),
        Some(Nanos::from_millis(5)),
    ]
    .into_iter()
    .map(|aql| measure(aql, cfg))
    .collect();
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
