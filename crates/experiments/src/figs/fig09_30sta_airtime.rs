//! Figure 9 and the Section 4.1.5 observations: airtime shares and
//! throughput in the 30-station testbed.

use std::fmt::Write as _;

use crate::report::{pct, write_json, Table};
use crate::{thirty, RunCfg};

pub fn run(cfg: &RunCfg, _args: &[String]) -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 9: airtime share between stations, 30-station TCP test \
         ({} reps x {}s)\n",
        cfg.reps,
        cfg.duration.as_millis() / 1000
    );
    let results = thirty::run_all(cfg);
    let mut t = Table::new(vec![
        "Scheme",
        "Slow (1Mbps) share",
        "Mean fast share",
        "Jain",
        "Total (Mbps)",
    ]);
    for r in &results {
        t.row(vec![
            r.scheme.clone(),
            pct(r.slow_share),
            pct(r.fast_share_mean),
            format!("{:.3}", r.jain),
            format!("{:.1}", r.total_goodput_bps / 1e6),
        ]);
    }
    out.push_str(&t.render());
    let fqc = &results[0];
    let air = &results[2];
    let _ = writeln!(
        out,
        "\nObservations (section 4.1.5):\n\
         1. slow-station share under FQ-CoDel: {} (paper: ~2/3)\n\
         2. throughput gain FQ-CoDel -> Airtime: {:.1}x (paper: 5.4x)\n\
         3. mean latency ratio FQ-CoDel/Airtime: {:.1}x (paper: ~2x better overall)\n\
         4. sparse-station median under Airtime: {:.1} ms vs fast bulk {:.1} ms",
        pct(fqc.slow_share),
        air.total_goodput_bps / fqc.total_goodput_bps.max(1.0),
        ((fqc.fast_latency.mean + fqc.slow_latency.mean) / 2.0)
            / ((air.fast_latency.mean + air.slow_latency.mean) / 2.0).max(0.001),
        air.sparse_latency.median,
        air.fast_latency.median,
    );
    write_json(cfg, "fig09_30sta", &results);
    Ok(out)
}
