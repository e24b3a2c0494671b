//! Figure 10: latency distributions in the 30-station TCP test.

use std::fmt::Write as _;

use crate::report::{ascii_cdf, write_json, Table};
use crate::{thirty, RunCfg};

pub fn run(cfg: &RunCfg, _args: &[String]) -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 10: latency for the 30-station TCP test ({} reps x {}s)\n",
        cfg.reps,
        cfg.duration.as_millis() / 1000
    );
    let results = thirty::run_all(cfg);
    let mut t = Table::new(vec![
        "Scheme",
        "Station",
        "median(ms)",
        "p95(ms)",
        "mean(ms)",
    ]);
    for r in &results {
        for (label, s) in [("fast", &r.fast_latency), ("slow", &r.slow_latency)] {
            t.row(vec![
                r.scheme.clone(),
                label.to_string(),
                format!("{:.1}", s.median),
                format!("{:.1}", s.p95),
                format!("{:.1}", s.mean),
            ]);
        }
    }
    out.push_str(&t.render());

    let _ = writeln!(out, "\nLatency CDF (ms, log scale):\n");
    let series: Vec<(String, &[(f64, f64)])> = results
        .iter()
        .flat_map(|r| {
            [
                (format!("Fast - {}", r.scheme), r.fast_cdf.points.as_slice()),
                (format!("Slow - {}", r.scheme), r.slow_cdf.points.as_slice()),
            ]
        })
        .collect();
    out.push_str(&ascii_cdf(&series, 72, 18));
    crate::report::write_csv_cdf(cfg, "fig10_30sta_cdf", &series);

    let _ = writeln!(
        out,
        "\nPaper: airtime fairness improves fast-station latency, worsens the \
         slow station's by an order of magnitude, and halves the average."
    );
    write_json(cfg, "fig10_30sta_latency", &results);
    Ok(out)
}
