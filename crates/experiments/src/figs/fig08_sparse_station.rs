//! Figure 8: the sparse-station optimisation's effect on a ping-only
//! station's latency, with UDP and TCP bulk backgrounds.

use std::fmt::Write as _;

use crate::report::{write_json, Table};
use crate::{sparse, RunCfg};

pub fn run(cfg: &RunCfg, _args: &[String]) -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 8: effect of the sparse station optimisation ({} reps x {}s)\n",
        cfg.reps,
        cfg.duration.as_millis() / 1000
    );
    let cells = sparse::run_all(cfg)?;
    let mut t = Table::new(vec![
        "Bulk",
        "Optimisation",
        "median(ms)",
        "p95(ms)",
        "mean(ms)",
    ]);
    for c in &cells {
        t.row(vec![
            c.bulk.clone(),
            if c.enabled { "Enabled" } else { "Disabled" }.to_string(),
            format!("{:.2}", c.summary.median),
            format!("{:.2}", c.summary.p95),
            format!("{:.2}", c.summary.mean),
        ]);
    }
    out.push_str(&t.render());
    let med = |bulk: &str, enabled: bool| {
        cells
            .iter()
            .find(|c| c.bulk == bulk && c.enabled == enabled)
            .map(|c| c.summary.median)
            .unwrap_or(f64::NAN)
    };
    let _ = writeln!(
        out,
        "\nMedian reduction: UDP {:.0}%, TCP {:.0}% (paper: 10-15%)",
        (1.0 - med("UDP", true) / med("UDP", false)) * 100.0,
        (1.0 - med("TCP", true) / med("TCP", false)) * 100.0,
    );
    write_json(cfg, "fig08_sparse", &cells);
    Ok(out)
}
