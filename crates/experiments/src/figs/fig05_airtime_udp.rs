//! Figure 5: airtime share per station for one-way UDP, per scheme.

use std::fmt::Write as _;

use crate::report::{pct, write_json, Table};
use crate::{udp_sat, RunCfg};

pub fn run(cfg: &RunCfg, _args: &[String]) -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 5: airtime usage for one-way UDP traffic ({} reps x {}s)\n",
        cfg.reps,
        cfg.duration.as_millis() / 1000
    );
    let results = udp_sat::run_all(cfg)?;
    let mut t = Table::new(vec![
        "Scheme",
        "Fast 1",
        "Fast 2",
        "Slow",
        "Total(Mbps)",
        "Aggr fast/slow",
    ]);
    for r in &results {
        t.row(vec![
            r.scheme.clone(),
            pct(r.stations[0].airtime_share),
            pct(r.stations[1].airtime_share),
            pct(r.stations[2].airtime_share),
            format!("{:.1}", r.total_goodput() / 1e6),
            format!(
                "{:.1}/{:.1}",
                (r.stations[0].aggregation + r.stations[1].aggregation) / 2.0,
                r.stations[2].aggregation
            ),
        ]);
    }
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "\nPaper: FIFO slow share ~80%; airtime-fair shares 33%/33%/33%."
    );
    write_json(cfg, "fig05_airtime_udp", &results);
    Ok(out)
}
