//! Table 1: the analytical model (eqs. 1-5) evaluated on measured
//! aggregation levels vs measured UDP goodput.

use std::fmt::Write as _;

use crate::report::{pct, write_json, Table};
use crate::{table1, RunCfg};

pub fn run(cfg: &RunCfg, _args: &[String]) -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 1: calculated airtime, calculated rate and measured rate \
         ({} reps x {}s)\n",
        cfg.reps,
        cfg.duration.as_millis() / 1000
    );
    let t1 = table1::run(cfg);
    for half in [&t1.baseline, &t1.fair] {
        let _ = writeln!(out, "{}", half.label);
        let mut t = Table::new(vec![
            "Aggr size",
            "T(i)",
            "PHY(Mbps)",
            "Base(Mbps)",
            "R(i)(Mbps)",
            "Exp(Mbps)",
        ]);
        for row in &half.rows {
            t.row(vec![
                format!("{:.2}", row.aggr),
                pct(row.airtime_share),
                format!("{:.1}", row.phy_bps as f64 / 1e6),
                format!("{:.1}", row.base_bps / 1e6),
                format!("{:.1}", row.model_bps / 1e6),
                format!("{:.1}", row.measured_bps / 1e6),
            ]);
        }
        t.row(vec![
            "Total".to_string(),
            String::new(),
            String::new(),
            String::new(),
            format!("{:.1}", half.model_total / 1e6),
            format!("{:.1}", half.measured_total / 1e6),
        ]);
        out.push_str(&t.render());
        out.push('\n');
    }
    let _ = writeln!(
        out,
        "Throughput gain (airtime-fair vs FIFO), measured: {:.1}x (paper: 18.7 -> 76.4 ~ 4.1x)",
        t1.fair.measured_total / t1.baseline.measured_total.max(1.0)
    );
    write_json(cfg, "table1", &t1);
    Ok(out)
}
