//! Figure 7: per-station and average TCP download throughput per scheme.
//! Pass `--bidir` for the online appendix's bidirectional variant.

use std::fmt::Write as _;

use crate::report::{mbps, write_json, Table};
use crate::tcp_fair::{self, TcpPattern};
use crate::RunCfg;

pub fn run(cfg: &RunCfg, args: &[String]) -> Result<String, String> {
    let mut out = String::new();
    let bidir = args.iter().any(|a| a == "--bidir");
    let pattern = if bidir {
        TcpPattern::Bidirectional
    } else {
        TcpPattern::Download
    };
    let _ = writeln!(
        out,
        "Figure 7: throughput for {} traffic ({} reps x {}s)\n",
        pattern.label(),
        cfg.reps,
        cfg.duration.as_millis() / 1000
    );
    let results = tcp_fair::run_all(pattern, cfg)?;
    let mut t = Table::new(vec![
        "Scheme",
        "Station 1",
        "Station 2",
        "Station 3 (slow)",
        "Average",
        "Total",
    ]);
    for r in &results {
        t.row(vec![
            r.scheme.clone(),
            mbps(r.down_bps[0] + r.up_bps[0]),
            mbps(r.down_bps[1] + r.up_bps[1]),
            mbps(r.down_bps[2] + r.up_bps[2]),
            mbps(r.average_down()),
            mbps(r.total()),
        ]);
    }
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "\nPaper (download): fast stations rise with fairness, slow declines; \
         net total increase (Mbps)."
    );
    write_json(
        cfg,
        if bidir {
            "fig07_tcp_bidir"
        } else {
            "fig07_tcp_download"
        },
        &results,
    );
    Ok(out)
}
