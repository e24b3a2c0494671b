//! Figure 6: Jain's fairness index over station airtimes for UDP,
//! TCP download, and bidirectional TCP, per scheme.

use std::fmt::Write as _;

use crate::report::{write_json, Table};
use crate::tcp_fair::{self, TcpPattern};
use crate::{udp_sat, RunCfg};
use wifiq_stats::jain_index;

pub fn run(cfg: &RunCfg, _args: &[String]) -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 6: Jain's fairness index over station airtime ({} reps x {}s)\n",
        cfg.reps,
        cfg.duration.as_millis() / 1000
    );
    let udp = udp_sat::run_all(cfg);
    let dl = tcp_fair::run_all(TcpPattern::Download, cfg);
    let bi = tcp_fair::run_all(TcpPattern::Bidirectional, cfg);

    let mut t = Table::new(vec!["Scheme", "UDP", "TCP dl", "TCP bidir"]);
    #[derive(serde::Serialize)]
    struct Row {
        scheme: String,
        udp: f64,
        tcp_dl: f64,
        tcp_bidir: f64,
    }
    let mut rows = Vec::new();
    for i in 0..4 {
        let udp_jain = {
            let med: Vec<f64> = udp[i].rep_shares.iter().map(|s| jain_index(s)).collect();
            crate::runner::median(&med)
        };
        rows.push(Row {
            scheme: udp[i].scheme.clone(),
            udp: udp_jain,
            tcp_dl: dl[i].jain,
            tcp_bidir: bi[i].jain,
        });
        t.row(vec![
            udp[i].scheme.clone(),
            format!("{:.3}", udp_jain),
            format!("{:.3}", dl[i].jain),
            format!("{:.3}", bi[i].jain),
        ]);
    }
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "\nPaper: FIFO ~0.45-0.55; airtime-fair ~1.0 (slight dip for bidir)."
    );
    write_json(cfg, "fig06_jain", &rows);
    Ok(out)
}
