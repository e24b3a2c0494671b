//! Behavioural ablations of the design choices DESIGN.md calls out.

use std::fmt::Write as _;

use crate::report::{pct, write_json, Table};
use crate::{ablations, RunCfg};
use wifiq_core::fq::DropPolicy;

pub fn run(cfg: &RunCfg, _args: &[String]) -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Design-choice ablations ({} reps x {}s)\n",
        cfg.reps,
        cfg.duration.as_millis() / 1000
    );

    // 1. RX airtime charging (bidirectional TCP fairness).
    let rx = [true, false]
        .into_iter()
        .map(|e| ablations::rx_charging(e, cfg))
        .collect::<Result<Vec<_>, _>>()?;
    let _ = writeln!(out, "1. RX airtime charging (bidirectional TCP):");
    let mut t = Table::new(vec!["charge_rx", "Jain", "slow share"]);
    for r in &rx {
        t.row(vec![
            r.charge_rx.to_string(),
            format!("{:.3}", r.jain),
            pct(r.slow_share),
        ]);
    }
    out.push_str(&t.render());
    write_json(cfg, "ablation_rx_charging", &rx);

    // 2. Per-station CoDel parameters (slow-station goodput).
    let codel = [true, false]
        .into_iter()
        .map(|e| ablations::adaptive_codel(e, cfg))
        .collect::<Result<Vec<_>, _>>()?;
    let _ = writeln!(
        out,
        "\n2. Per-station CoDel parameters (bulk TCP to the slow station):"
    );
    let mut t = Table::new(vec![
        "adaptive",
        "slow goodput (Mbps)",
        "CoDel drops",
        "TCP rtx",
    ]);
    for r in &codel {
        t.row(vec![
            r.adaptive.to_string(),
            format!("{:.2}", r.slow_goodput_bps / 1e6),
            format!("{:.0}", r.codel_drops),
            format!("{:.0}", r.retransmissions),
        ]);
    }
    out.push_str(&t.render());
    write_json(cfg, "ablation_adaptive_codel", &codel);

    // 3. Overlimit drop policy (fast-station survival under a hog).
    let drop = [DropPolicy::DropLongest, DropPolicy::TailDrop]
        .into_iter()
        .map(|p| ablations::drop_policy(p, cfg))
        .collect::<Result<Vec<_>, _>>()?;
    let _ = writeln!(
        out,
        "\n3. Overlimit policy (slow-station UDP flood, tight limit):"
    );
    let mut t = Table::new(vec!["policy", "fast goodput (Mbps)", "fast aggregation"]);
    for r in &drop {
        t.row(vec![
            r.policy.clone(),
            format!("{:.1}", r.fast_goodput_bps / 1e6),
            format!("{:.1}", r.fast_aggregation),
        ]);
    }
    out.push_str(&t.render());
    write_json(cfg, "ablation_drop_policy", &drop);

    // 4. Airtime quantum sweep.
    let quanta = [100u64, 300, 1_000, 5_000, 20_000]
        .into_iter()
        .map(|q| ablations::quantum(q, cfg))
        .collect::<Result<Vec<_>, _>>()?;
    let _ = writeln!(
        out,
        "\n4. Airtime quantum (sparse-station latency / bulk fairness):"
    );
    let mut t = Table::new(vec!["quantum (us)", "sparse median (ms)", "Jain (bulk)"]);
    for r in &quanta {
        t.row(vec![
            r.quantum_us.to_string(),
            format!("{:.2}", r.sparse_median_ms),
            format!("{:.3}", r.jain),
        ]);
    }
    out.push_str(&t.render());
    write_json(cfg, "ablation_quantum", &quanta);
    Ok(out)
}
