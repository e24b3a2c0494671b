//! Figure 4 (and Figure 1): ping latency under simultaneous TCP download,
//! per scheme, fast vs slow station. Pass `--bidir` for the online
//! appendix's upload+download variant.

use std::fmt::Write as _;

use crate::report::{ascii_cdf, write_json, Table};
use crate::{latency, RunCfg};

pub fn run(cfg: &RunCfg, args: &[String]) -> Result<String, String> {
    let mut out = String::new();
    let bidir = args.iter().any(|a| a == "--bidir");
    let label = if bidir { "bidirectional" } else { "download" };
    let _ = writeln!(
        out,
        "Figure 4: ICMP latency with simultaneous TCP {label} traffic \
         ({} reps x {}s, {}s warmup)\n",
        cfg.reps,
        cfg.duration.as_millis() / 1000,
        cfg.warmup.as_millis() / 1000
    );
    let results = latency::run_all(cfg, bidir);
    let mut t = Table::new(vec![
        "Scheme",
        "Station",
        "median(ms)",
        "p95(ms)",
        "p99(ms)",
        "mean(ms)",
    ]);
    for r in &results {
        for (label, d) in [("fast", &r.fast), ("slow", &r.slow)] {
            t.row(vec![
                r.scheme.clone(),
                label.to_string(),
                format!("{:.1}", d.summary.median),
                format!("{:.1}", d.summary.p95),
                format!("{:.1}", d.summary.p99),
                format!("{:.1}", d.summary.mean),
            ]);
        }
    }
    out.push_str(&t.render());

    // The Figure 4 plot itself: latency CDFs on a log axis. As in the
    // paper, the airtime scheme is omitted from the plot — its curves
    // coincide with FQ-MAC's and only clutter the figure.
    let _ = writeln!(out, "\nLatency CDF (ms, log scale):\n");
    let series: Vec<(String, &[(f64, f64)])> = results
        .iter()
        .filter(|r| r.scheme != "Airtime fair FQ")
        .flat_map(|r| {
            [
                (format!("fast - {}", r.scheme), r.fast.cdf.points.as_slice()),
                (format!("slow - {}", r.scheme), r.slow.cdf.points.as_slice()),
            ]
        })
        .collect();
    out.push_str(&ascii_cdf(&series, 72, 18));
    let stem = if bidir {
        "fig04_latency_bidir"
    } else {
        "fig04_latency"
    };
    crate::report::write_csv_cdf(cfg, &format!("{stem}_cdf"), &series);

    let fifo = results
        .iter()
        .find(|r| r.scheme == "FIFO")
        .expect("FIFO run");
    let fq = results
        .iter()
        .find(|r| r.scheme == "FQ-MAC")
        .expect("FQ-MAC run");
    let _ = writeln!(
        out,
        "\nLatency reduction FIFO -> FQ-MAC: fast {:.1}x, slow {:.1}x (paper: about an order of magnitude)",
        fifo.fast.summary.median / fq.fast.summary.median.max(0.001),
        fifo.slow.summary.median / fq.slow.summary.median.max(0.001),
    );
    write_json(cfg, stem, &results);
    Ok(out)
}
