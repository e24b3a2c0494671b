//! Figure 11: web page-load times through a busy network. Pass
//! `--with-slow` to add the appendix's slow-station-fetches variant.

use std::fmt::Write as _;

use crate::report::{write_json, Table};
use crate::{web, RunCfg};

pub fn run(cfg: &RunCfg, args: &[String]) -> Result<String, String> {
    let mut out = String::new();
    let with_slow = args.iter().any(|a| a == "--with-slow");
    let _ = writeln!(
        out,
        "Figure 11: HTTP page fetch times ({} reps)\n",
        cfg.reps
    );
    let cells = web::run_all(cfg, with_slow)?;
    let mut t = Table::new(vec![
        "Fetcher",
        "Page",
        "Scheme",
        "mean PLT (s)",
        "completed",
    ]);
    for c in &cells {
        t.row(vec![
            c.fetcher.clone(),
            c.page.clone(),
            c.scheme.clone(),
            format!("{:.2}", c.plt_secs),
            format!("{}/{}", c.completed, c.reps),
        ]);
    }
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "\nPaper: order-of-magnitude improvement FIFO -> FQ-CoDel for the fast \
         station; large page takes ~35 s under FIFO."
    );
    write_json(cfg, "fig11_web", &cells);
    Ok(out)
}
