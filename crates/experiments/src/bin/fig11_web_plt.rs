//! Figure 11: web page-load times through a busy network. Pass
//! `--with-slow` to add the appendix's slow-station-fetches variant.

use wifiq_experiments::report::{flag, write_json, Table};
use wifiq_experiments::{web, RunCfg};

fn main() {
    let with_slow = flag("--with-slow");
    let cfg = RunCfg::from_env();
    println!("Figure 11: HTTP page fetch times ({} reps)\n", cfg.reps);
    let cells = web::run_all(&cfg, with_slow);
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
    t.print();
    println!(
        "\nPaper: order-of-magnitude improvement FIFO -> FQ-CoDel for the fast \
         station; large page takes ~35 s under FIFO."
    );
    write_json("fig11_web", &cells);
}
