//! Table 2: VoIP MOS and total throughput under different QoS markings.

use std::fmt::Write as _;

use crate::report::{write_json, Table};
use crate::{voip, RunCfg};

pub fn run(cfg: &RunCfg, _args: &[String]) -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 2: MOS values and total throughput for VoIP + bulk traffic \
         ({} reps x {}s)\n",
        cfg.reps,
        cfg.duration.as_millis() / 1000
    );
    let cells = voip::run_all(cfg)?;
    let mut t = Table::new(vec![
        "Scheme",
        "QoS",
        "5ms MOS",
        "5ms Thrp",
        "50ms MOS",
        "50ms Thrp",
    ]);
    // Cells are ordered scheme x {VO, BE} x {5, 50}.
    for chunk in cells.chunks(2) {
        let (five, fifty) = (&chunk[0], &chunk[1]);
        t.row(vec![
            five.scheme.clone(),
            five.qos.clone(),
            format!("{:.2}", five.mos),
            format!("{:.1}", five.throughput_bps / 1e6),
            format!("{:.2}", fifty.mos),
            format!("{:.1}", fifty.throughput_bps / 1e6),
        ]);
    }
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "\nPaper: FIFO/FQ-CoDel BE ~1.0-1.2 MOS; FQ-MAC/Airtime >= 4.37 even as BE."
    );
    write_json(cfg, "table2_voip", &cells);
    Ok(out)
}
