//! Extension experiment: weighted airtime fairness — the per-station
//! weight knob, now expressed as a flat policy tree compiled onto the
//! scheduler through the document's `policy` block.
//!
//! Three identical fast stations with weights 1:2:4 under saturating
//! UDP; airtime shares should track the weights.

use std::fmt::Write as _;

use crate::report::{pct, write_json, Table};
use crate::runner::{mean, run_seeds};
use crate::scenario;
use crate::scenario_file::{PolicyNodeSpec, PolicySpec, ScenarioFile};
use crate::udp_sat::SAT_MBPS;
use crate::RunCfg;
use wifiq_mac::meter::airtime_shares;
use wifiq_mac::SchemeKind;

const WEIGHTS: [u32; 3] = [1, 2, 4];

/// Saturating UDP to three identical fast stations, so only their
/// weights differ: one `staN` policy leaf each, the flat set
/// [`PolicySet::flat`](wifiq_mac::PolicySet::flat) builds.
pub(crate) fn cell(seed: u64, cfg: &RunCfg) -> ScenarioFile {
    let traffic = (0..3).map(|sta| scenario::udp(sta, SAT_MBPS)).collect();
    let leaf = |(sta, &weight): (usize, &u32)| PolicyNodeSpec {
        name: format!("sta{sta}"),
        weight,
        classes: None,
        stations: Some(vec![sta]),
        nodes: None,
    };
    ScenarioFile {
        policy: Some(PolicySpec {
            nodes: WEIGHTS.iter().enumerate().map(leaf).collect(),
            switches: Vec::new(),
        }),
        ..scenario::cell(SchemeKind::AirtimeFair, &["mcs15"; 3], traffic, seed, cfg)
    }
}

pub fn run(cfg: &RunCfg, _args: &[String]) -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Extension: weighted airtime fairness (weights 1:2:4, {} reps x {}s)\n",
        cfg.reps,
        cfg.duration.as_millis() / 1000
    );
    // Per-station airtime shares, one vector per repetition.
    let reps: Vec<Vec<f64>> = run_seeds("ext_airtime_weights", "1_2_4", "", cfg, |seed| {
        let mut built = cell(seed, cfg).build()?;
        Ok(airtime_shares(&built.measure(cfg.warmup).meters))
    })?;
    let share_acc: Vec<Vec<f64>> = (0..3)
        .map(|sta| reps.iter().map(|r| r[sta]).collect())
        .collect();
    #[derive(serde::Serialize)]
    struct Row {
        weight: u32,
        expected_share: f64,
        measured_share: f64,
    }
    let total_w: u32 = WEIGHTS.iter().sum();
    let rows: Vec<Row> = WEIGHTS
        .iter()
        .enumerate()
        .map(|(sta, &w)| Row {
            weight: w,
            expected_share: w as f64 / total_w as f64,
            measured_share: mean(&share_acc[sta]),
        })
        .collect();
    let mut t = Table::new(vec!["Weight", "Expected share", "Measured share"]);
    for r in &rows {
        t.row(vec![
            r.weight.to_string(),
            pct(r.expected_share),
            pct(r.measured_share),
        ]);
    }
    out.push_str(&t.render());
    for r in &rows {
        assert!(
            (r.measured_share - r.expected_share).abs() < 0.03,
            "weight {} share {:.3} vs expected {:.3}",
            r.weight,
            r.measured_share,
            r.expected_share
        );
    }
    let _ = writeln!(
        out,
        "\nAirtime tracks weights: the policy compiles into the DRR quantum."
    );
    write_json(cfg, "ext_airtime_weights", &rows);
    Ok(out)
}
