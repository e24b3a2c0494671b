//! Extension experiment: weighted airtime fairness — the per-station
//! weight knob, now expressed as a flat [`PolicySet`] compiled onto the
//! scheduler through the builder's policy path.
//!
//! Three identical fast stations with weights 1:2:4 under saturating
//! UDP; airtime shares should track the weights.

use std::fmt::Write as _;

use crate::report::{pct, write_json, Table};
use crate::runner::{mean, meter_window, run_seeds, shares_of};
use crate::RunCfg;
use wifiq_mac::{NetworkConfig, PolicySet, SchemeKind, StationMeter, WifiNetwork};
use wifiq_sim::Nanos;
use wifiq_traffic::TrafficApp;

pub fn run(cfg: &RunCfg, _args: &[String]) -> Result<String, String> {
    let mut out = String::new();
    let weights = [1u32, 2, 4];
    let _ = writeln!(
        out,
        "Extension: weighted airtime fairness (weights 1:2:4, {} reps x {}s)\n",
        cfg.reps,
        cfg.duration.as_millis() / 1000
    );
    // Per-station airtime shares, one vector per repetition.
    let reps: Vec<Vec<f64>> = run_seeds("ext_airtime_weights", "1_2_4", "", cfg, |seed| {
        // All three stations fast and identical, so only weights differ.
        let mut b = NetworkConfig::builder()
            .scheme(SchemeKind::AirtimeFair)
            .seed(seed)
            .policy(PolicySet::flat(&weights));
        for _ in 0..3 {
            b = b.station(wifiq_phy::PhyRate::fast_station());
        }
        let mut net: WifiNetwork<wifiq_traffic::AppMsg> = WifiNetwork::new(b.build());
        let mut app = TrafficApp::new();
        for sta in 0..3 {
            app.add_udp_down(sta, 100_000_000, Nanos::ZERO);
        }
        app.install(&mut net);
        net.run(cfg.warmup, &mut app);
        let before: Vec<StationMeter> = net.meter().all().to_vec();
        net.run(cfg.duration, &mut app);
        let window: Vec<StationMeter> = meter_window(net.meter().all(), &before);
        shares_of(&window)
    });
    let share_acc: Vec<Vec<f64>> = (0..3)
        .map(|sta| reps.iter().map(|r| r[sta]).collect())
        .collect();
    #[derive(serde::Serialize)]
    struct Row {
        weight: u32,
        expected_share: f64,
        measured_share: f64,
    }
    let total_w: u32 = weights.iter().sum();
    let rows: Vec<Row> = weights
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
