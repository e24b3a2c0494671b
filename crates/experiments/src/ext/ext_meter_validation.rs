//! Extension experiment reproducing the paper's meter cross-validation
//! (§4.1.5): the in-kernel airtime measurement was checked against a
//! monitor-mode capture tool and agreed "to within 1.5%, on average".
//!
//! Here the cross-check runs three ways over a busy bidirectional
//! workload: the network's airtime meter (the scheduler's accounting
//! input) is compared against an independently accumulating monitor-mode
//! capture *and* against the telemetry registry's per-station airtime
//! counters (`mac/tx_airtime_ns` + `mac/rx_airtime_ns`), which accumulate
//! on a third, independent code path.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use crate::report::{write_json, Table};
use crate::scenario::{self, ping, tcp_down, tcp_up, TESTBED3};
use crate::scenario_file::ScenarioFile;
use crate::RunCfg;
use wifiq_mac::{AirtimeCapture, SchemeKind};
use wifiq_telemetry::{Label, Telemetry};

#[derive(serde::Serialize)]
struct Row {
    seed: u64,
    station: usize,
    meter_ms: f64,
    capture_ms: f64,
    telemetry_ms: f64,
    capture_error_pct: f64,
    telemetry_error_pct: f64,
}

/// A busy bidirectional run: TCP both ways to every station, plus a ping
/// to the slow one.
pub(crate) fn cell(seed: u64, cfg: &RunCfg) -> ScenarioFile {
    let mut traffic: Vec<_> = (0..3)
        .flat_map(|station| [tcp_down(station), tcp_up(station)])
        .collect();
    traffic.push(ping(2));
    scenario::cell(SchemeKind::AirtimeFair, &TESTBED3, traffic, seed, cfg)
}

pub fn run(cfg: &RunCfg, _args: &[String]) -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Extension: airtime meter vs monitor capture vs telemetry registry \
         ({} reps x {}s; paper: agreement within 1.5%)\n",
        cfg.reps,
        cfg.duration.as_millis() / 1000
    );
    let mut rows: Vec<Row> = Vec::new();
    for seed in cfg.seeds() {
        let mut built = cell(seed, cfg).build()?;
        let capture = Rc::new(RefCell::new(AirtimeCapture::new(3)));
        built.net.attach_monitor(Box::new(capture.clone()));
        // This experiment *is* the telemetry cross-check, so the registry
        // records unconditionally (no WIFIQ_METRICS gate here).
        let tele = Telemetry::enabled();
        built.net.set_telemetry(tele.clone());
        // The whole run is compared, warm-up included.
        built.run_to(built.duration);
        let net = &built.net;

        let capture = capture.borrow();
        for sta in 0..3 {
            let meter = net.station_meter(sta).total_airtime();
            let cap = capture.airtime(sta);
            let tele_ns = tele.counter("mac", "tx_airtime_ns", Label::Station(sta as u32))
                + tele.counter("mac", "rx_airtime_ns", Label::Station(sta as u32));
            let pct = |other: f64| {
                (meter.as_nanos() as f64 - other).abs() / meter.as_nanos().max(1) as f64 * 100.0
            };
            rows.push(Row {
                seed,
                station: sta,
                meter_ms: meter.as_millis_f64(),
                capture_ms: cap.as_millis_f64(),
                telemetry_ms: tele_ns as f64 / 1e6,
                capture_error_pct: pct(cap.as_nanos() as f64),
                telemetry_error_pct: pct(tele_ns as f64),
            });
        }
    }
    let mut t = Table::new(vec![
        "Seed",
        "Station",
        "Meter (ms)",
        "Capture (ms)",
        "Telemetry (ms)",
        "Cap err",
        "Tele err",
    ]);
    for r in &rows {
        t.row(vec![
            r.seed.to_string(),
            r.station.to_string(),
            format!("{:.1}", r.meter_ms),
            format!("{:.1}", r.capture_ms),
            format!("{:.1}", r.telemetry_ms),
            format!("{:.4}%", r.capture_error_pct),
            format!("{:.4}%", r.telemetry_error_pct),
        ]);
    }
    out.push_str(&t.render());
    let worst = rows
        .iter()
        .map(|r| r.capture_error_pct.max(r.telemetry_error_pct))
        .fold(0.0f64, f64::max);
    let _ = writeln!(
        out,
        "\nWorst-case disagreement: {worst:.4}% (paper: <=1.5% average; the\n\
         simulator's meter, monitor and telemetry counters share exact\n\
         timing, so agreement here should be bit-exact — any nonzero error\n\
         is an accounting bug)."
    );
    write_json(cfg, "ext_meter_validation", &rows);
    assert!(worst < 1.5, "airtime accounts diverged by {worst}%");
    Ok(out)
}
