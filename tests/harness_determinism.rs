//! The orchestration harness's core guarantees, end to end on a real
//! experiment: parallel execution is byte-identical to sequential, and a
//! failed repetition costs only itself.
//!
//! The configuration is a value, so each test has its own results
//! directory and they run concurrently. What a sweep executed is read
//! from the `harness/*` counters of the snapshot it exports under
//! `<results_dir>/metrics/`.

use std::path::Path;

use ending_anomaly::experiments::runner::RunCfg;
use ending_anomaly::experiments::udp_sat::{self, UdpSatResult};
use ending_anomaly::mac::SchemeKind;
use ending_anomaly::sim::Nanos;

/// Four 3 s repetitions from seed 7, observed into a fresh directory.
fn cfg(name: &str) -> RunCfg {
    let results_dir =
        std::env::temp_dir().join(format!("wifiq-determinism-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&results_dir);
    RunCfg {
        reps: 4,
        duration: Nanos::from_secs(3),
        warmup: Nanos::from_secs(1),
        base_seed: 7,
        metrics: true,
        results_dir,
        ..RunCfg::new()
    }
}

fn run(cfg: &RunCfg) -> (UdpSatResult, String) {
    let result = udp_sat::run_scheme(SchemeKind::AirtimeFair, cfg).expect("a repetition survives");
    let json = serde_json::to_string_pretty(&result).expect("serialize");
    (result, json)
}

/// A `harness/*` counter of the sweep `run` last exported under `dir`.
fn counter(dir: &Path, metric: &str) -> u64 {
    let path = dir.join("metrics/harness_udp_sat_airtime.json");
    let text = std::fs::read_to_string(&path).expect("harness snapshot written");
    let doc = serde_json::from_str(&text).expect("snapshot parses");
    let counters = doc
        .get("registry")
        .and_then(|r| r.get("counters")?.as_array());
    counters
        .expect("snapshot has counters")
        .iter()
        .find(|c| c.get("metric").and_then(|m| m.as_str()) == Some(metric))
        .and_then(|c| c.get("value")?.as_u64())
        .unwrap_or_else(|| panic!("no harness/{metric} in {}", path.display()))
}

#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    let serial = cfg("serial");
    let parallel = RunCfg {
        jobs: 4,
        ..cfg("parallel")
    };
    assert_eq!(
        run(&serial).1,
        run(&parallel).1,
        "parallel sweep must be byte-identical to sequential"
    );
    assert_eq!(counter(&parallel.results_dir, "cells_ok"), 4);
    let _ = std::fs::remove_dir_all(serial.results_dir);
    let _ = std::fs::remove_dir_all(parallel.results_dir);
}

#[test]
fn a_failed_cell_costs_only_itself() {
    let faulty = RunCfg {
        fault: Some("udp_sat/airtime//8".into()),
        ..cfg("failed")
    };
    let (partial, _) = run(&faulty);
    assert_eq!(partial.rep_shares.len(), 3, "seeds 7, 9 and 10 survive");
    assert_eq!(counter(&faulty.results_dir, "cells_failed"), 1);
    assert_eq!(counter(&faulty.results_dir, "cells_ok"), 3);
    let _ = std::fs::remove_dir_all(faulty.results_dir);
}
