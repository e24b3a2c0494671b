//! The orchestration harness's core guarantees, end to end on a real
//! experiment: parallel execution is byte-identical to sequential, a
//! completed sweep is served entirely from the cache on re-run, and a
//! failed repetition is the only one a re-run executes.
//!
//! The configuration is a value, so each test has its own results
//! directory and they run concurrently. What a sweep executed is read
//! from the `harness/*` counters of the snapshot it exports under
//! `<results_dir>/metrics/`.

use std::path::Path;

use ending_anomaly::experiments::runner::RunCfg;
use ending_anomaly::experiments::udp_sat::{self, UdpSatResult};
use ending_anomaly::harness::FaultSpec;
use ending_anomaly::mac::SchemeKind;
use ending_anomaly::sim::Nanos;

/// Four 3 s repetitions from seed 7, cached under a fresh directory.
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
        cache: true,
        ..RunCfg::new()
    }
}

fn run(cfg: &RunCfg) -> (UdpSatResult, String) {
    let result = udp_sat::run_scheme(SchemeKind::AirtimeFair, cfg);
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
    assert_eq!(counter(&parallel.results_dir, "cache_misses"), 4);
    let _ = std::fs::remove_dir_all(serial.results_dir);
    let _ = std::fs::remove_dir_all(parallel.results_dir);
}

#[test]
fn a_rerun_executes_zero_cells() {
    let cfg = RunCfg {
        jobs: 4,
        ..cfg("rerun")
    };
    let (_, first) = run(&cfg);
    assert_eq!(counter(&cfg.results_dir, "cache_hits"), 0);
    let (_, rerun) = run(&cfg);
    assert_eq!(rerun, first, "cached re-run must reproduce the same bytes");
    assert_eq!(counter(&cfg.results_dir, "cache_hits"), 4);
    assert_eq!(counter(&cfg.results_dir, "cache_misses"), 0);
    let _ = std::fs::remove_dir_all(cfg.results_dir);
}

#[test]
fn a_failed_cell_is_the_only_one_a_rerun_executes() {
    let healthy = cfg("failed");
    let faulty = RunCfg {
        fault: FaultSpec::parse("udp_sat/airtime//8"),
        ..healthy.clone()
    };
    let (partial, _) = run(&faulty);
    assert_eq!(partial.rep_shares.len(), 3, "seed 8 fails both attempts");
    assert_eq!(counter(&faulty.results_dir, "cells_failed"), 1);
    assert_eq!(counter(&faulty.results_dir, "retries"), 1);

    let (whole, _) = run(&healthy);
    assert_eq!(whole.rep_shares.len(), 4);
    assert_eq!(counter(&healthy.results_dir, "cache_hits"), 3);
    assert_eq!(counter(&healthy.results_dir, "cache_misses"), 1);
    assert_eq!(counter(&healthy.results_dir, "cells_failed"), 0);
    let _ = std::fs::remove_dir_all(healthy.results_dir);
}
