//! The orchestration harness's core guarantees, end to end on a real
//! experiment: parallel execution is byte-identical to sequential, and a
//! failed repetition costs only itself.
//!
//! The configuration is a value, so each test has its own results
//! directory and they run concurrently. What a sweep executed is read
//! from the snapshots its repetitions export under
//! `<results_dir>/metrics/`: one per completed repetition.

use std::collections::BTreeMap;
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

/// Every file under `dir/metrics/`, by name, with its bytes.
fn metrics(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let entries = std::fs::read_dir(dir.join("metrics")).expect("snapshots exported");
    entries
        .map(|e| {
            let path = e.expect("a metrics entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).expect("read a snapshot"))
        })
        .collect()
}

/// The `.json` and `.csv` names of the `udp_sat/airtime` snapshots of
/// `seeds`, in file-name order.
fn snapshots(seeds: &[u64]) -> Vec<String> {
    let names = seeds
        .iter()
        .flat_map(|seed| ["csv", "json"].map(|ext| format!("udp_sat_airtime_seed{seed}.{ext}")));
    let mut names: Vec<String> = names.collect();
    names.sort();
    names
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
    let exported = metrics(&parallel.results_dir);
    assert_eq!(
        exported.keys().cloned().collect::<Vec<_>>(),
        snapshots(&[7, 8, 9, 10])
    );
    assert!(
        exported == metrics(&serial.results_dir),
        "parallel snapshots must be byte-identical to sequential"
    );
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
    let exported = metrics(&faulty.results_dir).into_keys().collect::<Vec<_>>();
    assert_eq!(exported, snapshots(&[7, 9, 10]), "only survivors export");
    let _ = std::fs::remove_dir_all(faulty.results_dir);
}
