//! End-to-end determinism: the same master seed must produce
//! byte-identical corpus JSON and `found/` artifacts regardless of the
//! harness worker count, with the result cache disabled — identity has
//! to come from the coordinator-side RNG discipline, not from cache
//! replay.

use std::collections::BTreeMap;
use std::path::PathBuf;

use wifiq_experiments::scenario_file::{
    FaultKind, FaultSpec, ScenarioFile, StationSpec, TrafficSpec,
};
use wifiq_search::{run_search, SearchCfg};

/// A small already-failing seed (a stall starves station 1) so the run
/// exercises the full pipeline — corpus, breeding, shrinking, artifact
/// writing — without the cost of the large planted document.
fn failing_seed() -> ScenarioFile {
    ScenarioFile {
        scheme: "airtime".into(),
        secs: 3,
        seed: 3,
        station_fq: false,
        rate_control: false,
        aql_ms: None,
        stations: vec![StationSpec::new("mcs15"), StationSpec::new("mcs7")],
        traffic: vec![
            TrafficSpec::TcpDown { station: 0 },
            TrafficSpec::TcpDown { station: 1 },
        ],
        faults: vec![FaultSpec {
            from_secs: 0.5,
            until_secs: 3.0,
            station: Some(1),
            kind: FaultKind::Stall,
        }],
        churn: None,
        policy: None,
        roaming: None,
        provenance: None,
    }
}

fn scratch(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("wifiq_search_det_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Reads a found/ directory as name → bytes.
fn found_files(dir: &PathBuf) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            out.insert(
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).unwrap(),
            );
        }
    }
    out
}

fn run(name: &str, jobs: usize) -> (String, BTreeMap<String, Vec<u8>>) {
    let root = scratch(name);
    let found = root.join("found");
    let mut cfg = SearchCfg::new(root.clone());
    cfg.master_seed = 42;
    cfg.generations = 1;
    cfg.batch = 4;
    cfg.secs_cap = 3;
    cfg.max_found = 2;
    cfg.found_dir = Some(found.clone());
    cfg.jobs = jobs;
    cfg.cache = false;
    cfg.plant = false;
    cfg.seed_docs = vec![failing_seed()];
    let report = run_search(&cfg).expect("search run failed");
    assert!(
        !report.findings.is_empty(),
        "the failing seed must produce at least one finding"
    );
    let files = found_files(&found);
    assert!(!files.is_empty(), "expected committed counterexamples");
    let _ = std::fs::remove_dir_all(&root);
    (report.corpus_json.pretty(), files)
}

#[test]
fn same_seed_is_byte_identical_across_worker_counts() {
    let (corpus_1, found_1) = run("j1", 1);
    let (corpus_4, found_4) = run("j4", 4);
    assert_eq!(
        corpus_1, corpus_4,
        "corpus JSON must be byte-identical at 1 vs 4 workers"
    );
    assert_eq!(
        found_1.keys().collect::<Vec<_>>(),
        found_4.keys().collect::<Vec<_>>(),
        "found/ file sets must match"
    );
    for (name, bytes) in &found_1 {
        assert_eq!(
            Some(bytes),
            found_4.get(name),
            "found/{name} differs between worker counts"
        );
    }
}
