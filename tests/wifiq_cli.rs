//! The `wifiq` command line rejects what it does not understand before
//! doing anything: exit status 2, the offending token named on stderr,
//! nothing written under the results directory. No simulation runs here.

use std::process::Command;

fn rejects(args: &[&str], token: &str) {
    let results = std::env::temp_dir().join(format!(
        "wifiq_cli_{}_{}",
        std::process::id(),
        args.join("_").replace('-', "")
    ));
    let _ = std::fs::remove_dir_all(&results);
    let out = Command::new(env!("CARGO_BIN_EXE_wifiq"))
        .args(args)
        .env("WIFIQ_RESULTS_DIR", &results)
        .output()
        .expect("spawn wifiq");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "wifiq {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "wifiq {args:?} printed a report");
    assert!(
        stderr.contains(token),
        "wifiq {args:?} does not name {token}: {stderr}"
    );
    assert!(!results.exists(), "wifiq {args:?} wrote results");
}

#[test]
fn an_unknown_experiment_is_rejected() {
    rejects(&["no_such_experiment"], "no_such_experiment");
}

#[test]
fn a_typod_experiment_flag_is_rejected() {
    rejects(&["fig04_latency_tcp", "--bidr"], "--bidr");
}

#[test]
fn a_run_flag_without_its_value_is_rejected() {
    rejects(&["run", "--secs"], "--secs");
}
