//! The `wifiq` command line rejects what it does not understand before
//! doing anything: exit status 2, the offending token named on stderr,
//! nothing written under the results directory. A failure after that is
//! named too, and a cell's document replays the cell.

use std::process::Command;

use ending_anomaly::experiments::runner::RunCfg;
use ending_anomaly::experiments::udp_sat;
use ending_anomaly::mac::SchemeKind;
use ending_anomaly::sim::Nanos;

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

#[test]
fn a_station_count_beyond_the_limit_is_rejected_before_allocating() {
    rejects(
        &["run", "--stations", "mcs15x18446744073709551615"],
        "at most 100000",
    );
    // The limit is on the summed roster, not on each spec.
    rejects(
        &["run", "--stations", "mcs15x60000,mcs0x60000"],
        "'mcs0x60000'",
    );
}

/// A sweep point whose every repetition fails has nothing to average: the
/// experiment fails naming the cell and the repetition's error (it used to
/// die dividing by the zero surviving repetitions, or print zeros and
/// pass). The injected fault panics each cell before its simulation
/// starts.
#[test]
fn a_sweep_point_with_no_surviving_repetition_fails_by_name() {
    for (experiment, fault, error) in [
        (
            "ext_scale",
            "ext_scale/",
            "ext_scale/10sta: every repetition failed: panicked: injected fault",
        ),
        (
            "fig05_airtime_udp",
            "udp_sat/",
            "udp_sat/fifo: every repetition failed",
        ),
    ] {
        let results = std::env::temp_dir().join(format!(
            "wifiq_cli_{}_fault_{experiment}",
            std::process::id()
        ));
        let out = Command::new(env!("CARGO_BIN_EXE_wifiq"))
            .arg(experiment)
            .env("WIFIQ_RESULTS_DIR", &results)
            .env("WIFIQ_QUICK", "1")
            .env("WIFIQ_FAULT_CELL", fault)
            .output()
            .expect("spawn wifiq");
        let _ = std::fs::remove_dir_all(&results);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{experiment}: {stderr}");
        assert!(stderr.contains(error), "{experiment}: {stderr}");
        assert!(!stderr.contains("divide by zero"), "{stderr}");
    }
}

/// The `%` cells of the table rows in `report` that start with `row`.
fn shares(report: &str, row: impl Fn(&str) -> bool) -> Vec<String> {
    let rows = report.lines().filter(|l| row(l));
    let cells = rows.flat_map(|l| l.split_whitespace().filter(|c| c.ends_with('%')));
    cells.map(str::to_string).collect()
}

/// An experiment cell is reproducible from its document alone: fig05's
/// FIFO cell at seed 1, written out and run by `wifiq run --config`,
/// shows the per-station airtime shares fig05 reports for that cell
/// (both warm up for the first 2 of 12 s).
#[test]
fn a_cell_document_replays_its_experiment_row() {
    let cfg = RunCfg {
        duration: Nanos::from_secs(12),
        ..RunCfg::new()
    };
    let doc = udp_sat::cell(SchemeKind::Fifo, 1, &cfg);
    let dir = std::env::temp_dir().join(format!("wifiq_cli_{}_replay", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("fig05_fifo.json");
    std::fs::write(&path, doc.text()).expect("write document");
    let wifiq = |args: &[&str], env: &[(&str, &str)]| {
        let out = Command::new(env!("CARGO_BIN_EXE_wifiq"))
            .args(args)
            .envs(env.iter().copied())
            .env("WIFIQ_RESULTS_DIR", &dir)
            .output()
            .expect("spawn wifiq");
        assert_eq!(out.status.code(), Some(0), "wifiq {args:?}");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let replay = wifiq(&["run", "--config", path.to_str().unwrap()], &[]);
    let figure = wifiq(
        &["fig05_airtime_udp"],
        &[("WIFIQ_SECS", "12"), ("WIFIQ_REPS", "1")],
    );
    let _ = std::fs::remove_dir_all(&dir);
    let replayed = shares(&replay, |l| l.starts_with(|c: char| c.is_ascii_digit()));
    let reported = shares(&figure, |l| l.starts_with("FIFO "));
    assert_eq!(replayed.len(), 3, "{replay}");
    assert_eq!(replayed, reported, "{replay}\n{figure}");
}

/// `wifiq list` under one environment variable: what it printed and warned.
fn list_with(name: &str, value: &str) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_wifiq"))
        .arg("list")
        .env(name, value)
        .output()
        .expect("spawn wifiq");
    assert_eq!(
        out.status.code(),
        Some(0),
        "wifiq list under {name}={value}"
    );
    let text = |bytes| String::from_utf8_lossy(bytes).into_owned();
    (text(&out.stdout), text(&out.stderr))
}

#[test]
fn a_boolean_knob_that_is_not_0_or_1_warns_naming_the_variable() {
    for (name, value) in [("WIFIQ_QUICK", "true"), ("WIFIQ_METRICS", "yes")] {
        let (stdout, stderr) = list_with(name, value);
        assert!(stdout.contains("fig05_airtime_udp"), "{name}: {stdout}");
        assert!(
            stderr.contains(&format!("warning: ignoring {name}={value:?}")),
            "{name}={value} is not reported: {stderr}"
        );
    }
}

#[test]
fn a_boolean_knob_set_to_0_or_1_is_taken_silently() {
    for (name, value) in [("WIFIQ_QUICK", "1"), ("WIFIQ_METRICS", "0")] {
        let (_, stderr) = list_with(name, value);
        assert!(stderr.is_empty(), "{name}={value} warned: {stderr}");
    }
}
