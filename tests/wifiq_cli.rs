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
    for (name, value) in [
        ("WIFIQ_QUICK", "true"),
        ("WIFIQ_METRICS", "yes"),
        ("WIFIQ_CACHE", "off"),
    ] {
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
    for (name, value) in [
        ("WIFIQ_QUICK", "1"),
        ("WIFIQ_METRICS", "0"),
        ("WIFIQ_CACHE", "0"),
    ] {
        let (_, stderr) = list_with(name, value);
        assert!(stderr.is_empty(), "{name}={value} warned: {stderr}");
    }
}
