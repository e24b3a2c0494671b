//! Runs every experiment binary (the full evaluation) through the
//! orchestration harness: each binary is one cell, fanned across
//! `WIFIQ_JOBS` worker threads, with captured output cached under
//! `results/cache/` and journalled in `results/harness.manifest.jsonl`
//! so an interrupted evaluation resumes where it left off.
//!
//! A failing binary no longer aborts the evaluation: every cell runs,
//! failures are collected, and the process exits nonzero at the end with
//! a summary table. Honours the same environment knobs as the individual
//! binaries (`WIFIQ_REPS`, `WIFIQ_SECS`, `WIFIQ_QUICK`, `WIFIQ_JOBS`,
//! `WIFIQ_CACHE`). Child binaries run with `WIFIQ_JOBS=1` — here the
//! parallelism is across binaries, not within them.

use std::io::Read as _;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use wifiq_experiments::runner::{export_metrics, metrics_telemetry};
use wifiq_harness::{budget_from_env, CellDef, Harness, SweepMeta};

const BINS: [&str; 23] = [
    "fig04_latency_tcp",
    "table1_model_validation",
    "fig05_airtime_udp",
    "fig06_jain_index",
    "fig07_tcp_throughput",
    "fig08_sparse_station",
    "fig09_30sta_airtime",
    "fig10_30sta_latency",
    "table2_voip_mos",
    "fig11_web_plt",
    "ablation_design_choices",
    "ext_rate_control",
    "ext_meter_validation",
    "ext_client_fq",
    "ext_airtime_weights",
    "ext_80211ac",
    "ext_aql",
    "ext_lossy_channel",
    "ext_chaos",
    "ext_scale",
    "ext_policy",
    "ext_search",
    "ext_roam",
];

/// Runs one experiment binary to completion, returning its combined
/// output, or an error with the tail of that output. Past `budget` of
/// wall clock the child is killed and the cell reported as failed.
fn run_bin(bin: &str, budget: Duration) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let dir = exe.parent().ok_or("bin dir")?;
    let started = Instant::now();
    let mut child = Command::new(dir.join(bin))
        .env("WIFIQ_JOBS", "1")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("failed to launch {bin}: {e}"))?;
    let mut out_pipe = child.stdout.take().expect("piped stdout");
    let mut err_pipe = child.stderr.take().expect("piped stderr");
    // Drain both pipes from their own threads so a chatty child can't
    // deadlock against a full pipe buffer while we wait on the other.
    let (out_thread, err_thread) = (
        std::thread::spawn(move || {
            let mut buf = Vec::new();
            let _ = out_pipe.read_to_end(&mut buf);
            String::from_utf8_lossy(&buf).into_owned()
        }),
        std::thread::spawn(move || {
            let mut buf = Vec::new();
            let _ = err_pipe.read_to_end(&mut buf);
            String::from_utf8_lossy(&buf).into_owned()
        }),
    );
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if started.elapsed() > budget => {
                let _ = child.kill();
                let _ = child.wait();
                drop((out_thread.join(), err_thread.join()));
                return Err(format!("killed after {}s budget", budget.as_secs()));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(50)),
            Err(e) => return Err(format!("wait on {bin}: {e}")),
        }
    };
    let stdout = out_thread.join().unwrap_or_default();
    let stderr = err_thread.join().unwrap_or_default();
    let mut output = stdout;
    if !stderr.trim().is_empty() {
        output.push_str("\n--- stderr ---\n");
        output.push_str(&stderr);
    }
    if status.success() {
        Ok(output)
    } else {
        let tail: Vec<&str> = output.lines().rev().take(30).collect();
        let tail: Vec<&str> = tail.into_iter().rev().collect();
        Err(format!("{bin} failed: {status}\n{}", tail.join("\n")))
    }
}

/// Everything that changes what the child binaries compute must be in
/// the cache key; the knobs travel through the environment, so snapshot
/// them into the sweep salt.
fn env_salt() -> String {
    let get = |k: &str| std::env::var(k).unwrap_or_default();
    format!(
        "quick={},reps={},secs={},metrics={},results_dir={}",
        get("WIFIQ_QUICK"),
        get("WIFIQ_REPS"),
        get("WIFIQ_SECS"),
        get("WIFIQ_METRICS"),
        get("WIFIQ_RESULTS_DIR"),
    )
}

fn main() {
    let tele = metrics_telemetry();
    let budget = budget_from_env().unwrap_or(Duration::from_secs(1800));
    let harness = Harness::from_env()
        .with_budget(budget)
        .with_telemetry(tele.clone());
    let jobs = harness.jobs().min(BINS.len());
    println!(
        "Running {} experiments across {} worker{}; artifacts in results/.",
        BINS.len(),
        jobs,
        if jobs == 1 { "" } else { "s" },
    );
    let sweep = SweepMeta::new("run_all", 0, 0).with_salt(env_salt());
    let cells: Vec<CellDef> = BINS.iter().map(|bin| CellDef::new(*bin, "", 0)).collect();
    let outcome = harness.run(&sweep, cells, |c: &CellDef| run_bin(&c.cell, budget));

    for (i, report) in outcome.reports.iter().enumerate() {
        let cached = if report.cached { " (cached)" } else { "" };
        println!("\n=== {}{} ===\n", report.cell, cached);
        match &outcome.results[i] {
            Some(output) => print!("{output}"),
            None => println!(
                "FAILED: {}",
                report.error.as_deref().unwrap_or("unknown error")
            ),
        }
    }

    let summary = outcome.summary();
    println!("\n=== summary ===\n");
    println!(
        "{:<28} {:>8} {:>10} {:>8}",
        "experiment", "status", "wall", "retries"
    );
    for report in &outcome.reports {
        let status = if !report.ok() {
            "FAILED"
        } else if report.cached {
            "cached"
        } else {
            "ok"
        };
        println!(
            "{:<28} {:>8} {:>9.1}s {:>8}",
            report.cell,
            status,
            report.wall_ms as f64 / 1000.0,
            report.retries,
        );
    }
    println!("\nharness summary: {}", summary.line());
    if tele.is_enabled() {
        export_metrics(&tele, "harness_run_all", 0);
    }
    if summary.failed > 0 {
        eprintln!(
            "\n{} of {} experiments failed.",
            summary.failed, summary.total
        );
        std::process::exit(1);
    }
    // Dynamic completion line: the count comes from the roster itself, so
    // adding a binary can never desync a hard-coded expectation in CI.
    println!(
        "\nrun_all complete: {}/{} experiments ok ({} cached)",
        summary.ok, summary.total, summary.cached
    );
    println!("All experiments complete; artifacts in results/.");
}
