//! Extension experiment: deterministic chaos — the `wifiq-chaos` fault
//! schedule exercised end to end.
//!
//! Sweeps loss burstiness (Gilbert–Elliott mean burst length at the slow
//! station) against rate-collapse depth (a mid-run window pinning one
//! fast station's PHY rate), all under the airtime-fair scheduler, and
//! gates on what the sweep's rows must show under faults:
//!
//! 1. **Airtime fairness survives asymmetric loss** — Jain's index over
//!    per-station airtime shares stays ≥ 0.9 at every sweep point, since
//!    retries burn the lossy station's own deficit (§3.2).
//! 2. **Only a deep collapse switches CoDel (§3.1.1)** — a shallow
//!    collapse (above the 12 Mbps threshold) never flips the victim's
//!    parameters; a deep one flips and releases them in every
//!    repetition. The switch's timing and its 2 s hysteresis are asserted
//!    by `tests/chaos_validation.rs`.
//!
//! Results land in `results/BENCH_chaos.json` with a `gates` block;
//! any violated gate is an `Err` (and so fails `wifiq all`), and so is a
//! run too short for the release to fit. The counters the gates read come
//! from each repetition's own telemetry hub, which `WIFIQ_METRICS=1`
//! exports.

use std::fmt::Write as _;

use crate::report::{pct, write_json, Table};
use crate::runner::{bps, mean, run_seeds, to_ms};
use crate::scenario::{self, fault, ping, tcp_down, FAST1, FAST2, SLOW, TESTBED3};
use crate::scenario_file::{FaultKind, FaultSpec, ScenarioFile};
use crate::RunCfg;
use wifiq_mac::meter::airtime_shares;
use wifiq_mac::SchemeKind;
use wifiq_sim::Nanos;
use wifiq_stats::{jain_index, Summary};
use wifiq_telemetry::Label;
use wifiq_traffic::FlowHandle;

/// Deep collapse: MCS0 HT20 SGI = 7.2 Mbps, below the 12 Mbps CoDel
/// threshold. The sweep also collapses to `mcs3` (28.9 Mbps, above it).
const DEEP: &str = "mcs0";

/// The mid-run rate-collapse window: 1 s into the measurement window,
/// 3 s long — longer than the 2 s CoDel hysteresis, so the switch
/// releases right at the window's end, comfortably before the run ends
/// even under `WIFIQ_QUICK` (10 s runs).
fn collapse_window(cfg: &RunCfg) -> (Nanos, Nanos) {
    let from = cfg.warmup + Nanos::from_secs(1);
    (from, from + Nanos::from_secs(3))
}

/// How long after the collapse window's end a deep collapse's release
/// may take; a run must last this long past the window.
const RELEASE_SLACK: Nanos = Nanos::from_secs(1);

#[derive(serde::Serialize)]
struct Row {
    burst_len: f64,
    collapse: String,
    jain: f64,
    slow_share: f64,
    fast_median_ms: f64,
    total_mbps: f64,
    forced_loss: u64,
    param_switches_min: u64,
    param_switches_max: u64,
    codel_recoveries_min: u64,
}

/// One repetition of a sweep point: a ping to a fast station (component
/// 0) and a TCP download to every station, with bursty loss pinned at the
/// slow station for the whole run, plus an optional mid-run collapse of
/// the second fast station to the `collapse` rate.
pub(crate) fn cell(
    burst_len: f64,
    collapse: Option<&str>,
    seed: u64,
    cfg: &RunCfg,
) -> ScenarioFile {
    let mut traffic = vec![ping(FAST1)];
    traffic.extend((0..3).map(tcp_down));
    let mut doc = scenario::cell(SchemeKind::AirtimeFair, &TESTBED3, traffic, seed, cfg);
    let burst = FaultKind::BurstLoss {
        bad_frac: 0.25,
        burst_len,
        loss_bad: 0.5,
    };
    doc.faults
        .push(fault(0.0, doc.secs as f64, Some(SLOW), burst));
    if let Some(rate) = collapse {
        let (from, until) = collapse_window(cfg);
        doc.faults.push(collapse_fault(from, until, rate));
    }
    doc
}

/// `rate` pinned at the second fast station over `[from, until)`.
fn collapse_fault(from: Nanos, until: Nanos, rate: &str) -> FaultSpec {
    let kind = FaultKind::RateCollapse { rate: rate.into() };
    fault(from.as_secs_f64(), until.as_secs_f64(), Some(FAST2), kind)
}

fn run_point(burst_len: f64, collapse: Option<&str>, cfg: &RunCfg) -> Result<Row, String> {
    let label = collapse.unwrap_or("none");
    let cell_name = format!("burst{burst_len:.0}_{label}");
    // (airtime shares, fast RTTs ms, total Mbps, forced loss,
    //  param switches, codel recoveries) per repetition.
    type Rep = (Vec<f64>, Vec<f64>, f64, u64, u64, u64);
    let reps: Vec<Rep> = run_seeds("ext_chaos", &cell_name, "", cfg, |rep| {
        let mut built = cell(burst_len, collapse, rep.seed, cfg).build()?;
        let tele = rep.counting_hub();
        built.observe(&tele);
        let window = built.measure(cfg.warmup);
        let fast_ms: Vec<f64> = to_ms(&built.app.ping(FlowHandle(0)).rtts_after(window.from));
        let total = window.delivered[1..].iter().map(|&b| bps(b, cfg.window()));
        let total = total.sum::<f64>() / 1e6;
        let sta = |s: usize| Label::Station(s as u32);
        Ok((
            airtime_shares(&window.meters),
            fast_ms,
            total,
            tele.counter("chaos", "forced_loss", sta(SLOW)),
            tele.counter("codel", "param_switches", sta(FAST2)),
            tele.counter("chaos", "codel_recoveries", sta(FAST2)),
        ))
    })?;
    let fast_ms: Vec<f64> = reps.iter().flat_map(|r| r.1.iter().copied()).collect();
    let jains: Vec<f64> = reps.iter().map(|r| jain_index(&r.0)).collect();
    Ok(Row {
        burst_len,
        collapse: label.to_string(),
        jain: mean(&jains),
        slow_share: mean(&reps.iter().map(|r| r.0[SLOW]).collect::<Vec<_>>()),
        fast_median_ms: Summary::of(&fast_ms).median,
        total_mbps: mean(&reps.iter().map(|r| r.2).collect::<Vec<_>>()),
        forced_loss: reps.iter().map(|r| r.3).sum::<u64>() / reps.len() as u64,
        param_switches_min: reps.iter().map(|r| r.4).min().unwrap_or(0),
        param_switches_max: reps.iter().map(|r| r.4).max().unwrap_or(0),
        codel_recoveries_min: reps.iter().map(|r| r.5).min().unwrap_or(0),
    })
}

#[derive(serde::Serialize)]
struct Gates {
    jain_min: f64,
    jain_ok: bool,
    shallow_never_switches: bool,
}

#[derive(serde::Serialize)]
struct Bench {
    rows: Vec<Row>,
    gates: Gates,
}

pub fn run(cfg: &RunCfg, _args: &[String]) -> Result<String, String> {
    let (_, until) = collapse_window(cfg);
    if cfg.duration < until + RELEASE_SLACK {
        return Err(format!(
            "ext_chaos: a {} ms run is too short for its collapse window, \
             which ends at {} ms; a deep collapse's release needs the run \
             to last {} ms (raise WIFIQ_SECS)",
            cfg.duration.as_millis(),
            until.as_millis(),
            (until + RELEASE_SLACK).as_millis(),
        ));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Extension: chaos — fault injection under the airtime scheduler \
         ({} reps x {}s; GE burst loss x rate collapse)\n",
        cfg.reps,
        cfg.duration.as_millis() / 1000
    );

    let mut rows = Vec::new();
    for burst_len in [1.0, 8.0, 32.0] {
        for collapse in [None, Some("mcs3"), Some(DEEP)] {
            rows.push(run_point(burst_len, collapse, cfg)?);
        }
    }

    let mut t = Table::new(vec![
        "Burst len",
        "Collapse",
        "Jain",
        "Slow share",
        "Fast ping (ms)",
        "Total (Mbps)",
        "Switches",
    ]);
    for r in &rows {
        t.row(vec![
            format!("{:.0}", r.burst_len),
            r.collapse.clone(),
            format!("{:.3}", r.jain),
            pct(r.slow_share),
            format!("{:.1}", r.fast_median_ms),
            format!("{:.1}", r.total_mbps),
            format!("{}..{}", r.param_switches_min, r.param_switches_max),
        ]);
    }
    out.push_str(&t.render());

    // Gate 1: airtime fairness under asymmetric loss, every sweep point.
    let jain_min = rows.iter().map(|r| r.jain).fold(f64::INFINITY, f64::min);
    let jain_ok = jain_min >= 0.9;

    // Gate 2: a shallow collapse (above the 12 Mbps threshold) must not
    // flip the parameters; a deep one must flip and recover every rep.
    let shallow_never_switches = rows
        .iter()
        .filter(|r| r.collapse == "mcs3")
        .all(|r| r.param_switches_max == 0);
    let deep_ok = rows
        .iter()
        .filter(|r| r.collapse == DEEP)
        .all(|r| r.param_switches_min >= 2 && r.codel_recoveries_min >= 1);

    let gates = Gates {
        jain_min,
        jain_ok,
        shallow_never_switches: shallow_never_switches && deep_ok,
    };
    let ok = gates.jain_ok && gates.shallow_never_switches;

    let _ = writeln!(
        out,
        "\nGates: Jain min {:.3} (>= 0.9: {}), shallow/deep switch contract {}.",
        jain_min,
        jain_ok,
        if gates.shallow_never_switches {
            "ok"
        } else {
            "VIOLATED"
        },
    );
    let _ = writeln!(
        out,
        "\nFaults are internalised exactly like organic impairments: burst\n\
         loss burns the lossy station's own airtime budget, a rate collapse\n\
         drags only its victim's CoDel parameters (with the 2 s hysteresis\n\
         of §3.1.1), and every draw replays byte-identically at any worker\n\
         count."
    );
    write_json(cfg, "BENCH_chaos", &Bench { rows, gates });
    if !ok {
        return Err(format!(
            "{out}\next_chaos: one or more gates violated (see above)."
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A run that ends before a deep collapse can release fails by name
    /// before any cell runs: at 5 s with a 1 s warm-up the window ends
    /// at 5 s and the release needs 6 s.
    #[test]
    fn a_run_too_short_for_the_release_is_refused() {
        let cfg = RunCfg {
            reps: 1,
            duration: Nanos::from_secs(5),
            warmup: Nanos::from_secs(1),
            ..RunCfg::new()
        };
        let err = run(&cfg, &[]).expect_err("a 5 s run cannot fit the release");
        assert!(err.contains("too short for its collapse window"), "{err}");
        assert!(err.contains("6000 ms"), "{err}");
    }
}
