//! Shared experiment-running machinery: the run configuration (the one
//! place the process environment is read), the harness bridge that fans
//! repetitions across worker threads and exports what each observed, and
//! window arithmetic.

use std::cell::RefCell;
use std::path::PathBuf;

use wifiq_harness::{workspace_dir, CellDef, Harness};
use wifiq_sim::Nanos;
use wifiq_telemetry::Telemetry;

/// The whole configuration of a run, as a value: everything downstream
/// takes it as an argument and nothing else reads the environment.
///
/// The paper uses 30 × 30 s for the testbed experiments and 5 × 300 s for
/// the 30-station test; the defaults here are scaled down.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Number of repetitions; repetition `i` uses seed `base_seed + i`.
    pub reps: u64,
    /// Whether `reps` was asked for, so an experiment's own repetition
    /// default must not replace it.
    pub reps_given: bool,
    /// Simulated duration of each repetition.
    pub duration: Nanos,
    /// Samples before this offset are discarded (TCP ramp-up etc.).
    pub warmup: Nanos,
    /// Seed of the first repetition.
    pub base_seed: u64,
    /// Smoke settings: the extension experiments run their reduced grids.
    pub quick: bool,
    /// Whether repetitions export telemetry snapshots (`results_dir/metrics/`).
    pub metrics: bool,
    /// Where artifacts and metric snapshots are written.
    pub results_dir: PathBuf,
    /// Worker threads the repetition sweep fans out over.
    pub jobs: usize,
    /// Fault injection: every harness cell whose
    /// `experiment/cell/config/seed` path contains this panics.
    pub fault: Option<String>,
}

impl RunCfg {
    /// Default: 5 repetitions × 30 s with a 5 s warm-up, single-threaded,
    /// metrics off, artifacts in the workspace's `results/`.
    pub fn new() -> RunCfg {
        RunCfg {
            reps: 5,
            reps_given: false,
            duration: Nanos::from_secs(30),
            warmup: Nanos::from_secs(5),
            base_seed: 1,
            quick: false,
            metrics: false,
            results_dir: workspace_dir("results"),
            jobs: 1,
            fault: None,
        }
    }

    /// The configuration the environment asks for — `wifiq`'s, read once
    /// in `main`. A malformed value warns on stderr and keeps the default.
    ///
    /// - `WIFIQ_QUICK=1` — 1 × 10 s smoke settings and reduced grids,
    /// - `WIFIQ_REPS` — repetitions (seed sweep),
    /// - `WIFIQ_SECS` — seconds of simulated time per repetition,
    /// - `WIFIQ_METRICS=1` — per-repetition telemetry snapshots,
    /// - `WIFIQ_RESULTS_DIR` — relocate `results/`,
    /// - `WIFIQ_JOBS` — worker threads (default: available parallelism),
    /// - `WIFIQ_FAULT_CELL=<substr>` — see [`RunCfg::fault`].
    pub fn from_env() -> RunCfg {
        let var = |name: &str| std::env::var(name).ok();
        let number = |name: &str, min: u64| {
            let raw = var(name)?;
            let parsed = raw.parse::<u64>().ok().filter(|n| *n >= min);
            if parsed.is_none() {
                eprintln!("warning: ignoring {name}={raw:?}: not an integer ≥ {min}");
            }
            parsed
        };
        // Both switches default to off.
        let flag = |name: &str| match var(name).as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(raw) => {
                eprintln!("warning: ignoring {name}={raw:?}: not 0 or 1");
                false
            }
        };

        let mut cfg = RunCfg::new();
        cfg.quick = flag("WIFIQ_QUICK");
        if cfg.quick {
            cfg.reps = 1;
            cfg.duration = Nanos::from_secs(10);
            cfg.warmup = Nanos::from_secs(2);
        }
        if let Some(reps) = number("WIFIQ_REPS", 1) {
            cfg.reps = reps;
            cfg.reps_given = true;
        }
        if let Some(secs) = number("WIFIQ_SECS", 2) {
            cfg.duration = Nanos::from_secs(secs);
            cfg.warmup = Nanos::from_secs((secs / 6).max(1));
        }
        cfg.metrics = flag("WIFIQ_METRICS");
        if let Some(dir) = var("WIFIQ_RESULTS_DIR") {
            cfg.results_dir = PathBuf::from(dir);
        }
        cfg.jobs = number("WIFIQ_JOBS", 1).map_or_else(wifiq_harness::default_jobs, |n| n as usize);
        cfg.fault = var("WIFIQ_FAULT_CELL").filter(|needle| !needle.is_empty());
        cfg
    }

    /// Seeds for each repetition.
    pub fn seeds(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.reps).map(|i| self.base_seed + i)
    }

    /// The measurement window length (duration − warmup).
    pub fn window(&self) -> Nanos {
        self.duration - self.warmup
    }

    /// A harness with these workers and this fault.
    pub fn harness(&self) -> Harness {
        Harness::new()
            .with_jobs(self.jobs)
            .with_fault(self.fault.clone())
    }

    /// A telemetry handle for one network of a repetition, live when
    /// `metrics` is on.
    pub fn telemetry(&self) -> Telemetry {
        if self.metrics {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        }
    }
}

impl Default for RunCfg {
    fn default() -> Self {
        RunCfg::new()
    }
}

/// One repetition, as [`run_seeds`] hands it to its body: the seed, and
/// the telemetry hubs of the networks the body runs.
pub struct Rep<'a> {
    /// The repetition's seed.
    pub seed: u64,
    cfg: &'a RunCfg,
    hubs: RefCell<Vec<Telemetry>>,
}

impl Rep<'_> {
    /// The hub of one network this repetition runs, from
    /// [`RunCfg::telemetry`]: attach it to that network
    /// ([`BuiltScenario::observe`](crate::scenario_file::BuiltScenario::observe)
    /// for a scenario). With metrics on, each hub is exported when the
    /// repetition completes.
    pub fn hub(&self) -> Telemetry {
        self.keep(self.cfg.telemetry())
    }

    /// [`hub`](Self::hub), live whatever the metrics setting, for a body
    /// that reads its network's counters.
    pub fn counting_hub(&self) -> Telemetry {
        self.keep(Telemetry::enabled())
    }

    fn keep(&self, tele: Telemetry) -> Telemetry {
        self.hubs.borrow_mut().push(tele.clone());
        tele
    }
}

/// Runs one experiment cell's repetition sweep through the orchestration
/// harness: `f` once per repetition, fanned across `cfg.jobs` worker
/// threads. Results come back in seed order regardless of completion
/// order, so parallel runs produce byte-identical artifacts; failed
/// repetitions (an `Err`, or a panicking simulation caught) are reported
/// on stderr and dropped from the returned set. A sweep point means
/// nothing without a repetition: when every one failed, the `Err` names
/// `experiment/cell` and the first repetition's error.
///
/// With `cfg.metrics` on, each completed repetition exports one snapshot
/// per hub it took from its [`Rep`] under `cfg.results_dir/metrics/`:
/// `<experiment>_<cell>_<config>_seed<seed>` (`.json` and `.csv`), with
/// `_net<i>` appended for the `i`-th of several networks. A snapshot
/// holds simulated quantities only, so a re-run exports the same bytes.
///
/// `experiment` and `cell`/`config` name the repetitions in logs, in the
/// snapshots' file names and for `WIFIQ_FAULT_CELL`.
pub fn run_seeds<T, F>(
    experiment: &str,
    cell: &str,
    config: &str,
    cfg: &RunCfg,
    f: F,
) -> Result<Vec<T>, String>
where
    T: Send,
    F: Fn(&Rep) -> Result<T, String> + Sync,
{
    // The cell path as a filesystem-safe snapshot name.
    let safe = |p: &str| p.replace(|c: char| !c.is_ascii_alphanumeric(), "_");
    let parts = [experiment, cell, config]
        .into_iter()
        .filter(|p| !p.is_empty());
    let name = parts.map(safe).collect::<Vec<_>>().join("_");
    let cells = cfg.seeds().map(|seed| CellDef::new(cell, config, seed));
    let outcome = cfg.harness().run(
        experiment,
        cfg.duration.as_nanos(),
        cells.collect(),
        |c: &CellDef| {
            let rep = Rep {
                seed: c.seed,
                cfg,
                hubs: RefCell::default(),
            };
            let result = f(&rep)?;
            if cfg.metrics {
                let snapshot = format!("{name}_seed{}", c.seed);
                export(cfg, &snapshot, c.seed, &rep.hubs.into_inner());
            }
            Ok(result)
        },
    );
    let summary = outcome.summary();
    if summary.failed > 0 {
        eprintln!(
            "warning: {experiment}/{cell}: {} of {} repetitions failed",
            summary.failed, summary.total
        );
    }
    if summary.ok == 0 {
        if let Some(err) = outcome.reports.iter().find_map(|r| r.error.as_deref()) {
            return Err(format!(
                "{experiment}/{cell}: every repetition failed: {err}"
            ));
        }
    }
    Ok(outcome.into_ok_results())
}

/// Exports one repetition's `hubs` under `cfg.results_dir/metrics/` as
/// `<snapshot>.json` and `.csv`, `_net<i>` appended to the `i`-th of
/// several. Export failures warn on stderr rather than aborting the
/// experiment.
fn export(cfg: &RunCfg, snapshot: &str, seed: u64, hubs: &[Telemetry]) {
    for (i, tele) in hubs.iter().enumerate() {
        let name = match hubs.len() {
            1 => snapshot.to_string(),
            _ => format!("{snapshot}_net{i}"),
        };
        if let Err(e) = tele.export(&cfg.results_dir.join("metrics"), &name, seed) {
            eprintln!("warning: failed to export metrics for {name}: {e}");
        }
    }
}

/// `bytes` delivered over a sim-time `window`, in bit/s.
pub fn bps(bytes: u64, window: Nanos) -> f64 {
    bytes as f64 * 8.0 / window.as_secs_f64()
}

/// `bytes` delivered over a sim-time `window`, in Mbit/s.
pub fn mbps(bytes: u64, window: Nanos) -> f64 {
    bps(bytes, window) / 1e6
}

/// Sim-time samples (ping RTTs, one-way delays) as milliseconds.
pub fn to_ms(samples: &[Nanos]) -> Vec<f64> {
    samples.iter().map(|s| s.as_millis_f64()).collect()
}

/// Median of a slice (empty → 0).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN"));
    v[v.len() / 2]
}

/// Mean of a slice (empty → 0).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_consecutive() {
        let cfg = RunCfg {
            reps: 3,
            base_seed: 10,
            ..RunCfg::new()
        };
        assert_eq!(cfg.seeds().collect::<Vec<_>>(), vec![10, 11, 12]);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
