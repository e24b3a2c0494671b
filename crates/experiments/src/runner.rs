//! Shared experiment-running machinery: the run configuration (the one
//! place the process environment is read), the harness bridge that fans
//! repetitions across worker threads, and meter arithmetic.

use std::path::PathBuf;

use wifiq_harness::{workspace_dir, CellDef, FaultSpec, Harness, JsonCodec, SweepMeta};
use wifiq_mac::StationMeter;
use wifiq_sim::Nanos;
use wifiq_telemetry::Telemetry;
use wifiq_traffic::{FlowHandle, TrafficApp};

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
    /// Seed of the first repetition (and of the scenario search).
    pub base_seed: u64,
    /// Smoke settings: the extension experiments run their reduced grids.
    pub quick: bool,
    /// Whether repetitions export telemetry snapshots (`results_dir/metrics/`).
    pub metrics: bool,
    /// Where artifacts, metric snapshots and the result cache are written.
    pub results_dir: PathBuf,
    /// Worker threads the repetition sweep fans out over.
    pub jobs: usize,
    /// Whether completed cells are cached under `results_dir` for resume.
    pub cache: bool,
    /// Fault injection into the harness cells.
    pub fault: Option<FaultSpec>,
}

impl RunCfg {
    /// Default: 5 repetitions × 30 s with a 5 s warm-up, single-threaded,
    /// cache and metrics off, artifacts in the workspace's `results/`.
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
            cache: false,
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
    /// - `WIFIQ_RESULTS_DIR` — relocate `results/` (cache included),
    /// - `WIFIQ_JOBS` — worker threads (default: available parallelism),
    /// - `WIFIQ_CACHE=0` — disable the content-addressed result cache,
    /// - `WIFIQ_FAULT_CELL=<substr>[:once]` — see [`FaultSpec::parse`].
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
        let flag = |name: &str, default: bool| match var(name).as_deref() {
            None => default,
            Some("0") => false,
            Some("1") => true,
            Some(raw) => {
                eprintln!("warning: ignoring {name}={raw:?}: not 0 or 1");
                default
            }
        };

        let mut cfg = RunCfg::new();
        cfg.quick = flag("WIFIQ_QUICK", false);
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
        cfg.metrics = flag("WIFIQ_METRICS", false);
        if let Some(dir) = var("WIFIQ_RESULTS_DIR") {
            cfg.results_dir = PathBuf::from(dir);
        }
        cfg.jobs = number("WIFIQ_JOBS", 1).map_or_else(wifiq_harness::default_jobs, |n| n as usize);
        cfg.cache = flag("WIFIQ_CACHE", true);
        cfg.fault = FaultSpec::parse(&var("WIFIQ_FAULT_CELL").unwrap_or_default());
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

    /// The identity every harness cell of `experiment` is keyed under:
    /// each field that changes what a cell computes or writes is here or,
    /// being per cell, in its [`CellDef`] (a repetition's seed, a `wifiq
    /// all` row's `reps`). Not the results directory: the cache is in it.
    pub fn sweep(&self, experiment: &str) -> SweepMeta {
        let salt = format!(
            "quick={},metrics={},base_seed={}",
            self.quick, self.metrics, self.base_seed
        );
        SweepMeta::new(experiment, self.duration.as_nanos(), self.warmup.as_nanos()).with_salt(salt)
    }

    /// A harness over `results_dir` with these workers, cache and fault.
    pub fn harness(&self) -> Harness {
        Harness::new(self.results_dir.clone())
            .with_jobs(self.jobs)
            .with_cache(self.cache)
            .with_fault(self.fault.clone())
    }

    /// A telemetry handle for one repetition, live when `metrics` is on.
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

/// One cell per repetition of `cfg`, in seed order.
pub(crate) fn seed_cells(cell: &str, config: &str, cfg: &RunCfg) -> Vec<CellDef> {
    cfg.seeds()
        .map(|seed| CellDef::new(cell, config, seed))
        .collect()
}

/// Runs one experiment cell's repetition sweep through the orchestration
/// harness: `f(seed)` once per repetition, fanned across `cfg.jobs` worker
/// threads, completed repetitions cached when `cfg.cache` is on. Results
/// come back in seed order regardless of completion order, so parallel
/// runs produce byte-identical artifacts; failed repetitions (a panicking
/// simulation is caught and retried once) are reported on stderr and
/// dropped from the returned set.
///
/// `experiment` and `cell`/`config` label the cell for the cache key: with
/// [`RunCfg::sweep`], everything that changes `f`'s output must be in them.
pub fn run_seeds<T, F>(experiment: &str, cell: &str, config: &str, cfg: &RunCfg, f: F) -> Vec<T>
where
    T: JsonCodec + Send,
    F: Fn(u64) -> T + Sync,
{
    let tele = cfg.telemetry();
    let outcome = cfg.harness().with_telemetry(tele.clone()).run(
        &cfg.sweep(experiment),
        seed_cells(cell, config, cfg),
        |c: &CellDef| Ok(f(c.seed)),
    );
    let summary = outcome.summary();
    if summary.failed > 0 {
        eprintln!(
            "warning: {experiment}/{cell}: {} of {} repetitions failed",
            summary.failed, summary.total
        );
    }
    // The cell path as a filesystem-safe snapshot name.
    let name = format!("harness_{experiment}_{cell}_{config}")
        .replace(|c: char| !c.is_ascii_alphanumeric(), "_");
    export_metrics(cfg, &tele, name.trim_matches('_'), cfg.base_seed);
    outcome.into_ok_results()
}

/// Exports one repetition's snapshot as `<name>.json` and `.csv` under
/// `cfg.results_dir/metrics/`. A disabled handle is a no-op; export
/// failures warn on stderr rather than aborting the experiment.
pub fn export_metrics(cfg: &RunCfg, tele: &Telemetry, name: &str, seed: u64) {
    if !tele.is_enabled() {
        return;
    }
    if let Err(e) = tele.export(&cfg.results_dir.join("metrics"), name, seed) {
        eprintln!("warning: failed to export metrics for {name}: {e}");
    }
}

/// Difference of two meter snapshots (`later − earlier`), for measuring a
/// window that excludes warm-up.
pub fn meter_delta(later: &StationMeter, earlier: &StationMeter) -> StationMeter {
    StationMeter {
        tx_airtime: later.tx_airtime - earlier.tx_airtime,
        rx_airtime: later.rx_airtime - earlier.rx_airtime,
        tx_frames: later.tx_frames - earlier.tx_frames,
        tx_bytes: later.tx_bytes - earlier.tx_bytes,
        rx_frames: later.rx_frames - earlier.rx_frames,
        rx_bytes: later.rx_bytes - earlier.rx_bytes,
        tx_aggregates: later.tx_aggregates - earlier.tx_aggregates,
        tx_aggregate_frames: later.tx_aggregate_frames - earlier.tx_aggregate_frames,
        failures: later.failures - earlier.failures,
        retry_drops: later.retry_drops - earlier.retry_drops,
    }
}

/// Per-station [`meter_delta`] of two whole-network snapshots
/// (`net.meter().all()` now, and as copied at the end of warm-up).
pub fn meter_window(later: &[StationMeter], earlier: &[StationMeter]) -> Vec<StationMeter> {
    later
        .iter()
        .zip(earlier)
        .map(|(l, e)| meter_delta(l, e))
        .collect()
}

/// Cumulative bytes each of `flows` (UDP floods, bulk TCP) has delivered,
/// in order: the goodput counterpart of `net.meter().all().to_vec()`,
/// copied at the end of warm-up for [`delivered_since`].
pub fn delivered_bytes(app: &TrafficApp, flows: &[FlowHandle]) -> Vec<u64> {
    flows.iter().map(|&h| app.delivered_bytes(h)).collect()
}

/// Bytes each of `flows` has delivered since the [`delivered_bytes`]
/// snapshot `earlier`: goodput over the same events the meter window
/// between the same two `run`s covers.
pub fn delivered_since(app: &TrafficApp, flows: &[FlowHandle], earlier: &[u64]) -> Vec<u64> {
    flows
        .iter()
        .zip(earlier)
        .map(|(&h, e)| app.delivered_bytes(h) - e)
        .collect()
}

/// `bytes` delivered over a sim-time `window`, in Mbit/s.
pub fn mbps(bytes: u64, window: Nanos) -> f64 {
    bytes as f64 * 8.0 / window.as_secs_f64() / 1e6
}

/// Sim-time samples (ping RTTs, one-way delays) as milliseconds.
pub fn to_ms(samples: &[Nanos]) -> Vec<f64> {
    samples.iter().map(|s| s.as_millis_f64()).collect()
}

/// Airtime shares over a set of meter windows.
pub fn shares_of(meters: &[StationMeter]) -> Vec<f64> {
    let total: f64 = meters
        .iter()
        .map(|m| m.total_airtime().as_nanos() as f64)
        .sum();
    if total == 0.0 {
        return vec![0.0; meters.len()];
    }
    meters
        .iter()
        .map(|m| m.total_airtime().as_nanos() as f64 / total)
        .collect()
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
    fn meter_delta_subtracts() {
        let a = StationMeter {
            tx_bytes: 100,
            tx_airtime: Nanos::from_millis(5),
            ..StationMeter::default()
        };
        let b = StationMeter {
            tx_bytes: 250,
            tx_airtime: Nanos::from_millis(9),
            ..a
        };
        let d = meter_delta(&b, &a);
        assert_eq!(d.tx_bytes, 150);
        assert_eq!(d.tx_airtime, Nanos::from_millis(4));
    }

    #[test]
    fn shares_normalise() {
        let a = StationMeter {
            tx_airtime: Nanos::from_millis(1),
            ..StationMeter::default()
        };
        let b = StationMeter {
            tx_airtime: Nanos::from_millis(3),
            ..StationMeter::default()
        };
        let s = shares_of(&[a, b]);
        assert!((s[0] - 0.25).abs() < 1e-12);
        assert!((s[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
