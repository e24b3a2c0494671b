//! Shared experiment-running machinery: repetition/warm-up configuration,
//! the harness bridge that fans repetitions across worker threads,
//! meter arithmetic, and the `WIFIQ_METRICS` telemetry gate.

use std::path::PathBuf;

use wifiq_harness::{CellDef, Harness, JsonCodec, SweepMeta};
use wifiq_mac::StationMeter;
use wifiq_sim::Nanos;
use wifiq_telemetry::Telemetry;

/// Repetition and duration settings for an experiment.
///
/// The paper uses 30 × 30 s for the testbed experiments and 5 × 300 s for
/// the 30-station test; those take a while in a discrete-event simulator,
/// so the defaults here are scaled down and can be overridden through the
/// environment:
///
/// - `WIFIQ_REPS` — repetitions (seed sweep),
/// - `WIFIQ_SECS` — seconds of simulated time per repetition,
/// - `WIFIQ_QUICK=1` — 1 × 10 s smoke settings,
/// - `WIFIQ_JOBS` — worker threads for the repetition sweep (default:
///   available parallelism),
/// - `WIFIQ_CACHE=0` — disable the content-addressed result cache.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// Number of repetitions; repetition `i` uses seed `base_seed + i`.
    pub reps: u64,
    /// Simulated duration of each repetition.
    pub duration: Nanos,
    /// Samples before this offset are discarded (TCP ramp-up etc.).
    pub warmup: Nanos,
    /// Seed of the first repetition.
    pub base_seed: u64,
    /// Worker threads the repetition sweep fans out over.
    pub jobs: usize,
    /// Whether completed repetitions are cached/journalled under
    /// `results/` for re-run and resume.
    pub cache: bool,
}

impl RunCfg {
    /// Default: 5 repetitions × 30 s with a 5 s warm-up, single-threaded,
    /// cache off — library and test callers get the exact historical
    /// behaviour unless they opt in.
    pub fn new() -> RunCfg {
        RunCfg {
            reps: 5,
            duration: Nanos::from_secs(30),
            warmup: Nanos::from_secs(5),
            base_seed: 1,
            jobs: 1,
            cache: false,
        }
    }

    /// Reads overrides from the environment (see type docs). The `wifiq`
    /// experiments go through here, so they additionally pick up the
    /// harness knobs: parallel repetitions and the result cache.
    pub fn from_env() -> RunCfg {
        let mut cfg = RunCfg::new();
        if quick() {
            cfg.reps = 1;
            cfg.duration = Nanos::from_secs(10);
            cfg.warmup = Nanos::from_secs(2);
        }
        if let Ok(r) = std::env::var("WIFIQ_REPS") {
            match r.parse::<u64>() {
                Ok(r) if r >= 1 => cfg.reps = r,
                _ => eprintln!("warning: ignoring WIFIQ_REPS={r:?}: not a positive integer"),
            }
        }
        if let Ok(s) = std::env::var("WIFIQ_SECS") {
            match s.parse::<u64>() {
                Ok(s) if s >= 2 => {
                    cfg.duration = Nanos::from_secs(s);
                    cfg.warmup = Nanos::from_secs((s / 6).max(1));
                }
                _ => eprintln!("warning: ignoring WIFIQ_SECS={s:?}: not an integer ≥ 2"),
            }
        }
        cfg.jobs = wifiq_harness::jobs_from_env();
        cfg.cache = wifiq_harness::cache_from_env();
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
}

impl Default for RunCfg {
    fn default() -> Self {
        RunCfg::new()
    }
}

/// Runs one experiment cell's repetition sweep through the orchestration
/// harness: `f(seed)` once per repetition, fanned across `cfg.jobs` worker
/// threads, with completed repetitions cached and journalled under
/// `results/` when `cfg.cache` is on. Results come back in seed order
/// regardless of completion order, so parallel runs produce byte-identical
/// artifacts; failed repetitions (a panicking simulation is caught and
/// retried once) are reported on stderr and dropped from the returned set.
///
/// `experiment` and `cell`/`config` label the cell for the cache key and
/// journal — everything that changes `f`'s output must be part of them.
pub fn run_seeds<T, F>(experiment: &str, cell: &str, config: &str, cfg: &RunCfg, f: F) -> Vec<T>
where
    T: JsonCodec + Send,
    F: Fn(u64) -> T + Sync,
{
    // Metrics export changes what a repetition does on disk, so a cached
    // non-metrics result must not satisfy a metrics run (or vice versa).
    let salt = format!("metrics={}", u8::from(metrics_enabled()));
    let sweep =
        SweepMeta::new(experiment, cfg.duration.as_nanos(), cfg.warmup.as_nanos()).with_salt(salt);
    let cells: Vec<CellDef> = cfg
        .seeds()
        .map(|seed| CellDef::new(cell, config, seed))
        .collect();
    let tele = metrics_telemetry();
    let outcome = Harness::from_env()
        .with_jobs(cfg.jobs)
        .with_cache(cfg.cache)
        .with_telemetry(tele.clone())
        .run(&sweep, cells, |c: &CellDef| Ok(f(c.seed)));
    let summary = outcome.summary();
    if summary.failed > 0 {
        eprintln!(
            "warning: {experiment}/{cell}: {} of {} repetitions failed",
            summary.failed, summary.total
        );
    }
    if tele.is_enabled() {
        let name = sanitize_name(&format!("harness_{experiment}_{cell}_{config}"));
        export_metrics(&tele, &name, cfg.base_seed);
    }
    outcome.into_ok_results()
}

/// Collapses a cell path into a filesystem-safe snapshot name.
fn sanitize_name(raw: &str) -> String {
    raw.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect::<String>()
        .trim_matches('_')
        .to_string()
}

/// Whether the smoke settings are on (`WIFIQ_QUICK=1`): 1 × 10 s for the
/// repetition sweeps, and the extension experiments' own reduced grids.
pub fn quick() -> bool {
    std::env::var("WIFIQ_QUICK").is_ok_and(|v| v == "1")
}

/// Whether metrics collection is enabled (`WIFIQ_METRICS=1`).
pub fn metrics_enabled() -> bool {
    std::env::var("WIFIQ_METRICS").is_ok_and(|v| v == "1")
}

/// A telemetry handle for one repetition: live when `WIFIQ_METRICS=1`,
/// otherwise the zero-cost disabled handle.
pub fn metrics_telemetry() -> Telemetry {
    if metrics_enabled() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    }
}

/// Where metric snapshots are written: `metrics/` under the results
/// directory (so `WIFIQ_RESULTS_DIR` relocates snapshots too).
pub fn metrics_dir() -> PathBuf {
    wifiq_harness::results_dir().join("metrics")
}

/// Exports one repetition's snapshot as `results/metrics/<name>.json` and
/// `.csv`. A disabled handle is a no-op; export failures warn on stderr
/// rather than aborting the experiment.
pub fn export_metrics(tele: &Telemetry, name: &str, seed: u64) {
    if !tele.is_enabled() {
        return;
    }
    if let Err(e) = tele.export(&metrics_dir(), name, seed) {
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
