//! # wifiq-harness
//!
//! Parallel, cached, resumable experiment orchestration.
//!
//! The paper evaluation is 23 experiments (the rows of `wifiq`'s table)
//! × up to 30 repetitions; every repetition is an independent seed sweep
//! of a wall-clock-free discrete-event simulation. This crate decomposes that work into
//! **cells** — one (experiment × cell-label × repetition-seed) simulation
//! each — and executes them on a `std::thread` pool, with
//! three guarantees layered on top:
//!
//! 1. **Determinism** — results are returned in input cell order
//!    regardless of completion order, so parallel output is byte-identical
//!    to sequential output (`WIFIQ_JOBS=1` vs `=N`).
//! 2. **Caching + resume** — each completed cell is stored content-addressed
//!    under `results/cache/<sha256(key)>.json`, written to a temp name and
//!    atomically renamed. That file is the one record of done: a re-run
//!    (or a run resumed after a crash/Ctrl-C) replays exactly the cells
//!    whose file is missing, holds another key document, or does not
//!    decode. The key covers the full cell configuration, seed,
//!    duration, and a build fingerprint of the binary (there is one,
//!    `wifiq`, so it is always the binary that computes the cell), so
//!    code or config changes invalidate what they affect.
//! 3. **Fault isolation** — a panicking cell is caught (`catch_unwind`),
//!    retried once, and on second failure reported in the sweep summary
//!    without aborting the other cells. A wall-clock watchdog (budget
//!    scaled from the cell's simulated duration) flags runaway cells.
//!
//! This crate reads no environment: a [`Harness`] is configured by its
//! builder methods. `wifiq` fills them from the one value its
//! configuration is read into, `wifiq_experiments::RunCfg` (`from_env`
//! there lists the `WIFIQ_*` names).
//!
//! Per-sweep cell counters (total/ok/failed, cache hits/misses, retries,
//! budget overruns, per-cell wall time) are recorded into a
//! [`wifiq_telemetry::Telemetry`] handle when one is attached.

mod codec;
mod key;
pub mod pool;
mod sha256;
mod store;

use std::collections::HashSet;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use serde::Json;
use wifiq_telemetry::{Label, Telemetry};

pub use codec::JsonCodec;
pub use key::{binary_fingerprint, cell_key_hash, cell_key_json, CellDef, SweepMeta};
pub use pool::Cursor;
pub use sha256::sha256_hex;
pub use store::workspace_dir;

/// Default worker count: available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Fault injection: panic any cell whose `experiment/cell/config/seed`
/// path contains a needle.
#[derive(Debug, Clone)]
pub struct FaultSpec {
    needle: String,
    once: bool,
}

impl FaultSpec {
    /// Parses `<substr>[:once]`; `:once` limits the panic to the first
    /// attempt, exercising the retry path end to end. Empty is no fault.
    pub fn parse(raw: &str) -> Option<FaultSpec> {
        if raw.is_empty() {
            return None;
        }
        let (needle, once) = match raw.strip_suffix(":once") {
            Some(prefix) => (prefix, true),
            None => (raw, false),
        };
        Some(FaultSpec {
            needle: needle.to_string(),
            once,
        })
    }

    fn matches(&self, path: &str, attempt: u32) -> bool {
        path.contains(&self.needle) && (!self.once || attempt == 0)
    }
}

/// Completion status of one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStatus {
    /// Completed (fresh or from cache).
    Ok,
    /// Failed after the retry.
    Failed,
}

/// Per-cell execution report.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// Cell label.
    pub cell: String,
    /// Config discriminator.
    pub config: String,
    /// Repetition seed.
    pub seed: u64,
    /// Content-addressed key (hex).
    pub key: String,
    /// Completion status.
    pub status: CellStatus,
    /// Whether the result was served from the cache.
    pub cached: bool,
    /// Wall-clock execution time (0 for cache hits).
    pub wall_ms: u64,
    /// Retries consumed (0 or 1).
    pub retries: u32,
    /// Failure description when `status == Failed`.
    pub error: Option<String>,
}

impl CellReport {
    /// True when the cell completed.
    pub fn ok(&self) -> bool {
        self.status == CellStatus::Ok
    }
}

/// Aggregate counters over one sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepSummary {
    /// Total cells in the sweep.
    pub total: usize,
    /// Cells that completed.
    pub ok: usize,
    /// Cells that failed after retry.
    pub failed: usize,
    /// Cells served from cache.
    pub cached: usize,
    /// Total retries consumed.
    pub retries: usize,
    /// Cells that overran their wall-clock budget.
    pub budget_exceeded: usize,
}

impl SweepSummary {
    /// The canonical one-line rendering, greppable by CI:
    /// `total=N ok=N failed=N cached=N retries=N`.
    pub fn line(&self) -> String {
        format!(
            "total={} ok={} failed={} cached={} retries={}",
            self.total, self.ok, self.failed, self.cached, self.retries
        )
    }
}

/// Outcome of [`Harness::run`]: per-cell results in input order plus
/// execution reports.
#[derive(Debug)]
pub struct SweepOutcome<T> {
    /// One slot per input cell, in input order; `None` for failed cells.
    pub results: Vec<Option<T>>,
    /// One report per input cell, in input order.
    pub reports: Vec<CellReport>,
    /// Cells flagged by the wall-clock watchdog.
    pub budget_exceeded: usize,
}

impl<T> SweepOutcome<T> {
    /// Aggregate counters.
    pub fn summary(&self) -> SweepSummary {
        let mut s = SweepSummary {
            total: self.reports.len(),
            ..SweepSummary::default()
        };
        for r in &self.reports {
            if r.ok() {
                s.ok += 1;
            } else {
                s.failed += 1;
            }
            if r.cached {
                s.cached += 1;
            }
            s.retries += r.retries as usize;
        }
        s.budget_exceeded = self.budget_exceeded;
        s
    }

    /// The completed results in input order, dropping failed cells.
    pub fn into_ok_results(self) -> Vec<T> {
        self.results.into_iter().flatten().collect()
    }
}

/// The orchestrator: configuration + the cell execution engine.
#[derive(Debug)]
pub struct Harness {
    root: PathBuf,
    jobs: usize,
    cache: bool,
    budget: Option<Duration>,
    telemetry: Telemetry,
    fingerprint: String,
    fault: Option<FaultSpec>,
}

impl Harness {
    /// A harness rooted at a results directory (the cache lives under
    /// it): one worker, cache off, no fault injection.
    pub fn new(root: PathBuf) -> Harness {
        Harness {
            root,
            jobs: 1,
            cache: false,
            budget: None,
            telemetry: Telemetry::disabled(),
            fingerprint: binary_fingerprint().to_string(),
            fault: None,
        }
    }

    /// Sets the worker count (clamped to ≥ 1).
    pub fn with_jobs(mut self, jobs: usize) -> Harness {
        self.jobs = jobs.max(1);
        self
    }

    /// Enables or disables the result cache.
    pub fn with_cache(mut self, cache: bool) -> Harness {
        self.cache = cache;
        self
    }

    /// Injects a panic into the cells `fault` matches.
    pub fn with_fault(mut self, fault: Option<FaultSpec>) -> Harness {
        self.fault = fault;
        self
    }

    /// Attaches a telemetry handle; sweep counters are recorded into it
    /// (on the calling thread, after the pool joins).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Harness {
        self.telemetry = telemetry;
        self
    }

    /// Overrides the per-cell wall-clock budget.
    pub fn with_budget(mut self, budget: Duration) -> Harness {
        self.budget = Some(budget);
        self
    }

    /// Overrides the binary fingerprint folded into cache keys.
    pub fn with_fingerprint(mut self, fingerprint: impl Into<String>) -> Harness {
        self.fingerprint = fingerprint.into();
        self
    }

    /// The cache directory: `<root>/cache/`.
    pub fn cache_dir(&self) -> PathBuf {
        self.root.join("cache")
    }

    /// The wall-clock budget for a cell simulating `duration_ns`: the
    /// [`with_budget`](Harness::with_budget) override, else 20× the
    /// simulated duration with a 120 s floor. The simulator runs much
    /// faster than real time, so an overrun signals a hang, not a slow
    /// machine.
    pub fn cell_budget(&self, duration_ns: u64) -> Duration {
        self.budget.unwrap_or_else(|| {
            Duration::from_secs((duration_ns / 1_000_000_000).saturating_mul(20).max(120))
        })
    }

    /// Executes `cells` through the worker pool and returns results in
    /// input order. `f` runs once per non-cached cell (twice if the first
    /// attempt panics or errors); it must be deterministic in the cell
    /// definition for caching and `WIFIQ_JOBS` invariance to hold.
    pub fn run<T, F>(&self, sweep: &SweepMeta, cells: Vec<CellDef>, f: F) -> SweepOutcome<T>
    where
        T: JsonCodec + Send,
        F: Fn(&CellDef) -> Result<T, String> + Sync,
    {
        let n = cells.len();
        let key_docs: Vec<Json> = cells
            .iter()
            .map(|c| cell_key_json(sweep, c, &self.fingerprint))
            .collect();
        let keys: Vec<String> = key_docs
            .iter()
            .map(|d| sha256_hex(d.compact().as_bytes()))
            .collect();

        let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let mut reports: Vec<Option<CellReport>> = (0..n).map(|_| None).collect();
        let report = |i: usize, cached, wall_ms, retries, error: Option<String>| CellReport {
            cell: cells[i].cell.clone(),
            config: cells[i].config.clone(),
            seed: cells[i].seed,
            key: keys[i].clone(),
            status: match error {
                None => CellStatus::Ok,
                Some(_) => CellStatus::Failed,
            },
            cached,
            wall_ms,
            retries,
            error,
        };

        // Resolve cache hits up front. The cache file is the record of
        // done: present, key document equal, payload decodes.
        let mut pending: Vec<usize> = Vec::new();
        for i in 0..n {
            let hit = self.cache
                && store::cache_load(&self.cache_dir(), &keys[i], &key_docs[i])
                    .and_then(|out| T::decode(&out))
                    .map(|v| results[i] = Some(v))
                    .is_some();
            if hit {
                reports[i] = Some(report(i, true, 0, 0, None));
            } else {
                pending.push(i);
            }
        }

        let budget = self.cell_budget(sweep.duration_ns);
        let budget_exceeded = AtomicU64::new(0);
        if !pending.is_empty() {
            // Workers must not capture `self`: the attached Telemetry is
            // Rc-based (!Sync). Hoist the Sync pieces they need.
            let cache_enabled = self.cache;
            let cache_dir = self.cache_dir();
            let fault = self.fault.as_ref();
            let jobs = self.jobs.clamp(1, pending.len());
            let cursor = pool::Cursor::new(pending.len());
            let results_m = Mutex::new(&mut results);
            let reports_m = Mutex::new(&mut reports);
            let active: Vec<Mutex<Option<(usize, Instant)>>> =
                (0..jobs).map(|_| Mutex::new(None)).collect();
            let done = AtomicBool::new(false);

            std::thread::scope(|s| {
                // Watchdog: flags cells that exceed their wall-clock budget.
                let watchdog = s.spawn(|| {
                    let mut warned: HashSet<usize> = HashSet::new();
                    while !done.load(Ordering::Acquire) {
                        std::thread::sleep(Duration::from_millis(25));
                        for slot in &active {
                            let snap = *slot.lock().unwrap();
                            if let Some((i, start)) = snap {
                                if start.elapsed() > budget && warned.insert(i) {
                                    budget_exceeded.fetch_add(1, Ordering::Relaxed);
                                    eprintln!(
                                        "warning: cell {} exceeded its {}s wall-clock budget \
                                         (still running)",
                                        cells[i].path(&sweep.experiment),
                                        budget.as_secs()
                                    );
                                }
                            }
                        }
                    }
                });

                let workers: Vec<_> = (0..jobs)
                    .map(|w| {
                        let cursor = &cursor;
                        let pending = &pending;
                        let cells = &cells;
                        let keys = &keys;
                        let key_docs = &key_docs;
                        let report = &report;
                        let f = &f;
                        let results_m = &results_m;
                        let reports_m = &reports_m;
                        let active_slot = &active[w];
                        let cache_dir = &cache_dir;
                        s.spawn(move || {
                            while let Some(i) = cursor.next().map(|k| pending[k]) {
                                let cell = &cells[i];
                                let path = cell.path(&sweep.experiment);
                                *active_slot.lock().unwrap() = Some((i, Instant::now()));
                                let started = Instant::now();
                                let mut retries = 0u32;
                                let mut attempt = attempt_cell(f, cell, &path, fault, 0);
                                if attempt.is_err() {
                                    retries = 1;
                                    attempt = attempt_cell(f, cell, &path, fault, 1);
                                }
                                let wall_ms = started.elapsed().as_millis() as u64;
                                *active_slot.lock().unwrap() = None;

                                let error = match attempt {
                                    Ok(v) => {
                                        if cache_enabled {
                                            if let Err(e) = store::cache_store(
                                                cache_dir,
                                                &keys[i],
                                                &key_docs[i],
                                                &v.encode(),
                                            ) {
                                                eprintln!("warning: cannot cache cell {path}: {e}");
                                            }
                                        }
                                        results_m.lock().unwrap()[i] = Some(v);
                                        None
                                    }
                                    Err(e) => {
                                        eprintln!("warning: cell {path} failed after retry: {e}");
                                        Some(e)
                                    }
                                };
                                reports_m.lock().unwrap()[i] =
                                    Some(report(i, false, wall_ms, retries, error));
                            }
                        })
                    })
                    .collect();
                for h in workers {
                    let _ = h.join();
                }
                done.store(true, Ordering::Release);
                let _ = watchdog.join();
            });
        }

        let reports: Vec<CellReport> = reports
            .into_iter()
            .map(|r| r.expect("every cell reported"))
            .collect();
        let outcome = SweepOutcome {
            results,
            reports,
            budget_exceeded: budget_exceeded.load(Ordering::Relaxed) as usize,
        };
        self.record_telemetry(&outcome);
        outcome
    }

    /// Records sweep counters into the attached telemetry handle
    /// (component `harness`, all `Label::Global`).
    fn record_telemetry<T>(&self, outcome: &SweepOutcome<T>) {
        let tele = &self.telemetry;
        if !tele.is_enabled() {
            return;
        }
        let s = outcome.summary();
        tele.count("harness", "cells_total", Label::Global, s.total as u64);
        tele.count("harness", "cells_ok", Label::Global, s.ok as u64);
        tele.count("harness", "cells_failed", Label::Global, s.failed as u64);
        tele.count("harness", "cache_hits", Label::Global, s.cached as u64);
        tele.count(
            "harness",
            "cache_misses",
            Label::Global,
            (s.total - s.cached) as u64,
        );
        tele.count("harness", "retries", Label::Global, s.retries as u64);
        tele.count(
            "harness",
            "budget_exceeded",
            Label::Global,
            s.budget_exceeded as u64,
        );
        for r in &outcome.reports {
            tele.observe_value("harness", "cell_wall_ms", Label::Global, r.wall_ms);
        }
    }
}

/// One guarded attempt at a cell: fault injection, then `f` under
/// `catch_unwind` so a panicking cell is an error, not a crash.
fn attempt_cell<T, F>(
    f: &F,
    cell: &CellDef,
    path: &str,
    fault: Option<&FaultSpec>,
    attempt: u32,
) -> Result<T, String>
where
    F: Fn(&CellDef) -> Result<T, String>,
{
    let inject = fault.is_some_and(|spec| spec.matches(path, attempt));
    match std::panic::catch_unwind(AssertUnwindSafe(|| {
        if inject {
            panic!("injected fault (WIFIQ_FAULT_CELL)");
        }
        f(cell)
    })) {
        Ok(inner) => inner,
        Err(payload) => Err(format!("panicked: {}", panic_message(payload.as_ref()))),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;
    use std::sync::atomic::AtomicUsize;

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("wifiq_harness_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn harness(root: &Path) -> Harness {
        Harness::new(root.to_path_buf()).with_fingerprint("test-fp")
    }

    fn cells(n: u64) -> Vec<CellDef> {
        (0..n).map(|s| CellDef::new("cell", "cfg", s)).collect()
    }

    /// A deterministic per-seed payload with enough work to interleave.
    fn compute(cell: &CellDef) -> Result<(f64, Vec<f64>), String> {
        std::thread::sleep(Duration::from_millis(1 + cell.seed % 3));
        let x = (cell.seed as f64 + 1.0).sqrt();
        Ok((x, vec![x * 0.5, x * 0.25, 1.0 / (x + 1.0)]))
    }

    #[test]
    fn parallel_results_match_sequential_in_input_order() {
        let root = tmp("determinism");
        let sweep = SweepMeta::new("det", 1_000_000_000, 0);
        let serial = harness(&root)
            .with_cache(false)
            .with_jobs(1)
            .run(&sweep, cells(13), compute);
        let parallel =
            harness(&root)
                .with_cache(false)
                .with_jobs(4)
                .run(&sweep, cells(13), compute);
        assert_eq!(serial.results, parallel.results);
        assert!(serial.results.iter().all(Option::is_some));
        assert_eq!(parallel.summary().ok, 13);
        assert_eq!(parallel.summary().cached, 0);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn second_run_is_served_entirely_from_cache() {
        let root = tmp("cache");
        let sweep = SweepMeta::new("cached", 1_000_000_000, 0);
        let executions = AtomicUsize::new(0);
        let f = |cell: &CellDef| {
            executions.fetch_add(1, Ordering::Relaxed);
            compute(cell)
        };
        let first = harness(&root)
            .with_cache(true)
            .with_jobs(4)
            .run(&sweep, cells(8), f);
        assert_eq!(executions.load(Ordering::Relaxed), 8);
        assert_eq!(first.summary().cached, 0);

        let second = harness(&root)
            .with_cache(true)
            .with_jobs(4)
            .run(&sweep, cells(8), f);
        assert_eq!(
            executions.load(Ordering::Relaxed),
            8,
            "second run must not execute any cell"
        );
        assert_eq!(second.summary().cached, 8);
        assert_eq!(second.summary().ok, 8);
        assert_eq!(
            first.results, second.results,
            "cached results must round-trip exactly"
        );
        let _ = std::fs::remove_dir_all(root);
    }

    /// The seeds `f` is called for when `cells(6)` re-runs over `root`.
    fn replayed(root: &Path, sweep: &SweepMeta) -> Vec<u64> {
        let executed = Mutex::new(Vec::new());
        let out =
            harness(root)
                .with_cache(true)
                .with_jobs(1)
                .run(sweep, cells(6), |cell: &CellDef| {
                    executed.lock().unwrap().push(cell.seed);
                    compute(cell)
                });
        assert_eq!(out.summary().ok, 6);
        assert!(out.results.iter().all(Option::is_some));
        let mut executed = executed.into_inner().unwrap();
        executed.sort_unstable();
        assert_eq!(out.summary().cached, 6 - executed.len());
        executed
    }

    #[test]
    fn deleting_three_cache_files_replays_exactly_those_three_cells() {
        let root = tmp("resume");
        let sweep = SweepMeta::new("resume", 1_000_000_000, 0);
        let first = harness(&root)
            .with_cache(true)
            .with_jobs(1)
            .run(&sweep, cells(6), compute);

        // Simulate a killed run: the last three cells never finished.
        for report in &first.reports[3..] {
            std::fs::remove_file(root.join(format!("cache/{}.json", report.key))).unwrap();
        }
        assert_eq!(replayed(&root, &sweep), vec![3, 4, 5]);
        assert_eq!(replayed(&root, &sweep), vec![], "and then they are done");
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn a_truncated_or_key_mismatched_cache_file_is_a_miss_not_an_error() {
        let root = tmp("badcache");
        let sweep = SweepMeta::new("badcache", 1_000_000_000, 0);
        let first = harness(&root)
            .with_cache(true)
            .with_jobs(1)
            .run(&sweep, cells(6), compute);
        let file = |i: usize| root.join(format!("cache/{}.json", first.reports[i].key));

        // Cell 1: torn mid-write. Cell 2: valid JSON, payload of another
        // type. Cell 4: another cell's document under this cell's name.
        let text = std::fs::read_to_string(file(1)).unwrap();
        std::fs::write(file(1), &text[..text.len() / 2]).unwrap();
        std::fs::write(
            file(2),
            text.replace("\"output\": [", "\"output\": [true, "),
        )
        .unwrap();
        std::fs::copy(file(5), file(4)).unwrap();
        assert_eq!(replayed(&root, &sweep), vec![1, 2, 4]);
        assert_eq!(replayed(&root, &sweep), vec![], "the replay repaired them");
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn panicking_cell_is_retried_once_then_reported() {
        let root = tmp("panic");
        let sweep = SweepMeta::new("panic", 1_000_000_000, 0);
        let out = harness(&root).with_cache(false).with_jobs(2).run(
            &sweep,
            cells(4),
            |cell: &CellDef| {
                if cell.seed == 2 {
                    panic!("cell exploded");
                }
                compute(cell)
            },
        );
        let s = out.summary();
        assert_eq!((s.ok, s.failed, s.retries), (3, 1, 1));
        let failed = &out.reports[2];
        assert_eq!(failed.status, CellStatus::Failed);
        assert_eq!(failed.retries, 1);
        assert!(failed.error.as_deref().unwrap().contains("cell exploded"));
        assert!(out.results[2].is_none());
        assert!(out.results[0].is_some() && out.results[3].is_some());
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn flaky_cell_succeeds_on_retry() {
        let root = tmp("flaky");
        let sweep = SweepMeta::new("flaky", 1_000_000_000, 0);
        let attempts = AtomicUsize::new(0);
        let out = harness(&root).with_cache(false).with_jobs(1).run(
            &sweep,
            cells(1),
            |cell: &CellDef| {
                if attempts.fetch_add(1, Ordering::Relaxed) == 0 {
                    panic!("transient");
                }
                compute(cell)
            },
        );
        assert_eq!(out.reports[0].status, CellStatus::Ok);
        assert_eq!(out.reports[0].retries, 1);
        assert_eq!(
            out.summary().line(),
            "total=1 ok=1 failed=0 cached=0 retries=1"
        );
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn env_fault_injection_targets_matching_cells_only() {
        let root = tmp("fault");
        let h = harness(&root)
            .with_jobs(1)
            .with_fault(FaultSpec::parse("fault_env_exp/cell/cfg/0:once"));
        let sweep = SweepMeta::new("fault_env_exp", 1_000_000_000, 0);
        let out = h.run(&sweep, cells(2), compute);
        assert_eq!(out.reports[0].status, CellStatus::Ok);
        assert_eq!(out.reports[0].retries, 1, "faulted cell recovers on retry");
        assert_eq!(out.reports[1].retries, 0, "non-matching cell untouched");
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn budget_override_parses_one_way() {
        let secs = Duration::from_secs;
        // No override: the simulated duration decides.
        let h = Harness::new(PathBuf::from("unused"));
        assert_eq!(h.cell_budget(10_000_000_000), secs(200));
        assert_eq!(h.with_budget(secs(7)).cell_budget(0), secs(7));
    }

    #[test]
    fn watchdog_flags_cells_over_budget() {
        let root = tmp("budget");
        let sweep = SweepMeta::new("budget", 1_000_000_000, 0);
        let out = harness(&root)
            .with_cache(false)
            .with_jobs(1)
            .with_budget(Duration::from_millis(10))
            .run(&sweep, cells(1), |cell: &CellDef| {
                std::thread::sleep(Duration::from_millis(300));
                compute(cell)
            });
        assert_eq!(out.budget_exceeded, 1);
        assert_eq!(out.reports[0].status, CellStatus::Ok, "overrun is advisory");
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn telemetry_counters_record_the_sweep() {
        let root = tmp("telemetry");
        let tele = Telemetry::enabled();
        let sweep = SweepMeta::new("tele", 1_000_000_000, 0);
        harness(&root)
            .with_cache(true)
            .with_jobs(2)
            .with_telemetry(tele.clone())
            .run(&sweep, cells(5), compute);
        assert_eq!(tele.counter("harness", "cells_total", Label::Global), 5);
        assert_eq!(tele.counter("harness", "cells_ok", Label::Global), 5);
        assert_eq!(tele.counter("harness", "cache_misses", Label::Global), 5);
        // Second run: 5 hits on top.
        harness(&root)
            .with_cache(true)
            .with_jobs(2)
            .with_telemetry(tele.clone())
            .run(&sweep, cells(5), compute);
        assert_eq!(tele.counter("harness", "cells_total", Label::Global), 10);
        assert_eq!(tele.counter("harness", "cache_hits", Label::Global), 5);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn default_budget_scales_with_duration() {
        let h = Harness::new(PathBuf::from("/nonexistent"));
        assert_eq!(h.cell_budget(1_000_000_000), Duration::from_secs(120));
        assert_eq!(h.cell_budget(30_000_000_000), Duration::from_secs(600));
    }
}
