//! # wifiq-harness
//!
//! Parallel experiment orchestration with fault isolation.
//!
//! The paper evaluation is every experiment (the rows of `wifiq`'s table)
//! × up to 30 repetitions; every repetition is an independent seed sweep
//! of a wall-clock-free discrete-event simulation, so each one is a
//! deterministic function of its configuration, its seed and the binary.
//! This crate decomposes that work into **cells** — one (experiment ×
//! cell-label × repetition-seed) simulation each — and executes each cell
//! exactly once on a `std::thread` pool, with two guarantees:
//!
//! 1. **Determinism** — results are returned in input cell order
//!    regardless of completion order, so parallel output is byte-identical
//!    to sequential output (`WIFIQ_JOBS=1` vs `=N`).
//! 2. **Fault isolation** — a panicking cell is caught (`catch_unwind`)
//!    and reported in the sweep summary without aborting the other cells.
//!    It is not retried: a deterministic cell that failed fails again. A
//!    wall-clock watchdog (budget scaled from the cell's simulated
//!    duration) flags runaway cells.
//!
//! Nothing is kept between runs: a re-run computes every cell again.
//!
//! This crate reads no environment: a [`Harness`] is configured by its
//! builder methods. `wifiq` fills them from the one value its
//! configuration is read into, `wifiq_experiments::RunCfg` (`from_env`
//! there lists the `WIFIQ_*` names).

mod pool;

use std::collections::HashSet;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Default worker count: available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// `<workspace root>/<name>`, the root found by walking up from the
/// current directory to the first one holding `Cargo.toml` and `crates/`;
/// plain `<name>` when there is no such directory.
pub fn workspace_dir(name: &str) -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("Cargo.toml").exists() && dir.join("crates").exists() {
            return dir.join(name);
        }
        if !dir.pop() {
            return PathBuf::from(name);
        }
    }
}

/// One schedulable cell of a sweep.
#[derive(Debug, Clone)]
pub struct CellDef {
    /// Cell label within the experiment (e.g. a scheme slug, or an
    /// experiment name under `wifiq all`).
    pub cell: String,
    /// Free-form configuration discriminator (variant flags, QoS marking…).
    pub config: String,
    /// Repetition seed.
    pub seed: u64,
}

impl CellDef {
    /// Creates a cell definition.
    pub fn new(cell: impl Into<String>, config: impl Into<String>, seed: u64) -> CellDef {
        CellDef {
            cell: cell.into(),
            config: config.into(),
            seed,
        }
    }

    /// `experiment/cell/config/seed` — the human-readable identity used in
    /// logs and fault-injection matching.
    pub fn path(&self, experiment: &str) -> String {
        format!("{experiment}/{}/{}/{}", self.cell, self.config, self.seed)
    }
}

/// Per-cell execution report.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// Cell label.
    pub cell: String,
    /// Wall-clock execution time.
    pub wall_ms: u64,
    /// What failed; `None` when the cell completed.
    pub error: Option<String>,
}

impl CellReport {
    /// True when the cell completed.
    pub fn ok(&self) -> bool {
        self.error.is_none()
    }
}

/// Aggregate counters over one sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepSummary {
    /// Total cells in the sweep.
    pub total: usize,
    /// Cells that completed.
    pub ok: usize,
    /// Cells that failed.
    pub failed: usize,
}

impl SweepSummary {
    /// The canonical one-line rendering, greppable by CI:
    /// `total=N ok=N failed=N`.
    pub fn line(&self) -> String {
        format!("total={} ok={} failed={}", self.total, self.ok, self.failed)
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
        let ok = self.reports.iter().filter(|r| r.ok()).count();
        SweepSummary {
            total: self.reports.len(),
            ok,
            failed: self.reports.len() - ok,
        }
    }

    /// The completed results in input order, dropping failed cells.
    pub fn into_ok_results(self) -> Vec<T> {
        self.results.into_iter().flatten().collect()
    }
}

/// The orchestrator: configuration + the cell execution engine.
#[derive(Debug)]
pub struct Harness {
    jobs: usize,
    budget: Option<Duration>,
    fault: Option<String>,
}

impl Harness {
    /// One worker, no fault injection.
    pub fn new() -> Harness {
        Harness {
            jobs: 1,
            budget: None,
            fault: None,
        }
    }

    /// Sets the worker count (clamped to ≥ 1).
    pub fn with_jobs(mut self, jobs: usize) -> Harness {
        self.jobs = jobs.max(1);
        self
    }

    /// Injects a panic into every cell whose `experiment/cell/config/seed`
    /// path contains `fault`.
    pub fn with_fault(mut self, fault: Option<String>) -> Harness {
        self.fault = fault;
        self
    }

    /// Overrides the per-cell wall-clock budget.
    pub fn with_budget(mut self, budget: Duration) -> Harness {
        self.budget = Some(budget);
        self
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

    /// Executes `cells` of `experiment` through the worker pool and
    /// returns results in input order. `f` runs once per cell; it must be
    /// deterministic in the cell definition for `WIFIQ_JOBS` invariance to
    /// hold. `duration_ns`, the simulated time of one cell, sizes the
    /// watchdog's budget.
    pub fn run<T, F>(
        &self,
        experiment: &str,
        duration_ns: u64,
        cells: Vec<CellDef>,
        f: F,
    ) -> SweepOutcome<T>
    where
        T: Send,
        F: Fn(&CellDef) -> Result<T, String> + Sync,
    {
        let n = cells.len();
        let mut slots: Vec<Option<(Option<T>, CellReport)>> = (0..n).map(|_| None).collect();
        let budget = self.cell_budget(duration_ns);
        let budget_exceeded = AtomicU64::new(0);
        let fault = self.fault.as_deref();
        let jobs = self.jobs.clamp(1, n.max(1));
        let cursor = pool::Cursor::new(n);
        let slots_m = Mutex::new(&mut slots);
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
                        let snap = *lock(slot);
                        if let Some((i, start)) = snap {
                            if start.elapsed() > budget && warned.insert(i) {
                                budget_exceeded.fetch_add(1, Ordering::Relaxed);
                                eprintln!(
                                    "warning: cell {} exceeded its {}s wall-clock budget \
                                     (still running)",
                                    cells[i].path(experiment),
                                    budget.as_secs()
                                );
                            }
                        }
                    }
                }
            });

            let workers: Vec<_> = active
                .iter()
                .map(|active_slot| {
                    let (cursor, cells, f, slots_m) = (&cursor, &cells, &f, &slots_m);
                    s.spawn(move || {
                        while let Some(i) = cursor.next() {
                            let cell = &cells[i];
                            let path = cell.path(experiment);
                            let started = Instant::now();
                            *lock(active_slot) = Some((i, started));
                            let attempt = attempt_cell(f, cell, &path, fault);
                            let wall_ms = started.elapsed().as_millis() as u64;
                            *lock(active_slot) = None;

                            let (result, error) = match attempt {
                                Ok(v) => (Some(v), None),
                                Err(e) => {
                                    eprintln!("warning: cell {path} failed: {e}");
                                    (None, Some(e))
                                }
                            };
                            let report = CellReport {
                                cell: cell.cell.clone(),
                                wall_ms,
                                error,
                            };
                            lock(slots_m)[i] = Some((result, report));
                        }
                    })
                })
                .collect();
            for h in workers {
                h.join()
                    .expect("a worker's cells panic inside catch_unwind");
            }
            done.store(true, Ordering::Release);
            watchdog.join().expect("the watchdog does not panic");
        });

        let (results, reports) = slots
            .into_iter()
            .map(|slot| slot.expect("every cell reported"))
            .unzip();
        SweepOutcome {
            results,
            reports,
            budget_exceeded: budget_exceeded.load(Ordering::Relaxed) as usize,
        }
    }
}

impl Default for Harness {
    fn default() -> Self {
        Harness::new()
    }
}

/// Locks one of a sweep's mutexes. None can be poisoned: a cell panics
/// inside `catch_unwind`, never while a lock is held.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("no thread panics holding a sweep lock")
}

/// One guarded run of a cell: fault injection, then `f` under
/// `catch_unwind` so a panicking cell is an error, not a crash.
fn attempt_cell<T, F>(f: &F, cell: &CellDef, path: &str, fault: Option<&str>) -> Result<T, String>
where
    F: Fn(&CellDef) -> Result<T, String>,
{
    let inject = fault.is_some_and(|needle| path.contains(needle));
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
    use std::sync::atomic::AtomicUsize;

    const SEC: u64 = 1_000_000_000;

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
        let serial = Harness::new()
            .with_jobs(1)
            .run("det", SEC, cells(13), compute);
        let parallel = Harness::new()
            .with_jobs(4)
            .run("det", SEC, cells(13), compute);
        assert_eq!(serial.results, parallel.results);
        assert!(serial.results.iter().all(Option::is_some));
        assert_eq!(parallel.summary().ok, 13);
    }

    #[test]
    fn panicking_cell_runs_once_then_is_reported() {
        let runs = AtomicUsize::new(0);
        let out = Harness::new()
            .with_jobs(2)
            .run("panic", SEC, cells(4), |cell: &CellDef| {
                if cell.seed == 2 {
                    runs.fetch_add(1, Ordering::Relaxed);
                    panic!("cell exploded");
                }
                compute(cell)
            });
        assert_eq!(runs.load(Ordering::Relaxed), 1, "no retry");
        assert_eq!(out.summary().line(), "total=4 ok=3 failed=1");
        let failed = &out.reports[2];
        assert!(!failed.ok());
        assert!(failed.error.as_deref().unwrap().contains("cell exploded"));
        assert!(out.results[2].is_none());
        assert!(out.results[0].is_some() && out.results[3].is_some());
    }

    #[test]
    fn env_fault_injection_targets_matching_cells_only() {
        let out = Harness::new()
            .with_jobs(1)
            .with_fault(Some("fault_env_exp/cell/cfg/0".into()))
            .run("fault_env_exp", SEC, cells(2), compute);
        let error = out.reports[0].error.as_deref().unwrap();
        assert!(error.contains("injected fault"), "{error}");
        assert!(out.reports[1].ok(), "non-matching cell untouched");
    }

    #[test]
    fn budget_override_parses_one_way() {
        let secs = Duration::from_secs;
        // No override: the simulated duration decides.
        let h = Harness::new();
        assert_eq!(h.cell_budget(10 * SEC), secs(200));
        assert_eq!(h.with_budget(secs(7)).cell_budget(0), secs(7));
    }

    #[test]
    fn watchdog_flags_cells_over_budget() {
        let out = Harness::new()
            .with_jobs(1)
            .with_budget(Duration::from_millis(10))
            .run("budget", SEC, cells(1), |cell: &CellDef| {
                std::thread::sleep(Duration::from_millis(300));
                compute(cell)
            });
        assert_eq!(out.budget_exceeded, 1);
        assert!(out.reports[0].ok(), "overrun is advisory");
    }

    #[test]
    fn default_budget_scales_with_duration() {
        let h = Harness::new();
        assert_eq!(h.cell_budget(SEC), Duration::from_secs(120));
        assert_eq!(h.cell_budget(30 * SEC), Duration::from_secs(600));
    }
}
