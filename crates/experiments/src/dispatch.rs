//! The row type of the `wifiq` experiment table and the `wifiq all` driver.
//!
//! The table itself (`EXPERIMENTS`) lives in `src/bin/wifiq.rs`: the root
//! package is the only one that can name every row, because
//! `wifiq-search` depends on this crate.

use wifiq_harness::{CellDef, Harness, SweepMeta, SweepOutcome};

use crate::runner::{metrics_enabled, quick, RunCfg};

/// One experiment: a `wifiq <name>` subcommand and a cell of `wifiq all`.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Subcommand name.
    pub name: &'static str,
    /// Repetitions when `WIFIQ_REPS` is unset, where the experiment's own
    /// default differs from [`RunCfg::from_env`]'s.
    pub default_reps: Option<u64>,
    /// The one variant flag the subcommand accepts (see
    /// [`parse_flag`](crate::report::parse_flag)).
    pub flag: Option<&'static str>,
    /// Runs the experiment: writes its artifacts under `results/` and
    /// returns its report, or what failed. `args` are the subcommand's
    /// arguments, already checked against `flag`.
    pub run: fn(&RunCfg, &[String]) -> Result<String, String>,
}

impl Experiment {
    /// A row with neither a repetition default of its own nor a flag.
    pub const fn new(
        name: &'static str,
        run: fn(&RunCfg, &[String]) -> Result<String, String>,
    ) -> Experiment {
        Experiment {
            name,
            default_reps: None,
            flag: None,
            run,
        }
    }

    /// `base` with this row's repetition default applied. An explicit
    /// `WIFIQ_REPS` wins; `WIFIQ_QUICK` does not (the 30-station figures
    /// have always run their 3 repetitions in smoke mode too).
    pub fn cfg(&self, base: &RunCfg) -> RunCfg {
        match self.default_reps {
            Some(reps) if std::env::var("WIFIQ_REPS").is_err() => RunCfg { reps, ..*base },
            _ => *base,
        }
    }
}

/// Runs every row of `table` as one harness cell — cached, journalled,
/// panic-isolated and retried once like any other cell — and returns the
/// reports in table order. Each cell runs its row's default variant with
/// `jobs = 1`: the parallelism is across experiments, not within them.
pub fn run_table(table: &[Experiment], cfg: &RunCfg, harness: &Harness) -> SweepOutcome<String> {
    // A cached report stands for the artifacts its run wrote, so everything
    // that changes either is in the key: duration and warm-up in the sweep,
    // `reps` per cell because it is per row. Not the results directory —
    // the cache lives inside it, so another directory is another cache.
    let salt = format!(
        "quick={},metrics={},base_seed={}",
        quick(),
        metrics_enabled(),
        cfg.base_seed,
    );
    let sweep =
        SweepMeta::new("all", cfg.duration.as_nanos(), cfg.warmup.as_nanos()).with_salt(salt);
    let cell_cfg = |e: &Experiment| RunCfg {
        jobs: 1,
        ..e.cfg(cfg)
    };
    let cells = table
        .iter()
        .map(|e| CellDef::new(e.name, format!("reps={}", cell_cfg(e).reps), 0))
        .collect();
    harness.run(&sweep, cells, |cell: &CellDef| {
        let e = table
            .iter()
            .find(|e| e.name == cell.cell)
            .expect("cells are built from the table");
        (e.run)(&cell_cfg(e), &[])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Attempts per stub, in table order; the largest `jobs` any was handed.
    static ATTEMPTS: [AtomicUsize; 4] = [const { AtomicUsize::new(0) }; 4];
    static JOBS_SEEN: AtomicUsize = AtomicUsize::new(0);

    /// Notes one attempt at stub `row` and returns how many came before.
    fn attempt(row: usize, cfg: &RunCfg) -> usize {
        JOBS_SEEN.fetch_max(cfg.jobs, Ordering::Relaxed);
        ATTEMPTS[row].fetch_add(1, Ordering::Relaxed)
    }

    fn ok(cfg: &RunCfg, _: &[String]) -> Result<String, String> {
        attempt(0, cfg);
        Ok("first report\n".into())
    }

    fn gate(cfg: &RunCfg, _: &[String]) -> Result<String, String> {
        attempt(1, cfg);
        Err("gate".into())
    }

    fn always_panics(cfg: &RunCfg, _: &[String]) -> Result<String, String> {
        attempt(2, cfg);
        panic!("boom every time");
    }

    fn panics_once(cfg: &RunCfg, _: &[String]) -> Result<String, String> {
        if attempt(3, cfg) == 0 {
            panic!("boom once");
        }
        Ok("fourth report\n".into())
    }

    /// `wifiq all`'s fault isolation is the harness's, in-process: one
    /// experiment failing its gate or panicking costs that row only.
    #[test]
    fn a_failing_experiment_costs_only_its_own_row() {
        let table = [
            Experiment::new("stub_ok", ok),
            Experiment::new("stub_gate", gate),
            Experiment::new("stub_panics", always_panics),
            Experiment::new("stub_flaky", panics_once),
        ];
        let root = std::env::temp_dir().join(format!("wifiq_run_table_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let harness = Harness::new(root.clone())
            .with_fingerprint("test-fp")
            .with_cache(true)
            .with_jobs(2);
        let cfg = RunCfg {
            jobs: 4,
            ..RunCfg::new()
        };

        let first = run_table(&table, &cfg, &harness);
        assert_eq!(
            first.results,
            vec![
                Some("first report\n".to_string()),
                None,
                None,
                Some("fourth report\n".to_string()),
            ]
        );
        let row = |out: &SweepOutcome<String>, i: usize| {
            let r = &out.reports[i];
            let status = match (r.ok(), r.cached) {
                (false, _) => "FAILED",
                (true, true) => "cached",
                (true, false) => "ok",
            };
            (r.cell.clone(), status, r.retries)
        };
        assert_eq!(row(&first, 0), ("stub_ok".into(), "ok", 0));
        assert_eq!(row(&first, 1), ("stub_gate".into(), "FAILED", 1));
        assert_eq!(row(&first, 2), ("stub_panics".into(), "FAILED", 1));
        assert_eq!(row(&first, 3), ("stub_flaky".into(), "ok", 1));
        assert_eq!(first.reports[1].error.as_deref(), Some("gate"));
        let panic_msg = first.reports[2].error.as_deref().unwrap();
        assert!(panic_msg.contains("boom every time"), "{panic_msg}");
        assert_eq!(first.summary().failed, 2);
        assert_eq!(
            JOBS_SEEN.load(Ordering::Relaxed),
            1,
            "each cell gets jobs = 1"
        );
        let attempts = || ATTEMPTS.each_ref().map(|a| a.load(Ordering::Relaxed));
        assert_eq!(attempts(), [1, 2, 2, 2]);

        // Straight away again: finished rows come from the cache, failed
        // ones get another go.
        let second = run_table(&table, &cfg, &harness);
        assert_eq!(second.results, first.results);
        assert_eq!(row(&second, 0), ("stub_ok".into(), "cached", 0));
        assert_eq!(row(&second, 1), ("stub_gate".into(), "FAILED", 1));
        assert_eq!(row(&second, 2), ("stub_panics".into(), "FAILED", 1));
        assert_eq!(row(&second, 3), ("stub_flaky".into(), "cached", 0));
        assert_eq!(second.summary().failed, 2);
        assert_eq!(attempts(), [1, 4, 4, 2]);
        let _ = std::fs::remove_dir_all(root);
    }
}
