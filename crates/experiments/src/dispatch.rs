//! The row type of the `wifiq` experiment table and the `wifiq all` driver.
//!
//! The table itself (`EXPERIMENTS`) lives in `src/bin/wifiq.rs`, beside
//! the subcommands that read it.

use wifiq_harness::{CellDef, Harness, SweepOutcome};

use crate::runner::RunCfg;

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
            Some(reps) if !base.reps_given => RunCfg {
                reps,
                ..base.clone()
            },
            _ => base.clone(),
        }
    }
}

/// What each row of `table` runs under as a cell of `wifiq all`: its own
/// repetition default and `jobs = 1`.
fn cell_cfg(e: &Experiment, cfg: &RunCfg) -> RunCfg {
    RunCfg {
        jobs: 1,
        ..e.cfg(cfg)
    }
}

/// Runs every row of `table` as one harness cell — panic-isolated like
/// any other cell — and returns the reports in table order. Each cell
/// runs its row's default variant with `jobs = 1`: the parallelism is
/// across experiments, not within them.
pub fn run_table(table: &[Experiment], cfg: &RunCfg, harness: &Harness) -> SweepOutcome<String> {
    let cells = table.iter().map(|e| CellDef::new(e.name, "", 0)).collect();
    harness.run("all", cfg.duration.as_nanos(), cells, |cell: &CellDef| {
        let e = table
            .iter()
            .find(|e| e.name == cell.cell)
            .expect("cells are built from the table");
        (e.run)(&cell_cfg(e, cfg), &[])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Runs per stub, in table order; the largest `jobs` any was handed.
    static RUNS: [AtomicUsize; 4] = [const { AtomicUsize::new(0) }; 4];
    static JOBS_SEEN: AtomicUsize = AtomicUsize::new(0);

    /// Notes one run of stub `row` and returns how many came before.
    fn attempt(row: usize, cfg: &RunCfg) -> usize {
        JOBS_SEEN.fetch_max(cfg.jobs, Ordering::Relaxed);
        RUNS[row].fetch_add(1, Ordering::Relaxed)
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
    /// experiment failing its gate or panicking costs that row only, and
    /// every row runs exactly once.
    #[test]
    fn a_failing_experiment_costs_only_its_own_row() {
        let table = [
            Experiment::new("stub_ok", ok),
            Experiment::new("stub_gate", gate),
            Experiment::new("stub_panics", always_panics),
            Experiment::new("stub_flaky", panics_once),
        ];
        let harness = Harness::new().with_jobs(2);
        let cfg = RunCfg {
            jobs: 4,
            ..RunCfg::new()
        };

        let out = run_table(&table, &cfg, &harness);
        assert_eq!(
            out.results,
            vec![Some("first report\n".to_string()), None, None, None]
        );
        let rows: Vec<(&str, bool)> = out.reports.iter().map(|r| (&*r.cell, r.ok())).collect();
        assert_eq!(
            rows,
            [
                ("stub_ok", true),
                ("stub_gate", false),
                ("stub_panics", false),
                ("stub_flaky", false),
            ]
        );
        assert_eq!(out.reports[1].error.as_deref(), Some("gate"));
        let panic_msg = out.reports[2].error.as_deref().unwrap();
        assert!(panic_msg.contains("boom every time"), "{panic_msg}");
        let panic_msg = out.reports[3].error.as_deref().unwrap();
        assert!(panic_msg.contains("boom once"), "{panic_msg}");
        assert_eq!(out.summary().line(), "total=4 ok=1 failed=3");
        assert_eq!(
            JOBS_SEEN.load(Ordering::Relaxed),
            1,
            "each cell gets jobs = 1"
        );
        let runs = RUNS.each_ref().map(|a| a.load(Ordering::Relaxed));
        assert_eq!(runs, [1, 1, 1, 1]);
    }
}
