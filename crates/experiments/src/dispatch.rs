//! The row type of the `wifiq` experiment table and the `wifiq all` driver.
//!
//! The table itself (`EXPERIMENTS`) lives in `src/bin/wifiq.rs`: the root
//! package is the only one that can name every row, because
//! `wifiq-search` depends on this crate.

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

/// One cell per row. A cached report stands for the artifacts its run
/// wrote, so what changes either is in the key: [`RunCfg::sweep`], and
/// `reps` here because it is per row.
fn table_cells(table: &[Experiment], cfg: &RunCfg) -> Vec<CellDef> {
    table
        .iter()
        .map(|e| CellDef::new(e.name, format!("reps={}", e.cfg(cfg).reps), 0))
        .collect()
}

/// Runs every row of `table` as one harness cell — cached,
/// panic-isolated and retried once like any other cell — and returns the
/// reports in table order. Each cell runs its row's default variant with
/// `jobs = 1`: the parallelism is across experiments, not within them.
pub fn run_table(table: &[Experiment], cfg: &RunCfg, harness: &Harness) -> SweepOutcome<String> {
    let cells = table_cells(table, cfg);
    harness.run(&cfg.sweep("all"), cells, |cell: &CellDef| {
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
    use crate::runner::seed_cells;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use wifiq_harness::cell_key_hash;
    use wifiq_sim::Nanos;

    /// The cell keys `cfg` gives a repetition sweep and a `wifiq all` sweep.
    fn keys(cfg: &RunCfg) -> [Vec<String>; 2] {
        let table = [Experiment::new("stub_ok", ok)];
        let hashes = |experiment: &str, cells: Vec<CellDef>| {
            let sweep = cfg.sweep(experiment);
            let hash = |c| cell_key_hash(&sweep, c, "test-fp");
            cells.iter().map(hash).collect()
        };
        [
            hashes("udp_sat", seed_cells("airtime", "", cfg)),
            hashes("all", table_cells(&table, cfg)),
        ]
    }

    /// A cached cell stands for what running it would compute and write,
    /// so no field that changes either may be missing from its key — for
    /// a repetition and for a row of `wifiq all` alike.
    #[test]
    fn every_output_changing_field_changes_both_cell_keys() {
        let base = RunCfg::new();
        type Flip = fn(&mut RunCfg);
        let flips: [(&str, Flip); 6] = [
            ("quick", |c| c.quick = true),
            ("metrics", |c| c.metrics = true),
            ("base_seed", |c| c.base_seed += 1),
            ("reps", |c| c.reps += 1),
            ("duration", |c| c.duration = Nanos::from_secs(31)),
            ("warmup", |c| c.warmup = Nanos::from_secs(6)),
        ];
        for (field, flip) in flips {
            let mut flipped = base.clone();
            flip(&mut flipped);
            let [seeds, rows] = keys(&flipped);
            assert_ne!(seeds, keys(&base)[0], "run_seeds' keys ignore {field}");
            assert_ne!(rows, keys(&base)[1], "run_table's keys ignore {field}");
        }
        // Where and how fast it runs is not what it computes.
        let elsewhere = RunCfg {
            jobs: 4,
            cache: true,
            results_dir: "elsewhere".into(),
            ..base.clone()
        };
        assert_eq!(keys(&elsewhere), keys(&base));
    }

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
