//! The `wifiq ext_search` experiment: coverage-guided fairness fuzzing
//! over the scenario space.
//!
//! Two phases:
//!
//! 1. **Replay** — every counterexample committed under
//!    `scenarios/found/` is re-evaluated; the objective recorded in its
//!    provenance block must still fire. Found scenarios are regression
//!    gates, not museum pieces.
//! 2. **Search** — a budgeted coverage-guided search (single worker)
//!    seeded with the shipped scenarios plus the planted known-bad
//!    configuration; new violations shrink to minimal
//!    counterexamples and are committed to `scenarios/found/`. Its
//!    canonical corpus is written to `results/search_corpus.json`.
//!
//! Gates (an `Err` on violation): the planted bug is found, it shrinks to
//! ≤ 25% of the first failing mutant, and every committed counterexample
//! replays.

use std::fmt::Write as _;
use std::path::PathBuf;

use serde::Serialize;
use wifiq_experiments::report::{write_artifact, write_json, Table};
use wifiq_experiments::scenario_file::{ScenarioFile, TrafficSpec};
use wifiq_experiments::RunCfg;
use wifiq_harness::workspace_dir;

use crate::objective::JAIN_DIP;
use crate::{evaluate, run_search, ObjectiveKind, SearchCfg};

/// Sorted scenario texts from a directory (`(file_name, text)`).
fn read_scenarios(dir: &PathBuf) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) == Some("json") {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_string();
            if let Ok(text) = std::fs::read_to_string(&path) {
                out.push((name, text));
            }
        }
    }
    out.sort();
    out
}

#[derive(Serialize)]
struct ReplayRow {
    file: String,
    objective: String,
    still_fails: bool,
}

#[derive(Serialize)]
struct FindingRow {
    objective: String,
    severity: f64,
    shrink_steps: u64,
    first_bytes: u64,
    minimal_bytes: u64,
    shrunk_ratio: f64,
    file: Option<String>,
}

#[derive(Serialize)]
struct Gates {
    /// A jain_dip violation was discovered within budget.
    planted_found: bool,
    /// It shrank to ≤ 25% of the first failing mutant.
    planted_shrunk: bool,
    /// Every committed counterexample still violates its objective.
    replay_ok: bool,
}

#[derive(Serialize)]
struct Bench {
    quick: bool,
    master_seed: u64,
    generations: u32,
    batch: usize,
    evals: u64,
    executed: u64,
    corpus_size: usize,
    coverage_buckets: usize,
    replays: Vec<ReplayRow>,
    findings: Vec<FindingRow>,
    gates: Gates,
}

/// Runs the two phases and returns the report; the search sizes itself
/// from `run_cfg.quick` alone, so the repetition settings go unused.
pub fn run(run_cfg: &RunCfg, _args: &[String]) -> Result<String, String> {
    let mut out = String::new();
    let quick = run_cfg.quick;
    let seed = run_cfg.base_seed;
    let _ = writeln!(out, "== wifiq-search: coverage-guided fairness fuzzing ==");
    let _ = writeln!(
        out,
        "mode: {} (master seed {seed}, jain threshold {JAIN_DIP})",
        if quick { "quick" } else { "full" }
    );

    // Phase 1: replay committed counterexamples.
    let scenarios_dir = workspace_dir("scenarios");
    let found_dir = scenarios_dir.join("found");
    let mut replays = Vec::new();
    let mut replay_ok = true;
    for (file, text) in read_scenarios(&found_dir) {
        let parsed = match ScenarioFile::from_json(&text) {
            Ok(p) => p,
            Err(e) => {
                let _ = writeln!(out, "replay {file}: PARSE ERROR {e}");
                replay_ok = false;
                continue;
            }
        };
        let Some(prov) = &parsed.provenance else {
            let _ = writeln!(out, "replay {file}: missing provenance block");
            replay_ok = false;
            continue;
        };
        let Some(kind) = ObjectiveKind::parse(&prov.objective) else {
            let _ = writeln!(out, "replay {file}: unknown objective {}", prov.objective);
            replay_ok = false;
            continue;
        };
        let still_fails = evaluate(&parsed).map(|o| o.violates(kind)).unwrap_or(false);
        let _ = writeln!(
            out,
            "replay {file}: {} {}",
            prov.objective,
            if still_fails {
                "still fails (ok)"
            } else {
                "NO LONGER FAILS"
            }
        );
        replay_ok &= still_fails;
        replays.push(ReplayRow {
            file,
            objective: prov.objective.clone(),
            still_fails,
        });
    }
    if replays.is_empty() {
        let _ = writeln!(out, "replay: no committed counterexamples yet");
    }

    // Seed documents: the shipped scenario library. Import policy: `web`
    // sessions are one-shot bursts with no sustained demand — nothing the
    // fairness objectives can score — so seeds carry a ping in their place.
    let mut seed_docs = Vec::new();
    for (name, text) in read_scenarios(&scenarios_dir) {
        let doc = ScenarioFile::from_json(&text).map(|mut doc| {
            for t in &mut doc.traffic {
                if let TrafficSpec::Web { station, .. } = *t {
                    *t = TrafficSpec::Ping { station };
                }
            }
            doc
        });
        match doc {
            Ok(doc) if doc.build().is_ok() => seed_docs.push(doc),
            _ => {
                let _ = writeln!(out, "note: {name} not importable as a seed (skipped)");
            }
        }
    }

    let mut cfg = SearchCfg::new();
    cfg.master_seed = seed;
    cfg.found_dir = Some(found_dir);
    if quick {
        cfg.generations = 3;
        cfg.batch = 8;
        cfg.secs_cap = 5;
    } else {
        cfg.generations = 8;
        cfg.batch = 16;
        cfg.secs_cap = 8;
    }
    cfg.seed_docs = seed_docs;

    // Phase 2: the search, single worker.
    let report = run_search(&cfg).map_err(|e| format!("{out}search failed: {e}"))?;
    write_artifact(run_cfg, "search_corpus.json", &report.corpus_json.pretty());

    // Report.
    let mut table = Table::new(vec![
        "objective",
        "severity",
        "steps",
        "first B",
        "min B",
        "ratio",
        "file",
    ]);
    let mut findings = Vec::new();
    for f in &report.findings {
        let ratio = f.shrunk_ratio();
        table.row(vec![
            f.kind.as_str().to_string(),
            format!("{:.3}", f.severity),
            f.shrink_steps.to_string(),
            f.first.size_bytes().to_string(),
            f.minimal.size_bytes().to_string(),
            format!("{ratio:.2}"),
            f.file.clone().unwrap_or_default(),
        ]);
        findings.push(FindingRow {
            objective: f.kind.as_str().into(),
            severity: f.severity,
            shrink_steps: f.shrink_steps,
            first_bytes: f.first.size_bytes(),
            minimal_bytes: f.minimal.size_bytes(),
            shrunk_ratio: ratio,
            file: f.file.clone(),
        });
    }
    out.push_str(&table.render());

    let planted = report
        .findings
        .iter()
        .find(|f| f.kind == ObjectiveKind::JainDip);
    let gates = Gates {
        planted_found: planted.is_some(),
        planted_shrunk: planted.is_some_and(|f| f.shrunk_ratio() <= 0.25),
        replay_ok,
    };
    let _ = writeln!(
        out,
        "search summary: evals={} executed={} corpus={} coverage={} found={}",
        report.evals,
        report.executed,
        report.corpus_size,
        report.coverage_buckets,
        report.findings.len(),
    );
    let _ = writeln!(
        out,
        "Gates: planted_found={} planted_shrunk={} replay_ok={}",
        gates.planted_found, gates.planted_shrunk, gates.replay_ok
    );

    let violated = !gates.planted_found || !gates.planted_shrunk || !gates.replay_ok;

    write_json(
        run_cfg,
        "BENCH_search",
        &Bench {
            quick,
            master_seed: seed,
            generations: cfg.generations,
            batch: cfg.batch,
            evals: report.evals,
            executed: report.executed,
            corpus_size: report.corpus_size,
            coverage_buckets: report.coverage_buckets,
            replays,
            findings,
            gates,
        },
    );

    if violated {
        return Err(format!("{out}GATE VIOLATION: see gates above"));
    }
    let _ = writeln!(out, "All search gates hold.");
    Ok(out)
}
