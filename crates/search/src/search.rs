//! The search loop: breed, execute, score, shrink, commit.
//!
//! Determinism contract: every RNG draw happens on the coordinator
//! thread, batches are handed to the harness pool as independent cells
//! whose results come back in input order, and shrinking runs
//! sequentially against a content-hash memo — so the corpus, the
//! findings, and every committed counterexample are a pure function of
//! the master seed, at any worker count.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Json;

use wifiq_experiments::scenario_file::{
    FaultKind, FaultSpec, PolicyNodeSpec, PolicySpec, PolicySwitchSpec, ProvenanceSpec,
    ScenarioFile, StationSpec, TrafficSpec,
};
use wifiq_harness::{CellDef, Harness};

use crate::corpus::Corpus;
use crate::mutate::mutate;
use crate::objective::{evaluate, ObjectiveKind, Objectives};
use crate::shrink::shrink;

/// Search configuration.
#[derive(Debug, Clone)]
pub struct SearchCfg {
    /// Master seed: the only source of randomness.
    pub master_seed: u64,
    /// Breeding generations after the seed-corpus evaluation.
    pub generations: u32,
    /// Mutants bred per generation.
    pub batch: usize,
    /// Ceiling on mutated scenario durations, seconds.
    pub secs_cap: u64,
    /// Cap on counterexamples shrunk and written per run.
    pub max_found: usize,
    /// Where minimal counterexamples are committed; `None` skips writing.
    pub found_dir: Option<PathBuf>,
    /// Harness worker count.
    pub jobs: usize,
    /// Seed the corpus with the planted-bug document (CI's known-bad
    /// configuration; also the default, so a fresh search has a fairness
    /// violation to cut its teeth on).
    pub plant: bool,
    /// Additional seed documents (e.g. the shipped `scenarios/*.json`).
    pub seed_docs: Vec<ScenarioFile>,
}

impl SearchCfg {
    /// A small default configuration.
    pub fn new() -> SearchCfg {
        SearchCfg {
            master_seed: 1,
            generations: 8,
            batch: 16,
            secs_cap: 8,
            max_found: 8,
            found_dir: None,
            jobs: 1,
            plant: true,
            seed_docs: Vec::new(),
        }
    }
}

impl Default for SearchCfg {
    fn default() -> Self {
        SearchCfg::new()
    }
}

/// One discovered-and-shrunk counterexample.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The violated objective.
    pub kind: ObjectiveKind,
    /// Severity of the *minimal* counterexample.
    pub severity: f64,
    /// The first failing document, pre-shrink.
    pub first: ScenarioFile,
    /// The minimal counterexample.
    pub minimal: ScenarioFile,
    /// Accepted shrink steps.
    pub shrink_steps: u64,
    /// File name under `found_dir`, when written.
    pub file: Option<String>,
}

impl Finding {
    /// minimal-size / first-failing-size, the shrink-quality ratio CI
    /// gates on.
    pub fn shrunk_ratio(&self) -> f64 {
        self.minimal.size_bytes() as f64 / self.first.size_bytes().max(1) as f64
    }
}

/// What a search run did.
#[derive(Debug)]
pub struct SearchReport {
    /// Objective evaluations requested (memo hits included).
    pub evals: u64,
    /// Evaluations that reached the harness (memo misses).
    pub executed: u64,
    /// Corpus entries at the end.
    pub corpus_size: usize,
    /// Distinct coverage buckets observed.
    pub coverage_buckets: usize,
    /// Shrunk counterexamples, one per violated objective kind.
    pub findings: Vec<Finding>,
    /// Canonical corpus artifact (`results/search_corpus.json`).
    pub corpus_json: Json,
}

/// The planted known-bad configuration: an asymmetric burst-loss window
/// that starves one station's TCP flow (timeouts collapse its demand, so
/// its airtime share — not just its throughput — craters) while the other
/// stations run clean, dipping the weighted Jain index below the
/// threshold. It deliberately carries baggage — bystander faults, extra
/// traffic, an equal-split policy tree — that the shrinker must strip to
/// prove it reduces counterexamples, not just finds them.
pub fn planted_doc() -> ScenarioFile {
    let station = StationSpec::new;
    ScenarioFile {
        secs: 12,
        seed: 7,
        stations: vec![
            station("mcs15"),
            station("mcs7"),
            station("mcs15"),
            station("vht4"),
            station("mcs11"),
            station("mcs7"),
            station("vht9"),
            station("mcs15"),
        ],
        traffic: vec![
            TrafficSpec::TcpDown { station: 0 },
            TrafficSpec::TcpDown { station: 1 },
            TrafficSpec::TcpDown { station: 2 },
            TrafficSpec::TcpDown { station: 3 },
            TrafficSpec::TcpDown { station: 4 },
            TrafficSpec::TcpDown { station: 5 },
            TrafficSpec::TcpDown { station: 6 },
            TrafficSpec::TcpDown { station: 7 },
            TrafficSpec::UdpDown {
                station: 6,
                mbps: 8,
                poisson: true,
            },
            TrafficSpec::Ping { station: 0 },
            TrafficSpec::Ping { station: 7 },
            TrafficSpec::Voip {
                station: 2,
                qos: "vo".into(),
            },
        ],
        faults: vec![
            // The actual bug: a long asymmetric burst-loss window on
            // station 1.
            FaultSpec {
                from_secs: 0.5,
                until_secs: 11.5,
                station: Some(1),
                kind: FaultKind::BurstLoss {
                    bad_frac: 0.7,
                    burst_len: 48.0,
                    loss_bad: 0.95,
                },
            },
            // Bystanders the shrinker should discard.
            FaultSpec {
                from_secs: 3.0,
                until_secs: 5.0,
                station: Some(3),
                kind: FaultKind::AckLoss { prob: 0.15 },
            },
            FaultSpec {
                from_secs: 6.0,
                until_secs: 8.0,
                station: None,
                kind: FaultKind::HwBackpressure { depth: 6 },
            },
            FaultSpec {
                from_secs: 2.0,
                until_secs: 4.0,
                station: Some(4),
                kind: FaultKind::RateOscillate {
                    low: "mcs1".into(),
                    period_ms: 250,
                },
            },
            FaultSpec {
                from_secs: 9.0,
                until_secs: 10.0,
                station: Some(6),
                kind: FaultKind::Loss { prob: 0.05 },
            },
        ],
        // Equal split — compiles to neutral weights, pure baggage. The
        // switch re-installs the same tree, so it is baggage too.
        policy: Some(PolicySpec {
            nodes: equal_split(),
            switches: vec![PolicySwitchSpec {
                at_secs: 2.0,
                nodes: equal_split(),
            }],
        }),
        ..ScenarioFile::default()
    }
}

/// The planted document's policy tree: an even two-way split.
fn equal_split() -> Vec<PolicyNodeSpec> {
    vec![
        PolicyNodeSpec {
            name: "left".into(),
            weight: 1,
            classes: None,
            stations: Some(vec![0, 1, 2, 3]),
            nodes: None,
        },
        PolicyNodeSpec {
            name: "right".into(),
            weight: 1,
            classes: None,
            stations: Some(vec![4, 5, 6, 7]),
            nodes: None,
        },
    ]
}

/// Shared evaluation state: a content-hash memo in front of the harness.
struct Evaluator {
    harness: Harness,
    memo: HashMap<String, Objectives>,
    evals: u64,
    executed: u64,
}

impl Evaluator {
    fn new(cfg: &SearchCfg) -> Evaluator {
        Evaluator {
            harness: Harness::new().with_jobs(cfg.jobs),
            memo: HashMap::new(),
            evals: 0,
            executed: 0,
        }
    }

    /// Evaluates a batch through the pool; results in input order.
    /// Documents already memoized cost nothing; duplicates within the
    /// batch are evaluated once.
    fn eval_batch(&mut self, docs: &[ScenarioFile]) -> Vec<Option<Objectives>> {
        self.evals += docs.len() as u64;
        let mut fresh: Vec<(String, &ScenarioFile)> = Vec::new(); // (hash, doc)
        for doc in docs {
            let hash = doc.hash();
            if !self.memo.contains_key(&hash) && !fresh.iter().any(|(h, _)| *h == hash) {
                fresh.push((hash, doc));
            }
        }
        if !fresh.is_empty() {
            self.executed += fresh.len() as u64;
            let by_hash: HashMap<&str, &ScenarioFile> =
                fresh.iter().map(|(h, d)| (h.as_str(), *d)).collect();
            let cells: Vec<CellDef> = fresh
                .iter()
                .map(|(hash, _)| CellDef::new(hash.clone(), "scenario", 0))
                .collect();
            // Each scenario carries its own duration; 0 leaves the
            // watchdog at its floor.
            let outcome = self.harness.run("ext_search", 0, cells, |cell| {
                evaluate(by_hash[cell.cell.as_str()])
            });
            for ((hash, _), result) in fresh.into_iter().zip(outcome.results) {
                if let Some(objectives) = result {
                    self.memo.insert(hash, objectives);
                }
            }
        }
        docs.iter()
            .map(|doc| self.memo.get(&doc.hash()).cloned())
            .collect()
    }

    /// Evaluates one document (memoized) — the shrink oracle.
    fn eval_one(&mut self, doc: &ScenarioFile) -> Option<Objectives> {
        self.eval_batch(std::slice::from_ref(doc)).pop().flatten()
    }
}

/// Runs a complete search. See the module docs for the determinism
/// contract.
pub fn run_search(cfg: &SearchCfg) -> Result<SearchReport, String> {
    let mut rng = SmallRng::seed_from_u64(cfg.master_seed);
    let mut evaluator = Evaluator::new(cfg);
    let mut corpus = Corpus::new();
    // First failing document per objective kind, in encounter order.
    let mut first_failures: BTreeMap<&'static str, ScenarioFile> = BTreeMap::new();

    // Generation 0: the seed corpus (planted bug first, so the known-bad
    // configuration is also the first failure encountered for its kind).
    let mut seeds: Vec<ScenarioFile> = Vec::new();
    if cfg.plant {
        seeds.push(planted_doc());
    }
    seeds.extend(cfg.seed_docs.iter().cloned());
    if seeds.is_empty() {
        return Err("search needs at least one seed document (plant or seed_docs)".into());
    }
    for doc in &seeds {
        doc.build()
            .map_err(|e| format!("seed document invalid: {e}"))?;
    }

    let absorb = |docs: &[ScenarioFile],
                  results: Vec<Option<Objectives>>,
                  corpus: &mut Corpus,
                  first_failures: &mut BTreeMap<&'static str, ScenarioFile>| {
        for (doc, objectives) in docs.iter().zip(results) {
            let Some(objectives) = objectives else {
                continue; // evaluation failed; nothing to learn
            };
            for (kind, _) in objectives.violations() {
                first_failures
                    .entry(kind.as_str())
                    .or_insert_with(|| doc.clone());
            }
            corpus.record(doc.clone(), objectives);
        }
    };

    let results = evaluator.eval_batch(&seeds);
    absorb(&seeds, results, &mut corpus, &mut first_failures);

    // Breeding generations.
    for _gen in 0..cfg.generations {
        let mut batch = Vec::with_capacity(cfg.batch);
        for _ in 0..cfg.batch {
            let parent = corpus
                .pick(&mut rng)
                .map(|e| e.doc.clone())
                .unwrap_or_else(|| seeds[0].clone());
            let partner = if rng.gen_bool(0.3) {
                corpus.pick(&mut rng).map(|e| e.doc.clone())
            } else {
                None
            };
            batch.push(mutate(&mut rng, &parent, partner.as_ref(), cfg.secs_cap));
        }
        let results = evaluator.eval_batch(&batch);
        absorb(&batch, results, &mut corpus, &mut first_failures);
    }

    // Shrink the first failure of each violated objective to a minimal
    // counterexample. BTreeMap order (objective name) is deterministic.
    let mut findings = Vec::new();
    for (kind_name, first) in first_failures.iter().take(cfg.max_found) {
        let kind = ObjectiveKind::parse(kind_name).expect("kinds come from as_str");
        let (minimal, shrink_steps) = shrink(first, |cand| {
            evaluator.eval_one(cand).is_some_and(|o| o.violates(kind))
        });
        let severity = evaluator
            .eval_one(&minimal)
            .map(|o| {
                o.violations()
                    .iter()
                    .find(|(k, _)| *k == kind)
                    .map(|(_, s)| *s)
                    .unwrap_or(0.0)
            })
            .unwrap_or(0.0);
        findings.push(Finding {
            kind,
            severity,
            first: first.clone(),
            minimal,
            shrink_steps,
            file: None,
        });
    }

    // Commit minimal counterexamples with provenance.
    if let Some(dir) = &cfg.found_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        for finding in &mut findings {
            let name = format!(
                "{}_{}.json",
                finding.kind.as_str(),
                &finding.minimal.hash()[..12]
            );
            let path = dir.join(&name);
            let text = ScenarioFile {
                provenance: Some(ProvenanceSpec {
                    searcher_seed: cfg.master_seed,
                    objective: finding.kind.as_str().into(),
                    score: finding.severity,
                    shrink_steps: finding.shrink_steps,
                    first_failing_bytes: Some(finding.first.size_bytes()),
                    minimal_bytes: Some(finding.minimal.size_bytes()),
                }),
                ..finding.minimal.clone()
            }
            .text();
            match std::fs::read_to_string(&path) {
                // Identical counterexample already committed: keep it.
                Ok(existing) if existing == text => {}
                _ => {
                    std::fs::write(&path, &text)
                        .map_err(|e| format!("write {}: {e}", path.display()))?;
                }
            }
            finding.file = Some(name);
        }
    }

    Ok(SearchReport {
        evals: evaluator.evals,
        executed: evaluator.executed,
        corpus_size: corpus.entries().len(),
        coverage_buckets: corpus.coverage_buckets(),
        findings,
        corpus_json: corpus.to_json(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The planted configuration must actually dip fairness — this is the
    /// known-bad seed CI's discovery gate depends on.
    #[test]
    fn planted_doc_validates_and_dips_fairness() {
        let doc = planted_doc();
        let objectives = evaluate(&doc).unwrap();
        assert!(
            objectives.violates(ObjectiveKind::JainDip),
            "planted doc no longer dips: {objectives:?}"
        );
    }
}
