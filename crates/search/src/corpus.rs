//! The breeding corpus and its coverage map.
//!
//! A scenario earns a corpus slot only when its objective *signature*
//! (the coarse bucket string from [`Objectives::signature`]) is new, or
//! when it strictly beats the incumbent of its bucket on severity. The
//! coverage map counts how many evaluated runs landed in each bucket;
//! parent selection weights entries by the *rarity* of their bucket, so
//! the search keeps pressure on the regions of behaviour space it has
//! seen least — the standard coverage-guided feedback loop, with bucketed
//! objectives standing in for branch coverage.

use std::collections::BTreeMap;

use rand::rngs::SmallRng;
use rand::Rng;
use wifiq_experiments::scenario_file::ScenarioFile;

use crate::objective::Objectives;

/// One corpus slot: a scenario and the behaviour that earned it.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// The scenario document.
    pub doc: ScenarioFile,
    /// Its extracted objectives.
    pub objectives: Objectives,
    /// Its coverage bucket.
    pub signature: String,
    /// Worst violation severity (0 when clean).
    pub severity: f64,
}

/// The corpus plus coverage statistics.
#[derive(Debug, Default)]
pub struct Corpus {
    entries: Vec<CorpusEntry>,
    /// Evaluated-run count per signature bucket (covers *all* runs, not
    /// just admitted ones — rarity must reflect what was seen).
    coverage: BTreeMap<String, u64>,
}

impl Corpus {
    /// An empty corpus.
    pub fn new() -> Corpus {
        Corpus::default()
    }

    /// The admitted entries, oldest first.
    pub fn entries(&self) -> &[CorpusEntry] {
        &self.entries
    }

    /// Distinct signature buckets observed.
    pub fn coverage_buckets(&self) -> usize {
        self.coverage.len()
    }

    /// The coverage map (bucket → evaluated-run count).
    pub fn coverage(&self) -> &BTreeMap<String, u64> {
        &self.coverage
    }

    /// Records an evaluated run; admits it as a corpus entry when its
    /// bucket is new or it out-scores the bucket's incumbent. Returns
    /// `true` when admitted.
    pub fn record(&mut self, doc: ScenarioFile, objectives: Objectives) -> bool {
        let signature = objectives.signature();
        let severity = objectives
            .violations()
            .iter()
            .map(|(_, s)| *s)
            .fold(0.0, f64::max);
        let seen = self.coverage.entry(signature.clone()).or_insert(0);
        *seen += 1;
        let fresh_bucket = *seen == 1;
        let incumbent = self.entries.iter().position(|e| e.signature == signature);
        let entry = CorpusEntry {
            doc,
            objectives,
            signature,
            severity,
        };
        match incumbent {
            None if fresh_bucket => {
                self.entries.push(entry);
                true
            }
            Some(i) if entry.severity > self.entries[i].severity => {
                self.entries[i] = entry;
                true
            }
            _ => false,
        }
    }

    /// Picks a breeding parent, weighting each entry by `1 / bucket
    /// population` so rarely-seen behaviours breed more. Deterministic in
    /// the RNG stream; `None` on an empty corpus.
    pub fn pick<'a>(&'a self, rng: &mut SmallRng) -> Option<&'a CorpusEntry> {
        if self.entries.is_empty() {
            return None;
        }
        let weights: Vec<f64> = self
            .entries
            .iter()
            .map(|e| 1.0 / self.coverage.get(&e.signature).copied().unwrap_or(1).max(1) as f64)
            .collect();
        let total: f64 = weights.iter().sum();
        let mut roll = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
        for (entry, w) in self.entries.iter().zip(&weights) {
            if roll < *w {
                return Some(entry);
            }
            roll -= w;
        }
        self.entries.last()
    }

    /// Canonical JSON for the whole corpus: entries sorted by content
    /// hash, each with its signature and severity. Byte-identical across
    /// runs that admitted the same set, regardless of admission order —
    /// the artifact the determinism test compares across worker counts.
    pub fn to_json(&self) -> serde::Json {
        let mut rows: Vec<(String, &CorpusEntry)> =
            self.entries.iter().map(|e| (e.doc.hash(), e)).collect();
        rows.sort_by(|(a, _), (b, _)| a.cmp(b));
        let entries = rows
            .into_iter()
            .map(|(hash, e)| {
                serde::Json::Obj(vec![
                    ("hash".into(), serde::Json::Str(hash)),
                    ("signature".into(), serde::Json::Str(e.signature.clone())),
                    ("severity".into(), serde::Json::F64(e.severity)),
                    ("scenario".into(), e.doc.encode()),
                ])
            })
            .collect();
        let coverage = self
            .coverage
            .iter()
            .map(|(sig, count)| {
                serde::Json::Obj(vec![
                    ("signature".into(), serde::Json::Str(sig.clone())),
                    ("runs".into(), serde::Json::U64(*count)),
                ])
            })
            .collect();
        serde::Json::Obj(vec![
            ("entries".into(), serde::Json::Arr(entries)),
            ("coverage".into(), serde::Json::Arr(coverage)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use wifiq_experiments::scenario_file::{StationSpec, TrafficSpec};

    fn doc(seed: u64) -> ScenarioFile {
        ScenarioFile {
            secs: 3,
            seed,
            stations: vec![StationSpec::new("mcs7")],
            traffic: vec![TrafficSpec::TcpDown { station: 0 }],
            ..ScenarioFile::default()
        }
    }

    fn objectives(jain: f64) -> Objectives {
        Objectives {
            jain: Some(jain),
            p99_sojourn_ms: 1.0,
            ac_p99_ms: [0.0; 4],
            min_window_mos: None,
            codel_switches: 0,
            convergence_ms: None,
        }
    }

    #[test]
    fn admission_is_signature_gated() {
        let mut c = Corpus::new();
        assert!(c.record(doc(1), objectives(0.99)));
        // Same bucket, same severity: rejected, but coverage still counts.
        assert!(!c.record(doc(2), objectives(0.987)));
        assert_eq!(c.entries().len(), 1);
        assert_eq!(c.coverage().values().sum::<u64>(), 2);
        // New bucket: admitted.
        assert!(c.record(doc(3), objectives(0.52)));
        assert_eq!(c.entries().len(), 2);
        // Same bucket (floor(20·j) = 10 for both), worse jain = higher
        // severity: replaces the incumbent.
        assert!(c.record(doc(4), objectives(0.50)));
        assert_eq!(c.entries().len(), 2);
        assert_eq!(c.entries()[1].doc.seed, 4);
    }

    #[test]
    fn pick_prefers_rare_buckets() {
        let mut c = Corpus::new();
        c.record(doc(1), objectives(0.99));
        for s in 2..50 {
            c.record(doc(s), objectives(0.99)); // crowds bucket A
        }
        c.record(doc(99), objectives(0.5)); // rare bucket B
        let mut rng = SmallRng::seed_from_u64(1);
        let picks = (0..200)
            .filter(|_| c.pick(&mut rng).unwrap().doc.seed == 99)
            .count();
        assert!(
            picks > 150,
            "rare bucket should dominate selection, got {picks}/200"
        );
    }

    #[test]
    fn corpus_json_is_order_independent() {
        let mut a = Corpus::new();
        a.record(doc(1), objectives(0.99));
        a.record(doc(2), objectives(0.5));
        let mut b = Corpus::new();
        b.record(doc(2), objectives(0.5));
        b.record(doc(1), objectives(0.99));
        assert_eq!(
            serde::Json::Obj(vec![("x".into(), a.to_json())]).pretty(),
            serde::Json::Obj(vec![("x".into(), b.to_json())]).pretty()
        );
    }
}
