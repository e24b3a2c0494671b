//! Delta-debugging shrinker: reduce a failing scenario to a minimal
//! deterministic counterexample.
//!
//! The shrinker applies a fixed sequence of reduction passes — drop fault
//! entries, drop traffic, drop policy switches and the policy itself,
//! drop churn, drop stations (remapping references), halve fault windows,
//! halve the duration — accepting a candidate only when it still
//! validates *and* the caller's oracle confirms the original objective
//! still fires. Passes repeat until a full sweep accepts nothing, so the
//! result is a fixpoint: shrinking it again changes nothing. There is no
//! randomness anywhere, which makes the minimal counterexample a pure
//! function of (input document, oracle).

use wifiq_experiments::scenario_file::ScenarioFile;

use crate::mutate::{drop_station, refit_times};

/// Shrinks `doc` against `still_fails` to a fixpoint. Returns the minimal
/// document and the number of accepted reduction steps. The oracle is
/// only consulted on candidates that parse and build, so every call
/// corresponds to a real simulation.
pub fn shrink(
    doc: &ScenarioFile,
    mut still_fails: impl FnMut(&ScenarioFile) -> bool,
) -> (ScenarioFile, u64) {
    let mut current = doc.clone();
    let mut steps = 0u64;
    let accept = |current: &mut ScenarioFile,
                  candidate: ScenarioFile,
                  still_fails: &mut dyn FnMut(&ScenarioFile) -> bool|
     -> bool {
        if candidate == *current || candidate.build().is_err() || !still_fails(&candidate) {
            return false;
        }
        *current = candidate;
        true
    };

    loop {
        let mut changed = false;

        // Pass 1: drop whole fault entries, last first (later entries are
        // more often the incidental ones a mutation stacked on top).
        let mut i = current.faults.len();
        while i > 0 {
            i -= 1;
            let mut cand = current.clone();
            cand.faults.remove(i);
            if accept(&mut current, cand, &mut still_fails) {
                steps += 1;
                changed = true;
            }
        }

        // Pass 2: drop traffic components (a scenario keeps at least one).
        let mut i = current.traffic.len();
        while i > 0 && current.traffic.len() > 1 {
            i -= 1;
            if i >= current.traffic.len() {
                continue;
            }
            let mut cand = current.clone();
            cand.traffic.remove(i);
            if accept(&mut current, cand, &mut still_fails) {
                steps += 1;
                changed = true;
            }
        }

        // Pass 3: drop policy switches, then the policy block entirely.
        if let Some(p) = &current.policy {
            let mut i = p.switches.len();
            while i > 0 {
                i -= 1;
                let mut cand = current.clone();
                cand.policy
                    .as_mut()
                    .expect("checked above")
                    .switches
                    .remove(i);
                if accept(&mut current, cand, &mut still_fails) {
                    steps += 1;
                    changed = true;
                }
            }
            let mut cand = current.clone();
            cand.policy = None;
            if accept(&mut current, cand, &mut still_fails) {
                steps += 1;
                changed = true;
            }
        }

        // Pass 4: drop churn.
        if current.churn.is_some() {
            let mut cand = current.clone();
            cand.churn = None;
            if accept(&mut current, cand, &mut still_fails) {
                steps += 1;
                changed = true;
            }
        }

        // Pass 4b: drop roaming — a counterexample that reproduces
        // without hand-offs is strictly simpler.
        if current.roaming.is_some() {
            let mut cand = current.clone();
            cand.roaming = None;
            if accept(&mut current, cand, &mut still_fails) {
                steps += 1;
                changed = true;
            }
        }

        // Pass 5: drop stations, last first, remapping references.
        let mut i = current.stations.len();
        while i > 0 {
            i -= 1;
            if current.stations.len() <= 1 || i >= current.stations.len() {
                continue;
            }
            let mut cand = current.clone();
            drop_station(&mut cand, i);
            if accept(&mut current, cand, &mut still_fails) {
                steps += 1;
                changed = true;
            }
        }

        // Pass 6: shorten fault windows (halve toward the start).
        for i in 0..current.faults.len() {
            loop {
                let f = &current.faults[i];
                let len = f.until_secs - f.from_secs;
                if len <= 0.5 {
                    break;
                }
                let mut cand = current.clone();
                let nf = &mut cand.faults[i];
                nf.until_secs = ((nf.from_secs + len / 2.0) * 100.0).round() / 100.0;
                if nf.until_secs <= nf.from_secs {
                    break;
                }
                if accept(&mut current, cand, &mut still_fails) {
                    steps += 1;
                    changed = true;
                } else {
                    break;
                }
            }
        }

        // Pass 7: shorten the run — halve, then decrement.
        while current.secs > 3 {
            let mut cand = current.clone();
            cand.secs = (cand.secs / 2).max(3);
            refit_times(&mut cand);
            if accept(&mut current, cand, &mut still_fails) {
                steps += 1;
                changed = true;
                continue;
            }
            let mut cand = current.clone();
            cand.secs -= 1;
            refit_times(&mut cand);
            if accept(&mut current, cand, &mut still_fails) {
                steps += 1;
                changed = true;
            } else {
                break;
            }
        }

        if !changed {
            return (current, steps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wifiq_experiments::scenario_file::{FaultKind, FaultSpec, StationSpec, TrafficSpec};

    /// A deliberately baggage-laden document: the "real" bug is the stall
    /// on station 1; everything else is removable.
    fn laden() -> ScenarioFile {
        ScenarioFile {
            secs: 12,
            seed: 5,
            stations: (0..5).map(|_| StationSpec::new("mcs7")).collect(),
            traffic: (0..5)
                .map(|s| TrafficSpec::TcpDown { station: s })
                .chain([TrafficSpec::Ping { station: 2 }])
                .collect(),
            faults: vec![
                FaultSpec {
                    from_secs: 0.5,
                    until_secs: 11.0,
                    station: Some(1),
                    kind: FaultKind::Stall,
                },
                FaultSpec {
                    from_secs: 2.0,
                    until_secs: 4.0,
                    station: Some(3),
                    kind: FaultKind::AckLoss { prob: 0.2 },
                },
                FaultSpec {
                    from_secs: 5.0,
                    until_secs: 7.0,
                    station: None,
                    kind: FaultKind::HwBackpressure { depth: 4 },
                },
            ],
            ..ScenarioFile::default()
        }
    }

    /// Synthetic oracle: "fails" while a stall fault targeting station 1
    /// survives and at least two stations exist. Cheap, deterministic,
    /// and indifferent to everything the shrinker should remove.
    fn stall_oracle(d: &ScenarioFile) -> bool {
        d.stations.len() >= 2
            && d.faults
                .iter()
                .any(|f| matches!(f.kind, FaultKind::Stall) && f.station == Some(1))
    }

    #[test]
    fn shrink_reaches_a_small_fixpoint() {
        let doc = laden();
        let (min, steps) = shrink(&doc, stall_oracle);
        assert!(steps > 0);
        assert!(stall_oracle(&min));
        min.build().unwrap();
        // All baggage gone: two stations, one fault, three-second run.
        assert_eq!(min.stations.len(), 2);
        assert_eq!(min.faults.len(), 1);
        assert_eq!(min.secs, 3);
        assert!(min.size_bytes() < doc.size_bytes() / 2);
        // Fixpoint: shrinking again changes nothing.
        let (again, more) = shrink(&min, stall_oracle);
        assert_eq!(again, min);
        assert_eq!(more, 0);
    }

    #[test]
    fn shrink_never_consults_the_oracle_on_invalid_docs() {
        let doc = laden();
        let mut checked = 0usize;
        let (_, _) = shrink(&doc, |d| {
            checked += 1;
            d.build().expect("oracle saw an invalid candidate");
            stall_oracle(d)
        });
        assert!(checked > 0);
    }
}
