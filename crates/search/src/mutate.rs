//! Seeded mutators over [`ScenarioFile`].
//!
//! Every mutation is a pure function of the coordinator RNG's state, so a
//! search run's entire scenario stream is reproducible from the master
//! seed. Mutants are validated by [`ScenarioFile::build`] before they
//! leave this module; an op that produces an invalid document is
//! simply retried, and after a bounded number of attempts the fallback is
//! the base document with a fresh simulation seed — always valid, never
//! a dead end.
//!
//! Continuous parameters are quantized (probabilities to 3 decimals,
//! times to centiseconds) so that near-identical mutants hash identically
//! and the search's content-hash memo can actually deduplicate them.

use rand::rngs::SmallRng;
use rand::Rng;
use wifiq_experiments::scenario_file::{
    ChurnSpec, FaultKind, FaultSpec, PolicyNodeSpec, PolicySpec, PolicySwitchSpec, ScenarioFile,
    StationSpec, TrafficSpec,
};

/// Rates the mutators draw from — spans the anomaly-relevant range from
/// 802.11b legacy (the paper's slow-station regime) to VHT80.
pub const RATE_PALETTE: [&str; 12] = [
    "mcs0", "mcs3", "mcs7", "mcs11", "mcs15", "vht0", "vht4", "vht9", "54mbps", "11mbps", "6mbps",
    "1mbps",
];

/// Slow rates used for collapse/oscillation faults.
const SLOW_RATES: [&str; 4] = ["mcs0", "6mbps", "1mbps", "11mbps"];

/// Quantize a probability-like value to 3 decimals.
fn q3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

/// Quantize a seconds value to centiseconds.
fn q2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

/// Produces one valid mutant of `base`, spending `rng` draws. `other`
/// (when the corpus has a second entry) enables crossover ops that splice
/// whole blocks between documents. `secs_cap` bounds mutated durations so
/// a budgeted run can't breed itself ever-longer scenarios.
pub fn mutate(
    rng: &mut SmallRng,
    base: &ScenarioFile,
    other: Option<&ScenarioFile>,
    secs_cap: u64,
) -> ScenarioFile {
    for _ in 0..8 {
        let mut doc = base.clone();
        let ops = rng.gen_range(1..=3usize);
        for _ in 0..ops {
            apply_op(rng, &mut doc, other, secs_cap);
        }
        if doc != *base && doc.build().is_ok() {
            return doc;
        }
    }
    // Fallback: same scenario, different simulation seed — still explores
    // (stochastic impairments re-roll) and is valid by construction.
    let mut doc = base.clone();
    doc.seed = rng.gen();
    doc
}

fn apply_op(rng: &mut SmallRng, doc: &mut ScenarioFile, other: Option<&ScenarioFile>, cap: u64) {
    match rng.gen_range(0..13u32) {
        0 => perturb_fault_window(rng, doc),
        1 => perturb_fault_intensity(rng, doc),
        2 => add_fault(rng, doc),
        3 => drop_fault(rng, doc),
        4 => retarget_fault(rng, doc),
        5 => mutate_churn(rng, doc),
        6 => mutate_station(rng, doc),
        7 => mutate_traffic(rng, doc),
        8 => mutate_policy(rng, doc),
        9 => mutate_secs(rng, doc, cap),
        10 => mutate_roaming(rng, doc),
        11 => doc.seed = rng.gen(),
        _ => match other {
            Some(o) => crossover(rng, doc, o),
            None => doc.seed = rng.gen(),
        },
    }
}

fn rand_target(rng: &mut SmallRng, n: usize) -> Option<usize> {
    if rng.gen_bool(0.25) {
        None // all stations
    } else {
        Some(rng.gen_range(0..n))
    }
}

fn rand_window(rng: &mut SmallRng, secs: u64) -> (f64, f64) {
    let secs = secs as f64;
    let from = q2(rng.gen_range(0.0..secs * 0.8));
    let len = q2(rng.gen_range(0.25..(secs * 0.5).max(0.5)));
    let until = (from + len).min(secs).max(from + 0.25);
    (from, q2(until))
}

fn rand_fault_kind(rng: &mut SmallRng) -> FaultKind {
    match rng.gen_range(0..7u32) {
        0 => FaultKind::Loss {
            prob: q3(rng.gen_range(0.05..0.9)),
        },
        1 => FaultKind::BurstLoss {
            bad_frac: q3(rng.gen_range(0.05..0.8)),
            burst_len: q2(rng.gen_range(2.0..64.0)),
            loss_bad: q3(rng.gen_range(0.5..1.0)),
        },
        2 => FaultKind::RateCollapse {
            rate: SLOW_RATES[rng.gen_range(0..SLOW_RATES.len())].into(),
        },
        3 => FaultKind::RateOscillate {
            low: SLOW_RATES[rng.gen_range(0..SLOW_RATES.len())].into(),
            period_ms: rng.gen_range(20..500u64),
        },
        4 => FaultKind::Stall,
        5 => FaultKind::HwBackpressure {
            depth: rng.gen_range(1..8usize),
        },
        _ => FaultKind::AckLoss {
            prob: q3(rng.gen_range(0.05..0.7)),
        },
    }
}

fn perturb_fault_window(rng: &mut SmallRng, doc: &mut ScenarioFile) {
    if doc.faults.is_empty() {
        return add_fault(rng, doc);
    }
    let i = rng.gen_range(0..doc.faults.len());
    let (from, until) = rand_window(rng, doc.secs);
    doc.faults[i].from_secs = from;
    doc.faults[i].until_secs = until;
}

fn perturb_fault_intensity(rng: &mut SmallRng, doc: &mut ScenarioFile) {
    if doc.faults.is_empty() {
        return add_fault(rng, doc);
    }
    let i = rng.gen_range(0..doc.faults.len());
    let factor = rng.gen_range(0.5..2.0);
    let scale_p = |p: f64| q3((p * factor).clamp(0.01, 1.0));
    match &mut doc.faults[i].kind {
        FaultKind::Loss { prob } | FaultKind::AckLoss { prob } => *prob = scale_p(*prob),
        FaultKind::BurstLoss {
            bad_frac,
            burst_len,
            loss_bad,
        } => match rng.gen_range(0..3u32) {
            0 => *bad_frac = q3((*bad_frac * factor).clamp(0.01, 0.95)),
            1 => *burst_len = q2((*burst_len * factor).clamp(1.0, 256.0)),
            _ => *loss_bad = scale_p(*loss_bad),
        },
        FaultKind::RateCollapse { rate } | FaultKind::RateOscillate { low: rate, .. } => {
            *rate = SLOW_RATES[rng.gen_range(0..SLOW_RATES.len())].into();
        }
        FaultKind::Stall => {}
        FaultKind::HwBackpressure { depth } => *depth = rng.gen_range(1..8usize),
    }
    if let FaultKind::RateOscillate { period_ms, .. } = &mut doc.faults[i].kind {
        if rng.gen_bool(0.5) {
            *period_ms = rng.gen_range(20..500u64);
        }
    }
}

fn add_fault(rng: &mut SmallRng, doc: &mut ScenarioFile) {
    let (from_secs, until_secs) = rand_window(rng, doc.secs);
    let kind = rand_fault_kind(rng);
    let station = rand_target(rng, doc.stations.len());
    doc.faults.push(FaultSpec {
        from_secs,
        until_secs,
        station,
        kind,
    });
}

fn drop_fault(rng: &mut SmallRng, doc: &mut ScenarioFile) {
    if !doc.faults.is_empty() {
        let i = rng.gen_range(0..doc.faults.len());
        doc.faults.remove(i);
    }
}

fn retarget_fault(rng: &mut SmallRng, doc: &mut ScenarioFile) {
    if doc.faults.is_empty() {
        return add_fault(rng, doc);
    }
    let i = rng.gen_range(0..doc.faults.len());
    doc.faults[i].station = rand_target(rng, doc.stations.len());
}

fn mutate_churn(rng: &mut SmallRng, doc: &mut ScenarioFile) {
    let n = doc.stations.len();
    if doc.churn.is_some() && rng.gen_bool(0.3) {
        doc.churn = None;
    } else if n >= 2 {
        let mean_interval_ms = rng.gen_range(50..2000u64);
        let min_stations = rng.gen_range(1..n);
        doc.churn = Some(ChurnSpec {
            mean_interval_ms,
            min_stations,
            max_stations: rng.gen_range(min_stations + 1..=n),
        });
    }
}

fn mutate_roaming(rng: &mut SmallRng, doc: &mut ScenarioFile) {
    if doc.roaming.is_some() && rng.gen_bool(0.25) {
        doc.roaming = None;
        return;
    }
    let mut r = doc.roaming.clone().unwrap_or_default();
    match rng.gen_range(0..3u32) {
        // Dwell spans per-window flapping to nearly-static.
        0 => r.mean_dwell_ms = rng.gen_range(200..8000u64),
        // Reassociation gap window (min ≤ max by construction).
        1 => {
            r.reassoc_min_ms = rng.gen_range(5..100u64);
            r.reassoc_max_ms = r.reassoc_min_ms + rng.gen_range(0..400u64);
        }
        // Re-roll the arrival-rate palette, or drop it so stations keep
        // their configured rates across hand-offs.
        _ => {
            r.rate_palette = if rng.gen_bool(0.3) {
                None
            } else {
                let k = rng.gen_range(1..=3usize);
                Some(
                    (0..k)
                        .map(|_| RATE_PALETTE[rng.gen_range(0..RATE_PALETTE.len())].to_string())
                        .collect(),
                )
            };
        }
    }
    doc.roaming = Some(r);
}

fn mutate_station(rng: &mut SmallRng, doc: &mut ScenarioFile) {
    let n = doc.stations.len();
    match rng.gen_range(0..4u32) {
        // Add a station (with bulk traffic so it participates).
        0 if n < 16 => {
            doc.stations.push(StationSpec::new(
                RATE_PALETTE[rng.gen_range(0..RATE_PALETTE.len())],
            ));
            doc.traffic.push(TrafficSpec::TcpDown { station: n });
            // Keep churn bounds meaningful against the grown roster.
            if let Some(c) = &mut doc.churn {
                c.max_stations = c.max_stations.max(2).min(n + 1);
            }
        }
        // Drop a station, remapping every reference.
        1 if n > 2 => {
            let idx = rng.gen_range(0..n);
            drop_station(doc, idx);
        }
        // Re-rate a station.
        2 => {
            let i = rng.gen_range(0..n);
            doc.stations[i].rate = RATE_PALETTE[rng.gen_range(0..RATE_PALETTE.len())].into();
        }
        // Re-weight a station.
        _ => {
            let i = rng.gen_range(0..n);
            doc.stations[i].weight = if rng.gen_bool(0.3) {
                None
            } else {
                Some(64 << rng.gen_range(0..5u32)) // 64..1024
            };
        }
    }
}

/// Removes station `idx` and rewrites every station reference in traffic,
/// faults, churn, and the policy tree. Shared with the shrinker, which
/// uses the same remapping when minimising rosters.
pub(crate) fn drop_station(doc: &mut ScenarioFile, idx: usize) {
    doc.stations.remove(idx);
    let n = doc.stations.len();
    let remap = |s: usize| {
        if s > idx {
            Some(s - 1)
        } else {
            Some(s).filter(|&s| s != idx)
        }
    };
    doc.traffic.retain_mut(|t| match remap(t.station()) {
        Some(s) => {
            *t.station_mut() = s;
            true
        }
        None => false,
    });
    if doc.traffic.is_empty() {
        doc.traffic.push(TrafficSpec::TcpDown { station: 0 });
    }
    doc.faults.retain_mut(|f| match f.station {
        None => true,
        Some(s) => match remap(s) {
            Some(s) => {
                f.station = Some(s);
                true
            }
            None => false,
        },
    });
    if let Some(c) = &mut doc.churn {
        if n < 2 {
            doc.churn = None;
        } else {
            c.min_stations = c.min_stations.clamp(1, n - 1);
            c.max_stations = c.max_stations.clamp(c.min_stations + 1, n);
        }
    }
    if let Some(p) = &mut doc.policy {
        p.nodes = remap_nodes(std::mem::take(&mut p.nodes), idx);
        p.switches.retain_mut(|sw| {
            sw.nodes = remap_nodes(std::mem::take(&mut sw.nodes), idx);
            !sw.nodes.is_empty()
        });
        if p.nodes.is_empty() {
            doc.policy = None;
        }
    }
}

/// Rewrites station refs in a policy forest after dropping `idx`; nodes
/// left with neither stations nor children disappear.
fn remap_nodes(nodes: Vec<PolicyNodeSpec>, idx: usize) -> Vec<PolicyNodeSpec> {
    nodes
        .into_iter()
        .filter_map(|mut node| {
            if let Some(stations) = &mut node.stations {
                stations.retain(|&s| s != idx);
                for s in stations.iter_mut() {
                    if *s > idx {
                        *s -= 1;
                    }
                }
                if stations.is_empty() {
                    node.stations = None;
                }
            }
            if let Some(children) = node.nodes.take() {
                let kept = remap_nodes(children, idx);
                if !kept.is_empty() {
                    node.nodes = Some(kept);
                }
            }
            (node.stations.is_some() || node.nodes.is_some()).then_some(node)
        })
        .collect()
}

fn mutate_traffic(rng: &mut SmallRng, doc: &mut ScenarioFile) {
    let n = doc.stations.len();
    if !doc.traffic.is_empty() && rng.gen_bool(0.35) && doc.traffic.len() > 1 {
        let i = rng.gen_range(0..doc.traffic.len());
        doc.traffic.remove(i);
        return;
    }
    let station = rng.gen_range(0..n);
    doc.traffic.push(match rng.gen_range(0..5u32) {
        0 => TrafficSpec::TcpDown { station },
        1 => TrafficSpec::TcpUp { station },
        2 => TrafficSpec::UdpDown {
            station,
            mbps: [1, 5, 10, 20, 50][rng.gen_range(0..5usize)],
            poisson: rng.gen_bool(0.5),
        },
        3 => TrafficSpec::Ping { station },
        _ => TrafficSpec::Voip {
            station,
            qos: ["vo", "be"][rng.gen_range(0..2usize)].into(),
        },
    });
}

fn mutate_policy(rng: &mut SmallRng, doc: &mut ScenarioFile) {
    let n = doc.stations.len();
    match &mut doc.policy {
        Some(_) if rng.gen_bool(0.2) => doc.policy = None,
        Some(p) => {
            if rng.gen_bool(0.6) || doc.secs < 4 {
                // Perturb one root weight (of the initial set or a switch).
                let set = if p.switches.is_empty() || rng.gen_bool(0.5) {
                    &mut p.nodes
                } else {
                    let i = rng.gen_range(0..p.switches.len());
                    &mut p.switches[i].nodes
                };
                let i = rng.gen_range(0..set.len());
                set[i].weight = 1 << rng.gen_range(0..7u32); // 1..64
            } else {
                // Add a switch: the same tree with one re-rolled weight.
                let at = q2(rng.gen_range(1.0..(doc.secs - 1) as f64));
                let mut nodes = p.nodes.clone();
                let i = rng.gen_range(0..nodes.len());
                nodes[i].weight = 1 << rng.gen_range(0..7u32);
                p.switches.push(PolicySwitchSpec { at_secs: at, nodes });
                p.switches.sort_by(|a, b| {
                    a.at_secs
                        .partial_cmp(&b.at_secs)
                        .expect("finite switch times")
                });
            }
        }
        None if n >= 2 => {
            // Introduce a two-group split with skewed weights.
            let cut = rng.gen_range(1..n);
            let (wa, wb) = (1 << rng.gen_range(0..5u32), 1 << rng.gen_range(0..5u32));
            doc.policy = Some(PolicySpec {
                nodes: vec![
                    PolicyNodeSpec {
                        name: "ga".into(),
                        weight: wa,
                        classes: None,
                        stations: Some((0..cut).collect()),
                        nodes: None,
                    },
                    PolicyNodeSpec {
                        name: "gb".into(),
                        weight: wb,
                        classes: None,
                        stations: Some((cut..n).collect()),
                        nodes: None,
                    },
                ],
                switches: Vec::new(),
            });
        }
        None => {}
    }
}

fn mutate_secs(rng: &mut SmallRng, doc: &mut ScenarioFile, cap: u64) {
    doc.secs = rng.gen_range(3..=cap.max(4));
    refit_times(doc);
}

/// Re-fits fault windows and policy switches after a duration change.
/// Shared with the shrinker's run-shortening pass.
pub(crate) fn refit_times(doc: &mut ScenarioFile) {
    let secs = doc.secs as f64;
    doc.faults.retain_mut(|f| {
        f.until_secs = f.until_secs.min(secs);
        f.from_secs < f.until_secs
    });
    if let Some(p) = &mut doc.policy {
        p.switches.retain(|sw| sw.at_secs < secs);
    }
}

fn crossover(rng: &mut SmallRng, doc: &mut ScenarioFile, other: &ScenarioFile) {
    let n = doc.stations.len();
    let secs = doc.secs as f64;
    match rng.gen_range(0..4u32) {
        // Splice the partner's fault schedule in, re-fit to this roster.
        0 => {
            doc.faults = other
                .faults
                .iter()
                .filter(|f| f.station.is_none_or(|s| s < n))
                .cloned()
                .map(|mut f| {
                    f.until_secs = f.until_secs.min(secs);
                    f
                })
                .filter(|f| f.from_secs < f.until_secs)
                .collect();
        }
        // Take the partner's churn block.
        1 => {
            doc.churn = other.churn.clone().filter(|_| n >= 2).map(|mut c| {
                c.min_stations = c.min_stations.clamp(1, n - 1);
                c.max_stations = c.max_stations.clamp(c.min_stations + 1, n);
                c
            });
        }
        // Take the partner's roaming schedule (roster-independent).
        2 => doc.roaming = other.roaming.clone(),
        // Take the partner's policy, if its refs fit this roster.
        _ => {
            fn max_ref(nodes: &[PolicyNodeSpec]) -> usize {
                nodes
                    .iter()
                    .map(|node| {
                        node.stations
                            .iter()
                            .flatten()
                            .copied()
                            .chain(node.nodes.as_deref().map(max_ref))
                            .max()
                            .unwrap_or(0)
                    })
                    .max()
                    .unwrap_or(0)
            }
            if let Some(p) = &other.policy {
                let fits = max_ref(&p.nodes) < n
                    && p.switches
                        .iter()
                        .all(|sw| sw.at_secs < secs && max_ref(&sw.nodes) < n);
                if fits {
                    doc.policy = Some(p.clone());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn base() -> ScenarioFile {
        ScenarioFile {
            secs: 5,
            stations: vec![
                StationSpec::new("mcs15"),
                StationSpec::new("mcs7"),
                StationSpec {
                    weight: Some(512),
                    ..StationSpec::new("vht4")
                },
            ],
            traffic: vec![
                TrafficSpec::TcpDown { station: 0 },
                TrafficSpec::TcpDown { station: 1 },
                TrafficSpec::UdpDown {
                    station: 2,
                    mbps: 10,
                    poisson: false,
                },
            ],
            faults: vec![FaultSpec {
                from_secs: 1.0,
                until_secs: 3.0,
                station: Some(1),
                kind: FaultKind::BurstLoss {
                    bad_frac: 0.3,
                    burst_len: 16.0,
                    loss_bad: 0.8,
                },
            }],
            policy: Some(PolicySpec {
                nodes: vec![
                    PolicyNodeSpec {
                        name: "fast".into(),
                        weight: 2,
                        classes: None,
                        stations: Some(vec![0, 2]),
                        nodes: None,
                    },
                    PolicyNodeSpec {
                        name: "slow".into(),
                        weight: 1,
                        classes: None,
                        stations: Some(vec![1]),
                        nodes: None,
                    },
                ],
                switches: Vec::new(),
            }),
            ..ScenarioFile::default()
        }
    }

    #[test]
    fn mutants_always_validate() {
        let mut rng = SmallRng::seed_from_u64(7);
        let b = base();
        let mut distinct = std::collections::BTreeSet::new();
        for _ in 0..200 {
            let m = mutate(&mut rng, &b, Some(&b), 8);
            if let Err(e) = m.build() {
                panic!("invalid mutant: {e}\n{}", m.text());
            }
            distinct.insert(m.hash());
        }
        assert!(
            distinct.len() > 100,
            "mutators should explore, got {} distinct docs",
            distinct.len()
        );
    }

    #[test]
    fn mutation_stream_is_seed_deterministic() {
        let b = base();
        let run = |seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..50)
                .map(|_| mutate(&mut rng, &b, None, 8).hash())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn drop_station_remaps_every_reference() {
        let mut doc = base();
        drop_station(&mut doc, 1);
        doc.build().unwrap();
        assert_eq!(doc.stations.len(), 2);
        // Traffic for station 1 is gone; station 2 became station 1.
        assert_eq!(
            doc.traffic,
            vec![
                TrafficSpec::TcpDown { station: 0 },
                TrafficSpec::UdpDown {
                    station: 1,
                    mbps: 10,
                    poisson: false
                },
            ]
        );
        // The fault targeting station 1 is gone.
        assert!(doc.faults.is_empty());
        // The "slow" leaf emptied out and disappeared.
        let p = doc.policy.as_ref().unwrap();
        assert_eq!(p.nodes.len(), 1);
        assert_eq!(p.nodes[0].stations, Some(vec![0, 1]));
    }
}
