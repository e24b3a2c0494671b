//! Property tests for the delta-debugging shrinker.
//!
//! The oracle here is synthetic (structural, no simulation) so proptest
//! can afford hundreds of cases: a document "fails" while some stall
//! fault survives. The properties mirror the shrinker's contract:
//! every accepted reduction step still exhibits the failing objective
//! (the oracle approved it), every candidate the oracle sees validates,
//! and the result is a fixpoint — shrinking it again changes nothing.

use proptest::prelude::*;
use wifiq_experiments::scenario_file::{
    ChurnSpec, FaultKind, FaultSpec, PolicyNodeSpec, PolicySpec, ScenarioFile, StationSpec,
    TrafficSpec,
};
use wifiq_search::shrink;

/// The synthetic failing objective: a stall fault survives.
fn fails(doc: &ScenarioFile) -> bool {
    doc.faults
        .iter()
        .any(|f| matches!(f.kind, FaultKind::Stall))
}

fn extra_fault(idx: usize, n: usize, from: f64, len: f64, secs: u64) -> Option<FaultSpec> {
    let from = (from * 10.0).round() / 10.0;
    let until = (((from + len) * 10.0).round() / 10.0).min(secs as f64);
    if until <= from {
        return None;
    }
    let station = Some(idx % n);
    let kind = match idx % 6 {
        0 => FaultKind::Loss { prob: 0.1 },
        1 => FaultKind::AckLoss { prob: 0.2 },
        2 => FaultKind::HwBackpressure { depth: 4 },
        3 => FaultKind::RateCollapse {
            rate: "mcs1".into(),
        },
        4 => FaultKind::RateOscillate {
            low: "mcs1".into(),
            period_ms: 200,
        },
        _ => FaultKind::BurstLoss {
            bad_frac: 0.5,
            burst_len: 16.0,
            loss_bad: 0.9,
        },
    };
    Some(FaultSpec {
        from_secs: from,
        until_secs: until,
        station,
        kind,
    })
}

/// Builds a baggage-laden document that fails the synthetic objective.
fn laden(
    n: usize,
    secs: u64,
    extras: Vec<(usize, f64, f64)>,
    with_policy: bool,
    with_churn: bool,
) -> ScenarioFile {
    let mut faults = vec![FaultSpec {
        from_secs: 0.5,
        until_secs: (secs as f64) - 0.5,
        station: Some(1 % n),
        kind: FaultKind::Stall,
    }];
    faults.extend(
        extras
            .into_iter()
            .filter_map(|(idx, from, len)| extra_fault(idx, n, from, len, secs)),
    );
    let policy = with_policy.then(|| PolicySpec {
        nodes: vec![
            PolicyNodeSpec {
                name: "a".into(),
                weight: 1,
                classes: None,
                stations: Some((0..n / 2).collect()),
                nodes: None,
            },
            PolicyNodeSpec {
                name: "b".into(),
                weight: 2,
                classes: None,
                stations: Some((n / 2..n).collect()),
                nodes: None,
            },
        ],
        switches: Vec::new(),
    });
    let churn = with_churn.then_some(ChurnSpec {
        mean_interval_ms: 800,
        min_stations: 1,
        max_stations: n,
    });
    ScenarioFile {
        scheme: "airtime".into(),
        secs,
        seed: 11,
        station_fq: false,
        rate_control: false,
        aql_ms: None,
        stations: (0..n)
            .map(|i| StationSpec::new(if i % 2 == 0 { "mcs15" } else { "mcs7" }))
            .collect(),
        traffic: (0..n)
            .map(|s| TrafficSpec::TcpDown { station: s })
            .chain([TrafficSpec::Ping { station: 0 }])
            .collect(),
        faults,
        churn,
        policy,
        roaming: None,
        provenance: None,
    }
}

proptest! {
    /// Shrinking preserves the failing objective at every accepted step,
    /// only ever consults the oracle on valid documents, and reaches a
    /// fixpoint: `shrink(shrink(x))` accepts zero further steps.
    #[test]
    fn shrink_preserves_objective_and_reaches_fixpoint(
        n in 2usize..7,
        secs in 4u64..14,
        extras in proptest::collection::vec(
            (0usize..12, 0.5f64..3.0, 1.0f64..8.0), 0..4),
        with_policy in proptest::bool::ANY,
        with_churn in proptest::bool::ANY,
    ) {
        let doc = laden(n, secs, extras, with_policy, with_churn);
        doc.build().expect("laden doc must validate");
        prop_assert!(fails(&doc));

        // `shrink` only advances when the oracle approves a candidate, so
        // the approved sequence *is* the accepted reduction chain.
        let mut approved: Vec<ScenarioFile> = Vec::new();
        let (min, steps) = shrink(&doc, |d| {
            d.build().expect("oracle consulted on an invalid doc");
            let ok = fails(d);
            if ok {
                approved.push(d.clone());
            }
            ok
        });
        prop_assert_eq!(
            approved.len() as u64, steps,
            "every oracle approval must be an accepted step"
        );
        for step in &approved {
            prop_assert!(fails(step), "accepted step lost the objective");
        }
        prop_assert!(fails(&min));
        min.build().expect("minimal doc must validate");
        prop_assert!(min.size_bytes() <= doc.size_bytes());

        // Fixpoint: a second shrink accepts nothing and returns the same
        // document.
        let (again, more) = shrink(&min, fails);
        prop_assert_eq!(more, 0, "shrink(shrink(x)) accepted further steps");
        prop_assert_eq!(again, min);
    }
}
