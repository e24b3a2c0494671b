//! Policy validation: the hierarchical airtime policy engine must be
//! byte-invisible when every station's compiled share is equal, must
//! never disturb the deficits of untouched scheduler slots across a
//! runtime switch, and must neither leak policy nodes nor lose weight
//! mass when the roster churns underneath a policy tree.

use ending_anomaly::core::{AirtimeParams, AirtimeScheduler, StaId, StationTable, WEIGHT_NEUTRAL};
use ending_anomaly::experiments::flood::Flood;
use ending_anomaly::mac::{
    NetworkConfig, PolicyNode, PolicySet, SchemeKind, StationCfg, WifiNetwork,
};
use ending_anomaly::phy::{AccessCategory, PhyRate};
use ending_anomaly::policy::NODE_NONE;
use ending_anomaly::sim::Nanos;
use ending_anomaly::telemetry::Telemetry;
use proptest::prelude::*;

/// Runs an `n`-station flood for 300 ms and returns (meters debug,
/// telemetry JSON with the `policy` component set aside).
fn fingerprint(n: usize, seed: u64, policy: Option<PolicySet>) -> (String, String) {
    let mut b = NetworkConfig::builder()
        .scheme(SchemeKind::AirtimeFair)
        .seed(seed);
    for _ in 0..n {
        b = b.station(PhyRate::fast_station());
    }
    if let Some(set) = policy {
        b = b.policy(set);
    }
    let mut net: WifiNetwork<()> = WifiNetwork::new(b.build());
    let tele = Telemetry::enabled();
    net.set_telemetry(tele.clone());
    let mut app = Flood::new(n);
    net.seed_timer(0, Nanos::ZERO);
    net.run(Nanos::from_millis(300), &mut app);
    let meters = format!("{:?}", net.meter().all());
    let reg = tele.take_registry().expect("registry");
    (meters, reg.without_component("policy").to_json().pretty())
}

/// A partition of `0..n` into contiguous leaf groups where each group's
/// weight equals its member count: every station's compiled share is
/// exactly `1/n`, so every scheduler weight is exactly neutral.
fn equal_share_partition(n: usize, cuts: &[usize]) -> PolicySet {
    let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (n - 1) + 1).collect();
    bounds.push(0);
    bounds.push(n);
    bounds.sort_unstable();
    bounds.dedup();
    let mut roots = Vec::new();
    for w in bounds.windows(2) {
        let members: Vec<usize> = (w[0]..w[1]).collect();
        roots.push(PolicyNode::leaf(
            &format!("g{}", w[0]),
            members.len() as u32,
            members,
        ));
    }
    PolicySet::new(roots)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any equal-share tree — flat or a count-weighted partition — is
    /// byte-identical to running with no policy at all.
    #[test]
    fn equal_share_policy_is_byte_invisible(
        n in 2usize..6,
        seed in 0u64..1_000,
        cuts in proptest::collection::vec(0usize..64, 0..3),
        flat in proptest::bool::ANY,
    ) {
        let set = if flat {
            PolicySet::equal(n)
        } else {
            equal_share_partition(n, &cuts)
        };
        let compiled = set.compile(n).expect("valid partition");
        for sta in 0..n {
            prop_assert_eq!(
                compiled.station_weights(sta),
                [WEIGHT_NEUTRAL; 4],
                "equal-share tree must compile to neutral weights"
            );
        }
        let plain = fingerprint(n, seed, None);
        let under_policy = fingerprint(n, seed, Some(set));
        prop_assert_eq!(plain.0, under_policy.0, "meters diverged");
        prop_assert_eq!(plain.1, under_policy.1, "telemetry diverged");
    }

    /// Reweighting one station (what a `PolicySwitch` does to the nodes
    /// it touches) never moves any other slot's deficit, and never moves
    /// even the touched slot's deficit — only its future refills.
    #[test]
    fn switches_preserve_untouched_deficits(
        n in 2usize..8,
        charges in proptest::collection::vec((0usize..8, 0usize..4, 1u64..500_000), 1..40),
        touched in 0usize..8,
        new_weight in 1u32..2048,
    ) {
        let mut s = AirtimeScheduler::new(AirtimeParams::default());
        let mut table: StationTable<()> = StationTable::new();
        let handles: Vec<StaId> = (0..n).map(|_| s.register_station(&mut table, ())).collect();
        for &(sta, ac, ns) in &charges {
            s.charge(&mut table, handles[sta % n], ac, Nanos::from_nanos(ns));
        }
        let before: Vec<Vec<i64>> = handles
            .iter()
            .map(|&h| (0..4).map(|ac| table.get(h).deficit(ac)).collect())
            .collect();
        let touched = touched % n;
        table.set_ac_weights(handles[touched], [new_weight; 4]);
        for (sta, (&h, before)) in handles.iter().zip(&before).enumerate() {
            for (ac, &expect) in before.iter().enumerate() {
                prop_assert_eq!(
                    table.get(h).deficit(ac),
                    expect,
                    "deficit moved for station {} ac {}",
                    sta,
                    ac
                );
            }
        }
        prop_assert_eq!(table.get(handles[touched]).weight(0), new_weight);
    }

    /// Station churn under a policy tree leaks nothing: every active
    /// slot always carries exactly the compiled weights for its slot
    /// (re-joined stations inherit the policy, never a stale weight),
    /// and the compiled node set never grows.
    #[test]
    fn churn_leaks_no_nodes_or_weight_mass(
        seed in 0u64..1_000,
        churn in proptest::collection::vec((0usize..3, proptest::bool::ANY), 1..12),
    ) {
        let n = 3;
        let set = PolicySet::new(vec![
            PolicyNode::leaf("gold", 3, vec![0, 1]),
            PolicyNode::leaf("best-effort", 1, vec![2]),
        ]);
        let compiled = set.compile(n).expect("valid");
        let mut b = NetworkConfig::builder()
            .scheme(SchemeKind::AirtimeFair)
            .seed(seed)
            .policy(set);
        for _ in 0..n {
            b = b.station(PhyRate::fast_station());
        }
        let mut net: WifiNetwork<()> = WifiNetwork::new(b.build());
        let mut app = Flood::new(n);
        net.seed_timer(0, Nanos::ZERO);
        let mut active = vec![true; n];
        let mut t = Nanos::ZERO;
        for &(sta, join) in &churn {
            t += Nanos::from_millis(20);
            net.run(t, &mut app);
            if join && !active[sta] {
                // Usually reuses a vacated slot; if the leaver's exchange
                // is still on the air the teardown is deferred and the
                // join lands on a fresh (policy-uncovered) slot instead.
                let slot = net
                    .add_station(StationCfg::clean(PhyRate::fast_station()))
                    .slot();
                if slot >= active.len() {
                    active.push(true);
                } else {
                    active[slot] = true;
                }
            } else if !join && sta < active.len() && active[sta] && active.iter().filter(|&&a| a).count() > 1 {
                let id = net.sta_id(sta).expect("active slot resolves");
                net.remove_station(id);
                active[sta] = false;
            }
            // Invariant: every active slot carries the compiled weights.
            let mut mass = 0u64;
            for (slot, &is_active) in active.iter().enumerate() {
                if !is_active {
                    continue;
                }
                let want = compiled.station_weights(slot);
                for ac in AccessCategory::ALL {
                    let got = net
                        .sta_id(slot)
                        .and_then(|id| net.station_ac_weight(id, ac));
                    prop_assert_eq!(
                        got,
                        Some(want[ac.index()]),
                        "slot {} ac {:?} weight drifted under churn",
                        slot,
                        ac
                    );
                }
                mass += u64::from(want[AccessCategory::Be.index()]);
                if slot < n {
                    prop_assert!(
                        compiled.node_of(slot, AccessCategory::Be.index()) != NODE_NONE,
                        "covered slot lost its node"
                    );
                }
            }
            // Weight mass is a pure function of the active roster — the
            // tree itself never gains or loses nodes.
            let expect: u64 = active
                .iter()
                .enumerate()
                .filter(|(_, &a)| a)
                .map(|(slot, _)| u64::from(compiled.station_weights(slot)[2]))
                .sum();
            prop_assert_eq!(mass, expect);
            prop_assert_eq!(compiled.node_count(), 2);
        }
    }
}
