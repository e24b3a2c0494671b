//! Extension experiment: hierarchical airtime policies — the
//! `wifiq-policy` engine exercised end to end.
//!
//! Sweeps weight ratios (flat 1:2:4), group hierarchies (tenant slices,
//! device-class splits) and rosters (rate-diverse paper testbed,
//! all-fast) under saturating downlink UDP, and gates on the contracts
//! the policy engine must keep:
//!
//! 1. **Achieved airtime tracks the configured tree** — each station's
//!    measured share is within 5 points of its compiled share at every
//!    sweep point; per-node `policy/node_airtime_ns` rollups match the
//!    per-node configured shares just as tightly.
//! 2. **Runtime switches converge without draining queues** — a mid-run
//!    `PolicySwitch` reversing a 1:2:4 split settles onto the new shares
//!    within 2 s, with and without the chaos matrix (burst loss + ACK
//!    loss) running across the switch.
//! 3. **Equal weights are byte-invisible** — an all-equal `PolicySet`
//!    produces meters and (policy-counters aside) telemetry identical to
//!    a run with no policy at all.
//! 4. **Policy is worker-count independent** — sharded policy runs on
//!    one worker and on four merge to byte-identical rollups
//!    (`results/policy_rollup_seq.json` vs `_par.json`; CI `cmp`s them).
//!
//! Results land in `results/BENCH_policy.json` with a `gates` block;
//! any violated gate is an `Err` (and so fails `wifiq all`).

use std::fmt::Write as _;

use crate::report::{pct, write_json, Table};
use crate::rollup::{rollup_identity, Flood};
use crate::runner::{mean, meter_delta, meter_window, run_seeds, shares_of};
use crate::{scenario, RunCfg};
use wifiq_mac::{
    FaultEntry, FaultTarget, Impairment, NetworkConfig, PolicyNode, PolicySet, Preset, SchemeKind,
    StationMeter, WifiNetwork,
};
use wifiq_phy::AccessCategory;
use wifiq_scale::ShardCtx;
use wifiq_sim::Nanos;
use wifiq_telemetry::{Label, Registry, Telemetry};
use wifiq_traffic::TrafficApp;

const BE: usize = 2; // AccessCategory::Be.index()

/// Flat 1:2:4 split across the three testbed stations.
fn tree_flat() -> PolicySet {
    PolicySet::flat(&[1, 2, 4])
}

/// Two tenant slices with equal weight: slice A holds both fast
/// stations, slice B the slow one — B's lone member gets half the air.
fn tree_tenants() -> PolicySet {
    PolicySet::new(vec![
        PolicyNode::leaf("tenant-a", 1, vec![0, 1]),
        PolicyNode::leaf("tenant-b", 1, vec![2]),
    ])
}

/// Device-class split: interactive classes vs bulk classes over the same
/// roster. Under BE-only load the bulk node governs and splits evenly.
fn tree_classes() -> PolicySet {
    PolicySet::new(vec![
        PolicyNode::leaf("interactive", 2, vec![0, 1, 2])
            .classes(vec![AccessCategory::Vo, AccessCategory::Vi]),
        PolicyNode::leaf("bulk", 1, vec![0, 1, 2])
            .classes(vec![AccessCategory::Be, AccessCategory::Bk]),
    ])
}

#[derive(serde::Serialize)]
struct Row {
    tree: String,
    roster: String,
    expected: Vec<f64>,
    measured: Vec<f64>,
    max_err: f64,
    node_names: Vec<String>,
    node_expected: Vec<f64>,
    node_measured: Vec<f64>,
    node_max_err: f64,
}

/// One sweep point: the tree applied to the (possibly re-rated) testbed
/// under saturating BE UDP; returns measured vs compiled shares, both
/// per station and rolled up per policy node.
fn run_point(tree: &str, set: PolicySet, roster: &str, gate_nodes: bool, cfg: &RunCfg) -> Row {
    let compiled = set.compile(3).expect("sweep trees are valid");
    let expected: Vec<f64> = (0..3).map(|s| compiled.share(s, BE)).collect();
    let nodes = compiled.node_count();
    let cell = format!("{tree}_{roster}");
    // (per-station airtime shares, per-node airtime ns) per repetition.
    type Rep = (Vec<f64>, Vec<u64>);
    let reps: Vec<Rep> = run_seeds("ext_policy", &cell, "", cfg, |seed| {
        let mut net_cfg = scenario::testbed3(SchemeKind::AirtimeFair, seed);
        if roster == "fast" {
            for station in net_cfg.stations.iter_mut() {
                station.rate = wifiq_phy::PhyRate::fast_station();
            }
        }
        net_cfg.policy = wifiq_mac::PolicyTimeline::fixed(set.clone());
        let mut net: WifiNetwork<wifiq_traffic::AppMsg> = WifiNetwork::new(net_cfg);
        let tele = Telemetry::enabled();
        net.set_telemetry(tele.clone());
        let mut app = TrafficApp::new();
        for sta in 0..3 {
            app.add_udp_down(sta, 100_000_000, Nanos::ZERO);
        }
        app.install(&mut net);
        net.run(cfg.warmup, &mut app);
        let before: Vec<StationMeter> = net.meter().all().to_vec();
        let node_before: Vec<u64> = (0..nodes)
            .map(|n| tele.counter("policy", "node_airtime_ns", Label::Node(n as u32)))
            .collect();
        net.run(cfg.duration, &mut app);
        let window: Vec<StationMeter> = meter_window(net.meter().all(), &before);
        let node_air: Vec<u64> = (0..nodes)
            .map(|n| {
                tele.counter("policy", "node_airtime_ns", Label::Node(n as u32)) - node_before[n]
            })
            .collect();
        (shares_of(&window), node_air)
    });
    let measured: Vec<f64> = (0..3)
        .map(|sta| mean(&reps.iter().map(|r| r.0[sta]).collect::<Vec<_>>()))
        .collect();
    let max_err = expected
        .iter()
        .zip(&measured)
        .map(|(e, m)| (e - m).abs())
        .fold(0.0, f64::max);
    // Per-node configured share: the sum of the BE shares of the
    // stations the node governs at BE. Only meaningful when every node
    // sees the offered (BE-only) load, so class trees skip the gate.
    let node_expected: Vec<f64> = (0..nodes)
        .map(|n| {
            (0..3)
                .filter(|&s| compiled.node_of(s, BE) == n as u32)
                .map(|s| compiled.share(s, BE))
                .sum()
        })
        .collect();
    let node_measured: Vec<f64> = {
        let sums: Vec<f64> = (0..nodes)
            .map(|n| reps.iter().map(|r| r.1[n] as f64).sum())
            .collect();
        let total: f64 = sums.iter().sum::<f64>().max(1.0);
        sums.iter().map(|s| s / total).collect()
    };
    let node_max_err = if gate_nodes {
        node_expected
            .iter()
            .zip(&node_measured)
            .map(|(e, m)| (e - m).abs())
            .fold(0.0, f64::max)
    } else {
        0.0
    };
    Row {
        tree: tree.to_string(),
        roster: roster.to_string(),
        expected,
        measured,
        max_err,
        node_names: (0..nodes)
            .map(|n| compiled.node_name(n as u32).to_string())
            .collect(),
        node_expected,
        node_measured,
        node_max_err,
    }
}

/// The convergence probe: a 1:2:4 split reversed by a mid-run switch;
/// returns how long after the switch the measured shares first land (and
/// stay, for the probe's final window) within 5 points of the new tree.
/// `f64::INFINITY` means it never converged inside the probe.
fn convergence_probe(chaos: bool, seed: u64) -> f64 {
    let switch_at = Nanos::from_secs(4);
    let end = switch_at + Nanos::from_secs(4);
    let after = PolicySet::flat(&[4, 2, 1]);
    let mut b = NetworkConfig::builder()
        .preset(Preset::PaperTestbed)
        .scheme(SchemeKind::AirtimeFair)
        .seed(seed)
        .policy(tree_flat())
        .policy_switch(switch_at, after.clone());
    if chaos {
        // The chaos matrix straddles the switch: bursty loss at the slow
        // station plus global ACK loss while shares re-settle.
        b = b
            .fault(FaultEntry::new(
                Nanos::from_secs(3),
                Nanos::from_secs(6),
                FaultTarget::Station(scenario::SLOW),
                Impairment::bursty_loss(0.25, 8.0, 0.5),
            ))
            .fault(FaultEntry::new(
                Nanos::from_secs(3),
                Nanos::from_secs(6),
                FaultTarget::AllStations,
                Impairment::AckLoss { prob: 0.05 },
            ));
    }
    let mut net: WifiNetwork<wifiq_traffic::AppMsg> = WifiNetwork::new(b.build());
    let mut app = TrafficApp::new();
    for sta in 0..3 {
        app.add_udp_down(sta, 100_000_000, Nanos::ZERO);
    }
    app.install(&mut net);
    net.run(switch_at, &mut app);
    let backlog_at_switch = net.ap_backlog();
    let target = after.compile(3).expect("valid");
    let expected: Vec<f64> = (0..3).map(|s| target.share(s, BE)).collect();
    let step = Nanos::from_millis(500);
    let mut t = switch_at;
    let mut prev: Vec<StationMeter> = net.meter().all().to_vec();
    let mut converged = f64::INFINITY;
    while t < end {
        t += step;
        net.run(t, &mut app);
        let cur: Vec<StationMeter> = net.meter().all().to_vec();
        let window: Vec<StationMeter> = cur
            .iter()
            .zip(&prev)
            .map(|(l, e)| meter_delta(l, e))
            .collect();
        prev = cur;
        let shares = shares_of(&window);
        let err = expected
            .iter()
            .zip(&shares)
            .map(|(e, m)| (e - m).abs())
            .fold(0.0, f64::max);
        if err <= 0.05 {
            if converged.is_infinite() {
                converged = (t - switch_at).as_millis_f64();
            }
        } else {
            // A later non-compliant window voids the claim: converged
            // means converged-and-stayed.
            converged = f64::INFINITY;
        }
    }
    assert_eq!(
        net.policy_switches_applied(),
        1,
        "the probe's switch must fire"
    );
    assert!(
        backlog_at_switch > 0,
        "probe stations must be backlogged across the switch"
    );
    converged
}

/// Gate 3: a run under an all-equal `PolicySet` must be byte-identical
/// to one with no policy at all — same meters, same telemetry once the
/// `policy/*` counters (which only the policy run emits) are set aside.
fn equal_weights_identity(seed: u64) -> bool {
    let run = |policy: Option<PolicySet>| {
        let mut b = NetworkConfig::builder()
            .preset(Preset::PaperTestbed)
            .scheme(SchemeKind::AirtimeFair)
            .seed(seed);
        if let Some(set) = policy {
            b = b.policy(set);
        }
        let mut net: WifiNetwork<()> = WifiNetwork::new(b.build());
        let tele = Telemetry::enabled();
        net.set_telemetry(tele.clone());
        let mut app = Flood::new(3);
        net.seed_timer(0, Nanos::ZERO);
        net.run(Nanos::from_secs(3), &mut app);
        let meters = format!("{:?}", net.meter().all());
        (meters, tele.take_registry().expect("registry"))
    };
    let (plain_meters, plain_reg) = run(None);
    let (equal_meters, equal_reg) = run(Some(PolicySet::equal(3)));
    let plain = plain_reg.without_component("policy").to_json().pretty();
    let equal = equal_reg.without_component("policy").to_json().pretty();
    if plain_meters != equal_meters {
        eprintln!("FAIL: equal-weights meters differ from the no-policy run");
    }
    if plain != equal {
        eprintln!("FAIL: equal-weights telemetry differs from the no-policy run");
    }
    plain_meters == equal_meters && plain == equal
}

/// One determinism shard: the tenant tree with a mid-run switch and a
/// burst-loss fault, flooded for 3 s, returning its telemetry registry.
fn policy_shard(ctx: &ShardCtx) -> ((), Option<Registry>) {
    let end = Nanos::from_secs(3);
    let cfg = NetworkConfig::builder()
        .preset(Preset::PaperTestbed)
        .scheme(SchemeKind::AirtimeFair)
        .seed(ctx.seed)
        .policy(tree_tenants())
        .policy_switch(Nanos::from_millis(1500), PolicySet::flat(&[4, 2, 1]))
        .fault(FaultEntry::new(
            Nanos::from_secs(1),
            Nanos::from_secs(2),
            FaultTarget::Station(scenario::SLOW),
            Impairment::bursty_loss(0.3, 8.0, 0.9),
        ))
        .build();
    let mut net: WifiNetwork<()> = WifiNetwork::new(cfg);
    let tele = Telemetry::enabled();
    net.set_telemetry(tele.clone());
    let mut app = Flood::new(3);
    net.seed_timer(0, Nanos::ZERO);
    net.run(end, &mut app);
    ((), tele.take_registry())
}

#[derive(serde::Serialize)]
struct Gates {
    share_err_max: f64,
    share_ok: bool,
    node_share_err_max: f64,
    node_share_ok: bool,
    convergence_ms: f64,
    convergence_chaos_ms: f64,
    convergence_ok: bool,
    equal_weights_identical: bool,
    rollup_identical: bool,
}

#[derive(serde::Serialize)]
struct Bench {
    rows: Vec<Row>,
    gates: Gates,
}

pub fn run(cfg: &RunCfg, _args: &[String]) -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Extension: policy — hierarchical airtime weights with runtime \
         switches ({} reps x {}s; trees x rosters)\n",
        cfg.reps,
        cfg.duration.as_millis() / 1000
    );

    let rows = vec![
        run_point("flat_1_2_4", tree_flat(), "diverse", true, cfg),
        run_point("flat_1_2_4", tree_flat(), "fast", true, cfg),
        run_point("tenants_1_1", tree_tenants(), "diverse", true, cfg),
        run_point("classes_vo_be", tree_classes(), "diverse", false, cfg),
    ];

    let mut t = Table::new(vec!["Tree", "Roster", "Expected", "Measured", "Max err"]);
    for r in &rows {
        t.row(vec![
            r.tree.clone(),
            r.roster.clone(),
            r.expected
                .iter()
                .map(|s| pct(*s))
                .collect::<Vec<_>>()
                .join(" "),
            r.measured
                .iter()
                .map(|s| pct(*s))
                .collect::<Vec<_>>()
                .join(" "),
            format!("{:.3}", r.max_err),
        ]);
    }
    out.push_str(&t.render());

    // Gate 1: achieved airtime tracks the configured tree, per station
    // and per node, at every sweep point.
    let share_err_max = rows.iter().map(|r| r.max_err).fold(0.0, f64::max);
    let share_ok = share_err_max <= 0.05;
    let node_share_err_max = rows.iter().map(|r| r.node_max_err).fold(0.0, f64::max);
    let node_share_ok = node_share_err_max <= 0.05;

    // Gate 2: a mid-run switch converges within 2 s, clean and chaotic.
    let convergence_ms = convergence_probe(false, cfg.base_seed);
    let convergence_chaos_ms = convergence_probe(true, cfg.base_seed);
    let convergence_ok = convergence_ms <= 2000.0 && convergence_chaos_ms <= 2000.0;

    // Gate 3: equal weights are byte-invisible.
    let equal_weights_identical = equal_weights_identity(cfg.base_seed);

    // Gate 4: worker-count independence of the policy rollup. The
    // metrics snapshot also carries the harness-measured convergence, so
    // scripts/check_metrics.py validates the whole policy vocabulary.
    let rollup_identical = rollup_identity(cfg, "policy", 2, policy_shard, |tele| {
        tele.observe_value(
            "policy",
            "convergence_ms",
            Label::Global,
            convergence_ms as u64,
        )
    });

    let gates = Gates {
        share_err_max,
        share_ok,
        node_share_err_max,
        node_share_ok,
        convergence_ms,
        convergence_chaos_ms,
        convergence_ok,
        equal_weights_identical,
        rollup_identical,
    };
    let ok = gates.share_ok
        && gates.node_share_ok
        && gates.convergence_ok
        && gates.equal_weights_identical
        && gates.rollup_identical;

    let _ = writeln!(
        out,
        "\nGates: share err max {:.3} (<= 0.05: {share_ok}), node err max \
         {:.3} (<= 0.05: {node_share_ok}), switch converged in {:.0} ms / \
         {:.0} ms chaos (<= 2000: {convergence_ok}), equal weights \
         byte-identical {equal_weights_identical}, rollup byte-identical \
         {rollup_identical}.",
        share_err_max, node_share_err_max, convergence_ms, convergence_chaos_ms,
    );
    let _ = writeln!(
        out,
        "\nThe policy tree compiles to per-(station, AC) deficit weights, so\n\
         hierarchy costs nothing on the hot path: slices and classes are\n\
         just numbers the DRR quantum already multiplies. Switches swap\n\
         those numbers at a round boundary — no drain, no deficit reset —\n\
         and the shares re-settle within a couple of scheduler rotations."
    );
    write_json(cfg, "BENCH_policy", &Bench { rows, gates });
    if !ok {
        return Err(format!(
            "{out}\next_policy: one or more gates violated (see above)."
        ));
    }
    Ok(out)
}
