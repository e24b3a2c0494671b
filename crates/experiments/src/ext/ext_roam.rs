//! Extension experiment: inter-BSS roaming. What does mid-flow mobility
//! cost an airtime-fair shard set?
//!
//! Sweeps hand-off rate (mean dwell) × roster size × rate asymmetry
//! (uniform fast palette vs the fast/slow mix that re-rolls each roamer's
//! MCS on arrival) through [`wifiq_scale::RoamSet`]: every BSS runs a
//! saturating downlink flood to whatever schedule stations currently sit
//! on it, and delivered bytes are attributed per *schedule station* so a
//! station's share follows it across BSS boundaries.
//!
//! Four gates back the roaming contract:
//!
//! - **Fairness survives mobility**: post-settle Jain over per-station
//!   delivered bytes ≥ 0.9 on every uniform-palette point (byte shares
//!   under an asymmetric palette are only fair time-averaged over many
//!   re-rolls, so those rows report but do not gate).
//! - **Reassociation is bounded**: the longest observed gap (including
//!   window quantisation) stays ≤ 1 s.
//! - **Nothing leaks**: after a dedicated ≥ 10k hand-off soak, schedule
//!   stations are conserved, every departure has reassociated, per-shard
//!   slot tables stay bounded by the roster, and the coordinator's
//!   `roam/*` telemetry mirrors its stats exactly.
//! - **Policy survives hand-offs**: on a policied single-BSS roster every
//!   roam lands back inside its slot's policy node with the exact
//!   pre-roam weight (the multi-BSS engine starts from empty rosters, so
//!   its landings all take the neutral-fallback path by construction).
//!
//! Results land in `results/BENCH_roam.json`; one telemetry-on run's
//! merged rollup lands in `results/roam_rollup.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::report::{write_artifact, write_json, Table};
use crate::rollup::Flood;
use crate::runner::{mbps, mean, run_seeds};
use crate::RunCfg;
use wifiq_mac::{
    App, Commands, Delivery, NetworkConfig, NodeAddr, Packet, SchemeKind, StationIdx, WifiNetwork,
};
use wifiq_phy::{AccessCategory, PhyRate};
use wifiq_policy::PolicySet;
use wifiq_scale::{BssHost, RoamCfg, RoamRun, RoamSet, Roster, ShardCtx, SoloRoam};
use wifiq_sim::Nanos;
use wifiq_stats::jain_index;
use wifiq_telemetry::{Label, Registry, Telemetry};

const PKT_LEN: u64 = 1200;
const TICK: Nanos = Nanos::from_millis(1);

/// Downlink flood to whatever slots are currently associated, with
/// delivered bytes attributed to *schedule* stations (the identity that
/// survives hand-offs), not slots.
#[derive(Default)]
struct RoamFlood {
    /// slot → schedule station, maintained from roster notifications.
    slots: BTreeMap<StationIdx, u32>,
    /// schedule station → delivered bytes (cumulative).
    bytes: BTreeMap<u32, u64>,
    /// `bytes` frozen at the settle boundary.
    settled: Option<BTreeMap<u32, u64>>,
    pkts: u64,
    sent: u64,
}

impl App<()> for RoamFlood {
    fn on_packet(&mut self, at: Delivery, pkt: Packet<()>, _now: Nanos, _cmds: &mut Commands<()>) {
        if let Delivery::AtStation(slot) = at {
            // Attribute to the current occupant; a frame landing in the
            // gap after its addressee left is dropped by the MAC before
            // it reaches us, so the map lookup cannot misattribute.
            if let Some(&sta) = self.slots.get(&slot) {
                *self.bytes.entry(sta).or_insert(0) += pkt.len;
                self.pkts += 1;
            }
        }
    }

    fn on_timer(&mut self, token: u64, now: Nanos, cmds: &mut Commands<()>) {
        for &slot in self.slots.keys() {
            self.sent += 1;
            cmds.send(Packet {
                id: self.sent,
                src: NodeAddr::Server,
                dst: NodeAddr::Station(slot),
                flow: slot as u64,
                len: PKT_LEN,
                ac: AccessCategory::Be,
                created: now,
                enqueued: now,
                payload: (),
            });
        }
        cmds.set_timer(token, now + TICK);
    }
}

struct Host {
    net: WifiNetwork<()>,
    app: RoamFlood,
    tele: Telemetry,
    settle: Nanos,
}

impl BssHost for Host {
    type M = ();
    fn net_mut(&mut self) -> &mut WifiNetwork<()> {
        &mut self.net
    }
    fn advance(&mut self, until: Nanos) {
        self.net.run(until, &mut self.app);
        // All shards cross the settle point at the same lockstep
        // boundary, so the per-shard snapshots are mutually consistent.
        if self.app.settled.is_none() && until >= self.settle {
            self.app.settled = Some(self.app.bytes.clone());
        }
    }
    fn station_arrived(&mut self, station: u32, slot: StationIdx) {
        self.app.slots.insert(slot, station);
    }
    fn station_departed(&mut self, _station: u32, slot: StationIdx) {
        self.app.slots.remove(&slot);
    }
}

/// One shard's contribution after a run.
#[derive(Debug, PartialEq)]
struct ShardOut {
    /// Post-settle delivered bytes per schedule station on this shard.
    bytes: BTreeMap<u32, u64>,
    total_bytes: u64,
    active: usize,
    /// Live slot-map entries at the end (must equal `active`).
    mapped: usize,
    slots: usize,
    roam_drops: u64,
}

fn build_host(ctx: &ShardCtx, settle: Nanos, metrics: bool) -> Host {
    // Engine-managed nets must start with an empty roster, and a policy
    // tree cannot reference stations that do not exist yet — so every
    // multi-BSS landing takes the neutral-fallback path here. The
    // policy-reattach path is exercised by `policy_check` on a
    // pre-populated single-BSS network.
    let cfg = NetworkConfig::builder()
        .scheme(SchemeKind::AirtimeFair)
        .seed(ctx.seed)
        .build();
    let mut net: WifiNetwork<()> = WifiNetwork::new(cfg);
    let tele = if metrics {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    net.set_telemetry(tele.clone());
    net.seed_timer(0, Nanos::ZERO);
    Host {
        net,
        app: RoamFlood::default(),
        tele,
        settle,
    }
}

fn finish_host(_shard: u32, host: Host) -> (ShardOut, Option<Registry>) {
    let settled = host.app.settled.unwrap_or_default();
    let bytes = host
        .app
        .bytes
        .iter()
        .map(|(&sta, &b)| (sta, b - settled.get(&sta).copied().unwrap_or(0)))
        .collect();
    (
        ShardOut {
            bytes,
            total_bytes: host.app.bytes.values().sum(),
            active: host.net.active_stations(),
            mapped: host.app.slots.len(),
            slots: host.net.station_slots(),
            roam_drops: host.net.roam_drops(),
        },
        host.tele.take_registry(),
    )
}

/// Sums each schedule station's post-settle bytes across the shards it
/// visited, in schedule-station order over the whole roster.
fn station_shares(run: &RoamRun<ShardOut>, roster: usize) -> Vec<f64> {
    let mut per_sta = vec![0u64; roster];
    for out in &run.outputs {
        for (&sta, &b) in &out.bytes {
            per_sta[sta as usize] += b;
        }
    }
    per_sta.iter().map(|&b| b as f64).collect()
}

#[derive(serde::Serialize)]
struct Row {
    bss: u32,
    roster: usize,
    dwell_ms: u64,
    palette: &'static str,
    handoffs: u64,
    roam_drops: u64,
    migrated_frames: u64,
    deferred: u64,
    max_reassoc_ms: f64,
    policy_reattach: u64,
    neutral_fallback: u64,
    jain_post_settle: f64,
    throughput_mbps: f64,
}

fn palette_rates(palette: &'static str) -> Vec<PhyRate> {
    match palette {
        "uniform" => vec![PhyRate::fast_station()],
        _ => vec![PhyRate::fast_station(), PhyRate::slow_station()],
    }
}

fn roam_set(bss: u32, roster: usize, dwell: Nanos, palette: &'static str, seed: u64) -> RoamSet {
    RoamSet::new(bss, seed)
        .with_roster(roster)
        .with_roam(RoamCfg {
            mean_dwell: dwell,
            rate_palette: palette_rates(palette),
            ..RoamCfg::default()
        })
        .with_window(Nanos::from_millis(50))
}

fn run_point(
    bss: u32,
    roster: usize,
    dwell: Nanos,
    palette: &'static str,
    settle: Nanos,
    duration: Nanos,
    cfg: &RunCfg,
) -> Result<Row, String> {
    let cell = format!("{bss}bss_{roster}sta");
    let config = format!(
        "{}ms_{palette}_{}ms",
        dwell.as_millis(),
        duration.as_millis()
    );
    // (per-station post-settle bytes, handoffs, roam drops, migrated,
    //  deferred, max reassoc ns, reattach/fallback packed).
    type Rep = (Vec<u64>, u64, u64, u64, u64, u64, Vec<u64>);
    let reps: Vec<Rep> = run_seeds("ext_roam", &cell, &config, cfg, |seed| {
        let run = roam_set(bss, roster, dwell, palette, seed).run(
            duration,
            |ctx| build_host(ctx, settle, false),
            finish_host,
        );
        let shares: Vec<u64> = station_shares(&run, roster)
            .iter()
            .map(|&b| b as u64)
            .collect();
        Ok((
            shares,
            run.stats.handoffs,
            run.stats.roam_drops,
            run.stats.migrated_frames,
            run.stats.deferred,
            run.stats.max_reassoc.as_nanos(),
            vec![run.stats.policy_reattach, run.stats.neutral_fallback],
        ))
    })?;
    let jains: Vec<f64> = reps
        .iter()
        .map(|r| jain_index(&r.0.iter().map(|&b| b as f64).collect::<Vec<_>>()))
        .collect();
    let throughput: Vec<f64> = reps
        .iter()
        .map(|r| mbps(r.0.iter().sum(), duration - settle))
        .collect();
    let n = reps.len() as u64;
    Ok(Row {
        bss,
        roster,
        dwell_ms: dwell.as_millis(),
        palette,
        handoffs: reps.iter().map(|r| r.1).sum::<u64>() / n,
        roam_drops: reps.iter().map(|r| r.2).sum::<u64>() / n,
        migrated_frames: reps.iter().map(|r| r.3).sum::<u64>() / n,
        deferred: reps.iter().map(|r| r.4).sum::<u64>() / n,
        max_reassoc_ms: reps.iter().map(|r| r.5).max().unwrap_or(0) as f64 / 1e6,
        policy_reattach: reps.iter().map(|r| r.6[0]).sum::<u64>() / n,
        neutral_fallback: reps.iter().map(|r| r.6[1]).sum::<u64>() / n,
        jain_post_settle: mean(&jains),
        throughput_mbps: mean(&throughput),
    })
}

/// The leak soak: hammer hand-offs until the coordinator has executed at
/// least `target` of them, then audit every conservation invariant.
fn leak_check(target: u64, seed: u64, out: &mut String) -> (u64, bool) {
    let (bss, roster) = (4u32, 16usize);
    let dwell = Nanos::from_millis(20);
    let cfg = RoamCfg {
        mean_dwell: dwell,
        reassoc_min: Nanos::from_millis(5),
        reassoc_max: Nanos::from_millis(15),
        rate_palette: palette_rates("mixed"),
    };
    // Each station cycles in roughly dwell + reassoc + one lockstep
    // window; size the run from that rate with headroom to spare.
    let cycle_ms = 20 + 10 + 50;
    let secs = (target * cycle_ms).div_ceil(roster as u64 * 1000) * 2;
    let settle = Nanos::from_millis(200);
    let run = RoamSet::new(bss, seed)
        .with_roster(roster)
        .with_roam(cfg)
        .with_window(Nanos::from_millis(25))
        .run(
            Nanos::from_secs(secs.max(1)),
            |ctx| build_host(ctx, settle, false),
            finish_host,
        );

    let active: usize = run.outputs.iter().map(|o| o.active).sum();
    let mapped_ok = run.outputs.iter().all(|o| o.mapped == o.active);
    let slots_ok = run.outputs.iter().all(|o| o.slots <= roster);
    let drops: u64 = run.outputs.iter().map(|o| o.roam_drops).sum();
    let tele_ok = run.registry.counter("roam", "handoffs", Label::Global) == run.stats.handoffs;

    let mut ok = true;
    let mut fail = |what: &str| {
        eprintln!("leak check FAILED: {what}");
        ok = false;
    };
    if run.stats.handoffs < target {
        fail(&format!(
            "soak too quiet: {} hand-offs < {target} target",
            run.stats.handoffs
        ));
    }
    if active != roster {
        fail(&format!("{active} active stations != roster {roster}"));
    }
    if !mapped_ok {
        fail("a shard's roster map disagrees with its network");
    }
    if !slots_ok {
        fail("a shard's slot table outgrew the roster (slots leaked)");
    }
    // The flush window lands every hand-off still in flight.
    if !run.stats.is_conserved(0) {
        fail(&format!("a station is lost in transit: {:?}", run.stats));
    }
    if drops != run.stats.roam_drops {
        fail("shard-side roam_drops disagree with the coordinator's");
    }
    if !tele_ok {
        fail("roam/* telemetry does not mirror the coordinator stats");
    }
    let _ = writeln!(
        out,
        "leak soak: {} hand-offs over {}s sim — roster conserved, \
         slot tables bounded, telemetry mirrored: {}",
        run.stats.handoffs,
        secs.max(1),
        if ok { "ok" } else { "VIOLATED" }
    );
    (run.stats.handoffs, ok)
}

/// The policy-reattach path: on a single BSS whose roster carries an
/// asymmetric flat policy, every hand-off must land back inside its
/// slot's policy node with the slot's exact pre-roam weight — no
/// neutral fallbacks, no weight drift.
fn policy_check(seed: u64, out: &mut String) -> bool {
    let roster = 6usize;
    let weights: Vec<u32> = (0..roster as u32).map(|i| 1 + 3 * (i % 2)).collect();
    let cfg = NetworkConfig::builder()
        .scheme(SchemeKind::AirtimeFair)
        .stations_at(roster, PhyRate::fast_station())
        .policy(PolicySet::flat(&weights))
        .seed(seed)
        .build();
    let mut net: WifiNetwork<()> = WifiNetwork::new(cfg);
    net.seed_timer(0, Nanos::ZERO);
    let expect: Vec<Option<u32>> = (0..roster)
        .map(|i| {
            net.sta_id(i)
                .and_then(|id| net.station_ac_weight(id, AccessCategory::Be))
        })
        .collect();
    // One packet per slot per tick; a slot mid-hand-off drops its share.
    let mut app = Flood::paced(roster, roster, PKT_LEN, TICK);
    let roam = SoloRoam::new(
        RoamCfg {
            mean_dwell: Nanos::from_millis(100),
            ..RoamCfg::default()
        },
        seed,
        roster,
    );
    let mut pump = Roster {
        churn: None,
        roam: Some(roam),
    };
    pump.run_to(&mut net, &mut app, Nanos::from_secs(3));
    let roam = pump.roam.expect("the roster keeps its replayer");

    let s = roam.stats;
    let landed_ok = s.is_conserved(roam.in_transit());
    let weights_ok = (0..roster).all(|slot| {
        !net.station_active(slot)
            || net
                .sta_id(slot)
                .and_then(|id| net.station_ac_weight(id, AccessCategory::Be))
                == expect[slot]
    });
    let ok = s.handoffs >= 20
        && s.neutral_fallback == 0
        && s.policy_reattach > 0
        && landed_ok
        && weights_ok;
    let _ = writeln!(
        out,
        "policy reattach: {} hand-offs on a policied BSS — {} reattached, \
         {} neutral, slot weights restored: {}",
        s.handoffs,
        s.policy_reattach,
        s.neutral_fallback,
        if weights_ok { "ok" } else { "VIOLATED" }
    );
    if !ok {
        eprintln!("policy reattach check FAILED: {s:?}");
    }
    ok
}

/// The one telemetry-on run: per-BSS registries merged under `shardN`
/// labels plus the engine's `roam/*` family, written as an artifact.
fn write_rollup(cfg: &RunCfg, duration: Nanos, settle: Nanos) {
    let run = roam_set(4, 8, Nanos::from_millis(200), "mixed", cfg.base_seed).run(
        duration,
        |ctx| build_host(ctx, settle, true),
        finish_host,
    );
    write_artifact(cfg, "roam_rollup.json", &run.registry.to_json().pretty());
}

#[derive(serde::Serialize)]
struct Gates {
    jain_min_uniform: f64,
    jain_ok: bool,
    max_reassoc_ms: f64,
    reassoc_ok: bool,
    soak_handoffs: u64,
    leaks_ok: bool,
    policy_ok: bool,
}

#[derive(serde::Serialize)]
struct Bench {
    rows: Vec<Row>,
    gates: Gates,
}

pub fn run(cfg: &RunCfg, _args: &[String]) -> Result<String, String> {
    let mut out = String::new();
    let quick = cfg.quick;
    let (settle, duration, soak_target) = if quick {
        (Nanos::from_millis(500), Nanos::from_secs(2), 1_000)
    } else {
        (Nanos::from_secs(1), Nanos::from_secs(8), 10_000)
    };
    let _ = writeln!(
        out,
        "Extension: inter-BSS roaming — hand-off rate x roster x rate \
         asymmetry over the windowed-lockstep engine ({} reps x {}ms sim)\n",
        cfg.reps,
        duration.as_millis()
    );

    // (bss, roster, dwell, palette)
    let grid: &[(u32, usize, u64, &'static str)] = if quick {
        &[
            (2, 4, 500, "uniform"),
            (2, 4, 500, "mixed"),
            (4, 8, 250, "uniform"),
            (4, 8, 250, "mixed"),
        ]
    } else {
        &[
            (2, 4, 1000, "uniform"),
            (2, 4, 1000, "mixed"),
            (4, 8, 1000, "uniform"),
            (4, 8, 1000, "mixed"),
            (4, 8, 250, "uniform"),
            (4, 8, 250, "mixed"),
            (4, 16, 500, "uniform"),
            (8, 24, 500, "mixed"),
        ]
    };
    let rows: Vec<Row> = grid
        .iter()
        .map(|&(bss, roster, dwell_ms, palette)| {
            run_point(
                bss,
                roster,
                Nanos::from_millis(dwell_ms),
                palette,
                settle,
                duration,
                cfg,
            )
        })
        .collect::<Result<_, _>>()?;

    let mut t = Table::new(vec![
        "BSS",
        "Roster",
        "Dwell (ms)",
        "Palette",
        "Hand-offs",
        "Drops",
        "Migrated",
        "Reassoc max (ms)",
        "Jain",
        "Mbps",
    ]);
    for r in &rows {
        t.row(vec![
            r.bss.to_string(),
            r.roster.to_string(),
            r.dwell_ms.to_string(),
            r.palette.to_string(),
            r.handoffs.to_string(),
            r.roam_drops.to_string(),
            r.migrated_frames.to_string(),
            format!("{:.1}", r.max_reassoc_ms),
            format!("{:.3}", r.jain_post_settle),
            format!("{:.1}", r.throughput_mbps),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');

    let (soak_handoffs, leaks_ok) = leak_check(soak_target, cfg.base_seed, &mut out);
    let policy_ok = policy_check(cfg.base_seed, &mut out);
    write_rollup(cfg, duration.min(Nanos::from_secs(2)), settle);

    let jain_min_uniform = rows
        .iter()
        .filter(|r| r.palette == "uniform")
        .map(|r| r.jain_post_settle)
        .fold(f64::INFINITY, f64::min);
    let jain_ok = jain_min_uniform >= 0.9;
    let max_reassoc_ms = rows.iter().map(|r| r.max_reassoc_ms).fold(0.0, f64::max);
    let reassoc_ok = max_reassoc_ms <= 1_000.0;

    let gates = Gates {
        jain_min_uniform,
        jain_ok,
        max_reassoc_ms,
        reassoc_ok,
        soak_handoffs,
        leaks_ok,
        policy_ok,
    };
    let ok = gates.jain_ok && gates.reassoc_ok && gates.leaks_ok && gates.policy_ok;

    let _ = writeln!(
        out,
        "\nGates: Jain post-settle min {:.3} (>= 0.9: {}), reassoc max \
         {:.1} ms (<= 1000: {}), {} hand-off soak leak-free {}, policy \
         reattach {}.",
        jain_min_uniform, jain_ok, max_reassoc_ms, reassoc_ok, soak_handoffs, leaks_ok, policy_ok,
    );
    write_json(cfg, "BENCH_roam", &Bench { rows, gates });
    if !ok {
        return Err(format!(
            "{out}\next_roam: one or more gates violated (see above)."
        ));
    }
    Ok(out)
}
