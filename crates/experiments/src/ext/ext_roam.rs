//! Extension experiment: inter-BSS roaming. What does mid-flow mobility
//! cost an airtime-fair shard set?
//!
//! Sweeps hand-off rate (mean dwell) × roster size × rate asymmetry
//! (uniform fast palette vs the fast/slow mix that re-rolls each roamer's
//! MCS on arrival) through [`wifiq_scale::RoamSet`]: every BSS runs a
//! saturating downlink flood over its slots, and delivered bytes are read
//! per *schedule station* from the meters — a station's meter identity
//! is its schedule number on every BSS — so a station's share follows it
//! across BSS boundaries.
//!
//! Two gates back the roaming contract:
//!
//! - **Fairness survives mobility**: post-settle Jain over per-station
//!   delivered bytes ≥ 0.9 on every uniform-palette point (byte shares
//!   under an asymmetric palette are only fair time-averaged over many
//!   re-rolls, so those rows report but do not gate).
//! - **Reassociation is bounded**: the longest observed gap (including
//!   window quantisation) stays ≤ 1 s.
//!
//! That hand-offs leak nothing and restore each slot's policy weight is
//! asserted by the engine's unit tests and `tests/roam_validation.rs`.
//!
//! Results land in `results/BENCH_roam.json`. Under `WIFIQ_METRICS=1`
//! every BSS of every repetition exports its own snapshot, the `roam/*`
//! counters of the hand-offs that left or joined it included.

use std::fmt::Write as _;

use crate::flood::Flood;
use crate::report::{write_json, Table};
use crate::runner::{mbps, mean, run_seeds};
use crate::RunCfg;
use wifiq_mac::{NetworkConfig, SchemeKind, StationMeter, WifiNetwork};
use wifiq_phy::PhyRate;
use wifiq_scale::{BssHost, RoamCfg, RoamRun, RoamSet, ShardCtx};
use wifiq_sim::Nanos;
use wifiq_stats::jain_index;
use wifiq_telemetry::Telemetry;

const PKT_LEN: u64 = 1200;
const TICK: Nanos = Nanos::from_millis(1);

struct Host {
    net: WifiNetwork<()>,
    app: Flood,
    settle: Nanos,
    /// The meters at the settle boundary.
    settled: Option<Vec<StationMeter>>,
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
        if self.settled.is_none() && until >= self.settle {
            self.settled = Some(self.net.meter().all().to_vec());
        }
    }
}

/// One shard's contribution after a run.
#[derive(Debug, PartialEq)]
struct ShardOut {
    /// Post-settle delivered bytes per schedule station (its meter
    /// identity on every BSS), for those that visited this shard.
    bytes: Vec<u64>,
    active: usize,
    slots: usize,
    roam_drops: u64,
}

fn build_host(ctx: &ShardCtx, roster: usize, settle: Nanos, tele: Telemetry) -> Host {
    // Engine-managed nets must start with an empty roster, and a policy
    // tree cannot reference stations that do not exist yet — so every
    // multi-BSS landing takes the neutral-fallback path here. The
    // policy-reattach path is asserted on a pre-populated single-BSS
    // network by `tests/roam_validation.rs`.
    let cfg = NetworkConfig::builder()
        .scheme(SchemeKind::AirtimeFair)
        .seed(ctx.seed)
        .build();
    let mut net: WifiNetwork<()> = WifiNetwork::new(cfg);
    net.set_telemetry(tele);
    net.seed_timer(0, Nanos::ZERO);
    // A BSS never holds more slots than the roster; one packet per slot
    // per tick, and a vacant slot's share is dropped at the AP.
    Host {
        net,
        app: Flood::paced(roster, roster, PKT_LEN, TICK),
        settle,
        settled: None,
    }
}

fn finish_host(_shard: u32, host: Host) -> ShardOut {
    let mut settled = host.settled.unwrap_or_default();
    let meters = host.net.meter().all();
    settled.resize(meters.len(), StationMeter::default());
    let bytes = meters.iter().zip(settled).map(|(&m, s)| (m - s).tx_bytes);
    ShardOut {
        bytes: bytes.collect(),
        active: host.net.active_stations(),
        slots: host.net.station_slots(),
        roam_drops: host.net.roam_drops(),
    }
}

/// Sums each schedule station's post-settle bytes across the shards it
/// visited, in schedule-station order over the whole roster.
fn station_shares(run: &RoamRun<ShardOut>, roster: usize) -> Vec<u64> {
    let mut per_sta = vec![0u64; roster];
    for out in &run.outputs {
        for (sta, &b) in out.bytes.iter().enumerate() {
            per_sta[sta] += b;
        }
    }
    per_sta
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
    let reps: Vec<Rep> = run_seeds("ext_roam", &cell, &config, cfg, |rep| {
        let run = roam_set(bss, roster, dwell, palette, rep.seed).run(
            duration,
            |ctx| build_host(ctx, roster, settle, rep.hub()),
            finish_host,
        );
        Ok((
            station_shares(&run, roster),
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

#[derive(serde::Serialize)]
struct Gates {
    jain_min_uniform: f64,
    jain_ok: bool,
    max_reassoc_ms: f64,
    reassoc_ok: bool,
}

#[derive(serde::Serialize)]
struct Bench {
    rows: Vec<Row>,
    gates: Gates,
}

pub fn run(cfg: &RunCfg, _args: &[String]) -> Result<String, String> {
    let mut out = String::new();
    let quick = cfg.quick;
    let (settle, duration) = if quick {
        (Nanos::from_millis(500), Nanos::from_secs(2))
    } else {
        (Nanos::from_secs(1), Nanos::from_secs(8))
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
    };
    let ok = gates.jain_ok && gates.reassoc_ok;

    let _ = writeln!(
        out,
        "\nGates: Jain post-settle min {:.3} (>= 0.9: {}), reassoc max \
         {:.1} ms (<= 1000: {}).",
        jain_min_uniform, jain_ok, max_reassoc_ms, reassoc_ok,
    );
    write_json(cfg, "BENCH_roam", &Bench { rows, gates });
    if !ok {
        return Err(format!(
            "{out}\next_roam: one or more gates violated (see above)."
        ));
    }
    Ok(out)
}
