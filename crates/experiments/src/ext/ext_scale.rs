//! Extension experiment: scale-out. How far does the airtime-fair MAC
//! carry beyond the paper's 30-station testbed?
//!
//! Sweeps the roster from 10 to 100,000 stations, decomposed into 1–8
//! independent BSS shards run through [`wifiq_scale::ShardSet`], with and
//! without deterministic station churn ([`wifiq_scale::ChurnDriver`]).
//! Each sweep point records saturated downlink throughput, Jain's
//! fairness index over per-station delivered bytes, and the churn
//! counters — simulated quantities only, so `results/BENCH_scale.json` is
//! a pure function of code and seed (host time is `benchmark/`'s job).
//!
//! Results land in `results/BENCH_scale.json`; one churned decomposition
//! run with telemetry on writes its merged rollup to
//! `results/scale_rollup.json`.

use std::fmt::Write as _;

use crate::report::{write_json, Table};
use crate::rollup::{write_rollup, Flood};
use crate::runner::{mbps, mean, run_seeds};
use crate::RunCfg;
use wifiq_mac::{NetworkConfig, SchemeKind, WifiNetwork};
use wifiq_phy::PhyRate;
use wifiq_scale::{ChurnCfg, ChurnDriver, ShardCtx, ShardSet};
use wifiq_sim::Nanos;
use wifiq_stats::jain_index;
use wifiq_telemetry::{Registry, Telemetry};

/// One shard's measurement-window results.
struct ShardOut {
    /// Per-slot delivered bytes inside the measurement window.
    bytes: Vec<u64>,
    joins: u64,
    leaves: u64,
    churn_drops: u64,
}

fn drive(
    net: &mut WifiNetwork<()>,
    churn: &mut Option<ChurnDriver>,
    until: Nanos,
    app: &mut Flood,
) {
    match churn {
        Some(d) => d.run_until(net, until, app),
        None => net.run(until, app),
    }
}

/// Runs one BSS shard: `stations` fast stations under the airtime-fair
/// scheme, flooded downlink, optionally churned. Returns the shard's
/// window stats plus its telemetry registry (when `metrics`).
fn run_shard(
    ctx: &ShardCtx,
    stations: usize,
    churn: bool,
    warmup: Nanos,
    duration: Nanos,
    metrics: bool,
) -> (ShardOut, Option<Registry>) {
    let net_cfg = NetworkConfig::builder()
        .stations_at(stations, PhyRate::fast_station())
        .scheme(SchemeKind::AirtimeFair)
        .seed(ctx.seed)
        .build();
    let mut net: WifiNetwork<()> = WifiNetwork::new(net_cfg);
    let tele = if metrics {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    net.set_telemetry(tele.clone());

    // Start at the roster maximum so slot tables never grow past
    // `stations` (the first churn event is forced to be a leave).
    let mut driver = (churn && stations >= 2).then(|| {
        ChurnDriver::new(
            ChurnCfg {
                mean_interval: Nanos::from_millis(20),
                min_stations: (stations / 2).max(1),
                max_stations: stations,
                ..ChurnCfg::default()
            },
            ctx.seed ^ 0x00C0_FFEE,
        )
    });

    // Offered-load pacing: a batch of MTU packets every tick, round-robined
    // over the roster. 8 × 1500 B / 500 µs ≈ 192 Mbps — saturating for the
    // fast-station PHY while keeping the event count independent of roster
    // size (per-station timers at 10k stations would swamp the event loop).
    let mut app = Flood::paced(stations, 8, 1500, Nanos::from_micros(500));
    net.seed_timer(0, Nanos::ZERO);
    drive(&mut net, &mut driver, warmup, &mut app);
    let warm_bytes = app.delivered().to_vec();
    drive(&mut net, &mut driver, duration, &mut app);

    let bytes = app
        .delivered()
        .iter()
        .enumerate()
        .map(|(i, &b)| b - warm_bytes.get(i).copied().unwrap_or(0))
        .collect();
    (
        ShardOut {
            bytes,
            joins: driver.as_ref().map_or(0, |d| d.joins),
            leaves: driver.as_ref().map_or(0, |d| d.leaves),
            churn_drops: net.churn_drops(),
        },
        tele.take_registry(),
    )
}

/// Splits `stations` over `shards` as evenly as possible (early shards
/// take the remainder).
fn split_stations(stations: usize, shards: u32) -> Vec<usize> {
    let shards = shards as usize;
    (0..shards)
        .map(|s| stations / shards + usize::from(s < stations % shards))
        .collect()
}

#[derive(serde::Serialize)]
struct Row {
    stations: usize,
    shards: u32,
    churn: bool,
    throughput_mbps: f64,
    jain: f64,
    joins: u64,
    leaves: u64,
    churn_drops: u64,
}

/// One sweep point: `reps` seeded repetitions of a sharded run (cached
/// and parallelised by the experiment harness).
fn run_point(
    stations: usize,
    shards: u32,
    churn: bool,
    warmup: Nanos,
    duration: Nanos,
    cfg: &RunCfg,
) -> Result<Row, String> {
    let cell = format!("{stations}sta");
    let config = format!(
        "{}shard{}_{}ms",
        shards,
        if churn { "_churn" } else { "" },
        duration.as_millis()
    );
    let per_shard = split_stations(stations, shards);
    // (window bytes across shards, joins, leaves, churn drops) per
    // repetition.
    type Rep = (Vec<u64>, u64, u64, u64);
    let reps: Vec<Rep> = run_seeds("ext_scale", &cell, &config, cfg, |seed| {
        // Sweep reps skip per-shard telemetry (the rollup run records it).
        let run = ShardSet::new(shards, seed).run(|ctx| {
            run_shard(
                ctx,
                per_shard[ctx.shard as usize],
                churn,
                warmup,
                duration,
                false,
            )
        });
        let bytes: Vec<u64> = run.outputs.iter().flat_map(|o| o.bytes.clone()).collect();
        let sum = |f: fn(&ShardOut) -> u64| run.outputs.iter().map(f).sum::<u64>();
        Ok((
            bytes,
            sum(|o| o.joins),
            sum(|o| o.leaves),
            sum(|o| o.churn_drops),
        ))
    })?;
    let throughput: Vec<f64> = reps
        .iter()
        .map(|r| mbps(r.0.iter().sum(), duration - warmup))
        .collect();
    let jains: Vec<f64> = reps
        .iter()
        .map(|r| {
            let shares: Vec<f64> = r.0.iter().map(|&b| b as f64).collect();
            jain_index(&shares)
        })
        .collect();
    let n = reps.len() as u64;
    Ok(Row {
        stations,
        shards,
        churn,
        throughput_mbps: mean(&throughput),
        jain: mean(&jains),
        joins: reps.iter().map(|r| r.1).sum::<u64>() / n,
        leaves: reps.iter().map(|r| r.2).sum::<u64>() / n,
        churn_drops: reps.iter().map(|r| r.3).sum::<u64>() / n,
    })
}

/// The telemetry rollup: one churned decomposition with per-shard
/// telemetry on.
fn rollup(cfg: &RunCfg, stations: usize, shards: u32, warmup: Nanos, duration: Nanos) {
    let per_shard = split_stations(stations, shards);
    let shard = |ctx: &ShardCtx| {
        run_shard(
            ctx,
            per_shard[ctx.shard as usize],
            true,
            warmup,
            duration,
            true,
        )
    };
    write_rollup(cfg, "scale", shards, shard, |_| {});
}

pub fn run(cfg: &RunCfg, _args: &[String]) -> Result<String, String> {
    let mut out = String::new();
    let quick = cfg.quick;
    // Scale sweeps set their own (short) windows: the interesting axis is
    // roster size, not duration, and 10k stations at the default 30 s
    // would take hours on one core.
    let (warmup, duration) = if quick {
        (Nanos::from_millis(100), Nanos::from_millis(400))
    } else {
        (Nanos::from_millis(250), Nanos::from_secs(1))
    };
    let _ = writeln!(
        out,
        "Extension: scale-out — 10 → 100k stations across 1-8 BSS shards, \
         saturated downlink, with and without churn ({} reps x {}ms sim)\n",
        cfg.reps,
        duration.as_millis()
    );

    // (stations, shards, churn). Quick mode caps the sweep at 100
    // stations — the 100k point alone would dominate a smoke run.
    let grid: &[(usize, u32, bool)] = if quick {
        &[
            (10, 1, false),
            (10, 2, false),
            (100, 2, false),
            (100, 2, true),
        ]
    } else {
        &[
            (10, 1, false),
            (10, 2, false),
            (100, 1, false),
            (100, 2, false),
            (100, 4, false),
            (1000, 4, false),
            (1000, 4, true),
            (5000, 4, false),
            (5000, 8, false),
            (10000, 8, false),
            (10000, 8, true),
            (100_000, 8, false),
        ]
    };
    let rows: Vec<Row> = grid
        .iter()
        .map(|&(stations, shards, churn)| run_point(stations, shards, churn, warmup, duration, cfg))
        .collect::<Result<_, _>>()?;

    let mut t = Table::new(vec![
        "Stations", "Shards", "Churn", "Mbps", "Jain", "Joins", "Leaves",
    ]);
    for r in &rows {
        t.row(vec![
            r.stations.to_string(),
            r.shards.to_string(),
            if r.churn { "yes" } else { "no" }.to_string(),
            format!("{:.1}", r.throughput_mbps),
            format!("{:.3}", r.jain),
            r.joins.to_string(),
            r.leaves.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');

    let (rollup_sta, rollup_shards) = if quick { (100, 2) } else { (5000, 4) };
    rollup(cfg, rollup_sta, rollup_shards, warmup, duration);

    write_json(cfg, "BENCH_scale", &rows);
    let max = rows.iter().map(|r| r.stations).max().unwrap_or(0);
    let _ = writeln!(
        out,
        "\nscale summary: points={} max_stations={} churn_points={}",
        rows.len(),
        max,
        rows.iter().filter(|r| r.churn).count()
    );
    Ok(out)
}
