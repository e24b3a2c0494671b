//! Extension experiment: scale-out. How far does the airtime-fair MAC
//! carry beyond the paper's 30-station testbed?
//!
//! Sweeps the roster from 10 to 100,000 stations, decomposed into 1–8
//! independent BSS shards run through [`wifiq_scale::ShardSet`], with and
//! without deterministic station churn ([`wifiq_scale::ChurnDriver`]).
//! Each sweep point records saturated downlink throughput, Jain's
//! fairness index over the window bytes of the stations associated for
//! the whole window (`benchmark/`'s eligibility rule), and the churn
//! counters — simulated quantities only, so `results/BENCH_scale.json` is
//! a pure function of code and seed (host time is `benchmark/`'s job).
//!
//! Results land in `results/BENCH_scale.json`. Under `WIFIQ_METRICS=1`
//! every shard of every repetition exports its own snapshot.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::flood::Flood;
use crate::report::{write_json, Table};
use crate::runner::{mbps, mean, run_seeds};
use crate::RunCfg;
use wifiq_mac::{NetworkConfig, SchemeKind, WifiNetwork};
use wifiq_phy::PhyRate;
use wifiq_scale::{ChurnCfg, ChurnDriver, Roster, ShardCtx, ShardSet};
use wifiq_sim::Nanos;
use wifiq_stats::jain_index;
use wifiq_telemetry::Telemetry;

/// One shard's measurement-window results.
struct ShardOut {
    /// Bytes delivered inside the measurement window, all stations.
    total_bytes: u64,
    /// Window bytes of each station associated for the whole window.
    eligible_bytes: Vec<u64>,
    joins: u64,
    leaves: u64,
    churn_drops: u64,
}

/// The meter identities of the stations associated now. A churn join
/// takes a fresh identity, so one associated at both ends of a window
/// stayed associated all through it.
fn associated(net: &WifiNetwork<()>) -> BTreeSet<usize> {
    (0..net.station_slots())
        .filter(|&s| net.station_active(s))
        .map(|s| net.meter().identity(s))
        .collect()
}

/// Runs one BSS shard, observed through `tele`: `stations` fast stations
/// under the airtime-fair scheme, flooded downlink, optionally churned.
/// Returns the shard's window stats.
fn run_shard(
    ctx: &ShardCtx,
    stations: usize,
    churn: bool,
    warmup: Nanos,
    duration: Nanos,
    tele: Telemetry,
) -> ShardOut {
    let net_cfg = NetworkConfig::builder()
        .stations_at(stations, PhyRate::fast_station())
        .scheme(SchemeKind::AirtimeFair)
        .seed(ctx.seed)
        .build();
    let mut net: WifiNetwork<()> = WifiNetwork::new(net_cfg);
    net.set_telemetry(tele);

    // Start at the roster maximum so slot tables never grow past
    // `stations` (the first churn event is forced to be a leave).
    let churn = (churn && stations >= 2).then(|| {
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
    let mut roster = Roster { churn, roam: None };
    net.seed_timer(0, Nanos::ZERO);
    roster.run_to(&mut net, &mut app, warmup);
    let (warm, present) = (net.meter().all().to_vec(), associated(&net));
    roster.run_to(&mut net, &mut app, duration);

    let window = |who: usize| {
        let earlier = warm.get(who).copied().unwrap_or_default();
        (net.meter().all()[who] - earlier).tx_bytes
    };
    let stayed = associated(&net);
    ShardOut {
        total_bytes: (0..net.meter().all().len()).map(window).sum(),
        eligible_bytes: present
            .intersection(&stayed)
            .map(|&who| window(who))
            .collect(),
        joins: roster.churn.as_ref().map_or(0, |d| d.joins),
        leaves: roster.churn.as_ref().map_or(0, |d| d.leaves),
        churn_drops: net.churn_drops(),
    }
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

/// One sweep point: `reps` seeded repetitions of a sharded run
/// (parallelised by the experiment harness).
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
    // (window bytes, eligible stations' window bytes across shards,
    // joins, leaves, churn drops) per repetition.
    type Rep = (u64, Vec<u64>, u64, u64, u64);
    let reps: Vec<Rep> = run_seeds("ext_scale", &cell, &config, cfg, |rep| {
        let run = ShardSet::new(shards, rep.seed).run(|ctx| {
            let stations = per_shard[ctx.shard as usize];
            run_shard(ctx, stations, churn, warmup, duration, rep.hub())
        });
        let eligible = run.iter().flat_map(|o| o.eligible_bytes.clone());
        let sum = |f: fn(&ShardOut) -> u64| run.iter().map(f).sum::<u64>();
        Ok((
            sum(|o| o.total_bytes),
            eligible.collect(),
            sum(|o| o.joins),
            sum(|o| o.leaves),
            sum(|o| o.churn_drops),
        ))
    })?;
    let throughput: Vec<f64> = reps.iter().map(|r| mbps(r.0, duration - warmup)).collect();
    let jains: Vec<f64> = reps
        .iter()
        .map(|r| jain_index(&r.1.iter().map(|&b| b as f64).collect::<Vec<_>>()))
        .collect();
    let n = reps.len() as u64;
    Ok(Row {
        stations,
        shards,
        churn,
        throughput_mbps: mean(&throughput),
        jain: mean(&jains),
        joins: reps.iter().map(|r| r.2).sum::<u64>() / n,
        leaves: reps.iter().map(|r| r.3).sum::<u64>() / n,
        churn_drops: reps.iter().map(|r| r.4).sum::<u64>() / n,
    })
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
