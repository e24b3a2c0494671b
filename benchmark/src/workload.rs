//! The five workloads: what is simulated, from which seed, for how long.
//!
//! Every workload runs `SchemeKind::AirtimeFair` (the paper's final
//! system) on one lane, and is closed over *simulated* time: UDP and ping
//! sources are open-loop on the simulated clock, TCP is ack-clocked. The
//! host never paces anything, so there is no generator lateness.

use wifiq_mac::{NetworkConfig, Preset, SchemeKind, StationIdx, WifiNetwork};
use wifiq_phy::PhyRate;
use wifiq_scale::{ChurnCfg, ChurnDriver};
use wifiq_sim::Nanos;
use wifiq_telemetry::Telemetry;
use wifiq_traffic::{AppMsg, FlowHandle, TrafficApp};

/// The `run_seconds` of BENCHMARK.json: the `--seconds` the window
/// lengths below were sized for on the 2-core build machine.
pub const RUN_SECONDS: f64 = 8.0;

/// Segments the timed window is cut into; each is one timed operation.
pub const SEGMENTS: u32 = 6;

/// Slices a segment is cut into. A host-speed probe pass runs between
/// slices, so a slice is what gets timed; `pkts_per_ref_s` is the median
/// over the window's `SEGMENTS * SLICES` slices.
pub const SLICES: u32 = 10;

/// Set-ups executed and dropped before the one that continues into the
/// window; `setup_s` is the median of these.
pub const SETUP_REPS: usize = 5;

/// Seeds of the three random streams, all derived from `--seed`.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    pub network: u64,
    pub traffic: u64,
    pub churn: u64,
}

impl Seeds {
    pub fn derive(seed: u64) -> Seeds {
        // splitmix64: distinct, well-mixed streams from consecutive seeds.
        let mix = |salt: u64| {
            let mut z = seed
                .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Seeds {
            network: mix(1),
            traffic: mix(2),
            churn: mix(3),
        }
    }
}

/// How a bulk flow's delivered bytes are read back.
#[derive(Debug, Clone, Copy)]
pub enum BulkKind {
    Udp,
    Tcp,
}

/// One bulk (goodput-carrying) flow.
#[derive(Debug, Clone, Copy)]
pub struct Bulk {
    pub flow: FlowHandle,
    pub station: StationIdx,
    pub kind: BulkKind,
    /// Server to station: queued at the AP, not at the station.
    pub down: bool,
}

/// Flow handles the metrics are read from.
#[derive(Debug, Clone)]
pub struct Flows {
    pub bulk: Vec<Bulk>,
    /// 10 Hz ping to the workload's ping-only station (§4.1.4).
    pub ping_sparse: FlowHandle,
    /// 10 Hz ping to one station under bulk load (Fig. 4).
    pub ping_bulk: FlowHandle,
}

/// One workload.
pub struct Workload {
    pub name: &'static str,
    /// Simulated seconds of timed window per requested `--seconds`, sized
    /// so `--seconds 8` gives a 6–8 s window on the build machine.
    pub sim_s_per_second: f64,
    /// Simulated warm-up, part of every set-up; sized so one set-up is
    /// at least 0.15 s of wall clock.
    pub warmup: Nanos,
    /// Attach `Telemetry::enabled()` to the network and the traffic app.
    pub observed: bool,
    /// The workload that must produce identical simulated results with
    /// the sink in the other state.
    pub twin: Option<&'static str>,
    /// Saturating one-way UDP to every bulk station and nothing else:
    /// the case `crates/model` eqs. 1-5 predict (Table 1).
    pub modelled: bool,
    config: fn(&Seeds) -> NetworkConfig,
    traffic: fn(&mut TrafficApp) -> Flows,
    churn: Option<fn() -> ChurnCfg>,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "udp3_sat",
        sim_s_per_second: 160.0,
        warmup: Nanos::from_secs(40),
        observed: false,
        twin: None,
        modelled: true,
        config: |s| base().preset(Preset::PaperTestbed4).seed(s.network).build(),
        traffic: udp3_traffic,
        churn: None,
    },
    Workload {
        name: "tcp30_mixed",
        sim_s_per_second: 150.0,
        warmup: Nanos::from_secs(40),
        observed: false,
        twin: Some("tcp30_observed"),
        modelled: false,
        config: tcp30_config,
        traffic: tcp30_traffic,
        churn: None,
    },
    Workload {
        name: "tcp30_observed",
        sim_s_per_second: 150.0,
        warmup: Nanos::from_secs(40),
        observed: true,
        twin: Some("tcp30_mixed"),
        modelled: false,
        config: tcp30_config,
        traffic: tcp30_traffic,
        churn: None,
    },
    Workload {
        name: "uplink512_contend",
        sim_s_per_second: 34.0,
        warmup: Nanos::from_secs(6),
        observed: false,
        twin: None,
        modelled: false,
        config: |s| {
            base()
                .stations_at(513, PhyRate::fast_station())
                .seed(s.network)
                .build()
        },
        traffic: uplink512_traffic,
        churn: None,
    },
    Workload {
        name: "roster20k_churn",
        sim_s_per_second: 34.0,
        warmup: Nanos::from_secs(6),
        observed: false,
        twin: None,
        modelled: false,
        config: |s| {
            base()
                .stations_at(ROSTER, PhyRate::fast_station())
                .seed(s.network)
                .build()
        },
        traffic: roster_traffic,
        churn: Some(|| ChurnCfg {
            mean_interval: Nanos::from_millis(5),
            min_stations: ROSTER / 2,
            max_stations: ROSTER,
            // One rate, so joins never change the mix: a palette with a
            // slow rate would slowly fill the roster with slow stations
            // and the window would drift.
            rate_palette: vec![PhyRate::fast_station()],
        }),
    },
];

/// 20k, not the scale sweep's 100k: ~150 MB peaks time repeatably on the
/// build machine, ~450 MB ones (one 100k `WifiNetwork::new` read 0.22 to
/// 2.49 s across five runs of the same binary) do not.
const ROSTER: usize = 20_000;

fn base() -> wifiq_mac::ScenarioBuilder {
    NetworkConfig::builder()
        .scheme(SchemeKind::AirtimeFair)
        .lanes(1)
}

fn tcp30_config(s: &Seeds) -> NetworkConfig {
    base().preset(Preset::Testbed30).seed(s.network).build()
}

fn finish(app: &mut TrafficApp, bulk: Vec<Bulk>, sparse: StationIdx, loaded: StationIdx) -> Flows {
    let ping_sparse = app.add_ping(sparse, Nanos::ZERO);
    let ping_bulk = app.add_ping(loaded, Nanos::ZERO);
    Flows {
        bulk,
        ping_sparse,
        ping_bulk,
    }
}

/// The paper's anomaly testbed: saturating UDP to two fast stations and
/// the MCS0 station; the 4th station only answers pings.
fn udp3_traffic(app: &mut TrafficApp) -> Flows {
    let bulk = [(0, 100_000_000), (1, 100_000_000), (2, 10_000_000)]
        .into_iter()
        .map(|(station, rate)| Bulk {
            flow: app.add_udp_down(station, rate, Nanos::ZERO),
            station,
            kind: BulkKind::Udp,
            down: true,
        })
        .collect();
    finish(app, bulk, 3, 2)
}

/// §4.1.5: TCP download to stations 0–28, upload from 0–9 (39 ack-clocked
/// connections); station 29 is ping-only.
fn tcp30_traffic(app: &mut TrafficApp) -> Flows {
    let mut bulk: Vec<Bulk> = (0..29)
        .map(|station| Bulk {
            flow: app.add_tcp_down(station, Nanos::ZERO),
            station,
            kind: BulkKind::Tcp,
            down: true,
        })
        .collect();
    bulk.extend((0..10).map(|station| Bulk {
        flow: app.add_tcp_up(station, Nanos::ZERO),
        station,
        kind: BulkKind::Tcp,
        down: false,
    }));
    finish(app, bulk, 29, 1)
}

/// 512 stations each sending a 64 kbit/s CBR uplink stream (the G.711
/// rate), all started together, so every 187.5 ms all 512 contend at once;
/// the AP TX path only carries ping requests.
///
/// 33 Mbit/s is just under what this many contenders can carry (~36). At
/// 1 Mbit/s each, nine offered packets in ten are tail-dropped in the
/// station FIFOs before they reach the MAC, 34 M of 38 M events are source
/// timers, and the pings starve (125 answers to 8,000 requests).
fn uplink512_traffic(app: &mut TrafficApp) -> Flows {
    let bulk = (0..512)
        .map(|station| Bulk {
            flow: app.add_udp_up(station, 64_000, Nanos::ZERO),
            station,
            kind: BulkKind::Udp,
            down: false,
        })
        .collect();
    finish(app, bulk, 512, 0)
}

/// 200 kbit/s Poisson downlink to every 10th station: 2,000 backlogged
/// DRR members among 18,000 idle ones.
fn roster_traffic(app: &mut TrafficApp) -> Flows {
    let bulk = (0..ROSTER)
        .step_by(10)
        .map(|station| Bulk {
            flow: app.add_udp_down_poisson(station, 200_000, Nanos::ZERO),
            station,
            kind: BulkKind::Udp,
            down: true,
        })
        .collect();
    finish(app, bulk, 1, 0)
}

/// A live, installed simulation.
pub struct Instance {
    pub net: WifiNetwork<AppMsg>,
    pub app: TrafficApp,
    pub flows: Flows,
    pub churn: Option<ChurnDriver>,
    pub tele: Telemetry,
}

impl Workload {
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The generated input: everything the simulator is given.
    pub fn config(&self, seeds: &Seeds) -> NetworkConfig {
        (self.config)(seeds)
    }

    /// `WifiNetwork::new`, with the sink attached when `sink` is set.
    pub fn build(&self, cfg: NetworkConfig, sink: bool) -> (WifiNetwork<AppMsg>, Telemetry) {
        let mut net = WifiNetwork::new(cfg);
        let tele = if sink {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        };
        if sink {
            net.set_telemetry(tele.clone());
        }
        (net, tele)
    }

    /// Flow registration, `TrafficApp::install`, churn schedule.
    pub fn install(
        &self,
        mut net: WifiNetwork<AppMsg>,
        tele: Telemetry,
        seeds: &Seeds,
    ) -> Instance {
        let mut app = TrafficApp::with_seed(seeds.traffic);
        let flows = (self.traffic)(&mut app);
        if tele.is_enabled() {
            app.set_telemetry(&tele);
        }
        app.install(&mut net);
        let churn = self.churn.map(|cfg| ChurnDriver::new(cfg(), seeds.churn));
        Instance {
            net,
            app,
            flows,
            churn,
            tele,
        }
    }

    /// Simulated length of the timed window for `--seconds`.
    pub fn window(&self, seconds: f64) -> Nanos {
        let segment = self.sim_s_per_second * seconds / SEGMENTS as f64;
        Nanos::from_secs_f64(segment) * SEGMENTS as u64
    }
}
