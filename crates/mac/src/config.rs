//! Network and scheme configuration.

use wifiq_chaos::FaultSchedule;
use wifiq_core::scheduler::AirtimeParams;
use wifiq_core::FqParams;
use wifiq_phy::PhyRate;
use wifiq_policy::PolicyTimeline;
use wifiq_sim::Nanos;

use crate::builder::ScenarioBuilder;

/// Which AP queue-management scheme to run — the four columns of the
/// paper's evaluation (§4: "We run all experiments with four queue
/// management schemes").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Default kernel: pfifo qdisc over unmanaged driver FIFOs.
    Fifo,
    /// FQ-CoDel qdisc over the same unmanaged driver FIFOs.
    FqCodelQdisc,
    /// The paper's MAC-layer FQ structure (qdisc bypassed), round-robin
    /// between stations.
    FqMac,
    /// FQ-MAC plus the airtime-fairness scheduler.
    AirtimeFair,
}

impl SchemeKind {
    /// All four schemes in the paper's presentation order.
    pub const ALL: [SchemeKind; 4] = [
        SchemeKind::Fifo,
        SchemeKind::FqCodelQdisc,
        SchemeKind::FqMac,
        SchemeKind::AirtimeFair,
    ];

    /// Display label matching the paper's figures.
    pub const fn label(self) -> &'static str {
        match self {
            SchemeKind::Fifo => "FIFO",
            SchemeKind::FqCodelQdisc => "FQ-CoDel",
            SchemeKind::FqMac => "FQ-MAC",
            SchemeKind::AirtimeFair => "Airtime fair FQ",
        }
    }

    /// Filesystem-safe identifier (lowercase, no spaces) for artifact
    /// names.
    pub const fn slug(self) -> &'static str {
        match self {
            SchemeKind::Fifo => "fifo",
            SchemeKind::FqCodelQdisc => "fq_codel",
            SchemeKind::FqMac => "fq_mac",
            SchemeKind::AirtimeFair => "airtime",
        }
    }
}

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Channel error model for one station.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorModel {
    /// Fixed per-exchange failure probability, independent of rate.
    Fixed(f64),
    /// Rate-dependent channel: exchanges at or below `best_mcs` fail with
    /// probability `residual`; each MCS step above adds a steep penalty.
    /// This is the signal a rate controller needs to find the right rate.
    McsCliff {
        /// Highest MCS the channel supports cleanly.
        best_mcs: u8,
        /// Failure probability at or below `best_mcs`.
        residual: f64,
    },
}

impl ErrorModel {
    /// Per-exchange failure probability for a transmission at `rate`.
    pub fn exchange_error_prob(&self, rate: PhyRate) -> f64 {
        match *self {
            ErrorModel::Fixed(p) => p,
            ErrorModel::McsCliff { best_mcs, residual } => match rate {
                PhyRate::Ht { mcs, .. } if mcs > best_mcs => {
                    (residual + 0.35 * (mcs - best_mcs) as f64).min(0.97)
                }
                _ => residual,
            },
        }
    }
}

/// Per-station configuration.
#[derive(Debug, Clone)]
pub struct StationCfg {
    /// Airtime weight under the airtime-fair scheme (neutral = 256; a
    /// station at 512 receives twice the airtime share) — the weighted
    /// ATF knob that followed the paper into mainline.
    pub airtime_weight: u32,
    /// PHY rate for both directions. With
    /// [`NetworkConfig::rate_control`] enabled, this is only the
    /// *starting* downlink rate; the AP's rate controller adapts from
    /// there (uplink stays fixed — clients are unmodified).
    pub rate: PhyRate,
    /// Channel error model (0-probability in the baseline experiments).
    pub errors: ErrorModel,
}

impl StationCfg {
    /// A station at the given rate with a clean channel.
    pub fn clean(rate: PhyRate) -> StationCfg {
        StationCfg {
            rate,
            errors: ErrorModel::Fixed(0.0),
            airtime_weight: wifiq_core::scheduler::WEIGHT_NEUTRAL,
        }
    }

    /// A station whose channel supports MCS `best_mcs` cleanly and
    /// degrades steeply above it (for rate-control scenarios).
    pub fn with_mcs_cliff(rate: PhyRate, best_mcs: u8) -> StationCfg {
        StationCfg {
            errors: ErrorModel::McsCliff {
                best_mcs,
                residual: 0.03,
            },
            ..StationCfg::clean(rate)
        }
    }
}

/// Full network configuration.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// The wireless stations.
    pub stations: Vec<StationCfg>,
    /// AP queue-management scheme under test.
    pub scheme: SchemeKind,
    /// One-way delay on the wired server ↔ AP hop (the paper's Gigabit
    /// Ethernet hop; raised to 5/50 ms for the VoIP experiments).
    pub wire_delay: Nanos,
    /// RNG seed; repetitions are seed sweeps.
    pub seed: u64,
    /// pfifo qdisc packet limit (FIFO scheme).
    pub pfifo_limit: usize,
    /// Legacy driver: shared frame budget across the per-TID FIFOs
    /// (FIFO / FQ-CoDel schemes). Models ath9k's unmanaged buf_q space.
    pub driver_buf_frames: usize,
    /// MAC FQ parameters (FQ-MAC / Airtime schemes).
    pub fq: FqParams,
    /// Airtime scheduler parameters (Airtime scheme).
    pub airtime: AirtimeParams,
    /// Maximum retransmissions of one aggregate before it is dropped.
    pub max_retries: u32,
    /// Station-side uplink FIFO limit (per access category). Stations are
    /// unmodified in all schemes, exactly as in the paper.
    pub station_fifo_limit: usize,
    /// Hardware queue depth in aggregates (ath9k keeps two in flight —
    /// Algorithm 3: "until the hardware queue becomes full (at two queued
    /// aggregates)").
    pub hw_queue_depth: usize,
    /// Adapt CoDel parameters per station from the rate estimate
    /// (§3.1.1). Disabling keeps the global WiFi defaults for every
    /// station — the ablation that starves slow stations.
    pub adaptive_codel: bool,
    /// Give client stations the paper's FQ-CoDel queueing structure for
    /// their uplink instead of the stock FIFO ("WiFi client devices can
    /// also benefit from the proposed queueing structure", §3).
    pub station_fq: bool,
    /// Airtime queue limit: maximum airtime a single station may have
    /// queued in the hardware at once. `None` disables it. This is the
    /// AQL mechanism that continued this paper's line of work into
    /// mainline (kernel 5.5): even with the MAC FQ structure, a slow
    /// station's aggregates sitting in the hardware queue add head-of-
    /// line latency for everyone; AQL keeps that bounded.
    pub aql: Option<Nanos>,
    /// Run a Minstrel-style rate controller at the AP for downlink
    /// transmissions instead of the fixed per-station rates. The
    /// paper's testbed pins rates by placement/configuration; this
    /// extension exercises §3.1.1's "estimate of the station's current
    /// throughput, obtained from the rate selection algorithm" with a
    /// live estimator.
    pub rate_control: bool,
    /// Scheduled fault injection (wifiq-chaos). Empty in every baseline
    /// experiment; entries are replayed deterministically from a
    /// chaos-private fork of [`seed`](Self::seed).
    pub faults: FaultSchedule,
    /// Hierarchical airtime policy (wifiq-policy): an optional initial
    /// [`PolicySet`](wifiq_policy::PolicySet) plus timed switches,
    /// compiled at network construction into per-(station, access
    /// category) weights for the airtime scheduler. The default
    /// ([`PolicyTimeline::none`]) is byte-invisible — the pre-policy
    /// equal-share path. Only meaningful under
    /// [`SchemeKind::AirtimeFair`].
    pub policy: PolicyTimeline,
}

impl NetworkConfig {
    /// A configuration with the paper's defaults for the given stations
    /// and scheme.
    pub fn new(stations: Vec<StationCfg>, scheme: SchemeKind) -> NetworkConfig {
        NetworkConfig {
            stations,
            scheme,
            wire_delay: Nanos::from_micros(200),
            seed: 1,
            pfifo_limit: 1000,
            driver_buf_frames: 128,
            fq: FqParams::default(),
            airtime: AirtimeParams::default(),
            max_retries: 10,
            station_fifo_limit: 1000,
            hw_queue_depth: 2,
            adaptive_codel: true,
            station_fq: false,
            aql: None,
            rate_control: false,
            faults: FaultSchedule::none(),
            policy: PolicyTimeline::none(),
        }
    }

    /// Starts a fluent [`ScenarioBuilder`] — the single construction
    /// path for every experiment and scenario file.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::new()
    }

    /// The paper's main testbed: two fast stations (MCS15 HT20 SGI,
    /// 144.4 Mbps) and one slow station (MCS0, 7.2 Mbps). A preset of
    /// the builder.
    pub fn paper_testbed(scheme: SchemeKind) -> NetworkConfig {
        NetworkConfig::builder()
            .preset(crate::builder::Preset::PaperTestbed)
            .scheme(scheme)
            .build()
    }

    /// Number of configured stations.
    pub fn num_stations(&self) -> usize {
        self.stations.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_shape() {
        let cfg = NetworkConfig::paper_testbed(SchemeKind::AirtimeFair);
        assert_eq!(cfg.num_stations(), 3);
        assert_eq!(cfg.stations[0].rate.bits_per_second(), 144_444_444);
        assert_eq!(cfg.stations[2].rate.bits_per_second(), 7_222_222);
        assert_eq!(cfg.hw_queue_depth, 2);
    }

    #[test]
    fn scheme_labels() {
        assert_eq!(SchemeKind::Fifo.label(), "FIFO");
        assert_eq!(SchemeKind::AirtimeFair.to_string(), "Airtime fair FQ");
        assert_eq!(SchemeKind::ALL.len(), 4);
    }
}
