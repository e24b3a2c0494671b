//! The fluent scenario builder — where every [`NetworkConfig`] starts.
//!
//! Every experiment, scenario file, and test begins its network here
//! instead of hand-rolling `NetworkConfig` / [`StationCfg`] literals:
//! station rosters via the `*_station` methods, the paper's testbeds via
//! [`Preset`], impairments via [`fault`](ScenarioBuilder::fault). It is
//! not the only way to *set* a field: `NetworkConfig`'s fields are `pub`,
//! and a knob one caller turns (an ablation's `adaptive_codel`, the VoIP
//! runs' `wire_delay`) is set on the built value rather than given a
//! setter here.
//!
//! ```
//! use wifiq_mac::{NetworkConfig, Preset, SchemeKind};
//! use wifiq_mac::{FaultEntry, FaultTarget, Impairment};
//! use wifiq_sim::Nanos;
//!
//! let cfg = NetworkConfig::builder()
//!     .preset(Preset::PaperTestbed)
//!     .scheme(SchemeKind::AirtimeFair)
//!     .seed(7)
//!     .fault(FaultEntry::new(
//!         Nanos::from_secs(5),
//!         Nanos::from_secs(15),
//!         FaultTarget::Station(2),
//!         Impairment::uniform_loss(0.3),
//!     ))
//!     .build();
//! assert_eq!(cfg.num_stations(), 3);
//! ```

use wifiq_chaos::{FaultEntry, FaultSchedule};
use wifiq_core::scheduler::AirtimeParams;
use wifiq_core::FqParams;
use wifiq_phy::{LegacyRate, PhyRate};
use wifiq_policy::{PolicySet, PolicyTimeline};
use wifiq_sim::Nanos;

use crate::config::{ErrorModel, NetworkConfig, SchemeKind, StationCfg};

/// Canned station rosters for the paper's testbeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// §4's main testbed: two fast stations (MCS15 HT20 SGI) and one
    /// slow station (MCS0).
    PaperTestbed,
    /// The 4-station variant (§4.1.4, §4.2.1): the main testbed plus
    /// one additional fast station.
    PaperTestbed4,
    /// The third-party 30-station testbed (§4.1.5): one 1 Mbps legacy
    /// client plus 29 fast clients.
    Testbed30,
}

/// Fluent builder returned by [`NetworkConfig::builder`].
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    cfg: NetworkConfig,
}

impl ScenarioBuilder {
    /// An empty scenario (no stations yet) with the paper's defaults
    /// and the airtime-fair scheme.
    pub fn new() -> ScenarioBuilder {
        ScenarioBuilder {
            cfg: NetworkConfig::new(Vec::new(), SchemeKind::AirtimeFair),
        }
    }

    /// Replaces the station roster with a preset testbed (knobs and
    /// faults set so far are kept).
    pub fn preset(mut self, preset: Preset) -> Self {
        self.cfg.stations.clear();
        match preset {
            Preset::PaperTestbed | Preset::PaperTestbed4 => {
                self = self
                    .station(PhyRate::fast_station())
                    .station(PhyRate::fast_station())
                    .station(PhyRate::slow_station());
                if preset == Preset::PaperTestbed4 {
                    self = self.station(PhyRate::fast_station());
                }
                self
            }
            Preset::Testbed30 => {
                self = self.station(PhyRate::Legacy(LegacyRate::Dsss1));
                for _ in 0..29 {
                    self = self.station(PhyRate::fast_station());
                }
                self
            }
        }
    }

    /// The queue-management scheme under test.
    pub fn scheme(mut self, scheme: SchemeKind) -> Self {
        self.cfg.scheme = scheme;
        self
    }

    /// Replaces the roster with pre-built station configurations (the
    /// escape hatch for scenario-file decoding; prefer the `*_station`
    /// methods in code).
    pub fn stations(mut self, stations: impl IntoIterator<Item = StationCfg>) -> Self {
        self.cfg.stations = stations.into_iter().collect();
        self
    }

    /// Appends a clean station at `rate`; returns the builder (the new
    /// station's index is the roster length so far).
    pub fn station(mut self, rate: PhyRate) -> Self {
        self.cfg.stations.push(StationCfg::clean(rate));
        self
    }

    /// Appends `n` clean stations at `rate`.
    pub fn stations_at(mut self, n: usize, rate: PhyRate) -> Self {
        for _ in 0..n {
            self = self.station(rate);
        }
        self
    }

    /// Appends a station whose channel fails each exchange with fixed
    /// probability `error`.
    pub fn lossy_station(mut self, rate: PhyRate, error: f64) -> Self {
        let mut s = StationCfg::clean(rate);
        s.errors = ErrorModel::Fixed(error);
        self.cfg.stations.push(s);
        self
    }

    /// Appends a station whose channel supports MCS `best_mcs` cleanly
    /// and degrades steeply above it (rate-control scenarios).
    pub fn cliff_station(mut self, rate: PhyRate, best_mcs: u8) -> Self {
        self.cfg
            .stations
            .push(StationCfg::with_mcs_cliff(rate, best_mcs));
        self
    }

    /// Overrides station `idx`'s PHY rate.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn rate(mut self, idx: usize, rate: PhyRate) -> Self {
        self.cfg.stations[idx].rate = rate;
        self
    }

    /// Appends one fault-schedule entry.
    pub fn fault(mut self, entry: FaultEntry) -> Self {
        self.cfg.faults.push(entry);
        self
    }

    /// Replaces the whole fault schedule (scenario-file decoding).
    pub fn faults(mut self, schedule: FaultSchedule) -> Self {
        self.cfg.faults = schedule;
        self
    }

    /// Sets the airtime policy active from time zero (replacing any
    /// earlier initial set; scheduled switches are kept).
    pub fn policy(mut self, set: PolicySet) -> Self {
        let mut timeline = PolicyTimeline::fixed(set);
        for sw in self.cfg.policy.switches() {
            timeline = timeline.with_switch(sw.at, sw.set.clone());
        }
        self.cfg.policy = timeline;
        self
    }

    /// Schedules a runtime policy switch: `set` becomes active at the
    /// first scheduler round boundary at or after `at`. Switches must be
    /// added in strictly ascending time order
    /// ([`build`](Self::build) validates).
    pub fn policy_switch(mut self, at: Nanos, set: PolicySet) -> Self {
        self.cfg.policy = std::mem::take(&mut self.cfg.policy).with_switch(at, set);
        self
    }

    /// Replaces the whole policy timeline (scenario-file decoding).
    pub fn policy_timeline(mut self, timeline: PolicyTimeline) -> Self {
        self.cfg.policy = timeline;
        self
    }

    /// RNG seed; repetitions are seed sweeps.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Airtime queue limit (`None` disables AQL).
    pub fn aql(mut self, limit: Option<Nanos>) -> Self {
        self.cfg.aql = limit;
        self
    }

    /// Enables/disables the AP's Minstrel-style rate controller.
    pub fn rate_control(mut self, on: bool) -> Self {
        self.cfg.rate_control = on;
        self
    }

    /// Does nothing: a BSS runs on one thread (DESIGN.md §14; parallelism
    /// is across BSSs, `wifiq_scale::ShardSet`). Kept only because
    /// `benchmark/` still calls `.lanes(1)` and a code PR may not edit it;
    /// the next `[benchmark]` PR drops that call and this method together.
    pub fn lanes(self, _lanes: usize) -> Self {
        self
    }

    /// Gives clients the paper's FQ-CoDel uplink structure.
    pub fn station_fq(mut self, on: bool) -> Self {
        self.cfg.station_fq = on;
        self
    }

    /// Maximum retransmissions of one aggregate.
    pub fn max_retries(mut self, retries: u32) -> Self {
        self.cfg.max_retries = retries;
        self
    }

    /// Station-side uplink FIFO limit per access category.
    pub fn station_fifo_limit(mut self, limit: usize) -> Self {
        self.cfg.station_fifo_limit = limit;
        self
    }

    /// MAC FQ parameters (FQ-MAC / Airtime schemes).
    pub fn fq(mut self, fq: FqParams) -> Self {
        self.cfg.fq = fq;
        self
    }

    /// Airtime scheduler parameters.
    pub fn airtime(mut self, airtime: AirtimeParams) -> Self {
        self.cfg.airtime = airtime;
        self
    }

    /// Number of stations added so far (useful while composing).
    pub fn num_stations(&self) -> usize {
        self.cfg.stations.len()
    }

    /// Finalises the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the fault schedule or the policy timeline is malformed —
    /// a scenario bug, not a runtime condition.
    pub fn build(self) -> NetworkConfig {
        if let Err(msg) = self.cfg.faults.validate() {
            panic!("invalid fault schedule: {msg}");
        }
        if let Err(msg) = self.cfg.policy.validate(self.cfg.stations.len()) {
            panic!("invalid policy: {msg}");
        }
        self.cfg
    }
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        ScenarioBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wifiq_chaos::{FaultTarget, Impairment};

    #[test]
    fn builder_matches_legacy_constructor() {
        let built = NetworkConfig::builder()
            .preset(Preset::PaperTestbed)
            .scheme(SchemeKind::Fifo)
            .build();
        let legacy = NetworkConfig::new(
            vec![
                StationCfg::clean(PhyRate::fast_station()),
                StationCfg::clean(PhyRate::fast_station()),
                StationCfg::clean(PhyRate::slow_station()),
            ],
            SchemeKind::Fifo,
        );
        assert_eq!(built.stations.len(), legacy.stations.len());
        for (b, l) in built.stations.iter().zip(&legacy.stations) {
            assert_eq!(b.rate, l.rate);
            assert_eq!(b.errors, l.errors);
            assert_eq!(b.airtime_weight, l.airtime_weight);
        }
        assert_eq!(built.scheme, legacy.scheme);
        assert_eq!(built.seed, legacy.seed);
        assert_eq!(built.hw_queue_depth, legacy.hw_queue_depth);
        assert!(built.faults.is_empty());
    }

    #[test]
    fn presets_have_paper_shapes() {
        let t4 = NetworkConfig::builder()
            .preset(Preset::PaperTestbed4)
            .build();
        assert_eq!(t4.num_stations(), 4);
        assert_eq!(t4.stations[3].rate, PhyRate::fast_station());
        let t30 = NetworkConfig::builder().preset(Preset::Testbed30).build();
        assert_eq!(t30.num_stations(), 30);
        assert!(!t30.stations[0].rate.supports_aggregation());
    }

    #[test]
    fn station_helpers_set_models() {
        let cfg = NetworkConfig::builder()
            .lossy_station(PhyRate::fast_station(), 0.1)
            .cliff_station(PhyRate::ht(7, wifiq_phy::ChannelWidth::Ht20, true), 3)
            .build();
        assert_eq!(cfg.stations[0].errors, ErrorModel::Fixed(0.1));
        assert!(matches!(
            cfg.stations[1].errors,
            ErrorModel::McsCliff { best_mcs: 3, .. }
        ));
    }

    #[test]
    fn faults_accumulate() {
        let cfg = NetworkConfig::builder()
            .preset(Preset::PaperTestbed)
            .fault(FaultEntry::new(
                Nanos::from_secs(1),
                Nanos::from_secs(2),
                FaultTarget::Station(2),
                Impairment::Stall,
            ))
            .fault(FaultEntry::new(
                Nanos::from_secs(3),
                Nanos::from_secs(4),
                FaultTarget::AllStations,
                Impairment::uniform_loss(0.1),
            ))
            .build();
        assert_eq!(cfg.faults.entries().len(), 2);
    }

    #[test]
    #[should_panic(expected = "invalid fault schedule")]
    fn build_rejects_malformed_schedule() {
        let _ = NetworkConfig::builder()
            .preset(Preset::PaperTestbed)
            .fault(FaultEntry::new(
                Nanos::from_secs(2),
                Nanos::from_secs(1),
                FaultTarget::Station(0),
                Impairment::Stall,
            ))
            .build();
    }
}
