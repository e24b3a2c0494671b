//! JSON scenario files: declarative network + traffic descriptions for
//! the `wifiq` runner, and the one document model every layer above
//! `mac` shares — the loader, the `wifiq-search` mutators and shrinker,
//! and the committed `scenarios/found/` counterexamples all speak
//! [`ScenarioFile`].
//!
//! ```json
//! {
//!   "version": 4,
//!   "scheme": "airtime",
//!   "secs": 30,
//!   "stations": [
//!     { "rate": "mcs15" },
//!     { "rate": "mcs15", "weight": 512 },
//!     { "rate": "1mbps", "error": 0.1 }
//!   ],
//!   "traffic": [
//!     { "kind": "tcp_down", "station": 0 },
//!     { "kind": "udp_down", "station": 2, "mbps": 10, "poisson": true },
//!     { "kind": "ping", "station": 0 },
//!     { "kind": "voip", "station": 2, "qos": "vo" },
//!     { "kind": "web", "station": 1, "page": "large" }
//!   ],
//!   "faults": [
//!     { "kind": "burst_loss", "from_secs": 5, "until_secs": 20,
//!       "station": 2, "bad_frac": 0.3, "burst_len": 12, "loss_bad": 0.9 },
//!     { "kind": "rate_collapse", "from_secs": 10, "until_secs": 15,
//!       "station": 1, "rate": "mcs0" }
//!   ],
//!   "churn": { "mean_interval_ms": 500, "min_stations": 2, "max_stations": 3 },
//!   "roaming": { "mean_dwell_ms": 2000, "reassoc_min_ms": 20,
//!                "reassoc_max_ms": 80, "rate_palette": ["mcs15", "mcs0"] },
//!   "policy": {
//!     "nodes": [
//!       { "name": "tenant-a", "weight": 2, "stations": [0, 1] },
//!       { "name": "tenant-b", "weight": 1, "stations": [2] }
//!     ],
//!     "switches": [
//!       { "at_secs": 10,
//!         "nodes": [
//!           { "name": "tenant-a", "weight": 1, "stations": [0, 1] },
//!           { "name": "tenant-b", "weight": 1, "stations": [2] }
//!         ] }
//!     ]
//!   }
//! }
//! ```
//!
//! Beside the network and its traffic a document may carry a `faults`
//! array (a [`wifiq_chaos`](wifiq_mac::FaultSchedule) schedule), a `churn`
//! block, a `policy` block (a [`wifiq_policy`](wifiq_mac::PolicyTimeline)
//! node tree plus timed switches), a `roaming` block (a
//! [`wifiq_roam::SoloRoam`] hand-off schedule replayed against the
//! scenario network) and, on searcher-found counterexamples, a
//! `provenance` block.
//!
//! There is one schema. [`ScenarioFile::text`] always stamps
//! `"version":` [`SCHEMA_VERSION`]; the decoder takes an absent stamp or
//! any stamp up to that one — the grammar only ever grew, no field
//! changed meaning, so an old document *is* a current one — and rejects
//! a larger stamp by name, since a newer writer may mean something this
//! build cannot read. The stamp is a property of the *text*, not kept on
//! the decoded value.
//!
//! Every value is held in its file form (a `burst_loss` fault stores
//! `bad_frac`/`burst_len`; the Gilbert–Elliott transition probabilities
//! are derived in [`ScenarioFile::build`]), so decoding loses nothing and
//! [`ScenarioFile::text`] writes any document back out canonically:
//!
//! ```
//! use wifiq_experiments::scenario_file::ScenarioFile;
//!
//! let file = ScenarioFile::from_json(
//!     r#"{ "secs": 5, "rate_control": true,
//!          "stations": [{ "rate": "mcs15", "mcs_cliff": 11 }, { "rate": "mcs7" }],
//!          "traffic": [{ "kind": "web", "station": 0, "page": "large" },
//!                      { "kind": "tcp_down", "station": 1 }] }"#,
//! )
//! .unwrap();
//! let again = ScenarioFile::from_json(&file.text()).unwrap();
//! assert_eq!(again, file);
//! assert_eq!(again.hash(), file.hash());
//! assert_eq!(again.stations[0].mcs_cliff, Some(11));
//! ```

mod build;
mod decode;
mod encode;

pub use build::{parse_rate, BuiltScenario, InstalledTraffic};

/// The schema version [`ScenarioFile::text`] stamps and the newest one
/// [`ScenarioFile::from_json`] accepts.
pub const SCHEMA_VERSION: u64 = 4;

/// One station in a scenario file.
#[derive(Debug, Clone, PartialEq)]
pub struct StationSpec {
    /// Rate spec: `mcsN`, `vhtN` (2 streams, 80 MHz), or `<x>mbps`.
    pub rate: String,
    /// Per-exchange error probability (default 0).
    pub error: f64,
    /// MCS cliff for rate-control scenarios (overrides `error`).
    pub mcs_cliff: Option<u8>,
    /// Airtime weight (default 256 = neutral).
    pub weight: Option<u32>,
}

impl StationSpec {
    /// An error-free, neutral-weight station at `rate`.
    pub fn new(rate: &str) -> StationSpec {
        StationSpec {
            rate: rate.into(),
            error: 0.0,
            mcs_cliff: None,
            weight: None,
        }
    }
}

/// One traffic component in a scenario file.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficSpec {
    /// Bulk TCP download to `station`.
    TcpDown {
        /// Target station.
        station: usize,
    },
    /// Bulk TCP upload from `station`.
    TcpUp {
        /// Source station.
        station: usize,
    },
    /// Downstream UDP at `mbps`, optionally Poisson.
    UdpDown {
        /// Target station.
        station: usize,
        /// Mean offered rate in Mbps.
        mbps: u64,
        /// Exponential interarrivals instead of CBR (default false).
        poisson: bool,
    },
    /// 10 Hz ping to `station`.
    Ping {
        /// Target station.
        station: usize,
    },
    /// G.711 VoIP stream to `station`.
    Voip {
        /// Target station.
        station: usize,
        /// QoS marking: "vo", "vi", "be", "bk" (default "be").
        qos: String,
    },
    /// Web page load from `station`.
    Web {
        /// Fetching station.
        station: usize,
        /// "small" (56 KB / 3 req) or "large" (3 MB / 110 req); default
        /// "small".
        page: String,
    },
}

impl TrafficSpec {
    /// The station this component drives.
    pub fn station(&self) -> usize {
        match self {
            TrafficSpec::TcpDown { station }
            | TrafficSpec::TcpUp { station }
            | TrafficSpec::UdpDown { station, .. }
            | TrafficSpec::Ping { station }
            | TrafficSpec::Voip { station, .. }
            | TrafficSpec::Web { station, .. } => *station,
        }
    }

    /// Mutable access to the station reference (roster remapping).
    pub fn station_mut(&mut self) -> &mut usize {
        match self {
            TrafficSpec::TcpDown { station }
            | TrafficSpec::TcpUp { station }
            | TrafficSpec::UdpDown { station, .. }
            | TrafficSpec::Ping { station }
            | TrafficSpec::Voip { station, .. }
            | TrafficSpec::Web { station, .. } => station,
        }
    }
}

/// One fault-schedule entry in a scenario file.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Window start in seconds of sim time (inclusive).
    pub from_secs: f64,
    /// Window end in seconds of sim time (exclusive).
    pub until_secs: f64,
    /// Target station slot; absent applies to every station.
    pub station: Option<usize>,
    /// The impairment and its parameters.
    pub kind: FaultKind,
}

/// An impairment with its parameters as the file spells them; the
/// simulation-side [`wifiq_mac::Impairment`] is derived in
/// [`ScenarioFile::build`].
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Uniform i.i.d. frame loss.
    Loss {
        /// Per-frame loss probability.
        prob: f64,
    },
    /// Gilbert–Elliott burst loss.
    BurstLoss {
        /// Stationary fraction of time in the bad state, in `[0, 1)`.
        bad_frac: f64,
        /// Mean bad-state burst length in frames (≥ 1).
        burst_len: f64,
        /// Loss probability inside a burst (default 0.8).
        loss_bad: f64,
    },
    /// PHY rate pinned to `rate`.
    RateCollapse {
        /// The collapsed rate spec.
        rate: String,
    },
    /// Rate square-wave between the configured rate and `low`.
    RateOscillate {
        /// The low rate spec.
        low: String,
        /// Oscillation period in ms.
        period_ms: u64,
    },
    /// Total stall.
    Stall,
    /// Hardware queue clamped to `depth`.
    HwBackpressure {
        /// Clamped queue depth.
        depth: usize,
    },
    /// ACK loss.
    AckLoss {
        /// Per-ACK loss probability.
        prob: f64,
    },
}

impl FaultKind {
    /// The schema `kind` string.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Loss { .. } => "loss",
            FaultKind::BurstLoss { .. } => "burst_loss",
            FaultKind::RateCollapse { .. } => "rate_collapse",
            FaultKind::RateOscillate { .. } => "rate_oscillate",
            FaultKind::Stall => "stall",
            FaultKind::HwBackpressure { .. } => "hw_backpressure",
            FaultKind::AckLoss { .. } => "ack_loss",
        }
    }
}

/// Optional station churn: a seeded join/leave schedule layered on the
/// run via [`wifiq_scale::ChurnDriver`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnSpec {
    /// Mean interval between churn events in ms (default 100).
    pub mean_interval_ms: u64,
    /// The roster never shrinks below this.
    pub min_stations: usize,
    /// The roster never grows beyond this.
    pub max_stations: usize,
}

/// Optional roaming: a seeded hand-off schedule layered on the run via
/// [`wifiq_roam::SoloRoam`]. Every station in the scenario roster roams;
/// a hand-off disassociates it mid-flow, carries its queued downlink
/// frames across the reassociation gap, and re-homes it with a fresh
/// rate drawn from the palette.
#[derive(Debug, Clone, PartialEq)]
pub struct RoamingSpec {
    /// Mean dwell time between a station's hand-offs in ms
    /// (exponentially distributed; default 5000).
    pub mean_dwell_ms: u64,
    /// Shortest reassociation gap in ms (default 20).
    pub reassoc_min_ms: u64,
    /// Longest reassociation gap in ms (default 80).
    pub reassoc_max_ms: u64,
    /// Rate specs re-drawn on each association; absent uses the
    /// default fast/slow palette.
    pub rate_palette: Option<Vec<String>>,
}

impl Default for RoamingSpec {
    fn default() -> RoamingSpec {
        RoamingSpec {
            mean_dwell_ms: 5000,
            reassoc_min_ms: 20,
            reassoc_max_ms: 80,
            rate_palette: None,
        }
    }
}

/// One node of a policy tree in a scenario file.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyNodeSpec {
    /// Node name (unique within the tree).
    pub name: String,
    /// Relative weight among siblings (default 1).
    pub weight: u32,
    /// Access classes this node covers: "vo"/"vi"/"be"/"bk" strings.
    /// Absent means all four.
    pub classes: Option<Vec<String>>,
    /// Member station slots (leaf nodes).
    pub stations: Option<Vec<usize>>,
    /// Child nodes (group nodes).
    pub nodes: Option<Vec<PolicyNodeSpec>>,
}

/// One timed policy switch in a scenario file.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicySwitchSpec {
    /// When the replacement tree takes effect, in sim seconds.
    pub at_secs: f64,
    /// The replacement tree's root nodes.
    pub nodes: Vec<PolicyNodeSpec>,
}

/// The `policy` block: an initial tree plus timed switches, compiled
/// into a [`wifiq_policy`](wifiq_mac::PolicyTimeline) timeline at build
/// time.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicySpec {
    /// Root nodes of the initial tree.
    pub nodes: Vec<PolicyNodeSpec>,
    /// Timed replacement trees, strictly ascending in `at_secs`.
    pub switches: Vec<PolicySwitchSpec>,
}

/// Provenance of a searcher-found counterexample: how `wifiq-search`
/// derived the file, so `scenarios/found/` entries are self-describing
/// regression artifacts. Ignored by [`ScenarioFile::build`] and excluded
/// from [`ScenarioFile::hash`] — it documents the discovery, not the
/// simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct ProvenanceSpec {
    /// Master seed of the search run that found this counterexample.
    pub searcher_seed: u64,
    /// The violated objective, one of [`OBJECTIVE_KINDS`].
    pub objective: String,
    /// Severity score of the minimal counterexample.
    pub score: f64,
    /// Accepted shrink steps between the first failing mutant and this
    /// minimal form.
    pub shrink_steps: u64,
    /// Encoded size of the first failing mutant, bytes.
    pub first_failing_bytes: Option<u64>,
    /// Encoded size of this minimal counterexample, bytes.
    pub minimal_bytes: Option<u64>,
}

/// Objective names a provenance block may cite.
pub const OBJECTIVE_KINDS: [&str; 6] = [
    "jain_dip",
    "latency_spike",
    "ac_p99_spike",
    "mos_collapse",
    "codel_flap",
    "convergence_blowout",
];

/// A complete scenario document: what [`ScenarioFile::from_json`] decodes,
/// what the searcher mutates and shrinks, and what
/// [`ScenarioFile::text`] writes back. Absent optional fields decode to
/// their defaults, so two documents that describe the same scenario
/// compare equal.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioFile {
    /// Scheme: "fifo", "fqcodel", "fqmac", "airtime" (default "airtime").
    pub scheme: String,
    /// Simulated seconds (default 20).
    pub secs: u64,
    /// RNG seed (default 1).
    pub seed: u64,
    /// FQ-CoDel on client uplinks.
    pub station_fq: bool,
    /// Minstrel rate control at the AP.
    pub rate_control: bool,
    /// Airtime queue limit in ms (absent = off).
    pub aql_ms: Option<u64>,
    /// The stations.
    pub stations: Vec<StationSpec>,
    /// The traffic mix.
    pub traffic: Vec<TrafficSpec>,
    /// Scheduled impairments.
    pub faults: Vec<FaultSpec>,
    /// Station churn.
    pub churn: Option<ChurnSpec>,
    /// Airtime policy.
    pub policy: Option<PolicySpec>,
    /// Roaming schedule.
    pub roaming: Option<RoamingSpec>,
    /// Search provenance, present on `scenarios/found/`
    /// counterexamples.
    pub provenance: Option<ProvenanceSpec>,
}

#[cfg(test)]
mod tests;
