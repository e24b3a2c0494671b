//! JSON scenario files: declarative network + traffic descriptions for
//! the `wifiq` runner, and the one document model every layer above
//! `mac` shares — the loader, the `wifiq-search` mutators and shrinker,
//! and the committed `scenarios/found/` counterexamples all speak
//! [`ScenarioFile`].
//!
//! ```json
//! {
//!   "version": 2,
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
//! Schema versions: `1` (implicit default) is the original network +
//! traffic description; `2` adds the `faults` array (a
//! [`wifiq_chaos`](wifiq_mac::FaultSchedule) schedule) and the optional
//! `churn` block; `3` adds the `policy` block (a
//! [`wifiq_policy`](wifiq_mac::PolicyTimeline) node tree plus timed
//! switches); `4` adds the `roaming` block (a [`wifiq_roam::SoloRoam`]
//! hand-off schedule replayed against the scenario network). Files using
//! a field their declared version does not gate in are rejected. The
//! version is a property of the *text* — it gates outside input and is
//! not kept on the decoded value.
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

use serde_json::Json;
use wifiq_harness::sha256_hex;
use wifiq_mac::{
    ErrorModel, FaultEntry, FaultSchedule, FaultTarget, Impairment, NetworkConfig, PolicyNode,
    PolicySet, PolicyTimeline, SchemeKind, StationCfg, WifiNetwork,
};
use wifiq_phy::{AccessCategory, ChannelWidth, LegacyRate, PhyRate, VhtWidth};
use wifiq_roam::{RoamCfg, SoloRoam};
use wifiq_scale::{ChurnCfg, ChurnDriver};
use wifiq_sim::Nanos;
use wifiq_traffic::{AppMsg, FlowHandle, TrafficApp, WebPage};

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

/// One fault-schedule entry in a scenario file (schema version ≥ 2).
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
/// simulation-side [`Impairment`] is derived in [`ScenarioFile::build`].
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

/// Optional station churn (schema version ≥ 2): a seeded join/leave
/// schedule layered on the run via [`wifiq_scale::ChurnDriver`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnSpec {
    /// Mean interval between churn events in ms (default 100).
    pub mean_interval_ms: u64,
    /// The roster never shrinks below this.
    pub min_stations: usize,
    /// The roster never grows beyond this.
    pub max_stations: usize,
}

/// Optional roaming (schema version ≥ 4): a seeded hand-off schedule
/// layered on the run via [`wifiq_roam::SoloRoam`]. Every station in the
/// scenario roster roams; a hand-off disassociates it mid-flow, carries
/// its queued downlink frames across the reassociation gap, and re-homes
/// it with a fresh rate drawn from the palette.
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

/// One node of a policy tree in a scenario file (schema version ≥ 3).
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

/// One timed policy switch in a scenario file (schema version ≥ 3).
#[derive(Debug, Clone, PartialEq)]
pub struct PolicySwitchSpec {
    /// When the replacement tree takes effect, in sim seconds.
    pub at_secs: f64,
    /// The replacement tree's root nodes.
    pub nodes: Vec<PolicyNodeSpec>,
}

/// The `policy` block (schema version ≥ 3): an initial tree plus timed
/// switches, compiled into a [`wifiq_policy`](wifiq_mac::PolicyTimeline)
/// timeline at build time.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicySpec {
    /// Root nodes of the initial tree.
    pub nodes: Vec<PolicyNodeSpec>,
    /// Timed replacement trees, strictly ascending in `at_secs`.
    pub switches: Vec<PolicySwitchSpec>,
}

/// Provenance of a searcher-found counterexample (schema version ≥ 3):
/// how `wifiq-search` derived the file, so `scenarios/found/` entries are
/// self-describing regression artifacts. Ignored by [`ScenarioFile::build`]
/// and excluded from [`ScenarioFile::hash`] — it documents the discovery,
/// not the simulation.
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
    /// Scheduled impairments (version ≥ 2).
    pub faults: Vec<FaultSpec>,
    /// Station churn (version ≥ 2).
    pub churn: Option<ChurnSpec>,
    /// Airtime policy (version ≥ 3).
    pub policy: Option<PolicySpec>,
    /// Roaming schedule (version ≥ 4).
    pub roaming: Option<RoamingSpec>,
    /// Search provenance (version ≥ 3), present on `scenarios/found/`
    /// counterexamples.
    pub provenance: Option<ProvenanceSpec>,
}

// ---- manual JSON decoding -------------------------------------------------
//
// The vendored serde subset has no Deserialize derive, so scenario files are
// decoded by hand from the parsed `Json` value. The decoder keeps the old
// derive semantics: unknown fields are rejected by name, absent optional
// fields fall back to their defaults, and type mismatches name the field.

/// A decoding context: the fields of one JSON object plus a description of
/// where it sits, for error messages.
struct Fields<'a> {
    what: String,
    fields: &'a [(String, Json)],
}

impl<'a> Fields<'a> {
    fn of(value: &'a Json, what: impl Into<String>) -> Result<Fields<'a>, String> {
        let what = what.into();
        match value.as_object() {
            Some(fields) => Ok(Fields { what, fields }),
            None => Err(format!("{what}: expected a JSON object")),
        }
    }

    /// Rejects any field not in `allowed`, naming the offender.
    fn deny_unknown(&self, allowed: &[&str]) -> Result<(), String> {
        for (k, _) in self.fields {
            if !allowed.contains(&k.as_str()) {
                return Err(format!("{}: unknown field `{k}`", self.what));
            }
        }
        Ok(())
    }

    fn raw(&self, name: &str) -> Option<&'a Json> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// An optional non-negative integer field, narrowed to `T` with a
    /// named error instead of a silent `as` wrap.
    fn int_opt<T: TryFrom<u64>>(&self, name: &str) -> Result<Option<T>, String> {
        let Some(v) = self.raw(name) else {
            return Ok(None);
        };
        let v = v.as_u64().ok_or_else(|| {
            format!(
                "{}: field `{name}` must be a non-negative integer",
                self.what
            )
        })?;
        T::try_from(v)
            .map(Some)
            .map_err(|_| format!("{}: field `{name}` is out of range ({v})", self.what))
    }

    fn int_req<T: TryFrom<u64>>(&self, name: &str) -> Result<T, String> {
        self.int_opt(name)?
            .ok_or_else(|| format!("{}: missing field `{name}`", self.what))
    }

    fn f64_req(&self, name: &str) -> Result<f64, String> {
        match self.raw(name) {
            Some(v) => v
                .as_f64()
                .ok_or_else(|| format!("{}: field `{name}` must be a number", self.what)),
            None => Err(format!("{}: missing field `{name}`", self.what)),
        }
    }

    fn f64_or(&self, name: &str, default: f64) -> Result<f64, String> {
        self.raw(name)
            .map(|v| {
                v.as_f64()
                    .ok_or_else(|| format!("{}: field `{name}` must be a number", self.what))
            })
            .transpose()
            .map(|v| v.unwrap_or(default))
    }

    fn bool_or(&self, name: &str, default: bool) -> Result<bool, String> {
        self.raw(name)
            .map(|v| {
                v.as_bool()
                    .ok_or_else(|| format!("{}: field `{name}` must be a boolean", self.what))
            })
            .transpose()
            .map(|v| v.unwrap_or(default))
    }

    fn string_opt(&self, name: &str) -> Result<Option<String>, String> {
        self.raw(name)
            .map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("{}: field `{name}` must be a string", self.what))
            })
            .transpose()
    }

    fn string_req(&self, name: &str) -> Result<String, String> {
        self.string_opt(name)?
            .ok_or_else(|| format!("{}: missing field `{name}`", self.what))
    }

    fn array_req(&self, name: &str) -> Result<&'a [Json], String> {
        match self.raw(name) {
            Some(v) => v
                .as_array()
                .ok_or_else(|| format!("{}: field `{name}` must be an array", self.what)),
            None => Err(format!("{}: missing field `{name}`", self.what)),
        }
    }

    /// An optional array field whose every entry `conv` accepts;
    /// `entries` describes them for the error message.
    fn array_opt<T>(
        &self,
        name: &str,
        entries: &str,
        conv: impl Fn(&Json) -> Option<T>,
    ) -> Result<Option<Vec<T>>, String> {
        let Some(v) = self.raw(name) else {
            return Ok(None);
        };
        let arr = v
            .as_array()
            .ok_or_else(|| format!("{}: field `{name}` must be an array", self.what))?;
        arr.iter()
            .map(|x| {
                conv(x).ok_or_else(|| format!("{}: `{name}` entries must be {entries}", self.what))
            })
            .collect::<Result<Vec<_>, _>>()
            .map(Some)
    }

    fn string_array_opt(&self, name: &str) -> Result<Option<Vec<String>>, String> {
        self.array_opt(name, "strings", |x| x.as_str().map(str::to_string))
    }
}

impl StationSpec {
    fn decode(value: &Json, index: usize) -> Result<StationSpec, String> {
        let f = Fields::of(value, format!("stations[{index}]"))?;
        f.deny_unknown(&["rate", "error", "mcs_cliff", "weight"])?;
        Ok(StationSpec {
            rate: f.string_req("rate")?,
            error: f.f64_or("error", 0.0)?,
            mcs_cliff: f.int_opt("mcs_cliff")?,
            weight: f.int_opt("weight")?,
        })
    }
}

impl TrafficSpec {
    fn decode(value: &Json, index: usize) -> Result<TrafficSpec, String> {
        let f = Fields::of(value, format!("traffic[{index}]"))?;
        let kind = f.string_req("kind")?;
        match kind.as_str() {
            "tcp_down" => {
                f.deny_unknown(&["kind", "station"])?;
                Ok(TrafficSpec::TcpDown {
                    station: f.int_req("station")?,
                })
            }
            "tcp_up" => {
                f.deny_unknown(&["kind", "station"])?;
                Ok(TrafficSpec::TcpUp {
                    station: f.int_req("station")?,
                })
            }
            "udp_down" => {
                f.deny_unknown(&["kind", "station", "mbps", "poisson"])?;
                Ok(TrafficSpec::UdpDown {
                    station: f.int_req("station")?,
                    mbps: f.int_req("mbps")?,
                    poisson: f.bool_or("poisson", false)?,
                })
            }
            "ping" => {
                f.deny_unknown(&["kind", "station"])?;
                Ok(TrafficSpec::Ping {
                    station: f.int_req("station")?,
                })
            }
            "voip" => {
                f.deny_unknown(&["kind", "station", "qos"])?;
                Ok(TrafficSpec::Voip {
                    station: f.int_req("station")?,
                    qos: f.string_opt("qos")?.unwrap_or_else(|| "be".into()),
                })
            }
            "web" => {
                f.deny_unknown(&["kind", "station", "page"])?;
                Ok(TrafficSpec::Web {
                    station: f.int_req("station")?,
                    page: f.string_opt("page")?.unwrap_or_else(|| "small".into()),
                })
            }
            other => Err(format!("traffic[{index}]: unknown kind `{other}`")),
        }
    }
}

impl FaultSpec {
    fn decode(value: &Json, index: usize) -> Result<FaultSpec, String> {
        let f = Fields::of(value, format!("faults[{index}]"))?;
        let kind = f.string_req("kind")?;
        fn allow<'a>(extra: &[&'a str]) -> Vec<&'a str> {
            let mut v = vec!["kind", "from_secs", "until_secs", "station"];
            v.extend_from_slice(extra);
            v
        }
        let kind = match kind.as_str() {
            "loss" => {
                f.deny_unknown(&allow(&["prob"]))?;
                FaultKind::Loss {
                    prob: f.f64_req("prob")?,
                }
            }
            "burst_loss" => {
                f.deny_unknown(&allow(&["bad_frac", "burst_len", "loss_bad"]))?;
                FaultKind::BurstLoss {
                    bad_frac: f.f64_req("bad_frac")?,
                    burst_len: f.f64_req("burst_len")?,
                    loss_bad: f.f64_or("loss_bad", 0.8)?,
                }
            }
            "rate_collapse" => {
                f.deny_unknown(&allow(&["rate"]))?;
                FaultKind::RateCollapse {
                    rate: f.string_req("rate")?,
                }
            }
            "rate_oscillate" => {
                f.deny_unknown(&allow(&["low", "period_ms"]))?;
                FaultKind::RateOscillate {
                    low: f.string_req("low")?,
                    period_ms: f.int_req("period_ms")?,
                }
            }
            "stall" => {
                f.deny_unknown(&allow(&[]))?;
                FaultKind::Stall
            }
            "hw_backpressure" => {
                f.deny_unknown(&allow(&["depth"]))?;
                FaultKind::HwBackpressure {
                    depth: f.int_req("depth")?,
                }
            }
            "ack_loss" => {
                f.deny_unknown(&allow(&["prob"]))?;
                FaultKind::AckLoss {
                    prob: f.f64_req("prob")?,
                }
            }
            other => return Err(format!("faults[{index}]: unknown kind `{other}`")),
        };
        Ok(FaultSpec {
            from_secs: f.f64_req("from_secs")?,
            until_secs: f.f64_req("until_secs")?,
            station: f.int_opt("station")?,
            kind,
        })
    }

    /// Derives the simulation-side impairment, range-checking before the
    /// panicking `Impairment` constructors.
    fn impairment(&self, index: usize) -> Result<Impairment, String> {
        Ok(match &self.kind {
            FaultKind::Loss { prob } => Impairment::uniform_loss(*prob),
            FaultKind::BurstLoss {
                bad_frac,
                burst_len,
                loss_bad,
            } => {
                if !(0.0..1.0).contains(bad_frac) {
                    return Err(format!("faults[{index}]: bad_frac must be in [0, 1)"));
                }
                if *burst_len < 1.0 {
                    return Err(format!("faults[{index}]: burst_len must be >= 1"));
                }
                Impairment::bursty_loss(*bad_frac, *burst_len, *loss_bad)
            }
            FaultKind::RateCollapse { rate } => Impairment::RateCollapse {
                rate: parse_rate(rate)?,
            },
            FaultKind::RateOscillate { low, period_ms } => Impairment::RateOscillate {
                low: parse_rate(low)?,
                period: millis(*period_ms, &format!("faults[{index}]: `period_ms`"))?,
            },
            FaultKind::Stall => Impairment::Stall,
            FaultKind::HwBackpressure { depth } => Impairment::HwBackpressure { depth: *depth },
            FaultKind::AckLoss { prob } => Impairment::AckLoss { prob: *prob },
        })
    }
}

impl PolicyNodeSpec {
    fn decode(value: &Json, path: String) -> Result<PolicyNodeSpec, String> {
        let f = Fields::of(value, path.clone())?;
        f.deny_unknown(&["name", "weight", "classes", "stations", "nodes"])?;
        let nodes = match f.raw("nodes") {
            None => None,
            Some(v) => {
                let arr = v
                    .as_array()
                    .ok_or_else(|| format!("{path}: field `nodes` must be an array"))?;
                Some(
                    arr.iter()
                        .enumerate()
                        .map(|(i, v)| PolicyNodeSpec::decode(v, format!("{path}.nodes[{i}]")))
                        .collect::<Result<Vec<_>, _>>()?,
                )
            }
        };
        Ok(PolicyNodeSpec {
            name: f.string_req("name")?,
            weight: f.int_opt("weight")?.unwrap_or(1),
            classes: f.string_array_opt("classes")?,
            stations: f.array_opt("stations", "non-negative integers", |x| {
                x.as_u64().and_then(|u| usize::try_from(u).ok())
            })?,
            nodes,
        })
    }

    /// Converts the spec to a policy-tree node. Structural errors (a node
    /// with both children and stations, bad class names, …) surface here
    /// or in timeline validation, never as a panic.
    fn to_node(&self) -> Result<PolicyNode, String> {
        let mut node = match (&self.nodes, &self.stations) {
            (Some(children), None) => {
                let children = children
                    .iter()
                    .map(PolicyNodeSpec::to_node)
                    .collect::<Result<Vec<_>, _>>()?;
                PolicyNode::group(&self.name, self.weight, children)
            }
            (None, Some(stations)) => PolicyNode::leaf(&self.name, self.weight, stations.clone()),
            _ => {
                return Err(format!(
                    "policy node `{}` needs exactly one of `nodes` or `stations`",
                    self.name
                ))
            }
        };
        if let Some(classes) = &self.classes {
            let parsed = classes
                .iter()
                .map(|c| parse_qos(Some(c)))
                .collect::<Result<Vec<_>, _>>()?;
            node = node.classes(parsed);
        }
        Ok(node)
    }
}

impl PolicySwitchSpec {
    fn decode(value: &Json, index: usize) -> Result<PolicySwitchSpec, String> {
        let path = format!("policy.switches[{index}]");
        let f = Fields::of(value, path.clone())?;
        f.deny_unknown(&["at_secs", "nodes"])?;
        let nodes = f
            .array_req("nodes")?
            .iter()
            .enumerate()
            .map(|(i, v)| PolicyNodeSpec::decode(v, format!("{path}.nodes[{i}]")))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(PolicySwitchSpec {
            at_secs: f.f64_req("at_secs")?,
            nodes,
        })
    }
}

impl PolicySpec {
    fn decode(value: &Json) -> Result<PolicySpec, String> {
        let f = Fields::of(value, "policy")?;
        f.deny_unknown(&["nodes", "switches"])?;
        let nodes = f
            .array_req("nodes")?
            .iter()
            .enumerate()
            .map(|(i, v)| PolicyNodeSpec::decode(v, format!("policy.nodes[{i}]")))
            .collect::<Result<Vec<_>, _>>()?;
        let switches = match f.raw("switches") {
            Some(_) => f
                .array_req("switches")?
                .iter()
                .enumerate()
                .map(|(i, v)| PolicySwitchSpec::decode(v, i))
                .collect::<Result<Vec<_>, _>>()?,
            None => Vec::new(),
        };
        Ok(PolicySpec { nodes, switches })
    }

    /// Builds the policy timeline: the initial tree plus every switch.
    fn to_timeline(&self) -> Result<PolicyTimeline, String> {
        let roots = self
            .nodes
            .iter()
            .map(PolicyNodeSpec::to_node)
            .collect::<Result<Vec<_>, _>>()?;
        let mut timeline = PolicyTimeline::fixed(PolicySet::new(roots));
        for (i, sw) in self.switches.iter().enumerate() {
            let roots = sw
                .nodes
                .iter()
                .map(PolicyNodeSpec::to_node)
                .collect::<Result<Vec<_>, _>>()?;
            let at = secs_f64(sw.at_secs, &format!("policy.switches[{i}]: `at_secs`"))?;
            timeline = timeline.with_switch(at, PolicySet::new(roots));
        }
        Ok(timeline)
    }
}

impl ProvenanceSpec {
    fn decode(value: &Json) -> Result<ProvenanceSpec, String> {
        let f = Fields::of(value, "provenance")?;
        f.deny_unknown(&[
            "searcher_seed",
            "objective",
            "score",
            "shrink_steps",
            "first_failing_bytes",
            "minimal_bytes",
        ])?;
        let objective = f.string_req("objective")?;
        if !OBJECTIVE_KINDS.contains(&objective.as_str()) {
            return Err(format!("provenance: unknown objective `{objective}`"));
        }
        let searcher_seed = f
            .int_opt("searcher_seed")?
            .ok_or("provenance: missing field `searcher_seed`")?;
        let shrink_steps = f
            .int_opt("shrink_steps")?
            .ok_or("provenance: missing field `shrink_steps`")?;
        Ok(ProvenanceSpec {
            searcher_seed,
            objective,
            score: f.f64_or("score", 0.0)?,
            shrink_steps,
            first_failing_bytes: f.int_opt("first_failing_bytes")?,
            minimal_bytes: f.int_opt("minimal_bytes")?,
        })
    }
}

impl RoamingSpec {
    fn decode(value: &Json) -> Result<RoamingSpec, String> {
        let f = Fields::of(value, "roaming")?;
        f.deny_unknown(&[
            "mean_dwell_ms",
            "reassoc_min_ms",
            "reassoc_max_ms",
            "rate_palette",
        ])?;
        let d = RoamingSpec::default();
        Ok(RoamingSpec {
            mean_dwell_ms: f.int_opt("mean_dwell_ms")?.unwrap_or(d.mean_dwell_ms),
            reassoc_min_ms: f.int_opt("reassoc_min_ms")?.unwrap_or(d.reassoc_min_ms),
            reassoc_max_ms: f.int_opt("reassoc_max_ms")?.unwrap_or(d.reassoc_max_ms),
            rate_palette: f.string_array_opt("rate_palette")?,
        })
    }
}

impl ChurnSpec {
    fn decode(value: &Json) -> Result<ChurnSpec, String> {
        let f = Fields::of(value, "churn")?;
        f.deny_unknown(&["mean_interval_ms", "min_stations", "max_stations"])?;
        Ok(ChurnSpec {
            mean_interval_ms: f.int_opt("mean_interval_ms")?.unwrap_or(100),
            min_stations: f.int_req("min_stations")?,
            max_stations: f.int_req("max_stations")?,
        })
    }
}

// ---- canonical encoding ----------------------------------------------------
//
// Fixed field order; `error`, `mcs_cliff`, `weight`, the two booleans,
// `aql_ms`, an empty `faults` array and absent blocks are omitted; every
// other field is written even at its default; floats print shortest
// round-trip (integral ones as `N.0`). The same document always produces
// the same bytes — content hashes, harness cache keys and the
// `scenarios/found/` file names all rest on that.

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn strs(items: &[String]) -> Json {
    Json::Arr(items.iter().map(|s| Json::Str(s.clone())).collect())
}

fn idx(i: usize) -> Json {
    Json::U64(i as u64)
}

impl StationSpec {
    fn encode(&self) -> Json {
        let mut f = vec![("rate", Json::Str(self.rate.clone()))];
        if self.error != 0.0 {
            f.push(("error", Json::F64(self.error)));
        }
        if let Some(m) = self.mcs_cliff {
            f.push(("mcs_cliff", Json::U64(u64::from(m))));
        }
        if let Some(w) = self.weight {
            f.push(("weight", Json::U64(u64::from(w))));
        }
        obj(f)
    }
}

impl TrafficSpec {
    fn encode(&self) -> Json {
        let (kind, extra) = match self {
            TrafficSpec::TcpDown { .. } => ("tcp_down", vec![]),
            TrafficSpec::TcpUp { .. } => ("tcp_up", vec![]),
            TrafficSpec::UdpDown { mbps, poisson, .. } => (
                "udp_down",
                vec![
                    ("mbps", Json::U64(*mbps)),
                    ("poisson", Json::Bool(*poisson)),
                ],
            ),
            TrafficSpec::Ping { .. } => ("ping", vec![]),
            TrafficSpec::Voip { qos, .. } => ("voip", vec![("qos", Json::Str(qos.clone()))]),
            TrafficSpec::Web { page, .. } => ("web", vec![("page", Json::Str(page.clone()))]),
        };
        let mut f = vec![
            ("kind", Json::Str(kind.into())),
            ("station", idx(self.station())),
        ];
        f.extend(extra);
        obj(f)
    }
}

impl FaultSpec {
    fn encode(&self) -> Json {
        let mut f = vec![
            ("kind", Json::Str(self.kind.name().into())),
            ("from_secs", Json::F64(self.from_secs)),
            ("until_secs", Json::F64(self.until_secs)),
        ];
        if let Some(sta) = self.station {
            f.push(("station", idx(sta)));
        }
        match &self.kind {
            FaultKind::Loss { prob } | FaultKind::AckLoss { prob } => {
                f.push(("prob", Json::F64(*prob)));
            }
            FaultKind::BurstLoss {
                bad_frac,
                burst_len,
                loss_bad,
            } => {
                f.push(("bad_frac", Json::F64(*bad_frac)));
                f.push(("burst_len", Json::F64(*burst_len)));
                f.push(("loss_bad", Json::F64(*loss_bad)));
            }
            FaultKind::RateCollapse { rate } => f.push(("rate", Json::Str(rate.clone()))),
            FaultKind::RateOscillate { low, period_ms } => {
                f.push(("low", Json::Str(low.clone())));
                f.push(("period_ms", Json::U64(*period_ms)));
            }
            FaultKind::Stall => {}
            FaultKind::HwBackpressure { depth } => f.push(("depth", idx(*depth))),
        }
        obj(f)
    }
}

impl PolicyNodeSpec {
    fn encode(&self) -> Json {
        let mut f = vec![
            ("name", Json::Str(self.name.clone())),
            ("weight", Json::U64(u64::from(self.weight))),
        ];
        if let Some(classes) = &self.classes {
            f.push(("classes", strs(classes)));
        }
        if let Some(stations) = &self.stations {
            f.push((
                "stations",
                Json::Arr(stations.iter().map(|s| idx(*s)).collect()),
            ));
        }
        if let Some(nodes) = &self.nodes {
            f.push(("nodes", PolicyNodeSpec::encode_all(nodes)));
        }
        obj(f)
    }

    fn encode_all(nodes: &[PolicyNodeSpec]) -> Json {
        Json::Arr(nodes.iter().map(PolicyNodeSpec::encode).collect())
    }
}

impl PolicySpec {
    fn encode(&self) -> Json {
        let mut f = vec![("nodes", PolicyNodeSpec::encode_all(&self.nodes))];
        if !self.switches.is_empty() {
            let switches = self.switches.iter().map(|sw| {
                obj(vec![
                    ("at_secs", Json::F64(sw.at_secs)),
                    ("nodes", PolicyNodeSpec::encode_all(&sw.nodes)),
                ])
            });
            f.push(("switches", Json::Arr(switches.collect())));
        }
        obj(f)
    }
}

impl ChurnSpec {
    fn encode(&self) -> Json {
        obj(vec![
            ("mean_interval_ms", Json::U64(self.mean_interval_ms)),
            ("min_stations", idx(self.min_stations)),
            ("max_stations", idx(self.max_stations)),
        ])
    }
}

impl RoamingSpec {
    fn encode(&self) -> Json {
        let mut f = vec![
            ("mean_dwell_ms", Json::U64(self.mean_dwell_ms)),
            ("reassoc_min_ms", Json::U64(self.reassoc_min_ms)),
            ("reassoc_max_ms", Json::U64(self.reassoc_max_ms)),
        ];
        if let Some(palette) = &self.rate_palette {
            f.push(("rate_palette", strs(palette)));
        }
        obj(f)
    }
}

impl ProvenanceSpec {
    fn encode(&self) -> Json {
        let mut f = vec![
            ("searcher_seed", Json::U64(self.searcher_seed)),
            ("objective", Json::Str(self.objective.clone())),
            ("score", Json::F64(self.score)),
            ("shrink_steps", Json::U64(self.shrink_steps)),
        ];
        if let Some(b) = self.first_failing_bytes {
            f.push(("first_failing_bytes", Json::U64(b)));
        }
        if let Some(b) = self.minimal_bytes {
            f.push(("minimal_bytes", Json::U64(b)));
        }
        obj(f)
    }
}

/// A parsed rate spec (shared with the CLI's `--stations` grammar).
pub fn parse_rate(spec: &str) -> Result<PhyRate, String> {
    if let Some(mcs) = spec.strip_prefix("vht") {
        let mcs: u8 = mcs.parse().map_err(|_| format!("bad VHT MCS '{spec}'"))?;
        if mcs > 9 {
            return Err(format!("VHT MCS out of range: '{spec}'"));
        }
        Ok(PhyRate::vht(mcs, 2, VhtWidth::Mhz80, true))
    } else if let Some(mcs) = spec.strip_prefix("mcs") {
        let mcs: u8 = mcs.parse().map_err(|_| format!("bad MCS '{spec}'"))?;
        if mcs > 15 {
            return Err(format!("HT MCS out of range: '{spec}'"));
        }
        Ok(PhyRate::ht(mcs, ChannelWidth::Ht20, true))
    } else if let Some(m) = spec.strip_suffix("mbps") {
        let r = match m {
            "1" => LegacyRate::Dsss1,
            "2" => LegacyRate::Dsss2,
            "5.5" => LegacyRate::Dsss5_5,
            "11" => LegacyRate::Dsss11,
            "6" => LegacyRate::Ofdm6,
            "9" => LegacyRate::Ofdm9,
            "12" => LegacyRate::Ofdm12,
            "18" => LegacyRate::Ofdm18,
            "24" => LegacyRate::Ofdm24,
            "36" => LegacyRate::Ofdm36,
            "48" => LegacyRate::Ofdm48,
            "54" => LegacyRate::Ofdm54,
            other => return Err(format!("unsupported legacy rate '{other}mbps'")),
        };
        Ok(PhyRate::Legacy(r))
    } else {
        Err(format!("unrecognised rate spec '{spec}'"))
    }
}

fn parse_qos(s: Option<&str>) -> Result<AccessCategory, String> {
    Ok(match s.unwrap_or("be") {
        "vo" => AccessCategory::Vo,
        "vi" => AccessCategory::Vi,
        "be" => AccessCategory::Be,
        "bk" => AccessCategory::Bk,
        other => return Err(format!("unknown QoS '{other}'")),
    })
}

/// A file-form seconds value as sim time. `Nanos::from_secs_f64` panics
/// on negative, non-finite or beyond-horizon input; this names the field
/// instead.
fn secs_f64(v: f64, field: &str) -> Result<Nanos, String> {
    if v >= 0.0 && v < u64::MAX as f64 / 1e9 {
        Ok(Nanos::from_secs_f64(v))
    } else {
        Err(format!(
            "{field} must be a finite, non-negative time within the simulated horizon (got {v})"
        ))
    }
}

/// A whole-unit file duration as sim time. `Nanos::from_secs` and
/// `Nanos::from_millis` wrap on overflow; this names the field instead.
fn whole(v: u64, unit: Nanos, field: &str) -> Result<Nanos, String> {
    v.checked_mul(unit.as_nanos())
        .map(Nanos::from_nanos)
        .ok_or_else(|| format!("{field} overflows the simulated clock (got {v})"))
}

fn millis(v: u64, field: &str) -> Result<Nanos, String> {
    whole(v, Nanos::from_millis(1), field)
}

/// A traffic handle paired with what it is, for result reporting.
#[derive(Debug)]
pub enum InstalledTraffic {
    /// TCP transfer.
    Tcp(FlowHandle),
    /// UDP flood.
    Udp(FlowHandle),
    /// Ping flow.
    Ping(FlowHandle),
    /// VoIP stream.
    Voip(FlowHandle),
    /// Web session.
    Web(FlowHandle),
}

/// A scenario ready to run.
pub struct BuiltScenario {
    /// The simulated network.
    pub net: WifiNetwork<AppMsg>,
    /// The traffic application.
    pub app: TrafficApp,
    /// Handles in file order.
    pub traffic: Vec<InstalledTraffic>,
    /// Simulated duration.
    pub duration: Nanos,
    /// Churn driver, when the scenario declares one.
    pub churn: Option<ChurnDriver>,
    /// Roaming replayer, when the scenario declares one (version ≥ 4).
    pub roam: Option<SoloRoam<AppMsg>>,
}

impl BuiltScenario {
    /// Drives the network to `until`, applying any scheduled churn and
    /// roaming events along the way. With both drivers present their
    /// schedules interleave in time order; a roam move whose slot churn
    /// has vacated is skipped (counted in
    /// [`RoamStats::skipped`](wifiq_roam::RoamStats)).
    pub fn run_to(&mut self, until: Nanos) {
        loop {
            let tc = self.churn.as_ref().map_or(Nanos::MAX, |c| c.next_at());
            let tr = self.roam.as_ref().map_or(Nanos::MAX, |r| r.next_at());
            let t = tc.min(tr);
            if t >= until {
                break;
            }
            self.net.run(t, &mut self.app);
            // Roam actions before the churn event at the same instant:
            // a rejoin must land before churn can fill the free slot.
            if let Some(r) = &mut self.roam {
                if tr <= t {
                    r.catch_up(&mut self.net, t);
                }
            }
            if let Some(c) = &mut self.churn {
                if tc <= t {
                    c.step(&mut self.net);
                }
            }
        }
        self.net.run(until, &mut self.app);
    }
}

impl ScenarioFile {
    /// Parses a scenario from JSON text.
    pub fn from_json(text: &str) -> Result<ScenarioFile, String> {
        let value = serde_json::from_str(text).map_err(|e| format!("scenario parse error: {e}"))?;
        let f = Fields::of(&value, "scenario")?;
        f.deny_unknown(&[
            "version",
            "scheme",
            "secs",
            "seed",
            "station_fq",
            "rate_control",
            "aql_ms",
            "stations",
            "traffic",
            "faults",
            "churn",
            "policy",
            "provenance",
            "roaming",
        ])?;
        let version: u64 = f.int_opt("version")?.unwrap_or(1);
        if !(1..=4).contains(&version) {
            return Err(format!(
                "unsupported scenario version {version} (this build understands 1 through 4)"
            ));
        }
        if version < 2 {
            for field in ["faults", "churn"] {
                if f.raw(field).is_some() {
                    return Err(format!("`{field}` requires \"version\": 2"));
                }
            }
        }
        if version < 3 {
            for field in ["policy", "provenance"] {
                if f.raw(field).is_some() {
                    return Err(format!("`{field}` requires \"version\": 3"));
                }
            }
        }
        if version < 4 && f.raw("roaming").is_some() {
            return Err("`roaming` requires \"version\": 4".into());
        }
        let stations = f
            .array_req("stations")?
            .iter()
            .enumerate()
            .map(|(i, v)| StationSpec::decode(v, i))
            .collect::<Result<Vec<_>, _>>()?;
        let traffic = f
            .array_req("traffic")?
            .iter()
            .enumerate()
            .map(|(i, v)| TrafficSpec::decode(v, i))
            .collect::<Result<Vec<_>, _>>()?;
        let faults = match f.raw("faults") {
            Some(_) => f
                .array_req("faults")?
                .iter()
                .enumerate()
                .map(|(i, v)| FaultSpec::decode(v, i))
                .collect::<Result<Vec<_>, _>>()?,
            None => Vec::new(),
        };
        let churn = f.raw("churn").map(ChurnSpec::decode).transpose()?;
        let policy = f.raw("policy").map(PolicySpec::decode).transpose()?;
        let roaming = f.raw("roaming").map(RoamingSpec::decode).transpose()?;
        let provenance = f
            .raw("provenance")
            .map(ProvenanceSpec::decode)
            .transpose()?;
        Ok(ScenarioFile {
            scheme: f.string_opt("scheme")?.unwrap_or_else(|| "airtime".into()),
            secs: f.int_opt("secs")?.unwrap_or(20),
            seed: f.int_opt("seed")?.unwrap_or(1),
            station_fq: f.bool_or("station_fq", false)?,
            rate_control: f.bool_or("rate_control", false)?,
            aql_ms: f.int_opt("aql_ms")?,
            stations,
            traffic,
            faults,
            churn,
            policy,
            roaming,
            provenance,
        })
    }

    fn to_json(&self, with_provenance: bool) -> Json {
        // Pre-roaming documents keep stamping 3, so their historical
        // hashes (and `scenarios/found/` names) do not move.
        let version = if self.roaming.is_some() { 4 } else { 3 };
        let mut f = vec![
            ("version", Json::U64(version)),
            ("scheme", Json::Str(self.scheme.clone())),
            ("secs", Json::U64(self.secs)),
            ("seed", Json::U64(self.seed)),
        ];
        if self.station_fq {
            f.push(("station_fq", Json::Bool(true)));
        }
        if self.rate_control {
            f.push(("rate_control", Json::Bool(true)));
        }
        if let Some(aql) = self.aql_ms {
            f.push(("aql_ms", Json::U64(aql)));
        }
        f.push((
            "stations",
            Json::Arr(self.stations.iter().map(StationSpec::encode).collect()),
        ));
        f.push((
            "traffic",
            Json::Arr(self.traffic.iter().map(TrafficSpec::encode).collect()),
        ));
        if !self.faults.is_empty() {
            f.push((
                "faults",
                Json::Arr(self.faults.iter().map(FaultSpec::encode).collect()),
            ));
        }
        if let Some(c) = &self.churn {
            f.push(("churn", c.encode()));
        }
        if let Some(p) = &self.policy {
            f.push(("policy", p.encode()));
        }
        if let Some(r) = &self.roaming {
            f.push(("roaming", r.encode()));
        }
        if let Some(p) = self.provenance.as_ref().filter(|_| with_provenance) {
            f.push(("provenance", p.encode()));
        }
        obj(f)
    }

    /// The canonical JSON value of the scenario itself — provenance
    /// excluded: a document's identity is the scenario it describes, not
    /// how it was found.
    pub fn encode(&self) -> Json {
        self.to_json(false)
    }

    /// The canonical on-disk form: pretty JSON, the provenance block when
    /// the document carries one, and a trailing newline.
    pub fn text(&self) -> String {
        let mut t = self.to_json(true).pretty();
        t.push('\n');
        t
    }

    /// Content hash: SHA-256 of the compact form of [`ScenarioFile::encode`].
    pub fn hash(&self) -> String {
        sha256_hex(self.encode().compact().as_bytes())
    }

    /// Size in bytes of the on-disk form without provenance — the measure
    /// the shrinker minimises.
    pub fn size_bytes(&self) -> u64 {
        self.encode().pretty().len() as u64 + 1
    }

    /// Validates and builds the network + traffic application.
    pub fn build(&self) -> Result<BuiltScenario, String> {
        if self.stations.is_empty() {
            return Err("scenario needs at least one station".into());
        }
        if self.secs == 0 {
            // Every reported rate divides by the duration.
            return Err("`secs` must be positive".into());
        }
        let scheme = match self.scheme.as_str() {
            "fifo" => SchemeKind::Fifo,
            "fqcodel" => SchemeKind::FqCodelQdisc,
            "fqmac" => SchemeKind::FqMac,
            "airtime" => SchemeKind::AirtimeFair,
            s => return Err(format!("unknown scheme '{s}'")),
        };
        let mut stations = Vec::new();
        for (i, spec) in self.stations.iter().enumerate() {
            let rate = parse_rate(&spec.rate)?;
            if !(0.0..=1.0).contains(&spec.error) {
                return Err(format!(
                    "stations[{i}]: `error` must be a loss probability in [0, 1] (got {})",
                    spec.error
                ));
            }
            let mut cfg = StationCfg::clean(rate);
            cfg.errors = match spec.mcs_cliff {
                Some(best_mcs) => ErrorModel::McsCliff {
                    best_mcs,
                    residual: 0.03,
                },
                None => ErrorModel::Fixed(spec.error),
            };
            if let Some(w) = spec.weight {
                if w == 0 {
                    return Err("station weight must be positive".into());
                }
                cfg.airtime_weight = w;
            }
            stations.push(cfg);
        }
        let n = stations.len();
        let mut schedule = FaultSchedule::none();
        for (i, spec) in self.faults.iter().enumerate() {
            if let Some(sta) = spec.station {
                if sta >= n {
                    return Err(format!(
                        "faults[{i}] references station {sta}, but there are only {n}"
                    ));
                }
            }
            schedule.push(FaultEntry::new(
                secs_f64(spec.from_secs, &format!("faults[{i}]: `from_secs`"))?,
                secs_f64(spec.until_secs, &format!("faults[{i}]: `until_secs`"))?,
                spec.station
                    .map_or(FaultTarget::AllStations, FaultTarget::Station),
                spec.impairment(i)?,
            ));
        }
        schedule
            .validate()
            .map_err(|e| format!("fault schedule: {e}"))?;
        if self.aql_ms == Some(0) {
            // A zero budget would make every station permanently
            // ineligible and silently starve all traffic.
            return Err("aql_ms must be positive (omit it to disable AQL)".into());
        }
        let aql = self.aql_ms.map(|ms| millis(ms, "`aql_ms`")).transpose()?;
        let duration = whole(self.secs, Nanos::from_secs(1), "`secs`")?;
        let mut builder = NetworkConfig::builder()
            .stations(stations)
            .scheme(scheme)
            .seed(self.seed)
            .station_fq(self.station_fq)
            .rate_control(self.rate_control)
            .aql(aql)
            .faults(schedule);
        if let Some(p) = &self.policy {
            let timeline = p.to_timeline()?;
            // Validate here so a bad file reports an error instead of
            // tripping the builder's panic.
            timeline.validate(n).map_err(|e| format!("policy: {e}"))?;
            builder = builder.policy_timeline(timeline);
        }
        let cfg = builder.build();
        let churn = match &self.churn {
            Some(c) => {
                if c.min_stations >= c.max_stations {
                    return Err("churn: min_stations must be below max_stations".into());
                }
                if c.mean_interval_ms == 0 {
                    return Err("churn: mean_interval_ms must be positive".into());
                }
                // Like ext_scale's churn shards: a dedicated RNG stream,
                // so churn never perturbs the network's own draws.
                Some(ChurnDriver::new(
                    ChurnCfg {
                        mean_interval: millis(c.mean_interval_ms, "churn: `mean_interval_ms`")?,
                        min_stations: c.min_stations,
                        max_stations: c.max_stations,
                        ..ChurnCfg::default()
                    },
                    cfg.seed ^ 0x00C0_FFEE,
                ))
            }
            None => None,
        };
        let roam = match &self.roaming {
            Some(r) => {
                if r.mean_dwell_ms == 0 {
                    return Err("roaming: mean_dwell_ms must be positive".into());
                }
                if r.reassoc_min_ms > r.reassoc_max_ms {
                    return Err("roaming: reassoc_min_ms must not exceed reassoc_max_ms".into());
                }
                let rate_palette = match &r.rate_palette {
                    Some(list) if list.is_empty() => {
                        return Err("roaming: rate_palette must not be empty".into())
                    }
                    Some(list) => list
                        .iter()
                        .map(|s| parse_rate(s))
                        .collect::<Result<Vec<_>, _>>()
                        .map_err(|e| format!("roaming: {e}"))?,
                    None => RoamCfg::default().rate_palette,
                };
                // The driver salts its own RNG stream (ROAM_SEED_SALT),
                // so the master seed is passed through unmixed.
                Some(SoloRoam::new(
                    RoamCfg {
                        mean_dwell: millis(r.mean_dwell_ms, "roaming: `mean_dwell_ms`")?,
                        reassoc_min: millis(r.reassoc_min_ms, "roaming: `reassoc_min_ms`")?,
                        reassoc_max: millis(r.reassoc_max_ms, "roaming: `reassoc_max_ms`")?,
                        rate_palette,
                    },
                    cfg.seed,
                    n,
                ))
            }
            None => None,
        };

        let mut app = TrafficApp::with_seed(cfg.seed);
        let mut traffic = Vec::new();
        for (i, t) in self.traffic.iter().enumerate() {
            let sta = t.station();
            if sta >= n {
                return Err(format!(
                    "traffic references station {sta}, but there are only {n}"
                ));
            }
            let installed = match t {
                TrafficSpec::TcpDown { station } => {
                    InstalledTraffic::Tcp(app.add_tcp_down(*station, Nanos::ZERO))
                }
                TrafficSpec::TcpUp { station } => {
                    InstalledTraffic::Tcp(app.add_tcp_up(*station, Nanos::ZERO))
                }
                TrafficSpec::UdpDown {
                    station,
                    mbps,
                    poisson,
                } => {
                    // A flood's packet interval is a division by its rate.
                    let bps = mbps.checked_mul(1_000_000).filter(|&bps| bps > 0);
                    let bps = bps.ok_or_else(|| {
                        let max = u64::MAX / 1_000_000;
                        format!("traffic[{i}]: `mbps` must be in 1..={max} (got {mbps})")
                    })?;
                    let h = if *poisson {
                        app.add_udp_down_poisson(*station, bps, Nanos::ZERO)
                    } else {
                        app.add_udp_down(*station, bps, Nanos::ZERO)
                    };
                    InstalledTraffic::Udp(h)
                }
                TrafficSpec::Ping { station } => {
                    InstalledTraffic::Ping(app.add_ping(*station, Nanos::ZERO))
                }
                TrafficSpec::Voip { station, qos } => InstalledTraffic::Voip(app.add_voip(
                    *station,
                    parse_qos(Some(qos))?,
                    Nanos::ZERO,
                )),
                TrafficSpec::Web { station, page } => {
                    let page = match page.as_str() {
                        "small" => WebPage::small(),
                        "large" => WebPage::large(),
                        other => return Err(format!("unknown page '{other}'")),
                    };
                    InstalledTraffic::Web(app.add_web(*station, page, Nanos::ZERO))
                }
            };
            traffic.push(installed);
        }

        let mut net = WifiNetwork::new(cfg);
        app.install(&mut net);
        Ok(BuiltScenario {
            net,
            app,
            traffic,
            duration,
            churn,
            roam,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{
        "scheme": "airtime",
        "secs": 2,
        "stations": [
            { "rate": "mcs15" },
            { "rate": "mcs0", "weight": 512 },
            { "rate": "1mbps", "error": 0.1 }
        ],
        "traffic": [
            { "kind": "tcp_down", "station": 0 },
            { "kind": "udp_down", "station": 1, "mbps": 5, "poisson": true },
            { "kind": "ping", "station": 2 },
            { "kind": "voip", "station": 1, "qos": "vo" },
            { "kind": "web", "station": 0, "page": "small" }
        ]
    }"#;

    #[test]
    fn good_scenario_parses_builds_and_runs() {
        let sc = ScenarioFile::from_json(GOOD).unwrap();
        let mut built = sc.build().unwrap();
        assert_eq!(built.traffic.len(), 5);
        let duration = built.duration;
        built.net.run(duration, &mut built.app);
        // Every component produced something.
        for t in &built.traffic {
            match t {
                InstalledTraffic::Tcp(h) => assert!(built.app.tcp(*h).delivered_bytes() > 0),
                InstalledTraffic::Udp(h) => assert!(built.app.udp(*h).delivered > 0),
                InstalledTraffic::Ping(h) => assert!(!built.app.ping(*h).rtts.is_empty()),
                InstalledTraffic::Voip(h) => assert!(!built.app.voip(*h).delays.is_empty()),
                InstalledTraffic::Web(h) => assert!(built.app.web(*h).plt.is_some()),
            }
        }
    }

    #[test]
    fn bad_station_reference_rejected() {
        let sc = ScenarioFile::from_json(
            r#"{ "stations": [{ "rate": "mcs15" }],
                 "traffic": [{ "kind": "ping", "station": 3 }] }"#,
        )
        .unwrap();
        let err = match sc.build() {
            Err(e) => e,
            Ok(_) => panic!("bad reference accepted"),
        };
        assert!(err.contains("station 3"), "{err}");
    }

    #[test]
    fn unknown_fields_rejected() {
        let err = ScenarioFile::from_json(
            r#"{ "stations": [{ "rate": "mcs15", "typo_field": 1 }], "traffic": [] }"#,
        )
        .unwrap_err();
        assert!(err.contains("typo_field"), "{err}");
    }

    #[test]
    fn bad_rate_and_qos_rejected() {
        assert!(parse_rate("warp9").is_err());
        assert!(parse_rate("mcs16").is_err());
        assert!(parse_rate("vht10").is_err());
        assert!(parse_qos(Some("turbo")).is_err());
        assert_eq!(parse_qos(None).unwrap(), AccessCategory::Be);
    }

    #[test]
    fn defaults_apply() {
        let sc = ScenarioFile::from_json(r#"{ "stations": [{ "rate": "mcs7" }], "traffic": [] }"#)
            .unwrap();
        let built = sc.build().unwrap();
        assert_eq!(built.duration, Nanos::from_secs(20));
        assert_eq!(built.net.scheme(), SchemeKind::AirtimeFair);
    }

    #[test]
    fn zero_aql_rejected() {
        let sc = ScenarioFile::from_json(
            r#"{ "aql_ms": 0, "stations": [{ "rate": "mcs7" }], "traffic": [] }"#,
        )
        .unwrap();
        let err = match sc.build() {
            Err(e) => e,
            Ok(_) => panic!("zero AQL accepted"),
        };
        assert!(err.contains("aql_ms"), "{err}");
    }

    const V2: &str = r#"{
        "version": 2,
        "scheme": "airtime",
        "secs": 2,
        "stations": [
            { "rate": "mcs15" },
            { "rate": "mcs15" },
            { "rate": "mcs0" }
        ],
        "traffic": [
            { "kind": "tcp_down", "station": 0 },
            { "kind": "tcp_down", "station": 2 },
            { "kind": "ping", "station": 0 }
        ],
        "faults": [
            { "kind": "burst_loss", "from_secs": 0.5, "until_secs": 1.5,
              "station": 2, "bad_frac": 0.3, "burst_len": 10, "loss_bad": 0.9 },
            { "kind": "rate_collapse", "from_secs": 1.0, "until_secs": 1.5,
              "station": 2, "rate": "mcs0" },
            { "kind": "ack_loss", "from_secs": 0.0, "until_secs": 2.0, "prob": 0.05 }
        ],
        "churn": { "mean_interval_ms": 200, "min_stations": 2, "max_stations": 3 }
    }"#;

    #[test]
    fn v2_scenario_with_faults_and_churn_runs() {
        let sc = ScenarioFile::from_json(V2).unwrap();
        assert_eq!(sc.faults.len(), 3);
        let mut built = sc.build().unwrap();
        assert!(!built.net.config().faults.is_empty());
        assert!(built.churn.is_some());
        let duration = built.duration;
        built.run_to(duration);
        let churn = built.churn.as_ref().unwrap();
        assert!(churn.joins + churn.leaves > 0, "churn never fired");
    }

    #[test]
    fn v2_fields_rejected_in_v1() {
        let err = ScenarioFile::from_json(
            r#"{ "stations": [{ "rate": "mcs15" }], "traffic": [],
                 "faults": [] }"#,
        )
        .unwrap_err();
        assert!(err.contains("version"), "{err}");
        let err = ScenarioFile::from_json(
            r#"{ "stations": [{ "rate": "mcs15" }], "traffic": [],
                 "churn": { "min_stations": 1, "max_stations": 2 } }"#,
        )
        .unwrap_err();
        assert!(err.contains("version"), "{err}");
        let err = ScenarioFile::from_json(
            r#"{ "version": 9, "stations": [{ "rate": "mcs15" }], "traffic": [] }"#,
        )
        .unwrap_err();
        assert!(err.contains("unsupported"), "{err}");
    }

    const V3: &str = r#"{
        "version": 3,
        "scheme": "airtime",
        "secs": 2,
        "stations": [
            { "rate": "mcs15" },
            { "rate": "mcs15" },
            { "rate": "mcs7" }
        ],
        "traffic": [
            { "kind": "udp_down", "station": 0, "mbps": 20 },
            { "kind": "udp_down", "station": 1, "mbps": 20 },
            { "kind": "udp_down", "station": 2, "mbps": 20 }
        ],
        "policy": {
            "nodes": [
                { "name": "gold", "weight": 2, "stations": [0, 1] },
                { "name": "bronze", "weight": 1, "stations": [2] }
            ],
            "switches": [
                { "at_secs": 1,
                  "nodes": [
                      { "name": "gold", "weight": 1, "stations": [0, 1] },
                      { "name": "bronze", "weight": 1, "stations": [2] }
                  ] }
            ]
        }
    }"#;

    #[test]
    fn v3_scenario_with_policy_switch_runs() {
        let sc = ScenarioFile::from_json(V3).unwrap();
        let p = sc.policy.as_ref().expect("policy block");
        assert_eq!(p.nodes.len(), 2);
        assert_eq!(p.switches.len(), 1);
        let mut built = sc.build().unwrap();
        assert!(!built.net.config().policy.is_none());
        let duration = built.duration;
        built.run_to(duration);
        assert_eq!(built.net.policy_switches_applied(), 1);
        // After the switch the tenants split 1:1 — gold's half is shared
        // by two stations (3/4 of neutral each), bronze's by one (3/2).
        use wifiq_phy::AccessCategory;
        for (sta, expect) in [(0, 192), (1, 192), (2, 384)] {
            let id = built.net.sta_id(sta).expect("slot occupied");
            assert_eq!(
                built.net.station_ac_weight(id, AccessCategory::Be),
                Some(expect),
                "station {sta} weight after equalising switch"
            );
        }
    }

    #[test]
    fn provenance_parses_and_is_inert() {
        let sc = ScenarioFile::from_json(
            r#"{ "version": 3, "stations": [{ "rate": "mcs15" }],
                 "traffic": [{ "kind": "ping", "station": 0 }],
                 "provenance": { "searcher_seed": 99, "objective": "jain_dip",
                                 "score": 1.25, "shrink_steps": 7,
                                 "first_failing_bytes": 1400, "minimal_bytes": 300 } }"#,
        )
        .unwrap();
        let p = sc.provenance.as_ref().expect("provenance block");
        assert_eq!(p.searcher_seed, 99);
        assert_eq!(p.objective, "jain_dip");
        assert_eq!(p.shrink_steps, 7);
        // Build ignores provenance entirely.
        sc.build().unwrap();
    }

    #[test]
    fn bad_provenance_rejected() {
        // Unknown objective name.
        let err = ScenarioFile::from_json(
            r#"{ "version": 3, "stations": [{ "rate": "mcs15" }], "traffic": [],
                 "provenance": { "searcher_seed": 1, "objective": "gremlins",
                                 "shrink_steps": 0 } }"#,
        )
        .unwrap_err();
        assert!(err.contains("gremlins"), "{err}");
        // Missing searcher_seed.
        let err = ScenarioFile::from_json(
            r#"{ "version": 3, "stations": [{ "rate": "mcs15" }], "traffic": [],
                 "provenance": { "objective": "jain_dip", "shrink_steps": 0 } }"#,
        )
        .unwrap_err();
        assert!(err.contains("searcher_seed"), "{err}");
        // Version gate: provenance is a v3 field.
        let err = ScenarioFile::from_json(
            r#"{ "version": 2, "stations": [{ "rate": "mcs15" }], "traffic": [],
                 "provenance": { "searcher_seed": 1, "objective": "jain_dip",
                                 "shrink_steps": 0 } }"#,
        )
        .unwrap_err();
        assert!(err.contains("version"), "{err}");
    }

    #[test]
    fn v3_fields_rejected_in_v2() {
        let err = ScenarioFile::from_json(
            r#"{ "version": 2, "stations": [{ "rate": "mcs15" }], "traffic": [],
                 "policy": { "nodes": [{ "name": "all", "stations": [0] }] } }"#,
        )
        .unwrap_err();
        assert!(err.contains("version"), "{err}");
    }

    #[test]
    fn bad_policy_rejected() {
        // A node with both children and stations.
        let sc = ScenarioFile::from_json(
            r#"{ "version": 3, "stations": [{ "rate": "mcs15" }], "traffic": [],
                 "policy": { "nodes": [
                   { "name": "x", "stations": [0],
                     "nodes": [{ "name": "y", "stations": [0] }] } ] } }"#,
        )
        .unwrap();
        assert!(build_err(&sc).contains("exactly one"));
        // Station out of range.
        let sc = ScenarioFile::from_json(
            r#"{ "version": 3, "stations": [{ "rate": "mcs15" }], "traffic": [],
                 "policy": { "nodes": [{ "name": "x", "stations": [5] }] } }"#,
        )
        .unwrap();
        assert!(build_err(&sc).contains("out of range"));
        // Switches out of order.
        let sc = ScenarioFile::from_json(
            r#"{ "version": 3, "stations": [{ "rate": "mcs15" }], "traffic": [],
                 "policy": { "nodes": [{ "name": "x", "stations": [0] }],
                   "switches": [
                     { "at_secs": 5, "nodes": [{ "name": "x", "stations": [0] }] },
                     { "at_secs": 2, "nodes": [{ "name": "x", "stations": [0] }] } ] } }"#,
        )
        .unwrap();
        assert!(build_err(&sc).contains("ascending"));
        // Unknown class name.
        let sc = ScenarioFile::from_json(
            r#"{ "version": 3, "stations": [{ "rate": "mcs15" }], "traffic": [],
                 "policy": { "nodes": [
                   { "name": "x", "stations": [0], "classes": ["turbo"] } ] } }"#,
        )
        .unwrap();
        assert!(build_err(&sc).contains("turbo"));
        // Unknown field inside a node.
        let err = ScenarioFile::from_json(
            r#"{ "version": 3, "stations": [{ "rate": "mcs15" }], "traffic": [],
                 "policy": { "nodes": [{ "name": "x", "stations": [0], "wight": 2 }] } }"#,
        )
        .unwrap_err();
        assert!(err.contains("wight"), "{err}");
    }

    fn build_err(sc: &ScenarioFile) -> String {
        match sc.build() {
            Err(e) => e,
            Ok(_) => panic!("invalid scenario accepted"),
        }
    }

    #[test]
    fn bad_faults_rejected() {
        let base = |fault: &str| {
            format!(
                r#"{{ "version": 2, "stations": [{{ "rate": "mcs15" }}],
                     "traffic": [], "faults": [{fault}] }}"#
            )
        };
        // Unknown kind.
        let err = ScenarioFile::from_json(&base(
            r#"{ "kind": "gremlins", "from_secs": 0, "until_secs": 1 }"#,
        ))
        .unwrap_err();
        assert!(err.contains("gremlins"), "{err}");
        // Probability out of range (caught by schedule validation).
        let sc = ScenarioFile::from_json(&base(
            r#"{ "kind": "ack_loss", "from_secs": 0, "until_secs": 1, "prob": 1.5 }"#,
        ))
        .unwrap();
        assert!(build_err(&sc).contains("probability"));
        // Station out of range.
        let sc = ScenarioFile::from_json(&base(
            r#"{ "kind": "stall", "from_secs": 0, "until_secs": 1, "station": 9 }"#,
        ))
        .unwrap();
        assert!(build_err(&sc).contains("station 9"));
        // Window ends before it starts.
        let sc = ScenarioFile::from_json(&base(
            r#"{ "kind": "stall", "from_secs": 2, "until_secs": 1 }"#,
        ))
        .unwrap();
        assert!(build_err(&sc).contains("window"));
        // Extraneous parameter for the kind.
        let err = ScenarioFile::from_json(&base(
            r#"{ "kind": "stall", "from_secs": 0, "until_secs": 1, "prob": 0.5 }"#,
        ))
        .unwrap_err();
        assert!(err.contains("prob"), "{err}");
    }

    #[test]
    fn bad_churn_rejected() {
        let sc = ScenarioFile::from_json(
            r#"{ "version": 2, "stations": [{ "rate": "mcs15" }], "traffic": [],
                 "churn": { "min_stations": 2, "max_stations": 2 } }"#,
        )
        .unwrap();
        assert!(build_err(&sc).contains("min_stations"));
    }

    const V4: &str = r#"{
        "version": 4,
        "scheme": "airtime",
        "secs": 3,
        "stations": [
            { "rate": "mcs15" },
            { "rate": "mcs15" },
            { "rate": "mcs7" }
        ],
        "traffic": [
            { "kind": "udp_down", "station": 0, "mbps": 10 },
            { "kind": "udp_down", "station": 1, "mbps": 10 },
            { "kind": "ping", "station": 2 }
        ],
        "roaming": { "mean_dwell_ms": 100, "reassoc_min_ms": 10,
                     "reassoc_max_ms": 40, "rate_palette": ["mcs15", "mcs3"] }
    }"#;

    #[test]
    fn v4_scenario_with_roaming_runs() {
        let sc = ScenarioFile::from_json(V4).unwrap();
        let r = sc.roaming.as_ref().expect("roaming block");
        assert_eq!(r.mean_dwell_ms, 100);
        assert_eq!(r.rate_palette.as_ref().unwrap().len(), 2);
        let mut built = sc.build().unwrap();
        assert!(built.roam.is_some());
        let duration = built.duration;
        built.run_to(duration);
        let roam = built.roam.as_ref().unwrap();
        assert!(roam.stats.handoffs > 5, "roam schedule never fired");
        assert_eq!(built.net.roam_drops(), roam.stats.roam_drops);
        // Everyone not mid-transit is back on the air.
        assert_eq!(built.net.active_stations() + roam.in_transit(), 3);
    }

    #[test]
    fn v4_roaming_interleaves_with_churn() {
        let sc = ScenarioFile::from_json(
            r#"{ "version": 4, "secs": 3,
                 "stations": [{ "rate": "mcs15" }, { "rate": "mcs15" }, { "rate": "mcs7" }],
                 "traffic": [{ "kind": "udp_down", "station": 0, "mbps": 10 }],
                 "churn": { "mean_interval_ms": 150, "min_stations": 1, "max_stations": 3 },
                 "roaming": { "mean_dwell_ms": 120 } }"#,
        )
        .unwrap();
        let mut built = sc.build().unwrap();
        let duration = built.duration;
        built.run_to(duration);
        let churn = built.churn.as_ref().unwrap();
        let roam = built.roam.as_ref().unwrap();
        assert!(churn.joins + churn.leaves > 0, "churn never fired");
        assert!(
            roam.stats.handoffs + roam.stats.skipped > 0,
            "roam never fired"
        );
    }

    #[test]
    fn roaming_rejected_below_v4() {
        let err = ScenarioFile::from_json(
            r#"{ "version": 3, "stations": [{ "rate": "mcs15" }], "traffic": [],
                 "roaming": { "mean_dwell_ms": 100 } }"#,
        )
        .unwrap_err();
        assert!(err.contains("version"), "{err}");
    }

    #[test]
    fn bad_roaming_rejected() {
        let base = |roaming: &str| {
            format!(
                r#"{{ "version": 4, "stations": [{{ "rate": "mcs15" }}],
                     "traffic": [], "roaming": {roaming} }}"#
            )
        };
        let sc = ScenarioFile::from_json(&base(r#"{ "mean_dwell_ms": 0 }"#)).unwrap();
        assert!(build_err(&sc).contains("mean_dwell_ms"));
        let sc =
            ScenarioFile::from_json(&base(r#"{ "reassoc_min_ms": 50, "reassoc_max_ms": 10 }"#))
                .unwrap();
        assert!(build_err(&sc).contains("reassoc_min_ms"));
        let sc = ScenarioFile::from_json(&base(r#"{ "rate_palette": [] }"#)).unwrap();
        assert!(build_err(&sc).contains("rate_palette"));
        let sc = ScenarioFile::from_json(&base(r#"{ "rate_palette": ["warp9"] }"#)).unwrap();
        assert!(build_err(&sc).contains("warp9"));
        let err = ScenarioFile::from_json(&base(r#"{ "dwell": 5 }"#)).unwrap_err();
        assert!(err.contains("dwell"), "{err}");
    }

    /// `(path, text)` of every `.json` directly under `scenarios/<sub>`.
    fn shipped(sub: &str) -> Vec<(std::path::PathBuf, String)> {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../scenarios")
            .join(sub);
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&dir).expect("scenarios dir") {
            let path = entry.unwrap().path();
            if path.extension().and_then(|e| e.to_str()) == Some("json") {
                let text = std::fs::read_to_string(&path).unwrap();
                out.push((path, text));
            }
        }
        out
    }

    #[test]
    fn shipped_scenario_files_validate() {
        let library = shipped("");
        assert!(
            library.len() >= 5,
            "expected the shipped scenario files, found {}",
            library.len()
        );
        let found = shipped("found");
        assert!(!found.is_empty(), "expected committed counterexamples");
        // Parses, builds, and re-encodes to an equal document.
        let load = |(path, text): &(std::path::PathBuf, String)| {
            let sc =
                ScenarioFile::from_json(text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            if let Err(e) = sc.build() {
                panic!("{}: {e}", path.display());
            }
            assert_eq!(
                ScenarioFile::from_json(&sc.text()).as_ref(),
                Ok(&sc),
                "{}: lossy round trip",
                path.display()
            );
            sc
        };
        for f in &library {
            load(f);
        }
        for f in &found {
            assert!(
                load(f).provenance.is_some(),
                "{}: counterexamples must carry a provenance block",
                f.0.display()
            );
        }
    }

    /// The pin on "the encoder writes exactly the bytes it always wrote":
    /// every committed counterexample is named by its content hash and is
    /// a fixed point of decode → encode.
    #[test]
    fn found_files_are_canonical_and_content_addressed() {
        for (path, text) in shipped("found") {
            let sc = ScenarioFile::from_json(&text).unwrap();
            let stem = path.file_stem().unwrap().to_str().unwrap();
            let (_, suffix) = stem.rsplit_once('_').expect("<objective>_<hash12>.json");
            assert_eq!(suffix, &sc.hash()[..12], "{}", path.display());
            assert_eq!(sc.text(), text, "{}", path.display());
        }
    }

    fn tiny() -> ScenarioFile {
        ScenarioFile::from_json(
            r#"{ "version": 2, "secs": 3,
                 "stations": [{ "rate": "mcs15" }, { "rate": "mcs7" }],
                 "traffic": [{ "kind": "tcp_down", "station": 0 },
                             { "kind": "tcp_down", "station": 1 }],
                 "faults": [{ "kind": "burst_loss", "from_secs": 0.5, "until_secs": 2.5,
                              "station": 1, "bad_frac": 0.3, "burst_len": 12,
                              "loss_bad": 0.9 }] }"#,
        )
        .unwrap()
    }

    #[test]
    fn encoding_is_canonical() {
        // Fixed order, always-written fields at their defaults, optional
        // ones omitted, integral floats as `N.0`, version stamp 3.
        assert_eq!(
            tiny().encode().compact(),
            concat!(
                r#"{"version":3,"scheme":"airtime","secs":3,"seed":1,"#,
                r#""stations":[{"rate":"mcs15"},{"rate":"mcs7"}],"#,
                r#""traffic":[{"kind":"tcp_down","station":0},{"kind":"tcp_down","station":1}],"#,
                r#""faults":[{"kind":"burst_loss","from_secs":0.5,"until_secs":2.5,"#,
                r#""station":1,"bad_frac":0.3,"burst_len":12.0,"loss_bad":0.9}]}"#
            )
        );
        assert_eq!(tiny().size_bytes(), tiny().text().len() as u64);
    }

    #[test]
    fn every_field_round_trips() {
        let sc = ScenarioFile::from_json(&fixture("ok_web_mcs_cliff_roundtrip.json")).unwrap();
        assert_eq!(sc.stations[0].mcs_cliff, Some(11));
        assert!(matches!(&sc.traffic[0], TrafficSpec::Web { page, .. } if page == "large"));
        let back = ScenarioFile::from_json(&sc.text()).unwrap();
        assert_eq!(back, sc);
        assert_eq!(back.hash(), sc.hash());
        assert_eq!(back.text(), sc.text());
    }

    #[test]
    fn hash_ignores_provenance() {
        let plain = tiny();
        let stamped = ScenarioFile {
            provenance: Some(ProvenanceSpec {
                searcher_seed: 7,
                objective: "jain_dip".into(),
                score: 2.0,
                shrink_steps: 3,
                first_failing_bytes: Some(1000),
                minimal_bytes: Some(250),
            }),
            ..plain.clone()
        };
        assert!(stamped.text().contains("provenance"));
        assert_eq!(stamped.hash(), plain.hash());
        assert_eq!(stamped.size_bytes(), plain.size_bytes());
        // The stamped text still loads, provenance intact.
        assert_eq!(ScenarioFile::from_json(&stamped.text()), Ok(stamped));
    }

    #[test]
    fn roaming_bumps_the_version_stamp() {
        let plain = tiny();
        let roaming = ScenarioFile {
            roaming: Some(RoamingSpec {
                mean_dwell_ms: 300,
                reassoc_min_ms: 10,
                reassoc_max_ms: 60,
                rate_palette: Some(vec!["mcs15".into(), "mcs3".into()]),
            }),
            ..plain.clone()
        };
        let compact = roaming.encode().compact();
        assert!(compact.contains("\"version\":4"), "{compact}");
        assert_ne!(roaming.hash(), plain.hash());
        assert_eq!(ScenarioFile::from_json(&roaming.text()), Ok(roaming));
    }

    fn fixture(name: &str) -> String {
        let dir = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/fixtures/scenario_schema"
        );
        std::fs::read_to_string(format!("{dir}/{name}")).unwrap()
    }

    /// The fixture test only checks that these are rejected; the CLI's
    /// promise is an error that names the field.
    #[test]
    fn hostile_numbers_are_named_errors() {
        for (name, field) in [
            ("bad_fault_negative_window.json", "from_secs"),
            ("bad_secs_overflow.json", "secs"),
            ("bad_weight_overflow.json", "weight"),
            ("bad_mcs_cliff_overflow.json", "mcs_cliff"),
            ("bad_udp_zero_rate.json", "mbps"),
            ("bad_zero_secs.json", "secs"),
            ("bad_station_error_range.json", "error"),
        ] {
            let e = match ScenarioFile::from_json(&fixture(name)).and_then(|sc| sc.build()) {
                Err(e) => e,
                Ok(_) => panic!("{name} accepted"),
            };
            assert!(
                e.contains(field),
                "{name}: error should name `{field}`: {e}"
            );
        }
    }

    #[test]
    fn zero_weight_rejected() {
        let sc = ScenarioFile::from_json(
            r#"{ "stations": [{ "rate": "mcs7", "weight": 0 }], "traffic": [] }"#,
        )
        .unwrap();
        assert!(sc.build().is_err());
    }
}
