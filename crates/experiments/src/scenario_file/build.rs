//! [`ScenarioFile`] → a network ready to run: range checks, the
//! file-form → simulation-form derivations (rate specs, Gilbert–Elliott
//! parameters, durations), and the runner that interleaves churn and
//! roaming with the simulation. Each spec validates and constructs what
//! its own fields describe; [`ScenarioFile::build`] assembles them.

use wifiq_mac::{
    ErrorModel, FaultEntry, FaultSchedule, FaultTarget, Impairment, NetworkConfig, PolicyNode,
    PolicySet, PolicyTimeline, SchemeKind, StationCfg, WifiNetwork,
};
use wifiq_phy::{AccessCategory, ChannelWidth, LegacyRate, PhyRate, VhtWidth};
use wifiq_roam::{RoamCfg, SoloRoam};
use wifiq_scale::{ChurnCfg, ChurnDriver};
use wifiq_sim::Nanos;
use wifiq_traffic::{AppMsg, FlowHandle, TrafficApp, WebPage};

use super::{
    ChurnSpec, FaultKind, FaultSpec, PolicyNodeSpec, PolicySpec, RoamingSpec, ScenarioFile,
    StationSpec, TrafficSpec,
};

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

pub(super) fn parse_qos(s: Option<&str>) -> Result<AccessCategory, String> {
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

/// An error naming `what` unless a roster of `n` has slot `sta`.
fn in_roster(what: &str, sta: usize, n: usize) -> Result<(), String> {
    if sta < n {
        Ok(())
    } else {
        Err(format!(
            "{what} references station {sta}, but there are only {n}"
        ))
    }
}

impl StationSpec {
    fn cfg(&self, i: usize) -> Result<StationCfg, String> {
        let rate = parse_rate(&self.rate)?;
        if !(0.0..=1.0).contains(&self.error) {
            return Err(format!(
                "stations[{i}]: `error` must be a loss probability in [0, 1] (got {})",
                self.error
            ));
        }
        let mut cfg = StationCfg::clean(rate);
        cfg.errors = match self.mcs_cliff {
            Some(best_mcs) => ErrorModel::McsCliff {
                best_mcs,
                residual: 0.03,
            },
            None => ErrorModel::Fixed(self.error),
        };
        if let Some(w) = self.weight {
            if w == 0 {
                return Err("station weight must be positive".into());
            }
            cfg.airtime_weight = w;
        }
        Ok(cfg)
    }
}

impl FaultSpec {
    /// The schedule entry for `faults[i]` against a roster of `n`.
    fn entry(&self, i: usize, n: usize) -> Result<FaultEntry, String> {
        if let Some(sta) = self.station {
            in_roster(&format!("faults[{i}]"), sta, n)?;
        }
        Ok(FaultEntry::new(
            secs_f64(self.from_secs, &format!("faults[{i}]: `from_secs`"))?,
            secs_f64(self.until_secs, &format!("faults[{i}]: `until_secs`"))?,
            self.station
                .map_or(FaultTarget::AllStations, FaultTarget::Station),
            self.impairment(i)?,
        ))
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
    /// Converts the spec to a policy-tree node. Structural errors (a node
    /// with both children and stations, bad class names, …) surface here
    /// or in timeline validation, never as a panic.
    fn to_node(&self) -> Result<PolicyNode, String> {
        let mut node = match (&self.nodes, &self.stations) {
            (Some(children), None) => {
                PolicyNode::group(&self.name, self.weight, PolicyNodeSpec::to_set(children)?)
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
            let parsed: Result<Vec<_>, _> = classes.iter().map(|c| parse_qos(Some(c))).collect();
            node = node.classes(parsed?);
        }
        Ok(node)
    }

    fn to_set(nodes: &[PolicyNodeSpec]) -> Result<Vec<PolicyNode>, String> {
        nodes.iter().map(PolicyNodeSpec::to_node).collect()
    }
}

impl PolicySpec {
    /// The policy timeline — the initial tree plus every switch —
    /// validated against a roster of `n`, so a bad file reports an error
    /// instead of tripping the network builder's panic.
    fn timeline(&self, n: usize) -> Result<PolicyTimeline, String> {
        let roots = PolicyNodeSpec::to_set(&self.nodes)?;
        let mut timeline = PolicyTimeline::fixed(PolicySet::new(roots));
        for (i, sw) in self.switches.iter().enumerate() {
            let roots = PolicyNodeSpec::to_set(&sw.nodes)?;
            let at = secs_f64(sw.at_secs, &format!("policy.switches[{i}]: `at_secs`"))?;
            timeline = timeline.with_switch(at, PolicySet::new(roots));
        }
        timeline.validate(n).map_err(|e| format!("policy: {e}"))?;
        Ok(timeline)
    }
}

impl ChurnSpec {
    /// The churn driver for a network seeded `seed`. Like `ext_scale`'s
    /// churn shards it draws from a dedicated RNG stream, so churn never
    /// perturbs the network's own draws.
    fn driver(&self, seed: u64) -> Result<ChurnDriver, String> {
        if self.min_stations >= self.max_stations {
            return Err("churn: min_stations must be below max_stations".into());
        }
        if self.mean_interval_ms == 0 {
            return Err("churn: mean_interval_ms must be positive".into());
        }
        let cfg = ChurnCfg {
            mean_interval: millis(self.mean_interval_ms, "churn: `mean_interval_ms`")?,
            min_stations: self.min_stations,
            max_stations: self.max_stations,
            ..ChurnCfg::default()
        };
        Ok(ChurnDriver::new(cfg, seed ^ 0x00C0_FFEE))
    }
}

impl RoamingSpec {
    /// The roam replayer over a roster of `n`. The driver salts its own
    /// RNG stream (`ROAM_SEED_SALT`), so the master seed passes through
    /// unmixed.
    fn driver(&self, seed: u64, n: usize) -> Result<SoloRoam<AppMsg>, String> {
        if self.mean_dwell_ms == 0 {
            return Err("roaming: mean_dwell_ms must be positive".into());
        }
        if self.reassoc_min_ms > self.reassoc_max_ms {
            return Err("roaming: reassoc_min_ms must not exceed reassoc_max_ms".into());
        }
        let rate_palette = match &self.rate_palette {
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
        let cfg = RoamCfg {
            mean_dwell: millis(self.mean_dwell_ms, "roaming: `mean_dwell_ms`")?,
            reassoc_min: millis(self.reassoc_min_ms, "roaming: `reassoc_min_ms`")?,
            reassoc_max: millis(self.reassoc_max_ms, "roaming: `reassoc_max_ms`")?,
            rate_palette,
        };
        Ok(SoloRoam::new(cfg, seed, n))
    }
}

impl TrafficSpec {
    /// Adds `traffic[i]` to `app`.
    fn install(&self, i: usize, app: &mut TrafficApp) -> Result<InstalledTraffic, String> {
        Ok(match self {
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
            TrafficSpec::Voip { station, qos } => {
                InstalledTraffic::Voip(app.add_voip(*station, parse_qos(Some(qos))?, Nanos::ZERO))
            }
            TrafficSpec::Web { station, page } => {
                let page = match page.as_str() {
                    "small" => WebPage::small(),
                    "large" => WebPage::large(),
                    other => return Err(format!("unknown page '{other}'")),
                };
                InstalledTraffic::Web(app.add_web(*station, page, Nanos::ZERO))
            }
        })
    }
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
    /// Roaming replayer, when the scenario declares one.
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
        let stations = self.stations.iter().enumerate();
        let stations: Vec<_> = stations
            .map(|(i, spec)| spec.cfg(i))
            .collect::<Result<_, _>>()?;
        let n = stations.len();
        let mut schedule = FaultSchedule::none();
        for (i, spec) in self.faults.iter().enumerate() {
            schedule.push(spec.entry(i, n)?);
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
            builder = builder.policy_timeline(p.timeline(n)?);
        }
        let cfg = builder.build();
        let churn = self.churn.as_ref().map(|c| c.driver(cfg.seed));
        let roam = self.roaming.as_ref().map(|r| r.driver(cfg.seed, n));
        let (churn, roam) = (churn.transpose()?, roam.transpose()?);

        let mut app = TrafficApp::with_seed(cfg.seed);
        let mut traffic = Vec::new();
        for (i, t) in self.traffic.iter().enumerate() {
            in_roster(&format!("traffic[{i}]"), t.station(), n)?;
            traffic.push(t.install(i, &mut app)?);
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
