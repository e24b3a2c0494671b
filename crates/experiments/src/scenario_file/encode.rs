//! [`ScenarioFile`] → text: the canonical encoding.
//!
//! Fixed field order; `error`, `mcs_cliff`, `weight`, the two booleans,
//! `aql_ms`, an empty `faults` array and absent blocks are omitted; every
//! other field is written even at its default; floats print shortest
//! round-trip (integral ones as `N.0`). The same document always produces
//! the same bytes.

use serde_json::Json;

use super::{
    ChurnSpec, FaultKind, FaultSpec, PolicyNodeSpec, PolicySpec, PolicySwitchSpec, RoamingSpec,
    ScenarioFile, StationSpec, TrafficSpec, SCHEMA_VERSION,
};

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn arr<T>(items: &[T], encode: impl Fn(&T) -> Json) -> Json {
    Json::Arr(items.iter().map(encode).collect())
}

fn strs(items: &[String]) -> Json {
    arr(items, |s| Json::Str(s.clone()))
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
            f.push(("stations", arr(stations, |s| idx(*s))));
        }
        if let Some(nodes) = &self.nodes {
            f.push(("nodes", arr(nodes, PolicyNodeSpec::encode)));
        }
        obj(f)
    }
}

impl PolicySpec {
    fn encode(&self) -> Json {
        let mut f = vec![("nodes", arr(&self.nodes, PolicyNodeSpec::encode))];
        if !self.switches.is_empty() {
            let switch = |sw: &PolicySwitchSpec| {
                obj(vec![
                    ("at_secs", Json::F64(sw.at_secs)),
                    ("nodes", arr(&sw.nodes, PolicyNodeSpec::encode)),
                ])
            };
            f.push(("switches", arr(&self.switches, switch)));
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

impl ScenarioFile {
    /// The canonical JSON value of the scenario.
    pub fn encode(&self) -> Json {
        let mut f = vec![
            ("version", Json::U64(SCHEMA_VERSION)),
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
        f.push(("stations", arr(&self.stations, StationSpec::encode)));
        f.push(("traffic", arr(&self.traffic, TrafficSpec::encode)));
        if !self.faults.is_empty() {
            f.push(("faults", arr(&self.faults, FaultSpec::encode)));
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
        obj(f)
    }

    /// The canonical on-disk form: pretty JSON and a trailing newline.
    pub fn text(&self) -> String {
        let mut t = self.encode().pretty();
        t.push('\n');
        t
    }
}
