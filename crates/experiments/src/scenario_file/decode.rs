//! Text → [`ScenarioFile`]: the hand-written decoder.
//!
//! The vendored serde subset has no `Deserialize` derive, so documents
//! are decoded from the parsed `Json` value. Every object goes through
//! [`Fields::of`], which keeps the derive's semantics: unknown and
//! repeated keys are rejected by name, absent optional fields fall back
//! to their defaults, and a type mismatch names the field and where it
//! sits.

use std::cell::RefCell;

use serde_json::Json;

use super::{
    ChurnSpec, FaultKind, FaultSpec, PolicyNodeSpec, PolicySpec, PolicySwitchSpec, ProvenanceSpec,
    RoamingSpec, ScenarioFile, StationSpec, TrafficSpec, OBJECTIVE_KINDS, SCHEMA_VERSION,
};

/// A value one JSON field can hold. `read` answers with the value or
/// with what is wrong with it, phrased to follow "field `name` ".
trait Field<'a>: Sized {
    fn read(v: &'a Json) -> Result<Self, String>;
}

impl Field<'_> for f64 {
    fn read(v: &Json) -> Result<f64, String> {
        v.as_f64().ok_or_else(|| "must be a number".into())
    }
}

impl Field<'_> for bool {
    fn read(v: &Json) -> Result<bool, String> {
        v.as_bool().ok_or_else(|| "must be a boolean".into())
    }
}

impl Field<'_> for String {
    fn read(v: &Json) -> Result<String, String> {
        let s = v.as_str().ok_or("must be a string")?;
        Ok(s.to_string())
    }
}

impl<'a> Field<'a> for &'a [Json] {
    fn read(v: &'a Json) -> Result<&'a [Json], String> {
        v.as_array().ok_or_else(|| "must be an array".into())
    }
}

/// Non-negative integers, narrowed with a named error instead of a
/// silent `as` wrap.
macro_rules! int_field {
    ($($t:ty)*) => {$(
        impl Field<'_> for $t {
            fn read(v: &Json) -> Result<$t, String> {
                let v = v.as_u64().ok_or("must be a non-negative integer")?;
                <$t>::try_from(v).map_err(|_| format!("is out of range ({v})"))
            }
        }
    )*};
}
int_field!(u8 u32 u64 usize);

impl<'a, T: Field<'a>> Field<'a> for Vec<T> {
    fn read(v: &'a Json) -> Result<Vec<T>, String> {
        let entries = <&[Json]>::read(v)?.iter().enumerate();
        entries
            .map(|(i, x)| T::read(x).map_err(|e| format!("entry {i} {e}")))
            .collect()
    }
}

/// A decoding context: the fields of one JSON object plus a description of
/// where it sits, for error messages.
struct Fields<'a> {
    what: String,
    fields: &'a [(String, Json)],
    /// The names the decoder asked for. The schema is stated once, by
    /// the reads: a key nobody asked for is an unknown field.
    asked: RefCell<Vec<&'static str>>,
}

/// What the top-level object calls itself; its lists' entries are
/// `stations[0]`, not `scenario.stations[0]`.
const ROOT: &str = "scenario";

impl<'a> Fields<'a> {
    /// Decodes the object `value` — `what`, in error messages — with
    /// `body`, then rejects any key `body` did not ask for. A repeated
    /// key is rejected up front, at every level: the parser keeps both
    /// entries, a lookup would silently take the first, and the
    /// re-encoded text — hence the hash — would name a document nobody
    /// wrote.
    fn of<T>(
        value: &'a Json,
        what: impl Into<String>,
        body: impl FnOnce(&Fields<'a>) -> Result<T, String>,
    ) -> Result<T, String> {
        let what = what.into();
        let Some(fields) = value.as_object() else {
            return Err(format!("{what}: expected a JSON object"));
        };
        let mut keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        if let Some(twice) = keys.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("{what}: duplicate field `{}`", twice[0]));
        }
        let asked = RefCell::default();
        let f = Fields {
            what,
            fields,
            asked,
        };
        let out = body(&f)?;
        let asked = f.asked.into_inner();
        match fields.iter().find(|(k, _)| !asked.contains(&k.as_str())) {
            Some((k, _)) => Err(format!("{}: unknown field `{k}`", f.what)),
            None => Ok(out),
        }
    }

    fn raw(&self, name: &'static str) -> Option<&'a Json> {
        self.asked.borrow_mut().push(name);
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// The field `name` if present.
    fn opt<T: Field<'a>>(&self, name: &'static str) -> Result<Option<T>, String> {
        self.raw(name)
            .map(|v| T::read(v).map_err(|e| format!("{}: field `{name}` {e}", self.what)))
            .transpose()
    }

    fn req<T: Field<'a>>(&self, name: &'static str) -> Result<T, String> {
        self.opt(name)?.ok_or_else(|| self.missing(name))
    }

    fn missing(&self, name: &str) -> String {
        format!("{}: missing field `{name}`", self.what)
    }

    /// The array field `name` if present, each entry decoded under its
    /// own description (`faults[2]`, `policy.nodes[0].nodes[1]`).
    fn list<T>(
        &self,
        name: &'static str,
        decode: impl Fn(&'a Json, String) -> Result<T, String>,
    ) -> Result<Option<Vec<T>>, String> {
        let Some(entries) = self.opt::<&[Json]>(name)? else {
            return Ok(None);
        };
        let (outer, dot) = if self.what == ROOT {
            ("", "")
        } else {
            (self.what.as_str(), ".")
        };
        let entries = entries.iter().enumerate();
        entries
            .map(|(i, v)| decode(v, format!("{outer}{dot}{name}[{i}]")))
            .collect::<Result<_, _>>()
            .map(Some)
    }

    fn req_list<T>(
        &self,
        name: &'static str,
        decode: impl Fn(&'a Json, String) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.list(name, decode)?.ok_or_else(|| self.missing(name))
    }

    /// The object field `name` if present.
    fn block<T>(
        &self,
        name: &'static str,
        decode: impl Fn(&'a Json, String) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        self.raw(name).map(|v| decode(v, name.into())).transpose()
    }
}

impl StationSpec {
    fn decode(value: &Json, what: String) -> Result<StationSpec, String> {
        Fields::of(value, what, |f| {
            Ok(StationSpec {
                rate: f.req("rate")?,
                error: f.opt("error")?.unwrap_or(0.0),
                mcs_cliff: f.opt("mcs_cliff")?,
                weight: f.opt("weight")?,
            })
        })
    }
}

impl TrafficSpec {
    fn decode(value: &Json, what: String) -> Result<TrafficSpec, String> {
        Fields::of(value, what, |f| {
            let kind: String = f.req("kind")?;
            let station = f.req("station")?;
            Ok(match kind.as_str() {
                "tcp_down" => TrafficSpec::TcpDown { station },
                "tcp_up" => TrafficSpec::TcpUp { station },
                "udp_down" => TrafficSpec::UdpDown {
                    station,
                    mbps: f.req("mbps")?,
                    poisson: f.opt("poisson")?.unwrap_or(false),
                },
                "ping" => TrafficSpec::Ping { station },
                "voip" => TrafficSpec::Voip {
                    station,
                    qos: f.opt("qos")?.unwrap_or_else(|| "be".into()),
                },
                "web" => TrafficSpec::Web {
                    station,
                    page: f.opt("page")?.unwrap_or_else(|| "small".into()),
                },
                other => return Err(format!("{}: unknown kind `{other}`", f.what)),
            })
        })
    }
}

impl FaultSpec {
    fn decode(value: &Json, what: String) -> Result<FaultSpec, String> {
        Fields::of(value, what, |f| {
            let kind: String = f.req("kind")?;
            let kind = match kind.as_str() {
                "loss" => FaultKind::Loss {
                    prob: f.req("prob")?,
                },
                "burst_loss" => FaultKind::BurstLoss {
                    bad_frac: f.req("bad_frac")?,
                    burst_len: f.req("burst_len")?,
                    loss_bad: f.opt("loss_bad")?.unwrap_or(0.8),
                },
                "rate_collapse" => FaultKind::RateCollapse {
                    rate: f.req("rate")?,
                },
                "rate_oscillate" => FaultKind::RateOscillate {
                    low: f.req("low")?,
                    period_ms: f.req("period_ms")?,
                },
                "stall" => FaultKind::Stall,
                "hw_backpressure" => FaultKind::HwBackpressure {
                    depth: f.req("depth")?,
                },
                "ack_loss" => FaultKind::AckLoss {
                    prob: f.req("prob")?,
                },
                other => return Err(format!("{}: unknown kind `{other}`", f.what)),
            };
            Ok(FaultSpec {
                from_secs: f.req("from_secs")?,
                until_secs: f.req("until_secs")?,
                station: f.opt("station")?,
                kind,
            })
        })
    }
}

impl PolicyNodeSpec {
    fn decode(value: &Json, what: String) -> Result<PolicyNodeSpec, String> {
        Fields::of(value, what, |f| {
            Ok(PolicyNodeSpec {
                name: f.req("name")?,
                weight: f.opt("weight")?.unwrap_or(1),
                classes: f.opt("classes")?,
                stations: f.opt("stations")?,
                nodes: f.list("nodes", PolicyNodeSpec::decode)?,
            })
        })
    }
}

impl PolicySwitchSpec {
    fn decode(value: &Json, what: String) -> Result<PolicySwitchSpec, String> {
        Fields::of(value, what, |f| {
            Ok(PolicySwitchSpec {
                at_secs: f.req("at_secs")?,
                nodes: f.req_list("nodes", PolicyNodeSpec::decode)?,
            })
        })
    }
}

impl PolicySpec {
    fn decode(value: &Json, what: String) -> Result<PolicySpec, String> {
        Fields::of(value, what, |f| {
            Ok(PolicySpec {
                nodes: f.req_list("nodes", PolicyNodeSpec::decode)?,
                switches: f
                    .list("switches", PolicySwitchSpec::decode)?
                    .unwrap_or_default(),
            })
        })
    }
}

impl ProvenanceSpec {
    fn decode(value: &Json, what: String) -> Result<ProvenanceSpec, String> {
        Fields::of(value, what, |f| {
            let objective: String = f.req("objective")?;
            if !OBJECTIVE_KINDS.contains(&objective.as_str()) {
                return Err(format!("{}: unknown objective `{objective}`", f.what));
            }
            Ok(ProvenanceSpec {
                searcher_seed: f.req("searcher_seed")?,
                objective,
                score: f.opt("score")?.unwrap_or(0.0),
                shrink_steps: f.req("shrink_steps")?,
                first_failing_bytes: f.opt("first_failing_bytes")?,
                minimal_bytes: f.opt("minimal_bytes")?,
            })
        })
    }
}

impl RoamingSpec {
    fn decode(value: &Json, what: String) -> Result<RoamingSpec, String> {
        let d = RoamingSpec::default();
        Fields::of(value, what, |f| {
            Ok(RoamingSpec {
                mean_dwell_ms: f.opt("mean_dwell_ms")?.unwrap_or(d.mean_dwell_ms),
                reassoc_min_ms: f.opt("reassoc_min_ms")?.unwrap_or(d.reassoc_min_ms),
                reassoc_max_ms: f.opt("reassoc_max_ms")?.unwrap_or(d.reassoc_max_ms),
                rate_palette: f.opt("rate_palette")?,
            })
        })
    }
}

impl ChurnSpec {
    fn decode(value: &Json, what: String) -> Result<ChurnSpec, String> {
        Fields::of(value, what, |f| {
            Ok(ChurnSpec {
                mean_interval_ms: f.opt("mean_interval_ms")?.unwrap_or(100),
                min_stations: f.req("min_stations")?,
                max_stations: f.req("max_stations")?,
            })
        })
    }
}

impl ScenarioFile {
    /// Parses a scenario from JSON text.
    pub fn from_json(text: &str) -> Result<ScenarioFile, String> {
        let value = serde_json::from_str(text).map_err(|e| format!("scenario parse error: {e}"))?;
        Fields::of(&value, ROOT, |f| {
            // Every earlier stamp names a subset of today's grammar with
            // the same meanings, so it is checked only against the future.
            let version = f.opt("version")?.unwrap_or(SCHEMA_VERSION);
            if !(1..=SCHEMA_VERSION).contains(&version) {
                return Err(format!(
                    "unsupported scenario version {version} \
                     (this build understands 1 through {SCHEMA_VERSION})"
                ));
            }
            Ok(ScenarioFile {
                scheme: f.opt("scheme")?.unwrap_or_else(|| "airtime".into()),
                secs: f.opt("secs")?.unwrap_or(20),
                seed: f.opt("seed")?.unwrap_or(1),
                station_fq: f.opt("station_fq")?.unwrap_or(false),
                rate_control: f.opt("rate_control")?.unwrap_or(false),
                aql_ms: f.opt("aql_ms")?,
                stations: f.req_list("stations", StationSpec::decode)?,
                traffic: f.req_list("traffic", TrafficSpec::decode)?,
                faults: f.list("faults", FaultSpec::decode)?.unwrap_or_default(),
                churn: f.block("churn", ChurnSpec::decode)?,
                policy: f.block("policy", PolicySpec::decode)?,
                roaming: f.block("roaming", RoamingSpec::decode)?,
                provenance: f.block("provenance", ProvenanceSpec::decode)?,
            })
        })
    }
}
