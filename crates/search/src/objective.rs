//! Objective extraction: run a scenario, read the telemetry rollup, and
//! reduce it to the six scalar objectives the searcher hunts.
//!
//! * **`jain_dip`** — end-of-run weighted Jain fairness index over the
//!   *bulk* stations (the ones whose traffic actually demands airtime)
//!   falls below [`JAIN_DIP`]. Shares are normalised by each station's
//!   effective scheduler weight so a deliberately-skewed policy tree is
//!   not itself a violation; measurement starts after the last policy
//!   switch (plus a 1 s settle) and is skipped entirely under churn,
//!   where a station's share legitimately depends on its attach time.
//!   Under a `roaming` block fairness stays applicable but only
//!   *quiet* windows count — windows with no hand-off completed and no
//!   station in transit at either boundary — so the reassociation gaps
//!   the schedule itself creates are not misread as scheduler unfairness.
//! * **`latency_spike`** — whole-system p99 CoDel sojourn time exceeds
//!   [`P99_SOJOURN_MS`].
//! * **`ac_p99_spike`** — any access category's p99 sojourn exceeds its
//!   per-AC budget in [`AC_P99_MS`]; voice rides a far tighter budget
//!   than bulk, so an aggregate p99 that looks healthy can still hide a
//!   collapsed Vo queue. Per-AC splits come from the MAC-FQ `Tid` labels
//!   and are 0 (inapplicable) for qdisc-only schemes.
//! * **`mos_collapse`** — the worst 500 ms-window E-model MOS across
//!   all VoIP flows drops below [`MOS_FLOOR`]; windowing catches a
//!   transient voice outage that a whole-run average would smear away.
//! * **`codel_flap`** — CoDel interval/target parameter switches exceed
//!   [`CODEL_FLAP`], i.e. the controller oscillates instead of settling.
//! * **`convergence_blowout`** — after the last scheduled disturbance the
//!   windowed fairness index takes longer than [`CONVERGENCE_MS`] to
//!   return (and stay returned) above the dip threshold. Non-quiet
//!   roaming windows neither extend nor reset the recovery clock.

use wifiq_experiments::scenario_file::{
    BuiltScenario, InstalledTraffic, ScenarioFile, TrafficSpec,
};
use wifiq_harness::JsonCodec;
use wifiq_phy::AccessCategory;
use wifiq_sim::Nanos;
use wifiq_stats::{jain_index, VoipMetrics};
use wifiq_telemetry::{Label, Telemetry};

use serde::Json;

/// Fairness floor: a weighted Jain index below this is a violation.
pub const JAIN_DIP: f64 = 0.90;
/// Latency ceiling: p99 CoDel sojourn above this (ms) is a violation.
pub const P99_SOJOURN_MS: f64 = 400.0;
/// Per-AC p99 sojourn budgets (ms), indexed by `AccessCategory::index()`
/// order: Vo, Vi, Be, Bk.
pub const AC_P99_MS: [f64; 4] = [50.0, 100.0, 400.0, 800.0];
/// VoIP quality floor: a measurement window whose E-model MOS drops
/// below this is a violation.
pub const MOS_FLOOR: f64 = 3.0;
/// Stability ceiling: more CoDel param switches than this is a violation.
pub const CODEL_FLAP: u64 = 8;
/// Convergence ceiling: fairness recovery slower than this (ms) is a
/// violation.
pub const CONVERGENCE_MS: f64 = 2000.0;

/// Measurement window for the convergence sweep.
const WINDOW: Nanos = Nanos::from_millis(500);
/// The neutral scheduler weight (stations with no policy/weight override).
const NEUTRAL_WEIGHT: f64 = 256.0;

/// The objective a counterexample violates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectiveKind {
    /// Weighted fairness below [`JAIN_DIP`].
    JainDip,
    /// p99 sojourn above [`P99_SOJOURN_MS`].
    LatencySpike,
    /// Some access category's p99 sojourn above its [`AC_P99_MS`] budget.
    AcP99Spike,
    /// Worst windowed VoIP MOS below [`MOS_FLOOR`].
    MosCollapse,
    /// CoDel param switches above [`CODEL_FLAP`].
    CodelFlap,
    /// Fairness recovery slower than [`CONVERGENCE_MS`].
    ConvergenceBlowout,
}

impl ObjectiveKind {
    /// The schema name (matches
    /// `wifiq_experiments::scenario_file::OBJECTIVE_KINDS`).
    pub fn as_str(self) -> &'static str {
        match self {
            ObjectiveKind::JainDip => "jain_dip",
            ObjectiveKind::LatencySpike => "latency_spike",
            ObjectiveKind::AcP99Spike => "ac_p99_spike",
            ObjectiveKind::MosCollapse => "mos_collapse",
            ObjectiveKind::CodelFlap => "codel_flap",
            ObjectiveKind::ConvergenceBlowout => "convergence_blowout",
        }
    }

    /// Inverse of [`ObjectiveKind::as_str`].
    pub fn parse(s: &str) -> Option<ObjectiveKind> {
        Some(match s {
            "jain_dip" => ObjectiveKind::JainDip,
            "latency_spike" => ObjectiveKind::LatencySpike,
            "ac_p99_spike" => ObjectiveKind::AcP99Spike,
            "mos_collapse" => ObjectiveKind::MosCollapse,
            "codel_flap" => ObjectiveKind::CodelFlap,
            "convergence_blowout" => ObjectiveKind::ConvergenceBlowout,
            _ => return None,
        })
    }
}

/// The six objectives extracted from one run. `None` means *not
/// applicable* (fewer than two bulk stations, churn active, no VoIP
/// flow, or no disturbance to converge from) — never a violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Objectives {
    /// End-of-run weighted Jain index over bulk stations.
    pub jain: Option<f64>,
    /// Whole-system p99 CoDel sojourn, ms (0 when nothing was queued).
    pub p99_sojourn_ms: f64,
    /// Per-AC p99 sojourn, ms, indexed like [`AC_P99_MS`] (all 0 for
    /// schemes without MAC-FQ `Tid` telemetry).
    pub ac_p99_ms: [f64; 4],
    /// Worst windowed E-model MOS across VoIP flows; `None` when the
    /// scenario carries no VoIP traffic.
    pub min_window_mos: Option<f64>,
    /// Total CoDel parameter switches.
    pub codel_switches: u64,
    /// Time for windowed fairness to recover after the last disturbance,
    /// ms. When the run ends unrecovered this is the remaining time — a
    /// lower bound, which is all the violation test needs.
    pub convergence_ms: Option<f64>,
}

impl JsonCodec for Objectives {
    fn encode(&self) -> Json {
        (
            self.jain,
            self.p99_sojourn_ms,
            self.ac_p99_ms.to_vec(),
            self.min_window_mos,
            self.codel_switches,
            self.convergence_ms,
        )
            .encode()
    }
    fn decode(json: &Json) -> Option<Self> {
        let (jain, p99_sojourn_ms, ac_p99, min_window_mos, codel_switches, convergence_ms) =
            <(Option<f64>, f64, Vec<f64>, Option<f64>, u64, Option<f64>)>::decode(json)?;
        Some(Objectives {
            jain,
            p99_sojourn_ms,
            ac_p99_ms: ac_p99.try_into().ok()?,
            min_window_mos,
            codel_switches,
            convergence_ms,
        })
    }
}

impl Objectives {
    /// Every violated objective with its severity score (larger = worse,
    /// 0 at the threshold). Deterministic order.
    pub fn violations(&self) -> Vec<(ObjectiveKind, f64)> {
        let mut out = Vec::new();
        if let Some(j) = self.jain {
            if j < JAIN_DIP {
                out.push((ObjectiveKind::JainDip, JAIN_DIP - j));
            }
        }
        if self.p99_sojourn_ms > P99_SOJOURN_MS {
            out.push((
                ObjectiveKind::LatencySpike,
                self.p99_sojourn_ms / P99_SOJOURN_MS - 1.0,
            ));
        }
        // Score the worst AC relative to its own budget so a 60 ms Vo
        // queue outranks a 500 ms Bk queue.
        let worst_ac = self
            .ac_p99_ms
            .iter()
            .zip(AC_P99_MS)
            .map(|(p, budget)| p / budget)
            .fold(0.0, f64::max);
        if worst_ac > 1.0 {
            out.push((ObjectiveKind::AcP99Spike, worst_ac - 1.0));
        }
        if let Some(m) = self.min_window_mos {
            if m < MOS_FLOOR {
                out.push((ObjectiveKind::MosCollapse, MOS_FLOOR - m));
            }
        }
        if self.codel_switches > CODEL_FLAP {
            out.push((
                ObjectiveKind::CodelFlap,
                (self.codel_switches - CODEL_FLAP) as f64,
            ));
        }
        if let Some(c) = self.convergence_ms {
            if c > CONVERGENCE_MS {
                out.push((ObjectiveKind::ConvergenceBlowout, c / CONVERGENCE_MS - 1.0));
            }
        }
        out
    }

    /// True when this run still violates `kind` — the shrinker's oracle.
    pub fn violates(&self, kind: ObjectiveKind) -> bool {
        self.violations().iter().any(|(k, _)| *k == kind)
    }

    /// The coverage-map bucket this run lands in. Buckets are coarse on
    /// purpose: two runs with the same signature teach the searcher the
    /// same thing, so only one of them earns a corpus slot.
    pub fn signature(&self) -> String {
        fn log_bucket(v: u64) -> u32 {
            u64::BITS - v.leading_zeros() // 0→0, 1→1, 2..3→2, 4..7→3, …
        }
        let j = match self.jain {
            None => "x".to_string(),
            Some(v) => format!("{}", (v.clamp(0.0, 1.0) * 20.0).floor() as u32),
        };
        let l = log_bucket(self.p99_sojourn_ms.max(0.0) as u64);
        let f = log_bucket(self.codel_switches);
        let c = match self.convergence_ms {
            None => "x".to_string(),
            Some(v) => format!("{}", log_bucket(v.max(0.0) as u64)),
        };
        let a = self
            .ac_p99_ms
            .iter()
            .map(|&v| log_bucket(v.max(0.0) as u64).to_string())
            .collect::<Vec<_>>()
            .join(".");
        // Half-MOS-point buckets: 3.1 and 3.4 teach the searcher the same
        // thing; 3.1 and 2.4 do not.
        let m = match self.min_window_mos {
            None => "x".to_string(),
            Some(v) => format!("{}", (v.clamp(1.0, 4.5) * 2.0).floor() as u32),
        };
        format!("j{j}l{l}f{f}c{c}a{a}m{m}")
    }
}

/// True when a component offers enough sustained load to claim its
/// airtime share. The fairness objectives are computed over the stations
/// driven by such traffic only — a station that just pings or loads one
/// web page legitimately uses almost no airtime.
fn is_bulk(t: &TrafficSpec) -> bool {
    matches!(
        t,
        TrafficSpec::TcpDown { .. }
            | TrafficSpec::TcpUp { .. }
            | TrafficSpec::UdpDown { mbps: 5.., .. }
    )
}

/// Station indices driven by bulk traffic (deduplicated, ascending).
fn bulk_stations(traffic: &[TrafficSpec]) -> Vec<usize> {
    let mut out: Vec<usize> = traffic
        .iter()
        .filter(|t| is_bulk(t))
        .map(TrafficSpec::station)
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Runs `doc` with telemetry enabled and extracts its objectives. The
/// document is built as it stands — the value the searcher mutates is the
/// value the loader decodes from a committed counterexample, so there is
/// no second representation for the two to disagree through.
pub fn evaluate(doc: &ScenarioFile) -> Result<Objectives, String> {
    let mut built = doc.build()?;
    let tele = Telemetry::enabled();
    built.net.set_telemetry(tele.clone());

    // Step the run in fixed windows, snapshotting cumulative per-station
    // airtime — and roam activity, when a schedule is attached — at each
    // boundary.
    let duration = built.duration;
    let mut boundaries: Vec<(Nanos, Vec<u64>)> = vec![(Nanos::ZERO, airtime_snapshot(&built))];
    let mut roam_marks: Vec<(u64, usize)> = vec![roam_snapshot(&built)];
    let mut t = Nanos::ZERO;
    while t < duration {
        t = (t + WINDOW).min(duration);
        built.run_to(t);
        boundaries.push((t, airtime_snapshot(&built)));
        roam_marks.push(roam_snapshot(&built));
    }

    // Window `w` (boundaries[w-1] → boundaries[w]) is *quiet* when no
    // hand-off departed inside it and no station was mid-reassociation at
    // either edge; only quiet windows feed the fairness objectives, so a
    // scheduled reassociation gap is not misread as scheduler unfairness.
    // Without a roaming schedule every window is quiet.
    let quiet = |w: usize| -> bool {
        roam_marks[w].0 == roam_marks[w - 1].0 && roam_marks[w].1 == 0 && roam_marks[w - 1].1 == 0
    };

    // Effective weights after the run (i.e. under the final policy tree).
    // `None` (scheme without an airtime scheduler, or a station detached
    // by churn) falls back to the neutral weight.
    let n = boundaries[0].1.len();
    let weights: Vec<f64> = (0..n)
        .map(|i| {
            built
                .net
                .sta_id(i)
                .and_then(|id| built.net.station_ac_weight(id, AccessCategory::Be))
                .map_or(NEUTRAL_WEIGHT, f64::from)
        })
        .collect();

    let bulk: Vec<usize> = bulk_stations(&doc.traffic)
        .into_iter()
        .filter(|&s| s < n)
        .collect();
    let fairness_applicable = bulk.len() >= 2 && doc.churn.is_none();

    // Weighted share of `sta` accumulated between two boundaries.
    let delta = |from: &[u64], to: &[u64], sta: usize| -> f64 {
        to[sta].saturating_sub(from[sta]) as f64 * NEUTRAL_WEIGHT / weights[sta]
    };

    // jain_dip: settle for 1 s (or until after the last policy switch),
    // then accumulate shares over the quiet windows to the end of the
    // run. With no roaming schedule every window is quiet and the sum
    // telescopes to the plain start-to-end delta.
    let last_switch = doc
        .policy
        .as_ref()
        .and_then(|p| p.switches.last().map(|sw| sw.at_secs))
        .unwrap_or(0.0);
    let fair_from = Nanos::from_secs_f64(last_switch.max(0.0)) + Nanos::from_secs(1);
    let jain = if fairness_applicable && fair_from < duration {
        let start = boundaries
            .iter()
            .position(|(t, _)| *t >= fair_from)
            .expect("fair_from < duration implies a later boundary");
        let mut shares = vec![0.0; bulk.len()];
        let mut measured = false;
        for w in start + 1..boundaries.len() {
            if !quiet(w) {
                continue;
            }
            measured = true;
            for (share, &s) in shares.iter_mut().zip(&bulk) {
                *share += delta(&boundaries[w - 1].1, &boundaries[w].1, s);
            }
        }
        measured.then(|| jain_index(&shares))
    } else {
        None
    };

    // latency_spike / ac_p99_spike / codel_flap from the telemetry
    // rollup. Sojourn histograms live under the MAC-FQ components ("fq"
    // at the AP, "client_fq" on stations) keyed by `Label::Tid`; the
    // flat TID index is `station * COUNT + ac.index()`, so a TID's
    // access category is its index modulo `COUNT`.
    let (p99_sojourn_ms, ac_p99_ms, codel_switches) = tele
        .with_registry(|r| {
            let p99_of = |keep: &dyn Fn(Label) -> bool| -> f64 {
                ["fq", "client_fq"]
                    .iter()
                    .filter_map(|c| r.hist_merged_where(c, "sojourn_ns", keep))
                    .reduce(|mut a, b| {
                        a.merge(&b);
                        a
                    })
                    .map_or(0.0, |h| h.quantile(0.99) as f64 / 1e6)
            };
            let mut per_ac = [0.0; AccessCategory::COUNT];
            for (i, slot) in per_ac.iter_mut().enumerate() {
                *slot = p99_of(
                    &|l| matches!(l, Label::Tid(t) if t as usize % AccessCategory::COUNT == i),
                );
            }
            (
                p99_of(&|_| true),
                per_ac,
                r.counter_total("codel", "param_switches"),
            )
        })
        .expect("telemetry is enabled");

    // mos_collapse: worst windowed E-model MOS across VoIP flows. Frames
    // pace at one per 20 ms, so a window's expected count is its width
    // over the frame interval; received frames bucket by arrival time.
    let mut min_window_mos: Option<f64> = None;
    for handle in &built.traffic {
        let InstalledTraffic::Voip(h) = handle else {
            continue;
        };
        let flow = built.app.voip(*h);
        for w in 1..boundaries.len() {
            let to = boundaries[w].0;
            let from = boundaries[w - 1].0.max(flow.start);
            if to <= flow.start {
                continue;
            }
            let delays: Vec<Nanos> = flow
                .delays
                .iter()
                .filter(|(at, _)| *at >= from && *at < to)
                .map(|&(_, d)| d)
                .collect();
            let expected = (to.saturating_sub(from).as_millis() / 20) as usize;
            if expected == 0 && delays.is_empty() {
                continue;
            }
            let mos = VoipMetrics::from_delays(&delays, expected.max(delays.len())).mos();
            min_window_mos = Some(min_window_mos.map_or(mos, |m| m.min(mos)));
        }
    }

    // convergence_blowout: from the end of the last scheduled disturbance
    // (fault window closing or policy switch firing), find the first
    // window boundary after which every remaining window's fairness stays
    // at or above the dip threshold.
    let last_event = doc
        .faults
        .iter()
        .map(|f| f.until_secs)
        .chain(
            doc.policy
                .iter()
                .flat_map(|p| p.switches.iter().map(|sw| sw.at_secs)),
        )
        .fold(f64::NEG_INFINITY, f64::max);
    let convergence_ms = if fairness_applicable
        && last_event.is_finite()
        && Nanos::from_secs_f64(last_event.max(0.0)) + Nanos::from_secs(1) <= duration
    {
        let event = Nanos::from_secs_f64(last_event.max(0.0));
        let window_fair = |a: &(Nanos, Vec<u64>), b: &(Nanos, Vec<u64>)| -> f64 {
            let shares: Vec<f64> = bulk.iter().map(|&s| delta(&a.1, &b.1, s)).collect();
            jain_index(&shares)
        };
        let start = boundaries.partition_point(|(t, _)| *t <= event);
        // Walk windows [start-1..], latest-unfair-first. Non-quiet
        // windows are skipped: a hand-off gap is the schedule's doing,
        // not a failure to reconverge.
        let mut recovered_at = event;
        for w in start.max(1)..boundaries.len() {
            if quiet(w) && window_fair(&boundaries[w - 1], &boundaries[w]) < JAIN_DIP {
                recovered_at = boundaries[w].0;
            }
        }
        Some(recovered_at.saturating_sub(event).as_millis_f64())
    } else {
        None
    };

    Ok(Objectives {
        jain,
        p99_sojourn_ms,
        ac_p99_ms,
        min_window_mos,
        codel_switches,
        convergence_ms,
    })
}

fn airtime_snapshot(built: &BuiltScenario) -> Vec<u64> {
    built
        .net
        .meter()
        .all()
        .iter()
        .map(|m| m.total_airtime().as_nanos())
        .collect()
}

/// `(hand-offs departed so far, stations mid-reassociation)` — the two
/// facts quiet-window detection needs.
fn roam_snapshot(built: &BuiltScenario) -> (u64, usize) {
    built
        .roster
        .roam
        .as_ref()
        .map_or((0, 0), |r| (r.stats.handoffs, r.in_transit()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(jain: Option<f64>, p99: f64, flaps: u64, conv: Option<f64>) -> Objectives {
        Objectives {
            jain,
            p99_sojourn_ms: p99,
            ac_p99_ms: [0.0; 4],
            min_window_mos: None,
            codel_switches: flaps,
            convergence_ms: conv,
        }
    }

    #[test]
    fn violations_trigger_at_thresholds() {
        assert!(obj(Some(0.95), 10.0, 2, None).violations().is_empty());
        let mut bad = obj(Some(0.80), 900.0, 20, Some(5000.0));
        bad.ac_p99_ms = [80.0, 10.0, 10.0, 10.0];
        bad.min_window_mos = Some(2.2);
        let v = bad.violations();
        let kinds: Vec<_> = v.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            kinds,
            vec![
                ObjectiveKind::JainDip,
                ObjectiveKind::LatencySpike,
                ObjectiveKind::AcP99Spike,
                ObjectiveKind::MosCollapse,
                ObjectiveKind::CodelFlap,
                ObjectiveKind::ConvergenceBlowout,
            ]
        );
        assert!(v.iter().all(|(_, score)| *score > 0.0));
        // Inapplicable objectives never fire.
        assert!(obj(None, 0.0, 0, None).violations().is_empty());
    }

    #[test]
    fn ac_budgets_are_per_category() {
        // 60 ms is fine for Be but busts the 50 ms Vo budget.
        let mut o = obj(None, 60.0, 0, None);
        o.ac_p99_ms = [0.0, 0.0, 60.0, 0.0];
        assert!(o.violations().is_empty());
        o.ac_p99_ms = [60.0, 0.0, 0.0, 0.0];
        let v = o.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].0, ObjectiveKind::AcP99Spike);
        assert!((v[0].1 - 0.2).abs() < 1e-9, "score {}", v[0].1);
    }

    #[test]
    fn mos_floor_fires_below_three() {
        let mut o = obj(None, 0.0, 0, None);
        o.min_window_mos = Some(3.4);
        assert!(o.violations().is_empty());
        o.min_window_mos = Some(2.1);
        assert!(o.violates(ObjectiveKind::MosCollapse));
    }

    #[test]
    fn signature_buckets_coarsely() {
        let a = obj(Some(0.951), 10.0, 2, None);
        let b = obj(Some(0.957), 11.0, 3, None);
        assert_eq!(a.signature(), b.signature());
        let c = obj(Some(0.40), 10.0, 2, None);
        assert_ne!(a.signature(), c.signature());
        assert!(obj(None, 0.0, 0, None).signature().starts_with("jx"));

        // Nearby AC p99s and MOS values share a bucket; distant ones
        // split.
        let mut d = obj(None, 0.0, 0, None);
        let mut e = obj(None, 0.0, 0, None);
        d.ac_p99_ms = [40.0, 0.0, 0.0, 0.0];
        e.ac_p99_ms = [44.0, 0.0, 0.0, 0.0];
        d.min_window_mos = Some(3.1);
        e.min_window_mos = Some(3.4);
        assert_eq!(d.signature(), e.signature());
        e.ac_p99_ms = [400.0, 0.0, 0.0, 0.0];
        assert_ne!(d.signature(), e.signature());
        e.ac_p99_ms = d.ac_p99_ms;
        e.min_window_mos = Some(2.1);
        assert_ne!(d.signature(), e.signature());
    }

    #[test]
    fn codec_round_trips() {
        let mut rich = obj(Some(0.8), 123.25, 9, Some(2500.0));
        rich.ac_p99_ms = [12.5, 30.0, 123.25, 400.0];
        rich.min_window_mos = Some(2.75);
        for o in [rich, obj(None, 0.0, 0, None)] {
            assert_eq!(Objectives::decode(&o.encode()), Some(o));
        }
    }

    #[test]
    fn objective_kind_names_match_schema() {
        use wifiq_experiments::scenario_file::OBJECTIVE_KINDS;
        for kind in [
            ObjectiveKind::JainDip,
            ObjectiveKind::LatencySpike,
            ObjectiveKind::AcP99Spike,
            ObjectiveKind::MosCollapse,
            ObjectiveKind::CodelFlap,
            ObjectiveKind::ConvergenceBlowout,
        ] {
            assert!(OBJECTIVE_KINDS.contains(&kind.as_str()));
            assert_eq!(ObjectiveKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(OBJECTIVE_KINDS.len(), 6);
        assert_eq!(ObjectiveKind::parse("gremlins"), None);
    }

    #[test]
    fn bulk_stations_exclude_sparse_traffic() {
        let mut traffic = vec![
            TrafficSpec::TcpDown { station: 0 },
            TrafficSpec::TcpDown { station: 1 },
            TrafficSpec::Ping { station: 0 },
            TrafficSpec::UdpDown {
                station: 1,
                mbps: 1,
                poisson: false,
            },
            TrafficSpec::Web {
                station: 2,
                page: "large".into(),
            },
        ];
        assert_eq!(bulk_stations(&traffic), vec![0, 1]);
        traffic.remove(0); // drop tcp_down@0 — ping alone is sparse
        assert_eq!(bulk_stations(&traffic), vec![1]);
    }

    /// A clean symmetric scenario scores fair; a stalled victim dips.
    #[test]
    fn evaluate_detects_a_starved_station() {
        let fair = r#"{
            "secs": 4,
            "stations": [{"rate": "mcs7"}, {"rate": "mcs7"}],
            "traffic": [
                {"kind": "tcp_down", "station": 0},
                {"kind": "tcp_down", "station": 1}
            ]
        }"#;
        let o = evaluate(&ScenarioFile::from_json(fair).unwrap()).unwrap();
        let j = o.jain.expect("two bulk stations, no churn");
        assert!(j > JAIN_DIP, "symmetric run should be fair, got {j}");

        let starved = r#"{
            "secs": 4,
            "stations": [{"rate": "mcs7"}, {"rate": "mcs7"}],
            "traffic": [
                {"kind": "tcp_down", "station": 0},
                {"kind": "tcp_down", "station": 1}
            ],
            "faults": [
                {"kind": "stall", "station": 1,
                 "from_secs": 0.5, "until_secs": 4.0}
            ]
        }"#;
        let o = evaluate(&ScenarioFile::from_json(starved).unwrap()).unwrap();
        let j = o.jain.expect("fairness applicable");
        assert!(j < JAIN_DIP, "stalled station should dip fairness, got {j}");
        assert!(o.violates(ObjectiveKind::JainDip));
    }

    /// A roaming scenario still extracts: VoIP yields a windowed MOS
    /// and the bulk ACs record per-AC sojourn quantiles.
    #[test]
    fn evaluate_handles_roaming_and_voip() {
        let text = r#"{
            "secs": 6, "seed": 7,
            "stations": [{"rate": "mcs7"}, {"rate": "mcs7"}, {"rate": "mcs7"}],
            "traffic": [
                {"kind": "tcp_down", "station": 0},
                {"kind": "tcp_down", "station": 1},
                {"kind": "voip", "station": 2, "qos": "vo"}
            ],
            "roaming": {"mean_dwell_ms": 1500}
        }"#;
        let o = evaluate(&ScenarioFile::from_json(text).unwrap()).unwrap();
        let mos = o.min_window_mos.expect("voip flow yields a windowed MOS");
        assert!(
            (1.0..=4.5).contains(&mos),
            "MOS out of E-model range: {mos}"
        );
        assert!(
            o.ac_p99_ms[AccessCategory::Be.index()] > 0.0,
            "bulk Be traffic must record per-AC sojourn"
        );
        assert!(
            o.p99_sojourn_ms >= o.ac_p99_ms.iter().copied().fold(0.0, f64::max) * 0.5,
            "whole-system p99 should be of the same order as the worst AC"
        );
    }
}
