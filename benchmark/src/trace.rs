//! What the benchmark sees at the boundaries it owns: the pass-through
//! `App` wrapper every run goes through, and the span recorder of the
//! traced run.

use std::time::Instant;

use serde::Json;
use wifiq_mac::{App, Commands, Delivery, Packet};
use wifiq_sim::Nanos;
use wifiq_telemetry::Telemetry;
use wifiq_traffic::{AppMsg, TrafficApp};

/// Counts taken at the `App` boundary (exact), plus callback time when
/// the tap is timed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TapCounts {
    /// `on_packet` calls: packets delivered end to end.
    pub delivered: u64,
    /// Packets the application handed to the network.
    pub offered: u64,
    /// `on_timer` calls.
    pub timers: u64,
    pub on_packet_ns: u64,
    pub on_timer_ns: u64,
}

/// Pass-through `App` wrapper around the `TrafficApp`.
///
/// Deliveries are counted here and not read from `AirtimeMeter`, whose
/// per-station counters `reset_station` zeroes on every churn join.
/// `TIMED` adds an `Instant` pair per callback; that costs tens of percent
/// on packet-heavy workloads, so end-to-end numbers only ever come from
/// the untimed tap.
pub struct Tap<'a, const TIMED: bool> {
    pub app: &'a mut TrafficApp,
    pub counts: &'a mut TapCounts,
}

impl<const TIMED: bool> App<AppMsg> for Tap<'_, TIMED> {
    fn on_packet(
        &mut self,
        at: Delivery,
        pkt: Packet<AppMsg>,
        now: Nanos,
        cmds: &mut Commands<AppMsg>,
    ) {
        self.counts.delivered += 1;
        // The buffer is drained once per event, not per callback: the
        // frames of one aggregate are delivered into the same buffer.
        let queued = cmds.sends().len();
        if TIMED {
            let t = Instant::now();
            self.app.on_packet(at, pkt, now, cmds);
            self.counts.on_packet_ns += t.elapsed().as_nanos() as u64;
        } else {
            self.app.on_packet(at, pkt, now, cmds);
        }
        self.counts.offered += (cmds.sends().len() - queued) as u64;
    }

    fn on_timer(&mut self, token: u64, now: Nanos, cmds: &mut Commands<AppMsg>) {
        self.counts.timers += 1;
        let queued = cmds.sends().len();
        if TIMED {
            let t = Instant::now();
            self.app.on_timer(token, now, cmds);
            self.counts.on_timer_ns += t.elapsed().as_nanos() as u64;
        } else {
            self.app.on_timer(token, now, cmds);
        }
        self.counts.offered += (cmds.sends().len() - queued) as u64;
    }
}

/// One recorded span. Callbacks and churn slices number in the millions,
/// so spans of one name under one parent are folded into a single record:
/// `start_ns..end_ns` covers first start to last end, `busy_ns` is the
/// summed duration and `count` the number of spans folded.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Timed segment the span belongs to (spans of one operation share it).
    pub segment: Option<u32>,
    pub count: u64,
    pub busy_ns: u64,
}

/// In-memory span store of one traced run, written out at exit.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a span; returns its index, for children to name as parent.
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        segment: Option<u32>,
        count: u64,
        busy_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            segment,
            count,
            busy_ns,
        });
        self.spans.len() - 1
    }

    /// Summed busy time of every span called `name`, in seconds.
    pub fn busy_s(&self, name: &str) -> f64 {
        self.total(name, |s| s.busy_ns) as f64 / 1e9
    }

    /// Summed fold count of every span called `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.total(name, |s| s.count)
    }

    fn total(&self, name: &str, field: impl Fn(&Span) -> u64) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(field)
            .sum()
    }

    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let opt = |v: Option<u64>| v.map_or(Json::Null, Json::U64);
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("start_ns".into(), Json::U64(s.start_ns)),
                    ("end_ns".into(), Json::U64(s.end_ns)),
                    ("parent".into(), opt(s.parent.map(|p| p as u64))),
                    ("segment".into(), opt(s.segment.map(u64::from))),
                    ("count".into(), Json::U64(s.count)),
                    ("busy_ns".into(), Json::U64(s.busy_ns)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::Str(workload.into())),
            ("seed".into(), Json::U64(seed)),
            ("spans".into(), Json::Arr(spans)),
        ])
    }
}

/// Events the sink's ring has seen so far. The ring has no getter; the
/// CSV export carries its total.
pub fn ring_events(tele: &Telemetry) -> u64 {
    tele.snapshot_csv("", 0)
        .lines()
        .find_map(|l| l.strip_prefix("meta,events,,,total,"))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}
