//! The run shape: repeated set-up, a timed window cut into segments and
//! slices with a host-speed probe between them, the checks that make a
//! segment or a set-up a failed operation, and the end-to-end metrics.

use std::time::Instant;

use wifiq_mac::{NetworkConfig, StationIdx};
use wifiq_scale::ChurnEvent;
use wifiq_sim::Nanos;
use wifiq_stats::{jain_index, summary::percentile_sorted};
use wifiq_traffic::FlowHandle;

use crate::host::Probe;
use crate::trace::{ring_events, Spans, Tap, TapCounts};
use crate::workload::{Bulk, BulkKind, Instance, Seeds, Workload, SEGMENTS, SETUP_REPS, SLICES};

/// Segment delivery counts must stay within this share of their median:
/// the steady-state check that catches a workload that drifts.
const STEADY_TOLERANCE: f64 = 0.05;

/// Packets that may be in flight where no public getter sees them (wire
/// hop, hardware queues: 2 aggregates x 64 frames x 4 ACs) when the packet
/// balance is closed at the end of the window.
const IN_FLIGHT_SLACK: u64 = 1024;

/// A p99 needs at least ten samples beyond it.
const MIN_RTT_SAMPLES: usize = 1000;

/// Exact counts read at the boundaries the benchmark owns, by name. Two
/// runs on one seed must produce equal lists.
pub type Counts = Vec<(&'static str, u64)>;

/// Wall-clock parts of one set-up, and how slow the host was meanwhile.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub build_s: f64,
    pub install_s: f64,
    pub warmup_s: f64,
    /// Mean of the probe passes right before and right after.
    pub slowdown: f64,
}

impl SetupTimes {
    pub fn wall_s(&self) -> f64 {
        self.build_s + self.install_s + self.warmup_s
    }

    /// The set-up's time on the reference host.
    pub fn ref_s(&self) -> f64 {
        self.wall_s() / self.slowdown
    }
}

/// Operations attempted and failed, with the reason for each failure.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one operation; `why` is only built when it failed.
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(why());
        }
    }

    /// Fails an operation already counted (a second check on it).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }
}

/// Churn bookkeeping: step cost, and which slots an event touched (a
/// touched station did not stay associated for the whole window).
#[derive(Debug, Default)]
pub struct ChurnLog {
    pub steps: u64,
    pub step_ns: u64,
    touched: Vec<bool>,
}

impl ChurnLog {
    fn touch(&mut self, ev: ChurnEvent) {
        let (ChurnEvent::Join { id } | ChurnEvent::Leave { id }) = ev;
        if id.slot() >= self.touched.len() {
            self.touched.resize(id.slot() + 1, false);
        }
        self.touched[id.slot()] = true;
    }

    fn touched(&self, slot: StationIdx) -> bool {
        self.touched.get(slot).copied().unwrap_or(false)
    }
}

/// One timed slice of a segment: the unit the host-speed probe brackets.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    pub wall_s: f64,
    pub delivered: u64,
    /// Mean of the probe passes right before and right after.
    pub slowdown: f64,
}

impl Slice {
    /// The slice's time on the reference host.
    pub fn ref_s(&self) -> f64 {
        self.wall_s / self.slowdown
    }

    /// Delivered packets per reference-host second.
    pub fn rate(&self) -> f64 {
        self.delivered as f64 / self.ref_s()
    }
}

/// One segment of the window: the unit of the steady-state check.
#[derive(Debug, Clone)]
pub struct Segment {
    pub slices: Vec<Slice>,
}

impl Segment {
    /// Time inside the simulator; the probe passes between slices are
    /// not part of it.
    pub fn wall_s(&self) -> f64 {
        self.slices.iter().map(|s| s.wall_s).sum()
    }

    pub fn delivered(&self) -> u64 {
        self.slices.iter().map(|s| s.delivered).sum()
    }

    /// Delivered packets per second as the wall clock saw it.
    pub fn wall_rate(&self) -> f64 {
        self.delivered() as f64 / self.wall_s()
    }
}

/// The simulated end-to-end metrics: exact on a fixed seed.
#[derive(Debug, Clone, PartialEq)]
pub struct SimMetrics {
    pub goodput_mbps: f64,
    pub airtime_jain: f64,
    pub sparse_rtt_p50_ms: f64,
    pub sparse_rtt_p99_ms: f64,
    pub bulk_rtt_p50_ms: f64,
    pub bulk_rtt_p99_ms: f64,
    pub sparse_samples: usize,
    pub bulk_samples: usize,
    /// Stations the Jain index is taken over.
    pub eligible: usize,
}

impl SimMetrics {
    /// `(name, unit, value)`; the units say which clock a number uses.
    pub fn named(&self) -> [(&'static str, &'static str, f64); 6] {
        [
            ("goodput_mbps", "Mbit/sim_s", self.goodput_mbps),
            ("airtime_jain", "index", self.airtime_jain),
            ("sparse_rtt_p50_ms", "sim_ms", self.sparse_rtt_p50_ms),
            ("sparse_rtt_p99_ms", "sim_ms", self.sparse_rtt_p99_ms),
            ("bulk_rtt_p50_ms", "sim_ms", self.bulk_rtt_p50_ms),
            ("bulk_rtt_p99_ms", "sim_ms", self.bulk_rtt_p99_ms),
        ]
    }
}

/// Everything one run (set-ups + window) produced.
pub struct RunOutput {
    /// The dropped set-ups followed by the one that ran the window.
    pub setups: Vec<SetupTimes>,
    pub segments: Vec<Segment>,
    pub sim: SimMetrics,
    pub peak_rss_mb: f64,
    /// Window deltas of [`observe`].
    pub counts: Counts,
    /// State after the first segment, for the twin identity.
    pub first_segment: Counts,
    /// Bytes each bulk flow had delivered when the window opened.
    pub bulk_start: Vec<u64>,
    /// Events the sink's ring had seen when the window opened.
    pub ring_events_at_start: u64,
    pub checks: Checks,
}

impl RunOutput {
    pub fn slices(&self) -> impl Iterator<Item = &Slice> {
        self.segments.iter().flat_map(|s| &s.slices)
    }

    pub fn window_wall_s(&self) -> f64 {
        self.slices().map(|s| s.wall_s).sum()
    }

    /// The window's time on the reference host.
    pub fn window_ref_s(&self) -> f64 {
        self.slices().map(Slice::ref_s).sum()
    }

    pub fn count(&self, name: &str) -> u64 {
        get(&self.counts, name)
    }
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// First quartile, median and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return [v[0]; 3];
    }
    [1, 2, 3].map(|q| {
        let pos = q as f64 * (n + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    })
}

/// Runs the simulation to `until`, applying every churn event that falls
/// due on the way (so the benchmark sees each `ChurnEvent`).
fn advance<const TIMED: bool>(
    inst: &mut Instance,
    counts: &mut TapCounts,
    churn: &mut ChurnLog,
    until: Nanos,
) {
    let mut tap = Tap::<TIMED> {
        app: &mut inst.app,
        counts,
    };
    if let Some(driver) = inst.churn.as_mut() {
        while driver.next_at() < until {
            inst.net.run(driver.next_at(), &mut tap);
            let t = TIMED.then(Instant::now);
            let ev = driver.step(&mut inst.net);
            if let Some(t) = t {
                churn.step_ns += t.elapsed().as_nanos() as u64;
            }
            churn.steps += 1;
            churn.touch(ev);
        }
    }
    inst.net.run(until, &mut tap);
}

/// One set-up: `WifiNetwork::new`, flow registration and install, warm-up.
fn setup<const TIMED: bool>(
    w: &Workload,
    cfg: &NetworkConfig,
    seeds: &Seeds,
    sink: bool,
) -> (Instance, TapCounts, ChurnLog, SetupTimes) {
    let cfg = cfg.clone();
    let t0 = Instant::now();
    let (net, tele) = w.build(cfg, sink);
    let t1 = Instant::now();
    let mut inst = w.install(net, tele, seeds);
    let t2 = Instant::now();
    let mut counts = TapCounts::default();
    let mut churn = ChurnLog::default();
    advance::<TIMED>(&mut inst, &mut counts, &mut churn, w.warmup);
    let t3 = Instant::now();
    let times = SetupTimes {
        build_s: (t1 - t0).as_secs_f64(),
        install_s: (t2 - t1).as_secs_f64(),
        warmup_s: (t3 - t2).as_secs_f64(),
        // The caller brackets the set-up with probe passes.
        slowdown: 1.0,
    };
    (inst, counts, churn, times)
}

fn flow_bytes(inst: &Instance, b: &Bulk) -> u64 {
    match b.kind {
        BulkKind::Udp => inst.app.udp(b.flow).delivered_bytes,
        BulkKind::Tcp => inst.app.tcp(b.flow).delivered_bytes(),
    }
}

/// The exact, cumulative state visible through public getters.
pub fn observe(inst: &Instance, tap: &TapCounts, churn: &ChurnLog) -> Counts {
    let net = &inst.net;
    let meters = net.meter().all();
    let sum = |f: fn(&wifiq_mac::StationMeter) -> u64| meters.iter().map(f).sum::<u64>();
    let tcp = inst
        .flows
        .bulk
        .iter()
        .filter(|b| matches!(b.kind, BulkKind::Tcp))
        .map(|b| inst.app.tcp(b.flow).sender_stats())
        .fold([0u64; 3], |acc, s| {
            [
                acc[0] + s.fast_retransmits,
                acc[1] + s.timeouts,
                acc[2] + s.segments_sent,
            ]
        });
    let pings = [inst.flows.ping_sparse, inst.flows.ping_bulk];
    let rtts = |f: fn(&[(Nanos, Nanos)]) -> u64| {
        pings
            .iter()
            .map(|&p| f(&inst.app.ping(p).rtts))
            .sum::<u64>()
    };
    let (joins, leaves) = inst.churn.as_ref().map_or((0, 0), |c| (c.joins, c.leaves));
    vec![
        ("sim.events", net.events_processed),
        ("mac.offered_pkts", tap.offered),
        ("mac.delivered_pkts", tap.delivered),
        ("traffic.timers", tap.timers),
        (
            "traffic.bulk_bytes",
            inst.flows.bulk.iter().map(|b| flow_bytes(inst, b)).sum(),
        ),
        ("traffic.rtt_samples", rtts(|r| r.len() as u64)),
        (
            "traffic.rtt_ns_sum",
            rtts(|r| r.iter().map(|&(_, rtt)| rtt.as_nanos()).sum()),
        ),
        // Meter-derived counts cover current occupants only: a churn join
        // resets its slot's meter.
        ("mac.airtime_ns", sum(|m| m.total_airtime().as_nanos())),
        ("mac.tx_aggregates_down", sum(|m| m.tx_aggregates)),
        ("mac.tx_frames_down", sum(|m| m.tx_frames)),
        ("mac.tx_failures", sum(|m| m.failures)),
        ("mac.retry_drops", sum(|m| m.retry_drops)),
        ("mac.absent_drops", net.absent_drops()),
        ("mac.churn_drops", net.churn_drops()),
        ("mac.ap_queue_drops", net.ap_queue_drops()),
        ("mac.ap_codel_drops", net.ap_codel_drops()),
        ("transport.fast_retransmits", tcp[0]),
        ("transport.timeouts", tcp[1]),
        ("transport.segments_sent", tcp[2]),
        ("scale.joins", joins),
        ("scale.leaves", leaves),
        ("scale.churn_steps", churn.steps),
    ]
}

fn get(counts: &Counts, name: &str) -> u64 {
    counts
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0, |&(_, v)| v)
}

/// `after - before`, saturating: a meter-derived entry can shrink across a
/// churn join, which resets the meter of its slot.
fn delta(after: &Counts, before: &Counts) -> Counts {
    after
        .iter()
        .zip(before)
        .map(|(&(name, a), &(_, b))| (name, a.saturating_sub(b)))
        .collect()
}

fn rtt_percentiles(inst: &Instance, flow: FlowHandle, from: Nanos) -> (f64, f64, usize) {
    let mut ms: Vec<f64> = inst
        .app
        .ping(flow)
        .rtts_after(from)
        .iter()
        .map(|r| r.as_millis_f64())
        .collect();
    ms.sort_by(f64::total_cmp);
    if ms.is_empty() {
        return (0.0, 0.0, 0);
    }
    (
        percentile_sorted(&ms, 50.0),
        percentile_sorted(&ms, 99.0),
        ms.len(),
    )
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Records one set-up and its three parts.
fn record_setup(spans: &mut Spans, start: u64, times: &SetupTimes) {
    let at = |s: f64| start + (s * 1e9) as u64;
    let built = at(times.build_s);
    let installed = at(times.build_s + times.install_s);
    let end = at(times.wall_s());
    let parent = Some(spans.push("setup", start, end, None, None, 1, end - start));
    spans.push("mac.build", start, built, parent, None, 1, built - start);
    spans.push(
        "traffic.install",
        built,
        installed,
        parent,
        None,
        1,
        installed - built,
    );
    spans.push(
        "mac.warmup",
        installed,
        end,
        parent,
        None,
        1,
        end - installed,
    );
}

/// Records one segment: the `net.run` calls it was made of, the churn
/// steps between them, the traffic callbacks under the calls, and the
/// probe passes between its slices. `busy_ns` is the time inside the
/// simulator, `start..end` includes the probe.
fn record_segment(
    spans: &mut Spans,
    k: u32,
    (start, end, busy_ns): (u64, u64, u64),
    tap: (&TapCounts, &TapCounts),
    churn: (u64, u64),
) {
    let seg = Some(k);
    let (steps, step_ns) = churn;
    let (before, after) = tap;
    let parent = Some(spans.push("segment", start, end, None, seg, 1, end - start));
    let probe_ns = (end - start).saturating_sub(busy_ns);
    spans.push(
        "host.probe",
        start,
        end,
        parent,
        seg,
        SLICES as u64,
        probe_ns,
    );
    let run_ns = busy_ns.saturating_sub(step_ns);
    let runs = steps + SLICES as u64;
    let run = Some(spans.push("mac.run", start, end, parent, seg, runs, run_ns));
    if steps > 0 {
        spans.push("scale.churn_step", start, end, parent, seg, steps, step_ns);
    }
    spans.push(
        "traffic.on_packet",
        start,
        end,
        run,
        seg,
        after.delivered - before.delivered,
        after.on_packet_ns - before.on_packet_ns,
    );
    spans.push(
        "traffic.on_timer",
        start,
        end,
        run,
        seg,
        after.timers - before.timers,
        after.on_timer_ns - before.on_timer_ns,
    );
}

/// Runs the dropped set-ups (when `reps` is set), one more that continues
/// into the timed window, and every check. A host-speed probe pass
/// brackets every set-up and every slice of the window.
///
/// `sink` attaches `Telemetry::enabled()`; `segments` limits the window
/// (the twin identity only replays the first segment); `spans` makes this
/// the traced repeat and needs `TIMED`.
pub fn run<const TIMED: bool>(
    w: &Workload,
    seeds: &Seeds,
    seconds: f64,
    sink: bool,
    reps: bool,
    segments: u32,
    mut spans: Option<&mut Spans>,
) -> (RunOutput, Instance) {
    let cfg = w.config(seeds);
    let mut probe = Probe::new();
    let mut checks = Checks::default();
    let mut setups = Vec::new();
    let mut reference: Option<Counts> = None;
    let mut kept = None;
    for rep in 0..=(if reps { SETUP_REPS } else { 0 }) {
        let before = probe.pass();
        let start = spans.as_ref().map(|s| s.now_ns());
        let (inst, tap, churn, mut times) = setup::<TIMED>(w, &cfg, seeds, sink);
        times.slowdown = (before + probe.pass()) / 2.0;
        if let (Some(spans), Some(start)) = (spans.as_deref_mut(), start) {
            record_setup(spans, start, &times);
        }
        // A set-up is an operation: it must deliver, and every repeat on
        // this seed must reach the same simulated state.
        let state = observe(&inst, &tap, &churn);
        let same = reference.as_ref().is_none_or(|r| *r == state);
        checks.op(tap.delivered > 0 && same, || {
            format!(
                "set-up {rep}: delivered {} packets, state {} the first set-up's",
                tap.delivered,
                if same { "equals" } else { "differs from" }
            )
        });
        reference.get_or_insert(state);
        setups.push(times);
        kept = Some((inst, tap, churn));
    }
    let (mut inst, mut tap, mut churn) = kept.expect("at least one set-up ran");

    // Warm-up records would blur the window's histograms; drop them.
    let mut ring_events_at_start = 0;
    if spans.is_some() {
        inst.tele.take_registry();
        ring_events_at_start = ring_events(&inst.tele);
    }
    churn.touched.clear();
    let window_start = w.warmup;
    let segment_len = w.window(seconds) / SEGMENTS as u64;
    let active_at_start: Vec<bool> = inst
        .flows
        .bulk
        .iter()
        .map(|b| inst.net.station_active(b.station))
        .collect();
    let airtime_at_start: Vec<Nanos> = inst
        .flows
        .bulk
        .iter()
        .map(|b| inst.net.station_meter(b.station).total_airtime())
        .collect();
    let bulk_start: Vec<u64> = inst
        .flows
        .bulk
        .iter()
        .map(|b| flow_bytes(&inst, b))
        .collect();
    let before = observe(&inst, &tap, &churn);

    let mut out_segments = Vec::new();
    let mut first_segment = Counts::new();
    let mut before_slice = probe.pass();
    for k in 0..segments {
        let segment_start = window_start + segment_len * k as u64;
        let (tap0, churn0) = (tap, (churn.steps, churn.step_ns));
        let start = spans.as_ref().map(|s| s.now_ns());
        let mut slices = Vec::new();
        for j in 1..=SLICES as u64 {
            let until = segment_start + segment_len * j / SLICES as u64;
            let delivered = tap.delivered;
            let t = Instant::now();
            advance::<TIMED>(&mut inst, &mut tap, &mut churn, until);
            let wall_s = t.elapsed().as_secs_f64();
            let after_slice = probe.pass();
            slices.push(Slice {
                wall_s,
                delivered: tap.delivered - delivered,
                slowdown: (before_slice + after_slice) / 2.0,
            });
            before_slice = after_slice;
        }
        let segment = Segment { slices };
        if let (Some(spans), Some(start)) = (spans.as_deref_mut(), start) {
            record_segment(
                spans,
                k,
                (start, spans.now_ns(), (segment.wall_s() * 1e9) as u64),
                (&tap0, &tap),
                (churn.steps - churn0.0, churn.step_ns - churn0.1),
            );
        }
        out_segments.push(segment);
        if k == 0 {
            first_segment = observe(&inst, &tap, &churn);
        }
    }
    let peak_rss_mb = peak_rss_mb();
    let window_end = window_start + segment_len * segments as u64;
    let after = observe(&inst, &tap, &churn);

    // Steady state: each segment is an operation.
    let delivered: Vec<f64> = out_segments.iter().map(|s| s.delivered() as f64).collect();
    let mid = median(&delivered);
    for (k, d) in delivered.iter().enumerate() {
        checks.op((d - mid).abs() <= STEADY_TOLERANCE * mid, || {
            format!("segment {k}: delivered {d} packets, median {mid}")
        });
    }

    // Eligible: carried a bulk flow and stayed associated all window.
    let mut eligible_airtime: Vec<(StationIdx, f64)> = Vec::new();
    let mut starved = Vec::new();
    for (i, b) in inst.flows.bulk.iter().enumerate() {
        if !active_at_start[i] || churn.touched(b.station) {
            continue;
        }
        if flow_bytes(&inst, b) == bulk_start[i] {
            starved.push(b.station);
        }
        if !eligible_airtime.iter().any(|&(s, _)| s == b.station) {
            let used = inst.net.station_meter(b.station).total_airtime() - airtime_at_start[i];
            eligible_airtime.push((b.station, used.as_nanos() as f64));
        }
    }

    // End-of-window audit, one operation: every packet offered since time
    // zero is delivered, dropped where a getter counts it, or still queued.
    let backlog: u64 = inst.net.ap_backlog() as u64
        + (0..inst.net.station_slots())
            .map(|s| inst.net.station_backlog(s) as u64)
            .sum::<u64>();
    let accounted = [
        "mac.delivered_pkts",
        "mac.retry_drops",
        "mac.absent_drops",
        "mac.churn_drops",
        "mac.ap_queue_drops",
        "mac.ap_codel_drops",
    ]
    .iter()
    .map(|name| get(&after, name))
    .sum::<u64>()
        + backlog;
    let offered = get(&after, "mac.offered_pkts");
    let balanced = accounted <= offered && offered - accounted <= IN_FLIGHT_SLACK;
    // FIFO uplinks hold no arena packets, so every live arena slot must be
    // a packet queued at the AP: anything more is a leaked slot.
    let leak_free = inst.net.arena_live() == inst.net.ap_backlog();
    checks.op(balanced && leak_free && starved.is_empty(), || {
        format!(
            "end of window: offered {offered}, accounted {accounted} (backlog {backlog}), \
             arena_live {} vs ap_backlog {}, bulk flows without a delivery to stations {starved:?}",
            inst.net.arena_live(),
            inst.net.ap_backlog()
        )
    });

    let window_s = (window_end - window_start).as_secs_f64();
    let shares: Vec<f64> = eligible_airtime.iter().map(|&(_, a)| a).collect();
    let (sparse_p50, sparse_p99, sparse_n) =
        rtt_percentiles(&inst, inst.flows.ping_sparse, window_start);
    let (bulk_p50, bulk_p99, bulk_n) = rtt_percentiles(&inst, inst.flows.ping_bulk, window_start);
    let counts = delta(&after, &before);
    let sim = SimMetrics {
        goodput_mbps: get(&counts, "traffic.bulk_bytes") as f64 * 8.0 / window_s / 1e6,
        airtime_jain: jain_index(&shares),
        sparse_rtt_p50_ms: sparse_p50,
        sparse_rtt_p99_ms: sparse_p99,
        bulk_rtt_p50_ms: bulk_p50,
        bulk_rtt_p99_ms: bulk_p99,
        sparse_samples: sparse_n,
        bulk_samples: bulk_n,
        eligible: shares.len(),
    };
    // A p99 needs ten samples beyond it; short `--check` windows cannot
    // hold that many pings and only need most of them answered.
    let needed = MIN_RTT_SAMPLES.min((window_s * 5.0) as usize);
    if segments == SEGMENTS && sparse_n.min(bulk_n) < needed {
        checks.fail(format!(
            "ping samples in window: sparse {sparse_n}, bulk {bulk_n}, needed {needed}"
        ));
    }

    let out = RunOutput {
        setups,
        segments: out_segments,
        sim,
        peak_rss_mb,
        counts,
        first_segment,
        bulk_start,
        ring_events_at_start,
        checks,
    };
    (out, inst)
}
