//! The per-layer table of the traced run: spans and counts taken at the
//! boundaries the benchmark owns, the isolated replays, and the ledger
//! that multiplies one by the other.
//!
//! Layers are the crate / module names. Nothing here is measured inside
//! the program, so the ledger cannot sum to the whole:
//! `ledger.attributed_share` says how much of the window the from-outside
//! view explains, and the remainder is what in-program spans (ROADMAP
//! item 1) still have to close.

use wifiq_telemetry::{Label, Telemetry};

use crate::replay::{self, Shape};
use crate::run::{median, RunOutput, SetupTimes, Slice};
use crate::trace::{ring_events, Spans};
use crate::workload::{Instance, Workload, SETUP_REPS};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Histograms the stack records into, by `(component, metric)`.
const HISTS: [(&str, &str); 5] = [
    ("fq", "sojourn_ns"),
    ("fq", "occupancy_packets"),
    ("mac", "aggregate_frames"),
    ("mac", "hw_queue_depth"),
    ("tcp", "srtt_ns"),
];

/// Counters that grow by one per record.
const UNIT_COUNTERS: [(&str, &str); 7] = [
    ("fq", "enqueued"),
    ("fq", "drr_rounds"),
    ("fq", "sparse_hits"),
    ("fq", "hash_collisions"),
    ("fq", "drops"),
    ("fq", "marks"),
    ("fq", "drops_overlimit"),
];

/// Records the sink took in the window: histogram samples, ring events
/// and unit counter increments.
fn sink_records(tele: &Telemetry, events_before: u64) -> u64 {
    let registry = tele
        .with_registry(|r| {
            let hists: u64 = HISTS
                .iter()
                .filter_map(|(c, n)| r.hist_merged(c, n))
                .map(|h| h.count())
                .sum();
            let counters: u64 = UNIT_COUNTERS
                .iter()
                .map(|(c, n)| r.counter_total(c, n))
                .sum();
            hists + counters
        })
        .unwrap_or(0);
    registry + ring_events(tele) - events_before
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `model.goodput_err_pct`: simulated per-station goodput against
/// `crates/model` eqs. 1-5 fed the measured aggregation levels, as Table 1
/// does. Mean absolute error over the bulk stations, in percent.
fn model_error_pct(inst: &Instance, window_s: f64, bytes_at_start: &[u64]) -> f64 {
    use wifiq_model::{predict, ModelStation};
    let stations: Vec<ModelStation> = inst
        .flows
        .bulk
        .iter()
        .map(|b| {
            ModelStation::new(
                inst.net
                    .station_meter(b.station)
                    .mean_aggregation()
                    .max(1.0),
                inst.net.config().stations[b.station].rate,
            )
        })
        .collect();
    let errors: Vec<f64> = predict(&stations, true)
        .iter()
        .zip(&inst.flows.bulk)
        .zip(bytes_at_start)
        .map(|((p, b), &start)| {
            let bytes = inst.app.udp(b.flow).delivered_bytes - start;
            let measured = bytes as f64 * 8.0 / window_s;
            (measured - p.rate).abs() / p.rate * 100.0
        })
        .collect();
    errors.iter().sum::<f64>() / errors.len() as f64
}

/// What the host did to the untraced run: the probe's median slowdown over
/// the window, and the two host-time end-to-end metrics as the wall clock
/// saw them, before that slowdown was divided out.
pub fn host(base: &RunOutput) -> Vec<Metric> {
    let over = |f: fn(&Slice) -> f64| median(&base.slices().map(f).collect::<Vec<_>>());
    let setups: Vec<f64> = base.setups[..SETUP_REPS]
        .iter()
        .map(SetupTimes::wall_s)
        .collect();
    vec![
        m("host.slowdown", "ratio", over(|s| s.slowdown)),
        m(
            "host.pkts_per_wall_s",
            "1/s",
            over(|s| s.delivered as f64 / s.wall_s),
        ),
        m("host.setup_wall_s", "s", median(&setups)),
    ]
}

/// Builds the full per-layer table.
///
/// `base` is the untraced run (its window wall is the denominator of the
/// replay-based shares), `traced` the traced repeat with the sink on,
/// `inst` what the traced repeat left behind.
pub fn table(
    w: &Workload,
    base: &RunOutput,
    traced: &RunOutput,
    inst: &Instance,
    spans: &Spans,
    window_s: f64,
) -> Vec<Metric> {
    let tele = &inst.tele;
    let count = |name: &str| traced.count(name) as f64;
    let total =
        |c: &str, n: &str| tele.with_registry(|r| r.counter_total(c, n)).unwrap_or(0) as f64;
    let hist = |c: &str, n: &str| tele.with_registry(|r| r.hist_merged(c, n)).flatten();
    let quantile_ms = |h: &Option<wifiq_telemetry::Histogram>, q: f64| {
        h.as_ref().map_or(0.0, |h| h.quantile(q) as f64 / 1e6)
    };
    // Merging 80k per-TID histograms is not free: once per metric family.
    let sojourn = hist("fq", "sojourn_ns");

    // Spans.
    // The parts of `setup_s`: on the reference host, as it is.
    let setup = |f: fn(&SetupTimes) -> f64| {
        median(
            &base
                .setups
                .iter()
                .map(|s| f(s) / s.slowdown)
                .collect::<Vec<_>>(),
        )
    };
    let run_s = spans.busy_s("mac.run");
    let on_packet_s = spans.busy_s("traffic.on_packet");
    let on_timer_s = spans.busy_s("traffic.on_timer");
    let churn_s = spans.busy_s("scale.churn_step");
    let self_s = run_s - on_packet_s - on_timer_s;
    let base_ref = base.window_ref_s();
    let traced_wall = traced.window_wall_s();
    let events = count("sim.events");

    // Counts.
    let aggregates = hist("mac", "aggregate_frames");
    let attempts = aggregates.as_ref().map_or(0.0, |h| h.count() as f64);
    let frames = aggregates.as_ref().map_or(0.0, |h| h.sum() as f64);
    let enqueued = total("fq", "enqueued");
    let overlimit = tele.counter("fq", "drops_overlimit", Label::Global) as f64;

    // Replays, at this workload's shape.
    let shape = Shape {
        stations: inst.net.station_slots(),
        // The bulk downlink stations and the two pinged ones.
        backlogged: inst.flows.bulk.iter().filter(|b| b.down).count() + 2,
        // One pending timer or packet per flow, over ext_hotpath's floor.
        live_events: inst.flows.bulk.len() + 2 + 64,
        frames_per_aggregate: ratio(frames, attempts).round() as usize,
    };
    let replays = replay::all(&shape);
    let ns = |name: &str| {
        replays
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    };

    // Ledger: count x replay ns over the untraced window on the reference
    // host (a replay is a tight loop, which the host's neighbours barely
    // slow); the two span-measured shares over the traced wall they were
    // measured in.
    let share = |ops: f64, ns_per_op: f64| ratio(ops * ns_per_op / 1e9, base_ref);
    let sim_share = share(events, ns("sim.push_pop_ns"));
    let fq_share = share(enqueued - overlimit, ns("core.fq.pair_ns"))
        + share(overlimit, ns("core.fq.overlimit_ns"));
    let scheduler_share = share(
        count("mac.tx_aggregates_down"),
        ns("core.scheduler.round_ns"),
    );
    let aggregation_share = share(attempts, ns("mac.aggregation.build_ns"));
    let transport_share = share(count("transport.segments_sent"), ns("transport.ack_ns"));
    let telemetry_share = if w.observed {
        share(
            sink_records(tele, traced.ring_events_at_start) as f64,
            ns("telemetry.record_ns"),
        )
    } else {
        // The sink is only attached for the traced repeat here; it costs
        // the untraced window nothing.
        0.0
    };
    // Transport lives under the traffic callbacks: take it out so the sum
    // does not count it twice.
    let traffic_share = (ratio(on_packet_s + on_timer_s, traced_wall) - transport_share).max(0.0);
    let scale_share = ratio(churn_s, traced_wall);
    let attributed = sim_share
        + fq_share
        + scheduler_share
        + aggregation_share
        + transport_share
        + telemetry_share
        + traffic_share
        + scale_share;

    let mut out = vec![
        m("mac.build_s", "s", setup(|s| s.build_s)),
        m("traffic.install_s", "s", setup(|s| s.install_s)),
        m("mac.warmup_s", "s", setup(|s| s.warmup_s)),
        m("mac.run_s", "s", run_s),
        m("traffic.on_packet_s", "s", on_packet_s),
        m("traffic.on_timer_s", "s", on_timer_s),
        m(
            "traffic.calls",
            "count",
            (spans.count("traffic.on_packet") + spans.count("traffic.on_timer")) as f64,
        ),
        m("scale.churn_step_s", "s", churn_s),
        m("scale.churn_steps", "count", count("scale.churn_steps")),
        m("mac.self_s", "s", self_s),
        m("mac.self_ns_per_event", "ns", ratio(self_s * 1e9, events)),
        m(
            "trace.overhead_share",
            "ratio",
            ratio(traced.window_ref_s(), base_ref) - 1.0,
        ),
        m("sim.events", "count", events),
        m("mac.offered_pkts", "count", count("mac.offered_pkts")),
        m("mac.delivered_pkts", "count", count("mac.delivered_pkts")),
        m("mac.tx_aggregates", "count", attempts),
        m("mac.frames_per_aggregate", "count", ratio(frames, attempts)),
        m("mac.collisions", "count", total("mac", "collisions")),
        m("mac.retries", "count", total("mac", "retries")),
        m("mac.retry_drops", "count", total("mac", "retry_drops")),
        m("mac.absent_drops", "count", count("mac.absent_drops")),
        m("mac.churn_drops", "count", count("mac.churn_drops")),
        m(
            "mac.tx_success_ratio",
            "ratio",
            1.0 - ratio(count("mac.tx_failures"), attempts),
        ),
        m("core.fq.enqueued", "count", enqueued),
        m("core.fq.drops_overlimit", "count", overlimit),
        m("core.fq.drr_rounds", "count", total("fq", "drr_rounds")),
        m("core.fq.sparse_hits", "count", total("fq", "sparse_hits")),
        m(
            "core.fq.hash_collisions",
            "count",
            total("fq", "hash_collisions"),
        ),
        m(
            "core.fq.sojourn_p50_ms",
            "sim_ms",
            quantile_ms(&sojourn, 0.5),
        ),
        m(
            "core.fq.sojourn_p99_ms",
            "sim_ms",
            quantile_ms(&sojourn, 0.99),
        ),
        m(
            "core.fq.delivered_per_enqueued",
            "ratio",
            ratio(count("mac.tx_frames_down"), enqueued),
        ),
        m("codel.drops", "count", total("fq", "drops")),
        m("codel.marks", "count", total("fq", "marks")),
        m(
            "transport.fast_retransmits",
            "count",
            count("transport.fast_retransmits"),
        ),
        m("transport.timeouts", "count", count("transport.timeouts")),
        m(
            "transport.srtt_p50_ms",
            "sim_ms",
            quantile_ms(&hist("tcp", "srtt_ns"), 0.5),
        ),
        m("scale.joins", "count", count("scale.joins")),
        m("scale.leaves", "count", count("scale.leaves")),
        m(
            "model.goodput_err_pct",
            "%",
            if w.modelled {
                model_error_pct(inst, window_s, &traced.bulk_start)
            } else {
                0.0
            },
        ),
    ];
    out.extend(replays.iter().map(|&(name, v)| m(name, "ns", v)));
    out.extend([
        m("ledger.sim_share", "ratio", sim_share),
        m("ledger.core.fq_share", "ratio", fq_share),
        m("ledger.core.scheduler_share", "ratio", scheduler_share),
        m("ledger.mac.aggregation_share", "ratio", aggregation_share),
        m("ledger.transport_share", "ratio", transport_share),
        m("ledger.telemetry_share", "ratio", telemetry_share),
        m("ledger.traffic_share", "ratio", traffic_share),
        m("ledger.scale_share", "ratio", scale_share),
        m("ledger.attributed_share", "ratio", attributed),
    ]);
    out.extend(host(base));
    out
}
