//! Isolated replays: one layer's public API driven alone, at the shape of
//! the workload (station count, backlogged TIDs, live events, frames per
//! aggregate), in nanoseconds per operation.
//!
//! Each figure is the median of five passes after one discarded pass
//! (the first pass of a case pays the page faults and cache displacement
//! of whatever ran before it). A replay measures the layer without its
//! callers' cache pressure, so `count x ns` is a floor on the layer's
//! share of the window, not a measurement of it.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use wifiq_codel::CodelParams;
use wifiq_core::fq::{FqParams, MacFq};
use wifiq_core::scheduler::{AirtimeParams, AirtimeScheduler};
use wifiq_core::table::StationTable;
use wifiq_mac::aggregation::build_aggregate_into;
use wifiq_mac::{NetworkConfig, NodeAddr, Packet, SchemeKind, StationCfg, WifiNetwork};
use wifiq_phy::{timing, AccessCategory, PhyRate};
use wifiq_sim::{EventQueue, Nanos};
use wifiq_telemetry::{EventKind, Label, Telemetry};
use wifiq_transport::{TcpReceiver, TcpSender};

use crate::run::median;

/// The workload properties the replays are sized from.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Stations in the roster.
    pub stations: usize,
    /// Stations with downlink traffic queued at the AP (TIDs in use).
    pub backlogged: usize,
    /// Events pending in the queue at any time (one periodic timer per
    /// open-loop flow plus packets on the wire).
    pub live_events: usize,
    /// Mean frames per aggregate the traced run measured.
    pub frames_per_aggregate: usize,
}

const PASSES: usize = 5;

/// Median ns/op of `PASSES` passes after a discarded one.
fn measure(mut pass: impl FnMut() -> f64) -> f64 {
    pass();
    let passes: Vec<f64> = (0..PASSES).map(|_| pass()).collect();
    median(&passes)
}

/// Times `ops` calls of `op`.
fn per_op(ops: u64, mut op: impl FnMut(u64)) -> f64 {
    let start = Instant::now();
    for i in 0..ops {
        op(i);
    }
    start.elapsed().as_nanos() as f64 / ops as f64
}

fn pkt(flow: u64, id: u64, t: Nanos) -> Packet<()> {
    Packet {
        id,
        src: NodeAddr::Server,
        dst: NodeAddr::Station(flow as usize),
        flow,
        len: 1500,
        ac: AccessCategory::Be,
        created: t,
        enqueued: t,
        payload: (),
    }
}

/// Deterministic jitter in `[0, range)`.
fn jitter(i: u64, range: u64) -> u64 {
    i.wrapping_mul(2_654_435_761) % range
}

/// One pop and one out-of-order push with `live` events pending.
fn sim_push_pop(s: &Shape) -> f64 {
    let live = s.live_events as u64;
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..live {
        q.push(Nanos::from_nanos(i * 1_000), i);
    }
    per_op(400_000, |i| {
        let (t, _) = q.pop().expect("queue kept non-empty");
        black_box(q.push(t + Nanos::from_nanos(jitter(i, live * 2_000) + 1), i));
    })
}

/// Per event drained by `pop_tick` from ticks of four co-timed events.
fn sim_pop_tick(s: &Shape) -> f64 {
    const BURST: u64 = 4;
    let ticks = (s.live_events as u64).div_ceil(BURST);
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..ticks * BURST {
        q.push(Nanos::from_nanos((i / BURST + 1) * 1_000), i);
    }
    let mut out = Vec::new();
    per_op(100_000, |_| {
        let now = q
            .pop_tick(Nanos::MAX, &mut out)
            .expect("queue kept non-empty");
        for ev in out.drain(..) {
            q.push(now + Nanos::from_nanos(ticks * 1_000), ev);
        }
    }) / BURST as f64
}

fn new_fq(flows: usize, limit: usize) -> MacFq<Packet<()>> {
    MacFq::new(FqParams {
        flows,
        limit,
        ..FqParams::default()
    })
}

/// One enqueue + one dequeue, round-robin over the backlogged TIDs.
fn fq_pair(s: &Shape) -> f64 {
    let mut fq = new_fq(4096, 16384);
    let tids: Vec<_> = (0..s.backlogged.max(1))
        .map(|_| fq.register_tid())
        .collect();
    let params = CodelParams::wifi_default();
    const BATCH: u64 = 1024;
    let mut id = 0u64;
    per_op(200, |r| {
        for k in 0..BATCH {
            let i = ((r * BATCH + k) % tids.len() as u64) as usize;
            id += 1;
            let now = Nanos::from_nanos(id);
            fq.enqueue(pkt(i as u64, id, now), tids[i], now);
        }
        for k in 0..BATCH {
            let i = ((r * BATCH + k) % tids.len() as u64) as usize;
            black_box(fq.dequeue(tids[i], Nanos::from_nanos(id), &params));
        }
    }) / BATCH as f64
}

/// One enqueue into a structure pinned at its global limit: every call
/// ends in a drop from the longest queue (Algorithm 1's eviction).
fn fq_overlimit(_: &Shape) -> f64 {
    const DISTINCT: u64 = 256;
    let mut fq = new_fq(1024, 256);
    let tid = fq.register_tid();
    let now = Nanos::ZERO;
    for i in 0..256 {
        fq.enqueue(pkt(i % DISTINCT, i, now), tid, now);
    }
    per_op(200_000, |i| {
        black_box(fq.enqueue(pkt(i % DISTINCT, 256 + i, now), tid, now));
    })
}

/// One airtime-DRR round: pick the next station, charge it an aggregate.
fn scheduler_round(s: &Shape) -> f64 {
    let ac = AccessCategory::Be.index();
    let mut table: StationTable<()> = StationTable::with_capacity(s.stations);
    let mut sched = AirtimeScheduler::new(AirtimeParams::default());
    let ids: Vec<_> = (0..s.stations)
        .map(|_| sched.register_station(&mut table, ()))
        .collect();
    let step = (s.stations / s.backlogged.max(1)).max(1);
    for id in ids.iter().step_by(step) {
        sched.notify_active(&mut table, *id, ac);
    }
    per_op(200_000, |_| {
        let sta = sched
            .next_station(&mut table, ac, |_, _| true)
            .expect("backlogged stations stay listed");
        sched.charge(&mut table, sta, ac, Nanos::from_micros(500));
    })
}

/// One free + one alloc in a full station table.
fn table_alloc_free(s: &Shape) -> f64 {
    let mut table: StationTable<u32> = StationTable::with_capacity(s.stations);
    let mut ids: Vec<_> = (0..s.stations).map(|i| table.alloc(i as u32)).collect();
    per_op(200_000, |i| {
        let k = jitter(i, ids.len() as u64) as usize;
        let cold = table.free(ids[k]);
        ids[k] = table.alloc(black_box(cold));
    })
}

/// One A-MPDU built from `frames_per_aggregate` queued frames.
fn aggregation_build(s: &Shape) -> f64 {
    let frames = s.frames_per_aggregate.max(1);
    let rate = PhyRate::fast_station();
    let mut buf = Vec::with_capacity(64);
    per_op(100_000, |i| {
        let mut left = frames;
        let (built, stash) = build_aggregate_into(
            0,
            AccessCategory::Be,
            rate,
            std::mem::take(&mut buf),
            || {
                left = left.checked_sub(1)?;
                Some(pkt(0, i, Nanos::ZERO))
            },
        );
        let mut agg = built.expect("a frame was offered");
        black_box((agg.data_duration, stash));
        agg.frames.clear();
        buf = agg.frames;
    })
}

/// One `remove_station` + one `add_station` on a live roster.
fn add_remove_station(s: &Shape) -> f64 {
    let rate = PhyRate::fast_station();
    let mut net: WifiNetwork<()> = WifiNetwork::new(
        NetworkConfig::builder()
            .scheme(SchemeKind::AirtimeFair)
            .stations_at(s.stations, rate)
            .build(),
    );
    per_op(2_000, |i| {
        let slot = jitter(i, s.stations as u64) as usize;
        let id = net.sta_id(slot).expect("every slot stays occupied");
        net.remove_station(id);
        black_box(net.add_station(StationCfg::clean(rate)));
    })
}

/// One data segment carried through `TcpReceiver::on_data` and the ACK it
/// causes through `TcpSender::on_ack` (a loss-free ack-clocked transfer).
fn transport_ack(_: &Shape) -> f64 {
    let mut tx = TcpSender::bulk();
    let mut rx = TcpReceiver::new();
    let mut now = Nanos::from_millis(1);
    let mut wire: VecDeque<_> = tx.start(now).segments.into();
    per_op(200_000, |_| {
        now += Nanos::from_micros(100);
        let seg = wire.pop_front().expect("ack clock keeps the wire busy");
        let ack = match rx.on_data(&seg, now).ack {
            Some(ack) => Some(ack),
            None if wire.is_empty() => rx.on_delack_timer(now),
            None => None,
        };
        if let Some(ack) = ack {
            wire.extend(tx.on_ack(&ack, now + Nanos::from_millis(1)).segments);
        }
    })
}

/// One sink record, averaged over the four kinds the stack emits: a
/// pre-resolved counter add, a pre-resolved histogram record, a keyed
/// counter add and a ring event.
fn telemetry_record(s: &Shape) -> f64 {
    let tele = Telemetry::enabled();
    let counter = tele.counter_handle("fq", "enqueued", Label::Tid(0));
    let hist = tele.hist_handle("fq", "sojourn_ns", Label::Tid(0));
    let stations = s.stations as u64;
    per_op(100_000, |i| {
        let sta = jitter(i, stations) as u32;
        counter.add(1);
        hist.record(1_000 + i % 100_000);
        tele.count("mac", "tx_airtime_ns", Label::Station(sta), 300_000);
        tele.event(
            Nanos::from_nanos(i),
            "mac",
            EventKind::Tx {
                station: sta,
                ac: 2,
                frames: 8,
                bytes: 12_000,
                airtime: Nanos::from_micros(300),
                uplink: false,
                success: true,
                retry: false,
            },
        );
    }) / 4.0
}

/// One `exchange_duration` evaluation.
fn phy_exchange_duration(_: &Shape) -> f64 {
    let rate = PhyRate::fast_station();
    per_op(1_000_000, |i| {
        black_box(timing::exchange_duration(black_box(i % 64 + 1), 1500, rate));
    })
}

/// One replay: ns per operation at a shape.
type Case = fn(&Shape) -> f64;

/// Every replay, by per-layer metric name.
pub fn all(shape: &Shape) -> Vec<(&'static str, f64)> {
    let cases: [(&'static str, Case); 11] = [
        ("sim.push_pop_ns", sim_push_pop),
        ("sim.pop_tick_ns", sim_pop_tick),
        ("core.fq.pair_ns", fq_pair),
        ("core.fq.overlimit_ns", fq_overlimit),
        ("core.scheduler.round_ns", scheduler_round),
        ("core.table.alloc_free_ns", table_alloc_free),
        ("mac.aggregation.build_ns", aggregation_build),
        ("mac.add_remove_station_ns", add_remove_station),
        ("transport.ack_ns", transport_ack),
        ("telemetry.record_ns", telemetry_record),
        ("phy.exchange_duration_ns", phy_exchange_duration),
    ];
    cases
        .into_iter()
        .map(|(name, case)| (name, measure(|| case(shape))))
        .collect()
}
