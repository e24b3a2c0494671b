//! Driving the core library directly: build your own scheduling loop on
//! top of `MacFq` + `AirtimeScheduler` without the bundled simulator.
//!
//! This is the integration surface a driver (or a different simulator)
//! would use — the same three calls the paper's ath9k patch makes:
//! enqueue, pick-next-station, charge-airtime.
//!
//! Run with: `cargo run --release --example custom_scheduler`

use ending_anomaly::codel::{CodelParams, QueuedPacket};
use ending_anomaly::core::fq::{FqParams, MacFq};
use ending_anomaly::core::packet::FqPacket;
use ending_anomaly::core::scheduler::{AirtimeParams, AirtimeScheduler};
use ending_anomaly::core::table::StationTable;
use ending_anomaly::sim::Nanos;

/// A minimal packet: 1500 bytes, one flow per station.
#[derive(Debug)]
struct Pkt {
    flow: u64,
    enqueued: Nanos,
}

impl QueuedPacket for Pkt {
    fn enqueue_time(&self) -> Nanos {
        self.enqueued
    }
    fn wire_len(&self) -> u64 {
        1500
    }
}

impl FqPacket for Pkt {
    fn flow_hash(&self) -> u64 {
        self.flow
    }
}

fn main() {
    // Two stations: station 1's transmissions cost 10x the airtime.
    let per_frame_cost = [Nanos::from_micros(110), Nanos::from_micros(1_100)];
    let be = 2; // best-effort QoS level

    let mut fq: MacFq<Pkt> = MacFq::new(FqParams::default());
    let mut sched = AirtimeScheduler::new(AirtimeParams::default());
    // The flat station table holds the hot scheduler state; the cold
    // side here is just each station's TID handle.
    let mut table = StationTable::new();
    let tids: Vec<_> = (0..2).map(|_| fq.register_tid()).collect();
    let stations: Vec<_> = (0..2)
        .map(|i| sched.register_station(&mut table, tids[i]))
        .collect();

    // A hand-rolled schedule() loop: 2000 transmission opportunities.
    // Queues are topped up with freshly-stamped packets each round, as a
    // live traffic source would; CoDel sees low sojourn times and stays
    // quiet, which keeps the demonstration about the *scheduler*.
    let codel = CodelParams::wifi_default();
    let mut airtime = [Nanos::ZERO; 2];
    let mut frames = [0u64; 2];
    let mut now = Nanos::ZERO;
    for _ in 0..2_000 {
        for sta in 0..2 {
            while fq.tid_backlog_packets(tids[sta]) < 20 {
                fq.enqueue(
                    Pkt {
                        flow: sta as u64,
                        enqueued: now,
                    },
                    tids[sta],
                    now,
                );
                sched.notify_active(&mut table, stations[sta], be);
            }
        }
        let Some(handle) = sched.next_station(&mut table, be, |sta, _| fq.tid_has_data(*sta.cold))
        else {
            break;
        };
        let sta = handle.slot();
        // "Build an aggregate": dequeue up to 10 frames for this station.
        let mut n = 0;
        while n < 10 && fq.dequeue(tids[sta], now, &codel).is_some() {
            n += 1;
        }
        let cost = per_frame_cost[sta] * n;
        sched.charge(&mut table, handle, be, cost);
        airtime[sta] += cost;
        frames[sta] += n;
        now += cost;
    }

    println!("Custom scheduling loop over the library core:\n");
    for sta in 0..2 {
        println!(
            "  station {sta}: {:>6} frames, airtime {:>10} ({:.0}%)",
            frames[sta],
            format!("{}", airtime[sta]),
            100.0 * airtime[sta].as_nanos() as f64 / (airtime[0] + airtime[1]).as_nanos() as f64
        );
    }
    println!("\nEqual airtime, a 10:1 frame ratio — deficit scheduling in ~30 lines.");
}
