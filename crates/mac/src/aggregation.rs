//! A-MPDU aggregate construction.
//!
//! An aggregate is built by pulling packets from a queue until one of the
//! three limits binds: the 64-MPDU BlockAck window, the 65 535-byte A-MPDU
//! length cap, or the 4 ms airtime cap (which is what keeps a slow
//! station's aggregates to ~2 full-size frames — the paper's measured 1.89
//! mean for the MCS0 station). A packet pulled past a limit is handed back
//! to the caller to lead the next aggregate (the `retry_q` slot in
//! Figure 3).

use wifiq_core::packet::QueuedPacket;
use wifiq_phy::consts::{self, MAX_AGGREGATE_AIRTIME};
use wifiq_phy::timing;
use wifiq_phy::{AccessCategory, PhyRate};
use wifiq_sim::Nanos;

use crate::packet::StationIdx;
use crate::ratectrl::Minstrel;

/// A built transmission unit: one A-MPDU (or one plain MPDU for
/// non-aggregating categories/rates), fixed across retries.
///
/// `F` is whatever stands for a frame: the simulator's aggregates hold
/// [`Ticket`](crate::packet::Ticket)s, and any [`QueuedPacket`] — a whole
/// [`Packet`](crate::packet::Packet) included — builds one the same way.
#[derive(Debug)]
pub struct Aggregate<F> {
    /// The MPDUs, in order.
    pub frames: Vec<F>,
    /// The wireless peer (destination for downlink, source for uplink).
    pub station: StationIdx,
    /// Access category the aggregate is queued under.
    pub ac: AccessCategory,
    /// PHY rate it will be sent at.
    pub rate: PhyRate,
    /// On-air duration of the data PPDU (preamble + payload).
    pub data_duration: Nanos,
    /// Duration of the acknowledgement (BlockAck or legacy ACK frame).
    pub ack_duration: Nanos,
    /// Whether this is a true A-MPDU (BlockAck) or a plain MPDU (ACK).
    pub aggregated: bool,
    /// Times this aggregate has been (re)transmitted unsuccessfully.
    pub retries: u32,
}

impl<F: QueuedPacket> Aggregate<F> {
    /// The medium time one transmission attempt occupies:
    /// data + SIFS + acknowledgement. This is the airtime charged to the
    /// station's scheduler deficit and meter (per attempt — retries are
    /// charged again, per §3.2: "including any retries").
    pub fn exchange_airtime(&self) -> Nanos {
        self.data_duration + consts::SIFS + self.ack_duration
    }

    /// Total payload bytes carried.
    pub fn payload_bytes(&self) -> u64 {
        self.frames.iter().map(|f| f.wire_len()).sum()
    }

    /// Re-tunes the aggregate to a new (usually lower) rate for a retry,
    /// recomputing its on-air durations — the rate-chain behaviour of
    /// real drivers. Refused (returns `false`) if the retuned data PPDU
    /// would exceed twice the aggregate airtime cap: a 42-frame A-MPDU
    /// replayed at MCS0 would monopolise the medium for tens of
    /// milliseconds, which no driver would do (they re-form aggregates
    /// instead; we keep the frames together and bound the damage).
    pub fn retune(&mut self, rate: PhyRate) -> bool {
        let new_data = if self.aggregated {
            let bytes: u64 = self
                .frames
                .iter()
                .map(|f| consts::subframe_len(f.wire_len()))
                .sum();
            rate.data_duration(bytes)
        } else {
            timing::frame_duration(self.frames[0].wire_len(), rate)
        };
        if self.frames.len() > 1 && new_data > MAX_AGGREGATE_AIRTIME * 2 {
            return false;
        }
        self.rate = rate;
        self.data_duration = new_data;
        self.ack_duration = if self.aggregated {
            timing::block_ack_duration(rate)
        } else {
            timing::ack_duration(rate)
        };
        true
    }

    /// Moves the 802.11 retry chain one step after an attempt — the one
    /// place it is written, for the AP's hardware queues and the stations'
    /// uplinks alike. `cw` is the transmitter's contention window for this
    /// access category, `rc` its rate controller. A failed attempt counts
    /// a retry, doubles the window and, under rate control, steps the
    /// retry rate down the ladder (real drivers' MRR series). Returns
    /// whether the transmitter is done with the aggregate — acknowledged,
    /// or past `max_retries` and to be dropped — and the window reset.
    pub(crate) fn after_attempt(
        &mut self,
        success: bool,
        cw: &mut u32,
        rc: Option<&Minstrel>,
        max_retries: u32,
    ) -> bool {
        let edca = self.ac.edca();
        if !success {
            self.retries += 1;
            if let Some(rc) = rc {
                let lower = rc.lower_rate(self.rate);
                if lower != self.rate {
                    self.retune(lower);
                }
            }
            if self.retries <= max_retries {
                *cw = edca.next_cw(*cw);
                return false;
            }
        }
        *cw = edca.cw_min;
        true
    }
}

/// What [`build_aggregate_into`] produced: the aggregate on success, or
/// the untouched (still-empty) frame buffer handed back for re-pooling,
/// plus an over-size packet the caller must stash and offer first next
/// time.
pub type BuildOutcome<F> = (Result<Aggregate<F>, Vec<F>>, Option<F>);

/// Builds an aggregate for `station` at `rate` under `ac`, pulling packets
/// from `next` into `frames`, a caller-supplied buffer so hot paths can
/// recycle its allocation across aggregates instead of allocating one per
/// A-MPDU. `frames` must be empty; its capacity is kept. If no packet was
/// available the buffer is handed back in the `Err` variant for the
/// caller to pool.
pub fn build_aggregate_into<F: QueuedPacket>(
    station: StationIdx,
    ac: AccessCategory,
    rate: PhyRate,
    mut frames: Vec<F>,
    mut next: impl FnMut() -> Option<F>,
) -> BuildOutcome<F> {
    debug_assert!(frames.is_empty(), "recycled frame buffer not drained");
    let may_aggregate = ac.edca().may_aggregate && rate.supports_aggregation();
    let mut ampdu_bytes: u64 = 0;
    let mut stash = None;

    loop {
        if !may_aggregate && frames.len() == 1 {
            break;
        }
        if frames.len() >= consts::BA_WINDOW {
            break;
        }
        let Some(pkt) = next() else { break };
        let sub = consts::subframe_len(pkt.wire_len());
        if !frames.is_empty() {
            let grown = ampdu_bytes + sub;
            if grown > rate.max_ampdu_bytes() || rate.data_duration(grown) > MAX_AGGREGATE_AIRTIME {
                stash = Some(pkt);
                break;
            }
        }
        ampdu_bytes += sub;
        frames.push(pkt);
    }

    if frames.is_empty() {
        return (Err(frames), stash);
    }

    let (data_duration, ack_duration) = if may_aggregate {
        // A-MPDU framing with a BlockAck, even for a single MPDU — this
        // matches the paper's model, which applies the per-MPDU delimiter
        // and BlockAck overhead at every aggregation level (eq. 1 with
        // n = 1).
        (
            rate.data_duration(ampdu_bytes),
            timing::block_ack_duration(rate),
        )
    } else {
        let l = frames[0].wire_len();
        (timing::frame_duration(l, rate), timing::ack_duration(rate))
    };

    (
        Ok(Aggregate {
            frames,
            station,
            ac,
            rate,
            data_duration,
            ack_duration,
            aggregated: may_aggregate,
            retries: 0,
        }),
        stash,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{NodeAddr, Packet};

    fn pkt(len: u64) -> Packet<()> {
        Packet {
            id: 0,
            src: NodeAddr::Server,
            dst: NodeAddr::Station(0),
            flow: 1,
            len,
            ac: AccessCategory::Be,
            created: Nanos::ZERO,
            enqueued: Nanos::ZERO,
            payload: (),
        }
    }

    fn source(mut n: usize, len: u64) -> impl FnMut() -> Option<Packet<()>> {
        move || {
            if n == 0 {
                None
            } else {
                n -= 1;
                Some(pkt(len))
            }
        }
    }

    #[test]
    fn empty_source_builds_nothing() {
        let (agg, stash) = build_aggregate_into(
            0,
            AccessCategory::Be,
            PhyRate::fast_station(),
            Vec::new(),
            source(0, 1500),
        );
        assert!(agg.is_err());
        assert!(stash.is_none());
    }

    #[test]
    fn fast_station_fills_to_byte_cap() {
        // 100 packets available; the 65535-byte cap binds at 42 subframes
        // of 1544 bytes.
        let (agg, stash) = build_aggregate_into(
            0,
            AccessCategory::Be,
            PhyRate::fast_station(),
            Vec::new(),
            source(100, 1500),
        );
        let agg = agg.unwrap();
        assert_eq!(agg.frames.len(), 42);
        assert!(stash.is_some(), "the 43rd packet is handed back");
        assert!(agg.aggregated);
        assert!(agg.data_duration <= MAX_AGGREGATE_AIRTIME);
    }

    #[test]
    fn slow_station_airtime_cap_binds_at_two_frames() {
        let (agg, stash) = build_aggregate_into(
            0,
            AccessCategory::Be,
            PhyRate::slow_station(),
            Vec::new(),
            source(100, 1500),
        );
        let agg = agg.unwrap();
        assert_eq!(
            agg.frames.len(),
            2,
            "4 ms cap allows 2 × 1544 B at 7.2 Mbps"
        );
        assert!(stash.is_some());
    }

    #[test]
    fn small_packets_hit_blockack_window() {
        let (agg, _) = build_aggregate_into(
            0,
            AccessCategory::Be,
            PhyRate::fast_station(),
            Vec::new(),
            source(200, 100),
        );
        assert_eq!(agg.unwrap().frames.len(), consts::BA_WINDOW);
    }

    #[test]
    fn vo_never_aggregates() {
        let (agg, stash) = build_aggregate_into(
            0,
            AccessCategory::Vo,
            PhyRate::fast_station(),
            Vec::new(),
            source(10, 300),
        );
        let agg = agg.unwrap();
        assert_eq!(agg.frames.len(), 1);
        assert!(!agg.aggregated);
        // The builder must not have consumed a second packet.
        assert!(stash.is_none());
    }

    #[test]
    fn legacy_rate_never_aggregates() {
        use wifiq_phy::LegacyRate;
        let (agg, _) = build_aggregate_into(
            0,
            AccessCategory::Be,
            PhyRate::Legacy(LegacyRate::Dsss1),
            Vec::new(),
            source(10, 1500),
        );
        let agg = agg.unwrap();
        assert_eq!(agg.frames.len(), 1);
        assert!(!agg.aggregated);
        // A 1500-byte frame at 1 Mbps takes ~12.5 ms — allowed for a
        // single frame despite exceeding the aggregate cap.
        assert!(agg.data_duration > MAX_AGGREGATE_AIRTIME);
    }

    #[test]
    fn exchange_airtime_includes_sifs_and_ack() {
        let (agg, _) = build_aggregate_into(
            0,
            AccessCategory::Be,
            PhyRate::fast_station(),
            Vec::new(),
            source(5, 1500),
        );
        let agg = agg.unwrap();
        assert_eq!(
            agg.exchange_airtime(),
            agg.data_duration + consts::SIFS + agg.ack_duration
        );
        assert_eq!(agg.payload_bytes(), 5 * 1500);
    }

    #[test]
    fn recycled_buffer_is_reused_and_returned_when_empty() {
        // A buffer with capacity goes in; the aggregate's frames Vec must
        // be the same allocation (no realloc for a small aggregate).
        let buf: Vec<Packet<()>> = Vec::with_capacity(64);
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        let (agg, _) = build_aggregate_into(
            0,
            AccessCategory::Be,
            PhyRate::fast_station(),
            buf,
            source(5, 1500),
        );
        let agg = agg.expect("packets available");
        assert_eq!(agg.frames.len(), 5);
        assert_eq!(agg.frames.capacity(), cap);
        assert_eq!(agg.frames.as_ptr(), ptr);
        // An empty source hands the buffer back via Err for pooling.
        let buf: Vec<Packet<()>> = Vec::with_capacity(64);
        let cap = buf.capacity();
        let (agg, stash) = build_aggregate_into(
            0,
            AccessCategory::Be,
            PhyRate::fast_station(),
            buf,
            source(0, 1500),
        );
        let buf = agg.expect_err("no packets: buffer returned");
        assert_eq!(buf.capacity(), cap);
        assert!(stash.is_none());
    }

    #[test]
    fn single_available_packet_still_aggregates_with_blockack() {
        let (agg, _) = build_aggregate_into(
            0,
            AccessCategory::Be,
            PhyRate::fast_station(),
            Vec::new(),
            source(1, 1500),
        );
        let agg = agg.unwrap();
        assert_eq!(agg.frames.len(), 1);
        assert!(agg.aggregated, "HT single frame still uses A-MPDU + BA");
    }
}
