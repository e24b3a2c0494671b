//! Property tests for the one queue type, under both of its uses: the
//! AP's strict-priority `dequeue` and a client's per-band `pop`.

use proptest::prelude::*;
use wifiq_codel::QueuedPacket;
use wifiq_core::packet::FqPacket;
use wifiq_qdisc::{Qdisc, BANDS};
use wifiq_sim::Nanos;

#[derive(Debug, Clone)]
struct Pkt {
    flow: u64,
    band: usize,
    t: Nanos,
}

impl QueuedPacket for Pkt {
    fn enqueue_time(&self) -> Nanos {
        self.t
    }
    fn wire_len(&self) -> u64 {
        1000
    }
}

impl FqPacket for Pkt {
    fn flow_hash(&self) -> u64 {
        self.flow
    }
}

/// Takes the next packet the way the AP does (`dequeue`) or the way a
/// client does (`pop`, trying the bands in order), counting CoDel's
/// victims into `victims`.
fn next(q: &mut Qdisc<Pkt>, per_band: bool, now: Nanos, victims: &mut u64) -> Option<Pkt> {
    let mut on_drop = |_: Pkt| *victims += 1;
    if per_band {
        (0..BANDS).find_map(|band| {
            let pkt = q.pop(band, now, &mut on_drop);
            if let Some(p) = &pkt {
                assert_eq!(p.band, band, "popped from another band");
            }
            pkt
        })
    } else {
        q.dequeue(now, on_drop)
    }
}

proptest! {
    /// FIFO bands never exceed their limit and each keeps FIFO order,
    /// whichever way it is drained.
    #[test]
    fn pfifo_invariants(
        limit in 1usize..64,
        per_band in proptest::bool::ANY,
        arrivals in proptest::collection::vec((0..BANDS, 0u64..100), 1..200)
    ) {
        let mut q = Qdisc::fifo();
        let mut accepted = vec![Vec::new(); BANDS];
        for (i, &(band, flow)) in arrivals.iter().enumerate() {
            let pkt = Pkt { flow, band, t: Nanos::from_nanos(i as u64) };
            if q.enqueue(pkt, band, limit, Nanos::ZERO).is_none() {
                accepted[band].push(i as u64);
            }
            let Qdisc::Fifo(bands) = &q else { unreachable!() };
            prop_assert!(bands.iter().all(|b| b.len() <= limit));
        }
        let mut popped = vec![Vec::new(); BANDS];
        let mut victims = 0;
        while let Some(p) = next(&mut q, per_band, Nanos::ZERO, &mut victims) {
            popped[p.band].push(p.t.as_nanos());
        }
        prop_assert_eq!(popped, accepted, "FIFO order violated");
        prop_assert_eq!(victims, 0);
    }

    /// A higher-priority band always drains before a lower one,
    /// regardless of arrival order, in FIFO bands and in a client FQ's
    /// TIDs alike.
    #[test]
    fn pfifo_fast_strict_priority(
        fq in proptest::bool::ANY,
        per_band in proptest::bool::ANY,
        arrivals in proptest::collection::vec((0..BANDS, 0u64..50), 1..150)
    ) {
        let mut q = if fq { Qdisc::client_fq() } else { Qdisc::fifo() };
        for (i, &(band, flow)) in arrivals.iter().enumerate() {
            let pkt = Pkt { flow, band, t: Nanos::from_nanos(i as u64) };
            prop_assert!(q.enqueue(pkt, band, 1000, Nanos::ZERO).is_none());
        }
        let mut last_band = 0usize;
        let mut victims = 0;
        while let Some(p) = next(&mut q, per_band, Nanos::ZERO, &mut victims) {
            // Bands may only increase across the drain (strict priority
            // with no concurrent arrivals).
            prop_assert!(p.band >= last_band, "band {} after {}", p.band, last_band);
            last_band = p.band;
        }
        prop_assert!(q.is_empty());
    }

    /// An FQ conserves packets under arbitrary interleavings, with one
    /// TID shared by every band (the FQ-CoDel qdisc) or a TID per band (a
    /// client FQ), drained either way: every packet accepted is
    /// delivered, handed to the drop sink by CoDel, or still queued.
    #[test]
    fn fq_codel_conserves(
        one_tid in proptest::bool::ANY,
        per_band in proptest::bool::ANY,
        ops in proptest::collection::vec((0u64..16, 0..BANDS, proptest::bool::ANY), 1..300)
    ) {
        let mut q = if one_tid { Qdisc::fq_codel() } else { Qdisc::client_fq() };
        let mut now = Nanos::ZERO;
        let (mut accepted, mut delivered, mut victims) = (0u64, 0u64, 0u64);
        for (flow, band, deq) in ops {
            now += Nanos::from_micros(200);
            if deq {
                if next(&mut q, per_band, now, &mut victims).is_some() {
                    delivered += 1;
                }
            } else {
                // Bands sharing the one TID all pop from it: band 0 first.
                let pkt = Pkt { flow, band: if one_tid { 0 } else { band }, t: now };
                if q.enqueue(pkt, band, 0, now).is_none() {
                    accepted += 1;
                }
            }
            prop_assert_eq!(q.len(), q.arena_live());
        }
        let queued = q.len() as u64;
        prop_assert_eq!(accepted, delivered + victims + queued, "packets lost or duplicated");
        while next(&mut q, per_band, now, &mut victims).is_some() {
            delivered += 1;
        }
        prop_assert_eq!(accepted, delivered + victims, "the drain lost a packet");
        prop_assert_eq!(victims, q.codel_drops(), "a CoDel victim missed the sink");
        prop_assert_eq!(q.arena_live(), 0);
    }
}
