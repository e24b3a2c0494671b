//! The queue of the unmodified stacks: the qdisc layer above the MAC in
//! Figure 2, and an unmodified client's uplink queueing.
//!
//! A [`Qdisc`] has [`BANDS`] bands, one per access category, in one of two
//! shapes:
//!
//! - [`Qdisc::Fifo`] — a tail-drop FIFO per band. The AP's "FIFO" scheme
//!   is the Linux default `pfifo_fast`: three strict-priority bands of
//!   1000 packets, served by [`Qdisc::dequeue`]. A stock client keeps one
//!   FIFO per access category and serves each with [`Qdisc::pop`].
//! - [`Qdisc::Fq`] — the MAC FQ structure from `wifiq-core` under CoDel,
//!   a TID per band. The AP's "FQ-CoDel" scheme is the FQ-CoDel qdisc
//!   ([`Qdisc::fq_codel`]): every band shares one TID, with wired-link
//!   defaults (1024 flows, 5 ms target, 100 ms interval, 10240-packet
//!   limit). The paper's MAC queueing *is* FQ-CoDel generalised to many
//!   TIDs, so one TID recovers the classic qdisc. A client running the
//!   paper's structure ("WiFi client devices can also benefit") has a TID
//!   per access category ([`Qdisc::client_fq`]).
//!
//! Under the FQ-MAC and Airtime schemes, the AP bypasses the qdisc layer
//! entirely (Figure 3: "Qdisc layer (bypassed)").

use std::collections::VecDeque;

use wifiq_codel::CodelParams;
use wifiq_core::fq::{FqParams, MacFq};
use wifiq_core::packet::FqPacket;
use wifiq_core::table::TidId;
use wifiq_sim::Nanos;

/// Bands of a [`Qdisc`]: one per access category, band 0 served first.
pub const BANDS: usize = 4;

/// A queue of the unmodified stack (see the crate docs).
#[derive(Debug)]
pub enum Qdisc<P> {
    /// A tail-drop FIFO per band.
    Fifo([VecDeque<P>; BANDS]),
    /// The MAC FQ structure under `codel`; band `b` queues at `tids[b]`.
    /// Boxed: hundreds of bytes of flow state, which inline would grow
    /// every FIFO the size of the FQ.
    Fq {
        /// The flow queues.
        fq: Box<MacFq<P>>,
        /// Each band's TID; bands may share one.
        tids: [TidId; BANDS],
        /// The CoDel parameters every TID dequeues under.
        codel: CodelParams,
    },
}

impl<P: FqPacket> Qdisc<P> {
    /// Empty tail-drop FIFOs.
    pub fn fifo() -> Qdisc<P> {
        Qdisc::Fifo(Default::default())
    }

    /// The FQ-CoDel qdisc with the Linux defaults: 1024 flows,
    /// 10240-packet limit, quantum 1514 bytes, CoDel target 5 ms /
    /// interval 100 ms. Every band maps to its one TID.
    pub fn fq_codel() -> Qdisc<P> {
        let mut fq = Box::new(MacFq::new(FqParams {
            flows: 1024,
            limit: 10_240,
            quantum: 1514,
            ..FqParams::default()
        }));
        let tids = [fq.register_tid(); BANDS];
        let codel = CodelParams::wired_default();
        Qdisc::Fq { fq, tids, codel }
    }

    /// The paper's MAC FQ structure on a client: a TID per band, the
    /// default FQ parameters and WiFi CoDel.
    pub fn client_fq() -> Qdisc<P> {
        let mut fq = Box::new(MacFq::new(FqParams::default()));
        let tids = [(); BANDS].map(|()| fq.register_tid());
        let codel = CodelParams::wifi_default();
        Qdisc::Fq { fq, tids, codel }
    }

    /// Queues `pkt` in `band`, returning the packet dropped to make room:
    /// `pkt` itself at a FIFO band already holding `limit` packets, or
    /// the FQ's longest-queue victim on overlimit (the FQ keeps its own
    /// limit) — "one packet was dropped here", not necessarily the
    /// offered one. `now` is the FQ's enqueue time.
    pub fn enqueue(&mut self, pkt: P, band: usize, limit: usize, now: Nanos) -> Option<P> {
        match self {
            Qdisc::Fifo(bands) => {
                let q = &mut bands[band];
                if q.len() >= limit {
                    return Some(pkt);
                }
                q.push_back(pkt);
                None
            }
            Qdisc::Fq { fq, tids, .. } => fq.enqueue(pkt, tids[band], now),
        }
    }

    /// Whether `band` holds a packet.
    #[inline]
    pub fn has(&self, band: usize) -> bool {
        match self {
            Qdisc::Fifo(bands) => !bands[band].is_empty(),
            Qdisc::Fq { fq, tids, .. } => fq.tid_has_data(tids[band]),
        }
    }

    /// The next packet of `band`; CoDel's victims on the way go to
    /// `on_drop`.
    pub fn pop(&mut self, band: usize, now: Nanos, on_drop: impl FnMut(P)) -> Option<P> {
        match self {
            Qdisc::Fifo(bands) => bands[band].pop_front(),
            Qdisc::Fq { fq, tids, codel } => fq.dequeue_with(tids[band], now, codel, on_drop),
        }
    }

    /// Strict priority: the next packet of the first band that yields
    /// one. CoDel's victims on the way go to `on_drop`.
    pub fn dequeue(&mut self, now: Nanos, mut on_drop: impl FnMut(P)) -> Option<P> {
        (0..BANDS).find_map(|band| self.pop(band, now, &mut on_drop))
    }

    /// Packets queued.
    pub fn len(&self) -> usize {
        match self {
            Qdisc::Fifo(bands) => bands.iter().map(VecDeque::len).sum(),
            Qdisc::Fq { fq, .. } => fq.total_packets(),
        }
    }

    /// True if no packets are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Live packets in the FQ's arena: [`Qdisc::len`], unless a slot
    /// leaked. FIFO bands hold their packets in plain deques: zero.
    pub fn arena_live(&self) -> usize {
        match self {
            Qdisc::Fifo(_) => 0,
            Qdisc::Fq { fq, .. } => fq.arena_live(),
        }
    }

    /// Packets CoDel dropped so far (zero for FIFO bands).
    pub fn codel_drops(&self) -> u64 {
        match self {
            Qdisc::Fifo(_) => 0,
            Qdisc::Fq { fq, .. } => fq.stats.drops_codel,
        }
    }

    /// Removes and returns every FIFO packet matching `keep_out`, in
    /// band-then-FIFO order (the order [`Qdisc::dequeue`] would have
    /// surfaced them), leaving the rest in their order. The FQ cannot be
    /// filtered and hands back nothing. The roaming hand-off uses this to
    /// carry a departing station's frames to its target BSS.
    pub fn drain_matching(&mut self, mut keep_out: impl FnMut(&P) -> bool) -> Vec<P> {
        let mut out = Vec::new();
        if let Qdisc::Fifo(bands) = self {
            for q in bands {
                for _ in 0..q.len() {
                    let pkt = q.pop_front().expect("a packet per count");
                    if keep_out(&pkt) {
                        out.push(pkt);
                    } else {
                        q.push_back(pkt);
                    }
                }
            }
        }
        out
    }

    /// Hands every queued packet to `out`, consuming the queue: FIFO
    /// bands in band-then-FIFO order, or each FQ TID's flows once, a TID
    /// that several bands share included. The TIDs are taken out whole,
    /// as the queue is discarded whole: the FQ records no detach drops.
    pub fn take_all(self, mut out: impl FnMut(P)) {
        match self {
            Qdisc::Fifo(bands) => bands.into_iter().flatten().for_each(out),
            Qdisc::Fq { mut fq, tids, .. } => {
                for (band, tid) in tids.into_iter().enumerate() {
                    if !tids[..band].contains(&tid) {
                        fq.unregister_tid_migrate(tid)
                            .into_iter()
                            .for_each(&mut out);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wifiq_codel::QueuedPacket;

    #[derive(Debug, Clone, PartialEq)]
    struct Pkt {
        flow: u64,
        t: Nanos,
        seq: u32,
    }

    impl QueuedPacket for Pkt {
        fn enqueue_time(&self) -> Nanos {
            self.t
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

    fn pkt(flow: u64, seq: u32) -> Pkt {
        Pkt {
            flow,
            t: Nanos::ZERO,
            seq,
        }
    }

    fn seqs(q: &mut Qdisc<Pkt>, n: usize) -> Vec<u32> {
        (0..n)
            .map(|_| q.dequeue(Nanos::ZERO, |_| {}).unwrap().seq)
            .collect()
    }

    #[test]
    fn pfifo_is_fifo() {
        let mut q = Qdisc::fifo();
        for seq in 0..5 {
            assert!(q.enqueue(pkt(0, seq), 1, 10, Nanos::ZERO).is_none());
        }
        assert_eq!(seqs(&mut q, 5), [0, 1, 2, 3, 4]);
        assert!(q.dequeue(Nanos::ZERO, |_| {}).is_none());
    }

    #[test]
    fn pfifo_tail_drops_at_limit() {
        let mut q = Qdisc::fifo();
        for seq in 0..3 {
            assert!(q.enqueue(pkt(0, seq), 1, 3, Nanos::ZERO).is_none());
        }
        // The offered packet itself is returned (tail drop).
        let dropped = q.enqueue(pkt(0, 99), 1, 3, Nanos::ZERO).unwrap();
        assert_eq!(dropped.seq, 99);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn pfifo_fast_priority_bands() {
        let mut q = Qdisc::fifo();
        q.enqueue(pkt(1, 0), 2, 10, Nanos::ZERO);
        q.enqueue(pkt(2, 1), 0, 10, Nanos::ZERO);
        q.enqueue(pkt(1, 2), 2, 10, Nanos::ZERO);
        assert_eq!(seqs(&mut q, 3), [1, 0, 2], "band 0 first");
    }

    #[test]
    fn pfifo_fast_per_band_limits() {
        let mut q = Qdisc::fifo();
        let kept = (0..4).filter(|&seq| q.enqueue(pkt(1, seq), 1, 2, Nanos::ZERO).is_none());
        assert_eq!(kept.count(), 2, "band 1 full at 2");
        // Band 0 still has room.
        assert!(q.enqueue(pkt(2, 9), 0, 2, Nanos::ZERO).is_none());
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn fifo_pop_takes_one_band() {
        let mut q = Qdisc::fifo();
        q.enqueue(pkt(1, 0), 2, 10, Nanos::ZERO);
        q.enqueue(pkt(2, 1), 0, 10, Nanos::ZERO);
        assert!(q.has(2) && !q.has(1));
        assert_eq!(q.pop(2, Nanos::ZERO, |_| {}).unwrap().seq, 0);
        assert!(q.pop(2, Nanos::ZERO, |_| {}).is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn pfifo_drain_matching_preserves_order() {
        let mut q = Qdisc::fifo();
        for seq in 0..6 {
            q.enqueue(pkt(u64::from(seq % 2), seq), 1, 10, Nanos::ZERO);
        }
        let odd = q.drain_matching(|p| p.flow == 1);
        assert_eq!(odd.iter().map(|p| p.seq).collect::<Vec<_>>(), [1, 3, 5]);
        // Survivors keep FIFO order and the queue stays usable.
        assert_eq!(q.len(), 3);
        assert_eq!(seqs(&mut q, 3), [0, 2, 4]);
    }

    #[test]
    fn pfifo_fast_drain_matching_spans_bands() {
        let mut q = Qdisc::fifo();
        q.enqueue(pkt(1, 0), 1, 10, Nanos::ZERO);
        q.enqueue(pkt(2, 1), 0, 10, Nanos::ZERO);
        q.enqueue(pkt(3, 2), 1, 10, Nanos::ZERO);
        q.enqueue(pkt(3, 3), 0, 10, Nanos::ZERO);
        let moved = q.drain_matching(|p| p.flow != 2);
        // Band by band, in the order `dequeue` would have surfaced them.
        assert_eq!(moved.iter().map(|p| p.seq).collect::<Vec<_>>(), [3, 0, 2]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.dequeue(Nanos::ZERO, |_| {}).unwrap().flow, 2);
    }

    #[test]
    fn fq_codel_interleaves_flows() {
        let mut q = Qdisc::fq_codel();
        for seq in 0..10 {
            q.enqueue(pkt(1, seq), 1, 0, Nanos::ZERO);
        }
        for seq in 0..10 {
            q.enqueue(pkt(2, seq), 1, 0, Nanos::ZERO);
        }
        let first_four: Vec<u64> = (0..4)
            .map(|_| q.dequeue(Nanos::ZERO, |_| {}).unwrap().flow)
            .collect();
        assert!(first_four.contains(&1) && first_four.contains(&2));
    }

    #[test]
    fn fq_codel_drops_on_overlimit_from_fattest_flow() {
        let mut q = Qdisc::fq_codel();
        // Flow 1 fills the queue; flow 2's arrival, in another band,
        // forces a drop from flow 1: every band shares the one limit.
        for seq in 0..10_240 {
            assert!(q.enqueue(pkt(1, seq), 1, 0, Nanos::ZERO).is_none());
        }
        let victim = q.enqueue(pkt(2, 0), 0, 0, Nanos::ZERO).unwrap();
        assert_eq!(victim.flow, 1);
        assert_eq!(q.len(), 10_240);
    }

    #[test]
    fn fq_codel_codel_engages_on_standing_queue() {
        let mut q = Qdisc::fq_codel();
        // Stuff a deep standing queue, then drain it slowly far in the
        // future: CoDel should drop, and hand each victim over.
        for seq in 0..2000 {
            q.enqueue(pkt(1, seq), 1, 0, Nanos::ZERO);
        }
        let mut now = Nanos::from_millis(200);
        let (mut delivered, mut victims) = (0, 0);
        while q.dequeue(now, |_| victims += 1).is_some() {
            delivered += 1;
            now += Nanos::from_millis(1);
        }
        assert!(q.codel_drops() > 0, "CoDel never engaged");
        assert_eq!(victims, q.codel_drops());
        assert_eq!(delivered + victims, 2000);
    }

    #[test]
    fn fq_codel_empty_dequeue() {
        let mut q: Qdisc<Pkt> = Qdisc::fq_codel();
        assert!(q.dequeue(Nanos::ZERO, |_| {}).is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn client_fq_serves_each_band_from_its_own_tid() {
        let mut q = Qdisc::client_fq();
        q.enqueue(pkt(1, 0), 2, 0, Nanos::ZERO);
        q.enqueue(pkt(1, 1), 1, 0, Nanos::ZERO);
        assert!(q.has(1) && q.has(2) && !q.has(0));
        assert_eq!(q.pop(2, Nanos::ZERO, |_| {}).unwrap().seq, 0);
        assert_eq!(q.dequeue(Nanos::ZERO, |_| {}).unwrap().seq, 1);
        assert_eq!((q.len(), q.arena_live()), (0, 0));
    }

    #[test]
    fn take_all_hands_out_every_packet_once() {
        for mut q in [Qdisc::fifo(), Qdisc::fq_codel(), Qdisc::client_fq()] {
            for seq in 0..8 {
                q.enqueue(
                    pkt(u64::from(seq % 3), seq),
                    seq as usize % BANDS,
                    10,
                    Nanos::ZERO,
                );
            }
            let mut out = Vec::new();
            q.take_all(|p| out.push(p.seq));
            out.sort_unstable();
            assert_eq!(out, (0..8).collect::<Vec<_>>());
        }
    }
}
