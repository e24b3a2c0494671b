//! Qdisc-layer queueing disciplines — the layer above the MAC in Figure 2.
//!
//! These are the two baselines the paper evaluates against:
//!
//! - [`PfifoFastQdisc`] — the Linux default `pfifo_fast` discipline (three
//!   strict-priority bands, each a tail-drop [`PfifoQdisc`]), the "FIFO"
//!   scheme,
//! - [`FqCodelQdisc`] — the FQ-CoDel qdisc with wired-link defaults
//!   (1024 flows, 5 ms target, 100 ms interval, 10240-packet limit), the
//!   "FQ-CoDel" scheme.
//!
//! Under the FQ-MAC and Airtime schemes, the qdisc layer is bypassed
//! entirely (Figure 3: "Qdisc layer (bypassed)").

use wifiq_codel::CodelParams;
use wifiq_core::fq::{FqParams, MacFq};
use wifiq_core::packet::{FqPacket, PacketArena, PacketFifo};
use wifiq_core::table::TidId;
use wifiq_sim::Nanos;

/// A queueing discipline installed on a network interface.
pub trait Qdisc<P> {
    /// Offers a packet to the qdisc. Returns a packet that had to be
    /// dropped to accept this one (possibly the offered packet itself).
    fn enqueue(&mut self, pkt: P, now: Nanos) -> Option<P>;

    /// Takes the next packet to hand to the driver.
    fn dequeue(&mut self, now: Nanos) -> Option<P>;

    /// Number of queued packets.
    fn len(&self) -> usize;

    /// True if no packets are queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The default Linux `pfifo` qdisc: a tail-drop FIFO with a packet limit.
///
/// Packets live in a generational [`PacketArena`]; the FIFO itself is an
/// intrusive list of slot links, so steady-state traffic recycles slots
/// instead of growing or reallocating a buffer.
#[derive(Debug)]
pub struct PfifoQdisc<P> {
    arena: PacketArena<P>,
    queue: PacketFifo,
    limit: usize,
    /// Packets dropped at the tail because the queue was full.
    pub tail_drops: u64,
}

impl<P> PfifoQdisc<P> {
    /// Creates a pfifo with the given packet limit.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero.
    pub fn new(limit: usize) -> PfifoQdisc<P> {
        assert!(limit > 0, "pfifo limit must be positive");
        PfifoQdisc {
            arena: PacketArena::new(),
            queue: PacketFifo::new(),
            limit,
            tail_drops: 0,
        }
    }

    /// Live packets in the backing arena (equals [`Qdisc::len`]; exposed
    /// so teardown tests can assert no slots leak).
    pub fn arena_live(&self) -> usize {
        self.arena.live()
    }

    /// Removes and returns every queued packet matching `keep_out`, in
    /// FIFO order, leaving the rest in their original order. Used by the
    /// roaming hand-off to pull a departing station's frames out of a
    /// shared qdisc so they can follow it to the target BSS.
    pub fn drain_matching(&mut self, mut keep_out: impl FnMut(&P) -> bool) -> Vec<P> {
        let mut out = Vec::new();
        let mut kept = PacketFifo::new();
        while let Some(pkt) = self.queue.pop_front(&mut self.arena) {
            if keep_out(&pkt) {
                out.push(pkt);
            } else {
                kept.push_back(&mut self.arena, pkt);
            }
        }
        self.queue = kept;
        out
    }
}

impl<P> Qdisc<P> for PfifoQdisc<P> {
    fn enqueue(&mut self, pkt: P, _now: Nanos) -> Option<P> {
        if self.queue.len() >= self.limit {
            self.tail_drops += 1;
            return Some(pkt);
        }
        self.queue.push_back(&mut self.arena, pkt);
        None
    }

    fn dequeue(&mut self, _now: Nanos) -> Option<P> {
        self.queue.pop_front(&mut self.arena)
    }

    fn len(&self) -> usize {
        self.queue.len()
    }
}

/// The Linux default qdisc `pfifo_fast`: priority bands served strictly
/// in order, each a tail-drop FIFO.
///
/// This is the "FIFO" baseline's qdisc in the paper: VO/VI-marked packets
/// jump the best-effort bulk (which is why Table 2's FIFO/VO row still
/// scores a good MOS), while everything inside one band suffers the full
/// tail-drop bufferbloat.
#[derive(Debug)]
pub struct PfifoFastQdisc<P> {
    bands: Vec<PfifoQdisc<P>>,
    band_of: fn(&P) -> usize,
}

impl<P> PfifoFastQdisc<P> {
    /// Creates a `pfifo_fast`-style qdisc with `bands` priority bands of
    /// `limit` packets each, classifying packets with `band_of`
    /// (0 = highest priority).
    ///
    /// # Panics
    ///
    /// Panics if `bands` is zero.
    pub fn new(bands: usize, limit: usize, band_of: fn(&P) -> usize) -> PfifoFastQdisc<P> {
        assert!(bands > 0, "need at least one band");
        PfifoFastQdisc {
            bands: (0..bands).map(|_| PfifoQdisc::new(limit)).collect(),
            band_of,
        }
    }

    /// Packets tail-dropped across all bands.
    pub fn tail_drops(&self) -> u64 {
        self.bands.iter().map(|b| b.tail_drops).sum()
    }

    /// Live packets across all band arenas (equals [`Qdisc::len`]).
    pub fn arena_live(&self) -> usize {
        self.bands.iter().map(|b| b.arena_live()).sum()
    }

    /// Removes and returns every queued packet matching `keep_out`, in
    /// band-then-FIFO order (the order [`Qdisc::dequeue`] would have
    /// surfaced them), leaving the rest untouched. The roaming hand-off
    /// uses this to carry a departing station's frames to its target BSS.
    pub fn drain_matching(&mut self, mut keep_out: impl FnMut(&P) -> bool) -> Vec<P> {
        let mut out = Vec::new();
        for band in &mut self.bands {
            out.extend(band.drain_matching(&mut keep_out));
        }
        out
    }
}

impl<P> Qdisc<P> for PfifoFastQdisc<P> {
    fn enqueue(&mut self, pkt: P, now: Nanos) -> Option<P> {
        let band = (self.band_of)(&pkt).min(self.bands.len() - 1);
        self.bands[band].enqueue(pkt, now)
    }

    fn dequeue(&mut self, now: Nanos) -> Option<P> {
        self.bands.iter_mut().find_map(|b| b.dequeue(now))
    }

    fn len(&self) -> usize {
        self.bands.iter().map(|b| b.len()).sum()
    }
}

/// The FQ-CoDel qdisc (RFC 8290) with standard wired-link parameters.
///
/// Internally this reuses the MAC FQ structure from `wifiq-core` with a
/// single registered TID — the paper's MAC queueing scheme *is* FQ-CoDel
/// generalised to many TIDs, so the single-TID instantiation recovers the
/// classic qdisc.
#[derive(Debug)]
pub struct FqCodelQdisc<P> {
    fq: MacFq<P>,
    tid: TidId,
    codel: CodelParams,
}

impl<P: FqPacket> FqCodelQdisc<P> {
    /// Creates an FQ-CoDel qdisc with the Linux defaults: 1024 flows,
    /// 10240-packet limit, quantum 1514 bytes, CoDel target 5 ms /
    /// interval 100 ms.
    pub fn with_defaults() -> FqCodelQdisc<P> {
        FqCodelQdisc::new(
            FqParams {
                flows: 1024,
                limit: 10_240,
                quantum: 1514,
                ..FqParams::default()
            },
            CodelParams::wired_default(),
        )
    }

    /// Fully parameterised constructor.
    pub fn new(fq_params: FqParams, codel: CodelParams) -> FqCodelQdisc<P> {
        let mut fq = MacFq::new(fq_params);
        let tid = fq.register_tid();
        FqCodelQdisc { fq, tid, codel }
    }

    /// Packets dropped by the CoDel AQM so far.
    pub fn codel_drops(&self) -> u64 {
        self.fq.stats.drops_codel
    }

    /// Packets dropped on overlimit (from the longest queue) so far.
    pub fn overlimit_drops(&self) -> u64 {
        self.fq.stats.drops_overlimit
    }

    /// Live packets in the underlying FQ structure's arena (equals
    /// [`Qdisc::len`]).
    pub fn arena_live(&self) -> usize {
        self.fq.arena_live()
    }

    /// [`Qdisc::dequeue`], handing every packet CoDel drops on the way to
    /// `on_drop`.
    pub fn dequeue_with(&mut self, now: Nanos, on_drop: impl FnMut(P)) -> Option<P> {
        self.fq.dequeue_with(self.tid, now, &self.codel, on_drop)
    }
}

impl<P: FqPacket> Qdisc<P> for FqCodelQdisc<P> {
    fn enqueue(&mut self, pkt: P, now: Nanos) -> Option<P> {
        self.fq.enqueue(pkt, self.tid, now)
    }

    fn dequeue(&mut self, now: Nanos) -> Option<P> {
        self.dequeue_with(now, |_| {})
    }

    fn len(&self) -> usize {
        self.fq.total_packets()
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

    #[test]
    fn pfifo_is_fifo() {
        let mut q = PfifoQdisc::new(10);
        for seq in 0..5 {
            assert!(q.enqueue(pkt(0, seq), Nanos::ZERO).is_none());
        }
        for seq in 0..5 {
            assert_eq!(q.dequeue(Nanos::ZERO).unwrap().seq, seq);
        }
        assert!(q.dequeue(Nanos::ZERO).is_none());
    }

    #[test]
    fn pfifo_tail_drops_at_limit() {
        let mut q = PfifoQdisc::new(3);
        for seq in 0..3 {
            assert!(q.enqueue(pkt(0, seq), Nanos::ZERO).is_none());
        }
        // The offered packet itself is returned (tail drop).
        let dropped = q.enqueue(pkt(0, 99), Nanos::ZERO).unwrap();
        assert_eq!(dropped.seq, 99);
        assert_eq!(q.tail_drops, 1);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn fq_codel_interleaves_flows() {
        let mut q = FqCodelQdisc::with_defaults();
        for seq in 0..10 {
            q.enqueue(pkt(1, seq), Nanos::ZERO);
        }
        for seq in 0..10 {
            q.enqueue(pkt(2, seq), Nanos::ZERO);
        }
        let first_four: Vec<u64> = (0..4)
            .map(|_| q.dequeue(Nanos::ZERO).unwrap().flow)
            .collect();
        assert!(first_four.contains(&1) && first_four.contains(&2));
    }

    #[test]
    fn fq_codel_drops_on_overlimit_from_fattest_flow() {
        let mut q = FqCodelQdisc::new(
            FqParams {
                flows: 64,
                limit: 20,
                quantum: 1514,
                ..FqParams::default()
            },
            CodelParams::wired_default(),
        );
        // Flow 1 fills the queue; flow 2's arrival forces a drop from
        // flow 1.
        for seq in 0..20 {
            q.enqueue(pkt(1, seq), Nanos::ZERO);
        }
        let victim = q.enqueue(pkt(2, 0), Nanos::ZERO).unwrap();
        assert_eq!(victim.flow, 1);
        assert_eq!(q.overlimit_drops(), 1);
        assert_eq!(q.len(), 20);
    }

    #[test]
    fn fq_codel_codel_engages_on_standing_queue() {
        let mut q = FqCodelQdisc::with_defaults();
        // Stuff a deep standing queue, then drain it slowly far in the
        // future: CoDel should drop.
        for seq in 0..2000 {
            q.enqueue(pkt(1, seq), Nanos::ZERO);
        }
        let mut now = Nanos::from_millis(200);
        let mut delivered = 0;
        while q.dequeue(now).is_some() {
            delivered += 1;
            now += Nanos::from_millis(1);
        }
        assert!(q.codel_drops() > 0, "CoDel never engaged");
        assert_eq!(delivered + q.codel_drops() as usize, 2000);
    }

    #[test]
    fn pfifo_fast_priority_bands() {
        // Band by flow id parity: even flows high priority.
        let mut q = PfifoFastQdisc::new(2, 10, |p: &Pkt| (p.flow % 2) as usize);
        q.enqueue(pkt(1, 0), Nanos::ZERO); // low priority
        q.enqueue(pkt(2, 1), Nanos::ZERO); // high priority
        q.enqueue(pkt(1, 2), Nanos::ZERO);
        assert_eq!(q.dequeue(Nanos::ZERO).unwrap().seq, 1, "high band first");
        assert_eq!(q.dequeue(Nanos::ZERO).unwrap().seq, 0);
        assert_eq!(q.dequeue(Nanos::ZERO).unwrap().seq, 2);
    }

    #[test]
    fn pfifo_fast_per_band_limits() {
        let mut q = PfifoFastQdisc::new(2, 2, |p: &Pkt| (p.flow % 2) as usize);
        for seq in 0..4 {
            q.enqueue(pkt(1, seq), Nanos::ZERO);
        }
        assert_eq!(q.tail_drops(), 2, "band 1 full at 2");
        // Band 0 still has room.
        assert!(q.enqueue(pkt(2, 9), Nanos::ZERO).is_none());
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn pfifo_fast_band_clamped() {
        let mut q = PfifoFastQdisc::new(2, 10, |p: &Pkt| p.flow as usize);
        // flow 7 maps past the last band; must clamp, not panic.
        assert!(q.enqueue(pkt(7, 0), Nanos::ZERO).is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn pfifo_drain_matching_preserves_order() {
        let mut q = PfifoQdisc::new(10);
        for seq in 0..6 {
            q.enqueue(pkt(seq as u64 % 2, seq), Nanos::ZERO);
        }
        let odd = q.drain_matching(|p| p.flow == 1);
        assert_eq!(odd.iter().map(|p| p.seq).collect::<Vec<_>>(), [1, 3, 5]);
        // Survivors keep FIFO order and the queue stays usable.
        assert_eq!(q.len(), 3);
        assert_eq!(
            (0..3)
                .map(|_| q.dequeue(Nanos::ZERO).unwrap().seq)
                .collect::<Vec<_>>(),
            [0, 2, 4]
        );
    }

    #[test]
    fn pfifo_fast_drain_matching_spans_bands() {
        let mut q = PfifoFastQdisc::new(2, 10, |p: &Pkt| (p.flow % 2) as usize);
        q.enqueue(pkt(1, 0), Nanos::ZERO); // band 1
        q.enqueue(pkt(2, 1), Nanos::ZERO); // band 0
        q.enqueue(pkt(3, 2), Nanos::ZERO); // band 1
        let moved = q.drain_matching(|p| p.flow != 2);
        assert_eq!(moved.iter().map(|p| p.seq).collect::<Vec<_>>(), [0, 2]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.dequeue(Nanos::ZERO).unwrap().flow, 2);
    }

    #[test]
    fn fq_codel_empty_dequeue() {
        let mut q: FqCodelQdisc<Pkt> = FqCodelQdisc::with_defaults();
        assert!(q.dequeue(Nanos::ZERO).is_none());
        assert!(q.is_empty());
    }
}
