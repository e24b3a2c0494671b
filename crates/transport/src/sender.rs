//! TCP sender: CUBIC congestion avoidance (RFC 8312) over NewReno/SACK
//! loss recovery (RFC 5681 slow start, RFC 6582 fast recovery).
//!
//! The sender is a pure state machine: it consumes ACKs and timer
//! expirations and produces segments plus an RTO deadline. The surrounding
//! application (in `wifiq-traffic`) owns the actual timer and the
//! network injection.

use std::collections::BTreeMap;

use wifiq_sim::Nanos;
use wifiq_telemetry::{CounterId, GaugeId, HistId, Label, Telemetry};

use crate::cubic::{CubicState, BETA};
use crate::rto::RtoEstimator;
use crate::segment::{TcpSegment, MSS};

/// Congestion-control state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaState {
    /// Exponential window growth below `ssthresh`.
    SlowStart,
    /// CUBIC window growth above `ssthresh`.
    CongestionAvoidance,
    /// NewReno fast recovery after a triple duplicate ACK.
    FastRecovery,
}

/// Output of a sender step: segments to transmit and the new RTO deadline.
#[derive(Debug, Default)]
pub struct SendOutcome {
    /// Segments to inject into the network, in order.
    pub segments: Vec<TcpSegment>,
    /// Absolute deadline to (re)arm the retransmission timer at, or `None`
    /// to cancel it (nothing outstanding).
    pub rearm_rto: Option<Nanos>,
}

/// Telemetry counters for a sender.
#[derive(Debug, Clone, Copy, Default)]
pub struct SenderStats {
    /// Fast retransmissions performed.
    pub fast_retransmits: u64,
    /// Retransmission timeouts taken.
    pub timeouts: u64,
    /// Total data segments sent (including retransmissions).
    pub segments_sent: u64,
}

/// A sender's recorders under `Label::Flow(flow)`, resolved once by
/// [`TcpSender::set_telemetry`] so that an ACK writes by index.
#[derive(Debug, Default)]
struct SenderTele {
    hub: Telemetry,
    cwnd: GaugeId,
    srtt: GaugeId,
    srtt_hist: HistId,
    fast_retransmits: CounterId,
    timeouts: CounterId,
}

/// A CUBIC TCP sender for a single unidirectional transfer, with NewReno
/// fast recovery guided by a SACK scoreboard.
///
/// The transfer is either *bulk* (unlimited data, models iperf/greedy
/// flows) or a fixed number of bytes (models a web object).
///
/// # Examples
///
/// ```
/// use wifiq_transport::sender::TcpSender;
/// use wifiq_sim::Nanos;
///
/// let mut tx = TcpSender::bulk();
/// let out = tx.start(Nanos::ZERO);
/// // Initial window: 10 segments.
/// assert_eq!(out.segments.len(), 10);
/// assert!(out.rearm_rto.is_some());
/// ```
#[derive(Debug)]
pub struct TcpSender {
    mss: u64,
    /// Total bytes to transfer; `None` for an unbounded bulk flow.
    total: Option<u64>,
    snd_una: u64,
    snd_nxt: u64,
    cwnd: f64,
    ssthresh: f64,
    max_cwnd: f64,
    state: CaState,
    dupacks: u32,
    /// NewReno recovery point: highest sequence outstanding when fast
    /// recovery was last entered; `None` before the first loss event.
    recover: Option<u64>,
    /// SACK scoreboard: disjoint `[start, end)` ranges above `snd_una`
    /// reported received by the peer.
    sacked: BTreeMap<u64, u64>,
    /// Sequences below this have been retransmitted in the current
    /// recovery episode (hole-walking cursor).
    rtx_mark: u64,
    /// Bytes retransmitted this episode and not yet acknowledged —
    /// counted into the pipe estimate.
    rtx_out: u64,
    rto: RtoEstimator,
    cc: CubicState,
    /// Telemetry counters.
    pub stats: SenderStats,
    tele: SenderTele,
}

impl TcpSender {
    /// Creates a bulk (unlimited) sender with Linux-like defaults
    /// (IW10, CUBIC, 4 MB window cap).
    pub fn bulk() -> TcpSender {
        TcpSender::new(None)
    }

    /// Creates a sender for a fixed-size transfer of `bytes`.
    pub fn finite(bytes: u64) -> TcpSender {
        TcpSender::new(Some(bytes))
    }

    fn new(total: Option<u64>) -> TcpSender {
        TcpSender {
            mss: MSS,
            total,
            snd_una: 0,
            snd_nxt: 0,
            cwnd: (10 * MSS) as f64,
            ssthresh: f64::MAX,
            max_cwnd: 4.0 * 1024.0 * 1024.0,
            state: CaState::SlowStart,
            dupacks: 0,
            recover: None,
            sacked: BTreeMap::new(),
            rtx_mark: 0,
            rtx_out: 0,
            rto: RtoEstimator::new(),
            cc: CubicState::new(),
            stats: SenderStats::default(),
            tele: SenderTele::default(),
        }
    }

    /// Attaches a telemetry handle; the sender reports cwnd / sRTT gauges
    /// and retransmission counters under `Label::Flow(flow)`.
    pub fn set_telemetry(&mut self, tele: Telemetry, flow: u64) {
        let fl = Label::Flow(flow);
        self.tele = SenderTele {
            cwnd: tele.gauge_id("tcp", "cwnd_bytes", fl),
            srtt: tele.gauge_id("tcp", "srtt_ns", fl),
            srtt_hist: tele.hist_id("tcp", "srtt_ns", fl),
            fast_retransmits: tele.counter_id("tcp", "fast_retransmits", fl),
            timeouts: tele.counter_id("tcp", "timeouts", fl),
            hub: tele,
        };
    }

    /// Overrides the receive-window cap (bytes). Mostly for tests and
    /// ablations; the default 4 MB never binds in the testbed scenarios.
    pub fn set_max_window(&mut self, bytes: u64) {
        self.max_cwnd = bytes as f64;
    }

    /// Bytes in flight (sent but not cumulatively acknowledged).
    pub fn flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> u64 {
        self.cwnd as u64
    }

    /// Current congestion-control state.
    pub fn state(&self) -> CaState {
        self.state
    }

    /// The smoothed RTT estimate, if any ACK has been timed.
    pub fn srtt(&self) -> Option<Nanos> {
        self.rto.srtt()
    }

    /// Bytes cumulatively acknowledged so far.
    pub fn acked_bytes(&self) -> u64 {
        self.snd_una
    }

    /// True once a finite transfer is fully acknowledged.
    pub fn done(&self) -> bool {
        match self.total {
            Some(t) => self.snd_una >= t,
            None => false,
        }
    }

    /// Begins the transfer: emits the initial window.
    pub fn start(&mut self, now: Nanos) -> SendOutcome {
        let mut out = SendOutcome::default();
        self.fill_window(now, &mut out);
        self.finish(now, &mut out);
        out
    }

    fn segment_len_at(&self, seq: u64) -> u64 {
        match self.total {
            Some(total) => self.mss.min(total.saturating_sub(seq)),
            None => self.mss,
        }
    }

    fn make_segment(&mut self, seq: u64, now: Nanos, retransmit: bool) -> TcpSegment {
        self.stats.segments_sent += 1;
        TcpSegment {
            seq,
            len: self.segment_len_at(seq),
            ack: 0,
            sent_at: now,
            echo: Nanos::ZERO,
            retransmit,
            sack: [(0, 0); 3],
        }
    }

    /// Sends as much new data as the window allows.
    fn fill_window(&mut self, now: Nanos, out: &mut SendOutcome) {
        let cwnd = self.cwnd.min(self.max_cwnd) as u64;
        loop {
            if self.flight() + self.mss > cwnd {
                break;
            }
            let len = self.segment_len_at(self.snd_nxt);
            if len == 0 {
                break; // finite transfer fully sent
            }
            let seg = self.make_segment(self.snd_nxt, now, false);
            self.snd_nxt += seg.len;
            out.segments.push(seg);
        }
    }

    /// Computes the RTO rearm decision after any state change.
    fn finish(&mut self, now: Nanos, out: &mut SendOutcome) {
        out.rearm_rto = if self.flight() > 0 {
            Some(now + self.rto.rto())
        } else {
            None
        };
        let t = &self.tele;
        if let Some(mut rec) = t.hub.batch() {
            rec.set(t.cwnd, self.cwnd);
            if let Some(srtt) = self.rto.srtt() {
                rec.set(t.srtt, srtt.as_nanos() as f64);
                rec.record(t.srtt_hist, srtt.as_nanos());
            }
        }
    }

    /// Merges a SACK block into the scoreboard.
    fn sack_insert(&mut self, start: u64, end: u64) {
        if end <= start || end <= self.snd_una {
            return;
        }
        let lo = start.max(self.snd_una);
        let (mut start, mut merged_end) = (lo, end);
        // Absorb any ranges overlapping or adjacent to [lo, end): they
        // start at or before `end` and reach `lo`. The ranges are
        // disjoint, so their ends rise with their starts, and those are
        // the last ranges starting at or before `end`.
        while let Some((&s, &e)) = self.sacked.range(..=end).next_back() {
            if e < lo {
                break;
            }
            self.sacked.remove(&s);
            start = start.min(s);
            merged_end = merged_end.max(e);
        }
        self.sacked.insert(start, merged_end);
    }

    /// Drops scoreboard ranges at or below `snd_una`; the one range that
    /// straddles it, if any, is the last of them and keeps its part above.
    fn sack_prune(&mut self) {
        let una = self.snd_una;
        while let Some(first) = self.sacked.first_entry() {
            if *first.key() > una {
                break;
            }
            let e = first.remove();
            if e > una {
                self.sacked.insert(una, e);
                break;
            }
        }
    }

    /// Total SACKed bytes above `snd_una`.
    fn sacked_bytes(&self) -> u64 {
        self.sacked
            .values()
            .zip(self.sacked.keys())
            .map(|(e, s)| e - s)
            .sum()
    }

    /// The first un-SACKed sequence in `[from, below)`, or `None`.
    fn next_hole(&self, from: u64, below: u64) -> Option<u64> {
        let mut x = from;
        while x < below {
            // Find a range covering x.
            match self.sacked.range(..=x).next_back() {
                Some((_, &e)) if e > x => x = e,
                _ => return Some(x),
            }
        }
        None
    }

    /// SACKed bytes within `[from, to)`.
    fn sacked_in(&self, from: u64, to: u64) -> u64 {
        self.sacked
            .iter()
            .map(|(&s, &e)| e.min(to).saturating_sub(s.max(from)))
            .sum()
    }

    /// Estimated bytes in the network (RFC 6675's `pipe`):
    /// in-flight originals, minus SACKed data, minus data presumed lost
    /// (holes we have already retransmitted), plus the retransmissions
    /// themselves.
    fn pipe(&self) -> u64 {
        let lost = self
            .rtx_mark
            .saturating_sub(self.snd_una)
            .saturating_sub(self.sacked_in(self.snd_una, self.rtx_mark));
        (self.flight() + self.rtx_out)
            .saturating_sub(self.sacked_bytes())
            .saturating_sub(lost)
    }

    /// SACK-based transmission during fast recovery: retransmit holes
    /// below the recovery point first, then new data, within the pipe
    /// budget (RFC 6675 in spirit).
    fn recovery_send(&mut self, now: Nanos, out: &mut SendOutcome, force_first: bool) {
        let cwnd = self.cwnd.min(self.max_cwnd) as u64;
        let rec = self.recover.expect("in recovery");
        let mut force = force_first;
        loop {
            let pipe = self.pipe();
            if !force && pipe + self.mss > cwnd {
                break;
            }
            force = false;
            let from = self.rtx_mark.max(self.snd_una);
            if let Some(hole) = self.next_hole(from, rec) {
                let seg = self.make_segment(hole, now, true);
                self.rtx_mark = hole + seg.len.max(1);
                self.rtx_out += seg.len;
                out.segments.push(seg);
            } else {
                // No holes left to retransmit: send new data.
                let len = self.segment_len_at(self.snd_nxt);
                if len == 0 {
                    break;
                }
                let seg = self.make_segment(self.snd_nxt, now, false);
                self.snd_nxt += seg.len;
                out.segments.push(seg);
            }
        }
    }

    /// Processes an incoming (pure) ACK segment.
    pub fn on_ack(&mut self, seg: &TcpSegment, now: Nanos) -> SendOutcome {
        let mut out = SendOutcome::default();
        for (bs, be) in seg.sack_blocks() {
            self.sack_insert(bs, be);
        }

        let new_ack = seg.ack > self.snd_una;
        if new_ack {
            if !seg.echo.is_zero() {
                self.rto.sample(now.saturating_sub(seg.echo));
            }
            let newly = seg.ack - self.snd_una;
            self.snd_una = seg.ack;
            // A late ACK can pass a post-RTO snd_nxt (we rewound it for
            // go-back-N); never let flight() underflow.
            self.snd_nxt = self.snd_nxt.max(self.snd_una);
            self.rtx_mark = self.rtx_mark.max(self.snd_una);
            self.rtx_out = self.rtx_out.saturating_sub(newly);
            self.sack_prune();
        }

        let mut force_partial_rtx = false;
        match self.state {
            CaState::FastRecovery => {
                if new_ack && seg.ack >= self.recover.expect("in recovery") {
                    // Full ACK: leave recovery at the halved window.
                    self.cwnd = self.ssthresh;
                    self.state = CaState::CongestionAvoidance;
                    self.dupacks = 0;
                    self.rtx_out = 0;
                } else if new_ack && self.sacked.is_empty() {
                    // Partial ACK from a SACK-less peer: classic NewReno —
                    // the new front hole must be retransmitted now, since
                    // no scoreboard will ever point at it.
                    self.rtx_mark = self.snd_una;
                    force_partial_rtx = true;
                }
            }
            CaState::SlowStart if new_ack => {
                self.cwnd += self.mss as f64;
                if self.cwnd >= self.ssthresh {
                    self.state = CaState::CongestionAvoidance;
                }
                self.dupacks = 0;
            }
            CaState::CongestionAvoidance if new_ack => {
                self.cwnd = self
                    .cc
                    .on_ack(self.cwnd, self.mss as f64, now, self.rto.srtt());
                self.dupacks = 0;
            }
            _ => {}
        }

        // Loss detection (when not already recovering): three duplicate
        // ACKs, or — with SACK — three segments' worth of scoreboard
        // above a hole.
        if self.state != CaState::FastRecovery && self.flight() > 0 {
            if !new_ack && seg.is_pure_ack() {
                self.dupacks += 1;
            }
            let sack_loss = self.sacked_bytes() >= 3 * self.mss;
            // RFC 6582 "careful" variant: dupACKs that do not cover more
            // than the previous recovery point are echoes of our own
            // retransmissions; acting on them collapses the window.
            let past_recover = self.recover.is_none_or(|r| seg.ack > r);
            if (self.dupacks >= 3 || sack_loss) && past_recover {
                self.ssthresh = self.cc.on_loss(self.cwnd, self.mss as f64);
                self.recover = Some(self.snd_nxt);
                self.cwnd = self.ssthresh;
                self.state = CaState::FastRecovery;
                self.dupacks = 0;
                self.rtx_mark = self.snd_una;
                self.rtx_out = 0;
                self.stats.fast_retransmits += 1;
                self.tele.hub.add(self.tele.fast_retransmits, 1);
                // Always retransmit the first hole immediately, even if
                // the pipe estimate says the window is full.
                self.recovery_send(now, &mut out, true);
                self.finish(now, &mut out);
                return out;
            }
        }

        if self.state == CaState::FastRecovery {
            self.recovery_send(now, &mut out, force_partial_rtx);
        } else {
            self.fill_window(now, &mut out);
        }
        self.finish(now, &mut out);
        out
    }

    /// Handles a retransmission-timeout expiry.
    pub fn on_rto(&mut self, now: Nanos) -> SendOutcome {
        let mut out = SendOutcome::default();
        if self.flight() == 0 {
            // Spurious (stale timer): nothing outstanding.
            self.finish(now, &mut out);
            return out;
        }
        self.stats.timeouts += 1;
        self.tele.hub.add(self.tele.timeouts, 1);
        self.cc.on_timeout(self.cwnd);
        self.ssthresh = (self.cwnd * BETA).max((2 * self.mss) as f64);
        // Go-back-N: collapse to one segment and re-enter slow start.
        // The scoreboard is discarded — the network state it described is
        // stale after a timeout.
        self.sacked.clear();
        self.rtx_out = 0;
        self.snd_nxt = self.snd_una;
        self.cwnd = self.mss as f64;
        self.state = CaState::SlowStart;
        self.dupacks = 0;
        self.rto.backoff();
        self.fill_window(now, &mut out);
        for seg in &mut out.segments {
            seg.retransmit = true;
        }
        self.finish(now, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack(ackno: u64, echo: Nanos) -> TcpSegment {
        TcpSegment {
            seq: 0,
            len: 0,
            ack: ackno,
            sent_at: Nanos::ZERO,
            echo,
            retransmit: false,
            sack: [(0, 0); 3],
        }
    }

    #[test]
    fn initial_window_is_ten_segments() {
        let mut tx = TcpSender::bulk();
        let out = tx.start(Nanos::ZERO);
        assert_eq!(out.segments.len(), 10);
        assert_eq!(tx.flight(), 10 * MSS);
        assert!(out.rearm_rto.is_some());
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut tx = TcpSender::bulk();
        let t0 = Nanos::ZERO;
        let out = tx.start(t0);
        let mut outstanding: Vec<TcpSegment> = out.segments;
        // One "RTT": ack everything that was sent; window should double.
        let now = Nanos::from_millis(50);
        let mut sent_next_rtt = 0;
        for seg in outstanding.drain(..) {
            let o = tx.on_ack(&ack(seg.end_seq(), seg.sent_at), now);
            sent_next_rtt += o.segments.len();
        }
        assert!(
            (19..=21).contains(&sent_next_rtt),
            "slow start should ~double the window, sent {sent_next_rtt}"
        );
    }

    #[test]
    fn triple_dupack_triggers_fast_retransmit() {
        let mut tx = TcpSender::bulk();
        let out = tx.start(Nanos::ZERO);
        assert_eq!(out.segments.len(), 10);
        let now = Nanos::from_millis(20);
        // First segment lost: receiver acks 0 repeatedly as later
        // segments arrive.
        for i in 0..2 {
            let o = tx.on_ack(&ack(0, Nanos::ZERO), now);
            assert!(o.segments.is_empty(), "dupack {i} must not retransmit");
        }
        let o = tx.on_ack(&ack(0, Nanos::ZERO), now);
        assert_eq!(o.segments.len(), 1, "third dupack retransmits");
        assert_eq!(o.segments[0].seq, 0);
        assert!(o.segments[0].retransmit);
        assert_eq!(tx.state(), CaState::FastRecovery);
        assert_eq!(tx.stats.fast_retransmits, 1);
    }

    #[test]
    fn full_ack_exits_fast_recovery_at_half_window() {
        let mut tx = TcpSender::bulk();
        let _ = tx.start(Nanos::ZERO);
        let now = Nanos::from_millis(20);
        let flight_before = tx.flight();
        for _ in 0..3 {
            tx.on_ack(&ack(0, Nanos::ZERO), now);
        }
        assert_eq!(tx.state(), CaState::FastRecovery);
        // Ack everything (past the recovery point).
        let o = tx.on_ack(
            &ack(tx.recover.unwrap(), Nanos::ZERO),
            Nanos::from_millis(40),
        );
        assert_eq!(tx.state(), CaState::CongestionAvoidance);
        assert!(tx.cwnd() as f64 >= flight_before as f64 / 2.0 - 1.0);
        assert!(tx.cwnd() <= flight_before, "window halved, not grown");
        let _ = o;
    }

    #[test]
    fn partial_ack_retransmits_next_hole() {
        let mut tx = TcpSender::bulk();
        tx.start(Nanos::ZERO);
        let now = Nanos::from_millis(20);
        for _ in 0..3 {
            tx.on_ack(&ack(0, Nanos::ZERO), now);
        }
        // Partial ack: first retransmit arrived but another hole remains.
        let o = tx.on_ack(&ack(MSS, Nanos::ZERO), Nanos::from_millis(40));
        assert_eq!(tx.state(), CaState::FastRecovery, "partial ack stays in FR");
        assert!(o.segments.iter().any(|s| s.seq == MSS && s.retransmit));
    }

    #[test]
    fn rto_collapses_window() {
        let mut tx = TcpSender::bulk();
        tx.start(Nanos::ZERO);
        let o = tx.on_rto(Nanos::from_secs(1));
        assert_eq!(tx.cwnd(), MSS);
        assert_eq!(tx.state(), CaState::SlowStart);
        assert_eq!(o.segments.len(), 1);
        assert_eq!(o.segments[0].seq, 0);
        assert!(o.segments[0].retransmit);
        assert_eq!(tx.stats.timeouts, 1);
    }

    #[test]
    fn spurious_rto_with_nothing_outstanding_is_noop() {
        let mut tx = TcpSender::finite(0);
        let o = tx.on_rto(Nanos::from_secs(1));
        assert!(o.segments.is_empty());
        assert!(o.rearm_rto.is_none());
        assert_eq!(tx.stats.timeouts, 0);
    }

    #[test]
    fn finite_transfer_completes() {
        let total = 10 * MSS + 100; // non-aligned tail
        let mut tx = TcpSender::finite(total);
        let out = tx.start(Nanos::ZERO);
        // 10 full segments fit the initial window; the 100-byte tail
        // needs headroom for a full MSS so it waits.
        assert_eq!(out.segments.len(), 10);
        let now = Nanos::from_millis(10);
        let mut all: Vec<TcpSegment> = out.segments;
        let mut acked = 0;
        while acked < total {
            let seg = all.remove(0);
            acked = acked.max(seg.end_seq());
            let o = tx.on_ack(&ack(acked, seg.sent_at), now);
            all.extend(o.segments);
        }
        assert!(tx.done());
        assert_eq!(tx.acked_bytes(), total);
    }

    #[test]
    fn rtt_sample_comes_from_echo() {
        let mut tx = TcpSender::bulk();
        let out = tx.start(Nanos::from_millis(100));
        let seg = out.segments[0];
        tx.on_ack(&ack(seg.end_seq(), seg.sent_at), Nanos::from_millis(130));
        assert_eq!(tx.srtt(), Some(Nanos::from_millis(30)));
    }

    #[test]
    fn window_cap_limits_flight() {
        let mut tx = TcpSender::bulk();
        tx.set_max_window(20 * MSS);
        let out = tx.start(Nanos::ZERO);
        let mut segs = out.segments;
        let mut now = Nanos::from_millis(10);
        for _ in 0..10 {
            let mut next = Vec::new();
            for seg in segs.drain(..) {
                let o = tx.on_ack(&ack(seg.end_seq(), seg.sent_at), now);
                next.extend(o.segments);
            }
            segs = next;
            now += Nanos::from_millis(10);
            assert!(tx.flight() <= 20 * MSS);
        }
    }
}
