//! Simulated TCP: CUBIC congestion avoidance over a NewReno/SACK
//! recovery core.
//!
//! The endpoints are *pure state machines*: they consume segments and
//! timer expirations, and produce segments plus timer deadlines. The
//! network application layer (in `wifiq-traffic`) owns packetisation,
//! injection, and the actual timers. This keeps the protocol logic
//! independently testable — see the loopback tests in this crate — and
//! reusable against any network model.
//!
//! Every sender runs CUBIC, the Linux default the paper's endpoints ran:
//! the anomaly's buffer-hogging feedback loop needs its time-based window
//! regrowth (see [`cubic`]). Loss recovery is NewReno's (RFC 6582) with an
//! RFC 6675-style SACK scoreboard.

pub mod cubic;
pub mod receiver;
pub mod rto;
pub mod segment;
pub mod sender;

pub use cubic::CubicState;
pub use receiver::{RecvOutcome, TcpReceiver, DELACK_TIMEOUT};
pub use rto::RtoEstimator;
pub use segment::{TcpSegment, MSS, TCP_HEADER};
pub use sender::{CaState, SendOutcome, SenderStats, TcpSender};

#[cfg(test)]
mod loopback {
    //! End-to-end sender/receiver tests over an in-memory "network" with
    //! configurable delay and deterministic loss.

    use std::collections::BinaryHeap;

    use wifiq_sim::Nanos;

    use crate::receiver::TcpReceiver;
    use crate::segment::{TcpSegment, MSS};
    use crate::sender::TcpSender;

    #[derive(PartialEq, Eq)]
    struct Ev {
        at: Nanos,
        seq: u64,
        kind: Kind,
    }

    #[derive(PartialEq, Eq)]
    enum Kind {
        DataArrives(TcpSegmentOrd),
        AckArrives(TcpSegmentOrd),
        RtoFires,
        DelackFires,
    }

    // TcpSegment doesn't implement Ord; wrap it opaquely for the heap.
    #[derive(PartialEq, Eq)]
    struct TcpSegmentOrd(TcpSegment);

    impl Ord for Ev {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
        }
    }
    impl PartialOrd for Ev {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    /// Runs a transfer over a fixed-delay pipe, dropping data segments
    /// whose index satisfies `lose(i)`. Returns (completion time, sender).
    fn run_transfer(
        total: u64,
        owd: Nanos,
        mut lose: impl FnMut(u64) -> bool,
    ) -> (Nanos, TcpSender) {
        let mut tx = TcpSender::finite(total);
        let mut rx = TcpReceiver::new();
        let mut heap: BinaryHeap<Ev> = BinaryHeap::new();
        let mut evseq = 0u64;
        let mut data_idx = 0u64;
        let mut rto_deadline: Option<Nanos>;
        let mut delack_deadline: Option<Nanos> = None;
        let mut now = Nanos::ZERO;

        let push = |heap: &mut BinaryHeap<Ev>, evseq: &mut u64, at, kind| {
            *evseq += 1;
            heap.push(Ev {
                at,
                seq: *evseq,
                kind,
            });
        };

        let out = tx.start(now);
        rto_deadline = out.rearm_rto;
        if let Some(d) = rto_deadline {
            push(&mut heap, &mut evseq, d, Kind::RtoFires);
        }
        let start_segments = out.segments;
        for seg in start_segments {
            let idx = data_idx;
            data_idx += 1;
            if !lose(idx) {
                push(
                    &mut heap,
                    &mut evseq,
                    now + owd,
                    Kind::DataArrives(TcpSegmentOrd(seg)),
                );
            }
        }

        let mut guard = 0;
        while !tx.done() {
            guard += 1;
            assert!(guard < 1_000_000, "transfer did not complete");
            let ev = heap.pop().expect("deadlocked: no pending events");
            now = ev.at;
            match ev.kind {
                Kind::DataArrives(TcpSegmentOrd(seg)) => {
                    let o = rx.on_data(&seg, now);
                    if let Some(ack) = o.ack {
                        push(
                            &mut heap,
                            &mut evseq,
                            now + owd,
                            Kind::AckArrives(TcpSegmentOrd(ack)),
                        );
                    }
                    if let Some(d) = o.arm_delack {
                        delack_deadline = Some(d);
                        push(&mut heap, &mut evseq, d, Kind::DelackFires);
                    }
                }
                Kind::AckArrives(TcpSegmentOrd(ack)) => {
                    let o = tx.on_ack(&ack, now);
                    rto_deadline = o.rearm_rto;
                    if let Some(d) = rto_deadline {
                        push(&mut heap, &mut evseq, d, Kind::RtoFires);
                    }
                    for seg in o.segments {
                        let idx = data_idx;
                        data_idx += 1;
                        if !lose(idx) {
                            push(
                                &mut heap,
                                &mut evseq,
                                now + owd,
                                Kind::DataArrives(TcpSegmentOrd(seg)),
                            );
                        }
                    }
                }
                Kind::RtoFires => {
                    // Stale timer events are common (we push a new event
                    // per rearm); only honour the live deadline.
                    if rto_deadline == Some(now) {
                        let o = tx.on_rto(now);
                        rto_deadline = o.rearm_rto;
                        if let Some(d) = rto_deadline {
                            push(&mut heap, &mut evseq, d, Kind::RtoFires);
                        }
                        for seg in o.segments {
                            let idx = data_idx;
                            data_idx += 1;
                            if !lose(idx) {
                                push(
                                    &mut heap,
                                    &mut evseq,
                                    now + owd,
                                    Kind::DataArrives(TcpSegmentOrd(seg)),
                                );
                            }
                        }
                    }
                }
                Kind::DelackFires => {
                    if delack_deadline == Some(now) {
                        delack_deadline = None;
                        if let Some(ack) = rx.on_delack_timer(now) {
                            push(
                                &mut heap,
                                &mut evseq,
                                now + owd,
                                Kind::AckArrives(TcpSegmentOrd(ack)),
                            );
                        }
                    }
                }
            }
        }
        (now, tx)
    }

    #[test]
    fn lossless_transfer_completes_quickly() {
        let total = 500 * MSS;
        let owd = Nanos::from_millis(10);
        let (t, tx) = run_transfer(total, owd, |_| false);
        assert_eq!(tx.stats.timeouts, 0);
        assert_eq!(tx.stats.fast_retransmits, 0);
        // 500 segments, IW10, slow start doubling: ~6 RTTs ≈ 120 ms,
        // allow generous slack for delayed ACK interactions.
        assert!(t < Nanos::from_millis(400), "took {t} — slow start broken?");
    }

    #[test]
    fn single_loss_recovers_via_fast_retransmit() {
        let total = 500 * MSS;
        let (t, tx) = run_transfer(total, Nanos::from_millis(10), |i| i == 20);
        assert_eq!(tx.stats.timeouts, 0, "should not need an RTO");
        assert!(tx.stats.fast_retransmits >= 1);
        // Recovery repairs the loss without an RTO, then CUBIC regrows
        // from 0.7 of the slow-start window: several hundred ms for the
        // remaining ~480 segments.
        assert!(t < Nanos::from_millis(1500), "took {t}");
    }

    #[test]
    fn burst_loss_recovers() {
        // NewReno handles multi-segment loss with one partial-ack
        // retransmission per RTT; it may need an RTO for edge cases, but
        // must complete either way.
        let total = 500 * MSS;
        let (t, tx) = run_transfer(total, Nanos::from_millis(10), |i| (20..24).contains(&i));
        assert!(tx.done());
        assert!(t < Nanos::from_secs(5), "took {t}");
    }

    #[test]
    fn loss_of_entire_initial_window_needs_rto() {
        let total = 100 * MSS;
        let (_, tx) = run_transfer(total, Nanos::from_millis(10), |i| i < 10);
        assert!(tx.stats.timeouts >= 1, "only an RTO can recover here");
        assert!(tx.done());
    }

    #[test]
    fn random_heavy_loss_still_completes() {
        // 10% deterministic-pattern loss.
        let total = 300 * MSS;
        let (_, tx) = run_transfer(total, Nanos::from_millis(5), |i| i % 10 == 7);
        assert!(tx.done());
    }

    #[test]
    fn throughput_scales_with_rtt() {
        // Same transfer, double the RTT → longer completion (sanity check
        // that the window feedback loop is RTT-bound, not rate-bound).
        let total = 1000 * MSS;
        let (t1, _) = run_transfer(total, Nanos::from_millis(5), |_| false);
        let (t2, _) = run_transfer(total, Nanos::from_millis(20), |_| false);
        assert!(t2 > t1, "RTT {t1} vs {t2}");
    }
}
