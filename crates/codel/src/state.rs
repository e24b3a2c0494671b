//! The CoDel control law (RFC 8289), structured after the Linux
//! implementation (`include/net/codel_impl.h`).
//!
//! CoDel is applied *per flow queue*: each queue owns a [`CodelState`] and
//! runs [`CodelState::dequeue`] whenever the scheduler asks it for a packet.
//! The state machine watches the packet *sojourn time* (now − enqueue time);
//! once the minimum sojourn has exceeded `target` for a full `interval` it
//! enters dropping state and drops head packets at a rate that increases
//! with the square root of the drop count — the control law that makes
//! TCP's throughput-vs-drop-rate response converge to the target delay.

use wifiq_sim::Nanos;
use wifiq_telemetry::{CounterId, DropReason, EventKind, HistId, Label, Telemetry};

use crate::params::CodelParams;

/// Pre-resolved telemetry instruments for one CoDel-managed queue — the
/// per-packet fast path of [`CodelState::dequeue_tracked`]. Resolve once
/// per queue (at TID registration / `set_telemetry` time), never per
/// dequeue. The default bundle is disabled: with it `dequeue_tracked` is
/// exactly [`CodelState::dequeue`].
#[derive(Debug, Clone)]
pub struct CodelTele {
    /// The hub the three ids below were resolved from; also takes the
    /// ring events.
    tele: Telemetry,
    /// Counts packets the control law dropped.
    drops: CounterId,
    /// Counts entries into dropping state (the congestion signal).
    marks: CounterId,
    /// Sojourn time of each delivered packet.
    sojourn: HistId,
    /// Component naming this queue in events.
    component: &'static str,
    /// Label naming this queue in events.
    label: Label,
}

impl Default for CodelTele {
    fn default() -> CodelTele {
        CodelTele::resolve(&Telemetry::disabled(), "codel", Label::Global)
    }
}

impl CodelTele {
    /// Resolves the bundle against `tele` under `(component, *, label)`.
    pub fn resolve(tele: &Telemetry, component: &'static str, label: Label) -> CodelTele {
        CodelTele {
            tele: tele.clone(),
            drops: tele.counter_id(component, "drops", label),
            marks: tele.counter_id(component, "marks", label),
            sojourn: tele.hist_id(component, "sojourn_ns", label),
            component,
            label,
        }
    }
}

/// A packet that can be managed by CoDel: it remembers when it was enqueued
/// and knows its on-wire length.
pub trait QueuedPacket {
    /// The time the packet entered the queue (stamped at enqueue,
    /// Algorithm 1 line 9: "Used by CoDel at dequeue").
    fn enqueue_time(&self) -> Nanos;
    /// Length in bytes, used for byte-backlog accounting.
    fn wire_len(&self) -> u64;
}

/// A queue CoDel can drain: pop from the head and report byte backlog.
pub trait CodelQueue {
    /// The packet type stored in the queue.
    type Packet: QueuedPacket;
    /// Removes and returns the head packet.
    fn pop_head(&mut self) -> Option<Self::Packet>;
    /// Total bytes currently queued (after any pops already performed).
    fn backlog_bytes(&self) -> u64;
}

/// Per-queue CoDel state machine.
#[derive(Debug, Clone, Default)]
pub struct CodelState {
    /// When the sojourn time first rose above target; `None` while below.
    first_above_time: Option<Nanos>,
    /// Time of the next scheduled drop while in dropping state.
    drop_next: Nanos,
    /// Packets dropped since entering the current dropping state.
    count: u32,
    /// `count` from the previous dropping cycle, for the re-entry heuristic.
    lastcount: u32,
    /// Whether the control law is currently in dropping state.
    dropping: bool,
    /// Lifetime count of packets dropped by this state machine.
    pub drops: u64,
    /// Sojourn time of the last packet delivered (for telemetry).
    pub last_sojourn: Nanos,
}

impl CodelState {
    /// Creates a fresh (non-dropping) state.
    pub fn new() -> CodelState {
        CodelState::default()
    }

    /// `t + interval / sqrt(count)` — the CoDel control law.
    fn control_law(&self, t: Nanos, interval: Nanos) -> Nanos {
        let step = (interval.as_nanos() as f64 / (self.count.max(1) as f64).sqrt()) as u64;
        t + Nanos::from_nanos(step)
    }

    /// The should-drop predicate; updates `first_above_time`.
    fn should_drop<P: QueuedPacket>(
        &mut self,
        pkt: Option<&P>,
        backlog: u64,
        now: Nanos,
        params: &CodelParams,
    ) -> bool {
        let Some(pkt) = pkt else {
            self.first_above_time = None;
            return false;
        };
        let sojourn = now.saturating_sub(pkt.enqueue_time());
        self.last_sojourn = sojourn;
        if sojourn < params.target || backlog <= params.mtu {
            // Went (or stayed) below target: leave the above-target window.
            self.first_above_time = None;
            false
        } else {
            match self.first_above_time {
                None => {
                    // Just went above target; arm the interval window.
                    self.first_above_time = Some(now + params.interval);
                    false
                }
                Some(fat) => now >= fat,
            }
        }
    }

    /// Dequeues one packet through the CoDel state machine.
    ///
    /// `on_drop` is invoked for every packet CoDel decides to drop (so the
    /// caller can account global limits / statistics). Returns the packet to
    /// deliver, or `None` if the queue is (or becomes) empty.
    pub fn dequeue<Q, F>(
        &mut self,
        now: Nanos,
        params: &CodelParams,
        queue: &mut Q,
        mut on_drop: F,
    ) -> Option<Q::Packet>
    where
        Q: CodelQueue,
        F: FnMut(Q::Packet),
    {
        let mut pkt = queue.pop_head();
        if pkt.is_none() {
            self.dropping = false;
            return None;
        }
        let mut drop = self.should_drop(pkt.as_ref(), queue.backlog_bytes(), now, params);

        if self.dropping {
            if !drop {
                // Sojourn went below target; leave dropping state.
                self.dropping = false;
            } else if now >= self.drop_next {
                while self.dropping && now >= self.drop_next {
                    self.count += 1;
                    self.drops += 1;
                    on_drop(pkt.take().expect("packet present in dropping loop"));
                    pkt = queue.pop_head();
                    if !self.should_drop(pkt.as_ref(), queue.backlog_bytes(), now, params) {
                        self.dropping = false;
                    } else {
                        self.drop_next = self.control_law(self.drop_next, params.interval);
                    }
                }
            }
        } else if drop {
            self.drops += 1;
            on_drop(pkt.take().expect("packet present on entering drop state"));
            pkt = queue.pop_head();
            drop = self.should_drop(pkt.as_ref(), queue.backlog_bytes(), now, params);
            let _ = drop;
            self.dropping = true;

            // If we were recently dropping, resume near the previous drop
            // rate instead of restarting from scratch (the "count - lastcount"
            // heuristic from the reference implementation).
            let delta = self.count.wrapping_sub(self.lastcount);
            if delta > 1 && now.saturating_sub(self.drop_next) < params.interval * 16 {
                self.count = delta;
            } else {
                self.count = 1;
            }
            self.lastcount = self.count;
            self.drop_next = self.control_law(now, params.interval);
        }

        pkt
    }

    /// Whether the state machine is currently in dropping state.
    pub fn is_dropping(&self) -> bool {
        self.dropping
    }

    /// [`CodelState::dequeue`] with telemetry: records the delivered
    /// packet's sojourn time, counts and reports drops, and emits a `mark`
    /// event whenever the control law newly enters dropping state (the
    /// simulator drops rather than ECN-marks, so "entered dropping" is the
    /// congestion signal). Every record is an indexed write; with a
    /// disabled bundle this is exactly `dequeue`.
    pub fn dequeue_tracked<Q, F>(
        &mut self,
        now: Nanos,
        params: &CodelParams,
        queue: &mut Q,
        mut on_drop: F,
        ct: &CodelTele,
    ) -> Option<Q::Packet>
    where
        Q: CodelQueue,
        F: FnMut(Q::Packet),
    {
        if !ct.tele.is_enabled() {
            return self.dequeue(now, params, queue, on_drop);
        }
        let was_dropping = self.dropping;
        let pkt = self.dequeue(now, params, queue, |victim| {
            ct.tele.add(ct.drops, 1);
            ct.tele.event(
                now,
                ct.component,
                EventKind::Drop {
                    label: ct.label,
                    bytes: victim.wire_len() as u32,
                    reason: DropReason::Codel,
                },
            );
            on_drop(victim);
        });
        if pkt.is_some() {
            ct.tele.record(ct.sojourn, self.last_sojourn.as_nanos());
        }
        if self.dropping && !was_dropping {
            ct.tele.add(ct.marks, 1);
            ct.tele.event(
                now,
                ct.component,
                EventKind::Mark {
                    label: ct.label,
                    sojourn: self.last_sojourn,
                },
            );
        }
        pkt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    #[derive(Debug, Clone, PartialEq)]
    struct Pkt {
        at: Nanos,
        len: u64,
    }

    impl QueuedPacket for Pkt {
        fn enqueue_time(&self) -> Nanos {
            self.at
        }
        fn wire_len(&self) -> u64 {
            self.len
        }
    }

    struct Q(VecDeque<Pkt>);

    impl Q {
        fn new() -> Q {
            Q(VecDeque::new())
        }
        fn push(&mut self, at: Nanos, len: u64) {
            self.0.push_back(Pkt { at, len });
        }
    }

    impl CodelQueue for Q {
        type Packet = Pkt;
        fn pop_head(&mut self) -> Option<Pkt> {
            self.0.pop_front()
        }
        fn backlog_bytes(&self) -> u64 {
            self.0.iter().map(|p| p.len).sum()
        }
    }

    fn params() -> CodelParams {
        CodelParams::wifi_default()
    }

    #[test]
    fn empty_queue_returns_none() {
        let mut st = CodelState::new();
        let mut q = Q::new();
        assert!(st
            .dequeue(Nanos::from_secs(1), &params(), &mut q, |_| {})
            .is_none());
    }

    #[test]
    fn below_target_never_drops() {
        let mut st = CodelState::new();
        let mut q = Q::new();
        let mut now = Nanos::ZERO;
        for _ in 0..1000 {
            // Rebuild a 5-deep queue of packets enqueued "now" each round,
            // so the head's sojourn at dequeue is exactly 1 ms < 20 ms.
            q.0.clear();
            for _ in 0..5 {
                q.push(now, 1500);
            }
            now += Nanos::from_millis(1);
            let got = st.dequeue(now, &params(), &mut q, |_| panic!("dropped"));
            assert!(got.is_some());
        }
        assert_eq!(st.drops, 0);
    }

    #[test]
    fn small_backlog_never_drops_despite_sojourn() {
        // One packet with huge sojourn, but backlog after pop is 0 ≤ mtu.
        let mut st = CodelState::new();
        let mut q = Q::new();
        q.push(Nanos::ZERO, 1500);
        let got = st.dequeue(Nanos::from_secs(10), &params(), &mut q, |_| panic!());
        assert!(got.is_some());
        assert_eq!(st.drops, 0);
    }

    /// Drives a persistently over-target queue and returns (delivered,
    /// dropped) counts over `steps` dequeues spaced `step` apart.
    fn drive_overloaded(steps: u64, step: Nanos, sojourn: Nanos) -> (u64, u64) {
        let mut st = CodelState::new();
        let mut q = Q::new();
        let mut delivered = 0;
        let mut dropped = 0;
        let mut now = sojourn;
        for _ in 0..steps {
            // Rebuild the queue each round: 20 packets exactly `sojourn`
            // old, so the head's sojourn is constant across the run.
            q.0.clear();
            for _ in 0..20 {
                q.push(now.saturating_sub(sojourn), 1500);
            }
            if st
                .dequeue(now, &params(), &mut q, |_| dropped += 1)
                .is_some()
            {
                delivered += 1;
            }
            now += step;
        }
        (delivered, dropped)
    }

    #[test]
    fn sustained_overload_enters_dropping() {
        let (delivered, dropped) =
            drive_overloaded(2000, Nanos::from_millis(1), Nanos::from_millis(100));
        assert!(dropped > 0, "CoDel never dropped under sustained overload");
        assert!(delivered > 0, "CoDel starved the queue completely");
    }

    #[test]
    fn first_drop_happens_after_interval_not_before() {
        let mut st = CodelState::new();
        let mut q = Q::new();
        let p = params();
        let mut dropped = 0;
        // All packets 30 ms old (above 20 ms target), dequeued every 5 ms.
        let mut now = Nanos::from_millis(30);
        let mut elapsed = Nanos::ZERO;
        let mut first_drop_at = None;
        for _ in 0..100 {
            q.0.clear();
            for _ in 0..10 {
                q.push(now - Nanos::from_millis(30), 1500);
            }
            let before = dropped;
            let _ = st.dequeue(now, &p, &mut q, |_| dropped += 1);
            if dropped > before && first_drop_at.is_none() {
                first_drop_at = Some(elapsed);
            }
            now += Nanos::from_millis(5);
            elapsed += Nanos::from_millis(5);
        }
        let at = first_drop_at.expect("never dropped");
        assert!(
            at >= p.interval,
            "dropped after {at}, before a full interval elapsed"
        );
    }

    #[test]
    fn drop_rate_increases_with_time() {
        // With the sqrt control law, the second half of a long overload
        // must see at least as many drops as the first half.
        let (_, first_half) =
            drive_overloaded(1000, Nanos::from_millis(1), Nanos::from_millis(100));
        let (_, both) = drive_overloaded(2000, Nanos::from_millis(1), Nanos::from_millis(100));
        let second_half = both - first_half;
        assert!(
            second_half >= first_half,
            "drops decelerated: {first_half} then {second_half}"
        );
    }

    #[test]
    fn recovery_exits_dropping_state() {
        let mut st = CodelState::new();
        let mut q = Q::new();
        let p = params();
        let mut now = Nanos::from_millis(100);
        // Overload long enough to start dropping.
        for _ in 0..500 {
            q.0.clear();
            for _ in 0..20 {
                q.push(now - Nanos::from_millis(100), 1500);
            }
            let _ = st.dequeue(now, &p, &mut q, |_| {});
            now += Nanos::from_millis(1);
        }
        assert!(st.is_dropping());
        // Now deliver fresh packets (sojourn ~0): state must clear.
        q.0.clear();
        q.push(now, 1500);
        q.push(now, 1500);
        q.push(now, 1500);
        let _ = st.dequeue(now, &p, &mut q, |_| panic!("dropped fresh packet"));
        assert!(!st.is_dropping());
    }

    #[test]
    fn slow_station_params_drop_later() {
        // Same overload pattern, but sojourn between the two targets:
        // 35 ms is above the 20 ms wifi target but below the 50 ms
        // slow-station target, so only the default params drop.
        let run = |p: CodelParams| -> u64 {
            let mut st = CodelState::new();
            let mut q = Q::new();
            let mut dropped = 0;
            let mut now = Nanos::from_millis(35);
            for _ in 0..2000 {
                q.0.clear();
                for _ in 0..20 {
                    q.push(now - Nanos::from_millis(35), 1500);
                }
                let _ = st.dequeue(now, &p, &mut q, |_| dropped += 1);
                now += Nanos::from_millis(1);
            }
            dropped
        };
        assert!(run(CodelParams::wifi_default()) > 0);
        assert_eq!(run(CodelParams::slow_station()), 0);
    }
}
