//! A timer whose deadline moves in place, over an event queue that has no
//! cancel.
//!
//! TCP moves its retransmission and delayed-ACK deadlines on nearly every
//! segment, as Linux moves a socket's timers in place. Pushing one wheel
//! event per move would leave the queue holding events that fire only to
//! be ignored (on `tcp30_mixed`, over nine in ten timer dispatches and a
//! third of all events). A [`Deadline`] keeps the live deadline beside the time
//! of the one event it counts on, and pushes only when the deadline moves
//! ahead of that event.

use wifiq_sim::Nanos;

/// One re-armable timer of a traffic component.
///
/// Invariant: while the deadline is live, an event is pending at or
/// before it (`pending <= live`). So the timer fires at exactly the live
/// deadline, as a push per re-arm would; only its place among other
/// events of that same nanosecond can differ.
#[derive(Debug, Default)]
pub(crate) struct Deadline {
    /// When the timer is due; `None` while disarmed.
    live: Option<Nanos>,
    /// When the event this timer counts on fires. An arm that moves the
    /// deadline ahead of it pushes anew and leaves the old event to fire
    /// unclaimed.
    pending: Option<Nanos>,
}

impl Deadline {
    /// Makes `at` the live deadline. Calls `push(at)` only when no event
    /// is pending at or before `at`.
    pub(crate) fn arm(&mut self, at: Nanos, push: impl FnOnce(Nanos)) {
        self.live = Some(at);
        if self.pending.is_none_or(|p| at < p) {
            self.pending = Some(at);
            push(at);
        }
    }

    /// Clears the deadline. A pending event still fires and is ignored.
    pub(crate) fn disarm(&mut self) {
        self.live = None;
    }

    /// Claims an event of this timer firing at `now`: true only at the
    /// live deadline, which it clears. An event that fires before a
    /// deadline moved later calls `push(deadline)` once.
    pub(crate) fn fire(&mut self, now: Nanos, push: impl FnOnce(Nanos)) -> bool {
        if self.pending != Some(now) {
            return false;
        }
        self.pending = None;
        match self.live {
            Some(at) if at == now => {
                self.live = None;
                true
            }
            Some(at) => {
                debug_assert!(at > now, "a live deadline lies behind its pending event");
                self.pending = Some(at);
                push(at);
                false
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Arm this far ahead of the clock.
        Arm(u64),
        Disarm,
        /// Run every event up to this far ahead; a fire re-arms this far
        /// ahead of itself (as an RTO does), or not at all.
        Advance(u64, Option<u64>),
    }

    fn op() -> impl Strategy<Value = Op> {
        // Short distances, so events share instants and arms land on both
        // sides of the pending event. Half the ops arm.
        (0u64..8, 0u64..60, 0u64..40).prop_map(|(kind, d, r)| match kind {
            0..=3 => Op::Arm(d % 40),
            4 => Op::Disarm,
            5 => Op::Advance(d, None),
            _ => Op::Advance(d, Some(r + 1)),
        })
    }

    /// The rule `Deadline` replaces: push on every arm, and let an event
    /// count only where it meets the live deadline.
    #[derive(Default)]
    struct PushPerArm {
        live: Option<Nanos>,
    }

    trait Timer {
        fn arm(&mut self, at: Nanos, push: &mut dyn FnMut(Nanos));
        fn disarm(&mut self);
        fn fire(&mut self, now: Nanos, push: &mut dyn FnMut(Nanos)) -> bool;
    }

    impl Timer for PushPerArm {
        fn arm(&mut self, at: Nanos, push: &mut dyn FnMut(Nanos)) {
            self.live = Some(at);
            push(at);
        }
        fn disarm(&mut self) {
            self.live = None;
        }
        fn fire(&mut self, now: Nanos, _: &mut dyn FnMut(Nanos)) -> bool {
            let due = self.live == Some(now);
            if due {
                self.live = None;
            }
            due
        }
    }

    impl Timer for Deadline {
        fn arm(&mut self, at: Nanos, push: &mut dyn FnMut(Nanos)) {
            Deadline::arm(self, at, push)
        }
        fn disarm(&mut self) {
            Deadline::disarm(self)
        }
        fn fire(&mut self, now: Nanos, push: &mut dyn FnMut(Nanos)) -> bool {
            Deadline::fire(self, now, push)
        }
    }

    /// One timer over a queue ordered by (time, push order), the wheel's
    /// total order, and what it did.
    #[derive(Default)]
    struct World {
        /// Queued events: (time, push sequence).
        queue: Vec<(Nanos, u64)>,
        now: Nanos,
        /// With `monotone`, every arm is clamped to the latest deadline
        /// armed so far: the shape of TCP's delayed ACK and of a retry
        /// timer, whose deadlines only move later.
        monotone: bool,
        floor: Nanos,
        /// Instants at which the timer fired.
        fired: Vec<Nanos>,
        pushes: u64,
        /// Events queued at once, at most.
        peak_queued: usize,
    }

    impl World {
        fn push(&mut self, at: Nanos) {
            self.pushes += 1;
            self.queue.push((at, self.pushes));
            self.peak_queued = self.peak_queued.max(self.queue.len());
        }

        fn arm(&mut self, timer: &mut dyn Timer, at: Nanos) {
            let at = if self.monotone {
                at.max(self.floor)
            } else {
                at
            };
            self.floor = self.floor.max(at);
            let mut pushed = None;
            timer.arm(at, &mut |t| pushed = Some(t));
            if let Some(t) = pushed {
                self.push(t);
            }
        }

        fn run(mut self, timer: &mut dyn Timer, script: &[Op]) -> World {
            for &op in script {
                match op {
                    Op::Arm(d) => self.arm(timer, self.now + Nanos(d)),
                    Op::Disarm => timer.disarm(),
                    Op::Advance(d, rearm) => {
                        let until = self.now + Nanos(d);
                        while let Some(i) = (0..self.queue.len())
                            .filter(|&i| self.queue[i].0 <= until)
                            .min_by_key(|&i| self.queue[i])
                        {
                            self.now = self.queue.swap_remove(i).0;
                            let mut pushed = None;
                            if timer.fire(self.now, &mut |t| pushed = Some(t)) {
                                self.fired.push(self.now);
                                if let Some(r) = rearm {
                                    self.arm(timer, self.now + Nanos(r));
                                }
                            }
                            if let Some(t) = pushed {
                                self.push(t);
                            }
                        }
                        self.now = until;
                    }
                }
            }
            self
        }
    }

    fn run(timer: &mut dyn Timer, script: &[Op], monotone: bool) -> World {
        World {
            monotone,
            ..World::default()
        }
        .run(timer, script)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Any script: the same firing instants as a push per arm, from
        /// no more pushes.
        #[test]
        fn a_deadline_fires_where_a_push_per_arm_fires(
            script in proptest::collection::vec(op(), 1..60)
        ) {
            let reference = run(&mut PushPerArm::default(), &script, false);
            let deadline = run(&mut Deadline::default(), &script, false);
            prop_assert_eq!(&deadline.fired, &reference.fired, "{:?}", script);
            prop_assert!(deadline.pushes <= reference.pushes, "{:?}", script);
        }

        /// Deadlines that only move later: still the same instants, and
        /// never more than one pending event.
        #[test]
        fn a_deadline_that_only_moves_later_keeps_one_event_pending(
            script in proptest::collection::vec(op(), 1..60)
        ) {
            let reference = run(&mut PushPerArm::default(), &script, true);
            let deadline = run(&mut Deadline::default(), &script, true);
            prop_assert_eq!(&deadline.fired, &reference.fired, "{:?}", script);
            prop_assert!(deadline.peak_queued <= 1, "{:?}", script);
        }
    }

    #[test]
    fn an_arm_ahead_of_the_pending_event_pushes_and_the_old_event_is_ignored() {
        let mut d = Deadline::default();
        let mut pushed = Vec::new();
        d.arm(Nanos(100), |t| pushed.push(t));
        d.arm(Nanos(50), |t| pushed.push(t));
        assert_eq!(pushed, [Nanos(100), Nanos(50)]);
        assert!(d.fire(Nanos(50), |_| unreachable!()));
        assert!(!d.fire(Nanos(100), |_| unreachable!()));
    }
}
