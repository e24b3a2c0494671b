//! Property tests for the event queue's core guarantees: time ordering,
//! FIFO tie-breaking and an exact live count — plus the event-order
//! oracle that drives the timing wheel and the pre-wheel two-lane heap
//! (`ReferenceQueue`) through identical schedules and demands identical
//! behaviour.

mod reference;

use proptest::prelude::*;
use reference::ReferenceQueue;
use wifiq_sim::{EventQueue, Nanos};

#[derive(Debug, Clone)]
enum Op {
    /// Push an event `delta` ns after the current virtual time.
    Push(u64),
    /// Pop one event.
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![(0u64..1_000_000).prop_map(Op::Push), Just(Op::Pop)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Under any interleaving of pushes and pops:
    /// - popped times never decrease,
    /// - equal-time events pop in insertion order,
    /// - `len()` matches the number of scheduled events.
    #[test]
    fn queue_invariants(ops in proptest::collection::vec(op_strategy(), 1..300)) {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut next_payload = 0u64;
        let mut live = 0usize;
        let mut last = (Nanos::ZERO, 0u64);

        for op in ops {
            match op {
                Op::Push(delta) => {
                    let at = q.now() + Nanos::from_nanos(delta);
                    next_payload += 1;
                    q.push(at, next_payload);
                    live += 1;
                }
                Op::Pop => {
                    let before = q.len();
                    if let Some((t, payload)) = q.pop() {
                        // Time order with FIFO tie-break: (time, payload)
                        // pairs are strictly increasing lexicographically
                        // because payloads are insertion-ordered.
                        prop_assert!(
                            (t, payload) > last,
                            "out of order: {:?} after {:?}", (t, payload), last
                        );
                        last = (t, payload);
                        live -= 1;
                        prop_assert_eq!(q.len(), before - 1);
                    } else {
                        prop_assert_eq!(before, 0);
                    }
                }
            }
            prop_assert_eq!(q.len(), live, "len() diverged from live count");
        }

        // Drain: everything still scheduled pops, in order.
        while let Some((t, payload)) = q.pop() {
            prop_assert!((t, payload) > last);
            last = (t, payload);
            live -= 1;
        }
        prop_assert_eq!(live, 0);
    }
}

/// One step of an oracle schedule. Deltas are drawn from a mix of ranges so
/// shrunk failures stay readable while full runs still reach every admission
/// path: zero (same-timestamp chains), within one 256 ns level-0 slot
/// (several timestamps in a slot), within level 0's 2^20 ns span, and one
/// range per upper level (cascades from each), the last reaching the end of
/// time.
#[derive(Debug, Clone)]
enum OracleOp {
    Push(u64),
    Pop,
    PopTick,
}

fn oracle_op_strategy() -> impl Strategy<Value = OracleOp> {
    // At clock 0 each arm is admitted at one level, which the unit test
    // `oracle_arms_reach_every_level` in
    // `src/event.rs` checks for these same ranges.
    fn near() -> impl Strategy<Value = u64> {
        prop_oneof![Just(0u64), 1u64..256, 256u64..(1 << 20)]
    }
    fn far() -> impl Strategy<Value = u64> {
        prop_oneof![
            (1u64 << 20)..(1 << 26),
            (1u64 << 26)..(1 << 32),
            (1u64 << 32)..(1 << 38),
            (1u64 << 38)..(1 << 44),
            (1u64 << 44)..(1 << 50),
            (1u64 << 50)..(1 << 56),
            (1u64 << 56)..(1 << 62),
            (1u64 << 62)..u64::MAX,
        ]
    }
    // The vendored proptest has no weighted arms; repetition biases the mix
    // toward pushes, near ones most, so queues grow deep enough to exercise
    // every level.
    prop_oneof![
        near().prop_map(OracleOp::Push),
        near().prop_map(OracleOp::Push),
        far().prop_map(OracleOp::Push),
        Just(OracleOp::Pop),
        Just(OracleOp::PopTick),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The event-order oracle: the timing wheel and the pre-wheel two-lane
    /// heap run the same interleaved push/pop schedule and must agree on
    /// every observable — pop sequence (time *and* payload, so FIFO
    /// tie-breaks match exactly), clock, live count and peeked head.
    /// `PopTick` additionally checks that a wheel batch equals the
    /// reference queue popped one event at a time, including the
    /// front-lane-breaking pattern (out-of-order push after an in-order run)
    /// that forces the old implementation to spill.
    #[test]
    fn wheel_matches_reference_queue(
        ops in proptest::collection::vec(oracle_op_strategy(), 1..400),
    ) {
        let mut wheel: EventQueue<u64> = EventQueue::new();
        let mut oracle: ReferenceQueue<u64> = ReferenceQueue::new();
        let mut payload = 0u64;
        let mut batch = Vec::new();

        for op in ops {
            match op {
                OracleOp::Push(delta) => {
                    // Saturating: the last arm reaches past the end of time.
                    let at = Nanos(wheel.now().0.saturating_add(delta));
                    wheel.push(at, payload);
                    oracle.push(at, payload);
                    payload += 1;
                }
                OracleOp::Pop => {
                    prop_assert_eq!(wheel.pop(), oracle.pop(), "pop sequence diverged");
                }
                OracleOp::PopTick => {
                    batch.clear();
                    match wheel.pop_tick(Nanos(u64::MAX), &mut batch) {
                        None => prop_assert_eq!(oracle.peek_time(), None),
                        Some(t) => {
                            // The batch must be exactly what the oracle
                            // yields popping one event at a time at `t`.
                            for p in &batch {
                                prop_assert_eq!(oracle.pop(), Some((t, *p)));
                            }
                            prop_assert!(
                                oracle.peek_time() != Some(t),
                                "pop_tick left same-tick events behind"
                            );
                        }
                    }
                }
            }
            prop_assert_eq!(wheel.len(), oracle.len(), "live count diverged");
            prop_assert_eq!(wheel.now(), oracle.now(), "clock diverged");
            prop_assert_eq!(wheel.peek_time(), oracle.peek_time());
        }

        // Drain both to the end: the tails must agree event for event.
        loop {
            let got = wheel.pop();
            prop_assert_eq!(got, oracle.pop());
            if got.is_none() {
                break;
            }
        }
    }

    /// The exact front-lane-breaking shape from the old unit suite
    /// (`out_of_order_push_spills_front_lane`), generalised: an in-order run
    /// followed by an earlier push, repeated — the wheel must interleave
    /// them exactly as the reference queue does.
    #[test]
    fn spill_patterns_match_reference(
        runs in proptest::collection::vec(
            (proptest::collection::vec(0u64..5_000, 1..8), 0u64..5_000),
            1..20,
        ),
    ) {
        let mut wheel: EventQueue<u32> = EventQueue::new();
        let mut oracle: ReferenceQueue<u32> = ReferenceQueue::new();
        let mut payload = 0u32;
        for (in_order, early) in runs {
            // Ascending lane-friendly pushes...
            let mut at = wheel.now();
            for step in in_order {
                at += Nanos(step);
                wheel.push(at, payload);
                oracle.push(at, payload);
                payload += 1;
            }
            // ...then one push that lands before the lane's tail.
            let spill_at = wheel.now() + Nanos(early);
            wheel.push(spill_at, payload);
            oracle.push(spill_at, payload);
            payload += 1;
            // Drain a couple to advance the clock mid-pattern.
            for _ in 0..2 {
                prop_assert_eq!(wheel.pop(), oracle.pop());
            }
        }
        loop {
            let got = wheel.pop();
            prop_assert_eq!(got, oracle.pop());
            if got.is_none() {
                break;
            }
        }
    }
}

#[test]
fn wheel_order_matches_reference_model() {
    // One long fixed-seed push/pop/pop_tick workload cross-checked against
    // the pre-wheel implementation: pop sequences must be byte-identical.
    let mut q = EventQueue::new();
    let mut r = ReferenceQueue::new();
    let mut rng: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = |span: u64| {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (rng >> 33) % span
    };
    let mut payload = 0u64;
    let mut batch = Vec::new();
    for _ in 0..5000 {
        match next(10) {
            0..=5 => {
                // Jitter of 0 creates same-timestamp chains; larger
                // jitter creates out-of-order pushes; the huge stride
                // (`next` draws 31 bits, shifted up to 2^52) exercises
                // the coarse levels.
                let jitter = match next(4) {
                    0 => 0,
                    1 => next(5) * 10,
                    2 => next(1 << 20),
                    _ => next(1 << 31) << 21,
                };
                let at = q.now() + Nanos(jitter);
                q.push(at, payload);
                r.push(at, payload);
                payload += 1;
            }
            6..=8 => assert_eq!(q.pop(), r.pop()),
            _ => {
                // A whole tick at once must equal the reference popped one
                // event at a time at that tick, and leave none of it behind.
                batch.clear();
                match q.pop_tick(Nanos(u64::MAX), &mut batch) {
                    None => assert_eq!(r.peek_time(), None),
                    Some(t) => {
                        for &p in &batch {
                            assert_eq!(r.pop(), Some((t, p)));
                        }
                        assert_ne!(r.peek_time(), Some(t));
                    }
                }
            }
        }
        assert_eq!(q.len(), r.len(), "live-event count drifted");
        assert_eq!(q.now(), r.now());
    }
    loop {
        let got = q.pop();
        assert_eq!(got, r.pop());
        if got.is_none() {
            break;
        }
    }
}
