//! Property tests for the event queue's core guarantees: time ordering,
//! FIFO tie-breaking, and cancellation consistency — plus the event-order
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
    /// Cancel the i-th still-remembered handle.
    Cancel(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..1_000_000).prop_map(Op::Push),
        Just(Op::Pop),
        (0usize..64).prop_map(Op::Cancel),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Under any interleaving of pushes, pops and cancels:
    /// - popped times never decrease,
    /// - equal-time events pop in insertion order,
    /// - cancelled events never pop,
    /// - `len()` matches the number of live events.
    #[test]
    fn queue_invariants(ops in proptest::collection::vec(op_strategy(), 1..300)) {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut handles = Vec::new();
        let mut next_payload = 0u64;
        let mut cancelled_payloads = Vec::new();
        let mut live = 0usize;
        let mut last = (Nanos::ZERO, 0u64);

        for op in ops {
            match op {
                Op::Push(delta) => {
                    let at = q.now() + Nanos::from_nanos(delta);
                    next_payload += 1;
                    let id = q.push(at, next_payload);
                    handles.push((id, next_payload));
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
                        prop_assert!(
                            !cancelled_payloads.contains(&payload),
                            "cancelled event {payload} popped"
                        );
                        live -= 1;
                        prop_assert_eq!(q.len(), before - 1);
                        handles.retain(|&(_, p)| p != payload);
                    } else {
                        prop_assert_eq!(before, 0);
                    }
                }
                Op::Cancel(i) => {
                    if !handles.is_empty() {
                        let (id, payload) = handles[i % handles.len()];
                        if q.cancel(id) {
                            cancelled_payloads.push(payload);
                            live -= 1;
                            handles.retain(|&(h, _)| h != id);
                        }
                    }
                }
            }
            prop_assert_eq!(q.len(), live, "len() diverged from live count");
        }

        // Drain: everything still live pops, nothing cancelled does.
        while let Some((_, payload)) = q.pop() {
            prop_assert!(!cancelled_payloads.contains(&payload));
            live -= 1;
        }
        prop_assert_eq!(live, 0);
    }

    /// Double-cancel and cancel-after-fire always report false and never
    /// disturb other events.
    #[test]
    fn cancel_is_idempotent(times in proptest::collection::vec(0u64..1000, 2..40)) {
        let mut q = EventQueue::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| q.push(Nanos::from_nanos(t), i))
            .collect();
        // Cancel every other event, twice.
        for (i, id) in ids.iter().enumerate() {
            if i % 2 == 0 {
                prop_assert!(q.cancel(*id));
                prop_assert!(!q.cancel(*id), "double cancel must be false");
            }
        }
        let mut popped = Vec::new();
        while let Some((_, p)) = q.pop() {
            popped.push(p);
        }
        // Exactly the odd-indexed events survive.
        let expect: Vec<usize> = (0..times.len()).filter(|i| i % 2 == 1).collect();
        let mut sorted = popped.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, expect);
        // Cancelling after the fact is refused.
        for id in &ids {
            prop_assert!(!q.cancel(*id));
        }
        prop_assert_eq!(q.len(), 0);
    }
}

/// One step of an oracle schedule. Deltas are drawn from a mix of ranges so
/// shrunk failures stay readable while full runs still reach every admission
/// path: zero (same-timestamp chains), small (level-0 churn), medium
/// (multi-level cascades), and beyond-horizon (the overflow heap).
#[derive(Debug, Clone)]
enum OracleOp {
    Push(u64),
    Pop,
    PopTick,
    Cancel(usize),
}

fn oracle_op_strategy() -> impl Strategy<Value = OracleOp> {
    fn delta() -> impl Strategy<Value = u64> {
        prop_oneof![
            Just(0u64),
            1u64..200,
            1u64..(1 << 22),
            (1u64 << 40)..(1 << 44),
        ]
    }
    // The vendored proptest has no weighted arms; repetition biases the mix
    // toward pushes so queues grow deep enough to exercise every level.
    prop_oneof![
        delta().prop_map(OracleOp::Push),
        delta().prop_map(OracleOp::Push),
        Just(OracleOp::Pop),
        Just(OracleOp::PopTick),
        (0usize..64).prop_map(OracleOp::Cancel),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The event-order oracle: the timing wheel and the pre-wheel two-lane
    /// heap run the same interleaved push/pop/cancel schedule and must agree
    /// on every observable — pop sequence (time *and* payload, so FIFO
    /// tie-breaks match exactly), clock, live count, peeked head, and cancel
    /// outcomes. `PopTick` additionally checks that a wheel batch equals the
    /// reference queue popped one event at a time, including the
    /// front-lane-breaking pattern (out-of-order push after an in-order run)
    /// that forces the old implementation to spill.
    #[test]
    fn wheel_matches_reference_queue(
        ops in proptest::collection::vec(oracle_op_strategy(), 1..400),
    ) {
        let mut wheel: EventQueue<u64> = EventQueue::new();
        let mut oracle: ReferenceQueue<u64> = ReferenceQueue::new();
        // Both queues see pushes in the same order, so the i-th push gets
        // the same internal seq in each; ids are paired by push index.
        let mut live_ids = Vec::new();
        let mut payload = 0u64;
        let mut batch = Vec::new();

        for op in ops {
            match op {
                OracleOp::Push(delta) => {
                    let at = wheel.now() + Nanos::from_nanos(delta);
                    let wid = wheel.push(at, payload);
                    let oid = oracle.push(at, payload);
                    live_ids.push((payload, wid, oid));
                    payload += 1;
                }
                OracleOp::Pop => {
                    let got = wheel.pop();
                    prop_assert_eq!(got, oracle.pop(), "pop sequence diverged");
                    if let Some((_, p)) = got {
                        live_ids.retain(|&(pl, _, _)| pl != p);
                    }
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
                                live_ids.retain(|&(pl, _, _)| pl != *p);
                            }
                            prop_assert!(
                                oracle.peek_time() != Some(t),
                                "pop_tick left same-tick events behind"
                            );
                        }
                    }
                }
                OracleOp::Cancel(i) => {
                    if !live_ids.is_empty() {
                        let (_, wid, oid) = live_ids.remove(i % live_ids.len());
                        prop_assert_eq!(wheel.cancel(wid), oracle.cancel(oid));
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
    // One long fixed-seed push/pop/cancel workload cross-checked against
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
    // (payload, wheel id, oracle id) of every still-scheduled event.
    let mut live = Vec::new();
    for _ in 0..5000 {
        match next(10) {
            0..=5 => {
                // Jitter of 0 creates same-timestamp chains; larger
                // jitter creates out-of-order pushes; the huge stride
                // exercises coarse levels and the overflow heap.
                let jitter = match next(4) {
                    0 => 0,
                    1 => next(5) * 10,
                    2 => next(1 << 20),
                    _ => next(1 << 44),
                };
                let at = q.now() + Nanos(jitter);
                let qid = q.push(at, payload);
                let rid = r.push(at, payload);
                live.push((payload, qid, rid));
                payload += 1;
            }
            6..=8 => {
                let got = q.pop();
                assert_eq!(got, r.pop());
                if let Some((_, p)) = got {
                    live.retain(|&(pl, _, _)| pl != p);
                }
            }
            _ => {
                if !live.is_empty() {
                    let i = next(live.len() as u64) as usize;
                    let (_, qid, rid) = live.remove(i);
                    assert_eq!(q.cancel(qid), r.cancel(rid));
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
