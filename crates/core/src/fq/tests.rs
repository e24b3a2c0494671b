use wifiq_codel::{CodelParams, QueuedPacket};

use super::*;

#[derive(Debug, Clone, PartialEq)]
struct Pkt {
    flow: u64,
    t: Nanos,
    len: u64,
    seq: u32,
}

impl QueuedPacket for Pkt {
    fn enqueue_time(&self) -> Nanos {
        self.t
    }
    fn wire_len(&self) -> u64 {
        self.len
    }
}

impl FqPacket for Pkt {
    fn flow_hash(&self) -> u64 {
        self.flow
    }
}

fn pkt(flow: u64, t: Nanos, seq: u32) -> Pkt {
    Pkt {
        flow,
        t,
        len: 1500,
        seq,
    }
}

fn params() -> CodelParams {
    CodelParams::wifi_default()
}

#[test]
fn fifo_within_single_flow() {
    let mut fq = MacFq::new(FqParams::default());
    let tid = fq.register_tid();
    let now = Nanos::ZERO;
    for seq in 0..10 {
        fq.enqueue(pkt(7, now, seq), tid, now);
    }
    for seq in 0..10 {
        let p = fq.dequeue(tid, now, &params()).unwrap();
        assert_eq!(p.seq, seq, "reordering within one flow");
    }
    assert!(fq.dequeue(tid, now, &params()).is_none());
}

#[test]
fn interleaves_two_flows() {
    let mut fq = MacFq::new(FqParams::default());
    let tid = fq.register_tid();
    let now = Nanos::ZERO;
    // Flow 1 has 10 packets queued first, flow 2 has 10 queued after;
    // DRR should alternate rather than drain flow 1 first.
    for seq in 0..10 {
        fq.enqueue(pkt(1, now, seq), tid, now);
    }
    for seq in 0..10 {
        fq.enqueue(pkt(2, now, seq), tid, now);
    }
    let first_8: Vec<u64> = (0..8)
        .map(|_| fq.dequeue(tid, now, &params()).unwrap().flow)
        .collect();
    let flow1 = first_8.iter().filter(|&&f| f == 1).count();
    let flow2 = first_8.iter().filter(|&&f| f == 2).count();
    assert_eq!(flow1, 4, "got {first_8:?}");
    assert_eq!(flow2, 4);
}

#[test]
fn global_limit_enforced() {
    let fqp = FqParams {
        flows: 64,
        limit: 100,
        quantum: 300,
        ..FqParams::default()
    };
    let mut fq = MacFq::new(fqp);
    let tid = fq.register_tid();
    let now = Nanos::ZERO;
    let mut dropped = 0;
    for seq in 0..500 {
        if fq
            .enqueue(pkt(seq as u64 % 3, now, seq), tid, now)
            .is_some()
        {
            dropped += 1;
        }
        assert!(fq.total_packets() <= 100);
    }
    assert_eq!(dropped, 400);
    assert_eq!(fq.stats.drops_overlimit, 400);
}

#[test]
fn overlimit_drops_from_longest_queue() {
    let fqp = FqParams {
        flows: 64,
        limit: 10,
        quantum: 300,
        ..FqParams::default()
    };
    let mut fq = MacFq::new(fqp);
    let tid = fq.register_tid();
    let now = Nanos::ZERO;
    // Flow 1: 9 packets. Flow 2: 1 packet. Next enqueue (flow 2) must
    // drop from flow 1, the longest.
    for seq in 0..9 {
        fq.enqueue(pkt(1, now, seq), tid, now);
    }
    fq.enqueue(pkt(2, now, 0), tid, now);
    let victim = fq.enqueue(pkt(2, now, 1), tid, now).unwrap();
    assert_eq!(victim.flow, 1, "should drop from the longest queue");
}

#[test]
fn equal_backlogs_keep_heap_order() {
    // The heap compares bytes only, and a sift stops at an equal key:
    // between equal backlogs the one that filled first stays the root,
    // whatever the flow indices.
    for (first, second) in [(9, 2), (2, 9)] {
        let mut fq = MacFq::new(FqParams {
            flows: 64,
            limit: 2,
            quantum: 300,
            ..FqParams::default()
        });
        let tid = fq.register_tid();
        let now = Nanos::ZERO;
        fq.enqueue(pkt(first, now, 0), tid, now);
        fq.enqueue(pkt(second, now, 0), tid, now);
        let victim = fq.enqueue(pkt(5, now, 0), tid, now).unwrap();
        assert_eq!(victim.flow, first, "filled {first} then {second}");
    }
}

#[test]
fn cross_tid_collision_goes_to_overflow() {
    let fqp = FqParams {
        flows: 1, // force every hash onto the same queue
        limit: 8192,
        quantum: 300,
        ..FqParams::default()
    };
    let mut fq = MacFq::new(fqp);
    let tid_a = fq.register_tid();
    let tid_b = fq.register_tid();
    let now = Nanos::ZERO;
    fq.enqueue(pkt(1, now, 0), tid_a, now);
    // Same hash target, different TID: must be redirected, not mixed.
    fq.enqueue(pkt(2, now, 0), tid_b, now);
    assert_eq!(fq.stats.collisions, 1);
    assert_eq!(fq.tid_backlog_packets(tid_a), 1);
    assert_eq!(fq.tid_backlog_packets(tid_b), 1);
    // Each TID dequeues its own packet.
    assert_eq!(fq.dequeue(tid_a, now, &params()).unwrap().flow, 1);
    assert_eq!(fq.dequeue(tid_b, now, &params()).unwrap().flow, 2);
}

#[test]
fn queue_released_after_drain_can_move_tids() {
    let fqp = FqParams {
        flows: 1,
        limit: 8192,
        quantum: 300,
        ..FqParams::default()
    };
    let mut fq = MacFq::new(fqp);
    let tid_a = fq.register_tid();
    let tid_b = fq.register_tid();
    let now = Nanos::ZERO;
    fq.enqueue(pkt(1, now, 0), tid_a, now);
    assert!(fq.dequeue(tid_a, now, &params()).is_some());
    // Drain fully: dequeue again returns None and releases the queue.
    assert!(fq.dequeue(tid_a, now, &params()).is_none());
    // Now TID B can claim the hash-target queue without a collision.
    fq.enqueue(pkt(3, now, 0), tid_b, now);
    assert_eq!(fq.stats.collisions, 0);
    assert_eq!(fq.dequeue(tid_b, now, &params()).unwrap().flow, 3);
}

#[test]
fn sparse_flow_gets_priority() {
    let mut fq = MacFq::new(FqParams::default());
    let tid = fq.register_tid();
    let now = Nanos::ZERO;
    // Bulk flow queues 50 packets and is pushed through a few rounds so
    // it lands on the old list.
    for seq in 0..50 {
        fq.enqueue(pkt(1, now, seq), tid, now);
    }
    for _ in 0..5 {
        fq.dequeue(tid, now, &params());
    }
    // A new sparse flow arrives: its packet must come out next.
    fq.enqueue(pkt(99, now, 0), tid, now);
    let p = fq.dequeue(tid, now, &params()).unwrap();
    assert_eq!(p.flow, 99, "sparse flow should jump the bulk flow");
}

#[test]
fn sparse_flow_cannot_game_priority() {
    // A flow that drains and immediately re-queues must not stay on
    // the new list forever: after its queue empties it is demoted to
    // the old list and the bulk flow gets service.
    let mut fq = MacFq::new(FqParams::default());
    let tid = fq.register_tid();
    let now = Nanos::ZERO;
    for seq in 0..50 {
        fq.enqueue(pkt(1, now, seq), tid, now);
    }
    let mut bulk_served = 0;
    for i in 0..20 {
        fq.enqueue(pkt(99, now, i), tid, now);
        // Two dequeues per round: the gamer can take at most one.
        for _ in 0..2 {
            if fq.dequeue(tid, now, &params()).unwrap().flow == 1 {
                bulk_served += 1;
            }
        }
    }
    assert!(
        bulk_served >= 19,
        "bulk flow starved: served {bulk_served}/40 dequeues"
    );
}

#[test]
fn byte_fairness_with_unequal_packet_sizes() {
    // Flow 1 sends 1500-byte packets, flow 2 sends 300-byte packets.
    // Over a long run, DRR should give them equal *bytes*, i.e. five
    // small packets per large one.
    let mut fq = MacFq::new(FqParams::default());
    let tid = fq.register_tid();
    let now = Nanos::ZERO;
    for seq in 0..200 {
        fq.enqueue(
            Pkt {
                flow: 1,
                t: now,
                len: 1500,
                seq,
            },
            tid,
            now,
        );
        for s in 0..5 {
            fq.enqueue(
                Pkt {
                    flow: 2,
                    t: now,
                    len: 300,
                    seq: seq * 5 + s,
                },
                tid,
                now,
            );
        }
    }
    let mut bytes = [0u64; 2];
    for _ in 0..600 {
        let p = fq.dequeue(tid, now, &params()).unwrap();
        bytes[(p.flow - 1) as usize] += p.len;
    }
    let ratio = bytes[0] as f64 / bytes[1] as f64;
    assert!(
        (0.8..1.25).contains(&ratio),
        "byte split not fair: {bytes:?}"
    );
}

#[test]
fn codel_drops_are_accounted() {
    let mut fq = MacFq::new(FqParams::default());
    let tid = fq.register_tid();
    // Enqueue old packets, dequeue far in the future with a deep
    // backlog: CoDel must engage and counters must stay consistent.
    let t0 = Nanos::ZERO;
    for seq in 0..500 {
        fq.enqueue(pkt(1, t0, seq), tid, t0);
    }
    let mut out = 0;
    let mut now = Nanos::from_millis(500);
    while fq.tid_has_data(tid) {
        if fq.dequeue(tid, now, &params()).is_some() {
            out += 1;
        }
        now += Nanos::from_millis(1);
    }
    assert!(fq.stats.drops_codel > 0, "CoDel never engaged");
    assert_eq!(out + fq.stats.drops_codel as usize, 500);
    assert_eq!(fq.total_packets(), 0);
    assert_eq!(fq.tid_backlog_bytes(tid), 0);
}

#[test]
fn tids_are_isolated() {
    let mut fq = MacFq::new(FqParams::default());
    let tid_a = fq.register_tid();
    let tid_b = fq.register_tid();
    let now = Nanos::ZERO;
    for seq in 0..10 {
        fq.enqueue(pkt(1, now, seq), tid_a, now);
    }
    // TID B has nothing: dequeue must not steal TID A's packets.
    assert!(fq.dequeue(tid_b, now, &params()).is_none());
    assert_eq!(fq.tid_backlog_packets(tid_a), 10);
}

#[test]
#[should_panic(expected = "unregistered TID")]
fn unregistered_tid_panics() {
    let mut fq: MacFq<Pkt> = MacFq::new(FqParams::default());
    fq.enqueue(pkt(1, Nanos::ZERO, 0), TidId::from_raw(3, 0), Nanos::ZERO);
}

#[test]
fn detach_reattach_reuses_capacity() {
    let fqp = FqParams {
        flows: 256,
        limit: 8192,
        quantum: 300,
        ..FqParams::default()
    };
    let mut fq = MacFq::new(fqp);
    let tid_a = fq.register_tid();
    let tid_b = fq.register_tid();
    let now = Nanos::ZERO;
    // tid_a claims hash target 0 so tid_b's flow 0 collides into its
    // overflow queue; tid_b's other 99 flows fill its new-flows list.
    fq.enqueue(pkt(0, now, 0), tid_a, now);
    for seq in 0..100 {
        fq.enqueue(pkt(seq as u64, now, seq), tid_b, now);
    }
    let before = fq.churn_capacity_probe();
    assert_eq!(before.0, 256 + 1, "one overflow queue, tid_b's");
    let overflow = fq.tids[tid_b.slot()].overflow_flow;
    assert_eq!(fq.tids[tid_a.slot()].overflow_flow, NIL);
    assert!(before.1 >= 101, "packet arena never grew: {before:?}");
    assert_eq!(fq.tids[tid_b.slot()].new_flows.iter(&fq.flows).count(), 100);

    fq.unregister_tid_with(tid_b, now, |_| {});
    // LIFO slot reuse: the fresh handle revives tid_b's slot with its
    // overflow queue, so the round-trip grows neither the flow pool nor
    // the arena, and the revived slot schedules nothing.
    let tid_b2 = fq.register_tid();
    assert_eq!(tid_b2.slot(), tid_b.slot(), "slot not reused");
    assert_ne!(
        tid_b2.generation(),
        tid_b.generation(),
        "generation not bumped"
    );
    assert_eq!(
        fq.churn_capacity_probe(),
        before,
        "detach/reattach reallocated"
    );
    let revived = &fq.tids[tid_b2.slot()];
    assert_eq!(revived.overflow_flow, overflow, "overflow queue not kept");
    let empty = FlowList::default();
    assert_eq!(revived.new_flows, empty, "new list kept flows");
    assert_eq!(revived.old_flows, empty, "old list kept flows");

    fq.enqueue(pkt(7, now, 0), tid_b2, now);
    assert_eq!(fq.tid_backlog_packets(tid_b2), 1);
    // The revived slot collides again into the queue it kept.
    fq.enqueue(pkt(0, now, 1), tid_b2, now);
    assert_eq!(
        fq.churn_capacity_probe().0,
        256 + 1,
        "collision reallocated"
    );
    fq.check_invariants();
}

#[test]
fn overflow_queues_are_allocated_at_the_first_collision() {
    let fqp = FqParams {
        flows: 1024,
        ..FqParams::default()
    };
    let mut fq = MacFq::new(fqp);
    let now = Nanos::ZERO;
    // 1,000 TIDs, each on a hash target of its own: no TID collides, so
    // none allocates a queue beyond the shared pool.
    let tids: Vec<_> = (0..1000).map(|_| fq.register_tid()).collect();
    for (i, &tid) in tids.iter().enumerate() {
        fq.enqueue(pkt(i as u64, now, 0), tid, now);
    }
    assert_eq!(fq.flows.len(), fqp.flows, "an uncollided TID got a queue");
    assert_eq!(fq.stats.collisions, 0);
    // TID 1 lands on TID 0's target twice: the first collision allocates
    // its overflow queue, the second reuses it.
    fq.enqueue(pkt(0, now, 1), tids[1], now);
    assert_eq!(fq.flows.len(), fqp.flows + 1);
    fq.enqueue(pkt(1024, now, 2), tids[1], now);
    assert_eq!(
        fq.flows.len(),
        fqp.flows + 1,
        "a second collision allocated"
    );
    assert_eq!(fq.stats.collisions, 2);
    let of = fq.tids[tids[1].slot()].overflow_flow as usize;
    assert_eq!(fq.flows[of].queue.len(), 2);
    fq.check_invariants();
}

/// Two TIDs that collide, each with its overflow queue holding a packet:
/// the fixture every planted overflow-ownership violation starts from.
fn two_overflowing_tids() -> (MacFq<Pkt>, [usize; 2]) {
    let mut fq = MacFq::new(FqParams {
        flows: 4,
        ..FqParams::default()
    });
    let now = Nanos::ZERO;
    let tids = [fq.register_tid(), fq.register_tid(), fq.register_tid()];
    fq.enqueue(pkt(0, now, 0), tids[0], now);
    fq.enqueue(pkt(0, now, 1), tids[1], now);
    fq.enqueue(pkt(0, now, 2), tids[2], now);
    fq.check_invariants();
    (fq, [tids[1].slot(), tids[2].slot()])
}

#[test]
#[should_panic(expected = "share overflow queue")]
fn audit_catches_a_shared_overflow_queue() {
    let (mut fq, [a, b]) = two_overflowing_tids();
    fq.tids[b].overflow_flow = fq.tids[a].overflow_flow;
    fq.check_invariants();
}

#[test]
#[should_panic(expected = "overflow queue inside the hash pool")]
fn audit_catches_an_overflow_index_in_the_hash_pool() {
    let (mut fq, [a, _]) = two_overflowing_tids();
    fq.tids[a].overflow_flow = 0;
    fq.check_invariants();
}

#[test]
#[should_panic(expected = "no TID's overflow queue")]
fn audit_catches_an_orphaned_overflow_queue() {
    let (mut fq, [a, _]) = two_overflowing_tids();
    fq.tids[a].overflow_flow = NIL;
    fq.check_invariants();
}

#[test]
fn invariants_hold_across_mixed_workload() {
    // Enqueue / DRR dequeue / overlimit drop / detach interleaving with
    // the full structural audit after every round.
    let mut fq = MacFq::new(FqParams {
        flows: 16,
        limit: 64,
        quantum: 300,
        ..FqParams::default()
    });
    let tid_a = fq.register_tid();
    let tid_b = fq.register_tid();
    let mut now = Nanos::ZERO;
    for round in 0..50u32 {
        for seq in 0..8 {
            fq.enqueue(pkt((round * 8 + seq) as u64 % 11, now, seq), tid_a, now);
            fq.enqueue(pkt((round * 5 + seq) as u64 % 7, now, seq), tid_b, now);
        }
        now += Nanos::from_millis(3);
        for _ in 0..5 {
            fq.dequeue(tid_a, now, &params());
        }
        for _ in 0..3 {
            fq.dequeue(tid_b, now, &params());
        }
        fq.check_invariants();
    }
    assert!(fq.stats.drops_overlimit > 0, "never hit the global limit");
    fq.unregister_tid_with(tid_b, now, |_| {});
    fq.check_invariants();
    // Teardown: drain the survivor and audit the arena directly —
    // every packet that ever entered must have left its slot.
    while fq.dequeue(tid_a, now, &params()).is_some() {}
    fq.unregister_tid_with(tid_a, now, |_| {});
    fq.check_invariants();
    assert_eq!(fq.arena_live(), 0, "drained structure leaked arena slots");
}

#[test]
fn arena_drains_to_zero_after_tid_churn() {
    // Repeated register / load / partial-drain / unregister cycles:
    // unregister discards a TID's backlog mid-flow, the path most
    // likely to strand an arena slot. After every cycle the arena
    // must hold exactly the packets the counters say it does, and a
    // fully torn-down structure must hold none.
    let mut fq = MacFq::new(FqParams {
        flows: 16,
        limit: 256,
        quantum: 300,
        ..FqParams::default()
    });
    let mut now = Nanos::ZERO;
    for cycle in 0..20u64 {
        let tid = fq.register_tid();
        for seq in 0..40 {
            fq.enqueue(pkt((cycle * 13 + seq as u64) % 9, now, seq), tid, now);
        }
        now += Nanos::from_millis(1);
        // Drain only part of the backlog, so unregister must free
        // the remainder through the arena.
        for _ in 0..(cycle % 41) {
            fq.dequeue(tid, now, &params());
        }
        fq.unregister_tid_with(tid, now, |_| {});
        fq.check_invariants();
        assert_eq!(
            fq.arena_live(),
            0,
            "cycle {cycle} left packets stranded in the arena"
        );
    }
    // Steady-state churn must recycle slots, not grow the slab.
    let tid = fq.register_tid();
    let cap = fq.churn_capacity_probe().1;
    for seq in 0..40 {
        fq.enqueue(pkt(seq as u64 % 9, now, seq), tid, now);
    }
    while fq.dequeue(tid, now, &params()).is_some() {}
    assert_eq!(
        fq.churn_capacity_probe().1,
        cap,
        "steady-state churn grew the packet arena"
    );
    assert_eq!(fq.arena_live(), 0);
}

/// Every workload carries one `TidState` per (station, AC) whether or
/// not the sink is on: 200 bytes with eight `Rc` handles, 176 with ids
/// and `VecDeque` lists, 40 with intrusive lists and the ids kept apart.
#[test]
fn tid_state_fits_in_48_bytes() {
    let size = std::mem::size_of::<TidState>();
    assert!(size <= 48, "TidState grew to {size} bytes");
}

/// One `Flow` per pool entry and per colliding TID's overflow queue; the
/// DRR link is paid for by a `u32` heap position.
#[test]
fn flow_fits_in_112_bytes() {
    let size = std::mem::size_of::<Flow>();
    assert!(size <= 112, "Flow grew to {size} bytes");
}

#[test]
fn telemetry_mirrors_stats() {
    let mut fq = MacFq::new(FqParams {
        flows: 16,
        limit: 64,
        quantum: 300,
        ..FqParams::default()
    });
    let tele = Telemetry::enabled();
    fq.set_telemetry(tele.clone(), "fq");
    let tid = fq.register_tid();
    let now = Nanos::ZERO;
    for seq in 0..200 {
        fq.enqueue(pkt(seq as u64 % 7, now, seq), tid, now);
    }
    while fq.dequeue(tid, now, &params()).is_some() {}
    let s = fq.stats;
    assert_eq!(tele.counter("fq", "enqueued", Label::Tid(0)), s.enqueued);
    assert_eq!(
        tele.counter("fq", "drops_overlimit", Label::Global),
        s.drops_overlimit
    );
    assert!(s.drops_overlimit > 0, "test never hit the global limit");
    assert!(
        tele.counter("fq", "drr_rounds", Label::Tid(0)) > 0,
        "DRR rotation never counted"
    );
}

#[test]
fn stats_balance() {
    let mut fq = MacFq::new(FqParams {
        flows: 16,
        limit: 64,
        quantum: 300,
        ..FqParams::default()
    });
    let tid = fq.register_tid();
    let now = Nanos::ZERO;
    for seq in 0..200 {
        fq.enqueue(pkt(seq as u64 % 7, now, seq), tid, now);
    }
    while fq.dequeue(tid, now, &params()).is_some() {}
    let s = fq.stats;
    assert_eq!(
        s.enqueued,
        s.dequeued + s.drops_overlimit + s.drops_codel,
        "packet conservation violated: {s:?}"
    );
}

#[test]
#[should_panic(expected = "DRR quantum must be positive")]
fn zero_quantum_panics() {
    let _: MacFq<Pkt> = MacFq::new(FqParams {
        quantum: 0,
        ..FqParams::default()
    });
}

/// A TID's packet count is a `u32`, so a limit past it is refused before
/// anything is allocated.
#[test]
#[should_panic(expected = "global limit must fit in u32")]
fn limit_past_u32_panics() {
    let _: MacFq<Pkt> = MacFq::new(FqParams {
        limit: u32::MAX as usize + 1,
        ..FqParams::default()
    });
}

// ---- DRR oracle: MacFq vs a one-lap-at-a-time Algorithm 2 ----

/// Algorithm 2 as the paper states it, one DRR lap per loop turn: new
/// and old lists, quantum refill, and the anti-gaming demotion of a new
/// flow that runs empty. No CoDel: the oracle's packets are dequeued at
/// their enqueue time, so CoDel never drops. Flows are keyed by index
/// and never change TID, so there is no overflow queue either.
#[derive(Debug, Default)]
struct ReferenceDrr {
    quantum: i64,
    flows: Vec<RefFlow>,
    tids: Vec<RefTid>,
}

#[derive(Debug, Default)]
struct RefFlow {
    /// `(len, seq)` of each queued packet.
    queue: std::collections::VecDeque<(u64, u32)>,
    deficit: i64,
    scheduled: bool,
}

#[derive(Debug, Default)]
struct RefTid {
    new_flows: std::collections::VecDeque<usize>,
    old_flows: std::collections::VecDeque<usize>,
    drr_rounds: u64,
}

impl ReferenceDrr {
    fn enqueue(&mut self, ti: usize, fi: usize, len: u64, seq: u32) {
        let flow = &mut self.flows[fi];
        flow.queue.push_back((len, seq));
        if !flow.scheduled {
            flow.scheduled = true;
            flow.deficit = self.quantum;
            self.tids[ti].new_flows.push_back(fi);
        }
    }

    /// `(flow, len, seq)` of the packet served, if any.
    fn dequeue(&mut self, ti: usize) -> Option<(usize, u64, u32)> {
        let t = &mut self.tids[ti];
        loop {
            let (fi, from_new) = match (t.new_flows.front(), t.old_flows.front()) {
                (Some(&fi), _) => (fi, true),
                (None, Some(&fi)) => (fi, false),
                (None, None) => return None,
            };
            let flow = &mut self.flows[fi];
            if flow.deficit <= 0 {
                flow.deficit += self.quantum;
                if from_new {
                    t.new_flows.pop_front();
                } else {
                    t.old_flows.pop_front();
                }
                t.old_flows.push_back(fi);
                t.drr_rounds += 1;
                continue;
            }
            match flow.queue.pop_front() {
                Some((len, seq)) => {
                    flow.deficit -= len as i64;
                    return Some((fi, len, seq));
                }
                None if from_new => {
                    t.new_flows.pop_front();
                    t.old_flows.push_back(fi);
                }
                None => {
                    t.old_flows.pop_front();
                    flow.scheduled = false;
                }
            }
        }
    }
}

mod drr_oracle {
    use proptest::prelude::*;

    use super::*;

    const QUANTUM: u32 = 300;
    const TIDS: usize = 2;
    /// Flow hashes of TID `ti` are `ti * FLOWS_PER_TID + f`, so the two
    /// TIDs never contend for one hash target.
    const FLOWS_PER_TID: usize = 4;

    #[derive(Debug, Clone)]
    enum Op {
        Enqueue {
            ti: usize,
            f: usize,
            len: u64,
        },
        Dequeue {
            ti: usize,
        },
        /// Dequeue until the TID is empty: every flow drains, is
        /// released, and comes back fresh on its next enqueue.
        Drain {
            ti: usize,
        },
    }

    fn op() -> impl Strategy<Value = Op> {
        fn enqueue() -> impl Strategy<Value = Op> {
            (0..TIDS, 0..FLOWS_PER_TID, 40u64..3_001).prop_map(|(ti, f, len)| Op::Enqueue {
                ti,
                f,
                len,
            })
        }
        fn dequeue() -> impl Strategy<Value = Op> {
            (0..TIDS).prop_map(|ti| Op::Dequeue { ti })
        }
        prop_oneof![
            enqueue(),
            enqueue(),
            enqueue(),
            dequeue(),
            dequeue(),
            dequeue(),
            (0..TIDS).prop_map(|ti| Op::Drain { ti }),
        ]
    }

    struct Pair {
        fq: MacFq<Pkt>,
        tele: Telemetry,
        tids: Vec<TidId>,
        reference: ReferenceDrr,
        /// Flows per TID for this script (1–4).
        width: [usize; TIDS],
        seq: u32,
    }

    impl Pair {
        fn new(width: [usize; TIDS]) -> Pair {
            let mut fq = MacFq::new(FqParams {
                flows: 64,
                limit: 8192,
                quantum: QUANTUM,
                ..FqParams::default()
            });
            let tele = Telemetry::enabled();
            fq.set_telemetry(tele.clone(), "fq");
            let tids = (0..TIDS).map(|_| fq.register_tid()).collect();
            let reference = ReferenceDrr {
                quantum: QUANTUM as i64,
                flows: (0..TIDS * FLOWS_PER_TID)
                    .map(|_| RefFlow::default())
                    .collect(),
                tids: (0..TIDS).map(|_| RefTid::default()).collect(),
            };
            Pair {
                fq,
                tele,
                tids,
                reference,
                width,
                seq: 0,
            }
        }

        fn enqueue(&mut self, ti: usize, f: usize, len: u64) {
            let fi = ti * FLOWS_PER_TID + f % self.width[ti];
            let p = Pkt {
                flow: fi as u64,
                t: Nanos::ZERO,
                len,
                seq: self.seq,
            };
            assert!(self.fq.enqueue(p, self.tids[ti], Nanos::ZERO).is_none());
            self.reference.enqueue(ti, fi, len, self.seq);
            self.seq += 1;
        }

        /// One dequeue on both sides; true if a packet came out.
        fn dequeue(&mut self, ti: usize) -> bool {
            let got = self
                .fq
                .dequeue(self.tids[ti], Nanos::ZERO, &params())
                .map(|p| (p.flow as usize, p.len, p.seq));
            let want = self.reference.dequeue(ti);
            prop_assert_eq!(got, want, "TID {}: dequeued packet diverged", ti);
            for (tj, t) in self.reference.tids.iter().enumerate() {
                prop_assert_eq!(
                    self.tele.counter("fq", "drr_rounds", Label::Tid(tj as u32)),
                    t.drr_rounds,
                    "TID {}: drr_rounds diverged",
                    tj
                );
            }
            self.fq.check_invariants();
            got.is_some()
        }
    }

    proptest! {
        /// MacFq serves the same packet and counts the same DRR laps as
        /// the one-lap-at-a-time reference after every operation —
        /// whatever shortcut the dequeue takes through idle laps.
        #[test]
        fn dequeue_matches_one_lap_reference(
            width in (1usize..=FLOWS_PER_TID, 1usize..=FLOWS_PER_TID),
            ops in proptest::collection::vec(op(), 1..300)
        ) {
            let mut pair = Pair::new([width.0, width.1]);
            for op in ops {
                match op {
                    Op::Enqueue { ti, f, len } => {
                        pair.enqueue(ti, f, len);
                        pair.fq.check_invariants();
                    }
                    Op::Dequeue { ti } => {
                        pair.dequeue(ti);
                    }
                    Op::Drain { ti } => while pair.dequeue(ti) {},
                }
            }
        }
    }

    /// A lone flow on the old list at deficit `d` takes
    /// `k = ⌊−d / quantum⌋ + 1` laps before it is served: `d = 0, −q,
    /// −q + 1` give `k = 1, 2, 1`.
    #[test]
    fn lone_flow_laps_at_deficit_edges() {
        let q = QUANTUM as i64;
        for (d, k) in [(0, 1), (-q, 2), (-q + 1, 1)] {
            let mut pair = Pair::new([1, 1]);
            // The first packet spends the fresh quantum exactly; the
            // second is served after the lap that moves the flow to the
            // old list, leaving it at `d` there; the third meets `d`.
            pair.enqueue(0, 0, QUANTUM as u64);
            pair.enqueue(0, 0, (q - d) as u64);
            pair.enqueue(0, 0, 1500);
            pair.dequeue(0);
            pair.dequeue(0);
            assert_eq!(pair.fq.flows[0].deficit, d);
            let old = pair.fq.tids[0].old_flows;
            assert_eq!((old.head, old.tail), (0, 0), "flow 0 alone on the old list");
            let before = pair.tele.counter("fq", "drr_rounds", Label::Tid(0));
            assert!(pair.dequeue(0));
            let laps = pair.tele.counter("fq", "drr_rounds", Label::Tid(0)) - before;
            assert_eq!(laps, k as u64, "d = {d}");
            assert_eq!(pair.fq.flows[0].deficit, d + k * q - 1500, "d = {d}");
        }
    }
}
