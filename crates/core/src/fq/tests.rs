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
    // overflow queue; tid_b's other 99 flows grow its new-flows list.
    fq.enqueue(pkt(0, now, 0), tid_a, now);
    for seq in 0..100 {
        fq.enqueue(pkt(seq as u64, now, seq), tid_b, now);
    }
    let before = fq.churn_capacity_probe(tid_b);
    assert!(before.0 >= 99, "new-flows list never grew: {before:?}");
    assert!(before.2 >= 101, "packet arena never grew: {before:?}");

    fq.unregister_tid(tid_b, now);
    // LIFO slot reuse: the fresh handle revives tid_b's slot, and the
    // round-trip must not have released any of its capacity.
    let tid_b2 = fq.register_tid();
    assert_eq!(tid_b2.slot(), tid_b.slot(), "slot not reused");
    assert_ne!(
        tid_b2.generation(),
        tid_b.generation(),
        "generation not bumped"
    );
    let after = fq.churn_capacity_probe(tid_b2);
    assert_eq!(before, after, "detach/reattach reallocated");

    fq.enqueue(pkt(7, now, 0), tid_b2, now);
    assert_eq!(fq.tid_backlog_packets(tid_b2), 1);
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
    fq.unregister_tid(tid_b, now);
    fq.check_invariants();
    // Teardown: drain the survivor and audit the arena directly —
    // every packet that ever entered must have left its slot.
    while fq.dequeue(tid_a, now, &params()).is_some() {}
    fq.unregister_tid(tid_a, now);
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
        fq.unregister_tid(tid, now);
        fq.check_invariants();
        assert_eq!(
            fq.arena_live(),
            0,
            "cycle {cycle} left packets stranded in the arena"
        );
    }
    // Steady-state churn must recycle slots, not grow the slab.
    let tid = fq.register_tid();
    let cap = fq.churn_capacity_probe(tid).2;
    for seq in 0..40 {
        fq.enqueue(pkt(seq as u64 % 9, now, seq), tid, now);
    }
    while fq.dequeue(tid, now, &params()).is_some() {}
    assert_eq!(
        fq.churn_capacity_probe(tid).2,
        cap,
        "steady-state churn grew the packet arena"
    );
    assert_eq!(fq.arena_live(), 0);
}

/// Every workload carries one `TidState` per (station, AC) through its
/// caches whether or not the sink is on, so the instrument bundle must
/// not fatten it: 200 bytes with eight `Rc` handles, 176 with ids.
#[test]
fn tid_state_is_no_larger_than_with_rc_handles() {
    let size = std::mem::size_of::<TidState>();
    assert!(size <= 200, "TidState grew to {size} bytes");
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
