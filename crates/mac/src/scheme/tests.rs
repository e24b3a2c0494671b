use super::*;
use crate::packet::{NodeAddr, Packet};

fn cfg(scheme: SchemeKind) -> NetworkConfig {
    NetworkConfig::paper_testbed(scheme)
}

fn pkt(sta: StationIdx, flow: u64, now: Nanos) -> Ticket {
    Packet {
        id: 0,
        src: NodeAddr::Server,
        dst: NodeAddr::Station(sta),
        flow,
        len: 1500,
        ac: AccessCategory::Be,
        created: now,
        enqueued: now,
        payload: (),
    }
    .loose_ticket()
}

/// Tickets these tests let the path drop, unfreed: no store here.
fn ignore(_: Ticket) {}

fn drain_one(path: &mut ApTxPath, now: Nanos) -> Option<Aggregate<Ticket>> {
    let id = path.next_tx(AccessCategory::Be, now, |_| true)?;
    path.build(id, AccessCategory::Be, now, ignore)
}

/// Frames parked in a station slot's stash (test probe).
fn stashed(path: &ApTxPath, slot: usize) -> usize {
    path.table
        .get_at(slot)
        .map_or(0, |(_, sta)| sta.cold.stashed())
}

/// Whether a station slot's stash box has been allocated (test probe).
fn has_stash_box(path: &ApTxPath, slot: usize) -> bool {
    path.table
        .get_at(slot)
        .is_some_and(|(_, sta)| sta.cold.stash.is_some())
}

#[test]
fn all_schemes_pass_packets_through() {
    for scheme in SchemeKind::ALL {
        let mut path: ApTxPath = ApTxPath::new(&cfg(scheme));
        let now = Nanos::ZERO;
        for i in 0..10 {
            path.enqueue(pkt(0, 1, Nanos::from_micros(i)), now, ignore);
        }
        let agg = drain_one(&mut path, now).unwrap_or_else(|| panic!("{scheme}: no aggregate"));
        assert_eq!(agg.station, 0);
        assert!(!agg.frames.is_empty());
    }
}

#[test]
fn legacy_driver_budget_is_shared() {
    // Fill with slow-station packets first; the driver budget (128)
    // should be consumed by station 2's TID, leaving the fast
    // station's packets in the qdisc.
    let mut path: ApTxPath = ApTxPath::new(&cfg(SchemeKind::Fifo));
    let now = Nanos::ZERO;
    for i in 0..500 {
        path.enqueue(pkt(2, 1, Nanos::from_nanos(i)), now, ignore);
    }
    for i in 0..100 {
        path.enqueue(pkt(0, 2, Nanos::from_nanos(1000 + i)), now, ignore);
    }
    // Driver holds 128 slow frames; fast station cannot transmit more
    // than what trickles in later — right now its bufq is empty, so
    // the only serviceable TID is the slow one.
    let agg = drain_one(&mut path, now).unwrap();
    assert_eq!(agg.station, 2, "slow station hogs the driver buffer");
}

#[test]
fn fq_mac_keeps_stations_separate() {
    let mut path: ApTxPath = ApTxPath::new(&cfg(SchemeKind::FqMac));
    let now = Nanos::ZERO;
    for i in 0..200 {
        path.enqueue(pkt(2, 1, Nanos::from_nanos(i)), now, ignore);
    }
    for i in 0..50 {
        path.enqueue(pkt(0, 2, Nanos::from_nanos(1000 + i)), now, ignore);
    }
    // RR alternates stations even though the slow one queued first.
    let a = drain_one(&mut path, now).unwrap();
    let b = drain_one(&mut path, now).unwrap();
    assert_ne!(a.station, b.station, "RR must alternate stations");
}

/// Two backlogged stations: charging the selected one's deficit, for
/// airtime it sent or airtime it received (§3.2), hands the turn to the
/// other. With RX accounting off, received airtime charges nothing.
#[test]
fn airtime_scheme_charges_affect_selection() {
    let now = Nanos::ZERO;
    let next = |path: &mut ApTxPath| path.next_tx(AccessCategory::Be, now, |_| true).unwrap();
    let backlogged = |charge_rx: bool| {
        let mut cfg = cfg(SchemeKind::AirtimeFair);
        cfg.airtime.charge_rx = charge_rx;
        let mut path: ApTxPath = ApTxPath::new(&cfg);
        for i in 0..100 {
            path.enqueue(pkt(0, 1, Nanos::from_nanos(i)), now, ignore);
            path.enqueue(pkt(1, 2, Nanos::from_nanos(i)), now, ignore);
        }
        let first = next(&mut path);
        (path, first)
    };
    let heavy = Nanos::from_millis(5);

    let (mut path, first) = backlogged(true);
    path.on_tx_airtime(first, AccessCategory::Be, heavy, now, 144_000_000);
    assert_ne!(next(&mut path), first, "a TX charge must pass the turn");

    let (mut path, first) = backlogged(true);
    path.on_rx_airtime(first, AccessCategory::Be, heavy);
    assert_ne!(next(&mut path), first, "an RX charge must pass the turn");

    let (mut path, first) = backlogged(false);
    path.on_rx_airtime(first, AccessCategory::Be, heavy);
    assert_eq!(next(&mut path), first, "RX accounting is off");
}

#[test]
fn stash_is_offered_first() {
    let mut path: ApTxPath = ApTxPath::new(&cfg(SchemeKind::FqMac));
    let now = Nanos::ZERO;
    // 50 packets for the slow station: the 4 ms cap means 2 frames per
    // aggregate and one stashed.
    for i in 0..50 {
        path.enqueue(pkt(2, 1, Nanos::from_nanos(i)), now, ignore);
    }
    let a = drain_one(&mut path, now).unwrap();
    assert_eq!(a.station, 2);
    assert_eq!(a.frames.len(), 2);
    // Total conservation across repeated builds.
    let mut total = a.frames.len();
    while let Some(agg) = drain_one(&mut path, now) {
        total += agg.frames.len();
    }
    assert_eq!(total, 50, "stashed packets must not be lost");
}

#[test]
fn stash_box_comes_with_the_first_leftover_and_stays() {
    let mut path: ApTxPath = ApTxPath::new(&cfg(SchemeKind::FqMac));
    let now = Nanos::ZERO;
    // A fast station's lone frame fits its aggregate: no box.
    path.enqueue(pkt(0, 1, now), now, ignore);
    assert_eq!(drain_one(&mut path, now).unwrap().frames.len(), 1);
    assert!(!has_stash_box(&path, 0));
    // The slow station's third frame does not fit its first aggregate.
    for i in 0..5 {
        path.enqueue(pkt(2, 1, Nanos::from_nanos(i)), now, ignore);
    }
    assert!(!has_stash_box(&path, 2));
    let a = drain_one(&mut path, now).unwrap();
    assert_eq!((a.station, a.frames.len()), (2, 2));
    assert!(has_stash_box(&path, 2));
    assert_eq!(stashed(&path, 2), 1);
    while drain_one(&mut path, now).is_some() {}
    assert_eq!(stashed(&path, 2), 0);
    assert!(has_stash_box(&path, 2), "an emptied stash keeps its box");
    assert!(!has_stash_box(&path, 0) && !has_stash_box(&path, 1));
}

#[test]
fn detach_hands_every_stashed_frame_to_carry_or_drop() {
    for scheme in [SchemeKind::FqMac, SchemeKind::AirtimeFair] {
        for carry in [false, true] {
            let mut path: ApTxPath = ApTxPath::new(&cfg(scheme));
            let now = Nanos::ZERO;
            for i in 0..10 {
                path.enqueue(pkt(2, 1, Nanos::from_nanos(i)), now, ignore);
                path.enqueue(pkt(1, 2, Nanos::from_nanos(i)), now, ignore);
            }
            // The slow station stashes a leftover; station 1 never
            // builds and has no box.
            let id2 = path.sta_id(2).unwrap();
            let sent = path.build(id2, AccessCategory::Be, now, ignore).unwrap();
            assert_eq!(stashed(&path, 2), 1, "{scheme}");
            assert!(!has_stash_box(&path, 1), "{scheme}");
            for (slot, held) in [(2, 10 - sent.frames.len()), (1, 10)] {
                let id = path.sta_id(slot).unwrap();
                let (mut moved, mut dropped) = (Vec::new(), Vec::new());
                let n =
                    path.detach_station(id, now, carry.then_some(&mut moved), |t| dropped.push(t));
                assert_eq!(n, dropped.len(), "{scheme}");
                let handed = if carry { moved } else { dropped };
                assert_eq!(handed.len(), held, "{scheme}, slot {slot}, carry {carry}");
                assert!(handed.iter().all(|t| t.peer() == slot), "{scheme}");
            }
            assert_eq!(path.backlog() + path.stashed(), 0, "{scheme}");
        }
    }
}

#[test]
fn backlog_reports_queued_packets() {
    for scheme in SchemeKind::ALL {
        let mut path: ApTxPath = ApTxPath::new(&cfg(scheme));
        let now = Nanos::ZERO;
        for i in 0..20 {
            path.enqueue(pkt(0, 1, Nanos::from_nanos(i)), now, ignore);
        }
        assert_eq!(path.backlog(), 20, "{scheme}");
        let has_data_at = |ac| path.table.iter().any(|(id, s)| path.has_frames(s, id, ac));
        assert!(has_data_at(AccessCategory::Be), "{scheme}");
        assert!(!has_data_at(AccessCategory::Vo), "{scheme}");
    }
}

#[test]
fn eligibility_veto_and_reactivate() {
    let mut path: ApTxPath = ApTxPath::new(&cfg(SchemeKind::AirtimeFair));
    let now = Nanos::ZERO;
    for i in 0..20 {
        path.enqueue(pkt(0, 1, Nanos::from_nanos(i)), now, ignore);
    }
    let id0 = path.sta_id(0).unwrap();
    // Vetoed: the scheduler treats station 0 as empty and, having no
    // other candidates, returns None (rotating it off the lists).
    assert_eq!(path.next_tx(AccessCategory::Be, now, |_| false), None);
    // Without reactivation the station stays invisible even though
    // its queue is non-empty.
    assert_eq!(path.next_tx(AccessCategory::Be, now, |_| true), None);
    // Reactivate re-lists it.
    path.reactivate(id0, AccessCategory::Be);
    assert_eq!(path.next_tx(AccessCategory::Be, now, |_| true), Some(id0));
    // Reactivating an empty station is a no-op.
    let mut drained = 0;
    while drain_one(&mut path, now).is_some() {
        drained += 1;
    }
    assert!(drained >= 1);
    path.reactivate(id0, AccessCategory::Be);
    assert_eq!(path.next_tx(AccessCategory::Be, now, |_| true), None);
}

#[test]
fn remove_then_readd_station_reuses_slot() {
    for scheme in SchemeKind::ALL {
        let mut path: ApTxPath = ApTxPath::new(&cfg(scheme));
        let now = Nanos::ZERO;
        for i in 0..30 {
            path.enqueue(pkt(0, 1, Nanos::from_nanos(i)), now, ignore);
            path.enqueue(pkt(1, 2, Nanos::from_nanos(i)), now, ignore);
        }
        let id1 = path.sta_id(1).unwrap();
        path.detach_station(id1, now, None, ignore);
        assert!(!path.station_active(1), "{scheme}");
        assert!(!path.station_current(id1), "{scheme}: handle not stale");
        while let Some(agg) = drain_one(&mut path, now) {
            assert_ne!(agg.station, 1, "{scheme}: removed station was scheduled");
        }
        assert_eq!(path.backlog(), 0, "{scheme}: backlog left behind");
        let readded = path.add_station(&StationCfg::clean(PhyRate::fast_station()));
        assert_eq!(readded.slot(), 1, "{scheme}: LIFO slot reuse");
        assert_ne!(readded, id1, "{scheme}: generation not bumped on reuse");
        assert_eq!(path.station_slots(), 3, "{scheme}: slot table grew");
        path.enqueue(pkt(1, 3, now), now, ignore);
        let agg = drain_one(&mut path, now).expect("readded station must transmit");
        assert_eq!(agg.station, 1, "{scheme}");
    }
}

#[test]
#[should_panic(expected = "stale station handle")]
fn stale_handle_panics_on_use() {
    let mut path: ApTxPath = ApTxPath::new(&cfg(SchemeKind::AirtimeFair));
    let now = Nanos::ZERO;
    let id1 = path.sta_id(1).unwrap();
    path.detach_station(id1, now, None, ignore);
    path.add_station(&StationCfg::clean(PhyRate::fast_station()));
    // The slot is occupied again, but this handle predates the churn.
    path.codel_degraded(id1);
}

#[test]
fn remove_station_migrate_carries_queued_frames() {
    for scheme in SchemeKind::ALL {
        let mut path: ApTxPath = ApTxPath::new(&cfg(scheme));
        let now = Nanos::ZERO;
        for i in 0..30 {
            path.enqueue(pkt(1, 1, Nanos::from_nanos(i)), now, ignore);
            path.enqueue(pkt(0, 2, Nanos::from_nanos(i)), now, ignore);
        }
        // One build may park a leftover frame in station 1's stash;
        // the migrate must pick that up too.
        while let Some(agg) = drain_one(&mut path, now) {
            if agg.station == 1 {
                break;
            }
        }
        let before = path.backlog() + stashed(&path, 1);
        let id1 = path.sta_id(1).unwrap();
        let mut moved = Vec::new();
        path.detach_station(id1, Nanos::ZERO, Some(&mut moved), ignore);
        assert!(!path.station_active(1), "{scheme}");
        assert!(
            moved.iter().all(|t| t.peer() == 1),
            "{scheme}: migrated a bystander's frame"
        );
        // Under FQ-CoDel the shared qdisc keeps station 1's frames
        // (cannot be filtered); everywhere else the AP must hold no
        // frame for the roamer any more.
        if scheme != SchemeKind::FqCodelQdisc {
            assert_eq!(
                path.backlog() + stashed(&path, 1) + moved.len(),
                before,
                "{scheme}: frames vanished in migration"
            );
            while let Some(agg) = drain_one(&mut path, now) {
                assert_ne!(agg.station, 1, "{scheme}: roamer still scheduled");
            }
        }
        // The slot is reusable, exactly as after a plain removal.
        let readded = path.add_station(&StationCfg::clean(PhyRate::fast_station()));
        assert_eq!(readded.slot(), 1, "{scheme}: LIFO slot reuse after migrate");
    }
}

#[test]
fn add_station_grows_roster() {
    for scheme in SchemeKind::ALL {
        let mut path: ApTxPath = ApTxPath::new(&cfg(scheme));
        let now = Nanos::ZERO;
        let id = path.add_station(&StationCfg::clean(PhyRate::slow_station()));
        assert_eq!(id.slot(), 3, "{scheme}: new slot appended");
        path.enqueue(pkt(3, 9, now), now, ignore);
        let agg = drain_one(&mut path, now).expect("new station must transmit");
        assert_eq!(agg.station, 3, "{scheme}");
    }
}

#[test]
fn frame_pool_round_trip_reuses_buffers() {
    let mut path: ApTxPath = ApTxPath::new(&cfg(SchemeKind::FqMac));
    let now = Nanos::ZERO;
    for i in 0..10 {
        path.enqueue(pkt(0, 1, Nanos::from_nanos(i)), now, ignore);
    }
    let id0 = path.sta_id(0).unwrap();
    let agg = drain_one(&mut path, now).unwrap();
    assert_eq!(path.frame_pool_len(), 0, "pool starts empty");
    let mut frames = agg.frames;
    frames.drain(..);
    let cap = frames.capacity();
    let ptr = frames.as_ptr();
    path.recycle_frames(frames);
    assert_eq!(path.frame_pool_len(), 1);
    // The next build must draw the recycled buffer, not allocate.
    for i in 0..5 {
        path.enqueue(pkt(0, 1, Nanos::from_nanos(100 + i)), now, ignore);
    }
    let agg = drain_one(&mut path, now).unwrap();
    assert_eq!(agg.frames.as_ptr(), ptr);
    assert_eq!(agg.frames.capacity(), cap);
    assert_eq!(path.frame_pool_len(), 0);
    // A build that finds nothing returns the buffer to the pool.
    path.recycle_frames(agg.frames);
    assert!(path.build(id0, AccessCategory::Be, now, ignore).is_none());
    assert_eq!(path.frame_pool_len(), 1, "empty build re-pools its buffer");
}

#[test]
fn fifo_scheme_drops_past_qdisc_limit() {
    let mut path: ApTxPath = ApTxPath::new(&cfg(SchemeKind::Fifo));
    let now = Nanos::ZERO;
    for i in 0..1200 {
        path.enqueue(pkt(0, 1, Nanos::from_nanos(i)), now, ignore);
    }
    // 128 in the driver + 1000 in pfifo_fast's BE band = 1128 kept.
    assert_eq!(path.backlog(), 1128);
    assert_eq!(path.queue_drops(), 72);
}

/// The stations of the next `n` aggregates at BE, building each one;
/// `eligible` vetoes as the driver's AQL does.
fn turns(path: &mut ApTxPath, n: usize, eligible: impl Fn(StaId) -> bool) -> Vec<StationIdx> {
    let now = Nanos::ZERO;
    let mut order = Vec::new();
    for _ in 0..n {
        let id = path
            .next_tx(AccessCategory::Be, now, &eligible)
            .expect("a backlogged station");
        order.push(
            path.build(id, AccessCategory::Be, now, ignore)
                .expect("frames")
                .station,
        );
    }
    order
}

/// The round-robin schemes' turn order: three backlogged stations take
/// turns in the order they became backlogged, a station removed
/// mid-round leaves the survivors' order alone, and (under FQ-MAC, the
/// path AQL applies to) a vetoed station leaves the rotation until
/// `reactivate` puts it back at the tail.
#[test]
fn round_robin_turn_order() {
    for scheme in [
        SchemeKind::Fifo,
        SchemeKind::FqCodelQdisc,
        SchemeKind::FqMac,
    ] {
        let mut path: ApTxPath = ApTxPath::new(&cfg(scheme));
        let now = Nanos::ZERO;
        // Six turns' worth for each station, inside pfifo's 1000 limit.
        for i in 0..330 {
            for sta in 0..3 {
                path.enqueue(pkt(sta, sta as u64, Nanos::from_nanos(i)), now, ignore);
            }
        }
        assert_eq!(
            turns(&mut path, 6, |_| true),
            [0, 1, 2, 0, 1, 2],
            "{scheme}"
        );
        if scheme == SchemeKind::FqMac {
            let id0 = path.sta_id(0).unwrap();
            let vetoed = turns(&mut path, 4, |id| id != id0);
            assert_eq!(
                vetoed,
                [1, 2, 1, 2],
                "{scheme}: vetoed station still takes turns"
            );
            path.reactivate(id0, AccessCategory::Be);
            let back = turns(&mut path, 5, |_| true);
            assert_eq!(back, [1, 2, 0, 1, 2], "{scheme}: not back at the tail");
        }
        // Station 0 takes its turn; station 1, next up, leaves.
        assert_eq!(turns(&mut path, 1, |_| true), [0], "{scheme}");
        let id1 = path.sta_id(1).unwrap();
        path.detach_station(id1, now, None, ignore);
        assert_eq!(turns(&mut path, 4, |_| true), [2, 0, 2, 0], "{scheme}");
    }
}
