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
        .cold_at(slot)
        .map_or(0, |c| c.stash.iter().filter(|s| s.is_some()).count())
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

#[test]
fn airtime_scheme_charges_affect_selection() {
    let mut path: ApTxPath = ApTxPath::new(&cfg(SchemeKind::AirtimeFair));
    let now = Nanos::ZERO;
    for i in 0..100 {
        path.enqueue(pkt(0, 1, Nanos::from_nanos(i)), now, ignore);
        path.enqueue(pkt(1, 2, Nanos::from_nanos(i)), now, ignore);
    }
    let first = path.next_tx(AccessCategory::Be, now, |_| true).unwrap();
    // Charge the first station heavily; the other must be selected.
    path.on_tx_airtime(
        first,
        AccessCategory::Be,
        Nanos::from_millis(5),
        now,
        144_000_000,
    );
    let second = path.next_tx(AccessCategory::Be, now, |_| true).unwrap();
    assert_ne!(first, second);
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
fn backlog_reports_queued_packets() {
    for scheme in SchemeKind::ALL {
        let mut path: ApTxPath = ApTxPath::new(&cfg(scheme));
        let now = Nanos::ZERO;
        for i in 0..20 {
            path.enqueue(pkt(0, 1, Nanos::from_nanos(i)), now, ignore);
        }
        assert_eq!(path.backlog(), 20, "{scheme}");
        assert!(path.has_data_at(AccessCategory::Be), "{scheme}");
        assert!(!path.has_data_at(AccessCategory::Vo), "{scheme}");
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
    path.rate_of(id1);
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
    let mut c = cfg(SchemeKind::Fifo);
    c.pfifo_limit = 50;
    c.driver_buf_frames = 10;
    let mut path: ApTxPath = ApTxPath::new(&c);
    let now = Nanos::ZERO;
    for i in 0..100 {
        path.enqueue(pkt(0, 1, Nanos::from_nanos(i)), now, ignore);
    }
    // 10 in driver + 50 in qdisc = 60 kept, 40 dropped.
    assert_eq!(path.backlog(), 60);
    assert_eq!(path.queue_drops(), 40);
}
