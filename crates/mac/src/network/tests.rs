use super::*;

/// Minimal app: the server floods UDP-like packets to each station on
/// a timer; stations count deliveries.
struct FloodApp {
    next_id: u64,
    interval: Nanos,
    per_station_bytes: Vec<u64>,
    latencies: Vec<Vec<Nanos>>,
    stations: usize,
}

impl FloodApp {
    fn new(stations: usize, interval: Nanos) -> FloodApp {
        FloodApp {
            next_id: 0,
            interval,
            per_station_bytes: vec![0; stations],
            latencies: vec![Vec::new(); stations],
            stations,
        }
    }
}

impl App<()> for FloodApp {
    fn on_packet(&mut self, at: Delivery, pkt: Packet<()>, now: Nanos, _cmds: &mut Commands<()>) {
        if let Delivery::AtStation(i) = at {
            self.per_station_bytes[i] += pkt.len;
            self.latencies[i].push(now - pkt.created);
        }
    }

    fn on_timer(&mut self, token: u64, now: Nanos, cmds: &mut Commands<()>) {
        for i in 0..self.stations {
            self.next_id += 1;
            cmds.send(Packet {
                id: self.next_id,
                src: NodeAddr::Server,
                dst: NodeAddr::Station(i),
                flow: i as u64 + 1,
                len: 1500,
                ac: AccessCategory::Be,
                created: now,
                enqueued: now,
                payload: (),
            });
        }
        cmds.set_timer(token, now + self.interval);
    }
}

fn run_flood(scheme: SchemeKind, secs: u64, interval: Nanos) -> (WifiNetwork<()>, FloodApp) {
    let cfg = NetworkConfig::paper_testbed(scheme);
    let mut net = WifiNetwork::new(cfg);
    let mut app = FloodApp::new(3, interval);
    net.seed_timer(0, Nanos::ZERO);
    net.run(Nanos::from_secs(secs), &mut app);
    (net, app)
}

#[test]
fn light_traffic_flows_under_all_schemes() {
    for scheme in SchemeKind::ALL {
        // 1500 B per station every 10 ms = 1.2 Mbps each: no overload.
        let (net, app) = run_flood(scheme, 2, Nanos::from_millis(10));
        for i in 0..3 {
            let expect = 2_000 / 10 * 1500; // ~200 packets
            let got = app.per_station_bytes[i];
            assert!(
                got as f64 > expect as f64 * 0.9,
                "{scheme} station {i}: {got} of {expect} bytes"
            );
        }
        assert!(
            net.ap_queue_drops() == 0,
            "{scheme} dropped under light load"
        );
    }
}

#[test]
fn light_traffic_latency_is_low() {
    for scheme in SchemeKind::ALL {
        let (_, app) = run_flood(scheme, 2, Nanos::from_millis(10));
        for i in 0..3 {
            let max = app.latencies[i].iter().max().unwrap();
            assert!(
                *max < Nanos::from_millis(30),
                "{scheme} station {i}: worst latency {max}"
            );
        }
    }
}

#[test]
fn saturation_reveals_the_anomaly_under_fifo() {
    // Offered load far above capacity: 1500 B per station every 200 µs
    // = 60 Mbps each.
    let (net, _) = run_flood(SchemeKind::Fifo, 4, Nanos::from_micros(200));
    let shares = net.meter().airtime_shares();
    // The slow station (index 2) must dominate airtime — the 802.11
    // performance anomaly (~80% in the paper).
    assert!(
        shares[2] > 0.6,
        "anomaly absent under FIFO: shares {shares:?}"
    );
}

#[test]
fn airtime_scheme_equalises_airtime() {
    let (net, _) = run_flood(SchemeKind::AirtimeFair, 4, Nanos::from_micros(200));
    let shares = net.meter().airtime_shares();
    for (i, s) in shares.iter().enumerate() {
        assert!(
            (s - 1.0 / 3.0).abs() < 0.05,
            "station {i} share {s:.3}: {shares:?}"
        );
    }
}

#[test]
fn airtime_scheme_beats_fifo_on_total_throughput() {
    let (fifo, app_fifo) = run_flood(SchemeKind::Fifo, 4, Nanos::from_micros(200));
    let (air, app_air) = run_flood(SchemeKind::AirtimeFair, 4, Nanos::from_micros(200));
    let total_fifo: u64 = app_fifo.per_station_bytes.iter().sum();
    let total_air: u64 = app_air.per_station_bytes.iter().sum();
    assert!(
        total_air as f64 > total_fifo as f64 * 2.0,
        "expected big throughput win: FIFO {total_fifo}, airtime {total_air}"
    );
    let _ = (fifo, air);
}

#[test]
fn aggregation_starvation_under_fifo() {
    // Under FIFO saturation, fast stations get only small aggregates
    // (the slow station hogs the driver buffer); under FQ-MAC they
    // aggregate well. Paper Table 1: 4.47 vs 18.44 mean frames.
    let (fifo, _) = run_flood(SchemeKind::Fifo, 4, Nanos::from_micros(200));
    let (fqmac, _) = run_flood(SchemeKind::FqMac, 4, Nanos::from_micros(200));
    let fast_fifo = fifo.station_meter(0).mean_aggregation();
    let fast_fqmac = fqmac.station_meter(0).mean_aggregation();
    assert!(
        fast_fqmac > fast_fifo * 2.0,
        "FQ-MAC should restore aggregation: FIFO {fast_fifo:.2}, FQ-MAC {fast_fqmac:.2}"
    );
}

#[test]
fn hw_queue_depth_knob_works() {
    // Any depth ≥ 1 must carry traffic; deeper queues may pipeline
    // slightly better but never break.
    for depth in [1usize, 2, 8] {
        let mut cfg = NetworkConfig::paper_testbed(SchemeKind::AirtimeFair);
        cfg.hw_queue_depth = depth;
        let mut net = WifiNetwork::new(cfg);
        let mut app = FloodApp::new(3, Nanos::from_millis(1));
        net.seed_timer(0, Nanos::ZERO);
        net.run(Nanos::from_secs(1), &mut app);
        let total: u64 = app.per_station_bytes.iter().sum();
        assert!(total > 1_000_000, "depth {depth}: only {total} bytes");
    }
}

#[test]
fn station_fifo_limit_causes_uplink_drops() {
    struct UpFlood;
    impl App<()> for UpFlood {
        fn on_packet(&mut self, _: Delivery, _: Packet<()>, _: Nanos, _: &mut Commands<()>) {}
        fn on_timer(&mut self, token: u64, now: Nanos, cmds: &mut Commands<()>) {
            // 50 packets per ms: far beyond a tiny uplink queue.
            for i in 0..50 {
                cmds.send(Packet {
                    id: i,
                    src: NodeAddr::Station(0),
                    dst: NodeAddr::Server,
                    flow: 1,
                    len: 1500,
                    ac: AccessCategory::Be,
                    created: now,
                    enqueued: now,
                    payload: (),
                });
            }
            if now < Nanos::from_millis(100) {
                cmds.set_timer(token, now + Nanos::from_millis(1));
            }
        }
    }
    let mut cfg = NetworkConfig::paper_testbed(SchemeKind::FqMac);
    cfg.station_fifo_limit = 4;
    let mut net = WifiNetwork::new(cfg);
    net.seed_timer(0, Nanos::ZERO);
    net.run(Nanos::from_millis(300), &mut UpFlood);
    assert!(net.station_backlog(0) <= 4 + 64, "backlog unbounded");
}

#[test]
fn wire_delay_sets_the_latency_floor() {
    let mut cfg = NetworkConfig::paper_testbed(SchemeKind::AirtimeFair);
    cfg.wire_delay = Nanos::from_millis(25);
    let mut net = WifiNetwork::new(cfg);
    // One packet; its one-way delay must exceed the wire delay and
    // stay well under 2× it plus a couple of ms of WiFi time.
    struct OneShot {
        delay: Option<Nanos>,
    }
    impl App<()> for OneShot {
        fn on_packet(&mut self, _: Delivery, pkt: Packet<()>, now: Nanos, _: &mut Commands<()>) {
            self.delay = Some(now - pkt.created);
        }
        fn on_timer(&mut self, _: u64, now: Nanos, cmds: &mut Commands<()>) {
            cmds.send(Packet {
                id: 0,
                src: NodeAddr::Server,
                dst: NodeAddr::Station(0),
                flow: 1,
                len: 1500,
                ac: AccessCategory::Be,
                created: now,
                enqueued: now,
                payload: (),
            });
        }
    }
    let mut app = OneShot { delay: None };
    net.seed_timer(0, Nanos::ZERO);
    net.run(Nanos::from_secs(1), &mut app);
    let d = app.delay.expect("packet delivered");
    assert!(d >= Nanos::from_millis(25), "{d} below the wire delay");
    assert!(d < Nanos::from_millis(28), "{d} far above wire + WiFi time");
}

#[test]
fn aql_bounds_fast_station_hol_latency() {
    // One 1 Mbps legacy hog plus a fast station; the hog's 12.5 ms
    // frames otherwise occupy both hardware slots back to back. With
    // a 5 ms AQL budget only one can be queued, so the fast station's
    // frames interleave and its latency tightens. Compare the fast
    // station's mean delivery latency.
    let run = |aql: Option<Nanos>| {
        let cfg = NetworkConfig::builder()
            .station(wifiq_phy::PhyRate::fast_station())
            .station(wifiq_phy::PhyRate::Legacy(wifiq_phy::LegacyRate::Dsss1))
            .scheme(SchemeKind::AirtimeFair)
            .aql(aql)
            .build();
        let mut net = WifiNetwork::new(cfg);
        let mut app = FloodApp::new(2, Nanos::from_millis(2));
        net.seed_timer(0, Nanos::ZERO);
        net.run(Nanos::from_secs(5), &mut app);
        let lat: Vec<f64> = app.latencies[0].iter().map(|l| l.as_millis_f64()).collect();
        assert!(!lat.is_empty(), "fast station starved");
        (
            lat.iter().sum::<f64>() / lat.len() as f64,
            app.per_station_bytes[1],
        )
    };
    let (without, hog_bytes_without) = run(None);
    let (with, hog_bytes_with) = run(Some(Nanos::from_millis(5)));
    assert!(
        with < without,
        "AQL did not reduce fast-station latency: {with:.2} vs {without:.2} ms"
    );
    // The hog must not be starved outright: within 2x.
    assert!(
        hog_bytes_with * 2 >= hog_bytes_without,
        "AQL starved the slow station: {hog_bytes_with} vs {hog_bytes_without}"
    );
}

#[test]
fn telemetry_airtime_matches_meter() {
    let cfg = NetworkConfig::paper_testbed(SchemeKind::AirtimeFair);
    let mut net = WifiNetwork::new(cfg);
    let tele = Telemetry::enabled();
    net.set_telemetry(tele.clone());
    let mut app = FloodApp::new(3, Nanos::from_micros(500));
    net.seed_timer(0, Nanos::ZERO);
    net.run(Nanos::from_secs(2), &mut app);
    // The telemetry counters and the AirtimeMeter observe the same
    // exchanges; they must agree exactly.
    for i in 0..3 {
        assert_eq!(
            tele.counter("mac", "tx_airtime_ns", Label::Station(i as u32)),
            net.station_meter(i).tx_airtime.as_nanos(),
            "station {i} airtime mismatch"
        );
    }
    let fq_enqueued = tele
        .with_registry(|r| r.counter_total("fq", "enqueued"))
        .unwrap();
    assert!(
        fq_enqueued > 0,
        "MAC FQ saw no enqueues through the network path"
    );
}

#[test]
fn determinism_same_seed_same_result() {
    let (a, app_a) = run_flood(SchemeKind::AirtimeFair, 2, Nanos::from_micros(500));
    let (b, app_b) = run_flood(SchemeKind::AirtimeFair, 2, Nanos::from_micros(500));
    assert_eq!(app_a.per_station_bytes, app_b.per_station_bytes);
    assert_eq!(a.events_processed, b.events_processed);
    assert_eq!(a.meter().airtime_shares(), b.meter().airtime_shares());
}

/// Sends whatever the test queued since the last timer, then idles.
struct Inject {
    pending: Vec<Packet<()>>,
}

impl App<()> for Inject {
    fn on_packet(&mut self, _: Delivery, _: Packet<()>, _: Nanos, _: &mut Commands<()>) {}
    fn on_timer(&mut self, _: u64, _: Nanos, cmds: &mut Commands<()>) {
        for pkt in self.pending.drain(..) {
            cmds.send(pkt);
        }
    }
}

fn uplink_pkt(sta: StationIdx, ac: AccessCategory, now: Nanos) -> Packet<()> {
    Packet {
        id: 0,
        src: NodeAddr::Station(sta),
        dst: NodeAddr::Server,
        flow: sta as u64 * 4 + ac.index() as u64,
        len: 700,
        ac,
        created: now,
        enqueued: now,
        payload: (),
    }
}

/// One step of the contender-cache differential test.
#[derive(Debug, Clone)]
enum CacheOp {
    /// `n` uplink packets on one access category of station `k`.
    Up { k: usize, ac: usize, n: usize },
    /// One downlink packet to station `k` (the AP contends; `k`
    /// becomes an on-air target).
    Down { k: usize },
    /// Advance the simulation.
    Run { us: u64 },
    /// Join, as a `roam_in` of the last roam-out's frames if any wait.
    Add,
    /// Remove (or roam out) the `k`-th active station.
    Leave { k: usize, roam: bool },
    /// Remove (or roam out) a station taking part in the exchange on
    /// the air, if there is one.
    LeaveOnAir { roam: bool },
}

fn cache_op() -> impl proptest::Strategy<Value = CacheOp> {
    use proptest::prelude::*;
    let up = || (0usize.., 0usize..4, 1usize..4).prop_map(|(k, ac, n)| CacheOp::Up { k, ac, n });
    let run = || (1u64..600).prop_map(|us| CacheOp::Run { us });
    prop_oneof![
        up(),
        up(),
        up(),
        up(),
        (0usize..).prop_map(|k| CacheOp::Down { k }),
        run(),
        run(),
        run(),
        Just(CacheOp::Add),
        (0usize.., proptest::bool::ANY).prop_map(|(k, roam)| CacheOp::Leave { k, roam }),
        proptest::bool::ANY.prop_map(|roam| CacheOp::LeaveOnAir { roam }),
        proptest::bool::ANY.prop_map(|roam| CacheOp::LeaveOnAir { roam }),
    ]
}

/// Replays `ops` on a 200-station BSS (four bitmap words) in which
/// every fifth station has a lossy channel and retry chains are short.
/// `try_contend` audits the whole contender set against a from-scratch
/// re-evaluation on every round of this crate's tests, so any stale
/// cache entry panics inside `run`. After every op the occupancy
/// bitmap is checked against a scan of every slot: the count, and
/// `nth_active_station(k)` for every `k` up to and including the first
/// that must be `None`.
fn replay_cache_ops(ops: &[CacheOp], fq: bool, rate_control: bool) {
    let mut b = NetworkConfig::builder()
        .scheme(SchemeKind::AirtimeFair)
        .station_fq(fq)
        .rate_control(rate_control)
        .max_retries(2);
    for i in 0..200 {
        b = match i % 5 {
            0 => b.lossy_station(wifiq_phy::PhyRate::slow_station(), 0.4),
            _ => b.station(wifiq_phy::PhyRate::fast_station()),
        };
    }
    let mut net: WifiNetwork<()> = WifiNetwork::new(b.build());
    let mut app = Inject {
        pending: Vec::new(),
    };
    let nth_active =
        |net: &WifiNetwork<()>, k: usize| net.nth_active_station(k % net.active_stations().max(1));
    // Leaves; a roam-out hands back the frames it carries away.
    let leave = |net: &mut WifiNetwork<()>, slot: StationIdx, roam: bool| {
        let id = net.sta_id(slot).expect("active slot has a handle");
        if roam {
            Some(net.roam_out(id).packets)
        } else {
            net.remove_station(id);
            None
        }
    };
    let mut carried = None;
    for op in ops {
        let now = net.now();
        match *op {
            CacheOp::Up { k, ac, n } => {
                let sta = k % net.station_slots();
                for _ in 0..n {
                    app.pending
                        .push(uplink_pkt(sta, AccessCategory::ALL[ac], now));
                }
                net.seed_timer(0, now);
            }
            CacheOp::Down { k } => {
                let sta = k % net.station_slots();
                app.pending.push(Packet {
                    src: NodeAddr::Server,
                    dst: NodeAddr::Station(sta),
                    ..uplink_pkt(sta, AccessCategory::Be, now)
                });
                net.seed_timer(0, now);
            }
            CacheOp::Run { us } => net.run(now + Nanos::from_micros(us), &mut app),
            CacheOp::Add => {
                let cfg = crate::config::StationCfg::clean(wifiq_phy::PhyRate::fast_station());
                match carried.take() {
                    Some(packets) => net.roam_in(cfg, packets),
                    None => net.add_station(cfg),
                };
            }
            CacheOp::Leave { k, roam } => {
                if let Some(slot) = nth_active(&net, k) {
                    carried = leave(&mut net, slot, roam).or(carried);
                }
            }
            CacheOp::LeaveOnAir { roam } => {
                let on_air = (0..net.station_slots())
                    .find(|&s| net.station_active(s) && net.station_in_flight(s));
                if let Some(slot) = on_air {
                    carried = leave(&mut net, slot, roam).or(carried);
                }
            }
        }
        let live: Vec<_> = (0..net.station_slots())
            .filter(|&s| net.station_active(s))
            .collect();
        assert_eq!(net.active_stations(), live.len(), "active count drifted");
        for k in 0..=live.len() {
            assert_eq!(
                net.nth_active_station(k),
                live.get(k).copied(),
                "k = {k} of {} after {op:?}",
                live.len()
            );
        }
    }
    // Let the air clear and the deferred teardowns land.
    let end = net.now() + Nanos::from_millis(50);
    net.run(end, &mut app);
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(48))]
    /// The cached contender set equals a full re-evaluation of every
    /// active station after every round (the audit inside
    /// `try_contend`), whatever mix of uplink enqueues, channel
    /// errors, retry-limit drops, joins, removals and roam-outs —
    /// on-air targets included — produced it.
    #[test]
    fn cached_contenders_match_full_rescan(
        ops in proptest::collection::vec(cache_op(), 50..400),
        fq in proptest::bool::ANY,
        rate_control in proptest::bool::ANY,
    ) {
        replay_cache_ops(&ops, fq, rate_control);
    }
}

#[test]
fn station_churn_mid_run() {
    for scheme in SchemeKind::ALL {
        let cfg = NetworkConfig::paper_testbed(scheme);
        let mut net = WifiNetwork::new(cfg);
        // The app keeps flooding all 3 slots throughout; it does not
        // know about the departure (exercises the absent-drop guard).
        let mut app = FloodApp::new(3, Nanos::from_micros(500));
        net.seed_timer(0, Nanos::ZERO);
        net.run(Nanos::from_secs(1), &mut app);
        let departing = net.sta_id(2).expect("slot 2 occupied");
        net.remove_station(departing);
        assert!(!net.station_active(2), "{scheme}");
        assert_eq!(net.active_stations(), 2, "{scheme}");
        let at_removal = app.per_station_bytes[2];
        let survivor = app.per_station_bytes[0];
        net.run(Nanos::from_secs(2), &mut app);
        // Only frames already committed to hardware may dribble out.
        assert!(
            app.per_station_bytes[2] - at_removal <= 64 * 1500,
            "{scheme}: departed station kept receiving"
        );
        assert!(
            app.per_station_bytes[0] > survivor,
            "{scheme}: survivors starved by the removal"
        );
        assert!(net.absent_drops() > 0, "{scheme}: no absent drops counted");
        // Rejoin reuses the vacated slot and traffic resumes.
        let rejoined = net.add_station(crate::config::StationCfg::clean(
            wifiq_phy::PhyRate::fast_station(),
        ));
        assert_eq!(rejoined.slot(), 2, "{scheme}: slot not reused");
        assert_ne!(
            rejoined, departing,
            "{scheme}: slot reuse must mint a fresh generation"
        );
        let at_rejoin = app.per_station_bytes[2];
        net.run(Nanos::from_secs(3), &mut app);
        assert!(
            app.per_station_bytes[2] > at_rejoin + 100 * 1500,
            "{scheme}: rejoined station starved"
        );
    }
}

#[test]
fn churn_determinism_same_schedule_same_result() {
    let run = || {
        let cfg = NetworkConfig::paper_testbed(SchemeKind::AirtimeFair);
        let mut net = WifiNetwork::new(cfg);
        let mut app = FloodApp::new(3, Nanos::from_micros(500));
        net.seed_timer(0, Nanos::ZERO);
        net.run(Nanos::from_millis(500), &mut app);
        let id = net.sta_id(1).expect("slot 1 occupied");
        net.remove_station(id);
        net.run(Nanos::from_secs(1), &mut app);
        net.add_station(crate::config::StationCfg::clean(
            wifiq_phy::PhyRate::slow_station(),
        ));
        net.run(Nanos::from_secs(2), &mut app);
        (app.per_station_bytes.clone(), net.events_processed)
    };
    assert_eq!(run(), run());
}

#[test]
fn uplink_packets_reach_server() {
    struct UpApp {
        received: u64,
    }
    impl App<()> for UpApp {
        fn on_packet(
            &mut self,
            at: Delivery,
            _pkt: Packet<()>,
            _now: Nanos,
            _c: &mut Commands<()>,
        ) {
            if at == Delivery::AtServer {
                self.received += 1;
            }
        }
        fn on_timer(&mut self, token: u64, now: Nanos, cmds: &mut Commands<()>) {
            cmds.send(Packet {
                id: token,
                src: NodeAddr::Station(0),
                dst: NodeAddr::Server,
                flow: 9,
                len: 200,
                ac: AccessCategory::Be,
                created: now,
                enqueued: now,
                payload: (),
            });
            if now < Nanos::from_millis(500) {
                cmds.set_timer(token, now + Nanos::from_millis(1));
            }
        }
    }
    let cfg = NetworkConfig::paper_testbed(SchemeKind::FqMac);
    let mut net = WifiNetwork::new(cfg);
    let mut app = UpApp { received: 0 };
    net.seed_timer(1, Nanos::ZERO);
    net.run(Nanos::from_secs(1), &mut app);
    assert!(app.received > 480, "got {}", app.received);
    assert!(net.station_meter(0).rx_airtime > Nanos::ZERO);
}

#[test]
fn channel_errors_cause_retries_but_traffic_still_flows() {
    let mut cfg = NetworkConfig::paper_testbed(SchemeKind::AirtimeFair);
    cfg.stations[0].errors = crate::config::ErrorModel::Fixed(0.3);
    let mut net = WifiNetwork::new(cfg);
    let mut app = FloodApp::new(3, Nanos::from_millis(5));
    net.seed_timer(0, Nanos::ZERO);
    net.run(Nanos::from_secs(2), &mut app);
    assert!(net.station_meter(0).failures > 0, "no failures injected?");
    assert!(
        app.per_station_bytes[0] > 0,
        "retries should still deliver traffic"
    );
    // The lossy station's airtime per delivered byte must exceed the
    // clean fast station's.
    let m0 = net.station_meter(0);
    let m1 = net.station_meter(1);
    let cost0 = m0.tx_airtime.as_nanos() as f64 / m0.tx_bytes.max(1) as f64;
    let cost1 = m1.tx_airtime.as_nanos() as f64 / m1.tx_bytes.max(1) as f64;
    assert!(
        cost0 > cost1,
        "retries must cost airtime: {cost0} vs {cost1}"
    );
}

#[test]
fn rate_control_converges_in_situ() {
    // Stations start at MCS7 but their channels support MCS 12 / 2;
    // the controller should find the cliffs under live traffic.
    let start = wifiq_phy::PhyRate::ht(7, wifiq_phy::ChannelWidth::Ht20, true);
    let cfg = NetworkConfig::builder()
        .cliff_station(start, 12)
        .cliff_station(start, 2)
        .scheme(SchemeKind::AirtimeFair)
        .rate_control(true)
        .build();
    let mut net = WifiNetwork::new(cfg);
    let mut app = FloodApp::new(2, Nanos::from_micros(300));
    net.seed_timer(0, Nanos::ZERO);
    net.run(Nanos::from_secs(8), &mut app);
    let est0 = net.rate_estimate(0);
    let est1 = net.rate_estimate(1);
    // MCS12 = 86.7 Mbps, MCS2 = 21.7 Mbps (HT20 SGI).
    assert!(
        (60_000_000..95_000_000).contains(&est0),
        "station 0 estimate {est0}"
    );
    assert!(
        (12_000_000..26_000_000).contains(&est1),
        "station 1 estimate {est1}"
    );
    // Both stations actually received traffic at their channel's pace.
    assert!(app.per_station_bytes[0] > app.per_station_bytes[1]);
}

#[test]
fn bidirectional_contention_works() {
    // Downlink flood + uplink flood from station 0 simultaneously.
    struct BiApp {
        inner: FloodApp,
        up_received: u64,
    }
    impl App<()> for BiApp {
        fn on_packet(
            &mut self,
            at: Delivery,
            pkt: Packet<()>,
            now: Nanos,
            cmds: &mut Commands<()>,
        ) {
            if at == Delivery::AtServer {
                self.up_received += 1;
            }
            self.inner.on_packet(at, pkt, now, cmds);
        }
        fn on_timer(&mut self, token: u64, now: Nanos, cmds: &mut Commands<()>) {
            if token == 0 {
                self.inner.on_timer(token, now, cmds);
            } else {
                cmds.send(Packet {
                    id: 0,
                    src: NodeAddr::Station(0),
                    dst: NodeAddr::Server,
                    flow: 77,
                    len: 1500,
                    ac: AccessCategory::Be,
                    created: now,
                    enqueued: now,
                    payload: (),
                });
                cmds.set_timer(token, now + Nanos::from_millis(1));
            }
        }
    }
    let cfg = NetworkConfig::paper_testbed(SchemeKind::AirtimeFair);
    let mut net = WifiNetwork::new(cfg);
    let mut app = BiApp {
        inner: FloodApp::new(3, Nanos::from_millis(1)),
        up_received: 0,
    };
    net.seed_timer(0, Nanos::ZERO);
    net.seed_timer(1, Nanos::ZERO);
    net.run(Nanos::from_secs(2), &mut app);
    assert!(
        app.up_received > 1000,
        "uplink starved: {}",
        app.up_received
    );
    let down: u64 = app.inner.per_station_bytes.iter().sum();
    assert!(down > 0);
}
