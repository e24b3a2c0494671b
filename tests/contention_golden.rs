//! Contention-path goldens: fixed-seed runs that put far more stations
//! into one contention round than fig04–fig11 ever do (those stop at 30
//! contenders and never churn), pinned field by field.
//!
//! A contention round draws one backoff per contender from the network's
//! main RNG, in a fixed order; any change to who contends, in which
//! order, or with which window moves every later draw and therefore
//! every number below. The fixtures under `tests/fixtures/golden/` pin
//! `events_processed`, the drop counters and every [`StationMeter`] field
//! of every slot. On a mismatch the test writes what it saw to
//! `$CARGO_TARGET_TMPDIR/<fixture>.actual` so the two can be diffed.

use ending_anomaly::mac::{
    App, Commands, Delivery, NetworkConfig, NodeAddr, Packet, RoamHandoff, SchemeKind, StationCfg,
    WifiNetwork,
};
use ending_anomaly::phy::{AccessCategory, PhyRate};
use ending_anomaly::sim::Nanos;

/// One periodic packet source: `burst` packets of `len` bytes every
/// `period`, uplink from `station` or downlink to it.
struct Source {
    station: usize,
    up: bool,
    ac: AccessCategory,
    flow: u64,
    len: u64,
    burst: usize,
    period: Nanos,
}

/// Fires every source on its own timer (token = source index) until
/// `stop`. Sources never learn about departures, so traffic from and to
/// removed slots exercises the absent-station paths too.
struct Mix {
    sources: Vec<Source>,
    stop: Nanos,
    next_id: u64,
}

impl App<()> for Mix {
    fn on_packet(&mut self, _: Delivery, _: Packet<()>, _: Nanos, _: &mut Commands<()>) {}

    fn on_timer(&mut self, token: u64, now: Nanos, cmds: &mut Commands<()>) {
        if now >= self.stop {
            return;
        }
        let s = &self.sources[token as usize];
        let (src, dst) = if s.up {
            (NodeAddr::Station(s.station), NodeAddr::Server)
        } else {
            (NodeAddr::Server, NodeAddr::Station(s.station))
        };
        for _ in 0..s.burst {
            self.next_id += 1;
            cmds.send(Packet {
                id: self.next_id,
                src,
                dst,
                flow: s.flow,
                len: s.len,
                ac: s.ac,
                created: now,
                enqueued: now,
                payload: (),
            });
        }
        cmds.set_timer(token, now + s.period);
    }
}

fn start(cfg: NetworkConfig, sources: Vec<Source>, stop: Nanos) -> (WifiNetwork<()>, Mix) {
    let mut net = WifiNetwork::new(cfg);
    for token in 0..sources.len() {
        net.seed_timer(token as u64, Nanos::ZERO);
    }
    let app = Mix {
        sources,
        stop,
        next_id: 0,
    };
    (net, app)
}

/// Everything the goldens pin, as text: one line per slot so a diff
/// points at the station that moved.
fn render(net: &WifiNetwork<()>, extra: &[(&str, u64)]) -> String {
    let mut out = String::from("{\n");
    out += &format!("  \"events_processed\": {},\n", net.events_processed);
    out += &format!("  \"churn_drops\": {},\n", net.churn_drops());
    out += &format!("  \"roam_drops\": {},\n", net.roam_drops());
    out += &format!("  \"absent_drops\": {},\n", net.absent_drops());
    for (name, value) in extra {
        out += &format!("  \"{name}\": {value},\n");
    }
    out += "  \"stations\": [\n";
    let slots = net.station_slots();
    for slot in 0..slots {
        let m = net.station_meter(slot);
        out += &format!(
            "    {{\"slot\": {slot}, \"active\": {}, \"tx_airtime_ns\": {}, \"rx_airtime_ns\": {}, \
             \"tx_frames\": {}, \"tx_bytes\": {}, \"rx_frames\": {}, \"rx_bytes\": {}, \
             \"tx_aggregates\": {}, \"tx_aggregate_frames\": {}, \"failures\": {}, \
             \"retry_drops\": {}, \"uplink_backlog\": {}}}{}\n",
            net.station_active(slot),
            m.tx_airtime.as_nanos(),
            m.rx_airtime.as_nanos(),
            m.tx_frames,
            m.tx_bytes,
            m.rx_frames,
            m.rx_bytes,
            m.tx_aggregates,
            m.tx_aggregate_frames,
            m.failures,
            m.retry_drops,
            net.station_backlog(slot),
            if slot + 1 == slots { "" } else { "," },
        );
    }
    out += "  ]\n}\n";
    out
}

fn assert_golden(name: &str, actual: &str) {
    let path = format!(
        "{}/tests/fixtures/golden/{name}",
        env!("CARGO_MANIFEST_DIR")
    );
    let expected = std::fs::read_to_string(&path).unwrap_or_default();
    if expected != actual {
        let dump = format!("{}/{name}.actual", env!("CARGO_TARGET_TMPDIR"));
        std::fs::write(&dump, actual).expect("write the observed golden");
        panic!("{name}: run differs from {path}; observed output written to {dump}");
    }
}

/// (a) 130 stations (three bitmap words) flooding uplink through the
/// stock per-AC FIFOs: everyone sends best-effort, every third station
/// voice as well, with a little downlink so the AP contends too.
#[test]
fn uplink_flood_130_stations_matches_golden() {
    const N: usize = 130;
    let cfg = NetworkConfig::builder()
        .stations_at(N, PhyRate::fast_station())
        .scheme(SchemeKind::AirtimeFair)
        .seed(11)
        .build();
    let mut sources = Vec::new();
    for station in 0..N {
        sources.push(Source {
            station,
            up: true,
            ac: AccessCategory::Be,
            flow: station as u64,
            len: 1200,
            burst: 2,
            period: Nanos::from_millis(80),
        });
        if station % 3 == 0 {
            sources.push(Source {
                station,
                up: true,
                ac: AccessCategory::Vo,
                flow: 1_000 + station as u64,
                len: 200,
                burst: 1,
                period: Nanos::from_millis(20),
            });
        }
        if station % 10 == 0 {
            sources.push(Source {
                station,
                up: false,
                ac: AccessCategory::Be,
                flow: 2_000 + station as u64,
                len: 1500,
                burst: 2,
                period: Nanos::from_millis(10),
            });
        }
    }
    let (mut net, mut app) = start(cfg, sources, Nanos::from_millis(1_800));
    net.run(Nanos::from_secs(2), &mut app);
    assert_golden("contention_uplink_flood.json", &render(&net, &[]));
}

/// (b) FQ-CoDel uplinks with client and AP rate control, all four access
/// categories, and one slow station on a lossy channel (retry chains,
/// retry-limit drops, rate step-downs, private-RNG rate sampling).
#[test]
fn fq_uplinks_with_rate_control_match_golden() {
    const N: usize = 40;
    let start_rate = PhyRate::ht(7, ending_anomaly::phy::ChannelWidth::Ht20, true);
    let mut b = NetworkConfig::builder()
        .scheme(SchemeKind::AirtimeFair)
        .station_fq(true)
        .rate_control(true)
        .max_retries(4)
        .seed(12)
        .lossy_station(PhyRate::slow_station(), 0.35);
    for i in 1..N {
        b = if i % 4 == 0 {
            b.cliff_station(start_rate, 5)
        } else {
            b.station(PhyRate::fast_station())
        };
    }
    let mut sources = Vec::new();
    for station in 0..N {
        let ac = AccessCategory::ALL[station % 4];
        for f in 0..2u64 {
            sources.push(Source {
                station,
                up: true,
                ac,
                flow: 10 * station as u64 + f,
                len: 300 + 600 * f,
                burst: 2,
                period: Nanos::from_millis(40 + 10 * f),
            });
        }
        if station % 5 == 0 {
            sources.push(Source {
                station,
                up: false,
                ac: AccessCategory::Be,
                flow: 5_000 + station as u64,
                len: 1500,
                burst: 2,
                period: Nanos::from_millis(10),
            });
        }
    }
    let (mut net, mut app) = start(b.build(), sources, Nanos::from_millis(1_800));
    net.run(Nanos::from_secs(2), &mut app);
    assert!(
        net.station_meter(0).retry_drops > 0,
        "the lossy station never exhausted a retry chain"
    );
    assert_golden("contention_fq_ratectrl.json", &render(&net, &[]));
}

/// (c) 70 saturated stations with a departure or arrival every 2 ms:
/// plain removals, roam-outs (some carrying queued downlink frames, some
/// deferred because the roamer was on the air), joins and roam-ins.
#[test]
fn churn_and_roam_under_contention_match_golden() {
    const N: usize = 70;
    let cfg = NetworkConfig::builder()
        .stations_at(N, PhyRate::fast_station())
        .scheme(SchemeKind::AirtimeFair)
        .seed(13)
        .build();
    let mut sources = Vec::new();
    for station in 0..N {
        sources.push(Source {
            station,
            up: true,
            ac: if station % 7 == 0 {
                AccessCategory::Vi
            } else {
                AccessCategory::Be
            },
            flow: station as u64,
            len: 1000,
            burst: 2,
            period: Nanos::from_millis(25),
        });
        if station % 2 == 0 {
            sources.push(Source {
                station,
                up: false,
                ac: AccessCategory::Be,
                flow: 2_000 + station as u64,
                len: 1500,
                burst: 2,
                period: Nanos::from_millis(50),
            });
        }
    }
    let (mut net, mut app) = start(cfg, sources, Nanos::from_secs(2));

    let mut lcg: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut in_transit: Vec<RoamHandoff<()>> = Vec::new();
    let mut absent = 0usize;
    let (mut removed, mut roamed, mut deferred, mut carried) = (0u64, 0u64, 0u64, 0u64);
    let cfg_of = |k: u64| {
        StationCfg::clean(if k.is_multiple_of(5) {
            PhyRate::slow_station()
        } else {
            PhyRate::fast_station()
        })
    };
    for step in 1..=4_000u64 {
        net.run(Nanos::from_micros(500 * step), &mut app);
        lcg = lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let slot = (lcg >> 33) as usize % N;
        let id = net.sta_id(slot).filter(|_| net.station_active(slot));
        match (step % 16, id) {
            (0, Some(id)) => {
                net.remove_station(id);
                removed += 1;
                absent += 1;
            }
            (4, Some(id)) => {
                let handoff = net.roam_out(id);
                roamed += 1;
                deferred += handoff.deferred as u64;
                carried += handoff.packets.len() as u64;
                in_transit.push(handoff);
                absent += 1;
            }
            (8, _) if absent > in_transit.len() => {
                net.add_station(cfg_of(step));
                absent -= 1;
            }
            (12, _) if !in_transit.is_empty() => {
                let handoff = in_transit.remove(0);
                net.roam_in(cfg_of(step), handoff.packets, handoff.identity);
                absent -= 1;
            }
            _ => {}
        }
    }
    net.run(Nanos::from_millis(2_200), &mut app);
    assert!(deferred > 0, "no roam-out caught its station on the air");
    assert!(carried > 0, "no roam-out carried queued frames");
    let extra = [
        ("removed", removed),
        ("roamed", roamed),
        ("roam_deferred", deferred),
        ("roam_carried", carried),
        ("active_stations", net.active_stations() as u64),
    ];
    assert_golden("contention_churn_roam.json", &render(&net, &extra));
}
