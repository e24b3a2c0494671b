//! The paper's testbeds as document parts: the station rosters every
//! experiment cell's [`ScenarioFile`] is written over, their station
//! indices, and the one constructor that assembles a cell.

use wifiq_mac::SchemeKind;

use crate::runner::RunCfg;
use crate::scenario_file::{
    scheme_name, FaultKind, FaultSpec, ScenarioFile, StationSpec, TrafficSpec,
};

/// Index of the first fast station in the 3/4-station testbeds.
pub const FAST1: usize = 0;
/// Index of the second fast station.
pub const FAST2: usize = 1;
/// Index of the slow (MCS0) station.
pub const SLOW: usize = 2;
/// Index of the extra (virtual) fast station in 4-station scenarios.
pub const EXTRA: usize = 3;

/// The paper's main testbed: two fast stations (144.4 Mbps) and one slow
/// station (7.2 Mbps).
pub const TESTBED3: [&str; 3] = ["mcs15", "mcs15", "mcs0"];

/// The 4-station variant: testbed plus one additional (virtual) fast
/// station, used for the sparse-station and VoIP experiments (§4.1.4,
/// §4.2.1).
pub const TESTBED4: [&str; 4] = ["mcs15", "mcs15", "mcs0", "mcs15"];

/// In the 30-station testbed: index of the 1 Mbps legacy client.
pub const SLOW30: usize = 0;
/// In the 30-station testbed: index of the ping-only fast client.
pub const PINGONLY30: usize = 29;
/// Indices of the 28 bulk fast clients in the 30-station testbed.
pub fn bulk30() -> impl Iterator<Item = usize> {
    1..29
}

/// The third-party 30-station testbed (§4.1.5): 29 fast clients plus one
/// artificially limited to 1 Mbps (HT disabled — no aggregation), on a
/// 2.4 GHz HT20 channel.
pub const TESTBED30: [&str; 30] = {
    let mut rates = ["mcs15"; 30];
    rates[SLOW30] = "1mbps";
    rates
};

/// One repetition of an experiment cell as a document: `rates` under
/// `scheme`, seeded `seed`, as long as `cfg`'s runs. `traffic` is in the
/// order the cell adds it — flow ids and timer seeding follow that order.
pub fn cell(
    scheme: SchemeKind,
    rates: &[&str],
    traffic: Vec<TrafficSpec>,
    seed: u64,
    cfg: &RunCfg,
) -> ScenarioFile {
    ScenarioFile {
        scheme: scheme_name(scheme).into(),
        secs: cfg.duration.as_millis() / 1000,
        seed,
        stations: rates.iter().copied().map(StationSpec::new).collect(),
        traffic,
        ..ScenarioFile::default()
    }
}

/// Constant-rate downstream UDP at `mbps` to `station`.
pub fn udp(station: usize, mbps: u64) -> TrafficSpec {
    TrafficSpec::UdpDown {
        station,
        mbps,
        poisson: false,
    }
}

/// A 10 Hz ping to `station`.
pub fn ping(station: usize) -> TrafficSpec {
    TrafficSpec::Ping { station }
}

/// A bulk TCP download to `station`.
pub fn tcp_down(station: usize) -> TrafficSpec {
    TrafficSpec::TcpDown { station }
}

/// A bulk TCP upload from `station`.
pub fn tcp_up(station: usize) -> TrafficSpec {
    TrafficSpec::TcpUp { station }
}

/// `kind` from `from` until `until` seconds at `station`, or at every
/// station when `None`.
pub fn fault(from: f64, until: f64, station: Option<usize>, kind: FaultKind) -> FaultSpec {
    FaultSpec {
        from_secs: from,
        until_secs: until,
        station,
        kind,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario_file::parse_rate;
    use wifiq_phy::PhyRate;

    #[test]
    fn testbed_shapes() {
        let rate = |spec| parse_rate(spec).unwrap();
        assert_eq!(rate(TESTBED3[FAST1]), PhyRate::fast_station());
        assert_eq!(rate(TESTBED3[SLOW]), PhyRate::slow_station());
        assert_eq!(TESTBED4[..3], TESTBED3);
        assert_eq!(rate(TESTBED4[EXTRA]), PhyRate::fast_station());
        assert!(!rate(TESTBED30[SLOW30]).supports_aggregation());
        assert_eq!(rate(TESTBED30[PINGONLY30]), PhyRate::fast_station());
        assert_eq!(bulk30().count(), 28);
    }

    /// Every experiment cell is a document: each constructor's output,
    /// at one seed and every sweep point, survives the text round trip
    /// unchanged and builds — so `wifiq run --config` can replay it.
    #[test]
    fn every_cell_is_a_document() {
        use crate::ext::{ext_80211ac, ext_aql, ext_chaos, ext_client_fq};
        use crate::ext::{ext_lossy_channel, ext_policy, ext_rate_control};
        use crate::sparse::BulkKind;
        use crate::tcp_fair::TcpPattern;
        use crate::{ablations, latency, sparse, tcp_fair, thirty, udp_sat, voip};
        use wifiq_phy::AccessCategory;

        let (cfg, seed) = (RunCfg::new(), 1);
        let mut docs = vec![
            ablations::rx_charging_cell(seed, &cfg),
            ablations::adaptive_codel_cell(seed, &cfg),
            ablations::drop_policy_cell(seed, &cfg),
        ];
        for scheme in SchemeKind::ALL {
            docs.push(udp_sat::cell(scheme, seed, &cfg));
            for bidir in [false, true] {
                docs.push(latency::cell(scheme, bidir, seed, &cfg));
            }
            for pattern in [TcpPattern::Download, TcpPattern::Bidirectional] {
                docs.push(tcp_fair::cell(scheme, pattern, seed, &cfg));
            }
            docs.push(thirty::cell(scheme, seed, &cfg));
            for ac in [AccessCategory::Vo, AccessCategory::Be] {
                docs.push(voip::cell(scheme, ac, seed, &cfg));
            }
            docs.push(ext_80211ac::cell(scheme, seed, &cfg));
            docs.push(ext_rate_control::cell(scheme, seed, &cfg));
            for err in [0.0, 0.1, 0.3] {
                docs.push(ext_lossy_channel::cell(scheme, err, seed, &cfg));
            }
        }
        for flag in [false, true] {
            docs.push(ext_client_fq::cell(flag, seed, &cfg));
            docs.push(ext_policy::probe_cell(flag, &cfg));
        }
        for bulk in [BulkKind::Udp, BulkKind::Tcp] {
            docs.push(sparse::cell(bulk, seed, &cfg));
        }
        for aql_ms in [None, Some(12), Some(5)] {
            docs.push(ext_aql::cell(aql_ms, seed, &cfg));
        }
        for burst_len in [1.0, 8.0, 32.0] {
            for collapse in [None, Some("mcs3"), Some("mcs0")] {
                docs.push(ext_chaos::cell(burst_len, collapse, seed, &cfg));
            }
        }
        for roster in ["diverse", "fast"] {
            docs.push(ext_policy::cell(roster, seed, &cfg));
        }
        for doc in docs {
            let text = doc.text();
            assert_eq!(ScenarioFile::from_json(&text).as_ref(), Ok(&doc), "{text}");
            if let Err(e) = doc.build() {
                panic!("{e}: {text}");
            }
        }
    }
}
