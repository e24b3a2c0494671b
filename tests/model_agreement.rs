//! Cross-validation of the simulator against the paper's analytical
//! model: a single saturated station's measured goodput must match the
//! model's base rate R(n, l, r) (eq. 3) closely, across the rate table.
//!
//! This is the strongest end-to-end correctness check available — the
//! model and the MAC simulator implement the same timing from opposite
//! directions (closed form vs event by event), so agreement validates
//! both.

use ending_anomaly::mac::{NetworkConfig, SchemeKind, StationCfg, WifiNetwork};
use ending_anomaly::model::base_rate;
use ending_anomaly::phy::timing::max_aggregate_frames;
use ending_anomaly::phy::{ChannelWidth, PhyRate};
use ending_anomaly::sim::Nanos;
use ending_anomaly::traffic::{AppMsg, TrafficApp};

/// Saturates a lone station at `rate` (offered load well above any
/// rate's capacity) and returns measured goodput and mean aggregation.
fn measure(rate: PhyRate) -> (f64, f64) {
    let mut cfg = NetworkConfig::new(vec![StationCfg::clean(rate)], SchemeKind::AirtimeFair);
    cfg.seed = 7;
    let mut net: WifiNetwork<AppMsg> = WifiNetwork::new(cfg);
    let mut app = TrafficApp::new();
    let offered = (rate.bits_per_second() * 3 / 2).max(100_000_000);
    let flow = app.add_udp_down(0, offered, Nanos::ZERO);
    app.install(&mut net);
    let warmup = Nanos::from_secs(1);
    let end = Nanos::from_secs(5);
    net.run(warmup, &mut app);
    let before = *net.station_meter(0);
    let delivered = app.delivered_bytes(flow);
    net.run(end, &mut app);
    let m = net.station_meter(0);
    let bytes = app.delivered_bytes(flow) - delivered;
    let goodput = bytes as f64 * 8.0 / (end - warmup).as_secs_f64();
    let aggr = (m.tx_aggregate_frames - before.tx_aggregate_frames) as f64
        / (m.tx_aggregates - before.tx_aggregates).max(1) as f64;
    (goodput, aggr)
}

#[test]
fn simulator_matches_model_across_rates() {
    for mcs in [0u8, 3, 7, 11, 15] {
        let rate = PhyRate::ht(mcs, ChannelWidth::Ht20, true);
        let (measured, aggr) = measure(rate);
        // The station should aggregate to its physical limit at
        // saturation.
        let expect_n = max_aggregate_frames(1500, rate) as f64;
        assert!(
            (aggr - expect_n).abs() < 1.0,
            "MCS{mcs}: aggregation {aggr:.1}, expected ~{expect_n}"
        );
        let model = base_rate(aggr, 1500, rate);
        let err = (measured - model).abs() / model;
        assert!(
            err < 0.05,
            "MCS{mcs}: measured {:.1} Mbps vs model {:.1} Mbps ({:.1}% off)",
            measured / 1e6,
            model / 1e6,
            err * 100.0
        );
    }
}

#[test]
fn vht_also_matches_model() {
    let rate = PhyRate::vht(9, 2, ending_anomaly::phy::VhtWidth::Mhz80, true);
    let (measured, aggr) = measure(rate);
    let model = base_rate(aggr, 1500, rate);
    let err = (measured - model).abs() / model;
    assert!(
        err < 0.05,
        "VHT80: measured {:.1} vs model {:.1} Mbps ({:.1}% off)",
        measured / 1e6,
        model / 1e6,
        err * 100.0
    );
    // The BlockAck window binds at 64 frames.
    assert!((aggr - 64.0).abs() < 1.0, "aggregation {aggr:.1}");
}
