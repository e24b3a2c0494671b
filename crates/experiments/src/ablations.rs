//! Behavioural ablations of the paper's design choices.
//!
//! Each ablation switches off one mechanism the paper argues for and
//! measures the metric that mechanism exists to protect:
//!
//! 1. **RX airtime charging** (§3.2 item 2) — without it the scheduler
//!    cannot compensate for upstream usage, and bidirectional fairness
//!    degrades.
//! 2. **Per-station CoDel parameters** (§3.1.1) — without the
//!    50 ms/300 ms slow-station setting, CoDel over-drops at low rates
//!    and the slow station loses goodput.
//! 3. **Drop-from-longest-queue** (Algorithm 1) — with plain tail drop, a
//!    saturating flow to the slow station locks fast stations out of the
//!    packet budget.
//! 4. **Airtime quantum** (§3.2) — larger quanta coarsen fairness and
//!    hurt sparse-station latency.

use serde::Serialize;
use wifiq_core::fq::DropPolicy;
use wifiq_mac::{SchemeKind, StationMeter, WifiNetwork};
use wifiq_sim::Nanos;
use wifiq_stats::jain_index;
use wifiq_traffic::TrafficApp;

use crate::runner::{mean, median, meter_delta, meter_window, run_seeds, shares_of, to_ms, RunCfg};
use crate::scenario::{self, EXTRA, SLOW};
use crate::udp_sat::SAT_RATE_BPS;

/// Result of the RX-charging ablation (bidirectional TCP).
#[derive(Debug, Clone, Serialize)]
pub struct RxChargingResult {
    /// Whether RX airtime was charged.
    pub charge_rx: bool,
    /// Median Jain's index over station airtime.
    pub jain: f64,
    /// The slow station's airtime share.
    pub slow_share: f64,
}

/// Runs bidirectional TCP under the airtime scheme with RX charging
/// toggled.
pub fn rx_charging(enabled: bool, cfg: &RunCfg) -> RxChargingResult {
    let config = if enabled { "on" } else { "off" };
    // (jain, slow share) per repetition.
    let reps: Vec<(f64, f64)> = run_seeds("ablations", "rx_charging", config, cfg, |seed| {
        let mut net_cfg = scenario::testbed3(SchemeKind::AirtimeFair, seed);
        net_cfg.airtime.charge_rx = enabled;
        let mut net: WifiNetwork<wifiq_traffic::AppMsg> = WifiNetwork::new(net_cfg);
        let mut app = TrafficApp::new();
        for sta in 0..3 {
            app.add_tcp_down(sta, Nanos::ZERO);
            app.add_tcp_up(sta, Nanos::ZERO);
        }
        app.install(&mut net);
        net.run(cfg.warmup, &mut app);
        let before: Vec<StationMeter> = net.meter().all().to_vec();
        net.run(cfg.duration, &mut app);
        let window: Vec<StationMeter> = meter_window(net.meter().all(), &before);
        let shares = shares_of(&window);
        (jain_index(&shares), shares[SLOW])
    });
    RxChargingResult {
        charge_rx: enabled,
        jain: median(&reps.iter().map(|r| r.0).collect::<Vec<_>>()),
        slow_share: mean(&reps.iter().map(|r| r.1).collect::<Vec<_>>()),
    }
}

/// Result of the per-station CoDel ablation.
#[derive(Debug, Clone, Serialize)]
pub struct AdaptiveCodelResult {
    /// Whether per-station adaptation was enabled.
    pub adaptive: bool,
    /// Slow-station TCP goodput, bits/s.
    pub slow_goodput_bps: f64,
    /// CoDel drops at the AP over the run.
    pub codel_drops: f64,
    /// TCP retransmissions (fast retransmits + timeouts) over the run.
    pub retransmissions: f64,
}

/// Bulk TCP to a very slow (1 Mbps legacy) station, with and without the
/// §3.1.1 parameter adaptation. At 1 Mbps the default 20 ms target allows
/// under two full-size packets of queue, which is where the
/// over-aggressive-CoDel starvation bites.
pub fn adaptive_codel(enabled: bool, cfg: &RunCfg) -> AdaptiveCodelResult {
    let config = if enabled { "on" } else { "off" };
    // (goodput, drops, retransmissions) per repetition.
    let reps: Vec<(f64, f64, f64)> =
        run_seeds("ablations", "adaptive_codel", config, cfg, |seed| {
            let mut net_cfg = scenario::testbed3(SchemeKind::AirtimeFair, seed);
            net_cfg.stations[scenario::SLOW].rate =
                wifiq_phy::PhyRate::Legacy(wifiq_phy::LegacyRate::Dsss1);
            net_cfg.adaptive_codel = enabled;
            let mut net: WifiNetwork<wifiq_traffic::AppMsg> = WifiNetwork::new(net_cfg);
            let mut app = TrafficApp::new();
            let bulk = app.add_tcp_down(SLOW, Nanos::ZERO);
            app.install(&mut net);
            net.run(cfg.warmup, &mut app);
            let delivered = app.delivered_bytes(bulk);
            net.run(cfg.duration, &mut app);
            let bytes = app.delivered_bytes(bulk) - delivered;
            let st = app.tcp(bulk).sender_stats();
            (
                bytes as f64 * 8.0 / cfg.window().as_secs_f64(),
                net.ap_codel_drops() as f64,
                (st.fast_retransmits + st.timeouts) as f64,
            )
        });
    AdaptiveCodelResult {
        adaptive: enabled,
        slow_goodput_bps: mean(&reps.iter().map(|r| r.0).collect::<Vec<_>>()),
        codel_drops: mean(&reps.iter().map(|r| r.1).collect::<Vec<_>>()),
        retransmissions: mean(&reps.iter().map(|r| r.2).collect::<Vec<_>>()),
    }
}

/// Result of the overlimit drop-policy ablation.
#[derive(Debug, Clone, Serialize)]
pub struct DropPolicyResult {
    /// Policy label.
    pub policy: String,
    /// Mean fast-station goodput, bits/s.
    pub fast_goodput_bps: f64,
    /// Mean fast-station aggregation level.
    pub fast_aggregation: f64,
}

/// UDP saturation with a tight global limit, under each overlimit policy.
///
/// The limit is reduced so the saturating slow-station flow can actually
/// fill it within the run; with tail drop it then monopolises the budget.
pub fn drop_policy(policy: DropPolicy, cfg: &RunCfg) -> DropPolicyResult {
    let config = format!("{policy:?}");
    // (fast goodput, fast aggregation) per repetition.
    let reps: Vec<(f64, f64)> = run_seeds("ablations", "drop_policy", &config, cfg, |seed| {
        let mut net_cfg = scenario::testbed3(SchemeKind::AirtimeFair, seed);
        net_cfg.fq.drop_policy = policy;
        net_cfg.fq.limit = 512;
        let mut net: WifiNetwork<wifiq_traffic::AppMsg> = WifiNetwork::new(net_cfg);
        let mut app = TrafficApp::new();
        let fast = app.add_udp_down(0, SAT_RATE_BPS, Nanos::ZERO);
        app.add_udp_down(SLOW, SAT_RATE_BPS, Nanos::ZERO);
        app.install(&mut net);
        net.run(cfg.warmup, &mut app);
        let before = *net.station_meter(0);
        let delivered = app.delivered_bytes(fast);
        net.run(cfg.duration, &mut app);
        let window = meter_delta(net.station_meter(0), &before);
        let bytes = app.delivered_bytes(fast) - delivered;
        (
            bytes as f64 * 8.0 / cfg.window().as_secs_f64(),
            window.mean_aggregation(),
        )
    });
    DropPolicyResult {
        policy: config,
        fast_goodput_bps: mean(&reps.iter().map(|r| r.0).collect::<Vec<_>>()),
        fast_aggregation: mean(&reps.iter().map(|r| r.1).collect::<Vec<_>>()),
    }
}

/// Result of the quantum-sweep ablation.
#[derive(Debug, Clone, Serialize)]
pub struct QuantumResult {
    /// Quantum in microseconds.
    pub quantum_us: u64,
    /// Median ping RTT of the sparse station, ms.
    pub sparse_median_ms: f64,
    /// Median Jain's index over bulk-station airtime.
    pub jain: f64,
}

/// Airtime-quantum sweep: bulk UDP on three stations, ping on a fourth.
pub fn quantum(quantum_us: u64, cfg: &RunCfg) -> QuantumResult {
    let config = format!("{quantum_us}us");
    // (median sparse RTT, jain) per repetition.
    let reps: Vec<(f64, f64)> = run_seeds("ablations", "quantum", &config, cfg, |seed| {
        let mut net_cfg = scenario::testbed4(SchemeKind::AirtimeFair, seed);
        net_cfg.airtime.quantum = Nanos::from_micros(quantum_us);
        let mut net: WifiNetwork<wifiq_traffic::AppMsg> = WifiNetwork::new(net_cfg);
        let mut app = TrafficApp::new();
        let ping = app.add_ping(EXTRA, Nanos::ZERO);
        for sta in 0..3 {
            app.add_udp_down(sta, SAT_RATE_BPS, Nanos::ZERO);
        }
        app.install(&mut net);
        net.run(cfg.warmup, &mut app);
        let before: Vec<StationMeter> = net.meter().all().to_vec();
        net.run(cfg.duration, &mut app);
        let window: Vec<StationMeter> = meter_window(net.meter().all(), &before);
        let ms: Vec<f64> = to_ms(&app.ping(ping).rtts_after(cfg.warmup));
        (median(&ms), jain_index(&shares_of(&window[..3])))
    });
    QuantumResult {
        quantum_us,
        sparse_median_ms: median(&reps.iter().map(|r| r.0).collect::<Vec<_>>()),
        jain: median(&reps.iter().map(|r| r.1).collect::<Vec<_>>()),
    }
}
