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
use wifiq_mac::meter::airtime_shares;
use wifiq_mac::SchemeKind;
use wifiq_sim::Nanos;
use wifiq_stats::jain_index;
use wifiq_traffic::FlowHandle;

use crate::runner::{bps, mean, median, run_seeds, to_ms, RunCfg};
use crate::scenario::{self, tcp_down, tcp_up, SLOW, TESTBED3};
use crate::scenario_file::ScenarioFile;
use crate::sparse::{self, BulkKind};
use crate::udp_sat::SAT_MBPS;

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

/// One repetition of the RX-charging ablation: bidirectional TCP to every
/// testbed station under the airtime scheme.
pub fn rx_charging_cell(seed: u64, cfg: &RunCfg) -> ScenarioFile {
    let traffic = (0..3)
        .flat_map(|station| [tcp_down(station), tcp_up(station)])
        .collect();
    scenario::cell(SchemeKind::AirtimeFair, &TESTBED3, traffic, seed, cfg)
}

/// Runs [`rx_charging_cell`] with RX charging toggled.
pub fn rx_charging(enabled: bool, cfg: &RunCfg) -> Result<RxChargingResult, String> {
    let config = if enabled { "on" } else { "off" };
    // (jain, slow share) per repetition.
    let reps: Vec<(f64, f64)> = run_seeds("ablations", "rx_charging", config, cfg, |seed| {
        let doc = rx_charging_cell(seed, cfg);
        let mut built = doc.build_with(|c| c.airtime.charge_rx = enabled)?;
        let shares = airtime_shares(&built.measure(cfg.warmup).meters);
        Ok((jain_index(&shares), shares[SLOW]))
    })?;
    Ok(RxChargingResult {
        charge_rx: enabled,
        jain: median(&reps.iter().map(|r| r.0).collect::<Vec<_>>()),
        slow_share: mean(&reps.iter().map(|r| r.1).collect::<Vec<_>>()),
    })
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

/// One repetition of the per-station CoDel ablation: bulk TCP to a very
/// slow (1 Mbps legacy) station in place of the testbed's MCS0 one. At
/// 1 Mbps the default 20 ms target allows under two full-size packets of
/// queue, which is where the over-aggressive-CoDel starvation bites.
pub fn adaptive_codel_cell(seed: u64, cfg: &RunCfg) -> ScenarioFile {
    let mut rates = TESTBED3;
    rates[SLOW] = "1mbps";
    let traffic = vec![tcp_down(SLOW)];
    scenario::cell(SchemeKind::AirtimeFair, &rates, traffic, seed, cfg)
}

/// Runs [`adaptive_codel_cell`] with and without the §3.1.1 parameter
/// adaptation.
pub fn adaptive_codel(enabled: bool, cfg: &RunCfg) -> Result<AdaptiveCodelResult, String> {
    let config = if enabled { "on" } else { "off" };
    // (goodput, drops, retransmissions) per repetition.
    let reps: Vec<(f64, f64, f64)> =
        run_seeds("ablations", "adaptive_codel", config, cfg, |seed| {
            let doc = adaptive_codel_cell(seed, cfg);
            let mut built = doc.build_with(|c| c.adaptive_codel = enabled)?;
            let bytes = built.measure(cfg.warmup).delivered[0];
            let st = built.app.tcp(FlowHandle(0)).sender_stats();
            Ok((
                bps(bytes, cfg.window()),
                built.net.ap_codel_drops() as f64,
                (st.fast_retransmits + st.timeouts) as f64,
            ))
        })?;
    Ok(AdaptiveCodelResult {
        adaptive: enabled,
        slow_goodput_bps: mean(&reps.iter().map(|r| r.0).collect::<Vec<_>>()),
        codel_drops: mean(&reps.iter().map(|r| r.1).collect::<Vec<_>>()),
        retransmissions: mean(&reps.iter().map(|r| r.2).collect::<Vec<_>>()),
    })
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

/// One repetition of the drop-policy ablation: saturating UDP to a fast
/// station and to the slow one.
pub fn drop_policy_cell(seed: u64, cfg: &RunCfg) -> ScenarioFile {
    let traffic = vec![scenario::udp(0, SAT_MBPS), scenario::udp(SLOW, SAT_MBPS)];
    scenario::cell(SchemeKind::AirtimeFair, &TESTBED3, traffic, seed, cfg)
}

/// Runs [`drop_policy_cell`] with a tight global limit under each
/// overlimit policy.
///
/// The limit is reduced so the saturating slow-station flow can actually
/// fill it within the run; with tail drop it then monopolises the budget.
pub fn drop_policy(policy: DropPolicy, cfg: &RunCfg) -> Result<DropPolicyResult, String> {
    let config = format!("{policy:?}");
    // (fast goodput, fast aggregation) per repetition.
    let reps: Vec<(f64, f64)> = run_seeds("ablations", "drop_policy", &config, cfg, |seed| {
        let mut built = drop_policy_cell(seed, cfg).build_with(|c| {
            c.fq.drop_policy = policy;
            c.fq.limit = 512;
        })?;
        let window = built.measure(cfg.warmup);
        Ok((
            bps(window.delivered[0], cfg.window()),
            window.meters[0].mean_aggregation(),
        ))
    })?;
    Ok(DropPolicyResult {
        policy: config,
        fast_goodput_bps: mean(&reps.iter().map(|r| r.0).collect::<Vec<_>>()),
        fast_aggregation: mean(&reps.iter().map(|r| r.1).collect::<Vec<_>>()),
    })
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

/// Airtime-quantum sweep over Figure 8's UDP cell ([`sparse::cell`]):
/// bulk UDP on three stations, ping on a fourth (component 0), with a
/// `quantum_us` airtime quantum.
pub fn quantum(quantum_us: u64, cfg: &RunCfg) -> Result<QuantumResult, String> {
    let config = format!("{quantum_us}us");
    // (median sparse RTT, jain) per repetition.
    let reps: Vec<(f64, f64)> = run_seeds("ablations", "quantum", &config, cfg, |seed| {
        let doc = sparse::cell(BulkKind::Udp, seed, cfg);
        let mut built = doc.build_with(|c| c.airtime.quantum = Nanos::from_micros(quantum_us))?;
        let window = built.measure(cfg.warmup);
        let ms: Vec<f64> = to_ms(&built.app.ping(FlowHandle(0)).rtts_after(window.from));
        Ok((
            median(&ms),
            jain_index(&airtime_shares(&window.meters[..3])),
        ))
    })?;
    Ok(QuantumResult {
        quantum_us,
        sparse_median_ms: median(&reps.iter().map(|r| r.0).collect::<Vec<_>>()),
        jain: median(&reps.iter().map(|r| r.1).collect::<Vec<_>>()),
    })
}
