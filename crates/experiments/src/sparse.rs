//! The sparse-station optimisation experiment (Figure 8): a fourth
//! station receives only a ping flow while the other three carry bulk
//! traffic; latency is compared with the optimisation enabled/disabled.

use serde::Serialize;
use wifiq_mac::SchemeKind;
use wifiq_stats::{Cdf, Summary};
use wifiq_traffic::FlowHandle;

use crate::runner::{run_seeds, to_ms, RunCfg};
use crate::scenario::{self, ping, tcp_down, EXTRA, TESTBED4};
use crate::scenario_file::ScenarioFile;
use crate::udp_sat::SAT_MBPS;

/// The bulk workload carried by the three busy stations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum BulkKind {
    /// Saturating downstream UDP.
    Udp,
    /// Bulk TCP download.
    Tcp,
}

impl BulkKind {
    /// Label for tables.
    pub fn label(self) -> &'static str {
        match self {
            BulkKind::Udp => "UDP",
            BulkKind::Tcp => "TCP",
        }
    }
}

/// Result of one (bulk kind × optimisation setting) cell.
#[derive(Debug, Clone, Serialize)]
pub struct SparseCell {
    /// Bulk workload label.
    pub bulk: String,
    /// Whether the sparse-station optimisation was enabled.
    pub enabled: bool,
    /// RTT summary for the ping-only station, ms.
    pub summary: Summary,
    /// RTT CDF, ms.
    pub cdf: Cdf,
}

/// One repetition of a Figure 8 cell under the airtime-fair scheme: a
/// ping to the extra station (component 0), `bulk` to the other three.
pub fn cell(bulk: BulkKind, seed: u64, cfg: &RunCfg) -> ScenarioFile {
    let mut traffic = vec![ping(EXTRA)];
    traffic.extend((0..3).map(|station| match bulk {
        BulkKind::Udp => scenario::udp(station, SAT_MBPS),
        BulkKind::Tcp => tcp_down(station),
    }));
    scenario::cell(SchemeKind::AirtimeFair, &TESTBED4, traffic, seed, cfg)
}

/// Runs [`cell`] with the sparse-station optimisation `enabled` or not.
pub fn run_cell(bulk: BulkKind, enabled: bool, cfg: &RunCfg) -> Result<SparseCell, String> {
    let config = if enabled { "on" } else { "off" };
    let cell_name = if bulk == BulkKind::Udp { "udp" } else { "tcp" };
    // Ping RTTs in ms, one vector per repetition.
    let reps: Vec<Vec<f64>> = run_seeds("sparse", cell_name, config, cfg, |rep| {
        let doc = cell(bulk, rep.seed, cfg);
        let mut built = doc.build_with(|c| c.airtime.sparse_stations = enabled)?;
        built.observe(&rep.hub());
        let window = built.measure(cfg.warmup);
        Ok(to_ms(
            &built.app.ping(FlowHandle(0)).rtts_after(window.from),
        ))
    })?;
    let rtts_ms: Vec<f64> = reps.into_iter().flatten().collect();
    Ok(SparseCell {
        bulk: bulk.label().to_string(),
        enabled,
        summary: Summary::of(&rtts_ms),
        cdf: Cdf::of(&rtts_ms, 200),
    })
}

/// Runs the full 2×2 matrix (UDP/TCP × enabled/disabled).
pub fn run_all(cfg: &RunCfg) -> Result<Vec<SparseCell>, String> {
    let mut cells = Vec::new();
    for bulk in [BulkKind::Udp, BulkKind::Tcp] {
        for enabled in [true, false] {
            cells.push(run_cell(bulk, enabled, cfg)?);
        }
    }
    Ok(cells)
}
