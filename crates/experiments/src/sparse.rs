//! The sparse-station optimisation experiment (Figure 8): a fourth
//! station receives only a ping flow while the other three carry bulk
//! traffic; latency is compared with the optimisation enabled/disabled.

use serde::Serialize;
use wifiq_mac::{SchemeKind, WifiNetwork};
use wifiq_sim::Nanos;
use wifiq_stats::{Cdf, Summary};
use wifiq_traffic::TrafficApp;

use crate::runner::{run_seeds, to_ms, RunCfg};
use crate::scenario::{self, EXTRA};
use crate::udp_sat::SAT_RATE_BPS;

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

/// Runs one cell of the Figure 8 matrix under the airtime-fair scheme.
pub fn run_cell(bulk: BulkKind, enabled: bool, cfg: &RunCfg) -> SparseCell {
    let config = if enabled { "on" } else { "off" };
    let cell = if bulk == BulkKind::Udp { "udp" } else { "tcp" };
    // Ping RTTs in ms, one vector per repetition.
    let reps: Vec<Vec<f64>> = run_seeds("sparse", cell, config, cfg, |seed| {
        let mut net_cfg = scenario::testbed4(SchemeKind::AirtimeFair, seed);
        if !enabled {
            net_cfg = scenario::without_sparse(net_cfg);
        }
        let mut net: WifiNetwork<wifiq_traffic::AppMsg> = WifiNetwork::new(net_cfg);
        let mut app = TrafficApp::new();
        let ping = app.add_ping(EXTRA, Nanos::ZERO);
        for sta in 0..3 {
            match bulk {
                BulkKind::Udp => {
                    app.add_udp_down(sta, SAT_RATE_BPS, Nanos::ZERO);
                }
                BulkKind::Tcp => {
                    app.add_tcp_down(sta, Nanos::ZERO);
                }
            }
        }
        app.install(&mut net);
        net.run(cfg.duration, &mut app);
        to_ms(&app.ping(ping).rtts_after(cfg.warmup))
    });
    let rtts_ms: Vec<f64> = reps.into_iter().flatten().collect();
    SparseCell {
        bulk: bulk.label().to_string(),
        enabled,
        summary: Summary::of(&rtts_ms),
        cdf: Cdf::of(&rtts_ms, 200),
    }
}

/// Runs the full 2×2 matrix (UDP/TCP × enabled/disabled).
pub fn run_all(cfg: &RunCfg) -> Vec<SparseCell> {
    let mut cells = Vec::new();
    for bulk in [BulkKind::Udp, BulkKind::Tcp] {
        for enabled in [true, false] {
            cells.push(run_cell(bulk, enabled, cfg));
        }
    }
    cells
}
