//! Table 1 reproduction: analytical model vs simulator measurements.
//!
//! Exactly as the paper does, the *measured* mean aggregation level from
//! the experiment feeds the model (eqs. 1–5); the model's predicted
//! per-station rate is then compared against the *measured* UDP goodput.

use serde::Serialize;
use wifiq_mac::SchemeKind;
use wifiq_model::{predict, ModelStation};
use wifiq_phy::PhyRate;

use crate::runner::RunCfg;
use crate::udp_sat::{self, UdpSatResult};

/// One Table 1 row.
#[derive(Debug, Clone, Serialize)]
pub struct Table1Row {
    /// Measured mean aggregation level (model input `n_i`).
    pub aggr: f64,
    /// Modelled airtime share `T(i)`.
    pub airtime_share: f64,
    /// PHY rate, bits/s.
    pub phy_bps: u64,
    /// Modelled base rate `R(n,l,r)`, bits/s.
    pub base_bps: f64,
    /// Modelled effective rate `R(i)`, bits/s.
    pub model_bps: f64,
    /// Measured UDP goodput, bits/s (the paper's "Exp" column).
    pub measured_bps: f64,
}

/// One half of Table 1 (baseline or airtime-fair).
#[derive(Debug, Clone, Serialize)]
pub struct Table1Half {
    /// "Baseline (FIFO queue)" or "Airtime Fairness".
    pub label: String,
    /// The three station rows.
    pub rows: Vec<Table1Row>,
    /// Modelled total, bits/s.
    pub model_total: f64,
    /// Measured total, bits/s.
    pub measured_total: f64,
}

/// The full Table 1.
#[derive(Debug, Clone, Serialize)]
pub struct Table1 {
    /// FIFO half.
    pub baseline: Table1Half,
    /// Airtime-fair half.
    pub fair: Table1Half,
}

fn station_rates() -> [PhyRate; 3] {
    [
        PhyRate::fast_station(),
        PhyRate::fast_station(),
        PhyRate::slow_station(),
    ]
}

fn half_from(label: &str, sat: &UdpSatResult, fairness: bool) -> Table1Half {
    let rates = station_rates();
    let inputs: Vec<ModelStation> = sat
        .stations
        .iter()
        .zip(rates)
        .map(|(s, r)| ModelStation::new(s.aggregation.max(1.0), r))
        .collect();
    let preds = predict(&inputs, fairness);
    let rows: Vec<Table1Row> = preds
        .iter()
        .zip(&sat.stations)
        .zip(rates)
        .map(|((p, s), r)| Table1Row {
            aggr: s.aggregation,
            airtime_share: p.airtime_share,
            phy_bps: r.bits_per_second(),
            base_bps: p.base_rate,
            model_bps: p.rate,
            measured_bps: s.goodput_bps,
        })
        .collect();
    Table1Half {
        label: label.to_string(),
        model_total: rows.iter().map(|r| r.model_bps).sum(),
        measured_total: rows.iter().map(|r| r.measured_bps).sum(),
        rows,
    }
}

/// Regenerates Table 1: runs the UDP saturation workload under FIFO and
/// under the airtime-fair scheme, then evaluates the model on the
/// measured aggregation levels.
pub fn run(cfg: &RunCfg) -> Result<Table1, String> {
    let fifo = udp_sat::run_scheme(SchemeKind::Fifo, cfg)?;
    let fair = udp_sat::run_scheme(SchemeKind::AirtimeFair, cfg)?;
    Ok(Table1 {
        baseline: half_from("Baseline (FIFO queue)", &fifo, false),
        fair: half_from("Airtime Fairness", &fair, true),
    })
}
