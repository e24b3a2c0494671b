//! The paper's analytical model for 802.11n throughput and airtime
//! (Section 2.2.1, equations 1–5).
//!
//! Given each station's aggregation level `n_i`, packet size `l_i` and PHY
//! rate `r_i`, the model predicts:
//!
//! - the *base rate* `R(n_i, l_i, r_i)` the station would achieve alone
//!   (eq. 3),
//! - each station's airtime share `T(i)` with and without airtime
//!   fairness (eq. 4),
//! - the resulting effective rate `R(i) = T(i) · R(n_i, l_i, r_i)`
//!   (eq. 5).
//!
//! The model is what Table 1 of the paper evaluates against measurements;
//! `wifiq-experiments` regenerates that table by feeding the *measured*
//! mean aggregation sizes from the simulator back into these expressions,
//! exactly as the paper does.

use wifiq_phy::consts::{self, DIFS, SIFS, T_BO_MEAN};
use wifiq_phy::timing::block_ack_duration;
use wifiq_phy::PhyRate;

/// One station's inputs to the model.
#[derive(Debug, Clone, Copy)]
pub struct ModelStation {
    /// Mean aggregation level (packets per A-MPDU); fractional values are
    /// allowed, as the paper uses measured means like 4.47.
    pub aggregation: f64,
    /// Packet (MSDU) size in bytes.
    pub packet_len: u64,
    /// PHY rate.
    pub rate: PhyRate,
}

impl ModelStation {
    /// The paper's standard workload: 1500-byte packets.
    pub fn new(aggregation: f64, rate: PhyRate) -> ModelStation {
        ModelStation {
            aggregation,
            packet_len: 1500,
            rate,
        }
    }
}

/// Per-station model outputs.
#[derive(Debug, Clone, Copy)]
pub struct ModelPrediction {
    /// Airtime share `T(i)` (0–1).
    pub airtime_share: f64,
    /// Base rate in bits/s: what the station achieves with the medium to
    /// itself (eq. 3).
    pub base_rate: f64,
    /// Effective rate in bits/s under the modelled sharing (eq. 5).
    pub rate: f64,
}

/// Aggregate size on the air in bytes — eq. 1 with fractional `n`.
///
/// `L(n, l) = n (l + L_delim + L_mac + L_FCS + L_pad)`.
pub fn aggregate_len(n: f64, l: u64) -> f64 {
    n * consts::subframe_len(l) as f64
}

/// Transmission time of the data portion in seconds — eq. 2:
/// `T_data = T_phy + 8 L / r`.
pub fn t_data(n: f64, l: u64, rate: PhyRate) -> f64 {
    consts::T_PHY.as_secs_f64() + 8.0 * aggregate_len(n, l) / rate.bits_per_second() as f64
}

/// Per-transmission overhead in seconds — the `T_oh` of eq. 3:
/// `T_DIFS + T_SIFS + T_ack + T_BO`, with `T_ack = T_SIFS + 8·58/r` and
/// `T_BO = T_slot · CW_min/2`.
pub fn t_overhead(rate: PhyRate) -> f64 {
    let t_ack = SIFS.as_secs_f64() + block_ack_duration(rate).as_secs_f64();
    DIFS.as_secs_f64() + SIFS.as_secs_f64() + t_ack + T_BO_MEAN.as_secs_f64()
}

/// Expected station rate with no contention — eq. 3:
/// `R = n·l / (T_data + T_oh)` in bits per second.
pub fn base_rate(n: f64, l: u64, rate: PhyRate) -> f64 {
    if n <= 0.0 {
        return 0.0;
    }
    8.0 * n * l as f64 / (t_data(n, l, rate) + t_overhead(rate))
}

/// Evaluates the model for a set of stations — eqs. 4 and 5.
///
/// With `fairness`, each station gets `1/|I|` of the airtime; without it,
/// station `i`'s share is `T_data(i) / Σ_j T_data(j)` (every station gets
/// one transmission per round — the throughput-fair MAC behaviour that
/// produces the anomaly).
pub fn predict(stations: &[ModelStation], fairness: bool) -> Vec<ModelPrediction> {
    let t_total: f64 = stations
        .iter()
        .map(|s| t_data(s.aggregation, s.packet_len, s.rate))
        .sum();
    stations
        .iter()
        .map(|s| {
            let share = if fairness {
                1.0 / stations.len() as f64
            } else {
                t_data(s.aggregation, s.packet_len, s.rate) / t_total
            };
            let base = base_rate(s.aggregation, s.packet_len, s.rate);
            ModelPrediction {
                airtime_share: share,
                base_rate: base,
                rate: share * base,
            }
        })
        .collect()
}

/// Convenience: total predicted throughput across stations in bits/s.
pub fn total_rate(predictions: &[ModelPrediction]) -> f64 {
    predictions.iter().map(|p| p.rate).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mbps(bps: f64) -> f64 {
        bps / 1e6
    }

    /// Table 1, baseline (FIFO) rows: aggregation 4.47 / 5.08 / 1.89 for
    /// fast/fast/slow, predicted rates 9.7 / 11.4 / 5.1 Mbps, total 26.4.
    #[test]
    fn table1_baseline_matches_paper() {
        let stations = [
            ModelStation::new(4.47, PhyRate::fast_station()),
            ModelStation::new(5.08, PhyRate::fast_station()),
            ModelStation::new(1.89, PhyRate::slow_station()),
        ];
        let p = predict(&stations, false);

        // Airtime shares: 10% / 11% / 79%.
        assert!(
            (p[0].airtime_share - 0.10).abs() < 0.01,
            "{}",
            p[0].airtime_share
        );
        assert!(
            (p[1].airtime_share - 0.11).abs() < 0.01,
            "{}",
            p[1].airtime_share
        );
        assert!(
            (p[2].airtime_share - 0.79).abs() < 0.01,
            "{}",
            p[2].airtime_share
        );

        // Base rates: 97.3 / 101.1 / 6.5 Mbps.
        assert!(
            (mbps(p[0].base_rate) - 97.3).abs() < 1.0,
            "{}",
            mbps(p[0].base_rate)
        );
        assert!(
            (mbps(p[1].base_rate) - 101.1).abs() < 1.0,
            "{}",
            mbps(p[1].base_rate)
        );
        assert!(
            (mbps(p[2].base_rate) - 6.5).abs() < 0.2,
            "{}",
            mbps(p[2].base_rate)
        );

        // Effective rates: 9.7 / 11.4 / 5.1; total 26.4.
        assert!((mbps(p[0].rate) - 9.7).abs() < 0.3, "{}", mbps(p[0].rate));
        assert!((mbps(p[1].rate) - 11.4).abs() < 0.3, "{}", mbps(p[1].rate));
        assert!((mbps(p[2].rate) - 5.1).abs() < 0.3, "{}", mbps(p[2].rate));
        assert!(
            (mbps(total_rate(&p)) - 26.4).abs() < 0.8,
            "{}",
            mbps(total_rate(&p))
        );
    }

    /// Table 1, airtime-fairness rows: aggregation 18.44 / 18.52 / 1.89,
    /// predicted rates 42.2 / 42.3 / 2.2 Mbps, total 86.8.
    #[test]
    fn table1_fairness_matches_paper() {
        let stations = [
            ModelStation::new(18.44, PhyRate::fast_station()),
            ModelStation::new(18.52, PhyRate::fast_station()),
            ModelStation::new(1.89, PhyRate::slow_station()),
        ];
        let p = predict(&stations, true);

        for pred in &p {
            assert!((pred.airtime_share - 1.0 / 3.0).abs() < 1e-9);
        }
        // Base rates: 126.7 / 126.8 / 6.5.
        assert!(
            (mbps(p[0].base_rate) - 126.7).abs() < 1.0,
            "{}",
            mbps(p[0].base_rate)
        );
        assert!(
            (mbps(p[1].base_rate) - 126.8).abs() < 1.0,
            "{}",
            mbps(p[1].base_rate)
        );
        // Effective rates: 42.2 / 42.3 / 2.2; total 86.8.
        assert!((mbps(p[0].rate) - 42.2).abs() < 0.5, "{}", mbps(p[0].rate));
        assert!((mbps(p[1].rate) - 42.3).abs() < 0.5, "{}", mbps(p[1].rate));
        assert!((mbps(p[2].rate) - 2.2).abs() < 0.2, "{}", mbps(p[2].rate));
        assert!(
            (mbps(total_rate(&p)) - 86.8).abs() < 1.5,
            "{}",
            mbps(total_rate(&p))
        );
    }

    #[test]
    fn fairness_multiplies_total_throughput() {
        // Table 1's totals: 26.4 → 86.8 predicted (the "up to 5×" headline
        // includes the 30-station case). Check direction and magnitude.
        let baseline = predict(
            &[
                ModelStation::new(4.47, PhyRate::fast_station()),
                ModelStation::new(5.08, PhyRate::fast_station()),
                ModelStation::new(1.89, PhyRate::slow_station()),
            ],
            false,
        );
        let fair = predict(
            &[
                ModelStation::new(18.44, PhyRate::fast_station()),
                ModelStation::new(18.52, PhyRate::fast_station()),
                ModelStation::new(1.89, PhyRate::slow_station()),
            ],
            true,
        );
        let gain = total_rate(&fair) / total_rate(&baseline);
        assert!((3.0..4.0).contains(&gain), "gain {gain}");
    }

    #[test]
    fn base_rate_monotone_in_aggregation() {
        let r = PhyRate::fast_station();
        let mut last = 0.0;
        for n in 1..=42 {
            let rate = base_rate(n as f64, 1500, r);
            assert!(rate > last, "rate must grow with aggregation");
            last = rate;
        }
        // Diminishing returns: asymptote below the PHY rate.
        assert!(last < r.bits_per_second() as f64);
    }

    #[test]
    fn base_rate_approaches_phy_rate_less_framing() {
        // At huge aggregation the overheads wash out; the remaining gap is
        // A-MPDU framing (1544/1500) and the PHY preamble.
        let r = PhyRate::fast_station();
        let rate = base_rate(1000.0, 1500, r);
        let framing_bound = r.bits_per_second() as f64 * 1500.0 / 1544.0;
        assert!(rate < framing_bound);
        assert!(rate > framing_bound * 0.95);
    }

    #[test]
    fn zero_aggregation_rate_is_zero() {
        assert_eq!(base_rate(0.0, 1500, PhyRate::fast_station()), 0.0);
    }

    #[test]
    fn anomaly_shares_follow_tdata_ratio() {
        // Two stations, one ~20× slower per bit: without fairness the slow
        // one dominates airtime.
        let stations = [
            ModelStation::new(10.0, PhyRate::fast_station()),
            ModelStation::new(10.0, PhyRate::ht(0, wifiq_phy::ChannelWidth::Ht20, true)),
        ];
        let p = predict(&stations, false);
        assert!(p[1].airtime_share > 0.85, "{}", p[1].airtime_share);
        assert!((p[0].airtime_share + p[1].airtime_share - 1.0).abs() < 1e-9);
    }
}
