//! Per-station airtime metering.
//!
//! The paper's implementation reads per-packet durations from a hardware
//! register (or computes them from length and rate); the simulator knows
//! the exact exchange durations, so the meter simply accumulates them.
//! §4.1.5 validates the kernel's meter against monitor-mode captures to
//! within 1.5% — here the meter *is* ground truth.

use wifiq_sim::Nanos;

/// Airtime and frame accounting for one station.
#[derive(Debug, Clone, Copy, Default)]
pub struct StationMeter {
    /// Airtime consumed by AP→station transmissions (including retries).
    pub tx_airtime: Nanos,
    /// Airtime consumed by station→AP transmissions (including retries).
    pub rx_airtime: Nanos,
    /// Downlink frames delivered.
    pub tx_frames: u64,
    /// Downlink payload bytes delivered.
    pub tx_bytes: u64,
    /// Uplink frames received.
    pub rx_frames: u64,
    /// Uplink payload bytes received.
    pub rx_bytes: u64,
    /// Downlink aggregates successfully transmitted.
    pub tx_aggregates: u64,
    /// Sum of frames over those aggregates (for the mean aggregation
    /// size that feeds the analytical model, Table 1).
    pub tx_aggregate_frames: u64,
    /// Failed exchanges (collisions or channel errors) involving this
    /// station, either direction.
    pub failures: u64,
    /// Frames dropped after exhausting retries.
    pub retry_drops: u64,
}

impl StationMeter {
    /// Total airtime used by this station in both directions.
    pub fn total_airtime(&self) -> Nanos {
        self.tx_airtime + self.rx_airtime
    }

    /// Mean number of MPDUs per successfully transmitted downlink
    /// aggregate (the "Aggr size" column of Table 1).
    pub fn mean_aggregation(&self) -> f64 {
        if self.tx_aggregates == 0 {
            0.0
        } else {
            self.tx_aggregate_frames as f64 / self.tx_aggregates as f64
        }
    }
}

/// The collection of per-station meters.
#[derive(Debug, Clone, Default)]
pub struct AirtimeMeter {
    stations: Vec<StationMeter>,
}

impl AirtimeMeter {
    /// Creates meters for `n` stations.
    pub fn new(n: usize) -> AirtimeMeter {
        AirtimeMeter {
            stations: vec![StationMeter::default(); n],
        }
    }

    /// Grows the meter table through slot `i` (new slots zeroed) — used
    /// when a station joins after construction.
    pub fn ensure_station(&mut self, i: usize) {
        if i >= self.stations.len() {
            self.stations.resize(i + 1, StationMeter::default());
        }
    }

    /// Zeroes slot `i`, so a rejoining station's meter starts fresh
    /// rather than inheriting the departed occupant's totals.
    pub fn reset_station(&mut self, i: usize) {
        self.stations[i] = StationMeter::default();
    }

    /// Mutable access to one station's meter.
    pub fn station_mut(&mut self, i: usize) -> &mut StationMeter {
        &mut self.stations[i]
    }

    /// One station's meter.
    pub fn station(&self, i: usize) -> &StationMeter {
        &self.stations[i]
    }

    /// All meters, indexed by station.
    pub fn all(&self) -> &[StationMeter] {
        &self.stations
    }

    /// Each station's share of the total airtime used; see
    /// [`airtime_shares`].
    pub fn airtime_shares(&self) -> Vec<f64> {
        airtime_shares(&self.stations)
    }
}

/// Each meter's share of the total airtime the meters used (sums to 1
/// when any airtime was used, all zeros otherwise) — the quantity plotted
/// in Figures 5 and 9, for a network's meters or a window of meter
/// deltas alike. The total is summed in f64, exact below 2^53 ns.
pub fn airtime_shares(meters: &[StationMeter]) -> Vec<f64> {
    let airtime = |m: &StationMeter| m.total_airtime().as_nanos() as f64;
    let total: f64 = meters.iter().map(airtime).sum();
    if total == 0.0 {
        return vec![0.0; meters.len()];
    }
    meters.iter().map(|m| airtime(m) / total).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_one() {
        let mut m = AirtimeMeter::new(3);
        m.station_mut(0).tx_airtime = Nanos::from_millis(10);
        m.station_mut(1).tx_airtime = Nanos::from_millis(30);
        m.station_mut(2).rx_airtime = Nanos::from_millis(60);
        let shares = m.airtime_shares();
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((shares[0] - 0.1).abs() < 1e-9);
        assert!((shares[2] - 0.6).abs() < 1e-9);
    }

    #[test]
    fn zero_airtime_gives_zero_shares() {
        let m = AirtimeMeter::new(2);
        assert_eq!(m.airtime_shares(), vec![0.0, 0.0]);
    }

    #[test]
    fn shares_normalise() {
        let a = StationMeter {
            tx_airtime: Nanos::from_millis(1),
            ..StationMeter::default()
        };
        let b = StationMeter {
            tx_airtime: Nanos::from_millis(3),
            ..StationMeter::default()
        };
        let s = airtime_shares(&[a, b]);
        assert!((s[0] - 0.25).abs() < 1e-12);
        assert!((s[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn mean_aggregation() {
        let mut s = StationMeter::default();
        assert_eq!(s.mean_aggregation(), 0.0);
        s.tx_aggregates = 4;
        s.tx_aggregate_frames = 50;
        assert!((s.mean_aggregation() - 12.5).abs() < 1e-9);
    }
}
