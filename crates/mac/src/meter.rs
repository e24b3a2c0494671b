//! Per-station airtime metering.
//!
//! The paper's implementation reads per-packet durations from a hardware
//! register (or computes them from length and rate); the simulator knows
//! the exact exchange durations, so the meter simply accumulates them.
//! §4.1.5 validates the kernel's meter against monitor-mode captures to
//! within 1.5% — here the meter *is* ground truth.

use std::fmt::Debug;
use std::ops::Sub;

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

impl Sub for StationMeter {
    type Output = StationMeter;

    /// The window between two readings of one station's meter, `self`
    /// the later. Meters only grow, so a field that shrank means the two
    /// readings are of different stations: that panics in every build
    /// profile, naming the field, rather than wrapping.
    fn sub(self, earlier: StationMeter) -> StationMeter {
        fn grown<T: PartialOrd + Sub<Output = T> + Debug>(field: &str, later: T, earlier: T) -> T {
            assert!(
                earlier <= later,
                "meter field `{field}` shrank from {earlier:?} to {later:?}: \
                 the readings are of different stations"
            );
            later - earlier
        }
        StationMeter {
            tx_airtime: grown("tx_airtime", self.tx_airtime, earlier.tx_airtime),
            rx_airtime: grown("rx_airtime", self.rx_airtime, earlier.rx_airtime),
            tx_frames: grown("tx_frames", self.tx_frames, earlier.tx_frames),
            tx_bytes: grown("tx_bytes", self.tx_bytes, earlier.tx_bytes),
            rx_frames: grown("rx_frames", self.rx_frames, earlier.rx_frames),
            rx_bytes: grown("rx_bytes", self.rx_bytes, earlier.rx_bytes),
            tx_aggregates: grown("tx_aggregates", self.tx_aggregates, earlier.tx_aggregates),
            tx_aggregate_frames: grown(
                "tx_aggregate_frames",
                self.tx_aggregate_frames,
                earlier.tx_aggregate_frames,
            ),
            failures: grown("failures", self.failures, earlier.failures),
            retry_drops: grown("retry_drops", self.retry_drops, earlier.retry_drops),
        }
    }
}

/// The per-station meters: one row per station *identity*, so a meter
/// follows its station, not the wire slot it happens to occupy. The
/// initial roster's identities are its slots; every later association
/// takes a fresh identity, except a roamer that brings its own back.
#[derive(Debug, Clone, Default)]
pub struct AirtimeMeter {
    /// One row per identity; rows are never reset or removed.
    rows: Vec<StationMeter>,
    /// The identity each slot bills: its occupant, or its last occupant
    /// while the slot is vacant.
    occupant: Vec<usize>,
}

impl AirtimeMeter {
    /// Creates meters for an `n`-station roster, identity `i` on slot `i`.
    pub fn new(n: usize) -> AirtimeMeter {
        // Room for as many joins again before the table first moves:
        // capacity never written costs no memory, while freeing a large
        // table raises glibc's mmap threshold for the rest of the run.
        // On benchmark/'s roster20k_churn (x86-64 Linux, 20k stations of
        // 709 B each, `--seconds 1`) that is 68.0 MB of peak RSS without
        // the headroom, 59.2 MB with it.
        let mut rows = Vec::with_capacity(2 * n);
        rows.resize(n, StationMeter::default());
        AirtimeMeter {
            rows,
            occupant: (0..n).collect(),
        }
    }

    /// Seats identity `who` on `slot` (an existing slot or the next one);
    /// `None` takes a fresh identity, the next row. A returning identity
    /// bills its own row again.
    pub(crate) fn seat(&mut self, slot: usize, who: Option<usize>) {
        let who = who.unwrap_or(self.rows.len());
        if who >= self.rows.len() {
            self.rows.resize(who + 1, StationMeter::default());
        }
        if slot == self.occupant.len() {
            self.occupant.push(who);
        } else {
            self.occupant[slot] = who;
        }
    }

    /// The identity slot `slot` bills.
    pub fn identity(&self, slot: usize) -> usize {
        self.occupant[slot]
    }

    /// Mutable access to the meter slot `slot` bills.
    pub fn station_mut(&mut self, slot: usize) -> &mut StationMeter {
        &mut self.rows[self.occupant[slot]]
    }

    /// The meter of slot `slot`'s occupant (its last one while vacant).
    pub fn station(&self, slot: usize) -> &StationMeter {
        &self.rows[self.occupant[slot]]
    }

    /// All meters, one per identity, departed stations included.
    pub fn all(&self) -> &[StationMeter] {
        &self.rows
    }

    /// Each identity's share of the total airtime used; see
    /// [`airtime_shares`].
    pub fn airtime_shares(&self) -> Vec<f64> {
        airtime_shares(&self.rows)
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

    #[test]
    fn window_subtracts_field_by_field() {
        let a = StationMeter {
            tx_bytes: 100,
            tx_airtime: Nanos::from_millis(5),
            ..StationMeter::default()
        };
        let b = StationMeter {
            tx_bytes: 250,
            tx_airtime: Nanos::from_millis(9),
            ..a
        };
        let d = b - a;
        assert_eq!(d.tx_bytes, 150);
        assert_eq!(d.tx_airtime, Nanos::from_millis(4));
    }

    #[test]
    #[should_panic(expected = "meter field `retry_drops` shrank")]
    fn a_shrinking_field_panics_by_name() {
        let earlier = StationMeter {
            retry_drops: 3,
            ..StationMeter::default()
        };
        let _ = StationMeter::default() - earlier;
    }

    #[test]
    fn a_slot_bills_whoever_it_seats() {
        let mut m = AirtimeMeter::new(2);
        m.station_mut(1).tx_frames = 7;
        // A join on slot 1 takes a fresh identity; the leaver keeps its row.
        m.seat(1, None);
        assert_eq!(m.identity(1), 2);
        m.station_mut(1).tx_frames += 1;
        // A roamer on a new slot brings identity 1 back.
        m.seat(2, Some(1));
        assert_eq!(m.identity(2), 1);
        m.station_mut(2).tx_frames += 1;
        let frames: Vec<u64> = m.all().iter().map(|r| r.tx_frames).collect();
        assert_eq!(frames, [0, 8, 1]);
        assert_eq!((m.identity(1), m.station(2).tx_frames), (2, 8));
    }
}
