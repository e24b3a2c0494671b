//! Deterministic station churn: a seeded schedule of join/leave events
//! applied to a running [`WifiNetwork`].
//!
//! The driver holds its own RNG stream, so two drivers built from the
//! same configuration and seed produce identical schedules regardless of
//! what the network itself does in between — attaching churn to an
//! experiment never perturbs the experiment's other random draws.

use wifiq_mac::{StaId, StationCfg, WifiNetwork};
use wifiq_phy::PhyRate;
use wifiq_sim::{Nanos, SimRng};

/// Churn schedule parameters.
#[derive(Debug, Clone)]
pub struct ChurnCfg {
    /// Mean interval between churn events (exponentially distributed).
    pub mean_interval: Nanos,
    /// The roster never shrinks below this many associated stations.
    pub min_stations: usize,
    /// The roster never grows beyond this many associated stations.
    pub max_stations: usize,
    /// Rates a joining station draws from (uniformly). A rejoining
    /// station re-draws — it does not inherit the departed occupant's
    /// rate even when it reuses the slot.
    pub rate_palette: Vec<PhyRate>,
}

impl Default for ChurnCfg {
    fn default() -> ChurnCfg {
        ChurnCfg {
            mean_interval: Nanos::from_millis(100),
            min_stations: 1,
            max_stations: usize::MAX,
            rate_palette: vec![PhyRate::fast_station(), PhyRate::slow_station()],
        }
    }
}

/// One applied churn event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEvent {
    /// A station joined under handle `id` (its wire slot is `id.slot()`).
    Join { id: StaId },
    /// The station holding handle `id` left; the table tombstones the
    /// slot until a later join reuses it under a fresh generation.
    Leave { id: StaId },
}

/// Applies a seeded join/leave schedule to a network between event-loop
/// windows.
#[derive(Debug)]
pub struct ChurnDriver {
    cfg: ChurnCfg,
    rng: SimRng,
    next_at: Nanos,
    /// Stations added so far.
    pub joins: u64,
    /// Stations removed so far.
    pub leaves: u64,
}

impl ChurnDriver {
    /// A driver whose schedule is a pure function of `seed` and `cfg`.
    pub fn new(cfg: ChurnCfg, seed: u64) -> ChurnDriver {
        assert!(
            cfg.min_stations < cfg.max_stations,
            "empty roster range [{}, {}]",
            cfg.min_stations,
            cfg.max_stations
        );
        assert!(!cfg.rate_palette.is_empty(), "empty rate palette");
        let mut rng = SimRng::new(seed);
        let first = draw_interval(&mut rng, cfg.mean_interval);
        ChurnDriver {
            cfg,
            rng,
            next_at: first,
            joins: 0,
            leaves: 0,
        }
    }

    /// Virtual time of the next scheduled churn event.
    pub fn next_at(&self) -> Nanos {
        self.next_at
    }

    /// Applies the next scheduled event to `net` and schedules the one
    /// after it. At the roster bounds the event direction is forced
    /// (join at the minimum, leave at the maximum); in between it is a
    /// fair coin.
    pub fn step<M: std::fmt::Debug>(&mut self, net: &mut WifiNetwork<M>) -> ChurnEvent {
        let active = net.active_stations();
        let join = if active <= self.cfg.min_stations {
            true
        } else if active >= self.cfg.max_stations {
            false
        } else {
            self.rng.chance(0.5)
        };
        let ev = if join {
            let rate = self.cfg.rate_palette[self.rng.index(self.cfg.rate_palette.len())];
            let id = net.add_station(StationCfg::clean(rate));
            self.joins += 1;
            ChurnEvent::Join { id }
        } else {
            // Pick the k-th currently associated station and resolve its
            // slot to the current handle.
            let k = self.rng.index(active);
            let id = net
                .nth_active_station(k)
                .and_then(|s| net.sta_id(s))
                .expect("active_stations out of sync with the table");
            net.remove_station(id);
            self.leaves += 1;
            ChurnEvent::Leave { id }
        };
        self.next_at += draw_interval(&mut self.rng, self.cfg.mean_interval);
        ev
    }
}

/// An exponentially distributed gap of mean `mean`, at least 1 ns — the
/// one draw behind churn intervals and roaming dwell times.
pub(crate) fn draw_interval(rng: &mut SimRng, mean: Nanos) -> Nanos {
    let ns = rng.exponential(mean.as_nanos() as f64) as u64;
    Nanos::from_nanos(ns.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wifiq_mac::{NetworkConfig, SchemeKind};

    fn driver(seed: u64) -> ChurnDriver {
        ChurnDriver::new(
            ChurnCfg {
                mean_interval: Nanos::from_millis(10),
                min_stations: 1,
                max_stations: 5,
                ..ChurnCfg::default()
            },
            seed,
        )
    }

    #[test]
    fn schedule_is_deterministic() {
        let run = |seed| {
            let mut net: WifiNetwork<()> =
                WifiNetwork::new(NetworkConfig::paper_testbed(SchemeKind::AirtimeFair));
            let mut d = driver(seed);
            let mut events = Vec::new();
            // seed_timer gives run() something to chew on; Idle sends
            // nothing so only churn shapes the roster.
            net.seed_timer(0, Nanos::ZERO);
            for _ in 0..50 {
                events.push(d.step(&mut net));
            }
            (events, net.active_stations(), net.station_slots())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).0, run(8).0, "different seeds, same schedule");
    }

    #[test]
    fn roster_respects_bounds() {
        let mut net: WifiNetwork<()> =
            WifiNetwork::new(NetworkConfig::paper_testbed(SchemeKind::AirtimeFair));
        let mut d = driver(3);
        for _ in 0..200 {
            d.step(&mut net);
            let n = net.active_stations();
            assert!((1..=5).contains(&n), "roster out of bounds: {n}");
            let recount = (0..net.station_slots())
                .filter(|&s| net.station_active(s))
                .count();
            assert_eq!(n, recount, "active-station counter drifted");
        }
        assert!(d.joins > 0 && d.leaves > 0);
    }
}
