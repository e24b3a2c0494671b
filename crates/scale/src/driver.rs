//! Seeded mobility schedules: which station roams, when, and where to.
//!
//! [`RoamDriver`] mirrors the churn driver's contract: the schedule is a
//! pure function of `(cfg, seed)`, drawn from a private RNG stream, so
//! attaching roaming to an experiment never perturbs the experiment's
//! other random draws — and a schedule whose first event falls beyond
//! the run's horizon leaves the simulation byte-identical to one with no
//! driver at all.

use wifiq_phy::PhyRate;
use wifiq_sim::{Nanos, SimRng};

use crate::churn::draw_interval;

/// Salt mixed into the master seed for the roaming stream (the churn and
/// chaos subsystems reserve their own salts; see DESIGN.md §12).
pub const ROAM_SEED_SALT: u64 = 0x0BA5_55ED;

/// Mobility-schedule parameters.
#[derive(Debug, Clone)]
pub struct RoamCfg {
    /// Mean dwell time at a BSS between hand-offs (exponentially
    /// distributed per station).
    pub mean_dwell: Nanos,
    /// Lower bound of the reassociation delay — the scan + auth + assoc
    /// gap during which the roamer is attached to neither BSS.
    pub reassoc_min: Nanos,
    /// Upper bound of the reassociation delay (uniform in
    /// `[reassoc_min, reassoc_max]`).
    pub reassoc_max: Nanos,
    /// Rates drawn on every association: the initial one and each
    /// re-association (a roamer lands at a different distance from its
    /// new AP, so it re-draws its MCS rather than carrying the old one).
    pub rate_palette: Vec<PhyRate>,
}

impl Default for RoamCfg {
    fn default() -> RoamCfg {
        RoamCfg {
            mean_dwell: Nanos::from_secs(5),
            reassoc_min: Nanos::from_millis(20),
            reassoc_max: Nanos::from_millis(80),
            rate_palette: vec![PhyRate::fast_station(), PhyRate::slow_station()],
        }
    }
}

/// One scheduled hand-off: station `station` leaves BSS `from` at `at`
/// and associates with BSS `to` at `rejoin_at` using `rate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoamMove {
    /// Monotonic move number (0-based, schedule-wide).
    pub seq: u64,
    /// Roaming station's schedule-wide identity (not a slot index).
    pub station: u32,
    /// Disassociation time.
    pub at: Nanos,
    /// BSS the station leaves.
    pub from: u32,
    /// BSS the station joins (equals `from` when only one BSS exists —
    /// the hand-off machinery still runs end to end).
    pub to: u32,
    /// Re-drawn PHY rate for the new association.
    pub rate: PhyRate,
    /// Reassociation time at the target BSS.
    pub rejoin_at: Nanos,
}

/// A seeded, replayable mobility schedule over a fixed roster of
/// stations and a fixed set of BSS instances.
#[derive(Debug)]
pub struct RoamDriver {
    cfg: RoamCfg,
    bss: u32,
    rng: SimRng,
    /// Current home BSS per station (updated as moves are drawn).
    homes: Vec<u32>,
    /// Current PHY rate per station (updated as moves are drawn).
    rates: Vec<PhyRate>,
    /// Next hand-off time per station.
    next_move_at: Vec<Nanos>,
    seq: u64,
}

impl RoamDriver {
    /// A driver whose schedule is a pure function of `cfg` and `seed`.
    /// Initial homes are assigned round-robin (`station % bss`) and
    /// initial rates are drawn from the palette in station order.
    pub fn new(cfg: RoamCfg, seed: u64, roster: usize, bss: u32) -> RoamDriver {
        assert!(roster > 0, "a roam schedule needs at least one station");
        assert!(bss > 0, "a roam schedule needs at least one BSS");
        assert!(!cfg.rate_palette.is_empty(), "empty rate palette");
        assert!(
            cfg.reassoc_min <= cfg.reassoc_max,
            "empty reassociation range [{:?}, {:?}]",
            cfg.reassoc_min,
            cfg.reassoc_max
        );
        assert!(!cfg.mean_dwell.is_zero(), "zero mean dwell");
        let mut rng = SimRng::stream(seed, ROAM_SEED_SALT);
        let mut homes = Vec::with_capacity(roster);
        let mut rates = Vec::with_capacity(roster);
        let mut next_move_at = Vec::with_capacity(roster);
        for station in 0..roster {
            homes.push(station as u32 % bss);
            rates.push(cfg.rate_palette[rng.index(cfg.rate_palette.len())]);
            next_move_at.push(draw_interval(&mut rng, cfg.mean_dwell));
        }
        RoamDriver {
            cfg,
            bss,
            rng,
            homes,
            rates,
            next_move_at,
            seq: 0,
        }
    }

    fn draw_reassoc(&mut self) -> Nanos {
        let (lo, hi) = (
            self.cfg.reassoc_min.as_nanos(),
            self.cfg.reassoc_max.as_nanos(),
        );
        if lo == hi {
            return Nanos::from_nanos(lo.max(1));
        }
        Nanos::from_nanos(self.rng.gen_range_u64(lo, hi + 1).max(1))
    }

    /// The station's current home BSS (as of the last drawn move).
    pub fn home(&self, station: usize) -> u32 {
        self.homes[station]
    }

    /// The station's current PHY rate (as of the last drawn move).
    pub fn rate(&self, station: usize) -> PhyRate {
        self.rates[station]
    }

    /// Virtual time of the next scheduled hand-off (ties break toward
    /// the lowest station id).
    pub fn next_at(&self) -> Nanos {
        *self.next_move_at.iter().min().expect("non-empty roster")
    }

    /// Draws the next hand-off and schedules the station's following one
    /// (`rejoin_at` + a fresh dwell, so a station never has two moves in
    /// flight at once).
    pub fn next_move(&mut self) -> RoamMove {
        let station = self
            .next_move_at
            .iter()
            .enumerate()
            .min_by_key(|&(i, at)| (*at, i))
            .map(|(i, _)| i)
            .expect("non-empty roster");
        let at = self.next_move_at[station];
        let from = self.homes[station];
        let to = if self.bss == 1 {
            from
        } else {
            // Uniform over the other BSS instances.
            let k = self.rng.index(self.bss as usize - 1) as u32;
            if k >= from {
                k + 1
            } else {
                k
            }
        };
        let rate = self.cfg.rate_palette[self.rng.index(self.cfg.rate_palette.len())];
        let rejoin_at = at + self.draw_reassoc();
        let dwell = draw_interval(&mut self.rng, self.cfg.mean_dwell);
        self.homes[station] = to;
        self.rates[station] = rate;
        self.next_move_at[station] = rejoin_at + dwell;
        let mv = RoamMove {
            seq: self.seq,
            station: station as u32,
            at,
            from,
            to,
            rate,
            rejoin_at,
        };
        self.seq += 1;
        mv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> RoamCfg {
        RoamCfg {
            mean_dwell: Nanos::from_millis(50),
            ..RoamCfg::default()
        }
    }

    #[test]
    fn schedule_is_deterministic() {
        let draw = |seed| {
            let mut d = RoamDriver::new(cfg(), seed, 6, 4);
            (0..200).map(|_| d.next_move()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8), "different seeds, same schedule");
    }

    #[test]
    fn moves_never_target_the_current_home() {
        let mut d = RoamDriver::new(cfg(), 3, 8, 4);
        for _ in 0..500 {
            let m = d.next_move();
            assert_ne!(m.from, m.to, "move {m:?} targets its own BSS");
            assert!(m.to < 4);
            assert!(m.rejoin_at > m.at);
            let gap = m.rejoin_at - m.at;
            assert!(gap >= Nanos::from_millis(20) && gap <= Nanos::from_millis(80));
        }
    }

    #[test]
    fn single_bss_moves_rejoin_in_place() {
        let mut d = RoamDriver::new(cfg(), 5, 3, 1);
        for _ in 0..50 {
            let m = d.next_move();
            assert_eq!(m.from, 0);
            assert_eq!(m.to, 0);
        }
    }

    #[test]
    fn times_are_monotone_and_stations_never_overlap() {
        let mut d = RoamDriver::new(cfg(), 11, 5, 3);
        let mut last = Nanos::ZERO;
        let mut busy_until = [Nanos::ZERO; 5];
        for _ in 0..300 {
            let m = d.next_move();
            assert!(m.at >= last, "schedule went backwards");
            last = m.at;
            assert!(
                m.at >= busy_until[m.station as usize],
                "station {} moved mid-transit",
                m.station
            );
            busy_until[m.station as usize] = m.rejoin_at;
        }
    }

    #[test]
    fn homes_track_the_drawn_moves() {
        let mut d = RoamDriver::new(cfg(), 2, 4, 4);
        for s in 0..4 {
            assert_eq!(d.home(s), s as u32 % 4);
        }
        for seq in 0..40 {
            let m = d.next_move();
            assert_eq!(m.seq, seq, "moves are numbered in draw order");
            assert_eq!(d.home(m.station as usize), m.to);
            assert_eq!(d.rate(m.station as usize), m.rate);
        }
    }
}
