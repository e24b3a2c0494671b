//! The one pump that drives a network while its roster changes.
//!
//! A network can carry a churn schedule, a roaming schedule, both or
//! neither. [`Roster`] runs the simulation to the next roster event,
//! applies everything due at that instant and repeats; it is the only
//! place the two schedules meet, so their same-instant order is written
//! once: roaming first, then churn. A roamer's rejoin thereby lands on the
//! slot its departure freed before a churn join can take it from the
//! station table's LIFO free list.

use wifiq_mac::{App, WifiNetwork};
use wifiq_sim::Nanos;

use crate::churn::ChurnDriver;
use crate::handoff::SoloRoam;

/// The roster schedules attached to one network.
#[derive(Debug)]
pub struct Roster<M> {
    /// Join/leave churn, when the network has any.
    pub churn: Option<ChurnDriver>,
    /// Hand-off replay, when the network's stations roam.
    pub roam: Option<SoloRoam<M>>,
}

impl<M: std::fmt::Debug> Roster<M> {
    /// Virtual time of the next roster event (`Nanos::MAX` with no
    /// schedule attached).
    pub fn next_at(&self) -> Nanos {
        let churn = self.churn.as_ref().map_or(Nanos::MAX, |c| c.next_at());
        let roam = self.roam.as_ref().map_or(Nanos::MAX, |r| r.next_at());
        churn.min(roam)
    }

    /// Applies everything due at or before `now` — hand-offs first, then
    /// churn. The caller must already have advanced `net` to `now`.
    pub fn step(&mut self, net: &mut WifiNetwork<M>, now: Nanos) {
        if let Some(r) = &mut self.roam {
            if r.next_at() <= now {
                r.catch_up(net, now);
            }
        }
        if let Some(c) = &mut self.churn {
            while c.next_at() <= now {
                c.step(net);
            }
        }
    }

    /// Drives `net` to virtual time `until`, stopping at every roster
    /// event along the way to [`step`](Self::step). With no schedule
    /// attached this is one `net.run(until, app)`.
    pub fn run_to<A: App<M>>(&mut self, net: &mut WifiNetwork<M>, app: &mut A, until: Nanos) {
        loop {
            let at = self.next_at();
            if at >= until {
                break;
            }
            net.run(at, app);
            self.step(net, at);
        }
        net.run(until, app);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::ChurnCfg;
    use crate::driver::RoamCfg;
    use wifiq_mac::{Commands, Delivery, NetworkConfig, Packet, SchemeKind};
    use wifiq_phy::PhyRate;

    /// No-op traffic: the roster alone shapes the network.
    struct Idle;
    impl App<()> for Idle {
        fn on_packet(&mut self, _: Delivery, _: Packet<()>, _: Nanos, _: &mut Commands<()>) {}
        fn on_timer(&mut self, _: u64, _: Nanos, _: &mut Commands<()>) {}
    }

    #[test]
    fn run_to_interleaves_events_with_sim_time() {
        let mut net: WifiNetwork<()> =
            WifiNetwork::new(NetworkConfig::paper_testbed(SchemeKind::AirtimeFair));
        net.seed_timer(0, Nanos::ZERO);
        let mut roster = Roster {
            churn: Some(ChurnDriver::new(
                ChurnCfg {
                    mean_interval: Nanos::from_millis(10),
                    min_stations: 1,
                    max_stations: 5,
                    ..ChurnCfg::default()
                },
                11,
            )),
            roam: None,
        };
        roster.run_to(&mut net, &mut Idle, Nanos::from_secs(1));
        let d = roster.churn.as_ref().unwrap();
        assert!(
            d.joins + d.leaves > 50,
            "too few events for 1s at 10ms mean"
        );
        assert!(roster.next_at() >= Nanos::from_secs(1));
    }

    /// Counts its own timer, re-armed every millisecond.
    struct Ticks(u64);
    impl App<()> for Ticks {
        fn on_packet(&mut self, _: Delivery, _: Packet<()>, _: Nanos, _: &mut Commands<()>) {}
        fn on_timer(&mut self, token: u64, now: Nanos, cmds: &mut Commands<()>) {
            self.0 += 1;
            cmds.set_timer(token, now + Nanos::from_millis(1));
        }
    }

    #[test]
    fn an_empty_roster_is_one_run() {
        let mut net: WifiNetwork<()> =
            WifiNetwork::new(NetworkConfig::paper_testbed(SchemeKind::AirtimeFair));
        net.seed_timer(0, Nanos::ZERO);
        let mut roster = Roster::<()> {
            churn: None,
            roam: None,
        };
        assert_eq!(roster.next_at(), Nanos::MAX);
        let mut app = Ticks(0);
        roster.run_to(&mut net, &mut app, Nanos::from_millis(5));
        assert_eq!(app.0, 6, "timers at 0..=5 ms");
    }

    /// The same-instant order: a roamer's rejoin and a churn join fall
    /// due together, and one step must hand the roamer the slot its own
    /// departure freed (the LIFO free list's head) before churn can
    /// take it. Roamers land slow and joiners fast, so the rate on the
    /// reused slot names who got it.
    #[test]
    fn a_rejoin_lands_before_a_churn_join_at_the_same_instant() {
        const SEED: u64 = 5;
        let (roamer, joiner) = (PhyRate::slow_station(), PhyRate::fast_station());
        let mut net: WifiNetwork<()> = WifiNetwork::new(
            NetworkConfig::builder()
                .stations_at(3, PhyRate::fast_station())
                .scheme(SchemeKind::AirtimeFair)
                .build(),
        );
        let roam_cfg = |gap: Nanos| RoamCfg {
            mean_dwell: Nanos::from_millis(10),
            reassoc_min: gap,
            reassoc_max: gap,
            rate_palette: vec![roamer],
        };
        // At its minimum of three the churn driver's step is a join,
        // whichever order the step runs in.
        let c = ChurnDriver::new(
            ChurnCfg {
                mean_interval: Nanos::from_secs(10),
                min_stations: 3,
                max_stations: 5,
                rate_palette: vec![joiner],
            },
            SEED,
        );
        // Slot 0 roams. The departure time does not depend on the gap,
        // so size the gap to put the rejoin exactly on churn's first
        // event.
        let depart = SoloRoam::<()>::new(roam_cfg(Nanos::ZERO), SEED, 1).next_at();
        let now = c.next_at();
        assert!(depart < now, "seed puts churn before the first hand-off");
        let mut roster = Roster {
            churn: Some(c),
            roam: Some(SoloRoam::new(roam_cfg(now - depart), SEED, 1)),
        };

        net.run(depart, &mut Idle);
        roster.step(&mut net, depart);
        assert!(!net.station_active(0), "slot 0 was not vacated");
        assert_eq!(roster.next_at(), now);

        net.run(now, &mut Idle);
        roster.step(&mut net, now);
        let roam = roster.roam.as_ref().unwrap();
        assert_eq!(roam.in_transit(), 0, "the rejoin was not due");
        assert_eq!(roster.churn.as_ref().unwrap().joins, 1);
        assert_eq!(net.active_stations(), 4);
        assert_eq!(
            net.config().stations[0].rate,
            roamer,
            "churn took the freed slot"
        );
        assert_eq!(net.config().stations[3].rate, joiner);
    }
}
