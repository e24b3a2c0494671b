//! The runtime interpreter of a [`FaultSchedule`].
//!
//! The injector is the zero-cost-when-off handle the network event loop
//! holds (the same shape as `Telemetry::disabled()`): with an empty
//! schedule every query is a branch on a `None` and returns immediately,
//! drawing nothing, so the hot path is untouched.

use wifiq_phy::PhyRate;
use wifiq_sim::{Nanos, SimRng};
use wifiq_telemetry::{Label, Telemetry};

use crate::schedule::{FaultSchedule, Impairment};

/// Salt mixed into the master seed for the chaos-private RNG streams.
/// Must differ from every other fork salt derived from the same seed
/// (stations fork from the *network's* stream, not from a fresh one, so
/// a plain per-seed constant suffices).
const CHAOS_SEED_SALT: u64 = 0xC4A0_5EED;

/// Gilbert–Elliott chain state for one (entry, station) pair.
#[derive(Debug, Clone, Copy, Default)]
struct GeState {
    bad: bool,
}

/// Per-station bookkeeping that exists only while chaos is on.
#[derive(Debug)]
struct StationState {
    /// Chaos-private RNG stream; all draws for this station come from
    /// here, in schedule-entry order, so per-station decisions are
    /// independent of every other station's impairments.
    rng: SimRng,
    /// Current run of consecutive forced losses (burst-length metric).
    loss_run: u64,
    /// Last CoDel degraded-state observation (recovery tracking).
    was_degraded: bool,
}

#[derive(Debug)]
struct ChaosState {
    schedule: FaultSchedule,
    stations: Vec<StationState>,
    /// GE chain per schedule entry × station: `ge[entry][sta]`.
    ge: Vec<Vec<GeState>>,
    /// Seed the per-station streams are forked from (stable across
    /// churn: station `i` always gets the same stream).
    master_seed: u64,
    tele: Telemetry,
}

impl ChaosState {
    /// Grows per-station state through slot `sta` — every query that
    /// reads a station's state calls it first, so a slot churn adds is
    /// covered on first use.
    fn grow_to(&mut self, sta: usize) {
        while self.stations.len() <= sta {
            let idx = self.stations.len() as u64;
            self.stations.push(StationState {
                rng: SimRng::stream(self.master_seed ^ CHAOS_SEED_SALT, idx + 1),
                loss_run: 0,
                was_degraded: false,
            });
            for chain in &mut self.ge {
                chain.push(GeState::default());
            }
        }
    }
}

/// Interprets a [`FaultSchedule`] against the running simulation.
///
/// Queries are made by the network event loop at its injection points;
/// every method is a no-op returning the "unimpaired" answer when the
/// injector is off.
#[derive(Debug, Default)]
pub struct ChaosInjector {
    inner: Option<Box<ChaosState>>,
}

impl ChaosInjector {
    /// An injector with no schedule: every query is free and inert.
    pub fn off() -> ChaosInjector {
        ChaosInjector { inner: None }
    }

    /// Builds an injector for `num_stations` stations from a schedule
    /// and the run's master seed. An empty schedule yields
    /// [`off`](Self::off).
    ///
    /// # Panics
    ///
    /// Panics if the schedule fails [`FaultSchedule::validate`] — a
    /// malformed schedule is a configuration bug, not a runtime
    /// condition.
    pub fn from_schedule(
        schedule: &FaultSchedule,
        seed: u64,
        num_stations: usize,
    ) -> ChaosInjector {
        if schedule.is_empty() {
            return ChaosInjector::off();
        }
        if let Err(msg) = schedule.validate() {
            panic!("invalid fault schedule: {msg}");
        }
        let mut state = ChaosState {
            ge: vec![Vec::new(); schedule.entries().len()],
            schedule: schedule.clone(),
            stations: Vec::new(),
            master_seed: seed,
            tele: Telemetry::disabled(),
        };
        state.grow_to(num_stations.saturating_sub(1));
        ChaosInjector {
            inner: Some(Box::new(state)),
        }
    }

    /// Whether any schedule is loaded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Attaches telemetry (chaos counters live under component "chaos").
    pub fn set_telemetry(&mut self, tele: Telemetry) {
        if let Some(st) = self.inner.as_mut() {
            st.tele = tele;
        }
    }

    /// Whether an exchange involving `sta` at `now` is forced to fail
    /// (burst loss, stall window, or ACK loss). Draws come from the
    /// station's chaos stream in schedule order; the caller's RNG is
    /// never touched.
    #[inline]
    pub fn exchange_lost(&mut self, sta: usize, now: Nanos) -> bool {
        let Some(st) = self.inner.as_mut() else {
            return false;
        };
        st.grow_to(sta);
        let mut lost = false;
        let mut stalled = false;
        let mut burst = false;
        let mut ack = false;
        for (i, e) in st.schedule.entries().iter().enumerate() {
            if !e.active(now) || !e.target.covers(sta) {
                continue;
            }
            match e.impairment {
                Impairment::Stall => {
                    stalled = true;
                    lost = true;
                }
                Impairment::BurstLoss {
                    p_enter,
                    p_exit,
                    loss_good,
                    loss_bad,
                } => {
                    // Advance the chain on every covered exchange so the
                    // burst structure is a property of the channel, not
                    // of earlier entries' outcomes.
                    let chain = &mut st.ge[i][sta];
                    let sr = &mut st.stations[sta].rng;
                    chain.bad = if chain.bad {
                        !sr.chance(p_exit)
                    } else {
                        sr.chance(p_enter)
                    };
                    let p = if chain.bad { loss_bad } else { loss_good };
                    if sr.chance(p) {
                        burst = true;
                        lost = true;
                    }
                }
                Impairment::AckLoss { prob } => {
                    if st.stations[sta].rng.chance(prob) {
                        ack = true;
                        lost = true;
                    }
                }
                Impairment::RateCollapse { .. }
                | Impairment::RateOscillate { .. }
                | Impairment::HwBackpressure { .. } => {}
            }
        }
        let sl = Label::Station(sta as u32);
        if stalled {
            st.tele.count("chaos", "stalled_exchanges", sl, 1);
        }
        if burst {
            st.tele.count("chaos", "forced_loss", sl, 1);
        }
        if ack {
            st.tele.count("chaos", "acks_lost", sl, 1);
        }
        // Burst-length histogram: a clean exchange ends the current run.
        let sta_st = &mut st.stations[sta];
        if lost {
            sta_st.loss_run += 1;
        } else if sta_st.loss_run > 0 {
            st.tele
                .observe_value("chaos", "loss_burst_len", sl, sta_st.loss_run);
            sta_st.loss_run = 0;
        }
        lost
    }

    /// The station's impaired PHY rate at `now`, if a rate fault is
    /// active. `None` means "use the configured / controller rate".
    /// Draw-free, so safe to call from multiple sites per exchange.
    #[inline]
    pub fn rate_override(&self, sta: usize, now: Nanos) -> Option<PhyRate> {
        let st = self.inner.as_deref()?;
        let mut rate = None;
        for e in st.schedule.entries() {
            if !e.active(now) || !e.target.covers(sta) {
                continue;
            }
            match e.impairment {
                Impairment::RateCollapse { rate: r } => rate = Some(r),
                Impairment::RateOscillate { low, period } => {
                    let phase = (now - e.from).as_nanos() / period.as_nanos();
                    if phase.is_multiple_of(2) {
                        rate = Some(low);
                    }
                }
                _ => {}
            }
        }
        rate
    }

    /// Counts one aggregate built at an overridden rate.
    #[inline]
    pub fn note_rate_override(&self, sta: usize) {
        if let Some(st) = self.inner.as_deref() {
            st.tele
                .count("chaos", "rate_overrides", Label::Station(sta as u32), 1);
        }
    }

    /// The clamped hardware queue depth at `now`, if a backpressure
    /// spike is active (the tightest of overlapping spikes wins).
    #[inline]
    pub fn hw_depth_clamp(&self, now: Nanos) -> Option<usize> {
        let st = self.inner.as_deref()?;
        let mut clamp = None;
        for e in st.schedule.entries() {
            if let Impairment::HwBackpressure { depth } = e.impairment {
                if e.active(now) {
                    clamp = Some(clamp.map_or(depth, |c: usize| c.min(depth)));
                }
            }
        }
        if clamp.is_some() {
            st.tele
                .count("chaos", "hw_clamped_rounds", Label::Global, 1);
        }
        clamp
    }

    /// Feeds the station's current CoDel degraded state so the injector
    /// can measure time-to-recover: when the §3.1.1 switch releases
    /// after a rate-fault window ended, the gap between the restore and
    /// the release lands in the `chaos/recovery_ms` histogram.
    #[inline]
    pub fn observe_codel(&mut self, sta: usize, degraded: bool, now: Nanos) {
        let Some(st) = self.inner.as_mut() else {
            return;
        };
        st.grow_to(sta);
        let was = st.stations[sta].was_degraded;
        st.stations[sta].was_degraded = degraded;
        let sl = Label::Station(sta as u32);
        if degraded && !was {
            st.tele.count("chaos", "codel_degraded_entries", sl, 1);
        }
        if !degraded && was {
            st.tele.count("chaos", "codel_recoveries", sl, 1);
            if let Some(restored) = st.schedule.last_rate_restore_before(sta, now) {
                let ms = now.saturating_sub(restored).as_nanos() / 1_000_000;
                st.tele.observe_value("chaos", "recovery_ms", sl, ms);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{FaultEntry, FaultTarget};

    fn window(secs: (u64, u64), target: FaultTarget, imp: Impairment) -> FaultEntry {
        FaultEntry::new(
            Nanos::from_secs(secs.0),
            Nanos::from_secs(secs.1),
            target,
            imp,
        )
    }

    #[test]
    fn empty_schedule_is_off() {
        let inj = ChaosInjector::from_schedule(&FaultSchedule::none(), 1, 3);
        assert!(!inj.is_enabled());
    }

    #[test]
    fn stall_fails_everything_in_window_only() {
        let sched =
            FaultSchedule::none().with(window((1, 2), FaultTarget::Station(0), Impairment::Stall));
        let mut inj = ChaosInjector::from_schedule(&sched, 1, 2);
        assert!(!inj.exchange_lost(0, Nanos::from_millis(500)));
        assert!(inj.exchange_lost(0, Nanos::from_millis(1500)));
        assert!(
            !inj.exchange_lost(1, Nanos::from_millis(1500)),
            "wrong target"
        );
        assert!(!inj.exchange_lost(0, Nanos::from_millis(2500)));
    }

    #[test]
    fn uniform_loss_rate_is_close() {
        let sched = FaultSchedule::none().with(window(
            (0, 1000),
            FaultTarget::AllStations,
            Impairment::uniform_loss(0.3),
        ));
        let mut inj = ChaosInjector::from_schedule(&sched, 7, 1);
        let n = 20_000;
        let lost = (0..n)
            .filter(|i| inj.exchange_lost(0, Nanos::from_micros(*i)))
            .count();
        let frac = lost as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.02, "loss fraction {frac}");
    }

    #[test]
    fn bursty_loss_clusters() {
        // Same overall bad-state share, very different burst structure:
        // the bursty chain must produce longer loss runs.
        let run_lengths = |imp: Impairment| {
            let sched = FaultSchedule::none().with(window((0, 1000), FaultTarget::Station(0), imp));
            let mut inj = ChaosInjector::from_schedule(&sched, 11, 1);
            let mut runs = Vec::new();
            let mut run = 0u64;
            for i in 0..50_000u64 {
                if inj.exchange_lost(0, Nanos::from_micros(i)) {
                    run += 1;
                } else if run > 0 {
                    runs.push(run);
                    run = 0;
                }
            }
            runs
        };
        let bursty = run_lengths(Impairment::bursty_loss(0.2, 16.0, 1.0));
        let uniform = run_lengths(Impairment::uniform_loss(0.2));
        let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
        assert!(
            mean(&bursty) > mean(&uniform) * 3.0,
            "bursty {} vs uniform {}",
            mean(&bursty),
            mean(&uniform)
        );
    }

    #[test]
    fn per_station_streams_are_independent() {
        // Adding an impairment for station 1 must not change station 0's
        // loss decisions.
        let base = FaultSchedule::none().with(window(
            (0, 1000),
            FaultTarget::Station(0),
            Impairment::uniform_loss(0.5),
        ));
        let extended = base.clone().with(window(
            (0, 1000),
            FaultTarget::Station(1),
            Impairment::uniform_loss(0.5),
        ));
        let mut a = ChaosInjector::from_schedule(&base, 3, 2);
        let mut b = ChaosInjector::from_schedule(&extended, 3, 2);
        for i in 0..5_000u64 {
            let now = Nanos::from_micros(i);
            // Interleave station 1 queries on the extended injector.
            let _ = b.exchange_lost(1, now);
            assert_eq!(a.exchange_lost(0, now), b.exchange_lost(0, now), "at {i}");
        }
    }

    #[test]
    fn same_seed_same_decisions() {
        let sched = FaultSchedule::none().with(window(
            (0, 1000),
            FaultTarget::AllStations,
            Impairment::bursty_loss(0.3, 8.0, 0.9),
        ));
        let mut a = ChaosInjector::from_schedule(&sched, 42, 2);
        let mut b = ChaosInjector::from_schedule(&sched, 42, 2);
        for i in 0..5_000u64 {
            let now = Nanos::from_micros(i);
            assert_eq!(
                a.exchange_lost(i as usize % 2, now),
                b.exchange_lost(i as usize % 2, now)
            );
        }
    }

    #[test]
    fn rate_override_and_oscillation() {
        let slow = PhyRate::slow_station();
        let sched = FaultSchedule::none()
            .with(window(
                (1, 2),
                FaultTarget::Station(0),
                Impairment::RateCollapse { rate: slow },
            ))
            .with(window(
                (10, 20),
                FaultTarget::Station(0),
                Impairment::RateOscillate {
                    low: slow,
                    period: Nanos::from_secs(1),
                },
            ));
        let inj = ChaosInjector::from_schedule(&sched, 1, 1);
        assert_eq!(inj.rate_override(0, Nanos::from_millis(500)), None);
        assert_eq!(inj.rate_override(0, Nanos::from_millis(1500)), Some(slow));
        assert_eq!(inj.rate_override(1, Nanos::from_millis(1500)), None);
        // Oscillation: low phase first, configured rate in odd phases.
        assert_eq!(inj.rate_override(0, Nanos::from_millis(10_500)), Some(slow));
        assert_eq!(inj.rate_override(0, Nanos::from_millis(11_500)), None);
        assert_eq!(inj.rate_override(0, Nanos::from_millis(12_500)), Some(slow));
    }

    #[test]
    fn hw_depth_clamp_takes_tightest() {
        let sched = FaultSchedule::none()
            .with(window(
                (0, 10),
                FaultTarget::AllStations,
                Impairment::HwBackpressure { depth: 2 },
            ))
            .with(window(
                (5, 10),
                FaultTarget::AllStations,
                Impairment::HwBackpressure { depth: 1 },
            ));
        let inj = ChaosInjector::from_schedule(&sched, 1, 1);
        assert_eq!(inj.hw_depth_clamp(Nanos::from_secs(1)), Some(2));
        assert_eq!(inj.hw_depth_clamp(Nanos::from_secs(6)), Some(1));
        assert_eq!(inj.hw_depth_clamp(Nanos::from_secs(11)), None);
    }

    #[test]
    fn recovery_histogram_measures_restore_to_release() {
        let slow = PhyRate::slow_station();
        let sched = FaultSchedule::none().with(window(
            (1, 5),
            FaultTarget::Station(0),
            Impairment::RateCollapse { rate: slow },
        ));
        let mut inj = ChaosInjector::from_schedule(&sched, 1, 1);
        let tele = Telemetry::enabled();
        inj.set_telemetry(tele.clone());
        // Engage during the window, release 1.5 s after the restore.
        inj.observe_codel(0, true, Nanos::from_secs(2));
        inj.observe_codel(0, true, Nanos::from_secs(4));
        inj.observe_codel(0, false, Nanos::from_millis(6_500));
        assert_eq!(
            tele.counter("chaos", "codel_recoveries", Label::Station(0)),
            1
        );
        let p50 = tele
            .with_registry(|r| {
                r.hist("chaos", "recovery_ms", Label::Station(0))
                    .map(|h| h.quantile(0.5))
            })
            .flatten()
            .expect("recovery histogram recorded");
        // 6.5 s release − 5 s restore = 1.5 s, within histogram bucket error.
        assert!((1_300..=1_700).contains(&p50), "recovery p50 {p50}");
    }
}
