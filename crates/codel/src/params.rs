//! CoDel parameter sets, including the paper's per-station adaptation.

use wifiq_sim::Nanos;
use wifiq_telemetry::{CounterId, EventKind, Label, Telemetry};

/// CoDel control-law parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodelParams {
    /// Acceptable standing-queue sojourn time. Above this (for longer than
    /// `interval`) CoDel enters dropping state.
    pub target: Nanos,
    /// Sliding window over which the minimum sojourn must exceed `target`
    /// before dropping; also the initial drop spacing.
    pub interval: Nanos,
    /// Do not drop while the queue holds no more than this many bytes —
    /// keeps CoDel from starving a link that drains slower than one MTU
    /// per target.
    pub mtu: u64,
}

impl CodelParams {
    /// The mac80211 WiFi defaults: target 20 ms, interval 100 ms.
    ///
    /// WiFi's bursty MAC needs a higher target than wired CoDel's 5 ms
    /// (paper §3.1.1: "The CoDel AQM employed on each queue can become too
    /// aggressive when applied to WiFi traffic").
    pub const fn wifi_default() -> CodelParams {
        CodelParams {
            target: Nanos::from_millis(20),
            interval: Nanos::from_millis(100),
            mtu: 1514,
        }
    }

    /// The paper's slow-station parameters: target 50 ms, interval 300 ms,
    /// applied when a station's estimated rate drops below 12 Mbps.
    pub const fn slow_station() -> CodelParams {
        CodelParams {
            target: Nanos::from_millis(50),
            interval: Nanos::from_millis(300),
            mtu: 1514,
        }
    }

    /// Classic wired-link CoDel: target 5 ms, interval 100 ms. Used by the
    /// qdisc-layer FQ-CoDel baseline.
    pub const fn wired_default() -> CodelParams {
        CodelParams {
            target: Nanos::from_millis(5),
            interval: Nanos::from_millis(100),
            mtu: 1514,
        }
    }
}

impl Default for CodelParams {
    fn default() -> Self {
        CodelParams::wifi_default()
    }
}

/// CoDel parameter selection with hysteresis (paper §3.1.1): the policy,
/// one per network.
///
/// "We use a simple threshold combined with an estimate of the station's
/// current throughput [...] changing CoDel's target to 50 ms and interval
/// to 300 ms when the expected rate drops below 12 Mbps. We apply
/// hysteresis so the values are not changed more than once every two
/// seconds."
///
/// The selection itself is per *station*, not per TID, because link
/// quality is a property of the physical station; what each station
/// keeps of it is a [`StationCodel`], which reads its parameters from
/// this selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodelSelector {
    normal: CodelParams,
    degraded: CodelParams,
    /// Rate threshold below which the degraded parameters apply.
    threshold_bps: u64,
    /// Minimum spacing between parameter changes.
    hysteresis: Nanos,
}

impl CodelSelector {
    /// The selector with the paper's constants (12 Mbps threshold, 2 s
    /// hysteresis).
    pub const fn new() -> CodelSelector {
        CodelSelector::with_config(
            CodelParams::wifi_default(),
            CodelParams::slow_station(),
            12_000_000,
            Nanos::from_secs(2),
        )
    }

    /// Fully parameterised constructor, for ablation experiments. A
    /// threshold of 0 never switches: no rate is below it.
    pub const fn with_config(
        normal: CodelParams,
        degraded: CodelParams,
        threshold_bps: u64,
        hysteresis: Nanos,
    ) -> CodelSelector {
        CodelSelector {
            normal,
            degraded,
            threshold_bps,
            hysteresis,
        }
    }
}

impl Default for CodelSelector {
    fn default() -> Self {
        CodelSelector::new()
    }
}

/// One station's state under a [`CodelSelector`]: which parameter set
/// applies, when it last changed, and the station's switch counter.
#[derive(Debug, Clone, Default)]
pub struct StationCodel {
    degraded: bool,
    last_change: Option<Nanos>,
    /// `codel/param_switches` for this station, once
    /// [`StationCodel::set_telemetry`] resolved it.
    switches: CounterId,
}

impl StationCodel {
    /// A station on the normal parameters that has never switched.
    pub fn new() -> StationCodel {
        StationCodel::default()
    }

    /// Resolves this station's switch counter against `tele` — the hub
    /// [`StationCodel::update_rate_observed`] will be given.
    pub fn set_telemetry(&mut self, tele: &Telemetry, station: u32) {
        self.switches = tele.counter_id("codel", "param_switches", Label::Station(station));
    }

    /// Feeds a new rate estimate (from the rate-selection algorithm) and
    /// returns the parameters `sel` gives the station from now on.
    pub fn update_rate(&mut self, sel: &CodelSelector, now: Nanos, rate_bps: u64) -> CodelParams {
        let want_degraded = rate_bps < sel.threshold_bps;
        if want_degraded != self.degraded {
            let may_change = match self.last_change {
                None => true,
                Some(at) => now.saturating_sub(at) >= sel.hysteresis,
            };
            if may_change {
                self.degraded = want_degraded;
                self.last_change = Some(now);
            }
        }
        self.current(sel)
    }

    /// [`StationCodel::update_rate`] with telemetry: emits a
    /// `param_switch` event and counter whenever the hysteresis actually
    /// flips the parameter set.
    pub fn update_rate_observed(
        &mut self,
        sel: &CodelSelector,
        now: Nanos,
        rate_bps: u64,
        tele: &Telemetry,
        station: u32,
    ) -> CodelParams {
        let before = self.degraded;
        let params = self.update_rate(sel, now, rate_bps);
        if self.degraded != before {
            tele.add(self.switches, 1);
            tele.event(
                now,
                "codel",
                EventKind::ParamSwitch {
                    station,
                    target: params.target,
                    interval: params.interval,
                },
            );
        }
        params
    }

    /// The parameters `sel` currently gives the station.
    pub fn current(&self, sel: &CodelSelector) -> CodelParams {
        if self.degraded {
            sel.degraded
        } else {
            sel.normal
        }
    }

    /// Whether the degraded (slow-station) parameters are active.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }
}

const _: () = assert!(std::mem::size_of::<StationCodel>() <= 24);

#[cfg(test)]
mod tests {
    use super::*;

    const PAPER: CodelSelector = CodelSelector::new();

    #[test]
    fn defaults_match_paper() {
        let p = CodelParams::slow_station();
        assert_eq!(p.target, Nanos::from_millis(50));
        assert_eq!(p.interval, Nanos::from_millis(300));
        let p = CodelParams::wifi_default();
        assert_eq!(p.target, Nanos::from_millis(20));
        assert_eq!(p.interval, Nanos::from_millis(100));
    }

    #[test]
    fn a_fresh_station_reads_normal() {
        let s = StationCodel::new();
        assert!(!s.is_degraded());
        assert_eq!(s.current(&PAPER), CodelParams::wifi_default());
    }

    #[test]
    fn switches_below_threshold() {
        let mut s = StationCodel::new();
        let p = s.update_rate(&PAPER, Nanos::from_secs(1), 7_200_000);
        assert!(s.is_degraded());
        assert_eq!(p.target, Nanos::from_millis(50));
        assert_eq!(s.current(&PAPER), CodelParams::slow_station());
    }

    #[test]
    fn hysteresis_blocks_rapid_flapping() {
        let mut s = StationCodel::new();
        s.update_rate(&PAPER, Nanos::from_secs(1), 7_000_000);
        assert!(s.is_degraded());
        // 1 s later the rate recovers, but hysteresis (2 s) blocks the
        // switch back.
        s.update_rate(&PAPER, Nanos::from_secs(2), 100_000_000);
        assert!(s.is_degraded());
        // After the hysteresis window it may switch.
        s.update_rate(&PAPER, Nanos::from_secs(3), 100_000_000);
        assert!(!s.is_degraded());
    }

    #[test]
    fn no_change_means_no_timer_reset() {
        let mut s = StationCodel::new();
        s.update_rate(&PAPER, Nanos::from_secs(1), 7_000_000);
        // Repeated slow estimates do not push the change time forward...
        s.update_rate(&PAPER, Nanos::from_secs(2), 7_000_000);
        s.update_rate(
            &PAPER,
            Nanos::from_secs(2) + Nanos::from_millis(900),
            7_000_000,
        );
        // ...so a recovery exactly 2 s after the original change succeeds.
        s.update_rate(&PAPER, Nanos::from_secs(3), 100_000_000);
        assert!(!s.is_degraded());
    }

    #[test]
    fn boundary_rate_is_not_degraded() {
        let mut s = StationCodel::new();
        s.update_rate(&PAPER, Nanos::ZERO, 12_000_000);
        assert!(!s.is_degraded(), "threshold is strictly below 12 Mbps");
    }

    #[test]
    fn a_pinned_selector_never_switches() {
        let wifi = CodelParams::wifi_default();
        let pinned = CodelSelector::with_config(wifi, wifi, 0, Nanos::ZERO);
        let mut s = StationCodel::new();
        for (secs, rate) in [(0, 0), (1, 1_000_000), (5, 100_000_000), (9, 0)] {
            assert_eq!(s.update_rate(&pinned, Nanos::from_secs(secs), rate), wifi);
            assert!(!s.is_degraded());
        }
    }

    #[test]
    fn stations_share_one_selector() {
        let (mut slow, mut fast) = (StationCodel::new(), StationCodel::new());
        slow.update_rate(&PAPER, Nanos::from_secs(1), 6_500_000);
        fast.update_rate(&PAPER, Nanos::from_secs(1), 144_400_000);
        assert_eq!(slow.current(&PAPER), CodelParams::slow_station());
        assert_eq!(fast.current(&PAPER), CodelParams::wifi_default());
    }
}
