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

/// Per-station CoDel parameter selection with hysteresis (paper §3.1.1).
///
/// "We use a simple threshold combined with an estimate of the station's
/// current throughput [...] changing CoDel's target to 50 ms and interval
/// to 300 ms when the expected rate drops below 12 Mbps. We apply
/// hysteresis so the values are not changed more than once every two
/// seconds."
///
/// Parameters are per *station*, not per TID, because link quality is a
/// property of the physical station.
#[derive(Debug, Clone)]
pub struct StationCodelParams {
    normal: CodelParams,
    degraded: CodelParams,
    /// Rate threshold below which the degraded parameters apply.
    threshold_bps: u64,
    /// Minimum spacing between parameter changes.
    hysteresis: Nanos,
    current_degraded: bool,
    last_change: Option<Nanos>,
    /// `codel/param_switches` for this station, once
    /// [`StationCodelParams::set_telemetry`] resolved it.
    switches: CounterId,
}

impl StationCodelParams {
    /// Creates the selector with the paper's constants
    /// (12 Mbps threshold, 2 s hysteresis).
    pub fn new() -> StationCodelParams {
        StationCodelParams::with_config(
            CodelParams::wifi_default(),
            CodelParams::slow_station(),
            12_000_000,
            Nanos::from_secs(2),
        )
    }

    /// Fully parameterised constructor, for ablation experiments.
    pub fn with_config(
        normal: CodelParams,
        degraded: CodelParams,
        threshold_bps: u64,
        hysteresis: Nanos,
    ) -> StationCodelParams {
        StationCodelParams {
            normal,
            degraded,
            threshold_bps,
            hysteresis,
            current_degraded: false,
            last_change: None,
            switches: CounterId::default(),
        }
    }

    /// Resolves this station's switch counter against `tele` — the hub
    /// [`StationCodelParams::update_rate_observed`] will be given.
    pub fn set_telemetry(&mut self, tele: &Telemetry, station: u32) {
        self.switches = tele.counter_id("codel", "param_switches", Label::Station(station));
    }

    /// Feeds a new rate estimate (from the rate-selection algorithm) and
    /// returns the parameters to use from now on.
    pub fn update_rate(&mut self, now: Nanos, rate_bps: u64) -> CodelParams {
        let want_degraded = rate_bps < self.threshold_bps;
        if want_degraded != self.current_degraded {
            let may_change = match self.last_change {
                None => true,
                Some(at) => now.saturating_sub(at) >= self.hysteresis,
            };
            if may_change {
                self.current_degraded = want_degraded;
                self.last_change = Some(now);
            }
        }
        self.current()
    }

    /// [`StationCodelParams::update_rate`] with telemetry: emits a
    /// `param_switch` event and counter whenever the hysteresis actually
    /// flips the parameter set.
    pub fn update_rate_observed(
        &mut self,
        now: Nanos,
        rate_bps: u64,
        tele: &Telemetry,
        station: u32,
    ) -> CodelParams {
        let before = self.current_degraded;
        let params = self.update_rate(now, rate_bps);
        if self.current_degraded != before {
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

    /// The currently selected parameters.
    pub fn current(&self) -> CodelParams {
        if self.current_degraded {
            self.degraded
        } else {
            self.normal
        }
    }

    /// Whether the degraded (slow-station) parameters are active.
    pub fn is_degraded(&self) -> bool {
        self.current_degraded
    }
}

impl Default for StationCodelParams {
    fn default() -> Self {
        StationCodelParams::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn switches_below_threshold() {
        let mut s = StationCodelParams::new();
        assert!(!s.is_degraded());
        let p = s.update_rate(Nanos::from_secs(1), 7_200_000);
        assert!(s.is_degraded());
        assert_eq!(p.target, Nanos::from_millis(50));
    }

    #[test]
    fn hysteresis_blocks_rapid_flapping() {
        let mut s = StationCodelParams::new();
        s.update_rate(Nanos::from_secs(1), 7_000_000);
        assert!(s.is_degraded());
        // 1 s later the rate recovers, but hysteresis (2 s) blocks the
        // switch back.
        s.update_rate(Nanos::from_secs(2), 100_000_000);
        assert!(s.is_degraded());
        // After the hysteresis window it may switch.
        s.update_rate(Nanos::from_secs(3), 100_000_000);
        assert!(!s.is_degraded());
    }

    #[test]
    fn no_change_means_no_timer_reset() {
        let mut s = StationCodelParams::new();
        s.update_rate(Nanos::from_secs(1), 7_000_000);
        // Repeated slow estimates do not push the change time forward...
        s.update_rate(Nanos::from_secs(2), 7_000_000);
        s.update_rate(Nanos::from_secs(2) + Nanos::from_millis(900), 7_000_000);
        // ...so a recovery exactly 2 s after the original change succeeds.
        s.update_rate(Nanos::from_secs(3), 100_000_000);
        assert!(!s.is_degraded());
    }

    #[test]
    fn boundary_rate_is_not_degraded() {
        let mut s = StationCodelParams::new();
        s.update_rate(Nanos::ZERO, 12_000_000);
        assert!(!s.is_degraded(), "threshold is strictly below 12 Mbps");
    }
}
