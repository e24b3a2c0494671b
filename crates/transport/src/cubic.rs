//! CUBIC congestion avoidance (RFC 8312), the Linux default the paper's
//! endpoints ran.
//!
//! CUBIC matters for the reproduction because its window growth is
//! *time-based*, not RTT-based: a flow behind a bloated queue (RTT inflated
//! to hundreds of milliseconds) still regrows its window in seconds. With
//! Reno's one-MSS-per-RTT growth, the slow station's flow in the FIFO
//! scenario never rebuilds a standing queue and the 802.11 anomaly's
//! buffer-hogging feedback loop cannot establish itself.

use wifiq_sim::Nanos;

/// CUBIC's scaling constant `C` (window units per second cubed).
const C: f64 = 0.4;
/// CUBIC's multiplicative decrease factor `β_cubic`.
pub const BETA: f64 = 0.7;

/// Per-connection CUBIC state. All window values are in bytes.
#[derive(Debug, Clone, Default)]
pub struct CubicState {
    /// Window size before the last reduction.
    w_max: f64,
    /// Time offset of the cubic function's inflection point, seconds.
    k: f64,
    /// Start of the current congestion-avoidance epoch.
    epoch_start: Option<Nanos>,
    /// Reno-friendly window estimate (bytes).
    w_est: f64,
}

impl CubicState {
    /// Fresh state for a new connection.
    pub fn new() -> CubicState {
        CubicState::default()
    }

    /// Registers a loss event; returns the new cwnd.
    ///
    /// Applies fast convergence: if the flow crests below its previous
    /// `w_max`, the saddle point is lowered further to release bandwidth
    /// to newer flows faster.
    pub fn on_loss(&mut self, cwnd: f64, mss: f64) -> f64 {
        if cwnd < self.w_max {
            self.w_max = cwnd * (1.0 + BETA) / 2.0;
        } else {
            self.w_max = cwnd;
        }
        self.epoch_start = None;
        (cwnd * BETA).max(2.0 * mss)
    }

    /// Resets the epoch on a retransmission timeout.
    pub fn on_timeout(&mut self, cwnd: f64) {
        self.w_max = cwnd;
        self.epoch_start = None;
    }

    /// Per-ACK congestion-avoidance growth; returns the new cwnd.
    ///
    /// `srtt` is used for the TCP-friendly (Reno emulation) floor.
    pub fn on_ack(&mut self, cwnd: f64, mss: f64, now: Nanos, srtt: Option<Nanos>) -> f64 {
        let epoch = match self.epoch_start {
            Some(e) => e,
            None => {
                // New epoch: compute K, the time to regain w_max.
                self.epoch_start = Some(now);
                let cwnd_u = cwnd / mss;
                let wmax_u = (self.w_max / mss).max(cwnd_u);
                self.w_max = wmax_u * mss;
                self.k = ((wmax_u - cwnd_u) / C).cbrt();
                self.w_est = cwnd;
                now
            }
        };
        let t = (now - epoch).as_secs_f64();

        // The cubic target window.
        let wmax_u = self.w_max / mss;
        let target_u = C * (t - self.k).powi(3) + wmax_u;

        // TCP-friendly region: emulate Reno's AIMD average rate so CUBIC
        // never underperforms Reno on short-RTT paths.
        if let Some(srtt) = srtt {
            let rtt_s = srtt.as_secs_f64().max(1e-4);
            self.w_est +=
                3.0 * (1.0 - BETA) / (1.0 + BETA) * mss * (mss / cwnd) * (t / rtt_s).min(1.0);
        }
        let target_u = target_u.max(self.w_est / mss);

        let cwnd_u = cwnd / mss;
        if target_u > cwnd_u {
            // Approach the target over roughly one RTT of ACKs, capped at
            // 50% growth per ACK to bound bursts.
            let step = ((target_u - cwnd_u) / cwnd_u).min(0.5);
            cwnd + step * mss
        } else {
            // Plateau region: probe very slowly.
            cwnd + mss * 0.01 / cwnd_u
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: f64 = 1448.0;

    #[test]
    fn loss_multiplies_by_beta() {
        let mut c = CubicState::new();
        let new = c.on_loss(100.0 * MSS, MSS);
        assert!((new - 70.0 * MSS).abs() < 1.0);
    }

    #[test]
    fn loss_floor_is_two_mss() {
        let mut c = CubicState::new();
        assert_eq!(c.on_loss(1.0 * MSS, MSS), 2.0 * MSS);
    }

    #[test]
    fn fast_convergence_lowers_wmax() {
        let mut c = CubicState::new();
        c.on_loss(100.0 * MSS, MSS); // w_max = 100
                                     // Second loss below w_max: w_max becomes 70 × 0.85 = 59.5.
        c.on_loss(70.0 * MSS, MSS);
        assert!((c.w_max / MSS - 59.5).abs() < 0.1, "{}", c.w_max / MSS);
    }

    #[test]
    fn growth_is_time_based_not_rtt_based() {
        // Two flows, same loss point, different ACK rates: after the same
        // wall-clock time their cubic targets coincide. The slower-ACKing
        // flow must have grown per-ack steps that compensate.
        let mut c = CubicState::new();
        let mut cwnd = c.on_loss(100.0 * MSS, MSS);
        let t0 = Nanos::from_secs(10);
        // One bloated 400 ms RTT delivers a full window of ACKs; run
        // 20 such RTTs (8 seconds).
        let mut now = t0;
        for _ in 0..20 {
            for _ in 0..(cwnd / MSS) as usize {
                cwnd = c.on_ack(cwnd, MSS, now, Some(Nanos::from_millis(400)));
            }
            now += Nanos::from_millis(400);
        }
        // After 8 s, the cubic function has passed K (≈4.2 s) and cwnd
        // should be recovering towards w_max = 100 despite few ACKs.
        assert!(
            cwnd / MSS > 80.0,
            "cwnd only {:.1} MSS after 8 s at long RTT",
            cwnd / MSS
        );
    }

    #[test]
    fn plateau_then_probe() {
        let mut c = CubicState::new();
        let mut cwnd = c.on_loss(100.0 * MSS, MSS);
        let t0 = Nanos::from_secs(1);
        let mut now = t0;
        let mut history = Vec::new();
        for _ in 0..600 {
            cwnd = c.on_ack(cwnd, MSS, now, Some(Nanos::from_millis(20)));
            now += Nanos::from_millis(20);
            history.push(cwnd / MSS);
        }
        // 12 s out: well past w_max into the probing region.
        assert!(
            *history.last().unwrap() > 110.0,
            "no max probing: {:.1}",
            history.last().unwrap()
        );
        // The curve is monotone non-decreasing.
        for w in history.windows(2) {
            assert!(w[1] >= w[0] - 1e-9);
        }
    }

    #[test]
    fn friendly_region_tracks_reno_floor() {
        // Tiny w_max: the cubic term is minute, but the Reno-friendly
        // floor keeps the window growing at least Reno-fast.
        let mut c = CubicState::new();
        let mut cwnd = c.on_loss(4.0 * MSS, MSS);
        let mut now = Nanos::from_secs(1);
        let before = cwnd;
        for _ in 0..200 {
            cwnd = c.on_ack(cwnd, MSS, now, Some(Nanos::from_millis(10)));
            now += Nanos::from_millis(10);
        }
        assert!(cwnd > before + MSS, "window froze in friendly region");
    }
}
