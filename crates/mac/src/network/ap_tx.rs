//! The AP's hardware-queue refill: scheduler pick, rate choice, aggregate
//! build. Touches the AP transmit path, the hardware queues, the downlink
//! rate controllers, chaos and the policy timeline — no uplink, no event.

use wifiq_core::StaId;
use wifiq_phy::AccessCategory;
use wifiq_sim::Nanos;

use super::{discard, WifiNetwork};

impl<M: std::fmt::Debug> WifiNetwork<M> {
    /// Refills the hardware queue for `ac` — the paper's `schedule()`
    /// loop: "while the hardware queue is not full … build_aggregate".
    ///
    /// With AQL enabled, a station already holding its airtime budget in
    /// the hardware is skipped for this refill round (its frames stay in
    /// the MAC FQ, where CoDel and the scheduler govern them).
    pub(super) fn ap_schedule(&mut self, ac: AccessCategory, now: Nanos) {
        // Policy switches land here, at the round boundary, before any
        // aggregate is built under the new weights.
        self.poll_policy(now);
        // A chaos backpressure spike narrows the effective depth; it can
        // never widen it past the configured hardware limit.
        let depth = match self.chaos.hw_depth_clamp(now) {
            Some(clamp) => clamp.min(self.cfg.hw_queue_depth),
            None => self.cfg.hw_queue_depth,
        };
        while self.medium.hw[ac.index()].len() < depth {
            // AQL eligibility: stations at their hardware-airtime budget
            // are invisible to the scheduler this round.
            let sta = {
                let aql = self.cfg.aql;
                let hw = &self.medium.hw[ac.index()];
                self.ap.next_tx(ac, now, |sta: StaId| match aql {
                    None => true,
                    Some(limit) => {
                        let slot = sta.slot();
                        let queued: Nanos = hw
                            .iter()
                            .filter(|a| a.station == slot)
                            .map(|a| a.exchange_airtime())
                            .sum();
                        queued < limit
                    }
                })
            };
            let Some(sta) = sta else { break };
            let slot = sta.slot();
            if let Some(rc) = self.ratectrl[slot].as_mut() {
                // The cap makes a chaos rate collapse visible to the
                // controller itself: it cannot probe above the collapsed
                // channel while the fault window is open.
                rc.set_cap(self.chaos.rate_override(slot, now));
                self.ap.set_rate(sta, rc.rate_for_next(&mut self.rng));
            } else if self.chaos.is_enabled() {
                match self.chaos.rate_override(slot, now) {
                    Some(rate) => {
                        self.ap.set_rate(sta, rate);
                        self.chaos.note_rate_override(slot);
                    }
                    // Restore the configured rate once the window closes
                    // (nothing else resets it without a controller).
                    None => self.ap.set_rate(sta, self.cfg.stations[slot].rate),
                }
            }
            match self.ap.build(sta, ac, now, discard(&mut self.packets)) {
                Some(agg) => self.medium.hw[ac.index()].push_back(agg),
                // The TID drained (e.g. CoDel dropped the rest): loop and
                // ask the scheduler again; it will rotate the station out.
                None => continue,
            }
        }
        if let Some(mut rec) = self.obs.tele.batch() {
            let total: usize = self.medium.hw.iter().map(|q| q.len()).sum();
            rec.set(self.obs.mac_tele.hw_depth_gauge, total as f64);
            rec.record(self.obs.mac_tele.hw_depth_hist, total as u64);
        }
    }
}
