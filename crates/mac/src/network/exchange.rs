//! One exchange, from the contention round that puts it on the air to the
//! settling of every attempt in it when `TxEnd` fires. Both directions go
//! through the same `settle`: they differ only in where the aggregate
//! waits and in where its frames go once delivered.

use wifiq_phy::AccessCategory;
use wifiq_policy::{CompiledPolicy, NODE_NONE};
use wifiq_sim::Nanos;
use wifiq_telemetry::{DropReason, EventKind, Label};

use super::{discard, policy_rt, Event, Observers, WifiNetwork};
use crate::aggregation::Aggregate;
use crate::app::{App, Commands, Delivery};
use crate::contention::Participant;
use crate::packet::{NodeAddr, StationIdx, Ticket};
use crate::trace::{TxDirection, TxRecord};

impl Observers {
    /// The one record of a transmission attempt, whichever way it went:
    /// the station's meter, its `mac/*` recorders and `Tx` event, the
    /// monitor's [`TxRecord`]. Airtime is consumed — and billed here —
    /// whether or not the exchange succeeded.
    fn attempt(
        &mut self,
        now: Nanos,
        direction: TxDirection,
        agg: &Aggregate<Ticket>,
        success: bool,
        policy: Option<&CompiledPolicy>,
    ) {
        let (sta, airtime) = (agg.station, agg.exchange_airtime());
        let uplink = direction == TxDirection::Uplink;
        let meter = self.meter.station_mut(sta);
        match direction {
            TxDirection::Downlink => meter.tx_airtime += airtime,
            TxDirection::Uplink => meter.rx_airtime += airtime,
        }
        meter.failures += !success as u64;
        if let Some(mut rec) = self.tele.batch() {
            let st = self.mac_tele.stations[sta];
            let counter = if uplink { st.rx_airtime } else { st.tx_airtime };
            rec.add(counter, airtime.as_nanos());
            // Achieved downlink airtime rolled up to the policy node
            // governing this (station, AC) — the observable the ≤5% share
            // gate checks against the configured tree.
            if let (false, Some(active)) = (uplink, policy) {
                let node = active.node_of(sta, agg.ac.index());
                if node != NODE_NONE {
                    rec.add(self.mac_tele.nodes[node as usize], airtime.as_nanos());
                }
            }
            rec.record(st.aggregate_frames, agg.frames.len() as u64);
            if agg.retries > 0 {
                rec.add(st.retries, 1);
            }
            rec.event(
                now,
                "mac",
                EventKind::Tx {
                    station: sta as u32,
                    ac: agg.ac.index() as u8,
                    frames: agg.frames.len() as u32,
                    bytes: agg.payload_bytes(),
                    airtime,
                    uplink,
                    success,
                    retry: agg.retries > 0,
                },
            );
        }
        if let Some(mon) = self.monitor.as_mut() {
            mon.on_tx(&TxRecord {
                at: now,
                station: sta,
                direction,
                ac: agg.ac,
                rate: agg.rate,
                frames: agg.frames.len(),
                payload_bytes: agg.payload_bytes(),
                airtime,
                success,
                retry: agg.retries,
            });
        }
    }

    /// Records an aggregate dropped at the retry limit.
    fn retry_drop(&mut self, now: Nanos, agg: &Aggregate<Ticket>) {
        let frames = agg.frames.len() as u64;
        self.meter.station_mut(agg.station).retry_drops += frames;
        if let Some(mut rec) = self.tele.batch() {
            rec.add(self.mac_tele.stations[agg.station].retry_drops, frames);
            rec.event(
                now,
                "mac",
                EventKind::Drop {
                    label: Label::Station(agg.station as u32),
                    bytes: agg.payload_bytes() as u32,
                    reason: DropReason::RetryLimit,
                },
            );
        }
    }
}

impl<M: std::fmt::Debug> WifiNetwork<M> {
    /// Runs one contention round if the medium is idle and anyone has a
    /// frame ready (DESIGN.md §14): phase A brings the cached contender
    /// set up to date, phase B draws every backoff from the main RNG — the
    /// AP first, then the contenders in ascending slot order — and puts the
    /// earliest transmitters into `in_flight`.
    pub(super) fn try_contend(&mut self, now: Nanos) {
        let medium = &mut self.medium;
        if !medium.in_flight.is_empty() {
            return;
        }
        let packets = &mut self.packets;
        self.contenders
            .refresh(&mut self.stations, &self.active, now, discard(packets));
        // This crate's own tests re-evaluate every slot every round, in any
        // profile; every other debug build audits one word, rotating.
        let mut audit = |word| {
            self.contenders.audit(
                &mut self.stations,
                &self.active,
                word,
                now,
                discard(packets),
            )
        };
        #[cfg(test)]
        assert_eq!(audit(None), Ok(()));
        #[cfg(not(test))]
        debug_assert_eq!(audit(Some(self.events_processed as usize)), Ok(()));

        // The AP contends with its highest-priority non-empty hw queue.
        let ap = AccessCategory::ALL
            .into_iter()
            .find(|ac| !medium.hw[ac.index()].is_empty())
            .map(|ac| (ac, medium.ap_cw[ac.index()]));
        let in_flight = &mut medium.in_flight;
        let Some(wait) = self.contenders.round(&mut self.rng, ap, in_flight) else {
            return;
        };

        // The exchange occupies the medium until the slowest tied
        // transmission (plus its ack slot) completes.
        let airtime = |p: &Participant| match *p {
            Participant::Ap { ac } => medium.hw[ac.index()]
                .front()
                .expect("AP contended with empty hw queue")
                .exchange_airtime(),
            Participant::Station { idx, ac } => self.stations[idx]
                .pending(ac)
                .expect("station contended with no pending aggregate")
                .exchange_airtime(),
        };
        let dur = medium.in_flight.iter().map(airtime).max();
        self.queue.push(
            now + wait + dur.expect("a round has a winner"),
            Event::TxEnd,
        );
    }

    /// `TxEnd`: settles every attempt of the exchange that just left the
    /// air — all of them failed if more than one transmitted — then runs
    /// the teardowns that waited for it.
    pub(super) fn handle_tx_end<A: App<M>>(
        &mut self,
        now: Nanos,
        app: &mut A,
        cmds: &mut Commands<M>,
    ) {
        let mut participants = std::mem::take(&mut self.medium.in_flight);
        assert!(!participants.is_empty(), "TxEnd with nothing in flight");
        let collision = participants.len() > 1;
        if collision {
            self.obs
                .tele
                .add(self.obs.mac_tele.collisions, participants.len() as u64);
        }

        for p in participants.drain(..) {
            let (sta, delivered) = self.settle(p, collision, now);
            match (p, delivered) {
                (Participant::Ap { .. }, Some(agg)) => {
                    let (m, n) = (self.obs.meter.station_mut(sta), agg.frames.len() as u64);
                    m.tx_aggregates += 1;
                    m.tx_aggregate_frames += n;
                    m.tx_frames += n;
                    m.tx_bytes += agg.payload_bytes();
                    let mut frames = agg.frames;
                    for t in frames.drain(..) {
                        let pkt = self.packets.remove(t.handle);
                        app.on_packet(Delivery::AtStation(sta), pkt, now, cmds);
                    }
                    self.ap.recycle_frames(frames);
                }
                (Participant::Station { .. }, Some(agg)) => {
                    let m = self.obs.meter.station_mut(sta);
                    m.rx_frames += agg.frames.len() as u64;
                    m.rx_bytes += agg.payload_bytes();
                    let mut frames = agg.frames;
                    for t in frames.drain(..) {
                        // Station-to-station forwarding through the AP is
                        // not modelled; every uplink frame terminates at
                        // the server.
                        debug_assert!(
                            self.packets.get(t.handle).dst == NodeAddr::Server,
                            "uplink packet addressed to {:?}; peer-to-peer traffic is unsupported",
                            self.packets.get(t.handle).dst
                        );
                        self.wire_hop(t.handle, t.len, now, Event::WireToServer);
                    }
                    self.stations[sta].recycle_frames(frames);
                }
                (_, None) => {}
            }
            if let Participant::Ap { ac } = p {
                // A station vetoed by AQL may have been rotated off the
                // lists while still holding traffic; now that hardware
                // airtime drained, re-list it.
                if let Some(id) = self.ap.sta_id(sta) {
                    self.ap.reactivate(id, ac);
                }
                self.ap_schedule(ac, now);
            }
        }

        // Removals that waited for this exchange to clear the air. A
        // deferred roam-out migrates nothing: its drops are churn drops.
        for id in std::mem::take(&mut self.pending_detach) {
            self.churn_drops += self.teardown(id, false).dropped;
        }
        // Hand the emptied buffer back for the next exchange.
        self.medium.in_flight = participants;
    }

    /// Bills one attempt and moves its retry chain one step: the loss
    /// verdict, the record every observer gets, the airtime charge to the
    /// station's scheduler deficit (§3.2: TX and RX alike), then success,
    /// retry or drop. Returns the station involved and, if the attempt
    /// delivered it, the aggregate — its frames are the caller's to hand on.
    fn settle(
        &mut self,
        p: Participant,
        collision: bool,
        now: Nanos,
    ) -> (StationIdx, Option<Aggregate<Ticket>>) {
        let (sta, ac, direction, (agg, cw, mut rc)) = match p {
            Participant::Ap { ac } => {
                let agg = self.medium.hw[ac.index()].front_mut();
                let agg = agg.expect("AP attempt with empty hw queue");
                let (cw, rc) = (
                    &mut self.medium.ap_cw[ac.index()],
                    self.ratectrl[agg.station].as_deref_mut(),
                );
                (agg.station, ac, TxDirection::Downlink, (agg, cw, rc))
            }
            Participant::Station { idx, ac } => {
                // Success frees the pending aggregate, failure moves the
                // window (or drops the aggregate): the cached answer is
                // stale either way.
                self.contenders.mark_dirty(idx);
                let held = self.stations[idx].attempt(ac);
                (idx, ac, TxDirection::Uplink, held)
            }
        };
        let (airtime, rate) = (agg.exchange_airtime(), agg.rate);
        let errors = &self.cfg.stations[sta].errors;
        let failed = collision
            || self.rng.chance(errors.exchange_error_prob(rate))
            || self.chaos.exchange_lost(sta, now);

        let policy = policy_rt::active(&self.policy);
        self.obs.attempt(now, direction, agg, !failed, policy);
        if let Some(rc) = rc.as_deref_mut() {
            rc.report(rate, !failed, now);
        }
        // Resolve the wire slot to the station's current handle. Removals
        // of an on-air station are deferred until this exchange has been
        // torn down, so the handle is normally current; a vacant slot
        // (impossible today, but cheap to tolerate) simply skips the
        // scheduler charge — the meter above already billed the airtime.
        if let Some(id) = self.ap.sta_id(sta) {
            match direction {
                TxDirection::Downlink => {
                    // A collapsed channel must drive the §3.1.1 parameter
                    // switch: while a chaos rate fault is active the
                    // estimate is the impaired rate, not the
                    // configured/controller one.
                    let rate_estimate = match (self.chaos.rate_override(sta, now), &rc) {
                        (Some(rate), _) => rate.bits_per_second(),
                        (None, Some(rc)) => rc.estimated_throughput(),
                        (None, None) => self.cfg.stations[sta].rate.bits_per_second(),
                    };
                    self.ap.on_tx_airtime(id, ac, airtime, now, rate_estimate);
                    if self.chaos.is_enabled() {
                        let degraded = self.ap.codel_degraded(id);
                        self.chaos.observe_codel(sta, degraded, now);
                    }
                }
                // RX airtime is charged to the station's scheduler deficit
                // so the AP can compensate for upstream usage it cannot
                // control (§3.2).
                TxDirection::Uplink => self.ap.on_rx_airtime(id, ac, airtime),
            }
        }

        if !agg.after_attempt(!failed, cw, rc.as_deref(), self.cfg.max_retries) {
            return (sta, None);
        }
        let agg = match p {
            Participant::Ap { ac } => self.medium.hw[ac.index()].pop_front(),
            Participant::Station { idx, ac } => Some(self.stations[idx].take_pending(ac)),
        };
        let agg = agg.expect("the settled aggregate heads its hw queue");
        if !failed {
            return (sta, Some(agg));
        }
        self.obs.retry_drop(now, &agg);
        agg.frames
            .iter()
            .copied()
            .for_each(discard(&mut self.packets));
        match p {
            Participant::Ap { .. } => self.ap.recycle_frames(agg.frames),
            Participant::Station { idx, .. } => self.stations[idx].recycle_frames(agg.frames),
        }
        (sta, None)
    }
}
