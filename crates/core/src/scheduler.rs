//! The airtime-fairness station scheduler — Algorithm 3 of the paper.
//!
//! A deficit round-robin scheduler modelled after FQ-CoDel's flow
//! scheduler, with stations taking the place of flows and the deficit
//! accounted in *microseconds of airtime* instead of bytes. Each station
//! keeps one deficit per 802.11 QoS precedence level (VO/VI/BE/BK).
//!
//! Compared to its closest prior work (the DTT scheduler \[6\]), this design:
//!
//! 1. uses per-station deficits instead of token buckets (no accounting at
//!    TX/RX completion beyond one subtraction),
//! 2. charges only actual transmission airtime — and also charges airtime
//!    of *received* frames, so stations pay for their upstream usage,
//! 3. adds a sparse-station optimisation analogous to FQ-CoDel's new-flow
//!    priority, with the same anti-gaming protection.
//!
//! The schedule loop itself ("while the hardware queue is not full")
//! belongs to the driver; this type provides the station selection
//! ([`AirtimeScheduler::next_station`]) and the airtime accounting
//! ([`AirtimeScheduler::charge`]).
//!
//! # State layout
//!
//! All per-station round state — deficits, weights, list membership and
//! the intrusive DRR list links — lives in a [`StationTable`]'s flat
//! slabs, not in this type: the scheduler is a stateless algorithm
//! (parameters + telemetry counters) over the table, so one store owns
//! station lifetime for the scheduler, the MAC transmit path, and
//! roaming alike. The pre-SoA implementation is retained verbatim as the
//! test-only `ReferenceScheduler` in this module's tests, where the
//! oracle proptest pins the two to the same scheduling decisions.

use wifiq_sim::Nanos;

use crate::table::{Membership, StaId, StationTable};

pub use crate::table::{QOS_LEVELS, WEIGHT_NEUTRAL};

/// Configuration for the airtime scheduler.
#[derive(Debug, Clone, Copy)]
pub struct AirtimeParams {
    /// Airtime quantum added to a station's deficit per scheduling round.
    ///
    /// Smaller quanta give finer-grained fairness; the deficit may go
    /// arbitrarily negative after one aggregate, and negative stations
    /// simply wait more rounds.
    pub quantum: Nanos,
    /// Enable the sparse-station optimisation: stations that become active
    /// are scheduled with temporary priority for one round (§3.2 item 3).
    pub sparse_stations: bool,
    /// Charge received (upstream) airtime to station deficits (§3.2
    /// item 2). Disabling this reverts to TX-only accounting, the
    /// behaviour of prior schedulers like DTT \[6\] — the ablation behind
    /// the bidirectional rows of Figure 6.
    pub charge_rx: bool,
}

impl Default for AirtimeParams {
    fn default() -> Self {
        AirtimeParams {
            quantum: Nanos::from_micros(300),
            sparse_stations: true,
            charge_rx: true,
        }
    }
}

/// Telemetry counters for the scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct AirtimeStats {
    /// Stations handed out by [`AirtimeScheduler::next_station`].
    pub scheduled: u64,
    /// Times a station served from the new list (sparse priority hits).
    pub sparse_hits: u64,
    /// Total airtime charged via [`AirtimeScheduler::charge`].
    pub charged: Nanos,
}

/// The per-access-category airtime DRR scheduler (paper Algorithm 3),
/// operating over a [`StationTable`]'s flat hot slabs.
///
/// # Examples
///
/// ```
/// use wifiq_core::scheduler::{AirtimeParams, AirtimeScheduler};
/// use wifiq_core::table::StationTable;
/// use wifiq_sim::Nanos;
///
/// let mut table = StationTable::new();
/// let mut sched = AirtimeScheduler::new(AirtimeParams::default());
/// let a = sched.register_station(&mut table, ());
/// let b = sched.register_station(&mut table, ());
/// let ac = 2; // best effort
///
/// sched.notify_active(&mut table, a, ac);
/// sched.notify_active(&mut table, b, ac);
///
/// // Both stations backlogged: the scheduler picks one; charging a large
/// // airtime makes it yield to the other.
/// let first = sched.next_station(&mut table, ac, |_, _| true).unwrap();
/// sched.charge(&mut table, first, ac, Nanos::from_millis(4));
/// let second = sched.next_station(&mut table, ac, |_, _| true).unwrap();
/// assert_ne!(first, second);
/// ```
#[derive(Debug)]
pub struct AirtimeScheduler {
    params: AirtimeParams,
    /// Telemetry counters.
    pub stats: AirtimeStats,
}

impl AirtimeScheduler {
    /// Creates a scheduler with the given parameters.
    pub fn new(params: AirtimeParams) -> AirtimeScheduler {
        AirtimeScheduler {
            params,
            stats: AirtimeStats::default(),
        }
    }

    /// Registers a station in `table`, returning its handle.
    ///
    /// The station starts with one full quantum of deficit per QoS level
    /// (as ath9k initialises `airtime_deficit` at node attach), so a brand
    /// new station passes its first deficit check and the sparse-station
    /// priority is effective. Unlike flow deficits in the FQ structure,
    /// station deficits are *not* reset on re-activation: a station that
    /// used upstream airtime while absent from the scheduling lists keeps
    /// owing that airtime.
    pub fn register_station<C>(&mut self, table: &mut StationTable<C>, cold: C) -> StaId {
        let sta = table.alloc(cold);
        let q = self.params.quantum.as_nanos() as i64;
        for ac in 0..QOS_LEVELS {
            table.set_deficit(sta, ac, q);
        }
        sta
    }

    /// Removes a station mid-round, returning its cold payload. This is
    /// [`StationTable::free`] — the shared tombstone path: the station
    /// is unlinked from every QoS level's scheduling list (front-of-list
    /// rotation state and the other stations' deficits are untouched)
    /// and its slot is parked for LIFO reuse. The handle goes stale.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale or already removed.
    pub fn remove_station<C>(&mut self, table: &mut StationTable<C>, sta: StaId) -> C {
        table.free(sta)
    }

    /// The configured parameters.
    pub fn params(&self) -> AirtimeParams {
        self.params
    }

    /// The deficit replenishment for one scheduling round at `ac`:
    /// `quantum × weight / WEIGHT_NEUTRAL`, and at least one nanosecond
    /// so progress is guaranteed even for tiny weights.
    fn refill<C>(&self, table: &StationTable<C>, sta: StaId, ac: usize) -> i64 {
        let q = self.params.quantum.as_nanos() as i64;
        (q * table.ac_weight(sta, ac) as i64 / WEIGHT_NEUTRAL as i64).max(1)
    }

    /// Marks a station as having pending traffic at `ac`.
    ///
    /// Call on every enqueue. A station not currently on a scheduling list
    /// joins the *new* list (sparse priority); with the optimisation
    /// disabled it joins the old list directly.
    pub fn notify_active<C>(&mut self, table: &mut StationTable<C>, sta: StaId, ac: usize) {
        if table.membership(sta, ac) == Membership::Idle {
            if self.params.sparse_stations {
                table.enlist_new(sta, ac);
            } else {
                table.enlist_old(sta, ac);
            }
        }
    }

    /// Charges transmitted or received airtime against a station's deficit.
    ///
    /// Called at TX completion with the measured transmission duration
    /// (including retries), and at RX with the duration of received
    /// frames — charging RX is what lets the scheduler compensate for
    /// upstream traffic it cannot directly control (§4.1.2).
    pub fn charge<C>(
        &mut self,
        table: &mut StationTable<C>,
        sta: StaId,
        ac: usize,
        airtime: Nanos,
    ) {
        table.add_deficit(sta, ac, -(airtime.as_nanos() as i64));
        self.stats.charged += airtime;
    }

    /// Selects the next station to build an aggregate for, at QoS level
    /// `ac` — the body of Algorithm 3's loop.
    ///
    /// `has_data(table, station)` reports whether the station currently
    /// has queued packets at this level; the shared table reference lets
    /// the caller consult cold state (stashes, TID handles) without a
    /// second borrow. Stations that report empty are rotated out per the
    /// algorithm (new → old, old → removed).
    ///
    /// Returns `None` when no station has data. The returned station stays
    /// at the head of its list; it will keep being returned until its
    /// deficit is exhausted by [`charge`](Self::charge) or its queue
    /// empties — exactly the DRR behaviour of Algorithm 3.
    pub fn next_station<C, F>(
        &mut self,
        table: &mut StationTable<C>,
        ac: usize,
        mut has_data: F,
    ) -> Option<StaId>
    where
        F: FnMut(&StationTable<C>, StaId) -> bool,
    {
        assert!(ac < QOS_LEVELS, "QoS level out of range");
        loop {
            // Lines 3–8: prefer the new list.
            let (sta, from_new) = if let Some(sta) = table.new_front(ac) {
                (sta, true)
            } else if let Some(sta) = table.old_front(ac) {
                (sta, false)
            } else {
                return None;
            };

            // Lines 9–12: replenish an exhausted deficit and rotate.
            if table.deficit(sta, ac) <= 0 {
                let refill = self.refill(table, sta, ac);
                table.add_deficit(sta, ac, refill);
                if from_new {
                    table.demote_front_new(ac);
                } else {
                    table.rotate_front_old(ac);
                }
                continue;
            }

            // Lines 13–18: empty stations rotate out. A station emptying
            // from the new list is demoted to old rather than removed —
            // the same anti-gaming rule FQ-CoDel applies to sparse flows.
            if !has_data(table, sta) {
                if from_new {
                    table.demote_front_new(ac);
                } else {
                    table.retire_front_old(ac);
                }
                continue;
            }

            // Line 19: this station builds the next aggregate.
            self.stats.scheduled += 1;
            if from_new {
                self.stats.sparse_hits += 1;
            }
            return Some(sta);
        }
    }

    /// True if the station is on any scheduling list for `ac`.
    pub fn is_active<C>(&self, table: &StationTable<C>, sta: StaId, ac: usize) -> bool {
        table.membership(sta, ac) != Membership::Idle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BE: usize = 2;

    struct Bench {
        sched: AirtimeScheduler,
        table: StationTable<()>,
    }

    fn sched() -> Bench {
        Bench {
            sched: AirtimeScheduler::new(AirtimeParams::default()),
            table: StationTable::new(),
        }
    }

    impl Bench {
        fn register(&mut self) -> StaId {
            self.sched.register_station(&mut self.table, ())
        }
        fn notify(&mut self, sta: StaId, ac: usize) {
            self.sched.notify_active(&mut self.table, sta, ac);
        }
        fn next<F: FnMut(StaId) -> bool>(&mut self, ac: usize, mut f: F) -> Option<StaId> {
            self.sched.next_station(&mut self.table, ac, |_, s| f(s))
        }
        fn charge(&mut self, sta: StaId, ac: usize, t: Nanos) {
            self.sched.charge(&mut self.table, sta, ac, t);
        }
        fn active(&self, sta: StaId, ac: usize) -> bool {
            self.sched.is_active(&self.table, sta, ac)
        }
    }

    #[test]
    fn empty_scheduler_returns_none() {
        let mut s = sched();
        assert_eq!(s.next(BE, |_| true), None);
    }

    #[test]
    fn single_station_keeps_getting_scheduled() {
        let mut s = sched();
        let a = s.register();
        s.notify(a, BE);
        for _ in 0..10 {
            assert_eq!(s.next(BE, |_| true), Some(a));
            s.charge(a, BE, Nanos::from_micros(100));
        }
    }

    #[test]
    fn station_removed_when_empty() {
        let mut s = sched();
        let a = s.register();
        s.notify(a, BE);
        // First selection with data works; then the queue empties.
        assert_eq!(s.next(BE, |_| true), Some(a));
        assert_eq!(s.next(BE, |_| false), None);
        assert!(!s.active(a, BE));
        // Re-activation works.
        s.notify(a, BE);
        assert_eq!(s.next(BE, |_| true), Some(a));
    }

    /// Simulates `rounds` aggregate transmissions between stations whose
    /// aggregates cost different airtime, and returns total airtime per
    /// station. This is the anomaly scenario in miniature.
    fn run_airtime_drr(costs: &[Nanos], rounds: usize) -> Vec<Nanos> {
        let mut s = sched();
        let stations: Vec<_> = costs.iter().map(|_| s.register()).collect();
        for &st in &stations {
            s.notify(st, BE);
        }
        let mut airtime = vec![Nanos::ZERO; costs.len()];
        for _ in 0..rounds {
            let st = s.next(BE, |_| true).unwrap();
            let cost = costs[st.slot()];
            airtime[st.slot()] += cost;
            s.charge(st, BE, cost);
        }
        airtime
    }

    #[test]
    fn equal_airtime_despite_unequal_costs() {
        // A slow station whose aggregates cost 10× those of two fast
        // stations must still receive an equal share of airtime — the
        // paper's headline property (Figure 5, fourth column).
        let costs = [
            Nanos::from_micros(200),
            Nanos::from_micros(200),
            Nanos::from_micros(2_000),
        ];
        let airtime = run_airtime_drr(&costs, 3_000);
        let total: Nanos = airtime.iter().copied().sum();
        for (i, &a) in airtime.iter().enumerate() {
            let share = a.as_nanos() as f64 / total.as_nanos() as f64;
            assert!(
                (share - 1.0 / 3.0).abs() < 0.02,
                "station {i} share {share:.3}, airtime {airtime:?}"
            );
        }
    }

    #[test]
    fn throughput_fairness_is_not_enforced() {
        // Complementary check: with equal airtime, the slow station gets
        // proportionally fewer transmissions (no throughput fairness).
        let costs = [Nanos::from_micros(200), Nanos::from_micros(2_000)];
        let mut s = sched();
        let a = s.register();
        let b = s.register();
        s.notify(a, BE);
        s.notify(b, BE);
        let mut tx = [0u64; 2];
        for _ in 0..2_000 {
            let st = s.next(BE, |_| true).unwrap();
            tx[st.slot()] += 1;
            s.charge(st, BE, costs[st.slot()]);
        }
        let ratio = tx[0] as f64 / tx[1] as f64;
        assert!(
            (8.0..12.5).contains(&ratio),
            "fast/slow tx ratio {ratio}: {tx:?}"
        );
    }

    #[test]
    fn rx_charging_reduces_tx_share() {
        // Station B's upstream usage is charged via RX accounting; its
        // downstream share should shrink relative to A.
        let mut s = sched();
        let a = s.register();
        let b = s.register();
        s.notify(a, BE);
        s.notify(b, BE);
        let cost = Nanos::from_micros(500);
        let mut tx = [0u64; 2];
        for round in 0..2_000 {
            let st = s.next(BE, |_| true).unwrap();
            tx[st.slot()] += 1;
            s.charge(st, BE, cost);
            // Every other round, B also receives an upstream frame.
            if round % 2 == 0 {
                s.charge(b, BE, cost);
            }
        }
        // Equilibrium: each station is granted airtime at the same rate G.
        // A spends G on TX (tx_A = G/c); B spends on TX plus an RX charge
        // of c/2 per scheduler round: tx_B·c + (tx_A + tx_B)·c/2 = G.
        // Solving gives tx_A = 3·tx_B, i.e. B's share is 1/4.
        let share_b = tx[1] as f64 / (tx[0] + tx[1]) as f64;
        assert!((share_b - 0.25).abs() < 0.04, "B share {share_b}: {tx:?}");
    }

    #[test]
    fn sparse_station_jumps_queue() {
        let mut s = sched();
        let bulk1 = s.register();
        let bulk2 = s.register();
        s.notify(bulk1, BE);
        s.notify(bulk2, BE);
        // Push the bulk stations through enough rounds that they sit on
        // the old list with mid-round deficits.
        for _ in 0..50 {
            let st = s.next(BE, |_| true).unwrap();
            s.charge(st, BE, Nanos::from_micros(450));
        }
        // A sparse station becomes active: it must be picked next.
        let sparse = s.register();
        s.notify(sparse, BE);
        assert_eq!(s.next(BE, |_| true), Some(sparse));
    }

    #[test]
    fn sparse_priority_lasts_one_round_only() {
        let mut s = sched();
        let bulk = s.register();
        s.notify(bulk, BE);
        // Put bulk on the old list with a positive deficit: one
        // over-quantum charge rotates it there, then a small charge
        // leaves it at the head with 100 µs of deficit.
        let st = s.next(BE, |_| true).unwrap();
        s.charge(st, BE, Nanos::from_micros(400)); // deficit −100
        let st = s.next(BE, |_| true).unwrap(); // replenished, old
        s.charge(st, BE, Nanos::from_micros(100)); // deficit 100
        let sparse = s.register();
        s.notify(sparse, BE);
        // Sparse station gets its one round of priority...
        assert_eq!(s.next(BE, |_| true), Some(sparse));
        s.charge(sparse, BE, Nanos::from_micros(50));
        // ...then its queue empties: it is demoted to the old list, and
        // bulk (positive deficit) is served.
        let next = s.next(BE, |st| st == bulk).unwrap();
        assert_eq!(next, bulk);
        assert!(s.active(sparse, BE), "demoted to old, not removed");
        // Anti-gaming: a packet arriving while it sits on the old list
        // does NOT re-grant new-list priority — bulk stays at the head.
        s.notify(sparse, BE);
        assert_eq!(s.next(BE, |_| true), Some(bulk));
    }

    #[test]
    fn emptied_station_removed_only_after_old_list_pass() {
        let mut s = sched();
        let a = s.register();
        let b = s.register();
        s.notify(a, BE);
        s.notify(b, BE);
        // a reports empty (demoted to old), b has data and is picked.
        assert_eq!(s.next(BE, |st| st == b), Some(b));
        assert!(s.active(a, BE));
        // Next call: b (head of new) still has data; a never re-visited.
        assert_eq!(s.next(BE, |st| st == b), Some(b));
        // Exhaust b so the old list is scanned; a, still empty, is removed.
        s.charge(b, BE, Nanos::from_millis(10));
        assert_eq!(s.next(BE, |st| st == b), Some(b));
        assert!(!s.active(a, BE), "removed after old-list visit");
    }

    #[test]
    fn disabled_sparse_optimisation_gives_no_priority() {
        let mut s = Bench {
            sched: AirtimeScheduler::new(AirtimeParams {
                sparse_stations: false,
                ..AirtimeParams::default()
            }),
            table: StationTable::new(),
        };
        let bulk = s.register();
        s.notify(bulk, BE);
        // Leave bulk at the head of the old list with positive deficit.
        for _ in 0..2 {
            let st = s.next(BE, |_| true).unwrap();
            s.charge(st, BE, Nanos::from_micros(100));
        }
        let sparse = s.register();
        s.notify(sparse, BE);
        // Without the optimisation the new station joins the old list's
        // tail and must wait for bulk's quantum to finish.
        assert_eq!(s.next(BE, |_| true), Some(bulk));
        assert_eq!(s.sched.stats.sparse_hits, 0);
    }

    #[test]
    fn acs_are_independent() {
        let mut s = sched();
        let a = s.register();
        let b = s.register();
        s.notify(a, 0); // VO
        s.notify(b, BE);
        assert_eq!(s.next(0, |_| true), Some(a));
        assert_eq!(s.next(BE, |_| true), Some(b));
        // Charging VO does not affect the BE deficit (still the initial
        // quantum).
        let before = s.table.deficit(a, BE);
        s.charge(a, 0, Nanos::from_millis(10));
        assert_eq!(s.table.deficit(a, BE), before);
        assert!(s.table.deficit(a, 0) < 0);
    }

    #[test]
    fn deficit_recovers_at_quantum_per_round() {
        let mut s = sched();
        let a = s.register();
        let b = s.register();
        s.notify(a, BE);
        s.notify(b, BE);
        // A transmits a huge aggregate (3 ms); with a 300 µs quantum, B
        // should then get ~10 transmissions of 300 µs before A returns.
        let first = s.next(BE, |_| true).unwrap();
        s.charge(first, BE, Nanos::from_millis(3));
        let other = if first == a { b } else { a };
        let mut other_runs = 0;
        loop {
            let st = s.next(BE, |_| true).unwrap();
            if st == first {
                break;
            }
            assert_eq!(st, other);
            other_runs += 1;
            s.charge(st, BE, Nanos::from_micros(300));
            assert!(other_runs < 20, "first station never recovered");
        }
        assert!(
            (9..=11).contains(&other_runs),
            "expected ~10 catch-up rounds, got {other_runs}"
        );
    }

    #[test]
    fn weights_scale_airtime_shares() {
        // Weight 512 vs 256: the heavy station should get 2/3 of airtime.
        let mut s = sched();
        let a = s.register();
        let b = s.register();
        s.table.set_weight(a, 512);
        s.notify(a, BE);
        s.notify(b, BE);
        let mut airtime = [0u64; 2];
        for _ in 0..6_000 {
            let st = s.next(BE, |_| true).unwrap();
            // Unequal per-transmission costs, to show weights and the
            // anomaly-correction compose.
            let cost = if st == a { 700 } else { 300 };
            airtime[st.slot()] += cost;
            s.charge(st, BE, Nanos::from_micros(cost));
        }
        let share_a = airtime[0] as f64 / (airtime[0] + airtime[1]) as f64;
        assert!(
            (share_a - 2.0 / 3.0).abs() < 0.02,
            "weighted share {share_a:.3}, want 0.667"
        );
    }

    #[test]
    fn neutral_weight_is_default() {
        let mut s = sched();
        let a = s.register();
        for ac in 0..QOS_LEVELS {
            assert_eq!(s.table.ac_weight(a, ac), WEIGHT_NEUTRAL);
        }
        s.table.set_weight(a, 1024);
        assert_eq!(s.table.ac_weight(a, BE), 1024);
    }

    #[test]
    fn per_ac_weights_are_independent() {
        // VO weighted 4×, BE neutral: the VO share scales, BE does not.
        let mut s = sched();
        let a = s.register();
        let b = s.register();
        s.table.set_ac_weights(a, [1024, 256, 256, 256]);
        for ac in [0, BE] {
            s.notify(a, ac);
            s.notify(b, ac);
            let mut airtime = [0u64; 2];
            for _ in 0..8_000 {
                let st = s.next(ac, |_| true).unwrap();
                airtime[st.slot()] += 300;
                s.charge(st, ac, Nanos::from_micros(300));
            }
            let share_a = airtime[0] as f64 / (airtime[0] + airtime[1]) as f64;
            let want = if ac == 0 { 0.8 } else { 0.5 };
            assert!(
                (share_a - want).abs() < 0.02,
                "ac {ac} share {share_a:.3}, want {want}"
            );
        }
    }

    #[test]
    fn weight_change_preserves_deficits() {
        let mut s = sched();
        let a = s.register();
        let b = s.register();
        s.notify(a, BE);
        s.notify(b, BE);
        for _ in 0..7 {
            let st = s.next(BE, |_| true).unwrap();
            s.charge(st, BE, Nanos::from_micros(450));
        }
        let before: Vec<i64> = (0..QOS_LEVELS).map(|ac| s.table.deficit(b, ac)).collect();
        s.table.set_ac_weights(a, [512, 512, 512, 512]);
        let after: Vec<i64> = (0..QOS_LEVELS).map(|ac| s.table.deficit(b, ac)).collect();
        assert_eq!(before, after, "untouched station's deficits moved");
    }

    #[test]
    #[should_panic(expected = "weight must be positive")]
    fn zero_ac_weight_rejected() {
        let mut s = sched();
        let a = s.register();
        s.table.set_ac_weights(a, [256, 256, 0, 256]);
    }

    #[test]
    #[should_panic(expected = "weight must be positive")]
    fn zero_weight_rejected() {
        let mut s = sched();
        let a = s.register();
        s.table.set_weight(a, 0);
    }

    #[test]
    #[should_panic(expected = "QoS level out of range")]
    fn bad_ac_panics() {
        let mut s = sched();
        let a = s.register();
        s.notify(a, 4);
    }

    #[test]
    #[should_panic(expected = "stale station handle")]
    fn removed_station_handle_is_stale() {
        let mut s = sched();
        let a = s.register();
        s.sched.remove_station(&mut s.table, a);
        s.notify(a, BE);
    }

    // ---- reference implementation (pre-SoA), the oracle's other side ----

    use std::collections::VecDeque;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum RefMembership {
        Idle,
        New,
        Old,
    }

    #[derive(Debug, Clone)]
    struct RefStationState {
        deficit: [i64; QOS_LEVELS],
        membership: [RefMembership; QOS_LEVELS],
        weights: [u32; QOS_LEVELS],
        registered: bool,
    }

    #[derive(Debug, Default)]
    struct RefAcLists {
        new_stations: VecDeque<usize>,
        old_stations: VecDeque<usize>,
    }

    /// The pre-SoA scheduler: per-station structs in a `Vec`, `VecDeque`
    /// scheduling lists, non-generational handles. Kept verbatim as the
    /// behavioural oracle for [`AirtimeScheduler`] — the proptest below
    /// drives both through interleaved churn/weight/round schedules and
    /// asserts identical decisions.
    #[derive(Debug)]
    struct ReferenceScheduler {
        params: AirtimeParams,
        stations: Vec<RefStationState>,
        acs: [RefAcLists; QOS_LEVELS],
        free_stations: Vec<usize>,
        stats: AirtimeStats,
    }

    /// A station registered with [`ReferenceScheduler`]: a raw slot index
    /// with no generation.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct StationHandle(usize);

    impl ReferenceScheduler {
        fn new(params: AirtimeParams) -> ReferenceScheduler {
            ReferenceScheduler {
                params,
                stations: Vec::new(),
                acs: Default::default(),
                free_stations: Vec::new(),
                stats: AirtimeStats::default(),
            }
        }

        fn register_station(&mut self) -> StationHandle {
            let q = self.params.quantum.as_nanos() as i64;
            let fresh = RefStationState {
                deficit: [q; QOS_LEVELS],
                membership: [RefMembership::Idle; QOS_LEVELS],
                weights: [WEIGHT_NEUTRAL; QOS_LEVELS],
                registered: true,
            };
            if let Some(idx) = self.free_stations.pop() {
                self.stations[idx] = fresh;
                return StationHandle(idx);
            }
            let idx = self.stations.len();
            self.stations.push(fresh);
            StationHandle(idx)
        }

        fn remove_station(&mut self, sta: StationHandle) {
            let si = sta.0;
            assert!(
                self.stations.get(si).is_some_and(|s| s.registered),
                "removing unregistered station"
            );
            for ac in 0..QOS_LEVELS {
                if self.stations[si].membership[ac] != RefMembership::Idle {
                    self.acs[ac].new_stations.retain(|&x| x != si);
                    self.acs[ac].old_stations.retain(|&x| x != si);
                    self.stations[si].membership[ac] = RefMembership::Idle;
                }
            }
            self.stations[si].registered = false;
            self.free_stations.push(si);
        }

        fn set_ac_weights(&mut self, sta: StationHandle, weights: [u32; QOS_LEVELS]) {
            assert!(
                weights.iter().all(|&w| w > 0),
                "airtime weight must be positive"
            );
            self.stations[sta.0].weights = weights;
        }

        fn refill(&self, si: usize, ac: usize) -> i64 {
            let q = self.params.quantum.as_nanos() as i64;
            (q * self.stations[si].weights[ac] as i64 / WEIGHT_NEUTRAL as i64).max(1)
        }

        fn deficit(&self, sta: StationHandle, ac: usize) -> i64 {
            self.stations[sta.0].deficit[ac]
        }

        fn notify_active(&mut self, sta: StationHandle, ac: usize) {
            assert!(ac < QOS_LEVELS, "QoS level out of range");
            let st = &mut self.stations[sta.0];
            assert!(st.registered, "removed station handle");
            if st.membership[ac] == RefMembership::Idle {
                if self.params.sparse_stations {
                    st.membership[ac] = RefMembership::New;
                    self.acs[ac].new_stations.push_back(sta.0);
                } else {
                    st.membership[ac] = RefMembership::Old;
                    self.acs[ac].old_stations.push_back(sta.0);
                }
            }
        }

        fn charge(&mut self, sta: StationHandle, ac: usize, airtime: Nanos) {
            assert!(ac < QOS_LEVELS, "QoS level out of range");
            assert!(self.stations[sta.0].registered, "removed station handle");
            self.stations[sta.0].deficit[ac] -= airtime.as_nanos() as i64;
            self.stats.charged += airtime;
        }

        fn next_station<F>(&mut self, ac: usize, mut has_data: F) -> Option<StationHandle>
        where
            F: FnMut(StationHandle) -> bool,
        {
            assert!(ac < QOS_LEVELS, "QoS level out of range");
            loop {
                let (si, from_new) = {
                    let lists = &self.acs[ac];
                    if let Some(&si) = lists.new_stations.front() {
                        (si, true)
                    } else if let Some(&si) = lists.old_stations.front() {
                        (si, false)
                    } else {
                        return None;
                    }
                };

                if self.stations[si].deficit[ac] <= 0 {
                    self.stations[si].deficit[ac] += self.refill(si, ac);
                    let lists = &mut self.acs[ac];
                    if from_new {
                        lists.new_stations.pop_front();
                    } else {
                        lists.old_stations.pop_front();
                    }
                    lists.old_stations.push_back(si);
                    self.stations[si].membership[ac] = RefMembership::Old;
                    continue;
                }

                if !has_data(StationHandle(si)) {
                    let lists = &mut self.acs[ac];
                    if from_new {
                        lists.new_stations.pop_front();
                        lists.old_stations.push_back(si);
                        self.stations[si].membership[ac] = RefMembership::Old;
                    } else {
                        lists.old_stations.pop_front();
                        self.stations[si].membership[ac] = RefMembership::Idle;
                    }
                    continue;
                }

                self.stats.scheduled += 1;
                if from_new {
                    self.stats.sparse_hits += 1;
                }
                return Some(StationHandle(si));
            }
        }

        fn is_active(&self, sta: StationHandle, ac: usize) -> bool {
            self.stations[sta.0].membership[ac] != RefMembership::Idle
        }
    }

    // ---- oracle proptest: SoA scheduler vs the reference ----

    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum OracleOp {
        /// Register a station (both sides must assign the same slot).
        Add,
        /// Remove the k-th live station.
        Remove { k: usize },
        /// Mark the k-th live station active.
        Notify { k: usize, ac: usize },
        /// One scheduling round; `data_mask` seeds the has_data answers.
        Round {
            ac: usize,
            cost_us: u64,
            data_mask: u64,
        },
        /// Charge upstream airtime to the k-th live station.
        ChargeRx { k: usize, ac: usize, cost_us: u64 },
        /// Apply a policy-style per-AC reweight to the k-th live station.
        Reweight { k: usize, w: [u32; QOS_LEVELS] },
    }

    fn oracle_op() -> impl Strategy<Value = OracleOp> {
        // The vendored `prop_oneof!` is uniform; weight the hot arms
        // (rounds, activations) by duplicating them via these helpers.
        fn round() -> impl Strategy<Value = OracleOp> {
            (0..QOS_LEVELS, 1u64..2_000, 0u64..).prop_map(|(ac, cost_us, data_mask)| {
                OracleOp::Round {
                    ac,
                    cost_us,
                    data_mask,
                }
            })
        }
        fn notify() -> impl Strategy<Value = OracleOp> {
            (0usize.., 0..QOS_LEVELS).prop_map(|(k, ac)| OracleOp::Notify { k, ac })
        }
        fn charge() -> impl Strategy<Value = OracleOp> {
            (0usize.., 0..QOS_LEVELS, 1u64..2_000).prop_map(|(k, ac, cost_us)| OracleOp::ChargeRx {
                k,
                ac,
                cost_us,
            })
        }
        prop_oneof![
            Just(OracleOp::Add),
            Just(OracleOp::Add),
            (0usize..).prop_map(|k| OracleOp::Remove { k }),
            notify(),
            notify(),
            notify(),
            round(),
            round(),
            round(),
            round(),
            round(),
            round(),
            charge(),
            charge(),
            (
                0usize..,
                (1u32..2_048, 1u32..2_048, 1u32..2_048, 1u32..2_048)
            )
                .prop_map(|(k, (a, b, c, d))| OracleOp::Reweight { k, w: [a, b, c, d] }),
        ]
    }

    proptest! {
        /// The SoA scheduler and the retained pre-SoA reference make
        /// identical decisions — same slots selected, same deficits, same
        /// list membership, same stats — through interleaved churn,
        /// activation, weight-switch and scheduling-round schedules.
        #[test]
        fn soa_matches_reference_scheduler(
            ops in proptest::collection::vec(oracle_op(), 1..400)
        ) {
            let mut new_sched = AirtimeScheduler::new(AirtimeParams::default());
            let mut table = StationTable::<()>::new();
            let mut reference = ReferenceScheduler::new(AirtimeParams::default());
            // Live handles, same insertion order on both sides.
            let mut live: Vec<(StaId, StationHandle)> = Vec::new();

            for op in ops {
                match op {
                    OracleOp::Add => {
                        let id = new_sched.register_station(&mut table, ());
                        let h = reference.register_station();
                        prop_assert_eq!(id.slot(), h.0, "slot allocators diverged");
                        live.push((id, h));
                    }
                    OracleOp::Remove { k } => {
                        if !live.is_empty() {
                            let (id, h) = live.swap_remove(k % live.len());
                            new_sched.remove_station(&mut table, id);
                            reference.remove_station(h);
                        }
                    }
                    OracleOp::Notify { k, ac } => {
                        if !live.is_empty() {
                            let (id, h) = live[k % live.len()];
                            new_sched.notify_active(&mut table, id, ac);
                            reference.notify_active(h, ac);
                        }
                    }
                    OracleOp::Round { ac, cost_us, data_mask } => {
                        let picked = new_sched.next_station(&mut table, ac, |_, s| {
                            data_mask >> (s.slot() % 64) & 1 == 1
                        });
                        let ref_picked = reference.next_station(ac, |s| {
                            data_mask >> (s.0 % 64) & 1 == 1
                        });
                        prop_assert_eq!(
                            picked.map(|s| s.slot()),
                            ref_picked.map(|s| s.0),
                            "round decision diverged"
                        );
                        if let (Some(id), Some(h)) = (picked, ref_picked) {
                            new_sched.charge(&mut table, id, ac, Nanos::from_micros(cost_us));
                            reference.charge(h, ac, Nanos::from_micros(cost_us));
                        }
                    }
                    OracleOp::ChargeRx { k, ac, cost_us } => {
                        if !live.is_empty() {
                            let (id, h) = live[k % live.len()];
                            new_sched.charge(&mut table, id, ac, Nanos::from_micros(cost_us));
                            reference.charge(h, ac, Nanos::from_micros(cost_us));
                        }
                    }
                    OracleOp::Reweight { k, w } => {
                        if !live.is_empty() {
                            let (id, h) = live[k % live.len()];
                            table.set_ac_weights(id, w);
                            reference.set_ac_weights(h, w);
                        }
                    }
                }
                // Full state agreement after every op.
                for &(id, h) in &live {
                    for ac in 0..QOS_LEVELS {
                        prop_assert_eq!(table.deficit(id, ac), reference.deficit(h, ac));
                        prop_assert_eq!(table.ac_weight(id, ac), reference.stations[h.0].weights[ac]);
                        prop_assert_eq!(
                            new_sched.is_active(&table, id, ac),
                            reference.is_active(h, ac)
                        );
                    }
                }
                for ac in 0..QOS_LEVELS {
                    table.check_lists(ac);
                }
            }
            prop_assert_eq!(new_sched.stats.scheduled, reference.stats.scheduled);
            prop_assert_eq!(new_sched.stats.sparse_hits, reference.stats.sparse_hits);
            prop_assert_eq!(new_sched.stats.charged, reference.stats.charged);
        }
    }
}
