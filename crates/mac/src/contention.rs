//! Medium arbitration: who contends for the idle medium, and who wins.
//!
//! CSMA/CA is simulated at contention-round granularity: whenever the
//! medium goes idle, every node with a ready transmission draws a backoff
//! uniformly from its current contention window; the node whose
//! `AIFS + slots × slot_time` is smallest transmits, and ties collide
//! (all tied transmissions fail and the losers double their windows).
//!
//! Every contender draws afresh each round; nothing is carried over. That
//! is not standard DCF, whose counters freeze while the medium is busy.
//! Against a slot-stepped DCF reference (`tests/dcf_reference.rs`) this
//! model's collision probability is 7–22 % lower for 2–50 saturated
//! stations. Frozen counters were built and measured, and withdrawn: with
//! 512 uplink contenders they carry ~30 % less (DESIGN.md §14 "Redrawn,
//! not frozen").
//!
//! A round is sequential, like the medium it models (DESIGN.md §14):
//! [`ContenderSet::refresh`] re-evaluates the stations whose uplink state
//! changed since the last round, and [`ContenderSet::round`] draws every
//! backoff from the network's main RNG — all through
//! [`ContenderSet::wait`], the one place a backoff is drawn — and picks
//! the winners. `WifiNetwork::try_contend` owns that RNG, the AP's
//! hardware queues and the in-flight list, and glues the two together.

use wifiq_phy::consts::{SIFS, SLOT_TIME};
use wifiq_phy::AccessCategory;
use wifiq_sim::{Nanos, SimRng};

use crate::occupancy::Occupancy;
use crate::packet::{StationIdx, Ticket};
use crate::station::StationUplink;

/// One transmitter of the exchange on the air.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Participant {
    Ap { ac: AccessCategory },
    Station { idx: StationIdx, ac: AccessCategory },
}

/// The cached contender set (DESIGN.md §14): which station slots want the
/// medium, and with which access category and contention window, as of
/// each slot's last evaluation.
///
/// `StationUplink::best_ready_ac` is idempotent between mutations of its
/// station, so its answer is cached here and recomputed only for slots
/// marked dirty. A contention round then reads one packed word per
/// contender instead of walking every ready station's uplink.
pub(crate) struct ContenderSet {
    /// One bit per slot: the station's uplink state changed since it was
    /// last evaluated.
    dirty: Vec<u64>,
    /// Whether any `dirty` bit is set, so a clean round reads no words.
    any_dirty: bool,
    /// One bit per slot: the station holds a built aggregate and
    /// contends, as of its last evaluation.
    contending: Vec<u64>,
    /// Number of bits set in `contending`.
    count: usize,
    /// Per slot, valid where `contending` is set: `cw << 2 | ac index` of
    /// the aggregate the station contends with. One block per bitmap word.
    params: Vec<[u32; 64]>,
}

impl ContenderSet {
    pub(crate) fn new(slots: usize) -> ContenderSet {
        ContenderSet {
            dirty: vec![0; slots.div_ceil(64)],
            any_dirty: false,
            contending: vec![0; slots.div_ceil(64)],
            count: 0,
            params: vec![[0; 64]; slots.div_ceil(64)],
        }
    }

    /// Makes room for `slot`, one more at the end of the roster.
    pub(crate) fn push_slot(&mut self, slot: StationIdx) {
        if slot == self.dirty.len() * 64 {
            self.dirty.push(0);
            self.contending.push(0);
            self.params.push([0; 64]);
        }
    }

    /// The station in `slot` must be re-evaluated before the next round.
    pub(crate) fn mark_dirty(&mut self, slot: StationIdx) {
        self.dirty[slot / 64] |= 1u64 << (slot % 64);
        self.any_dirty = true;
    }

    /// Takes `slot` out of contention and drops any pending
    /// re-evaluation: its station left, or the slot hosts a fresh uplink.
    pub(crate) fn forget(&mut self, slot: StationIdx) {
        let (w, mask) = (slot / 64, 1u64 << (slot % 64));
        self.dirty[w] &= !mask;
        if self.contending[w] & mask != 0 {
            self.contending[w] &= !mask;
            self.count -= 1;
        }
    }

    /// Phase A of a contention round: re-evaluates every slot marked
    /// dirty — asks the station for its best ready access category
    /// (building its aggregate if one is due) and caches the answer with
    /// the contention window that goes with it. A departed station
    /// awaiting its deferred teardown is not asked: it left contention
    /// when it was removed. A round with nothing dirty reads no per-slot
    /// and no per-word state. What an FQ uplink's CoDel drops while
    /// building goes to `on_drop`.
    pub(crate) fn refresh(
        &mut self,
        stations: &mut [StationUplink],
        active: &Occupancy,
        now: Nanos,
        mut on_drop: impl FnMut(Ticket),
    ) {
        if !std::mem::take(&mut self.any_dirty) {
            return;
        }
        for (w, word) in self.dirty.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let i = w * 64 + bit;
                let ready = if active.contains(i) {
                    stations[i].best_ready_ac(now, &mut on_drop)
                } else {
                    None
                };
                if let Some(ac) = ready {
                    self.params[w][bit] = ContenderSet::pack(ac, stations[i].cw[ac.index()]);
                }
                let mask = 1u64 << bit;
                let was = self.contending[w] & mask != 0;
                if ready.is_some() != was {
                    self.contending[w] ^= mask;
                    if was {
                        self.count -= 1;
                    } else {
                        self.count += 1;
                    }
                }
            }
        }
    }

    /// The backoff rule, and the one place a backoff is drawn: a
    /// transmitter contending with `params` (`cw << 2 | ac`) waits its
    /// category's AIFSN plus a uniform draw from `[0, cw]` idle slots past
    /// SIFS. Returns that wait in slots. Another rule — frozen counters,
    /// or the ECA and EIED backoffs of the parked contention-window
    /// comparison — replaces this function and what it is passed.
    #[inline(always)]
    fn wait(rng: &mut SimRng, aifsn: &[u32; AccessCategory::COUNT], params: u32) -> u32 {
        aifsn[(params & 3) as usize] + rng.backoff_slots(params >> 2)
    }

    /// Phase B: every transmitter draws its wait from `rng` — the AP first
    /// when it contends with `ap` (its access category and window), then
    /// the stations in ascending slot order — and the shortest wait
    /// transmits. A wait shorter than the shortest so far restarts the tie
    /// list in `in_flight`, an equal one joins it, so the winners end up
    /// in draw order (AP, then ascending slot). Returns how long the medium
    /// stays idle before they transmit, or `None` if nobody contends.
    ///
    /// The draws run on [`SimRng::in_registers`]: through `&mut SimRng`
    /// every draw would load and store the generator's four state words.
    pub(crate) fn round(
        &self,
        rng: &mut SimRng,
        ap: Option<(AccessCategory, u32)>,
        in_flight: &mut Vec<Participant>,
    ) -> Option<Nanos> {
        let aifsn = AccessCategory::ALL.map(|ac| ac.edca().aifsn);
        let shortest = rng.in_registers(|rng| {
            let mut shortest = u32::MAX;
            if let Some((ac, cw)) = ap {
                shortest = ContenderSet::wait(rng, &aifsn, ContenderSet::pack(ac, cw));
                in_flight.push(Participant::Ap { ac });
            }
            // `left` bounds the walk: no word is read once every contender
            // has drawn, and none at all when nobody contends.
            let mut left = self.count;
            let blocks = self.contending.iter().zip(&self.params).enumerate();
            for (w, (&word, block)) in blocks {
                if left == 0 {
                    break;
                }
                left -= word.count_ones() as usize;
                let mut bits = word;
                while bits != 0 {
                    // `% 64` spares the block index its bounds check.
                    let bit = bits.trailing_zeros() as usize % 64;
                    bits &= bits - 1;
                    let wait = ContenderSet::wait(rng, &aifsn, block[bit]);
                    if wait <= shortest {
                        if wait < shortest {
                            shortest = wait;
                            in_flight.clear();
                        }
                        let ac = AccessCategory::ALL[(block[bit] & 3) as usize];
                        in_flight.push(Participant::Station {
                            idx: w * 64 + bit,
                            ac,
                        });
                    }
                }
            }
            shortest
        });
        (shortest != u32::MAX).then(|| SIFS + SLOT_TIME * shortest as u64)
    }

    fn pack(ac: AccessCategory, cw: u32) -> u32 {
        debug_assert!(cw < 1 << 30, "contention window {cw} does not pack");
        cw << 2 | ac.index() as u32
    }

    /// The consistency check behind the cache: re-evaluates slots from
    /// scratch — the full scan every round used to be — and compares with
    /// what is cached. `None` audits every slot and the contender count,
    /// `Some(n)` the 64 slots of bitmap word `n` modulo the word count. On
    /// a sound cache the re-evaluation builds nothing, draws nothing and
    /// drops nothing; on an unsound one, `on_drop` takes what it dropped.
    pub(crate) fn audit(
        &self,
        stations: &mut [StationUplink],
        active: &Occupancy,
        word: Option<usize>,
        now: Nanos,
        mut on_drop: impl FnMut(Ticket),
    ) -> Result<(), String> {
        let len = self.dirty.len();
        let words = match word {
            Some(n) if len > 0 => n % len..n % len + 1,
            _ => 0..len,
        };
        if self.any_dirty || self.dirty[words.clone()].iter().any(|&w| w != 0) {
            return Err("dirty slots left after the refresh".into());
        }
        if word.is_none() {
            let bits: usize = self
                .contending
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum();
            if bits != self.count {
                return Err(format!("{bits} contending bits, count {}", self.count));
            }
        }
        for i in words.start * 64..(words.end * 64).min(stations.len()) {
            let cached =
                (self.contending[i / 64] >> (i % 64) & 1 != 0).then(|| self.params[i / 64][i % 64]);
            let fresh = match active.contains(i) {
                true => stations[i].best_ready_ac(now, &mut on_drop),
                false => None,
            }
            .map(|ac| ContenderSet::pack(ac, stations[i].cw[ac.index()]));
            if cached != fresh {
                return Err(format!(
                    "slot {i}: cached {cached:?}, re-evaluated {fresh:?} (cw << 2 | ac)"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{NodeAddr, Packet};

    /// Tickets the uplinks drop, unfreed: no store here.
    fn ignore(_: Ticket) {}

    #[test]
    fn audit_catches_a_missed_dirty_mark() {
        let mut stations: Vec<StationUplink> = (0..3)
            .map(|i| StationUplink::new(i, wifiq_phy::PhyRate::fast_station(), 1000))
            .collect();
        let active = Occupancy::full(3);
        let mut set = ContenderSet::new(3);
        let now = Nanos::ZERO;
        assert_eq!(set.audit(&mut stations, &active, None, now, ignore), Ok(()));
        // An enqueue nobody marked leaves the cache saying "idle" about a
        // station that would now build an aggregate.
        let pkt = Packet {
            id: 0,
            src: NodeAddr::Station(1),
            dst: NodeAddr::Server,
            flow: 1,
            len: 700,
            ac: AccessCategory::Be,
            created: now,
            enqueued: now,
            payload: (),
        };
        stations[1].enqueue(pkt.loose_ticket(), ignore);
        let err = set
            .audit(&mut stations, &active, None, now, ignore)
            .unwrap_err();
        assert!(err.starts_with("slot 1: cached None"), "{err}");
        // Word audits wrap around the bitmap.
        assert!(set
            .audit(&mut stations, &active, Some(7), now, ignore)
            .is_err());
        // The mark the enqueue owed puts the station into contention.
        set.mark_dirty(1);
        set.refresh(&mut stations, &active, now, ignore);
        assert_eq!(set.audit(&mut stations, &active, None, now, ignore), Ok(()));
        assert_eq!(set.count, 1);
    }

    #[test]
    fn audit_catches_a_contender_left_behind() {
        let mut stations: Vec<StationUplink> = (0..3)
            .map(|i| StationUplink::new(i, wifiq_phy::PhyRate::fast_station(), 1000))
            .collect();
        let mut active = Occupancy::full(3);
        let mut set = ContenderSet::new(3);
        let now = Nanos::ZERO;
        // Slot 2 contends as far as the cache knows, but its station holds
        // nothing: a departure that skipped `forget`.
        set.contending[0] |= 1 << 2;
        set.count += 1;
        let err = set
            .audit(&mut stations, &active, Some(0), now, ignore)
            .unwrap_err();
        assert!(err.starts_with("slot 2: cached Some"), "{err}");
        // `forget` takes it out; the station is gone.
        active.remove(2);
        set.forget(2);
        assert_eq!(set.audit(&mut stations, &active, None, now, ignore), Ok(()));
        // A count that drifted from the bitmap.
        set.count += 1;
        let err = set
            .audit(&mut stations, &active, None, now, ignore)
            .unwrap_err();
        assert_eq!(err, "0 contending bits, count 1");
    }

    /// Draws the round the plain way — every contender's full transmit
    /// time, AP first, then ascending slot; an earlier time restarts the
    /// tie list, an equal one joins it — from its own `gen_range_u64` calls.
    fn fold(
        set: &ContenderSet,
        rng: &mut SimRng,
        ap: Option<(AccessCategory, u32)>,
    ) -> Option<(Nanos, Vec<Participant>)> {
        let contenders = (0..set.contending.len() * 64)
            .filter(|&i| set.contending[i / 64] >> (i % 64) & 1 != 0)
            .map(|i| {
                let packed = set.params[i / 64][i % 64];
                let ac = AccessCategory::ALL[(packed & 3) as usize];
                (Participant::Station { idx: i, ac }, ac, packed >> 2)
            });
        let ap = ap.map(|(ac, cw)| (Participant::Ap { ac }, ac, cw));
        let mut best: Option<(Nanos, Vec<Participant>)> = None;
        for (p, ac, cw) in ap.into_iter().chain(contenders) {
            let slots = rng.gen_range_u64(0, cw as u64 + 1);
            let t = ac.edca().aifs() + SLOT_TIME * slots;
            match &mut best {
                Some((t_min, tied)) if t == *t_min => tied.push(p),
                Some((t_min, _)) if t > *t_min => {}
                _ => best = Some((t, vec![p])),
            }
        }
        best
    }

    #[test]
    fn round_draws_what_a_plain_fold_draws() {
        let mut pick = SimRng::new(7);
        for case in 0..200 {
            let slots = 1 + pick.index(300);
            let mut set = ContenderSet::new(slots);
            for i in 0..slots {
                if !pick.chance(0.5) {
                    continue;
                }
                let ac = AccessCategory::ALL[pick.index(4)];
                let cw = [0, 1, 3, 7, 15, 31, 1023][pick.index(7)];
                set.params[i / 64][i % 64] = ContenderSet::pack(ac, cw);
                set.contending[i / 64] |= 1 << (i % 64);
                set.count += 1;
            }
            let ap = pick.chance(0.5).then(|| {
                (
                    AccessCategory::ALL[pick.index(4)],
                    [3, 15, 63][pick.index(3)],
                )
            });
            let (mut a, mut b) = (SimRng::new(case), SimRng::new(case));
            let mut in_flight = Vec::new();
            let wait = set.round(&mut a, ap, &mut in_flight);
            let plain = fold(&set, &mut b, ap);
            assert_eq!(
                wait.map(|w| (w, in_flight)),
                plain,
                "case {case}: {} contenders, AP {ap:?}",
                set.count
            );
            assert_eq!(a.gen_f64(), b.gen_f64(), "case {case}: streams diverged");
        }
    }
}
