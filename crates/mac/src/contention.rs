//! Medium arbitration: who contends for the idle medium, and who wins.
//!
//! CSMA/CA is simulated at contention-round granularity: whenever the
//! medium goes idle, every node with a ready transmission draws a backoff
//! uniformly from its current contention window; the node whose
//! `AIFS + slots × slot_time` is smallest transmits, and ties collide
//! (all tied transmissions fail and the losers double their windows).
//! Backoff counters are redrawn each round rather than frozen — a common,
//! well-behaved simplification that preserves long-run access fairness
//! (every contender with the same CW has the same win probability each
//! round).
//!
//! A round is sequential, like the medium it models (DESIGN.md §14):
//! [`ContenderSet::refresh`] re-evaluates the stations whose uplink state
//! changed since the last round, [`ContenderSet::draw`] draws every
//! backoff from the network's main RNG. `WifiNetwork::try_contend` owns
//! that RNG, the AP's hardware queues and the in-flight list, and glues
//! the two together.

use wifiq_phy::consts::SLOT_TIME;
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
    /// the aggregate the station contends with.
    params: Vec<u32>,
}

impl ContenderSet {
    pub(crate) fn new(slots: usize) -> ContenderSet {
        ContenderSet {
            dirty: vec![0; slots.div_ceil(64)],
            any_dirty: false,
            contending: vec![0; slots.div_ceil(64)],
            count: 0,
            params: vec![0; slots],
        }
    }

    /// Makes room for one more slot at the end of the roster.
    pub(crate) fn push_slot(&mut self) {
        self.params.push(0);
        if self.params.len() > self.dirty.len() * 64 {
            self.dirty.push(0);
            self.contending.push(0);
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
                    self.params[i] = ContenderSet::pack(ac, stations[i].cw[ac.index()]);
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

    /// Phase B over the stations: every contender, in ascending slot
    /// order, draws a backoff from `rng` for the access category and
    /// window cached at its last evaluation. A transmit time earlier than
    /// `t_min` restarts the tie list in `in_flight`, an equal one joins
    /// it. Returns the earliest transmit time seen (`t_min` if none beat
    /// it).
    ///
    /// A function of its own so that `rng` is known not to alias anything
    /// else the loop touches and its state stays in registers.
    pub(crate) fn draw(
        &self,
        rng: &mut SimRng,
        aifs: &[Nanos; AccessCategory::COUNT],
        mut t_min: Nanos,
        in_flight: &mut Vec<Participant>,
    ) -> Nanos {
        // `count` bounds the walk: no word is read once every contender
        // has drawn, and none at all when nobody contends.
        let mut left = self.count;
        let mut words = self.contending.iter().enumerate();
        while left > 0 {
            let (w, &word) = words.next().expect("count exceeds the contending bits");
            left -= word.count_ones() as usize;
            let mut bits = word;
            while bits != 0 {
                let idx = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let packed = self.params[idx];
                let aci = (packed & 3) as usize;
                let t = aifs[aci] + SLOT_TIME * rng.backoff_slots(packed >> 2) as u64;
                if t <= t_min {
                    if t < t_min {
                        t_min = t;
                        in_flight.clear();
                    }
                    in_flight.push(Participant::Station {
                        idx,
                        ac: AccessCategory::ALL[aci],
                    });
                }
            }
        }
        t_min
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
            let cached = (self.contending[i / 64] >> (i % 64) & 1 != 0).then(|| self.params[i]);
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
}
