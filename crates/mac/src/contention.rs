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
//! model's collision probability is 9–23 % lower for 2–50 saturated
//! stations. Frozen counters were built and measured, and withdrawn: with
//! 512 uplink contenders they carry ~30 % less (DESIGN.md §14 "Redrawn,
//! not frozen").
//!
//! Because a loser keeps nothing, a round is fully described by its
//! shortest wait and by who ties at it, and those are drawn per *class* —
//! the contenders sharing one access category and window — from order
//! statistics: one draw for the class minimum, and for the classes at the
//! shortest wait one draw of how many tied there and a uniform pick of
//! which. A round costs O(classes + winners), not O(contenders), and is
//! exact in distribution.
//!
//! A round is sequential, like the medium it models (DESIGN.md §14):
//! [`ContenderSet::refresh`] re-evaluates the stations whose uplink state
//! changed since the last round, and [`ContenderSet::round`] draws every
//! class minimum, and each tie count, from the network's main RNG — all
//! through [`ContenderSet::wait`], the one place a backoff is drawn — and
//! picks the winners. `WifiNetwork::try_contend` owns that RNG, the AP's
//! hardware queues and the in-flight list, and glues the two together.

use wifiq_phy::consts::{SIFS, SLOT_TIME};
use wifiq_phy::AccessCategory;
use wifiq_sim::{Nanos, SimRng};

use crate::occupancy::Occupancy;
use crate::packet::{StationIdx, Ticket};
use crate::station::StationUplink;

/// Window exponents 0..=30 (`cw < 2^30` packs) times four categories.
const CLASSES: usize = 31 * AccessCategory::COUNT;

/// One transmitter of the exchange on the air.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Participant {
    Ap { ac: AccessCategory },
    Station { idx: StationIdx, ac: AccessCategory },
}

/// The contenders that share one packed `cw << 2 | ac`.
struct Class {
    /// `cw << 2 | ac`, with `cw + 1` a power of two: 802.11 encodes
    /// windows by that exponent, and binary exponential backoff keeps it.
    params: u32,
    /// Member slots, in no particular order: a leaver is swap-removed.
    members: Vec<StationIdx>,
}

/// What [`ContenderSet::wait`] draws of a class's waits.
#[derive(Clone, Copy)]
enum Draw {
    /// The shortest, if it is at most this many slots.
    Shortest { at_most: u32 },
    /// How many of them are this many slots, given that it is the
    /// shortest.
    Tied { wait: u32 },
}

/// The cached contender set (DESIGN.md §14): which station slots want the
/// medium, and with which access category and contention window, as of
/// each slot's last evaluation.
///
/// `StationUplink::best_ready_ac` is idempotent between mutations of its
/// station, so its answer is cached here and recomputed only for slots
/// marked dirty. The contenders are also kept grouped by that answer, one
/// [`Class`] per packed value, so a round draws per class, not per slot.
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
    /// Per slot, valid where `contending` is set: its index in its
    /// class's `members`.
    pos: Vec<u32>,
    /// One class per window exponent and access category, at
    /// [`ContenderSet::class_of`] — so by ascending `params`, the order a
    /// round visits them in.
    classes: Vec<Class>,
    /// One bit per class that has members.
    occupied: u128,
}

impl ContenderSet {
    pub(crate) fn new(slots: usize) -> ContenderSet {
        ContenderSet {
            dirty: vec![0; slots.div_ceil(64)],
            any_dirty: false,
            contending: vec![0; slots.div_ceil(64)],
            count: 0,
            params: vec![[0; 64]; slots.div_ceil(64)],
            pos: vec![0; slots.div_ceil(64) * 64],
            classes: (0..CLASSES)
                .map(|c| Class {
                    params: ContenderSet::pack(AccessCategory::ALL[c % 4], (1 << (c / 4)) - 1),
                    members: Vec::new(),
                })
                .collect(),
            occupied: 0,
        }
    }

    /// Makes room for `slot`, one more at the end of the roster.
    pub(crate) fn push_slot(&mut self, slot: StationIdx) {
        if slot == self.dirty.len() * 64 {
            self.dirty.push(0);
            self.contending.push(0);
            self.params.push([0; 64]);
            self.pos.resize(self.pos.len() + 64, 0);
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
        self.dirty[slot / 64] &= !(1u64 << (slot % 64));
        self.place(slot, None);
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
        for w in 0..self.dirty.len() {
            let mut bits = std::mem::take(&mut self.dirty[w]);
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let ready = match active.contains(i) {
                    true => stations[i].best_ready_ac(now, &mut on_drop),
                    false => None,
                };
                let params = ready.map(|ac| ContenderSet::pack(ac, stations[i].cw[ac.index()]));
                self.place(i, params);
            }
        }
    }

    /// Records that `slot` contends with `params`, or not at all: keeps
    /// the bitmap, the count, the cached word and the class lists in step.
    fn place(&mut self, slot: StationIdx, params: Option<u32>) {
        let (w, bit) = (slot / 64, slot % 64);
        let mask = 1u64 << bit;
        let cached = (self.contending[w] & mask != 0).then(|| self.params[w][bit]);
        if cached == params {
            return;
        }
        if let Some(old) = cached {
            let c = ContenderSet::class_of(old);
            let members = &mut self.classes[c].members;
            let at = self.pos[slot] as usize;
            members.swap_remove(at);
            if let Some(&moved) = members.get(at) {
                self.pos[moved] = at as u32;
            }
            if members.is_empty() {
                self.occupied &= !(1 << c);
            }
            self.contending[w] &= !mask;
            self.count -= 1;
        }
        if let Some(new) = params {
            let c = ContenderSet::class_of(new);
            self.pos[slot] = self.classes[c].members.len() as u32;
            self.classes[c].members.push(slot);
            self.occupied |= 1 << c;
            self.params[w][bit] = new;
            self.contending[w] |= mask;
            self.count += 1;
        }
    }

    /// Where the class of `params` is in `classes`: window exponent, then
    /// access category.
    fn class_of(params: u32) -> usize {
        let exponent = ((params >> 2) + 1).trailing_zeros() as usize;
        exponent * 4 + (params & 3) as usize
    }

    /// The backoff rule, and the one place a backoff is drawn: `m`
    /// transmitters contending with `params` (`cw << 2 | ac`) each wait
    /// their category's AIFSN plus a uniform draw from `[0, cw]` idle
    /// slots past SIFS. A round asks two things of those `m` waits, each
    /// drawn at once: the shortest ([`Draw::Shortest`], by
    /// [`SimRng::backoff_min`]) — `None` when it is longer than the bound
    /// and so cannot transmit — and, for a class at the round's shortest
    /// wait, how many of them tied there ([`Draw::Tied`], by
    /// [`SimRng::backoff_ties`]) — `None` when all of them did for
    /// certain, and nothing was drawn. Another rule — frozen counters, or
    /// the ECA and EIED backoffs of the parked contention-window
    /// comparison — replaces this function and what it is passed.
    #[inline(always)]
    fn wait(
        rng: &mut SimRng,
        aifsn: &[u32; AccessCategory::COUNT],
        params: u32,
        m: usize,
        draw: Draw,
    ) -> Option<u32> {
        let (aifsn, cw) = (aifsn[(params & 3) as usize], params >> 2);
        match draw {
            Draw::Shortest { at_most } => {
                Some(aifsn + rng.backoff_min(cw, m, at_most.checked_sub(aifsn)?)?)
            }
            Draw::Tied { wait } => rng.backoff_ties(cw, m, wait - aifsn).map(|t| t as u32),
        }
    }

    /// Phase B: draws each transmitter class's shortest wait from `rng` —
    /// the AP first when it contends with `ap` (its access category and
    /// window; a class of one), then the station classes by ascending
    /// `cw << 2 | ac` — and the shortest wait transmits. A class that
    /// cannot beat or tie the shortest wait so far learns only that, and
    /// one whose AIFSN alone is longer is not drawn at all. Once every
    /// class has drawn, each class at the shortest wait draws how many of
    /// it tied there, and [`pick`] picks them into `in_flight`: the AP
    /// first, then the stations by ascending slot. Returns how long the
    /// medium stays idle before they transmit, or `None` if nobody
    /// contends.
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
            let ap = ap.map(|(ac, cw)| {
                let params = ContenderSet::pack(ac, cw);
                let draw = Draw::Shortest { at_most: u32::MAX };
                let wait = ContenderSet::wait(rng, &aifsn, params, 1, draw);
                (ac, wait.expect("an unbounded draw"))
            });
            let mut shortest = ap.map_or(u32::MAX, |(_, wait)| wait);
            // The station classes at `shortest` so far, one bit each.
            let mut at_shortest = 0u128;
            for c in ones(self.occupied) {
                let class = &self.classes[c];
                let draw = Draw::Shortest { at_most: shortest };
                let m = class.members.len();
                if let Some(wait) = ContenderSet::wait(rng, &aifsn, class.params, m, draw) {
                    if wait < shortest {
                        (shortest, at_shortest) = (wait, 0);
                    }
                    at_shortest |= 1 << c;
                }
            }
            if let Some((ac, _)) = ap.filter(|&(_, wait)| wait == shortest) {
                in_flight.push(Participant::Ap { ac });
            }
            for c in ones(at_shortest) {
                let class = &self.classes[c];
                let draw = Draw::Tied { wait: shortest };
                let m = class.members.len();
                let ties = ContenderSet::wait(rng, &aifsn, class.params, m, draw);
                let ac = AccessCategory::ALL[(class.params & 3) as usize];
                pick(rng, &class.members, ac, ties, in_flight);
            }
            shortest
        });
        let first = matches!(in_flight.first(), Some(Participant::Ap { .. })) as usize;
        in_flight[first..].sort_unstable_by_key(|p| match *p {
            Participant::Station { idx, .. } => idx,
            Participant::Ap { .. } => unreachable!("the AP is drawn first"),
        });
        (shortest != u32::MAX).then(|| SIFS + SLOT_TIME * shortest as u64)
    }

    fn pack(ac: AccessCategory, cw: u32) -> u32 {
        assert!(
            cw < 1 << 30 && (cw + 1).is_power_of_two(),
            "contention window {cw} is not 2^k − 1 below 2^30"
        );
        cw << 2 | ac.index() as u32
    }

    /// The consistency check behind the cache: re-evaluates slots from
    /// scratch — the full scan every round used to be — and compares with
    /// what is cached. `None` audits every slot, the contender count and
    /// the class lists, `Some(n)` the 64 slots of bitmap word `n` modulo
    /// the word count. On a sound cache the re-evaluation builds nothing,
    /// draws nothing and drops nothing; on an unsound one, `on_drop` takes
    /// what it dropped.
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
            self.audit_classes()?;
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

    /// The class lists against the bitmap: a class is marked occupied
    /// exactly when it has members; every member is a contending slot
    /// whose cached word names its class and whose stored position is
    /// where it sits; and there are as many members as contenders — so
    /// every contender sits in exactly one class, once.
    fn audit_classes(&self) -> Result<(), String> {
        let mut members = 0;
        for (c, class) in self.classes.iter().enumerate() {
            if (self.occupied >> c & 1 != 0) == class.members.is_empty() {
                return Err(format!(
                    "class {} has {} members, occupied bit {}",
                    class.params,
                    class.members.len(),
                    self.occupied >> c & 1
                ));
            }
            for (at, &slot) in class.members.iter().enumerate() {
                let (w, bit) = (slot / 64, slot % 64);
                if self.contending[w] >> bit & 1 == 0 {
                    return Err(format!(
                        "slot {slot} in class {} contends not",
                        class.params
                    ));
                }
                if self.params[w][bit] != class.params {
                    return Err(format!(
                        "slot {slot} in class {}, its cached word is {}",
                        class.params, self.params[w][bit]
                    ));
                }
                if self.pos[slot] as usize != at {
                    return Err(format!(
                        "slot {slot} at {at} of class {}, its position says {}",
                        class.params, self.pos[slot]
                    ));
                }
            }
            members += class.members.len();
        }
        if members != self.count {
            return Err(format!("{members} class members, count {}", self.count));
        }
        Ok(())
    }
}

/// The indices of the bits set in `bits`, ascending.
fn ones(mut bits: u128) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let c = bits.trailing_zeros() as usize;
        bits &= bits.wrapping_sub(1);
        (c < 128).then_some(c)
    })
}

/// Pushes `ties` of a class's `members`, contending at `ac` — all of
/// them when that is `None` — picked uniformly without replacement by
/// Floyd's algorithm, the ones already picked being the tail of
/// `in_flight`: O(ties²) steps. Which members tied is no part of the
/// backoff rule ([`ContenderSet::wait`]): a class's members are alike.
fn pick(
    rng: &mut SimRng,
    members: &[StationIdx],
    ac: AccessCategory,
    ties: Option<u32>,
    in_flight: &mut Vec<Participant>,
) {
    let tie = |idx| Participant::Station { idx, ac };
    let Some(ties) = ties else {
        in_flight.extend(members.iter().map(|&idx| tie(idx)));
        return;
    };
    let (m, start) = (members.len(), in_flight.len());
    for j in m - ties as usize..m {
        let r = members[rng.index(j + 1)];
        let idx = match in_flight[start..].contains(&tie(r)) {
            true => members[j],
            false => r,
        };
        in_flight.push(tie(idx));
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

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
        set.place(2, Some(ContenderSet::pack(AccessCategory::Be, 15)));
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

    #[test]
    fn audit_catches_a_contender_in_a_stale_class() {
        let mut stations: Vec<StationUplink> = (0..130)
            .map(|i| StationUplink::new(i, wifiq_phy::PhyRate::fast_station(), 1000))
            .collect();
        let active = Occupancy::full(130);
        let mut set = ContenderSet::new(130);
        let now = Nanos::ZERO;
        let be = AccessCategory::Be.index();
        for (slot, ac) in [
            (3, AccessCategory::Be),
            (64, AccessCategory::Be),
            (70, AccessCategory::Vo),
            (129, AccessCategory::Be),
        ] {
            let pkt = Packet {
                id: slot as u64,
                src: NodeAddr::Station(slot),
                dst: NodeAddr::Server,
                flow: 1,
                len: 700,
                ac,
                created: now,
                enqueued: now,
                payload: (),
            };
            stations[slot].enqueue(pkt.loose_ticket(), ignore);
            set.mark_dirty(slot);
        }
        stations[64].cw[be] = 31;
        set.refresh(&mut stations, &active, now, ignore);
        let mut audit = |set: &ContenderSet| set.audit(&mut stations, &active, None, now, ignore);
        assert_eq!(audit(&set), Ok(()));
        let sizes: Vec<(u32, usize)> = ones(set.occupied)
            .map(|c| (set.classes[c].params, set.classes[c].members.len()))
            .collect();
        assert_eq!(sizes, [(3 << 2, 1), (15 << 2 | 2, 2), (31 << 2 | 2, 1)]);
        // Slot 129's cached word moved to window 31, its class did not.
        set.params[2][1] = ContenderSet::pack(AccessCategory::Be, 31);
        let err = audit(&set).unwrap_err();
        assert_eq!(err, "slot 129 in class 62, its cached word is 126");
        set.params[2][1] = ContenderSet::pack(AccessCategory::Be, 15);
        // A stored position that went stale in a swap-remove.
        set.pos[129] = 5;
        let err = audit(&set).unwrap_err();
        assert_eq!(err, "slot 129 at 1 of class 62, its position says 5");
        set.pos[129] = 1;
        // A member the bitmap no longer knows about.
        set.contending[1] &= !(1 << 6);
        set.count -= 1;
        let err = audit(&set).unwrap_err();
        assert_eq!(err, "slot 70 in class 12 contends not");
        set.contending[1] |= 1 << 6;
        set.count += 1;
        // A class emptied behind the occupied mask's back.
        let vo3 = ContenderSet::class_of(ContenderSet::pack(AccessCategory::Vo, 3));
        set.classes[vo3].members.clear();
        let err = audit(&set).unwrap_err();
        assert_eq!(err, "class 12 has 0 members, occupied bit 1");
        // A contender that no class lists.
        set.occupied &= !(1 << vo3);
        let err = audit(&set).unwrap_err();
        assert_eq!(err, "3 class members, count 4");
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

    /// Pearson's χ² for two samples over the same bins — `bins` maps a
    /// bin to its two counts — and its degrees of freedom. Bins with fewer
    /// than 20 observations in both samples together are pooled into one.
    fn chi2<K>(bins: &BTreeMap<K, [u64; 2]>) -> (f64, usize) {
        let mut pooled = vec![[0u64; 2]];
        for &counts in bins.values() {
            match counts[0] + counts[1] < 20 {
                true => (0..2).for_each(|s| pooled[0][s] += counts[s]),
                false => pooled.push(counts),
            }
        }
        let totals = [0, 1].map(|s| pooled.iter().map(|c| c[s]).sum::<u64>() as f64);
        let n = totals[0] + totals[1];
        let stat = pooled
            .iter()
            .filter(|c| c[0] + c[1] > 0)
            .flat_map(|c| {
                let row = (c[0] + c[1]) as f64;
                (0..2).map(move |s| {
                    let expected = row * totals[s] / n;
                    (c[s] as f64 - expected).powi(2) / expected
                })
            })
            .sum();
        let bins = pooled.iter().filter(|c| c[0] + c[1] > 0).count();
        (stat, bins - 1)
    }

    /// The χ² value a statistic with `df` degrees of freedom exceeds with
    /// probability 10⁻⁴ (the Wilson–Hilferty approximation).
    fn critical(df: usize) -> f64 {
        let d = df as f64;
        let s = (2.0 / (9.0 * d)).sqrt();
        d * (1.0 - s * s + 3.719 * s).powi(3)
    }

    #[test]
    fn round_draws_what_a_plain_fold_draws_in_distribution() {
        // 10⁵ random contender sets, each drawn once by `round` and once
        // by the plain fold, from two independent streams. Over all the
        // rounds, (shortest wait, tie count) must have one distribution,
        // and so must the class of each winner.
        let mut sets = SimRng::new(7);
        let (mut a, mut b) = (SimRng::new(1), SimRng::new(2));
        let mut outcomes: BTreeMap<(Nanos, usize), [u64; 2]> = BTreeMap::new();
        let mut wins: BTreeMap<(bool, u32), [u64; 2]> = BTreeMap::new();
        let mut set = ContenderSet::new(300);
        let mut in_flight = Vec::new();
        // What each of 300 slots contends with when it is below the limit,
        // `slots`: a slot contends with probability 1/2, in one of four
        // categories and one of seven windows, all equally likely. Each
        // case re-draws 16 slots and the limit, and re-places only the
        // slots that changed.
        let mut drawn: Vec<Option<u32>> = vec![None; 300];
        let mut slots = 0;
        for case in 0..100_000 {
            let before = slots;
            slots = 1 + sets.index(300);
            let redrawn: [usize; 16] = std::array::from_fn(|_| sets.index(300));
            for &i in &redrawn {
                drawn[i] = Some(sets.index(56)).filter(|&x| x < 28).map(|x| {
                    let ac = AccessCategory::ALL[x % 4];
                    ContenderSet::pack(ac, [0, 1, 3, 7, 15, 31, 1023][x / 4])
                });
            }
            let crossed = slots.min(before)..slots.max(before);
            for i in redrawn.into_iter().chain(crossed) {
                set.place(i, drawn[i].filter(|_| i < slots));
            }
            let ap = sets.chance(0.5).then(|| {
                (
                    AccessCategory::ALL[sets.index(4)],
                    [3, 15, 63][sets.index(3)],
                )
            });
            in_flight.clear();
            let wait = set.round(&mut a, ap, &mut in_flight);
            assert_eq!(wait.is_some(), set.count > 0 || ap.is_some(), "case {case}");
            let plain = fold(&set, &mut b, ap);
            let drawn = wait.map(|w| (w, in_flight.clone()));
            for (side, (wait, winners)) in [drawn, plain].into_iter().flatten().enumerate() {
                outcomes.entry((wait, winners.len())).or_default()[side] += 1;
                for p in &winners {
                    let class = match *p {
                        Participant::Ap { ac } => (true, ContenderSet::pack(ac, ap.unwrap().1)),
                        Participant::Station { idx, .. } => (false, set.params[idx / 64][idx % 64]),
                    };
                    wins.entry(class).or_default()[side] += 1;
                }
            }
            // Winners are contenders, the AP first, then by ascending slot.
            let order: Vec<usize> = in_flight
                .iter()
                .map(|p| match *p {
                    Participant::Ap { .. } => 0,
                    Participant::Station { idx, ac } => {
                        let packed = set.params[idx / 64][idx % 64];
                        assert_eq!(ac.index() as u32, packed & 3, "case {case}");
                        assert!(set.contending[idx / 64] >> (idx % 64) & 1 != 0);
                        idx + 1
                    }
                })
                .collect();
            assert!(
                order.windows(2).all(|w| w[0] < w[1]),
                "case {case}: {order:?}"
            );
        }
        for (what, (stat, df)) in [
            ("(wait, ties)", chi2(&outcomes)),
            ("winner class", chi2(&wins)),
        ] {
            assert!(
                stat < critical(df),
                "{what}: χ² {stat:.1} at {df} degrees of freedom, critical {:.1}",
                critical(df)
            );
        }
    }

    #[test]
    fn a_lone_contender_draws_the_plain_backoff() {
        // A class of one, and the AP, draw exactly what a plain fold draws.
        let mut set = ContenderSet::new(64);
        set.place(9, Some(ContenderSet::pack(AccessCategory::Be, 31)));
        for case in 0..200 {
            let ap = Some((AccessCategory::Be, 15));
            let (mut a, mut b) = (SimRng::new(case), SimRng::new(case));
            let mut in_flight = Vec::new();
            let wait = set.round(&mut a, ap, &mut in_flight);
            assert_eq!(wait.map(|w| (w, in_flight)), fold(&set, &mut b, ap));
            assert_eq!(a.gen_f64(), b.gen_f64(), "case {case}: streams diverged");
        }
    }

    #[test]
    fn crowded_classes_draw_what_a_plain_fold_draws() {
        // 200 stations at window 7 expect 25 ties at a minimum of 0, past
        // the inverse-CDF count's range: the count is of per-member trials.
        // 60 at window 15 take the inverse-CDF count. Floyd's algorithm
        // picks the tied members of both.
        let mut set = ContenderSet::new(260);
        for i in 0..260 {
            let cw = if i < 200 { 7 } else { 15 };
            set.place(i, Some(ContenderSet::pack(AccessCategory::Be, cw)));
        }
        let (mut a, mut b) = (SimRng::new(3), SimRng::new(4));
        let mut outcomes: BTreeMap<(Nanos, usize), [u64; 2]> = BTreeMap::new();
        let mut in_flight = Vec::new();
        let slot = |p: &Participant| match *p {
            Participant::Station { idx, .. } => idx,
            Participant::Ap { .. } => unreachable!("no AP contends"),
        };
        for _ in 0..4000 {
            in_flight.clear();
            let wait = set.round(&mut a, None, &mut in_flight).expect("a winner");
            let ascending = in_flight.windows(2).all(|w| slot(&w[0]) < slot(&w[1]));
            assert!(ascending, "a member drawn twice: {in_flight:?}");
            outcomes.entry((wait, in_flight.len())).or_default()[0] += 1;
            let (wait, tied) = fold(&set, &mut b, None).expect("a winner");
            outcomes.entry((wait, tied.len())).or_default()[1] += 1;
        }
        let (stat, df) = chi2(&outcomes);
        assert!(
            stat < critical(df),
            "χ² {stat:.1} at {df} degrees of freedom"
        );
    }
}
