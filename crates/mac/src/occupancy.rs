//! Which station slots host an associated station.

use crate::packet::StationIdx;

/// One bit per station slot, set while the slot hosts an associated
/// station, plus the number of set bits. Departed slots stay in every
/// per-station table as tombstones until a join reuses them; this is the
/// one record of which is which.
///
/// A bitmap rather than a `Vec<bool>` so that "the k-th associated
/// station" is a popcount walk over `slots / 64` words followed by a
/// select inside one word, not a filter over every slot.
#[derive(Debug)]
pub(crate) struct Occupancy {
    words: Vec<u64>,
    count: usize,
}

impl Occupancy {
    /// Slots `0..slots`, all occupied.
    pub(crate) fn full(slots: usize) -> Occupancy {
        let mut words = vec![u64::MAX; slots.div_ceil(64)];
        if let (Some(last), tail @ 1..) = (words.last_mut(), slots % 64) {
            *last = (1u64 << tail) - 1;
        }
        Occupancy {
            words,
            count: slots,
        }
    }

    /// Whether `slot` is occupied; a slot never allocated is not.
    #[inline]
    pub(crate) fn contains(&self, slot: StationIdx) -> bool {
        self.words
            .get(slot / 64)
            .is_some_and(|w| w >> (slot % 64) & 1 != 0)
    }

    /// Marks a vacant (or not yet allocated) slot occupied.
    pub(crate) fn insert(&mut self, slot: StationIdx) {
        if slot / 64 >= self.words.len() {
            self.words.resize(slot / 64 + 1, 0);
        }
        debug_assert!(!self.contains(slot), "slot {slot} already occupied");
        self.words[slot / 64] |= 1u64 << (slot % 64);
        self.count += 1;
    }

    /// Marks an occupied slot vacant.
    pub(crate) fn remove(&mut self, slot: StationIdx) {
        debug_assert!(self.contains(slot), "slot {slot} already vacant");
        self.words[slot / 64] &= !(1u64 << (slot % 64));
        self.count -= 1;
    }

    /// Number of occupied slots.
    #[inline]
    pub(crate) fn count(&self) -> usize {
        self.count
    }

    /// The `k`-th occupied slot in ascending order (`k` from 0), or `None`
    /// when fewer than `k + 1` slots are occupied.
    pub(crate) fn nth(&self, mut k: usize) -> Option<StationIdx> {
        if k >= self.count {
            return None;
        }
        for (w, &word) in self.words.iter().enumerate() {
            let ones = word.count_ones() as usize;
            if k >= ones {
                k -= ones;
                continue;
            }
            // Select within the word: drop the k lowest set bits.
            let mut bits = word;
            for _ in 0..k {
                bits &= bits - 1;
            }
            return Some(w * 64 + bits.trailing_zeros() as usize);
        }
        unreachable!("count exceeds the occupied bits")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_sets_exactly_the_first_slots() {
        for slots in [0, 1, 63, 64, 65, 200] {
            let occ = Occupancy::full(slots);
            assert_eq!(occ.count(), slots);
            assert!((0..slots).all(|s| occ.contains(s)));
            assert!(!occ.contains(slots) && !occ.contains(slots + 64));
            assert_eq!(occ.nth(slots), None);
            if slots > 0 {
                assert_eq!(occ.nth(slots - 1), Some(slots - 1));
            }
        }
    }

    #[test]
    fn insert_grows_and_nth_skips_vacant_slots() {
        let mut occ = Occupancy::full(3);
        occ.remove(1);
        occ.insert(130);
        assert_eq!(occ.count(), 3);
        assert_eq!(
            (0..4).map(|k| occ.nth(k)).collect::<Vec<_>>(),
            [Some(0), Some(2), Some(130), None]
        );
        assert!(!occ.contains(1) && !occ.contains(129));
    }
}
