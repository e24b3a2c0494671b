//! The flat station/TID state store: a struct-of-arrays table keyed by
//! generational handles.
//!
//! Per-station structs in a `Vec` plus parallel side vectors indexed by
//! `4·sta + ac` arithmetic at every call site do not scale: at 100k+
//! stations the per-round working set — deficits, DRR list membership,
//! list links, TID handles — no longer fits the cache when it is
//! interleaved with cold configuration, and every raw `usize` index is
//! one churn bug away from addressing a recycled slot.
//!
//! [`StationTable`] fixes both:
//!
//! - **Layout.** The fields a DRR round actually touches live in
//!   parallel flat slabs indexed by `slot × QOS_LEVELS + ac`: deficit,
//!   weight, list membership, intrusive prev/next links, and the TID
//!   handle stripe. A round walks a dense, prefetchable stripe. Cold
//!   per-station payload (rates, CoDel parameters, stashed frames —
//!   whatever the embedder supplies as `C`) lives in a side table that
//!   scheduling never reads.
//! - **Handles.** [`StaId`] and [`TidId`] are 8-byte generational
//!   handles (`u32` slot + `u32` generation), the same discipline as
//!   [`PacketHandle`](crate::packet::PacketHandle): freeing a slot bumps
//!   its generation, so a stale handle panics instead of silently
//!   addressing the slot's next occupant, and a station-vs-TID mixup is
//!   a type error instead of an off-by-4×.
//! - **Teardown.** [`free`](StationTable::free) is the *single*
//!   tombstone path: it unlinks the departing station from every QoS
//!   level's scheduling list (order of the survivors preserved, exactly
//!   like the `retain` it replaces), parks the slot on a LIFO free list
//!   (so churn reuses the most recently vacated slot and the table never
//!   grows without bound), and bumps the generation. Scheduler removal
//!   and roaming departure both collapse onto it.
//!
//! The DRR lists themselves (one *new* + one *old* list per QoS level,
//! FQ-CoDel's sparse-flow discipline applied to stations) are intrusive
//! over the link slabs: a `(station, ac)` node is on at most one list,
//! so one prev/next pair per node serves all four levels.

/// Number of QoS precedence levels (VO, VI, BE, BK).
pub const QOS_LEVELS: usize = 4;

/// The neutral airtime weight (mainline mac80211's default); a station
/// with weight `2 × WEIGHT_NEUTRAL` receives twice the airtime share.
pub const WEIGHT_NEUTRAL: u32 = 256;

const NIL: u32 = u32::MAX;

/// Generational handle to a station slot in a [`StationTable`].
///
/// 8 bytes: a `u32` slot index plus a `u32` generation. The generation
/// is bumped every time the slot is freed, so a handle outliving its
/// station panics on use instead of aliasing the slot's next occupant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StaId {
    idx: u32,
    gen: u32,
}

impl StaId {
    /// The slot index this handle refers to (stable for the lifetime of
    /// the station; reused by later stations after
    /// [`free`](StationTable::free)).
    pub fn slot(self) -> usize {
        self.idx as usize
    }

    /// The handle's generation (diagnostics).
    pub fn generation(self) -> u32 {
        self.gen
    }

    /// Reconstructs a handle from raw parts. Intended for tests and
    /// serialized state; a mismatched generation panics at first use.
    pub fn from_raw(slot: usize, gen: u32) -> StaId {
        StaId {
            idx: slot as u32,
            gen,
        }
    }
}

/// Generational handle to a registered TID (one station × one QoS
/// level) in a [`MacFq`](crate::fq::MacFq).
///
/// Same 8-byte layout and staleness discipline as [`StaId`]; the two
/// are distinct types so a station-for-TID mixup fails to compile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TidId {
    idx: u32,
    gen: u32,
}

impl TidId {
    /// A sentinel referring to no TID; any use panics. The default value
    /// of the table's TID stripe until [`set_tid`](StationTable::set_tid).
    pub const NONE: TidId = TidId { idx: NIL, gen: 0 };

    /// The TID slot index this handle refers to.
    pub fn slot(self) -> usize {
        self.idx as usize
    }

    /// The handle's generation (diagnostics).
    pub fn generation(self) -> u32 {
        self.gen
    }

    /// True for the [`NONE`](Self::NONE) sentinel.
    pub fn is_none(self) -> bool {
        self.idx == NIL
    }

    /// Reconstructs a handle from raw parts. Intended for tests and
    /// serialized state; a mismatched generation panics at first use.
    pub fn from_raw(slot: usize, gen: u32) -> TidId {
        TidId {
            idx: slot as u32,
            gen,
        }
    }
}

/// Which scheduling list (if any) a `(station, ac)` node is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Membership {
    /// Not on any list: no pending traffic at this level.
    Idle = 0,
    /// On the *new* list: sparse-station priority for one round.
    New = 1,
    /// On the *old* list: the regular DRR rotation.
    Old = 2,
}

/// Head/tail of one intrusive list (NIL-terminated, node = slot×4+ac).
#[derive(Debug, Clone, Copy)]
struct ListEnds {
    head: u32,
    tail: u32,
}

impl ListEnds {
    const EMPTY: ListEnds = ListEnds {
        head: NIL,
        tail: NIL,
    };
}

/// Per-QoS-level list pair: `ends[0]` = new list, `ends[1]` = old list.
#[derive(Debug, Clone, Copy)]
struct AcLists {
    ends: [ListEnds; 2],
}

const NEW: usize = 0;
const OLD: usize = 1;

/// The struct-of-arrays station store. See the module docs for the
/// layout rationale; `C` is the embedder's cold per-station payload
/// (config, stashes, telemetry handles — anything a scheduling round
/// does not touch).
#[derive(Debug)]
pub struct StationTable<C> {
    /// Per-slot generation; bumped on free, so stale handles panic.
    gen: Vec<u32>,
    /// Whether the slot currently hosts a station.
    occupied: Vec<bool>,
    /// Vacated slots awaiting reuse (LIFO — most recently freed first,
    /// matching every other free list in the stack).
    free: Vec<u32>,
    live: usize,

    // ---- hot per-(slot, ac) slabs, length = slots × QOS_LEVELS ----
    deficit: Vec<i64>,
    weight: Vec<u32>,
    membership: Vec<Membership>,
    prev: Vec<u32>,
    next: Vec<u32>,
    /// The TID handle stripe: `tids[slot×4 + ac]` is the MAC FQ TID
    /// registered for that (station, ac).
    tids: Vec<TidId>,

    lists: [AcLists; QOS_LEVELS],

    // ---- cold side table, length = slots ----
    cold: Vec<Option<C>>,
}

impl<C> Default for StationTable<C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C> StationTable<C> {
    /// Creates an empty table.
    pub fn new() -> StationTable<C> {
        StationTable {
            gen: Vec::new(),
            occupied: Vec::new(),
            free: Vec::new(),
            live: 0,
            deficit: Vec::new(),
            weight: Vec::new(),
            membership: Vec::new(),
            prev: Vec::new(),
            next: Vec::new(),
            tids: Vec::new(),
            lists: [AcLists {
                ends: [ListEnds::EMPTY; 2],
            }; QOS_LEVELS],
            cold: Vec::new(),
        }
    }

    /// Creates an empty table with capacity for `n` stations.
    pub fn with_capacity(n: usize) -> StationTable<C> {
        let mut t = Self::new();
        t.gen.reserve(n);
        t.occupied.reserve(n);
        t.deficit.reserve(n * QOS_LEVELS);
        t.weight.reserve(n * QOS_LEVELS);
        t.membership.reserve(n * QOS_LEVELS);
        t.prev.reserve(n * QOS_LEVELS);
        t.next.reserve(n * QOS_LEVELS);
        t.tids.reserve(n * QOS_LEVELS);
        t.cold.reserve(n);
        t
    }

    /// Number of slots ever allocated (live + tombstoned).
    pub fn slots(&self) -> usize {
        self.gen.len()
    }

    /// Number of live stations.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Allocates a slot for a new station, reusing the most recently
    /// vacated slot when one exists. Hot fields start neutral: zero
    /// deficit, [`WEIGHT_NEUTRAL`] weight, [`Membership::Idle`], and
    /// [`TidId::NONE`] in the TID stripe.
    pub fn alloc(&mut self, cold: C) -> StaId {
        let idx = match self.free.pop() {
            Some(idx) => {
                let s = idx as usize;
                debug_assert!(!self.occupied[s], "free-listed slot still occupied");
                for ac in 0..QOS_LEVELS {
                    let n = s * QOS_LEVELS + ac;
                    self.deficit[n] = 0;
                    self.weight[n] = WEIGHT_NEUTRAL;
                    debug_assert_eq!(self.membership[n], Membership::Idle);
                    self.tids[n] = TidId::NONE;
                }
                self.cold[s] = Some(cold);
                idx
            }
            None => {
                let idx = self.gen.len() as u32;
                self.gen.push(0);
                self.occupied.push(false);
                self.deficit.extend([0i64; QOS_LEVELS]);
                self.weight.extend([WEIGHT_NEUTRAL; QOS_LEVELS]);
                self.membership.extend([Membership::Idle; QOS_LEVELS]);
                self.prev.extend([NIL; QOS_LEVELS]);
                self.next.extend([NIL; QOS_LEVELS]);
                self.tids.extend([TidId::NONE; QOS_LEVELS]);
                self.cold.push(Some(cold));
                idx
            }
        };
        self.occupied[idx as usize] = true;
        self.live += 1;
        StaId {
            idx,
            gen: self.gen[idx as usize],
        }
    }

    /// Frees a station slot — the single tombstone path. Unlinks the
    /// station from every QoS level's scheduling list (survivor order
    /// preserved), clears the TID stripe, bumps the slot's generation
    /// (so `sta` and every copy of it go stale), parks the slot for
    /// LIFO reuse, and returns the cold payload.
    ///
    /// # Panics
    ///
    /// Panics if `sta` is stale or already freed.
    pub fn free(&mut self, sta: StaId) -> C {
        let s = self.index(sta);
        for ac in 0..QOS_LEVELS {
            let node = (s * QOS_LEVELS + ac) as u32;
            match self.membership[node as usize] {
                Membership::Idle => {}
                Membership::New => self.unlink(ac, NEW, node),
                Membership::Old => self.unlink(ac, OLD, node),
            }
            self.membership[node as usize] = Membership::Idle;
            self.tids[node as usize] = TidId::NONE;
        }
        self.occupied[s] = false;
        self.gen[s] = self.gen[s].wrapping_add(1);
        self.free.push(s as u32);
        self.live -= 1;
        self.cold[s].take().expect("freed slot had no cold payload")
    }

    /// True if the handle refers to the slot's current occupant.
    pub fn is_current(&self, sta: StaId) -> bool {
        let s = sta.idx as usize;
        s < self.gen.len() && self.occupied[s] && self.gen[s] == sta.gen
    }

    /// The current handle for `slot`, or `None` for a tombstoned or
    /// never-allocated slot.
    pub fn id_at(&self, slot: usize) -> Option<StaId> {
        if slot < self.gen.len() && self.occupied[slot] {
            Some(StaId {
                idx: slot as u32,
                gen: self.gen[slot],
            })
        } else {
            None
        }
    }

    /// Live station handles in slot order.
    pub fn iter(&self) -> impl Iterator<Item = StaId> + '_ {
        (0..self.slots()).filter_map(|s| self.id_at(s))
    }

    /// Validates a handle and returns its slot.
    ///
    /// # Panics
    ///
    /// Panics with the arena-style staleness message when the handle
    /// does not match the slot's current occupant.
    #[inline]
    fn index(&self, sta: StaId) -> usize {
        let s = sta.idx as usize;
        assert!(s < self.gen.len(), "station handle out of range: slot {s}");
        assert!(
            self.occupied[s] && self.gen[s] == sta.gen,
            "stale station handle: slot {} gen {} vs handle gen {}",
            s,
            self.gen[s],
            sta.gen
        );
        s
    }

    #[inline]
    fn node(&self, sta: StaId, ac: usize) -> usize {
        assert!(ac < QOS_LEVELS, "QoS level out of range");
        self.index(sta) * QOS_LEVELS + ac
    }

    // ---- hot-field accessors ----

    /// Current airtime deficit for a station at a QoS level.
    pub fn deficit(&self, sta: StaId, ac: usize) -> i64 {
        self.deficit[self.node(sta, ac)]
    }

    /// Overwrites a deficit (registration / oracle tests).
    pub fn set_deficit(&mut self, sta: StaId, ac: usize, deficit: i64) {
        let n = self.node(sta, ac);
        self.deficit[n] = deficit;
    }

    /// Adds (or, negative, charges) airtime to a deficit.
    pub fn add_deficit(&mut self, sta: StaId, ac: usize, delta: i64) {
        let n = self.node(sta, ac);
        self.deficit[n] += delta;
    }

    /// A station's airtime weight at one QoS level.
    pub fn ac_weight(&self, sta: StaId, ac: usize) -> u32 {
        self.weight[self.node(sta, ac)]
    }

    /// Sets a station's airtime weight at every QoS level. Deficits are
    /// untouched: a mid-round reweight takes effect at the next
    /// replenishment and leaves round state undisturbed.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is zero — a zero-weight station could never
    /// replenish its deficit and would deadlock the scheduling loop.
    pub fn set_weight(&mut self, sta: StaId, weight: u32) {
        self.set_ac_weights(sta, [weight; QOS_LEVELS]);
    }

    /// Sets a station's per-QoS-level airtime weights (the compiled
    /// output of a policy tree). Same deficit-preserving semantics as
    /// [`set_weight`](Self::set_weight).
    ///
    /// # Panics
    ///
    /// Panics if any weight is zero.
    pub fn set_ac_weights(&mut self, sta: StaId, weights: [u32; QOS_LEVELS]) {
        assert!(
            weights.iter().all(|&w| w > 0),
            "airtime weight must be positive"
        );
        let s = self.index(sta);
        self.weight[s * QOS_LEVELS..(s + 1) * QOS_LEVELS].copy_from_slice(&weights);
    }

    /// Which scheduling list the station is on at `ac`.
    pub fn membership(&self, sta: StaId, ac: usize) -> Membership {
        self.membership[self.node(sta, ac)]
    }

    /// The registered TID for `(sta, ac)` — the single access path to a
    /// station's MAC FQ TIDs. [`TidId::NONE`] until
    /// [`set_tid`](Self::set_tid).
    pub fn tid(&self, sta: StaId, ac: usize) -> TidId {
        self.tids[self.node(sta, ac)]
    }

    /// Records the TID registered for `(sta, ac)`.
    pub fn set_tid(&mut self, sta: StaId, ac: usize, tid: TidId) {
        let n = self.node(sta, ac);
        self.tids[n] = tid;
    }

    /// Cold payload, immutable.
    pub fn cold(&self, sta: StaId) -> &C {
        let s = self.index(sta);
        self.cold[s].as_ref().expect("live slot has cold payload")
    }

    /// Cold payload, mutable.
    pub fn cold_mut(&mut self, sta: StaId) -> &mut C {
        let s = self.index(sta);
        self.cold[s].as_mut().expect("live slot has cold payload")
    }

    /// Cold payload by slot, or `None` for a tombstoned slot.
    pub fn cold_at(&self, slot: usize) -> Option<&C> {
        self.cold.get(slot)?.as_ref()
    }

    // ---- DRR scheduling lists ----

    fn link_back(&mut self, ac: usize, kind: usize, node: u32) {
        debug_assert_eq!(self.prev[node as usize], NIL);
        debug_assert_eq!(self.next[node as usize], NIL);
        let ends = &mut self.lists[ac].ends[kind];
        if ends.tail == NIL {
            ends.head = node;
            ends.tail = node;
        } else {
            self.prev[node as usize] = ends.tail;
            self.next[ends.tail as usize] = node;
            ends.tail = node;
        }
    }

    fn unlink(&mut self, ac: usize, kind: usize, node: u32) {
        let (p, n) = (self.prev[node as usize], self.next[node as usize]);
        let ends = &mut self.lists[ac].ends[kind];
        if p == NIL {
            debug_assert_eq!(ends.head, node, "unlinking node not on its list");
            ends.head = n;
        } else {
            self.next[p as usize] = n;
        }
        if n == NIL {
            debug_assert_eq!(ends.tail, node, "unlinking node not on its list");
            ends.tail = p;
        } else {
            self.prev[n as usize] = p;
        }
        self.prev[node as usize] = NIL;
        self.next[node as usize] = NIL;
    }

    #[inline]
    fn front(&self, ac: usize, kind: usize) -> Option<StaId> {
        let node = self.lists[ac].ends[kind].head;
        if node == NIL {
            return None;
        }
        let slot = node as usize / QOS_LEVELS;
        Some(StaId {
            idx: slot as u32,
            gen: self.gen[slot],
        })
    }

    /// Head of the *new* (sparse-priority) list at `ac`.
    pub fn new_front(&self, ac: usize) -> Option<StaId> {
        assert!(ac < QOS_LEVELS, "QoS level out of range");
        self.front(ac, NEW)
    }

    /// Head of the *old* list at `ac`.
    pub fn old_front(&self, ac: usize) -> Option<StaId> {
        assert!(ac < QOS_LEVELS, "QoS level out of range");
        self.front(ac, OLD)
    }

    /// Appends an idle station to the *new* list (sparse priority).
    ///
    /// # Panics
    ///
    /// Panics if the station is not [`Membership::Idle`] at `ac`.
    pub fn enlist_new(&mut self, sta: StaId, ac: usize) {
        let n = self.node(sta, ac);
        assert_eq!(
            self.membership[n],
            Membership::Idle,
            "enlisting a station already listed"
        );
        self.membership[n] = Membership::New;
        self.link_back(ac, NEW, n as u32);
    }

    /// Appends an idle station to the *old* list (sparse optimisation
    /// disabled, or anti-gaming demotion on registration).
    ///
    /// # Panics
    ///
    /// Panics if the station is not [`Membership::Idle`] at `ac`.
    pub fn enlist_old(&mut self, sta: StaId, ac: usize) {
        let n = self.node(sta, ac);
        assert_eq!(
            self.membership[n],
            Membership::Idle,
            "enlisting a station already listed"
        );
        self.membership[n] = Membership::Old;
        self.link_back(ac, OLD, n as u32);
    }

    /// Pops the head of the *new* list and appends it to the *old* list
    /// (deficit-exhausted rotation, or the anti-gaming demotion of an
    /// emptied sparse station). Returns the rotated station.
    pub fn demote_front_new(&mut self, ac: usize) -> StaId {
        let sta = self.front(ac, NEW).expect("demote from empty new list");
        let n = self.node(sta, ac);
        self.unlink(ac, NEW, n as u32);
        self.membership[n] = Membership::Old;
        self.link_back(ac, OLD, n as u32);
        sta
    }

    /// Rotates the head of the *old* list to its tail
    /// (deficit-exhausted rotation). Returns the rotated station.
    pub fn rotate_front_old(&mut self, ac: usize) -> StaId {
        let sta = self.front(ac, OLD).expect("rotate on empty old list");
        let n = self.node(sta, ac);
        self.unlink(ac, OLD, n as u32);
        self.link_back(ac, OLD, n as u32);
        sta
    }

    /// Pops the head of the *old* list and marks it idle (an emptied
    /// station leaves the rotation). Returns the retired station.
    pub fn retire_front_old(&mut self, ac: usize) -> StaId {
        let sta = self.front(ac, OLD).expect("retire on empty old list");
        let n = self.node(sta, ac);
        self.unlink(ac, OLD, n as u32);
        self.membership[n] = Membership::Idle;
        sta
    }

    /// Walks both lists at `ac` asserting link/membership consistency
    /// (tests and debug audits; O(stations)).
    pub fn check_lists(&self, ac: usize) {
        for (kind, want) in [(NEW, Membership::New), (OLD, Membership::Old)] {
            let mut node = self.lists[ac].ends[kind].head;
            let mut prev = NIL;
            while node != NIL {
                assert_eq!(self.prev[node as usize], prev, "prev link broken");
                assert_eq!(
                    self.membership[node as usize], want,
                    "membership out of sync with list"
                );
                assert!(
                    self.occupied[node as usize / QOS_LEVELS],
                    "tombstoned slot on a scheduling list"
                );
                prev = node;
                node = self.next[node as usize];
            }
            assert_eq!(self.lists[ac].ends[kind].tail, prev, "tail out of sync");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BE: usize = 2;

    #[test]
    fn alloc_free_reuses_lifo_with_fresh_generation() {
        let mut t = StationTable::<u32>::new();
        let a = t.alloc(10);
        let b = t.alloc(20);
        let c = t.alloc(30);
        assert_eq!((a.slot(), b.slot(), c.slot()), (0, 1, 2));
        assert_eq!(t.free(b), 20);
        assert_eq!(t.live(), 2);
        let d = t.alloc(40);
        assert_eq!(d.slot(), 1, "LIFO slot reuse");
        assert_ne!(d, b, "generation distinguishes occupants");
        assert_eq!(*t.cold(d), 40);
        assert_eq!(t.slots(), 3);
    }

    #[test]
    #[should_panic(expected = "stale station handle")]
    fn stale_handle_panics() {
        let mut t = StationTable::<()>::new();
        let a = t.alloc(());
        t.free(a);
        let _ = t.alloc(());
        t.deficit(a, BE);
    }

    #[test]
    #[should_panic(expected = "stale station handle")]
    fn double_free_panics() {
        let mut t = StationTable::<()>::new();
        let a = t.alloc(());
        t.free(a);
        t.free(a);
    }

    #[test]
    fn id_at_tracks_occupancy() {
        let mut t = StationTable::<()>::new();
        let a = t.alloc(());
        assert_eq!(t.id_at(0), Some(a));
        t.free(a);
        assert_eq!(t.id_at(0), None);
        assert_eq!(t.id_at(7), None);
        let b = t.alloc(());
        assert_eq!(t.id_at(0), Some(b));
        assert!(!t.is_current(a));
        assert!(t.is_current(b));
    }

    #[test]
    fn lists_preserve_fifo_order_and_survivor_order_on_free() {
        let mut t = StationTable::<()>::new();
        let ids: Vec<_> = (0..4).map(|_| t.alloc(())).collect();
        for &id in &ids {
            t.enlist_old(id, BE);
        }
        // Free the middle station: survivors keep their relative order,
        // as the `retain` this replaces guaranteed.
        t.free(ids[1]);
        t.check_lists(BE);
        assert_eq!(t.retire_front_old(BE), ids[0]);
        assert_eq!(t.retire_front_old(BE), ids[2]);
        assert_eq!(t.retire_front_old(BE), ids[3]);
        assert_eq!(t.old_front(BE), None);
    }

    #[test]
    fn demote_rotate_retire_cycle() {
        let mut t = StationTable::<()>::new();
        let a = t.alloc(());
        let b = t.alloc(());
        t.enlist_new(a, BE);
        t.enlist_old(b, BE);
        assert_eq!(t.new_front(BE), Some(a));
        assert_eq!(t.old_front(BE), Some(b));
        // a demotes behind b.
        assert_eq!(t.demote_front_new(BE), a);
        assert_eq!(t.membership(a, BE), Membership::Old);
        assert_eq!(t.old_front(BE), Some(b));
        // Rotate b to the back; a surfaces.
        assert_eq!(t.rotate_front_old(BE), b);
        assert_eq!(t.old_front(BE), Some(a));
        // Retire both.
        assert_eq!(t.retire_front_old(BE), a);
        assert_eq!(t.retire_front_old(BE), b);
        assert_eq!(t.membership(b, BE), Membership::Idle);
        t.check_lists(BE);
    }

    #[test]
    fn free_unlinks_from_every_ac() {
        let mut t = StationTable::<()>::new();
        let a = t.alloc(());
        let b = t.alloc(());
        for ac in 0..QOS_LEVELS {
            t.enlist_new(a, ac);
            t.enlist_old(b, ac);
        }
        t.free(a);
        for ac in 0..QOS_LEVELS {
            t.check_lists(ac);
            assert_eq!(t.new_front(ac), None);
            assert_eq!(t.old_front(ac), Some(b));
        }
    }

    #[test]
    fn weights_and_deficits_are_per_ac() {
        let mut t = StationTable::<()>::new();
        let a = t.alloc(());
        assert_eq!(t.ac_weight(a, BE), WEIGHT_NEUTRAL);
        t.set_ac_weights(a, [1024, 256, 512, 256]);
        assert_eq!(t.ac_weight(a, 0), 1024);
        assert_eq!(t.ac_weight(a, BE), 512);
        t.set_deficit(a, BE, 300);
        t.add_deficit(a, BE, -100);
        assert_eq!(t.deficit(a, BE), 200);
        assert_eq!(t.deficit(a, 0), 0);
    }

    #[test]
    #[should_panic(expected = "airtime weight must be positive")]
    fn zero_weight_rejected() {
        let mut t = StationTable::<()>::new();
        let a = t.alloc(());
        t.set_weight(a, 0);
    }

    #[test]
    fn tid_stripe_replaces_index_arithmetic() {
        let mut t = StationTable::<()>::new();
        let a = t.alloc(());
        assert!(t.tid(a, BE).is_none());
        let tid = TidId::from_raw(a.slot() * QOS_LEVELS + BE, 0);
        t.set_tid(a, BE, tid);
        assert_eq!(t.tid(a, BE), tid);
        // Freeing clears the stripe for the next occupant.
        t.free(a);
        let b = t.alloc(());
        assert!(t.tid(b, BE).is_none());
    }

    #[test]
    fn reused_slot_starts_neutral() {
        let mut t = StationTable::<()>::new();
        let a = t.alloc(());
        t.set_weight(a, 512);
        t.set_deficit(a, BE, -5_000);
        t.enlist_new(a, BE);
        t.free(a);
        let b = t.alloc(());
        assert_eq!(b.slot(), a.slot());
        assert_eq!(t.ac_weight(b, BE), WEIGHT_NEUTRAL);
        assert_eq!(t.deficit(b, BE), 0);
        assert_eq!(t.membership(b, BE), Membership::Idle);
    }
}
