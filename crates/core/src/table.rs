//! The flat station/TID state store: one hot row per (station, QoS
//! level) and a cold payload per station slot, keyed by generational
//! handles.
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
//! - **Layout.** The fields a DRR round touches for one `(station, ac)`
//!   node — deficit, TID handle, weight, intrusive prev/next links and
//!   list membership — sit together in one 32-byte, 32-aligned `Row`,
//!   at `rows[slot][ac]`. A slot's header holds its generation and the
//!   cold per-station payload (rate, CoDel selection state, stashed
//!   frames — whatever the embedder supplies as `C`), which is `None`
//!   while the slot is vacant: the payload is the occupancy, recorded
//!   once. The DRR lists are intrusive links visited in whatever slot
//!   order the rotation has reached, so a visit is a random access, not
//!   a stripe: with one slab per field it touched one cache line per
//!   slab, with rows it touches the node's row and its slot's header.
//! - **Handles.** [`StaId`] and [`TidId`] are 8-byte generational
//!   handles (`u32` slot + `u32` generation), the same discipline as
//!   [`PacketHandle`](crate::packet::PacketHandle): freeing a slot bumps
//!   its generation, so a stale handle panics instead of silently
//!   addressing the slot's next occupant, and a station-vs-TID mixup is
//!   a type error instead of an off-by-4×.
//! - **One check per seam.** [`get`](StationTable::get) checks a handle
//!   once and lends a [`StaRef`] view of its four rows and cold payload;
//!   a station read off a scheduling list is live and needs no check.
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
//! over the rows' links: a `(station, ac)` node is on at most one list,
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
    /// A sentinel referring to no TID; any use panics. A table row's TID
    /// until [`set_tid`](StaMut::set_tid).
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

/// One `(station, ac)` node's scheduling state: everything a DRR visit
/// reads or writes, in one 32-byte row (29 bytes of fields). The airtime
/// scheduler owns `deficit`; `weight` is written only by
/// [`set_ac_weights`](StationTable::set_ac_weights), and the links and
/// membership only by the list operations.
#[derive(Debug, Clone, Copy)]
#[repr(align(32))]
pub(crate) struct Row {
    pub(crate) deficit: i64,
    /// The MAC FQ TID registered for this (station, ac).
    tid: TidId,
    pub(crate) weight: u32,
    prev: u32,
    next: u32,
    membership: Membership,
}

impl Row {
    /// A fresh occupant's row: zero deficit, neutral weight, no TID, on
    /// no list.
    const NEUTRAL: Row = Row {
        deficit: 0,
        tid: TidId::NONE,
        weight: WEIGHT_NEUTRAL,
        prev: NIL,
        next: NIL,
        membership: Membership::Idle,
    };
}

/// A slot's header: the generation, bumped on free so stale handles
/// panic, and the cold payload of the station it hosts — `None` while
/// the slot is vacant, so the payload is the occupancy.
#[derive(Debug)]
struct Slot<C> {
    gen: u32,
    cold: Option<C>,
}

const _: () = assert!(std::mem::size_of::<Row>() == 32);
const _: () = assert!(std::mem::size_of::<Slot<()>>() <= 8);

/// One live station's four rows and cold payload, borrowed once its
/// handle was checked ([`StationTable::get`]) or read off a scheduling
/// list. Reading a field through it is a plain load.
#[derive(Debug)]
pub struct StaRef<'a, C> {
    rows: &'a [Row; QOS_LEVELS],
    /// The station's cold payload.
    pub cold: &'a C,
}

impl<C> StaRef<'_, C> {
    fn row(&self, ac: usize) -> &Row {
        assert!(ac < QOS_LEVELS, "QoS level out of range");
        &self.rows[ac]
    }

    /// The airtime deficit at QoS level `ac`.
    pub fn deficit(&self, ac: usize) -> i64 {
        self.row(ac).deficit
    }

    /// The airtime weight at QoS level `ac`.
    pub fn weight(&self, ac: usize) -> u32 {
        self.row(ac).weight
    }

    /// Which scheduling list the station is on at `ac`.
    pub fn membership(&self, ac: usize) -> Membership {
        self.row(ac).membership
    }

    /// The MAC FQ TID registered at `ac`; [`TidId::NONE`] until
    /// [`StaMut::set_tid`].
    pub fn tid(&self, ac: usize) -> TidId {
        self.row(ac).tid
    }
}

/// [`StaRef`]'s mutable form. Weights, links and membership stay
/// read-only: they change only through
/// [`StationTable::set_ac_weights`] and the list operations.
#[derive(Debug)]
pub struct StaMut<'a, C> {
    rows: &'a mut [Row; QOS_LEVELS],
    /// The station's cold payload.
    pub cold: &'a mut C,
}

impl<C> StaMut<'_, C> {
    /// The row at `ac`, for the airtime scheduler's deficit writes.
    pub(crate) fn row_mut(&mut self, ac: usize) -> &mut Row {
        assert!(ac < QOS_LEVELS, "QoS level out of range");
        &mut self.rows[ac]
    }

    /// The MAC FQ TID registered at `ac`.
    pub fn tid(&self, ac: usize) -> TidId {
        assert!(ac < QOS_LEVELS, "QoS level out of range");
        self.rows[ac].tid
    }

    /// Records the MAC FQ TID registered at `ac`.
    pub fn set_tid(&mut self, ac: usize, tid: TidId) {
        self.row_mut(ac).tid = tid;
    }
}

/// The station store: four `Row`s and one `Slot` header per slot. See
/// the module docs for the layout rationale; `C` is the embedder's cold
/// per-station payload (config, stashes, telemetry handles — anything a
/// scheduling round does not touch).
#[derive(Debug)]
pub struct StationTable<C> {
    slots: Vec<Slot<C>>,
    /// Vacated slots awaiting reuse (LIFO — most recently freed first,
    /// matching every other free list in the stack).
    free: Vec<u32>,
    /// Hot rows, `rows[slot][ac]`; node `slot × QOS_LEVELS + ac` names
    /// one on the scheduling lists.
    rows: Vec<[Row; QOS_LEVELS]>,
    lists: [AcLists; QOS_LEVELS],
}

impl<C> Default for StationTable<C> {
    fn default() -> Self {
        Self::new()
    }
}

/// Node `slot × QOS_LEVELS + ac`'s row.
#[inline]
fn node_row(rows: &mut [[Row; QOS_LEVELS]], node: u32) -> &mut Row {
    let n = node as usize;
    &mut rows[n / QOS_LEVELS][n % QOS_LEVELS]
}

/// The panic of a handle that fails its check (`gen` is its slot's, if
/// the slot exists), out of line so the check inlines at every seam.
#[cold]
#[inline(never)]
fn bad_handle(sta: StaId, gen: Option<u32>) -> ! {
    let (s, h) = (sta.idx, sta.gen);
    match gen {
        None => panic!("station handle out of range: slot {s}"),
        Some(g) => panic!("stale station handle: slot {s} gen {g} vs handle gen {h}"),
    }
}

impl<C> StationTable<C> {
    /// Creates an empty table.
    pub fn new() -> StationTable<C> {
        StationTable {
            slots: Vec::new(),
            free: Vec::new(),
            rows: Vec::new(),
            lists: [AcLists {
                ends: [ListEnds::EMPTY; 2],
            }; QOS_LEVELS],
        }
    }

    /// Creates an empty table with capacity for `n` stations.
    pub fn with_capacity(n: usize) -> StationTable<C> {
        let mut t = Self::new();
        t.slots.reserve(n);
        t.rows.reserve(n);
        t
    }

    /// Number of slots ever allocated (live + tombstoned).
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Allocates a slot for a new station, reusing the most recently
    /// vacated slot when one exists. Hot fields start neutral: zero
    /// deficit, [`WEIGHT_NEUTRAL`] weight, [`Membership::Idle`], and
    /// [`TidId::NONE`] as the TID.
    pub fn alloc(&mut self, cold: C) -> StaId {
        let idx = match self.free.pop() {
            Some(idx) => {
                let s = idx as usize;
                for row in &mut self.rows[s] {
                    debug_assert_eq!(row.membership, Membership::Idle);
                    debug_assert!(row.prev == NIL && row.next == NIL);
                    *row = Row::NEUTRAL;
                }
                let slot = &mut self.slots[s];
                debug_assert!(slot.cold.is_none(), "free-listed slot still occupied");
                slot.cold = Some(cold);
                idx
            }
            None => {
                let idx = self.slots.len() as u32;
                let cold = Some(cold);
                self.slots.push(Slot { gen: 0, cold });
                self.rows.push([Row::NEUTRAL; QOS_LEVELS]);
                idx
            }
        };
        let gen = self.slots[idx as usize].gen;
        StaId { idx, gen }
    }

    /// Frees a station slot — the single tombstone path. Unlinks the
    /// station from every QoS level's scheduling list (survivor order
    /// preserved), clears its TIDs, bumps the slot's generation (so
    /// `sta` and every copy of it go stale), parks the slot for LIFO
    /// reuse, and returns the cold payload.
    ///
    /// # Panics
    ///
    /// Panics if `sta` is stale or already freed.
    pub fn free(&mut self, sta: StaId) -> C {
        let s = sta.idx as usize;
        let slot = self.slots.get_mut(s).filter(|slot| slot.gen == sta.gen);
        let Some(cold) = slot.and_then(|slot| slot.cold.take()) else {
            bad_handle(sta, self.slots.get(s).map(|slot| slot.gen))
        };
        for ac in 0..QOS_LEVELS {
            let node = (s * QOS_LEVELS + ac) as u32;
            match self.rows[s][ac].membership {
                Membership::Idle => {}
                Membership::New => self.unlink(ac, NEW, node),
                Membership::Old => self.unlink(ac, OLD, node),
            }
            let row = &mut self.rows[s][ac];
            row.membership = Membership::Idle;
            row.tid = TidId::NONE;
        }
        let slot = &mut self.slots[s];
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(s as u32);
        cold
    }

    /// True if the handle refers to the slot's current occupant — the
    /// non-panicking probe.
    pub fn is_current(&self, sta: StaId) -> bool {
        self.slots
            .get(sta.idx as usize)
            .is_some_and(|slot| slot.cold.is_some() && slot.gen == sta.gen)
    }

    /// The current handle for `slot`, or `None` for a tombstoned or
    /// never-allocated slot.
    pub fn id_at(&self, slot: usize) -> Option<StaId> {
        Some(self.get_at(slot)?.0)
    }

    /// The station at `slot`, handle and view, or `None` for a
    /// tombstoned or never-allocated slot.
    #[inline]
    pub fn get_at(&self, slot: usize) -> Option<(StaId, StaRef<'_, C>)> {
        let Slot { gen, cold } = self.slots.get(slot)?;
        let view = StaRef {
            rows: &self.rows[slot],
            cold: cold.as_ref()?,
        };
        Some((StaId::from_raw(slot, *gen), view))
    }

    /// Live stations in slot order, handle and view.
    pub fn iter(&self) -> impl Iterator<Item = (StaId, StaRef<'_, C>)> + '_ {
        (0..self.slots()).filter_map(|s| self.get_at(s))
    }

    /// Validates a handle, as [`get`](Self::get) does, and returns its
    /// slot.
    #[inline]
    fn index(&self, sta: StaId) -> usize {
        self.get(sta);
        sta.idx as usize
    }

    /// Validates `sta` — once — and borrows its station. Panics if `sta`
    /// is out of range or stale.
    #[inline]
    pub fn get(&self, sta: StaId) -> StaRef<'_, C> {
        let s = sta.idx as usize;
        match self.slots.get(s) {
            Some(Slot {
                gen,
                cold: Some(cold),
            }) if *gen == sta.gen => StaRef {
                rows: &self.rows[s],
                cold,
            },
            slot => bad_handle(sta, slot.map(|slot| slot.gen)),
        }
    }

    /// [`get`](Self::get), mutably.
    #[inline]
    pub fn get_mut(&mut self, sta: StaId) -> StaMut<'_, C> {
        let s = sta.idx as usize;
        let slot = self.slots.get_mut(s);
        let slot_gen = slot.as_ref().map(|slot| slot.gen);
        match slot {
            Some(Slot {
                gen,
                cold: Some(cold),
            }) if *gen == sta.gen => StaMut {
                rows: &mut self.rows[s],
                cold,
            },
            _ => bad_handle(sta, slot_gen),
        }
    }

    /// Sets a station's per-QoS-level airtime weights (the compiled
    /// output of a policy tree) — the only way a weight changes.
    /// Deficits are untouched: a mid-round reweight takes effect at the
    /// next replenishment and leaves round state undisturbed.
    ///
    /// # Panics
    ///
    /// Panics if any weight is zero — a zero-weight station could never
    /// replenish its deficit and would deadlock the scheduling loop.
    pub fn set_ac_weights(&mut self, sta: StaId, weights: [u32; QOS_LEVELS]) {
        assert!(
            weights.iter().all(|&w| w > 0),
            "airtime weight must be positive"
        );
        let s = self.index(sta);
        for (row, w) in self.rows[s].iter_mut().zip(weights) {
            row.weight = w;
        }
    }

    // ---- DRR scheduling lists ----

    /// A listed node's row, for the airtime scheduler's replenishment.
    pub(crate) fn node_mut(&mut self, node: u32) -> &mut Row {
        node_row(&mut self.rows, node)
    }

    fn link_back(&mut self, ac: usize, kind: usize, node: u32) {
        let rows = &mut self.rows;
        debug_assert_eq!(node_row(rows, node).prev, NIL);
        debug_assert_eq!(node_row(rows, node).next, NIL);
        let ends = &mut self.lists[ac].ends[kind];
        if ends.tail == NIL {
            ends.head = node;
            ends.tail = node;
        } else {
            node_row(rows, node).prev = ends.tail;
            node_row(rows, ends.tail).next = node;
            ends.tail = node;
        }
    }

    fn unlink(&mut self, ac: usize, kind: usize, node: u32) {
        let rows = &mut self.rows;
        let Row {
            prev: p, next: n, ..
        } = *node_row(rows, node);
        let ends = &mut self.lists[ac].ends[kind];
        if p == NIL {
            debug_assert_eq!(ends.head, node, "unlinking node not on its list");
            ends.head = n;
        } else {
            node_row(rows, p).next = n;
        }
        if n == NIL {
            debug_assert_eq!(ends.tail, node, "unlinking node not on its list");
            ends.tail = p;
        } else {
            node_row(rows, n).prev = p;
        }
        let row = node_row(rows, node);
        row.prev = NIL;
        row.next = NIL;
    }

    /// The node at the head of list `kind` at `ac`.
    #[inline]
    fn front(&self, ac: usize, kind: usize) -> Option<u32> {
        assert!(ac < QOS_LEVELS, "QoS level out of range");
        let node = self.lists[ac].ends[kind].head;
        (node != NIL).then_some(node)
    }

    /// A listed node's station, handle and view: a node on a list is
    /// live, so there is no handle to check.
    #[inline]
    pub(crate) fn listed(&self, node: u32) -> (StaId, StaRef<'_, C>) {
        self.get_at(node as usize / QOS_LEVELS)
            .expect("tombstoned slot on a list")
    }

    /// The node at the head of `ac`'s *new* list, else of its *old*
    /// list, and whether it is the new list's — the airtime scheduler's
    /// next visit.
    #[inline]
    pub(crate) fn head(&self, ac: usize) -> Option<(u32, bool)> {
        match self.front(ac, NEW) {
            Some(node) => Some((node, true)),
            None => Some((self.front(ac, OLD)?, false)),
        }
    }

    /// Head of the *old* list at `ac`: the station whose round-robin
    /// turn it is, handle and view.
    #[inline]
    pub fn old_front(&self, ac: usize) -> Option<(StaId, StaRef<'_, C>)> {
        Some(self.listed(self.front(ac, OLD)?))
    }

    /// Appends the station to the *new* list (sparse priority), unless
    /// it is on a list at `ac` already.
    pub fn enlist_new(&mut self, sta: StaId, ac: usize) {
        self.enlist(sta, ac, NEW, Membership::New);
    }

    /// Appends the station to the *old* list (sparse optimisation
    /// disabled, or a round-robin turn), unless it is on a list at `ac`
    /// already.
    pub fn enlist_old(&mut self, sta: StaId, ac: usize) {
        self.enlist(sta, ac, OLD, Membership::Old);
    }

    fn enlist(&mut self, sta: StaId, ac: usize, kind: usize, to: Membership) {
        assert!(ac < QOS_LEVELS, "QoS level out of range");
        let s = self.index(sta);
        let row = &mut self.rows[s][ac];
        if row.membership == Membership::Idle {
            row.membership = to;
            self.link_back(ac, kind, (s * QOS_LEVELS + ac) as u32);
        }
    }

    /// Pops the head of the *new* list and appends it to the *old* list
    /// (deficit-exhausted rotation, or the anti-gaming demotion of an
    /// emptied sparse station). Returns the rotated station.
    pub fn demote_front_new(&mut self, ac: usize) -> StaId {
        let n = self.front(ac, NEW).expect("demote from empty new list");
        self.unlink(ac, NEW, n);
        node_row(&mut self.rows, n).membership = Membership::Old;
        self.link_back(ac, OLD, n);
        self.listed(n).0
    }

    /// Rotates the head of the *old* list to its tail
    /// (deficit-exhausted rotation). Returns the rotated station.
    pub fn rotate_front_old(&mut self, ac: usize) -> StaId {
        let n = self.front(ac, OLD).expect("rotate on empty old list");
        self.unlink(ac, OLD, n);
        self.link_back(ac, OLD, n);
        self.listed(n).0
    }

    /// Pops the head of the *old* list and marks it idle (an emptied
    /// station leaves the rotation). Returns the retired station.
    pub fn retire_front_old(&mut self, ac: usize) -> StaId {
        let n = self.front(ac, OLD).expect("retire on empty old list");
        self.unlink(ac, OLD, n);
        node_row(&mut self.rows, n).membership = Membership::Idle;
        self.listed(n).0
    }

    /// Walks both lists at `ac` asserting link/membership consistency
    /// (tests and debug audits; O(stations)).
    pub fn check_lists(&self, ac: usize) {
        for (kind, want) in [(NEW, Membership::New), (OLD, Membership::Old)] {
            let mut node = self.lists[ac].ends[kind].head;
            let mut prev = NIL;
            while node != NIL {
                let n = node as usize;
                let row = &self.rows[n / QOS_LEVELS][n % QOS_LEVELS];
                assert_eq!(row.prev, prev, "prev link broken");
                assert_eq!(row.membership, want, "membership out of sync with list");
                assert!(
                    self.slots[n / QOS_LEVELS].cold.is_some(),
                    "tombstoned slot on a scheduling list"
                );
                prev = node;
                node = row.next;
            }
            assert_eq!(self.lists[ac].ends[kind].tail, prev, "tail out of sync");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BE: usize = 2;

    /// The handle at the head of list `kind` at `ac`.
    fn front<C>(t: &StationTable<C>, ac: usize, kind: usize) -> Option<StaId> {
        t.front(ac, kind).map(|n| t.listed(n).0)
    }

    #[test]
    fn alloc_free_reuses_lifo_with_fresh_generation() {
        let mut t = StationTable::<u32>::new();
        let a = t.alloc(10);
        let b = t.alloc(20);
        let c = t.alloc(30);
        assert_eq!((a.slot(), b.slot(), c.slot()), (0, 1, 2));
        assert_eq!(t.free(b), 20);
        assert_eq!(t.iter().count(), 2);
        let d = t.alloc(40);
        assert_eq!(d.slot(), 1, "LIFO slot reuse");
        assert_ne!(d, b, "generation distinguishes occupants");
        assert_eq!(*t.get(d).cold, 40);
        assert_eq!(t.slots(), 3);
    }

    #[test]
    #[should_panic(expected = "stale station handle")]
    fn stale_handle_panics() {
        let mut t = StationTable::<()>::new();
        let a = t.alloc(());
        t.free(a);
        let _ = t.alloc(());
        t.get(a);
    }

    #[test]
    #[should_panic(expected = "station handle out of range")]
    fn out_of_range_handle_panics() {
        let mut t = StationTable::<()>::new();
        t.alloc(());
        t.get(StaId::from_raw(3, 0));
    }

    #[test]
    #[should_panic(expected = "QoS level out of range")]
    fn out_of_range_ac_panics() {
        let mut t = StationTable::<()>::new();
        let a = t.alloc(());
        t.get(a).deficit(QOS_LEVELS);
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
        assert!(t.get_at(0).is_none());
        assert_eq!(t.id_at(7), None);
        let b = t.alloc(());
        assert_eq!(t.id_at(0), Some(b));
        assert_eq!(t.get_at(0).map(|(id, _)| id), Some(b));
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
        assert!(t.old_front(BE).is_none());
    }

    #[test]
    fn enlisting_a_listed_station_keeps_its_place() {
        let mut t = StationTable::<()>::new();
        let a = t.alloc(());
        let b = t.alloc(());
        t.enlist_new(a, BE);
        t.enlist_old(b, BE);
        t.enlist_old(a, BE);
        t.enlist_new(b, BE);
        assert_eq!(t.get(a).membership(BE), Membership::New);
        assert_eq!(t.get(b).membership(BE), Membership::Old);
        assert_eq!(front(&t, BE, NEW), Some(a));
        assert_eq!(front(&t, BE, OLD), Some(b));
        t.check_lists(BE);
    }

    #[test]
    fn demote_rotate_retire_cycle() {
        let mut t = StationTable::<()>::new();
        let a = t.alloc(());
        let b = t.alloc(());
        t.enlist_new(a, BE);
        t.enlist_old(b, BE);
        assert_eq!(front(&t, BE, NEW), Some(a));
        assert_eq!(t.old_front(BE).map(|(id, _)| id), Some(b));
        assert_eq!(
            t.head(BE).map(|(n, new)| (t.listed(n).0, new)),
            Some((a, true))
        );
        // a demotes behind b.
        assert_eq!(t.demote_front_new(BE), a);
        assert_eq!(t.get(a).membership(BE), Membership::Old);
        assert_eq!(front(&t, BE, OLD), Some(b));
        assert_eq!(
            t.head(BE).map(|(n, new)| (t.listed(n).0, new)),
            Some((b, false))
        );
        // Rotate b to the back; a surfaces.
        assert_eq!(t.rotate_front_old(BE), b);
        assert_eq!(front(&t, BE, OLD), Some(a));
        // Retire both.
        assert_eq!(t.retire_front_old(BE), a);
        assert_eq!(t.retire_front_old(BE), b);
        assert_eq!(t.get(b).membership(BE), Membership::Idle);
        assert_eq!(t.head(BE), None);
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
            assert_eq!(front(&t, ac, NEW), None);
            assert_eq!(front(&t, ac, OLD), Some(b));
        }
    }

    #[test]
    fn weights_and_deficits_are_per_ac() {
        let mut t = StationTable::<()>::new();
        let a = t.alloc(());
        assert_eq!(t.get(a).weight(BE), WEIGHT_NEUTRAL);
        t.set_ac_weights(a, [1024, 256, 512, 256]);
        assert_eq!(t.get(a).weight(0), 1024);
        assert_eq!(t.get(a).weight(BE), 512);
        let mut sta = t.get_mut(a);
        sta.row_mut(BE).deficit = 300;
        sta.row_mut(BE).deficit -= 100;
        assert_eq!(t.get(a).deficit(BE), 200);
        assert_eq!(t.get(a).deficit(0), 0);
    }

    #[test]
    #[should_panic(expected = "airtime weight must be positive")]
    fn zero_weight_rejected() {
        let mut t = StationTable::<()>::new();
        let a = t.alloc(());
        t.set_ac_weights(a, [0; QOS_LEVELS]);
    }

    #[test]
    fn tid_stripe_replaces_index_arithmetic() {
        let mut t = StationTable::<()>::new();
        let a = t.alloc(());
        assert!(t.get(a).tid(BE).is_none());
        let tid = TidId::from_raw(a.slot() * QOS_LEVELS + BE, 0);
        t.get_mut(a).set_tid(BE, tid);
        assert_eq!(t.get(a).tid(BE), tid);
        assert_eq!(t.get_mut(a).tid(BE), tid);
        // Freeing clears the TID for the next occupant.
        t.free(a);
        let b = t.alloc(());
        assert!(t.get(b).tid(BE).is_none());
    }

    #[test]
    fn reused_slot_starts_neutral() {
        let mut t = StationTable::<()>::new();
        let a = t.alloc(());
        t.set_ac_weights(a, [512; QOS_LEVELS]);
        t.get_mut(a).row_mut(BE).deficit = -5_000;
        t.enlist_new(a, BE);
        t.free(a);
        let b = t.alloc(());
        assert_eq!(b.slot(), a.slot());
        let sta = t.get(b);
        assert_eq!(sta.weight(BE), WEIGHT_NEUTRAL);
        assert_eq!(sta.deficit(BE), 0);
        assert_eq!(sta.membership(BE), Membership::Idle);
    }
}
