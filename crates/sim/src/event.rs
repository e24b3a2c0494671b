//! Time-ordered event queue: push and pop, nothing else.
//!
//! The queue is the heart of the discrete-event engine: events are pushed
//! with an absolute firing time and popped in time order. Ties are broken by
//! insertion order (FIFO), which keeps runs deterministic regardless of the
//! queue's internal structure.
//!
//! Internally the queue is a hierarchical timing wheel (see `EventQueue`).
//! The two-lane binary heap it replaced lives on as the test-only oracle in
//! `tests/reference/`: the property tests model-check the wheel against it,
//! and both must produce byte-identical pop sequences.

use crate::time::Nanos;

/// Bits of a level-0 slot's width: 256 ns. The simulator's timestamps are
/// microseconds apart (9 µs backoff slots, 100 µs and longer exchanges), so
/// a slot this wide still holds one timestamp at a time almost always
/// (DESIGN.md §13), while 4096 of them span the ~1 ms the simulator
/// schedules ahead.
const L0_SLOT_BITS: u32 = 8;
/// Bits of the level-0 slot index: 4096 slots, one summary word over 64
/// occupancy words.
const L0_BITS: u32 = 12;
/// Level-0 slot count.
const L0_SLOTS: usize = 1 << L0_BITS;
/// Bits of level 0's whole span: 2^20 ns ≈ 1.05 ms. Wire hops (212 µs),
/// CBR gaps (120 µs) and exchanges (≥ 100 µs) fall inside it, so they are
/// admitted where they pop, with no cascade (`census.rs`, DESIGN.md §13).
/// The wide bottom level over narrower upper rings is the asymmetry the
/// Linux timer wheel uses.
const L0_SPAN_BITS: u32 = L0_SLOT_BITS + L0_BITS;
/// Bits per upper wheel level: 64 slots each.
const UP_BITS: u32 = 6;
/// Slots per upper level.
const UP_SLOTS: usize = 1 << UP_BITS;
/// Upper levels (1..=UP_LEVELS). Level `l` slots span `2^(20+6(l-1))` ns,
/// so level 8's slots span 2^62 ns and the wheel covers every `u64` time:
/// no event is ever too far ahead to admit.
const UP_LEVELS: usize = 8;
/// Total levels including level 0.
#[cfg(test)]
const LEVELS: usize = 1 + UP_LEVELS;
/// `up_min` value for an empty slot.
const EMPTY_MIN: u64 = u64::MAX;
/// Total bucket count across all levels (level 0 buckets come first).
const BUCKETS: usize = L0_SLOTS + UP_LEVELS * UP_SLOTS;

/// Low bit position of `level`'s slot index within an event time.
#[inline]
fn level_shift(level: usize) -> u32 {
    debug_assert!(level >= 1);
    L0_SPAN_BITS + UP_BITS * (level as u32 - 1)
}

/// Level at which `t` is admitted relative to `reference`: the finest level
/// whose parent window contains both (at most `UP_LEVELS`, for the highest
/// differing bit 63).
#[inline]
fn level_of(t: u64, reference: u64) -> usize {
    let x = t ^ reference;
    if x == 0 {
        return 0;
    }
    let msb = 63 - x.leading_zeros();
    if msb < L0_SPAN_BITS {
        0
    } else {
        1 + ((msb - L0_SPAN_BITS) / UP_BITS) as usize
    }
}

/// Bucket index for `t` at `level`.
#[inline]
fn bucket_of(t: u64, level: usize) -> usize {
    if level == 0 {
        ((t >> L0_SLOT_BITS) & (L0_SLOTS as u64 - 1)) as usize
    } else {
        L0_SLOTS
            + (level - 1) * UP_SLOTS
            + ((t >> level_shift(level)) & (UP_SLOTS as u64 - 1)) as usize
    }
}

/// Null link in the wheel's intrusive node slab.
const NIL: u32 = u32::MAX;

/// One slab node: a scheduled event threaded into its bucket's singly
/// linked list, or a free-list node awaiting reuse (`payload: None`).
/// Keeping every node in one flat `Vec` (instead of a `VecDeque` per
/// bucket) is what makes the wheel fast in practice: pushes and cascades
/// are pointer swizzles inside a single allocation the cache already
/// holds, not traffic across hundreds of separate buffers.
struct Node<E> {
    time: u64,
    next: u32,
    payload: Option<E>,
}

/// A bucket's list: first and last node (`NIL` when empty).
#[derive(Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

const EMPTY_LIST: List = List {
    head: NIL,
    tail: NIL,
};

/// Where pushes were admitted and what settling the minimum cost — kept
/// in this crate's test builds only, for the traffic census in DESIGN §13.
#[cfg(test)]
#[derive(Debug, Default)]
struct Census {
    /// Pushes per admission level.
    admitted: [u64; LEVELS],
    /// Timestamps settled into level 0 (one per `pop` / `pop_tick`).
    settles: u64,
    /// `cascade` calls those settles made.
    cascades: u64,
    /// Nodes the cascades re-linked.
    cascaded_nodes: u64,
    /// Level-0 nodes `pop_tick`'s slot walks visited, popped or left.
    walked: u64,
}

/// A deterministic priority queue of simulation events.
///
/// Internally the queue is a hierarchical timing wheel fitted to the
/// simulator's traffic: level 0 is 4096 slots of 256 ns (2^20 ns ≈ 1.05 ms
/// in all, tracked by a two-tier bitmap: one summary word over 64 slot
/// words), then eight upper levels of 64 slots each, where an
/// upper-level-`l` slot spans `2^(20+6(l-1))` ns — level 8's span covers
/// all of `u64`, so every event time has a level and the wheel holds every
/// event. An event is admitted to the finest level whose parent window
/// contains both the event time and the clock, so the wire hops, CBR gaps
/// and exchanges the simulator schedules 100–212 µs ahead mostly land in
/// level 0 and pop from the slot they were pushed to; everything else is
/// an O(1) bucket append one or more levels up.
///
/// Upper slots cascade toward level 0 lazily, only when the global minimum
/// lives inside them. A level-0 slot can hold several timestamps:
/// [`EventQueue::pop_tick`] takes the slot's nodes at its earliest time, in
/// list order, and leaves the later ones where they are. Level 0 keeps no
/// per-slot minimum: the earliest time is found by walking the slot, whose
/// worst case is 256 distinct times walked per pop, and which in the
/// simulator's traffic almost always holds one timestamp (DESIGN §13). If
/// a profile ever shows that walk, the fallback is a per-slot minimum like
/// the upper levels keep. All level-0 residents share one 2^20 ns block
/// (each entry's block contains the global minimum), so a slot never mixes
/// blocks. Exact (time, insertion order) pop order is preserved and
/// model-checked against the two-lane heap oracle in `tests/reference/`.
///
/// # Examples
///
/// ```
/// use wifiq_sim::event::EventQueue;
/// use wifiq_sim::time::Nanos;
///
/// let mut q = EventQueue::new();
/// q.push(Nanos::from_micros(20), "b");
/// q.push(Nanos::from_micros(10), "a");
/// q.push(Nanos::from_micros(20), "c");
///
/// assert_eq!(q.pop(), Some((Nanos::from_micros(10), "a")));
/// assert_eq!(q.pop(), Some((Nanos::from_micros(20), "b")));
/// assert_eq!(q.pop(), Some((Nanos::from_micros(20), "c")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    /// Node slab: every wheel-resident event lives here, threaded into its
    /// bucket's list via `next`; freed nodes are recycled through
    /// `free_head`.
    nodes: Vec<Node<E>>,
    /// Head of the free-node list inside `nodes` (`NIL` when exhausted).
    free_head: u32,
    /// Per-bucket list ends (level-0 buckets first, then upper levels),
    /// head beside tail so one cache line serves both. Within a bucket,
    /// equal-time entries are always in insertion order, so list position
    /// alone is the FIFO tie-break: pushes append, and a cascade moves a
    /// bucket's list, in order, into buckets that are empty but for it.
    lists: Vec<List>,
    /// Level-0 occupancy, tier 2: bit `w` set ⇔ `l0_words[w]` non-zero.
    l0_summary: u64,
    /// Level-0 occupancy, tier 1: bit `s` of word `w` set ⇔ slot
    /// `64w + s` non-empty.
    l0_words: [u64; L0_SLOTS / 64],
    /// Upper-level occupancy: bit `s` of word `l-1` set ⇔ level-`l` slot
    /// `s` non-empty.
    up_occupied: [u64; UP_LEVELS],
    /// Minimum event time per upper bucket (`EMPTY_MIN` when empty),
    /// indexed `(level-1) * 64 + slot`, so the pop path compares levels
    /// without scanning bucket contents.
    up_min: [u64; UP_LEVELS * UP_SLOTS],
    /// Scheduled events.
    len: usize,
    now: Nanos,
    #[cfg(test)]
    census: Census,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            nodes: Vec::new(),
            free_head: NIL,
            lists: vec![EMPTY_LIST; BUCKETS],
            l0_summary: 0,
            l0_words: [0; L0_SLOTS / 64],
            up_occupied: [0; UP_LEVELS],
            up_min: [EMPTY_MIN; UP_LEVELS * UP_SLOTS],
            len: 0,
            now: Nanos::ZERO,
            #[cfg(test)]
            census: Census::default(),
        }
    }

    /// The time of the most recently popped event (the current virtual time).
    #[inline]
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Takes a node off the free list (or grows the slab) and fills it.
    #[inline]
    fn alloc_node(&mut self, time: u64, payload: E) -> u32 {
        if self.free_head != NIL {
            let i = self.free_head;
            let node = &mut self.nodes[i as usize];
            self.free_head = node.next;
            node.time = time;
            node.next = NIL;
            node.payload = Some(payload);
            i
        } else {
            let i = u32::try_from(self.nodes.len()).expect("wheel slab fits u32 indices");
            self.nodes.push(Node {
                time,
                next: NIL,
                payload: Some(payload),
            });
            i
        }
    }

    /// Returns a node to the free list and takes its payload.
    #[inline]
    fn free_node(&mut self, i: u32) -> E {
        let free_head = self.free_head;
        let node = &mut self.nodes[i as usize];
        node.next = free_head;
        self.free_head = i;
        node.payload.take().expect("freeing a live node")
    }

    /// Records a bucket's empty → non-empty transition in the occupancy
    /// bitmaps (and, for upper levels, the per-bucket minimum).
    #[inline]
    fn mark_occupied(&mut self, level: usize, bucket: usize, t: u64) {
        if level == 0 {
            let word = bucket >> 6;
            self.l0_words[word] |= 1 << (bucket & 63);
            self.l0_summary |= 1 << word;
        } else {
            let up = bucket - L0_SLOTS;
            self.up_occupied[up >> 6] |= 1 << (up & 63);
            self.up_min[up] = t;
        }
    }

    /// Clears a bucket's occupancy bit (and upper-level minimum).
    #[inline]
    fn clear_occupied(&mut self, level: usize, bucket: usize) {
        if level == 0 {
            let word = bucket >> 6;
            self.l0_words[word] &= !(1 << (bucket & 63));
            if self.l0_words[word] == 0 {
                self.l0_summary &= !(1 << word);
            }
        } else {
            let up = bucket - L0_SLOTS;
            self.up_occupied[up >> 6] &= !(1 << (up & 63));
            self.up_min[up] = EMPTY_MIN;
        }
    }

    /// Appends a slab node to a bucket's list, maintaining bitmaps and min.
    #[inline]
    fn link_back(&mut self, level: usize, bucket: usize, i: u32, t: u64) {
        let tail = self.lists[bucket].tail;
        if tail == NIL {
            self.lists[bucket].head = i;
            self.mark_occupied(level, bucket, t);
        } else {
            self.nodes[tail as usize].next = i;
            if level != 0 {
                let min = &mut self.up_min[bucket - L0_SLOTS];
                if t < *min {
                    *min = t;
                }
            }
        }
        self.lists[bucket].tail = i;
    }

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past — a scheduled event must never rewind
    /// the clock; doing so would silently corrupt causality.
    pub fn push(&mut self, at: Nanos, payload: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: {at} < now {}",
            self.now
        );
        let level = level_of(at.0, self.now.0);
        #[cfg(test)]
        {
            self.census.admitted[level] += 1;
        }
        let i = self.alloc_node(at.0, payload);
        self.link_back(level, bucket_of(at.0, level), i, at.0);
        self.len += 1;
    }

    /// The earliest time in a non-empty level-0 slot: a walk of its list.
    #[inline]
    fn slot_min(&self, slot: usize) -> u64 {
        let mut min = EMPTY_MIN;
        let mut i = self.lists[slot].head;
        while i != NIL {
            let node = &self.nodes[i as usize];
            min = min.min(node.time);
            i = node.next;
        }
        min
    }

    /// The wheel's earliest occupied (time, level, bucket).
    ///
    /// Every resident sits at `level_of(time, now)`: a push is admitted
    /// there, and the clock only moves to a minimum just settled, which
    /// cascaded every bucket on its path. So each level's events lie
    /// strictly after every finer level's, and the first occupied level
    /// holds the minimum — in its first occupied slot, since a level's
    /// slots do not wrap within the window it shares with the clock.
    fn best(&self) -> Option<(u64, usize, usize)> {
        let best = if self.l0_summary != 0 {
            let word = self.l0_summary.trailing_zeros() as usize;
            let slot = (word << 6) | self.l0_words[word].trailing_zeros() as usize;
            (self.slot_min(slot), 0, slot)
        } else {
            let lm1 = self.up_occupied.iter().position(|&occ| occ != 0)?;
            let slot = self.up_occupied[lm1].trailing_zeros() as usize;
            let up = (lm1 << UP_BITS) | slot;
            (self.up_min[up], lm1 + 1, L0_SLOTS + up)
        };
        debug_assert!(
            (best.1..UP_LEVELS).all(|lm1| {
                let occ = self.up_occupied[lm1];
                occ == 0 || self.up_min[(lm1 << UP_BITS) | occ.trailing_zeros() as usize] > best.0
            }),
            "a coarser level holds an event no later than the minimum"
        );
        Some(best)
    }

    /// Redistributes every entry of an upper-level slot one or more levels
    /// down, relative to the slot's own window start (all entries share it).
    ///
    /// Settling cascades only the bucket holding the minimum, and nothing
    /// lies at a finer level then (`best`), so entries are appended to
    /// buckets that hold nothing but this cascade's earlier entries: each
    /// bucket keeps its source's order, which is push order.
    fn cascade(&mut self, level: usize, bucket: usize) {
        debug_assert!(
            self.l0_summary == 0 && self.up_occupied[..level - 1].iter().all(|&occ| occ == 0),
            "cascade into a non-empty finer level"
        );
        #[cfg(test)]
        {
            self.census.cascades += 1;
        }
        let shift = level_shift(level);
        let mut i = self.lists[bucket].head;
        self.lists[bucket] = EMPTY_LIST;
        self.clear_occupied(level, bucket);
        while i != NIL {
            #[cfg(test)]
            {
                self.census.cascaded_nodes += 1;
            }
            let node = &mut self.nodes[i as usize];
            let (t, next) = (node.time, node.next);
            node.next = NIL;
            let window_start = (t >> shift) << shift;
            let child = level_of(t, window_start);
            debug_assert!(child < level, "cascade must move entries down");
            self.link_back(child, bucket_of(t, child), i, t);
            i = next;
        }
    }

    /// Finds the earliest pending time and, if it is due by `until`,
    /// cascades until it sits in a level-0 slot: returns (time, slot), or
    /// `None` having touched nothing.
    ///
    /// One look for the minimum serves the refusal and the settle: a
    /// cascade redistributes the bucket *containing* the minimum, so the
    /// minimum's time pins exactly which child bucket to settle next.
    fn settle(&mut self, until: u64) -> Option<(u64, usize)> {
        let (min, mut level, mut bucket) = self.best()?;
        if min > until {
            return None;
        }
        #[cfg(test)]
        {
            self.census.settles += 1;
        }
        while level > 0 {
            self.cascade(level, bucket);
            let shift = level_shift(level);
            let window_start = (min >> shift) << shift;
            level = level_of(min, window_start);
            bucket = bucket_of(min, level);
        }
        Some((min, bucket))
    }

    /// Unlinks node `i` from level-0 slot `slot`, where it follows `prev`
    /// (`NIL` if `i` is the head), and takes its payload.
    #[inline]
    fn unlink(&mut self, slot: usize, prev: u32, i: u32) -> E {
        let next = self.nodes[i as usize].next;
        if prev == NIL {
            self.lists[slot].head = next;
        } else {
            self.nodes[prev as usize].next = next;
        }
        if next == NIL {
            self.lists[slot].tail = prev;
            if prev == NIL {
                self.clear_occupied(0, slot);
            }
        }
        self.len -= 1;
        self.free_node(i)
    }

    /// Pops the next pending event, advancing the virtual clock to its time.
    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        let (time, slot) = self.settle(u64::MAX)?;
        // The slot's first node at `time` is the earliest pushed.
        let (mut prev, mut i) = (NIL, self.lists[slot].head);
        while self.nodes[i as usize].time != time {
            prev = i;
            i = self.nodes[i as usize].next;
        }
        let payload = self.unlink(slot, prev, i);
        debug_assert!(time >= self.now.0, "event queue went backwards");
        self.now = Nanos(time);
        Some((self.now, payload))
    }

    /// Pops *all* events at the earliest pending timestamp, in FIFO order,
    /// appending their payloads to `out` — the batched same-tick dispatch
    /// path. Returns the tick's timestamp and advances the clock to it, or
    /// `None` (touching nothing) if the queue is empty or the next event
    /// fires after `until`.
    ///
    /// After settling, the tick's events are the level-0 slot's nodes at
    /// that time, in list order: one settle per timestamp instead of one
    /// queue re-entry per event. Later timestamps sharing the slot stay in
    /// it. Events the caller pushes at the same timestamp while processing
    /// the batch are appended behind it and form the next batch.
    pub fn pop_tick(&mut self, until: Nanos, out: &mut Vec<E>) -> Option<Nanos> {
        let (time, slot) = self.settle(until.0)?;
        let (mut prev, mut i) = (NIL, self.lists[slot].head);
        while i != NIL {
            #[cfg(test)]
            {
                self.census.walked += 1;
            }
            let next = self.nodes[i as usize].next;
            if self.nodes[i as usize].time == time {
                out.push(self.unlink(slot, prev, i));
            } else {
                prev = i;
            }
            i = next;
        }
        self.now = Nanos(time);
        Some(self.now)
    }

    /// The firing time of the next event, if any, without popping it.
    pub fn peek_time(&self) -> Option<Nanos> {
        self.best().map(|(t, _, _)| Nanos(t))
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod census;

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem;

    /// The MAC's events are 16 bytes (DESIGN.md §13, "Event sizes"); with
    /// time and link a node must stay within half a cache line, or pushes,
    /// cascades and pops move more than they need. A per-node field added
    /// back (a sequence number, say) fails this.
    #[test]
    fn sixteen_byte_payload_node_is_at_most_32_bytes() {
        assert!(mem::size_of::<Node<[u8; 16]>>() <= 32);
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Nanos(30), 3);
        q.push(Nanos(10), 1);
        q.push(Nanos(20), 2);
        assert_eq!(q.pop(), Some((Nanos(10), 1)));
        assert_eq!(q.pop(), Some((Nanos(20), 2)));
        assert_eq!(q.pop(), Some((Nanos(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Nanos(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Nanos(5), i)));
        }
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.push(Nanos(100), ());
        assert_eq!(q.now(), Nanos::ZERO);
        q.pop();
        assert_eq!(q.now(), Nanos(100));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn push_in_past_panics() {
        let mut q = EventQueue::new();
        q.push(Nanos(100), ());
        q.pop();
        q.push(Nanos(50), ());
    }

    #[test]
    fn monotonic_chain_stays_ordered() {
        // The common fast path: each handler schedules the next event in
        // time order, interleaved with pops.
        let mut q = EventQueue::new();
        q.push(Nanos(10), 0);
        for i in 1..200u64 {
            let (t, got) = q.pop().unwrap();
            assert_eq!(got, i - 1);
            // Same-timestamp chain every 4th event, else strictly later.
            let at = if i % 4 == 0 { t } else { t + Nanos(7) };
            q.push(at, i);
        }
        assert_eq!(q.pop().map(|(_, v)| v), Some(199));
        assert!(q.is_empty());
    }

    #[test]
    fn out_of_order_push_spills_front_lane() {
        let mut q = EventQueue::new();
        // The pattern that forced the old front lane to spill: later events
        // queued first, then an earlier one must still pop first.
        q.push(Nanos(50), "lane1");
        q.push(Nanos(60), "lane2");
        q.push(Nanos(10), "early");
        q.push(Nanos(55), "mid");
        assert_eq!(q.pop(), Some((Nanos(10), "early")));
        assert_eq!(q.pop(), Some((Nanos(50), "lane1")));
        assert_eq!(q.pop(), Some((Nanos(55), "mid")));
        assert_eq!(q.pop(), Some((Nanos(60), "lane2")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_time_fifo_across_admission_levels() {
        let mut q = EventQueue::new();
        // "a" and "b" straddle an out-of-order push; FIFO at the shared
        // timestamp must survive whatever levels they landed on. The time
        // lies beyond level 0's span so both are admitted coarse.
        let t = Nanos(1 << (L0_SPAN_BITS + 2));
        q.push(t, "a");
        q.push(Nanos(5), "x");
        q.push(t, "b");
        assert_eq!(q.census.admitted[..2], [1, 2], "x fine, a and b coarse");
        assert_eq!(q.pop(), Some((Nanos(5), "x")));
        assert_eq!(q.pop(), Some((t, "a")));
        assert_eq!(q.pop(), Some((t, "b")));
    }

    #[test]
    fn stale_coarse_entry_still_pops_before_fresh_fine_entry() {
        // Regression guard for the classic wheel hazard: an event admitted
        // long ago sits at a coarse level while the clock advances into its
        // window; a *later* event pushed nearby then lands at level 0. The
        // stale coarse entry has the earlier time and must still win.
        let mut q = EventQueue::new();
        // now = 0: both times differ from it at bit `L0_SPAN_BITS +
        // UP_BITS`, so both are admitted at level 2, in one bucket.
        let window = 1 << (L0_SPAN_BITS + UP_BITS);
        let coarse_t = Nanos(window + 5);
        q.push(coarse_t, "stale-coarse");
        // Walk the clock into the coarse entry's window.
        q.push(Nanos(window), "step");
        assert_eq!(q.census.admitted[2], 2);
        assert_eq!(q.pop(), Some((Nanos(window), "step")));
        // Fresh push, later time, admitted at level 0 relative to now.
        q.push(Nanos(window + 40), "fresh-fine");
        assert_eq!(q.census.admitted[0], 1);
        assert_eq!(q.pop(), Some((coarse_t, "stale-coarse")));
        assert_eq!(q.pop(), Some((Nanos(window + 40), "fresh-fine")));
        assert!(q.is_empty());
    }

    /// The push arms of `oracle_op_strategy` in `tests/proptest_queue.rs`,
    /// restated: at clock 0 every delta of an arm is admitted at the arm's
    /// level, so the oracle reaches every level.
    #[test]
    fn oracle_arms_reach_every_level() {
        let arms: [(u64, u64, usize); 11] = [
            (0, 1, 0),
            (1, 256, 0),
            (256, 1 << 20, 0),
            (1 << 20, 1 << 26, 1),
            (1 << 26, 1 << 32, 2),
            (1 << 32, 1 << 38, 3),
            (1 << 38, 1 << 44, 4),
            (1 << 44, 1 << 50, 5),
            (1 << 50, 1 << 56, 6),
            (1 << 56, 1 << 62, 7),
            (1 << 62, u64::MAX, 8),
        ];
        let mut q = EventQueue::new();
        let mut expected = [0; LEVELS];
        for (lo, hi, level) in arms {
            q.push(Nanos(lo), ());
            q.push(Nanos(hi - 1), ());
            expected[level] += 2;
        }
        assert_eq!(q.census.admitted, expected);
        assert!(expected.iter().all(|&n| n > 0));
    }

    #[test]
    fn far_future_round_trip() {
        let mut q = EventQueue::new();
        let far_a = Nanos((1 << 50) + 123);
        let far_b = Nanos((1 << 50) + 123);
        let very_far = Nanos(3 << 50);
        let end = Nanos(u64::MAX);
        q.push(far_a, "far-a");
        q.push(end, "end");
        q.push(very_far, "very-far");
        q.push(far_b, "far-b");
        q.push(Nanos(7), "near");
        assert_eq!(q.len(), 5);
        assert_eq!(q.peek_time(), Some(Nanos(7)));
        assert_eq!(q.pop(), Some((Nanos(7), "near")));
        // Equal-time far events keep FIFO order through the coarse levels.
        assert_eq!(q.pop(), Some((far_a, "far-a")));
        assert_eq!(q.pop(), Some((far_b, "far-b")));
        assert_eq!(q.pop(), Some((very_far, "very-far")));
        assert_eq!(q.peek_time(), Some(end));
        assert_eq!(q.pop(), Some((end, "end")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_tick_batches_one_timestamp() {
        let mut q = EventQueue::new();
        q.push(Nanos(10), 1);
        q.push(Nanos(10), 2);
        q.push(Nanos(10), 3);
        q.push(Nanos(20), 4);
        let mut batch = Vec::new();
        assert_eq!(q.pop_tick(Nanos(100), &mut batch), Some(Nanos(10)));
        assert_eq!(batch, vec![1, 2, 3]);
        assert_eq!(q.now(), Nanos(10));
        batch.clear();
        assert_eq!(q.pop_tick(Nanos(15), &mut batch), None, "beyond until");
        assert!(batch.is_empty());
        assert_eq!(q.now(), Nanos(10), "refused tick leaves the clock alone");
        assert_eq!(q.pop_tick(Nanos(20), &mut batch), Some(Nanos(20)));
        assert_eq!(batch, vec![4]);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_tick_same_tick_repush_forms_next_batch() {
        let mut q = EventQueue::new();
        q.push(Nanos(10), 1);
        let mut batch = Vec::new();
        assert_eq!(q.pop_tick(Nanos(100), &mut batch), Some(Nanos(10)));
        assert_eq!(batch, vec![1]);
        // A handler reacting to the batch schedules more work at the same
        // timestamp: it must form a *new* batch, after the current one.
        q.push(Nanos(10), 2);
        q.push(Nanos(10), 3);
        batch.clear();
        assert_eq!(q.pop_tick(Nanos(100), &mut batch), Some(Nanos(10)));
        assert_eq!(batch, vec![2, 3]);
        assert!(q.is_empty());
    }
}
