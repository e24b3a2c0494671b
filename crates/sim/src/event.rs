//! Time-ordered event queue with cancellation.
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

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::mem;

use crate::time::Nanos;

/// Opaque handle identifying a scheduled event, used for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

struct Entry<E> {
    time: Nanos,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Bits of the fine level 0: 4096 one-nanosecond slots, so anything
/// scheduled within ~4 µs of the clock needs no cascade at all. The fine
/// bottom level is the same asymmetry the Linux timer wheel uses (a wide
/// first ring over narrower upper rings). The simulator's own pushes are
/// not that near — wire hops, CBR gaps and exchanges are all ≥ 100 µs, so
/// they are admitted at levels 1–3 and cascade down (`census.rs`, DESIGN.md
/// §13); what level 0 buys is that a slot is exactly one timestamp.
const L0_BITS: u32 = 12;
/// Level-0 slot count.
const L0_SLOTS: usize = 1 << L0_BITS;
/// Bits per upper wheel level: 64 slots each.
const UP_BITS: u32 = 6;
/// Slots per upper level.
const UP_SLOTS: usize = 1 << UP_BITS;
/// Upper levels (1..=UP_LEVELS). Level `l` slots span `2^(12+6(l-1))` ns,
/// so the whole wheel covers a `2^42` ns ≈ 73 min block of virtual time;
/// anything scheduled beyond the current block waits in the overflow heap.
const UP_LEVELS: usize = 5;
/// Total levels including the fine level 0.
const LEVELS: usize = 1 + UP_LEVELS;
/// Shift that selects an event's top-level block.
const TOP_SHIFT: u32 = L0_BITS + UP_BITS * UP_LEVELS as u32;
/// `up_min` value for an empty slot.
const EMPTY_MIN: u64 = u64::MAX;
/// Total bucket count across all levels (level 0 buckets come first).
const BUCKETS: usize = L0_SLOTS + UP_LEVELS * UP_SLOTS;

/// Low bit position of `level`'s slot index within an event time.
#[inline]
fn level_shift(level: usize) -> u32 {
    debug_assert!(level >= 1);
    L0_BITS + UP_BITS * (level as u32 - 1)
}

/// Level at which `t` is admitted relative to `reference`: the finest level
/// whose parent window contains both. `LEVELS` or more means overflow.
#[inline]
fn level_of(t: u64, reference: u64) -> usize {
    let x = t ^ reference;
    if x == 0 {
        return 0;
    }
    let msb = 63 - x.leading_zeros();
    if msb < L0_BITS {
        0
    } else {
        1 + ((msb - L0_BITS) / UP_BITS) as usize
    }
}

/// Bucket index for `t` at `level`.
#[inline]
fn bucket_of(t: u64, level: usize) -> usize {
    if level == 0 {
        (t & (L0_SLOTS as u64 - 1)) as usize
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
    seq: u64,
    next: u32,
    payload: Option<E>,
}

/// Where pushes were admitted and what settling the minimum cost — kept
/// in this crate's test builds only, for the traffic census in DESIGN §13.
#[cfg(test)]
#[derive(Debug, Default)]
struct Census {
    /// Pushes per admission level; index `LEVELS` is the overflow heap.
    admitted: [u64; LEVELS + 1],
    /// Timestamps settled into level 0 (one per `pop` / `pop_tick`).
    settles: u64,
    /// `cascade` calls those settles made.
    cascades: u64,
    /// Nodes the cascades re-linked.
    cascaded_nodes: u64,
}

/// A deterministic, cancellable priority queue of simulation events.
///
/// Internally the queue is a hierarchical timing wheel with an asymmetric
/// geometry: a fine level 0 of 4096 one-nanosecond slots (tracked by a
/// two-tier bitmap: one summary word over 64 slot words), then five upper
/// levels of 64 slots each, where an upper-level-`l` slot spans
/// `2^(12+6(l-1))` ns. An event is admitted to the finest level whose parent
/// window contains both the event time and the clock, so anything within
/// ~4 µs of now lands directly in level 0 with no cascade ever needed, and
/// everything else is an O(1) bucket append one or more levels up.
/// Far-future events (beyond the current ~73 min top-level block) wait in
/// an overflow binary heap and migrate into the wheel when the clock
/// reaches their block.
/// Upper slots cascade toward level 0 lazily, only when the global minimum
/// lives inside them; level-0 slots span exactly 1 ns, so a slot is a
/// complete FIFO batch of one timestamp — this is what
/// [`EventQueue::pop_tick`] hands to the run loop. All level-0 residents
/// provably share one 4096 ns block (each entry's block contains the global
/// minimum), so their times are reconstructed from a single stored block
/// base and level 0 needs no per-slot minimum array. Exact (time, insertion
/// order) pop order is preserved and model-checked against the two-lane
/// heap oracle in `tests/reference/`.
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
/// let id = q.push(Nanos::from_micros(15), "cancelled");
/// q.cancel(id);
///
/// assert_eq!(q.pop(), Some((Nanos::from_micros(10), "a")));
/// assert_eq!(q.pop(), Some((Nanos::from_micros(20), "b")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    /// Node slab: every wheel-resident event lives here, threaded into its
    /// bucket's list via `next`; freed nodes are recycled through
    /// `free_head`.
    nodes: Vec<Node<E>>,
    /// Head of the free-node list inside `nodes` (`NIL` when exhausted).
    free_head: u32,
    /// Per-bucket list heads/tails (level-0 buckets first, then upper
    /// levels). Within a bucket, equal-time entries are always in insertion
    /// (seq) order: pushes append monotonically increasing seqs, and
    /// cascades prepend entries that were necessarily pushed before
    /// anything already there.
    heads: Vec<u32>,
    tails: Vec<u32>,
    /// Level-0 occupancy, tier 2: bit `w` set ⇔ `l0_words[w]` non-zero.
    l0_summary: u64,
    /// Level-0 occupancy, tier 1: bit `s` of word `w` set ⇔ slot
    /// `64w + s` non-empty.
    l0_words: [u64; L0_SLOTS / 64],
    /// High bits (`time >> 12`) shared by every level-0 resident; slot
    /// times are `(l0_block << 12) | slot`. Only meaningful while
    /// `l0_summary != 0`.
    l0_block: u64,
    /// Upper-level occupancy: bit `s` of word `l-1` set ⇔ level-`l` slot
    /// `s` non-empty.
    up_occupied: [u64; UP_LEVELS],
    /// Minimum event time per upper bucket (`EMPTY_MIN` when empty),
    /// indexed `(level-1) * 64 + slot`, so the pop path compares levels
    /// without scanning bucket contents.
    up_min: [u64; UP_LEVELS * UP_SLOTS],
    /// Events scheduled beyond the current top-level block, earliest first.
    overflow: BinaryHeap<Entry<E>>,
    /// Live entries resident in the wheel (excludes `overflow`).
    wheel_len: usize,
    /// Reusable buffer for cascade re-linking.
    scratch: Vec<u32>,
    next_seq: u64,
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
            heads: vec![NIL; BUCKETS],
            tails: vec![NIL; BUCKETS],
            l0_summary: 0,
            l0_words: [0; L0_SLOTS / 64],
            l0_block: 0,
            up_occupied: [0; UP_LEVELS],
            up_min: [EMPTY_MIN; UP_LEVELS * UP_SLOTS],
            overflow: BinaryHeap::new(),
            wheel_len: 0,
            scratch: Vec::new(),
            next_seq: 0,
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
    fn alloc_node(&mut self, time: u64, seq: u64, payload: E) -> u32 {
        if self.free_head != NIL {
            let i = self.free_head;
            let node = &mut self.nodes[i as usize];
            self.free_head = node.next;
            node.time = time;
            node.seq = seq;
            node.next = NIL;
            node.payload = Some(payload);
            i
        } else {
            let i = u32::try_from(self.nodes.len()).expect("wheel slab fits u32 indices");
            self.nodes.push(Node {
                time,
                seq,
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
            self.l0_block = t >> L0_BITS;
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
        let tail = self.tails[bucket];
        if tail == NIL {
            self.heads[bucket] = i;
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
        self.tails[bucket] = i;
    }

    /// Prepends a slab node to a bucket's list (the cascade path: cascaded
    /// entries carry smaller seqs than any equal-time resident).
    #[inline]
    fn link_front(&mut self, level: usize, bucket: usize, i: u32, t: u64) {
        let head = self.heads[bucket];
        self.nodes[i as usize].next = head;
        if head == NIL {
            self.tails[bucket] = i;
            self.mark_occupied(level, bucket, t);
        } else if level != 0 {
            let min = &mut self.up_min[bucket - L0_SLOTS];
            if t < *min {
                *min = t;
            }
        }
        self.heads[bucket] = i;
    }

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past — a scheduled event must never rewind
    /// the clock; doing so would silently corrupt causality.
    pub fn push(&mut self, at: Nanos, payload: E) -> EventId {
        assert!(
            at >= self.now,
            "event scheduled in the past: {at} < now {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let level = level_of(at.0, self.now.0);
        #[cfg(test)]
        {
            self.census.admitted[level.min(LEVELS)] += 1;
        }
        if level >= LEVELS {
            self.overflow.push(Entry {
                time: at,
                seq,
                payload,
            });
        } else {
            let i = self.alloc_node(at.0, seq, payload);
            self.link_back(level, bucket_of(at.0, level), i, at.0);
            self.wheel_len += 1;
        }
        EventId(seq)
    }

    /// Schedules `payload` to fire `delay` after the current time.
    pub fn push_after(&mut self, delay: Nanos, payload: E) -> EventId {
        let at = self.now + delay;
        self.push(at, payload)
    }

    /// Removes `id` from `bucket` if it lives there, fixing links, bitmaps
    /// and the bucket minimum.
    fn cancel_in_bucket(&mut self, level: usize, bucket: usize, id: EventId) -> bool {
        let mut prev = NIL;
        let mut i = self.heads[bucket];
        while i != NIL {
            let node = &self.nodes[i as usize];
            if node.seq != id.0 {
                prev = i;
                i = node.next;
                continue;
            }
            let next = node.next;
            let removed_time = node.time;
            if prev == NIL {
                self.heads[bucket] = next;
            } else {
                self.nodes[prev as usize].next = next;
            }
            if next == NIL {
                self.tails[bucket] = prev;
            }
            self.free_node(i);
            self.wheel_len -= 1;
            if self.heads[bucket] == NIL {
                self.clear_occupied(level, bucket);
            } else if level != 0 && removed_time == self.up_min[bucket - L0_SLOTS] {
                let mut min = EMPTY_MIN;
                let mut j = self.heads[bucket];
                while j != NIL {
                    let n = &self.nodes[j as usize];
                    min = min.min(n.time);
                    j = n.next;
                }
                self.up_min[bucket - L0_SLOTS] = min;
            }
            return true;
        }
        false
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event had not yet fired (or been cancelled).
    /// Cancellation removes the entry directly — O(live events), which is
    /// fine because the simulator's hot path never cancels — so `len()` is
    /// always exact and pops pay nothing for the capability.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let mut summary = self.l0_summary;
        while summary != 0 {
            let word = summary.trailing_zeros() as usize;
            summary &= summary - 1;
            let mut bits = self.l0_words[word];
            while bits != 0 {
                let bucket = (word << 6) | bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if self.cancel_in_bucket(0, bucket, id) {
                    return true;
                }
            }
        }
        for lm1 in 0..UP_LEVELS {
            let mut occ = self.up_occupied[lm1];
            while occ != 0 {
                let slot = occ.trailing_zeros() as usize;
                occ &= occ - 1;
                let bucket = L0_SLOTS + (lm1 << UP_BITS) + slot;
                if self.cancel_in_bucket(lm1 + 1, bucket, id) {
                    return true;
                }
            }
        }
        if self.overflow.iter().any(|e| e.seq == id.0) {
            let entries = mem::take(&mut self.overflow).into_vec();
            self.overflow = entries.into_iter().filter(|e| e.seq != id.0).collect();
            return true;
        }
        false
    }

    /// The earliest occupied (time, level, bucket), preferring the coarsest
    /// level on equal times: a coarse entry at the same timestamp was
    /// necessarily pushed earlier (its admission clock was further from the
    /// event), so it must cascade down first to keep FIFO order.
    fn best(&self) -> Option<(u64, usize, usize)> {
        let mut best: Option<(u64, usize, usize)> = None;
        if self.l0_summary != 0 {
            let word = self.l0_summary.trailing_zeros() as usize;
            let slot = (word << 6) | self.l0_words[word].trailing_zeros() as usize;
            best = Some(((self.l0_block << L0_BITS) | slot as u64, 0, slot));
        }
        // Ascending scan with `<=` so the coarsest level wins ties.
        for lm1 in 0..UP_LEVELS {
            let occ = self.up_occupied[lm1];
            if occ == 0 {
                continue;
            }
            let slot = occ.trailing_zeros() as usize;
            let min = self.up_min[(lm1 << UP_BITS) | slot];
            if best.is_none_or(|(t, _, _)| min <= t) {
                best = Some((min, lm1 + 1, L0_SLOTS + (lm1 << UP_BITS) + slot));
            }
        }
        best
    }

    /// Redistributes every entry of an upper-level slot one or more levels
    /// down, relative to the slot's own window start (all entries share it).
    ///
    /// Entries are *prepended* to their target buckets in order: anything
    /// already resident at an equal time was pushed while the clock sat
    /// inside a finer shared window — i.e. strictly later — so cascaded
    /// entries carry smaller seqs and must pop first.
    fn cascade(&mut self, level: usize, bucket: usize) {
        let shift = level_shift(level);
        #[cfg(test)]
        {
            self.census.cascades += 1;
        }
        // Singleton fast path: most cascades move one timer down.
        let head = self.heads[bucket];
        if head != NIL && self.nodes[head as usize].next == NIL {
            #[cfg(test)]
            {
                self.census.cascaded_nodes += 1;
            }
            self.heads[bucket] = NIL;
            self.tails[bucket] = NIL;
            self.clear_occupied(level, bucket);
            let t = self.nodes[head as usize].time;
            let window_start = (t >> shift) << shift;
            let child = level_of(t, window_start);
            debug_assert!(child < level, "cascade must move entries down");
            self.link_front(child, bucket_of(t, child), head, t);
            return;
        }
        let mut scratch = mem::take(&mut self.scratch);
        scratch.clear();
        let mut i = self.heads[bucket];
        while i != NIL {
            scratch.push(i);
            i = self.nodes[i as usize].next;
        }
        self.heads[bucket] = NIL;
        self.tails[bucket] = NIL;
        self.clear_occupied(level, bucket);
        #[cfg(test)]
        {
            self.census.cascaded_nodes += scratch.len() as u64;
        }
        // Reverse iteration + push-front preserves the original order at
        // the front of every target bucket.
        for &i in scratch.iter().rev() {
            let t = self.nodes[i as usize].time;
            let window_start = (t >> shift) << shift;
            let child = level_of(t, window_start);
            debug_assert!(child < level, "cascade must move entries down");
            self.link_front(child, bucket_of(t, child), i, t);
        }
        self.scratch = scratch;
    }

    /// Moves the overflow head's entire top-level block into the (empty)
    /// wheel. Heap pops arrive in (time, seq) order, so equal-time entries
    /// land in their buckets already in FIFO order.
    fn promote_overflow(&mut self) {
        let head = self.overflow.peek().expect("promote on empty overflow");
        let reference = head.time.0;
        let block = reference >> TOP_SHIFT;
        debug_assert_eq!(self.wheel_len, 0, "promote into a non-empty wheel");
        while let Some(e) = self.overflow.peek() {
            if e.time.0 >> TOP_SHIFT != block {
                break;
            }
            let entry = self.overflow.pop().expect("peeked entry");
            let t = entry.time.0;
            let level = level_of(t, reference);
            debug_assert!(level < LEVELS, "same block fits in the wheel");
            let i = self.alloc_node(t, entry.seq, entry.payload);
            self.link_back(level, bucket_of(t, level), i, t);
            self.wheel_len += 1;
        }
    }

    /// Cascades until the global minimum sits in a level-0 bucket and
    /// returns that bucket's index. Caller guarantees the queue is
    /// non-empty.
    ///
    /// Only one cross-level scan is needed: a cascade redistributes the
    /// bucket *containing* the minimum, so the minimum's time pins exactly
    /// which child bucket to settle next — no re-scan per step.
    fn settle_min(&mut self) -> usize {
        if self.wheel_len == 0 {
            self.promote_overflow();
        }
        #[cfg(test)]
        {
            self.census.settles += 1;
        }
        let (min, mut level, mut bucket) = self.best().expect("queue non-empty");
        while level > 0 {
            self.cascade(level, bucket);
            let shift = level_shift(level);
            let window_start = (min >> shift) << shift;
            level = level_of(min, window_start);
            bucket = bucket_of(min, level);
        }
        bucket
    }

    /// Pops the next pending event, advancing the virtual clock to its time.
    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        if self.is_empty() {
            return None;
        }
        let bucket = self.settle_min();
        let i = self.heads[bucket];
        let next = self.nodes[i as usize].next;
        let time = Nanos(self.nodes[i as usize].time);
        self.heads[bucket] = next;
        if next == NIL {
            self.tails[bucket] = NIL;
            let word = bucket >> 6;
            self.l0_words[word] &= !(1 << (bucket & 63));
            if self.l0_words[word] == 0 {
                self.l0_summary &= !(1 << word);
            }
        }
        let payload = self.free_node(i);
        self.wheel_len -= 1;
        debug_assert!(time >= self.now, "event queue went backwards");
        self.now = time;
        Some((time, payload))
    }

    /// Pops *all* events at the earliest pending timestamp, in FIFO order,
    /// appending their payloads to `out` — the batched same-tick dispatch
    /// path. Returns the tick's timestamp and advances the clock to it, or
    /// `None` (touching nothing) if the queue is empty or the next event
    /// fires after `until`.
    ///
    /// A level-0 bucket spans exactly 1 ns, so after cascading it *is* the
    /// complete batch: one bitmap settle per timestamp instead of one queue
    /// re-entry per event. Events the caller pushes at the same timestamp
    /// while processing the batch carry larger seqs and form the next batch.
    pub fn pop_tick(&mut self, until: Nanos, out: &mut Vec<E>) -> Option<Nanos> {
        let next = self.peek_time()?;
        if next > until {
            return None;
        }
        let bucket = self.settle_min();
        let mut i = self.heads[bucket];
        while i != NIL {
            debug_assert_eq!(
                self.nodes[i as usize].time, next.0,
                "level-0 slot spans 1 ns"
            );
            let after = self.nodes[i as usize].next;
            out.push(self.free_node(i));
            self.wheel_len -= 1;
            i = after;
        }
        self.heads[bucket] = NIL;
        self.tails[bucket] = NIL;
        self.clear_occupied(0, bucket);
        self.now = next;
        Some(next)
    }

    /// The firing time of the next live event, if any, without popping it.
    pub fn peek_time(&self) -> Option<Nanos> {
        let mut best = EMPTY_MIN;
        if self.l0_summary != 0 {
            let word = self.l0_summary.trailing_zeros() as usize;
            let slot = (word << 6) | self.l0_words[word].trailing_zeros() as usize;
            best = (self.l0_block << L0_BITS) | slot as u64;
        }
        for lm1 in 0..UP_LEVELS {
            let occ = self.up_occupied[lm1];
            if occ == 0 {
                continue;
            }
            let slot = occ.trailing_zeros() as usize;
            best = best.min(self.up_min[(lm1 << UP_BITS) | slot]);
        }
        if let Some(head) = self.overflow.peek() {
            best = best.min(head.time.0);
        }
        (best != EMPTY_MIN).then_some(Nanos(best))
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod census;

#[cfg(test)]
mod tests {
    use super::*;

    /// The MAC's events are 16 bytes (DESIGN.md §13, "Event sizes"); with
    /// time, seq and link a node must stay within three quarters of a
    /// cache line, or pushes, cascades and pops move more than they need.
    #[test]
    fn sixteen_byte_payload_node_is_at_most_48_bytes() {
        assert!(mem::size_of::<Node<[u8; 16]>>() <= 48);
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
    fn cancel_skips_event() {
        let mut q = EventQueue::new();
        let a = q.push(Nanos(10), "a");
        q.push(Nanos(20), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double-cancel reports false");
        assert_eq!(q.pop(), Some((Nanos(20), "b")));
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId(42)));
    }

    #[test]
    fn cancel_after_fire_is_false_and_harmless() {
        let mut q = EventQueue::new();
        let a = q.push(Nanos(10), 1);
        assert_eq!(q.pop(), Some((Nanos(10), 1)));
        // The event already fired: cancelling must refuse and must not
        // corrupt the live-event count.
        assert!(!q.cancel(a));
        q.push(Nanos(20), 2);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((Nanos(20), 2)));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_overflow_entry() {
        let mut q = EventQueue::new();
        let far = q.push(Nanos(1 << (TOP_SHIFT + 1)), 1);
        q.push(Nanos(10), 2);
        assert_eq!(q.len(), 2);
        assert!(q.cancel(far));
        assert!(!q.cancel(far));
        assert_eq!(q.pop(), Some((Nanos(10), 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn push_after_is_relative() {
        let mut q = EventQueue::new();
        q.push(Nanos(100), 1);
        q.pop();
        q.push_after(Nanos(50), 2);
        assert_eq!(q.pop(), Some((Nanos(150), 2)));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.push(Nanos(10), 1);
        q.push(Nanos(20), 2);
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(Nanos(20)));
        assert_eq!(q.len(), 1);
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
        // timestamp must survive whatever levels they landed on. The times
        // straddle a level-0 block boundary so "a" is admitted coarse.
        let t = Nanos(1 << (L0_BITS + 2));
        q.push(t, "a");
        q.push(Nanos(5), "x");
        q.push(t, "b");
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
        // now = 0: t differs above bit 18 → an upper level.
        let coarse_t = Nanos((1 << 18) + 5);
        q.push(coarse_t, "stale-coarse");
        // Walk the clock close to the coarse entry's window.
        q.push(Nanos(1 << 18), "step");
        assert_eq!(q.pop(), Some((Nanos(1 << 18), "step")));
        // Fresh push, later time, admitted at level 0 relative to now.
        q.push(Nanos((1 << 18) + 40), "fresh-fine");
        assert_eq!(q.pop(), Some((coarse_t, "stale-coarse")));
        assert_eq!(q.pop(), Some((Nanos((1 << 18) + 40), "fresh-fine")));
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_overflow_round_trip() {
        let mut q = EventQueue::new();
        let far_a = Nanos((1 << TOP_SHIFT) + 123);
        let far_b = Nanos((1 << TOP_SHIFT) + 123);
        let very_far = Nanos(3 << TOP_SHIFT);
        q.push(far_a, "far-a");
        q.push(very_far, "very-far");
        q.push(far_b, "far-b");
        q.push(Nanos(7), "near");
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek_time(), Some(Nanos(7)));
        assert_eq!(q.pop(), Some((Nanos(7), "near")));
        // Equal-time far events keep FIFO order across the overflow heap.
        assert_eq!(q.pop(), Some((far_a, "far-a")));
        assert_eq!(q.pop(), Some((far_b, "far-b")));
        assert_eq!(q.pop(), Some((very_far, "very-far")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancel_wheel_entry_keeps_structure_consistent() {
        let mut q = EventQueue::new();
        let a = q.push(Nanos(10), 1);
        q.push(Nanos(10), 2);
        q.push(Nanos(20), 3);
        assert!(q.cancel(a));
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Nanos(10)));
        assert_eq!(q.pop(), Some((Nanos(10), 2)));
        assert_eq!(q.pop(), Some((Nanos(20), 3)));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_upper_level_entry_keeps_structure_consistent() {
        let mut q = EventQueue::new();
        // Two entries share an upper-level slot; cancelling the earlier one
        // must recompute the slot minimum so the survivor still pops at the
        // right time relative to a level-0 entry in between.
        let a = q.push(Nanos((1 << 20) + 10), 1);
        q.push(Nanos((1 << 20) + 500), 2);
        q.push(Nanos(40), 3);
        assert!(q.cancel(a));
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Nanos(40)));
        assert_eq!(q.pop(), Some((Nanos(40), 3)));
        assert_eq!(q.pop(), Some((Nanos((1 << 20) + 500), 2)));
        assert!(q.is_empty());
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

    #[test]
    fn len_accounts_for_cancelled() {
        let mut q = EventQueue::new();
        let a = q.push(Nanos(10), 1);
        q.push(Nanos(20), 2);
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }
}
