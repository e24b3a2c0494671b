//! Packet requirements and arena storage for the MAC-layer FQ structure.

pub use wifiq_codel::QueuedPacket;

/// A packet the FQ structure can schedule: CoDel-managed ([`QueuedPacket`])
/// and hashable to a flow.
///
/// The flow hash is the transport 5-tuple hash in a real stack; the
/// simulator assigns stable per-flow identifiers. The FQ structure only
/// requires that packets of one flow hash equal and different flows hash
/// (mostly) differently — hash collisions are legal and handled by the
/// TID overflow queue.
pub trait FqPacket: QueuedPacket {
    /// Stable hash of the packet's transport flow.
    fn flow_hash(&self) -> u64;
}

/// Null link in a packet arena's intrusive lists.
const NIL: u32 = u32::MAX;

/// An 8-byte generational handle to a packet stored in a [`PacketArena`].
///
/// The generation counter catches lifetime bugs structurally: a handle held
/// past its packet's removal no longer matches the slot's generation, so
/// use-after-free and double-free both panic at the arena boundary instead
/// of silently reading a recycled slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketHandle {
    index: u32,
    gen: u32,
}

impl PacketHandle {
    /// The slot index; stable for the packet's lifetime in the arena.
    #[inline]
    pub fn index(&self) -> u32 {
        self.index
    }
}

/// One arena slot: a live packet plus its generation and intrusive link.
/// `next` threads the slot into whichever singly linked list currently owns
/// it — a [`PacketFifo`] while the packet is queued, the arena's free list
/// after removal.
#[derive(Debug)]
struct Slot<P> {
    gen: u32,
    next: u32,
    payload: Option<P>,
}

/// Generational slab storage for queued packets.
///
/// All flow queues of a structure share one arena: enqueue inserts the
/// owned packet here once, every layer in between passes the 8-byte
/// [`PacketHandle`], and dequeue moves the packet back out. Slots are
/// recycled through a free list, so a steady-state workload allocates
/// nothing per packet and the whole backlog lives in one contiguous slab
/// the cache already holds — the same reasoning as the event wheel's node
/// slab.
#[derive(Debug)]
pub struct PacketArena<P> {
    slots: Vec<Slot<P>>,
    free_head: u32,
    live: usize,
}

impl<P> Default for PacketArena<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> PacketArena<P> {
    /// Creates an empty arena.
    pub fn new() -> PacketArena<P> {
        PacketArena {
            slots: Vec::new(),
            free_head: NIL,
            live: 0,
        }
    }

    /// Makes room for `additional` more slots than the arena has, so that
    /// a backlog of known bound fills one allocation instead of regrowing
    /// by doubling. Adds no slot: [`PacketArena::capacity`] is unchanged.
    pub fn reserve(&mut self, additional: usize) {
        self.slots.reserve(additional);
    }

    /// Stores a packet, returning its handle.
    pub fn insert(&mut self, pkt: P) -> PacketHandle {
        self.live += 1;
        if self.free_head != NIL {
            let index = self.free_head;
            let slot = &mut self.slots[index as usize];
            self.free_head = slot.next;
            slot.next = NIL;
            slot.payload = Some(pkt);
            PacketHandle {
                index,
                gen: slot.gen,
            }
        } else {
            let index = u32::try_from(self.slots.len()).expect("arena fits u32 indices");
            self.slots.push(Slot {
                gen: 0,
                next: NIL,
                payload: Some(pkt),
            });
            PacketHandle { index, gen: 0 }
        }
    }

    /// Removes a packet, invalidating its handle.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale — the packet was already removed
    /// (double-free) or the slot has been recycled for a newer packet
    /// (use-after-free).
    pub fn remove(&mut self, h: PacketHandle) -> P {
        let slot = &mut self.slots[h.index as usize];
        assert!(
            slot.gen == h.gen && slot.payload.is_some(),
            "stale packet handle: slot {} gen {} vs handle gen {}",
            h.index,
            slot.gen,
            h.gen
        );
        self.free_index(h.index)
    }

    /// Reads a live packet.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale (see [`PacketArena::remove`]).
    pub fn get(&self, h: PacketHandle) -> &P {
        let slot = &self.slots[h.index as usize];
        assert!(
            slot.gen == h.gen && slot.payload.is_some(),
            "stale packet handle: slot {} gen {} vs handle gen {}",
            h.index,
            slot.gen,
            h.gen
        );
        slot.payload.as_ref().expect("checked above")
    }

    /// Writes to a live packet in place.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale (see [`PacketArena::remove`]).
    pub fn get_mut(&mut self, h: PacketHandle) -> &mut P {
        let slot = &mut self.slots[h.index as usize];
        assert!(
            slot.gen == h.gen && slot.payload.is_some(),
            "stale packet handle: slot {} gen {} vs handle gen {}",
            h.index,
            slot.gen,
            h.gen
        );
        slot.payload.as_mut().expect("checked above")
    }

    /// Number of live packets.
    #[inline]
    pub fn live(&self) -> usize {
        self.live
    }

    /// True if no packets are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Slot capacity (live + free-listed), for capacity-reuse tests.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Frees a slot by index: bumps the generation (invalidating any
    /// outstanding handle), pushes it onto the free list, and returns the
    /// payload. Internal — callers go through [`PacketArena::remove`] or a
    /// [`PacketFifo`], which only hold live indices.
    #[inline]
    fn free_index(&mut self, index: u32) -> P {
        let free_head = self.free_head;
        let slot = &mut self.slots[index as usize];
        slot.gen = slot.gen.wrapping_add(1);
        slot.next = free_head;
        self.free_head = index;
        self.live -= 1;
        slot.payload.take().expect("freeing an empty slot")
    }
}

/// A FIFO of packets threaded intrusively through a shared [`PacketArena`].
///
/// The list itself is 12 bytes (head, tail, length); every operation takes
/// the arena explicitly, so hundreds of flow queues can share one slab with
/// no per-queue buffer. Used by the MAC FQ flow queues and the qdisc bands.
#[derive(Debug, Clone, Copy)]
pub struct PacketFifo {
    head: u32,
    tail: u32,
    len: u32,
}

impl Default for PacketFifo {
    fn default() -> Self {
        Self::new()
    }
}

impl PacketFifo {
    /// Creates an empty list.
    pub const fn new() -> PacketFifo {
        PacketFifo {
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// Appends a packet, storing it in `arena`.
    pub fn push_back<P>(&mut self, arena: &mut PacketArena<P>, pkt: P) -> PacketHandle {
        let h = arena.insert(pkt);
        if self.tail == NIL {
            self.head = h.index;
        } else {
            arena.slots[self.tail as usize].next = h.index;
        }
        self.tail = h.index;
        self.len += 1;
        h
    }

    /// Removes and returns the head packet.
    pub fn pop_front<P>(&mut self, arena: &mut PacketArena<P>) -> Option<P> {
        if self.head == NIL {
            return None;
        }
        let index = self.head;
        self.head = arena.slots[index as usize].next;
        if self.head == NIL {
            self.tail = NIL;
        }
        self.len -= 1;
        Some(arena.free_index(index))
    }

    /// The head packet, if any.
    pub fn front<'a, P>(&self, arena: &'a PacketArena<P>) -> Option<&'a P> {
        if self.head == NIL {
            return None;
        }
        arena.slots[self.head as usize].payload.as_ref()
    }

    /// Number of queued packets.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if no packets are queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates the queued packets front to back.
    pub fn iter<'a, P>(&self, arena: &'a PacketArena<P>) -> impl Iterator<Item = &'a P> + 'a {
        let mut index = self.head;
        std::iter::from_fn(move || {
            if index == NIL {
                return None;
            }
            let slot = &arena.slots[index as usize];
            index = slot.next;
            slot.payload.as_ref()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut arena = PacketArena::new();
        let a = arena.insert("a");
        let b = arena.insert("b");
        assert_eq!(arena.live(), 2);
        assert_eq!(*arena.get(a), "a");
        assert_eq!(*arena.get(b), "b");
        assert_eq!(arena.remove(a), "a");
        assert_eq!(arena.remove(b), "b");
        assert_eq!(arena.live(), 0);
        assert!(arena.is_empty());
    }

    #[test]
    fn slots_are_recycled_without_growth() {
        let mut arena = PacketArena::new();
        let handles: Vec<_> = (0..8).map(|i| arena.insert(i)).collect();
        for h in handles {
            arena.remove(h);
        }
        let cap = arena.capacity();
        for i in 0..8 {
            arena.insert(i);
        }
        assert_eq!(arena.capacity(), cap, "steady state must not grow");
        assert_eq!(arena.live(), 8);
    }

    #[test]
    #[should_panic(expected = "stale packet handle")]
    fn double_free_panics() {
        let mut arena = PacketArena::new();
        let h = arena.insert(1);
        arena.remove(h);
        arena.remove(h);
    }

    #[test]
    #[should_panic(expected = "stale packet handle")]
    fn use_after_free_panics() {
        let mut arena = PacketArena::new();
        let h = arena.insert(1);
        arena.remove(h);
        // The slot is recycled for a new packet: the old handle's
        // generation no longer matches.
        arena.insert(2);
        arena.get(h);
    }

    #[test]
    fn generations_distinguish_reused_slots() {
        let mut arena = PacketArena::new();
        let old = arena.insert("old");
        arena.remove(old);
        let new = arena.insert("new");
        assert_eq!(old.index(), new.index(), "slot should be reused");
        assert_ne!(old, new, "handles must differ across generations");
        assert_eq!(*arena.get(new), "new");
    }

    #[test]
    fn fifo_preserves_order_across_shared_arena() {
        let mut arena = PacketArena::new();
        let mut a = PacketFifo::new();
        let mut b = PacketFifo::new();
        // Interleaved pushes into two lists sharing the arena.
        for i in 0..6 {
            if i % 2 == 0 {
                a.push_back(&mut arena, i);
            } else {
                b.push_back(&mut arena, i);
            }
        }
        assert_eq!(a.len(), 3);
        assert_eq!(b.len(), 3);
        assert_eq!(a.iter(&arena).copied().collect::<Vec<_>>(), vec![0, 2, 4]);
        assert_eq!(b.front(&arena), Some(&1));
        assert_eq!(
            std::iter::from_fn(|| a.pop_front(&mut arena)).collect::<Vec<_>>(),
            vec![0, 2, 4]
        );
        assert_eq!(
            std::iter::from_fn(|| b.pop_front(&mut arena)).collect::<Vec<_>>(),
            vec![1, 3, 5]
        );
        assert_eq!(arena.live(), 0);
        assert!(a.is_empty() && b.is_empty());
    }

    #[test]
    fn fifo_pop_on_empty_is_none() {
        let mut arena: PacketArena<u32> = PacketArena::new();
        let mut q = PacketFifo::new();
        assert_eq!(q.pop_front(&mut arena), None);
        assert_eq!(q.front(&arena), None);
        q.push_back(&mut arena, 9);
        assert_eq!(q.pop_front(&mut arena), Some(9));
        assert_eq!(q.pop_front(&mut arena), None);
    }
}
