//! The 802.11 MAC-layer fairness-queueing structure — Algorithms 1 and 2
//! of the paper.
//!
//! A fixed pool of flow queues is shared by *all* TIDs: a packet is hashed
//! to a queue, and the queue is dynamically assigned to the packet's TID.
//! If the hash lands on a queue already owned by a different TID, the
//! packet goes to the TID's dedicated overflow queue instead. A global
//! packet limit is enforced by dropping from the globally longest queue,
//! which is what shares the buffer space fairly between stations on
//! overload — the fix for the aggregation starvation described in §4.1.2.
//!
//! Dequeue (per TID) is the FQ-CoDel scheduler: deficit round-robin over
//! the TID's active queues with new-queue (sparse flow) priority, CoDel
//! applied per queue.

use std::collections::VecDeque;

use wifiq_codel::{CodelParams, CodelQueue, CodelState, CodelTele, QueuedPacket};
use wifiq_sim::Nanos;
use wifiq_telemetry::{CounterId, DropReason, EventKind, GaugeId, HistId, Label, Telemetry};

use crate::packet::{FqPacket, PacketArena, PacketFifo};
use crate::table::TidId;

/// Sentinel for "this flow is not in the backlog heap".
const NOT_IN_HEAP: usize = usize::MAX;

/// What to do when the global packet limit is hit (Algorithm 1
/// lines 2–4 vs the naive alternative).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DropPolicy {
    /// Drop from the head of the globally longest queue — the paper's
    /// choice, which "prevents a single flow from locking out other
    /// flows on overload".
    #[default]
    DropLongest,
    /// Reject the arriving packet (plain tail drop) — the ablation
    /// baseline, under which one unresponsive flow can monopolise the
    /// entire packet budget.
    TailDrop,
}

/// Configuration for the MAC FQ structure.
#[derive(Debug, Clone, Copy)]
pub struct FqParams {
    /// Number of shared hash-target flow queues (not counting the per-TID
    /// overflow queues).
    pub flows: usize,
    /// Global packet limit across all queues (the "8192 (global limit)" in
    /// the paper's Figure 3).
    pub limit: usize,
    /// DRR quantum in bytes; controls the granularity of inter-flow
    /// fairness (one MTU-sized packet per round at the default).
    pub quantum: u32,
    /// Overlimit behaviour.
    pub drop_policy: DropPolicy,
}

impl Default for FqParams {
    fn default() -> Self {
        FqParams {
            flows: 1024,
            limit: 8192,
            quantum: 300,
            drop_policy: DropPolicy::DropLongest,
        }
    }
}

/// Which scheduling list a flow queue currently sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Membership {
    /// Not scheduled (empty / unassigned).
    Idle,
    /// On its TID's new-queues list (sparse-flow priority).
    New,
    /// On its TID's old-queues list.
    Old,
}

#[derive(Debug)]
struct Flow {
    /// The flow's packets, threaded through [`MacFq`]'s shared arena — the
    /// list head/tail/len is 12 bytes; no per-flow buffer exists.
    queue: PacketFifo,
    backlog_bytes: u64,
    deficit: i64,
    codel: CodelState,
    /// The TID this queue is currently assigned to, if any.
    tid: Option<usize>,
    membership: Membership,
    /// This flow's slot in [`MacFq::heap`], or [`NOT_IN_HEAP`] while the
    /// queue is empty — the intrusive index that makes longest-queue
    /// lookup O(1) and membership updates O(log n).
    heap_pos: usize,
}

impl Flow {
    fn new() -> Flow {
        Flow {
            queue: PacketFifo::new(),
            backlog_bytes: 0,
            deficit: 0,
            codel: CodelState::new(),
            tid: None,
            membership: Membership::Idle,
            heap_pos: NOT_IN_HEAP,
        }
    }
}

/// Adapter giving CoDel a head-droppable view of one arena-backed flow
/// queue.
struct FlowQueueRef<'a, P> {
    arena: &'a mut PacketArena<P>,
    queue: &'a mut PacketFifo,
    backlog_bytes: &'a mut u64,
}

impl<P: QueuedPacket> CodelQueue for FlowQueueRef<'_, P> {
    type Packet = P;

    fn pop_head(&mut self) -> Option<P> {
        let pkt = self.queue.pop_front(self.arena)?;
        *self.backlog_bytes -= pkt.wire_len();
        Some(pkt)
    }

    fn backlog_bytes(&self) -> u64 {
        *self.backlog_bytes
    }
}

/// Pre-resolved per-TID telemetry instruments: recorder ids in
/// [`MacFq`]'s hub. Resolved once at registration (or
/// [`MacFq::set_telemetry`]) so the per-packet paths pay no
/// `(component, metric, label)` lookups; scratch ids when telemetry is
/// off.
#[derive(Debug, Default)]
struct TidTele {
    enqueued: CounterId,
    collisions: CounterId,
    drr_rounds: CounterId,
    sparse_hits: CounterId,
    victims: CounterId,
    codel: CodelTele,
}

impl TidTele {
    fn resolve(tele: &Telemetry, component: &'static str, ti: usize) -> TidTele {
        let label = Label::Tid(ti as u32);
        TidTele {
            enqueued: tele.counter_id(component, "enqueued", label),
            collisions: tele.counter_id(component, "hash_collisions", label),
            drr_rounds: tele.counter_id(component, "drr_rounds", label),
            sparse_hits: tele.counter_id(component, "sparse_hits", label),
            victims: tele.counter_id(component, "drop_longest_victims", label),
            codel: CodelTele::resolve(tele, component, label),
        }
    }
}

/// Pre-resolved structure-wide instruments (see [`TidTele`]).
#[derive(Debug, Default)]
struct FqTele {
    occupancy_gauge: GaugeId,
    occupancy_hist: HistId,
    drops_overlimit: CounterId,
    /// Overlimit victims taken from a flow no TID owns.
    orphan_victims: CounterId,
}

impl FqTele {
    fn resolve(tele: &Telemetry, component: &'static str) -> FqTele {
        FqTele {
            occupancy_gauge: tele.gauge_id(component, "occupancy_packets", Label::Global),
            occupancy_hist: tele.hist_id(component, "occupancy_packets", Label::Global),
            drops_overlimit: tele.counter_id(component, "drops_overlimit", Label::Global),
            orphan_victims: tele.counter_id(component, "drop_longest_victims", Label::Global),
        }
    }
}

#[derive(Debug, Default)]
struct TidState {
    new_flows: VecDeque<usize>,
    old_flows: VecDeque<usize>,
    /// Index of this TID's dedicated overflow queue in the flow pool.
    overflow_flow: usize,
    backlog_packets: usize,
    backlog_bytes: u64,
    /// False once the TID has been detached; the slot (and its overflow
    /// queue) is parked on the free list until the next `register_tid`.
    registered: bool,
    /// Slot generation, bumped at detach: a [`TidId`] issued before the
    /// detach no longer matches and panics at first use instead of
    /// addressing the slot's next occupant.
    gen: u32,
    /// The ids survive detach/reattach — the slot index (and therefore the
    /// `Tid` label) is stable, so a churning roster resolves each
    /// instrument once, not once per join.
    tele: TidTele,
}

/// Counters exposed for tests and experiment telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FqStats {
    /// Packets accepted by [`MacFq::enqueue`].
    pub enqueued: u64,
    /// Packets delivered by [`MacFq::dequeue`].
    pub dequeued: u64,
    /// Packets dropped because the global limit was reached.
    pub drops_overlimit: u64,
    /// Packets dropped by CoDel at dequeue.
    pub drops_codel: u64,
    /// Packets redirected to an overflow queue by a cross-TID hash
    /// collision.
    pub collisions: u64,
    /// Packets discarded because their TID was detached
    /// ([`MacFq::unregister_tid`]) while they were still queued.
    pub drops_detached: u64,
    /// Packets handed back intact by [`MacFq::unregister_tid_migrate`]
    /// (an inter-BSS hand-off carrying queued flow state to the target).
    pub migrated_out: u64,
}

/// The MAC-layer FQ-CoDel structure (paper Algorithms 1 and 2).
///
/// Generic over the packet type so the same structure serves the simulator
/// and unit tests. The caller supplies the clock (`now`) and the CoDel
/// parameters to use per dequeue — parameters are per *station* (paper
/// §3.1.1) and the station is known to the caller, not to this structure.
///
/// # Examples
///
/// ```
/// use wifiq_core::fq::{FqParams, MacFq};
/// use wifiq_core::packet::{FqPacket, QueuedPacket};
/// use wifiq_codel::CodelParams;
/// use wifiq_sim::Nanos;
///
/// #[derive(Debug)]
/// struct Pkt { flow: u64, t: Nanos }
/// impl QueuedPacket for Pkt {
///     fn enqueue_time(&self) -> Nanos { self.t }
///     fn wire_len(&self) -> u64 { 1500 }
/// }
/// impl FqPacket for Pkt {
///     fn flow_hash(&self) -> u64 { self.flow }
/// }
///
/// let mut fq = MacFq::new(FqParams::default());
/// let tid = fq.register_tid();
/// let now = Nanos::ZERO;
/// fq.enqueue(Pkt { flow: 1, t: now }, tid, now);
/// let pkt = fq.dequeue(tid, now, &CodelParams::wifi_default());
/// assert!(pkt.is_some());
/// ```
#[derive(Debug)]
pub struct MacFq<P> {
    params: FqParams,
    /// Shared packet storage: every queued packet lives here exactly once;
    /// flow queues are intrusive lists of 4-byte slot links.
    arena: PacketArena<P>,
    flows: Vec<Flow>,
    tids: Vec<TidState>,
    /// Indices of flows that currently hold packets, arranged as a binary
    /// max-heap on `backlog_bytes` with each flow's slot stored
    /// intrusively in [`Flow::heap_pos`] — the longest queue is the root
    /// (O(1)) and any backlog change re-heapifies in O(log n).
    heap: Vec<usize>,
    /// Detached TID slots awaiting reuse (LIFO), each keeping its
    /// dedicated overflow queue so churn does not grow the flow pool.
    free_tids: Vec<usize>,
    total_packets: usize,
    /// Telemetry counters.
    pub stats: FqStats,
    tele: Telemetry,
    /// Pre-resolved structure-wide instruments.
    fq_tele: FqTele,
    /// Names this instance in metric keys ("fq" at the AP; the client-side
    /// structure uses "client_fq").
    component: &'static str,
    /// `flows - 1` when the pool size is a power of two, letting the
    /// enqueue path replace the hash modulo with a mask.
    hash_mask: Option<u64>,
}

impl<P: FqPacket> MacFq<P> {
    /// Creates the structure with the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if `flows` or `limit` is zero.
    pub fn new(params: FqParams) -> MacFq<P> {
        assert!(params.flows > 0, "flow pool must be non-empty");
        assert!(params.limit > 0, "global limit must be positive");
        MacFq {
            params,
            arena: PacketArena::new(),
            flows: (0..params.flows).map(|_| Flow::new()).collect(),
            tids: Vec::new(),
            heap: Vec::new(),
            free_tids: Vec::new(),
            total_packets: 0,
            stats: FqStats::default(),
            tele: Telemetry::disabled(),
            fq_tele: FqTele::default(),
            component: "fq",
            hash_mask: params
                .flows
                .is_power_of_two()
                .then(|| params.flows as u64 - 1),
        }
    }

    /// Attaches a telemetry handle; `component` names this instance in
    /// metric keys and events (e.g. "fq" at the AP, "client_fq" on a
    /// station). A disabled handle keeps the hot path unchanged.
    pub fn set_telemetry(&mut self, tele: Telemetry, component: &'static str) {
        self.tele = tele;
        self.component = component;
        // Re-resolve every instrument against the new hub — including
        // parked (detached) slots, whose ids would otherwise index the old
        // hub's table after a reattach.
        self.fq_tele = FqTele::resolve(&self.tele, component);
        for ti in 0..self.tids.len() {
            self.tids[ti].tele = TidTele::resolve(&self.tele, component, ti);
        }
    }

    /// Registers a TID (one station × traffic-identifier pair), allocating
    /// its dedicated overflow queue. A slot freed by
    /// [`MacFq::unregister_tid`] is reused (most recently freed first)
    /// together with its overflow queue, so a churning roster does not
    /// grow the flow pool without bound.
    pub fn register_tid(&mut self) -> TidId {
        if let Some(idx) = self.free_tids.pop() {
            // Revive the slot in place: the DRR list deques (emptied but
            // not shrunk by `unregister_tid`) and the resolved telemetry
            // ids are kept, so a detach/reattach cycle allocates
            // nothing. The generation was bumped at detach, so the
            // revived handle is distinct from the previous occupant's.
            let t = &mut self.tids[idx];
            debug_assert!(!t.registered, "free-listed TID still registered");
            debug_assert!(
                t.new_flows.is_empty() && t.old_flows.is_empty(),
                "detached TID kept flows scheduled"
            );
            t.backlog_packets = 0;
            t.backlog_bytes = 0;
            t.registered = true;
            return TidId::from_raw(idx, t.gen);
        }
        let overflow = self.flows.len();
        self.flows.push(Flow::new());
        let idx = self.tids.len();
        self.tids.push(TidState {
            overflow_flow: overflow,
            registered: true,
            tele: TidTele::resolve(&self.tele, self.component, idx),
            ..TidState::default()
        });
        TidId::from_raw(idx, 0)
    }

    /// Validates a handle against the slot's current generation and
    /// returns the slot index.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range slot (`unregistered TID handle`), a
    /// handle from before the slot's last detach (`stale TID handle`),
    /// or a parked slot (`detached TID handle`).
    #[inline]
    fn tid_slot(&self, tid: TidId) -> usize {
        let ti = tid.slot();
        assert!(ti < self.tids.len(), "unregistered TID handle");
        let t = &self.tids[ti];
        assert!(
            t.gen == tid.generation(),
            "stale TID handle: slot {} gen {} vs handle gen {}",
            ti,
            t.gen,
            tid.generation()
        );
        assert!(t.registered, "detached TID handle");
        ti
    }

    /// Detaches a TID, discarding its queued packets and returning its
    /// flow queues to the shared pool — the departure half of station
    /// churn. Returns the number of packets discarded (they leave the
    /// global count and are recorded as `drops_detached`).
    ///
    /// The slot (and its dedicated overflow queue) is parked for reuse by
    /// the next [`MacFq::register_tid`]; the handle must not be used again
    /// until then.
    ///
    /// # Panics
    ///
    /// Panics if the handle is unregistered or already detached.
    pub fn unregister_tid(&mut self, tid: TidId, now: Nanos) -> usize {
        let ti = tid.slot();
        let (dropped, dropped_bytes) = self.detach_tid_with(tid, |_| {});
        self.stats.drops_detached += dropped as u64;

        if self.tele.is_enabled() && dropped > 0 {
            self.tele.count(
                self.component,
                "drops_detached",
                Label::Tid(ti as u32),
                dropped as u64,
            );
            self.tele.event(
                now,
                self.component,
                EventKind::Drop {
                    label: Label::Tid(ti as u32),
                    bytes: dropped_bytes.min(u32::MAX as u64) as u32,
                    reason: DropReason::Detached,
                },
            );
        }
        dropped
    }

    /// Detaches a TID like [`MacFq::unregister_tid`], but hands every
    /// queued packet back intact (per-flow FIFO order, DRR-list order
    /// across flows) instead of discarding — the migration half of an
    /// inter-BSS hand-off, where the old AP forwards a roamer's buffered
    /// downlink frames toward its new AP instead of dropping them.
    ///
    /// # Panics
    ///
    /// Panics if the handle is unregistered or already detached.
    pub fn unregister_tid_migrate(&mut self, tid: TidId) -> Vec<P> {
        let mut out = Vec::new();
        let (migrated, _) = self.detach_tid_with(tid, |pkt| out.push(pkt));
        debug_assert_eq!(out.len(), migrated);
        self.stats.migrated_out += migrated as u64;
        out
    }

    /// Shared detach body: empties the TID's flows into `take`, releases
    /// its flow queues to the pool, and parks the slot for reuse. Returns
    /// `(packets, bytes)` removed from the structure.
    ///
    /// Every flow holding this TID's packets sits on exactly one of its
    /// DRR lists (enqueue activates Idle flows; only full drain at
    /// dequeue releases them), so draining the lists drains the TID.
    /// The lists are taken out to walk without aliasing `self` and put
    /// back empty — capacity intact, no scratch allocation.
    fn detach_tid_with(&mut self, tid: TidId, mut take: impl FnMut(P)) -> (usize, u64) {
        let ti = self.tid_slot(tid);

        let mut new_flows = std::mem::take(&mut self.tids[ti].new_flows);
        let mut old_flows = std::mem::take(&mut self.tids[ti].old_flows);
        let mut removed = 0usize;
        let mut removed_bytes = 0u64;
        for fi in new_flows.drain(..).chain(old_flows.drain(..)) {
            let flow = &mut self.flows[fi];
            debug_assert_eq!(flow.tid, Some(ti), "flow on a foreign TID list");
            while let Some(pkt) = flow.queue.pop_front(&mut self.arena) {
                flow.backlog_bytes -= pkt.wire_len();
                removed_bytes += pkt.wire_len();
                removed += 1;
                take(pkt);
            }
            flow.deficit = 0;
            flow.codel = CodelState::new();
            flow.tid = None;
            flow.membership = Membership::Idle;
            self.heap_shrank(fi);
        }
        // The overflow queue may be idle-but-stale (drained earlier this
        // round); reset its CoDel state so the next owner starts clean.
        let of = self.tids[ti].overflow_flow;
        self.flows[of].codel = CodelState::new();

        self.total_packets -= removed;
        let t = &mut self.tids[ti];
        debug_assert_eq!(t.backlog_packets, removed, "TID packet count drifted");
        debug_assert_eq!(t.backlog_bytes, removed_bytes, "TID byte count drifted");
        t.new_flows = new_flows;
        t.old_flows = old_flows;
        t.backlog_packets = 0;
        t.backlog_bytes = 0;
        t.registered = false;
        // Every outstanding handle to this slot goes stale now.
        t.gen = t.gen.wrapping_add(1);
        self.free_tids.push(ti);
        (removed, removed_bytes)
    }

    /// True if the handle refers to a currently registered (not detached)
    /// TID slot.
    pub fn tid_is_registered(&self, tid: TidId) -> bool {
        self.tids
            .get(tid.slot())
            .is_some_and(|t| t.registered && t.gen == tid.generation())
    }

    /// Total packets queued across all TIDs.
    pub fn total_packets(&self) -> usize {
        self.total_packets
    }

    /// Packets queued for one TID.
    pub fn tid_backlog_packets(&self, tid: TidId) -> usize {
        self.tids[self.tid_slot(tid)].backlog_packets
    }

    /// Bytes queued for one TID.
    pub fn tid_backlog_bytes(&self, tid: TidId) -> u64 {
        self.tids[self.tid_slot(tid)].backlog_bytes
    }

    /// True if the TID has at least one queued packet.
    pub fn tid_has_data(&self, tid: TidId) -> bool {
        self.tids[self.tid_slot(tid)].backlog_packets > 0
    }

    /// The configured parameters.
    pub fn params(&self) -> FqParams {
        self.params
    }

    /// Live packets in the shared arena. Always equals
    /// [`MacFq::total_packets`]; exposed separately so teardown tests can
    /// assert the arena itself drains to zero (no leaked slots).
    pub fn arena_live(&self) -> usize {
        self.arena.live()
    }

    /// Capacity probe for the churn-reuse tests: (new-list, old-list,
    /// packet-arena) capacities for one TID slot.
    #[cfg(test)]
    fn churn_capacity_probe(&self, tid: TidId) -> (usize, usize, usize) {
        let t = &self.tids[tid.slot()];
        (
            t.new_flows.capacity(),
            t.old_flows.capacity(),
            self.arena.capacity(),
        )
    }

    /// Recomputes every derived structure from the ground-truth flow
    /// queues and panics on any inconsistency: the backlog heap (property,
    /// intrusive positions, exact nonempty membership), per-flow byte
    /// counts, per-TID packet/byte counts, DRR-list membership, and the
    /// global packet count. An audit for the interleaving proptests;
    /// O(flows), never call it from a hot path.
    pub fn check_invariants(&self) {
        let mut total = 0usize;
        for (fi, flow) in self.flows.iter().enumerate() {
            total += flow.queue.len();
            let bytes: u64 = flow.queue.iter(&self.arena).map(|p| p.wire_len()).sum();
            assert_eq!(
                bytes, flow.backlog_bytes,
                "flow {fi}: backlog_bytes drifted"
            );
            if flow.queue.is_empty() {
                assert_eq!(
                    flow.heap_pos, NOT_IN_HEAP,
                    "flow {fi}: empty but still in the backlog heap"
                );
            } else {
                assert!(
                    flow.heap_pos < self.heap.len() && self.heap[flow.heap_pos] == fi,
                    "flow {fi}: nonempty but heap_pos {} is stale",
                    flow.heap_pos
                );
                assert!(
                    flow.tid.is_some(),
                    "flow {fi}: holds packets but is unassigned"
                );
            }
            if flow.membership == Membership::Idle {
                assert!(flow.queue.is_empty(), "flow {fi}: idle with packets queued");
            }
        }
        assert_eq!(total, self.total_packets, "total_packets drifted");
        assert_eq!(
            self.arena.live(),
            self.total_packets,
            "arena live count drifted from total_packets"
        );
        for (i, &fi) in self.heap.iter().enumerate() {
            assert!(
                !self.flows[fi].queue.is_empty(),
                "heap slot {i}: flow {fi} is empty"
            );
            if i > 0 {
                let parent = self.heap[(i - 1) / 2];
                assert!(
                    self.flows[parent].backlog_bytes >= self.flows[fi].backlog_bytes,
                    "heap property violated at slot {i}"
                );
            }
        }
        let mut scheduled = vec![0u32; self.flows.len()];
        for (ti, t) in self.tids.iter().enumerate() {
            let mut pkts = 0usize;
            let mut bytes = 0u64;
            for (&fi, on_new) in t
                .new_flows
                .iter()
                .map(|fi| (fi, true))
                .chain(t.old_flows.iter().map(|fi| (fi, false)))
            {
                assert!(t.registered, "detached TID {ti} still schedules flows");
                scheduled[fi] += 1;
                let flow = &self.flows[fi];
                assert_eq!(flow.tid, Some(ti), "TID {ti} schedules a foreign flow {fi}");
                let expect = if on_new {
                    Membership::New
                } else {
                    Membership::Old
                };
                assert_eq!(flow.membership, expect, "flow {fi}: membership drifted");
                pkts += flow.queue.len();
                bytes += flow.backlog_bytes;
            }
            assert_eq!(pkts, t.backlog_packets, "TID {ti}: packet count drifted");
            assert_eq!(bytes, t.backlog_bytes, "TID {ti}: byte count drifted");
        }
        for (fi, &n) in scheduled.iter().enumerate() {
            let expect = u32::from(self.flows[fi].membership != Membership::Idle);
            assert_eq!(
                n, expect,
                "flow {fi}: scheduled {n} times with membership {:?}",
                self.flows[fi].membership
            );
        }
    }

    /// Swaps two heap slots, keeping the intrusive positions in sync.
    #[inline]
    fn heap_swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.flows[self.heap[i]].heap_pos = i;
        self.flows[self.heap[j]].heap_pos = j;
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.flows[self.heap[i]].backlog_bytes <= self.flows[self.heap[parent]].backlog_bytes
            {
                break;
            }
            self.heap_swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let left = 2 * i + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let mut child = left;
            if right < self.heap.len()
                && self.flows[self.heap[right]].backlog_bytes
                    > self.flows[self.heap[left]].backlog_bytes
            {
                child = right;
            }
            if self.flows[self.heap[child]].backlog_bytes <= self.flows[self.heap[i]].backlog_bytes
            {
                break;
            }
            self.heap_swap(i, child);
            i = child;
        }
    }

    /// Records a backlog increase for `fi`: inserts the flow into the
    /// backlog heap if it just became nonempty, else restores the heap
    /// property upward from its stored slot.
    fn heap_grew(&mut self, fi: usize) {
        let pos = self.flows[fi].heap_pos;
        if pos == NOT_IN_HEAP {
            let i = self.heap.len();
            self.heap.push(fi);
            self.flows[fi].heap_pos = i;
            self.sift_up(i);
        } else {
            self.sift_up(pos);
        }
    }

    /// Records a backlog decrease for `fi`: removes the flow from the heap
    /// once its queue is empty, else restores the heap property downward.
    fn heap_shrank(&mut self, fi: usize) {
        let pos = self.flows[fi].heap_pos;
        if pos == NOT_IN_HEAP {
            return;
        }
        if self.flows[fi].queue.is_empty() {
            self.heap.swap_remove(pos);
            self.flows[fi].heap_pos = NOT_IN_HEAP;
            if pos < self.heap.len() {
                let moved = self.heap[pos];
                self.flows[moved].heap_pos = pos;
                // The filler came off a leaf: it can be smaller than the
                // new children or larger than the new parent, never both,
                // so one of these is a no-op.
                self.sift_down(pos);
                self.sift_up(self.flows[moved].heap_pos);
            }
        } else {
            self.sift_down(pos);
        }
    }

    /// The flow with the largest byte backlog (Algorithm 1 line 3): the
    /// heap root, O(1).
    fn find_longest_queue(&self) -> Option<usize> {
        self.heap.first().copied()
    }

    /// Drops the head packet of the globally longest queue, returning it.
    ///
    /// "A global queue size limit is kept, and when this is exceeded,
    /// packets are dropped from the globally longest queue, which prevents
    /// a single flow from locking out other flows on overload."
    fn drop_from_longest(&mut self, now: Nanos) -> Option<P> {
        let fi = self.find_longest_queue()?;
        let flow = &mut self.flows[fi];
        let pkt = flow.queue.pop_front(&mut self.arena)?;
        flow.backlog_bytes -= pkt.wire_len();
        self.total_packets -= 1;
        self.stats.drops_overlimit += 1;
        let victim_tid = flow.tid;
        if let Some(ti) = victim_tid {
            self.tids[ti].backlog_packets -= 1;
            self.tids[ti].backlog_bytes -= pkt.wire_len();
        }
        if let Some(mut rec) = self.tele.batch() {
            rec.add(self.fq_tele.drops_overlimit, 1);
            let (victims, label) = match victim_tid {
                Some(ti) => (self.tids[ti].tele.victims, Label::Tid(ti as u32)),
                None => (self.fq_tele.orphan_victims, Label::Global),
            };
            rec.add(victims, 1);
            rec.event(
                now,
                self.component,
                EventKind::Drop {
                    label,
                    bytes: pkt.wire_len() as u32,
                    reason: DropReason::Overlimit,
                },
            );
        }
        self.heap_shrank(fi);
        Some(pkt)
    }

    /// Enqueues a packet for a TID — Algorithm 1.
    ///
    /// Returns the packet dropped to make room, if the global limit was
    /// reached (the caller may want to count it against a flow).
    ///
    /// The packet must already carry its enqueue timestamp
    /// ([`QueuedPacket::enqueue_time`] is read by CoDel at dequeue).
    pub fn enqueue(&mut self, pkt: P, tid: TidId, now: Nanos) -> Option<P> {
        let ti = self.tid_slot(tid);

        // Global limit (Algorithm 1 lines 2–4).
        let dropped = if self.total_packets >= self.params.limit {
            match self.params.drop_policy {
                DropPolicy::DropLongest => self.drop_from_longest(now),
                DropPolicy::TailDrop => {
                    self.stats.drops_overlimit += 1;
                    if let Some(mut rec) = self.tele.batch() {
                        rec.add(self.fq_tele.drops_overlimit, 1);
                        rec.event(
                            now,
                            self.component,
                            EventKind::Drop {
                                label: Label::Tid(ti as u32),
                                bytes: pkt.wire_len() as u32,
                                reason: DropReason::QueueFull,
                            },
                        );
                    }
                    return Some(pkt);
                }
            }
        } else {
            None
        };

        // Hash to a queue; on cross-TID collision use the overflow queue
        // (lines 5–8). A power-of-two pool reduces to a mask.
        let hash = pkt.flow_hash();
        let mut fi = match self.hash_mask {
            Some(mask) => (hash & mask) as usize,
            None => (hash % self.params.flows as u64) as usize,
        };
        if self.flows[fi].tid.is_some_and(|t| t != ti) {
            fi = self.tids[ti].overflow_flow;
            self.stats.collisions += 1;
            self.tele.add(self.tids[ti].tele.collisions, 1);
        }
        self.flows[fi].tid = Some(ti);

        // Append and activate (lines 9–12).
        let len = pkt.wire_len();
        let flow = &mut self.flows[fi];
        flow.queue.push_back(&mut self.arena, pkt);
        flow.backlog_bytes += len;
        self.total_packets += 1;
        self.stats.enqueued += 1;
        let tid_state = &mut self.tids[ti];
        tid_state.backlog_packets += 1;
        tid_state.backlog_bytes += len;
        if self.flows[fi].membership == Membership::Idle {
            self.flows[fi].membership = Membership::New;
            // A freshly activated flow starts with a full quantum, exactly
            // as fq_codel does — without this, the first deficit check
            // would rotate it to the old list and void its new-flow
            // (sparse) priority.
            self.flows[fi].deficit = self.params.quantum as i64;
            self.tids[ti].new_flows.push_back(fi);
        }
        self.heap_grew(fi);

        if let Some(mut rec) = self.tele.batch() {
            rec.add(self.tids[ti].tele.enqueued, 1);
            rec.set(self.fq_tele.occupancy_gauge, self.total_packets as f64);
            rec.record(self.fq_tele.occupancy_hist, self.total_packets as u64);
            rec.event(
                now,
                self.component,
                EventKind::Enqueue {
                    label: Label::Tid(ti as u32),
                    bytes: len as u32,
                },
            );
        }

        dropped
    }

    /// Dequeues the next packet for a TID — Algorithm 2.
    ///
    /// `codel_params` are the parameters for the *station* owning this TID
    /// (paper §3.1.1). Returns `None` when the TID has no eligible packet.
    pub fn dequeue(&mut self, tid: TidId, now: Nanos, codel_params: &CodelParams) -> Option<P> {
        let ti = self.tid_slot(tid);

        loop {
            // Pick the head of new_flows, else old_flows (lines 2–7).
            let (fi, from_new) = {
                let t = &self.tids[ti];
                if let Some(&fi) = t.new_flows.front() {
                    (fi, true)
                } else if let Some(&fi) = t.old_flows.front() {
                    (fi, false)
                } else {
                    return None;
                }
            };

            // Deficit check (lines 8–11): replenish and rotate to old.
            if self.flows[fi].deficit <= 0 {
                self.flows[fi].deficit += self.params.quantum as i64;
                let t = &mut self.tids[ti];
                if from_new {
                    t.new_flows.pop_front();
                } else {
                    t.old_flows.pop_front();
                }
                t.old_flows.push_back(fi);
                self.flows[fi].membership = Membership::Old;
                self.tele.add(self.tids[ti].tele.drr_rounds, 1);
                continue;
            }

            // CoDel dequeue (line 12); drops are charged to this TID.
            let mut codel_drops = 0usize;
            let mut codel_drop_bytes = 0u64;
            let pkt = {
                let flow = &mut self.flows[fi];
                let mut qref = FlowQueueRef {
                    arena: &mut self.arena,
                    queue: &mut flow.queue,
                    backlog_bytes: &mut flow.backlog_bytes,
                };
                flow.codel.dequeue_tracked(
                    now,
                    codel_params,
                    &mut qref,
                    |p| {
                        codel_drops += 1;
                        codel_drop_bytes += p.wire_len();
                    },
                    &self.tids[ti].tele.codel,
                )
            };
            self.total_packets -= codel_drops;
            self.stats.drops_codel += codel_drops as u64;
            {
                let t = &mut self.tids[ti];
                t.backlog_packets -= codel_drops;
                t.backlog_bytes -= codel_drop_bytes;
            }

            match pkt {
                None => {
                    // Queue empty (lines 13–19): new flows get demoted to
                    // old (the anti-gaming rule); old flows are released.
                    self.heap_shrank(fi);
                    let t = &mut self.tids[ti];
                    if from_new {
                        t.new_flows.pop_front();
                        t.old_flows.push_back(fi);
                        self.flows[fi].membership = Membership::Old;
                    } else {
                        t.old_flows.pop_front();
                        self.flows[fi].membership = Membership::Idle;
                        self.flows[fi].tid = None;
                    }
                    continue;
                }
                Some(pkt) => {
                    // Charge the deficit and hand the packet out
                    // (lines 20–21).
                    let len = pkt.wire_len();
                    self.flows[fi].deficit -= len as i64;
                    self.total_packets -= 1;
                    self.stats.dequeued += 1;
                    if from_new {
                        self.tele.add(self.tids[ti].tele.sparse_hits, 1);
                    }
                    let t = &mut self.tids[ti];
                    t.backlog_packets -= 1;
                    t.backlog_bytes -= len;
                    self.heap_shrank(fi);
                    return Some(pkt);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Pkt {
        flow: u64,
        t: Nanos,
        len: u64,
        seq: u32,
    }

    impl QueuedPacket for Pkt {
        fn enqueue_time(&self) -> Nanos {
            self.t
        }
        fn wire_len(&self) -> u64 {
            self.len
        }
    }

    impl FqPacket for Pkt {
        fn flow_hash(&self) -> u64 {
            self.flow
        }
    }

    fn pkt(flow: u64, t: Nanos, seq: u32) -> Pkt {
        Pkt {
            flow,
            t,
            len: 1500,
            seq,
        }
    }

    fn params() -> CodelParams {
        CodelParams::wifi_default()
    }

    #[test]
    fn fifo_within_single_flow() {
        let mut fq = MacFq::new(FqParams::default());
        let tid = fq.register_tid();
        let now = Nanos::ZERO;
        for seq in 0..10 {
            fq.enqueue(pkt(7, now, seq), tid, now);
        }
        for seq in 0..10 {
            let p = fq.dequeue(tid, now, &params()).unwrap();
            assert_eq!(p.seq, seq, "reordering within one flow");
        }
        assert!(fq.dequeue(tid, now, &params()).is_none());
    }

    #[test]
    fn interleaves_two_flows() {
        let mut fq = MacFq::new(FqParams::default());
        let tid = fq.register_tid();
        let now = Nanos::ZERO;
        // Flow 1 has 10 packets queued first, flow 2 has 10 queued after;
        // DRR should alternate rather than drain flow 1 first.
        for seq in 0..10 {
            fq.enqueue(pkt(1, now, seq), tid, now);
        }
        for seq in 0..10 {
            fq.enqueue(pkt(2, now, seq), tid, now);
        }
        let first_8: Vec<u64> = (0..8)
            .map(|_| fq.dequeue(tid, now, &params()).unwrap().flow)
            .collect();
        let flow1 = first_8.iter().filter(|&&f| f == 1).count();
        let flow2 = first_8.iter().filter(|&&f| f == 2).count();
        assert_eq!(flow1, 4, "got {first_8:?}");
        assert_eq!(flow2, 4);
    }

    #[test]
    fn global_limit_enforced() {
        let fqp = FqParams {
            flows: 64,
            limit: 100,
            quantum: 300,
            ..FqParams::default()
        };
        let mut fq = MacFq::new(fqp);
        let tid = fq.register_tid();
        let now = Nanos::ZERO;
        let mut dropped = 0;
        for seq in 0..500 {
            if fq
                .enqueue(pkt(seq as u64 % 3, now, seq), tid, now)
                .is_some()
            {
                dropped += 1;
            }
            assert!(fq.total_packets() <= 100);
        }
        assert_eq!(dropped, 400);
        assert_eq!(fq.stats.drops_overlimit, 400);
    }

    #[test]
    fn overlimit_drops_from_longest_queue() {
        let fqp = FqParams {
            flows: 64,
            limit: 10,
            quantum: 300,
            ..FqParams::default()
        };
        let mut fq = MacFq::new(fqp);
        let tid = fq.register_tid();
        let now = Nanos::ZERO;
        // Flow 1: 9 packets. Flow 2: 1 packet. Next enqueue (flow 2) must
        // drop from flow 1, the longest.
        for seq in 0..9 {
            fq.enqueue(pkt(1, now, seq), tid, now);
        }
        fq.enqueue(pkt(2, now, 0), tid, now);
        let victim = fq.enqueue(pkt(2, now, 1), tid, now).unwrap();
        assert_eq!(victim.flow, 1, "should drop from the longest queue");
    }

    #[test]
    fn cross_tid_collision_goes_to_overflow() {
        let fqp = FqParams {
            flows: 1, // force every hash onto the same queue
            limit: 8192,
            quantum: 300,
            ..FqParams::default()
        };
        let mut fq = MacFq::new(fqp);
        let tid_a = fq.register_tid();
        let tid_b = fq.register_tid();
        let now = Nanos::ZERO;
        fq.enqueue(pkt(1, now, 0), tid_a, now);
        // Same hash target, different TID: must be redirected, not mixed.
        fq.enqueue(pkt(2, now, 0), tid_b, now);
        assert_eq!(fq.stats.collisions, 1);
        assert_eq!(fq.tid_backlog_packets(tid_a), 1);
        assert_eq!(fq.tid_backlog_packets(tid_b), 1);
        // Each TID dequeues its own packet.
        assert_eq!(fq.dequeue(tid_a, now, &params()).unwrap().flow, 1);
        assert_eq!(fq.dequeue(tid_b, now, &params()).unwrap().flow, 2);
    }

    #[test]
    fn queue_released_after_drain_can_move_tids() {
        let fqp = FqParams {
            flows: 1,
            limit: 8192,
            quantum: 300,
            ..FqParams::default()
        };
        let mut fq = MacFq::new(fqp);
        let tid_a = fq.register_tid();
        let tid_b = fq.register_tid();
        let now = Nanos::ZERO;
        fq.enqueue(pkt(1, now, 0), tid_a, now);
        assert!(fq.dequeue(tid_a, now, &params()).is_some());
        // Drain fully: dequeue again returns None and releases the queue.
        assert!(fq.dequeue(tid_a, now, &params()).is_none());
        // Now TID B can claim the hash-target queue without a collision.
        fq.enqueue(pkt(3, now, 0), tid_b, now);
        assert_eq!(fq.stats.collisions, 0);
        assert_eq!(fq.dequeue(tid_b, now, &params()).unwrap().flow, 3);
    }

    #[test]
    fn sparse_flow_gets_priority() {
        let mut fq = MacFq::new(FqParams::default());
        let tid = fq.register_tid();
        let now = Nanos::ZERO;
        // Bulk flow queues 50 packets and is pushed through a few rounds so
        // it lands on the old list.
        for seq in 0..50 {
            fq.enqueue(pkt(1, now, seq), tid, now);
        }
        for _ in 0..5 {
            fq.dequeue(tid, now, &params());
        }
        // A new sparse flow arrives: its packet must come out next.
        fq.enqueue(pkt(99, now, 0), tid, now);
        let p = fq.dequeue(tid, now, &params()).unwrap();
        assert_eq!(p.flow, 99, "sparse flow should jump the bulk flow");
    }

    #[test]
    fn sparse_flow_cannot_game_priority() {
        // A flow that drains and immediately re-queues must not stay on
        // the new list forever: after its queue empties it is demoted to
        // the old list and the bulk flow gets service.
        let mut fq = MacFq::new(FqParams::default());
        let tid = fq.register_tid();
        let now = Nanos::ZERO;
        for seq in 0..50 {
            fq.enqueue(pkt(1, now, seq), tid, now);
        }
        let mut bulk_served = 0;
        for i in 0..20 {
            fq.enqueue(pkt(99, now, i), tid, now);
            // Two dequeues per round: the gamer can take at most one.
            for _ in 0..2 {
                if fq.dequeue(tid, now, &params()).unwrap().flow == 1 {
                    bulk_served += 1;
                }
            }
        }
        assert!(
            bulk_served >= 19,
            "bulk flow starved: served {bulk_served}/40 dequeues"
        );
    }

    #[test]
    fn byte_fairness_with_unequal_packet_sizes() {
        // Flow 1 sends 1500-byte packets, flow 2 sends 300-byte packets.
        // Over a long run, DRR should give them equal *bytes*, i.e. five
        // small packets per large one.
        let mut fq = MacFq::new(FqParams::default());
        let tid = fq.register_tid();
        let now = Nanos::ZERO;
        for seq in 0..200 {
            fq.enqueue(
                Pkt {
                    flow: 1,
                    t: now,
                    len: 1500,
                    seq,
                },
                tid,
                now,
            );
            for s in 0..5 {
                fq.enqueue(
                    Pkt {
                        flow: 2,
                        t: now,
                        len: 300,
                        seq: seq * 5 + s,
                    },
                    tid,
                    now,
                );
            }
        }
        let mut bytes = [0u64; 2];
        for _ in 0..600 {
            let p = fq.dequeue(tid, now, &params()).unwrap();
            bytes[(p.flow - 1) as usize] += p.len;
        }
        let ratio = bytes[0] as f64 / bytes[1] as f64;
        assert!(
            (0.8..1.25).contains(&ratio),
            "byte split not fair: {bytes:?}"
        );
    }

    #[test]
    fn codel_drops_are_accounted() {
        let mut fq = MacFq::new(FqParams::default());
        let tid = fq.register_tid();
        // Enqueue old packets, dequeue far in the future with a deep
        // backlog: CoDel must engage and counters must stay consistent.
        let t0 = Nanos::ZERO;
        for seq in 0..500 {
            fq.enqueue(pkt(1, t0, seq), tid, t0);
        }
        let mut out = 0;
        let mut now = Nanos::from_millis(500);
        while fq.tid_has_data(tid) {
            if fq.dequeue(tid, now, &params()).is_some() {
                out += 1;
            }
            now += Nanos::from_millis(1);
        }
        assert!(fq.stats.drops_codel > 0, "CoDel never engaged");
        assert_eq!(out + fq.stats.drops_codel as usize, 500);
        assert_eq!(fq.total_packets(), 0);
        assert_eq!(fq.tid_backlog_bytes(tid), 0);
    }

    #[test]
    fn tids_are_isolated() {
        let mut fq = MacFq::new(FqParams::default());
        let tid_a = fq.register_tid();
        let tid_b = fq.register_tid();
        let now = Nanos::ZERO;
        for seq in 0..10 {
            fq.enqueue(pkt(1, now, seq), tid_a, now);
        }
        // TID B has nothing: dequeue must not steal TID A's packets.
        assert!(fq.dequeue(tid_b, now, &params()).is_none());
        assert_eq!(fq.tid_backlog_packets(tid_a), 10);
    }

    #[test]
    #[should_panic(expected = "unregistered TID")]
    fn unregistered_tid_panics() {
        let mut fq: MacFq<Pkt> = MacFq::new(FqParams::default());
        fq.enqueue(pkt(1, Nanos::ZERO, 0), TidId::from_raw(3, 0), Nanos::ZERO);
    }

    #[test]
    fn detach_reattach_reuses_capacity() {
        let fqp = FqParams {
            flows: 256,
            limit: 8192,
            quantum: 300,
            ..FqParams::default()
        };
        let mut fq = MacFq::new(fqp);
        let tid_a = fq.register_tid();
        let tid_b = fq.register_tid();
        let now = Nanos::ZERO;
        // tid_a claims hash target 0 so tid_b's flow 0 collides into its
        // overflow queue; tid_b's other 99 flows grow its new-flows list.
        fq.enqueue(pkt(0, now, 0), tid_a, now);
        for seq in 0..100 {
            fq.enqueue(pkt(seq as u64, now, seq), tid_b, now);
        }
        let before = fq.churn_capacity_probe(tid_b);
        assert!(before.0 >= 99, "new-flows list never grew: {before:?}");
        assert!(before.2 >= 101, "packet arena never grew: {before:?}");

        fq.unregister_tid(tid_b, now);
        // LIFO slot reuse: the fresh handle revives tid_b's slot, and the
        // round-trip must not have released any of its capacity.
        let tid_b2 = fq.register_tid();
        assert_eq!(tid_b2.slot(), tid_b.slot(), "slot not reused");
        assert_ne!(
            tid_b2.generation(),
            tid_b.generation(),
            "generation not bumped"
        );
        let after = fq.churn_capacity_probe(tid_b2);
        assert_eq!(before, after, "detach/reattach reallocated");

        fq.enqueue(pkt(7, now, 0), tid_b2, now);
        assert_eq!(fq.tid_backlog_packets(tid_b2), 1);
        fq.check_invariants();
    }

    #[test]
    fn invariants_hold_across_mixed_workload() {
        // Enqueue / DRR dequeue / overlimit drop / detach interleaving with
        // the full structural audit after every round.
        let mut fq = MacFq::new(FqParams {
            flows: 16,
            limit: 64,
            quantum: 300,
            ..FqParams::default()
        });
        let tid_a = fq.register_tid();
        let tid_b = fq.register_tid();
        let mut now = Nanos::ZERO;
        for round in 0..50u32 {
            for seq in 0..8 {
                fq.enqueue(pkt((round * 8 + seq) as u64 % 11, now, seq), tid_a, now);
                fq.enqueue(pkt((round * 5 + seq) as u64 % 7, now, seq), tid_b, now);
            }
            now += Nanos::from_millis(3);
            for _ in 0..5 {
                fq.dequeue(tid_a, now, &params());
            }
            for _ in 0..3 {
                fq.dequeue(tid_b, now, &params());
            }
            fq.check_invariants();
        }
        assert!(fq.stats.drops_overlimit > 0, "never hit the global limit");
        fq.unregister_tid(tid_b, now);
        fq.check_invariants();
        // Teardown: drain the survivor and audit the arena directly —
        // every packet that ever entered must have left its slot.
        while fq.dequeue(tid_a, now, &params()).is_some() {}
        fq.unregister_tid(tid_a, now);
        fq.check_invariants();
        assert_eq!(fq.arena_live(), 0, "drained structure leaked arena slots");
    }

    #[test]
    fn arena_drains_to_zero_after_tid_churn() {
        // Repeated register / load / partial-drain / unregister cycles:
        // unregister discards a TID's backlog mid-flow, the path most
        // likely to strand an arena slot. After every cycle the arena
        // must hold exactly the packets the counters say it does, and a
        // fully torn-down structure must hold none.
        let mut fq = MacFq::new(FqParams {
            flows: 16,
            limit: 256,
            quantum: 300,
            ..FqParams::default()
        });
        let mut now = Nanos::ZERO;
        for cycle in 0..20u64 {
            let tid = fq.register_tid();
            for seq in 0..40 {
                fq.enqueue(pkt((cycle * 13 + seq as u64) % 9, now, seq), tid, now);
            }
            now += Nanos::from_millis(1);
            // Drain only part of the backlog, so unregister must free
            // the remainder through the arena.
            for _ in 0..(cycle % 41) {
                fq.dequeue(tid, now, &params());
            }
            fq.unregister_tid(tid, now);
            fq.check_invariants();
            assert_eq!(
                fq.arena_live(),
                0,
                "cycle {cycle} left packets stranded in the arena"
            );
        }
        // Steady-state churn must recycle slots, not grow the slab.
        let tid = fq.register_tid();
        let cap = fq.churn_capacity_probe(tid).2;
        for seq in 0..40 {
            fq.enqueue(pkt(seq as u64 % 9, now, seq), tid, now);
        }
        while fq.dequeue(tid, now, &params()).is_some() {}
        assert_eq!(
            fq.churn_capacity_probe(tid).2,
            cap,
            "steady-state churn grew the packet arena"
        );
        assert_eq!(fq.arena_live(), 0);
    }

    /// Every workload carries one `TidState` per (station, AC) through its
    /// caches whether or not the sink is on, so the instrument bundle must
    /// not fatten it: 200 bytes with eight `Rc` handles, 176 with ids.
    #[test]
    fn tid_state_is_no_larger_than_with_rc_handles() {
        let size = std::mem::size_of::<TidState>();
        assert!(size <= 200, "TidState grew to {size} bytes");
    }

    #[test]
    fn telemetry_mirrors_stats() {
        let mut fq = MacFq::new(FqParams {
            flows: 16,
            limit: 64,
            quantum: 300,
            ..FqParams::default()
        });
        let tele = Telemetry::enabled();
        fq.set_telemetry(tele.clone(), "fq");
        let tid = fq.register_tid();
        let now = Nanos::ZERO;
        for seq in 0..200 {
            fq.enqueue(pkt(seq as u64 % 7, now, seq), tid, now);
        }
        while fq.dequeue(tid, now, &params()).is_some() {}
        let s = fq.stats;
        assert_eq!(tele.counter("fq", "enqueued", Label::Tid(0)), s.enqueued);
        assert_eq!(
            tele.counter("fq", "drops_overlimit", Label::Global),
            s.drops_overlimit
        );
        assert!(s.drops_overlimit > 0, "test never hit the global limit");
        assert!(
            tele.counter("fq", "drr_rounds", Label::Tid(0)) > 0,
            "DRR rotation never counted"
        );
    }

    #[test]
    fn stats_balance() {
        let mut fq = MacFq::new(FqParams {
            flows: 16,
            limit: 64,
            quantum: 300,
            ..FqParams::default()
        });
        let tid = fq.register_tid();
        let now = Nanos::ZERO;
        for seq in 0..200 {
            fq.enqueue(pkt(seq as u64 % 7, now, seq), tid, now);
        }
        while fq.dequeue(tid, now, &params()).is_some() {}
        let s = fq.stats;
        assert_eq!(
            s.enqueued,
            s.dequeued + s.drops_overlimit + s.drops_codel,
            "packet conservation violated: {s:?}"
        );
    }
}
