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
//!
//! One file per seam: the structure, TID registration and detach here;
//! Algorithm 1 and the longest-queue heap it drops from in `enqueue`;
//! Algorithm 2, the DRR dequeue, in `dequeue`. Every packet that leaves
//! the structure other than by delivery — an overlimit or CoDel victim, a
//! detached TID's backlog — is handed back to the caller (returned, or
//! passed to an `on_drop` sink), so a caller whose packets are handles
//! into its own store can free them.

mod dequeue;
mod enqueue;

use std::collections::VecDeque;

use wifiq_codel::{CodelState, CodelTele};
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
        self.unregister_tid_with(tid, now, |_| {})
    }

    /// [`MacFq::unregister_tid`], handing each discarded packet to
    /// `on_drop` — the caller's chance to free what the packet stands for.
    ///
    /// # Panics
    ///
    /// Panics if the handle is unregistered or already detached.
    pub fn unregister_tid_with(&mut self, tid: TidId, now: Nanos, on_drop: impl FnMut(P)) -> usize {
        let ti = tid.slot();
        let (dropped, dropped_bytes) = self.detach_tid_with(tid, on_drop);
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

    /// Live packets in the structure's own arena. Always equals
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
}

#[cfg(test)]
mod tests;
