//! The legacy path (FIFO / FQ-CoDel schemes): the stock Linux stack of
//! Figure 2 — a qdisc feeding unmanaged per-TID driver FIFOs under a shared
//! frame budget, eagerly refilled. It is the structure whose lower-layer
//! queueing defeats qdisc AQM and whose buffer-hogging by slow stations
//! starves fast stations' aggregation (§4.1.2).

use std::collections::VecDeque;

use wifiq_core::table::StaId;
use wifiq_phy::AccessCategory;
use wifiq_qdisc::{FqCodelQdisc, PfifoFastQdisc, Qdisc};
use wifiq_sim::Nanos;

use super::Table;
use crate::config::{NetworkConfig, SchemeKind};
use crate::packet::{StationIdx, Ticket};

/// Driver FIFO index for the per-TID buf_q array. This is hardware-queue
/// addressing (ath9k keys buf_q by TID number on the air), not
/// station-state access — the station store itself is only reached
/// through [`Table`] handles.
#[inline]
fn buf_index(slot: StationIdx, ac: AccessCategory) -> usize {
    slot * AccessCategory::COUNT + ac.index()
}

enum LegacyQdisc {
    Pfifo(PfifoFastQdisc<Ticket>),
    // Boxed: the FQ-CoDel qdisc is hundreds of bytes of flow state, the
    // pfifo variant a few pointers; one qdisc exists per network, so the
    // indirection is off the per-packet path.
    FqCodel(Box<FqCodelQdisc<Ticket>>),
}

/// `pfifo_fast`'s three-band 802.1d classification, by access category:
/// VO/VI → band 0, BE → band 1, BK → band 2.
fn pfifo_fast_band(t: &Ticket) -> usize {
    match t.ac {
        AccessCategory::Vo | AccessCategory::Vi => 0,
        AccessCategory::Be => 1,
        AccessCategory::Bk => 2,
    }
}

impl LegacyQdisc {
    fn enqueue(&mut self, t: Ticket, now: Nanos) -> Option<Ticket> {
        match self {
            LegacyQdisc::Pfifo(q) => q.enqueue(t, now),
            LegacyQdisc::FqCodel(q) => q.enqueue(t, now),
        }
    }

    fn dequeue(&mut self, now: Nanos, on_drop: impl FnMut(Ticket)) -> Option<Ticket> {
        match self {
            LegacyQdisc::Pfifo(q) => q.dequeue(now),
            LegacyQdisc::FqCodel(q) => q.dequeue_with(now, on_drop),
        }
    }

    fn len(&self) -> usize {
        match self {
            LegacyQdisc::Pfifo(q) => q.len(),
            LegacyQdisc::FqCodel(q) => q.len(),
        }
    }
}

/// The legacy path's queues: the shared qdisc and the driver FIFOs below
/// it.
pub(super) struct Legacy {
    qdisc: LegacyQdisc,
    /// Per-TID driver FIFOs (ath9k's buf_q), indexed by [`buf_index`].
    bufq: Vec<VecDeque<Ticket>>,
    buf_total: usize,
    buf_cap: usize,
    /// Per-AC round-robin of TIDs with queued frames.
    rr: [VecDeque<usize>; AccessCategory::COUNT],
    listed: Vec<bool>,
    /// Packets dropped on this path: qdisc tail-drop or overlimit, and
    /// frames discarded as they surface for a departed station. The
    /// FQ-CoDel qdisc counts its CoDel drops itself.
    pub(super) drops: u64,
}

impl Legacy {
    pub(super) fn new(cfg: &NetworkConfig) -> Legacy {
        Legacy {
            qdisc: if cfg.scheme == SchemeKind::Fifo {
                LegacyQdisc::Pfifo(PfifoFastQdisc::new(3, cfg.pfifo_limit, pfifo_fast_band))
            } else {
                LegacyQdisc::FqCodel(Box::new(FqCodelQdisc::with_defaults()))
            },
            bufq: Vec::new(),
            buf_total: 0,
            buf_cap: cfg.driver_buf_frames,
            rr: Default::default(),
            listed: Vec::new(),
            drops: 0,
        }
    }

    /// Grows the per-TID tables to cover station slot `slot`.
    pub(super) fn add_slot(&mut self, slot: StationIdx) {
        while self.bufq.len() < (slot + 1) * AccessCategory::COUNT {
            self.bufq.push(VecDeque::new());
            self.listed.push(false);
        }
    }

    /// Packets in the qdisc and the driver FIFOs.
    pub(super) fn backlog(&self) -> usize {
        self.qdisc.len() + self.buf_total
    }

    /// Tickets live in the qdisc's arenas.
    pub(super) fn arena_live(&self) -> usize {
        match &self.qdisc {
            LegacyQdisc::Pfifo(q) => q.arena_live(),
            LegacyQdisc::FqCodel(q) => q.arena_live(),
        }
    }

    /// Packets CoDel dropped in the FQ-CoDel qdisc (0 under pfifo).
    pub(super) fn codel_drops(&self) -> u64 {
        match &self.qdisc {
            LegacyQdisc::FqCodel(q) => q.codel_drops(),
            LegacyQdisc::Pfifo(_) => 0,
        }
    }

    /// Whether `(slot, ac)`'s driver FIFO holds a frame.
    pub(super) fn has_data(&self, slot: StationIdx, ac: AccessCategory) -> bool {
        !self.bufq[buf_index(slot, ac)].is_empty()
    }

    /// Accepts a downlink packet into the qdisc and refills the driver
    /// FIFOs from it.
    pub(super) fn enqueue(
        &mut self,
        t: Ticket,
        now: Nanos,
        table: &Table,
        mut on_drop: impl FnMut(Ticket),
    ) {
        if let Some(victim) = self.qdisc.enqueue(t, now) {
            self.drops += 1;
            on_drop(victim);
        }
        self.pull_from_qdisc(now, table, on_drop);
    }

    /// Eagerly moves packets from the qdisc into the driver FIFOs while
    /// the shared frame budget allows — the unmanaged lower-layer queueing
    /// of Figure 2.
    pub(super) fn pull_from_qdisc(
        &mut self,
        now: Nanos,
        table: &Table,
        mut on_drop: impl FnMut(Ticket),
    ) {
        while self.buf_total < self.buf_cap {
            let Some(t) = self.qdisc.dequeue(now, &mut on_drop) else {
                break;
            };
            // The shared qdisc cannot be filtered on removal; frames for a
            // since-departed station are discarded as they surface.
            if table.id_at(t.peer()).is_none() {
                self.drops += 1;
                on_drop(t);
                continue;
            }
            let tid = buf_index(t.peer(), t.ac);
            self.bufq[tid].push_back(t);
            self.buf_total += 1;
            if !self.listed[tid] {
                self.listed[tid] = true;
                self.rr[t.ac.index()].push_back(tid);
            }
        }
    }

    /// Empties station slot `slot`'s driver FIFOs into `carry`, or into
    /// `on_drop` when there is none, and unlists its TIDs. The shared
    /// qdisc is filtered only under pfifo and only for a hand-off; the
    /// FQ-CoDel qdisc's frames for the slot surface later and are
    /// discarded then, exactly as under churn. Returns the number dropped.
    pub(super) fn detach(
        &mut self,
        slot: StationIdx,
        mut carry: Option<&mut Vec<Ticket>>,
        mut on_drop: impl FnMut(Ticket),
    ) -> usize {
        let mut dropped = 0;
        for ac in AccessCategory::ALL {
            let tid = buf_index(slot, ac);
            self.buf_total -= self.bufq[tid].len();
            match carry.as_deref_mut() {
                Some(out) => out.extend(self.bufq[tid].drain(..)),
                None => {
                    dropped += self.bufq[tid].len();
                    self.bufq[tid].drain(..).for_each(&mut on_drop);
                }
            }
            if self.listed[tid] {
                self.rr[ac.index()].retain(|&t| t != tid);
                self.listed[tid] = false;
            }
        }
        if let (Some(out), LegacyQdisc::Pfifo(q)) = (carry, &mut self.qdisc) {
            out.extend(q.drain_matching(|t| t.peer() == slot));
        }
        dropped
    }

    /// The station whose driver FIFO (or stash) at `ac` should build the
    /// next aggregate: the round-robin's front, skipping emptied TIDs.
    pub(super) fn next_tx(&mut self, ac: AccessCategory, table: &Table) -> Option<StaId> {
        let aci = ac.index();
        loop {
            let &tid = self.rr[aci].front()?;
            let slot = tid / AccessCategory::COUNT;
            let stashed = table.cold_at(slot).is_some_and(|c| c.stash[aci].is_some());
            if stashed || !self.bufq[tid].is_empty() {
                // Teardown unlists a departing station's TIDs, so the
                // slot at the front is always occupied.
                return table.id_at(slot);
            }
            self.rr[aci].pop_front();
            self.listed[tid] = false;
        }
    }

    /// Takes the head of `(slot, ac)`'s driver FIFO for an aggregate.
    pub(super) fn pop(&mut self, slot: StationIdx, ac: AccessCategory) -> Option<Ticket> {
        let t = self.bufq[buf_index(slot, ac)].pop_front()?;
        self.buf_total -= 1;
        Some(t)
    }

    /// Post-build round-robin advance: `(slot, ac)` goes to the back if it
    /// was at the front.
    pub(super) fn rotate(&mut self, slot: StationIdx, ac: AccessCategory) {
        let (aci, tid) = (ac.index(), buf_index(slot, ac));
        if self.rr[aci].front() == Some(&tid) {
            self.rr[aci].pop_front();
            self.rr[aci].push_back(tid);
        }
    }
}
