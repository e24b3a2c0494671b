//! The legacy path (FIFO / FQ-CoDel schemes): the stock Linux stack of
//! Figure 2 — a qdisc (`pfifo_fast` or the FQ-CoDel qdisc, both a
//! [`Qdisc`] served in strict band priority) feeding unmanaged per-TID
//! driver FIFOs under a shared frame budget, eagerly refilled. It is the
//! structure whose lower-layer queueing defeats qdisc AQM and whose
//! buffer-hogging by slow stations starves fast stations' aggregation
//! (§4.1.2). Stations with frames in their driver FIFOs take round-robin
//! turns per access category on the station table's old list, the
//! rotation every round-robin scheme shares.

use std::collections::VecDeque;

use wifiq_core::table::StaId;
use wifiq_phy::AccessCategory;
use wifiq_qdisc::Qdisc;
use wifiq_sim::Nanos;

use super::{rr_list, rr_next, Sta, Table};
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

/// `pfifo_fast`'s per-band packet limit (Linux's default `txqueuelen`).
const PFIFO_LIMIT: usize = 1000;

/// The driver's shared frame budget across the per-TID FIFOs: ath9k's
/// unmanaged buf_q space.
const DRIVER_BUF_FRAMES: usize = 128;

/// `pfifo_fast`'s three-band 802.1d classification, by access category:
/// VO/VI → band 0, BE → band 1, BK → band 2.
fn pfifo_fast_band(t: &Ticket) -> usize {
    match t.ac {
        AccessCategory::Vo | AccessCategory::Vi => 0,
        AccessCategory::Be => 1,
        AccessCategory::Bk => 2,
    }
}

/// The legacy path's queues: the shared qdisc and the driver FIFOs below
/// it.
pub(super) struct Legacy {
    /// `pfifo_fast` (bands by [`pfifo_fast_band`]) or the FQ-CoDel qdisc.
    /// It reports no telemetry.
    pub(super) qdisc: Qdisc<Ticket>,
    /// Per-TID driver FIFOs (ath9k's buf_q), indexed by [`buf_index`].
    bufq: Vec<VecDeque<Ticket>>,
    buf_total: usize,
    /// Packets dropped on this path: qdisc tail-drop or overlimit, and
    /// frames discarded as they surface for a departed station. The
    /// FQ-CoDel qdisc counts its CoDel drops itself.
    pub(super) drops: u64,
}

impl Legacy {
    pub(super) fn new(cfg: &NetworkConfig) -> Legacy {
        Legacy {
            qdisc: if cfg.scheme == SchemeKind::Fifo {
                Qdisc::fifo()
            } else {
                Qdisc::fq_codel()
            },
            bufq: Vec::new(),
            buf_total: 0,
            drops: 0,
        }
    }

    /// Grows the per-TID tables to cover station slot `slot`.
    pub(super) fn add_slot(&mut self, slot: StationIdx) {
        while self.bufq.len() < (slot + 1) * AccessCategory::COUNT {
            self.bufq.push(VecDeque::new());
        }
    }

    /// Packets in the qdisc and the driver FIFOs.
    pub(super) fn backlog(&self) -> usize {
        self.qdisc.len() + self.buf_total
    }

    /// Whether the station at `slot`, viewed as `sta`, has a frame
    /// stashed or in its driver FIFO at `ac`.
    pub(super) fn has_frames(&self, sta: Sta<'_>, slot: StationIdx, ac: AccessCategory) -> bool {
        sta.cold.has_stash(ac.index()) || !self.bufq[buf_index(slot, ac)].is_empty()
    }

    /// Accepts a downlink packet into the qdisc and refills the driver
    /// FIFOs from it.
    pub(super) fn enqueue(
        &mut self,
        t: Ticket,
        now: Nanos,
        table: &mut Table,
        mut on_drop: impl FnMut(Ticket),
    ) {
        let band = pfifo_fast_band(&t);
        if let Some(victim) = self.qdisc.enqueue(t, band, PFIFO_LIMIT, now) {
            self.drops += 1;
            on_drop(victim);
        }
        self.pull_from_qdisc(now, table, on_drop);
    }

    /// Eagerly moves packets from the qdisc into the driver FIFOs while
    /// the shared frame budget allows — the unmanaged lower-layer queueing
    /// of Figure 2 — and lists each station that gains a frame.
    pub(super) fn pull_from_qdisc(
        &mut self,
        now: Nanos,
        table: &mut Table,
        mut on_drop: impl FnMut(Ticket),
    ) {
        while self.buf_total < DRIVER_BUF_FRAMES {
            let Some(t) = self.qdisc.dequeue(now, &mut on_drop) else {
                break;
            };
            // The shared qdisc cannot be filtered on removal; frames for a
            // since-departed station are discarded as they surface.
            let Some(id) = table.id_at(t.peer()) else {
                self.drops += 1;
                on_drop(t);
                continue;
            };
            let aci = t.ac.index();
            self.bufq[buf_index(t.peer(), t.ac)].push_back(t);
            self.buf_total += 1;
            rr_list(table, id, aci);
        }
    }

    /// Empties station slot `slot`'s driver FIFOs into `carry`, or into
    /// `on_drop` when there is none. The shared qdisc is filtered only
    /// under pfifo and only for a hand-off; the FQ-CoDel qdisc's frames
    /// for the slot surface later and are discarded then, exactly as
    /// under churn. Returns the number dropped.
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
        }
        if let Some(out) = carry {
            out.extend(self.qdisc.drain_matching(|t| t.peer() == slot));
        }
        dropped
    }

    /// The station whose driver FIFO (or stash) at `ac` should build the
    /// next aggregate: the round-robin's front, skipping emptied stations.
    pub(super) fn next_tx(&self, ac: AccessCategory, table: &mut Table) -> Option<StaId> {
        rr_next(table, ac.index(), |sta, id| {
            self.has_frames(sta, id.slot(), ac)
        })
    }

    /// Takes the head of `(slot, ac)`'s driver FIFO for an aggregate.
    pub(super) fn pop(&mut self, slot: StationIdx, ac: AccessCategory) -> Option<Ticket> {
        let t = self.bufq[buf_index(slot, ac)].pop_front()?;
        self.buf_total -= 1;
        Some(t)
    }
}
