//! The FQ path (FQ-MAC / Airtime schemes): the paper's structure of
//! Figure 3. The qdisc layer is bypassed and packets enter the MAC FQ
//! directly; stations are selected either round-robin (FQ-MAC) or by the
//! airtime-fairness scheduler (Airtime).

use std::collections::VecDeque;

use wifiq_core::fq::MacFq;
use wifiq_core::scheduler::AirtimeScheduler;
use wifiq_core::table::StaId;
use wifiq_phy::AccessCategory;
use wifiq_sim::Nanos;

use super::{ColdSta, Table};
use crate::config::{NetworkConfig, SchemeKind};
use crate::packet::{StationIdx, Ticket};

pub(super) enum StaSched {
    /// Per-AC round-robin over active stations (pre-airtime mainline).
    /// The lists hold station slots; `listed` is scheduler-internal
    /// bookkeeping keyed by slot, kept in step with the table's roster.
    Rr {
        lists: [VecDeque<usize>; AccessCategory::COUNT],
        listed: Vec<[bool; AccessCategory::COUNT]>,
    },
    /// The paper's airtime-fairness scheduler; all its per-station state
    /// (deficits, weights, DRR list links) lives in the station table.
    Airtime(AirtimeScheduler),
}

/// The MAC FQ structure and the station scheduler above it.
pub(super) struct FqPath {
    pub(super) fq: MacFq<Ticket>,
    pub(super) sched: StaSched,
}

impl FqPath {
    pub(super) fn new(cfg: &NetworkConfig) -> FqPath {
        FqPath {
            fq: MacFq::new(cfg.fq),
            sched: if cfg.scheme == SchemeKind::FqMac {
                StaSched::Rr {
                    lists: Default::default(),
                    listed: Vec::new(),
                }
            } else {
                StaSched::Airtime(AirtimeScheduler::new(cfg.airtime))
            },
        }
    }

    /// Allocates a station's table slot — through the airtime scheduler,
    /// which owns its deficits and weight, when there is one.
    pub(super) fn alloc(&mut self, table: &mut Table, cold: ColdSta, weight: u32) -> StaId {
        match &mut self.sched {
            StaSched::Airtime(s) => {
                let id = s.register_station(table, cold);
                table.set_weight(id, weight);
                id
            }
            StaSched::Rr { .. } => table.alloc(cold),
        }
    }

    /// Registers the new station's TIDs and clears its round-robin marks.
    ///
    /// Slot reuse relies on the LIFO lockstep between the table's free
    /// list and the FQ structure's TID free list: both are pushed/popped
    /// only from here and [`FqPath::detach`], so a reused slot always
    /// reclaims the TID set it released — and because the actual TID
    /// handles are stored in the table's stripe, nothing downstream
    /// depends on that arithmetic.
    pub(super) fn attach(&mut self, table: &mut Table, id: StaId) {
        let slot = id.slot();
        for ac in 0..AccessCategory::COUNT {
            let tid = self.fq.register_tid();
            debug_assert_eq!(
                tid.slot() / AccessCategory::COUNT,
                slot,
                "TID free list out of lockstep with station slots"
            );
            table.set_tid(id, ac, tid);
        }
        if let StaSched::Rr { listed, .. } = &mut self.sched {
            while listed.len() <= slot {
                listed.push([false; AccessCategory::COUNT]);
            }
            listed[slot] = [false; AccessCategory::COUNT];
        }
    }

    /// Detaches the station's TIDs, handing their frames to `carry` or,
    /// when there is none, to `on_drop`; pulls the slot out of the
    /// round-robin lists mid-round without disturbing the survivors'
    /// order. (The airtime scheduler unlinks the station when its table
    /// slot is freed.) Returns the number dropped.
    pub(super) fn detach(
        &mut self,
        table: &Table,
        id: StaId,
        now: Nanos,
        mut carry: Option<&mut Vec<Ticket>>,
        mut on_drop: impl FnMut(Ticket),
    ) -> usize {
        let mut dropped = 0;
        for ac in 0..AccessCategory::COUNT {
            let tid = table.tid(id, ac);
            match carry.as_deref_mut() {
                Some(out) => out.extend(self.fq.unregister_tid_migrate(tid)),
                None => dropped += self.fq.unregister_tid_with(tid, now, &mut on_drop),
            }
        }
        if let StaSched::Rr { lists, listed } = &mut self.sched {
            let slot = id.slot();
            for (aci, l) in lists.iter_mut().enumerate() {
                if listed[slot][aci] {
                    l.retain(|&x| x != slot);
                    listed[slot][aci] = false;
                }
            }
        }
        dropped
    }

    /// Queues a downlink packet in its station's TID and lists the
    /// station with the scheduler. An overlimit victim goes to `on_drop`.
    pub(super) fn enqueue(
        &mut self,
        t: Ticket,
        now: Nanos,
        table: &mut Table,
        mut on_drop: impl FnMut(Ticket),
    ) {
        let (slot, aci) = (t.peer(), t.ac.index());
        let id = table.id_at(slot).expect("enqueue for a removed station");
        if let Some(victim) = self.fq.enqueue(t, table.tid(id, aci), now) {
            on_drop(victim);
        }
        match &mut self.sched {
            StaSched::Rr { lists, listed } => {
                if !listed[slot][aci] {
                    listed[slot][aci] = true;
                    lists[aci].push_back(slot);
                }
            }
            StaSched::Airtime(s) => s.notify_active(table, id, aci),
        }
    }

    /// The station the scheduler picks at `ac`, among those with a stash
    /// or queued frames that `eligible` does not veto.
    pub(super) fn next_tx(
        &mut self,
        ac: AccessCategory,
        table: &mut Table,
        eligible: impl Fn(StaId) -> bool,
    ) -> Option<StaId> {
        let aci = ac.index();
        let fq = &self.fq;
        match &mut self.sched {
            StaSched::Rr { lists, listed } => loop {
                let &slot = lists[aci].front()?;
                let id = table.id_at(slot)?;
                let tid = table.tid(id, aci);
                let has =
                    (table.cold(id).stash[aci].is_some() || fq.tid_has_data(tid)) && eligible(id);
                if has {
                    return Some(id);
                }
                lists[aci].pop_front();
                listed[slot][aci] = false;
            },
            StaSched::Airtime(s) => s.next_station(table, aci, |t, id| {
                (t.cold(id).stash[aci].is_some() || fq.tid_has_data(t.tid(id, aci))) && eligible(id)
            }),
        }
    }

    /// Re-lists a station with traffic (see `ApTxPath::reactivate`).
    pub(super) fn reactivate(&mut self, table: &mut Table, id: StaId, aci: usize) {
        match &mut self.sched {
            StaSched::Rr { lists, listed } => {
                let slot = id.slot();
                if !listed[slot][aci] {
                    listed[slot][aci] = true;
                    lists[aci].push_back(slot);
                }
            }
            StaSched::Airtime(s) => s.notify_active(table, id, aci),
        }
    }

    /// Post-build round-robin advance (FQ-MAC); the airtime scheduler
    /// rotates via deficits instead.
    pub(super) fn rotate(&mut self, slot: StationIdx, aci: usize) {
        if let StaSched::Rr { lists, .. } = &mut self.sched {
            if lists[aci].front() == Some(&slot) {
                lists[aci].pop_front();
                lists[aci].push_back(slot);
            }
        }
    }
}
