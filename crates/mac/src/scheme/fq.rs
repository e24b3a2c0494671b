//! The FQ path (FQ-MAC / Airtime schemes): the paper's structure of
//! Figure 3. The qdisc layer is bypassed and packets enter the MAC FQ
//! directly; stations are selected either round-robin on the station
//! table's old list (FQ-MAC, the rotation every round-robin scheme
//! shares) or by the airtime-fairness scheduler (Airtime), whose DRR
//! lists are the same table's.

use wifiq_core::fq::MacFq;
use wifiq_core::scheduler::AirtimeScheduler;
use wifiq_core::table::{StaId, StaMut};
use wifiq_phy::AccessCategory;
use wifiq_sim::Nanos;

use super::{rr_list, rr_next, ColdSta, Sta, Table};
use crate::config::{NetworkConfig, SchemeKind};
use crate::packet::Ticket;

/// Whether the station viewed as `sta` has a frame stashed, or queued in
/// `fq`, at `aci`.
pub(super) fn has_frames(fq: &MacFq<Ticket>, sta: Sta<'_>, aci: usize) -> bool {
    sta.cold.has_stash(aci) || fq.tid_has_data(sta.tid(aci))
}

/// The MAC FQ structure and the station scheduler above it.
pub(super) struct FqPath {
    pub(super) fq: MacFq<Ticket>,
    /// The paper's airtime-fairness scheduler (Airtime); `None` under
    /// FQ-MAC, which takes round-robin turns. All per-station state
    /// (deficits, weights, list links) lives in the station table.
    pub(super) sched: Option<AirtimeScheduler>,
}

impl FqPath {
    pub(super) fn new(cfg: &NetworkConfig) -> FqPath {
        // The AP's structure fills to its global limit on any saturated
        // run: its arena is allocated once, at that size.
        let mut fq = MacFq::new(cfg.fq);
        fq.reserve(cfg.fq.limit);
        FqPath {
            fq,
            sched: (cfg.scheme == SchemeKind::AirtimeFair)
                .then(|| AirtimeScheduler::new(cfg.airtime)),
        }
    }

    /// Allocates a station's table slot — through the airtime scheduler,
    /// which owns its deficits and weight, when there is one.
    pub(super) fn alloc(&mut self, table: &mut Table, cold: ColdSta, weight: u32) -> StaId {
        match &mut self.sched {
            Some(s) => {
                let id = s.register_station(table, cold);
                table.set_ac_weights(id, [weight; AccessCategory::COUNT]);
                id
            }
            None => table.alloc(cold),
        }
    }

    /// Registers the new station's TIDs.
    ///
    /// Slot reuse relies on the LIFO lockstep between the table's free
    /// list and the FQ structure's TID free list: both are pushed/popped
    /// only from here and [`FqPath::detach`], so a reused slot always
    /// reclaims the TID set it released — and because the actual TID
    /// handles are stored in the table's rows, nothing downstream
    /// depends on that arithmetic.
    pub(super) fn attach(&mut self, sta: &mut StaMut<'_, ColdSta>, slot: usize) {
        for ac in 0..AccessCategory::COUNT {
            let tid = self.fq.register_tid();
            debug_assert_eq!(
                tid.slot() / AccessCategory::COUNT,
                slot,
                "TID free list out of lockstep with station slots"
            );
            sta.set_tid(ac, tid);
        }
    }

    /// Detaches the station's TIDs, handing their frames to `carry` or,
    /// when there is none, to `on_drop`. Freeing the station's table slot
    /// afterwards takes it off the scheduling lists. Returns the number
    /// dropped.
    pub(super) fn detach(
        &mut self,
        sta: &StaMut<'_, ColdSta>,
        now: Nanos,
        mut carry: Option<&mut Vec<Ticket>>,
        mut on_drop: impl FnMut(Ticket),
    ) -> usize {
        let mut dropped = 0;
        for ac in 0..AccessCategory::COUNT {
            let tid = sta.tid(ac);
            match carry.as_deref_mut() {
                Some(out) => out.extend(self.fq.unregister_tid_migrate(tid)),
                None => dropped += self.fq.unregister_tid_with(tid, now, &mut on_drop),
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
        let aci = t.ac.index();
        let (id, sta) = table
            .get_at(t.peer())
            .expect("enqueue for a removed station");
        if let Some(victim) = self.fq.enqueue(t, sta.tid(aci), now) {
            on_drop(victim);
        }
        self.reactivate(table, id, aci);
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
        let has = |sta: Sta<'_>, id| has_frames(fq, sta, aci) && eligible(id);
        match &mut self.sched {
            Some(s) => s.next_station(table, aci, has),
            None => rr_next(table, aci, has),
        }
    }

    /// Lists a station with traffic with the scheduler (see
    /// `ApTxPath::reactivate`).
    pub(super) fn reactivate(&mut self, table: &mut Table, id: StaId, aci: usize) {
        match &mut self.sched {
            Some(s) => s.notify_active(table, id, aci),
            None => rr_list(table, id, aci),
        }
    }
}
