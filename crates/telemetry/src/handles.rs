//! Pre-resolved recorders — the per-packet fast path.
//!
//! A keyed write ([`crate::Telemetry::count`] and friends) hashes its
//! `(component, metric, label)` on every call: fine for cold sites (a
//! join, a policy switch, per-repetition bookkeeping), far too much per
//! packet. Resolving a key once — at `set_telemetry` / registration time —
//! yields the index of its recorder in the hub's table; a write through
//! that index is one bounds-checked array access, with no key comparison
//! anywhere. Resolving is idempotent (the same key always yields the same
//! index), and a recorder that is resolved but never written stays out of
//! every export.
//!
//! The index comes in two forms. An *id* ([`CounterId`], [`GaugeId`],
//! [`HistId`]) is the bare `u32`, for structs that already hold the
//! [`crate::Telemetry`] it was resolved from and write through
//! [`crate::Telemetry::batch`]; the default id addresses a scratch
//! recorder no export visits, so an unresolved bundle is harmless. A
//! *handle* ([`CounterHandle`], [`HistHandle`]) pairs the id with its hub,
//! for holders that keep nothing else.

use crate::Telemetry;

/// Index of a counter in the hub that resolved it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterId(pub(crate) u32);

/// Index of a gauge in the hub that resolved it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GaugeId(pub(crate) u32);

/// Index of a histogram in the hub that resolved it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistId(pub(crate) u32);

/// A recorder id together with the hub that resolved it; the default is
/// a permanent no-op (what a disabled hub resolves).
#[derive(Debug, Clone, Default)]
pub struct Handle<I> {
    pub(crate) tele: Telemetry,
    pub(crate) id: I,
}

/// A pre-resolved monotonic counter.
pub type CounterHandle = Handle<CounterId>;

/// A pre-resolved histogram.
pub type HistHandle = Handle<HistId>;

impl CounterHandle {
    /// Adds `delta` to the counter.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.tele.add(self.id, delta);
    }
}

impl HistHandle {
    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.tele.record(self.id, value);
    }
}

#[cfg(test)]
mod tests {
    use crate::{CounterId, GaugeId, HistId, Label, Telemetry};

    #[test]
    fn disabled_handles_are_inert() {
        let t = Telemetry::disabled();
        let c = t.counter_handle("fq", "enqueued", Label::Tid(0));
        let g = t.gauge_id("fq", "occupancy_packets", Label::Global);
        let h = t.hist_handle("fq", "occupancy_packets", Label::Global);
        c.add(3);
        t.set(g, 1.0);
        h.record(7);
        assert_eq!(t.counter("fq", "enqueued", Label::Tid(0)), 0);
        assert_eq!((t.resolutions(), t.recorders()), (0, 0));
    }

    #[test]
    fn handle_records_are_visible_on_read() {
        let t = Telemetry::enabled();
        let c = t.counter_handle("fq", "enqueued", Label::Tid(2));
        c.add(5);
        c.add(7);
        assert_eq!(t.counter("fq", "enqueued", Label::Tid(2)), 12);
        assert_eq!(t.counter("fq", "enqueued", Label::Tid(2)), 12);
        c.add(1);
        assert_eq!(t.counter("fq", "enqueued", Label::Tid(2)), 13);
    }

    #[test]
    fn handle_and_addressed_writes_share_a_key() {
        let t = Telemetry::enabled();
        let c = t.counter_id("fq", "drops", Label::Global);
        t.count("fq", "drops", Label::Global, 2);
        t.add(c, 3);
        assert_eq!(t.counter("fq", "drops", Label::Global), 5);
    }

    #[test]
    fn gauge_handle_last_write_wins() {
        // Literally the last write, whichever way it was written.
        let t = Telemetry::enabled();
        let g = t.gauge_id("fq", "occupancy_packets", Label::Global);
        let read = || {
            t.with_registry(|r| r.gauge("fq", "occupancy_packets", Label::Global))
                .flatten()
        };
        t.set(g, 4.0);
        t.gauge("fq", "occupancy_packets", Label::Global, 9.0);
        assert_eq!(read(), Some(9.0));
        t.set(g, 2.0);
        assert_eq!(read(), Some(2.0));
    }

    #[test]
    fn hist_handle_merges_into_snapshot() {
        let t = Telemetry::enabled();
        let h = t.hist_handle("codel", "sojourn_ns", Label::Tid(1));
        for v in [100u64, 200, 400] {
            h.record(v);
        }
        let count = t
            .with_registry(|r| {
                r.hist("codel", "sojourn_ns", Label::Tid(1))
                    .map(|h| h.count())
            })
            .flatten();
        assert_eq!(count, Some(3));
        let text = t.snapshot("run", 0).pretty();
        assert!(text.contains("sojourn_ns"));
    }

    #[test]
    fn untouched_handles_leave_no_keys() {
        let t = Telemetry::enabled();
        let c = t.counter_id("fq", "enqueued", Label::Tid(0));
        let _g = t.gauge_id("fq", "occupancy_packets", Label::Global);
        let _h = t.hist_id("fq", "occupancy_packets", Label::Global);
        t.add(c, 0);
        assert!(t.with_registry(|r| r.is_empty()).unwrap());
        // A keyed zero, by contrast, creates its row.
        t.count("fq", "enqueued", Label::Tid(0), 0);
        assert!(t
            .snapshot_csv("", 0)
            .contains("counter,fq,enqueued,tid0,value,0\n"));
    }

    #[test]
    fn default_ids_write_to_a_recorder_no_export_visits() {
        let t = Telemetry::enabled();
        t.add(CounterId::default(), 9);
        t.set(GaugeId::default(), 9.0);
        t.record(HistId::default(), 9);
        assert!(t.with_registry(|r| r.is_empty()).unwrap());
        assert!(t.take_registry().unwrap().is_empty());
        assert_eq!(t.recorders(), 0);
    }

    #[test]
    fn resolving_is_idempotent() {
        let t = Telemetry::enabled();
        let first = t.counter_id("fq", "enqueued", Label::Tid(0));
        for _ in 0..10_000 {
            assert_eq!(t.counter_id("fq", "enqueued", Label::Tid(0)), first);
            assert_eq!(t.counter_handle("fq", "enqueued", Label::Tid(0)).id, first);
        }
        assert_eq!(t.recorders(), 1, "one key, one recorder");
        assert_eq!(t.resolutions(), 20_001);
        // The three kinds are separate tables: one name may be all three.
        t.gauge_id("fq", "enqueued", Label::Tid(0));
        t.hist_id("fq", "enqueued", Label::Tid(0));
        t.gauge_id("fq", "enqueued", Label::Tid(0));
        assert_eq!(t.recorders(), 3);
    }

    #[test]
    fn take_registry_captures_handle_state_and_keeps_ids() {
        let t = Telemetry::enabled();
        let c = t.counter_id("fq", "enqueued", Label::Tid(0));
        t.add(c, 4);
        let taken = t.take_registry().unwrap();
        assert_eq!(taken.counter("fq", "enqueued", Label::Tid(0)), 4);
        // The id survives the take and addresses the emptied recorder.
        t.add(c, 2);
        assert_eq!(t.counter("fq", "enqueued", Label::Tid(0)), 2);
        assert_eq!(t.recorders(), 1);
    }
}
