//! # wifiq-telemetry
//!
//! Workspace-wide observability: a simulation-clock-driven metrics registry
//! (counters, gauges, log-linear histograms with p50/p95/p99/max) addressed
//! by `(component, metric, label)`, a bounded structured-event ring
//! ([`EventRing`]), and deterministic JSON/CSV snapshot export.
//!
//! ## Design
//!
//! A [`Telemetry`] handle is a cheap clone (`Option<Rc<RefCell<Hub>>>`).
//! The disabled handle is a `None` and every recording method is a single
//! branch — instrumented hot paths pay one predictable-untaken test when
//! metrics are off. The hub owns one recorder table ([`Registry`]: dense
//! value arrays behind a hashed key index) and one event ring. Per-packet
//! sites resolve their keys once (see [`handles`]) and write by index,
//! several writes under one [`Telemetry::batch`]; cold sites write by key.
//! All timestamps come from the sim clock (`Nanos`), never wall clock, and
//! every export sorts its keys, so two same-seed runs export
//! byte-identical snapshots.
//!
//! ## Use
//!
//! ```
//! use wifiq_sim::Nanos;
//! use wifiq_telemetry::{Label, Telemetry};
//!
//! let tele = Telemetry::enabled();
//! tele.count("mac", "tx_airtime_ns", Label::Station(0), 1_500_000);
//! tele.observe("codel", "sojourn_ns", Label::Tid(0), Nanos::from_micros(350));
//! let snapshot = tele.snapshot("demo", 42);
//! assert!(snapshot.pretty().contains("tx_airtime_ns"));
//!
//! let off = Telemetry::disabled();      // no-op fast path
//! off.count("mac", "tx_airtime_ns", Label::Station(0), 1);
//! assert!(off.snapshot("demo", 42).get("registry").is_none());
//! ```

pub mod events;
pub mod handles;
pub mod hist;
pub mod registry;

use std::cell::{RefCell, RefMut};
use std::path::{Path, PathBuf};
use std::rc::Rc;

pub use events::{DropReason, EventKind, EventRing};
pub use handles::{CounterHandle, CounterId, GaugeId, HistHandle, HistId};
pub use hist::Histogram;
pub use registry::{Label, Registry};

use registry::{Key, Recorder, Series};
pub use serde::Json;

use wifiq_sim::Nanos;

/// Default event-ring capacity for [`Telemetry::enabled`].
pub const DEFAULT_EVENT_CAPACITY: usize = 4096;

/// Shared state behind an enabled [`Telemetry`] handle: the one copy of
/// every counter, gauge and histogram, and the event ring.
#[derive(Debug)]
struct Hub {
    registry: Registry,
    events: EventRing,
}

/// The hub, borrowed for a run of writes (see [`Telemetry::batch`]).
/// Every write `Telemetry` offers is one of these.
#[derive(Debug)]
pub struct Batch<'a>(RefMut<'a, Hub>);

impl Batch<'_> {
    /// Adds `delta` to a counter this hub resolved.
    #[inline]
    pub fn add(&mut self, id: CounterId, delta: u64) {
        let v = &mut self.0.registry.counters.vals[id.0 as usize];
        *v = v.wrapping_add(delta);
    }

    /// Sets a gauge this hub resolved to its latest value.
    #[inline]
    pub fn set(&mut self, id: GaugeId, value: f64) {
        self.0.registry.gauges.vals[id.0 as usize] = Some(value);
    }

    /// Records one sample into a histogram this hub resolved.
    #[inline]
    pub fn record(&mut self, id: HistId, value: u64) {
        self.0.registry.hists.vals[id.0 as usize].record(value);
    }

    /// Emits a structured event into the ring.
    #[inline]
    pub fn event(&mut self, at: Nanos, component: &'static str, kind: EventKind) {
        self.0.events.push(at, component, kind);
    }
}

/// A cheaply clonable telemetry handle; `disabled()` makes every operation
/// a no-op behind a single branch.
#[derive(Debug, Clone, Default)]
pub struct Telemetry(Option<Rc<RefCell<Hub>>>);

impl Telemetry {
    /// The no-op handle. This is also the `Default`.
    pub fn disabled() -> Telemetry {
        Telemetry(None)
    }

    /// A live handle with the default event-ring capacity.
    pub fn enabled() -> Telemetry {
        Telemetry::with_event_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// A live handle retaining at most `capacity` events.
    pub fn with_event_capacity(capacity: usize) -> Telemetry {
        Telemetry(Some(Rc::new(RefCell::new(Hub {
            registry: Registry::new(),
            events: EventRing::new(capacity),
        }))))
    }

    /// True if this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Borrows the hub for several writes in a row: what a per-packet
    /// site that records more than one thing uses in place of
    /// `is_enabled()` and one call each. `None` when disabled. Drop it
    /// before calling anything that may itself record.
    #[inline]
    pub fn batch(&self) -> Option<Batch<'_>> {
        self.0.as_ref().map(|hub| Batch(hub.borrow_mut()))
    }

    /// Runs `f` on the recorder table, if enabled.
    fn keyed(&self, f: impl FnOnce(&mut Registry)) {
        if let Some(mut b) = self.batch() {
            f(&mut b.0.registry);
        }
    }

    /// Adds `delta` to a monotonic counter, by key.
    pub fn count(&self, component: &'static str, metric: &'static str, label: Label, delta: u64) {
        self.keyed(|r| *r.counters.keyed_mut((component, metric, label)) += delta);
    }

    /// Sets a gauge to its latest value, by key.
    pub fn gauge(&self, component: &'static str, metric: &'static str, label: Label, value: f64) {
        self.keyed(|r| *r.gauges.keyed_mut((component, metric, label)) = Some(value));
    }

    /// Records a duration sample into a histogram, by key.
    pub fn observe(&self, component: &'static str, metric: &'static str, label: Label, at: Nanos) {
        self.observe_value(component, metric, label, at.as_nanos());
    }

    /// Records a dimensionless magnitude (bytes, frames, ...) into a
    /// histogram, by key.
    pub fn observe_value(
        &self,
        component: &'static str,
        metric: &'static str,
        label: Label,
        value: u64,
    ) {
        self.keyed(|r| r.hists.keyed_mut((component, metric, label)).record(value));
    }

    /// The index `series` gives `key`; the scratch index when disabled.
    fn resolve<V: Recorder>(&self, series: fn(&mut Registry) -> &mut Series<V>, key: Key) -> u32 {
        self.batch()
            .map_or(0, |mut b| series(&mut b.0.registry).resolve(key))
    }

    /// Resolves a counter's key to its recorder index; [`Telemetry::add`]
    /// then skips the per-call key lookup. Resolve at
    /// instrument-registration time, never per packet.
    pub fn counter_id(
        &self,
        component: &'static str,
        metric: &'static str,
        label: Label,
    ) -> CounterId {
        CounterId(self.resolve(|r| &mut r.counters, (component, metric, label)))
    }

    /// Resolves a gauge's key (see [`Telemetry::counter_id`]).
    pub fn gauge_id(&self, component: &'static str, metric: &'static str, label: Label) -> GaugeId {
        GaugeId(self.resolve(|r| &mut r.gauges, (component, metric, label)))
    }

    /// Resolves a histogram's key (see [`Telemetry::counter_id`]).
    pub fn hist_id(&self, component: &'static str, metric: &'static str, label: Label) -> HistId {
        HistId(self.resolve(|r| &mut r.hists, (component, metric, label)))
    }

    /// [`Telemetry::counter_id`] paired with this hub, for a holder that
    /// keeps no `Telemetry` of its own.
    pub fn counter_handle(
        &self,
        component: &'static str,
        metric: &'static str,
        label: Label,
    ) -> CounterHandle {
        let id = self.counter_id(component, metric, label);
        let tele = self.clone();
        CounterHandle { tele, id }
    }

    /// [`Telemetry::hist_id`] paired with this hub.
    pub fn hist_handle(
        &self,
        component: &'static str,
        metric: &'static str,
        label: Label,
    ) -> HistHandle {
        let id = self.hist_id(component, metric, label);
        let tele = self.clone();
        HistHandle { tele, id }
    }

    /// [`Batch::add`] on its own.
    #[inline]
    pub fn add(&self, id: CounterId, delta: u64) {
        if let Some(mut b) = self.batch() {
            b.add(id, delta);
        }
    }

    /// [`Batch::set`] on its own.
    #[inline]
    pub fn set(&self, id: GaugeId, value: f64) {
        if let Some(mut b) = self.batch() {
            b.set(id, value);
        }
    }

    /// [`Batch::record`] on its own.
    #[inline]
    pub fn record(&self, id: HistId, value: u64) {
        if let Some(mut b) = self.batch() {
            b.record(id, value);
        }
    }

    /// [`Batch::event`] on its own.
    #[inline]
    pub fn event(&self, at: Nanos, component: &'static str, kind: EventKind) {
        if let Some(mut b) = self.batch() {
            b.event(at, component, kind);
        }
    }

    /// Key resolutions performed so far — one per keyed write, one per id
    /// or handle handed out, none per indexed write. Flat across a window
    /// means nothing in it looked a key up.
    pub fn resolutions(&self) -> u64 {
        self.with_registry(Registry::resolutions).unwrap_or(0)
    }

    /// Recorders allocated so far, written or not. Bounded by the number
    /// of distinct keys ever resolved, however often each was.
    pub fn recorders(&self) -> usize {
        self.with_registry(Registry::recorders).unwrap_or(0)
    }

    /// Runs `f` against the registry (read-only), if enabled.
    pub fn with_registry<R>(&self, f: impl FnOnce(&Registry) -> R) -> Option<R> {
        self.0.as_ref().map(|hub| f(&hub.borrow().registry))
    }

    /// Takes everything recorded so far out of this handle, leaving every
    /// recorder empty and every resolved id valid; `None` when disabled.
    /// Lets a shard worker hand its metrics (a plain `Send` value, unlike
    /// the `Rc`-based handle) to a coordinator for rollup.
    pub fn take_registry(&self) -> Option<Registry> {
        self.0.as_ref().map(|hub| hub.borrow_mut().registry.take())
    }

    /// Folds a detached registry into this handle's registry, rewriting
    /// each label through `relabel` — the cross-shard rollup. No-op when
    /// disabled.
    pub fn absorb_registry(&self, other: &Registry, relabel: impl Fn(Label) -> Label) {
        self.keyed(|r| r.merge_relabeled(other, relabel));
    }

    /// Reads a counter, 0 when disabled or never touched.
    pub fn counter(&self, component: &str, metric: &str, label: Label) -> u64 {
        self.with_registry(|r| r.counter(component, metric, label))
            .unwrap_or(0)
    }

    /// The full run snapshot as a JSON value. For a disabled handle this is
    /// a stub object with `"enabled": false` and no registry.
    pub fn snapshot(&self, run: &str, seed: u64) -> Json {
        let mut fields = vec![
            ("run".into(), Json::Str(run.into())),
            ("seed".into(), Json::U64(seed)),
            ("enabled".into(), Json::Bool(self.is_enabled())),
        ];
        if let Some(hub) = &self.0 {
            let hub = hub.borrow();
            fields.push(("registry".into(), hub.registry.to_json()));
            fields.push(("events".into(), hub.events.to_json()));
        }
        Json::Obj(fields)
    }

    /// The snapshot in long-format CSV (`kind,component,metric,label,stat,value`).
    pub fn snapshot_csv(&self, run: &str, seed: u64) -> String {
        let mut out = String::from("kind,component,metric,label,stat,value\n");
        out.push_str(&format!("meta,run,,,name,{run}\n"));
        out.push_str(&format!("meta,run,,,seed,{seed}\n"));
        if let Some(hub) = &self.0 {
            let hub = hub.borrow();
            hub.registry.write_csv(&mut out);
            out.push_str(&format!("meta,events,,,total,{}\n", hub.events.total()));
            out.push_str(&format!("meta,events,,,shed,{}\n", hub.events.shed()));
        }
        out
    }

    /// Writes `<name>.json` and `<name>.csv` under `dir`, creating it as
    /// needed, and returns both paths. Call once per rep with a
    /// seed-qualified name to keep runs side by side.
    pub fn export(&self, dir: &Path, name: &str, seed: u64) -> std::io::Result<(PathBuf, PathBuf)> {
        std::fs::create_dir_all(dir)?;
        let json_path = dir.join(format!("{name}.json"));
        let csv_path = dir.join(format!("{name}.csv"));
        // Concurrent exporters (parallel repetitions or experiment
        // binaries) may target the same snapshot name; write-to-temp plus
        // atomic rename guarantees readers never see a torn file.
        static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let write_atomic = |path: &Path, bytes: &[u8]| -> std::io::Result<()> {
            let tmp = dir.join(format!(
                ".tmp-{}-{}-{}",
                std::process::id(),
                TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
                path.file_name()
                    .and_then(|n| n.to_str())
                    .unwrap_or("snapshot"),
            ));
            std::fs::write(&tmp, bytes)?;
            std::fs::rename(&tmp, path)
        };
        let mut json = self.snapshot(name, seed).pretty();
        json.push('\n');
        write_atomic(&json_path, json.as_bytes())?;
        write_atomic(&csv_path, self.snapshot_csv(name, seed).as_bytes())?;
        Ok((json_path, csv_path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.count("a", "b", Label::Global, 1);
        t.gauge("a", "g", Label::Global, 1.0);
        t.observe("a", "h", Label::Global, Nanos::from_micros(5));
        t.event(
            Nanos::ZERO,
            "a",
            EventKind::Mark {
                label: Label::Global,
                sojourn: Nanos::ZERO,
            },
        );
        assert_eq!(t.counter("a", "b", Label::Global), 0);
        assert!(t.snapshot("x", 0).get("registry").is_none());
    }

    #[test]
    fn clones_share_one_hub() {
        let t = Telemetry::enabled();
        let u = t.clone();
        u.count("a", "b", Label::Station(3), 2);
        t.count("a", "b", Label::Station(3), 5);
        assert_eq!(t.counter("a", "b", Label::Station(3)), 7);
    }

    #[test]
    fn snapshot_contains_quantiles_and_events() {
        let t = Telemetry::enabled();
        for us in [100u64, 200, 400, 800] {
            t.observe("codel", "sojourn_ns", Label::Tid(0), Nanos::from_micros(us));
        }
        t.event(
            Nanos::from_millis(1),
            "codel",
            EventKind::Drop {
                label: Label::Tid(0),
                bytes: 1514,
                reason: DropReason::Codel,
            },
        );
        let text = t.snapshot("run", 7).pretty();
        for needle in ["p50", "p95", "p99", "sojourn_ns", "\"drop\"", "codel"] {
            assert!(text.contains(needle), "missing {needle} in {text}");
        }
    }
}
