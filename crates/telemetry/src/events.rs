//! Structured events: a bounded ring of the most recent ones.
//!
//! This generalises the ad-hoc `TxRecord`/`TxMonitor` pair in `wifiq-mac`:
//! any component can emit typed, sim-clock-stamped events. [`EventRing`]
//! keeps the most recent `capacity` of them in an array allocated once,
//! written in place, and counts what it sheds.

use serde::Json;
use wifiq_sim::Nanos;

use crate::registry::Label;

/// Why a packet was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// CoDel control law (sojourn above target for a full interval).
    Codel,
    /// Global FQ packet limit: victim taken from the longest queue.
    Overlimit,
    /// A bounded FIFO was full.
    QueueFull,
    /// Retry budget exhausted at the MAC.
    RetryLimit,
    /// The owning TID/station was detached (station churn) while packets
    /// were still queued.
    Detached,
}

impl DropReason {
    /// Stable lower-case name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            DropReason::Codel => "codel",
            DropReason::Overlimit => "overlimit",
            DropReason::QueueFull => "queue_full",
            DropReason::RetryLimit => "retry_limit",
            DropReason::Detached => "detached",
        }
    }
}

/// What happened.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A packet entered a queue.
    Enqueue {
        /// Queue scope.
        label: Label,
        /// Wire bytes.
        bytes: u32,
    },
    /// A packet was dropped.
    Drop {
        /// Queue scope.
        label: Label,
        /// Wire bytes.
        bytes: u32,
        /// Drop cause.
        reason: DropReason,
    },
    /// The AQM signalled congestion without dropping (CoDel entering its
    /// dropping state).
    Mark {
        /// Queue scope.
        label: Label,
        /// Sojourn time that triggered the signal.
        sojourn: Nanos,
    },
    /// Per-station CoDel parameters switched (rate hysteresis).
    ParamSwitch {
        /// The station (exported as its `Label::Station`). A bare index
        /// rather than a [`Label`] keeps every kind within 32 bytes.
        station: u32,
        /// New target.
        target: Nanos,
        /// New interval.
        interval: Nanos,
    },
    /// The scheduler granted a transmission opportunity.
    Schedule {
        /// Chosen station/flow.
        label: Label,
        /// Deficit after the grant, in scheduler units.
        deficit: i64,
    },
    /// A physical transmission completed; generalises `TxRecord`.
    Tx {
        /// Transmitting or receiving station.
        station: u32,
        /// Access category.
        ac: u8,
        /// Aggregated MPDUs.
        frames: u32,
        /// Payload bytes carried.
        bytes: u64,
        /// Airtime consumed.
        airtime: Nanos,
        /// True for uplink (station to AP).
        uplink: bool,
        /// Whether the exchange succeeded.
        success: bool,
        /// Whether this was a retry.
        retry: bool,
    },
}

impl EventKind {
    /// Stable kind name used in exports.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Enqueue { .. } => "enqueue",
            EventKind::Drop { .. } => "drop",
            EventKind::Mark { .. } => "mark",
            EventKind::ParamSwitch { .. } => "param_switch",
            EventKind::Schedule { .. } => "schedule",
            EventKind::Tx { .. } => "tx",
        }
    }
}

/// One ring entry, 48 bytes: a timestamped [`EventKind`] with the emitting
/// component ("codel", "fq", "mac", ...) interned.
#[derive(Debug)]
struct Entry {
    /// Sim-clock timestamp (never wall clock).
    at: Nanos,
    kind: EventKind,
    /// Index into [`EventRing::components`].
    component: u8,
}

impl Entry {
    /// Lowers the entry to its JSON export form.
    fn to_json(&self, components: &[&'static str]) -> Json {
        let component = components[self.component as usize];
        let mut fields = vec![
            ("at_ns".into(), Json::U64(self.at.as_nanos())),
            ("component".into(), Json::Str(component.into())),
            ("kind".into(), Json::Str(self.kind.name().into())),
        ];
        match &self.kind {
            EventKind::Enqueue { label, bytes } => {
                fields.push(("label".into(), Json::Str(label.to_string())));
                fields.push(("bytes".into(), Json::U64(u64::from(*bytes))));
            }
            EventKind::Drop {
                label,
                bytes,
                reason,
            } => {
                fields.push(("label".into(), Json::Str(label.to_string())));
                fields.push(("bytes".into(), Json::U64(u64::from(*bytes))));
                fields.push(("reason".into(), Json::Str(reason.name().into())));
            }
            EventKind::Mark { label, sojourn } => {
                fields.push(("label".into(), Json::Str(label.to_string())));
                fields.push(("sojourn_ns".into(), Json::U64(sojourn.as_nanos())));
            }
            EventKind::ParamSwitch {
                station,
                target,
                interval,
            } => {
                let label = Label::Station(*station).to_string();
                fields.push(("label".into(), Json::Str(label)));
                fields.push(("target_ns".into(), Json::U64(target.as_nanos())));
                fields.push(("interval_ns".into(), Json::U64(interval.as_nanos())));
            }
            EventKind::Schedule { label, deficit } => {
                fields.push(("label".into(), Json::Str(label.to_string())));
                let d = *deficit;
                if d >= 0 {
                    fields.push(("deficit".into(), Json::U64(d as u64)));
                } else {
                    fields.push(("deficit".into(), Json::I64(d)));
                }
            }
            EventKind::Tx {
                station,
                ac,
                frames,
                bytes,
                airtime,
                uplink,
                success,
                retry,
            } => {
                fields.push(("station".into(), Json::U64(u64::from(*station))));
                fields.push(("ac".into(), Json::U64(u64::from(*ac))));
                fields.push(("frames".into(), Json::U64(u64::from(*frames))));
                fields.push(("bytes".into(), Json::U64(*bytes)));
                fields.push(("airtime_ns".into(), Json::U64(airtime.as_nanos())));
                fields.push(("uplink".into(), Json::Bool(*uplink)));
                fields.push(("success".into(), Json::Bool(*success)));
                fields.push(("retry".into(), Json::Bool(*retry)));
            }
        }
        Json::Obj(fields)
    }
}

/// A bounded ring keeping the most recent events.
#[derive(Debug)]
pub struct EventRing {
    /// Grows to `capacity` inside its one allocation, then is overwritten
    /// in place starting at `head`.
    buf: Vec<Entry>,
    /// Oldest retained entry once the ring is full.
    head: usize,
    capacity: usize,
    total: u64,
    /// Interned component names; a handful per run.
    components: Vec<&'static str>,
}

impl EventRing {
    /// A ring retaining at most `capacity` events.
    pub fn new(capacity: usize) -> EventRing {
        EventRing {
            buf: Vec::with_capacity(capacity),
            head: 0,
            capacity,
            total: 0,
            components: Vec::new(),
        }
    }

    /// Offers one event; the oldest retained one is shed if the ring is
    /// full.
    #[inline]
    pub fn push(&mut self, at: Nanos, component: &'static str, kind: EventKind) {
        self.total += 1;
        if self.capacity == 0 {
            return;
        }
        let entry = Entry {
            at,
            kind,
            component: self.intern(component),
        };
        if self.buf.len() < self.capacity {
            self.buf.push(entry);
        } else {
            self.buf[self.head] = entry;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// The index of `component` among the interned names.
    #[inline]
    fn intern(&mut self, component: &'static str) -> u8 {
        let found = self.components.iter().position(|c| *c == component);
        let i = found.unwrap_or_else(|| {
            assert!(self.components.len() < 256, "over 256 event components");
            self.components.push(component);
            self.components.len() - 1
        });
        i as u8
    }

    /// Total events ever offered, including those the ring shed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Events shed because the ring was full.
    pub fn shed(&self) -> u64 {
        self.total - self.buf.len() as u64
    }

    /// Lowers the ring to its JSON export form.
    pub fn to_json(&self) -> Json {
        // Oldest first: a full ring wraps at `head`.
        let (newer, older) = self.buf.split_at(self.head);
        let entries = older.iter().chain(newer);
        Json::Obj(vec![
            ("capacity".into(), Json::U64(self.capacity as u64)),
            ("total".into(), Json::U64(self.total)),
            ("shed".into(), Json::U64(self.shed())),
            (
                "entries".into(),
                Json::Arr(entries.map(|e| e.to_json(&self.components)).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn offer(ring: &mut EventRing, n: u64, component: &'static str) {
        let kind = EventKind::Enqueue {
            label: Label::Global,
            bytes: 1,
        };
        ring.push(Nanos::from_nanos(n), component, kind);
    }

    /// One field of every retained entry, oldest first.
    fn column(ring: &EventRing, field: &str) -> Vec<Json> {
        match ring.to_json().get("entries") {
            Some(Json::Arr(rows)) => rows
                .iter()
                .map(|e| e.get(field).cloned().unwrap())
                .collect(),
            other => panic!("no entries array: {other:?}"),
        }
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_shed() {
        let mut ring = EventRing::new(3);
        for n in 0..10 {
            offer(&mut ring, n, "test");
        }
        assert_eq!(ring.buf.len(), 3);
        assert_eq!(ring.total(), 10);
        assert_eq!(ring.shed(), 7);
        assert_eq!(column(&ring, "at_ns"), [7, 8, 9].map(Json::U64));
    }

    #[test]
    fn ring_is_allocated_once_and_a_zero_ring_only_counts() {
        let mut ring = EventRing::new(100);
        let allocated = ring.buf.capacity();
        assert!(allocated >= 100);
        for n in 0..1_000 {
            offer(&mut ring, n, "test");
        }
        assert_eq!(ring.buf.capacity(), allocated);
        let mut none = EventRing::new(0);
        offer(&mut none, 1, "test");
        assert_eq!((none.buf.len(), none.total(), none.shed()), (0, 1, 1));
    }

    #[test]
    fn entries_are_48_bytes_and_components_interned_by_content() {
        assert!(std::mem::size_of::<Entry>() <= 48);
        let mut ring = EventRing::new(8);
        // The same name at two addresses is one component.
        let heap: &'static str = String::from("mac").leak();
        for (n, component) in ["mac", "fq", heap, "fq"].into_iter().enumerate() {
            offer(&mut ring, n as u64, component);
        }
        assert_eq!(ring.components, ["mac", "fq"]);
        let names = ["mac", "fq", "mac", "fq"].map(|c| Json::Str(c.into()));
        assert_eq!(column(&ring, "component"), names);
    }
}
