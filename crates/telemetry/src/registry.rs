//! The recorder table: counters, gauges and histograms addressed by
//! `(component, metric, label)`.
//!
//! Each kind is a `Series`: values in one dense array, a hashed
//! `key → index` map consulted only when a key is *resolved* (a keyed
//! write, or [`crate::Telemetry::counter_id`] and friends), and no order
//! at all until something is *read* — every export sorts the live keys, so
//! snapshots are deterministically ordered regardless of insertion order.

use std::collections::HashMap;
use std::fmt;

use serde::Json;

use crate::hist::Histogram;

/// The entity a metric is scoped to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Label {
    /// Whole-component metric.
    Global,
    /// Per-station metric (station index).
    Station(u32),
    /// Per-flow metric (flow id).
    Flow(u64),
    /// Per-access-category / TID metric.
    Tid(u32),
    /// Per-policy-node metric (one node of an airtime policy tree).
    Node(u32),
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Label::Global => f.write_str("global"),
            Label::Station(s) => write!(f, "sta{s}"),
            Label::Flow(id) => write!(f, "flow{id}"),
            Label::Tid(t) => write!(f, "tid{t}"),
            Label::Node(n) => write!(f, "node{n}"),
        }
    }
}

/// Full metric address.
pub type Key = (&'static str, &'static str, Label);

/// What a [`Series`] stores per key.
pub(crate) trait Recorder: Default {
    /// Whether an indexed write has touched this recorder. A key that is
    /// resolved but never written stays out of every export.
    fn live(&self) -> bool;
}

impl Recorder for u64 {
    fn live(&self) -> bool {
        *self != 0
    }
}

// A gauge is its latest value, once set.
impl Recorder for Option<f64> {
    fn live(&self) -> bool {
        self.is_some()
    }
}

impl Recorder for Histogram {
    fn live(&self) -> bool {
        self.count() > 0
    }
}

/// Every recorder of one kind. Index 0 is a keyless scratch recorder that
/// no export visits: it is what a default (unresolved) id addresses.
#[derive(Debug)]
pub(crate) struct Series<V> {
    index: HashMap<Key, u32>,
    keys: Vec<Key>,
    /// Written through its key at least once: exported even while its
    /// value is the default (`count(.., 0)` creates its key).
    keyed: Vec<bool>,
    pub(crate) vals: Vec<V>,
    /// One per [`Series::resolve`]; indexed writes perform none.
    resolutions: u64,
}

impl<V: Recorder> Default for Series<V> {
    fn default() -> Series<V> {
        Series {
            index: HashMap::new(),
            keys: vec![("", "", Label::Global)],
            keyed: vec![false],
            vals: vec![V::default()],
            resolutions: 0,
        }
    }
}

impl<V: Recorder> Series<V> {
    /// The recorder index of `key`, allocated on first sight: the same
    /// key always resolves to the same recorder.
    pub(crate) fn resolve(&mut self, key: Key) -> u32 {
        self.resolutions += 1;
        *self.index.entry(key).or_insert_with(|| {
            self.keys.push(key);
            self.keyed.push(false);
            self.vals.push(V::default());
            (self.keys.len() - 1) as u32
        })
    }

    /// The recorder of `key`, for a keyed write.
    pub(crate) fn keyed_mut(&mut self, key: Key) -> &mut V {
        let i = self.resolve(key) as usize;
        self.keyed[i] = true;
        &mut self.vals[i]
    }

    /// Keyed read. `HashMap` is covariant in its key, so the stored
    /// `&'static str` parts shorten to the probe's lifetime and a read is
    /// one hash probe however many keys the run recorded.
    fn find<'a>(&'a self, component: &'a str, metric: &'a str, label: Label) -> Option<&'a V> {
        let index: &'a HashMap<(&'a str, &'a str, Label), u32> = &self.index;
        let i = *index.get(&(component, metric, label))? as usize;
        (self.keyed[i] || self.vals[i].live()).then(|| &self.vals[i])
    }

    /// Live recorders in allocation order.
    fn live(&self) -> impl Iterator<Item = (Key, &V)> {
        let all = self.keys.iter().zip(&self.keyed).zip(&self.vals).skip(1);
        all.filter(|((_, keyed), v)| **keyed || v.live())
            .map(|((key, _), v)| (*key, v))
    }

    /// Live recorders in key order — the order of every export.
    fn sorted(&self) -> Vec<(Key, &V)> {
        let mut rows: Vec<_> = self.live().collect();
        rows.sort_unstable_by_key(|&(key, _)| key);
        rows
    }

    /// Moves every live value out into a fresh series and resets this one
    /// in place; indices already handed out stay valid.
    fn take(&mut self) -> Series<V> {
        let mut out = Series::default();
        for i in 1..self.keys.len() {
            if std::mem::take(&mut self.keyed[i]) || self.vals[i].live() {
                *out.keyed_mut(self.keys[i]) = std::mem::take(&mut self.vals[i]);
            }
        }
        out
    }
}

/// Holds every metric recorded during a run.
#[derive(Debug, Default)]
pub struct Registry {
    pub(crate) counters: Series<u64>,
    pub(crate) gauges: Series<Option<f64>>,
    pub(crate) hists: Series<Histogram>,
}

/// Every histogram statistic an export carries, in column order.
fn hist_stats(h: &Histogram) -> [(&'static str, u64); 8] {
    [
        ("count", h.count()),
        ("sum", h.sum()),
        ("min", h.min()),
        ("p50", h.quantile(0.50)),
        ("p95", h.quantile(0.95)),
        ("p99", h.quantile(0.99)),
        ("max", h.max()),
        ("overflow", h.overflow_count()),
    ]
}

/// One kind's live recorders as `{component, metric, label, ...stats}`
/// rows in key order.
fn json_rows<V: Recorder, const N: usize>(
    series: &Series<V>,
    stats: impl Fn(&V) -> [(&'static str, Json); N],
) -> Json {
    let row = |((c, m, l), v): (Key, &V)| {
        let mut fields = vec![
            ("component".into(), Json::Str(c.into())),
            ("metric".into(), Json::Str(m.into())),
            ("label".into(), Json::Str(l.to_string())),
        ];
        fields.extend(stats(v).map(|(name, stat)| (name.into(), stat)));
        Json::Obj(fields)
    };
    Json::Arr(series.sorted().into_iter().map(row).collect())
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Reads a counter, 0 if never touched.
    pub fn counter(&self, component: &str, metric: &str, label: Label) -> u64 {
        self.counters
            .find(component, metric, label)
            .map_or(0, |v| *v)
    }

    /// Reads a gauge if set.
    pub fn gauge(&self, component: &str, metric: &str, label: Label) -> Option<f64> {
        *self.gauges.find(component, metric, label)?
    }

    /// Reads a histogram if any sample was recorded.
    pub fn hist<'a>(
        &'a self,
        component: &'a str,
        metric: &'a str,
        label: Label,
    ) -> Option<&'a Histogram> {
        self.hists.find(component, metric, label)
    }

    /// Merges every histogram named `component`/`metric` across labels
    /// into one detached histogram — `None` when no label recorded a
    /// sample. The cross-label analogue of [`Registry::counter_total`],
    /// for consumers that need whole-system quantiles (e.g. p99 sojourn
    /// over all stations) without enumerating labels.
    pub fn hist_merged(&self, component: &str, metric: &str) -> Option<Histogram> {
        self.hist_merged_where(component, metric, |_| true)
    }

    /// Merges histograms named `component`/`metric` whose label passes
    /// `keep` — the filtered variant of [`Registry::hist_merged`], for
    /// consumers that need quantiles over a label subset (e.g. per-AC
    /// sojourn over `Label::Tid` slots of one access category).
    pub fn hist_merged_where(
        &self,
        component: &str,
        metric: &str,
        keep: impl Fn(Label) -> bool,
    ) -> Option<Histogram> {
        let mut merged: Option<Histogram> = None;
        for ((c, m, l), h) in self.hists.live() {
            if c == component && m == metric && keep(l) {
                merged.get_or_insert_with(Histogram::new).merge(h);
            }
        }
        merged
    }

    /// Sums every counter named `component`/`metric` across labels.
    pub fn counter_total(&self, component: &str, metric: &str) -> u64 {
        let named = |&((c, m, _), _): &(Key, &u64)| c == component && m == metric;
        self.counters.live().filter(named).map(|(_, v)| *v).sum()
    }

    /// A copy of this registry with every metric of `component` removed.
    /// Used by equivalence harnesses that compare two runs' behaviour
    /// while ignoring one subsystem's own bookkeeping (e.g. proving an
    /// equal-share policy run matches a no-policy run byte for byte,
    /// `policy/*` counters aside).
    pub fn without_component(&self, component: &str) -> Registry {
        let mut out = Registry::new();
        let keep = |(c, ..): &Key| *c != component;
        for (k, v) in self.counters.live().filter(|(k, _)| keep(k)) {
            *out.counters.keyed_mut(k) += v;
        }
        for (k, v) in self.gauges.live().filter(|(k, _)| keep(k)) {
            *out.gauges.keyed_mut(k) = *v;
        }
        for (k, h) in self.hists.live().filter(|(k, _)| keep(k)) {
            out.hists.keyed_mut(k).merge(h);
        }
        out
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.live().next().is_none()
            && self.gauges.live().next().is_none()
            && self.hists.live().next().is_none()
    }

    /// Moves everything recorded so far out into a detached registry,
    /// leaving every recorder in place and empty.
    pub(crate) fn take(&mut self) -> Registry {
        Registry {
            counters: self.counters.take(),
            gauges: self.gauges.take(),
            hists: self.hists.take(),
        }
    }

    /// Key resolutions performed so far: one per keyed write and one per
    /// id handed out.
    pub(crate) fn resolutions(&self) -> u64 {
        self.counters.resolutions + self.gauges.resolutions + self.hists.resolutions
    }

    /// Recorders allocated so far, live or not.
    pub(crate) fn recorders(&self) -> usize {
        self.counters.keys.len() + self.gauges.keys.len() + self.hists.keys.len() - 3
    }

    /// Lowers the registry to its JSON snapshot form: three arrays of
    /// `{component, metric, label, ...}` rows in deterministic order.
    pub fn to_json(&self) -> Json {
        let counters = json_rows(&self.counters, |&v| [("value", Json::U64(v))]);
        let gauges = json_rows(&self.gauges, |v| [("value", Json::F64(v.unwrap_or(0.0)))]);
        let hists = json_rows(&self.hists, |h| {
            hist_stats(h).map(|(name, v)| (name, Json::U64(v)))
        });
        Json::Obj(vec![
            ("counters".into(), counters),
            ("gauges".into(), gauges),
            ("histograms".into(), hists),
        ])
    }

    /// Appends the registry to a long-format CSV
    /// (`kind,component,metric,label,stat,value` rows, deterministic order).
    pub fn write_csv(&self, out: &mut String) {
        for ((c, m, l), v) in self.counters.sorted() {
            out.push_str(&format!("counter,{c},{m},{l},value,{v}\n"));
        }
        for ((c, m, l), v) in self.gauges.sorted() {
            out.push_str(&format!("gauge,{c},{m},{l},value,{}\n", v.unwrap_or(0.0)));
        }
        for ((c, m, l), h) in self.hists.sorted() {
            // The CSV has never carried the overflow column.
            for (stat, v) in &hist_stats(h)[..7] {
                out.push_str(&format!("hist,{c},{m},{l},{stat},{v}\n"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_read_back() {
        let mut r = Registry::new();
        *r.counters
            .keyed_mut(("mac", "tx_airtime_ns", Label::Station(1))) += 5;
        *r.counters
            .keyed_mut(("mac", "tx_airtime_ns", Label::Station(1))) += 7;
        *r.counters
            .keyed_mut(("mac", "tx_airtime_ns", Label::Station(2))) += 3;
        assert_eq!(r.counter("mac", "tx_airtime_ns", Label::Station(1)), 12);
        assert_eq!(r.counter("mac", "tx_airtime_ns", Label::Station(9)), 0);
        assert_eq!(r.counter_total("mac", "tx_airtime_ns"), 15);
    }

    #[test]
    fn keyed_reads_agree_with_a_full_scan() {
        let labels = [
            Label::Global,
            Label::Station(0),
            Label::Station(7),
            Label::Tid(3),
            Label::Node(1),
        ];
        let metrics = [("mac", "tx_frames"), ("mac", "tx_bytes"), ("fq", "drops")];
        let mut r = Registry::new();
        for (i, (c, m)) in metrics.into_iter().enumerate() {
            for (j, l) in labels.into_iter().enumerate() {
                let v = (10 * i + j) as u64 + 1;
                *r.counters.keyed_mut((c, m, l)) += v;
                *r.gauges.keyed_mut((c, m, l)) = Some(v as f64);
                r.hists.keyed_mut((c, m, l)).record(v);
            }
        }
        fn scan<'a, V: Recorder>(s: &'a Series<V>, c: &str, m: &str, l: Label) -> Option<&'a V> {
            s.live()
                .find(|((kc, km, kl), _)| *kc == c && *km == m && *kl == l)
                .map(|(_, v)| v)
        }
        // Heap-allocated probes: reads must not need `'static` names.
        for (c, m) in metrics {
            let (c, m) = (c.to_string(), m.to_string());
            for l in labels {
                let want = scan(&r.counters, &c, &m, l).copied();
                assert_eq!(Some(r.counter(&c, &m, l)), want);
                let gauge = scan(&r.gauges, &c, &m, l).copied().flatten();
                assert_eq!(r.gauge(&c, &m, l), gauge);
                let count = scan(&r.hists, &c, &m, l).map(Histogram::count);
                assert_eq!(r.hist(&c, &m, l).map(Histogram::count), count);
                assert!(want.is_some() && gauge.is_some() && count == Some(1));
            }
        }
        for (c, m, l) in [
            ("mac", "tx_frames", Label::Station(1)),
            ("mac", "missing", Label::Global),
            ("absent", "tx_frames", Label::Global),
        ] {
            assert_eq!(r.counter(c, m, l), 0);
            assert_eq!(r.gauge(c, m, l), None);
            assert!(r.hist(c, m, l).is_none());
        }
    }

    #[test]
    fn hist_merged_folds_across_labels() {
        let mut r = Registry::new();
        r.hists
            .keyed_mut(("codel", "sojourn_ns", Label::Station(0)))
            .record(10);
        r.hists
            .keyed_mut(("codel", "sojourn_ns", Label::Station(1)))
            .record(1000);
        r.hists
            .keyed_mut(("codel", "other", Label::Station(0)))
            .record(5);
        let merged = r.hist_merged("codel", "sojourn_ns").expect("samples");
        assert_eq!(merged.count(), 2);
        assert_eq!(merged.min(), 10);
        assert!(merged.max() >= 1000);
        assert!(r.hist_merged("codel", "missing").is_none());
    }

    #[test]
    fn snapshot_order_is_insertion_independent() {
        let mut a = Registry::new();
        *a.counters.keyed_mut(("x", "n", Label::Station(2))) += 1;
        *a.counters.keyed_mut(("x", "n", Label::Station(1))) += 1;
        *a.counters.keyed_mut(("w", "z", Label::Flow(9))) += 0;
        let mut b = Registry::new();
        *b.counters.keyed_mut(("w", "z", Label::Flow(9))) += 0;
        *b.counters.keyed_mut(("x", "n", Label::Station(1))) += 1;
        *b.counters.keyed_mut(("x", "n", Label::Station(2))) += 1;
        assert_eq!(a.to_json().pretty(), b.to_json().pretty());
        let mut csv = String::new();
        a.write_csv(&mut csv);
        assert_eq!(
            csv,
            "counter,w,z,flow9,value,0\ncounter,x,n,sta1,value,1\ncounter,x,n,sta2,value,1\n"
        );
    }

    #[test]
    fn take_moves_values_out_and_keeps_indices() {
        let mut r = Registry::new();
        let id = r.hists.resolve(("codel", "sojourn_ns", Label::Tid(0))) as usize;
        r.hists.vals[id].record(40);
        *r.counters.keyed_mut(("fq", "drops", Label::Global)) += 0;
        let taken = r.take();
        assert!(r.is_empty() && !taken.is_empty());
        assert_eq!(
            taken.counters.sorted().len(),
            1,
            "a zero keyed counter is a row"
        );
        assert_eq!(
            taken
                .hist("codel", "sojourn_ns", Label::Tid(0))
                .map(Histogram::count),
            Some(1)
        );
        // The same index still addresses the same key after the take.
        r.hists.vals[id].record(50);
        assert_eq!(
            r.hists.resolve(("codel", "sojourn_ns", Label::Tid(0))) as usize,
            id
        );
        assert_eq!(
            r.hist("codel", "sojourn_ns", Label::Tid(0))
                .map(Histogram::max),
            Some(50)
        );
    }
}
