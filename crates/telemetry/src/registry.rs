//! The metrics registry: counters, gauges, and histograms addressed by
//! `(component, metric, label)`.
//!
//! Storage is `BTreeMap`-keyed so iteration — and therefore every exported
//! snapshot — is deterministically ordered regardless of insertion order.

use std::collections::BTreeMap;
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
    /// Per-shard metric (one BSS instance in a sharded multi-BSS run).
    Shard(u32),
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
            Label::Shard(s) => write!(f, "shard{s}"),
            Label::Node(n) => write!(f, "node{n}"),
        }
    }
}

/// Full metric address.
pub type Key = (&'static str, &'static str, Label);

/// Keyed read behind the three getters. `BTreeMap` is covariant in its
/// key, so the stored `&'static str` parts shorten to the probe's lifetime
/// and a read is one tree descent however many per-station and per-TID
/// keys the run recorded.
fn lookup<'a, V>(
    map: &'a BTreeMap<Key, V>,
    component: &'a str,
    metric: &'a str,
    label: Label,
) -> Option<&'a V> {
    let map: &'a BTreeMap<(&'a str, &'a str, Label), V> = map;
    map.get(&(component, metric, label))
}

/// Holds every metric recorded during a run.
#[derive(Debug, Default)]
pub struct Registry {
    counters: BTreeMap<Key, u64>,
    gauges: BTreeMap<Key, f64>,
    hists: BTreeMap<Key, Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Adds `delta` to a monotonic counter.
    pub fn counter_add(
        &mut self,
        component: &'static str,
        metric: &'static str,
        label: Label,
        delta: u64,
    ) {
        *self.counters.entry((component, metric, label)).or_insert(0) += delta;
    }

    /// Sets a gauge to its latest value.
    pub fn gauge_set(
        &mut self,
        component: &'static str,
        metric: &'static str,
        label: Label,
        value: f64,
    ) {
        self.gauges.insert((component, metric, label), value);
    }

    /// Folds a detached histogram into the one at this key (bucket-wise
    /// sum) — how handle-accumulated samples reach the registry.
    pub fn hist_merge(
        &mut self,
        component: &'static str,
        metric: &'static str,
        label: Label,
        h: &Histogram,
    ) {
        self.hists
            .entry((component, metric, label))
            .or_default()
            .merge(h);
    }

    /// Records a sample into a histogram.
    pub fn hist_record(
        &mut self,
        component: &'static str,
        metric: &'static str,
        label: Label,
        value: u64,
    ) {
        self.hists
            .entry((component, metric, label))
            .or_default()
            .record(value);
    }

    /// Reads a counter, 0 if never touched.
    pub fn counter(&self, component: &str, metric: &str, label: Label) -> u64 {
        lookup(&self.counters, component, metric, label).map_or(0, |v| *v)
    }

    /// Reads a gauge if set.
    pub fn gauge(&self, component: &str, metric: &str, label: Label) -> Option<f64> {
        lookup(&self.gauges, component, metric, label).copied()
    }

    /// Reads a histogram if any sample was recorded.
    pub fn hist<'a>(
        &'a self,
        component: &'a str,
        metric: &'a str,
        label: Label,
    ) -> Option<&'a Histogram> {
        lookup(&self.hists, component, metric, label)
    }

    /// Iterates counters in deterministic key order.
    pub fn counters(&self) -> impl Iterator<Item = (&Key, &u64)> {
        self.counters.iter()
    }

    /// Merges every histogram named `component`/`metric` across labels
    /// into one detached histogram — `None` when no label recorded a
    /// sample. The cross-label analogue of [`Registry::counter_total`],
    /// for consumers that need whole-system quantiles (e.g. p99 sojourn
    /// over all stations) without enumerating labels.
    pub fn hist_merged(&self, component: &str, metric: &str) -> Option<Histogram> {
        let mut merged: Option<Histogram> = None;
        for ((c, m, _), h) in &self.hists {
            if *c == component && *m == metric {
                merged.get_or_insert_with(Histogram::default).merge(h);
            }
        }
        merged
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
        for ((c, m, l), h) in &self.hists {
            if *c == component && *m == metric && keep(*l) {
                merged.get_or_insert_with(Histogram::default).merge(h);
            }
        }
        merged
    }

    /// Sums every counter named `component`/`metric` across labels.
    pub fn counter_total(&self, component: &str, metric: &str) -> u64 {
        self.counters
            .iter()
            .filter(|((c, m, _), _)| *c == component && *m == metric)
            .map(|(_, v)| *v)
            .sum()
    }

    /// Folds `other` into this registry, rewriting each key's label
    /// through `relabel` — the cross-shard rollup primitive. Counters and
    /// histograms accumulate; a gauge takes the incoming value (last merge
    /// wins), so merge shards in a deterministic order.
    pub fn merge_relabeled(&mut self, other: &Registry, relabel: impl Fn(Label) -> Label) {
        for (&(c, m, l), &v) in &other.counters {
            self.counter_add(c, m, relabel(l), v);
        }
        for (&(c, m, l), &v) in &other.gauges {
            self.gauge_set(c, m, relabel(l), v);
        }
        for (&(c, m, l), h) in &other.hists {
            self.hists.entry((c, m, relabel(l))).or_default().merge(h);
        }
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// A copy of this registry with every metric of `component` removed.
    /// Used by equivalence harnesses that compare two runs' behaviour
    /// while ignoring one subsystem's own bookkeeping (e.g. proving an
    /// equal-share policy run matches a no-policy run byte for byte,
    /// `policy/*` counters aside).
    pub fn without_component(&self, component: &str) -> Registry {
        let mut out = Registry::new();
        for (&(c, m, l), &v) in self.counters.iter().filter(|((c, ..), _)| *c != component) {
            out.counter_add(c, m, l, v);
        }
        for (&(c, m, l), &v) in self.gauges.iter().filter(|((c, ..), _)| *c != component) {
            out.gauge_set(c, m, l, v);
        }
        for (&(c, m, l), h) in self.hists.iter().filter(|((c, ..), _)| *c != component) {
            out.hist_merge(c, m, l, h);
        }
        out
    }

    /// Lowers the registry to its JSON snapshot form: three arrays of
    /// `{component, metric, label, ...}` rows in deterministic order.
    pub fn to_json(&self) -> Json {
        let counters = self
            .counters
            .iter()
            .map(|(&(c, m, l), &v)| {
                Json::Obj(vec![
                    ("component".into(), Json::Str(c.into())),
                    ("metric".into(), Json::Str(m.into())),
                    ("label".into(), Json::Str(l.to_string())),
                    ("value".into(), Json::U64(v)),
                ])
            })
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|(&(c, m, l), &v)| {
                Json::Obj(vec![
                    ("component".into(), Json::Str(c.into())),
                    ("metric".into(), Json::Str(m.into())),
                    ("label".into(), Json::Str(l.to_string())),
                    ("value".into(), Json::F64(v)),
                ])
            })
            .collect();
        let hists = self
            .hists
            .iter()
            .map(|(&(c, m, l), h)| {
                Json::Obj(vec![
                    ("component".into(), Json::Str(c.into())),
                    ("metric".into(), Json::Str(m.into())),
                    ("label".into(), Json::Str(l.to_string())),
                    ("count".into(), Json::U64(h.count())),
                    ("sum".into(), Json::U64(h.sum())),
                    ("min".into(), Json::U64(h.min())),
                    ("p50".into(), Json::U64(h.quantile(0.50))),
                    ("p95".into(), Json::U64(h.quantile(0.95))),
                    ("p99".into(), Json::U64(h.quantile(0.99))),
                    ("max".into(), Json::U64(h.max())),
                    ("overflow".into(), Json::U64(h.overflow_count())),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("counters".into(), Json::Arr(counters)),
            ("gauges".into(), Json::Arr(gauges)),
            ("histograms".into(), Json::Arr(hists)),
        ])
    }

    /// Appends the registry to a long-format CSV
    /// (`kind,component,metric,label,stat,value` rows, deterministic order).
    pub fn write_csv(&self, out: &mut String) {
        for (&(c, m, l), &v) in &self.counters {
            out.push_str(&format!("counter,{c},{m},{l},value,{v}\n"));
        }
        for (&(c, m, l), &v) in &self.gauges {
            out.push_str(&format!("gauge,{c},{m},{l},value,{v}\n"));
        }
        for (&(c, m, l), h) in &self.hists {
            for (stat, v) in [
                ("count", h.count()),
                ("sum", h.sum()),
                ("min", h.min()),
                ("p50", h.quantile(0.50)),
                ("p95", h.quantile(0.95)),
                ("p99", h.quantile(0.99)),
                ("max", h.max()),
            ] {
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
        r.counter_add("mac", "tx_airtime_ns", Label::Station(1), 5);
        r.counter_add("mac", "tx_airtime_ns", Label::Station(1), 7);
        r.counter_add("mac", "tx_airtime_ns", Label::Station(2), 3);
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
            Label::Shard(1),
        ];
        let metrics = [("mac", "tx_frames"), ("mac", "tx_bytes"), ("fq", "drops")];
        let mut r = Registry::new();
        for (i, (c, m)) in metrics.into_iter().enumerate() {
            for (j, l) in labels.into_iter().enumerate() {
                let v = (10 * i + j) as u64 + 1;
                r.counter_add(c, m, l, v);
                r.gauge_set(c, m, l, v as f64);
                r.hist_record(c, m, l, v);
            }
        }
        fn scan<'a, V>(map: &'a BTreeMap<Key, V>, c: &str, m: &str, l: Label) -> Option<&'a V> {
            map.iter()
                .find(|((kc, km, kl), _)| *kc == c && *km == m && *kl == l)
                .map(|(_, v)| v)
        }
        // Heap-allocated probes: reads must not need `'static` names.
        for (c, m) in metrics {
            let (c, m) = (c.to_string(), m.to_string());
            for l in labels {
                let want = scan(&r.counters, &c, &m, l).copied();
                assert_eq!(Some(r.counter(&c, &m, l)), want);
                assert_eq!(r.gauge(&c, &m, l), scan(&r.gauges, &c, &m, l).copied());
                let count = scan(&r.hists, &c, &m, l).map(Histogram::count);
                assert_eq!(r.hist(&c, &m, l).map(Histogram::count), count);
                assert!(want.is_some() && count == Some(1));
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
        r.hist_record("codel", "sojourn_ns", Label::Station(0), 10);
        r.hist_record("codel", "sojourn_ns", Label::Station(1), 1000);
        r.hist_record("codel", "other", Label::Station(0), 5);
        let merged = r.hist_merged("codel", "sojourn_ns").expect("samples");
        assert_eq!(merged.count(), 2);
        assert_eq!(merged.min(), 10);
        assert!(merged.max() >= 1000);
        assert!(r.hist_merged("codel", "missing").is_none());
    }

    #[test]
    fn snapshot_order_is_insertion_independent() {
        let mut a = Registry::new();
        a.counter_add("x", "n", Label::Station(2), 1);
        a.counter_add("x", "n", Label::Station(1), 1);
        let mut b = Registry::new();
        b.counter_add("x", "n", Label::Station(1), 1);
        b.counter_add("x", "n", Label::Station(2), 1);
        assert_eq!(a.to_json().pretty(), b.to_json().pretty());
    }
}
