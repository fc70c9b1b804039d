//! The named instrument registry and its typed, mergeable snapshot.
//!
//! Registration takes a mutex, so callers on hot paths resolve their
//! instruments **once** (e.g. into a `OnceLock`-cached struct) and then
//! mutate through the returned `Arc` — the registry lock is never on a
//! request path. Names are dotted lowercase (`server.handle_ns`); the
//! `_ns` suffix marks nanosecond histograms.

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

/// A set of named instruments. Most code uses the process-wide
/// [`global`] registry; embedders can carry private ones.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter registered under `name`, creating it on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().unwrap();
        Arc::clone(
            map.entry(name.to_owned())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// The gauge registered under `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().unwrap();
        Arc::clone(
            map.entry(name.to_owned())
                .or_insert_with(|| Arc::new(Gauge::new())),
        )
    }

    /// The histogram registered under `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().unwrap();
        Arc::clone(
            map.entry(name.to_owned())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// A point-in-time copy of every registered instrument, names in
    /// sorted order.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(name, g)| (name.clone(), g.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(name, h)| (name.clone(), h.snapshot()))
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// The process-wide registry every layer publishes into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Shorthand for [`global()`](global)`.counter(name)`.
pub fn counter(name: &str) -> Arc<Counter> {
    global().counter(name)
}

/// Shorthand for [`global()`](global)`.gauge(name)`.
pub fn gauge(name: &str) -> Arc<Gauge> {
    global().gauge(name)
}

/// Shorthand for [`global()`](global)`.histogram(name)`.
pub fn histogram(name: &str) -> Arc<Histogram> {
    global().histogram(name)
}

/// A typed, point-in-time copy of a [`Registry`]: plain data, safe to
/// ship over the wire, diff against an earlier copy, or merge with a
/// sibling thread's. Entries are `(name, value)` pairs sorted by name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, i64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// The named counter's value, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        lookup(&self.counters, name).copied()
    }

    /// The named gauge's value, if registered.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        lookup(&self.gauges, name).copied()
    }

    /// The named histogram's snapshot, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        lookup(&self.histograms, name)
    }

    /// Folds another snapshot in: counters and histogram observations
    /// add; gauges (point-in-time levels) sum as well, which is the
    /// right reading for per-thread shards of one logical level.
    pub fn merge(&mut self, other: &Snapshot) {
        merge_with(&mut self.counters, &other.counters, |a, b| {
            *a = a.saturating_add(*b)
        });
        merge_with(&mut self.gauges, &other.gauges, |a, b| {
            *a = a.saturating_add(*b)
        });
        merge_with(&mut self.histograms, &other.histograms, |a, b| a.merge(b));
    }

    /// What happened between `earlier` (a prior snapshot of the same
    /// registry) and this one: counters and histogram counts subtract
    /// exactly; gauges keep this snapshot's level (levels are not
    /// subtractable); histogram `min`/`max` are window-local estimates
    /// from the delta's occupied buckets (≤3.2% bucket resolution — see
    /// [`HistogramSnapshot::minus`]).
    pub fn minus(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(name, v)| {
                let old = lookup(&earlier.counters, name).copied().unwrap_or(0);
                (name.clone(), v.saturating_sub(old))
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(name, h)| {
                let delta = match lookup(&earlier.histograms, name) {
                    Some(old) => h.minus(old),
                    None => h.clone(),
                };
                (name.clone(), delta)
            })
            .collect();
        Snapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms,
        }
    }
}

fn lookup<'a, T>(entries: &'a [(String, T)], name: &str) -> Option<&'a T> {
    entries
        .binary_search_by(|(n, _)| n.as_str().cmp(name))
        .ok()
        .map(|i| &entries[i].1)
}

fn merge_with<T: Clone>(
    into: &mut Vec<(String, T)>,
    from: &[(String, T)],
    fold: impl Fn(&mut T, &T),
) {
    for (name, value) in from {
        match into.binary_search_by(|(n, _)| n.cmp(name)) {
            Ok(i) => fold(&mut into[i].1, value),
            Err(i) => into.insert(i, (name.clone(), value.clone())),
        }
    }
}

/// Human-readable dump: one line per instrument, histograms with
/// count/mean/p50/p90/p99/max. This is what the REPL's `metrics`
/// command prints.
impl fmt::Display for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return writeln!(f, "(no instruments registered)");
        }
        for (name, v) in &self.counters {
            writeln!(f, "{name:<40} {v}")?;
        }
        for (name, v) in &self.gauges {
            writeln!(f, "{name:<40} {v}")?;
        }
        for (name, h) in &self.histograms {
            writeln!(
                f,
                "{name:<40} n={} mean={:.0} p50={} p90={} p99={} max={}",
                h.count,
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
                h.max,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_hands_out_shared_instruments() {
        let r = Registry::new();
        let a = r.counter("x.hits");
        let b = r.counter("x.hits");
        a.add(2);
        b.add(3);
        assert_eq!(r.counter("x.hits").get(), 5);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn snapshot_lookup_merge_and_minus() {
        let r = Registry::new();
        r.counter("a.n").add(10);
        r.gauge("a.level").add(4);
        r.histogram("a.lat_ns").record(100);
        let before = r.snapshot();
        r.counter("a.n").add(5);
        r.histogram("a.lat_ns").record(200);
        let after = r.snapshot();

        assert_eq!(after.counter("a.n"), Some(15));
        assert_eq!(after.gauge("a.level"), Some(4));
        assert_eq!(after.histogram("a.lat_ns").unwrap().count, 2);
        assert_eq!(after.counter("missing"), None);

        let delta = after.minus(&before);
        assert_eq!(delta.counter("a.n"), Some(5));
        assert_eq!(delta.histogram("a.lat_ns").unwrap().count, 1);

        let mut merged = before.clone();
        merged.merge(&delta);
        assert_eq!(merged.counter("a.n"), after.counter("a.n"));
        assert_eq!(
            merged.histogram("a.lat_ns").unwrap().count,
            after.histogram("a.lat_ns").unwrap().count
        );
        assert!(!format!("{after}").is_empty());
    }
}
