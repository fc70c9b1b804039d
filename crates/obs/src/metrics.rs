//! Lock-free instruments: counters, gauges, and log-bucketed histograms.
//!
//! Every mutation is a relaxed atomic operation — no locks, no
//! allocation — so instruments can sit on request hot paths.
//!
//! Histograms use HDR-style logarithmic buckets: values below 32 are
//! exact, and each power-of-two octave above that is split into 32
//! sub-buckets, bounding the relative quantile error at ~3.2% across
//! the full `u64` range with a fixed 1920-bucket table. `min`, `max`,
//! `sum`, and `count` are tracked exactly, and quantile estimates are
//! clamped into `[min, max]`, so `p(1.0)` is always the exact maximum.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

/// Sub-bucket resolution: each power-of-two octave is split into
/// `2^SUB_BUCKET_BITS` linear sub-buckets.
pub const SUB_BUCKET_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BUCKET_BITS;
/// Total fixed bucket count covering the whole `u64` range.
pub const NUM_BUCKETS: usize = (64 - SUB_BUCKET_BITS as usize + 1) * SUB as usize;

/// Maps a value to its histogram bucket. Monotone: `a <= b` implies
/// `bucket_index(a) <= bucket_index(b)`.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value < SUB {
        return value as usize;
    }
    let msb = 63 - u64::from(value.leading_zeros());
    let shift = msb - u64::from(SUB_BUCKET_BITS);
    ((shift + 1) * SUB + ((value >> shift) - SUB)) as usize
}

/// Inclusive `(low, high)` value range covered by bucket `index`.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    let i = index as u64;
    if i < SUB {
        return (i, i);
    }
    let shift = i / SUB - 1;
    let low = (SUB + i % SUB) << shift;
    (low, low + ((1u64 << shift) - 1))
}

/// The value a bucket reports when a quantile lands in it (midpoint).
fn bucket_representative(index: usize) -> u64 {
    let (low, high) = bucket_bounds(index);
    low + (high - low) / 2
}

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn new() -> Counter {
        Counter::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A signed level that can rise and fall (queue depths, in-flight work).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub fn new() -> Gauge {
        Gauge::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn set(&self, n: i64) {
        self.value.store(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-size log-bucketed histogram. `record` is wait-free: four
/// relaxed atomic RMWs plus two relaxed min/max updates, no locks.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        let buckets = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds (saturating past ~584 years).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A consistent-enough copy for reporting. Buckets are read after
    /// the totals, so a racing `record` can only make `buckets` sum to
    /// slightly more than `count` — never less than what was recorded.
    /// `record` bumps `count` before `min`/`max`, so a racing
    /// read can observe `count > 0` while `min` is still the `u64::MAX`
    /// sentinel (or above the not-yet-stored `max`); `min` is pinned to
    /// `max` here so every snapshot satisfies `min <= max`.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let sum = self.sum.load(Ordering::Relaxed);
        let min = self.min.load(Ordering::Relaxed);
        let max = self.max.load(Ordering::Relaxed);
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((i as u32, n))
            })
            .collect();
        HistogramSnapshot {
            count,
            sum,
            min: if count == 0 { 0 } else { min.min(max) },
            max,
            buckets,
        }
    }
}

/// An immutable, mergeable copy of a [`Histogram`]'s state. Buckets are
/// `(index, count)` pairs in strictly increasing index order, zero
/// buckets omitted.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`: exact for `q = 1.0`
    /// (the tracked maximum), within one bucket (~3.2% relative)
    /// otherwise, clamped into `[min, max]`. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let target = ((q.max(0.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(index, n) in &self.buckets {
            seen += n;
            if seen >= target {
                // `min.min(max)` keeps the clamp bounds ordered even on
                // a snapshot built by hand with `min > max` — `clamp`
                // panics on inverted bounds.
                return bucket_representative(index as usize)
                    .clamp(self.min.min(self.max), self.max);
            }
        }
        self.max
    }

    /// Adds another snapshot's observations into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        self.sum = self.sum.saturating_add(other.sum);
        self.min = if self.count == 0 {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.max = self.max.max(other.max);
        self.count += other.count;
        let mut merged = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ia, na)), Some(&&(ib, nb))) => {
                    if ia == ib {
                        merged.push((ia, na + nb));
                        a.next();
                        b.next();
                    } else if ia < ib {
                        merged.push((ia, na));
                        a.next();
                    } else {
                        merged.push((ib, nb));
                        b.next();
                    }
                }
                (Some(_), None) => {
                    merged.extend(a.by_ref().copied());
                }
                (None, Some(_)) => {
                    merged.extend(b.by_ref().copied());
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
    }

    /// The observations recorded since `earlier` (a previous snapshot of
    /// the same histogram): bucket-wise saturating subtraction. `count`,
    /// `sum`, and the buckets are exact deltas.
    ///
    /// `min`/`max` are derived from the delta's occupied bucket bounds, so
    /// they are **window-local estimates** with the histogram's usual
    /// ≤3.2% bucket-resolution error (one sub-bucket; exact below 32) —
    /// never the cumulative extremes. Before this fix the cumulative
    /// `min`/`max` leaked through, so every windowed report inherited the
    /// process-lifetime extremes of earlier windows. The cumulative `max`
    /// still *caps* the estimate (it is a valid upper bound for any
    /// window), which makes the last occupied bucket's estimate exact when
    /// the cumulative maximum itself landed in this window.
    pub fn minus(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut old: std::collections::BTreeMap<u32, u64> =
            earlier.buckets.iter().copied().collect();
        let buckets: Vec<(u32, u64)> = self
            .buckets
            .iter()
            .filter_map(|&(i, n)| {
                let d = n.saturating_sub(old.remove(&i).unwrap_or(0));
                (d > 0).then_some((i, d))
            })
            .collect();
        let (min, max) = match (buckets.first(), buckets.last()) {
            (Some(&(first, _)), Some(&(last, _))) => {
                let low = bucket_bounds(first as usize).0.max(self.min);
                let high = bucket_bounds(last as usize).1.min(self.max);
                (low, high)
            }
            _ => (0, 0), // empty window: no observations, no extremes
        };
        HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            min,
            max,
            buckets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_bounds_roundtrip() {
        assert_eq!(NUM_BUCKETS, 1920);
        let mut prev = 0;
        for v in (0..4096).chain([u64::MAX / 2, u64::MAX - 1, u64::MAX]) {
            let idx = bucket_index(v);
            assert!(idx >= prev, "bucket index must be monotone at {v}");
            assert!(idx < NUM_BUCKETS);
            let (low, high) = bucket_bounds(idx);
            assert!(low <= v && v <= high, "{v} outside bucket [{low}, {high}]");
            prev = idx;
        }
        for idx in 0..NUM_BUCKETS {
            let (low, high) = bucket_bounds(idx);
            assert_eq!(bucket_index(low), idx);
            assert_eq!(bucket_index(high), idx);
        }
    }

    #[test]
    fn small_values_are_exact_and_quantiles_bounded() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        assert_eq!(s.quantile(1.0), 100);
        // Values < 32 land in exact buckets; p10 = 10 exactly.
        assert_eq!(s.quantile(0.10), 10);
        // Larger quantiles are within one sub-bucket (~3.2%).
        let p90 = s.quantile(0.90) as f64;
        assert!((p90 - 90.0).abs() / 90.0 < 0.05, "p90 was {p90}");
    }

    #[test]
    fn merge_and_minus_are_inverse_on_counts() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in [3u64, 40, 41, 1000, 65_536, 1 << 40] {
            a.record(v);
        }
        for v in [40u64, 7, 9_999_999] {
            b.record(v);
        }
        let (sa, sb) = (a.snapshot(), b.snapshot());
        let mut merged = sa.clone();
        merged.merge(&sb);
        assert_eq!(merged.count, sa.count + sb.count);
        assert_eq!(merged.sum, sa.sum + sb.sum);
        assert_eq!(merged.min, sa.min.min(sb.min));
        assert_eq!(merged.max, sa.max.max(sb.max));
        let delta = merged.minus(&sa);
        assert_eq!(delta.count, sb.count);
        assert_eq!(delta.sum, sb.sum);
        assert_eq!(delta.buckets, sb.buckets);
    }

    #[test]
    fn windowed_minus_never_inherits_a_previous_windows_extreme() {
        // Regression (PR 10): `minus` used to copy the cumulative
        // `min`/`max` into the delta, so every windowed report carried the
        // process-lifetime extremes — BENCH_pr9's pool rows all showed the
        // threaded run's 251ms max. A window's extremes must come from its
        // own delta buckets.
        let h = Histogram::new();
        // Window 1: one huge and one tiny outlier.
        h.record(1);
        h.record(250_000_000);
        let s1 = h.snapshot();
        let w1 = s1.minus(&HistogramSnapshot::default());
        assert_eq!(w1.min, 1);
        assert_eq!(w1.max, 250_000_000); // capped by cumulative max: exact
                                         // Window 2: everything lands strictly inside window 1's extremes.
        for v in [5_000u64, 6_000, 7_000] {
            h.record(v);
        }
        let s2 = h.snapshot();
        let w2 = s2.minus(&s1);
        assert_eq!(w2.count, 3);
        assert!(
            w2.max < 250_000_000 && w2.min > 1,
            "window 2 inherited window 1's extremes: min={} max={}",
            w2.min,
            w2.max
        );
        // Bucket-resolution bound: the estimates are within one
        // sub-bucket (≤3.2%) of the true window extremes.
        assert!(w2.min <= 5_000 && 5_000_f64 <= w2.min as f64 * 1.032 + 1.0);
        assert!(w2.max >= 7_000 && w2.max as f64 <= 7_000.0 * 1.032 + 1.0);
        // An empty window reports no extremes at all.
        let w3 = h.snapshot().minus(&s2);
        assert_eq!((w3.count, w3.min, w3.max), (0, 0, 0));
    }

    #[test]
    fn quantile_tolerates_inverted_min_max() {
        // A torn snapshot (count bumped before min/max in
        // `record`) or a hand-built one can carry `min > max`;
        // `quantile` must not panic in `clamp` on it.
        let s = HistogramSnapshot {
            count: 1,
            sum: 50,
            min: u64::MAX,
            max: 0,
            buckets: vec![(50, 1)],
        };
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.quantile(1.0), 0);
    }

    #[test]
    fn concurrent_records_all_land() {
        let h = std::sync::Arc::new(Histogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 10_000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count, 40_000);
        assert_eq!(s.buckets.iter().map(|&(_, n)| n).sum::<u64>(), 40_000);
    }
}
