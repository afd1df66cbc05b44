//! Measurement instruments: online statistics, percentiles, histograms, and
//! time-weighted series.
//!
//! The paper (§3.3, "Quantitative results") calls for statistically sound
//! observation as the entry point of MCS methodology; these are the
//! instruments the rest of the workspace records into.

use crate::error::McsError;
use crate::time::{SimDuration, SimTime};
use crate::trace::TraceBus;
use std::cell::RefCell;
use std::iter::Peekable;

/// Streaming mean/variance/min/max via Welford's algorithm.
///
/// # Examples
/// ```
/// use mcs_simcore::metrics::OnlineStats;
/// let mut s = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0] { s.record(x); }
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.count(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

crate::impl_json!(struct OnlineStats { count, mean, m2, min, max });

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats { count: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 { 0.0 } else { self.mean }
    }

    /// Population variance; `0.0` when fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 { 0.0 } else { self.m2 / self.count as f64 }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation (std/mean); `0.0` when the mean is zero.
    pub fn cov(&self) -> f64 {
        if self.mean().abs() < f64::EPSILON { 0.0 } else { self.std_dev() / self.mean().abs() }
    }

    /// Smallest observation; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        if self.count == 0 { None } else { Some(self.min) }
    }

    /// Largest observation; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        if self.count == 0 { None } else { Some(self.max) }
    }
}

/// Computes the `q`-quantile (0 ≤ q ≤ 1) of unordered samples by sorting a
/// copy; linear interpolation between order statistics.
///
/// Returns `None` on an empty slice or non-finite `q`.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() || !q.is_finite() {
        return None;
    }
    let mut v: Vec<f64> = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let q = q.clamp(0.0, 1.0);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        Some(v[lo])
    } else {
        let frac = pos - lo as f64;
        Some(v[lo] * (1.0 - frac) + v[hi] * frac)
    }
}

/// A bounded-memory streaming quantile estimator (t-digest style).
///
/// Observations are buffered and periodically compacted into at most
/// `max_centroids` weighted centroids, kept sorted by mean. Compaction walks
/// the sorted points left to right and greedily merges neighbours while the
/// combined weight stays under `ceil(2n / max_centroids)`, so no centroid
/// ever covers more than that many ranks — which bounds the rank error of
/// [`QuantileSketch::quantile`] by roughly `2n / max_centroids` (a ~1.6%
/// rank error at the default 128 centroids), regardless of how many
/// observations stream through.
///
/// Sketches built over partitions of a sample set [`merge`] into a sketch
/// over the union: counts, min, and max merge exactly, quantiles stay within
/// the rank-error bound whatever the merge order. Merging in a fixed order
/// (as `mcs-simcore::par` does, by input index) is bit-deterministic.
///
/// With fewer than `max_centroids` observations nothing has been compacted
/// and quantiles are exact (they match [`quantile`] on the raw samples).
///
/// [`merge`]: QuantileSketch::merge
///
/// # Examples
/// ```
/// use mcs_simcore::metrics::QuantileSketch;
/// let mut s = QuantileSketch::new(64);
/// for i in 1..=1000 { s.record(i as f64); }
/// let p50 = s.quantile(0.5).unwrap();
/// assert!((p50 - 500.5).abs() < 32.0); // within the rank-error bound
/// assert_eq!(s.quantile(0.0), Some(1.0));
/// assert_eq!(s.quantile(1.0), Some(1000.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    max_centroids: usize,
    /// `(mean, weight)` pairs, sorted by mean.
    centroids: Vec<(f64, u64)>,
    /// Raw observations not yet compacted (at most `max_centroids` of them).
    buffer: Vec<f64>,
    count: u64,
    min: f64,
    max: f64,
}

crate::impl_json!(struct QuantileSketch { max_centroids, centroids, buffer, count, min, max });

impl QuantileSketch {
    /// The centroid budget used when callers do not pick one.
    pub const DEFAULT_CENTROIDS: usize = 128;

    /// An empty sketch holding at most `max_centroids` centroids
    /// (clamped to a minimum of 8 so the error bound stays meaningful).
    pub fn new(max_centroids: usize) -> Self {
        QuantileSketch {
            max_centroids: max_centroids.max(8),
            centroids: Vec::new(),
            buffer: Vec::new(),
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation; non-finite values are ignored.
    pub fn record(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        self.buffer.push(x);
        if self.buffer.len() >= self.max_centroids {
            self.compress(std::iter::empty());
        }
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest observation; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        if self.count == 0 { None } else { Some(self.min) }
    }

    /// Largest observation; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        if self.count == 0 { None } else { Some(self.max) }
    }

    /// Number of `(mean, weight)` points currently retained (centroids plus
    /// buffered raw observations) — the sketch's memory footprint, bounded
    /// by ~`2 × max_centroids` regardless of `count`.
    pub fn retained_points(&self) -> usize {
        self.centroids.len() + self.buffer.len()
    }

    /// Folds another sketch into this one. The merged sketch summarizes the
    /// union of both sample sets; count/min/max are exact, quantiles keep
    /// the rank-error bound of the larger centroid budget in use.
    pub fn merge(&mut self, other: &QuantileSketch) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        let mut theirs = other.buffer.clone();
        theirs.sort_unstable_by(f64::total_cmp);
        self.compress(points(&other.centroids, &theirs));
    }

    /// Folds the buffer and the mean-sorted `extra` points into the
    /// centroid set: sorts the buffer in place, then merges and compacts
    /// in one pass, leaving the buffer empty.
    ///
    /// The pass writes into [`COMPACTED`] and copies back, so a warm sketch
    /// compresses without allocating. The in-place unstable sort is exact:
    /// values equal under `total_cmp` have identical bits.
    fn compress(&mut self, extra: impl Iterator<Item = (f64, u64)>) {
        self.buffer.sort_unstable_by(f64::total_cmp);
        COMPACTED.with_borrow_mut(|out| {
            let ours = points(&self.centroids, &self.buffer);
            compact_into(out, MergeByMean::new(ours, extra), self.count, self.max_centroids);
            self.centroids.clear();
            // The capacity compaction can need, allocated once per sketch.
            self.centroids.reserve_exact(self.max_centroids + 1);
            self.centroids.extend_from_slice(out);
        });
        self.buffer.clear();
    }

    /// The estimated `q`-quantile (0 ≤ q ≤ 1); `None` when empty or `q` is
    /// non-finite. Exact while fewer than `max_centroids` observations have
    /// been recorded; within the rank-error bound afterwards.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !q.is_finite() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Place each centroid's mean at the midpoint of the rank range it
        // covers, anchored by the exact min at rank 0 and max at rank n-1,
        // then interpolate linearly between neighbouring anchors. With unit
        // weights this reproduces the exact interpolated quantile.
        let mut anchors: Vec<(f64, f64)> = Vec::with_capacity(self.centroids.len() + 2);
        anchors.push((0.0, self.min));
        let mut cum = 0u64;
        let mut sorted = self.buffer.clone();
        sorted.sort_unstable_by(f64::total_cmp);
        for (mean, w) in points(&self.centroids, &sorted) {
            let mid = cum as f64 + (w - 1) as f64 / 2.0;
            if mid > anchors.last().unwrap().0 {
                anchors.push((mid, mean));
            }
            cum += w;
        }
        let last_rank = (self.count - 1) as f64;
        if last_rank > anchors.last().unwrap().0 {
            anchors.push((last_rank, self.max));
        }
        let target = q * last_rank;
        let mut prev = anchors[0];
        for &(rank, value) in &anchors {
            if target <= rank {
                if rank <= prev.0 {
                    return Some(value);
                }
                let frac = (target - prev.0) / (rank - prev.0);
                return Some(prev.1 + frac * (value - prev.1));
            }
            prev = (rank, value);
        }
        Some(self.max)
    }
}

thread_local! {
    /// The output of one compaction, reused by every sketch on the thread.
    /// It lives outside [`QuantileSketch`] so the sketch's size, which the
    /// streaming trace sink's retained-bytes estimate counts, stays fixed.
    static COMPACTED: RefCell<Vec<(f64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// All points of a sketch — centroids plus buffered singletons — in mean
/// order. `sorted_buffer` must be sorted by `total_cmp`.
fn points<'a>(
    centroids: &'a [(f64, u64)],
    sorted_buffer: &'a [f64],
) -> MergeByMean<impl Iterator<Item = (f64, u64)> + 'a, impl Iterator<Item = (f64, u64)> + 'a> {
    MergeByMean::new(centroids.iter().copied(), sorted_buffer.iter().map(|&x| (x, 1)))
}

/// Merges two mean-sorted point streams into one, taking from `a` while
/// its head's mean is `<=` the head of `b`.
struct MergeByMean<A: Iterator<Item = (f64, u64)>, B: Iterator<Item = (f64, u64)>> {
    a: Peekable<A>,
    b: Peekable<B>,
}

impl<A: Iterator<Item = (f64, u64)>, B: Iterator<Item = (f64, u64)>> MergeByMean<A, B> {
    fn new(a: A, b: B) -> Self {
        MergeByMean { a: a.peekable(), b: b.peekable() }
    }
}

impl<A, B> Iterator for MergeByMean<A, B>
where
    A: Iterator<Item = (f64, u64)>,
    B: Iterator<Item = (f64, u64)>,
{
    type Item = (f64, u64);

    fn next(&mut self) -> Option<(f64, u64)> {
        let take_a = match (self.a.peek(), self.b.peek()) {
            (Some(a), Some(b)) => a.0 <= b.0,
            (Some(_), None) => true,
            (None, _) => false,
        };
        if take_a {
            self.a.next()
        } else {
            self.b.next()
        }
    }
}

/// Greedy left-to-right compaction of mean-sorted `points` into `out` under
/// a per-centroid weight cap of `ceil(2·count / max_centroids)`. Any two
/// adjacent output centroids exceed the cap together, so at most
/// `max_centroids + 1` centroids survive.
fn compact_into(
    out: &mut Vec<(f64, u64)>,
    points: impl Iterator<Item = (f64, u64)>,
    count: u64,
    max_centroids: usize,
) {
    let cap = (2 * count).div_ceil(max_centroids as u64).max(1);
    out.clear();
    for (mean, w) in points {
        if let Some(last) = out.last_mut() {
            if last.1 + w <= cap {
                let total = last.1 + w;
                last.0 = (last.0 * last.1 as f64 + mean * w as f64) / total as f64;
                last.1 = total;
                continue;
            }
        }
        out.push((mean, w));
    }
}

/// A complete distribution summary of a sample set, as reported in the
/// experiment tables (mean, p50, p95, p99, max, …).
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Standard deviation (population).
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

crate::impl_json!(struct Summary { count, mean, std_dev, min, p50, p95, p99, max });

impl Summary {
    /// Summarizes a sample set; `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut stats = OnlineStats::new();
        for &x in samples {
            stats.record(x);
        }
        Some(Summary {
            count: stats.count(),
            mean: stats.mean(),
            std_dev: stats.std_dev(),
            min: stats.min().unwrap(),
            p50: quantile(samples, 0.50).unwrap(),
            p95: quantile(samples, 0.95).unwrap(),
            p99: quantile(samples, 0.99).unwrap(),
            max: stats.max().unwrap(),
        })
    }
}

/// Fixed-width histogram over `[lo, hi)` with overflow/underflow buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

crate::impl_json!(struct Histogram { lo, hi, buckets, underflow, overflow });

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `buckets` equal-width bins.
    ///
    /// # Panics
    /// Panics if `hi <= lo` or `buckets == 0`.
    pub fn new(lo: f64, hi: f64, buckets: usize) -> Self {
        Histogram::try_new(lo, hi, buckets).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor: rejects an empty range or zero buckets with
    /// [`McsError::Config`] instead of panicking.
    ///
    /// # Errors
    /// Returns [`McsError::Config`] when `hi <= lo` or `buckets == 0`.
    pub fn try_new(lo: f64, hi: f64, buckets: usize) -> Result<Self, McsError> {
        if hi <= lo {
            return Err(McsError::Config("histogram range must be non-empty".into()));
        }
        if buckets == 0 {
            return Err(McsError::Config("histogram needs at least one bucket".into()));
        }
        Ok(Histogram { lo, hi, buckets: vec![0; buckets], underflow: 0, overflow: 0 })
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.buckets.len() as f64;
            let idx = ((x - self.lo) / w) as usize;
            let idx = idx.min(self.buckets.len() - 1);
            self.buckets[idx] += 1;
        }
    }

    /// Per-bucket counts, in range order.
    pub fn counts(&self) -> &[u64] {
        &self.buckets
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the range end.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations, including out-of-range ones.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum::<u64>() + self.underflow + self.overflow
    }
}

/// A step function of virtual time: tracks a level (e.g. queue length, busy
/// machines) and integrates it for time-weighted averages and peak analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeWeighted {
    last_at: SimTime,
    level: f64,
    weighted_sum: f64,
    observed: SimDuration,
    peak: f64,
    samples: Vec<(SimTime, f64)>,
    keep_samples: bool,
}

crate::impl_json!(struct TimeWeighted {
    last_at, level, weighted_sum, observed, peak, samples, keep_samples,
});

impl TimeWeighted {
    /// Starts tracking at `t0` with the given initial level.
    pub fn new(t0: SimTime, initial: f64) -> Self {
        TimeWeighted {
            last_at: t0,
            level: initial,
            weighted_sum: 0.0,
            observed: SimDuration::ZERO,
            peak: initial,
            samples: Vec::new(),
            keep_samples: false,
        }
    }

    /// Also retains every `(time, level)` step for later plotting.
    pub fn with_samples(mut self) -> Self {
        self.keep_samples = true;
        self.samples.push((self.last_at, self.level));
        self
    }

    /// Sets a new level at instant `at`.
    ///
    /// # Panics
    /// Panics if `at` precedes the previous update.
    pub fn set(&mut self, at: SimTime, level: f64) {
        assert!(at >= self.last_at, "time-weighted updates must be monotone");
        let span = at - self.last_at;
        self.weighted_sum += self.level * span.as_secs_f64();
        self.observed += span;
        self.last_at = at;
        self.level = level;
        self.peak = self.peak.max(level);
        if self.keep_samples {
            self.samples.push((at, level));
        }
    }

    /// Adjusts the level by `delta` at instant `at`.
    pub fn add(&mut self, at: SimTime, delta: f64) {
        let next = self.level + delta;
        self.set(at, next);
    }

    /// The current level.
    pub fn level(&self) -> f64 {
        self.level
    }

    /// The largest level seen.
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// Time-weighted average level up to instant `at`.
    pub fn average_until(&self, at: SimTime) -> f64 {
        let tail = at.saturating_since(self.last_at).as_secs_f64();
        let total = self.observed.as_secs_f64() + tail;
        if total <= 0.0 {
            self.level
        } else {
            (self.weighted_sum + self.level * tail) / total
        }
    }

    /// The retained step samples (empty unless built [`with_samples`]).
    ///
    /// [`with_samples`]: TimeWeighted::with_samples
    pub fn samples(&self) -> &[(SimTime, f64)] {
        &self.samples
    }
}

/// Distribution summary of a numeric payload field across the matching
/// records of a [`TraceBus`]; `None` when no matching record carries the
/// field.
///
/// This is the standard path from raw trace to report row: actors emit,
/// the harness summarizes.
pub fn summarize_trace(
    bus: &TraceBus,
    component: &str,
    event: &str,
    field: &str,
) -> Option<Summary> {
    let xs: Vec<f64> = bus.series(component, event, field).into_iter().map(|(_, x)| x).collect();
    Summary::of(&xs)
}

/// Reconstructs a gauge tracked by matching trace records as a
/// [`TimeWeighted`] step function starting at `initial` from `SimTime::ZERO`.
///
/// Each matching record's `field` value becomes the new level at its
/// instant; records without the field are skipped.
pub fn trace_gauge(
    bus: &TraceBus,
    component: &str,
    event: &str,
    field: &str,
    initial: f64,
) -> TimeWeighted {
    let mut tw = TimeWeighted::new(SimTime::ZERO, initial);
    for (at, level) in bus.series(component, event, field) {
        tw.set(at, level);
    }
    tw
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::Check;
    use crate::rng::RngStream;
    use crate::{prop_assert, prop_assert_eq};

    #[test]
    fn online_stats_hand_example() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn online_stats_empty() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = OnlineStats::new();
        for &x in &xs {
            all.record(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..37] {
            a.record(x);
        }
        for &x in &xs[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn sketch_is_exact_below_the_centroid_budget() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        let mut s = QuantileSketch::new(64);
        for &x in &xs {
            s.record(x);
        }
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
            assert_eq!(s.quantile(q), quantile(&xs, q), "q={q}");
        }
        assert_eq!(s.count(), 5);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(5.0));
    }

    #[test]
    fn sketch_empty_and_non_finite() {
        let mut s = QuantileSketch::new(16);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.min(), None);
        s.record(f64::NAN);
        s.record(f64::INFINITY);
        assert_eq!(s.count(), 0);
        s.record(2.0);
        assert_eq!(s.quantile(f64::NAN), None);
        assert_eq!(s.quantile(0.5), Some(2.0));
    }

    #[test]
    fn sketch_rank_error_is_bounded_at_scale() {
        // 100k uniform ranks through a 128-centroid sketch: every estimated
        // quantile must land within the documented ~2n/C rank error.
        let n = 100_000u64;
        let c = 128usize;
        let mut s = QuantileSketch::new(c);
        for i in 0..n {
            s.record(i as f64);
        }
        assert!(s.centroids.len() <= c + 1);
        assert!(s.buffer.len() < c);
        let tolerance = 2.0 * (2.0 * n as f64 / c as f64);
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999] {
            let est = s.quantile(q).unwrap();
            let exact = q * (n - 1) as f64;
            assert!(
                (est - exact).abs() <= tolerance,
                "q={q}: est {est}, exact {exact}, tolerance {tolerance}"
            );
        }
        assert_eq!(s.quantile(0.0), Some(0.0));
        assert_eq!(s.quantile(1.0), Some((n - 1) as f64));
    }

    #[test]
    fn sketch_merge_matches_single_stream_bounds() {
        let n = 20_000u64;
        let mut whole = QuantileSketch::new(96);
        let mut left = QuantileSketch::new(96);
        let mut right = QuantileSketch::new(96);
        for i in 0..n {
            let x = (i as f64).sin() * 1000.0;
            whole.record(x);
            if i % 2 == 0 {
                left.record(x);
            } else {
                right.record(x);
            }
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
        let tol = 2000.0 * (4.0 / 96.0) * 2.0; // value-range × rank-error share
        for q in [0.1, 0.5, 0.9] {
            let a = left.quantile(q).unwrap();
            let b = whole.quantile(q).unwrap();
            assert!((a - b).abs() <= tol, "q={q}: merged {a} vs single {b}");
        }
        // Merging an empty sketch is a no-op.
        let before = whole.clone();
        whole.merge(&QuantileSketch::new(96));
        assert_eq!(whole, before);
    }

    #[test]
    fn sketch_json_round_trips() {
        use crate::codec::{from_str, to_string};
        let mut s = QuantileSketch::new(32);
        for i in 0..100 {
            s.record(f64::from(i) * 0.5);
        }
        let back: QuantileSketch = from_str(&to_string(&s)).unwrap();
        assert_eq!(back, s);
    }

    /// The sketch's compaction as it was before it worked in place: sort a
    /// copy of the buffer, merge into a new list, compact into a third. The
    /// property below holds the in-place path to it bit for bit.
    mod oracle {
        use super::QuantileSketch;

        /// All points of a sketch as one mean-sorted list.
        pub fn sorted_points(centroids: &[(f64, u64)], buffer: &[f64]) -> Vec<(f64, u64)> {
            let mut singles: Vec<(f64, u64)> = buffer.iter().map(|&x| (x, 1)).collect();
            singles.sort_by(|a, b| a.0.total_cmp(&b.0));
            merge_sorted(centroids, &singles)
        }

        /// Merges two mean-sorted point lists into one.
        fn merge_sorted(a: &[(f64, u64)], b: &[(f64, u64)]) -> Vec<(f64, u64)> {
            let mut out = Vec::with_capacity(a.len() + b.len());
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                if a[i].0 <= b[j].0 {
                    out.push(a[i]);
                    i += 1;
                } else {
                    out.push(b[j]);
                    j += 1;
                }
            }
            out.extend_from_slice(&a[i..]);
            out.extend_from_slice(&b[j..]);
            out
        }

        /// Greedy compaction under a weight cap of `ceil(2·count / max)`.
        fn compact(points: Vec<(f64, u64)>, count: u64, max_centroids: usize) -> Vec<(f64, u64)> {
            let cap = (2 * count).div_ceil(max_centroids as u64).max(1);
            let mut out: Vec<(f64, u64)> = Vec::with_capacity(max_centroids + 1);
            for (mean, w) in points {
                if let Some(last) = out.last_mut() {
                    if last.1 + w <= cap {
                        let total = last.1 + w;
                        last.0 = (last.0 * last.1 as f64 + mean * w as f64) / total as f64;
                        last.1 = total;
                        continue;
                    }
                }
                out.push((mean, w));
            }
            out
        }

        pub fn record(s: &mut QuantileSketch, x: f64) {
            if !x.is_finite() {
                return;
            }
            s.count += 1;
            s.min = s.min.min(x);
            s.max = s.max.max(x);
            s.buffer.push(x);
            if s.buffer.len() >= s.max_centroids {
                let points = sorted_points(&s.centroids, &s.buffer);
                s.centroids = compact(points, s.count, s.max_centroids);
                s.buffer.clear();
            }
        }

        pub fn merge(s: &mut QuantileSketch, other: &QuantileSketch) {
            if other.count == 0 {
                return;
            }
            s.count += other.count;
            s.min = s.min.min(other.min);
            s.max = s.max.max(other.max);
            let merged = merge_sorted(
                &sorted_points(&s.centroids, &s.buffer),
                &sorted_points(&other.centroids, &other.buffer),
            );
            s.centroids = compact(merged, s.count, s.max_centroids);
            s.buffer.clear();
        }
    }

    /// Bit-level equality of two sketches' whole state.
    fn same_state(got: &QuantileSketch, want: &QuantileSketch) -> Result<(), String> {
        let pair_bits =
            |a: &(f64, u64), b: &(f64, u64)| a.0.to_bits() == b.0.to_bits() && a.1 == b.1;
        prop_assert!(
            got.centroids.len() == want.centroids.len()
                && got.centroids.iter().zip(&want.centroids).all(|(a, b)| pair_bits(a, b)),
            "centroids {:?} vs {:?}",
            got.centroids,
            want.centroids
        );
        prop_assert!(
            got.buffer.len() == want.buffer.len()
                && got.buffer.iter().zip(&want.buffer).all(|(a, b)| a.to_bits() == b.to_bits()),
            "buffer {:?} vs {:?}",
            got.buffer,
            want.buffer
        );
        prop_assert_eq!(got.count, want.count);
        prop_assert_eq!(got.min.to_bits(), want.min.to_bits());
        prop_assert_eq!(got.max.to_bits(), want.max.to_bits());
        Ok(())
    }

    /// Bit-level equality of the mean-order point stream `quantile` walks
    /// and of the quantiles it reads off.
    fn same_reads(got: &QuantileSketch, want: &QuantileSketch) -> Result<(), String> {
        let bits = |v: &[(f64, u64)]| v.iter().map(|&(m, w)| (m.to_bits(), w)).collect::<Vec<_>>();
        let mut sorted = got.buffer.clone();
        sorted.sort_unstable_by(f64::total_cmp);
        let walked: Vec<(f64, u64)> = points(&got.centroids, &sorted).collect();
        prop_assert_eq!(bits(&walked), bits(&oracle::sorted_points(&want.centroids, &want.buffer)));
        for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.999, 1.0] {
            prop_assert_eq!(got.quantile(q).map(f64::to_bits), want.quantile(q).map(f64::to_bits));
        }
        Ok(())
    }

    /// A stream value: mostly spread reals, with duplicates, signed zeros,
    /// non-finite values and magnitudes whose weighted means overflow.
    fn draw(rng: &mut RngStream) -> f64 {
        match rng.uniform_usize(10) {
            0 => 0.0,
            1 => -0.0,
            2 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.uniform_usize(3)],
            3 | 4 => [1.0, 2.5, -3.0, 1e-300][rng.uniform_usize(4)],
            5 => rng.uniform_f64(-1.0, 1.0) * f64::MAX,
            _ => rng.uniform_f64(-1e3, 1e3),
        }
    }

    #[test]
    fn in_place_compaction_matches_the_oracle_bit_for_bit() {
        Check::new("sketch_in_place_compaction").cases(32).run(|rng| {
            let n = 1 + rng.uniform_usize(4);
            let budgets: Vec<usize> = (0..n).map(|_| 8 + rng.uniform_usize(249)).collect();
            let mut got: Vec<QuantileSketch> =
                budgets.iter().map(|&b| QuantileSketch::new(b)).collect();
            let mut want = got.clone();
            for step in 0..2000 {
                let i = rng.uniform_usize(n);
                let merging = rng.bernoulli(0.005);
                if merging {
                    let j = rng.uniform_usize(n);
                    let (other, other_want) = (got[j].clone(), want[j].clone());
                    got[i].merge(&other);
                    oracle::merge(&mut want[i], &other_want);
                } else {
                    let x = draw(rng);
                    got[i].record(x);
                    oracle::record(&mut want[i], x);
                }
                same_state(&got[i], &want[i])?;
                if merging || step % 128 == 0 {
                    same_reads(&got[i], &want[i])?;
                }
            }
            for (g, w) in got.iter().zip(&want) {
                same_reads(g, w)?;
            }
            Ok(())
        });
    }

    #[test]
    fn quantiles_hand_example() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 0.5), Some(3.0));
        assert_eq!(quantile(&v, 1.0), Some(5.0));
        assert_eq!(quantile(&v, 0.25), Some(2.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn summary_consistency() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!(s.count, 100);
        assert!((s.mean - 50.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.p50 - 50.5).abs() < 1e-9);
        assert!(s.p95 > s.p50 && s.p99 > s.p95);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn histogram_bucketing() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for x in [-1.0, 0.0, 0.5, 5.0, 9.99, 10.0, 42.0] {
            h.record(x);
        }
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.counts()[0], 2); // 0.0 and 0.5
        assert_eq!(h.counts()[5], 1);
        assert_eq!(h.counts()[9], 1);
        assert_eq!(h.total(), 7);
    }

    #[test]
    #[should_panic(expected = "histogram range must be non-empty")]
    fn histogram_rejects_empty_range() {
        let _ = Histogram::new(1.0, 1.0, 4);
    }

    #[test]
    fn histogram_try_new_reports_config_errors() {
        assert!(matches!(Histogram::try_new(1.0, 1.0, 4), Err(McsError::Config(_))));
        assert!(matches!(Histogram::try_new(0.0, 1.0, 0), Err(McsError::Config(_))));
        assert!(Histogram::try_new(0.0, 1.0, 4).is_ok());
    }

    #[test]
    fn metrics_json_round_trips() {
        use crate::codec::{from_str, to_string};
        let mut s = OnlineStats::new();
        for x in [1.0, 2.0, 4.0] {
            s.record(x);
        }
        let back: OnlineStats = from_str(&to_string(&s)).unwrap();
        assert_eq!(back, s);

        let summary = Summary::of(&[1.0, 2.0, 3.0]).unwrap();
        let back: Summary = from_str(&to_string(&summary)).unwrap();
        assert_eq!(back, summary);

        let mut h = Histogram::new(0.0, 10.0, 4);
        h.record(3.0);
        h.record(42.0);
        let back: Histogram = from_str(&to_string(&h)).unwrap();
        assert_eq!(back, h);

        let mut tw = TimeWeighted::new(SimTime::ZERO, 1.0).with_samples();
        tw.set(SimTime::from_secs(2), 3.0);
        let back: TimeWeighted = from_str(&to_string(&tw)).unwrap();
        assert_eq!(back, tw);
    }

    #[test]
    fn time_weighted_average() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
        tw.set(SimTime::from_secs(10), 4.0); // level 0 for 10 s
        tw.set(SimTime::from_secs(20), 2.0); // level 4 for 10 s
        // level 2 for 20 more seconds:
        let avg = tw.average_until(SimTime::from_secs(40));
        // (0*10 + 4*10 + 2*20) / 40 = 2.0
        assert!((avg - 2.0).abs() < 1e-12);
        assert_eq!(tw.peak(), 4.0);
        assert_eq!(tw.level(), 2.0);
    }

    #[test]
    fn time_weighted_add_and_samples() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 1.0).with_samples();
        tw.add(SimTime::from_secs(1), 2.0);
        tw.add(SimTime::from_secs(2), -3.0);
        assert_eq!(tw.level(), 0.0);
        assert_eq!(tw.samples().len(), 3);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn time_weighted_rejects_backwards_time() {
        let mut tw = TimeWeighted::new(SimTime::from_secs(5), 0.0);
        tw.set(SimTime::from_secs(1), 1.0);
    }

    #[test]
    fn trace_aggregation_matches_hand_computation() {
        use crate::trace::Field;
        let mut bus = TraceBus::new();
        bus.record_fields(SimTime::from_secs(1), "svc", "latency", &[("secs", Field::F64(1.0))]);
        bus.record_fields(SimTime::from_secs(2), "svc", "latency", &[("secs", Field::F64(3.0))]);
        bus.record_fields(SimTime::from_secs(3), "svc", "other", &[]);

        let s = summarize_trace(&bus, "svc", "latency", "secs").unwrap();
        assert_eq!(s.count, 2);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!(summarize_trace(&bus, "svc", "other", "secs").is_none());

        bus.record_fields(SimTime::from_secs(10), "svc", "level", &[("n", Field::F64(4.0))]);
        let tw = trace_gauge(&bus, "svc", "level", "n", 0.0);
        // Level 0 for 10 s, then 4 for 10 s: average 2.
        assert!((tw.average_until(SimTime::from_secs(20)) - 2.0).abs() < 1e-12);
        assert_eq!(tw.peak(), 4.0);
    }
}
