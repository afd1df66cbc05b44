//! In-house wall-clock benchmark harness.
//!
//! Replaces the external criterion dependency with the smallest useful
//! surface: each `benches/*.rs` file builds a [`Harness`], registers named
//! benchmarks, and prints a timing table. Statistics are deliberately
//! plain — at least 200 ms of warmup, then 12 timed samples, reporting
//! min / median / mean from [`Summary::of`] — because the benches
//! here guide relative comparisons (ablations, era-to-era deltas), not
//! microarchitectural claims.

use std::time::{Duration, Instant};

use mcs::simcore::metrics::Summary;

pub use std::hint::black_box;

/// Timed samples per benchmark.
const SAMPLES: usize = 12;

/// Minimum warmup time per benchmark, before the timed samples.
const WARMUP: Duration = Duration::from_millis(200);

/// Timing statistics for one benchmark, in seconds, plus the peak heap
/// growth observed across the timed samples (bytes above the live count at
/// the start of sampling, from [`crate::peakmem::PEAK_ALLOC`]).
#[derive(Debug, Clone)]
pub struct Stats {
    pub name: String,
    pub min: f64,
    pub median: f64,
    pub mean: f64,
    pub peak_bytes: u64,
}

impl Stats {
    /// Summarizes one benchmark's samples; `None` when there are none.
    fn of(name: &str, samples: &[f64], peak_bytes: u64) -> Option<Stats> {
        let s = Summary::of(samples)?;
        Some(Stats { name: name.to_owned(), min: s.min, median: s.p50, mean: s.mean, peak_bytes })
    }
}

/// Passed to each benchmark closure; [`Bencher::iter`] times the hot path.
pub struct Bencher {
    samples: Vec<f64>,
    peak_bytes: u64,
}

impl Bencher {
    /// Warms `f` up, then times `SAMPLES` calls of it. The return
    /// value is routed through [`black_box`] so the work is not optimised
    /// away. Peak heap growth is measured across the timed samples (warmup
    /// excluded, so one-time setup allocations don't pollute the number).
    pub fn iter<T, F: FnMut() -> T>(&mut self, mut f: F) {
        let warmup_start = Instant::now();
        let mut warmed = 0u32;
        while warmed < 1 || warmup_start.elapsed() < WARMUP {
            black_box(f());
            warmed += 1;
            if warmed >= 1_000 {
                break;
            }
        }
        let baseline = crate::peakmem::PEAK_ALLOC.reset_peak();
        for _ in 0..SAMPLES {
            let start = Instant::now();
            black_box(f());
            self.samples.push(start.elapsed().as_secs_f64());
        }
        self.peak_bytes = crate::peakmem::PEAK_ALLOC.peak_bytes().saturating_sub(baseline);
    }
}

/// A named group of benchmarks printed as one table.
pub struct Harness {
    group: String,
    results: Vec<Stats>,
}

impl Harness {
    pub fn new(group: &str) -> Self {
        Harness { group: group.to_owned(), results: Vec::new() }
    }

    /// Registers and immediately runs one benchmark.
    pub fn bench<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let mut bencher = Bencher { samples: Vec::new(), peak_bytes: 0 };
        f(&mut bencher);
        let stats = Stats::of(name, &bencher.samples, bencher.peak_bytes)
            .unwrap_or_else(|| panic!("benchmark {name:?} never called Bencher::iter"));
        eprintln!(
            "  {:<44} min {:>10}  median {:>10}  mean {:>10}  peak {:>10}",
            stats.name,
            format_secs(stats.min),
            format_secs(stats.median),
            format_secs(stats.mean),
            crate::peakmem::format_bytes(stats.peak_bytes),
        );
        self.results.push(stats);
        self
    }

    /// Prints the final table for the group and returns the stats.
    pub fn finish(&self) -> &[Stats] {
        eprintln!(
            "{}: {} benchmark(s), {} sample(s) each",
            self.group,
            self.results.len(),
            SAMPLES,
        );
        &self.results
    }
}

/// Renders a duration in seconds with an adaptive unit.
pub fn format_secs(secs: f64) -> String {
    if secs < 1e-6 {
        format!("{:.1} ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:.1} µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2} ms", secs * 1e3)
    } else {
        format!("{secs:.3} s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_ordered_stats() {
        let mut h = Harness::new("test");
        h.bench("square", |b| b.iter(|| black_box(7u64) * 7));
        let stats = &h.finish()[0];
        assert_eq!(stats.name, "square");
        assert!(0.0 <= stats.min && stats.min <= stats.median);
        assert!(stats.min <= stats.mean);
    }

    #[test]
    fn median_of_an_even_sample_set_interpolates() {
        // The two middle values of 12 samples are 6 and 7: the median is
        // their mean, not the upper one.
        let samples: Vec<f64> = (1..=12).rev().map(f64::from).collect();
        let stats = Stats::of("even", &samples, 0).unwrap();
        assert_eq!(stats.median, 6.5);
        assert_eq!(stats.min, 1.0);
        assert_eq!(stats.mean, 6.5);
        assert!(Stats::of("empty", &[], 0).is_none());
    }

    #[test]
    fn format_secs_picks_unit() {
        assert!(format_secs(5e-9).ends_with("ns"));
        assert!(format_secs(5e-5).ends_with("µs"));
        assert!(format_secs(5e-3).ends_with("ms"));
        assert!(format_secs(2.0).ends_with(" s"));
    }
}
