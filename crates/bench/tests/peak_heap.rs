//! The streaming trace sink's flat-memory claim, checked: at the 1x
//! scale-stress volume, streaming aggregation peaks at a small fraction of
//! the heap that full retention needs. The file holds one test, so it runs
//! in a binary of its own and no parallel test moves the process-wide
//! allocator counters while it measures.

use mcs::core::scenario::Scenario;
use mcs_bench::experiments::scale::scale_config;
use mcs_bench::peakmem::{format_bytes, PEAK_ALLOC};

/// Peak heap growth over one 1x scale-stress run under the chosen sink.
fn peak_heap(streaming: bool) -> u64 {
    let baseline = PEAK_ALLOC.reset_peak();
    let out = Scenario::new(scale_config(42, 1.0, streaming)).run();
    std::hint::black_box(&out);
    PEAK_ALLOC.peak_bytes().saturating_sub(baseline)
}

#[test]
fn streaming_sink_peaks_far_below_full_retention() {
    let full = peak_heap(false);
    let streaming = peak_heap(true);
    assert!(
        streaming * 8 < full,
        "streaming peak {} is not 8x below full retention's {}",
        format_bytes(streaming),
        format_bytes(full),
    );
}
