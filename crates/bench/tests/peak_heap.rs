//! The streaming trace sink's flat-memory claim, checked: at the 1x
//! scale-stress volume, streaming aggregation peaks at a small fraction of
//! the heap that full retention needs, and a streaming run's peak does not
//! grow with its horizon, so no tenant keeps per-event state beside the
//! sink. The file holds one test, so it runs in a binary of its own and no
//! parallel test moves the process-wide allocator counters while it
//! measures.

use mcs::core::scenario::{Scenario, ScenarioConfig};
use mcs::simcore::time::SimTime;
use mcs_bench::experiments::scale::scale_config;
use mcs_bench::peakmem::{format_bytes, PEAK_ALLOC};

/// Peak heap growth over one 1x scale-stress run of `hours` simulated
/// hours under the chosen sink.
fn peak_heap(streaming: bool, hours: u64) -> u64 {
    let cfg = ScenarioConfig {
        horizon: SimTime::from_secs(hours * 3600),
        ..scale_config(42, 1.0, streaming)
    };
    let baseline = PEAK_ALLOC.reset_peak();
    let out = Scenario::new(cfg).run();
    std::hint::black_box(&out);
    PEAK_ALLOC.peak_bytes().saturating_sub(baseline)
}

#[test]
fn streaming_sink_peaks_far_below_full_retention() {
    let full = peak_heap(false, 4);
    let streaming = peak_heap(true, 4);
    assert!(
        streaming * 8 < full,
        "streaming peak {} is not 8x below full retention's {}",
        format_bytes(streaming),
        format_bytes(full),
    );
    // Four times the horizon, four times the events: the peak stays flat.
    let long = peak_heap(true, 16);
    assert!(
        long * 2 <= streaming * 3,
        "16 h streaming peak {} is above 1.5x the 4 h run's {}",
        format_bytes(long),
        format_bytes(streaming),
    );
}
