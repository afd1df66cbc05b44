//! The counting allocator's peak and reset semantics. Both checks read the
//! process-wide counters, so they share one test in a binary of its own:
//! no parallel test can allocate or free between a reset and a read.

use mcs_bench::peakmem::PEAK_ALLOC;

#[test]
fn peak_tracks_allocations_and_reset_restarts_from_live() {
    let baseline = PEAK_ALLOC.reset_peak();
    let block = vec![7u8; 4 << 20];
    std::hint::black_box(&block);
    let grown = PEAK_ALLOC.peak_bytes().saturating_sub(baseline);
    assert!(grown >= 4 << 20, "peak growth {grown} should cover the 4 MiB block");
    drop(block);
    assert!(PEAK_ALLOC.live_bytes() < PEAK_ALLOC.peak_bytes());

    let held = vec![1u8; 1 << 20];
    std::hint::black_box(&held);
    let live = PEAK_ALLOC.reset_peak();
    assert!(live >= 1 << 20, "live {live} must include the held MiB");
    assert!(PEAK_ALLOC.peak_bytes() >= live);
    drop(held);
}
