//! Peak-heap instrumentation for the repository benchmark and the memory
//! tests.
//!
//! A counting [`GlobalAlloc`] wrapper around the system allocator: every
//! allocation adds to a live-bytes counter, every deallocation subtracts,
//! and the high-water mark is kept in a second counter that measurements
//! reset at their start. The overhead is two relaxed atomic operations per
//! allocation — invisible next to the allocations themselves — which is
//! what lets the repository benchmark report `peak_heap_mib`, and
//! `tests/peak_heap.rs` check the streaming trace sink's flat-memory claim
//! as a number rather than prose. `tests/peak_alloc.rs` checks the counters
//! themselves; like `peak_heap.rs` it is a one-test binary, because a
//! parallel test would move the process-wide counters mid-measurement.
//!
//! The `#[global_allocator]` registration lives here, so every binary and
//! test of this crate, and the benchmark that links it, is instrumented
//! automatically. Library users outside mcs-bench are unaffected.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// A [`System`]-backed allocator that tracks live bytes and their peak.
pub struct PeakAlloc {
    live: AtomicU64,
    peak: AtomicU64,
}

/// The process-wide instrumented allocator.
#[global_allocator]
pub static PEAK_ALLOC: PeakAlloc = PeakAlloc::new();

impl PeakAlloc {
    const fn new() -> Self {
        PeakAlloc { live: AtomicU64::new(0), peak: AtomicU64::new(0) }
    }

    /// Heap bytes currently allocated (and not yet freed).
    pub fn live_bytes(&self) -> u64 {
        self.live.load(Ordering::Relaxed)
    }

    /// High-water mark of [`Self::live_bytes`] since the last
    /// [`Self::reset_peak`] (or process start).
    pub fn peak_bytes(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Restarts the high-water mark from the current live count. Returns
    /// the live count so callers can report peak *growth* over a region
    /// (`peak_bytes() - baseline`).
    pub fn reset_peak(&self) -> u64 {
        let live = self.live.load(Ordering::Relaxed);
        self.peak.store(live, Ordering::Relaxed);
        live
    }

    fn add(&self, bytes: u64) {
        let live = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    fn sub(&self, bytes: u64) {
        self.live.fetch_sub(bytes, Ordering::Relaxed);
    }
}

// SAFETY: delegates every allocation verbatim to `System`; the counters are
// bookkeeping only and never affect the returned pointers.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            self.add(layout.size() as u64);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            self.add(layout.size() as u64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        self.sub(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            let old = layout.size() as u64;
            let new = new_size as u64;
            if new >= old {
                self.add(new - old);
            } else {
                self.sub(old - new);
            }
        }
        new_ptr
    }
}

/// Renders a byte count with an adaptive binary unit.
pub fn format_bytes(bytes: u64) -> String {
    const KIB: f64 = 1024.0;
    let b = bytes as f64;
    if b < KIB {
        format!("{bytes} B")
    } else if b < KIB * KIB {
        format!("{:.1} KiB", b / KIB)
    } else if b < KIB * KIB * KIB {
        format!("{:.1} MiB", b / (KIB * KIB))
    } else {
        format!("{:.2} GiB", b / (KIB * KIB * KIB))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_bytes_picks_unit() {
        assert_eq!(format_bytes(512), "512 B");
        assert!(format_bytes(8 << 10).ends_with("KiB"));
        assert!(format_bytes(8 << 20).ends_with("MiB"));
        assert!(format_bytes(8 << 30).ends_with("GiB"));
    }
}
