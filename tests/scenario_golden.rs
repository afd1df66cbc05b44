//! Golden regression gate for the composed scenario.
//!
//! The `ScenarioConfig` redesign (nested per-subsystem sub-configs) promised
//! that the *default* configuration keeps producing byte-identical traces.
//! This test pins the default-config trace JSON to a digest captured before
//! the redesign; any drift in actor registration order, RNG stream labels,
//! or zero-time scheduling shows up here as a digest mismatch.

use mcs::prelude::*;
use std::hash::Hasher;

/// Digest of the rendered trace JSON under simcore's `FastHasher`, an
/// FxHash-style multiply-rotate hash (not FNV-1a): a change to that hasher
/// moves the pinned values.
fn trace_digest(trace: &TraceBus) -> u64 {
    let json = trace.to_json_string();
    let mut h = mcs_simcore::intern::FastHasher::default();
    h.write(json.as_bytes());
    h.finish()
}

/// Digest of `Scenario::new(ScenarioConfig::default()).run().trace`, captured
/// on the flat-config implementation immediately before the nested redesign.
const GOLDEN_DEFAULT_TRACE_DIGEST: u64 = 1913211282799844796;

#[test]
fn default_config_trace_matches_pre_redesign_golden() {
    let out = Scenario::new(ScenarioConfig::default()).run();
    let digest = trace_digest(&out.trace);
    assert_eq!(
        digest, GOLDEN_DEFAULT_TRACE_DIGEST,
        "default-config trace drifted from the pre-redesign golden digest"
    );
}
