//! The end-to-end run: back-to-back reps of one workload with tracing off,
//! timed from outside the program.
//!
//! A run cycles through [`SUBSEEDS`] input sets derived from `--seed`, so
//! its medians describe the workload rather than one draw of its inputs.
//! Each rep is checked: it fails if it panics, if an outcome misses the
//! workload's sanity conditions, or if its digest differs from the first
//! rep of the same input set (at the pinned seed, from the pinned digest).

use crate::stats::Samples;
use crate::workloads::{Workload, PINNED_SEED};
use mcs::core::scenario::{Scenario, ScenarioOutcome};
use mcs::simcore::rng::RngStream;
use mcs_bench::peakmem::PEAK_ALLOC;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Input sets one run cycles through.
const SUBSEEDS: usize = 8;

/// The input-set seeds of a run: the first is `seed` itself, so the pinned
/// digest applies to it at [`PINNED_SEED`].
fn subseeds(seed: u64) -> [u64; SUBSEEDS] {
    let mut rng = RngStream::new(seed, "benchmark-subseeds");
    let mut seeds = [seed; SUBSEEDS];
    for s in seeds.iter_mut().skip(1) {
        *s = rng.next_u64();
    }
    seeds
}

/// Reps for a run of `seconds` on the reference machine, rounded to a
/// whole number of passes over the input sets, at least one.
pub fn rep_count(workload: &Workload, seconds: f64) -> usize {
    let passes = (seconds / workload.nominal_rep_s / SUBSEEDS as f64).round() as usize;
    passes.max(1) * SUBSEEDS
}

/// Incremental 64-bit FNV-1a.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.write(&x.to_le_bytes());
    }

    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Folds one scenario's outcome — engine events, the per-event census, the
/// outcome counters and the query answers — into `digest`.
pub fn fold_outcome(digest: &mut Fnv, out: &ScenarioOutcome, answers: &[f64]) {
    digest.u64(out.events_handled);
    for (component, event, n) in out.trace.counts() {
        digest.write(component.as_bytes());
        digest.write(event.as_bytes());
        digest.u64(n);
    }
    for n in [
        out.arrivals as u64,
        out.invoked,
        out.rejected,
        out.invocations_failed,
        out.shed,
        out.retries_scheduled,
        out.final_capacity as u64,
        out.outages_generated as u64,
        out.outages_delivered as u64,
        out.governor_decisions as u64,
        out.schedule.completions.len() as u64,
        out.schedule.makespan.as_nanos(),
        out.schedule.failure_requeues as u64,
        out.gaming_admitted,
        out.gaming_rejected,
        out.gaming_disconnected,
        out.gaming_laggy_syncs,
        out.dag_jobs_finished,
        out.dag_tasks_finished,
        out.net_flows_started,
        out.net_flows_delivered,
        out.net_flows_aborted,
    ] {
        digest.u64(n);
    }
    for x in [
        out.dag_mean_makespan_secs,
        out.dag_transfer_secs,
        out.net_stall_secs,
    ] {
        digest.f64(x);
    }
    for &x in answers {
        digest.f64(x);
    }
}

/// What one successful rep measured.
#[derive(Debug, Clone, Copy)]
pub struct RepResult {
    /// Host seconds to build the configurations and validate them into
    /// scenarios: the median of [`SETUP_REPEATS`] back-to-back builds.
    pub setup_s: f64,
    /// Host seconds to run the scenarios and query their traces.
    pub run_s: f64,
    /// Outcome digest.
    pub digest: u64,
}

/// Timed set-ups per rep. They follow one untimed build, which pays for
/// the allocator handing back the previous rep's memory, so the set-up
/// times measure building scenarios rather than page faults.
const SETUP_REPEATS: usize = 25;

/// A rep's set-up: the workload's configurations for one input set, each
/// validated into a scenario.
fn build(workload: &Workload, seed: u64) -> Result<Vec<Scenario>, String> {
    (workload.configs)(seed)
        .into_iter()
        .map(|cfg| Scenario::try_new(cfg).map_err(|e| e.to_string()))
        .collect()
}

/// One rep: the set-up, then every scenario run in order, then every
/// outcome checked and its trace queried — a sweep keeps all its traces
/// until it reads them, as a report over the sweep does.
pub fn rep(workload: &Workload, seed: u64) -> Result<RepResult, String> {
    let mut scenarios = build(workload, seed)?;
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let built = build(workload, seed)?;
        setups.push(start.elapsed().as_secs_f64());
        scenarios = built;
    }
    let start = Instant::now();
    let outcomes: Vec<ScenarioOutcome> = scenarios.into_iter().map(Scenario::run).collect();
    let mut digest = Fnv::default();
    for out in &outcomes {
        (workload.check)(out).map_err(|e| format!("{}: {e}", workload.name))?;
        fold_outcome(&mut digest, out, &(workload.queries)(&out.trace));
    }
    drop(outcomes);
    let run_s = start.elapsed().as_secs_f64();
    Ok(RepResult {
        setup_s: Samples::new(setups).median(),
        run_s,
        digest: digest.finish(),
    })
}

/// Runs `f`, turning a panic into an error.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let what = panic
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_owned());
        Err(format!("panicked: {what}"))
    })
}

/// Attempted and failed reps, with the reference digest of each input set.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    reference: [Option<u64>; SUBSEEDS],
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    /// A tally whose input set `set` must reproduce `digest`.
    pub fn pin(mut self, set: usize, digest: u64) -> Self {
        self.reference[set] = Some(digest);
        self
    }

    /// Counts one rep of input set `set`; returns whether it succeeded.
    pub fn record(&mut self, set: usize, outcome: &Result<u64, String>) -> bool {
        self.attempted += 1;
        let error = match outcome {
            Err(e) => Some(e.clone()),
            Ok(digest) => match self.reference[set] {
                None => {
                    self.reference[set] = Some(*digest);
                    None
                }
                Some(want) if want == *digest => None,
                Some(want) => Some(format!("digest {digest} differs from {want}")),
            },
        };
        if let Some(e) = error {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
            return false;
        }
        true
    }

    /// Failed reps over attempted reps.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// An end-to-end run's raw measurements.
pub struct EndToEnd {
    pub run_s: Samples,
    pub setup_s: Samples,
    /// Peak heap growth over the timed reps, bytes.
    pub peak_heap_bytes: u64,
    pub tally: Tally,
}

/// The end-to-end run: one untimed warm-up rep, then `reps` timed reps
/// cycling through the input sets. A run that passes `time_cap` seconds
/// stops early, so a much slower program still finishes.
pub fn run(workload: &Workload, seed: u64, reps: usize, time_cap: f64) -> EndToEnd {
    let seeds = subseeds(seed);
    let mut tally = Tally::default();
    if seed == PINNED_SEED {
        tally = tally.pin(0, workload.pinned_digest);
    }
    // Warms caches and one-time set-up; its outcome is checked like any rep
    // but its time is not kept.
    let warm = guarded(|| rep(workload, seeds[0]));
    tally.record(0, &warm.map(|r| r.digest));

    let mut run_s = Vec::with_capacity(reps);
    let mut setup_s = Vec::with_capacity(reps);
    let started = Instant::now();
    let baseline = PEAK_ALLOC.reset_peak();
    for i in 0..reps {
        if started.elapsed().as_secs_f64() > time_cap {
            break;
        }
        let set = i % SUBSEEDS;
        let result = guarded(|| rep(workload, seeds[set]));
        if tally.record(
            set,
            &result.as_ref().map(|r| r.digest).map_err(Clone::clone),
        ) {
            let r = result.expect("recorded as a success");
            run_s.push(r.run_s);
            setup_s.push(r.setup_s);
        }
    }
    EndToEnd {
        run_s: Samples::new(run_s),
        setup_s: Samples::new(setup_s),
        peak_heap_bytes: PEAK_ALLOC.peak_bytes().saturating_sub(baseline),
        tally,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn tally_counts_an_injected_digest_mismatch() {
        let mut tally = Tally::default().pin(0, 7);
        assert!(tally.record(0, &Ok(7)));
        assert!(tally.record(1, &Ok(9)));
        assert!(tally.record(1, &Ok(9)));
        assert!(!tally.record(1, &Ok(10)), "a changed digest must fail");
        assert!(!tally.record(0, &Ok(8)), "a digest off the pin must fail");
        assert!(!tally.record(2, &Err("boom".to_owned())));
        assert_eq!((tally.attempted, tally.failed), (6, 3));
        assert_eq!(tally.failed_frac(), 0.5);
    }

    #[test]
    fn a_panicking_rep_counts_as_failed() {
        let mut tally = Tally::default();
        let outcome = guarded::<u64>(|| panic!("injected"));
        assert!(!tally.record(0, &outcome));
        assert_eq!(tally.failed_frac(), 1.0);
        assert!(tally.errors[0].contains("injected"));
    }

    #[test]
    fn rep_counts_are_whole_passes_over_the_input_sets() {
        for w in &WORKLOADS {
            for seconds in [0.0, 1.0, 18.0] {
                let n = rep_count(w, seconds);
                assert!(
                    n >= SUBSEEDS && n.is_multiple_of(SUBSEEDS),
                    "{} at {seconds}s: {n}",
                    w.name
                );
            }
        }
        assert_eq!(subseeds(42)[0], 42);
        assert_eq!(subseeds(42), subseeds(42));
    }

    /// Each workload's digest at the pinned seed, computed twice.
    #[test]
    fn workload_digests_match_their_pins_and_repeat() {
        for w in &WORKLOADS {
            let digest = || rep(w, PINNED_SEED).unwrap().digest;
            let first = digest();
            assert_eq!(
                first, w.pinned_digest,
                "{} drifted from its pinned digest",
                w.name
            );
            assert_eq!(digest(), first, "{} is not deterministic", w.name);
        }
    }
}
