//! The Function Management Layer of the Figure 5 FaaS reference
//! architecture: instance pools, cold/warm starts, keep-alive policies,
//! routing, and fine-grained billing (§6.5: "billed at a very fine
//! resource-granularity").

use crate::actor::{FaasActor, FaasMsg};
use mcs_simcore::dist::{Dist, Sample};
use mcs_simcore::engine::Simulation;
use mcs_simcore::metrics::Summary;
use mcs_simcore::rng::RngStream;
use mcs_simcore::time::{SimDuration, SimTime};
use std::collections::HashMap;

/// A deployed cloud function.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionSpec {
    /// Unique function name.
    pub name: String,
    /// Memory footprint, GiB (the billing unit).
    pub memory_gb: f64,
    /// Execution-time distribution, seconds.
    pub exec_time: Dist,
    /// Cold-start delay (runtime + dependency initialization), seconds.
    pub cold_start_secs: f64,
    /// Warm-start overhead, seconds.
    pub warm_start_secs: f64,
}

impl FunctionSpec {
    /// A typical small API-handler function.
    pub fn api_handler(name: &str) -> Self {
        FunctionSpec {
            name: name.to_owned(),
            memory_gb: 0.25,
            exec_time: Dist::Gamma { shape: 2.0, scale: 0.01 }, // ~20 ms
            cold_start_secs: 0.8,
            warm_start_secs: 0.002,
        }
    }

    /// A heavier data-processing function.
    pub fn data_processor(name: &str) -> Self {
        FunctionSpec {
            name: name.to_owned(),
            memory_gb: 2.0,
            exec_time: Dist::Gamma { shape: 2.0, scale: 1.0 }, // ~2 s
            cold_start_secs: 2.5,
            warm_start_secs: 0.005,
        }
    }
}

/// How long an idle instance is kept warm before reclamation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeepAlivePolicy {
    /// Reclaim immediately (every invocation is cold — the no-pool baseline).
    None,
    /// Keep idle instances for a fixed window (the industry default).
    Fixed(SimDuration),
}

impl KeepAlivePolicy {
    fn window(&self) -> SimDuration {
        match self {
            KeepAlivePolicy::None => SimDuration::ZERO,
            KeepAlivePolicy::Fixed(d) => *d,
        }
    }
}

/// One function invocation request.
#[derive(Debug, Clone, PartialEq)]
pub struct Invocation {
    /// Which function to run.
    pub function: String,
    /// Arrival instant.
    pub at: SimTime,
}

/// The result of one invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct InvocationResult {
    /// Arrival instant.
    pub at: SimTime,
    /// Completion instant.
    pub finished: SimTime,
    /// Whether a new instance had to cold-start.
    pub cold: bool,
    /// End-to-end latency, seconds.
    pub latency_secs: f64,
    /// Pure execution time, seconds (billed).
    pub exec_secs: f64,
}

/// Platform-level totals of one run. Every field is a counter or a sum the
/// platform keeps as it goes, so the report costs the same memory whatever
/// the run's length.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlatformReport {
    /// Invocations the platform executed, failed ones included.
    pub invocations: u64,
    /// Fraction of invocations that cold-started.
    pub cold_fraction: f64,
    /// GB-seconds billed to customers (execution only).
    pub billed_gb_secs: f64,
    /// GB-seconds of provider-side instance lifetime (including idle
    /// keep-alive): the provider's cost of the warm pool.
    pub provider_gb_secs: f64,
    /// Peak concurrent instances across functions.
    pub peak_instances: usize,
}

#[derive(Debug, Clone)]
struct Instance {
    free_at: SimTime,
    started_at: SimTime,
    last_used: SimTime,
}

/// Provider-side accounting of retired instances: their GB-seconds and
/// their lifetime edges (`+1` at start, `-1` at end) for the peak count.
#[derive(Debug, Default)]
struct Lifetimes {
    gb_secs: f64,
    edges: Vec<(SimTime, i64)>,
}

impl Lifetimes {
    /// Charges an instance of `memory_gb` from its start until `end`.
    fn close(&mut self, memory_gb: f64, inst: &Instance, end: SimTime) {
        self.gb_secs += memory_gb * (end - inst.started_at).as_secs_f64();
        self.edges.push((inst.started_at, 1));
        self.edges.push((end, -1));
    }

    /// The keep-alive expiry rule: retires from `pool`, keeping survivors
    /// in order, every instance idle for longer than `window` at `at` (every
    /// instance when `at` is `None`), closing each at `free_at + window`.
    fn expire(
        &mut self,
        pool: &mut Vec<Instance>,
        memory_gb: f64,
        window: SimDuration,
        at: Option<SimTime>,
    ) {
        pool.retain(|i| {
            let lapsed = at.is_none_or(|at| i.free_at <= at && (at - i.free_at) > window);
            if lapsed {
                self.close(memory_gb, i, i.free_at + window);
            }
            !lapsed
        });
    }
}

/// A deployed function and its live instance pool.
#[derive(Debug)]
struct Deployed {
    spec: FunctionSpec,
    pool: Vec<Instance>,
}

/// The FaaS platform simulator. Instance pools persist across calls, so
/// warmth carries over between [`FaasPlatform::invoke`] calls and workflow
/// stages; [`FaasPlatform::run`] finalizes and resets the platform.
#[derive(Debug)]
pub struct FaasPlatform {
    functions: HashMap<String, Deployed>,
    keep_alive: KeepAlivePolicy,
    rng: RngStream,
    last_invoke_at: SimTime,
    invocations: u64,
    cold_starts: u64,
    billed: f64,
    lifetimes: Lifetimes,
    seed: u64,
}

impl FaasPlatform {
    /// Creates a platform with the given keep-alive policy.
    pub fn new(keep_alive: KeepAlivePolicy, seed: u64) -> Self {
        FaasPlatform {
            functions: HashMap::new(),
            keep_alive,
            rng: RngStream::new(seed, "faas"),
            last_invoke_at: SimTime::ZERO,
            invocations: 0,
            cold_starts: 0,
            billed: 0.0,
            lifetimes: Lifetimes::default(),
            seed,
        }
    }

    /// Deploys a function.
    ///
    /// # Panics
    /// Panics when a function with the same name is already deployed.
    pub fn deploy(&mut self, spec: FunctionSpec) {
        let deployed = Deployed { spec, pool: Vec::new() };
        assert!(
            self.functions.insert(deployed.spec.name.clone(), deployed).is_none(),
            "function already deployed"
        );
    }

    /// Seed this platform was built with (components deriving their own
    /// streams from it stay deterministic per platform seed).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Invokes `function` at instant `at` against the live instance pools.
    ///
    /// Invocations must be issued in non-decreasing time order for the
    /// keep-alive accounting to be exact.
    ///
    /// # Panics
    /// Panics when the function is unknown, or when `at` precedes an
    /// earlier invocation (keep-alive accounting needs monotone time).
    pub fn invoke(&mut self, function: &str, at: SimTime) -> InvocationResult {
        self.invoke_scaled(function, at, 1.0)
    }

    /// Like [`FaasPlatform::invoke`], but stretches the sampled execution
    /// time by `exec_factor` (≥ 1): the mechanism behind straggler faults
    /// and congestion, where the work itself runs slower and the instance
    /// stays occupied (and billed) for the stretched duration.
    ///
    /// # Panics
    /// Same conditions as [`FaasPlatform::invoke`].
    pub fn invoke_scaled(
        &mut self,
        function: &str,
        at: SimTime,
        exec_factor: f64,
    ) -> InvocationResult {
        assert!(
            at >= self.last_invoke_at,
            "invocations must be issued in non-decreasing time order"
        );
        self.last_invoke_at = at;
        let window = self.keep_alive.window();
        let Deployed { spec, pool } = self
            .functions
            .get_mut(function)
            .unwrap_or_else(|| panic!("unknown function {function}"));
        self.lifetimes.expire(pool, spec.memory_gb, window, Some(at));
        // Warm, idle instance with the most recent use (LIFO keeps pools small).
        let warm_idx = pool
            .iter()
            .enumerate()
            .filter(|(_, i)| i.free_at <= at)
            .max_by_key(|(_, i)| i.last_used)
            .map(|(idx, _)| idx);
        let exec = spec.exec_time.sample(&mut self.rng).max(1e-4) * exec_factor.max(1.0);
        let (start_delay, cold) = match warm_idx {
            Some(_) => (spec.warm_start_secs, false),
            None => (spec.cold_start_secs, true),
        };
        let begin = at + SimDuration::from_secs_f64(start_delay);
        let finish = begin + SimDuration::from_secs_f64(exec);
        match warm_idx {
            Some(idx) => {
                pool[idx].free_at = finish;
                pool[idx].last_used = at;
            }
            None => {
                pool.push(Instance { free_at: finish, started_at: at, last_used: at });
            }
        }
        self.billed += spec.memory_gb * exec;
        self.invocations += 1;
        self.cold_starts += u64::from(cold);
        InvocationResult {
            at,
            finished: finish,
            cold,
            latency_secs: (finish - at).as_secs_f64(),
            exec_secs: exec,
        }
    }

    /// Runs a chronologically sorted invocation stream through the
    /// discrete-event engine, then finalizes the platform (drains pools,
    /// closes billing) and returns the report with the exact end-to-end
    /// latency distribution of the run, in seconds (`None` for an empty
    /// stream).
    ///
    /// This is a thin wrapper: it registers a single [`FaasActor`] in a
    /// [`Simulation`], schedules one [`FaasMsg::Invoke`] per invocation, and
    /// runs to quiescence. The latencies are the `latency_secs` of the
    /// run's `faas/invoke` trace records, in invocation order.
    ///
    /// # Panics
    /// Panics when an invocation names an unknown function.
    pub fn run(&mut self, mut invocations: Vec<Invocation>) -> (PlatformReport, Option<Summary>) {
        invocations.sort_by_key(|i| i.at);
        let seed = self.seed;
        let mut actor = FaasActor::new(self);
        let mut sim: Simulation<'_, FaasMsg> = Simulation::new(seed);
        let id = sim.add_actor(&mut actor);
        for inv in invocations {
            sim.schedule(inv.at, id, FaasMsg::Invoke { function: inv.function });
        }
        sim.run();
        let latencies: Vec<f64> = sim
            .trace()
            .series("faas", "invoke", "latency_secs")
            .into_iter()
            .map(|(_, latency)| latency)
            .collect();
        drop(sim);
        drop(actor);
        let report = self.finish();
        // Without resilience every platform invocation succeeds and answers.
        debug_assert_eq!(latencies.len() as u64, report.invocations);
        (report, Summary::of(&latencies))
    }

    /// Instances currently executing an invocation at instant `at`.
    pub fn busy_instances(&self, at: SimTime) -> usize {
        self.instances().filter(|i| i.free_at > at).count()
    }

    /// Instances idle (warm, not executing) at instant `at`, including any
    /// whose keep-alive window has lapsed but which have not yet been
    /// reclaimed by the lazy expiry in [`FaasPlatform::invoke`].
    pub fn idle_instances(&self, at: SimTime) -> usize {
        self.instances().filter(|i| i.free_at <= at).count()
    }

    fn instances(&self) -> impl Iterator<Item = &Instance> {
        self.functions.values().flat_map(|f| &f.pool)
    }

    /// Deployed function names in sorted order, so per-pool cost sums do
    /// not depend on hash-map iteration order.
    fn sorted_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.functions.keys().cloned().collect();
        names.sort_unstable();
        names
    }

    /// Reclaims expired idle instances across every pool, charging each to
    /// its keep-alive expiry instant. Called before [`FaasPlatform::kill_idle`]
    /// so a failure never "kills" an instance that had already lapsed.
    pub fn expire_idle(&mut self, at: SimTime) {
        let window = self.keep_alive.window();
        for name in self.sorted_names() {
            let Deployed { spec, pool } = self.functions.get_mut(&name).expect("deployed");
            self.lifetimes.expire(pool, spec.memory_gb, window, Some(at));
        }
    }

    /// Kills up to `count` idle warm instances at instant `at` — least
    /// recently used first, ties broken by function name — and returns how
    /// many were killed. Models a correlated failure striking the warm pool:
    /// killed instances stop accruing provider cost at `at`, and subsequent
    /// invocations of those functions cold-start again.
    pub fn kill_idle(&mut self, at: SimTime, count: usize) -> usize {
        self.expire_idle(at);
        let mut candidates: Vec<(SimTime, String, usize)> = Vec::new();
        for (name, f) in &self.functions {
            for (idx, inst) in f.pool.iter().enumerate() {
                if inst.free_at <= at {
                    candidates.push((inst.last_used, name.clone(), idx));
                }
            }
        }
        candidates.sort();
        candidates.truncate(count);
        let killed = candidates.len();
        // Remove per pool in descending index order so indices stay valid
        // and survivor order (hence future LIFO routing) is preserved.
        let mut by_pool: HashMap<String, Vec<usize>> = HashMap::new();
        for (_, name, idx) in candidates {
            by_pool.entry(name).or_default().push(idx);
        }
        let mut names: Vec<String> = by_pool.keys().cloned().collect();
        names.sort_unstable();
        for name in names {
            let mut idxs = by_pool.remove(&name).expect("victims exist");
            idxs.sort_unstable_by(|a, b| b.cmp(a));
            let Deployed { spec, pool } = self.functions.get_mut(&name).expect("deployed");
            for idx in idxs {
                let inst = pool.remove(idx);
                self.lifetimes.close(spec.memory_gb, &inst, at);
            }
        }
        killed
    }

    /// Finalizes the platform: closes every live instance at its keep-alive
    /// expiry, computes totals, and resets pools and counters for reuse.
    pub fn finish(&mut self) -> PlatformReport {
        let window = self.keep_alive.window();
        for name in self.sorted_names() {
            let Deployed { spec, pool } = self.functions.get_mut(&name).expect("deployed");
            self.lifetimes.expire(pool, spec.memory_gb, window, None);
        }
        let Lifetimes { gb_secs, edges: mut events } = std::mem::take(&mut self.lifetimes);
        events.sort_by_key(|&(t, d)| (t, -d));
        let mut level = 0i64;
        let mut peak = 0i64;
        for (_, d) in events {
            level += d;
            peak = peak.max(level);
        }
        let report = PlatformReport {
            invocations: self.invocations,
            cold_fraction: if self.invocations == 0 {
                0.0
            } else {
                self.cold_starts as f64 / self.invocations as f64
            },
            billed_gb_secs: self.billed,
            provider_gb_secs: gb_secs,
            peak_instances: peak as usize,
        };
        self.invocations = 0;
        self.cold_starts = 0;
        self.billed = 0.0;
        self.last_invoke_at = SimTime::ZERO;
        report
    }
}

/// Generates a Poisson invocation stream for one function.
pub fn poisson_invocations(
    function: &str,
    rate_per_sec: f64,
    horizon: SimTime,
    seed: u64,
) -> Vec<Invocation> {
    let mut rng = RngStream::new(seed, "faas-arrivals");
    let mut out = Vec::new();
    let mut t = SimTime::ZERO;
    loop {
        let gap = Dist::Exponential { rate: rate_per_sec }.sample(&mut rng);
        t += SimDuration::from_secs_f64(gap);
        if t >= horizon {
            break;
        }
        out.push(Invocation { function: function.to_owned(), at: t });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn platform(keep_alive: KeepAlivePolicy) -> FaasPlatform {
        let mut p = FaasPlatform::new(keep_alive, 1);
        p.deploy(FunctionSpec::api_handler("api"));
        p
    }

    #[test]
    fn first_invocation_is_cold_second_is_warm() {
        let mut p = platform(KeepAlivePolicy::Fixed(SimDuration::from_secs(600)));
        let first = p.invoke("api", SimTime::from_secs(0));
        let second = p.invoke("api", SimTime::from_secs(10));
        assert!(first.cold);
        assert!(!second.cold);
        assert!(first.latency_secs > second.latency_secs);
        let report = p.finish();
        assert_eq!(report.invocations, 2);
        assert_eq!(report.cold_fraction, 0.5);
    }

    #[test]
    fn run_summarizes_every_invocation_latency() {
        let mut p = platform(KeepAlivePolicy::Fixed(SimDuration::from_secs(600)));
        let (report, latency) = p.run(vec![
            Invocation { function: "api".into(), at: SimTime::from_secs(0) },
            Invocation { function: "api".into(), at: SimTime::from_secs(10) },
        ]);
        let latency = latency.expect("two invocations");
        assert_eq!((report.invocations, latency.count), (2, 2));
        // The cold start dominates the slower of the two.
        assert!(latency.max > 0.8 && latency.min < 0.8, "{latency:?}");
        assert_eq!(p.run(Vec::new()), (PlatformReport::default(), None));
    }

    #[test]
    fn no_keep_alive_means_all_cold() {
        let mut p = platform(KeepAlivePolicy::None);
        let invs = poisson_invocations("api", 0.2, SimTime::from_secs(600), 3);
        let (report, _) = p.run(invs);
        assert_eq!(report.cold_fraction, 1.0);
    }

    #[test]
    fn longer_keep_alive_fewer_colds_more_provider_cost() {
        let invs = poisson_invocations("api", 0.05, SimTime::from_secs(4 * 3600), 5);
        let mut short = platform(KeepAlivePolicy::Fixed(SimDuration::from_secs(10)));
        let mut long = platform(KeepAlivePolicy::Fixed(SimDuration::from_secs(1800)));
        let (r_short, _) = short.run(invs.clone());
        let (r_long, _) = long.run(invs);
        assert!(
            r_long.cold_fraction < r_short.cold_fraction * 0.6,
            "long {} vs short {}",
            r_long.cold_fraction,
            r_short.cold_fraction
        );
        assert!(r_long.provider_gb_secs > r_short.provider_gb_secs);
        // Billing is identical: same executions.
        assert!((r_long.billed_gb_secs - r_short.billed_gb_secs).abs() < 1e-9);
    }

    #[test]
    fn concurrent_burst_spawns_instances() {
        let mut p = platform(KeepAlivePolicy::Fixed(SimDuration::from_secs(60)));
        // 10 simultaneous invocations cannot share one instance.
        let invs: Vec<Invocation> = (0..10)
            .map(|_| Invocation { function: "api".into(), at: SimTime::from_secs(1) })
            .collect();
        let (report, _) = p.run(invs);
        assert_eq!(report.cold_fraction, 1.0);
        assert!(report.peak_instances >= 10);
    }

    #[test]
    #[should_panic(expected = "unknown function")]
    fn unknown_function_panics() {
        let mut p = platform(KeepAlivePolicy::None);
        p.run(vec![Invocation { function: "nope".into(), at: SimTime::ZERO }]);
    }

    #[test]
    #[should_panic(expected = "already deployed")]
    fn duplicate_deploy_panics() {
        let mut p = platform(KeepAlivePolicy::None);
        p.deploy(FunctionSpec::api_handler("api"));
    }

    #[test]
    fn deterministic() {
        let invs = poisson_invocations("api", 0.1, SimTime::from_secs(3600), 7);
        let mut a = platform(KeepAlivePolicy::Fixed(SimDuration::from_secs(300)));
        let mut b = platform(KeepAlivePolicy::Fixed(SimDuration::from_secs(300)));
        assert_eq!(a.run(invs.clone()), b.run(invs));
    }
}
