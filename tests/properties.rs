//! Property-based tests on the core invariants of the workspace, run on the
//! in-house seeded harness ([`mcs::simcore::check::Check`]). Each property
//! draws its inputs from the per-case `RngStream`, so a failure prints the
//! exact seed needed to replay it.

use mcs::prelude::*;
use mcs_simcore::{prop_assert, prop_assert_eq};

/// The scheduler conserves tasks: completed + rejected + unfinished equals
/// submitted, for arbitrary workloads.
#[test]
fn scheduler_conserves_tasks() {
    Check::new("scheduler_conserves_tasks").cases(48).run(|rng| {
        let seed = rng.uniform_usize(500) as u64;
        let n_jobs = 1 + rng.uniform_usize(39);
        let cores = 1 + rng.uniform_usize(3) as u32;
        let cluster = Cluster::homogeneous(
            ClusterId(0),
            "p",
            MachineSpec::commodity("m", 4.0, 16.0),
            cores,
        );
        let mut wl_rng = RngStream::new(seed, "prop-sched");
        let jobs: Vec<Job> = (0..n_jobs)
            .map(|i| {
                let id = JobId(i as u64);
                let tasks = (0..1 + wl_rng.uniform_usize(3))
                    .map(|k| {
                        Task::independent(
                            TaskId((i * 10 + k) as u64),
                            id,
                            wl_rng.uniform_f64(1.0, 500.0),
                            mcs::infra::resource::ResourceVector::new(
                                1.0 + wl_rng.uniform_usize(6) as f64, // may exceed capacity
                                wl_rng.uniform_f64(0.5, 8.0),
                            ),
                        )
                    })
                    .collect();
                Job {
                    id,
                    user: UserId(0),
                    kind: JobKind::BagOfTasks,
                    submit: SimTime::from_secs(wl_rng.uniform_usize(3_600) as u64),
                    tasks,
                }
            })
            .collect();
        let submitted: usize = jobs.iter().map(|j| j.tasks.len()).sum();
        let mut sched = ClusterScheduler::new(cluster, SchedulerConfig::default(), seed);
        let out = sched.run(jobs, SimTime::from_secs(30 * 86_400));
        prop_assert_eq!(out.completions.len() + out.rejected + out.unfinished, submitted);
        prop_assert_eq!(out.unfinished, 0);
        // Start/finish sanity.
        for c in &out.completions {
            prop_assert!(c.start >= c.submit);
            prop_assert!(c.finish > c.start);
        }
        Ok(())
    });
}

/// Resource vectors: fits_in is consistent with checked_sub.
#[test]
fn resource_fits_iff_checked_sub() {
    use mcs::infra::resource::ResourceVector;
    Check::new("resource_fits_iff_checked_sub").cases(256).run(|rng| {
        let mut draw = |scale: f64| -> [f64; 4] {
            [
                rng.uniform_f64(0.0, scale),
                rng.uniform_f64(0.0, scale),
                rng.uniform_f64(0.0, scale),
                rng.uniform_f64(0.0, scale),
            ]
        };
        let a = draw(64.0);
        let b = draw(64.0);
        let want = ResourceVector::new(a[0], a[1]).with_storage_gb(a[2]).with_network_gbps(a[3]);
        let have = ResourceVector::new(b[0], b[1]).with_storage_gb(b[2]).with_network_gbps(b[3]);
        prop_assert_eq!(want.fits_in(&have), have.checked_sub(&want).is_some());
        Ok(())
    });
}

/// NFR serial composition is associative for every kind.
#[test]
fn nfr_serial_composition_associative() {
    Check::new("nfr_serial_composition_associative").cases(256).run(|rng| {
        let x = rng.uniform_f64(0.01, 10.0);
        let y = rng.uniform_f64(0.01, 10.0);
        let z = rng.uniform_f64(0.01, 10.0);
        let av1 = rng.uniform_f64(0.5, 1.0);
        let av2 = rng.uniform_f64(0.5, 1.0);
        let av3 = rng.uniform_f64(0.5, 1.0);
        let p = |lat: f64, avail: f64| {
            NfrProfile::new()
                .with(NfrKind::LatencyP95, lat)
                .with(NfrKind::Availability, avail)
                .with(NfrKind::Throughput, lat * 100.0)
        };
        let (a, b, c) = (p(x, av1), p(y, av2), p(z, av3));
        let left = a.compose_serial(&b).compose_serial(&c);
        let right = a.compose_serial(&b.compose_serial(&c));
        for kind in NfrKind::ALL {
            match (left.get(kind), right.get(kind)) {
                (Some(l), Some(r)) => prop_assert!((l - r).abs() < 1e-9),
                (None, None) => {}
                other => prop_assert!(false, "asymmetric kinds {other:?}"),
            }
        }
        Ok(())
    });
}

/// Parallel composition never lowers availability.
#[test]
fn replication_never_hurts_availability() {
    Check::new("replication_never_hurts_availability").cases(256).run(|rng| {
        let a = rng.uniform_f64(0.0, 1.0);
        let b = rng.uniform_f64(0.0, 1.0);
        let pa = NfrProfile::new().with(NfrKind::Availability, a);
        let pb = NfrProfile::new().with(NfrKind::Availability, b);
        let c = pa.compose_parallel(&pb).get(NfrKind::Availability).unwrap();
        prop_assert!(c >= a - 1e-12);
        prop_assert!(c >= b - 1e-12);
        prop_assert!(c <= 1.0 + 1e-12);
        Ok(())
    });
}

/// Elasticity metrics are bounded and perfect tracking scores 1.
#[test]
fn elasticity_metrics_bounded() {
    Check::new("elasticity_metrics_bounded").cases(128).run(|rng| {
        let len = 1 + rng.uniform_usize(99);
        let demand: Vec<f64> = (0..len).map(|_| rng.uniform_f64(0.0, 100.0)).collect();
        let m = ElasticityMetrics::compute(&demand, &demand).unwrap();
        prop_assert_eq!(m.timeshare_under, 0.0);
        prop_assert_eq!(m.timeshare_over, 0.0);
        prop_assert!((m.score() - 1.0).abs() < 1e-12);
        // Against an arbitrary supply (shifted), everything stays bounded.
        let supply: Vec<f64> = demand.iter().map(|d| (d - 5.0).max(0.0)).collect();
        let m2 = ElasticityMetrics::compute(&demand, &supply).unwrap();
        prop_assert!((0.0..=1.0).contains(&m2.timeshare_under));
        prop_assert!((0.0..=1.0).contains(&m2.timeshare_over));
        prop_assert!((0.0..=1.0).contains(&m2.instability));
        prop_assert!(unserved_fraction(&demand, &supply) <= 1.0 + 1e-12);
        Ok(())
    });
}

/// Trace JSON-lines round-trips preserve record counts and fields.
#[test]
fn trace_roundtrip() {
    Check::new("trace_roundtrip").cases(64).run(|rng| {
        let seed = rng.uniform_usize(200) as u64;
        let n = 1 + rng.uniform_usize(49);
        let mut generator = BatchWorkloadGenerator::new(BatchWorkloadConfig::default());
        let mut tr_rng = RngStream::new(seed, "prop-trace");
        let trace = generator.generate_trace(SimTime::from_secs(100_000), n, &mut tr_rng);
        let bytes = trace.to_jsonl().map_err(|e| e.to_string())?;
        let back = Trace::from_jsonl(&bytes).map_err(|e| e.to_string())?;
        prop_assert_eq!(trace.len(), back.len());
        for (a, b) in trace.records().iter().zip(back.records()) {
            prop_assert_eq!(a.job_id, b.job_id);
            prop_assert_eq!(a.user, b.user);
            prop_assert!((a.runtime_secs - b.runtime_secs).abs() < 1e-9);
        }
        Ok(())
    });
}

/// Graph invariants: undirected() is symmetric; WCC labels are component
/// minima; BFS depths grow by at most 1 along edges.
#[test]
fn graph_invariants() {
    Check::new("graph_invariants").cases(32).run(|rng| {
        let seed = rng.uniform_usize(100) as u64;
        let mut g_rng = RngStream::new(seed, "prop-graph");
        let g = erdos_renyi(80, 160, &mut g_rng);
        let u = g.undirected();
        for v in u.vertices() {
            for &t in u.neighbors(v) {
                prop_assert!(u.neighbors(t).binary_search(&v).is_ok());
            }
        }
        let labels = wcc(&g, &BspEngine::serial());
        for v in g.vertices() {
            prop_assert!(labels[v as usize] <= v);
        }
        let depth = bfs(&g, 0, &BspEngine::serial());
        for v in g.vertices() {
            if depth[v as usize] >= 0 {
                for &t in g.neighbors(v) {
                    prop_assert!(depth[t as usize] >= 0);
                    prop_assert!(depth[t as usize] <= depth[v as usize] + 1);
                }
            }
        }
        Ok(())
    });
}

/// Outage analysis: availability is in [0, 1] and decreases with more
/// outages.
#[test]
fn availability_bounded() {
    Check::new("availability_bounded").cases(48).run(|rng| {
        let seed = rng.uniform_usize(100) as u64;
        let machines = 1 + rng.uniform_usize(49);
        let horizon = SimTime::from_secs(30 * 86_400);
        let model = IndependentFailures::with_mtbf(200.0 * 3600.0);
        let mut f_rng = RngStream::new(seed, "prop-fail");
        let outages = model.generate(machines, horizon, &mut f_rng);
        let report = analyze(&outages, machines, horizon);
        prop_assert!((0.0..=1.0).contains(&report.availability));
        prop_assert!(report.peak_concurrent_failures <= machines);
        prop_assert!(report.mean_concurrent_failures <= machines as f64);
        Ok(())
    });
}

/// M/M/c predictions are internally consistent (Little's Law) and monotone
/// in the number of servers.
#[test]
fn mmc_consistency() {
    Check::new("mmc_consistency").cases(256).run(|rng| {
        let lambda = rng.uniform_f64(0.1, 20.0);
        let mu = rng.uniform_f64(0.5, 5.0);
        let c_min = (lambda / mu).ceil() as u32 + 1;
        if let Some(p) = mmc(lambda, mu, c_min) {
            prop_assert!(
                (littles_law(lambda, p.mean_response_secs) - p.mean_in_system).abs() < 1e-9
            );
            prop_assert!((0.0..1.0).contains(&p.utilization));
            prop_assert!((0.0..=1.0).contains(&p.wait_probability));
            if let Some(p2) = mmc(lambda, mu, c_min + 4) {
                prop_assert!(p2.mean_wait_secs <= p.mean_wait_secs + 1e-12);
            }
        }
        Ok(())
    });
}

/// The engine delivers same-timestamp messages in a deterministic order:
/// a mesh of actors flooding each other with zero-delay messages produces
/// an identical delivery log and a byte-identical trace across two runs
/// with the same seed, for arbitrary mesh sizes and flood depths.
#[test]
fn same_timestamp_mesh_delivery_is_deterministic() {
    use mcs::simcore::engine::{Actor, ActorId, Context, Simulation};
    use std::cell::RefCell;
    use std::rc::Rc;

    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Flood {
        ttl: u32,
    }

    struct MeshActor {
        index: usize,
        peers: usize,
        log: Rc<RefCell<Vec<(usize, u32)>>>,
    }

    impl Actor<Flood> for MeshActor {
        fn handle(&mut self, ctx: &mut Context<'_, Flood>, msg: Flood) {
            self.log.borrow_mut().push((self.index, msg.ttl));
            ctx.emit_fields(
                "mesh",
                "recv",
                &[
                    ("actor", Field::U64(self.index as u64)),
                    ("ttl", Field::U64(u64::from(msg.ttl))),
                ],
            );
            if msg.ttl > 0 {
                for offset in [1usize, 2] {
                    let peer = ActorId::from_index((self.index + offset) % self.peers);
                    ctx.send(peer, SimDuration::ZERO, Flood { ttl: msg.ttl - 1 });
                }
            }
        }
    }

    fn run_mesh(seed: u64, peers: usize, ttl: u32) -> (Vec<(usize, u32)>, String) {
        let log: Rc<RefCell<Vec<(usize, u32)>>> = Rc::new(RefCell::new(Vec::new()));
        let mut sim: Simulation<'_, Flood> = Simulation::new(seed);
        for index in 0..peers {
            let id = sim.add_actor(MeshActor { index, peers, log: Rc::clone(&log) });
            assert_eq!(id, ActorId::from_index(index));
        }
        // Every root message lands at the same instant: delivery order is
        // pure tie-breaking inside the engine.
        for index in 0..peers {
            sim.schedule(SimTime::ZERO, ActorId::from_index(index), Flood { ttl });
        }
        sim.run();
        let trace = sim.take_trace().to_json_string();
        let events = log.borrow().clone();
        (events, trace)
    }

    Check::new("same_timestamp_mesh_delivery_is_deterministic").cases(32).run(|rng| {
        let seed = rng.uniform_usize(1_000) as u64;
        let peers = 2 + rng.uniform_usize(5);
        let ttl = 1 + rng.uniform_usize(3) as u32;
        let (log_a, trace_a) = run_mesh(seed, peers, ttl);
        let (log_b, trace_b) = run_mesh(seed, peers, ttl);
        // No message lost: each of the `peers` roots floods a binary tree
        // of depth `ttl`.
        let expected = peers * (2usize.pow(ttl + 1) - 1);
        prop_assert_eq!(log_a.len(), expected);
        prop_assert_eq!(&log_a, &log_b);
        prop_assert!(!trace_a.is_empty());
        prop_assert_eq!(trace_a, trace_b);
        Ok(())
    });
}

/// The composed ecosystem scenario is deterministic end to end: identical
/// configurations yield byte-identical traces and identical outcomes, and
/// every subsystem appears on the shared trace bus.
#[test]
fn composed_scenario_trace_is_deterministic() {
    use mcs::core::scenario::{
        BatchConfig, FaasConfig, FailureConfig, Scenario, ScenarioConfig,
    };

    Check::new("composed_scenario_trace_is_deterministic").cases(4).run(|rng| {
        let config = ScenarioConfig {
            seed: rng.uniform_usize(1_000) as u64,
            horizon: SimTime::from_secs(1_800),
            machines: 8,
            ..ScenarioConfig::default()
        }
        .with_batch(BatchConfig { jobs: 12, ..BatchConfig::default() })
        .with_faas(FaasConfig { arrival_rate: 0.3, ..FaasConfig::default() })
        .with_failures(FailureConfig { mtbf_secs: 3_600.0, ..FailureConfig::default() });
        let a = Scenario::new(config.clone()).run();
        let b = Scenario::new(config).run();
        prop_assert_eq!(a.trace.to_json_string(), b.trace.to_json_string());
        prop_assert_eq!(a.events_handled, b.events_handled);
        prop_assert_eq!(a.schedule, b.schedule);
        prop_assert_eq!(a.faas, b.faas);
        prop_assert!(a.trace.components().iter().any(|c| c == "workload"));
        Ok(())
    });
}

/// Interning is invisible in the serialized artifact: a trace bus written
/// through `record_fields` encodes byte-identically to the reference
/// un-interned encoding (a plain JSON object per event with owned-string
/// identity and a `payload` body), at arbitrary seeds, vocabularies, and
/// payload shapes drawn from every `Field` variant.
#[test]
fn interned_trace_serializes_byte_identically() {
    use mcs::simcore::trace::{payload, TraceBus};

    const COMPONENTS: [&str; 5] = ["rms", "faas", "autoscale", "failure", "workload"];
    const EVENTS: [&str; 5] = ["task_finish", "invoke", "outage", "scale", "retry_scheduled"];
    const KEYS: [&str; 4] = ["latency_secs", "capacity", "kind", "ok"];

    let words: Vec<String> = (0..50).map(|i| format!("v{i}")).collect();
    Check::new("interned_trace_serializes_byte_identically").cases(32).run(|rng| {
        let n = rng.uniform_usize(120);
        let mut bus = TraceBus::new();
        let mut reference = Vec::with_capacity(n);
        for i in 0..n {
            let at = SimTime::from_nanos(i as u64 * 1_000 + rng.uniform_usize(999) as u64);
            let component = COMPONENTS[rng.uniform_usize(COMPONENTS.len())];
            let event = EVENTS[rng.uniform_usize(EVENTS.len())];
            let (fields, values): (Vec<_>, Vec<_>) = KEYS
                .iter()
                .take(rng.uniform_usize(KEYS.len() + 1))
                .map(|&k| {
                    let (field, value) = match rng.uniform_usize(5) {
                        0 => {
                            let x = rng.uniform_f64(-10.0, 10.0);
                            (Field::F64(x), Json::Float(x))
                        }
                        1 => {
                            let x = rng.uniform_usize(1_000_000) as u64;
                            (Field::U64(x), Json::UInt(x))
                        }
                        2 => {
                            // Negative: the parser reads a non-negative
                            // integer back as `Json::UInt`.
                            let x = -1 - rng.uniform_usize(1_000_000) as i64;
                            (Field::I64(x), Json::Int(x))
                        }
                        3 => {
                            let w = &words[rng.uniform_usize(words.len())];
                            (Field::Str(w), Json::Str(w.clone()))
                        }
                        _ => {
                            let b = rng.uniform_usize(2) == 0;
                            (Field::Bool(b), Json::Bool(b))
                        }
                    };
                    ((k, field), (k, value))
                })
                .unzip();
            bus.record_fields(at, component, event, &fields);
            let body = payload(values);
            prop_assert_eq!(&bus.events()[i].payload, &body);
            reference.push(Json::Obj(vec![
                ("at".into(), at.to_json()),
                ("component".into(), Json::Str(component.to_owned())),
                ("event".into(), Json::Str(event.to_owned())),
                ("payload".into(), body),
            ]));
        }
        let expected = Json::Arr(reference).encode();
        prop_assert_eq!(bus.to_json_string(), expected.clone());
        // And the round trip through the parser is lossless.
        let back = TraceBus::from_json_str(&expected).map_err(|e| e.to_string())?;
        prop_assert_eq!(back.to_json_string(), expected);
        prop_assert_eq!(back, bus);
        Ok(())
    });
}

/// The lazily built `(component, event)` query index agrees with a naive
/// full scan — including when records keep arriving after the index exists.
#[test]
fn indexed_trace_queries_match_naive_scans() {
    use mcs::simcore::trace::{TraceBus, TraceEvent};

    const COMPONENTS: [&str; 4] = ["rms", "faas", "autoscale", "failure"];
    const EVENTS: [&str; 3] = ["task_finish", "invoke", "outage"];

    fn naive_select<'b>(bus: &'b TraceBus, component: &str, event: &str) -> Vec<&'b TraceEvent> {
        bus.events()
            .iter()
            .filter(|e| {
                bus.interner().resolve(e.component) == component
                    && bus.interner().resolve(e.event) == event
            })
            .collect()
    }

    Check::new("indexed_trace_queries_match_naive_scans").cases(32).run(|rng| {
        let mut bus = TraceBus::new();
        let record = |bus: &mut TraceBus, rng: &mut RngStream, i: usize| {
            bus.record_fields(
                SimTime::from_nanos(i as u64),
                COMPONENTS[rng.uniform_usize(COMPONENTS.len())],
                EVENTS[rng.uniform_usize(EVENTS.len())],
                &[("x", Field::F64(rng.uniform_f64(0.0, 1.0)))],
            );
        };
        let first = rng.uniform_usize(200);
        for i in 0..first {
            record(&mut bus, rng, i);
        }
        // Query battery; the first call builds the index.
        for component in COMPONENTS {
            for event in EVENTS {
                prop_assert_eq!(bus.count(component, event), naive_select(&bus, component, event).len());
                prop_assert_eq!(bus.select(component, event), naive_select(&bus, component, event));
                let series = bus.series(component, event, "x");
                let naive: Vec<(SimTime, f64)> = naive_select(&bus, component, event)
                    .iter()
                    .filter_map(|e| e.field_f64("x").map(|v| (e.at, v)))
                    .collect();
                prop_assert_eq!(series, naive);
            }
        }
        // Keep recording into the (now live) index, then re-check.
        let extra = 1 + rng.uniform_usize(100);
        for i in first..first + extra {
            record(&mut bus, rng, i);
        }
        for component in COMPONENTS {
            for event in EVENTS {
                prop_assert_eq!(bus.count(component, event), naive_select(&bus, component, event).len());
                prop_assert_eq!(bus.select(component, event), naive_select(&bus, component, event));
            }
        }
        let mut total = 0usize;
        for component in COMPONENTS {
            for event in EVENTS {
                total += bus.count(component, event);
            }
        }
        prop_assert_eq!(total, bus.len());
        Ok(())
    });
}

/// Parallel seed fan-out is worker-count independent: each seed runs its own
/// deterministic simulation, and the merged results (including serialized
/// traces) are identical at 1, 2, and 4 workers.
#[test]
fn seed_fanout_is_worker_count_independent() {
    use mcs::simcore::par;
    use std::cell::Cell;

    struct Pinger {
        left: Cell<u32>,
    }
    enum Ping {
        Ping,
    }
    impl Actor<Ping> for Pinger {
        fn handle(&mut self, ctx: &mut Context<'_, Ping>, _msg: Ping) {
            let jitter = ctx.rng().uniform_f64(0.0, 1.0);
            ctx.emit_fields("pinger", "ping", &[("jitter", Field::F64(jitter))]);
            let left = self.left.get();
            if left > 0 {
                self.left.set(left - 1);
                ctx.send_self(SimDuration::from_millis(10), Ping::Ping);
            }
        }
    }

    fn replicate(seed: u64, hops: u32) -> (u64, String) {
        let mut sim: Simulation<'_, Ping> = Simulation::new(seed);
        let id = sim.add_actor(Pinger { left: Cell::new(hops) });
        sim.schedule(SimTime::ZERO, id, Ping::Ping);
        let handled = sim.run();
        (handled, sim.take_trace().to_json_string())
    }

    Check::new("seed_fanout_is_worker_count_independent").cases(12).run(|rng| {
        let base = rng.uniform_usize(10_000) as u64;
        let n = 1 + rng.uniform_usize(10);
        let hops = 1 + rng.uniform_usize(20) as u32;
        let seeds: Vec<u64> = (0..n as u64).map(|i| base + i).collect();
        let reference: Vec<(u64, String)> =
            seeds.iter().map(|&s| replicate(s, hops)).collect();
        for workers in [1, 2, 4] {
            let got = par::run_indexed_with(workers, seeds.len(), |i| replicate(seeds[i], hops));
            prop_assert!(got == reference, "mismatch at workers={workers}");
        }
        Ok(())
    });
}

/// Each migrated subsystem actor behaves identically standalone and
/// composed: running the thin single-actor wrapper and running a bare
/// `Scenario` hosting only that subsystem produce byte-identical traces
/// (the composed run's trace *is* the component slice when nothing else is
/// attached).
#[test]
fn standalone_wrappers_match_bare_composed_runs() {
    use mcs::bigdata::actor::run_bigdata_standalone;
    use mcs::core::scenario::{Scenario, ScenarioConfig};
    use mcs::gaming::actor::run_gaming_standalone;
    use mcs::graph::actor::run_graph_standalone;

    Check::new("standalone_wrappers_match_bare_composed_runs").cases(4).run(|rng| {
        let seed = rng.uniform_usize(1_000) as u64;
        let machines = 4 + rng.uniform_usize(12);
        let horizon = SimTime::from_secs(2 * 3600);

        let bigdata = mcs::core::scenario::BigdataConfig {
            jobs: 1 + rng.uniform_usize(3),
            ..Default::default()
        };
        let solo = run_bigdata_standalone(&bigdata, machines as u32, seed, horizon);
        let composed = Scenario::new(
            ScenarioConfig::bare(seed, horizon, machines).with_bigdata(bigdata),
        )
        .run();
        prop_assert_eq!(solo.to_json_string(), composed.trace.to_json_string());

        let graph = mcs::core::scenario::GraphConfig {
            queries: 1 + rng.uniform_usize(3),
            vertices: 100 + rng.uniform_usize(200) as u32,
            edges: 800,
            ..Default::default()
        };
        let solo = run_graph_standalone(&graph, machines as u32, seed, horizon);
        let composed = Scenario::new(
            ScenarioConfig::bare(seed, horizon, machines).with_graph(graph),
        )
        .run();
        prop_assert_eq!(solo.to_json_string(), composed.trace.to_json_string());

        let gaming = mcs::core::scenario::GamingConfig::default();
        let solo = run_gaming_standalone(&gaming, seed, horizon);
        let composed = Scenario::new(
            ScenarioConfig::bare(seed, horizon, machines).with_gaming(gaming),
        )
        .run();
        prop_assert_eq!(solo.to_json_string(), composed.trace.to_json_string());
        Ok(())
    });
}

/// The full-stack composed scenario (all eight actors) is deterministic and
/// its parallel fan-out is worker-count independent: sweeping seeds at any
/// `MCS_PAR_WORKERS` width returns identical traces in identical order.
#[test]
fn full_stack_fanout_is_worker_count_independent() {
    use mcs::core::scenario::{
        BatchConfig, BigdataConfig, FaasConfig, FailureConfig, GamingConfig, GraphConfig,
        Scenario, ScenarioConfig,
    };
    use mcs::simcore::par;

    fn replicate(seed: u64) -> (u64, String) {
        let config = ScenarioConfig {
            seed,
            horizon: SimTime::from_secs(1_800),
            machines: 8,
            ..ScenarioConfig::default()
        }
        .with_batch(BatchConfig { jobs: 8, ..BatchConfig::default() })
        .with_faas(FaasConfig { arrival_rate: 0.2, ..FaasConfig::default() })
        .with_failures(FailureConfig { mtbf_secs: 3_600.0, ..FailureConfig::default() })
        .with_bigdata(BigdataConfig { jobs: 1, ..BigdataConfig::default() })
        .with_graph(GraphConfig {
            queries: 1,
            vertices: 120,
            edges: 500,
            ..GraphConfig::default()
        })
        .with_gaming(GamingConfig::default());
        let out = Scenario::new(config).run();
        (out.events_handled, out.trace.to_json_string())
    }

    let seeds: Vec<u64> = (40..44).collect();
    let reference: Vec<(u64, String)> = seeds.iter().map(|&s| replicate(s)).collect();
    for workers in [1, 2, 4] {
        let got = par::run_indexed_with(workers, seeds.len(), |i| replicate(seeds[i]));
        assert!(got == reference, "full-stack sweep diverged at workers={workers}");
    }
}

/// Max-min fair sharing never oversubscribes a link: for arbitrary flow
/// sets over arbitrary capacities, the per-link sum of allocated rates
/// stays within capacity, and no flow over live links starves.
#[test]
fn max_min_allocation_never_oversubscribes_links() {
    use mcs::net::flow::max_min_rates;

    Check::new("max_min_allocation_never_oversubscribes_links").cases(128).run(|rng| {
        let links = 1 + rng.uniform_usize(12);
        let capacity: Vec<f64> = (0..links).map(|_| rng.uniform_f64(0.5, 1_000.0)).collect();
        let n_flows = 1 + rng.uniform_usize(24);
        let flows: Vec<Vec<u32>> = (0..n_flows)
            .map(|_| {
                // A path is a set of distinct links: include each link with
                // probability ~1/3, guaranteeing at least one.
                let mut path: Vec<u32> = (0..links as u32)
                    .filter(|_| rng.uniform_usize(3) == 0)
                    .collect();
                if path.is_empty() {
                    path.push(rng.uniform_usize(links) as u32);
                }
                path
            })
            .collect();
        let rates = max_min_rates(&flows, &capacity);
        prop_assert_eq!(rates.len(), flows.len());
        for (link, &cap) in capacity.iter().enumerate() {
            let load: f64 = flows
                .iter()
                .zip(&rates)
                .filter(|(path, _)| path.contains(&(link as u32)))
                .map(|(_, &rate)| rate)
                .sum();
            prop_assert!(
                load <= cap * (1.0 + 1e-9) + 1e-9,
                "link {link} oversubscribed: load {load} > capacity {cap}"
            );
        }
        // All capacities are positive here, so every flow makes progress.
        for (i, &rate) in rates.iter().enumerate() {
            prop_assert!(rate > 0.0, "flow {i} starved on a healthy fabric");
        }
        Ok(())
    });
}

/// A network-attached composed scenario — where every tenant's transfers
/// ride the shared fabric — is deterministic and worker-count independent:
/// sweeping seeds at any `MCS_PAR_WORKERS` width returns identical traces
/// in identical order.
#[test]
fn networked_scenario_fanout_is_worker_count_independent() {
    use mcs::core::scenario::{
        BatchConfig, BigdataConfig, FaasConfig, FailureConfig, GamingConfig, NetworkConfig,
        Scenario, ScenarioConfig,
    };
    use mcs::simcore::par;

    fn replicate(seed: u64) -> (u64, u64, String) {
        let config = ScenarioConfig {
            seed,
            horizon: SimTime::from_secs(1_800),
            machines: 8,
            ..ScenarioConfig::default()
        }
        .with_batch(BatchConfig { jobs: 8, ..BatchConfig::default() })
        .with_faas(FaasConfig { arrival_rate: 0.2, ..FaasConfig::default() })
        .with_failures(FailureConfig { mtbf_secs: 3_600.0, ..FailureConfig::default() })
        .with_bigdata(BigdataConfig { jobs: 1, ..BigdataConfig::default() })
        .with_gaming(GamingConfig::default())
        .with_network(NetworkConfig::default());
        let out = Scenario::new(config).run();
        (out.events_handled, out.net_flows_delivered, out.trace.to_json_string())
    }

    let seeds: Vec<u64> = (42..45).collect();
    let reference: Vec<(u64, u64, String)> = seeds.iter().map(|&s| replicate(s)).collect();
    assert!(
        reference.iter().all(|(_, flows, _)| *flows > 0),
        "networked sweep moved no flows"
    );
    for workers in [1, 2, 4] {
        let got = par::run_indexed_with(workers, seeds.len(), |i| replicate(seeds[i]));
        assert!(got == reference, "networked sweep diverged at workers={workers}");
    }
}

/// The streaming quantile sketch stays inside its documented rank-error
/// bound (~`2n / centroid-budget` ranks, doubled for merge slack) on
/// adversarial input shapes: sorted, reverse-sorted, constant, bimodal,
/// and heavy-tailed streams are exactly the distributions that break
/// naive compaction heuristics.
#[test]
fn quantile_sketch_honours_rank_error_on_adversarial_streams() {
    Check::new("quantile_sketch_honours_rank_error_on_adversarial_streams").cases(24).run(
        |rng| {
            let n = 2_000 + rng.uniform_usize(6_000);
            let shape = rng.uniform_usize(5);
            let mut xs: Vec<f64> = (0..n)
                .map(|i| match shape {
                    0 => i as f64,                       // sorted ascending
                    1 => (n - i) as f64,                 // sorted descending
                    2 => 42.0,                           // constant
                    3 => {
                        // bimodal: two far-apart clusters
                        if rng.bernoulli(0.5) {
                            rng.uniform_f64(0.0, 1.0)
                        } else {
                            rng.uniform_f64(1.0e6, 1.0e6 + 1.0)
                        }
                    }
                    _ => {
                        // heavy tail: x = u^-2 explodes as u -> 0
                        let u = rng.uniform_f64(1.0e-4, 1.0);
                        u.powi(-2)
                    }
                })
                .collect();

            let budget = 64 + rng.uniform_usize(3) * 64; // 64, 128, 192
            let mut sketch = QuantileSketch::new(budget);
            for &x in &xs {
                sketch.record(x);
            }
            xs.sort_by(|a, b| a.total_cmp(b));

            let max_rank_err = (4 * n).div_ceil(budget); // 2 * (2n / budget)
            for q in [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
                let got = sketch.quantile(q).expect("non-empty sketch");
                let target = (q * (n - 1) as f64).round() as usize;
                let lo = xs[target.saturating_sub(max_rank_err)];
                let hi = xs[(target + max_rank_err).min(n - 1)];
                prop_assert!(
                    got >= lo && got <= hi,
                    "shape {shape} n {n} budget {budget} q {q}: {got} outside [{lo}, {hi}]"
                );
            }
            prop_assert_eq!(sketch.count(), n as u64);
            prop_assert!(sketch.retained_points() <= 2 * budget + 2);
            Ok(())
        },
    );
}

/// Merging sketches is associative within the error bound, and exact for
/// count/min/max: `(a + b) + c` and `a + (b + c)` summarize the same
/// stream, so both must agree with a single-pass sketch to within the
/// documented rank error.
#[test]
fn quantile_sketch_merge_is_associative_within_bounds() {
    Check::new("quantile_sketch_merge_is_associative_within_bounds").cases(24).run(|rng| {
        let budget = 128;
        let n = 3_000 + rng.uniform_usize(3_000);
        let mut xs: Vec<f64> = (0..n).map(|_| rng.uniform_f64(-1.0e3, 1.0e3)).collect();
        let cut1 = n / 3 + rng.uniform_usize(n / 3);
        let cut2 = cut1 + (n - cut1) / 2;

        let sketch_of = |slice: &[f64]| {
            let mut s = QuantileSketch::new(budget);
            for &x in slice {
                s.record(x);
            }
            s
        };
        let (a, b, c) = (sketch_of(&xs[..cut1]), sketch_of(&xs[cut1..cut2]), sketch_of(&xs[cut2..]));
        let single = sketch_of(&xs);

        // (a + b) + c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a + (b + c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);

        for s in [&left, &right] {
            prop_assert_eq!(s.count(), single.count());
            prop_assert_eq!(s.min(), single.min());
            prop_assert_eq!(s.max(), single.max());
        }

        xs.sort_by(|x, y| x.total_cmp(y));
        // Each merge can add one compaction's worth of slack on top of the
        // single-pass bound.
        let max_rank_err = 2 * (4 * n).div_ceil(budget);
        for q in [0.05, 0.25, 0.5, 0.75, 0.95] {
            let target = (q * (n - 1) as f64).round() as usize;
            let lo = xs[target.saturating_sub(max_rank_err)];
            let hi = xs[(target + max_rank_err).min(n - 1)];
            for (label, s) in [("left", &left), ("right", &right)] {
                let got = s.quantile(q).expect("non-empty merge");
                prop_assert!(
                    got >= lo && got <= hi,
                    "{label} q {q}: {got} outside [{lo}, {hi}] (n {n})"
                );
            }
        }
        Ok(())
    });
}

/// The streaming sink is an exact aggregator for everything but quantiles:
/// for arbitrary seeds, a streaming run of the composed scenario reports
/// the same per-(component, event) counts, per-field statistics (bitwise),
/// and time spans as a full-retention run — and the equality survives
/// parallel fan-out at any worker count.
#[test]
fn streaming_rollups_match_full_retention_across_seeds_and_workers() {
    use mcs::core::scenario::{
        FaasConfig, GamingConfig, ObservabilityConfig, Scenario, ScenarioConfig,
    };
    use mcs::simcore::par;

    fn config(seed: u64, streaming: bool) -> ScenarioConfig {
        let mut cfg = ScenarioConfig {
            seed,
            horizon: SimTime::from_secs(1_800),
            machines: 8,
            ..ScenarioConfig::default()
        }
        .with_faas(FaasConfig { arrival_rate: 0.5, ..FaasConfig::default() })
        .with_gaming(GamingConfig::default());
        if streaming {
            cfg = cfg.with_observability(ObservabilityConfig {
                window: Some(SimDuration::from_secs(300)),
                ..ObservabilityConfig::default()
            });
        }
        cfg
    }

    fn aggregates(seed: u64, streaming: bool) -> Vec<String> {
        let out = Scenario::new(config(seed, streaming)).run();
        let mut rows: Vec<String> = Vec::new();
        for (component, event, count) in out.trace.counts() {
            let mut row = format!("{component}/{event}: {count}");
            if let Some((first, last)) = out.trace.time_span(&component, &event) {
                row.push_str(&format!(" [{} .. {}]", first.as_nanos(), last.as_nanos()));
            }
            rows.push(row);
        }
        for (component, event, field) in [
            ("faas", "invoke", "latency_secs"),
            ("workload", "arrival", "index"),
            ("gaming", "join", "online"),
        ] {
            if let Some(s) = out.trace.field_stats(component, event, field) {
                // {:?} on the floats keeps full precision: the claim is
                // bitwise equality, not approximate agreement.
                rows.push(format!(
                    "{component}/{event}.{field}: n={} mean={:?} sd={:?}",
                    s.count(),
                    s.mean(),
                    s.std_dev()
                ));
            }
        }
        rows
    }

    Check::new("streaming_rollups_match_full_retention_across_seeds_and_workers")
        .cases(4)
        .run(|rng| {
            let base = rng.uniform_usize(10_000) as u64;
            let seeds: Vec<u64> = (0..3).map(|i| base + i).collect();
            let full: Vec<Vec<String>> =
                seeds.iter().map(|&s| aggregates(s, false)).collect();
            prop_assert!(
                full.iter().all(|rows| !rows.is_empty()),
                "full-retention runs must record events"
            );
            for workers in [1, 4] {
                let streamed =
                    par::run_indexed_with(workers, seeds.len(), |i| aggregates(seeds[i], true));
                prop_assert!(
                    streamed == full,
                    "streaming aggregates diverged from full retention at workers={workers}"
                );
            }
            Ok(())
        });
}
