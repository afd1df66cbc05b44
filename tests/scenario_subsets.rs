//! Tenant-subset pins for the composed scenario.
//!
//! Every subset of the eight attachable subsystems {batch, faas, failure,
//! bigdata, graph, gaming, dag, network} runs on a 16-machine fleet for
//! 1800 s in two fault modes, and each run is pinned to one FNV-1a digest
//! over its trace JSON and every `ScenarioOutcome` field. A wiring change
//! in `Scenario::run` (actor ids, start order, hook routing, fault fan-out)
//! that moves any run shows up as a mismatched subset mask. A coverage
//! check keeps the sweep honest: every flow owner must both deliver and
//! abort at least once somewhere in it.

use mcs::prelude::*;
use mcs::simcore::par::run_indexed_with;
use std::collections::BTreeSet;
use std::fmt::Debug;

const SUBSYSTEMS: [&str; 8] =
    ["batch", "faas", "failure", "bigdata", "graph", "gaming", "dag", "network"];

/// FNV-1a, 64 bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn debug(&mut self, v: &impl Debug) {
        self.bytes(format!("{v:?}").as_bytes());
    }
}

/// Digest of one run: the trace JSON plus every outcome field. The
/// destructuring is exhaustive, so a new outcome field fails to compile
/// here until it is pinned too.
fn digest(out: &ScenarioOutcome) -> u64 {
    let ScenarioOutcome {
        schedule,
        faas,
        arrivals,
        invoked,
        rejected,
        invocations_failed,
        shed,
        retries_scheduled,
        final_capacity,
        outages_generated,
        outages_delivered,
        governor_decisions,
        bigdata_jobs,
        graph_queries,
        graph_stragglers,
        gaming_admitted,
        gaming_rejected,
        gaming_disconnected,
        gaming_laggy_syncs,
        dag_jobs_finished,
        dag_tasks_finished,
        dag_mean_makespan_secs,
        dag_transfer_secs,
        dag_stall_secs,
        net_flows_started,
        net_flows_delivered,
        net_flows_aborted,
        net_stall_secs,
        events_handled,
        trace,
    } = out;
    let mut h = Fnv::new();
    h.bytes(trace.to_json_string().as_bytes());
    h.debug(schedule);
    let PlatformReport {
        invocations,
        cold_fraction,
        billed_gb_secs,
        provider_gb_secs,
        peak_instances,
    } = faas;
    h.u64(*invocations);
    h.f64(*cold_fraction);
    h.f64(*billed_gb_secs);
    h.f64(*provider_gb_secs);
    h.u64(*peak_instances as u64);
    for v in [
        *arrivals,
        *final_capacity,
        *outages_generated,
        *outages_delivered,
        *governor_decisions,
        *bigdata_jobs,
        *graph_queries,
    ] {
        h.u64(v as u64);
    }
    for v in [
        *invoked,
        *rejected,
        *invocations_failed,
        *shed,
        *retries_scheduled,
        *graph_stragglers,
        *gaming_admitted,
        *gaming_rejected,
        *gaming_disconnected,
        *gaming_laggy_syncs,
        *dag_jobs_finished,
        *dag_tasks_finished,
        *net_flows_started,
        *net_flows_delivered,
        *net_flows_aborted,
        *events_handled,
    ] {
        h.u64(v);
    }
    for v in [*dag_mean_makespan_secs, *dag_transfer_secs, *dag_stall_secs, *net_stall_secs] {
        h.f64(v);
    }
    h.0
}

/// Flow owners seen in `net/<event>` records.
fn owners(trace: &TraceBus, event: &str) -> BTreeSet<String> {
    trace
        .select("net", event)
        .iter()
        .filter_map(|e| e.field_str("owner").map(str::to_owned))
        .collect()
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// The default crash-only fault mix, no resilience.
    CrashOnly,
    /// A mixed fault mix under every resilience mechanism, with a short
    /// flow timeout; service-fault windows alternate between a fixed
    /// length and the outage's own repair instant across subsets.
    Mixed,
}

/// The run of subset `mask` (bit `i` attaches `SUBSYSTEMS[i]`).
fn config(mask: usize, mode: Mode) -> ScenarioConfig {
    let on = |i: usize| mask & (1 << i) != 0;
    let mut cfg = ScenarioConfig::bare(1000 + mask as u64, SimTime::from_secs(1800), 16);
    if on(0) {
        cfg =
            cfg.with_batch(BatchConfig { jobs: 20, policy_interval: SimDuration::from_secs(600) });
    }
    if on(1) {
        cfg = cfg.with_faas(FaasConfig::default());
    }
    if on(2) {
        let failure =
            FailureConfig { mtbf_secs: 3600.0, failure_domain: 4, ..FailureConfig::default() };
        cfg = cfg.with_failures(match mode {
            Mode::CrashOnly => failure,
            Mode::Mixed => FailureConfig {
                fault_mix: FaultMix {
                    crash: 0.4,
                    slowdown: 0.2,
                    gray: 0.2,
                    partition: 0.2,
                    ..FaultMix::crash_only()
                },
                service_fault_secs: mask.count_ones().is_multiple_of(2).then_some(45.0),
                ..failure
            },
        });
    }
    if on(3) {
        cfg = cfg.with_bigdata(BigdataConfig {
            jobs: 3,
            submit_interval_secs: 300.0,
            ..BigdataConfig::default()
        });
    }
    if on(4) {
        cfg = cfg.with_graph(GraphConfig {
            queries: 2,
            submit_interval_secs: 600.0,
            vertices: 300,
            edges: 1_200,
        });
    }
    if on(5) {
        cfg = cfg.with_gaming(GamingConfig::default());
    }
    if on(6) {
        cfg = cfg.with_dag(DagConfig { jobs: 6, ..DagConfig::default() });
    }
    if on(7) {
        cfg = cfg.with_network(match mode {
            Mode::CrashOnly => NetworkConfig::default(),
            Mode::Mixed => NetworkConfig {
                flow_timeout: Some(SimDuration::from_secs(5)),
                ..NetworkConfig::default()
            },
        });
    }
    if mode == Mode::Mixed {
        cfg = cfg.with_resilience(ResilienceConfig::all_on());
    }
    cfg
}

/// Machines 8..12 are cut from the start while the rack-0 machines crash
/// under restart resilience, and map placement ignores locality so map
/// inputs are read over the fabric: map reads and checkpoint restores
/// strand on the cut and abort, which the random sweeps rarely arrange.
fn scripted_partition() -> ScenarioConfig {
    let fault = |machine: usize, fail_at: u64, kind: FaultKind| Fault {
        outage: Outage {
            machine,
            fail_at: SimTime::from_secs(fail_at),
            repair_at: SimTime::from_secs(1200),
        },
        kind,
    };
    let schedule = (0..8)
        .map(|machine| fault(machine, 590, FaultKind::Crash))
        .chain((8..12).map(|machine| fault(machine, 5, FaultKind::Partition)))
        .collect();
    ScenarioConfig::bare(11, SimTime::from_secs(1800), 16)
        .with_batch(BatchConfig { jobs: 20, policy_interval: SimDuration::from_secs(600) })
        .with_bigdata(BigdataConfig {
            map: MapPhaseConfig { locality_aware: false, ..MapPhaseConfig::default() },
            ..BigdataConfig::default()
        })
        .with_failures(FailureConfig::scripted(schedule))
        .with_network(NetworkConfig {
            flow_timeout: Some(SimDuration::from_secs(30)),
            ..NetworkConfig::default()
        })
        .with_resilience(ResilienceConfig::all_on())
}

struct Run {
    digest: u64,
    ended: BTreeSet<String>,
    aborted: BTreeSet<String>,
}

fn run(cfg: ScenarioConfig) -> Run {
    let out = Scenario::new(cfg).run();
    Run {
        digest: digest(&out),
        ended: owners(&out.trace, "flow_end"),
        aborted: owners(&out.trace, "flow_aborted"),
    }
}

/// Renders `digests` as a Rust array, so a deliberate behaviour change can
/// re-pin by pasting the failure message.
fn render(name: &str, digests: &[u64]) -> String {
    let mut s = format!("const {name}: [u64; {}] = [\n", digests.len());
    for row in digests.chunks(4) {
        let cells: Vec<String> = row.iter().map(|d| format!("{d:#018x}")).collect();
        s.push_str(&format!("    {},\n", cells.join(", ")));
    }
    s.push_str("];\n");
    s
}

fn check(name: &str, pinned: &[u64], runs: &[Run]) -> Vec<String> {
    let digests: Vec<u64> = runs.iter().map(|r| r.digest).collect();
    let moved: Vec<String> = (0..digests.len())
        .filter(|&mask| pinned.get(mask) != Some(&digests[mask]))
        .map(|mask| {
            let on: Vec<&str> =
                (0..8).filter(|i| mask & (1 << i) != 0).map(|i| SUBSYSTEMS[i]).collect();
            format!("{name}[{mask}] {{{}}}", on.join(", "))
        })
        .collect();
    if !moved.is_empty() {
        eprintln!("{}", render(name, &digests));
    }
    moved
}

#[test]
fn every_tenant_subset_matches_its_pin_and_every_flow_owner_ends_and_aborts() {
    let sweep = |mode| run_indexed_with(4, 256, |mask| run(config(mask, mode)));
    let crash = sweep(Mode::CrashOnly);
    let mixed = sweep(Mode::Mixed);
    let scripted = run(scripted_partition());

    let mut moved = check("CRASH_ONLY", &CRASH_ONLY, &crash);
    moved.extend(check("MIXED", &MIXED, &mixed));
    if scripted.digest != SCRIPTED_PARTITION {
        eprintln!("const SCRIPTED_PARTITION: u64 = {:#018x};", scripted.digest);
        moved.push("SCRIPTED_PARTITION".to_owned());
    }
    assert!(moved.is_empty(), "{} pinned runs moved: {moved:?}", moved.len());

    let all = crash.iter().chain(&mixed).chain([&scripted]);
    let (mut ended, mut aborted) = (BTreeSet::new(), BTreeSet::new());
    for r in all {
        ended.extend(r.ended.iter().cloned());
        aborted.extend(r.aborted.iter().cloned());
    }
    let owners = [
        FlowOwner::Faas,
        FlowOwner::FaasResp,
        FlowOwner::Rms,
        FlowOwner::BdMap,
        FlowOwner::BdShuffle,
        FlowOwner::Game,
        FlowOwner::Dag,
    ];
    for owner in owners.map(FlowOwner::name) {
        assert!(ended.contains(owner), "no {owner} flow ever ended: {ended:?}");
        assert!(aborted.contains(owner), "no {owner} flow ever aborted: {aborted:?}");
    }
}

/// `Scenario::run` reads its counts off the trace sink, so a run must give
/// the same outcome, trace aside, under the streaming sink as under full
/// retention: the all-tenant run (network and DAG included) in both fault
/// modes, the mixed-fault run without the fabric with FaaS overloaded past
/// its instance cap (rejects, sheds, failures and retries), and the
/// scripted partition (flow aborts).
#[test]
fn outcomes_are_the_same_under_both_trace_sinks() {
    let without_trace =
        |cfg: ScenarioConfig| ScenarioOutcome { trace: TraceBus::new(), ..Scenario::new(cfg).run() };
    let mut overloaded = config(0x7f, Mode::Mixed);
    let faas = overloaded.faas.as_mut().expect("faas attached");
    faas.arrival_rate = 4.0;
    faas.service.max_instances = 2;
    let configs = [
        config(0xff, Mode::CrashOnly),
        config(0xff, Mode::Mixed),
        overloaded,
        scripted_partition(),
    ];
    for (i, cfg) in configs.into_iter().enumerate() {
        let streamed =
            without_trace(cfg.clone().with_observability(ObservabilityConfig::default()));
        assert_eq!(streamed, without_trace(cfg), "config {i}");
    }
}

const SCRIPTED_PARTITION: u64 = 0xdc50863433a2610e;

const CRASH_ONLY: [u64; 256] = [
    0x8cd7454ee3340d65,
    0x35ab246a74c0ac62,
    0x051376c7b55971bc,
    0x21d3f7f2db71980d,
    0xcda98c77c30b6345,
    0xed1555569a82e6ad,
    0x88c978a688e50f20,
    0x2101bf0058d02a89,
    0x3f3f5f6d67866337,
    0x4f1ff58a496897f7,
    0x016f319889ca41df,
    0x678744dc3b4574f3,
    0x268b6fb25ef5c44f,
    0x3123f58dd7456459,
    0xd67c966f969016aa,
    0x87237a9b242e2fd3,
    0xdc0f0b2b6bcef023,
    0x0aa3b2171b736c1d,
    0x13e343e8db0156a7,
    0x70b76e74bb888db8,
    0xa206da3df1455c59,
    0xb8a6437db3a30c13,
    0x92fe25343f2e6727,
    0x034b678ec0a0b15c,
    0xf38caf661c1aa197,
    0xe2f444b26c1d1a23,
    0xc962b445bda2f342,
    0x1d712557d63eb089,
    0x125659cb904ec9ee,
    0x910091abc3f87126,
    0xa6830f0fe8597cb2,
    0x565472684828e34e,
    0xc39b052a84481c51,
    0xb4f76d67c30bf2f3,
    0x0a362054090a58d4,
    0x2169785b190a20e8,
    0x6fceb087a7b4d0c7,
    0xdb0a1e068d8d0cd2,
    0x09c5ed36ba79f7ab,
    0x1514d7db815e2d9b,
    0x3f3e2db93e14a748,
    0x2fdf1db25b05ceed,
    0xdaa1da5a3c0abc44,
    0xde7a433cd9254f5f,
    0x48bc6697bc35fb90,
    0x776e6d5130fa8bf5,
    0xe68b4ce8159fba91,
    0x40626efd50dc0ca9,
    0x114b24fb14d47ce3,
    0xfdf8089efe1bc556,
    0x989c2bc58f977038,
    0x7ae3159a2065a801,
    0x7b54cd60b034ef3d,
    0x9b620218bc4e1167,
    0x2bbc028bac2ffc9e,
    0x42df35618ffea640,
    0xf192ba8b20cb4775,
    0x5ab5269a30a7a727,
    0x7e1d098514b5cc59,
    0x31a0f204eb226c68,
    0x7198b6c7016c4d3e,
    0xa9f1ff31a95c6964,
    0x5ceb9a1212ecc65a,
    0x46ab3dfbfb762ec2,
    0x1a7262ebfbf38373,
    0xe460b976e9d7517e,
    0x785b2d039e0d05a8,
    0xa6c13b6b018ed24f,
    0x6057783f983544d7,
    0x40586b24eb17e7d0,
    0x617558167d1613be,
    0x33aa947cdd954abc,
    0x46a00d4050a7928a,
    0x5761ca193cb3ad0c,
    0xd480841a33f8d2bd,
    0xa7a9499d6f9c2842,
    0x8e23b4d9cc45cf5a,
    0xe70d50975b751a2b,
    0xb2bdf61bcc1706c1,
    0xa32f2691396424a6,
    0x132ee85632caed70,
    0x6be4ea6c28d01f7a,
    0x949fdf36dde3a4fb,
    0x8ba28dbcb92b309a,
    0x7be6322cb539576d,
    0x57189f050a9afff1,
    0x5334fcd4aa239818,
    0x1ac0e338ea26599f,
    0x08fe87e47c96fd1a,
    0x4845d7424d03e457,
    0x87df57f5c66864e1,
    0x0f690f1ddb3ca8c3,
    0xfef411fabeb882ec,
    0xc1cd0f990ad91582,
    0x3fed53abf8d07eac,
    0x83b35b10165048d0,
    0xaedd611b2d821738,
    0xc7e5a65c7049da6f,
    0x5b79bea5fe3a8725,
    0x9503f4992a337e52,
    0x3153263bccb01bcc,
    0xa06bde6e858746bd,
    0x02ad8ab4eeb048d6,
    0xf09c820e3473c9e6,
    0xe79c0d3e9a73bc63,
    0xd495f91009e28846,
    0x2df68ae63485e453,
    0x2b561db713645b1c,
    0x1ff19092cf2f1783,
    0x5219cdfc8d46b2cd,
    0xe59a06028f36f67a,
    0x5c823a2b29abeee5,
    0x2b23ff5ab5db6d35,
    0x1312a7bab6333655,
    0xface588ba13f55ab,
    0x89b9d19f18b72567,
    0x9345f1a6d4b0f7a3,
    0x8ef7aadc17120a52,
    0x787eca88d77e68f6,
    0x4a798cddec8690f1,
    0xaf41ed88839bd898,
    0xa488c7e20bad4c31,
    0xdba6a28133c4593d,
    0xddd0f3a5db077b07,
    0x3d0996f46e3fd4b8,
    0x61fefeafd59d5913,
    0x4068d94315d71ac6,
    0x39dd1a74f94a4edb,
    0x8cd7454ee3340d65,
    0x0b21d2b6236ecea7,
    0xa95c43ba308f7eae,
    0x36e6a25e57d547a9,
    0x505b529aa1c7a9f9,
    0xea3d25d1e3a0a794,
    0xfa1e4df884f89e62,
    0xaf763782ad25d0f1,
    0xce4393b39ef68daf,
    0x0ee132188a09cd8d,
    0x15fa62cf92465adc,
    0x03fab92f222e58b1,
    0x763712f7a84756c5,
    0x5e1af125166d0baa,
    0xe0382230e870aaf8,
    0x6c78a554ca60d2b7,
    0x16829800c6591a75,
    0x1d4fbf770675d02c,
    0x1c8ec31a3c6a044e,
    0xb5d47064de90264d,
    0x5a4870bde2ca4ba5,
    0xa50df545bb943191,
    0x70df7be7d35e7315,
    0x4fc79b0699122ead,
    0xa46f6aba265cced8,
    0x5a8deefccc75c598,
    0x93162d20821d57eb,
    0x48556cfc01b7fa51,
    0xb003432ec187e780,
    0x02e23d8a0c62d150,
    0x3661aeafa0a36b13,
    0x18fbbaca70213448,
    0xe079b3362ada13ba,
    0x7f4c3a08d7e343da,
    0x3c2def0ce5611933,
    0x031643e4472ee3c9,
    0xf6ab7a9282310e8a,
    0x0c2e891536544fc5,
    0x171e973a4ccef353,
    0x33743831f803ee47,
    0xc08aedb22fcb147c,
    0xa57a4dd1667f505f,
    0xa1d82336e90cd2c2,
    0xa05cecda659b31fe,
    0x69520c359b9cccdc,
    0x6da2d78d35377a03,
    0x2602b1889e3993e3,
    0xb0fa5f97fa31b72a,
    0x417c8b988c38d94a,
    0x52bd23702c740a64,
    0x1d1db68c32dac8bd,
    0x577866118a55e781,
    0x318ba639f38365d9,
    0xfe5e20d0d754b7db,
    0x86858b35479a7f9f,
    0xeeca79002c0d0ee7,
    0x90e5c5d088686681,
    0x7d2a090e02a42a55,
    0x4f57a61d7707b349,
    0x629a1b622801820a,
    0xa2640363de08564d,
    0x3129751152066aa7,
    0x6f64b40ec0a69748,
    0x679d960343d09a17,
    0x1e66dad9a995b22d,
    0x8e44ecd7faf70423,
    0x809ecd2c926860d7,
    0x71ca07828472d66f,
    0x8a605734b943e00d,
    0x7be756b3bd8e02c3,
    0xa80159b224bfcf3c,
    0xdc036ef6cf01e81a,
    0x81467c643cad8df3,
    0x8b8aaa700e0b8656,
    0x6bb199b53558c84d,
    0xd523c10393e99ed5,
    0x73dcdceb8b58ddcd,
    0x4620392bc28fa8e5,
    0x5c93c96cf9241300,
    0x77c41caadae9450c,
    0xfe086c9cc1bae5fe,
    0x83bfde2c97e3f27c,
    0x8109c4b2cbd4655e,
    0x9cedf6d13c7e15ee,
    0xe6ee847fc535f893,
    0x8525b1d107ddc760,
    0x741bd1d4aeeec473,
    0xa75676fce973906e,
    0x5af25b21348dd9ca,
    0xe85be1a11a1864a3,
    0x082a4f343758977e,
    0x17b9a11d59a9ff5a,
    0x7607b78855a5f550,
    0x188da745e60d40f9,
    0xe725ddabc23698f3,
    0xf0ffde88a5520ab0,
    0x659e1bae9bcaa37f,
    0xa93a89d10882dceb,
    0x80a464dd9cee27fd,
    0x1131b7120ac42c0d,
    0xc3803f09d30eec07,
    0xa77f067050e97e19,
    0xf821757395c350cb,
    0x5752d87286825266,
    0x224e0b870cf1f6e2,
    0x4ce4069af1c148ab,
    0x2cda0d9c9d9ac46a,
    0xc1a04fceee3f2b92,
    0x48ec99378fd74516,
    0x3f920802c6348f98,
    0x06b864e09924fcdb,
    0x72f79e4136031b32,
    0x85fcd117f95b4bcf,
    0x274786ae2ffca9e7,
    0x30efc9e941077f82,
    0x84859d0ab16fcf00,
    0xe38dd87e3e317afc,
    0x8a5c23b129213cbc,
    0x13ea4bc2e4a91344,
    0xd0e552f5fd09580c,
    0x930444b4d7de59c7,
    0x8db707771c9d0e3a,
    0x1d1a0b0c6cf9c75f,
    0x83cb42ffb60ba1e6,
    0x79222b435b0f0126,
    0xe09fe144dc417ca0,
    0x2fdd3b8f134de862,
    0xcc7a60cf04fc5811,
];

const MIXED: [u64; 256] = [
    0x8cd7454ee3340d65,
    0x35ab246a74c0ac62,
    0x051376c7b55971bc,
    0xb5bc970642d27f76,
    0xd4617e2046db177b,
    0xdcece64c592ea056,
    0xf2e1734ba4d2fbe3,
    0xecd968bbe26c8900,
    0x3f3f5f6d67866337,
    0x4f1ff58a496897f7,
    0x016f319889ca41df,
    0x678744dc3b4574f3,
    0xc30d62fa712f6df3,
    0x8f39a7a0e819f95c,
    0xb37a540eaef34c8b,
    0xcf8c6341311b9982,
    0xdc0f0b2b6bcef023,
    0x0aa3b2171b736c1d,
    0x13e343e8db0156a7,
    0x70b76e74bb888db8,
    0x9fec8eed21336fb4,
    0x0bc8b28444cb7dad,
    0xfadd4e23e9e23e34,
    0xd181a8baa8ef41da,
    0xf38caf661c1aa197,
    0xe2f444b26c1d1a23,
    0x53993af7ee86030c,
    0x558f7cd547f5b882,
    0xf636ffa822c2fca5,
    0x729f1c9453f45a8e,
    0x00db478da982f67e,
    0x05f703c00a410c85,
    0xc39b052a84481c51,
    0xb4f76d67c30bf2f3,
    0x0a362054090a58d4,
    0x2169785b190a20e8,
    0xa742e3eb6f8533af,
    0xdb0a1e068d8d0cd2,
    0x5ec50369cfc8acad,
    0x1514d7db815e2d9b,
    0x3f3e2db93e14a748,
    0x2fdf1db25b05ceed,
    0xdaa1da5a3c0abc44,
    0xde7a433cd9254f5f,
    0x258f17bf44035608,
    0x7d0ceed0b2545ed9,
    0x7cb685e975dd73df,
    0xef14205cdd23b606,
    0x114b24fb14d47ce3,
    0xfdf8089efe1bc556,
    0x989c2bc58f977038,
    0x7ae3159a2065a801,
    0x0d7595eb19d5af0a,
    0xfdc5b6c8560533bf,
    0x22508774fa5be27e,
    0x81a431405d76b0cd,
    0xf192ba8b20cb4775,
    0x5ab5269a30a7a727,
    0x7e1d098514b5cc59,
    0x31a0f204eb226c68,
    0x7716132f53ca9542,
    0xa9f1ff31a95c6964,
    0x7f8b69b71379ad88,
    0x76f31bdeadff618d,
    0x1a7262ebfbf38373,
    0xe460b976e9d7517e,
    0x785b2d039e0d05a8,
    0xa6c13b6b018ed24f,
    0x318dc1516e50a6bf,
    0x40586b24eb17e7d0,
    0x617558167d1613be,
    0x3df9a66ea4158bc3,
    0x46a00d4050a7928a,
    0x5761ca193cb3ad0c,
    0xd480841a33f8d2bd,
    0xa7a9499d6f9c2842,
    0xff14708d57c90c8f,
    0xe70d50975b751a2b,
    0x38b444f5434d993c,
    0xeb6c41325ebdab8f,
    0x132ee85632caed70,
    0x6be4ea6c28d01f7a,
    0x949fdf36dde3a4fb,
    0x8ba28dbcb92b309a,
    0x8b9f9bcc2fcf1c53,
    0xf03629c3ce8c144b,
    0x1669c992aaf5d893,
    0x9f6617a9e2eab5fb,
    0x08fe87e47c96fd1a,
    0x4845d7424d03e457,
    0x87df57f5c66864e1,
    0x0f690f1ddb3ca8c3,
    0x717357c42015fdff,
    0xb83435c357e8c8af,
    0x3fed53abf8d07eac,
    0x66fedbfba1f9818b,
    0xaedd611b2d821738,
    0xc7e5a65c7049da6f,
    0x5b79bea5fe3a8725,
    0x9503f4992a337e52,
    0xb18f6be7c9c7616e,
    0xe13d7d388fe1be97,
    0xbdca27b46f9d9906,
    0xc727b82190e6923e,
    0xe79c0d3e9a73bc63,
    0xd495f91009e28846,
    0x2df68ae63485e453,
    0x2b561db713645b1c,
    0x1ff19092cf2f1783,
    0x78dbff608bf5fe8a,
    0xaa0f5dd9ec6f7119,
    0x2d2a197672fbf0d2,
    0x2b23ff5ab5db6d35,
    0x1312a7bab6333655,
    0xface588ba13f55ab,
    0x89b9d19f18b72567,
    0x3023645e11dce859,
    0x9a4cbbcef50347cc,
    0x5460ba0e353f7b7a,
    0x225f0c6087bd6074,
    0xaf41ed88839bd898,
    0xa488c7e20bad4c31,
    0xdba6a28133c4593d,
    0xddd0f3a5db077b07,
    0xc341c583f7998650,
    0x1240d1f9dfdb5c44,
    0x7ef3da76a3dc4ec9,
    0x329b76cba73858c5,
    0x8cd7454ee3340d65,
    0x0b21d2b6236ecea7,
    0xa95c43ba308f7eae,
    0x36e6a25e57d547a9,
    0xc5f2c1b3b47f6854,
    0x8eba281ec58fbc9c,
    0x5a27959bb5f72a6a,
    0xfaf623fd3d59daaf,
    0xce4393b39ef68daf,
    0x0ee132188a09cd8d,
    0x15fa62cf92465adc,
    0x03fab92f222e58b1,
    0xb26b247f4eced160,
    0xd696871d96fd9721,
    0xe9bf43f57000193f,
    0x1d4a29804bf52f88,
    0x16829800c6591a75,
    0x1d4fbf770675d02c,
    0x1c8ec31a3c6a044e,
    0xb5d47064de90264d,
    0xea1267dc629771b0,
    0xa50df545bb943191,
    0xf0310fddc9d80191,
    0x4fc79b0699122ead,
    0xa46f6aba265cced8,
    0x5a8deefccc75c598,
    0x93162d20821d57eb,
    0x48556cfc01b7fa51,
    0x8090c62778c1bb04,
    0x02e23d8a0c62d150,
    0xd1de50bc24603bfa,
    0x27443d6fbd0779e5,
    0xe079b3362ada13ba,
    0x7f4c3a08d7e343da,
    0x3c2def0ce5611933,
    0x031643e4472ee3c9,
    0x96cf3ba9a9276cbb,
    0x0c2e891536544fc5,
    0xb443a91cbb6ec4e9,
    0x48212dcc15b22b46,
    0xc08aedb22fcb147c,
    0xa57a4dd1667f505f,
    0xa1d82336e90cd2c2,
    0x36f754a0b7ca74ab,
    0x3c6ce2fe6bada7cd,
    0x92a608987d7a8882,
    0xdbfc03652c2daf5d,
    0xfa280f195a7cef62,
    0x417c8b988c38d94a,
    0x52bd23702c740a64,
    0x1d1db68c32dac8bd,
    0x577866118a55e781,
    0x0472219bf3ef49e7,
    0xc3aee40862cee033,
    0xbae497e14dc5b067,
    0x181a25a8343989dd,
    0x90e5c5d088686681,
    0x7d2a090e02a42a55,
    0x4f57a61d7707b349,
    0x629a1b622801820a,
    0x40ae55a2f680ae98,
    0x68b7386b49af52af,
    0x5c8eabe1eebd1380,
    0x9c5bb560dc6b39e6,
    0x1e66dad9a995b22d,
    0x8e44ecd7faf70423,
    0x809ecd2c926860d7,
    0x71ca07828472d66f,
    0xf38fd1b1e49de74e,
    0xf9e2812accb21f1a,
    0x25789caad8a90ca8,
    0x571272a3fea88397,
    0x81467c643cad8df3,
    0x8b8aaa700e0b8656,
    0x6bb199b53558c84d,
    0xd523c10393e99ed5,
    0x73dcdceb8b58ddcd,
    0x6daf49b9b5ac7319,
    0xd9522370032c19bd,
    0xdc1756a9ec4040ae,
    0xfe086c9cc1bae5fe,
    0x83bfde2c97e3f27c,
    0xe788cc2a9d5a0b4c,
    0x9cedf6d13c7e15ee,
    0x4600f62d72922c54,
    0x2949ade87a601629,
    0x45443fd2e8df6b05,
    0x67d35f7450480684,
    0x5af25b21348dd9ca,
    0xe85be1a11a1864a3,
    0x082a4f343758977e,
    0x17b9a11d59a9ff5a,
    0xc9d4d299939708b2,
    0x90861c803e7f4488,
    0x44262fe31744ca30,
    0x7505e91f55299019,
    0x659e1bae9bcaa37f,
    0xa93a89d10882dceb,
    0x80a464dd9cee27fd,
    0x1131b7120ac42c0d,
    0xe3f728a5b37fd9c0,
    0xb344cf0b5f02c932,
    0x20d989fc691b8f2a,
    0x44f1ade697b119cf,
    0x224e0b870cf1f6e2,
    0x4ce4069af1c148ab,
    0x2cda0d9c9d9ac46a,
    0xc1a04fceee3f2b92,
    0x5f4a2d5a45f332ba,
    0x9552eb80396fdc91,
    0x80b6c4e93e29b544,
    0x2574a5ba586ec2e8,
    0x85fcd117f95b4bcf,
    0x274786ae2ffca9e7,
    0x30efc9e941077f82,
    0x84859d0ab16fcf00,
    0xe38dd87e3e317afc,
    0x3189daaacdb155f7,
    0xdb9601f68c6779fa,
    0x1561b44042688abb,
    0x930444b4d7de59c7,
    0x8db707771c9d0e3a,
    0x1d1a0b0c6cf9c75f,
    0x36224d5797d3a974,
    0x96cf5ba86a3d377d,
    0x41d2600ac98c4536,
    0x888e77aa2e3ca2a1,
    0xb44f00a7d2de76d7,
];
