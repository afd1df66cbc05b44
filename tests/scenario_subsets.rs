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
    h.debug(faas);
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

const SCRIPTED_PARTITION: u64 = 0x23d93d1450cead14;

const CRASH_ONLY: [u64; 256] = [
    0x7d9a9950ae5a97e7,
    0x3c556324c1a6c2a0,
    0xa43f63026da6ba79,
    0x8f4d04f5d2e5a717,
    0x3e72a707081bde3f,
    0xc6168a930898e16f,
    0xbbeb71f2e9fb77b6,
    0xa4f4b8b92b887cbc,
    0x104da40e5a6e10f5,
    0x276edc88e359f435,
    0x7b0053959ed29600,
    0x5a834176eb343e70,
    0x07a6b6a9276013cd,
    0x4e8aa35d5278b4a3,
    0x070f7dd91da932f5,
    0xa5c3dc8bde4d98a7,
    0x31df9432af0f7f81,
    0xe57ba1151e6c21d7,
    0x30132935a3018c4f,
    0x52f2d27e757328b6,
    0xdcc06d1da2d3049b,
    0x176871208ee37969,
    0x972fef807a36543c,
    0x1bba63f632252c2d,
    0x8b0601c8a4fa8bfd,
    0xa0e8c569380ade09,
    0x10264f554360e2ec,
    0xae42d9cf5b8c5475,
    0x8ed91572af7f30ec,
    0x01f9e3fb76296d24,
    0xfdff83482bd91463,
    0xd1bb0f01b055522c,
    0x353b150c4f3203cf,
    0x9032fa6b5de3508d,
    0x52fbd0b1f182c1f1,
    0x21b4f9a4ee4f4eb3,
    0x56a44b7c32d269dd,
    0x3f93fb4369f76a70,
    0xfac58c0ecab4c626,
    0xf369f092cd283a28,
    0x430594c336a3086a,
    0x0255948fda2a12d7,
    0xa35da965db866b79,
    0x17c046b55043e463,
    0x5c7eb478fe35be4e,
    0xb0de02cfb21b7857,
    0x52e8df0481e6d5d9,
    0xf68e7c3d57380b4b,
    0x7217c3421276697d,
    0x40b7047d2993c9c8,
    0xf1636c5882a1eaeb,
    0xd8cbccbff23d41db,
    0x33c18c05d776326f,
    0xa8513478bdf9a5f5,
    0x8483733ba97485e1,
    0xf4400d505d9b0dac,
    0x650b2183635d2ddb,
    0x9c19cedd1a057675,
    0x9e7aaca51399f4c2,
    0x98856125990bda30,
    0xc6589bbf456bf09c,
    0xa8b65c60dff93d46,
    0x282b9f5997e58d6f,
    0xcf3561ef26a6b755,
    0x107eac4a9fbb2eb5,
    0xb24de0d747788d90,
    0xe30dbfdbabef737f,
    0xfdb4c7088ef16e82,
    0xc1f0a3eb60ea3dfd,
    0xbb5cef563e2cd1ea,
    0x97681340b15eecd0,
    0x8131ec89e5757ec5,
    0x23b678bd7cce9e84,
    0x7a514551954dce06,
    0xa206d29fc2ce8091,
    0x45e625ed2a47a785,
    0x06fe5e25cd6adec4,
    0x2dea0d769c7a2c01,
    0x85297f85b094c731,
    0x56c2fc72f4ed236c,
    0x35212de2e8cd440e,
    0x45b8321f9fd25050,
    0x849ca03496369cea,
    0x9097e21082ff3970,
    0x3e77fcd03ee743eb,
    0xc14c018986ec693f,
    0x9ad6d55db58dd1ca,
    0xaffc3bfc42a749f6,
    0x85e98e721255b008,
    0x3672c045932dc869,
    0x4d1e7d253efb45d4,
    0x1dfd8de02fededdb,
    0x0c0931128ab67dd2,
    0x7368dd9035e8fe88,
    0x9bd029df900d1404,
    0x392f01c3d456055a,
    0xdf7a23aa5880ba9e,
    0x2f38c5e31faf03e1,
    0xce3238dce49b4d9d,
    0x6c36b41ab6699660,
    0x00f8d94b852175d6,
    0x29aa094acaeb7103,
    0x1787c51c08b0fcd5,
    0x50d5819db4c5df5d,
    0xbc57361ee1c37ed1,
    0xe402504594ec0544,
    0x8b31220c26f6c67c,
    0x17dfb63b50efc8e5,
    0xdf15e37c9c8e5945,
    0x5c57125a43bfd723,
    0x90e9972a20dbd35e,
    0xdf2bd5fcb372dd7a,
    0x2b14471742a26a2b,
    0x6ef5e47566df89b3,
    0x42fbb80cbef2c354,
    0x649bfab6746e3a6b,
    0xd125a4f48492f801,
    0x4a0591a16eadc6b0,
    0x6ed2c242b022bfb4,
    0x5fe26194f7fa242f,
    0xca9c5f27cc38289e,
    0x8b62da9c0426a78b,
    0x7694b56259f2191a,
    0xe49d201d7ac55f1f,
    0xcf83eb79cb996c36,
    0xeaad235311a29ca5,
    0x723796c58e9603be,
    0xe980e23038f9c0ba,
    0x7d9a9950ae5a97e7,
    0xd7044605b02f56a5,
    0x5c76bcedaff42dee,
    0x5e149f9043db52cf,
    0xa47715e42948555b,
    0xc4073d5b8fbe523e,
    0x7f81d4d995159a4e,
    0x23dca7628b87eeb4,
    0x037b3cf1472d0f69,
    0xfebd2f1430db120f,
    0xef48245d09eb481f,
    0x1a9e1f957307f9b3,
    0xfc3c8f0ef22e29ab,
    0xae7891ab999abe84,
    0x28b523e62010de70,
    0xe9365be6105cc3b9,
    0xbb7b4531a5fede77,
    0x1b1d9d28a60064ae,
    0xd11c6b46021e7c16,
    0x0a7682fb8fc4219f,
    0x7e9d0bfa3356a667,
    0x0cb7f8de6e191f9b,
    0xd606167cd7ba526f,
    0x008235f7d39804a9,
    0xe30f52d93a0f310a,
    0xa03ee9a3f09b60aa,
    0x43cfa6e283a47e14,
    0x30de5070995742fd,
    0x10e7899a9331f9d2,
    0x3290a944bd600dca,
    0x7af78dc4e17d6d7f,
    0x92b34a4aff8dc212,
    0x020995b4f725f608,
    0x391b813d23d39f40,
    0xc432fe032e8dbf7b,
    0x62f77a09cadfb36b,
    0x7b5638f579a5b2b8,
    0x28c763a04946a6d3,
    0x8d77f6c66fc3de24,
    0xa0f88c429fe6ddba,
    0xb9c4faca6561e55a,
    0xb4554908d04456e1,
    0x8deb3ae802eac826,
    0x7a75e1d76c3ff008,
    0xb539e1a626894662,
    0x4262786667f95ff5,
    0x9d7c9327dfbefc85,
    0xb88bd7cb77d1d9a3,
    0xe66e562ab3fb8630,
    0x2f55150a93d8dfe6,
    0xf5d6577e0fff2256,
    0x40f3b59507adda7d,
    0xa19ed7af9eb596cb,
    0xd3a97e4e10ff5e39,
    0x1b20f9f4bbce4839,
    0x0e6cc4d320474d87,
    0x9ed021f4e0d4974b,
    0x480682f06c28e0bf,
    0x7cdf173f1612e0cb,
    0x55b57d60ad289d74,
    0xd5b29a5928db73bb,
    0xc9c7b9d598421f41,
    0x945e90088a623c7f,
    0x9ef142d51c8c0b50,
    0xb5b6f54a05bdea0f,
    0x4eb64aa5c2d7d625,
    0x1cdf4f9410ad63bb,
    0xce3b3f996c42c863,
    0x976c558758b4f31b,
    0xa5a3fab8e291fad9,
    0x5ac4cb5028e2d831,
    0xd494e5badead9772,
    0x541d0d531b928115,
    0x6c431f4ac110bfc0,
    0x9365e82d71ab1535,
    0xc89a337cfcf0dbac,
    0x9147334d25c96edf,
    0x52fa7c6522f2da23,
    0x8ff08babf674200d,
    0xfba87cb0f29ce033,
    0x20f7453f68f58ebc,
    0xa31ef08b23cca7d2,
    0x7220bac3be30b519,
    0x01febbe09a7661d4,
    0x45f0b5013895aa0d,
    0x19fe08ed2e945f6e,
    0x713b9b428e9929c3,
    0xde72f7ea82371990,
    0xe0da9d66ede8730c,
    0x62ae66201f268181,
    0x8383bd69e9ef89a1,
    0x2d6db383a4eb71dc,
    0xc3657085ef0572ea,
    0x93abddc1d3cb6c2b,
    0x50a39b89d4cc13ed,
    0x6b221edf49ee6b78,
    0xe5efac389b244e31,
    0x7eff4d6cbcc6ae85,
    0xfcc3d6a95bcb9ce0,
    0xdc7d4e36ad38ef38,
    0x2640401e45bbcc25,
    0x697398ddca6bbc43,
    0xe81bcf6f383f5fed,
    0xded3b9c732c2f9f4,
    0x44f80692559c1e7c,
    0xfae920a66d0d9eb1,
    0xb3cbc45f8a880910,
    0x2e3ba8c503410ec9,
    0x944120913823d594,
    0x13185975b7d66672,
    0x596b903a4c45c3dd,
    0x97a6d7ce95abfa59,
    0x62e9fba029578b05,
    0x262ccc3ecf26d111,
    0x0d3297147da03036,
    0x465a1fb804dd85af,
    0x1b79e2d5597514fa,
    0xb738f0b6cde7dfca,
    0xee135fa2c91a0f96,
    0xce075855dbdc4d6c,
    0x241c05092dd4a389,
    0xab0aa0e3429a857c,
    0xb728304cb22f90eb,
    0x942cc9f9403f4be0,
    0xa9f259f04dc8ed58,
    0xc52d79656d2d48ae,
    0x4c257e8ccae6c96b,
    0xffe19c416d9a3e08,
];

const MIXED: [u64; 256] = [
    0x7d9a9950ae5a97e7,
    0x3c556324c1a6c2a0,
    0xa43f63026da6ba79,
    0x5776ad2aabe41cb7,
    0xa8db1e028a7b9a99,
    0xb2e5f27b46b17054,
    0x8d1943f1f3d054ad,
    0xaf25ce4fa836fbad,
    0x104da40e5a6e10f5,
    0x276edc88e359f435,
    0x7b0053959ed29600,
    0x5a834176eb343e70,
    0x77a56a7c08e5f4c9,
    0x54a4130450ab26e6,
    0x081be3dcc5bda434,
    0x57009a0eff70d831,
    0x31df9432af0f7f81,
    0xe57ba1151e6c21d7,
    0x30132935a3018c4f,
    0x52f2d27e757328b6,
    0x646c75ef5ca6edce,
    0x3bdb3bbf8f39402f,
    0xab325fdd86c69575,
    0xbab7c0399d341eb6,
    0x8b0601c8a4fa8bfd,
    0xa0e8c569380ade09,
    0xd50b073938fc7a3e,
    0x3b229261df5873e7,
    0x3ce810a68c52fa27,
    0xef611b93b4041624,
    0xe5c487c0073bb067,
    0xed832757f908a83a,
    0x353b150c4f3203cf,
    0x9032fa6b5de3508d,
    0x52fbd0b1f182c1f1,
    0x21b4f9a4ee4f4eb3,
    0xc3c33038553b2275,
    0x3f93fb4369f76a70,
    0x01dc5a48eafe0267,
    0xf369f092cd283a28,
    0x430594c336a3086a,
    0x0255948fda2a12d7,
    0xa35da965db866b79,
    0x17c046b55043e463,
    0x433db926c380208e,
    0xb010e65dab5e2ae3,
    0x1dc294e6beec1938,
    0x31b10eea31a5f65c,
    0x7217c3421276697d,
    0x40b7047d2993c9c8,
    0xf1636c5882a1eaeb,
    0xd8cbccbff23d41db,
    0x4b9bd73f2a55afe0,
    0x4919f8c4a8a68e85,
    0xf2bedd4a72c923cc,
    0x07148dbd9f2d3e28,
    0x650b2183635d2ddb,
    0x9c19cedd1a057675,
    0x9e7aaca51399f4c2,
    0x98856125990bda30,
    0x0ea8a89caa87a3e0,
    0xa8b65c60dff93d46,
    0x38a21fce65469229,
    0x7293b6fecd35ba67,
    0x107eac4a9fbb2eb5,
    0xb24de0d747788d90,
    0xe30dbfdbabef737f,
    0xfdb4c7088ef16e82,
    0xf9921d91af0a4265,
    0xbb5cef563e2cd1ea,
    0x97681340b15eecd0,
    0x1b1977a7b2c0ff50,
    0x23b678bd7cce9e84,
    0x7a514551954dce06,
    0xa206d29fc2ce8091,
    0x45e625ed2a47a785,
    0x195ac22e5ca97321,
    0x2dea0d769c7a2c01,
    0x56871e32652de6b2,
    0xa2c234e53ff9ed79,
    0x35212de2e8cd440e,
    0x45b8321f9fd25050,
    0x849ca03496369cea,
    0x9097e21082ff3970,
    0x5910b69aaaa922e5,
    0x645190780b54ff0d,
    0xc2ae73977b1f1ecf,
    0x0d0cc0fa0c1d7162,
    0x85e98e721255b008,
    0x3672c045932dc869,
    0x4d1e7d253efb45d4,
    0x1dfd8de02fededdb,
    0x1ac3655a352392a1,
    0xa4d29c9a135db1a5,
    0x9bd029df900d1404,
    0xa19fcf07d287ed9c,
    0xdf7a23aa5880ba9e,
    0x2f38c5e31faf03e1,
    0xce3238dce49b4d9d,
    0x6c36b41ab6699660,
    0x399aee615028307c,
    0xa2f5590abc2ce081,
    0xe7dc5933f2c0af3d,
    0x4386886b98383d0a,
    0xbc57361ee1c37ed1,
    0xe402504594ec0544,
    0x8b31220c26f6c67c,
    0x17dfb63b50efc8e5,
    0xdf15e37c9c8e5945,
    0x412f225f588cd7ac,
    0xac8c5af5778fb535,
    0x9cd41c4cda034975,
    0x2b14471742a26a2b,
    0x6ef5e47566df89b3,
    0x42fbb80cbef2c354,
    0x649bfab6746e3a6b,
    0xca74efce0fcb2327,
    0x3e61233a80e49546,
    0xcef196ddb5c7e033,
    0x73abc052282c4727,
    0xca9c5f27cc38289e,
    0x8b62da9c0426a78b,
    0x7694b56259f2191a,
    0xe49d201d7ac55f1f,
    0x346ff7be3409cbc6,
    0x5b5cb2e3c0c3770e,
    0x60cbf89ac576cde3,
    0x699e7d7ca26a76d2,
    0x7d9a9950ae5a97e7,
    0xd7044605b02f56a5,
    0x5c76bcedaff42dee,
    0x5e149f9043db52cf,
    0x70c4424d13f655b6,
    0xff7e653624fc8a26,
    0x6ca340226fdf59dd,
    0x1c50f738b9e5f03a,
    0x037b3cf1472d0f69,
    0xfebd2f1430db120f,
    0xef48245d09eb481f,
    0x1a9e1f957307f9b3,
    0xbba617705664c626,
    0xdca454e1f1055287,
    0x7d65502099e46d30,
    0xe64d21dec83a65cf,
    0xbb7b4531a5fede77,
    0x1b1d9d28a60064ae,
    0xd11c6b46021e7c16,
    0x0a7682fb8fc4219f,
    0xcb87fd08ba6cb372,
    0x0cb7f8de6e191f9b,
    0x5d95b4e228360662,
    0x008235f7d39804a9,
    0xe30f52d93a0f310a,
    0xa03ee9a3f09b60aa,
    0x43cfa6e283a47e14,
    0x30de5070995742fd,
    0x2ef885a42f8d0ba6,
    0x3290a944bd600dca,
    0x29692fdc50a10ed9,
    0x6527169bf72fc3c7,
    0x020995b4f725f608,
    0x391b813d23d39f40,
    0xc432fe032e8dbf7b,
    0x62f77a09cadfb36b,
    0x61510203f68314e1,
    0x28c763a04946a6d3,
    0x14735e3155981a0a,
    0x87adb5a864e54cca,
    0xb9c4faca6561e55a,
    0xb4554908d04456e1,
    0x8deb3ae802eac826,
    0x482e8298c55c6ccc,
    0x69bf0bde9e89ebfb,
    0xe1a5d791f2b56714,
    0x8fea892e68591e1e,
    0x75fa5c5af1308d68,
    0xe66e562ab3fb8630,
    0x2f55150a93d8dfe6,
    0xf5d6577e0fff2256,
    0x40f3b59507adda7d,
    0x85fcca7e08f32a51,
    0xd561e61ffc6f7795,
    0x151c16a38f9f5940,
    0xbbce46d8434cc5e2,
    0x9ed021f4e0d4974b,
    0x480682f06c28e0bf,
    0x7cdf173f1612e0cb,
    0x55b57d60ad289d74,
    0x8079ba63dd1b0b76,
    0xe8fc92161e82ab9d,
    0xfeec839a1336dc0f,
    0x003174799e4ecfc9,
    0xb5b6f54a05bdea0f,
    0x4eb64aa5c2d7d625,
    0x1cdf4f9410ad63bb,
    0xce3b3f996c42c863,
    0x46be501d2b213f80,
    0x8bdaecbafa4acc08,
    0x6c0b51d79a31d8f3,
    0xa61cf2672c5fd79c,
    0x541d0d531b928115,
    0x6c431f4ac110bfc0,
    0x9365e82d71ab1535,
    0xc89a337cfcf0dbac,
    0x9147334d25c96edf,
    0x01b9544292d0ef0f,
    0x80d39839b30cafbe,
    0xa7b4d6e473ce6548,
    0x20f7453f68f58ebc,
    0xa31ef08b23cca7d2,
    0x2e09adc6cb3518f9,
    0x01febbe09a7661d4,
    0x76df5fa88059913a,
    0x450c25cd43f75037,
    0x742c084602908330,
    0xb11e31b65dfe2a21,
    0xe0da9d66ede8730c,
    0x62ae66201f268181,
    0x8383bd69e9ef89a1,
    0x2d6db383a4eb71dc,
    0x1b5657b8d94ed548,
    0x9f8ce1acad8c5e92,
    0x3b6f7a2fec041fab,
    0xac3961b87ba837d8,
    0xe5efac389b244e31,
    0x7eff4d6cbcc6ae85,
    0xfcc3d6a95bcb9ce0,
    0xdc7d4e36ad38ef38,
    0x6140547b59a920d2,
    0xfb9b8ee44f982190,
    0x44961948f81ebd35,
    0x3f0911a333720c01,
    0x44f80692559c1e7c,
    0xfae920a66d0d9eb1,
    0xb3cbc45f8a880910,
    0x2e3ba8c503410ec9,
    0x8248faee0de34150,
    0xd5dfcd1e16bb6a5b,
    0xd04ff6703bf56ba5,
    0x6227cf76eee30353,
    0x62e9fba029578b05,
    0x262ccc3ecf26d111,
    0x0d3297147da03036,
    0x465a1fb804dd85af,
    0x1b79e2d5597514fa,
    0x6aec2286a33d1e19,
    0xdc3a8ab5abb9f8dc,
    0x54f70cf97190c3bb,
    0x241c05092dd4a389,
    0xab0aa0e3429a857c,
    0xb728304cb22f90eb,
    0x29729c7d16210699,
    0xff86658bdadcf04b,
    0xead4a1153a295d80,
    0xd5d10348bf7a9204,
    0x383215380dd359cf,
];
