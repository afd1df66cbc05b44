//! The unified scheduling-policy surface.
//!
//! Historically the scheduler's policy space was two ad-hoc knobs — a
//! [`QueuePolicy`] match inside `sort_queue` and an [`AllocationPolicy`]
//! call inside `try_place` — which DAG-aware disciplines (HEFT ranks, data
//! locality) cannot express: they need to order by precedence-derived
//! priority and place by where a task's inputs live. [`SchedulingPolicy`] unifies both
//! halves behind one trait: *compare* decides queue order, *select_machine*
//! decides placement, and *backfill* gates EASY backfilling. The legacy
//! [`SchedulerConfig`] implements the trait by delegating to its knobs, so
//! every existing configuration is already a policy object; the DAG layer
//! (`mcs-dag`) and its portfolio work purely in terms of trait objects.
//!
//! The two enums stay as configuration on purpose. Their values are the
//! sweep axes of the table3/table4/table5 experiments, `tests/determinism.rs`
//! and the banking example (`QueuePolicy::ALL` and `AllocationPolicy::ALL`
//! enumerate them). The batch portfolio keeps its candidates as a
//! `Vec<SchedulerConfig>` and re-sorts the queue on a policy tick only when
//! the chosen config differs from the current one, so it needs
//! `SchedulerConfig` to be a `Copy`, comparable value. New policies
//! implement [`SchedulingPolicy`] directly instead of growing the enums.

use crate::allocation::AllocationPolicy;
use crate::scheduler::{QueuePolicy, SchedulerConfig};
use mcs_infra::cluster::Cluster;
use mcs_infra::machine::MachineId;
use mcs_infra::resource::ResourceVector;
use mcs_simcore::rng::RngStream;
use mcs_simcore::time::{SimDuration, SimTime};
use mcs_workload::task::TaskId;
use std::cmp::Ordering;

/// A queued task as a policy sees it: enough to order the queue and pick a
/// machine, nothing more. `rank` is the upward rank (critical-path length
/// from this task to a sink, in core-seconds or seconds depending on the
/// producer) and `data_home` the node holding the task's largest input —
/// both zero/`None` for independent batch tasks, populated by DAG drivers.
#[derive(Debug, Clone, Copy)]
pub struct QueuedTaskView<'a> {
    /// Stable task identity, the universal tie-breaker.
    pub id: TaskId,
    /// Submit time of the owning job.
    pub submit: SimTime,
    /// When the task became dependency-free (joined the queue).
    pub ready_at: SimTime,
    /// Remaining demand in core-seconds.
    pub demand_left: f64,
    /// Resource request.
    pub req: &'a ResourceVector,
    /// Relative deadline, when the task has one.
    pub deadline: Option<SimDuration>,
    /// Upward rank (0 for tasks outside any DAG).
    pub rank: f64,
    /// Node holding the task's dominant input data, when known.
    pub data_home: Option<u32>,
}

/// One scheduling discipline: queue order plus machine selection.
///
/// Implementations must be deterministic — equal inputs, equal outputs —
/// and must break compare ties on `id` so queue order never depends on
/// insertion history.
pub trait SchedulingPolicy {
    /// Short stable name for reports and traces.
    fn name(&self) -> &'static str;

    /// Queue ordering: `Less` means `a` runs first.
    fn compare(&self, a: &QueuedTaskView<'_>, b: &QueuedTaskView<'_>) -> Ordering;

    /// Picks a machine for `task`, or `None` when nothing feasible exists.
    ///
    /// Contract: returns `None` only when no machine fits `task.req` (as
    /// [`Cluster::feasible_machines`] sees it), and draws nothing from `rng`
    /// when it does. Placement passes rely on this to skip work: a ready
    /// queue that failed to place is not re-probed until capacity frees or
    /// a task joins, and within a pass a request at least as large as one
    /// that found no machine is not probed at all.
    fn select_machine(
        &self,
        cluster: &Cluster,
        task: &QueuedTaskView<'_>,
        rng: &mut RngStream,
    ) -> Option<MachineId>;

    /// Whether tasks behind a blocked head may EASY-backfill.
    fn backfill(&self) -> bool;
}

/// The legacy knob pair is itself a policy: queue discipline orders, the
/// allocation policy places. This is the bridge that keeps every existing
/// `ScenarioConfig` field working unchanged.
impl SchedulingPolicy for SchedulerConfig {
    fn name(&self) -> &'static str {
        self.queue.name()
    }

    fn compare(&self, a: &QueuedTaskView<'_>, b: &QueuedTaskView<'_>) -> Ordering {
        match self.queue {
            QueuePolicy::Fcfs => {
                (a.submit, a.ready_at, a.id).cmp(&(b.submit, b.ready_at, b.id))
            }
            QueuePolicy::Sjf => a
                .demand_left
                .partial_cmp(&b.demand_left)
                .unwrap_or(Ordering::Equal)
                .then(a.id.cmp(&b.id)),
            QueuePolicy::Ljf => b
                .demand_left
                .partial_cmp(&a.demand_left)
                .unwrap_or(Ordering::Equal)
                .then(a.id.cmp(&b.id)),
            QueuePolicy::EarliestDeadline => {
                let abs = |v: &QueuedTaskView<'_>| {
                    v.deadline.map(|d| v.submit + d).unwrap_or(SimTime::MAX)
                };
                (abs(a), a.id).cmp(&(abs(b), b.id))
            }
        }
    }

    fn select_machine(
        &self,
        cluster: &Cluster,
        task: &QueuedTaskView<'_>,
        rng: &mut RngStream,
    ) -> Option<MachineId> {
        self.allocation.select(cluster, task.req, rng)
    }

    fn backfill(&self) -> bool {
        self.backfill
    }
}

/// HEFT-like list scheduling: highest upward rank first (critical-path
/// tasks lead), placed on the machine with the highest speed-up for the
/// request. No backfilling — rank order *is* the plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeftPolicy;

impl SchedulingPolicy for HeftPolicy {
    fn name(&self) -> &'static str {
        "heft"
    }

    fn compare(&self, a: &QueuedTaskView<'_>, b: &QueuedTaskView<'_>) -> Ordering {
        b.rank
            .partial_cmp(&a.rank)
            .unwrap_or(Ordering::Equal)
            .then(a.id.cmp(&b.id))
    }

    fn select_machine(
        &self,
        cluster: &Cluster,
        task: &QueuedTaskView<'_>,
        rng: &mut RngStream,
    ) -> Option<MachineId> {
        AllocationPolicy::FastestFirst.select(cluster, task.req, rng)
    }

    fn backfill(&self) -> bool {
        false
    }
}

/// Greedy ready-task scheduling: whichever task became ready first runs
/// first, on the first machine that fits. The cheap baseline every DAG
/// scheduler must beat.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GreedyReadyPolicy;

impl SchedulingPolicy for GreedyReadyPolicy {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn compare(&self, a: &QueuedTaskView<'_>, b: &QueuedTaskView<'_>) -> Ordering {
        (a.ready_at, a.id).cmp(&(b.ready_at, b.id))
    }

    fn select_machine(
        &self,
        cluster: &Cluster,
        task: &QueuedTaskView<'_>,
        rng: &mut RngStream,
    ) -> Option<MachineId> {
        AllocationPolicy::FirstFit.select(cluster, task.req, rng)
    }

    fn backfill(&self) -> bool {
        true
    }
}

/// Locality-first scheduling: run a task where its input data already sits
/// (same node, else same rack), falling back to best-fit when the home
/// neighbourhood is full. Queue order is HEFT rank so the critical path
/// still leads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalityFirstPolicy {
    /// Rack width of the fabric: nodes `[r*n, (r+1)*n)` share a rack.
    pub nodes_per_rack: u32,
}

impl LocalityFirstPolicy {
    fn rack_of(&self, node: u32) -> u32 {
        node / self.nodes_per_rack.max(1)
    }
}

impl SchedulingPolicy for LocalityFirstPolicy {
    fn name(&self) -> &'static str {
        "locality"
    }

    fn compare(&self, a: &QueuedTaskView<'_>, b: &QueuedTaskView<'_>) -> Ordering {
        HeftPolicy.compare(a, b)
    }

    fn select_machine(
        &self,
        cluster: &Cluster,
        task: &QueuedTaskView<'_>,
        rng: &mut RngStream,
    ) -> Option<MachineId> {
        if let Some(home) = task.data_home {
            let mid = MachineId(home);
            if (home as usize) < cluster.len()
                && cluster
                    .feasible_machines(task.req)
                    .any(|m| m.id() == mid)
            {
                return Some(mid);
            }
            // Same rack, tightest fit wins.
            let rack = self.rack_of(home);
            if let Some(m) = cluster
                .feasible_machines(task.req)
                .filter(|m| self.rack_of(m.id().0) == rack)
                .min_by(|a, b| {
                    crate::allocation::remaining_after(a, task.req)
                        .partial_cmp(&crate::allocation::remaining_after(b, task.req))
                        .unwrap_or(Ordering::Equal)
                })
            {
                return Some(m.id());
            }
        }
        AllocationPolicy::BestFit.select(cluster, task.req, rng)
    }

    fn backfill(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_infra::cluster::ClusterId;
    use mcs_infra::machine::MachineSpec;

    fn view(id: u64, demand: f64, rank: f64, req: &ResourceVector) -> QueuedTaskView<'_> {
        QueuedTaskView {
            id: TaskId(id),
            submit: SimTime::ZERO,
            ready_at: SimTime::from_secs(id),
            demand_left: demand,
            req,
            deadline: None,
            rank,
            data_home: None,
        }
    }

    #[test]
    fn legacy_config_orders_like_its_queue_policy() {
        let req = ResourceVector::new(1.0, 1.0);
        let short = view(1, 5.0, 0.0, &req);
        let long = view(0, 50.0, 0.0, &req);
        let sjf = SchedulerConfig { queue: QueuePolicy::Sjf, ..Default::default() };
        let ljf = SchedulerConfig { queue: QueuePolicy::Ljf, ..Default::default() };
        assert_eq!(sjf.compare(&short, &long), Ordering::Less);
        assert_eq!(ljf.compare(&short, &long), Ordering::Greater);
        // FCFS falls back to id order at equal submit/ready instants.
        let fcfs = SchedulerConfig::default();
        let a = QueuedTaskView { ready_at: SimTime::ZERO, ..short };
        let b = QueuedTaskView { ready_at: SimTime::ZERO, ..long };
        assert_eq!(fcfs.compare(&a, &b), Ordering::Greater); // id 1 after id 0
    }

    #[test]
    fn heft_orders_by_rank_descending() {
        let req = ResourceVector::new(1.0, 1.0);
        let critical = view(5, 10.0, 900.0, &req);
        let leaf = view(1, 10.0, 30.0, &req);
        assert_eq!(HeftPolicy.compare(&critical, &leaf), Ordering::Less);
        // Equal ranks break on ascending id.
        let twin = view(2, 10.0, 30.0, &req);
        assert_eq!(HeftPolicy.compare(&leaf, &twin), Ordering::Less);
    }

    #[test]
    fn greedy_orders_by_ready_time() {
        let req = ResourceVector::new(1.0, 1.0);
        let early = view(3, 10.0, 0.0, &req); // ready_at = 3 s
        let late = view(7, 1.0, 99.0, &req); // ready_at = 7 s
        assert_eq!(GreedyReadyPolicy.compare(&early, &late), Ordering::Less);
    }

    #[test]
    fn locality_prefers_home_then_rack_then_anywhere() {
        // 4 machines, 2 per rack; home node 2 (rack 1).
        let mut cluster = Cluster::homogeneous(
            ClusterId(0),
            "c",
            MachineSpec::commodity("std-4", 4.0, 16.0),
            4,
        );
        let policy = LocalityFirstPolicy { nodes_per_rack: 2 };
        let req = ResourceVector::new(2.0, 2.0);
        let mut rng = RngStream::new(1, "test");
        let task = QueuedTaskView { data_home: Some(2), ..view(0, 10.0, 0.0, &req) };
        assert_eq!(policy.select_machine(&cluster, &task, &mut rng), Some(MachineId(2)));
        // Fill the home machine: same-rack neighbour (3) wins.
        cluster.machine_mut(MachineId(2)).try_allocate(&ResourceVector::new(4.0, 4.0));
        assert_eq!(policy.select_machine(&cluster, &task, &mut rng), Some(MachineId(3)));
        // Fill the rack: falls back to best-fit elsewhere.
        cluster.machine_mut(MachineId(3)).try_allocate(&ResourceVector::new(4.0, 4.0));
        let chosen = policy.select_machine(&cluster, &task, &mut rng).unwrap();
        assert!(chosen == MachineId(0) || chosen == MachineId(1));
    }

    #[test]
    fn full_cluster_yields_none_without_drawing() {
        let mut cluster = Cluster::homogeneous(
            ClusterId(0),
            "c",
            MachineSpec::commodity("std-4", 4.0, 16.0),
            4,
        );
        for m in 0..4 {
            assert!(cluster.machine_mut(MachineId(m)).try_allocate(&ResourceVector::new(3.0, 8.0)));
        }
        let req = ResourceVector::new(2.0, 2.0);
        let task = QueuedTaskView { data_home: Some(1), ..view(0, 10.0, 5.0, &req) };
        let mut policies: Vec<(&str, Box<dyn SchedulingPolicy>)> = AllocationPolicy::ALL
            .iter()
            .map(|&allocation| {
                let config = SchedulerConfig { allocation, ..Default::default() };
                (allocation.name(), Box::new(config) as Box<dyn SchedulingPolicy>)
            })
            .collect();
        policies.push(("heft", Box::new(HeftPolicy)));
        policies.push(("greedy", Box::new(GreedyReadyPolicy)));
        policies.push(("locality", Box::new(LocalityFirstPolicy { nodes_per_rack: 2 })));
        for (name, policy) in &policies {
            let mut rng = RngStream::new(9, "contract");
            let mut untouched = rng.clone();
            assert_eq!(policy.select_machine(&cluster, &task, &mut rng), None, "{name}");
            assert_eq!(rng.next_u64(), untouched.next_u64(), "{name} drew from the rng");
        }
    }

    #[test]
    fn policy_names_are_stable() {
        assert_eq!(HeftPolicy.name(), "heft");
        assert_eq!(GreedyReadyPolicy.name(), "greedy");
        assert_eq!(LocalityFirstPolicy { nodes_per_rack: 8 }.name(), "locality");
        assert_eq!(SchedulingPolicy::name(&SchedulerConfig::default()), "fcfs");
    }
}
