//! Differential test: sharded SFS vs global SFS under multi-CPU churn.
//!
//! Sharding trades exact global surplus ordering for per-shard
//! independence, so — unlike the bucket-queue differential, which pins
//! decision-for-decision equality — the contract here is *bounded
//! divergence* plus *exact conservation*:
//!
//! * **Conservation.** After every operation both schedulers hold the
//!   same task set with the same raw weights; the sharded scheduler's
//!   internal partition (balancer load sums, per-shard policies, the
//!   published feasibility snapshot) passes its invariant checks; and
//!   no task is lost or duplicated across placement/steal/rebalance
//!   migrations.
//! * **Share tracking.** After the churn settles, each task's service
//!   share over a long steady window stays within the documented
//!   rebalance bound of the global scheduler's: greedy rebalance stops
//!   only when no single migration reduces the worse per-CPU load, so
//!   per-CPU adjusted-weight loads differ by at most one task weight,
//!   and a task's share error is bounded by that relative load gap.
//!   With the generous task/weight mixes generated here that is well
//!   under 0.10 absolute share.

use std::collections::BTreeMap;

use proptest::prelude::*;
use sfs::prelude::*;

const Q: Duration = Duration::from_millis(1);

/// One scheduler being driven through the churn (global or sharded).
/// Decisions legitimately diverge between the two, so each driver owns
/// its own CPU slots and bookkeeping; ops are addressed by task id.
struct Driver {
    sched: Box<dyn Scheduler>,
    running: Vec<Option<TaskId>>,
    now: Time,
    service: BTreeMap<TaskId, u64>,
}

impl Driver {
    fn new(spec: &str, cpus: u32) -> Driver {
        let spec: PolicySpec = spec.parse().expect("driver spec");
        Driver {
            sched: spec.build(cpus),
            running: vec![None; cpus as usize],
            now: Time::ZERO,
            service: BTreeMap::new(),
        }
    }

    fn fill(&mut self) {
        for c in 0..self.running.len() {
            if self.running[c].is_none() {
                self.running[c] = self.sched.pick_next(CpuId(c as u32), self.now);
            }
        }
    }

    /// One lockstep quantum: fill every CPU, then requeue everything.
    fn round(&mut self) {
        self.fill();
        self.now += Q;
        for c in 0..self.running.len() {
            if let Some(id) = self.running[c].take() {
                *self.service.entry(id).or_default() += 1;
                self.sched
                    .put_prev(id, Q, SwitchReason::Preempted, self.now);
            }
        }
    }

    /// Runs until `id` is dispatched, then blocks it mid-quantum (the
    /// other CPUs keep their tasks through the partial quantum).
    /// Bounded by the proportional-share guarantee itself: a ready
    /// task is served within ~Φ/φ quanta.
    fn block(&mut self, id: TaskId) {
        for _ in 0..4_000 {
            self.fill();
            if let Some(c) = self.running.iter().position(|r| *r == Some(id)) {
                self.running[c] = None;
                self.sched
                    .put_prev(id, Q / 2, SwitchReason::Blocked, self.now);
                return;
            }
            // Not dispatched this quantum: finish it and try again.
            self.now += Q;
            for c in 0..self.running.len() {
                if let Some(other) = self.running[c].take() {
                    *self.service.entry(other).or_default() += 1;
                    self.sched
                        .put_prev(other, Q, SwitchReason::Preempted, self.now);
                }
            }
        }
        panic!("task {id} starved: never scheduled in 4000 quanta");
    }

    fn wake(&mut self, id: TaskId) {
        self.sched.wake(id, self.now);
    }
}

#[derive(Debug, Clone)]
enum Op {
    Spawn(u64),
    Block(usize),
    Wake(usize),
    Reweigh(usize, u64),
    KillBlocked(usize),
    Run(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..9).prop_map(Op::Spawn),
        (0usize..64).prop_map(Op::Block),
        (0usize..64).prop_map(Op::Wake),
        ((0usize..64), (1u64..9)).prop_map(|(i, w)| Op::Reweigh(i, w)),
        (0usize..64).prop_map(Op::KillBlocked),
        (1u64..16).prop_map(Op::Run),
    ]
}

fn drive(cpus: u32, shards: u32, ops: &[Op], settle: u64) {
    let global = &mut Driver::new("sfs:quantum=1ms", cpus);
    let sharded = &mut Driver::new(
        &format!("sfs:quantum=1ms,shards={shards},rebalance=8ms"),
        cpus,
    );
    // Harness-level truth about the logical task set, shared by both.
    let mut next_id = 0u64;
    let mut live: BTreeMap<TaskId, u64> = BTreeMap::new();
    let mut blocked: Vec<TaskId> = Vec::new();

    let mut apply = |both: &mut [&mut Driver; 2],
                     live: &mut BTreeMap<TaskId, u64>,
                     blocked: &mut Vec<TaskId>,
                     op: &Op| {
        match op {
            Op::Spawn(w) => {
                next_id += 1;
                let id = TaskId(next_id);
                for d in both.iter_mut() {
                    d.sched.attach(id, weight(*w), d.now);
                }
                live.insert(id, *w);
            }
            Op::Block(i) => {
                let runnable: Vec<TaskId> = live
                    .keys()
                    .filter(|id| !blocked.contains(id))
                    .copied()
                    .collect();
                // Keep at least one runnable task so `block` terminates.
                if runnable.len() > 1 {
                    let id = runnable[i % runnable.len()];
                    for d in both.iter_mut() {
                        d.block(id);
                    }
                    blocked.push(id);
                }
            }
            Op::Wake(i) => {
                if !blocked.is_empty() {
                    let id = blocked.remove(i % blocked.len());
                    for d in both.iter_mut() {
                        d.wake(id);
                    }
                }
            }
            Op::Reweigh(i, w) => {
                if !live.is_empty() {
                    let id = *live.keys().nth(i % live.len()).expect("non-empty");
                    for d in both.iter_mut() {
                        d.sched.set_weight(id, weight(*w), d.now);
                    }
                    live.insert(id, *w);
                }
            }
            Op::KillBlocked(i) => {
                if !blocked.is_empty() {
                    let id = blocked.remove(i % blocked.len());
                    for d in both.iter_mut() {
                        d.sched.detach(id, d.now);
                        d.service.remove(&id);
                    }
                    live.remove(&id);
                }
            }
            Op::Run(k) => {
                for d in both.iter_mut() {
                    for _ in 0..*k {
                        d.round();
                    }
                }
            }
        }
    };

    let mut both = [global, sharded];
    for op in ops {
        apply(&mut both, &mut live, &mut blocked, op);
        // Conservation after every op: same task set, same raw
        // weights, internally consistent partition.
        let [g, s] = &both;
        assert_eq!(g.sched.nr_tasks(), live.len(), "global lost a task");
        assert_eq!(s.sched.nr_tasks(), live.len(), "sharded lost a task");
        for (&id, &w) in &live {
            assert_eq!(g.sched.weight_of(id), Weight::new(w), "global weight {id}");
            assert_eq!(s.sched.weight_of(id), Weight::new(w), "sharded weight {id}");
        }
        s.sched.check_invariants();
        g.sched.check_invariants();
    }

    // Make everything runnable and let shares settle over a long
    // steady window.
    for id in blocked.drain(..) {
        for d in &mut both {
            d.wake(id);
        }
    }
    if live.is_empty() {
        return;
    }
    let before: [BTreeMap<TaskId, u64>; 2] = [both[0].service.clone(), both[1].service.clone()];
    for d in &mut both {
        for _ in 0..settle {
            d.round();
        }
    }
    let [g, s] = &both;
    s.sched.check_invariants();

    // Work conservation over the settle window: both machines served
    // min(runnable, cpus) tasks per quantum, and the runnable set was
    // identical, so the totals match exactly.
    let gain = |d: &Driver, before: &BTreeMap<TaskId, u64>| -> BTreeMap<TaskId, u64> {
        live.keys()
            .map(|&id| {
                let b = before.get(&id).copied().unwrap_or(0);
                (id, d.service.get(&id).copied().unwrap_or(0) - b)
            })
            .collect()
    };
    let (g_gain, s_gain) = (gain(g, &before[0]), gain(s, &before[1]));
    let g_total: u64 = g_gain.values().sum();
    let s_total: u64 = s_gain.values().sum();
    assert_eq!(g_total, s_total, "sharding lost work to idle CPUs");

    // Per-task share deviation within the rebalance bound.
    for (&id, &gq) in &g_gain {
        let g_share = gq as f64 / g_total.max(1) as f64;
        let s_share = s_gain[&id] as f64 / s_total.max(1) as f64;
        assert!(
            (g_share - s_share).abs() <= 0.10,
            "task {id}: sharded share {s_share:.3} vs global {g_share:.3} \
             (gains {s_gain:?} vs {g_gain:?})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Two shards over four CPUs: churn, then a steady window.
    #[test]
    fn sharded_tracks_global_4cpu_2shards(
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        drive(4, 2, &ops, 3_000);
    }

    /// Per-CPU shards (the fully sharded machine).
    #[test]
    fn sharded_tracks_global_4cpu_4shards(
        ops in proptest::collection::vec(op_strategy(), 1..30),
    ) {
        drive(4, 4, &ops, 3_000);
    }
}

/// A deterministic soak exercising the clamp boundary across shards:
/// heavy tasks keep the global feasibility snapshot churning while
/// blocks/wakes force placement decisions.
#[test]
fn sharded_soak_with_infeasible_weights() {
    let mut ops = Vec::new();
    for i in 0..12u64 {
        ops.push(Op::Spawn(1 + (i * 7) % 8));
    }
    for round in 0..60u64 {
        ops.push(Op::Run(8));
        match round % 5 {
            0 => ops.push(Op::Reweigh(round as usize, 1 + (round * 11) % 8)),
            1 => ops.push(Op::Block(round as usize)),
            2 => ops.push(Op::Wake(round as usize)),
            3 => ops.push(Op::Spawn(1 + round % 8)),
            _ => ops.push(Op::KillBlocked(round as usize)),
        }
    }
    drive(4, 2, &ops, 4_000);
}

/// The rebalance bound on whole scenarios: against global SFS on three
/// figure-style runs, a `shards=N` spec costs at most a few points of
/// Jain index and share error.
#[test]
fn sharded_fairness_stays_within_rebalance_bound() {
    let cfg = |cpus: u32| SimConfig {
        cpus,
        duration: Duration::from_secs(2),
        ..SimConfig::default()
    };
    let interact = BehaviorSpec::Interact {
        think: Duration::from_millis(40),
        burst: Duration::from_millis(5),
    };
    let scenarios = [
        // Example 1 / fig1: infeasible 1:10 weights on two CPUs.
        Scenario::new("fig1-infeasible", cfg(2))
            .task(TaskSpec::new("light", 1, BehaviorSpec::Inf))
            .task(TaskSpec::new("heavy", 10, BehaviorSpec::Inf)),
        // fig6a-style mixed allocation: ten tasks, three weights, 4 CPUs.
        Scenario::new("fig6-mixed", cfg(4))
            .task(TaskSpec::new("w4", 4, BehaviorSpec::Inf).replicated(2))
            .task(TaskSpec::new("w2", 2, BehaviorSpec::Inf).replicated(3))
            .task(TaskSpec::new("w1", 1, BehaviorSpec::Inf).replicated(5)),
        // Interactive + hogs: blocking and waking across shards.
        Scenario::new("fig6-interactive", cfg(4))
            .task(TaskSpec::new("hog", 2, BehaviorSpec::Inf).replicated(4))
            .task(TaskSpec::new("interact", 1, interact).replicated(4)),
    ];
    for scenario in scenarios {
        let (name, cpus) = (scenario.name.clone(), scenario.config.cpus);
        let sharded = format!("sfs:quantum=10ms,shards={cpus}");
        let cmp = Experiment::new(scenario)
            .compare(["sfs:quantum=10ms", sharded.as_str()])
            .expect("figure-style scenario");
        let d = &cmp.deltas()[1];
        let (jain, err) = (d.jain_delta, d.share_error_delta);
        assert!(jain > -0.12, "{name}: Jain delta {jain:+.4}");
        assert!(err < 0.15, "{name}: share-error delta {err:+.4}");
    }
}
