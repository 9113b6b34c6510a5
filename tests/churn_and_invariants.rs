//! Property-based stress tests: random workload churn must never break
//! scheduler invariants or starve runnable tasks.

use proptest::prelude::*;
use sfs::prelude::*;

/// One random scheduler operation.
#[derive(Debug, Clone)]
enum Op {
    Spawn(u64),
    KillReady(usize),
    BlockRunning(usize),
    WakeOne(usize),
    RunQuanta(u8),
    Reweigh(usize, u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..50).prop_map(Op::Spawn),
        (0usize..64).prop_map(Op::KillReady),
        (0usize..64).prop_map(Op::BlockRunning),
        (0usize..64).prop_map(Op::WakeOne),
        (1u8..6).prop_map(Op::RunQuanta),
        ((0usize..64), (1u64..50)).prop_map(|(i, w)| Op::Reweigh(i, w)),
    ]
}

/// Drives a scheduler through a random op sequence on a lockstep
/// 2-CPU machine, checking basic sanity at every step.
fn churn(mut sched: Box<dyn Scheduler>, ops: &[Op]) {
    let quantum = Duration::from_millis(1);
    let mut now = Time::ZERO;
    let mut next_id = 0u64;
    let mut ready: Vec<TaskId> = Vec::new(); // attached, not running, not blocked
    let mut blocked: Vec<TaskId> = Vec::new();
    let mut running: Vec<Option<TaskId>> = vec![None; 2];

    let fill = |sched: &mut Box<dyn Scheduler>,
                running: &mut Vec<Option<TaskId>>,
                ready: &mut Vec<TaskId>,
                now: Time| {
        for (c, slot) in running.iter_mut().enumerate() {
            if slot.is_none() {
                if let Some(id) = sched.pick_next(CpuId(c as u32), now) {
                    assert!(ready.contains(&id), "picked non-ready task {id}");
                    ready.retain(|&r| r != id);
                    *slot = Some(id);
                }
            }
        }
    };

    for op in ops {
        match op {
            Op::Spawn(w) => {
                next_id += 1;
                let id = TaskId(next_id);
                sched.attach(id, weight(*w), now);
                ready.push(id);
            }
            Op::KillReady(i) => {
                if !ready.is_empty() {
                    let id = ready.remove(i % ready.len());
                    sched.detach(id, now);
                }
            }
            Op::BlockRunning(i) => {
                let occupied: Vec<usize> = (0..2).filter(|&c| running[c].is_some()).collect();
                if !occupied.is_empty() {
                    let c = occupied[i % occupied.len()];
                    let id = running[c].take().unwrap();
                    sched.put_prev(id, quantum / 2, SwitchReason::Blocked, now);
                    blocked.push(id);
                }
            }
            Op::WakeOne(i) => {
                if !blocked.is_empty() {
                    let id = blocked.remove(i % blocked.len());
                    sched.wake(id, now);
                    ready.push(id);
                }
            }
            Op::RunQuanta(n) => {
                for _ in 0..*n {
                    fill(&mut sched, &mut running, &mut ready, now);
                    now += quantum;
                    for slot in &mut running {
                        if let Some(id) = slot.take() {
                            sched.put_prev(id, quantum, SwitchReason::Preempted, now);
                            ready.push(id);
                        }
                    }
                }
            }
            Op::Reweigh(i, w) => {
                if !ready.is_empty() {
                    let id = ready[i % ready.len()];
                    sched.set_weight(id, weight(*w), now);
                }
            }
        }
        // Sanity: counts line up.
        assert_eq!(
            sched.nr_tasks(),
            ready.len() + blocked.len() + running.iter().flatten().count(),
            "task count mismatch after {op:?}"
        );
        // Structural invariants (a no-op for policies without a checker).
        sched.check_invariants();
        // Work conservation: with ready tasks, pick_next must succeed.
        fill(&mut sched, &mut running, &mut ready, now);
        if !ready.is_empty() {
            assert!(
                running.iter().all(Option::is_some),
                "idle CPU with ready tasks after {op:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sfs_survives_churn(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        churn(PolicySpec::sfs().build(2), &ops);
    }

    #[test]
    fn sfq_survives_churn(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        churn(PolicySpec::sfq().with_readjustment().build(2), &ops);
    }

    #[test]
    fn timeshare_survives_churn(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        churn(PolicySpec::time_sharing().build(2), &ops);
    }

    #[test]
    fn stride_survives_churn(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        churn(PolicySpec::stride().with_readjustment().build(2), &ops);
    }

    #[test]
    fn every_registered_policy_survives_churn(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        // The registry makes "all policies" a closed, testable set: any
        // policy added to PolicySpec automatically joins this property.
        for spec in PolicySpec::registered() {
            churn(spec.build(2), &ops);
        }
    }
}

#[test]
fn deterministic_across_runs() {
    // The same scenario must produce bit-identical reports.
    let build = || {
        let cfg = SimConfig {
            cpus: 2,
            duration: Duration::from_secs(3),
            ctx_switch: Duration::from_micros(5),
            sample_every: Duration::from_millis(100),
            track_gms: false,
            seed: 99,
            lean: false,
        };
        Scenario::new("det", cfg)
            .task(TaskSpec::new("a", 3, BehaviorSpec::Inf))
            .task(TaskSpec::new(
                "b",
                1,
                BehaviorSpec::Interact {
                    think: Duration::from_millis(20),
                    burst: Duration::from_millis(2),
                },
            ))
            .task(
                TaskSpec::new(
                    "c",
                    2,
                    BehaviorSpec::Compile {
                        burst: Duration::from_millis(30),
                        io: Duration::from_millis(1),
                    },
                )
                .replicated(3),
            )
            .run(PolicySpec::sfs().build(2))
    };
    let (r1, r2) = (build(), build());
    for (a, b) in r1.tasks.iter().zip(r2.tasks.iter()) {
        assert_eq!(a.service, b.service, "{}", a.name);
        assert_eq!(a.completions, b.completions, "{}", a.name);
        assert_eq!(a.series.points(), b.series.points(), "{}", a.name);
    }
    assert_eq!(r1.ctx_switches, r2.ctx_switches);
}

/// Wake flooring `S_i = max(F_i, v)` (§2.3) must keep holding once the
/// virtual time has run past the old §3.2 renormalisation threshold
/// (10¹⁴): the `i128` tags carry on without a shift.
fn wake_flooring_past_old_threshold(weights: &[u64], rounds: &[(u8, u8)]) {
    // Even the smallest generated run (≥500 quanta of 10⁴ s across a
    // total weight ≤40) pushes v past 1.25e14; the longest (≈12 060
    // quanta) stays under 1.2e17 ns, inside `u64`.
    let quantum = Duration::from_secs(10_000);
    let cfg = SfsConfig {
        quantum,
        ..SfsConfig::default()
    };
    let mut sched = Sfs::with_config(1, cfg);
    let mut now = Time::ZERO;
    let mut blocked: Vec<TaskId> = Vec::new();
    for (i, w) in weights.iter().enumerate() {
        sched.attach(TaskId(i as u64), weight(*w), now);
    }
    let mut on_cpu: Option<TaskId> = None;
    for &(quanta, action) in rounds {
        for _ in 0..u64::from(quanta) * 25 {
            if on_cpu.is_none() {
                on_cpu = sched.pick_next(CpuId(0), now);
            }
            let Some(id) = on_cpu.take() else { break };
            now += quantum;
            sched.put_prev(id, quantum, SwitchReason::Preempted, now);
        }
        if action % 2 == 0 {
            // Block whatever runs next (only a running task can block).
            if on_cpu.is_none() {
                on_cpu = sched.pick_next(CpuId(0), now);
            }
            if let Some(id) = on_cpu.take() {
                if sched.nr_runnable() > 1 {
                    now += quantum / 2;
                    sched.put_prev(id, quantum / 2, SwitchReason::Blocked, now);
                    blocked.push(id);
                } else {
                    now += quantum;
                    sched.put_prev(id, quantum, SwitchReason::Preempted, now);
                }
            }
        } else if !blocked.is_empty() {
            let id = blocked.remove(usize::from(action) % blocked.len());
            // The §2.3 wake floor, asserted against the *pre-wake*
            // finish tag and virtual time.
            let f_pre = sched.tags_of(id).unwrap().finish_tag;
            let v_pre = sched.virtual_time().unwrap();
            sched.wake(id, now);
            let tags = sched.tags_of(id).unwrap();
            assert_eq!(
                tags.start_tag,
                f_pre.max(v_pre),
                "wake flooring violated for {id}"
            );
            assert!(tags.start_tag >= v_pre, "woken task owes credit");
        }
        sched.check_invariants();
    }
    let v = sched.virtual_time().unwrap();
    assert!(
        v > Fixed::from_int(100_000_000_000_000),
        "run never passed the old threshold (v = {v:?})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn wake_flooring_holds_past_the_old_renormalisation_threshold(
        weights in proptest::collection::vec(1u64..9, 2..6),
        rounds in proptest::collection::vec((1u8..9, 0u8..8), 20..60),
    ) {
        wake_flooring_past_old_threshold(&weights, &rounds);
    }
}
