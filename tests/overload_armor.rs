//! Overload-armor integration tests: panic isolation on the real-thread
//! substrate, weight conservation when tasks die while blocked, and a
//! chaos differential — random fault scripts against flat and
//! hierarchical SFS with the scheduler's invariants audited after every
//! recovery.

use proptest::prelude::*;
use sfs::prelude::*;

fn quick_cfg(cpus: u32, ms: u64) -> SimConfig {
    SimConfig {
        cpus,
        duration: Duration::from_millis(ms),
        ..SimConfig::default()
    }
}

/// Satellite (a): a panicking task on the rt substrate is reaped, its
/// weight is released, and the survivors converge to their 3:1 split.
#[test]
fn rt_panic_is_isolated_and_survivors_split_correctly() {
    let scenario = Scenario::new("rt-panic", quick_cfg(1, 450))
        .task(TaskSpec::new("bomb", 5, BehaviorSpec::Inf))
        .task(TaskSpec::new("w3", 3, BehaviorSpec::Inf))
        .task(TaskSpec::new("w1", 1, BehaviorSpec::Inf))
        .with_faults(FaultPlan::new().with(Time::from_millis(60), FaultKind::Panic { task: 0 }));
    let rep = Experiment::on(scenario, RtSubstrate::default())
        .run("sfs:quantum=2ms")
        .unwrap();
    assert_eq!(rep.task("bomb").unwrap().fate, TaskFate::Reaped);
    assert_eq!(rep.health.invariant_violations, 0, "{:?}", rep.health);
    // If the bomb's weight 5 leaked, the survivors would keep only
    // 3/9 and 1/9 of the machine instead of 3/4 and 1/4.
    let (s3, s1) = (
        rep.task("w3").unwrap().service.as_secs_f64(),
        rep.task("w1").unwrap().service.as_secs_f64(),
    );
    let ratio = s3 / s1.max(1e-9);
    assert!((1.8..4.8).contains(&ratio), "w3:w1 after reap = {ratio:.2}");
    assert!(
        s3 + s1 > 0.24,
        "survivors must reclaim the bomb's share: {s3:.3}+{s1:.3}s of ~0.39s"
    );
}

/// Satellite (b): killing (detaching or reaping) a *blocked* task must
/// release its weight under every policy — flat, hierarchical, and
/// sharded — and leave the scheduler's books audit-clean.
#[test]
fn kill_while_blocked_conserves_weight_in_every_policy() {
    for spec in [
        "sfs:quantum=1ms",
        "sfs:groups(a=sfs:quantum=1ms,b=sfs:quantum=1ms)",
        "sfs:quantum=1ms,shards=2",
    ] {
        let policy: PolicySpec = spec.parse().unwrap();
        let mut sched = policy.build(2);
        let q = Duration::from_millis(1);
        let mut now = Time::ZERO;
        let (ta, tb) = (sched.bind_tenant("a"), sched.bind_tenant("b"));
        sched.attach_tenant(TaskId(1), weight(4), ta, now);
        sched.attach_tenant(TaskId(2), weight(1), tb, now);
        sched.attach_tenant(TaskId(3), weight(1), tb, now);
        // Run the victim for one quantum, then block it.
        let first = sched.pick_next(CpuId(0), now).expect("work is queued");
        now += q;
        sched.put_prev(first, q, SwitchReason::Blocked, now);
        sched.check_invariants();
        // Kill it while blocked: both exit routes must release weight.
        if first == TaskId(1) {
            sched.detach(first, now);
        } else {
            sched.reap(first, now);
        }
        assert_eq!(sched.weight_of(first), None, "{spec}: victim survived");
        sched.check_invariants();
        // The survivors still schedule; the dead task never reappears.
        let mut seen = Vec::new();
        for i in 0..8u32 {
            if let Some(id) = sched.pick_next(CpuId(i % 2), now) {
                assert_ne!(id, first, "{spec}: killed task was picked again");
                if !seen.contains(&id) {
                    seen.push(id);
                }
                now += q;
                sched.put_prev(id, q, SwitchReason::Preempted, now);
            }
        }
        assert_eq!(seen.len(), 2, "{spec}: a survivor starved after kill");
        sched.check_invariants();
    }
}

/// Admission against a flooding tenant: four tenants of equal group
/// share, the last flooding 16 weight-100 tasks. `admit(max=4,...)`
/// admits every honest tenant whole and refuses exactly the rogue's 12
/// surplus arrivals, and the honest tenants sit at least as close to
/// their 1/4 entitlement as under unarmored flat SFS.
#[test]
fn admission_caps_the_rogue_flood() {
    let mut scenario = Scenario::new("rogue-flood", quick_cfg(4, 1_000));
    for (t, w, n) in [(0, 1, 2), (1, 1, 2), (2, 1, 2), (3, 100, 16)] {
        let name = format!("t{t}");
        scenario = scenario.tenant(
            &name,
            [TaskSpec::new(&name, w, BehaviorSpec::Inf).replicated(n)],
        );
    }
    let exp = Experiment::new(scenario);
    let groups = "t0=sfs:quantum=5ms,t1=sfs:quantum=5ms,t2=sfs:quantum=5ms,t3=sfs:quantum=5ms";
    let armored = exp
        .run(format!("sfs:groups({groups}),admit(max=4,rate=500/s)").as_str())
        .unwrap();
    let flat = exp.run("sfs:quantum=5ms").unwrap();
    assert_eq!(armored.health.rejected, 12, "{:?}", armored.health);
    assert_eq!(flat.health.rejected, 0);
    // Worst honest tenant's distance from its entitlement, summing
    // replicas by name prefix (flat runs carry no tenant ids).
    let worst_err = |rep: &RunReport| {
        let shares = rep.shares();
        (0..3).fold(0.0_f64, |worst, t| {
            let prefix = format!("t{t}#");
            let named = rep.tasks.iter().zip(&shares);
            let share: f64 = named
                .filter(|(task, _)| task.name.starts_with(&prefix))
                .map(|(_, s)| s)
                .sum();
            worst.max((share - 0.25).abs())
        })
    };
    let (armored_err, flat_err) = (worst_err(&armored), worst_err(&flat));
    assert!(armored_err < 0.05, "tenant starved: {armored_err:.4}");
    assert!(
        armored_err <= flat_err + 0.02,
        "armor isolates worse than flat SFS: {armored_err:.4} vs {flat_err:.4}"
    );
}

/// Runs a fixed 4-task scenario with `plan` injected and audits the
/// resulting report: every fault recovered, zero invariant violations,
/// and no task lost or double-counted.
fn audit_chaos_run(policy: &str, plan: &FaultPlan) {
    let scenario = Scenario::new("chaos-prop", quick_cfg(2, 200))
        .tenant(
            "a",
            [TaskSpec::new("a", 2, BehaviorSpec::Inf).replicated(2)],
        )
        .tenant(
            "b",
            [TaskSpec::new("b", 1, BehaviorSpec::Inf).replicated(2)],
        )
        .with_faults(plan.clone());
    let rep = Experiment::new(scenario).run(policy).unwrap();
    assert_eq!(
        rep.health.faults_recovered, rep.health.faults_injected,
        "{policy}: unrecovered faults with plan {plan}"
    );
    assert_eq!(
        rep.health.invariant_violations, 0,
        "{policy}: invariant violated with plan {plan}"
    );
    // No task lost or double-counted: all four outcomes present, each
    // exactly once, each with a coherent fate.
    assert_eq!(rep.tasks.len(), 4, "{policy}: task lost with plan {plan}");
    let mut names: Vec<&str> = rep.tasks.iter().map(|t| t.name.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), 4, "{policy}: task double-counted");
    for t in &rep.tasks {
        if t.fate == TaskFate::Rejected {
            assert_eq!(t.service, Duration::ZERO, "{policy}: rejected task ran");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Satellite (c): random fault scripts against flat and
    /// hierarchical SFS. Whatever the script does — panics, stalls,
    /// jitter, dropped wakeups, in any order — both schedulers must
    /// recover every fault with audit-clean books and account every
    /// task exactly once.
    #[test]
    fn chaos_differential_flat_vs_hier(seed in 0u64..u64::MAX, count in 1usize..8) {
        let plan = FaultPlan::generate(seed, Time::from_millis(200), 4, 2, count);
        audit_chaos_run("sfs:quantum=2ms", &plan);
        audit_chaos_run("sfs:groups(a*2=sfs:quantum=2ms,b=sfs:quantum=2ms)", &plan);
    }
}
