//! Differential and property tests for hierarchical (tenant-group)
//! SFS — the §2-level guarantees the `sfs:groups(...)` policy makes:
//!
//! * **Flattening.** A two-level tree whose groups hold equal-weight
//!   members and carry the sum of their members' weights as the group
//!   share is service-equivalent to flat SFS over the flattened
//!   weights (the capacity-aware §2.1 readjustment exists precisely to
//!   make this hold when a group can occupy several CPUs).
//! * **Isolation.** A tenant that inflates its internal weights gains
//!   nothing: shares between tenants are fixed by group shares alone.
//! * **Grammar.** The nested `groups(...)` clause (with shares,
//!   sub-options and `shards=N`) round-trips through `Display∘parse`.
//! * **Conservation.** Group bookkeeping (share totals, capacities,
//!   held φ_g) survives arbitrary churn, checked by the scheduler's
//!   own invariant auditor after every event.

use proptest::prelude::*;
use sfs::prelude::*;

/// Builds the paired policies of the flattening property: a
/// hierarchical spec with one group per entry (share = members ×
/// weight) and the flat SFS it must be equivalent to.
fn paired_policies(groups: &[(usize, u64)]) -> (PolicySpec, PolicySpec) {
    let q = Duration::from_millis(5);
    let hier = PolicySpec::sfs_over(groups.iter().enumerate().map(|(j, &(n, w))| {
        GroupSpec::new(&format!("g{j}"), PolicySpec::sfs().with_quantum(q)).with_share(n as u64 * w)
    }));
    (hier, PolicySpec::sfs().with_quantum(q))
}

fn tenant_scenario(groups: &[(usize, u64)], cpus: u32) -> Scenario {
    let cfg = SimConfig {
        cpus,
        duration: Duration::from_secs(4),
        sample_every: Duration::from_secs(1),
        ..SimConfig::default()
    };
    let mut scenario = Scenario::new("flatten", cfg);
    for (j, &(n, w)) in groups.iter().enumerate() {
        scenario = scenario.tenant(
            &format!("g{j}"),
            [TaskSpec::new(&format!("t{j}"), w, BehaviorSpec::Inf).replicated(n)],
        );
    }
    scenario
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Equal intra-group weights, group share = Σ member weights ⇒
    /// every task's share matches its share under flat SFS on the
    /// flattened weights, within scheduling-quantum noise.
    #[test]
    fn hierarchy_with_summed_shares_flattens_to_global_sfs(
        groups in proptest::collection::vec((1usize..4, 1u64..5), 2..5),
        cpus in 2u32..4,
    ) {
        let (hier, flat) = paired_policies(&groups);
        let exp = Experiment::new(tenant_scenario(&groups, cpus));
        let hier_rep = exp.run(&hier).expect("hier run");
        let flat_rep = exp.run(&flat).expect("flat run");
        let (hs, fs) = (hier_rep.shares(), flat_rep.shares());
        for ((h, f), t) in hs.iter().zip(&fs).zip(&hier_rep.tasks) {
            prop_assert!(
                (h - f).abs() < 0.05,
                "{}: hier share {h:.4} vs flat {f:.4} (groups {groups:?}, {cpus} cpus)",
                t.name
            );
        }
    }
}

/// A tenant that floods the machine with weight-inflated tasks must
/// not push another tenant below its group entitlement — while under
/// flat SFS the same flood starves the victim. This is the paper's
/// isolation argument lifted to tenant granularity.
#[test]
fn weight_inflating_tenant_cannot_starve_its_neighbours() {
    let q = Duration::from_millis(5);
    let cfg = SimConfig {
        cpus: 2,
        duration: Duration::from_secs(4),
        sample_every: Duration::from_secs(1),
        ..SimConfig::default()
    };
    let scenario = Scenario::new("isolation", cfg)
        .tenant(
            "victim",
            [TaskSpec::new("v", 1, BehaviorSpec::Inf).replicated(2)],
        )
        .tenant(
            "rogue",
            [TaskSpec::new("r", 100, BehaviorSpec::Inf).replicated(8)],
        );
    let exp = Experiment::new(scenario);

    let hier = PolicySpec::sfs_over([
        GroupSpec::new("victim", PolicySpec::sfs().with_quantum(q)),
        GroupSpec::new("rogue", PolicySpec::sfs().with_quantum(q)),
    ]);
    let rep = exp.run(&hier).unwrap();
    let shares = rep.tenant_shares();
    // Equal group shares: the victim tenant keeps half the machine no
    // matter what weights the rogue claims internally.
    assert!(
        (shares[0].1 - 0.5).abs() < 0.03,
        "victim share {:.4} under hier",
        shares[0].1
    );

    // Flat SFS baseline: the same flood takes nearly everything.
    let flat_rep = exp.run(PolicySpec::sfs().with_quantum(q)).unwrap();
    let victim_flat: f64 = flat_rep
        .shares()
        .iter()
        .zip(&flat_rep.tasks)
        .filter(|(_, t)| t.name.starts_with('v'))
        .map(|(s, _)| s)
        .sum();
    assert!(
        victim_flat < 0.1,
        "flat SFS should let the flood win ({victim_flat:.4})"
    );
}

/// Random hierarchical specs — groups with shares, sub-policy options
/// and optional sharding — must round-trip `Display ∘ parse` exactly.
fn build_hier_spec(entries: &[(usize, u64, u64, u64)], shards: Option<u32>) -> PolicySpec {
    const NAMES: [&str; 4] = ["alpha", "beta", "gamma", "delta"];
    let groups = entries
        .iter()
        .enumerate()
        .map(|(j, &(kind, share, q_us, knob))| {
            let sub = match kind % 4 {
                0 => PolicySpec::sfs().with_quantum(Duration::from_micros(1 + q_us)),
                1 => {
                    let mut p = PolicySpec::sfq();
                    if knob % 2 == 1 {
                        p = p.with_readjustment();
                    }
                    p
                }
                2 => PolicySpec::time_sharing().with_ticks(1 + (knob as i64 % 20)),
                _ => PolicySpec::round_robin(),
            };
            GroupSpec::new(NAMES[j], sub).with_share(1 + share % 9)
        });
    let spec = PolicySpec::sfs_over(groups);
    match shards {
        Some(n) => spec.with_shards(n),
        None => spec,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn nested_grammar_round_trips(
        entries in proptest::collection::vec(
            (0usize..4, 0u64..16, 0u64..5_000_000, 0u64..100),
            1..5,
        ),
        shards in 0u32..5,
    ) {
        // 0 and 1 mean "unsharded": exercise both plain and sharded forms.
        let spec = build_hier_spec(&entries, (shards >= 2).then_some(shards));
        let s = spec.to_string();
        let reparsed: PolicySpec = s.parse().expect("canonical form must parse");
        prop_assert_eq!(reparsed, spec, "string form: {}", s);
    }
}

/// One random scheduler operation against a hierarchical scheduler
/// whose members are spread across three tenants.
#[derive(Debug, Clone)]
enum Op {
    Spawn(u64, usize),
    KillReady(usize),
    BlockRunning(usize),
    WakeOne(usize),
    RunQuanta(u8),
    Reweigh(usize, u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        ((1u64..50), (0usize..3)).prop_map(|(w, g)| Op::Spawn(w, g)),
        (0usize..64).prop_map(Op::KillReady),
        (0usize..64).prop_map(Op::BlockRunning),
        (0usize..64).prop_map(Op::WakeOne),
        (1u8..6).prop_map(Op::RunQuanta),
        ((0usize..64), (1u64..50)).prop_map(|(i, w)| Op::Reweigh(i, w)),
    ]
}

/// Drives the hierarchical scheduler through random tenant-tagged
/// churn on a lockstep 2-CPU machine. `check_invariants` after every
/// event re-derives the group share total and the capacity-aware
/// readjustment from scratch and compares them to the held values, so
/// this is the conservation property of group weights under
/// kill/arrival churn.
fn hier_churn(ops: &[Op]) {
    let spec = PolicySpec::sfs_over([
        GroupSpec::new("a", PolicySpec::sfs()).with_share(3),
        GroupSpec::new("b", PolicySpec::sfq()).with_share(2),
        GroupSpec::new(
            "c",
            PolicySpec::sfs().with_quantum(Duration::from_millis(5)),
        ),
    ]);
    let mut sched = spec.build(2);
    let tenants: Vec<TenantId> = ["a", "b", "c"]
        .iter()
        .map(|g| sched.bind_tenant(g).expect("group binds"))
        .collect();
    let quantum = Duration::from_millis(1);
    let mut now = Time::ZERO;
    let mut next_id = 0u64;
    let mut ready: Vec<TaskId> = Vec::new();
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
            Op::Spawn(w, g) => {
                next_id += 1;
                let id = TaskId(next_id);
                sched.attach_tenant(id, weight(*w), Some(tenants[*g]), now);
                assert_eq!(sched.tenant_of(id), Some(tenants[*g]));
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
        assert_eq!(
            sched.nr_tasks(),
            ready.len() + blocked.len() + running.iter().flatten().count(),
            "task count mismatch after {op:?}"
        );
        sched.check_invariants();
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
    fn group_shares_conserve_under_churn(
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        hier_churn(&ops);
    }
}
