//! Properties of the `PolicySpec` registry that must hold for *every*
//! registered policy, present and future:
//!
//! * `parse ∘ to_string` is the identity on any constructible spec
//!   (randomised over kinds and options);
//! * the simulator never manufactures CPU time: total delivered service
//!   is bounded by `cpus × duration` under every policy on randomised
//!   scenarios, driven end to end through the registry and the
//!   `Experiment` front-end — and again with the policy's structural
//!   invariants audited after every scheduler event.

use proptest::prelude::*;
use sfs::core::policy::PolicyKind;
use sfs::prelude::*;

/// Builds a random-but-valid spec from raw fuzz inputs: a kind index
/// plus an option bitmask, applying only the options that exist for
/// the kind (mirroring the builder's own validity rules).
fn build_spec(kind_idx: usize, quantum_us: u64, knob: u64, bits: u64) -> PolicySpec {
    let kind = PolicyKind::ALL[kind_idx % PolicyKind::ALL.len()];
    let mut spec = PolicySpec::new(kind);
    let quantum = Duration::from_micros(quantum_us);
    match kind {
        PolicyKind::Sfs => {
            if bits & 1 != 0 {
                spec = spec.with_quantum(quantum);
            }
        }
        PolicyKind::Sfq | PolicyKind::Stride | PolicyKind::Bvt | PolicyKind::Wfq => {
            if bits & 1 != 0 {
                spec = spec.with_quantum(quantum);
            }
            if bits & 2 != 0 {
                spec = spec.with_readjustment();
            }
        }
        PolicyKind::TimeSharing => {
            if bits & 1 != 0 {
                spec = spec.with_ticks(1 + (knob as i64 % 50));
            }
        }
        PolicyKind::RoundRobin => {
            if bits & 1 != 0 {
                spec = spec.with_quantum(quantum);
            }
        }
    }
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn policy_spec_round_trips_for_every_kind(
        kind_idx in 0usize..7,
        quantum_us in 1u64..5_000_000,
        knob in 0u64..10_000,
        bits in 0u64..32,
    ) {
        let spec = build_spec(kind_idx, quantum_us, knob, bits);
        let s = spec.to_string();
        let reparsed: PolicySpec = s.parse().expect("canonical form must parse");
        prop_assert_eq!(reparsed, spec, "string form: {}", s);
    }
}

/// Forwards every [`Scheduler`] call to the wrapped policy and audits
/// its structural invariants after each one that mutates it.
struct Audited(Box<dyn Scheduler>);

impl Audited {
    fn then_check<R>(&mut self, op: impl FnOnce(&mut dyn Scheduler) -> R) -> R {
        let r = op(self.0.as_mut());
        self.0.check_invariants();
        r
    }
}

impl Scheduler for Audited {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn cpus(&self) -> u32 {
        self.0.cpus()
    }
    fn attach(&mut self, id: TaskId, w: Weight, now: Time) {
        self.then_check(|s| s.attach(id, w, now));
    }
    fn bind_tenant(&self, group: &str) -> Option<TenantId> {
        self.0.bind_tenant(group)
    }
    fn attach_tenant(&mut self, id: TaskId, w: Weight, tenant: Option<TenantId>, now: Time) {
        self.then_check(|s| s.attach_tenant(id, w, tenant, now));
    }
    fn attach_batch(&mut self, batch: &[(TaskId, Weight, Option<TenantId>)], now: Time) {
        self.then_check(|s| s.attach_batch(batch, now));
    }
    fn arrive_batch(&mut self, batch: &[(TaskId, Weight, Option<TenantId>)], now: Time) {
        self.then_check(|s| s.arrive_batch(batch, now));
    }
    fn wake_batch(&mut self, ids: &[TaskId], now: Time) {
        self.then_check(|s| s.wake_batch(ids, now));
    }
    fn tenant_of(&self, id: TaskId) -> Option<TenantId> {
        self.0.tenant_of(id)
    }
    fn detach(&mut self, id: TaskId, now: Time) {
        self.then_check(|s| s.detach(id, now));
    }
    fn reap(&mut self, id: TaskId, now: Time) {
        self.then_check(|s| s.reap(id, now));
    }
    fn set_weight(&mut self, id: TaskId, w: Weight, now: Time) {
        self.then_check(|s| s.set_weight(id, w, now));
    }
    fn weight_of(&self, id: TaskId) -> Option<Weight> {
        self.0.weight_of(id)
    }
    fn adjusted_weight_of(&self, id: TaskId) -> Option<Fixed> {
        self.0.adjusted_weight_of(id)
    }
    fn wake(&mut self, id: TaskId, now: Time) {
        self.then_check(|s| s.wake(id, now));
    }
    fn pick_next(&mut self, cpu: CpuId, now: Time) -> Option<TaskId> {
        self.then_check(|s| s.pick_next(cpu, now))
    }
    fn put_prev(&mut self, id: TaskId, ran: Duration, reason: SwitchReason, now: Time) {
        self.then_check(|s| s.put_prev(id, ran, reason, now));
    }
    fn time_slice(&self, id: TaskId) -> Duration {
        self.0.time_slice(id)
    }
    fn wake_preempts(&self, woken: TaskId, running: TaskId, ran: Duration, now: Time) -> bool {
        self.0.wake_preempts(woken, running, ran, now)
    }
    fn steal_candidate(&self) -> Option<TaskId> {
        self.0.steal_candidate()
    }
    fn charged_surplus(&self, id: TaskId, ran: Duration, now: Time) -> Option<Fixed> {
        self.0.charged_surplus(id, ran, now)
    }
    fn nr_runnable(&self) -> usize {
        self.0.nr_runnable()
    }
    fn nr_tasks(&self) -> usize {
        self.0.nr_tasks()
    }
    fn stats(&self) -> SchedStats {
        self.0.stats()
    }
    fn virtual_time(&self) -> Option<Fixed> {
        self.0.virtual_time()
    }
    fn check_invariants(&self) {
        self.0.check_invariants();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn no_policy_manufactures_cpu_time(
        weights in proptest::collection::vec((1u64..50, 0u8..2), 1..6),
        cpus in 1u32..4,
        stream_weight in 1u64..20,
    ) {
        let cfg = SimConfig {
            cpus,
            duration: Duration::from_secs(1),
            sample_every: Duration::from_millis(250),
            ..SimConfig::default()
        };
        let mut scenario = Scenario::new("conservation", cfg);
        for (i, &(w, kind)) in weights.iter().enumerate() {
            let behavior = if kind == 0 {
                BehaviorSpec::Inf
            } else {
                BehaviorSpec::Compile {
                    burst: Duration::from_millis(40),
                    io: Duration::from_millis(2),
                }
            };
            scenario = scenario.task(TaskSpec::new(&format!("t{i}"), w, behavior));
        }
        scenario = scenario.stream(
            StreamSpec::new(
                "jobs",
                stream_weight,
                BehaviorSpec::Finite(Duration::from_millis(30)),
            )
            .until(Time::from_secs(1)),
        );

        let budget = Duration::from_secs(1) * u64::from(cpus);
        let exp = Experiment::new(scenario.clone());
        // Every policy in the registry, end to end through the one
        // front-end: a policy added to the registry automatically joins
        // this property.
        let cmp = exp.compare(PolicySpec::registered())
            .expect("well-formed scenario");
        for run in &cmp.runs {
            let total = run.total_service();
            prop_assert!(
                total <= budget,
                "{} delivered {total} > budget {budget} on {cpus} cpus",
                run.sched_name
            );
        }
        // The same runs with every policy's invariants checked after
        // each event (a violation panics): auditing observes only, so
        // the delivered service is the compare run's.
        for (spec, run) in PolicySpec::registered().iter().zip(&cmp.runs) {
            let audited = scenario
                .try_run(Box::new(Audited(spec.build(cpus))))
                .expect("well-formed scenario");
            prop_assert_eq!(audited.total_service(), run.total_service(), "{}", run.sched_name);
        }
    }
}

/// Task ids are opaque `u64`s: every policy's per-task tables must take
/// ids far beyond any dense range — `TaskMap`'s spill path — next to a
/// small one, through a whole attach / run / block / wake / exit / detach
/// life, under every registered kind, a `groups(...)` hierarchy and
/// `shards=2`.
#[test]
fn every_policy_carries_arbitrary_u64_task_ids() {
    let grouped: PolicySpec = "sfs:groups(a*2=sfs,b=sfq)".parse().expect("valid spec");
    let mut specs = PolicySpec::registered();
    specs.push(grouped);
    let sharded: Vec<PolicySpec> = specs.iter().map(|s| s.clone().with_shards(2)).collect();
    specs.extend(sharded);

    let ids = [TaskId(u64::MAX), TaskId(1 << 40), TaskId(3)];
    for spec in specs {
        let mut sched = spec.build(2);
        let mut now = Time::ZERO;
        for (i, &id) in ids.iter().enumerate() {
            let tenant = (!spec.groups().is_empty()).then_some(TenantId(i as u32 % 2));
            sched.attach_tenant(id, weight(2), tenant, now);
        }
        assert_eq!(sched.nr_tasks(), ids.len(), "{spec}");
        assert_eq!(sched.weight_of(TaskId(u64::MAX)), Some(weight(2)), "{spec}");

        let q = Duration::from_millis(1);
        let mut ran = Vec::new();
        for round in 0..30 {
            let picked: Vec<TaskId> = (0..2)
                .filter_map(|c| sched.pick_next(CpuId(c), now))
                .collect();
            now += q;
            for &id in &picked {
                // Every tenth round the dispatched tasks block and
                // are woken again instead of being requeued.
                if round % 10 == 9 {
                    sched.put_prev(id, q, SwitchReason::Blocked, now);
                    sched.wake(id, now);
                } else {
                    sched.put_prev(id, q, SwitchReason::Preempted, now);
                }
            }
            ran.extend(picked);
            sched.check_invariants();
        }
        for id in ids {
            assert!(ran.contains(&id), "{spec}: {id} never ran");
        }

        // One leaves from a CPU, the others from the run queue.
        let exiting = sched.pick_next(CpuId(0), now).expect("runnable tasks");
        sched.put_prev(exiting, q, SwitchReason::Exited, now);
        for id in ids.into_iter().filter(|&id| id != exiting) {
            sched.detach(id, now);
        }
        assert_eq!(sched.nr_tasks(), 0, "{spec}");
        assert_eq!(sched.nr_runnable(), 0, "{spec}");
        sched.check_invariants();
    }
}
