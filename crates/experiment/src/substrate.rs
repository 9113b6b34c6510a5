//! Execution substrates: anything that can run a [`Scenario`] under a
//! [`PolicySpec`] and produce a common [`RunReport`].
//!
//! Two are provided, mirroring the repository's two run-time stacks:
//!
//! * [`SimSubstrate`] — the deterministic discrete-event simulator
//!   (`sfs-sim`). Exact, fast, bit-reproducible; the default.
//! * [`RtSubstrate`] — the real-thread runtime (`sfs-rt`). The same
//!   declarative scenario drives actual OS threads through the
//!   userspace executor: arrivals become delayed spawns, kill times
//!   become behaviour deadlines, and sequential job streams become
//!   spawn-join loops. Runs take the scenario's duration in *wall
//!   clock* time, so keep rt scenarios short.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Instant;

use sfs_core::fault::FaultKind;
use sfs_core::policy::PolicySpec;
use sfs_core::task::{TenantId, Weight};
use sfs_core::time::{Duration, Time};
use sfs_metrics::Summary;
use sfs_rt::{drive_recording_until, DriveRecord, Executor, RtConfig};
use sfs_sim::{RunHealth, Scenario, StreamSpec, TaskSpec};
use sfs_trace::TraceRecorder;

use crate::report::{RunReport, TaskFate, TaskOutcome};
use crate::ExperimentError;

/// An execution environment for scenarios.
pub trait Substrate {
    /// Short substrate name for reports (`"sim"`, `"rt"`).
    fn name(&self) -> &'static str;

    /// Runs the scenario under the policy with scheduling events
    /// recorded into `rec` (pass [`TraceRecorder::off`] for a traceless
    /// run — the recorder hooks then cost one atomic load each).
    fn run_traced(
        &self,
        scenario: &Scenario,
        policy: &PolicySpec,
        rec: TraceRecorder,
    ) -> Result<RunReport, ExperimentError>;

    /// Runs the scenario under the policy, producing the common report.
    fn run(&self, scenario: &Scenario, policy: &PolicySpec) -> Result<RunReport, ExperimentError> {
        self.run_traced(scenario, policy, TraceRecorder::off())
    }
}

/// Rejects scenario tenants the policy's `groups(...)` clause does not
/// declare. Flat policies ignore tenant bindings entirely (the tenant
/// builder then only names tasks), but under a hierarchical policy an
/// unmatched tenant would silently run outside every group — a typed
/// error is the only honest outcome.
fn check_tenants(scenario: &Scenario, policy: &PolicySpec) -> Result<(), ExperimentError> {
    if policy.groups().is_empty() {
        return Ok(());
    }
    for spec in &scenario.tasks {
        if let Some(t) = &spec.tenant {
            if !policy.groups().iter().any(|g| g.name() == t.as_str()) {
                return Err(ExperimentError::UnknownTenant { tenant: t.clone() });
            }
        }
    }
    Ok(())
}

/// The deterministic discrete-event simulator substrate.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimSubstrate;

impl Substrate for SimSubstrate {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn run_traced(
        &self,
        scenario: &Scenario,
        policy: &PolicySpec,
        rec: TraceRecorder,
    ) -> Result<RunReport, ExperimentError> {
        // Validate before building: scheduler constructors assert on a
        // zero-CPU machine, and that must be a typed error, not a panic.
        scenario.validate()?;
        check_tenants(scenario, policy)?;
        // The policy's `admit(...)` clause (if any) gates arrivals; the
        // scenario's fault plan (if any) rides inside `try_run_*`.
        let rep = scenario.try_run_traced_admitted(
            policy.build(scenario.config.cpus),
            rec,
            policy.admission().copied(),
        )?;
        Ok(RunReport::from_sim(&scenario.name, policy.clone(), rep))
    }
}

/// The real-thread runtime substrate: the scenario plays out in wall
/// clock time on OS threads gated by virtual CPUs.
#[derive(Debug, Clone, Copy)]
pub struct RtSubstrate {
    /// Quantum-expiry scan interval of the executor's timer thread.
    pub timer_interval: Duration,
}

impl Default for RtSubstrate {
    fn default() -> RtSubstrate {
        RtSubstrate {
            timer_interval: Duration::from_micros(250),
        }
    }
}

fn now_time(epoch: Instant) -> Time {
    Time(u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX))
}

#[expect(clippy::disallowed_methods, reason = "paces arrivals in real time")]
fn sleep_until(epoch: Instant, t: Time) {
    let now = now_time(epoch);
    if t > now {
        std::thread::sleep(t.since(now).to_std());
    }
}

/// Spawns one executor task driving `spec`'s behaviour (bounded by
/// `stop_at`, if any), waits for it to finish, and returns its outcome.
///
/// `panic_at` wires an injected [`FaultKind::Panic`]: the body behaves
/// normally until that instant, then panics — the executor's reap path
/// must recover. A spawn refused by the policy's admission control
/// yields a zero-service [`TaskFate::Rejected`] outcome.
#[expect(clippy::too_many_arguments, reason = "one task's whole setup")]
fn run_rt_task(
    ex: &Executor,
    epoch: Instant,
    name: &str,
    weight: Weight,
    spec: &TaskSpec,
    tenant: Option<TenantId>,
    seed: u64,
    arrived: Time,
    panic_at: Option<Time>,
) -> TaskOutcome {
    let (tx, rx) = mpsc::channel::<(DriveRecord, Time)>();
    let behavior_spec = spec.behavior.clone();
    let stop_at = spec.stop_at;
    let spawned = ex.try_spawn_in_tenant(name, weight, tenant, move |ctx| {
        let behavior = behavior_spec.build(seed);
        // `stop_at` becomes a drive deadline: the phase in flight is
        // aborted without counting a completion, matching the
        // simulator's kill event. An injected panic caps the drive the
        // same way, then unwinds instead of exiting.
        let deadline = match panic_at {
            Some(at) => Some(stop_at.map_or(at, |s| s.min(at))),
            None => stop_at,
        };
        let rec = drive_recording_until(ctx, behavior, epoch, deadline);
        if let Some(at) = panic_at {
            if now_time(epoch) >= at {
                // Dropping `tx` tells the waiter the body unwound.
                panic!("injected fault: panic at {}ns", at.as_nanos());
            }
        }
        let _ = tx.send((rec, now_time(epoch)));
    });
    let handle = match spawned {
        Ok(h) => h,
        Err(_reason) => {
            return TaskOutcome {
                name: name.to_string(),
                weight: weight.get(),
                tenant,
                service: Duration::ZERO,
                completions: 0,
                responses: None,
                arrived,
                exited: Some(arrived),
                fate: TaskFate::Rejected,
            }
        }
    };
    // A panicking body drops the sender; fall back to an empty record.
    let (rec, ended, reaped) = match rx.recv() {
        Ok((rec, ended)) => (rec, ended, false),
        Err(_) => (DriveRecord::default(), now_time(epoch), true),
    };
    let service = handle.join_service();
    TaskOutcome {
        name: name.to_string(),
        weight: weight.get(),
        tenant,
        service,
        completions: rec.completions,
        responses: if rec.responses_ms.is_empty() {
            None
        } else {
            Some(Summary::from(rec.responses_ms.iter().copied()))
        },
        arrived,
        // Killed tasks record their kill time as the exit, like the
        // simulator does; reaped tasks exit at the reap.
        exited: (rec.finished || rec.deadline_hit || reaped).then_some(ended),
        fate: if reaped {
            TaskFate::Reaped
        } else {
            TaskFate::Ran
        },
    }
}

/// Issues a stream's jobs back to back until its horizon; each job is a
/// fresh executor task, arriving when the previous one exits (plus the
/// configured gap) — exactly the simulator's stream semantics.
fn run_rt_stream(
    ex: &Executor,
    epoch: Instant,
    stream: &StreamSpec,
    horizon: Time,
    seeds: &AtomicU64,
    outcomes: &Mutex<Vec<TaskOutcome>>,
) {
    let weight = Weight::new(stream.weight).expect("validated non-zero");
    let horizon = horizon.min(stream.until);
    let mut next = stream.first;
    let mut n = 0u64;
    while next < horizon {
        sleep_until(epoch, next);
        if now_time(epoch) >= horizon {
            break;
        }
        n += 1;
        let job = TaskSpec::new(
            &format!("{}#{}", stream.name, n),
            stream.weight,
            stream.job.clone(),
        );
        let arrived = now_time(epoch);
        let outcome = run_rt_task(
            ex,
            epoch,
            &job.name,
            weight,
            &job,
            None,
            // relaxed: unique-id counter; only atomicity matters.
            seeds.fetch_add(1, Ordering::Relaxed),
            arrived,
            None,
        );
        outcomes.lock().expect("outcome lock").push(outcome);
        next = now_time(epoch) + stream.gap;
    }
}

impl Substrate for RtSubstrate {
    fn name(&self) -> &'static str {
        "rt"
    }

    fn run_traced(
        &self,
        scenario: &Scenario,
        policy: &PolicySpec,
        rec: TraceRecorder,
    ) -> Result<RunReport, ExperimentError> {
        scenario.validate()?;
        check_tenants(scenario, policy)?;
        let cpus = scenario.config.cpus;
        let duration = scenario.config.duration;
        let horizon = Time(duration.as_nanos());
        // Sharded specs split the executor into per-shard locks; the
        // scheduler name is reconstructed from a throwaway build so the
        // report matches the simulator substrate's.
        let sched_name = policy.build(cpus).name().to_string();
        let ex = Executor::from_spec_traced(
            RtConfig {
                cpus,
                timer_interval: self.timer_interval,
            },
            policy,
            rec,
        );
        let epoch = Instant::now();
        let seeds = AtomicU64::new(scenario.config.seed);
        let outcomes: Mutex<Vec<TaskOutcome>> = Mutex::new(Vec::new());

        // Map the scenario's fault plan onto real-thread analogues:
        // `Panic{task}` wraps the body of the task at that spawn-order
        // index; `Stall`/`Jitter` delay the executor's timer thread (a
        // stalled quantum scan is the observable effect of either);
        // `WakeDrop` has no rt analogue — swallowing a real condvar
        // notify would deadlock an OS thread — and is skipped.
        let mut panic_ats: std::collections::HashMap<u64, Time> = std::collections::HashMap::new();
        let mut faults_wired = 0u64;
        if let Some(plan) = &scenario.faults {
            for ev in plan.sorted() {
                if ev.at > horizon {
                    continue;
                }
                match ev.kind {
                    FaultKind::Panic { task } => {
                        panic_ats.entry(task).or_insert(ev.at);
                        faults_wired += 1;
                    }
                    FaultKind::Stall { .. } | FaultKind::Jitter { .. } => faults_wired += 1,
                    FaultKind::WakeDrop { .. } => {}
                }
            }
        }

        std::thread::scope(|s| {
            let mut flat_index = 0u64;
            for spec in &scenario.tasks {
                let weight = Weight::new(spec.weight).expect("validated non-zero");
                // Like the simulator substrate: tenant names the policy
                // does not know run tenant-less (check_tenants already
                // rejected unknown names under hierarchical policies).
                let tenant = spec.tenant.as_deref().and_then(|g| ex.bind_tenant(g));
                for k in 0..spec.count.max(1) {
                    let name = if spec.count > 1 {
                        format!("{}#{}", spec.name, k + 1)
                    } else {
                        spec.name.clone()
                    };
                    // relaxed: unique-id counter; only atomicity matters.
                    let seed = seeds.fetch_add(1, Ordering::Relaxed);
                    let panic_at = panic_ats.get(&flat_index).copied();
                    flat_index += 1;
                    let (ex, outcomes) = (&ex, &outcomes);
                    s.spawn(move || {
                        // The simulator still processes an arrival landing
                        // exactly at the end of the run (zero service), so
                        // only strictly-later arrivals are dropped.
                        if spec.arrive > horizon {
                            return;
                        }
                        sleep_until(epoch, spec.arrive);
                        let outcome = run_rt_task(
                            ex,
                            epoch,
                            &name,
                            weight,
                            spec,
                            tenant,
                            seed,
                            spec.arrive,
                            panic_at,
                        );
                        outcomes.lock().expect("outcome lock").push(outcome);
                    });
                }
            }
            for stream in &scenario.streams {
                let (ex, outcomes, seeds) = (&ex, &outcomes, &seeds);
                s.spawn(move || run_rt_stream(ex, epoch, stream, horizon, seeds, outcomes));
            }
            if let Some(plan) = &scenario.faults {
                let faults = plan.sorted();
                let ex = &ex;
                s.spawn(move || {
                    for ev in faults {
                        if ev.at > horizon {
                            break;
                        }
                        sleep_until(epoch, ev.at);
                        match ev.kind {
                            FaultKind::Stall { dur, .. } | FaultKind::Jitter { dur, .. } => {
                                ex.inject_timer_jitter(dur);
                            }
                            FaultKind::Panic { .. } | FaultKind::WakeDrop { .. } => {}
                        }
                    }
                });
            }
            // The experiment clock: let the scenario play out, then stop
            // every cooperative loop.
            #[expect(clippy::disallowed_methods, reason = "the scenario window")]
            std::thread::sleep(duration.to_std());
            ex.stop();
        });
        ex.wait();

        let mut tasks = outcomes.into_inner().expect("outcome lock");
        tasks.sort_by(|a, b| a.arrived.cmp(&b.arrived).then_with(|| a.name.cmp(&b.name)));
        let sched_stats = ex.sched_stats();
        // Recovery is operational on this substrate: `ex.wait()`
        // returned, so every wired fault was survived — panics were
        // reaped, late timers caught up. A wedged executor would never
        // get here.
        let health = RunHealth {
            rejected: ex.rejected(),
            faults_injected: faults_wired,
            faults_recovered: faults_wired,
            invariant_violations: ex.invariant_violations(),
        };
        Ok(RunReport {
            scenario: scenario.name.clone(),
            substrate: self.name(),
            policy: policy.clone(),
            sched_name,
            cpus,
            duration,
            tasks,
            sched_stats,
            ctx_switches: ex.switches(),
            sim: None,
            trace_path: None,
            health,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs_core::fault::FaultPlan;
    use sfs_sim::SimConfig;
    use sfs_workloads::BehaviorSpec;

    fn quick_cfg(cpus: u32, ms: u64) -> SimConfig {
        SimConfig {
            cpus,
            duration: Duration::from_millis(ms),
            ..SimConfig::default()
        }
    }

    #[test]
    fn rt_substrate_tracks_weights() {
        let scenario = Scenario::new("rt-weights", quick_cfg(1, 400))
            .task(TaskSpec::new("w3", 3, BehaviorSpec::Inf))
            .task(TaskSpec::new("w1", 1, BehaviorSpec::Inf));
        let policy: PolicySpec = "sfs:quantum=2ms".parse().unwrap();
        let rep = RtSubstrate::default().run(&scenario, &policy).unwrap();
        assert_eq!(rep.substrate, "rt");
        assert!(rep.sim.is_none());
        let heavy = rep.task("w3").unwrap().service.as_secs_f64();
        let light = rep.task("w1").unwrap().service.as_secs_f64();
        let ratio = heavy / light.max(1e-9);
        assert!((1.8..4.5).contains(&ratio), "w3:w1 = {ratio:.2}");
    }

    #[test]
    fn both_substrates_drive_sharded_specs() {
        // The same declarative scenario runs under a sharded spec on
        // the simulator (via PolicySpec::build) and on real threads
        // (via the per-shard-lock executor), with weights honoured.
        // Weights 3:1:1:1 on 2 CPUs are feasible: the heavy task
        // deserves a full CPU, each light one a third of the other.
        let scenario = Scenario::new("sharded", quick_cfg(2, 400))
            .task(TaskSpec::new("w3", 3, BehaviorSpec::Inf))
            .task(TaskSpec::new("w1", 1, BehaviorSpec::Inf).replicated(3));
        let policy: PolicySpec = "sfs:quantum=2ms,shards=2,rebalance=20ms".parse().unwrap();
        let sim = SimSubstrate.run(&scenario, &policy).unwrap();
        assert_eq!(sim.sched_name, "SFS(sharded)");
        let light = |rep: &crate::RunReport| {
            rep.tasks
                .iter()
                .filter(|t| t.name.starts_with("w1"))
                .map(|t| t.service.as_secs_f64())
                .sum::<f64>()
                / 3.0
        };
        let ratio = sim.task("w3").unwrap().service.as_secs_f64() / light(&sim);
        assert!((2.2..4.0).contains(&ratio), "sim w3:w1 = {ratio:.2}");
        let rt = RtSubstrate::default().run(&scenario, &policy).unwrap();
        assert_eq!(rt.sched_name, "SFS(sharded)");
        let ratio = rt.task("w3").unwrap().service.as_secs_f64() / light(&rt).max(1e-9);
        assert!((1.8..5.0).contains(&ratio), "rt w3:w1 = {ratio:.2}");
    }

    #[test]
    fn rt_substrate_honours_tenant_groups() {
        // Two tenants with shares 3:1, two infinitely hungry tasks
        // each: the hierarchical top level must apportion the CPU
        // between the tenants, not the four tasks.
        let scenario = Scenario::new("rt-tenants", quick_cfg(1, 400))
            .tenant(
                "gold",
                [TaskSpec::new("g", 1, BehaviorSpec::Inf).replicated(2)],
            )
            .tenant(
                "dev",
                [TaskSpec::new("d", 1, BehaviorSpec::Inf).replicated(2)],
            );
        let policy: PolicySpec = "sfs:groups(gold*3=sfs:quantum=2ms,dev=sfs:quantum=2ms)"
            .parse()
            .unwrap();
        let rep = RtSubstrate::default().run(&scenario, &policy).unwrap();
        assert_eq!(rep.sched_name, "SFS(hier)");
        let shares = rep.tenant_shares();
        assert_eq!(shares.len(), 2, "{shares:?}");
        let ratio = shares[0].1 / shares[1].1.max(1e-9);
        assert!((2.0..4.5).contains(&ratio), "gold:dev = {ratio:.2}");
        // Every task's outcome carries its tenant.
        for t in &rep.tasks {
            assert!(t.tenant.is_some(), "{} lost its tenant", t.name);
        }
    }

    #[test]
    fn rt_substrate_handles_arrivals_stops_and_streams() {
        let scenario = Scenario::new("rt-dynamics", quick_cfg(1, 350))
            .task(TaskSpec::new("base", 1, BehaviorSpec::Inf))
            .task(
                TaskSpec::new("late", 1, BehaviorSpec::Inf)
                    .arrive_at(Time::from_millis(150))
                    .stop_at(Time::from_millis(250)),
            )
            .stream(
                StreamSpec::new("job", 1, BehaviorSpec::Finite(Duration::from_millis(15)))
                    .until(Time::from_millis(200)),
            );
        let policy: PolicySpec = "sfs:quantum=2ms".parse().unwrap();
        let rep = RtSubstrate::default().run(&scenario, &policy).unwrap();
        let late = rep.task("late").unwrap();
        assert_eq!(late.arrived, Time::from_millis(150));
        assert!(late.exited.is_some(), "stop_at must exit the task");
        assert!(
            rep.tasks.iter().any(|t| t.name.starts_with("job#")),
            "stream issued no jobs: {:?}",
            rep.tasks.iter().map(|t| &t.name).collect::<Vec<_>>()
        );
        // Jobs are sequential: job#2 exists only if job#1 finished.
        if let Some(j2) = rep.task("job#2") {
            let j1 = rep.task("job#1").unwrap();
            assert!(j2.arrived >= j1.arrived);
        }
    }

    #[test]
    fn sim_substrate_applies_admission_and_faults() {
        let scenario = Scenario::new("armor", quick_cfg(1, 400))
            .task(TaskSpec::new("a", 1, BehaviorSpec::Inf).replicated(4))
            .with_faults(
                FaultPlan::new().with(Time::from_millis(100), FaultKind::Panic { task: 0 }),
            );
        let policy: PolicySpec = "sfs:quantum=2ms,admit(max=2)".parse().unwrap();
        let rep = SimSubstrate.run(&scenario, &policy).unwrap();
        assert_eq!(rep.health.rejected, 2, "{:?}", rep.health);
        assert_eq!(rep.health.faults_injected, 1);
        assert_eq!(rep.health.faults_recovered, 1);
        assert_eq!(rep.health.invariant_violations, 0);
        let rejected = rep
            .tasks
            .iter()
            .filter(|t| t.fate == TaskFate::Rejected)
            .count();
        assert_eq!(rejected, 2);
        assert!(
            rep.tasks.iter().any(|t| t.fate == TaskFate::Reaped),
            "panic fault must reap its target"
        );
        // Rejected tasks got exactly nothing.
        for t in &rep.tasks {
            if t.fate == TaskFate::Rejected {
                assert_eq!(t.service, Duration::ZERO, "{}", t.name);
            }
        }
    }

    #[test]
    fn rt_substrate_wires_fault_plans() {
        let scenario = Scenario::new("rt-chaos", quick_cfg(1, 300))
            .task(TaskSpec::new("victim", 1, BehaviorSpec::Inf))
            .task(TaskSpec::new("survivor", 1, BehaviorSpec::Inf))
            .with_faults(
                FaultPlan::new()
                    .with(Time::from_millis(80), FaultKind::Panic { task: 0 })
                    .with(
                        Time::from_millis(120),
                        FaultKind::Jitter {
                            cpu: 0,
                            dur: Duration::from_millis(5),
                        },
                    ),
            );
        let policy: PolicySpec = "sfs:quantum=2ms".parse().unwrap();
        let rep = RtSubstrate::default().run(&scenario, &policy).unwrap();
        assert_eq!(rep.task("victim").unwrap().fate, TaskFate::Reaped);
        assert_eq!(rep.task("survivor").unwrap().fate, TaskFate::Ran);
        assert_eq!(rep.health.faults_injected, 2);
        assert_eq!(rep.health.faults_recovered, 2);
        assert_eq!(rep.health.invariant_violations, 0);
        // The survivor inherits the whole CPU after the reap.
        assert!(
            rep.task("survivor").unwrap().service > rep.task("victim").unwrap().service,
            "survivor {:?} vs victim {:?}",
            rep.task("survivor").unwrap().service,
            rep.task("victim").unwrap().service
        );
    }
}
