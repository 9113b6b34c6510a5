//! Declarative experiment descriptions.
//!
//! A [`Scenario`] names a machine, a duration and a set of task specs
//! (plus optional sequential job streams), and can be run under any
//! boxed scheduling policy — or, through the `sfs-experiment` crate's
//! `Experiment` front-end, on either execution substrate. The figure
//! harnesses in `sfs-bench` are built out of these, and the integration
//! tests reuse the exact paper scenarios.

use core::fmt;

use sfs_core::admit::AdmissionPolicy;
use sfs_core::fault::FaultPlan;
use sfs_core::sched::Scheduler;
use sfs_core::task::Weight;
use sfs_core::time::{Duration, Time};
use sfs_workloads::BehaviorSpec;

use crate::engine::{SimConfig, Simulator};
use crate::trace::SimReport;

/// A malformed [`Scenario`], reported by [`Scenario::validate`] and
/// [`Scenario::try_run`] instead of a panic deep inside the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// A task spec carries weight 0 (weights are strictly positive, §2).
    ZeroTaskWeight {
        /// Name of the offending task spec.
        task: String,
    },
    /// A stream spec carries weight 0.
    ZeroStreamWeight {
        /// Name of the offending stream spec.
        stream: String,
    },
    /// Two task or stream specs share a base name, which would make
    /// report lookups by name ambiguous.
    DuplicateTaskName {
        /// The colliding name.
        task: String,
    },
    /// A tenant group was declared with no member tasks, so it could
    /// never receive service.
    EmptyTenant {
        /// Name of the empty tenant group.
        tenant: String,
    },
    /// The machine has no processors.
    NoCpus,
    /// The sampling period is zero: the engine re-arms its `Sample`
    /// event at `now + sample_every`, so the run would never advance.
    ZeroSamplePeriod,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::ZeroTaskWeight { task } => {
                write!(f, "task {task:?} has zero weight (weights must be ≥ 1)")
            }
            ScenarioError::ZeroStreamWeight { stream } => {
                write!(f, "stream {stream:?} has zero weight (weights must be ≥ 1)")
            }
            ScenarioError::DuplicateTaskName { task } => {
                write!(f, "duplicate task name {task:?} (names must be unique)")
            }
            ScenarioError::EmptyTenant { tenant } => {
                write!(f, "tenant {tenant:?} declares no tasks")
            }
            ScenarioError::NoCpus => write!(f, "scenario machine has zero processors"),
            ScenarioError::ZeroSamplePeriod => {
                write!(
                    f,
                    "sample_every is zero (the sampling period must be positive)"
                )
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// One or more identical tasks in a scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSpec {
    /// Base name; replicas are suffixed `#k`.
    pub name: String,
    /// Weight for each replica.
    pub weight: u64,
    /// Arrival time.
    pub arrive: Time,
    /// Kill time, if the task should be stopped mid-run.
    pub stop_at: Option<Time>,
    /// The workload.
    pub behavior: BehaviorSpec,
    /// Number of identical replicas (default 1).
    pub count: usize,
    /// Tenant group the task belongs to, matched against the policy's
    /// `groups(...)` clause by name (default none).
    pub tenant: Option<String>,
}

impl TaskSpec {
    /// A single task arriving at t=0.
    #[must_use]
    pub fn new(name: &str, weight: u64, behavior: BehaviorSpec) -> TaskSpec {
        TaskSpec {
            name: name.to_string(),
            weight,
            arrive: Time::ZERO,
            stop_at: None,
            behavior,
            count: 1,
            tenant: None,
        }
    }

    /// Binds the task to a tenant group, by the name used in the
    /// policy's `groups(...)` clause.
    #[must_use]
    pub fn in_tenant(mut self, tenant: &str) -> TaskSpec {
        self.tenant = Some(tenant.to_string());
        self
    }

    /// Sets the arrival time.
    #[must_use]
    pub fn arrive_at(mut self, t: Time) -> TaskSpec {
        self.arrive = t;
        self
    }

    /// Sets a kill time.
    #[must_use]
    pub fn stop_at(mut self, t: Time) -> TaskSpec {
        self.stop_at = Some(t);
        self
    }

    /// Replicates the spec into `n` identical tasks.
    #[must_use]
    pub fn replicated(mut self, n: usize) -> TaskSpec {
        self.count = n;
        self
    }
}

/// A sequential stream of short jobs (Example 2 / Fig. 5): each job
/// arrives when the previous one finishes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamSpec {
    /// Name prefix; jobs are suffixed `#n`.
    pub name: String,
    /// Weight of each job.
    pub weight: u64,
    /// First job's arrival.
    pub first: Time,
    /// The per-job workload (typically [`BehaviorSpec::Finite`]).
    pub job: BehaviorSpec,
    /// Gap between a job's exit and the next arrival.
    pub gap: Duration,
    /// No job arrives at or after this instant.
    pub until: Time,
}

impl StreamSpec {
    /// A back-to-back stream starting at t=0 and running for the whole
    /// experiment.
    #[must_use]
    pub fn new(name: &str, weight: u64, job: BehaviorSpec) -> StreamSpec {
        StreamSpec {
            name: name.to_string(),
            weight,
            first: Time::ZERO,
            job,
            gap: Duration::ZERO,
            until: Time::MAX,
        }
    }

    /// Stops issuing jobs at or after this instant.
    #[must_use]
    pub fn until(mut self, t: Time) -> StreamSpec {
        self.until = t;
        self
    }
}

/// A complete experiment description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Scenario name (for reports).
    pub name: String,
    /// Simulator configuration (machine, duration, sampling).
    pub config: SimConfig,
    /// Long-lived tasks.
    pub tasks: Vec<TaskSpec>,
    /// Sequential job streams.
    pub streams: Vec<StreamSpec>,
    /// Tenant groups declared via [`Scenario::tenant`], for validation.
    pub tenants: Vec<String>,
    /// Deterministic fault plan injected into every run of the
    /// scenario (see [`sfs_core::fault`]).
    pub faults: Option<FaultPlan>,
}

impl Scenario {
    /// Creates an empty scenario over the given machine config.
    #[must_use]
    pub fn new(name: &str, config: SimConfig) -> Scenario {
        Scenario {
            name: name.to_string(),
            config,
            tasks: Vec::new(),
            streams: Vec::new(),
            tenants: Vec::new(),
            faults: None,
        }
    }

    /// Adds a task spec.
    #[must_use]
    pub fn task(mut self, spec: TaskSpec) -> Scenario {
        self.tasks.push(spec);
        self
    }

    /// Adds a stream spec.
    #[must_use]
    pub fn stream(mut self, spec: StreamSpec) -> Scenario {
        self.streams.push(spec);
        self
    }

    /// Injects a deterministic fault plan into every run of the
    /// scenario (see [`sfs_core::fault`]). Faults travel with the
    /// scenario through capture/replay, so a chaotic run replays
    /// exactly.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Scenario {
        self.faults = Some(plan);
        self
    }

    /// Adds a tenant group's member tasks: every spec is bound to the
    /// named tenant, matching a `groups(...)` entry in the policy.
    ///
    /// ```
    /// use sfs_core::time::Duration;
    /// use sfs_sim::{Scenario, SimConfig, TaskSpec};
    /// use sfs_workloads::BehaviorSpec;
    ///
    /// let cfg = SimConfig {
    ///     cpus: 2,
    ///     duration: Duration::from_secs(1),
    ///     ..SimConfig::default()
    /// };
    /// let policy: sfs_core::policy::PolicySpec =
    ///     "sfs:groups(batch=sfq,frontend*3=sfs)".parse().unwrap();
    /// let report = Scenario::new("tenants", cfg)
    ///     .tenant("batch", [
    ///         TaskSpec::new("cruncher", 1, BehaviorSpec::Inf).replicated(4),
    ///     ])
    ///     .tenant("frontend", [
    ///         TaskSpec::new("web", 1, BehaviorSpec::Inf),
    ///     ])
    ///     .try_run(policy.build(2))
    ///     .unwrap();
    /// // frontend's share-3 tenant outweighs batch's 4 unit tasks.
    /// assert_eq!(report.tenant_shares().len(), 2);
    /// ```
    #[must_use]
    pub fn tenant(mut self, name: &str, specs: impl IntoIterator<Item = TaskSpec>) -> Scenario {
        self.tenants.push(name.to_string());
        for spec in specs {
            self.tasks.push(spec.in_tenant(name));
        }
        self
    }

    /// Checks the scenario for structural errors (zero weights, empty
    /// machine, zero sampling period) without running it. Substrates
    /// call this up front so a malformed description fails fast with a
    /// typed error.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.config.cpus == 0 {
            return Err(ScenarioError::NoCpus);
        }
        if self.config.sample_every.is_zero() {
            return Err(ScenarioError::ZeroSamplePeriod);
        }
        for spec in &self.tasks {
            if spec.weight == 0 {
                return Err(ScenarioError::ZeroTaskWeight {
                    task: spec.name.clone(),
                });
            }
        }
        for s in &self.streams {
            if s.weight == 0 {
                return Err(ScenarioError::ZeroStreamWeight {
                    stream: s.name.clone(),
                });
            }
        }
        #[expect(clippy::disallowed_types, reason = "validation, not the run")]
        let mut names = std::collections::HashSet::new();
        for name in self
            .tasks
            .iter()
            .map(|t| &t.name)
            .chain(self.streams.iter().map(|s| &s.name))
        {
            if !names.insert(name.as_str()) {
                return Err(ScenarioError::DuplicateTaskName { task: name.clone() });
            }
        }
        for tenant in &self.tenants {
            if !self
                .tasks
                .iter()
                .any(|t| t.tenant.as_deref() == Some(tenant))
            {
                return Err(ScenarioError::EmptyTenant {
                    tenant: tenant.clone(),
                });
            }
        }
        Ok(())
    }

    /// Runs the scenario under the given scheduler on the simulator,
    /// reporting malformed scenarios as a [`ScenarioError`].
    pub fn try_run(&self, sched: Box<dyn Scheduler>) -> Result<SimReport, ScenarioError> {
        self.try_run_traced(sched, sfs_trace::TraceRecorder::off())
    }

    /// Like [`Scenario::try_run`], with scheduling events recorded into
    /// `rec` (keep a clone and call `finish()` afterwards to collect
    /// the trace).
    pub fn try_run_traced(
        &self,
        sched: Box<dyn Scheduler>,
        rec: sfs_trace::TraceRecorder,
    ) -> Result<SimReport, ScenarioError> {
        self.try_run_traced_admitted(sched, rec, None)
    }

    /// Like [`Scenario::try_run_traced`], with an admission policy
    /// enforced on every arrival. This is the entry point the
    /// `sfs-experiment` substrates use to honour a policy spec's
    /// `admit(...)` clause; the scenario's own fault plan (if any) is
    /// applied in every case.
    pub fn try_run_traced_admitted(
        &self,
        sched: Box<dyn Scheduler>,
        rec: sfs_trace::TraceRecorder,
        admission: Option<AdmissionPolicy>,
    ) -> Result<SimReport, ScenarioError> {
        self.validate()?;
        // Resolve tenant names to scheduler group ids before the
        // scheduler moves into the simulator. Names the policy does not
        // know (a flat policy, or a missing group) run tenant-less —
        // strict matching is the experiment layer's job.
        let bindings: Vec<_> = self
            .tasks
            .iter()
            .map(|spec| spec.tenant.as_deref().and_then(|g| sched.bind_tenant(g)))
            .collect();
        let mut sim = Simulator::new(self.config.clone(), sched).with_recorder(rec);
        if let Some(policy) = admission {
            sim = sim.with_admission(policy);
        }
        if let Some(plan) = &self.faults {
            sim = sim.with_faults(plan);
        }
        for (spec, tenant) in self.tasks.iter().zip(bindings) {
            let weight = Weight::new(spec.weight).expect("validated non-zero");
            // One interned base name per spec: replicas render as
            // "{base}#{k}" at report time, so a 10⁶-replica spec never
            // allocates per-task name strings.
            let sym = sim.intern_name(&spec.name);
            for k in 0..spec.count.max(1) {
                let replica = if spec.count > 1 { (k + 1) as u32 } else { 0 };
                let idx = sim.schedule_arrival_replica(
                    spec.arrive,
                    sym,
                    replica,
                    weight,
                    spec.behavior.clone(),
                    tenant,
                );
                if let Some(t) = spec.stop_at {
                    sim.schedule_kill(t, idx);
                }
            }
        }
        for s in &self.streams {
            sim.add_stream(
                s.first,
                &s.name,
                Weight::new(s.weight).expect("validated non-zero"),
                s.job.clone(),
                s.gap,
                s.until,
            );
        }
        Ok(sim.run())
    }

    /// Runs the scenario under the given scheduler; panicking
    /// convenience wrapper around [`Scenario::try_run`] for tests.
    ///
    /// # Panics
    ///
    /// Panics if the scenario is malformed (see [`ScenarioError`]).
    pub fn run(&self, sched: Box<dyn Scheduler>) -> SimReport {
        self.try_run(sched)
            .unwrap_or_else(|e| panic!("scenario {:?}: {e}", self.name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs_core::policy::PolicySpec;

    fn sfs(cpus: u32) -> Box<dyn Scheduler> {
        PolicySpec::sfs().build(cpus)
    }

    #[test]
    fn replicated_tasks_get_numbered_names() {
        let cfg = SimConfig {
            cpus: 2,
            duration: Duration::from_secs(2),
            ..SimConfig::default()
        };
        let scenario = Scenario::new("repl", cfg)
            .task(TaskSpec::new("solo", 1, BehaviorSpec::Inf))
            .task(TaskSpec::new("bg", 1, BehaviorSpec::Inf).replicated(3));
        let rep = scenario.run(sfs(2));
        assert!(rep.task("solo").is_some());
        assert!(rep.task("bg#1").is_some());
        assert!(rep.task("bg#3").is_some());
        assert!(rep.task("bg").is_none());
        assert_eq!(rep.tasks.len(), 4);
    }

    #[test]
    fn stop_at_kills_mid_run() {
        let cfg = SimConfig {
            cpus: 1,
            duration: Duration::from_secs(4),
            ..SimConfig::default()
        };
        let scenario = Scenario::new("stop", cfg)
            .task(TaskSpec::new("t", 1, BehaviorSpec::Inf).stop_at(Time::from_secs(1)));
        let rep = scenario.run(sfs(1));
        let t = rep.task("t").unwrap();
        assert!(t.exited.is_some());
        assert!(t.service <= Duration::from_millis(1010));
    }

    #[test]
    fn builder_composes() {
        let cfg = SimConfig {
            cpus: 2,
            duration: Duration::from_secs(1),
            ..SimConfig::default()
        };
        let s = Scenario::new("x", cfg)
            .task(TaskSpec::new("late", 2, BehaviorSpec::Inf).arrive_at(Time::from_millis(500)))
            .stream(
                StreamSpec::new("jobs", 1, BehaviorSpec::Finite(Duration::from_millis(100)))
                    .until(Time::from_secs(1)),
            );
        let rep = s.run(sfs(2));
        let late = rep.task("late").unwrap();
        assert!(late.arrived == Time::from_millis(500));
        assert!(rep.tasks.iter().any(|t| t.name.starts_with("jobs#")));
    }

    #[test]
    fn zero_weight_is_a_typed_error() {
        let cfg = SimConfig {
            cpus: 1,
            duration: Duration::from_millis(10),
            ..SimConfig::default()
        };
        let err = Scenario::new("bad", cfg.clone())
            .task(TaskSpec::new("t", 0, BehaviorSpec::Inf))
            .try_run(sfs(1))
            .unwrap_err();
        assert_eq!(err, ScenarioError::ZeroTaskWeight { task: "t".into() });
        assert!(err.to_string().contains("zero weight"));

        let err = Scenario::new("bad2", cfg)
            .stream(StreamSpec::new(
                "s",
                0,
                BehaviorSpec::Finite(Duration::from_millis(1)),
            ))
            .try_run(sfs(1))
            .unwrap_err();
        assert_eq!(err, ScenarioError::ZeroStreamWeight { stream: "s".into() });
    }

    /// `validate` only: with a zero period the engine re-arms its
    /// `Sample` event at the same tick forever, so this must never
    /// reach `run`.
    #[test]
    fn zero_sample_period_is_a_typed_error() {
        let cfg = SimConfig {
            cpus: 1,
            duration: Duration::from_millis(10),
            sample_every: Duration::ZERO,
            ..SimConfig::default()
        };
        let err = Scenario::new("bad", cfg)
            .task(TaskSpec::new("t", 1, BehaviorSpec::Inf))
            .validate()
            .unwrap_err();
        assert_eq!(err, ScenarioError::ZeroSamplePeriod);
        assert!(err.to_string().contains("sample_every"));
    }

    #[test]
    fn duplicate_names_are_a_typed_error() {
        let cfg = SimConfig {
            cpus: 1,
            duration: Duration::from_millis(10),
            ..SimConfig::default()
        };
        let err = Scenario::new("dup", cfg.clone())
            .task(TaskSpec::new("t", 1, BehaviorSpec::Inf))
            .task(TaskSpec::new("t", 2, BehaviorSpec::Inf))
            .try_run(sfs(1))
            .unwrap_err();
        assert_eq!(err, ScenarioError::DuplicateTaskName { task: "t".into() });

        // Streams collide with tasks too.
        let err = Scenario::new("dup2", cfg)
            .task(TaskSpec::new("jobs", 1, BehaviorSpec::Inf))
            .stream(StreamSpec::new(
                "jobs",
                1,
                BehaviorSpec::Finite(Duration::from_millis(1)),
            ))
            .try_run(sfs(1))
            .unwrap_err();
        assert_eq!(
            err,
            ScenarioError::DuplicateTaskName {
                task: "jobs".into()
            }
        );
    }

    #[test]
    fn empty_tenant_is_a_typed_error() {
        let cfg = SimConfig {
            cpus: 1,
            duration: Duration::from_millis(10),
            ..SimConfig::default()
        };
        let err = Scenario::new("empty", cfg)
            .tenant("ghost", [])
            .task(TaskSpec::new("t", 1, BehaviorSpec::Inf))
            .try_run(sfs(1))
            .unwrap_err();
        assert_eq!(
            err,
            ScenarioError::EmptyTenant {
                tenant: "ghost".into()
            }
        );
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn tenants_bind_to_hierarchical_groups() {
        let cfg = SimConfig {
            cpus: 2,
            duration: Duration::from_secs(4),
            ..SimConfig::default()
        };
        let policy: PolicySpec = "sfs:groups(a*3=sfs,b=sfs)".parse().unwrap();
        let rep = Scenario::new("tenants", cfg)
            .tenant(
                "a",
                [TaskSpec::new("a-task", 1, BehaviorSpec::Inf).replicated(2)],
            )
            .tenant(
                "b",
                [TaskSpec::new("b-task", 1, BehaviorSpec::Inf).replicated(2)],
            )
            .run(policy.build(2));
        // Every task carries its tenant in the report.
        for t in &rep.tasks {
            assert!(t.tenant.is_some(), "{} lost its tenant", t.name);
        }
        let shares = rep.tenant_shares();
        assert_eq!(shares.len(), 2);
        // Shares split 3:1 between the two tenants.
        let ratio = shares[0].1 / shares[1].1;
        assert!((ratio - 3.0).abs() < 0.15, "tenant ratio {ratio}");
    }

    #[test]
    fn unknown_tenants_run_tenant_less_under_flat_policies() {
        let cfg = SimConfig {
            cpus: 1,
            duration: Duration::from_millis(100),
            ..SimConfig::default()
        };
        let rep = Scenario::new("flat", cfg)
            .tenant("a", [TaskSpec::new("t", 1, BehaviorSpec::Inf)])
            .run(sfs(1));
        assert_eq!(rep.task("t").unwrap().tenant, None);
        assert!(rep.tenant_shares().is_empty());
    }

    #[test]
    #[should_panic(expected = "zero weight")]
    fn run_panics_on_zero_weight() {
        let cfg = SimConfig {
            cpus: 1,
            duration: Duration::from_millis(10),
            ..SimConfig::default()
        };
        let _ = Scenario::new("bad", cfg)
            .task(TaskSpec::new("t", 0, BehaviorSpec::Inf))
            .run(sfs(1));
    }
}
