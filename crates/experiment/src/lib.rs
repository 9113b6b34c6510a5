//! # sfs-experiment — one front-end over both execution substrates
//!
//! The paper's whole argument is comparative: the same workloads run
//! under SFS, SFQ and time sharing, and the *differences* are the
//! results (§4). This crate makes that shape first-class:
//!
//! * [`Substrate`] — anything that can execute a declarative
//!   [`Scenario`] under a [`PolicySpec`]: the deterministic
//!   discrete-event simulator ([`SimSubstrate`]) or the real-thread
//!   runtime ([`RtSubstrate`]).
//! * [`Experiment`] — a scenario bound to a substrate. One call runs a
//!   policy ([`Experiment::run`]); one call runs a whole policy matrix
//!   and summarises the fairness deltas ([`Experiment::compare`]).
//! * [`RunReport`] / [`ComparisonReport`] — substrate-independent
//!   results: per-task service, shares, response-time summaries,
//!   scheduler work counters, and fairness indices via `sfs-metrics`.
//!
//! ```
//! use sfs_core::policy::PolicySpec;
//! use sfs_core::time::Duration;
//! use sfs_experiment::Experiment;
//! use sfs_sim::{Scenario, SimConfig, TaskSpec};
//! use sfs_workloads::BehaviorSpec;
//!
//! let cfg = SimConfig {
//!     cpus: 2,
//!     duration: Duration::from_secs(2),
//!     ..SimConfig::default()
//! };
//! let scenario = Scenario::new("demo", cfg)
//!     .task(TaskSpec::new("db", 2, BehaviorSpec::Inf))
//!     .task(TaskSpec::new("http", 1, BehaviorSpec::Inf))
//!     .task(TaskSpec::new("batch", 1, BehaviorSpec::Inf));
//!
//! // One policy, one substrate-independent report. `run` takes
//! // anything convertible to a `PolicySpec` — a spec, a borrow of
//! // one, or its string form.
//! let sfs: PolicySpec = "sfs:quantum=10ms".parse().unwrap();
//! let report = Experiment::new(scenario.clone()).run(&sfs).unwrap();
//! assert!(report.task("db").unwrap().service > report.task("http").unwrap().service);
//!
//! // A policy matrix: SFS vs time sharing, with fairness deltas.
//! let cmp = Experiment::new(scenario)
//!     .compare(["sfs:quantum=10ms", "ts"])
//!     .unwrap();
//! let d = cmp.deltas();
//! assert!(d[0].fairness.max_share_error < d[1].fairness.max_share_error);
//! ```

pub mod capture;
pub mod report;
pub mod substrate;

use core::fmt;
use std::path::Path;

use sfs_core::policy::{ParsePolicyError, PolicySpec};
use sfs_sim::{Scenario, ScenarioError};
use sfs_trace::{EventTrace, TraceMeta, TraceRecorder};

pub use capture::Capture;
pub use report::{ComparisonReport, Fairness, FairnessDelta, RunReport, TaskFate, TaskOutcome};
pub use substrate::{RtSubstrate, SimSubstrate, Substrate};

/// Why an experiment could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExperimentError {
    /// The scenario is malformed (zero weight, empty machine).
    Scenario(ScenarioError),
    /// A policy string did not parse.
    Policy(ParsePolicyError),
    /// A scenario task names a tenant the policy's `groups(...)` clause
    /// does not declare, so its service would silently fall outside
    /// every group.
    UnknownTenant {
        /// The unmatched tenant name.
        tenant: String,
    },
    /// Reading or writing a trace/capture file failed.
    Io {
        /// The file involved.
        path: String,
        /// The OS error text.
        msg: String,
    },
    /// A recorded trace failed validation, or a capture file did not
    /// parse.
    Capture(String),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Scenario(e) => write!(f, "scenario error: {e}"),
            ExperimentError::Policy(e) => write!(f, "policy error: {e}"),
            ExperimentError::UnknownTenant { tenant } => {
                write!(f, "tenant {tenant:?} is not a group of the policy")
            }
            ExperimentError::Io { path, msg } => write!(f, "{path}: {msg}"),
            ExperimentError::Capture(msg) => write!(f, "capture error: {msg}"),
        }
    }
}

impl std::error::Error for ExperimentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExperimentError::Scenario(e) => Some(e),
            ExperimentError::Policy(e) => Some(e),
            ExperimentError::UnknownTenant { .. }
            | ExperimentError::Io { .. }
            | ExperimentError::Capture(_) => None,
        }
    }
}

impl From<ScenarioError> for ExperimentError {
    fn from(e: ScenarioError) -> ExperimentError {
        ExperimentError::Scenario(e)
    }
}

impl From<ParsePolicyError> for ExperimentError {
    fn from(e: ParsePolicyError) -> ExperimentError {
        ExperimentError::Policy(e)
    }
}

/// Infallible conversions (e.g. passing a `PolicySpec` directly to
/// [`Experiment::run`]) produce no error.
impl From<core::convert::Infallible> for ExperimentError {
    fn from(e: core::convert::Infallible) -> ExperimentError {
        match e {}
    }
}

/// A scenario bound to an execution substrate: the single entry point
/// for running and comparing policies.
pub struct Experiment {
    scenario: Scenario,
    substrate: Box<dyn Substrate>,
}

impl Experiment {
    /// An experiment on the deterministic discrete-event simulator (the
    /// default substrate: exact, fast, reproducible).
    #[must_use]
    pub fn new(scenario: Scenario) -> Experiment {
        Experiment::on(scenario, SimSubstrate)
    }

    /// An experiment on an explicit substrate (e.g. [`RtSubstrate`] to
    /// drive real OS threads; the scenario then runs in real time, so
    /// keep its duration short).
    #[must_use]
    pub fn on(scenario: Scenario, substrate: impl Substrate + 'static) -> Experiment {
        Experiment {
            scenario,
            substrate: Box::new(substrate),
        }
    }

    /// Runs the scenario under one policy. Accepts anything convertible
    /// to a [`PolicySpec`]: a spec, a borrow of one, or its string form
    /// (`"sfs:quantum=5ms"`).
    pub fn run<P>(&self, policy: P) -> Result<RunReport, ExperimentError>
    where
        P: TryInto<PolicySpec>,
        ExperimentError: From<P::Error>,
    {
        let spec = policy.try_into()?;
        self.substrate.run(&self.scenario, &spec)
    }

    /// The trace metadata every recorded run of this experiment carries.
    fn trace_meta(&self, policy: &PolicySpec) -> TraceMeta {
        TraceMeta {
            substrate: self.substrate.name().to_string(),
            scenario: self.scenario.name.clone(),
            policy: policy.to_string(),
            cpus: self.scenario.config.cpus,
            tenants: self.scenario.tenants.clone(),
        }
    }

    /// Runs the scenario under one policy with full event recording,
    /// returning the report together with the recorded [`EventTrace`].
    pub fn run_recorded<P>(&self, policy: P) -> Result<(RunReport, EventTrace), ExperimentError>
    where
        P: TryInto<PolicySpec>,
        ExperimentError: From<P::Error>,
    {
        let spec = policy.try_into()?;
        let rec = TraceRecorder::new(self.trace_meta(&spec));
        let report = self
            .substrate
            .run_traced(&self.scenario, &spec, rec.clone())?;
        Ok((report, rec.finish()))
    }

    /// Runs the scenario under one policy, validates the recorded
    /// trace, and writes it as a Perfetto file (open it in
    /// <https://ui.perfetto.dev>). The returned report carries the path
    /// in [`RunReport::trace_path`].
    pub fn run_with_trace<P>(
        &self,
        policy: P,
        path: impl AsRef<Path>,
    ) -> Result<RunReport, ExperimentError>
    where
        P: TryInto<PolicySpec>,
        ExperimentError: From<P::Error>,
    {
        let path = path.as_ref();
        let (mut report, trace) = self.run_recorded(policy)?;
        trace
            .validate()
            .map_err(|e| ExperimentError::Capture(e.to_string()))?;
        let bytes = sfs_trace::perfetto::encode(&trace);
        std::fs::write(path, bytes).map_err(|e| ExperimentError::Io {
            path: path.display().to_string(),
            msg: e.to_string(),
        })?;
        report.trace_path = Some(path.to_path_buf());
        Ok(report)
    }

    /// Runs the scenario under one policy with full event recording and
    /// packages the run as a self-contained [`Capture`]: scenario (with
    /// its RNG seed), policy, and the recorded event stream. Feed it to
    /// [`Experiment::replay`] — typically after an [`RtSubstrate`] run,
    /// to re-drive the same scenario on the simulator.
    pub fn capture<P>(&self, policy: P) -> Result<(RunReport, Capture), ExperimentError>
    where
        P: TryInto<PolicySpec>,
        ExperimentError: From<P::Error>,
    {
        let spec = policy.try_into()?;
        let (report, trace) = self.run_recorded::<&PolicySpec>(&spec)?;
        Ok((
            report,
            Capture {
                scenario: self.scenario.clone(),
                policy: spec,
                trace,
            },
        ))
    }

    /// Re-drives a captured run on the deterministic simulator and
    /// returns both context-switch sequences for lockstep comparison.
    /// Sequences are compared as `(cpu, task name)` in timestamp order —
    /// names, not [`sfs_core::task::TaskId`]s, because the substrates
    /// assign ids in different orders.
    pub fn replay(capture: &Capture) -> Result<ReplayReport, ExperimentError> {
        let exp = Experiment::new(capture.scenario.clone());
        let (report, trace) = exp.run_recorded(&capture.policy)?;
        Ok(ReplayReport {
            captured: capture.trace.ctx_switch_sequence(),
            replayed: trace.ctx_switch_sequence(),
            report,
        })
    }

    /// Runs the same scenario under every policy in the matrix and
    /// returns the comparative report. The first policy is the
    /// baseline that fairness deltas are measured against. Policies
    /// convert like in [`Experiment::run`], so a string slice works:
    /// `exp.compare(["sfs", "ts"])`.
    pub fn compare<P>(
        &self,
        policies: impl IntoIterator<Item = P>,
    ) -> Result<ComparisonReport, ExperimentError>
    where
        P: TryInto<PolicySpec>,
        ExperimentError: From<P::Error>,
    {
        let mut runs = Vec::new();
        for p in policies {
            runs.push(self.run(p)?);
        }
        Ok(ComparisonReport {
            scenario: self.scenario.name.clone(),
            runs,
        })
    }
}

/// The outcome of re-driving a [`Capture`] on the simulator
/// ([`Experiment::replay`]).
#[derive(Debug)]
pub struct ReplayReport {
    /// The replay's run report (simulator substrate).
    pub report: RunReport,
    /// The captured run's context switches, `(cpu, task name)` in
    /// timestamp order.
    pub captured: Vec<(u32, String)>,
    /// The replay's context switches, same encoding.
    pub replayed: Vec<(u32, String)>,
}

impl ReplayReport {
    /// Whether the replay reproduced the captured context-switch
    /// sequence exactly.
    #[must_use]
    pub fn sequences_match(&self) -> bool {
        self.captured == self.replayed
    }

    /// The first index where the sequences diverge (`None` when they
    /// match; the length of the shorter one when it is a prefix of the
    /// other).
    #[must_use]
    pub fn first_divergence(&self) -> Option<usize> {
        if self.sequences_match() {
            return None;
        }
        let i = self
            .captured
            .iter()
            .zip(&self.replayed)
            .position(|(a, b)| a != b);
        Some(i.unwrap_or_else(|| self.captured.len().min(self.replayed.len())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs_core::time::Duration;
    use sfs_sim::{SimConfig, TaskSpec};
    use sfs_workloads::BehaviorSpec;

    fn scenario() -> Scenario {
        let cfg = SimConfig {
            cpus: 2,
            duration: Duration::from_secs(2),
            ..SimConfig::default()
        };
        Scenario::new("t", cfg)
            .task(TaskSpec::new("a", 2, BehaviorSpec::Inf))
            .task(TaskSpec::new("b", 1, BehaviorSpec::Inf))
            .task(TaskSpec::new("c", 1, BehaviorSpec::Inf))
    }

    #[test]
    fn run_and_compare_on_the_simulator() {
        let exp = Experiment::new(scenario());
        // `run` accepts strings, owned specs and borrowed specs alike.
        let rep = exp.run("sfs:quantum=10ms").unwrap();
        let spec: PolicySpec = "sfs:quantum=10ms".parse().unwrap();
        assert_eq!(exp.run(&spec).unwrap().sched_name, rep.sched_name);
        assert_eq!(exp.run(spec).unwrap().sched_name, rep.sched_name);
        assert_eq!(rep.substrate, "sim");
        assert_eq!(rep.cpus, 2);
        assert!(rep.task("a").unwrap().service > rep.task("b").unwrap().service);
        assert!(rep.sim.is_some());

        let cmp = exp.compare(["sfs:quantum=10ms", "ts"]).unwrap();
        assert_eq!(cmp.runs.len(), 2);
        let deltas = cmp.deltas();
        // SFS honours 2:1:1; time sharing equalises → worse share error.
        assert!(deltas[1].share_error_delta > 0.0, "{deltas:?}");
        assert!(cmp.to_table().contains("SFS"));
    }

    #[test]
    fn malformed_scenario_surfaces_typed_error() {
        let cfg = SimConfig {
            cpus: 2,
            duration: Duration::from_millis(10),
            ..SimConfig::default()
        };
        let exp = Experiment::new(Scenario::new("bad", cfg).task(TaskSpec::new(
            "z",
            0,
            BehaviorSpec::Inf,
        )));
        let err = exp.run("sfs").unwrap_err();
        assert!(matches!(err, ExperimentError::Scenario(_)), "{err}");
        let err = exp.run("not-a-policy").unwrap_err();
        assert!(matches!(err, ExperimentError::Policy(_)), "{err}");
        // A zero quantum is refused at parse: stride would divide by it.
        let err = exp.run("stride:quantum=0ms").unwrap_err();
        assert!(matches!(err, ExperimentError::Policy(_)), "{err}");

        // A zero-CPU machine must be a typed error, not a scheduler
        // constructor panic.
        let cfg = SimConfig {
            cpus: 0,
            duration: Duration::from_millis(10),
            ..SimConfig::default()
        };
        let exp = Experiment::new(Scenario::new("nocpu", cfg).task(TaskSpec::new(
            "t",
            1,
            BehaviorSpec::Inf,
        )));
        let err = exp.run("sfs").unwrap_err();
        assert!(
            matches!(err, ExperimentError::Scenario(ScenarioError::NoCpus)),
            "{err}"
        );
    }

    /// A capture is input from a file: one hand-edited to a zero
    /// sampling period must come back as the typed error, not hang the
    /// engine on a `Sample` event that re-arms at the same tick.
    #[test]
    fn replay_of_capture_with_zero_sample_period_is_a_typed_error() {
        let cap = Capture {
            scenario: scenario(),
            policy: "sfs:quantum=10ms".parse().unwrap(),
            trace: EventTrace::new(TraceMeta::default()),
        };
        let period = cap.scenario.config.sample_every.as_nanos();
        let text = cap.to_json().to_string();
        let edited = text.replace(&format!("\"sample_every\":{period}"), "\"sample_every\":0");
        assert_ne!(edited, text, "capture JSON carries the sampling period");
        let cap = Capture::from_json(&sfs_trace::Json::parse(&edited).unwrap()).unwrap();
        let err = Experiment::replay(&cap).unwrap_err();
        assert_eq!(
            err,
            ExperimentError::Scenario(ScenarioError::ZeroSamplePeriod)
        );
    }

    /// Likewise a capture edited to a zero quantum: it must fail to
    /// load, before the engine could spin on one-tick quanta.
    #[test]
    fn capture_with_a_zero_quantum_fails_to_load() {
        let cap = Capture {
            scenario: scenario(),
            policy: "sfs:quantum=10ms".parse().unwrap(),
            trace: EventTrace::new(TraceMeta::default()),
        };
        let text = cap.to_json().to_string();
        // A removed option (the §3.2 heuristic) fails to load the same way.
        for (policy, want) in [
            ("quantum=0ms", "`quantum` must be positive"),
            ("quantum=10ms,heuristic=4", "unknown option"),
        ] {
            let edited = text.replace("quantum=10ms", policy);
            assert_ne!(edited, text, "capture JSON carries the policy");
            let err = Capture::from_json(&sfs_trace::Json::parse(&edited).unwrap()).unwrap_err();
            assert!(err.contains(want), "{policy}: {err}");
        }
    }

    #[test]
    fn unknown_tenant_under_grouped_policy_is_a_typed_error() {
        let cfg = SimConfig {
            cpus: 2,
            duration: Duration::from_millis(50),
            ..SimConfig::default()
        };
        let scenario = Scenario::new("tenants", cfg)
            .tenant("batch", [TaskSpec::new("j", 1, BehaviorSpec::Inf)])
            .tenant("webapp", [TaskSpec::new("w", 1, BehaviorSpec::Inf)]);
        let exp = Experiment::new(scenario);
        // The policy only declares `batch`: `webapp` must not silently
        // run outside every group.
        let err = exp.run("sfs:groups(batch=sfs)").unwrap_err();
        assert_eq!(
            err,
            ExperimentError::UnknownTenant {
                tenant: "webapp".into()
            }
        );
        // A flat policy ignores tenants entirely.
        assert!(exp.run("sfs").is_ok());
        // A policy declaring both runs fine, with tenants in the report.
        let rep = exp.run("sfs:groups(batch=sfs,webapp=sfs)").unwrap();
        assert!(rep.task("j").unwrap().tenant.is_some());
        assert!(rep.task("w").unwrap().tenant.is_some());
    }
}
