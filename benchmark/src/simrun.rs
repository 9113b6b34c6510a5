//! Running a scenario on the simulator in each [`RepMode`].
//!
//! The plain mode is exactly what a user types: `Scenario::try_run…`
//! with `PolicySpec::build`, or `Experiment::run`/`compare`. The traced
//! mode makes the same calls with the policy wrapped in
//! [`crate::timed::TimedScheduler`] and adds the `sim.engine.run` parent
//! span around the engine call; the recorded mode switches the
//! repository's own `sfs-trace` recorder on instead. [`SpanSubstrate`]
//! is the `Experiment`-level variant of the traced mode: a
//! benchmark-owned [`Substrate`] that does what `SimSubstrate` does, so
//! `experiment.substrate.run` can be timed around `Experiment::run`
//! itself.

use sfs_core::policy::PolicySpec;
use sfs_experiment::{ExperimentError, RunReport, Substrate};
use sfs_sim::{Scenario, SimReport};
use sfs_trace::{TraceMeta, TraceRecorder};

use crate::spans::SpanId;
use crate::workload::{decorate, timed_s, RepMode, RepOutcome};

/// Runs `scenario` under `policy` (honouring its `admit(...)` clause).
/// Returns the report and, in [`RepMode::Recorded`], the number of
/// `sfs-trace` events the run recorded.
///
/// # Panics
///
/// Panics if the generated scenario is malformed — a bug in the
/// benchmark's generator, not an input condition.
pub fn run_scenario(
    scenario: &Scenario,
    policy: &PolicySpec,
    mode: &RepMode,
    parent: SpanId,
) -> (SimReport, Option<u64>) {
    let cpus = scenario.config.cpus;
    let admission = policy.admission().copied();
    let run = |sched, rec| {
        scenario
            .try_run_traced_admitted(sched, rec, admission)
            .expect("generated scenario is well-formed")
    };
    match mode {
        RepMode::Plain => (run(policy.build(cpus), TraceRecorder::off()), None),
        RepMode::Timed { tracer, .. } => {
            let span = tracer.span("sim.engine.run", parent);
            let sched = decorate(policy.build(cpus), mode, span.id());
            (run(sched, TraceRecorder::off()), None)
        }
        RepMode::Recorded => {
            let rec = TraceRecorder::new(TraceMeta {
                substrate: "sim".into(),
                scenario: scenario.name.clone(),
                policy: policy.to_string(),
                cpus,
                tenants: scenario.tenants.clone(),
            });
            let rep = run(policy.build(cpus), rec.clone());
            let events = rec.finish().events.len() as u64;
            (rep, Some(events))
        }
    }
}

/// One repetition of a workload that is a single `Scenario::try_run…`
/// call (`steady`, `churn`): the report, and the outcome with its wall
/// time, decisions, engine counters and `SchedStats` filled in.
pub fn scenario_rep(
    scenario: &Scenario,
    policy: &PolicySpec,
    mode: &RepMode,
) -> (SimReport, RepOutcome) {
    let mut out = RepOutcome::default();
    let ((rep, events), wall_s) = timed_s(|| run_scenario(scenario, policy, mode, SpanId::ROOT));
    out.wall_s = wall_s;
    out.decisions = rep.sched_stats.picks;
    out.sim_counters(&rep);
    out.sched_stats(&rep.sched_stats);
    if let Some(n) = events {
        out.measured
            .insert("trace.recorder.events".into(), n as f64);
    }
    (rep, out)
}

/// A [`Substrate`] that runs scenarios like `SimSubstrate` but with the
/// policy wrapped in `TimedScheduler`, so `Experiment::run`/`compare`
/// can be driven with the scheduler boundary instrumented.
pub struct SpanSubstrate {
    mode: RepMode,
    parent: SpanId,
}

impl SpanSubstrate {
    /// A substrate running every scenario in `mode` (a
    /// [`RepMode::Timed`]) under `parent`.
    pub fn new(mode: &RepMode, parent: SpanId) -> SpanSubstrate {
        SpanSubstrate {
            mode: mode.clone(),
            parent,
        }
    }
}

impl Substrate for SpanSubstrate {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn run_traced(
        &self,
        scenario: &Scenario,
        policy: &PolicySpec,
        _rec: TraceRecorder,
    ) -> Result<RunReport, ExperimentError> {
        scenario.validate()?;
        let (rep, _) = run_scenario(scenario, policy, &self.mode, self.parent);
        Ok(RunReport::from_sim(&scenario.name, policy.clone(), rep))
    }
}
