//! `baselines`: the churn mix, non-lean, once under each of the six
//! non-SFS policies through `Experiment::compare`.
//!
//! `IndexedList` and `KeyCounter` (`core.queues`) do most of the work
//! here and none under SFS, so this is the workload that guards a
//! refactor of the tag-queue policies (SFQ, WFQ, stride, BVT) and of the
//! comparison report. Nothing in it runs the bucket queue.

use sfs_core::policy::{PolicyKind, PolicySpec};
use sfs_core::time::Duration;
use sfs_experiment::{ComparisonReport, Experiment, RunReport};
use sfs_sim::Scenario;

use crate::churn::{build_mix, generate_mix};
use crate::rng::InputHasher;
use crate::simrun::SpanSubstrate;
use crate::spans::{SpanId, Tracer};
use crate::workload::{spanned, timed_s, Prepared, RepMode, RepOutcome, Scale};

/// The policy matrix, in run order.
pub const POLICIES: [&str; 6] = ["sfq:readjust", "wfq", "stride:readjust", "bvt", "ts", "rr"];

/// The layer a policy's per-run wall time is reported under.
pub fn layer_of(kind: PolicyKind) -> &'static str {
    match kind {
        PolicyKind::Sfs => "core.sfs",
        PolicyKind::Sfq => "core.sfq",
        PolicyKind::Wfq => "core.wfq",
        PolicyKind::Stride => "core.stride",
        PolicyKind::Bvt => "core.bvt",
        PolicyKind::TimeSharing => "core.timeshare",
        PolicyKind::RoundRobin => "core.rr",
    }
}

/// `baselines`, generated and built.
pub struct Baselines {
    hash: String,
    finite: u64,
    policies: Vec<PolicySpec>,
    scenario: Scenario,
    plain: Experiment,
}

/// Generates and builds `baselines` for `seed`.
pub fn prepare(seed: u64, scale: Scale, spans: Option<(&Tracer, SpanId)>) -> Baselines {
    let tasks = match scale {
        Scale::Full => 5_000,
        Scale::Tiny => 600,
    };
    let mix = spanned(spans, "bench.generate", || {
        // Eight simulated seconds: long enough for plain WFQ, which
        // favours the waking tasks, to finish every finite job too.
        generate_mix(seed, tasks, Duration::from_secs(8))
    });
    let scenario = spanned(spans, "sim.scenario.build", || {
        build_mix("baselines", &mix, false)
    });
    let mut h = InputHasher::default();
    h.text("baselines");
    mix.hash_into(&mut h);
    for p in POLICIES {
        h.text(p);
    }
    Baselines {
        hash: h.finish(),
        finite: mix.finite(),
        policies: POLICIES
            .iter()
            .map(|p| p.parse().expect("baseline policy parses"))
            .collect(),
        plain: Experiment::new(scenario.clone()),
        scenario,
    }
}

fn score_run(run: &RunReport, finite: u64, out: &mut RepOutcome) {
    let key = run.policy.kind().token();
    let sim = run.sim_report();
    out.int(&format!("{key}.picks"), run.sched_stats.picks);
    out.int(&format!("{key}.events"), run.sched_stats.events);
    out.int(&format!("{key}.event_steps"), run.sched_stats.event_steps);
    out.int(
        &format!("{key}.readjust_calls"),
        run.sched_stats.readjust_calls,
    );
    out.int(&format!("{key}.ctx_switches"), run.ctx_switches);
    out.int(&format!("{key}.engine_events"), sim.engine_events);
    out.int(&format!("{key}.service_ns"), run.total_service().as_nanos());
    out.decisions += run.sched_stats.picks;
    out.attempted += run.tasks.len() as u64;
    let exited = run.tasks.iter().filter(|t| t.exited.is_some()).count() as u64;
    let starved = run.tasks.iter().filter(|t| t.service.is_zero()).count() as u64;
    out.failed += run.health.rejected + finite.saturating_sub(exited) + starved;
    let capacity = u64::from(run.cpus) * run.duration.as_nanos();
    out.checks.push(crate::workload::Check::new(
        "service_within_capacity",
        run.total_service().as_nanos() <= capacity,
        format!(
            "{key}: service {} ns, capacity {capacity} ns",
            run.total_service().as_nanos()
        ),
    ));
}

fn score(cmp: &ComparisonReport, finite: u64, mode: &RepMode, out: &mut RepOutcome) {
    for run in &cmp.runs {
        score_run(run, finite, out);
    }
    let deltas = spanned(mode.spans(), "experiment.report.fairness", || cmp.deltas());
    for (run, d) in cmp.runs.iter().zip(deltas) {
        let key = run.policy.kind().token();
        out.real(&format!("{key}.jain"), d.fairness.jain);
        out.real(&format!("{key}.share_err"), d.fairness.max_share_error);
    }
}

impl Prepared for Baselines {
    fn inputs_hash(&self) -> &str {
        &self.hash
    }

    fn rep(&self, mode: &RepMode) -> RepOutcome {
        let mut out = RepOutcome::default();
        let finite = self.finite;
        match mode {
            RepMode::Plain => {
                let (cmp, wall_s) = timed_s(|| {
                    let cmp = self
                        .plain
                        .compare(&self.policies)
                        .expect("baseline comparison runs");
                    score(&cmp, finite, mode, &mut out);
                    cmp
                });
                drop(cmp);
                out.wall_s = wall_s;
            }
            RepMode::Timed { tracer, .. } => {
                let scenario = self.scenario.clone();
                let ((), wall_s) = timed_s(|| {
                    let span = tracer.span("experiment.substrate.run", SpanId::ROOT);
                    let exp = Experiment::on(scenario, SpanSubstrate::new(mode, span.id()));
                    let cmp = exp
                        .compare(&self.policies)
                        .expect("baseline comparison runs");
                    drop(span);
                    score(&cmp, finite, mode, &mut out);
                });
                out.wall_s = wall_s;
            }
            RepMode::Recorded => {
                let mut events = 0u64;
                let ((), wall_s) = timed_s(|| {
                    let mut runs = Vec::new();
                    for p in &self.policies {
                        let (run, trace) =
                            self.plain.run_recorded(p).expect("baseline run records");
                        events += trace.events.len() as u64;
                        runs.push(run);
                    }
                    let cmp = ComparisonReport {
                        scenario: self.scenario.name.clone(),
                        runs,
                    };
                    score(&cmp, finite, mode, &mut out);
                });
                out.wall_s = wall_s;
                out.measured
                    .insert("trace.recorder.events".into(), events as f64);
            }
        }
        out
    }

    fn layer_pass(&self) -> Vec<(String, f64)> {
        // One bare run per policy, timed from outside: the per-module
        // wall times that `compare` only reports in sum.
        self.policies
            .iter()
            .map(|p| {
                let (run, wall_s) = timed_s(|| self.plain.run(p).expect("baseline run"));
                drop(run);
                (format!("{}.wall_s", layer_of(p.kind())), wall_s)
            })
            .collect()
    }
}
