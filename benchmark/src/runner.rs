//! One workload in one process: set-up, the timed repetitions, and the
//! traced pass. This is what runs inside each pinned child.
//!
//! Timed repetitions run with no tracing. Every repetition of a
//! simulated workload must reproduce the same counters and simulated
//! results, and so must the traced repetitions — that is the check that
//! `TimedScheduler` is transparent.
//!
//! Reported values: a timing's *fastest* repetition (`wall_s`, and so
//! the highest `decisions_per_s`), because on a shared host interference
//! only ever adds time to a deterministic computation; the median of the
//! set-ups (`setup_s`); all samples with median and quartiles travel in
//! the result file.

use std::collections::BTreeMap;
use std::time::Instant;

use sfs_trace::json::obj;
use sfs_trace::Json;

use crate::host;
use crate::spans::{SpanId, Tracer};
use crate::stats::{median, Samples};
use crate::workload::{prepare, Check, Exact, Prepared, RepMode, RepOutcome, Scale, WorkloadId};

/// Set-ups per process (generate, build, warm-up repetition).
pub const SETUP_REPS: usize = 5;
/// The fewest timed repetitions a run may make, whatever its budget.
pub const MIN_REPS: usize = 5;

/// How long the timed pass runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Until this many seconds have been measured (and [`MIN_REPS`]).
    Seconds(f64),
    /// Exactly this many repetitions.
    Reps(usize),
}

/// What a child is asked to do.
#[derive(Debug, Clone)]
pub struct ChildPlan {
    /// The workload.
    pub workload: WorkloadId,
    /// The input seed.
    pub seed: u64,
    /// Input sizes.
    pub scale: Scale,
    /// Length of the timed pass.
    pub budget: Budget,
    /// Set-ups to time (at least 1).
    pub setups: usize,
    /// Whether to run the traced pass after the timed one.
    pub traced: bool,
    /// Test-only: run the *timed* repetitions through `TimedScheduler`
    /// with this busy-wait per pick (the `compare` self-test).
    pub pick_spin_ns: Option<u64>,
}

/// Everything one child measured.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// The workload.
    pub workload: WorkloadId,
    /// The input seed.
    pub seed: u64,
    /// Input sizes.
    pub scale: Scale,
    /// FNV-1a over the generated inputs.
    pub inputs_hash: String,
    /// Host seconds per set-up.
    pub setup_s: Samples,
    /// Host seconds per timed repetition.
    pub wall_s: Samples,
    /// Decisions per host second, per repetition.
    pub decisions_per_s: Samples,
    /// Per-repetition median hand-off (`rt_ring` only).
    pub handoff_p50_us: Option<Samples>,
    /// Other host-time measurements, per repetition.
    pub measured: BTreeMap<String, Samples>,
    /// `VmHWM` after the first set-up (one repetition in a fresh
    /// process).
    pub peak_rss_mb: f64,
    /// Operations attempted per repetition.
    pub attempted: u64,
    /// Operations failed per repetition (issue definition: includes the
    /// flash crowd's refusals on `serve`).
    pub failed: u64,
    /// The part of `failed` that is the correct output of the workload.
    pub refused_by_design: u64,
    /// Counters and simulated results (identical in every repetition).
    pub exact: BTreeMap<String, Exact>,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Per-layer metrics by name (empty without the traced pass).
    pub layers: BTreeMap<String, f64>,
    /// The trace, when the traced pass ran.
    pub trace: Option<Json>,
}

impl WorkloadResult {
    /// Fastest timed repetition.
    pub fn wall_value(&self) -> f64 {
        self.wall_s.0.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Highest decision rate.
    pub fn decisions_value(&self) -> f64 {
        self.decisions_per_s.0.iter().copied().fold(0.0, f64::max)
    }

    /// Median set-up time.
    pub fn setup_value(&self) -> f64 {
        self.setup_s.median()
    }

    /// Lowest per-repetition median hand-off, where measured.
    pub fn handoff_value(&self) -> Option<f64> {
        self.handoff_p50_us
            .as_ref()
            .map(|s| s.0.iter().copied().fold(f64::INFINITY, f64::min))
    }

    /// The reported value of an end-to-end metric, by its registry name.
    pub fn end_to_end_value(&self, metric: &str) -> Option<f64> {
        match metric {
            "wall_s" => Some(self.wall_value()),
            "decisions_per_s" => Some(self.decisions_value()),
            "peak_rss_mb" => Some(self.peak_rss_mb),
            "setup_s" => Some(self.setup_value()),
            _ => None,
        }
    }

    /// Failed operations as a share of those attempted.
    pub fn ops_failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Whether every output check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// As result files carry it (without the trace, which has its own
    /// file).
    pub fn to_json(&self) -> Json {
        let valued = |s: &Samples, value: f64| {
            let Json::Obj(mut members) = s.to_json() else {
                unreachable!("Samples::to_json builds an object")
            };
            members.insert(0, ("value".to_string(), Json::Num(value)));
            Json::Obj(members)
        };
        let mut members = vec![
            ("workload", Json::Str(self.workload.name().into())),
            ("seed", Json::Int(i128::from(self.seed))),
            ("scale", Json::Str(self.scale.name().into())),
            ("inputs_hash", Json::Str(self.inputs_hash.clone())),
            ("reps", Json::Int(self.wall_s.0.len() as i128)),
            ("setup_s", valued(&self.setup_s, self.setup_value())),
            ("wall_s", valued(&self.wall_s, self.wall_value())),
            (
                "decisions_per_s",
                valued(&self.decisions_per_s, self.decisions_value()),
            ),
            ("peak_rss_mb", Json::Num(self.peak_rss_mb)),
            ("attempted", Json::Int(i128::from(self.attempted))),
            ("failed", Json::Int(i128::from(self.failed))),
            (
                "refused_by_design",
                Json::Int(i128::from(self.refused_by_design)),
            ),
        ];
        if let (Some(s), Some(v)) = (&self.handoff_p50_us, self.handoff_value()) {
            members.push(("handoff_p50_us", valued(s, v)));
        }
        members.push((
            "measured",
            Json::Obj(
                self.measured
                    .iter()
                    .map(|(k, s)| (k.clone(), s.to_json()))
                    .collect(),
            ),
        ));
        members.push((
            "exact",
            Json::Obj(
                self.exact
                    .iter()
                    .map(|(k, v)| (k.clone(), v.to_json()))
                    .collect(),
            ),
        ));
        members.push((
            "checks",
            Json::Arr(self.checks.iter().map(Check::to_json).collect()),
        ));
        members.push((
            "layers",
            Json::Obj(
                self.layers
                    .iter()
                    .map(|(k, &v)| (k.clone(), Json::Num(v)))
                    .collect(),
            ),
        ));
        obj(members)
    }

    /// Reads back [`WorkloadResult::to_json`].
    pub fn from_json(v: &Json) -> Option<WorkloadResult> {
        let samples = |key: &str| v.get(key).and_then(Samples::from_json);
        let map = |key: &str| match v.get(key)? {
            Json::Obj(members) => Some(members),
            _ => None,
        };
        Some(WorkloadResult {
            workload: WorkloadId::parse(v.get("workload")?.as_str()?)?,
            seed: v.get("seed")?.as_u64()?,
            scale: Scale::parse(v.get("scale")?.as_str()?)?,
            inputs_hash: v.get("inputs_hash")?.as_str()?.to_string(),
            setup_s: samples("setup_s")?,
            wall_s: samples("wall_s")?,
            decisions_per_s: samples("decisions_per_s")?,
            handoff_p50_us: samples("handoff_p50_us"),
            measured: map("measured")?
                .iter()
                .filter_map(|(k, s)| Some((k.clone(), Samples::from_json(s)?)))
                .collect(),
            peak_rss_mb: v.get("peak_rss_mb")?.as_f64()?,
            attempted: v.get("attempted")?.as_u64()?,
            failed: v.get("failed")?.as_u64()?,
            refused_by_design: v.get("refused_by_design")?.as_u64()?,
            exact: map("exact")?
                .iter()
                .filter_map(|(k, x)| {
                    let x = match x {
                        Json::Int(i) => Exact::Int(u64::try_from(*i).ok()?),
                        other => Exact::Real(other.as_f64()?),
                    };
                    Some((k.clone(), x))
                })
                .collect(),
            checks: v
                .get("checks")?
                .as_arr()?
                .iter()
                .filter_map(|c| {
                    Some(Check::new(
                        c.get("name")?.as_str()?,
                        c.get("ok")?.as_bool()?,
                        c.get("detail")?.as_str()?.to_string(),
                    ))
                })
                .collect(),
            layers: map("layers")?
                .iter()
                .filter_map(|(k, x)| Some((k.clone(), x.as_f64()?)))
                .collect(),
            trace: None,
        })
    }
}

/// Compares a repetition's exact values against the first one's.
fn same_exact(
    what: &str,
    reference: &BTreeMap<String, Exact>,
    got: &BTreeMap<String, Exact>,
) -> Check {
    let diff: Vec<String> = reference
        .iter()
        .filter(|(k, v)| got.get(*k) != Some(v))
        .map(|(k, v)| format!("{k}: {v:?} vs {:?}", got.get(k)))
        .chain(
            got.keys()
                .filter(|k| !reference.contains_key(*k))
                .map(|k| format!("{k}: only in the later run")),
        )
        .collect();
    Check::new(
        what,
        diff.is_empty(),
        if diff.is_empty() {
            format!("{} values identical", reference.len())
        } else {
            diff.join("; ")
        },
    )
}

fn span_mean(tracer: &Tracer, name: &str) -> f64 {
    tracer.agg(name).map_or(0.0, |a| a.mean_ns())
}

/// Per-task cost of a call that also has a batched form.
fn per_task_ns(tracer: &Tracer, single: &str, batched: &str, batch_tasks: &str) -> f64 {
    let one = tracer.agg(single);
    let many = tracer.agg(batched);
    let ns = one.as_ref().map_or(0, |a| a.sum_ns) + many.as_ref().map_or(0, |a| a.sum_ns);
    let tasks = one.map_or(0, |a| a.count) + tracer.counted(batch_tasks);
    if tasks == 0 {
        0.0
    } else {
        ns as f64 / tasks as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Sum of an exact counter over every key ending in `suffix` (one key on
/// most workloads, one per policy on `baselines`).
fn counter(exact: &BTreeMap<String, Exact>, suffix: &str) -> f64 {
    let dotted = format!(".{suffix}");
    exact
        .iter()
        .filter(|(k, _)| k.as_str() == suffix || k.ends_with(&dotted))
        .map(|(_, v)| v.as_f64())
        .sum()
}

/// The traced pass: one repetition through `TimedScheduler`, one with
/// the repository's recorder on, the workload's own layer pass, and the
/// per-layer metrics derived from all of it.
fn traced_pass(
    plan: &ChildPlan,
    reference: &RepOutcome,
    untraced_wall: f64,
    measured: &BTreeMap<String, Samples>,
    res: &mut WorkloadResult,
) {
    let tracer = Tracer::new();
    let prepared = prepare(
        plan.workload,
        plan.seed,
        plan.scale,
        Some((&tracer, SpanId::ROOT)),
    );
    let timed = prepared.rep(&RepMode::Timed {
        tracer: tracer.clone(),
        pick_spin_ns: 0,
    });
    let recorded = prepared.rep(&RepMode::Recorded);
    if plan.workload.is_sim() {
        res.checks.push(same_exact(
            "traced_rep_equals_untraced",
            &reference.exact,
            &timed.exact,
        ));
        res.checks.push(same_exact(
            "recorded_rep_equals_untraced",
            &reference.exact,
            &recorded.exact,
        ));
    }
    // The traced repetitions' own checks: only a failure is news.
    res.checks.extend(
        timed
            .checks
            .iter()
            .chain(&recorded.checks)
            .filter(|c| !c.ok)
            .cloned(),
    );

    let l = &mut res.layers;
    let mut put = |name: &str, v: f64| {
        l.insert(name.to_string(), v);
    };
    // core.sched, from the spans.
    put("core.sched.pick_ns", span_mean(&tracer, "core.sched.pick"));
    put(
        "core.sched.pick_p99_ns",
        tracer
            .agg("core.sched.pick")
            .map_or(0.0, |a| a.percentile_ns(99.0)),
    );
    put(
        "core.sched.put_prev_ns",
        span_mean(&tracer, "core.sched.put_prev"),
    );
    put(
        "core.sched.wake_ns",
        per_task_ns(
            &tracer,
            "core.sched.wake",
            "core.sched.wake_batch",
            crate::timed::WOKEN_IN_BATCHES,
        ),
    );
    put(
        "core.sched.attach_ns",
        per_task_ns(
            &tracer,
            "core.sched.attach",
            "core.sched.attach_batch",
            crate::timed::ATTACHED_IN_BATCHES,
        ),
    );
    put(
        "core.sched.detach_ns",
        span_mean(&tracer, "core.sched.detach"),
    );
    put(
        "core.sched.preempt_query_ns",
        span_mean(&tracer, "core.sched.preempt_query"),
    );
    let sched_ns = tracer.sum_ns_prefixed("core.sched.") as f64;
    let run_span = if plan.workload.is_sim() {
        "sim.engine.run"
    } else {
        "rt.executor.run"
    };
    let run_ns = tracer.sum_ns(run_span) as f64;
    put("core.sched.busy_share", ratio(sched_ns, run_ns));

    // Counters, from the untraced repetitions.
    let (picks, events) = if plan.workload.is_sim() {
        (
            counter(&reference.exact, "picks"),
            counter(&reference.exact, "events"),
        )
    } else {
        let m = |k: &str| measured.get(k).map_or(0.0, Samples::median);
        (m("picks"), m("events"))
    };
    let count = |sim_key: &str, rt_key: &str| {
        if plan.workload.is_sim() {
            counter(&reference.exact, sim_key)
        } else {
            measured.get(rt_key).map_or(0.0, Samples::median)
        }
    };
    put("core.sched.picks", picks);
    put("core.sched.events", events);
    put(
        "core.sched.steps_per_event",
        ratio(count("event_steps", "event_steps"), events),
    );
    put(
        "core.sched.scans_per_pick",
        ratio(count("bucket_scans", "bucket_scans"), picks),
    );
    for key in [
        "readjust_calls",
        "weights_clamped",
        "bucket_migrations",
        "full_resorts",
    ] {
        put(&format!("core.sched.{key}"), count(key, key));
    }
    put("core.shard.steals", count("shard_steals", ""));
    put("core.shard.rebalances", count("shard_rebalances", ""));
    put(
        "core.shard.wake_migrations",
        count("shard_wake_migrations", ""),
    );
    put("core.admit.rejected", counter(&reference.exact, "rejected"));

    // The engine: what is left of the run span once the scheduler's
    // spans are taken out.
    if plan.workload.is_sim() {
        let engine_events = counter(&reference.exact, "engine_events");
        put("sim.engine.events", engine_events);
        put(
            "sim.engine.ctx_switches",
            counter(&reference.exact, "ctx_switches"),
        );
        put(
            "sim.engine.ns_per_event",
            ratio(untraced_wall * 1e9, engine_events),
        );
        put(
            "sim.engine.self_ns_per_event",
            ratio(run_ns - sched_ns, engine_events),
        );
        put("sim.engine.self_share", ratio(run_ns - sched_ns, run_ns));
        put(
            "sim.scenario.build_s",
            tracer.sum_ns("sim.scenario.build") as f64 / 1e9,
        );
        let substrate = tracer.sum_ns("experiment.substrate.run") as f64;
        if substrate > 0.0 {
            put(
                "experiment.substrate.overhead_s",
                (substrate - run_ns) / 1e9,
            );
        }
        put(
            "experiment.report.fairness_ms",
            tracer.sum_ns("experiment.report.fairness") as f64 / 1e6,
        );
    } else {
        put("rt.executor.sched_share", ratio(sched_ns, run_ns));
        for (metric, key) in [
            ("rt.executor.handoff_p99_us", "handoff_p99_us"),
            ("rt.executor.handoff_p999_us", "handoff_p999_us"),
            ("rt.executor.yield_ns", "yield_ns"),
            ("rt.executor.spawn_us", "spawn_us"),
            ("rt.executor.switches", "switches"),
            ("rt.executor.watchdog_fires", "watchdog_fires"),
            ("rt.executor.invariant_violations", "invariant_violations"),
        ] {
            put(metric, measured.get(key).map_or(0.0, Samples::median));
        }
    }
    put(
        "trace.recorder.overhead_pct",
        100.0 * ratio(recorded.wall_s - untraced_wall, untraced_wall),
    );
    put(
        "trace.recorder.events",
        recorded
            .measured
            .get("trace.recorder.events")
            .copied()
            .unwrap_or(0.0),
    );
    put(
        "bench.trace_overhead_pct",
        100.0 * ratio(timed.wall_s - untraced_wall, untraced_wall),
    );
    for (name, v) in prepared.layer_pass() {
        put(&name, v);
    }
    // The named spans (the scheduler's, plus the engine's or executor's
    // self time: together, the run span) must account for the traced
    // repetition's wall time.
    let attributed = ratio(run_ns, timed.wall_s * 1e9);
    res.checks.push(Check::new(
        "trace_attributes_wall",
        attributed >= 0.9,
        format!(
            "{:.1}% of the traced repetition is inside {run_span}",
            100.0 * attributed
        ),
    ));
    res.trace = Some(tracer.to_json());
}

/// Runs `plan` in this process.
pub fn run_child(plan: &ChildPlan) -> WorkloadResult {
    // Set-up, several times over: generate, build, warm-up repetition.
    let mut setup_s = Vec::new();
    let mut last: Option<(Box<dyn Prepared>, RepOutcome)> = None;
    let mut peak_rss_mb = 0.0;
    for i in 0..plan.setups.max(1) {
        let t0 = Instant::now();
        let p = prepare(plan.workload, plan.seed, plan.scale, None);
        let w = p.rep(&RepMode::Plain);
        setup_s.push(t0.elapsed().as_secs_f64());
        if i == 0 {
            // The high-water mark of running the workload once in a
            // fresh process. It keeps creeping with every further
            // repetition (allocator fragmentation: +12 % over 25 more
            // on `steady`, by an amount that depends on the event
            // order), and a time-budgeted run makes more of them on a
            // faster host.
            peak_rss_mb = host::peak_rss_mb();
        }
        last = Some((p, w));
    }
    let (prepared, warm) = last.expect("at least one set-up ran");

    let mut checks: Vec<Check> = prepared.setup_check().into_iter().collect();

    // Timed repetitions.
    let timed_tracer = Tracer::new();
    let timed_mode = match plan.pick_spin_ns {
        Some(ns) => RepMode::Timed {
            tracer: timed_tracer,
            pick_spin_ns: ns,
        },
        None => RepMode::Plain,
    };
    let mut reps: Vec<RepOutcome> = Vec::new();
    let started = Instant::now();
    loop {
        let done = match plan.budget {
            Budget::Reps(n) => reps.len() >= n.max(1),
            Budget::Seconds(s) => reps.len() >= MIN_REPS && started.elapsed().as_secs_f64() >= s,
        };
        if done {
            break;
        }
        reps.push(prepared.rep(&timed_mode));
    }

    let first = &reps[0];
    if plan.workload.is_sim() {
        let mut all_same = same_exact("reps_identical", &warm.exact, &first.exact);
        for r in &reps[1..] {
            let c = same_exact("reps_identical", &first.exact, &r.exact);
            if !c.ok {
                all_same = c;
            }
        }
        checks.push(all_same);
    }
    // A check that failed in any repetition is reported once; otherwise
    // the first repetition's verdicts stand for all.
    for (i, c) in first.checks.iter().enumerate() {
        let worst = reps
            .iter()
            .filter_map(|r| r.checks.get(i))
            .find(|c| !c.ok)
            .unwrap_or(c);
        checks.push(worst.clone());
    }

    let mut measured: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for r in &reps {
        for (k, &v) in &r.measured {
            measured.entry(k.clone()).or_default().push(v);
        }
    }
    let mut measured: BTreeMap<String, Samples> =
        measured.into_iter().map(|(k, v)| (k, Samples(v))).collect();
    let handoff_p50_us = measured.remove("handoff_p50_us");

    let wall: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let mut res = WorkloadResult {
        workload: plan.workload,
        seed: plan.seed,
        scale: plan.scale,
        inputs_hash: prepared.inputs_hash().to_string(),
        setup_s: Samples(setup_s),
        decisions_per_s: Samples(reps.iter().map(|r| r.decisions as f64 / r.wall_s).collect()),
        wall_s: Samples(wall.clone()),
        handoff_p50_us,
        peak_rss_mb,
        // The worst repetition: a failure in any one counts.
        attempted: first.attempted,
        failed: reps.iter().map(|r| r.failed).max().unwrap_or(0),
        refused_by_design: first.refused_by_design,
        exact: first.exact.clone(),
        checks,
        layers: BTreeMap::new(),
        trace: None,
        measured: BTreeMap::new(),
    };
    // The demoted user-visible metrics ride with the layers.
    res.layers
        .insert("e2e.ops_failed_share".into(), res.ops_failed_share());
    for key in ["e2e.share_err_max", "e2e.resp_p50_ms", "e2e.resp_p99_ms"] {
        if let Some(v) = res.exact.get(key) {
            res.layers.insert(key.into(), v.as_f64());
        }
    }
    if let Some(v) = res.handoff_value() {
        res.layers.insert("e2e.handoff_p50_us".into(), v);
    }
    if plan.traced {
        traced_pass(plan, first, median(&wall), &measured, &mut res);
    }
    res.measured = measured;
    res
}
