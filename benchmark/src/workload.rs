//! The five workloads' shared vocabulary: identities, scales, what one
//! repetition reports, and the dispatch from a name to its generator.

use std::collections::BTreeMap;
use std::time::Instant;

use sfs_core::sched::{SchedStats, Scheduler};
use sfs_sim::SimReport;
use sfs_trace::json::obj;
use sfs_trace::Json;

use crate::spans::{SpanId, Tracer};
use crate::timed::TimedScheduler;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum WorkloadId {
    /// Constant runnable set: the pick path.
    Steady,
    /// Arrivals, exits and wakes at mega scale: the event path.
    Churn,
    /// The multi-tenant serving scenario.
    Serve,
    /// The churn mix under the six non-SFS policies.
    Baselines,
    /// The real-thread executor: token ring, yields, spawns.
    RtRing,
}

impl WorkloadId {
    /// Every workload, in the order a full set runs them.
    pub const ALL: [WorkloadId; 5] = [
        WorkloadId::Steady,
        WorkloadId::Churn,
        WorkloadId::Serve,
        WorkloadId::Baselines,
        WorkloadId::RtRing,
    ];

    /// The name used on the command line and in result files.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::Steady => "steady",
            WorkloadId::Churn => "churn",
            WorkloadId::Serve => "serve",
            WorkloadId::Baselines => "baselines",
            WorkloadId::RtRing => "rt_ring",
        }
    }

    /// Parses [`WorkloadId::name`].
    pub fn parse(s: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Why the workload exists, in one line (`BENCHMARK.json`'s `why`).
    pub fn why(self) -> &'static str {
        match self {
            WorkloadId::Steady => {
                "constant runnable set on the simulator: the pick path \
                 (bucket min-surplus, requeue, timer pops); readjustment idle"
            }
            WorkloadId::Churn => {
                "mega-scale arrivals, exits and wakes, lean mode: the event path \
                 through the structures steady only reads"
            }
            WorkloadId::Serve => {
                "multi-tenant serving via Experiment::run: hierarchy, shards, \
                 admission, heavy-tailed open-loop requests, a refused flash crowd"
            }
            WorkloadId::Baselines => {
                "the churn mix under sfq, wfq, stride, bvt, ts and rr via \
                 Experiment::compare: the tag-queue policies, no bucket queue"
            }
            WorkloadId::RtRing => {
                "real-thread executor on one vCPU: token-ring hand-offs, yields \
                 and spawns; nothing from the simulator"
            }
        }
    }

    /// Whether the workload runs on the simulator (its counters and
    /// simulated results then repeat exactly).
    pub fn is_sim(self) -> bool {
        self != WorkloadId::RtRing
    }
}

/// How large the generated inputs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The pinned sizes every reported number uses (≈ 1 s per rep).
    Full,
    /// A few milliseconds per rep, for the smoke tests only.
    Tiny,
}

impl Scale {
    /// The command-line spelling.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Tiny => "tiny",
        }
    }

    /// Parses [`Scale::name`].
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "full" => Some(Scale::Full),
            "tiny" => Some(Scale::Tiny),
            _ => None,
        }
    }
}

/// How a repetition is run.
#[derive(Clone)]
pub enum RepMode {
    /// The timed configuration: the bare policy, no recording.
    Plain,
    /// The policy wrapped in [`TimedScheduler`], spans into `tracer`.
    Timed {
        /// Where spans go (a shared handle).
        tracer: Tracer,
        /// Test-only busy-wait per `pick_next` (0 in real runs).
        pick_spin_ns: u64,
    },
    /// The bare policy with the repository's own `sfs-trace` recorder
    /// switched on (measures that layer's overhead).
    Recorded,
}

impl RepMode {
    /// Where a repetition's own layer-boundary spans go: the tracer's
    /// root in [`RepMode::Timed`], nowhere otherwise.
    pub fn spans(&self) -> Option<(&Tracer, SpanId)> {
        match self {
            RepMode::Timed { tracer, .. } => Some((tracer, SpanId::ROOT)),
            RepMode::Plain | RepMode::Recorded => None,
        }
    }
}

/// A value that must repeat exactly between repetitions (and between
/// two sets of the same commit and seed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Exact {
    /// A counter.
    Int(u64),
    /// A simulated quantity; compared bit for bit.
    Real(f64),
}

impl Exact {
    /// As a JSON number.
    pub fn to_json(self) -> Json {
        match self {
            Exact::Int(i) => Json::Int(i128::from(i)),
            Exact::Real(r) => Json::Num(r),
        }
    }

    /// As a float, for printing.
    pub fn as_f64(self) -> f64 {
        match self {
            Exact::Int(i) => i as f64,
            Exact::Real(r) => r,
        }
    }
}

/// The verdict of one output check.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The numbers behind the verdict.
    pub detail: String,
}

impl Check {
    /// A check named `name` with verdict `ok`.
    pub fn new(name: &str, ok: bool, detail: String) -> Check {
        Check {
            name: name.to_string(),
            ok,
            detail,
        }
    }

    /// As result files carry it.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("ok", Json::Bool(self.ok)),
            ("detail", Json::Str(self.detail.clone())),
        ])
    }
}

/// What one repetition of a workload reports.
#[derive(Debug, Clone, Default)]
pub struct RepOutcome {
    /// Host seconds the repetition took.
    pub wall_s: f64,
    /// Scheduling decisions: picks on the simulator, context switches
    /// on the executor.
    pub decisions: u64,
    /// Operations attempted (arrivals; spawns + hops on the executor).
    pub attempted: u64,
    /// Operations that failed (refused, unfinished, starved, reaped).
    pub failed: u64,
    /// The part of `failed` that is the workload's correct output: the
    /// flash crowd `serve` exists to see refused. Checked exactly, and
    /// not a failure in the sense of the run's `failed` count.
    pub refused_by_design: u64,
    /// Counters and simulated results that must repeat exactly.
    pub exact: BTreeMap<String, Exact>,
    /// Host-time measurements taken inside the repetition (the
    /// executor's hand-off percentiles, per-policy wall times).
    pub measured: BTreeMap<String, f64>,
    /// Output checks evaluated on this repetition.
    pub checks: Vec<Check>,
}

impl RepOutcome {
    /// Records an exact counter.
    pub fn int(&mut self, key: &str, v: u64) {
        self.exact.insert(key.to_string(), Exact::Int(v));
    }

    /// Records an exact simulated quantity.
    pub fn real(&mut self, key: &str, v: f64) {
        self.exact.insert(key.to_string(), Exact::Real(v));
    }

    /// Records every [`SchedStats`] field under `sched.<field>`.
    pub fn sched_stats(&mut self, s: &SchedStats) {
        for (k, v) in [
            ("picks", s.picks),
            ("vt_changes", s.vt_changes),
            ("full_resorts", s.full_resorts),
            ("nodes_moved", s.nodes_moved),
            ("readjust_calls", s.readjust_calls),
            ("weights_clamped", s.weights_clamped),
            ("heuristic_picks", s.heuristic_picks),
            ("heuristic_scans", s.heuristic_scans),
            ("renormalizations", s.renormalizations),
            ("migrations", s.migrations),
            ("bucket_migrations", s.bucket_migrations),
            ("bucket_scans", s.bucket_scans),
            ("weight_classes", s.weight_classes),
            ("events", s.events),
            ("event_steps", s.event_steps),
            ("shard_steals", s.shard_steals),
            ("shard_rebalances", s.shard_rebalances),
            ("shard_wake_migrations", s.shard_wake_migrations),
        ] {
            self.int(&format!("sched.{k}"), v);
        }
    }

    /// Records the engine-level counters of a simulator report and the
    /// capacity check every simulated run must pass: total service never
    /// exceeds `cpus × duration`.
    pub fn sim_counters(&mut self, rep: &SimReport) {
        self.int("sim.engine_events", rep.engine_events);
        self.int("sim.ctx_switches", rep.ctx_switches);
        let service = rep.total_service().as_nanos();
        self.int("sim.total_service_ns", service);
        let capacity = u64::from(rep.cpus) * rep.duration.as_nanos();
        self.checks.push(Check::new(
            "service_within_capacity",
            service <= capacity,
            format!("service {service} ns, capacity {capacity} ns"),
        ));
    }
}

/// Generated inputs bound to a substrate, ready to repeat.
pub trait Prepared {
    /// FNV-1a over every generated input value.
    fn inputs_hash(&self) -> &str;

    /// Runs the workload once.
    fn rep(&self, mode: &RepMode) -> RepOutcome;

    /// Extra per-layer measurements that need their own bare runs (the
    /// per-policy wall times of `baselines`), as `(metric, value)`.
    fn layer_pass(&self) -> Vec<(String, f64)> {
        Vec::new()
    }

    /// An output check that runs once per process, before the timed
    /// repetitions (the executor's 2:1:1 share check).
    fn setup_check(&self) -> Option<Check> {
        None
    }
}

/// Generates the inputs of `id` from `seed` and builds its scenario and
/// policy. With `spans`, generation and building are recorded as
/// `bench.generate` and `sim.scenario.build` under the given parent.
pub fn prepare(
    id: WorkloadId,
    seed: u64,
    scale: Scale,
    spans: Option<(&Tracer, SpanId)>,
) -> Box<dyn Prepared> {
    match id {
        WorkloadId::Steady => Box::new(crate::steady::prepare(seed, scale, spans)),
        WorkloadId::Churn => Box::new(crate::churn::prepare(seed, scale, spans)),
        WorkloadId::Serve => Box::new(crate::serve::prepare(seed, scale, spans)),
        WorkloadId::Baselines => Box::new(crate::baselines::prepare(seed, scale, spans)),
        WorkloadId::RtRing => Box::new(crate::rt_ring::prepare(seed, scale, spans)),
    }
}

/// Runs `f` under a span when tracing, bare otherwise.
pub fn spanned<R>(
    spans: Option<(&Tracer, SpanId)>,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    match spans {
        Some((tracer, parent)) => {
            let _g = tracer.span(name, parent);
            f()
        }
        None => f(),
    }
}

/// The scheduler a repetition hands to its substrate: bare, or wrapped
/// in [`TimedScheduler`] under `parent`.
pub fn decorate(sched: Box<dyn Scheduler>, mode: &RepMode, parent: SpanId) -> Box<dyn Scheduler> {
    match mode {
        RepMode::Timed {
            tracer,
            pick_spin_ns,
        } => Box::new(TimedScheduler::new(sched, tracer, parent).with_pick_spin(*pick_spin_ns)),
        RepMode::Plain | RepMode::Recorded => sched,
    }
}

/// Times `f` in host seconds.
pub fn timed_s<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}
