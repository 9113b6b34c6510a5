//! The registry of every metric the benchmark reports: name, unit,
//! direction, bound and where the number comes from.
//!
//! `BENCHMARK.json` at the repository root lists the same metrics; a
//! test in `tests/contract.rs` holds the two together. The README's
//! metric tables are written from this file.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Where a per-layer number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Timed repetitions with no tracing (the end-to-end metrics).
    Timed,
    /// The traced run: spans around each layer's public calls.
    Traced,
    /// A component drive (`layers.rs`).
    Drive,
    /// An exact counter the program itself reports.
    Counter,
}

/// How `compare` judges a metric between two sets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// May worsen by this share of set A's value.
    Relative(f64),
    /// Simulated or counted: must be identical.
    Exact,
    /// Must not get worse at all (a failure share).
    NoWorse,
    /// Reported, not judged.
    None,
}

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, starting with the layer for per-layer metrics.
    pub name: &'static str,
    /// Unit, in `BENCHMARK.json`'s alphabet.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// Where the number comes from.
    pub source: Source,
    /// How `compare` judges it.
    pub gate: Gate,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: Source,
    gate: Gate,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        source,
        gate,
    }
}

use Better::{Higher, Lower};
use Source::{Counter, Drive, Timed, Traced};

/// The end-to-end metrics the driver gates: defined on every workload,
/// never zero, steady across seeds.
///
/// The bounds are at least three times the widest run-to-run spread
/// measured over ten seeds on the reference host (README,
/// "Steadiness"). That is wider than the issue's 10 % / 5 %: two
/// processes with identical inputs differ by up to 4 % on `churn`
/// through physical memory placement alone, and `rt_ring`'s 5 MB
/// resident set moves by 0.25 MB with how many thread stacks are
/// touched.
pub const END_TO_END: [MetricDef; 4] = [
    m("wall_s", "s", Lower, Timed, Gate::Relative(0.15)),
    m(
        "decisions_per_s",
        "1/s",
        Higher,
        Timed,
        Gate::Relative(0.15),
    ),
    m("peak_rss_mb", "MB", Lower, Timed, Gate::Relative(0.15)),
    m("setup_s", "s", Lower, Timed, Gate::Relative(0.25)),
];

/// The other user-visible metrics of the issue's ten. Each is defined on
/// some workloads only (or is zero by construction), which the driver's
/// `end_to_end` list cannot express, so they travel with the per-layer
/// metrics under an `e2e.` prefix; `compare` still gates them.
pub const USER_VISIBLE: [MetricDef; 5] = [
    m(
        "e2e.ops_failed_share",
        "share",
        Lower,
        Counter,
        Gate::NoWorse,
    ),
    m("e2e.share_err_max", "share", Lower, Counter, Gate::Exact),
    m("e2e.resp_p50_ms", "ms", Lower, Counter, Gate::Exact),
    m("e2e.resp_p99_ms", "ms", Lower, Counter, Gate::Exact),
    m(
        "e2e.handoff_p50_us",
        "us",
        Lower,
        Timed,
        Gate::Relative(0.10),
    ),
];

/// The per-layer metrics.
pub const PER_LAYER: [MetricDef; 70] = [
    // core.sched: the Scheduler boundary, every workload.
    m("core.sched.pick_ns", "ns", Lower, Traced, Gate::None),
    m("core.sched.pick_p99_ns", "ns", Lower, Traced, Gate::None),
    m("core.sched.put_prev_ns", "ns", Lower, Traced, Gate::None),
    m("core.sched.wake_ns", "ns", Lower, Traced, Gate::None),
    m("core.sched.attach_ns", "ns", Lower, Traced, Gate::None),
    m("core.sched.detach_ns", "ns", Lower, Traced, Gate::None),
    m("core.sched.set_weight_ns", "ns", Lower, Drive, Gate::None),
    m(
        "core.sched.preempt_query_ns",
        "ns",
        Lower,
        Traced,
        Gate::None,
    ),
    m("core.sched.busy_share", "share", Lower, Traced, Gate::None),
    m("core.sched.picks", "count", Lower, Counter, Gate::Exact),
    m("core.sched.events", "count", Lower, Counter, Gate::Exact),
    m(
        "core.sched.steps_per_event",
        "count",
        Lower,
        Counter,
        Gate::Exact,
    ),
    m(
        "core.sched.scans_per_pick",
        "count",
        Lower,
        Counter,
        Gate::Exact,
    ),
    m(
        "core.sched.readjust_calls",
        "count",
        Lower,
        Counter,
        Gate::Exact,
    ),
    m(
        "core.sched.weights_clamped",
        "count",
        Lower,
        Counter,
        Gate::Exact,
    ),
    m(
        "core.sched.bucket_migrations",
        "count",
        Lower,
        Counter,
        Gate::Exact,
    ),
    m(
        "core.sched.full_resorts",
        "count",
        Lower,
        Counter,
        Gate::Exact,
    ),
    // Component drives.
    m("core.buckets.pick_ns", "ns", Lower, Drive, Gate::None),
    m("core.buckets.requeue_ns", "ns", Lower, Drive, Gate::None),
    m("core.buckets.migrate_ns", "ns", Lower, Drive, Gate::None),
    m(
        "core.buckets.steps_per_op",
        "count",
        Lower,
        Drive,
        Gate::None,
    ),
    m("core.feasible.update_ns", "ns", Lower, Drive, Gate::None),
    m(
        "core.feasible.steps_per_update",
        "count",
        Lower,
        Drive,
        Gate::None,
    ),
    m("core.readjust.capped_ns", "ns", Lower, Drive, Gate::None),
    m("core.readjust.flat_ns", "ns", Lower, Drive, Gate::None),
    m("core.queues.insert_ns", "ns", Lower, Drive, Gate::None),
    m("core.queues.update_key_ns", "ns", Lower, Drive, Gate::None),
    m("core.queues.remove_ns", "ns", Lower, Drive, Gate::None),
    m(
        "core.queues.steps_per_op",
        "count",
        Lower,
        Drive,
        Gate::None,
    ),
    m(
        "core.queues.keycounter_update_ns",
        "ns",
        Lower,
        Drive,
        Gate::None,
    ),
    // Per-policy wall time on `baselines`.
    m("core.sfq.wall_s", "s", Lower, Traced, Gate::None),
    m("core.wfq.wall_s", "s", Lower, Traced, Gate::None),
    m("core.stride.wall_s", "s", Lower, Traced, Gate::None),
    m("core.bvt.wall_s", "s", Lower, Traced, Gate::None),
    m("core.timeshare.wall_s", "s", Lower, Traced, Gate::None),
    m("core.rr.wall_s", "s", Lower, Traced, Gate::None),
    // `serve`'s extra layers.
    m("core.shard.steals", "count", Lower, Counter, Gate::Exact),
    m(
        "core.shard.rebalances",
        "count",
        Lower,
        Counter,
        Gate::Exact,
    ),
    m(
        "core.shard.wake_migrations",
        "count",
        Lower,
        Counter,
        Gate::Exact,
    ),
    m("core.admit.try_admit_ns", "ns", Lower, Drive, Gate::None),
    m("core.admit.rejected", "count", Lower, Counter, Gate::Exact),
    m("core.gms.advance_ns", "ns", Lower, Drive, Gate::None),
    m("core.policy.parse_build_us", "us", Lower, Drive, Gate::None),
    // The simulator.
    m("sim.wheel.push_ns", "ns", Lower, Drive, Gate::None),
    m("sim.wheel.pop_ns", "ns", Lower, Drive, Gate::None),
    m("sim.engine.ns_per_event", "ns", Lower, Timed, Gate::None),
    m(
        "sim.engine.self_ns_per_event",
        "ns",
        Lower,
        Traced,
        Gate::None,
    ),
    m("sim.engine.self_share", "share", Lower, Traced, Gate::None),
    m("sim.engine.events", "count", Lower, Counter, Gate::Exact),
    m(
        "sim.engine.ctx_switches",
        "count",
        Lower,
        Counter,
        Gate::Exact,
    ),
    m("sim.scenario.build_s", "s", Lower, Traced, Gate::None),
    // The experiment front-end and its report.
    m(
        "experiment.substrate.overhead_s",
        "s",
        Lower,
        Traced,
        Gate::None,
    ),
    m(
        "experiment.report.fairness_ms",
        "ms",
        Lower,
        Traced,
        Gate::None,
    ),
    m(
        "experiment.capture.roundtrip_mb_s",
        "MB/s",
        Higher,
        Drive,
        Gate::None,
    ),
    m(
        "metrics.fairness.ns_per_task",
        "ns",
        Lower,
        Drive,
        Gate::None,
    ),
    // The repository's own tracing.
    m(
        "trace.recorder.overhead_pct",
        "%",
        Lower,
        Traced,
        Gate::None,
    ),
    m("trace.recorder.events", "count", Lower, Counter, Gate::None),
    m("trace.json.encode_mb_s", "MB/s", Higher, Drive, Gate::None),
    m("trace.json.parse_mb_s", "MB/s", Higher, Drive, Gate::None),
    m(
        "trace.perfetto.encode_mb_s",
        "MB/s",
        Higher,
        Drive,
        Gate::None,
    ),
    // The real-thread executor.
    m("rt.executor.handoff_p99_us", "us", Lower, Timed, Gate::None),
    m(
        "rt.executor.handoff_p999_us",
        "us",
        Lower,
        Timed,
        Gate::None,
    ),
    m("rt.executor.yield_ns", "ns", Lower, Timed, Gate::None),
    m("rt.executor.checkpoint_ns", "ns", Lower, Drive, Gate::None),
    m("rt.executor.spawn_us", "us", Lower, Timed, Gate::None),
    m(
        "rt.executor.sched_share",
        "share",
        Lower,
        Traced,
        Gate::None,
    ),
    m("rt.executor.switches", "count", Lower, Counter, Gate::None),
    m(
        "rt.executor.watchdog_fires",
        "count",
        Lower,
        Counter,
        Gate::Exact,
    ),
    m(
        "rt.executor.invariant_violations",
        "count",
        Lower,
        Counter,
        Gate::Exact,
    ),
    // The benchmark's own instrument.
    m("bench.trace_overhead_pct", "%", Lower, Traced, Gate::None),
];

/// Every metric a `--trace 1` run prints: the per-layer metrics and the
/// user-visible ones that could not be end-to-end.
pub fn per_layer_all() -> impl Iterator<Item = &'static MetricDef> {
    PER_LAYER.iter().chain(USER_VISIBLE.iter())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_in_the_contract_alphabet() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(per_layer_all())
            .map(|d| d.name)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        for d in END_TO_END.iter().chain(per_layer_all()) {
            assert!(d.name.len() <= 64, "{}", d.name);
            assert!(
                d.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                d.name
            );
            assert!(d.unit.len() <= 16, "{}", d.unit);
            assert!(
                d.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                d.unit
            );
        }
    }

    #[test]
    fn end_to_end_bounds_fit_the_contract() {
        for d in &END_TO_END {
            match d.gate {
                Gate::Relative(b) => assert!(b > 0.0 && b <= 0.25, "{}", d.name),
                _ => panic!("{} must carry a relative bound", d.name),
            }
        }
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }
}
