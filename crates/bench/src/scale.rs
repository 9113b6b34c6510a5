//! Shard-scaling sweep: rt decision throughput and lock behaviour vs
//! shard count (`repro scale` → `BENCH_scale.json`).
//!
//! Not a figure from the paper: §5 names combining SFS with per-CPU
//! run queues as future work, and this artefact measures what the
//! sharded implementation buys. Two halves:
//!
//! * **Throughput + lock costs.** One driver OS thread per virtual CPU
//!   replays the rt executor's hot path exactly — lock the CPU's shard,
//!   `put_prev` the previous quantum, `pick_next` the next — against
//!   `n` attached compute-bound threads of ten mixed weights, for shard
//!   counts 1 (the global-lock baseline) through `CPUS`. Reported per
//!   point: aggregate decisions/s, and the mean nanoseconds each
//!   decision spent *waiting for* and *holding* its shard lock. Picks
//!   are entirely shard-local (the balancer is only touched by
//!   runnable-set changes, of which this steady state has none), so
//!   lock wait is pure contention cost: with one shard every quantum
//!   expiry on the machine serialises through one mutex; with per-CPU
//!   shards the wait collapses to the uncontended acquire.
//! * **Fairness cost.** The same scenarios the figures use (infeasible
//!   1:10 weights; a mixed 10-task allocation) run under global SFS and
//!   sharded SFS on the simulator, and the Jain-index and max-share-
//!   error deltas are recorded — the rebalance bound in practice.
//!
//! CI smoke-runs the quick variant, schema-validates the JSON, and
//! fails if decisions/s at the maximum shard count falls below the
//! single-lock baseline.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use sfs_core::policy::PolicySpec;
use sfs_core::sched::{Scheduler, SwitchReason};
use sfs_core::shard::ShardedScheduler;
use sfs_core::task::{weight, CpuId, TaskId};
use sfs_core::time::{Duration, Time};
use sfs_experiment::Experiment;
use sfs_metrics::{render, ChartConfig, TimeSeries};
use sfs_sim::{Scenario, SimConfig, TaskSpec};
use sfs_workloads::BehaviorSpec;

use crate::common::{Effort, ExpResult};

/// Virtual processors (= driver threads) in the throughput half.
pub const CPUS: u32 = 8;
const WEIGHT_CLASSES: u64 = 10;

/// Measured costs at one (shard count, thread count) point.
pub struct ScalePoint {
    /// Aggregate scheduling decisions per second across all drivers.
    pub decisions_per_sec: f64,
    /// Mean nanoseconds a decision waited to acquire its shard lock.
    pub lock_wait_ns: f64,
    /// Mean nanoseconds a decision held its shard lock.
    pub lock_hold_ns: f64,
    /// Total decisions measured.
    pub decisions: u64,
}

/// Runs `CPUS` driver threads against a sharded SFS over `threads`
/// attached tasks for roughly `run_ms` wall milliseconds.
pub fn scale_point(shards: u32, threads: usize, run_ms: u64) -> ScalePoint {
    let spec: PolicySpec = "sfs:quantum=1ms".parse().expect("static spec");
    let mut sharded = ShardedScheduler::build(&spec, shards, CPUS, None);
    let t0 = Time::ZERO;
    for i in 0..threads {
        let w = 1 + i as u64 % WEIGHT_CLASSES;
        sharded.attach(TaskId(i as u64), weight(w), t0);
    }
    let (layout, shard_scheds, _bal) = sharded.into_parts();
    let locks: Vec<Mutex<Box<dyn Scheduler>>> = shard_scheds.into_iter().map(Mutex::new).collect();
    let stop = AtomicBool::new(false);
    let quantum = Duration::from_millis(1);

    let mut per_driver: Vec<(u64, u128, u128)> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for cpu in 0..CPUS {
            let shard = layout.shard_of(CpuId(cpu));
            let local = layout.local(CpuId(cpu));
            let (locks, stop) = (&locks, &stop);
            handles.push(scope.spawn(move || {
                let mut now = Time::ZERO;
                let mut running: Option<TaskId> = None;
                let (mut decisions, mut wait_ns, mut hold_ns) = (0u64, 0u128, 0u128);
                // relaxed: cooperative stop flag; one extra loop
                // iteration after the store is harmless.
                while !stop.load(Ordering::Relaxed) {
                    let before = Instant::now();
                    let mut sched = locks[shard].lock().expect("driver lock");
                    let acquired = Instant::now();
                    now += quantum;
                    if let Some(id) = running.take() {
                        sched.put_prev(id, quantum, SwitchReason::Preempted, now);
                    }
                    running = sched.pick_next(local, now);
                    drop(sched);
                    let released = Instant::now();
                    wait_ns += (acquired - before).as_nanos();
                    hold_ns += (released - acquired).as_nanos();
                    decisions += 1;
                }
                (decisions, wait_ns, hold_ns)
            }));
        }
        std::thread::sleep(std::time::Duration::from_millis(run_ms));
        // relaxed: cooperative stop flag (see the worker loop).
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            per_driver.push(h.join().expect("driver thread"));
        }
    });

    let decisions: u64 = per_driver.iter().map(|d| d.0).sum();
    let wait: u128 = per_driver.iter().map(|d| d.1).sum();
    let hold: u128 = per_driver.iter().map(|d| d.2).sum();
    ScalePoint {
        decisions_per_sec: decisions as f64 / (run_ms as f64 / 1e3),
        lock_wait_ns: wait as f64 / decisions.max(1) as f64,
        lock_hold_ns: hold as f64 / decisions.max(1) as f64,
        decisions,
    }
}

/// The fairness half: Jain and max-share-error deltas of sharded vs
/// global SFS on a figure-style scenario.
fn fairness_delta(name: &str, scenario: Scenario, shards: u32) -> (String, f64, f64) {
    let global: PolicySpec = "sfs:quantum=10ms".parse().expect("static spec");
    let sharded = global.clone().with_shards(shards);
    let cmp = Experiment::new(scenario)
        .compare(&[global, sharded])
        .expect("scale fairness scenario");
    let d = &cmp.deltas()[1];
    (name.to_string(), d.jain_delta, d.share_error_delta)
}

fn fairness_scenarios(effort: Effort) -> Vec<(String, f64, f64)> {
    let dur = effort.scale(sfs_core::time::Duration::from_secs(16));
    let cfg = |cpus: u32| SimConfig {
        cpus,
        duration: dur,
        ..SimConfig::default()
    };
    vec![
        // Example 1 / fig1: infeasible 1:10 weights on two CPUs.
        fairness_delta(
            "fig1_infeasible",
            Scenario::new("scale-fig1", cfg(2))
                .task(TaskSpec::new("light", 1, BehaviorSpec::Inf))
                .task(TaskSpec::new("heavy", 10, BehaviorSpec::Inf)),
            2,
        ),
        // fig6a-style mixed allocation: ten tasks, three weights, 4 CPUs.
        fairness_delta(
            "fig6_mixed",
            Scenario::new("scale-fig6", cfg(4))
                .task(TaskSpec::new("w4", 4, BehaviorSpec::Inf).replicated(2))
                .task(TaskSpec::new("w2", 2, BehaviorSpec::Inf).replicated(3))
                .task(TaskSpec::new("w1", 1, BehaviorSpec::Inf).replicated(5)),
            4,
        ),
        // Interactive + hogs churn: blocking/waking across shards.
        fairness_delta(
            "fig6_interactive",
            Scenario::new("scale-interactive", cfg(4))
                .task(TaskSpec::new("hog", 2, BehaviorSpec::Inf).replicated(4))
                .task(
                    TaskSpec::new(
                        "interact",
                        1,
                        BehaviorSpec::Interact {
                            think: sfs_core::time::Duration::from_millis(40),
                            burst: sfs_core::time::Duration::from_millis(5),
                        },
                    )
                    .replicated(4),
                ),
            4,
        ),
    ]
}

/// Regenerates the shard-scaling sweep (`BENCH_scale.json`).
pub fn run(effort: Effort) -> ExpResult {
    let mut res = ExpResult::new(
        "scale",
        "Aggregate decisions/s and lock costs vs shard count; sharded-vs-global fairness",
    );
    let (counts, run_ms): (&[usize], u64) = match effort {
        Effort::Full => (&[100, 1_000, 10_000, 100_000], 400),
        Effort::Quick => (&[100, 1_000, 5_000], 120),
    };
    let shard_counts: &[u32] = &[1, 2, 4, CPUS];

    let mut csv =
        String::from("shards,threads,decisions_per_sec,lock_wait_ns,lock_hold_ns,decisions\n");
    let mut series: Vec<TimeSeries> = Vec::new();
    for &shards in shard_counts {
        let mut ts = TimeSeries::new(&if shards == 1 {
            "1 shard (global lock)".to_string()
        } else {
            format!("{shards} shards")
        });
        for &n in counts {
            let p = scale_point(shards, n, run_ms);
            ts.push(n as f64, p.decisions_per_sec);
            csv.push_str(&format!(
                "{shards},{n},{:.0},{:.0},{:.0},{}\n",
                p.decisions_per_sec, p.lock_wait_ns, p.lock_hold_ns, p.decisions
            ));
            res.finding(
                &format!("decisions_per_sec_at_s{shards}_n{n}"),
                format!("{:.0}", p.decisions_per_sec),
            );
            res.finding(
                &format!("lock_wait_ns_at_s{shards}_n{n}"),
                format!("{:.0}", p.lock_wait_ns),
            );
            res.finding(
                &format!("lock_hold_ns_at_s{shards}_n{n}"),
                format!("{:.0}", p.lock_hold_ns),
            );
        }
        series.push(ts);
    }
    // Headline: speedup of max shards over the single-lock baseline at
    // the largest thread count.
    let speedup = {
        let last = counts.last().expect("non-empty sweep");
        let base = res
            .summary
            .iter()
            .find(|(k, _)| k == &format!("decisions_per_sec_at_s1_n{last}"))
            .and_then(|(_, v)| v.parse::<f64>().ok())
            .unwrap_or(1.0);
        let top = res
            .summary
            .iter()
            .find(|(k, _)| k == &format!("decisions_per_sec_at_s{CPUS}_n{last}"))
            .and_then(|(_, v)| v.parse::<f64>().ok())
            .unwrap_or(0.0);
        top / base.max(1.0)
    };
    res.finding(
        &format!("speedup_at_{CPUS}_shards"),
        format!("{speedup:.2}"),
    );

    let refs: Vec<&TimeSeries> = series.iter().collect();
    res.section(&render(
        "Aggregate scheduling decisions/s vs runnable threads",
        &refs,
        &ChartConfig {
            x_label: "runnable threads".into(),
            y_label: "decisions per second (8 driver CPUs)".into(),
            ..ChartConfig::default()
        },
    ));
    res.csv.push(("scale.csv".into(), csv));

    for (name, jain_delta, share_err_delta) in fairness_scenarios(effort) {
        res.finding(&format!("jain_delta_{name}"), format!("{jain_delta:+.4}"));
        res.finding(
            &format!("share_err_delta_{name}"),
            format!("{share_err_delta:+.4}"),
        );
    }
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drivers_make_progress_on_every_shard_count() {
        for shards in [1u32, 4, CPUS] {
            let p = scale_point(shards, 64, 30);
            assert!(p.decisions > 0, "{shards} shards made no decisions");
            assert!(p.decisions_per_sec > 0.0);
            assert!(p.lock_hold_ns > 0.0);
        }
    }

    #[test]
    fn scale_emits_machine_readable_summary() {
        let res = run(Effort::Quick);
        for key in [
            "decisions_per_sec_at_s1_n100",
            &format!("decisions_per_sec_at_s{CPUS}_n5000"),
            &format!("lock_wait_ns_at_s{CPUS}_n100"),
            &format!("speedup_at_{CPUS}_shards"),
            "jain_delta_fig1_infeasible",
            "share_err_delta_fig6_mixed",
        ] {
            assert!(
                res.summary.iter().any(|(k, _)| k == key),
                "missing finding {key}"
            );
        }
        let json = res.summary_json();
        assert!(json.contains(r#""id":"scale""#), "{json}");
    }

    #[test]
    fn sharded_fairness_stays_within_rebalance_bound() {
        // The documented bound: sharding costs at most a few points of
        // Jain index and share error against global SFS on the
        // figure-style scenarios.
        for (name, jain_delta, share_err_delta) in fairness_scenarios(Effort::Quick) {
            assert!(
                jain_delta > -0.12,
                "{name}: sharding collapsed fairness (Jain {jain_delta:+.4})"
            );
            assert!(
                share_err_delta < 0.15,
                "{name}: share error blew past the rebalance bound ({share_err_delta:+.4})"
            );
        }
    }
}
