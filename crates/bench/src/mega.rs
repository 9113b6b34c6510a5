//! Mega-scale engine sweep: 10⁶ tasks through one simulator run.
//!
//! Not a figure from the paper: this artefact extends the event-path
//! cost curve of [`churn`](crate::churn) two decades to the right and
//! moves the measurement from a bare scheduler driven in a loop to the
//! *whole* discrete-event engine — timing-wheel event queue,
//! struct-of-arrays task storage, interned task names, batched
//! same-tick arrival/wake application and lean-mode recording. The
//! scenario at each thread count `n` is a deliberate stress mix:
//!
//! * 70 % short finite jobs (200 µs each) arriving **in one same-tick
//!   burst at t = 0** — the worst case for the arrival path, applied
//!   through one `arrive_batch` with a single §2.1 readjustment pass;
//! * 20 % identical jobs in 32 staggered same-tick waves across the
//!   first 60 % of the run (repeated medium-sized batches);
//! * 10 % interactive tasks (100 ms think, 1 ms burst) that block and
//!   wake for the whole run, keeping wake traffic and a large mixed
//!   runnable set alive after the bulk drains.
//!
//! The run uses lean mode (aggregate totals instead of per-task curves
//! and samples), so the per-task memory floor is the task arena itself.
//! `BENCH_mega.json` carries, per count:
//!
//! * `ns_per_event_at_<n>` — wall-clock cost of one engine event,
//! * `events_at_<n>` — discrete events the engine processed,
//! * `completed_at_<n>` — tasks that ran to completion and exited,
//! * `tasks_at_<n>` — tasks that arrived.
//!
//! CI regenerates the quick variant on every PR and fails if
//! `ns_per_event` grows superlogarithmically across the sweep — the
//! regression gate for the O(1)-amortized wheel and the batched event
//! application.

use std::time::Instant;

use sfs_core::time::{Duration, Time};
use sfs_metrics::{render, ChartConfig, TimeSeries};
use sfs_sim::{Scenario, SimConfig, TaskSpec};
use sfs_workloads::BehaviorSpec;

use crate::common::{policy, Effort, ExpResult};

const CPUS: u32 = 8;
/// Staggered arrival waves after the t = 0 bulk.
const WAVES: usize = 32;

/// One sweep point's measurements.
pub struct MegaPoint {
    /// Wall-clock nanoseconds per discrete engine event.
    pub ns_per_event: f64,
    /// Engine events processed.
    pub events: u64,
    /// Tasks that arrived.
    pub tasks: u64,
    /// Tasks that ran to completion and exited.
    pub completed: u64,
}

/// The stress scenario at `tasks` total tasks; `job` is the finite
/// tasks' CPU demand (scaled down in unit tests so debug builds finish
/// fast).
fn scenario(tasks: usize, job: Duration) -> Scenario {
    let bulk = tasks * 7 / 10;
    let interactive = tasks / 10;
    let waved = tasks - bulk - interactive;
    // Long enough for the finite demand to drain on 8 CPUs even with
    // the interactive tasks competing, short enough that the tail does
    // not dominate the measurement.
    let work = Duration(job.as_nanos() * (bulk + waved) as u64 / CPUS as u64);
    let duration = Duration(work.as_nanos() * 3 / 2).max(Duration::from_secs(2));
    let cfg = SimConfig {
        cpus: CPUS,
        duration,
        ctx_switch: Duration::from_micros(1),
        sample_every: duration / 8,
        track_gms: false,
        seed: 0xC0DE,
        lean: true,
    };
    let mut sc = Scenario::new("mega", cfg)
        .task(TaskSpec::new("bulk", 1, BehaviorSpec::Finite(job)).replicated(bulk))
        .task(
            TaskSpec::new(
                "think",
                2,
                BehaviorSpec::Interact {
                    think: Duration::from_millis(100),
                    burst: Duration::from_millis(1),
                },
            )
            .replicated(interactive),
        );
    // 32 same-tick waves spread over the first 60 % of the run, weights
    // cycling over three classes so the §2.1 walk sees a mixed set.
    let window = duration.as_nanos() * 3 / 5;
    for wave in 0..WAVES {
        let n = waved / WAVES + usize::from(wave < waved % WAVES);
        if n == 0 {
            continue;
        }
        let at = Time(window * (wave as u64 + 1) / WAVES as u64);
        sc = sc.task(
            TaskSpec::new(
                &format!("wave{wave:02}"),
                1 << (wave % 3),
                BehaviorSpec::Finite(job),
            )
            .replicated(n)
            .arrive_at(at),
        );
    }
    sc
}

/// Runs one sweep point and reports per-event cost.
pub fn mega_point(tasks: usize, job: Duration) -> MegaPoint {
    let sched = policy("sfs", Duration::from_millis(20)).build(CPUS);
    let sc = scenario(tasks, job);
    let t0 = Instant::now();
    let rep = sc.try_run(sched).expect("mega scenario is well-formed");
    let elapsed = t0.elapsed();
    let s = rep.summary.expect("mega runs in lean mode");
    MegaPoint {
        ns_per_event: elapsed.as_nanos() as f64 / rep.engine_events.max(1) as f64,
        events: rep.engine_events,
        tasks: s.tasks,
        completed: s.exited,
    }
}

/// Regenerates the mega-scale engine sweep (`BENCH_mega.json`).
pub fn run(effort: Effort) -> ExpResult {
    let mut res = ExpResult::new(
        "mega",
        "Engine cost per event at 10⁴–10⁶ tasks (timing wheel + batched application)",
    );
    let counts: &[usize] = match effort {
        Effort::Full => &[10_000, 100_000, 1_000_000],
        Effort::Quick => &[1_000, 10_000, 100_000],
    };
    let job = Duration::from_micros(200);

    // Warm-up: page in the engine and scheduler code paths so the
    // smallest point is not charged the cold start.
    let _ = mega_point(counts[0] / 10, job);

    let mut series = TimeSeries::new("SFS engine (wheel + SoA + batched events)");
    let mut csv = String::from("tasks,ns_per_event,events,completed\n");
    for &n in counts {
        let p = mega_point(n, job);
        series.push(n as f64, p.ns_per_event);
        csv.push_str(&format!(
            "{n},{:.1},{},{}\n",
            p.ns_per_event, p.events, p.completed
        ));
        res.finding(
            &format!("ns_per_event_at_{n}"),
            format!("{:.1}", p.ns_per_event),
        );
        res.finding(&format!("events_at_{n}"), format!("{}", p.events));
        res.finding(&format!("completed_at_{n}"), format!("{}", p.completed));
        res.finding(&format!("tasks_at_{n}"), format!("{}", p.tasks));
    }
    res.section(&render(
        "Engine cost per discrete event vs total tasks",
        &[&series],
        &ChartConfig {
            x_label: "tasks in scenario".into(),
            y_label: "ns per engine event".into(),
            ..ChartConfig::default()
        },
    ));
    res.csv.push(("mega.csv".into(), csv));
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    // Debug-build scales: tiny jobs so the whole sweep is a second.
    const TEST_JOB: Duration = Duration::from_micros(20);

    #[test]
    fn mega_point_completes_all_finite_tasks() {
        let p = mega_point(2_000, TEST_JOB);
        assert_eq!(p.tasks, 2_000);
        // 90 % of the tasks are finite and the run is sized to drain
        // them; the interactive 10 % never exit.
        assert!(
            p.completed >= 1_800,
            "only {} of 2000 tasks completed",
            p.completed
        );
        assert!(p.events > 2_000, "implausibly few events: {}", p.events);
    }

    #[test]
    fn per_event_cost_stays_logarithmic_in_task_count() {
        // Wall-clock in a debug test is noisy; use a generous factor.
        // The point is to catch O(n)-per-event regressions (a linear
        // scan anywhere in the event path costs 25× here, not 8×).
        let small = mega_point(800, TEST_JOB);
        let big = mega_point(20_000, TEST_JOB);
        assert!(
            big.ns_per_event < small.ns_per_event * 8.0 + 2_000.0,
            "per-event cost scaled with task count: {:.0} ns at 800 vs {:.0} ns at 20k",
            small.ns_per_event,
            big.ns_per_event
        );
    }

    #[test]
    fn mega_emits_machine_readable_summary() {
        // Quick effort but with the test-sized sweep is still too slow
        // for debug CI; exercise the reporting shape directly instead.
        let mut res = ExpResult::new("mega", "test");
        let p = mega_point(1_000, TEST_JOB);
        res.finding("ns_per_event_at_1000", format!("{:.1}", p.ns_per_event));
        res.finding("events_at_1000", format!("{}", p.events));
        let json = res.summary_json();
        assert!(json.contains(r#""id":"mega""#), "{json}");
        assert!(json.contains("ns_per_event_at_1000"), "{json}");
    }
}
