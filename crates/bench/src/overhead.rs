//! Scheduling-overhead sweep for the exact SFS pick path.
//!
//! Not a figure from the paper: this artefact records the per-decision
//! cost of *exact* SFS as the runnable-thread count sweeps 10²–10⁵,
//! Fig. 6-style. The resort-based §3.1 implementation re-sorted the
//! whole surplus queue on nearly every pick (the virtual time advances
//! almost every quantum), making the pick path O(n); the
//! per-weight-class bucket queue makes it O(#weight-classes). The
//! emitted `BENCH_overhead.json` carries, per thread count:
//!
//! * `ns_per_pick_at_<n>` — wall-clock cost of one dispatch + requeue,
//! * `resorts_per_pick_at_<n>` — bulk surplus re-sorts per decision
//!   (was ~1 before the bucket queue; must be 0 now),
//! * `scans_per_pick_at_<n>` — queue entries examined per decision
//!   (tracks weight classes, not threads), and
//! * `weight_classes_at_<n>` — distinct φ buckets present.
//!
//! so the perf trajectory of the hot path is machine-diffable run over
//! run. A CI smoke step regenerates the quick variant on every PR.

use std::time::Instant;

use sfs_core::sched::{Scheduler, SwitchReason};
use sfs_core::task::{weight, CpuId, TaskId};
use sfs_core::time::{Duration, Time};
use sfs_metrics::{render, ChartConfig, TimeSeries};

use crate::common::{policy, Effort, ExpResult};

const CPUS: u32 = 4;
const WEIGHT_CLASSES: u64 = 10;

/// Per-decision cost measured at one (policy, thread-count) point.
pub struct SweepPoint {
    /// Wall-clock nanoseconds per dispatch + requeue.
    pub ns_per_pick: f64,
    /// Bulk surplus re-sorts per decision (0 for the bucket queue).
    pub resorts_per_pick: f64,
    /// Queue entries examined per decision in exact mode.
    pub scans_per_pick: f64,
    /// Distinct weight-class buckets at the end of the run.
    pub weight_classes: u64,
}

/// Runs `measured_picks` steady-state scheduling decisions over
/// `threads` compute-bound threads of ten mixed weights
/// on a lockstep quad-processor, and reports per-decision costs.
pub fn sweep_point(kind: &str, threads: usize, measured_picks: u64) -> SweepPoint {
    let quantum = Duration::from_millis(1);
    let mut sched = policy(kind, quantum).build(CPUS);
    let mut now = Time::ZERO;
    // Ten equal-sized weight classes, attached in descending-weight
    // blocks so the weight queue's sorted insert is O(1) per arrival
    // and setup stays linear at 10⁵ threads.
    for i in 0..threads {
        let w = WEIGHT_CLASSES - (i * WEIGHT_CLASSES as usize / threads) as u64;
        sched.attach(TaskId(i as u64), weight(w.max(1)), now);
    }
    let mut running: Vec<Option<TaskId>> = vec![None; CPUS as usize];
    let mut drive = |sched: &mut Box<dyn Scheduler>, now: &mut Time, picks: u64| {
        let mut done = 0u64;
        while done < picks {
            for (c, slot) in running.iter_mut().enumerate() {
                if slot.is_none() {
                    *slot = sched.pick_next(CpuId(c as u32), *now);
                    done += 1;
                }
            }
            *now += quantum;
            for slot in &mut running {
                if let Some(id) = slot.take() {
                    sched.put_prev(id, quantum, SwitchReason::Preempted, *now);
                }
            }
        }
    };
    // Warm-up: every thread runs once, dispersing the cold-start tie
    // mass (all arrivals share S = v) into the steady-state tag spread
    // a long-running server exhibits.
    drive(&mut sched, &mut now, threads as u64 + CPUS as u64 * 16);
    let before = sched.stats();
    let t0 = Instant::now();
    drive(&mut sched, &mut now, measured_picks);
    let elapsed = t0.elapsed();
    let after = sched.stats();
    let picks = (after.picks - before.picks).max(1);
    SweepPoint {
        ns_per_pick: elapsed.as_nanos() as f64 / picks as f64,
        resorts_per_pick: (after.full_resorts - before.full_resorts) as f64 / picks as f64,
        scans_per_pick: (after.bucket_scans - before.bucket_scans) as f64 / picks as f64,
        weight_classes: after.weight_classes,
    }
}

/// Regenerates the scheduling-overhead sweep (`BENCH_overhead.json`).
pub fn run(effort: Effort) -> ExpResult {
    let mut res = ExpResult::new(
        "overhead",
        "Exact-SFS per-decision cost vs runnable threads (bucket queue)",
    );
    let counts: &[usize] = match effort {
        Effort::Full => &[100, 1_000, 10_000, 100_000],
        Effort::Quick => &[100, 1_000, 5_000],
    };
    let picks = effort.count(40_000);

    let mut exact = TimeSeries::new("SFS (exact, bucket queue)");
    let mut heur = TimeSeries::new("SFS (heuristic k=20)");
    let mut csv =
        String::from("threads,ns_per_pick,resorts_per_pick,scans_per_pick,weight_classes\n");
    for &n in counts {
        let p = sweep_point("sfs", n, picks);
        exact.push(n as f64, p.ns_per_pick);
        csv.push_str(&format!(
            "{n},{:.1},{:.4},{:.2},{}\n",
            p.ns_per_pick, p.resorts_per_pick, p.scans_per_pick, p.weight_classes
        ));
        res.finding(
            &format!("ns_per_pick_at_{n}"),
            format!("{:.1}", p.ns_per_pick),
        );
        res.finding(
            &format!("resorts_per_pick_at_{n}"),
            format!("{:.4}", p.resorts_per_pick),
        );
        res.finding(
            &format!("scans_per_pick_at_{n}"),
            format!("{:.2}", p.scans_per_pick),
        );
        res.finding(
            &format!("weight_classes_at_{n}"),
            format!("{}", p.weight_classes),
        );
        let h = sweep_point("sfs-heuristic", n, picks);
        heur.push(n as f64, h.ns_per_pick);
    }
    res.section(&render(
        "Per-decision scheduling cost vs runnable threads",
        &[&exact, &heur],
        &ChartConfig {
            x_label: "runnable threads".into(),
            y_label: "ns per scheduling decision".into(),
            ..ChartConfig::default()
        },
    ));
    res.csv.push(("overhead.csv".into(), csv));
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_pick_work_does_not_grow_with_thread_count() {
        // The deterministic counters (not wall time, which is noisy in
        // CI): scans per decision must track the number of weight
        // classes, not the number of threads, and bulk re-sorts must be
        // extinct.
        let small = sweep_point("sfs", 100, 2_000);
        let big = sweep_point("sfs", 4_000, 2_000);
        assert_eq!(small.resorts_per_pick, 0.0, "resort on the pick path");
        assert_eq!(big.resorts_per_pick, 0.0, "resort on the pick path");
        assert!(
            big.scans_per_pick < 200.0,
            "40× threads must not mean 40× scans: {:.1}/pick at 4000 threads",
            big.scans_per_pick
        );
        assert!(big.weight_classes <= WEIGHT_CLASSES + 1);
    }

    #[test]
    fn overhead_emits_machine_readable_summary() {
        let res = run(Effort::Quick);
        for key in [
            "ns_per_pick_at_5000",
            "resorts_per_pick_at_5000",
            "scans_per_pick_at_100",
        ] {
            assert!(
                res.summary.iter().any(|(k, _)| k == key),
                "missing finding {key}"
            );
        }
        let resorts = res
            .summary
            .iter()
            .filter(|(k, _)| k.starts_with("resorts_per_pick_at_"))
            .map(|(_, v)| v.clone())
            .collect::<Vec<_>>();
        assert!(!resorts.is_empty());
        assert!(
            resorts.iter().all(|v| v == "0.0000"),
            "exact mode re-sorted: {resorts:?}"
        );
        let json = res.summary_json();
        assert!(json.contains(r#""id":"overhead""#), "{json}");
    }
}
