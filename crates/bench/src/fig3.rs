//! Figure 3 — the cost of the exact pick, in place of the §3.2
//! heuristic's accuracy.
//!
//! The paper's Figure 3 measures how often a bounded-lookahead
//! heuristic, examining the first `k` entries of each queue, picks the
//! true minimum-surplus thread; the heuristic exists because its kernel
//! re-sorts an O(n) surplus queue on every decision. Here the
//! per-weight-class bucket queue makes the exact pick
//! O(#weight-classes + p), so the heuristic is not implemented (see
//! the `sfs` module doc). The figure reports what replaced it. On the
//! paper's setup — a quad-processor system with 100–400 runnable
//! compute-bound threads of weights 1..10, quanta in lockstep — it
//! counts the queue entries the exact pick examines per decision
//! (`bucket_scans / picks`) next to the number of weight classes. The
//! count tracks the weight classes and the four running threads, not
//! the thread count. No wall clock is read, so the figure is
//! deterministic.

use sfs_core::policy::PolicySpec;
use sfs_core::sched::{SchedStats, SwitchReason};
use sfs_core::task::{weight, CpuId, TaskId};
use sfs_core::time::{Duration, Time};
use sfs_metrics::{render, ChartConfig, TimeSeries};

use crate::common::{Effort, ExpResult};

/// Runs `picks` exact SFS decisions over `threads` compute-bound
/// threads on a 4-CPU machine in lockstep quanta, each CPU picking for
/// itself, and returns the scheduler's counters.
fn lockstep(threads: usize, picks: u64) -> SchedStats {
    let cpus = 4u32;
    let quantum = Duration::from_millis(1);
    let mut sched = PolicySpec::sfs().with_quantum(quantum).build(cpus);
    let mut now = Time::ZERO;
    for i in 0..threads {
        // Mixed weights 1..=10, deterministic.
        sched.attach(TaskId(i as u64), weight(1 + (i as u64 * 7) % 10), now);
    }
    let mut running: Vec<Option<TaskId>> = vec![None; cpus as usize];
    let mut done = 0u64;
    while done < picks {
        for (cpu, slot) in running.iter_mut().enumerate() {
            *slot = sched.pick_next(CpuId(cpu as u32), now);
            done += 1;
        }
        now += quantum;
        for slot in &mut running {
            if let Some(id) = slot.take() {
                sched.put_prev(id, quantum, SwitchReason::Preempted, now);
            }
        }
    }
    sched.stats()
}

/// Regenerates Figure 3.
pub fn run(effort: Effort) -> ExpResult {
    let mut res = ExpResult::new("fig3", "Cost of the exact pick (quad-processor)");
    let picks = effort.count(20_000);
    let thread_counts: &[usize] = &[100, 200, 300, 400];

    let mut scans = TimeSeries::new("entries examined per pick");
    let mut classes = TimeSeries::new("weight classes");
    let mut csv = String::from("threads,picks,bucket_scans,scans_per_pick,weight_classes\n");
    for &t in thread_counts {
        let st = lockstep(t, picks);
        let per_pick = st.bucket_scans as f64 / st.picks as f64;
        scans.push(t as f64, per_pick);
        classes.push(t as f64, st.weight_classes as f64);
        csv.push_str(&format!(
            "{t},{},{},{per_pick:.2},{}\n",
            st.picks, st.bucket_scans, st.weight_classes
        ));
        res.finding(&format!("scans_per_pick_t{t}"), format!("{per_pick:.2}"));
        res.finding(
            &format!("weight_classes_t{t}"),
            st.weight_classes.to_string(),
        );
    }
    res.section(&render(
        "Exact-pick cost vs runnable threads",
        &[&scans, &classes],
        &ChartConfig {
            x_label: "runnable threads".into(),
            y_label: "count".into(),
            ..ChartConfig::default()
        },
    ));
    res.csv.push(("fig3.csv".into(), csv));
    res
}
