//! Figure 3 — efficacy of the bounded-lookahead scheduling heuristic.
//!
//! A quad-processor system with 100–400 runnable compute-bound threads
//! of mixed weights runs SFS in heuristic mode with auditing on: each
//! heuristic pick is compared against the exact minimum-surplus choice.
//! The figure plots the hit percentage against the number of queue
//! entries examined (`k`). The paper reports >99% accuracy by k≈20 even
//! at 400 runnable threads.

use sfs_core::policy::PolicySpec;
use sfs_core::task::{weight, TaskId};
use sfs_core::time::Duration;
use sfs_metrics::{render, ChartConfig, TimeSeries};

use crate::common::{Effort, ExpResult};

/// One accuracy measurement.
fn accuracy(threads: usize, k: usize, picks: u64) -> f64 {
    use sfs_core::sched::SwitchReason;
    use sfs_core::task::CpuId;
    use sfs_core::time::Time;

    let cpus = 4u32;
    let quantum = Duration::from_millis(1);
    let mut sched = PolicySpec::sfs()
        .with_quantum(quantum)
        .with_heuristic(k)
        .with_audit()
        .build(cpus);
    let mut now = Time::ZERO;
    for i in 0..threads {
        // Mixed weights 1..=10, deterministic.
        sched.attach(TaskId(i as u64), weight(1 + (i as u64 * 7) % 10), now);
    }
    // Lockstep quanta across the 4 CPUs.
    let mut running: Vec<Option<TaskId>> = vec![None; cpus as usize];
    let mut done = 0u64;
    while done < picks {
        for slot in &mut running {
            if slot.is_none() {
                *slot = sched.pick_next(CpuId(0), now);
                done += 1;
            }
        }
        now += quantum;
        for slot in &mut running {
            if let Some(id) = slot.take() {
                sched.put_prev(id, quantum, SwitchReason::Preempted, now);
            }
        }
    }
    let st = sched.stats();
    if st.heuristic_audits == 0 {
        return 100.0;
    }
    100.0 * st.heuristic_hits as f64 / st.heuristic_audits as f64
}

/// Regenerates Figure 3.
pub fn run(effort: Effort) -> ExpResult {
    let mut res = ExpResult::new(
        "fig3",
        "Efficacy of the scheduling heuristic (quad-processor)",
    );
    let picks = effort.count(20_000);
    let ks: &[usize] = &[1, 2, 5, 10, 20, 30, 50, 75, 100];
    let thread_counts: &[usize] = &[100, 200, 300, 400];

    let mut series: Vec<TimeSeries> = Vec::new();
    let mut csv = String::from("k,threads,accuracy_pct\n");
    for &t in thread_counts {
        let mut s = TimeSeries::new(format!("{t} runnable threads"));
        for &k in ks {
            let acc = accuracy(t, k, picks);
            s.push(k as f64, acc);
            csv.push_str(&format!("{k},{t},{acc:.2}\n"));
        }
        if let Some((_, acc20)) = s.points().iter().find(|(x, _)| *x == 20.0).copied() {
            res.finding(&format!("accuracy_k20_t{t}"), format!("{acc20:.1}%"));
        }
        series.push(s);
    }
    let refs: Vec<&TimeSeries> = series.iter().collect();
    res.section(&render(
        "Heuristic accuracy vs entries examined per queue",
        &refs,
        &ChartConfig {
            x_label: "threads examined in each queue (k)".into(),
            y_label: "accuracy (%)".into(),
            ..ChartConfig::default()
        },
    ));
    res.csv.push(("fig3.csv".into(), csv));
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_increases_with_lookahead() {
        let low = accuracy(100, 1, 1_500);
        let high = accuracy(100, 64, 1_500);
        assert!(high >= low, "k=64 ({high}) < k=1 ({low})");
        assert!(high > 95.0, "k=64 accuracy only {high}");
    }
}
