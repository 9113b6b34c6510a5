//! Figure 5 — the short-jobs problem: SFQ vs SFS.
//!
//! §4.3: one Inf task T1 with weight 20, twenty Inf tasks (T2–T21) with
//! weight 1 each, and a sequence of short (300 ms ≈ 1.5 quanta) tasks
//! with weight 5, each arriving when the previous one finishes. The
//! weight groups are 20:20:5, so the groups should receive bandwidth
//! 4:4:1.
//!
//! Under SFQ each short job arrives holding the minimum start tag and
//! runs in a continuous spurt until it exits — the stream extracts a
//! whole processor and "each set of tasks receives approximately an
//! equal share" (paper). Under SFS a job's surplus jumps after its
//! first quantum and paces the rest of its service at the entitled
//! rate. That moves the groups towards 4:4:1 but does not reach it:
//! at quick effort the whole-run T1:short ratio (entitlement 4) reads
//! 1.94, 2.48 and 3.12 under SFS at 200, 100 and 60 ms quanta, against
//! 1.13, 1.32 and 1.96 under SFQ. Each arriving job starts at surplus
//! 0 and runs its first quantum at once, so the shorter the quantum
//! relative to the 300 ms job, the closer SFS gets. The open gap is
//! the Figure 5 item of ROADMAP.md.
//!
//! Methodological note: unlike the paper's physical testbed, the
//! simulation starts all 21 long-lived tasks at the same instant with
//! identical tags, which produces a synchronized cold-start transient
//! of a few seconds. We therefore report both the
//! whole-run ratios and the steady-state window (final two thirds of a
//! 60 s run); the paper's qualitative claims appear in the whole run
//! for SFQ and in the steady-state window for SFS.

use sfs_core::time::{Duration, Time};
use sfs_experiment::Experiment;
use sfs_metrics::{render, ChartConfig, Table};
use sfs_sim::{Scenario, SimConfig, SimReport, StreamSpec, TaskSpec};
use sfs_workloads::BehaviorSpec;

use crate::common::{policy, Effort, ExpResult};
use crate::helpers::{sum_series, to_iterations};

fn scenario(effort: Effort, q_full_ms: u64) -> (Scenario, Duration) {
    let duration = effort.scale(Duration::from_secs(60));
    // Quick mode scales every time constant by 8, which reproduces the
    // full-scale tag dynamics exactly (verified by the scaling test).
    let (quantum, job_len) = match effort {
        Effort::Full => (Duration::from_millis(q_full_ms), Duration::from_millis(300)),
        Effort::Quick => (
            Duration::from_nanos(q_full_ms * 1_000_000 / 8),
            Duration::from_micros(37_500),
        ),
    };
    let cfg = SimConfig {
        cpus: 2,
        duration,
        ctx_switch: Duration::from_micros(5),
        sample_every: (duration / 150).max(Duration::from_millis(20)),
        track_gms: false,
        seed: 5,
        lean: false,
    };
    let scenario = Scenario::new("fig5", cfg)
        .task(TaskSpec::new("T1", 20, BehaviorSpec::Inf))
        .task(TaskSpec::new("bg", 1, BehaviorSpec::Inf).replicated(20))
        .stream(
            StreamSpec::new("short", 5, BehaviorSpec::Finite(job_len))
                .until(Time(duration.as_nanos())),
        );
    (scenario, quantum)
}

fn run_one(kind: &str, effort: Effort, q_full_ms: u64) -> SimReport {
    let (scenario, quantum) = scenario(effort, q_full_ms);
    Experiment::new(scenario)
        .run(policy(kind, quantum))
        .expect("fig5 scenario is well-formed")
        .sim_report()
        .clone()
}

/// Group services in seconds over `[w0, w1]`: (T1, T2–T21, shorts).
fn window_services(rep: &SimReport, w0: f64, w1: f64) -> (f64, f64, f64) {
    let gain = |t: &sfs_sim::TaskReport| t.series.at(w1) - t.series.at(w0);
    let t1 = gain(rep.task("T1").unwrap());
    let bg: f64 = rep
        .tasks
        .iter()
        .filter(|t| t.name.starts_with("bg#"))
        .map(gain)
        .sum();
    let shorts: f64 = rep
        .tasks
        .iter()
        .filter(|t| t.name.starts_with("short#"))
        .map(gain)
        .sum();
    (t1, bg, shorts)
}

/// Whole-run and steady-state T1:short ratios for one policy.
fn ratios(rep: &SimReport) -> (f64, f64) {
    let end = rep.duration.as_secs_f64();
    let (t1_all, _, sh_all) = window_services(rep, 0.0, end);
    let (t1_ss, _, sh_ss) = window_services(rep, end / 3.0, end);
    (t1_all / sh_all.max(1e-9), t1_ss / sh_ss.max(1e-9))
}

/// Regenerates Figure 5 (both panels).
pub fn run(effort: Effort) -> ExpResult {
    let mut res = ExpResult::new(
        "fig5",
        "The short-jobs problem: frequent arrivals/departures under SFQ vs SFS",
    );
    let mut table = Table::new(
        "group bandwidth (want T1 : T2-21 : T_short = 4 : 4 : 1)",
        &[
            "policy",
            "quantum",
            "T1 (s)",
            "T2-21 (s)",
            "T_short (s)",
            "T1:short",
        ],
    );
    // Quantum sweep: the paper's nominal 200 ms maximum plus the
    // regime where a 300 ms job spans several quanta (a real 2.2 kernel
    // interrupts long quanta constantly). Each
    // quantum is one comparative run with SFQ as the baseline.
    for q_ms in [200u64, 100, 60] {
        let (scn, quantum) = scenario(effort, q_ms);
        let cmp = Experiment::new(scn)
            .compare(&[policy("sfq", quantum), policy("sfs", quantum)])
            .expect("fig5 scenario is well-formed");
        for run in &cmp.runs {
            let rep = run.sim_report();
            let end = rep.duration.as_secs_f64();
            let (t1, bg, shorts) = window_services(rep, 0.0, end);
            table.row(&[
                rep.sched_name.to_string(),
                format!("q={q_ms}ms"),
                format!("{t1:.2}"),
                format!("{bg:.2}"),
                format!("{shorts:.2}"),
                format!("{:.2}", t1 / shorts.max(1e-9)),
            ]);
            let (all, _ss) = ratios(rep);
            res.finding(
                &format!("{}_q{q_ms}_t1_to_short", rep.sched_name),
                format!("{all:.2}"),
            );
        }
    }
    for (panel, kind) in [("(a)", "sfq"), ("(b)", "sfs")] {
        let rep = run_one(kind, effort, 200);
        let end = rep.duration.as_secs_f64();

        // Chart: per-group cumulative iterations.
        let t1_series = {
            let src = to_iterations(&rep.task("T1").unwrap().series, 1.0);
            let mut s = sfs_metrics::TimeSeries::new("T1 (wt=20)");
            for &(x, y) in src.points() {
                s.push(x, y);
            }
            s
        };
        let bg_members: Vec<_> = rep
            .tasks
            .iter()
            .filter(|t| t.name.starts_with("bg#"))
            .collect();
        let short_members: Vec<_> = rep
            .tasks
            .iter()
            .filter(|t| t.name.starts_with("short#"))
            .collect();
        let bg_series = to_iterations(&sum_series("T2-T21 (wt=1 x20)", &bg_members, end, 80), 1.0);
        let short_series =
            to_iterations(&sum_series("T_short (wt=5)", &short_members, end, 80), 1.0);
        res.section(&render(
            &format!(
                "Figure 5{panel} {}: cumulative iterations per group",
                rep.sched_name
            ),
            &[&t1_series, &bg_series, &short_series],
            &ChartConfig {
                x_label: "time (s)".into(),
                y_label: "iterations".into(),
                ..ChartConfig::default()
            },
        ));

        let mut csv = String::from("time_s,T1,bg_group,short_group\n");
        for i in 0..=80 {
            let x = end * i as f64 / 80.0;
            csv.push_str(&format!(
                "{x:.3},{:.0},{:.0},{:.0}\n",
                t1_series.at(x),
                bg_series.at(x),
                short_series.at(x)
            ));
        }
        res.csv.push((
            format!("fig5{}.csv", if panel == "(a)" { "a" } else { "b" }),
            csv,
        ));
    }
    res.section(&table.to_text());
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_quantum_sfq_equalizes_and_sfs_separates() {
        // q = 200 ms (paper config): SFQ gives the short stream a full
        // processor (ratio ≈ 1); SFS roughly doubles the separation.
        let (sfq_all, _) = ratios(&run_one("sfq", Effort::Quick, 200));
        let (sfs_all, _) = ratios(&run_one("sfs", Effort::Quick, 200));
        assert!(sfq_all < 1.5, "SFQ T1:short = {sfq_all:.2}");
        assert!(
            sfs_all > 1.3 * sfq_all,
            "no separation: SFS {sfs_all:.2} vs SFQ {sfq_all:.2}"
        );
    }

    #[test]
    fn multi_quantum_jobs_approach_4_to_1_under_sfs() {
        // q = 60 ms: a 300 ms job spans 5 quanta; the per-job arrival
        // subsidy shrinks and SFS approaches the entitled 4:1 while SFQ
        // still spurts (spurt length ≈ w_short = 5 quanta ≥ job).
        let (sfq_all, _) = ratios(&run_one("sfq", Effort::Quick, 60));
        let (sfs_all, _) = ratios(&run_one("sfs", Effort::Quick, 60));
        assert!((2.6..4.6).contains(&sfs_all), "SFS T1:short = {sfs_all:.2}");
        assert!(sfq_all < 2.4, "SFQ T1:short = {sfq_all:.2}");
    }
}
