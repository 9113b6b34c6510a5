//! Figure 4 — impact of the weight readjustment algorithm on SFQ.
//!
//! The paper's §4.2 experiment: two Inf applications start at t=0 with
//! weights 1:10 on a dual-processor; a third (w=1) arrives at t=15 s;
//! the w=10 task stops at t=30 s; the run lasts 40 s with a 200 ms
//! quantum. Plain SFQ starves T1 after T3's arrival (Fig. 4a); with
//! readjustment the instantaneous weights become 1:2:1 and every task
//! receives its proportional share (Fig. 4b).

use sfs_core::time::{Duration, Time};
use sfs_experiment::Experiment;
use sfs_metrics::{fairness, render, ChartConfig, Table};
use sfs_sim::{Scenario, SimConfig, SimReport, TaskSpec};
use sfs_workloads::BehaviorSpec;

use crate::common::{policy, Effort, ExpResult};
use crate::helpers::to_iterations;

struct Fig4Times {
    t_arrive: f64,
    t_stop: f64,
    t_end: f64,
}

impl Fig4Times {
    /// Where all three tasks are present, inset by a fifteenth on each
    /// side (1 s at full effort) for the quantum granularity.
    fn window(&self) -> (f64, f64) {
        let margin = (self.t_stop - self.t_arrive) / 15.0;
        (self.t_arrive + margin, self.t_stop - margin)
    }
}

fn scenario(effort: Effort) -> (Scenario, Fig4Times) {
    let duration = effort.scale(Duration::from_secs(40));
    let ns = duration.as_nanos();
    let t_arrive = Time(ns * 15 / 40);
    let t_stop = Time(ns * 30 / 40);
    let cfg = SimConfig {
        cpus: 2,
        duration,
        ctx_switch: Duration::from_micros(5),
        sample_every: (duration / 100).max(Duration::from_millis(20)),
        track_gms: false,
        seed: 4,
        lean: false,
    };
    let scenario = Scenario::new("fig4", cfg)
        .task(TaskSpec::new("T1", 1, BehaviorSpec::Inf))
        .task(TaskSpec::new("T2", 10, BehaviorSpec::Inf).stop_at(t_stop))
        .task(TaskSpec::new("T3", 1, BehaviorSpec::Inf).arrive_at(t_arrive));
    (
        scenario,
        Fig4Times {
            t_arrive: t_arrive.as_secs_f64(),
            t_stop: t_stop.as_secs_f64(),
            t_end: duration.as_secs_f64(),
        },
    )
}

/// Runs one policy variant, returning the detailed simulator report.
#[cfg(test)]
fn run_one(kind: &str, effort: Effort) -> (SimReport, Fig4Times) {
    let (scenario, times) = scenario(effort);
    let run = Experiment::new(scenario)
        .run(policy(kind, effort.quantum()))
        .expect("fig4 scenario is well-formed");
    (run.sim_report().clone(), times)
}

/// Service gained by a task in a time window, from its sampled series.
fn gained(rep: &SimReport, name: &str, from: f64, to: f64) -> f64 {
    let t = rep.task(name).expect("task missing");
    t.series.at(to) - t.series.at(from)
}

/// Regenerates Figure 4 (both panels).
pub fn run(effort: Effort) -> ExpResult {
    let mut res = ExpResult::new(
        "fig4",
        "Impact of weight readjustment: SFQ without vs with readjustment",
    );
    let (scenario, times) = scenario(effort);
    let cmp = Experiment::new(scenario)
        .compare(&[
            policy("sfq", effort.quantum()),
            policy("sfq-readjust", effort.quantum()),
        ])
        .expect("fig4 scenario is well-formed");

    let mut table = Table::new(
        "middle window (T3 present, T2 alive): share ratios T1:T2:T3",
        &["policy", "T1", "T2", "T3", "T1 starvation (s)"],
    );
    for (panel, run) in ["(a)", "(b)"].iter().zip(&cmp.runs) {
        let rep = run.sim_report();
        let (w0, w1) = times.window();
        let g1 = gained(rep, "T1", w0, w1);
        let g2 = gained(rep, "T2", w0, w1);
        let g3 = gained(rep, "T3", w0, w1);
        let t1 = rep.task("T1").unwrap();
        let starve = fairness::starvation(t1.series.points());
        let base = (g1.max(1e-9)).min(g3.max(1e-9));
        table.row(&[
            format!("{panel} {}", rep.sched_name),
            format!("{:.2}", g1 / base),
            format!("{:.2}", g2 / base),
            format!("{:.2}", g3 / base),
            format!("{starve:.2}"),
        ]);

        let iters: Vec<_> = rep
            .tasks
            .iter()
            .map(|t| to_iterations(&t.series, 1.0))
            .collect();
        let refs: Vec<_> = iters.iter().collect();
        res.section(&render(
            &format!(
                "Figure 4{panel} {}: cumulative iterations (T3 arrives @{:.0}s, T2 stops @{:.0}s)",
                rep.sched_name, times.t_arrive, times.t_stop
            ),
            &refs,
            &ChartConfig {
                x_label: "time (s)".into(),
                y_label: "iterations".into(),
                ..ChartConfig::default()
            },
        ));

        let mut csv = String::from("time_s,T1,T2,T3\n");
        for i in 0..=80 {
            let x = times.t_end * i as f64 / 80.0;
            csv.push_str(&format!(
                "{x:.3},{:.0},{:.0},{:.0}\n",
                iters[0].at(x),
                iters[1].at(x),
                iters[2].at(x)
            ));
        }
        res.csv.push((
            format!("fig4{}.csv", if *panel == "(a)" { "a" } else { "b" }),
            csv,
        ));

        res.finding(
            &format!("{}_t1_starvation_s", rep.sched_name),
            format!("{starve:.2}"),
        );
        res.finding(
            &format!("{}_mid_window_ratio", rep.sched_name),
            format!("{:.2}:{:.2}:{:.2}", g1 / base, g2 / base, g3 / base),
        );
    }
    res.section(&table.to_text());
    res.section(&cmp.to_table());
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readjustment_restores_1_2_1() {
        let (rep, times) = run_one("sfq-readjust", Effort::Quick);
        let (w0, w1) = times.window();
        let g1 = gained(&rep, "T1", w0, w1);
        let g2 = gained(&rep, "T2", w0, w1);
        let g3 = gained(&rep, "T3", w0, w1);
        assert!((g2 / g1 - 2.0).abs() < 0.4, "T2:T1 = {}", g2 / g1);
        assert!((g3 / g1 - 1.0).abs() < 0.3, "T3:T1 = {}", g3 / g1);
    }

    #[test]
    fn plain_sfq_starves_t1_in_the_window() {
        let (rep, times) = run_one("sfq", Effort::Quick);
        let (w0, w1) = times.window();
        let g1 = gained(&rep, "T1", w0, w1);
        let g3 = gained(&rep, "T3", w0, w1);
        assert!(
            g1 < 0.2 * g3,
            "T1 should starve relative to T3: {g1} vs {g3}"
        );
    }
}
