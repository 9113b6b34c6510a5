//! Figure 6 — proportionate allocation, application isolation, and
//! interactive performance (§4.4).
//!
//! * **(a)** two dhrystones at weight ratios 1:1, 1:2, 1:4, 1:7 over a
//!   pool of 20 weight-1 background dhrystones: loops/sec must track
//!   the weights.
//! * **(b)** an MPEG decoder (large weight → one full CPU after
//!   readjustment) against 0–10 parallel compilations: SFS holds the
//!   frame rate; time sharing lets it decay.
//! * **(c)** an interactive task against 0–10 disksim processes: SFS
//!   response times stay comparable to time sharing (which explicitly
//!   boosts I/O-bound tasks).

use std::io;
use std::path::{Path, PathBuf};

use sfs_core::time::Duration;
use sfs_experiment::{Experiment, RunReport};
use sfs_metrics::{render, ChartConfig, Summary, Table, TimeSeries};
use sfs_sim::{Scenario, SimConfig, SimReport, TaskSpec};
use sfs_workloads::BehaviorSpec;

use crate::common::{policy, Effort, ExpResult};

fn base_cfg(effort: Effort, full_secs: u64, seed: u64) -> SimConfig {
    let duration = effort.scale(Duration::from_secs(full_secs));
    SimConfig {
        cpus: 2,
        duration,
        ctx_switch: Duration::from_micros(5),
        sample_every: (duration / 50).max(Duration::from_millis(50)),
        track_gms: false,
        seed,
        lean: false,
    }
}

// ---------------------------------------------------------------- 6(a)

/// The Figure 6(a) scenario: a weighted dhrystone pair over 20 weight-1
/// background dhrystones.
fn scenario_6a(w_a: u64, w_b: u64, effort: Effort) -> Scenario {
    let cfg = base_cfg(effort, 10, 60 + w_b);
    Scenario::new("fig6a", cfg)
        .task(TaskSpec::new("bg", 1, BehaviorSpec::Dhrystone).replicated(20))
        .task(TaskSpec::new("A", w_a, BehaviorSpec::Dhrystone))
        .task(TaskSpec::new("B", w_b, BehaviorSpec::Dhrystone))
}

fn run_6a_pair(w_a: u64, w_b: u64, effort: Effort) -> SimReport {
    Experiment::new(scenario_6a(w_a, w_b, effort))
        .run(policy("sfs", effort.quantum()))
        .expect("fig6a scenario is well-formed")
        .sim_report()
        .clone()
}

/// Regenerates Figure 6(a): proportionate allocation.
pub fn run_6a(effort: Effort) -> ExpResult {
    let mut res = ExpResult::new(
        "fig6a",
        "Proportionate allocation: dhrystone loops/sec vs weight ratio (SFS)",
    );
    let mut table = Table::new(
        "dhrystone pair over 20 weight-1 background dhrystones",
        &["weights", "A loops/sec", "B loops/sec", "B/A", "want"],
    );
    let mut csv = String::from("ratio,a_loops_per_sec,b_loops_per_sec,measured_ratio\n");
    for (w_a, w_b) in [(1u64, 1u64), (1, 2), (1, 4), (1, 7)] {
        let rep = run_6a_pair(w_a, w_b, effort);
        let secs = rep.duration.as_secs_f64();
        let a = rep.task("A").unwrap().iterations.unwrap() as f64 / secs;
        let b = rep.task("B").unwrap().iterations.unwrap() as f64 / secs;
        table.row(&[
            format!("{w_a}:{w_b}"),
            format!("{a:.0}"),
            format!("{b:.0}"),
            format!("{:.2}", b / a),
            format!("{:.2}", w_b as f64 / w_a as f64),
        ]);
        csv.push_str(&format!("{w_a}:{w_b},{a:.0},{b:.0},{:.3}\n", b / a));
        res.finding(&format!("ratio_{w_a}_{w_b}"), format!("{:.2}", b / a));
    }
    res.section(&table.to_text());
    res.csv.push(("fig6a.csv".into(), csv));
    res
}

// ---------------------------------------------------------------- 6(b)

/// The Figure 6(b) scenario: an MPEG decoder against `compilations`
/// parallel compilations.
fn scenario_6b(compilations: usize, effort: Effort) -> Scenario {
    let cfg = base_cfg(effort, 20, 61);
    let mut scenario = Scenario::new("fig6b", cfg).task(TaskSpec::new(
        "mpeg",
        10,
        BehaviorSpec::Mpeg {
            fps: 30,
            frame_cost: Duration::from_millis(30),
        },
    ));
    if compilations > 0 {
        scenario = scenario.task(
            TaskSpec::new(
                "gcc",
                1,
                BehaviorSpec::Compile {
                    burst: Duration::from_millis(40),
                    io: Duration::from_millis(2),
                },
            )
            .replicated(compilations),
        );
    }
    scenario
}

/// MPEG frame rate at one load point under SFS and time sharing — a
/// single comparative run.
fn run_6b_point(compilations: usize, effort: Effort) -> (f64, f64) {
    let cmp = Experiment::new(scenario_6b(compilations, effort))
        .compare(&[
            policy("sfs", effort.quantum()),
            policy("timeshare", effort.quantum()),
        ])
        .expect("fig6b scenario is well-formed");
    let fps = |run: &RunReport| {
        let rep = run.sim_report();
        rep.task("mpeg")
            .unwrap()
            .completion_rate(sfs_core::time::Time(rep.duration.as_nanos()))
    };
    (fps(&cmp.runs[0]), fps(&cmp.runs[1]))
}

/// Regenerates Figure 6(b): application isolation.
pub fn run_6b(effort: Effort) -> ExpResult {
    let mut res = ExpResult::new(
        "fig6b",
        "Application isolation: MPEG frame rate vs background compilations",
    );
    let ns: Vec<usize> = match effort {
        Effort::Full => (0..=10).collect(),
        Effort::Quick => vec![0, 2, 4, 8, 10],
    };
    let mut csv = String::from("compilations,sfs_fps,timeshare_fps\n");
    let mut sfs_series = TimeSeries::new("SFS");
    let mut ts_series = TimeSeries::new("Time sharing");
    for &n in &ns {
        let (f_sfs, f_ts) = run_6b_point(n, effort);
        sfs_series.push(n as f64, f_sfs);
        ts_series.push(n as f64, f_ts);
        csv.push_str(&format!("{n},{f_sfs:.2},{f_ts:.2}\n"));
    }
    res.section(&render(
        "MPEG decoding with background compilations",
        &[&sfs_series, &ts_series],
        &ChartConfig {
            x_label: "number of simultaneous compilations".into(),
            y_label: "frames/sec".into(),
            ..ChartConfig::default()
        },
    ));
    let last = *ns.last().unwrap() as f64;
    res.finding("sfs_fps_at_max_load", format!("{:.1}", sfs_series.at(last)));
    res.finding(
        "timeshare_fps_at_max_load",
        format!("{:.1}", ts_series.at(last)),
    );
    res.finding("sfs_fps_unloaded", format!("{:.1}", sfs_series.at(0.0)));
    res.csv.push(("fig6b.csv".into(), csv));
    res
}

// ---------------------------------------------------------------- 6(c)

/// The Figure 6(c) scenario: an interactive task against `simjobs`
/// disksim processes.
fn scenario_6c(simjobs: usize, effort: Effort) -> Scenario {
    let cfg = base_cfg(effort, 30, 62);
    let mut scenario = Scenario::new("fig6c", cfg).task(TaskSpec::new(
        "interact",
        1,
        BehaviorSpec::Interact {
            think: Duration::from_millis(100),
            burst: Duration::from_millis(5),
        },
    ));
    if simjobs > 0 {
        scenario = scenario.task(
            TaskSpec::new(
                "disksim",
                1,
                BehaviorSpec::Sim {
                    burst: Duration::from_millis(80),
                    io: Duration::from_micros(500),
                },
            )
            .replicated(simjobs),
        );
    }
    scenario
}

/// Interactive mean response at one load point under SFS and time
/// sharing — a single comparative run.
fn run_6c_point(simjobs: usize, effort: Effort) -> (f64, f64) {
    let cmp = Experiment::new(scenario_6c(simjobs, effort))
        .compare(&[
            policy("sfs", effort.quantum()),
            policy("timeshare", effort.quantum()),
        ])
        .expect("fig6c scenario is well-formed");
    let mean_response = |run: &RunReport| {
        run.task("interact")
            .unwrap()
            .responses
            .as_ref()
            .map(Summary::mean)
            .unwrap_or(0.0)
    };
    (mean_response(&cmp.runs[0]), mean_response(&cmp.runs[1]))
}

/// Regenerates Figure 6(c): interactive performance.
pub fn run_6c(effort: Effort) -> ExpResult {
    let mut res = ExpResult::new(
        "fig6c",
        "Interactive response time vs background disksim processes",
    );
    let ns: Vec<usize> = match effort {
        Effort::Full => (0..=10).collect(),
        Effort::Quick => vec![0, 2, 6, 10],
    };
    let mut csv = String::from("disksim_processes,sfs_response_ms,timeshare_response_ms\n");
    let mut sfs_series = TimeSeries::new("SFS");
    let mut ts_series = TimeSeries::new("Time sharing");
    for &n in &ns {
        let (r_sfs, r_ts) = run_6c_point(n, effort);
        sfs_series.push(n as f64, r_sfs);
        ts_series.push(n as f64, r_ts);
        csv.push_str(&format!("{n},{r_sfs:.2},{r_ts:.2}\n"));
    }
    res.section(&render(
        "Interactive application with background simulations",
        &[&sfs_series, &ts_series],
        &ChartConfig {
            x_label: "number of disksim processes".into(),
            y_label: "avg response time (ms)".into(),
            ..ChartConfig::default()
        },
    ));
    let last = *ns.last().unwrap() as f64;
    res.finding(
        "sfs_response_ms_at_max_load",
        format!("{:.2}", sfs_series.at(last)),
    );
    res.finding(
        "timeshare_response_ms_at_max_load",
        format!("{:.2}", ts_series.at(last)),
    );
    res.csv.push(("fig6c.csv".into(), csv));
    res
}

/// Exports a `.perfetto-trace` of the canonical SFS run behind one of
/// this family's ids (`repro --trace DIR`). Returns the written path,
/// or `Ok(None)` for ids with no canonical single run.
pub fn export_trace_for(id: &str, effort: Effort, dir: &Path) -> io::Result<Option<PathBuf>> {
    let scenario = match id {
        "fig6a" => scenario_6a(1, 4, effort),
        "fig6b" => scenario_6b(4, effort),
        "fig6c" => scenario_6c(6, effort),
        _ => return Ok(None),
    };
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{id}.perfetto-trace"));
    Experiment::new(scenario)
        .run_with_trace(policy("sfs", effort.quantum()), &path)
        .map_err(|e| io::Error::other(e.to_string()))?;
    Ok(Some(path))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_traces_export_on_demand() {
        let dir = std::env::temp_dir().join("sfs_trace_export_test");
        let p = export_trace_for("fig6a", Effort::Quick, &dir)
            .unwrap()
            .expect("fig6a has a canonical scenario");
        let bytes = std::fs::read(&p).unwrap();
        assert!(sfs_trace::perfetto::validate_encoded(&bytes).is_ok());
        assert!(export_trace_for("fig1", Effort::Quick, &dir)
            .unwrap()
            .is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fig6a_tracks_weights() {
        let rep = run_6a_pair(1, 4, Effort::Quick);
        let a = rep.task("A").unwrap().iterations.unwrap() as f64;
        let b = rep.task("B").unwrap().iterations.unwrap() as f64;
        assert!((b / a - 4.0).abs() < 0.6, "B/A = {}", b / a);
    }

    #[test]
    fn fig6b_sfs_isolates_but_timeshare_degrades() {
        let (sfs, ts) = run_6b_point(8, Effort::Quick);
        // Quick mode runs 2.5 s with a 25 ms quantum, so the decoder
        // sits just under its 30 fps target at 8 compilations. The
        // wake-preemption victim fix (preempt the *largest*-surplus
        // running task, which mid-frame is sometimes the decoder
        // itself) moved this point from 25.x to 24.8 — correct SFS
        // behaviour, hence the 24.0 floor rather than 25.0.
        assert!(sfs > 24.0, "SFS frame rate dropped to {sfs}");
        assert!(ts < 0.8 * sfs, "time sharing should degrade: {ts} vs {sfs}");
    }

    #[test]
    fn fig6c_sfs_responses_comparable() {
        let (sfs, ts) = run_6c_point(6, Effort::Quick);
        assert!(sfs < 60.0, "SFS response {sfs} ms");
        assert!(ts < 60.0, "TS response {ts} ms");
    }
}
