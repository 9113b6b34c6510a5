//! Figure 7 and Table 1 — scheduling overheads, measured on the
//! real-thread runtime (`sfs-rt`), the analogue of the paper's lmbench
//! measurements (§4.5).
//!
//! Absolute numbers are userspace numbers (lock + park/unpark instead of
//! a kernel context switch), but the comparison the paper makes — SFS
//! costs a small constant factor more than time sharing, growing with
//! the run-queue length, while everything else is equal — is preserved
//! because both policies run under the identical executor.
//!
//! These rows mean something only when pinned to one core (`taskset -c 1
//! repro table1`). Unpinned, on a 2-core host, one binary gave the
//! 2 proc / 0 KB SFS switch as 10.6, 10.0 and 2.3 µs in three runs.

use sfs_core::sched::Scheduler;
use sfs_core::time::Duration;
use sfs_metrics::{render, ChartConfig, Table, TimeSeries};
use sfs_rt::microbench::{checkpoint_cost, ctx_switch_latency, spawn_cost};

use crate::common::{policy, Effort, ExpResult};

fn sched_for(kind: &str) -> Box<dyn Scheduler> {
    // One virtual CPU, 200 ms quantum (switches come from yields).
    policy(kind, Duration::from_millis(200)).build(1)
}

/// Regenerates Figure 7: context-switch latency vs number of processes
/// (0 KB working sets).
pub fn run_fig7(effort: Effort) -> ExpResult {
    let mut res = ExpResult::new(
        "fig7",
        "Context switch latency vs number of processes (0 KB working set)",
    );
    let rounds = effort.count(1_600);
    let ns: &[usize] = &[2, 5, 10, 20, 35, 50];
    let mut sfs_series = TimeSeries::new("SFS");
    let mut ts_series = TimeSeries::new("Time sharing");
    let mut csv = String::from("processes,sfs_us,timeshare_us\n");
    for &n in ns {
        let sfs = ctx_switch_latency(sched_for("sfs"), n, 0, rounds).as_nanos() as f64 / 1e3;
        let ts = ctx_switch_latency(sched_for("timeshare"), n, 0, rounds).as_nanos() as f64 / 1e3;
        sfs_series.push(n as f64, sfs);
        ts_series.push(n as f64, ts);
        csv.push_str(&format!("{n},{sfs:.3},{ts:.3}\n"));
    }
    res.section(&render(
        "Scheduling overhead imposed by 0KB processes",
        &[&sfs_series, &ts_series],
        &ChartConfig {
            x_label: "number of processes".into(),
            y_label: "context switch time (us)".into(),
            ..ChartConfig::default()
        },
    ));
    res.finding("sfs_us_at_2", format!("{:.2}", sfs_series.at(2.0)));
    res.finding("sfs_us_at_50", format!("{:.2}", sfs_series.at(50.0)));
    res.finding("timeshare_us_at_2", format!("{:.2}", ts_series.at(2.0)));
    res.finding("timeshare_us_at_50", format!("{:.2}", ts_series.at(50.0)));
    res.csv.push(("fig7.csv".into(), csv));
    res
}

/// Regenerates Table 1: lmbench-style overheads under time sharing and
/// SFS.
pub fn run_table1(effort: Effort) -> ExpResult {
    let mut res = ExpResult::new("table1", "Scheduling overheads (lmbench analogues)");
    let iters = effort.count(400_000);
    let rounds = effort.count(1_600);
    let spawns = effort.count(48);

    let mut table = Table::new(
        "userspace analogues of the lmbench rows",
        &["Test", "Time sharing", "SFS"],
    );
    let fmt = |d: Duration| -> String {
        if d.as_nanos() == 0 {
            "<1 ns".to_string()
        } else if d.as_nanos() < 1_000 {
            format!("{} ns", d.as_nanos())
        } else if d.as_nanos() < 1_000_000 {
            format!("{:.1} us", d.as_nanos() as f64 / 1e3)
        } else {
            format!("{:.2} ms", d.as_nanos() as f64 / 1e6)
        }
    };

    let ts_chk = checkpoint_cost(sched_for("timeshare"), iters);
    let sfs_chk = checkpoint_cost(sched_for("sfs"), iters);
    table.row(&[
        "scheduler entry (syscall analogue)".into(),
        fmt(ts_chk),
        fmt(sfs_chk),
    ]);

    let ts_spawn = spawn_cost(|| sched_for("timeshare"), spawns);
    let sfs_spawn = spawn_cost(|| sched_for("sfs"), spawns);
    table.row(&[
        "task spawn+retire (fork/exec analogue)".into(),
        fmt(ts_spawn),
        fmt(sfs_spawn),
    ]);

    for (label, nprocs, kb) in [
        ("context switch (2 proc / 0KB)", 2usize, 0usize),
        ("context switch (8 proc / 16KB)", 8, 16),
        ("context switch (16 proc / 64KB)", 16, 64),
    ] {
        let ts = ctx_switch_latency(sched_for("timeshare"), nprocs, kb, rounds);
        let sfs = ctx_switch_latency(sched_for("sfs"), nprocs, kb, rounds);
        table.row(&[label.into(), fmt(ts), fmt(sfs)]);
        if nprocs == 2 {
            res.finding("ctx_2proc_0kb_timeshare", fmt(ts));
            res.finding("ctx_2proc_0kb_sfs", fmt(sfs));
        }
        if nprocs == 16 {
            res.finding("ctx_16proc_64kb_timeshare", fmt(ts));
            res.finding("ctx_16proc_64kb_sfs", fmt(sfs));
        }
    }
    res.section(&table.to_text());
    res.csv.push(("table1.csv".into(), table.to_csv()));
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_produces_series() {
        let res = run_fig7(Effort::Quick);
        assert!(res.text.contains("SFS"));
        assert!(res
            .csv
            .iter()
            .any(|(n, c)| n == "fig7.csv" && c.lines().count() >= 5));
    }
}
