//! Multi-tenant sweep: isolation under a misbehaving tenant, and the
//! group-level hot-path cost at 10²–10⁴ tenants
//! (`repro tenants` → `BENCH_tenants.json`).
//!
//! Not a figure from the paper: §6 names hierarchical SFS over task
//! groups as future work, and this artefact measures what the nested
//! scheduler buys. Two halves:
//!
//! * **Isolation.** Four tenants with equal group shares; one of them
//!   misbehaves by flooding the machine with weight-inflated tasks
//!   (the §2 infeasible-weights attack, at tenant granularity). Under
//!   hierarchical SFS every well-behaved tenant must still receive its
//!   group entitlement; under flat SFS the rogue's inflated weights
//!   win. Reported per tenant and policy: achieved machine share, and
//!   the absolute error against the 1/4 entitlement. CI fails if the
//!   worst well-behaved tenant's error under the hierarchy exceeds the
//!   flat-SFS baseline — i.e. if nesting ever stops paying for itself.
//! * **Scaling.** One [`HierSfs`] over `n` single-task tenants for
//!   `n` from 10² to 10⁴, driven through the dispatch + requeue cycle
//!   on four virtual CPUs. Reported per point: nanoseconds per
//!   decision and the one-off cost of building + populating the
//!   hierarchy. The group queue is the same bucket structure flat SFS
//!   uses, so cost should stay flat in `n` within noise.

use std::time::Instant;

use sfs_core::hier::HierSfs;
use sfs_core::policy::{GroupSpec, PolicySpec};
use sfs_core::sched::{Scheduler, SwitchReason};
use sfs_core::task::{weight, CpuId, TaskId, TenantId};
use sfs_core::time::{Duration, Time};
use sfs_experiment::Experiment;
use sfs_metrics::{render, ChartConfig, TimeSeries};
use sfs_sim::{Scenario, SimConfig, TaskSpec};
use sfs_workloads::BehaviorSpec;

use crate::common::{Effort, ExpResult};

/// Tenants in the isolation half; the last one misbehaves.
const TENANTS: usize = 4;

/// Per-tenant machine shares of the isolation scenario under one
/// policy, in tenant order. Shares are summed from task outcomes by
/// name prefix so the same accounting applies to hierarchical runs
/// (where tasks carry a [`TenantId`]) and flat runs (where they
/// don't).
fn tenant_shares_by_prefix(report: &sfs_experiment::RunReport) -> Vec<f64> {
    let shares = report.shares();
    (0..TENANTS)
        .map(|t| {
            let prefix = format!("t{t}#");
            shares
                .iter()
                .zip(&report.tasks)
                .filter(|(_, task)| task.name.starts_with(&prefix))
                .map(|(s, _)| s)
                .sum()
        })
        .collect()
}

/// Runs the misbehaving-tenant scenario under hierarchical and flat
/// SFS; returns `(hier_shares, flat_shares)` in tenant order.
pub fn isolation_shares(effort: Effort) -> (Vec<f64>, Vec<f64>) {
    let q = Duration::from_millis(5);
    let cfg = SimConfig {
        cpus: 4,
        duration: effort.scale(Duration::from_secs(8)),
        ..SimConfig::default()
    };
    let mut scenario = Scenario::new("tenant-isolation", cfg);
    for t in 0..TENANTS - 1 {
        scenario = scenario.tenant(
            &format!("t{t}"),
            [TaskSpec::new(&format!("t{t}"), 1, BehaviorSpec::Inf).replicated(2)],
        );
    }
    // The rogue: same group share as everyone else, but internally it
    // claims 16 tasks of weight 100 — 800× the weight any honest
    // tenant holds.
    let rogue = TENANTS - 1;
    scenario = scenario.tenant(
        &format!("t{rogue}"),
        [TaskSpec::new(&format!("t{rogue}"), 100, BehaviorSpec::Inf).replicated(16)],
    );
    let exp = Experiment::new(scenario);

    let hier = PolicySpec::sfs_over(
        (0..TENANTS).map(|t| GroupSpec::new(&format!("t{t}"), PolicySpec::sfs().with_quantum(q))),
    );
    let hier_rep = exp.run(&hier).expect("isolation scenario, hier policy");
    let flat_rep = exp
        .run(PolicySpec::sfs().with_quantum(q))
        .expect("isolation scenario, flat policy");
    (
        tenant_shares_by_prefix(&hier_rep),
        tenant_shares_by_prefix(&flat_rep),
    )
}

/// Measured costs at one tenant-count point of the scaling half.
pub struct TenantPoint {
    /// Wall-clock nanoseconds per dispatch + requeue decision.
    pub ns_per_decision: f64,
    /// One-off milliseconds to build the hierarchy and attach one task
    /// per tenant.
    pub setup_ms: f64,
}

/// Builds a hierarchy of `n` single-task tenants and drives the
/// dispatch cycle on four virtual CPUs for `decisions` decisions.
pub fn tenant_point(n: usize, decisions: u64) -> TenantPoint {
    let cpus = 4u32;
    let setup_start = Instant::now();
    let groups: Vec<GroupSpec> = (0..n)
        .map(|i| GroupSpec::new(&format!("t{i}"), PolicySpec::sfs()).with_share(1 + i as u64 % 10))
        .collect();
    let mut sched = HierSfs::new(cpus, &groups);
    let t0 = Time::ZERO;
    let calls_before = sched.stats().readjust_calls;
    // Bulk attach: one task per tenant in a single batch, so the §2.1
    // group walk runs once instead of once per tenant (per-attach
    // readjustment made the 10⁴-tenant setup quadratic: ~3.8 s).
    let batch: Vec<(TaskId, sfs_core::task::Weight, Option<TenantId>)> = (0..n)
        .map(|i| (TaskId(i as u64), weight(1), Some(TenantId(i as u32))))
        .collect();
    sched.attach_batch(&batch, t0);
    // One group walk, plus one child walk per single-task tenant.
    let calls_delta = sched.stats().readjust_calls - calls_before;
    assert_eq!(
        calls_delta,
        n as u64 + 1,
        "bulk attach must readjust groups exactly once"
    );
    let setup_ms = setup_start.elapsed().as_secs_f64() * 1e3;

    let quantum = Duration::from_millis(1);
    let mut now = Time::ZERO;
    let mut running: Vec<Option<TaskId>> = vec![None; cpus as usize];
    let start = Instant::now();
    let mut made = 0u64;
    while made < decisions {
        for c in 0..cpus {
            now += quantum;
            if let Some(id) = running[c as usize].take() {
                sched.put_prev(id, quantum, SwitchReason::Preempted, now);
            }
            running[c as usize] = sched.pick_next(CpuId(c), now);
            made += 1;
        }
    }
    TenantPoint {
        ns_per_decision: start.elapsed().as_nanos() as f64 / made as f64,
        setup_ms,
    }
}

/// Regenerates the multi-tenant sweep (`BENCH_tenants.json`).
pub fn run(effort: Effort) -> ExpResult {
    let mut res = ExpResult::new(
        "tenants",
        "Tenant isolation under a misbehaving tenant; decision cost vs tenant count",
    );

    // Half 1: isolation. Entitlement is 1/TENANTS for every tenant.
    let (hier, flat) = isolation_shares(effort);
    let entitlement = 1.0 / TENANTS as f64;
    let (mut worst_hier, mut worst_flat) = (0.0f64, 0.0f64);
    for t in 0..TENANTS {
        let (eh, ef) = ((hier[t] - entitlement).abs(), (flat[t] - entitlement).abs());
        res.finding(
            &format!("isolation_share_hier_t{t}"),
            format!("{:.4}", hier[t]),
        );
        res.finding(
            &format!("isolation_share_flat_t{t}"),
            format!("{:.4}", flat[t]),
        );
        if t < TENANTS - 1 {
            worst_hier = worst_hier.max(eh);
            worst_flat = worst_flat.max(ef);
        }
    }
    res.finding("isolation_max_err_hier", format!("{worst_hier:.4}"));
    res.finding("isolation_max_err_flat", format!("{worst_flat:.4}"));
    res.section(&format!(
        "Isolation: {TENANTS} tenants with equal group shares; tenant t{} floods with \
         16 weight-100 tasks.\nWorst well-behaved share error: hierarchical SFS \
         {worst_hier:.4}, flat SFS {worst_flat:.4} (entitlement {entitlement:.2} each).",
        TENANTS - 1
    ));

    // Half 2: scaling 10²–10⁴ tenants through the decision cycle.
    let (counts, decisions): (&[usize], u64) = match effort {
        Effort::Full => (&[100, 1_000, 10_000], 400_000),
        Effort::Quick => (&[100, 1_000], 80_000),
    };
    let mut csv = String::from("tenants,ns_per_decision,setup_ms\n");
    let mut ts = TimeSeries::new("HierSfs, 1 task per tenant");
    for &n in counts {
        let p = tenant_point(n, decisions);
        ts.push(n as f64, p.ns_per_decision);
        csv.push_str(&format!("{n},{:.1},{:.2}\n", p.ns_per_decision, p.setup_ms));
        res.finding(
            &format!("ns_per_decision_at_{n}"),
            format!("{:.1}", p.ns_per_decision),
        );
        res.finding(&format!("setup_ms_at_{n}"), format!("{:.2}", p.setup_ms));
    }
    res.section(&render(
        "Decision cost vs tenant count",
        &[&ts],
        &ChartConfig {
            x_label: "tenants (one task each)".into(),
            y_label: "ns per dispatch decision".into(),
            ..ChartConfig::default()
        },
    ));
    res.csv.push(("tenants.csv".into(), csv));
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchy_isolates_where_flat_sfs_cannot() {
        let (hier, flat) = isolation_shares(Effort::Quick);
        let entitlement = 1.0 / TENANTS as f64;
        for t in 0..TENANTS - 1 {
            assert!(
                (hier[t] - entitlement).abs() < 0.05,
                "tenant t{t} lost its entitlement under hier: {:.4}",
                hier[t]
            );
            // The same well-behaved tenant is starved under flat SFS —
            // the baseline the CI guard compares against.
            assert!(
                flat[t] < 0.1,
                "flat SFS unexpectedly protected t{t}: {:.4}",
                flat[t]
            );
        }
    }

    #[test]
    fn decision_cost_stays_flat_in_tenant_count() {
        let small = tenant_point(100, 40_000);
        let large = tenant_point(2_000, 40_000);
        assert!(small.ns_per_decision > 0.0);
        // Bucket-queue group scheduling: 20× the tenants must not cost
        // an order of magnitude per decision.
        assert!(
            large.ns_per_decision < small.ns_per_decision * 10.0 + 2_000.0,
            "decision cost exploded: {:.0}ns at 100 vs {:.0}ns at 2000",
            small.ns_per_decision,
            large.ns_per_decision
        );
    }

    #[test]
    fn tenants_emits_machine_readable_summary() {
        let res = run(Effort::Quick);
        for key in [
            "isolation_share_hier_t0",
            "isolation_share_flat_t0",
            "isolation_max_err_hier",
            "isolation_max_err_flat",
            "ns_per_decision_at_100",
            "ns_per_decision_at_1000",
            "setup_ms_at_1000",
        ] {
            assert!(
                res.summary.iter().any(|(k, _)| k == key),
                "missing finding {key}"
            );
        }
        let json = res.summary_json();
        assert!(json.contains(r#""id":"tenants""#), "{json}");
    }
}
