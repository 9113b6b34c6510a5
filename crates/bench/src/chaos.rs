//! Overload-armor sweep: admission control against a flooding tenant,
//! seeded fault-injection recovery, and chaos capture→replay
//! determinism (`repro chaos` → `BENCH_chaos.json`).
//!
//! Not a figure from the paper: §2.1's weight readjustment keeps the
//! *scheduler* honest under infeasible weights, but a production
//! system also needs the layers around it to survive overload and
//! faults. Three parts:
//!
//! * **Admission.** The `tenants` rogue scenario — four tenants with
//!   equal group shares, the last flooding 16 weight-100 tasks — run
//!   under hierarchical SFS with an `admit(max=4,rate=500/s)` clause.
//!   The cap admits every honest tenant whole (2 tasks each) while the
//!   rogue's flood is cut to 4 live tasks; the §2.1 release on each
//!   rejection returns the refused weight immediately. Reported: the
//!   worst well-behaved tenant's share error, the flat-SFS no-armor
//!   baseline, and the rejection count. CI fails if the armored error
//!   ever exceeds the flat baseline or drifts above 0.02.
//! * **Faults.** A seeded [`FaultPlan`] (task panics, CPU stalls,
//!   timer jitter, dropped wakeups) injected into a simulator run.
//!   Every fault must be recovered — panicked tasks reaped with their
//!   weight released, delayed timers resorbed — and the scheduler's
//!   invariants re-audited after each recovery must never fail.
//! * **Replay.** The faulted, admission-gated run is captured and
//!   re-driven; the context-switch sequences must match exactly, i.e.
//!   chaos is as deterministic as everything else in the simulator.

use sfs_core::fault::FaultPlan;
use sfs_core::policy::{GroupSpec, PolicySpec};
use sfs_core::time::{Duration, Time};
use sfs_experiment::{Experiment, RunReport, TaskFate};
use sfs_sim::{RunHealth, Scenario, SimConfig, TaskSpec};
use sfs_workloads::BehaviorSpec;

use crate::common::{Effort, ExpResult};

/// Tenants in the admission half; the last one misbehaves.
const TENANTS: usize = 4;

/// Seed of the fault half's plan — fixed, so the artefact regenerates
/// byte-identically.
const FAULT_SEED: u64 = 0xC0FF_EE00_5EED;

/// The rogue-flood scenario: `TENANTS` tenants with equal group
/// shares, every honest tenant running 2 weight-1 tasks, the last
/// tenant flooding 16 weight-100 replicas.
fn rogue_scenario(effort: Effort) -> Scenario {
    let cfg = SimConfig {
        cpus: 4,
        duration: effort.scale(Duration::from_secs(8)),
        ..SimConfig::default()
    };
    let mut scenario = Scenario::new("chaos-admission", cfg);
    for t in 0..TENANTS - 1 {
        scenario = scenario.tenant(
            &format!("t{t}"),
            [TaskSpec::new(&format!("t{t}"), 1, BehaviorSpec::Inf).replicated(2)],
        );
    }
    let rogue = TENANTS - 1;
    scenario.tenant(
        &format!("t{rogue}"),
        [TaskSpec::new(&format!("t{rogue}"), 100, BehaviorSpec::Inf).replicated(16)],
    )
}

/// Per-tenant machine shares by name prefix (the same accounting the
/// `tenants` artefact uses, so flat runs without [`TenantId`]s sum the
/// same way).
fn shares_by_prefix(report: &RunReport) -> Vec<f64> {
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

/// The hierarchical policy with the `admit(...)` armor attached.
fn armored_policy() -> PolicySpec {
    let q = Duration::from_millis(5);
    PolicySpec::sfs_over(
        (0..TENANTS).map(|t| GroupSpec::new(&format!("t{t}"), PolicySpec::sfs().with_quantum(q))),
    )
    .with_admission(
        sfs_core::admit::AdmissionPolicy::none()
            .with_max_live(4)
            .with_rate(500),
    )
}

/// Runs the rogue scenario armored (hier + admission) and bare (flat,
/// no admission); returns `(armored_report, flat_report)`.
pub fn admission_reports(effort: Effort) -> (RunReport, RunReport) {
    let exp = Experiment::new(rogue_scenario(effort));
    let armored = exp
        .run(armored_policy())
        .expect("rogue scenario, armored policy");
    let flat = exp
        .run(PolicySpec::sfs().with_quantum(Duration::from_millis(5)))
        .expect("rogue scenario, flat policy");
    (armored, flat)
}

/// The fault half's scenario: four equal spinners on two CPUs, with a
/// seeded plan of `count` mixed faults and the admission clause still
/// on (so replay covers both subsystems at once).
fn faulted_scenario(effort: Effort, count: usize) -> Scenario {
    let duration = effort.scale(Duration::from_secs(4));
    let cfg = SimConfig {
        cpus: 2,
        duration,
        ..SimConfig::default()
    };
    let plan = FaultPlan::generate(FAULT_SEED, Time(duration.as_nanos()), 4, 2, count);
    Scenario::new("chaos-faults", cfg)
        .task(TaskSpec::new("a", 1, BehaviorSpec::Inf))
        .task(TaskSpec::new("b", 1, BehaviorSpec::Inf))
        .task(TaskSpec::new("c", 2, BehaviorSpec::Inf))
        .task(TaskSpec::new("d", 2, BehaviorSpec::Inf))
        .with_faults(plan)
}

/// Injects the seeded plan and returns the run's health counters.
pub fn fault_recovery(effort: Effort) -> RunHealth {
    let count = effort.count(32) as usize;
    let rep = Experiment::new(faulted_scenario(effort, count))
        .run("sfs:quantum=5ms")
        .expect("faulted scenario runs");
    rep.health
}

/// Regenerates the overload-armor sweep (`BENCH_chaos.json`).
pub fn run(effort: Effort) -> ExpResult {
    let mut res = ExpResult::new(
        "chaos",
        "Overload armor: admission under a rogue flood, fault recovery, chaos replay",
    );

    // Part 1: admission. Entitlement is 1/TENANTS for every tenant.
    let (armored, flat) = admission_reports(effort);
    let armored_shares = shares_by_prefix(&armored);
    let flat_shares = shares_by_prefix(&flat);
    let entitlement = 1.0 / TENANTS as f64;
    let (mut worst_armored, mut worst_flat) = (0.0f64, 0.0f64);
    for t in 0..TENANTS - 1 {
        worst_armored = worst_armored.max((armored_shares[t] - entitlement).abs());
        worst_flat = worst_flat.max((flat_shares[t] - entitlement).abs());
    }
    let rejected_tasks = armored
        .tasks
        .iter()
        .filter(|t| t.fate == TaskFate::Rejected)
        .count();
    res.finding("chaos_share_err_wellbehaved", format!("{worst_armored:.4}"));
    res.finding("chaos_share_err_flat", format!("{worst_flat:.4}"));
    res.finding("chaos_rejected", armored.health.rejected.to_string());
    res.section(&format!(
        "Admission: tenant t{} floods 16 weight-100 tasks against `{}`.\n\
         Rejected arrivals: {} ({} task outcomes marked rejected).\n\
         Worst well-behaved share error: armored {worst_armored:.4}, \
         flat SFS no-armor baseline {worst_flat:.4} (entitlement {entitlement:.2} each).",
        TENANTS - 1,
        armored.policy,
        armored.health.rejected,
        rejected_tasks,
    ));

    // Part 2: seeded fault recovery.
    let health = fault_recovery(effort);
    res.finding("chaos_faults_injected", health.faults_injected.to_string());
    res.finding(
        "chaos_faults_recovered",
        health.faults_recovered.to_string(),
    );
    res.finding(
        "chaos_invariant_violations",
        health.invariant_violations.to_string(),
    );
    res.section(&format!(
        "Faults: seed {FAULT_SEED:#x} injected {} panics/stalls/jitters/wake-drops; \
         {} recovered, {} invariant audits failed.",
        health.faults_injected, health.faults_recovered, health.invariant_violations,
    ));

    // Part 3: the faulted, admission-gated run replays exactly.
    let count = effort.count(32) as usize;
    let exp = Experiment::new(faulted_scenario(effort, count));
    let (_, capture) = exp
        .capture(armored_policy().to_string().as_str())
        .expect("faulted scenario captures");
    let replay = Experiment::replay(&capture).expect("chaos capture replays");
    res.finding("chaos_replay_match", replay.sequences_match().to_string());
    res.section(&format!(
        "Replay: {} captured context switches re-driven under faults + admission; \
         match = {}.",
        replay.captured.len(),
        replay.sequences_match(),
    ));
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_caps_the_rogue_flood() {
        let (armored, flat) = admission_reports(Effort::Quick);
        // The rogue's 16 arrivals hit the max=4 cap: 12 rejected.
        assert_eq!(armored.health.rejected, 12, "{:?}", armored.health);
        assert_eq!(flat.health.rejected, 0);
        let shares = shares_by_prefix(&armored);
        let entitlement = 1.0 / TENANTS as f64;
        for (t, s) in shares.iter().enumerate().take(TENANTS - 1) {
            assert!(
                (s - entitlement).abs() < 0.05,
                "well-behaved t{t} lost its entitlement under armor: {s:.4}"
            );
        }
    }

    #[test]
    fn seeded_faults_all_recover() {
        let health = fault_recovery(Effort::Quick);
        assert!(health.faults_injected > 0);
        assert_eq!(
            health.faults_recovered, health.faults_injected,
            "{health:?}"
        );
        assert_eq!(health.invariant_violations, 0, "{health:?}");
    }

    #[test]
    fn chaos_emits_machine_readable_summary() {
        let res = run(Effort::Quick);
        for key in [
            "chaos_share_err_wellbehaved",
            "chaos_share_err_flat",
            "chaos_rejected",
            "chaos_faults_injected",
            "chaos_faults_recovered",
            "chaos_invariant_violations",
            "chaos_replay_match",
        ] {
            assert!(
                res.summary.iter().any(|(k, _)| k == key),
                "missing finding {key}"
            );
        }
        assert!(
            res.summary
                .iter()
                .any(|(k, v)| k == "chaos_replay_match" && v == "true"),
            "chaos replay must be deterministic: {:?}",
            res.summary
        );
        let json = res.summary_json();
        assert!(json.contains(r#""id":"chaos""#), "{json}");
    }
}
