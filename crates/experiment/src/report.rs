//! Substrate-independent run results and the comparative report.

use sfs_core::policy::PolicySpec;
use sfs_core::sched::SchedStats;
use sfs_core::task::TenantId;
use sfs_core::time::{Duration, Time};
use sfs_metrics::{fairness, Summary, Table};
use sfs_sim::{RunHealth, SimReport};

/// How a task's run ended, beyond its service numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TaskFate {
    /// Admitted and ran to the scenario's end (or its own exit).
    #[default]
    Ran,
    /// Refused by admission control: never attached, zero service.
    Rejected,
    /// Forcibly reaped after a panic or injected fault; its service up
    /// to the reap is real.
    Reaped,
}

/// Final measurements for one task, common to both substrates.
#[derive(Debug, Clone)]
pub struct TaskOutcome {
    /// Scenario name (e.g. `"T1"`, `"gcc#3"`).
    pub name: String,
    /// Assigned weight.
    pub weight: u64,
    /// The tenant group the task ran under, when the policy is
    /// hierarchical (`sfs:groups(...)`).
    pub tenant: Option<TenantId>,
    /// Total CPU service received.
    pub service: Duration,
    /// Completed compute phases (frames decoded, requests served, jobs
    /// finished).
    pub completions: u64,
    /// Response-time summary (ms), for workloads that sleep then compute.
    pub responses: Option<Summary>,
    /// Arrival time.
    pub arrived: Time,
    /// Exit time, if the task finished before the run ended.
    pub exited: Option<Time>,
    /// Whether the task ran normally, was rejected by admission
    /// control, or was forcibly reaped.
    pub fate: TaskFate,
}

/// Fairness indices of one run, computed against the GMS-capped ideal
/// (§2.1 readjustment semantics) via `sfs-metrics`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fairness {
    /// Jain's index over entitlement-normalised shares (1.0 = every
    /// task at exactly its capped proportional share).
    pub jain: f64,
    /// Largest absolute deviation between a measured share and its
    /// capped proportional ideal (0.0 = perfect).
    pub max_share_error: f64,
}

/// The outcome of one experiment run on either substrate.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Scenario name.
    pub scenario: String,
    /// Which substrate produced it (`"sim"` or `"rt"`).
    pub substrate: &'static str,
    /// The policy that was run.
    pub policy: PolicySpec,
    /// The scheduler's human-readable name (e.g. `"SFS"`).
    pub sched_name: String,
    /// Number of processors.
    pub cpus: u32,
    /// Wall-clock length of the run.
    pub duration: Duration,
    /// Per-task measurements, in arrival order.
    pub tasks: Vec<TaskOutcome>,
    /// Scheduler work counters.
    pub sched_stats: SchedStats,
    /// Dispatches that switched to a different task.
    pub ctx_switches: u64,
    /// The full simulator report (sampled service curves, iteration
    /// counts, GMS errors) when the run was simulated; `None` on the
    /// real-thread substrate.
    pub sim: Option<SimReport>,
    /// Where the run's Perfetto trace was written, when the run was
    /// made via [`crate::Experiment::run_with_trace`].
    pub trace_path: Option<std::path::PathBuf>,
    /// Robustness counters: admission rejections, faults injected and
    /// recovered, invariant-audit failures. All zero for runs without
    /// an admission policy or fault plan.
    pub health: RunHealth,
}

impl RunReport {
    /// Builds the common report from a simulator report.
    pub fn from_sim(scenario: &str, policy: PolicySpec, rep: SimReport) -> RunReport {
        let tasks = rep
            .tasks
            .iter()
            .map(|t| TaskOutcome {
                name: t.name.clone(),
                weight: t.weight,
                tenant: t.tenant,
                service: t.service,
                completions: t.completions,
                responses: t.responses.clone(),
                arrived: t.arrived,
                exited: t.exited,
                fate: if t.rejected {
                    TaskFate::Rejected
                } else if t.reaped {
                    TaskFate::Reaped
                } else {
                    TaskFate::Ran
                },
            })
            .collect();
        let health = rep.health;
        RunReport {
            scenario: scenario.to_string(),
            substrate: "sim",
            policy,
            sched_name: rep.sched_name.clone(),
            cpus: rep.cpus,
            duration: rep.duration,
            tasks,
            sched_stats: rep.sched_stats,
            ctx_switches: rep.ctx_switches,
            sim: Some(rep),
            trace_path: None,
            health,
        }
    }

    /// Looks a task up by scenario name.
    pub fn task(&self, name: &str) -> Option<&TaskOutcome> {
        self.tasks.iter().find(|t| t.name == name)
    }

    /// Total service over all tasks.
    pub fn total_service(&self) -> Duration {
        self.tasks
            .iter()
            .fold(Duration::ZERO, |acc, t| acc + t.service)
    }

    /// Sum of services over tasks bound to tenant `t`.
    pub fn tenant_service(&self, t: TenantId) -> Duration {
        self.tasks
            .iter()
            .filter(|task| task.tenant == Some(t))
            .fold(Duration::ZERO, |acc, task| acc + task.service)
    }

    /// Each tenant's share of total service, sorted by tenant id.
    /// Tasks outside any tenant are excluded from the numerators but
    /// count toward the total.
    pub fn tenant_shares(&self) -> Vec<(TenantId, f64)> {
        let total = self.total_service().as_nanos() as f64;
        let mut by_tenant: std::collections::BTreeMap<TenantId, f64> =
            std::collections::BTreeMap::new();
        for t in &self.tasks {
            if let Some(tenant) = t.tenant {
                *by_tenant.entry(tenant).or_default() += t.service.as_nanos() as f64;
            }
        }
        by_tenant
            .into_iter()
            .map(|(t, s)| (t, if total == 0.0 { 0.0 } else { s / total }))
            .collect()
    }

    /// Jain's fairness index over tenants, with each tenant's share
    /// normalised by its group share in the policy's `groups(...)`
    /// clause. 1.0 means every tenant got exactly its entitlement;
    /// returns `None` for flat (non-hierarchical) runs.
    pub fn tenant_fairness(&self) -> Option<f64> {
        let groups = self.policy.groups();
        if groups.is_empty() {
            return None;
        }
        let shares = self.tenant_shares();
        let total_weight: u64 = groups.iter().map(sfs_core::policy::GroupSpec::share).sum();
        let ratios: Vec<f64> = shares
            .iter()
            .map(|&(t, s)| {
                let w = groups
                    .get(t.0 as usize)
                    .map(|g| g.share() as f64 / total_weight.max(1) as f64)
                    .unwrap_or(0.0);
                if w <= 0.0 {
                    0.0
                } else {
                    s / w
                }
            })
            .collect();
        Some(fairness::jain_index(&ratios))
    }

    /// Per-task share of total service, in task order.
    pub fn shares(&self) -> Vec<f64> {
        let total = self.total_service().as_nanos() as f64;
        self.tasks
            .iter()
            .map(|t| {
                if total == 0.0 {
                    0.0
                } else {
                    t.service.as_nanos() as f64 / total
                }
            })
            .collect()
    }

    /// Fairness indices of this run against the capped proportional
    /// ideal of the task weights.
    ///
    /// The ideal assumes every task is present (and hungry) for the
    /// whole run; for scenarios with mid-run arrivals or departures,
    /// window the services yourself (the sampled curves are in
    /// [`RunReport::sim_report`]) or compare starvation gaps instead.
    ///
    /// Tasks rejected by admission control are excluded entirely: they
    /// never held a weight, so they have no entitlement and their zero
    /// service is not a fairness failure.
    pub fn fairness(&self) -> Fairness {
        let ran: Vec<&TaskOutcome> = self
            .tasks
            .iter()
            .filter(|t| t.fate != TaskFate::Rejected)
            .collect();
        let services: Vec<f64> = ran.iter().map(|t| t.service.as_secs_f64()).collect();
        let weights: Vec<f64> = ran.iter().map(|t| t.weight as f64).collect();
        let total: f64 = services.iter().sum();
        let ideal = fairness::ideal_shares(&weights, self.cpus);
        let ratios: Vec<f64> = services
            .iter()
            .zip(ideal.iter())
            .map(|(&s, &i)| {
                if total <= 0.0 || i <= 0.0 {
                    0.0
                } else {
                    (s / total) / i
                }
            })
            .collect();
        Fairness {
            jain: fairness::jain_index(&ratios),
            max_share_error: fairness::proportional_error(&services, &weights, self.cpus),
        }
    }

    /// Queue/readjustment structure steps per runnable-set mutation —
    /// the measured event-path cost of the policy's run-queue
    /// structures (0.0 when the policy reported no events).
    pub fn steps_per_event(&self) -> f64 {
        if self.sched_stats.events == 0 {
            0.0
        } else {
            self.sched_stats.event_steps as f64 / self.sched_stats.events as f64
        }
    }

    /// The underlying simulator report.
    ///
    /// # Panics
    ///
    /// Panics if the run was produced on the real-thread substrate,
    /// which keeps no sampled curves.
    pub fn sim_report(&self) -> &SimReport {
        self.sim
            .as_ref()
            .expect("detailed SimReport only exists for simulator runs")
    }
}

/// One policy's fairness, with deltas against the comparison baseline.
#[derive(Debug, Clone)]
pub struct FairnessDelta {
    /// The policy's string form.
    pub policy: String,
    /// The scheduler's display name.
    pub sched_name: String,
    /// This run's fairness indices.
    pub fairness: Fairness,
    /// `jain − jain(baseline)`: positive means fairer than baseline.
    pub jain_delta: f64,
    /// `max_share_error − baseline`: positive means *less* fair.
    pub share_error_delta: f64,
}

/// The outcome of running one scenario under several policies
/// ([`crate::Experiment::compare`]). The first run is the baseline.
#[derive(Debug, Clone)]
pub struct ComparisonReport {
    /// Scenario name.
    pub scenario: String,
    /// One run per policy, in the order given to `compare`.
    pub runs: Vec<RunReport>,
}

impl ComparisonReport {
    /// Looks a run up by its policy spec.
    pub fn get(&self, policy: &PolicySpec) -> Option<&RunReport> {
        self.runs.iter().find(|r| &r.policy == policy)
    }

    /// The baseline run (the first policy given to `compare`).
    ///
    /// # Panics
    ///
    /// Panics if the comparison is empty.
    pub fn baseline(&self) -> &RunReport {
        &self.runs[0]
    }

    /// Per-policy fairness indices with deltas against the baseline.
    pub fn deltas(&self) -> Vec<FairnessDelta> {
        let base = self.runs.first().map(RunReport::fairness);
        self.runs
            .iter()
            .map(|r| {
                let f = r.fairness();
                let b = base.unwrap_or(f);
                FairnessDelta {
                    policy: r.policy.to_string(),
                    sched_name: r.sched_name.clone(),
                    fairness: f,
                    jain_delta: f.jain - b.jain,
                    share_error_delta: f.max_share_error - b.max_share_error,
                }
            })
            .collect()
    }

    /// Renders the comparison as an aligned text table.
    pub fn to_table(&self) -> String {
        let mut table = Table::new(
            format!("{}: policy comparison", self.scenario),
            &[
                "policy",
                "scheduler",
                "total service (s)",
                "Jain",
                "ΔJain",
                "share err",
                "Δerr",
                "switches",
                "steps/ev",
            ],
        );
        // deltas() is in runs order, so zip instead of looking runs up
        // by policy string (which would conflate duplicate policies).
        for (run, d) in self.runs.iter().zip(self.deltas()) {
            table.row(&[
                d.policy.clone(),
                d.sched_name.clone(),
                format!("{:.2}", run.total_service().as_secs_f64()),
                format!("{:.4}", d.fairness.jain),
                format!("{:+.4}", d.jain_delta),
                format!("{:.4}", d.fairness.max_share_error),
                format!("{:+.4}", d.share_error_delta),
                format!("{}", run.ctx_switches),
                format!("{:.1}", run.steps_per_event()),
            ]);
        }
        table.to_text()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(name: &str, weight: u64, service_ms: u64) -> TaskOutcome {
        TaskOutcome {
            name: name.into(),
            weight,
            tenant: None,
            service: Duration::from_millis(service_ms),
            completions: 0,
            responses: None,
            arrived: Time::ZERO,
            exited: None,
            fate: TaskFate::Ran,
        }
    }

    fn report(tasks: Vec<TaskOutcome>) -> RunReport {
        RunReport {
            scenario: "t".into(),
            substrate: "sim",
            policy: PolicySpec::sfs(),
            sched_name: "SFS".into(),
            cpus: 1,
            duration: Duration::from_secs(1),
            tasks,
            sched_stats: SchedStats::default(),
            ctx_switches: 0,
            sim: None,
            trace_path: None,
            health: RunHealth::default(),
        }
    }

    #[test]
    fn perfect_proportional_split_scores_one() {
        let rep = report(vec![outcome("a", 2, 600), outcome("b", 1, 300)]);
        // Shares 2/3 : 1/3 exactly match weights 2:1 on one CPU.
        let f = rep.fairness();
        assert!((f.jain - 1.0).abs() < 1e-9, "{f:?}");
        assert!(f.max_share_error < 1e-9, "{f:?}");
        assert_eq!(rep.shares()[0], 2.0 / 3.0);
        assert_eq!(rep.task("a").unwrap().service, Duration::from_millis(600));
    }

    #[test]
    fn tenant_accessors_sum_member_tasks() {
        // A tenant's service is the sum over its member tasks, however
        // they are named; tenant-less tasks belong to no tenant.
        let mut a1 = outcome("batch#1", 1, 300);
        a1.tenant = Some(TenantId(0));
        let mut a2 = outcome("batch#2", 1, 150);
        a2.tenant = Some(TenantId(0));
        let mut b = outcome("web", 1, 450);
        b.tenant = Some(TenantId(1));
        let free = outcome("stray", 1, 100);
        let rep = report(vec![a1, a2, b, free]);

        let members = rep.task("batch#1").unwrap().service + rep.task("batch#2").unwrap().service;
        assert_eq!(members, Duration::from_millis(450));
        assert_eq!(rep.tenant_service(TenantId(0)), members);
        assert_eq!(rep.tenant_service(TenantId(1)), Duration::from_millis(450));
        assert_eq!(rep.tenant_service(TenantId(9)), Duration::ZERO);

        // Shares: tenant-less service counts in the denominator only.
        let shares = rep.tenant_shares();
        assert_eq!(shares.len(), 2);
        assert!((shares[0].1 - 0.45).abs() < 1e-9, "{shares:?}");
        assert!((shares[1].1 - 0.45).abs() < 1e-9, "{shares:?}");

        // A flat policy has no tenant fairness.
        assert_eq!(rep.tenant_fairness(), None);
    }

    #[test]
    fn rejected_tasks_are_excluded_from_fairness() {
        // A rejected heavy task never held a weight: its zero service
        // must not register as a share error for the run.
        let mut rej = outcome("rej", 5, 0);
        rej.fate = TaskFate::Rejected;
        let rep = report(vec![outcome("a", 2, 600), outcome("b", 1, 300), rej]);
        let f = rep.fairness();
        assert!((f.jain - 1.0).abs() < 1e-9, "{f:?}");
        assert!(f.max_share_error < 1e-9, "{f:?}");
    }

    #[test]
    fn inverted_split_scores_poorly() {
        let rep = report(vec![outcome("a", 10, 100), outcome("b", 1, 900)]);
        let f = rep.fairness();
        assert!(f.jain < 0.9, "{f:?}");
        assert!(f.max_share_error > 0.5, "{f:?}");
    }

    #[test]
    fn fully_starved_run_keeps_deltas_finite() {
        // Zero service everywhere (e.g. a zero-length window): the jain
        // ratios are all 0.0, which the metric defines as 1.0 — the
        // deltas must never go NaN.
        let starved = report(vec![outcome("a", 2, 0), outcome("b", 1, 0)]);
        let f = starved.fairness();
        assert_eq!(f.jain, 1.0, "{f:?}");
        assert!(f.max_share_error.is_finite());
        let fair = report(vec![outcome("a", 2, 600), outcome("b", 1, 300)]);
        let cmp = ComparisonReport {
            scenario: "t".into(),
            runs: vec![starved, fair],
        };
        for d in cmp.deltas() {
            assert!(d.fairness.jain.is_finite(), "{d:?}");
            assert!(d.jain_delta.is_finite(), "{d:?}");
            assert!(d.share_error_delta.is_finite(), "{d:?}");
        }
    }

    #[test]
    fn comparison_deltas_use_the_first_run_as_baseline() {
        let fair = report(vec![outcome("a", 2, 600), outcome("b", 1, 300)]);
        let unfair = report(vec![outcome("a", 2, 300), outcome("b", 1, 600)]);
        let cmp = ComparisonReport {
            scenario: "t".into(),
            runs: vec![fair, unfair],
        };
        let d = cmp.deltas();
        assert_eq!(d[0].jain_delta, 0.0);
        assert!(d[1].jain_delta < 0.0);
        assert!(d[1].share_error_delta > 0.0);
        assert!(cmp.to_table().contains("policy"));
    }
}
