//! Per-task measurement collection and the experiment report.
//!
//! The simulator records, per task: a sampled cumulative-service curve
//! (the y axis of Figs. 4 and 5 after conversion to iterations),
//! response-time samples for interactive work (Fig. 6c), completion
//! counts for periodic work (frame rate, Fig. 6b) and final totals.
//!
//! Task names are interned: scenario tasks share a handful of base
//! names (`"short"`, `"vm"`) differing only in a replica suffix, so a
//! task is identified by a `TaskLabel` — a dense symbol-table index
//! plus a replica number — and the `"short#3"` strings are rendered
//! once, at report time, never during the run. Per-task storage is a
//! dense `Vec` indexed by [`TaskId`] (ids are allocated contiguously
//! from 1), not a hash map.
//!
//! **Lean mode** ([`Trace::new_lean`]) drops the per-task curves and
//! response vectors and reduces the report to a [`LeanSummary`] of
//! aggregate totals — the memory floor for mega-scale (10⁶-task) runs,
//! where a million `TimeSeries` would dominate the simulation itself.
#![expect(clippy::disallowed_types, reason = "keyed by name, not task")]

use std::collections::HashMap;

use sfs_core::sched::SchedStats;
use sfs_core::task::{TaskId, TenantId};
use sfs_core::time::{Duration, Time};
use sfs_metrics::{Summary, TimeSeries};

/// A task's interned name: a symbol-table index for the base name plus
/// a replica number (`0` = no suffix; `k > 0` renders as `"{base}#{k}"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TaskLabel {
    pub(crate) sym: u32,
    pub(crate) replica: u32,
}

/// A dense string-interning table for task base names.
#[derive(Debug, Default)]
pub(crate) struct NameTable {
    syms: Vec<String>,
    index: HashMap<String, u32>,
}

impl NameTable {
    pub(crate) fn intern(&mut self, s: &str) -> u32 {
        if let Some(&i) = self.index.get(s) {
            return i;
        }
        let i = u32::try_from(self.syms.len()).expect("name table overflow");
        self.syms.push(s.to_string());
        self.index.insert(s.to_string(), i);
        i
    }

    pub(crate) fn render(&self, label: TaskLabel) -> String {
        let base = &self.syms[label.sym as usize];
        if label.replica == 0 {
            base.clone()
        } else {
            format!("{base}#{}", label.replica)
        }
    }
}

/// Collects samples during a run.
#[derive(Debug, Default)]
pub struct Trace {
    /// Per-task slots indexed by `TaskId - 1`; ids are dense.
    tasks: Vec<Option<TaskTrace>>,
    order: Vec<TaskId>,
    names: NameTable,
    lean: bool,
}

#[derive(Debug)]
struct TaskTrace {
    label: TaskLabel,
    weight: u64,
    tenant: Option<TenantId>,
    iteration_cost: Option<Duration>,
    /// Cumulative-service samples (secs, secs); empty in lean mode.
    points: Vec<(f64, f64)>,
    responses_ms: Vec<f64>,
    completions: u64,
    service: Duration,
    arrived: Time,
    exited: Option<Time>,
    rejected: bool,
    reaped: bool,
}

impl Trace {
    /// A lean trace: per-task totals only, no curves, no response
    /// vectors; the report carries a [`LeanSummary`] instead of
    /// per-task entries.
    pub fn new_lean() -> Trace {
        Trace {
            lean: true,
            ..Trace::default()
        }
    }

    /// Interns a base name for use in `TaskLabel`s.
    pub(crate) fn intern(&mut self, name: &str) -> u32 {
        self.names.intern(name)
    }

    /// Renders a label to the string form reports use.
    pub(crate) fn render(&self, label: TaskLabel) -> String {
        self.names.render(label)
    }

    fn slot_mut(&mut self, id: TaskId) -> Option<&mut TaskTrace> {
        self.tasks
            .get_mut(id.0 as usize - 1)
            .and_then(Option::as_mut)
    }

    /// Registers a task at arrival. `tenant` records the tenant group
    /// the task was bound to, if the policy is hierarchical.
    pub fn register(
        &mut self,
        id: TaskId,
        name: &str,
        weight: u64,
        tenant: Option<TenantId>,
        iteration_cost: Option<Duration>,
        now: Time,
    ) {
        let sym = self.names.intern(name);
        self.register_label(
            id,
            TaskLabel { sym, replica: 0 },
            weight,
            tenant,
            iteration_cost,
            now,
        );
    }

    /// [`Trace::register`] with a pre-interned label; the engine's path
    /// (no per-task string is ever built).
    pub(crate) fn register_label(
        &mut self,
        id: TaskId,
        label: TaskLabel,
        weight: u64,
        tenant: Option<TenantId>,
        iteration_cost: Option<Duration>,
        now: Time,
    ) {
        let idx = id.0 as usize - 1;
        if self.tasks.len() <= idx {
            self.tasks.resize_with(idx + 1, || None);
        }
        self.order.push(id);
        let mut points = Vec::new();
        if !self.lean {
            // Anchor the cumulative curve at arrival so window
            // arithmetic over short-lived tasks is exact.
            points.push((now.as_secs_f64(), 0.0));
        }
        self.tasks[idx] = Some(TaskTrace {
            label,
            weight,
            tenant,
            iteration_cost,
            points,
            responses_ms: Vec::new(),
            completions: 0,
            service: Duration::ZERO,
            arrived: now,
            exited: None,
            rejected: false,
            reaped: false,
        });
    }

    /// Adds CPU service to a task's running total.
    pub fn add_service(&mut self, id: TaskId, d: Duration) {
        if let Some(t) = self.slot_mut(id) {
            t.service += d;
        }
    }

    /// Takes a cumulative-service sample for a task at time `now`;
    /// `in_flight` is CPU time consumed in the current quantum but not
    /// yet charged. No-op in lean mode.
    pub fn sample(&mut self, id: TaskId, now: Time, in_flight: Duration) {
        if self.lean {
            return;
        }
        if let Some(t) = self.slot_mut(id) {
            let total = t.service + in_flight;
            t.points.push((now.as_secs_f64(), total.as_secs_f64()));
        }
    }

    /// Records a completed interactive request/frame with its response
    /// time.
    pub fn complete(&mut self, id: TaskId, response: Option<Duration>) {
        let lean = self.lean;
        if let Some(t) = self.slot_mut(id) {
            t.completions += 1;
            if let Some(r) = response {
                if !lean {
                    t.responses_ms.push(r.as_millis_f64());
                }
            }
        }
    }

    /// Marks a task exited, anchoring its final cumulative sample so
    /// the curve is exact even if no periodic sample fell in its
    /// lifetime.
    pub fn exited(&mut self, id: TaskId, now: Time) {
        let lean = self.lean;
        if let Some(t) = self.slot_mut(id) {
            t.exited = Some(now);
            if !lean {
                t.points.push((now.as_secs_f64(), t.service.as_secs_f64()));
            }
        }
    }

    /// Marks a task refused by admission control: it is materialised in
    /// the report (so replica numbering and stream continuations stay
    /// intact) but never received service.
    pub fn mark_rejected(&mut self, id: TaskId) {
        if let Some(t) = self.slot_mut(id) {
            t.rejected = true;
        }
    }

    /// Marks a task forcibly reaped by fault recovery (an injected
    /// panic): its weight was released and it will not run again.
    pub fn mark_reaped(&mut self, id: TaskId) {
        if let Some(t) = self.slot_mut(id) {
            t.reaped = true;
        }
    }

    /// Finalises into a report. `engine_events` is the number of
    /// discrete events the simulator processed (the denominator of
    /// every ns/event metric).
    pub fn into_report(
        self,
        sched_name: &str,
        cpus: u32,
        duration: Duration,
        stats: SchedStats,
        ctx_switches: u64,
        engine_events: u64,
    ) -> SimReport {
        let mut tasks = Vec::new();
        let mut summary = None;
        if self.lean {
            let mut s = LeanSummary::default();
            for id in &self.order {
                let t = self.tasks[id.0 as usize - 1].as_ref().expect("registered");
                s.tasks += 1;
                s.completions += t.completions;
                s.service += t.service;
                if t.exited.is_some() {
                    s.exited += 1;
                }
                if t.rejected {
                    s.rejected += 1;
                }
            }
            summary = Some(s);
        } else {
            for id in &self.order {
                let t = self.tasks[id.0 as usize - 1].as_ref().expect("registered");
                let name = self.names.render(t.label);
                let mut series = TimeSeries::new(&name);
                for &(x, y) in &t.points {
                    series.push(x, y);
                }
                tasks.push(TaskReport {
                    id: *id,
                    name,
                    weight: t.weight,
                    tenant: t.tenant,
                    service: t.service,
                    iterations: t
                        .iteration_cost
                        .map(|c| t.service.as_nanos() / c.as_nanos().max(1)),
                    completions: t.completions,
                    responses: if t.responses_ms.is_empty() {
                        None
                    } else {
                        Some(Summary::from(t.responses_ms.iter().copied()))
                    },
                    series,
                    arrived: t.arrived,
                    exited: t.exited,
                    gms_error: None,
                    rejected: t.rejected,
                    reaped: t.reaped,
                });
            }
        }
        SimReport {
            sched_name: sched_name.to_string(),
            cpus,
            duration,
            tasks,
            sched_stats: stats,
            ctx_switches,
            engine_events,
            summary,
            health: RunHealth::default(),
        }
    }
}

/// Aggregate totals a lean-mode run reports instead of per-task
/// entries.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeanSummary {
    /// Tasks that arrived during the run.
    pub tasks: u64,
    /// Completed compute phases over all tasks.
    pub completions: u64,
    /// Total CPU service over all tasks.
    pub service: Duration,
    /// Tasks that exited before the run ended.
    pub exited: u64,
    /// Arrivals refused by admission control.
    pub rejected: u64,
}

/// Final measurements for one task.
#[derive(Debug, Clone)]
pub struct TaskReport {
    /// Task id.
    pub id: TaskId,
    /// Scenario name (e.g. `"T1"`, `"gcc#3"`).
    pub name: String,
    /// Assigned weight.
    pub weight: u64,
    /// The tenant group the task ran under, for hierarchical policies.
    pub tenant: Option<TenantId>,
    /// Total CPU service received.
    pub service: Duration,
    /// Application-level iterations executed (service / iteration cost),
    /// if the workload defines them.
    pub iterations: Option<u64>,
    /// Completed compute phases (frames decoded, requests served, jobs
    /// finished).
    pub completions: u64,
    /// Response-time summary (ms), for workloads that sleep then compute.
    pub responses: Option<Summary>,
    /// Sampled cumulative service curve (seconds vs seconds).
    pub series: TimeSeries,
    /// Arrival time.
    pub arrived: Time,
    /// Exit time, if the task finished before the run ended.
    pub exited: Option<Time>,
    /// |service − GMS fluid service|, when GMS co-simulation was on.
    pub gms_error: Option<Duration>,
    /// The arrival was refused by admission control; the task never
    /// attached to the scheduler and its service is zero.
    pub rejected: bool,
    /// The task was forcibly reaped by fault recovery (an injected
    /// panic) rather than exiting on its own.
    pub reaped: bool,
}

impl TaskReport {
    /// Mean completion rate over the task's lifetime (e.g. frames/sec).
    pub fn completion_rate(&self, run_end: Time) -> f64 {
        let end = self.exited.unwrap_or(run_end);
        let lifetime = end.since(self.arrived).as_secs_f64();
        if lifetime <= 0.0 {
            0.0
        } else {
            self.completions as f64 / lifetime
        }
    }
}

/// The outcome of one simulated experiment run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Name of the scheduling policy that produced this run.
    pub sched_name: String,
    /// Number of processors simulated.
    pub cpus: u32,
    /// Wall-clock length of the run.
    pub duration: Duration,
    /// Per-task measurements, in arrival order. Empty for lean-mode
    /// runs — see [`SimReport::summary`].
    pub tasks: Vec<TaskReport>,
    /// Scheduler work counters.
    pub sched_stats: SchedStats,
    /// Dispatches that switched to a different task.
    pub ctx_switches: u64,
    /// Discrete events the simulator processed.
    pub engine_events: u64,
    /// Aggregate totals, for lean-mode runs that skip per-task entries.
    pub summary: Option<LeanSummary>,
    /// Admission and fault-recovery outcomes for the run.
    pub health: RunHealth,
}

/// Admission and fault-recovery outcomes of a run. All-zero for runs
/// with no admission control and no fault plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunHealth {
    /// Arrivals refused by admission control.
    pub rejected: u64,
    /// Faults the engine injected before the run ended.
    pub faults_injected: u64,
    /// Faults whose recovery action completed.
    pub faults_recovered: u64,
    /// Scheduler invariant checks that failed during fault recovery.
    pub invariant_violations: u64,
}

impl SimReport {
    /// Looks a task up by scenario name.
    pub fn task(&self, name: &str) -> Option<&TaskReport> {
        self.tasks.iter().find(|t| t.name == name)
    }

    /// Sum of services over tasks bound to tenant `t`.
    pub fn tenant_service(&self, t: TenantId) -> Duration {
        self.tasks
            .iter()
            .filter(|task| task.tenant == Some(t))
            .fold(Duration::ZERO, |acc, task| acc + task.service)
    }

    /// Each tenant's share of total service, sorted by tenant id.
    /// Tasks without a tenant are excluded from the numerators but
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

    /// Total service over all tasks.
    pub fn total_service(&self) -> Duration {
        if let Some(s) = &self.summary {
            return s.service;
        }
        self.tasks
            .iter()
            .fold(Duration::ZERO, |acc, t| acc + t.service)
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs_core::sched::SchedStats;

    #[test]
    fn trace_accumulates_and_reports() {
        let mut tr = Trace::default();
        tr.register(
            TaskId(1),
            "T1",
            2,
            None,
            Some(Duration::from_micros(1)),
            Time::ZERO,
        );
        tr.add_service(TaskId(1), Duration::from_millis(10));
        tr.sample(TaskId(1), Time::from_millis(10), Duration::ZERO);
        tr.complete(TaskId(1), Some(Duration::from_millis(3)));
        tr.complete(TaskId(1), None);
        let rep = tr.into_report(
            "SFS",
            2,
            Duration::from_secs(1),
            SchedStats::default(),
            7,
            0,
        );
        assert_eq!(rep.ctx_switches, 7);
        let t = rep.task("T1").unwrap();
        assert_eq!(t.service, Duration::from_millis(10));
        assert_eq!(t.iterations, Some(10_000));
        assert_eq!(t.completions, 2);
        let r = t.responses.as_ref().unwrap();
        assert_eq!(r.count(), 1);
        assert!((r.mean() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn report_shares_and_groups() {
        let mut tr = Trace::default();
        tr.register(TaskId(1), "a#1", 1, Some(TenantId(0)), None, Time::ZERO);
        tr.register(TaskId(2), "a#2", 1, Some(TenantId(0)), None, Time::ZERO);
        tr.register(TaskId(3), "b", 1, Some(TenantId(1)), None, Time::ZERO);
        tr.add_service(TaskId(1), Duration::from_millis(10));
        tr.add_service(TaskId(2), Duration::from_millis(20));
        tr.add_service(TaskId(3), Duration::from_millis(30));
        let rep = tr.into_report("x", 1, Duration::from_secs(1), SchedStats::default(), 0, 0);
        let members = rep.task("a#1").unwrap().service + rep.task("a#2").unwrap().service;
        assert_eq!(members, Duration::from_millis(30));
        assert_eq!(rep.total_service(), Duration::from_millis(60));
        let shares = rep.shares();
        assert!((shares[2] - 0.5).abs() < 1e-9);
        // The tenant-keyed accessor sums exactly the member tasks.
        assert_eq!(rep.tenant_service(TenantId(0)), members);
        assert_eq!(rep.tenant_service(TenantId(1)), Duration::from_millis(30));
        let ts = rep.tenant_shares();
        assert_eq!(ts.len(), 2);
        assert!((ts[0].1 - 0.5).abs() < 1e-9);
        assert!((ts[1].1 - 0.5).abs() < 1e-9);
    }

    #[test]
    fn completion_rate_uses_lifetime() {
        let mut tr = Trace::default();
        tr.register(TaskId(1), "mpeg", 1, None, None, Time::ZERO);
        for _ in 0..60 {
            tr.complete(TaskId(1), None);
        }
        let rep = tr.into_report("x", 1, Duration::from_secs(2), SchedStats::default(), 0, 0);
        let t = rep.task("mpeg").unwrap();
        assert!((t.completion_rate(Time::from_secs(2)) - 30.0).abs() < 1e-9);
    }

    #[test]
    fn interned_replica_labels_render_like_format() {
        let mut tr = Trace::default();
        let sym = tr.intern("gcc");
        tr.register_label(
            TaskId(1),
            TaskLabel { sym, replica: 3 },
            1,
            None,
            None,
            Time::ZERO,
        );
        tr.register_label(
            TaskId(2),
            TaskLabel { sym, replica: 0 },
            1,
            None,
            None,
            Time::ZERO,
        );
        let rep = tr.into_report("x", 1, Duration::from_secs(1), SchedStats::default(), 0, 0);
        assert_eq!(rep.tasks[0].name, "gcc#3");
        assert_eq!(rep.tasks[1].name, "gcc");
    }

    #[test]
    fn lean_mode_reports_aggregates_only() {
        let mut tr = Trace::new_lean();
        tr.register(TaskId(1), "a", 1, None, None, Time::ZERO);
        tr.register(TaskId(2), "b", 1, None, None, Time::ZERO);
        tr.add_service(TaskId(1), Duration::from_millis(10));
        tr.add_service(TaskId(2), Duration::from_millis(5));
        tr.complete(TaskId(1), Some(Duration::from_millis(2)));
        tr.exited(TaskId(1), Time::from_millis(20));
        let rep = tr.into_report(
            "x",
            1,
            Duration::from_secs(1),
            SchedStats::default(),
            0,
            1234,
        );
        assert!(rep.tasks.is_empty());
        assert_eq!(rep.engine_events, 1234);
        let s = rep.summary.expect("lean summary");
        assert_eq!(s.tasks, 2);
        assert_eq!(s.completions, 1);
        assert_eq!(s.exited, 1);
        assert_eq!(s.service, Duration::from_millis(15));
        assert_eq!(rep.total_service(), Duration::from_millis(15));
    }
}
