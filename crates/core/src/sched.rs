//! The scheduler interface shared by all policies and substrates.
//!
//! Schedulers are pure run-queue policies: a substrate (the discrete-event
//! simulator in `sfs-sim` or the thread runtime in `sfs-rt`) owns the
//! clock and the processors and drives the policy through the events
//! below, mirroring how the Linux kernel invokes its scheduler (§3.1):
//! "whenever a quantum expires or one of the currently running threads
//! blocks, the kernel invokes the SFS scheduler".
//!
//! # Protocol
//!
//! * [`Scheduler::attach`] introduces a new runnable task.
//! * [`Scheduler::pick_next`] selects a ready task to run on a CPU and
//!   marks it running. The quantum length need *not* be fixed here; the
//!   substrate reports actual usage later (a property SFS is explicitly
//!   designed around, §2.3).
//! * [`Scheduler::put_prev`] returns a running task with the CPU time it
//!   actually consumed and why it stopped (quantum expiry, voluntary
//!   yield, block, or exit). Tag updates happen here.
//! * [`Scheduler::wake`] makes a blocked task runnable again.
//! * [`Scheduler::detach`] removes a non-running task (e.g. killed while
//!   ready or blocked).
//!
//! Every mutation that changes the runnable set must trigger weight
//! readjustment inside the policy (§3.1).

use crate::fixed::Fixed;
use crate::task::{CpuId, TaskId, TenantId, Weight};
use crate::time::{Duration, Time};

/// Why a running task is giving up its processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchReason {
    /// The quantum expired (or a wakeup preempted the task); the task is
    /// still runnable and goes back on the run queue.
    Preempted,
    /// The task voluntarily yielded but remains runnable.
    Yielded,
    /// The task blocked on I/O or a synchronisation event.
    Blocked,
    /// The task exited; the scheduler forgets it entirely.
    Exited,
}

impl SwitchReason {
    /// True if the task remains runnable after the switch.
    pub fn still_runnable(self) -> bool {
        matches!(self, SwitchReason::Preempted | SwitchReason::Yielded)
    }
}

/// Counters describing the work a scheduler has done; used by the
/// overhead experiments (Table 1, Fig. 7) and the pick-cost experiment
/// (Fig. 3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Calls to `pick_next` that returned a task.
    pub picks: u64,
    /// Scheduling instances at which the virtual time advanced.
    pub vt_changes: u64,
    /// Bulk surplus recomputations + re-sorts of the surplus queue.
    pub full_resorts: u64,
    /// Always 0: nothing re-sorts a queue any more. Kept only because
    /// `benchmark/` records every `SchedStats` field.
    pub nodes_moved: u64,
    /// Invocations of the weight readjustment algorithm.
    pub readjust_calls: u64,
    /// Threads whose weight was clamped across all readjustments.
    pub weights_clamped: u64,
    /// Always 0: no policy implements the §3.2 bounded-lookahead
    /// heuristic (SFS's exact pick subsumes it). Kept only because
    /// `benchmark/` records this field.
    pub heuristic_picks: u64,
    /// Always 0, like `heuristic_picks`.
    pub heuristic_scans: u64,
    /// Always 0: tags never wrap (see `fixed.rs`), so nothing
    /// renormalises them (§3.2). Kept only because `benchmark/` records
    /// every `SchedStats` field.
    pub renormalizations: u64,
    /// Picks that moved a task to a different processor than its last.
    pub migrations: u64,
    /// Tasks migrated between per-φ buckets after readjustment-driven
    /// weight changes (SFS bucket queue).
    pub bucket_migrations: u64,
    /// Queue entries examined across all exact bucket-queue picks (SFS);
    /// `bucket_scans / picks` is the measured per-decision scan cost.
    pub bucket_scans: u64,
    /// Distinct weight-class buckets at the instant the stats were read
    /// (a gauge, not a counter; SFS bucket queue).
    pub weight_classes: u64,
    /// Runnable-set mutations processed: arrivals (`attach`), departures
    /// (`detach`), wakeups, weight changes and quantum-end requeues
    /// (`put_prev`). This is the *event* path, complementary to the
    /// pick path counted by `picks`.
    pub events: u64,
    /// Data-structure steps consumed across all events: queue search
    /// hops plus readjustment bookkeeping. `event_steps / events` is the
    /// measured per-event cost; `tests/scaling_guards.rs` tracks it
    /// against the runnable-set size.
    pub event_steps: u64,
    /// Ready tasks migrated between run-queue shards by an idle
    /// processor's steal path (sharded scheduling only).
    pub shard_steals: u64,
    /// Ready tasks migrated by the periodic surplus-rebalance pass
    /// (sharded scheduling only).
    pub shard_rebalances: u64,
    /// Wakeups placed on a different shard than the one the task last
    /// ran on because its home shard was overloaded (sharded only).
    pub shard_wake_migrations: u64,
}

impl SchedStats {
    /// Field-wise sum of two stats blocks, used to aggregate per-shard
    /// policy instances into one machine-wide view. `weight_classes` is
    /// a gauge, not a counter, so it takes the maximum instead.
    #[must_use]
    pub fn merged(self, o: SchedStats) -> SchedStats {
        SchedStats {
            picks: self.picks + o.picks,
            vt_changes: self.vt_changes + o.vt_changes,
            full_resorts: self.full_resorts + o.full_resorts,
            nodes_moved: self.nodes_moved + o.nodes_moved,
            readjust_calls: self.readjust_calls + o.readjust_calls,
            weights_clamped: self.weights_clamped + o.weights_clamped,
            heuristic_picks: self.heuristic_picks + o.heuristic_picks,
            heuristic_scans: self.heuristic_scans + o.heuristic_scans,
            renormalizations: self.renormalizations + o.renormalizations,
            migrations: self.migrations + o.migrations,
            bucket_migrations: self.bucket_migrations + o.bucket_migrations,
            bucket_scans: self.bucket_scans + o.bucket_scans,
            weight_classes: self.weight_classes.max(o.weight_classes),
            events: self.events + o.events,
            event_steps: self.event_steps + o.event_steps,
            shard_steals: self.shard_steals + o.shard_steals,
            shard_rebalances: self.shard_rebalances + o.shard_rebalances,
            shard_wake_migrations: self.shard_wake_migrations + o.shard_wake_migrations,
        }
    }
}

/// A proportional-share (or baseline) CPU scheduling policy.
///
/// All methods take the current time so tag-based policies can account
/// service precisely; policies that do not need it ignore it.
///
/// Implementations must be deterministic: given the same event sequence
/// they must make the same decisions (ties broken by task id / FIFO).
pub trait Scheduler: Send {
    /// A short human-readable policy name (e.g. `"SFS"`).
    fn name(&self) -> &'static str;

    /// Number of processors this policy schedules for.
    fn cpus(&self) -> u32;

    /// Introduces a new task in the runnable state.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `id` is already attached.
    fn attach(&mut self, id: TaskId, w: Weight, now: Time);

    /// Resolves a tenant group name to the [`TenantId`] this policy
    /// schedules it under, for policies with hierarchical groups.
    /// Returns `None` (the default) when the policy is flat or does not
    /// know the name; substrates treat that as "no tenant routing".
    fn bind_tenant(&self, _group: &str) -> Option<TenantId> {
        None
    }

    /// Introduces a new runnable task under a tenant group. Flat
    /// policies ignore the tenant (the default forwards to
    /// [`Scheduler::attach`]); hierarchical policies route the task
    /// into the tenant's group queue.
    fn attach_tenant(&mut self, id: TaskId, w: Weight, _tenant: Option<TenantId>, now: Time) {
        self.attach(id, w, now);
    }

    /// Introduces a whole batch of runnable tasks at once. Equivalent
    /// to one [`Scheduler::attach_tenant`] call per entry (the
    /// default); policies whose attach path does work global to the
    /// runnable set — the §2.1 readjustment of flat SFS, the
    /// hierarchical group walk — override this to run that work once
    /// per batch instead of once per task, and route their singular
    /// attaches through it as one-element batches.
    fn attach_batch(&mut self, batch: &[(TaskId, Weight, Option<TenantId>)], now: Time) {
        for &(id, w, tenant) in batch {
            self.attach_tenant(id, w, tenant, now);
        }
    }

    /// [`Scheduler::attach_batch`] under the name event substrates use
    /// for a run of same-tick arrival events. Kept separate so a
    /// substrate can batch arrivals without implying anything about
    /// wakeups; the default forwards to `attach_batch`.
    fn arrive_batch(&mut self, batch: &[(TaskId, Weight, Option<TenantId>)], now: Time) {
        self.attach_batch(batch, now);
    }

    /// Makes a batch of blocked tasks runnable at once, in slice order.
    /// Equivalent to one [`Scheduler::wake`] call per entry (the
    /// default); policies whose wake path does per-event work global to
    /// the runnable set — weight readjustment, group re-enqueue —
    /// override this to run that work once per batch, and route their
    /// singular wakes through it as one-element batches (SFS and
    /// hierarchical SFS do both).
    fn wake_batch(&mut self, ids: &[TaskId], now: Time) {
        for &id in ids {
            self.wake(id, now);
        }
    }

    /// The tenant group a task was attached under, if the policy
    /// tracks one.
    fn tenant_of(&self, _id: TaskId) -> Option<TenantId> {
        None
    }

    /// Removes a task that is **not currently running** (ready or
    /// blocked). Running tasks leave via [`Scheduler::put_prev`] with
    /// [`SwitchReason::Exited`].
    fn detach(&mut self, id: TaskId, now: Time);

    /// Forcibly removes a task on an abnormal exit (a panic, a kill, a
    /// watchdog recovery) — the detach-with-release path. The task may
    /// be ready or blocked, but not running (stop it via
    /// [`Scheduler::put_prev`] with [`SwitchReason::Exited`] first).
    ///
    /// Semantically identical to [`Scheduler::detach`] — the weight is
    /// released and the §2.1 readjustment re-run so surviving tasks'
    /// shares stay exact — but kept as a separate entry point so
    /// substrates can route *every* forced-exit path through one
    /// method and policies can instrument reaps distinctly if they
    /// need to. The default forwards to `detach`.
    fn reap(&mut self, id: TaskId, now: Time) {
        self.detach(id, now);
    }

    /// Changes a task's weight on the fly (the `setweight` syscall, §3.1).
    fn set_weight(&mut self, id: TaskId, w: Weight, now: Time);

    /// Returns the task's user-assigned weight, if attached.
    fn weight_of(&self, id: TaskId) -> Option<Weight>;

    /// Returns the task's instantaneous (readjusted) weight `φ_i`, if the
    /// policy computes one.
    fn adjusted_weight_of(&self, _id: TaskId) -> Option<Fixed> {
        None
    }

    /// Makes a blocked task runnable.
    fn wake(&mut self, id: TaskId, now: Time);

    /// Picks a ready task to run on `cpu`, marking it running.
    /// Returns `None` if no ready task exists.
    fn pick_next(&mut self, cpu: CpuId, now: Time) -> Option<TaskId>;

    /// Returns the previously picked task, reporting the CPU time `ran`
    /// it actually consumed and the reason it stopped.
    fn put_prev(&mut self, id: TaskId, ran: Duration, reason: SwitchReason, now: Time);

    /// The quantum to grant the task at dispatch. Policies with epoch
    /// budgets (time sharing) return the remaining budget; tag-based
    /// policies return their fixed maximum quantum.
    fn time_slice(&self, id: TaskId) -> Duration;

    /// Whether waking `woken` should preempt `running` (which has been on
    /// a CPU for `ran_so_far`). Default: never (pure quantum-driven).
    fn wake_preempts(
        &self,
        _woken: TaskId,
        _running: TaskId,
        _ran_so_far: Duration,
        _now: Time,
    ) -> bool {
        false
    }

    /// The ready task this policy can best afford to hand to another
    /// run queue — the *highest*-surplus (most-ahead) ready task — for
    /// shard rebalancing. `None` when no ready task exists or the
    /// policy has no ordering to nominate one (stealing is then
    /// disabled for it; placement balancing still applies).
    fn steal_candidate(&self) -> Option<TaskId> {
        None
    }

    /// The task's surplus charged with `ran_so_far` of in-flight CPU
    /// time, on the policy's own scale. Substrates use it to rank
    /// wake-preemption victims: among the running tasks a wakeup may
    /// preempt, the one with the largest charged surplus is the worst
    /// (lowest-priority) victim. `None` if the policy has no surplus
    /// notion; substrates then preempt the first eligible victim.
    fn charged_surplus(&self, _id: TaskId, _ran_so_far: Duration, _now: Time) -> Option<Fixed> {
        None
    }

    /// Number of runnable (ready + running) tasks.
    fn nr_runnable(&self) -> usize;

    /// Total number of attached tasks (runnable + blocked).
    fn nr_tasks(&self) -> usize;

    /// Work counters for overhead reporting.
    fn stats(&self) -> SchedStats;

    /// The policy's virtual time, if it maintains one.
    fn virtual_time(&self) -> Option<Fixed> {
        None
    }

    /// Verifies internal data-structure invariants, panicking on any
    /// violation. The default does nothing; policies with a checker
    /// (SFS) override it so stress tests can audit any boxed policy.
    fn check_invariants(&self) {}
}

/// Picks which running task a wakeup should preempt: among every
/// processor whose running task loses to the woken one (per
/// [`Scheduler::wake_preempts`]), the *worst* victim — the one with
/// the largest charged surplus (lowest priority). For policies that
/// expose no surplus, the first eligible processor is kept (their
/// `wake_preempts` is all-or-nothing anyway). Candidates are
/// `(slot, running task, time on CPU)` triples; returns the winning
/// `(slot, running task)`.
///
/// Shared by both substrates so the victim rule cannot drift between
/// them: the simulator's `preempt_check` and the rt executor's wake
/// paths both call this.
pub fn select_preemption_victim(
    sched: &dyn Scheduler,
    woken: TaskId,
    candidates: &[(usize, TaskId, Duration)],
    now: Time,
) -> Option<(usize, TaskId)> {
    let mut worst: Option<(Fixed, usize, TaskId)> = None;
    let mut first: Option<(usize, TaskId)> = None;
    for &(slot, running, ran) in candidates {
        if !sched.wake_preempts(woken, running, ran, now) {
            continue;
        }
        if first.is_none() {
            first = Some((slot, running));
        }
        if let Some(alpha) = sched.charged_surplus(running, ran, now) {
            if worst.is_none_or(|(b, _, _)| alpha > b) {
                worst = Some((alpha, slot, running));
            }
        }
    }
    worst.map(|(_, slot, id)| (slot, id)).or(first)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switch_reason_runnability() {
        assert!(SwitchReason::Preempted.still_runnable());
        assert!(SwitchReason::Yielded.still_runnable());
        assert!(!SwitchReason::Blocked.still_runnable());
        assert!(!SwitchReason::Exited.still_runnable());
    }

    #[test]
    fn stats_default_is_zero() {
        let s = SchedStats::default();
        assert_eq!(s.picks, 0);
        assert_eq!(s.readjust_calls, 0);
        assert_eq!(s.full_resorts, 0);
    }
}
