//! Surplus fair scheduling (§2.3, §3).
//!
//! SFS approximates generalized multiprocessor sharing (GMS) with finite
//! quanta. Each thread carries a start tag `S_i` and finish tag `F_i`;
//! the system virtual time `v` is the minimum start tag over runnable
//! threads; and each scheduling decision picks the ready thread with the
//! least *surplus*
//!
//! ```text
//! α_i = φ_i · (S_i − v)
//! ```
//!
//! where `φ_i` is the instantaneous weight produced by the readjustment
//! algorithm (§2.1). `α_i` estimates how much more service thread `i`
//! has received than it would have under GMS; always scheduling the
//! least-surplus threads keeps every thread's deviation from the fluid
//! ideal as small as possible.
//!
//! Properties reproduced from the paper:
//!
//! * **Work conserving** — a processor never idles while a thread is
//!   ready.
//! * **Variable quanta** — the quantum length is not needed at dispatch
//!   time; accounting uses the actual usage reported at requeue.
//! * **No sleeper credit** — a waking thread's start tag is floored at
//!   the virtual time, so sleeping never accumulates credit (§2.3).
//! * **Uniprocessor degeneration** — on one CPU the minimum-surplus
//!   thread is exactly the minimum-start-tag thread, so SFS reduces to
//!   SFQ (§2.3); a unit test asserts decision-for-decision equality.
//!
//! # Run-queue structure
//!
//! The paper's kernel port (§3.1) keeps a surplus-sorted queue and
//! re-sorts it whenever the virtual time advances. Since `v` is the
//! minimum start tag, and the minimum-start-tag thread is usually the
//! one that just finished its quantum, `v` advances on essentially every
//! decision — so that design degenerates to an O(n) re-sort per pick.
//! This implementation instead uses the per-weight-class
//! [`BucketQueue`](crate::buckets): within one adjusted weight `φ`,
//! surplus order equals start-tag order *for every* `v`, so a
//! virtual-time advance reorders nothing and the exact minimum-surplus
//! pick is a comparison across the O(#distinct-φ) bucket heads. The
//! bucket queue also subsumes the start-tag queue #2 of §3.1: the only
//! thing the scheduler ever read from it was its head (the virtual
//! time), which is the minimum over bucket heads — while maintaining it
//! cost an O(displacement) sorted reinsertion on every requeue. The
//! weight-descending readjustment queue #1 of §3.1 is gone too: the
//! [`FeasibleWeights`] count map keeps one id set per distinct weight,
//! so arrivals, wakeups and reweights cost O(p + log C) instead of an
//! O(position) sorted scan. The decision sequence is identical to the
//! resort-based implementation — a differential test drives both in
//! lockstep — only the per-decision cost changes
//! (O(#weight-classes + p) instead of O(n)). The fixed-point tags are
//! retained. The virtual time and the §2.3 rules that read it — entry
//! at `S = max(F, v)`, the freeze at the last finish tag, the
//! minimum-surplus pick — live in the bucket queue as well, the one
//! surplus core that [`HierSfs`](crate::hier::HierSfs) applies to tenant
//! groups.
//!
//! **Deviation:** the bounded-lookahead heuristic of §3.2 is not
//! implemented. It exists to avoid the O(n) re-sort above; the exact
//! O(#weight-classes + p) pick subsumes it — its surplus-order
//! candidates *are* the exact order, so it could only miss while the
//! first `k` entries were running. Figure 3 is reproduced instead as
//! the counted cost of the exact pick (`bucket_scans / picks`) at 100 to
//! 400 threads.
//!
//! # Per-task state
//!
//! The kernel reaches a thread's tags through its task struct; here an
//! event names a [`TaskId`] and the scheduler resolves it in a
//! [`TaskMap`] — two indexed loads, no hashing. A `put_prev` requeue
//! resolves the id **once** and works through that one `&mut` entry: it
//! touches the task table once and the bucket index once (the
//! tag-ordered set costs its O(log n) on top); `detach`, and a
//! `put_prev` that blocks or exits, add the removal. `attach` checks the
//! slot and fills it. `wake` probes the task table twice: once to mark
//! the task ready before the readjustment and once to link it at its
//! final `φ` after it. A readjustment that moves `φ` costs one more
//! lookup per migrated task — at most `p − 1` of them. The pick's
//! readiness test reads one entry per queue head examined.
//!
//! Every attach and every wake, of one task or of a batch, takes one
//! path: [`Sfs::attach_batch`] and [`Sfs::wake_batch`], with one
//! readjustment per call.

use std::sync::Arc;

use crate::buckets::BucketQueue;
use crate::feasible::FeasibleWeights;
use crate::fixed::{Fixed, SCALE};
use crate::sched::{SchedStats, Scheduler, SwitchReason};
use crate::shard::{PhiSnapshot, SnapshotCell};
use crate::task::{CpuId, TagTask, TaskId, TaskState, TenantId, Weight};
use crate::taskmap::TaskMap;
use crate::time::{Duration, Time};

/// A CPU-time duration on the fixed-point surplus scale.
fn duration_fx(d: Duration) -> Fixed {
    Fixed::from_raw(d.as_nanos() as i128 * SCALE)
}

/// Minimum surplus advantage (in CPU time) a wakeup needs before it
/// preempts a running thread, to avoid thrashing.
const PREEMPT_MARGIN: Duration = Duration::from_micros(100);

/// Tuning knobs for [`Sfs`].
#[derive(Debug, Clone)]
pub struct SfsConfig {
    /// Maximum quantum granted per dispatch (paper test-bed: 200 ms).
    pub quantum: Duration,
    /// Globally published feasibility snapshot to honour in addition to
    /// the local readjustment, when this instance runs as one shard of
    /// a [`ShardedScheduler`](crate::shard::ShardedScheduler). The pick
    /// path re-checks it with a single lock-free epoch load.
    pub phi_snapshot: Option<Arc<SnapshotCell>>,
}

impl Default for SfsConfig {
    fn default() -> SfsConfig {
        SfsConfig {
            quantum: Duration::from_millis(200),
            phi_snapshot: None,
        }
    }
}

/// The instantaneous weight used for tags and buckets: the local
/// readjusted `φ`, further capped by the globally published feasible
/// cap when the instance runs as one shard of a sharded scheduler (local
/// and global caps are both upper bounds, so the minimum applies).
///
/// A function of the two fields it reads, not of `&Sfs`, so the event
/// path can call it while holding its one `&mut` task entry.
fn eff_phi(
    feas: &FeasibleWeights,
    gsnap: &Option<Arc<PhiSnapshot>>,
    id: TaskId,
    w: Weight,
) -> Fixed {
    let local = feas.phi(id, w);
    match gsnap.as_ref().and_then(|s| s.cap_of(id)) {
        Some(cap) => local.min(cap),
        None => local,
    }
}

/// Queues a (now runnable) task in its weight-class bucket at
/// `S = max(F, v)`, recording its instantaneous weight and start tag.
/// Takes the task and the fields it touches, not `&mut Sfs` and an id,
/// for the same reason as [`eff_phi`].
fn link_runnable(
    feas: &FeasibleWeights,
    gsnap: &Option<Arc<PhiSnapshot>>,
    buckets: &mut BucketQueue,
    task: &mut TagTask,
) {
    task.phi = eff_phi(feas, gsnap, task.id, task.weight);
    task.start_tag = buckets.enter(task.id, task.phi, task.finish_tag);
}

#[derive(Debug)]
struct Entry {
    task: TagTask,
    /// The processor this task last ran on, so that a pick on another
    /// CPU counts a migration.
    last_cpu: Option<CpuId>,
}

/// The surplus fair scheduler.
pub struct Sfs {
    cfg: SfsConfig,
    cpus: u32,
    tasks: TaskMap<Entry>,
    /// Per-weight-class count map + readjustment state (replacing the
    /// weight-descending queue #1 of §3.1).
    feas: FeasibleWeights,
    /// Surplus order, held as one start-tag-ordered bucket per weight
    /// class, and the virtual time. Replaces *both* the start-tag queue
    /// #2 of §3.1 (its head — the virtual time — is the minimum over
    /// bucket heads) and the resort-based surplus queue #3.
    buckets: BucketQueue,
    /// The wake-preemption margin as a [`Fixed`], precomputed once at
    /// construction.
    preempt_margin_fx: Fixed,
    /// Publisher of the global feasibility snapshot, when sharded.
    gcell: Option<Arc<SnapshotCell>>,
    /// The snapshot currently applied to the buckets. `eff_phi` and the
    /// invariant checker read only this, so the queue state is always
    /// internally consistent even while a newer epoch is pending.
    gsnap: Option<Arc<PhiSnapshot>>,
    stats: SchedStats,
}

impl Sfs {
    /// Creates an exact SFS instance with default configuration.
    pub fn new(cpus: u32) -> Sfs {
        Sfs::with_config(cpus, SfsConfig::default())
    }

    /// Creates an SFS instance with explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is zero.
    pub fn with_config(cpus: u32, cfg: SfsConfig) -> Sfs {
        assert!(cpus > 0, "need at least one processor");
        let preempt_margin_fx = duration_fx(PREEMPT_MARGIN);
        let gcell = cfg.phi_snapshot.clone();
        let gsnap = gcell.as_ref().map(|c| c.load());
        Sfs {
            cfg,
            cpus,
            tasks: TaskMap::new(),
            feas: FeasibleWeights::new(cpus, true),
            buckets: BucketQueue::new(),
            preempt_margin_fx,
            gcell,
            gsnap,
            stats: SchedStats::default(),
        }
    }

    /// Pulls a newer globally published feasibility snapshot, if one
    /// exists, and migrates the affected runnable tasks to their new
    /// weight-class buckets. The fast path is a single atomic epoch
    /// load (lock-free); only an actual republication pays the copy
    /// plus O(p) bucket migrations. Called on every mutation entry
    /// point so the applied snapshot never lags an event.
    fn refresh_snapshot(&mut self) {
        let Some(cell) = &self.gcell else { return };
        let seen = self.gsnap.as_ref().map_or(0, |s| s.epoch);
        let Some(new) = cell.load_if_newer(seen) else {
            return;
        };
        let old = self.gsnap.replace(new);
        let new = self.gsnap.as_ref().expect("just stored");
        // Tasks in either epoch's clamp set may have a changed
        // effective φ; ids belonging to other shards are skipped.
        let clamp_sets = old.iter().chain([new]).map(|s| &s.clamped);
        let mut affected: Vec<TaskId> = clamp_sets.flatten().copied().collect();
        affected.sort_unstable();
        affected.dedup();
        for id in affected {
            self.refresh_phi(id);
        }
    }

    /// Re-derives one task's effective `φ` and, if it moved, records it
    /// and migrates the task to its new weight-class bucket. Ids this
    /// instance does not hold, and blocked tasks, are skipped.
    fn refresh_phi(&mut self, id: TaskId) {
        let Some(e) = self.tasks.get_mut(&id) else {
            return;
        };
        if !e.task.state.is_runnable() {
            return;
        }
        let phi = eff_phi(&self.feas, &self.gsnap, id, e.task.weight);
        if e.task.phi != phi {
            e.task.phi = phi;
            if self.buckets.set_phi(id, phi) {
                self.stats.bucket_migrations += 1;
            }
        }
    }

    /// Migrates the tasks whose `φ` the last readjustment changed to
    /// their new weight-class buckets. Readjustment clamps at most
    /// `p − 1` threads, so this touches O(p) tasks — never the whole
    /// runnable set.
    fn apply_phi_changes(&mut self) {
        // By index: `refresh_phi` needs `&mut self`, and leaves the
        // change set alone.
        for i in 0..self.feas.changed().len() {
            self.refresh_phi(self.feas.changed()[i]);
        }
    }

    /// Immutable view of a task's tag state, for tests and tracing.
    pub fn tags_of(&self, id: TaskId) -> Option<&TagTask> {
        self.tasks.get(&id).map(|e| &e.task)
    }

    /// Asserts the §2.3 structural invariants; test helper.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let Sfs { buckets, tasks, .. } = self;
        // Every queued thread is runnable and sits at its own start tag
        // and recorded φ, no lower than the virtual time (§2.3)...
        buckets.check_invariants(|id| {
            let task = &tasks[&id].task;
            assert!(task.state.is_runnable(), "blocked task {id} queued");
            (task.start_tag, task.phi)
        });
        let runnable = tasks.values().filter(|e| e.task.state.is_runnable());
        assert_eq!(runnable.count(), buckets.len(), "buckets track runnable");
        assert_eq!(buckets.len(), self.feas.len(), "weight_q tracks runnable");
        // ...and that φ is always the readjusted weight.
        for (id, e) in tasks.iter() {
            if e.task.state.is_runnable() {
                let phi = eff_phi(&self.feas, &self.gsnap, id, e.task.weight);
                assert_eq!(e.task.phi, phi, "stale φ recorded for {id}");
            }
        }
    }
}

impl Scheduler for Sfs {
    fn name(&self) -> &'static str {
        "SFS"
    }

    fn cpus(&self) -> u32 {
        self.cpus
    }

    fn attach(&mut self, id: TaskId, w: Weight, now: Time) {
        self.attach_batch(&[(id, w, None)], now);
    }

    /// Every attach, of one task or many: the whole batch enters the
    /// weight classes first and one readjustment follows, so each new
    /// task is linked at its final `φ`, and `apply_phi_changes` then only
    /// migrates previously-runnable tasks whose clamp state moved.
    /// Event-equivalent to one attach per task: every arrival takes
    /// `S_i = v` and inserting at the queue-minimum start tag leaves `v`
    /// itself unchanged, so all tags match the sequential ones; the
    /// final clamp set is a pure function of the resulting weight
    /// classes; and [`FeasibleWeights::insert_many`] reports `φ` changes
    /// against the pre-batch clamp state, so every previously-runnable
    /// task converges to the `φ` the sequential path would leave it with.
    fn attach_batch(&mut self, batch: &[(TaskId, Weight, Option<TenantId>)], _now: Time) {
        self.refresh_snapshot();
        self.stats.events += batch.len() as u64;
        let tasks = &self.tasks;
        self.feas.insert_many(batch.iter().map(|&(id, w, _)| {
            assert!(!tasks.contains_key(&id), "task {id} attached twice");
            (id, w)
        }));
        for &(id, w, _) in batch {
            // "When a new thread arrives, its start tag is initialized
            // as S_i = v" (§2.3): it enters with no finish tag of its own.
            let mut task = TagTask::new(id, w, Fixed::ZERO);
            link_runnable(&self.feas, &self.gsnap, &mut self.buckets, &mut task);
            task.finish_tag = task.start_tag;
            let last_cpu = None;
            self.tasks.insert(id, Entry { task, last_cpu });
        }
        self.apply_phi_changes();
    }

    fn detach(&mut self, id: TaskId, _now: Time) {
        self.refresh_snapshot();
        self.stats.events += 1;
        let Entry { task, .. } = self.tasks.remove(&id).expect("detach of unknown task");
        assert!(
            !task.state.is_running(),
            "detach of running task {id}; use put_prev(Exited)"
        );
        // Unlike a block or exit, a detach leaves `v` where it is.
        if task.state.is_runnable() {
            self.buckets.remove(id);
            self.feas.remove(id, task.weight);
            self.apply_phi_changes();
        }
    }

    fn set_weight(&mut self, id: TaskId, w: Weight, _now: Time) {
        let old = self.tasks[&id].task.weight;
        if old == w {
            return;
        }
        self.refresh_snapshot();
        self.stats.events += 1;
        let task = &mut self.tasks.get_mut(&id).expect("just read").task;
        task.weight = w;
        if !task.state.is_runnable() {
            // A blocked task is outside the runnable set, so no clamp
            // applies: its instantaneous weight is its raw weight. The
            // resort-based implementation left the pre-reweight φ here
            // until the task next ran, so `adjusted_weight_of` lied
            // about blocked tasks after a `set_weight`.
            task.phi = w.as_fixed();
            return;
        }
        self.feas.set_weight(id, old, w);
        self.refresh_phi(id);
        self.apply_phi_changes();
    }

    fn weight_of(&self, id: TaskId) -> Option<Weight> {
        self.tasks.get(&id).map(|e| e.task.weight)
    }

    /// For runnable tasks this is the live readjusted weight; for
    /// blocked tasks it is the raw weight (no clamp applies outside the
    /// runnable set), kept fresh across `set_weight` while blocked.
    fn adjusted_weight_of(&self, id: TaskId) -> Option<Fixed> {
        self.tasks.get(&id).map(|e| e.task.phi)
    }

    fn wake(&mut self, id: TaskId, now: Time) {
        self.wake_batch(&[id], now);
    }

    /// Every wake, of one task or many, in the shape of
    /// [`Sfs::attach_batch`]: the batch enters the weight classes, one
    /// readjustment runs, and each task is then linked at its final `φ`.
    /// Event-equivalent to one wake per task: each link reads the
    /// virtual time at its own position in the slice, so the
    /// `S_i = max(F_i, v)` tags are bit-identical to sequential
    /// application — earlier wakes in the batch can only move `v` by
    /// filling an empty queue, which the per-item read observes — and
    /// the readjustment leaves the same final `φ` state.
    fn wake_batch(&mut self, ids: &[TaskId], _now: Time) {
        self.refresh_snapshot();
        self.stats.events += ids.len() as u64;
        // Each task is marked ready as it enters the weight classes.
        let tasks = &mut self.tasks;
        self.feas.insert_many(ids.iter().map(|&id| {
            let task = &mut tasks.get_mut(&id).expect("waking unknown task").task;
            assert!(
                matches!(task.state, TaskState::Blocked),
                "waking non-blocked task {id}"
            );
            task.state = TaskState::Ready;
            (id, task.weight)
        }));
        for &id in ids {
            // "S_i = max(F_i, v) if the thread just woke up" (§2.3):
            // sleeping must not accumulate credit.
            let task = &mut self.tasks.get_mut(&id).expect("woken above").task;
            link_runnable(&self.feas, &self.gsnap, &mut self.buckets, task);
        }
        self.apply_phi_changes();
    }

    fn pick_next(&mut self, cpu: CpuId, _now: Time) -> Option<TaskId> {
        self.refresh_snapshot();
        // The exact pick: least surplus among ready threads, ties broken
        // by (surplus, start tag, id), after examining
        // O(#weight-classes + #running) queue entries, not O(n).
        let tasks = &self.tasks;
        let picked = self.buckets.pick(&mut self.stats, |id| {
            matches!(tasks[&id].task.state, TaskState::Ready)
        })?;

        let e = self.tasks.get_mut(&picked).expect("picked a queued task");
        if matches!(e.last_cpu, Some(prev) if prev != cpu) {
            self.stats.migrations += 1;
        }
        e.task.state = TaskState::Running(cpu);
        self.stats.picks += 1;
        Some(picked)
    }

    fn put_prev(&mut self, id: TaskId, ran: Duration, reason: SwitchReason, _now: Time) {
        self.refresh_snapshot();
        self.stats.events += 1;
        let e = self.tasks.get_mut(&id).expect("put_prev of unknown task");
        let TaskState::Running(cpu) = e.task.state else {
            panic!("put_prev of non-running task {id}");
        };
        e.last_cpu = Some(cpu);
        let task = &mut e.task;
        let w = task.weight;
        // "φ_i is its instantaneous weight at the end of the quantum"
        // (§2.3): the stored one, kept current by every readjustment.
        let phi = task.phi;
        debug_assert_eq!(
            phi,
            eff_phi(&self.feas, &self.gsnap, id, w),
            "running task's stored φ out of sync"
        );
        // F_i = S_i + q / φ_i (Eq. 5), with the *actual* usage q.
        let finish_tag = task.start_tag + phi.div_into_int(ran.as_nanos());
        task.finish_tag = finish_tag;

        match reason {
            SwitchReason::Preempted | SwitchReason::Yielded => {
                // "S_i = F_i if the thread is continuously runnable".
                task.start_tag = finish_tag;
                task.state = TaskState::Ready;
                // The only queue work a quantum end needs: repositioning
                // this one task inside its own bucket.
                self.buckets.update_start(id, finish_tag);
            }
            SwitchReason::Blocked | SwitchReason::Exited => {
                if reason == SwitchReason::Blocked {
                    task.state = TaskState::Blocked;
                } else {
                    self.tasks.remove(&id);
                }
                // If no thread is left runnable, v freezes at the finish
                // tag of the thread that ran last (§2.3).
                self.buckets.leave(id, finish_tag);
                self.feas.remove(id, w);
                self.apply_phi_changes();
            }
        }
    }

    fn time_slice(&self, _id: TaskId) -> Duration {
        self.cfg.quantum
    }

    fn wake_preempts(
        &self,
        woken: TaskId,
        running: TaskId,
        ran_so_far: Duration,
        _now: Time,
    ) -> bool {
        let (Some(we), Some(re)) = (self.tasks.get(&woken), self.tasks.get(&running)) else {
            return false;
        };
        if !matches!(we.task.state, TaskState::Ready) || !re.task.state.is_running() {
            return false;
        }
        let woken_alpha = self.buckets.surplus(we.task.phi, we.task.start_tag);
        // Charge the running thread its in-flight CPU time:
        // φ · (S + q/φ − v) = φ·(S − v) + q.
        let running_alpha =
            self.buckets.surplus(re.task.phi, re.task.start_tag) + duration_fx(ran_so_far);
        woken_alpha + self.preempt_margin_fx < running_alpha
    }

    fn steal_candidate(&self) -> Option<TaskId> {
        let v = self.buckets.virtual_time();
        self.buckets
            .max_surplus(v, |id| {
                matches!(self.tasks[&id].task.state, TaskState::Ready)
            })
            .map(|(_, _, id)| id)
    }

    fn charged_surplus(&self, id: TaskId, ran_so_far: Duration, _now: Time) -> Option<Fixed> {
        let e = self.tasks.get(&id)?;
        if !e.task.state.is_runnable() {
            return None;
        }
        Some(self.buckets.surplus(e.task.phi, e.task.start_tag) + duration_fx(ran_so_far))
    }

    fn nr_runnable(&self) -> usize {
        self.buckets.len()
    }

    fn nr_tasks(&self) -> usize {
        self.tasks.len()
    }

    fn stats(&self) -> SchedStats {
        let mut s = self.stats;
        s.readjust_calls = self.feas.calls;
        s.weights_clamped = self.feas.clamps;
        s.weight_classes = self.buckets.num_buckets() as u64;
        s.event_steps = self.buckets.steps() + self.feas.event_steps();
        s
    }

    fn virtual_time(&self) -> Option<Fixed> {
        Some(self.buckets.virtual_time())
    }

    fn check_invariants(&self) {
        Sfs::check_invariants(self);
    }
}

#[cfg(test)]
mod tests {

    use super::*;
    use crate::testkit::{assert_close, MiniSim};

    #[test]
    fn single_task_runs_forever() {
        let mut sim = MiniSim::new(Sfs::new(1));
        sim.spawn(1, 1);
        sim.run_quanta(10);
        assert_eq!(sim.service(1), Duration::from_millis(10));
        sim.sched.check_invariants();
    }

    #[test]
    fn uniprocessor_proportional_shares() {
        let mut sim = MiniSim::new(Sfs::new(1));
        sim.spawn(1, 1);
        sim.spawn(2, 2);
        sim.run_quanta(3000);
        assert_close(sim.ratio(2, 1), 2.0, 0.01, "2:1 weights");
        sim.sched.check_invariants();
    }

    #[test]
    fn dual_processor_feasible_three_way() {
        // Weights 2:1:1 on two CPUs are feasible: shares 1/2, 1/4, 1/4.
        let mut sim = MiniSim::new(Sfs::new(2));
        sim.spawn(1, 2);
        sim.spawn(2, 1);
        sim.spawn(3, 1);
        sim.run_quanta(4000);
        assert_close(sim.ratio(1, 2), 2.0, 0.02, "2:1");
        assert_close(sim.ratio(1, 3), 2.0, 0.02, "2:1");
        sim.sched.check_invariants();
    }

    #[test]
    fn infeasible_weights_are_clamped_to_half() {
        // Example 1 with SFS: 1:10 on two CPUs. Readjustment clamps the
        // heavy thread so both continuously occupy one CPU each.
        let mut sim = MiniSim::new(Sfs::new(2));
        sim.spawn(1, 1);
        sim.spawn(2, 10);
        sim.run_quanta(1000);
        assert_close(sim.ratio(2, 1), 1.0, 0.01, "clamped to 1:1");
    }

    #[test]
    fn no_starvation_after_late_arrival() {
        // Example 1: the late-arriving weight-1 thread must share the
        // first CPU with thread 1 instead of starving it.
        let mut sim = MiniSim::new(Sfs::new(2));
        sim.spawn(1, 1);
        sim.spawn(2, 10);
        sim.run_quanta(1000);
        let before = sim.service(1);
        sim.spawn(3, 1);
        sim.run_quanta(100);
        let gained = sim.service(1) - before;
        // Thread 1 keeps receiving service immediately (≈ half a CPU
        // since thread 2 holds the other: 1:2:1 readjusted shares are
        // 1/4 : 1/2 : 1/4 of 2 CPUs ⇒ T1 gets ~50 of 100 quanta... at
        // least a third by any fair accounting).
        assert!(
            gained >= Duration::from_millis(25),
            "thread 1 starved: gained only {gained}"
        );
        sim.sched.check_invariants();
    }

    #[test]
    fn short_jobs_cannot_monopolize() {
        // Miniature Example 2: heavy thread + many light threads + a
        // stream of short medium-weight jobs. Under SFS the short jobs
        // must not get more than their proportional share over time.
        let mut sim = MiniSim::new(Sfs::new(2));
        sim.spawn(1, 20);
        for i in 2..22 {
            sim.spawn(i, 1);
        }
        let mut short_service = Duration::ZERO;
        for next_id in 100..140 {
            sim.spawn(next_id, 5);
            sim.run_quanta(30);
            short_service += sim.service(next_id);
            sim.kill(next_id);
        }
        let t1 = sim.service(1).as_nanos() as f64;
        let shorts = short_service.as_nanos() as f64;
        // Weights 20 : 20×1 : 5 ⇒ T1 and the short stream should be 4:1.
        let ratio = t1 / shorts;
        assert!(
            (2.5..6.0).contains(&ratio),
            "T1:shorts service ratio {ratio:.2}, want ≈4"
        );
    }

    #[test]
    fn sleeper_gains_no_credit() {
        let mut sim = MiniSim::new(Sfs::new(1));
        sim.spawn(1, 1);
        sim.spawn(2, 1);
        sim.run_quanta(10);
        // Block T2 for a long stretch; T1 runs alone.
        sim.block(2, Duration::ZERO);
        sim.run_quanta(1000);
        let t1_before = sim.service(1);
        sim.wake(2);
        sim.run_quanta(100);
        // T2 must NOT monopolise the CPU to "catch up": its start tag was
        // floored at v. Both should get ~half of the last 100 quanta.
        let t1_gain = (sim.service(1) - t1_before).as_millis_f64();
        assert_close(t1_gain, 50.0, 0.15, "no sleeper credit");
        sim.sched.check_invariants();
    }

    #[test]
    fn reduces_to_sfq_on_uniprocessor() {
        // On one CPU the min-surplus thread is the min-start-tag thread:
        // SFS and SFQ must make identical decisions on identical inputs.
        use crate::sfq::Sfq;
        use crate::tagq::TagConfig;
        let mut sfs = Sfs::with_config(
            1,
            SfsConfig {
                quantum: Duration::from_millis(1),
                ..SfsConfig::default()
            },
        );
        let mut sfq = Sfq::with_config(
            1,
            TagConfig {
                quantum: Duration::from_millis(1),
                readjust: true,
            },
        );
        let weights = [3u64, 1, 7, 2];
        let mut now = Time::ZERO;
        for (i, w) in weights.iter().enumerate() {
            sfs.attach(TaskId(i as u64), Weight::new(*w).unwrap(), now);
            sfq.attach(TaskId(i as u64), Weight::new(*w).unwrap(), now);
        }
        for step in 0..500 {
            let a = sfs.pick_next(CpuId(0), now);
            let b = sfq.pick_next(CpuId(0), now);
            assert_eq!(a, b, "diverged at step {step}");
            let id = a.unwrap();
            now += Duration::from_millis(1);
            sfs.put_prev(id, Duration::from_millis(1), SwitchReason::Preempted, now);
            sfq.put_prev(id, Duration::from_millis(1), SwitchReason::Preempted, now);
        }
    }

    #[test]
    fn work_conserving_under_churn() {
        let mut sim = MiniSim::new(Sfs::new(2));
        sim.spawn(1, 1);
        sim.spawn(2, 8);
        sim.spawn(3, 3);
        for round in 0..50 {
            sim.run_quanta(7);
            if round % 3 == 0 {
                sim.block(1, Duration::from_micros(300));
                sim.run_quanta(2);
                sim.wake(1);
            }
            // With ≥2 runnable tasks both CPUs must be busy.
            sim.fill();
            let busy = sim.running().iter().filter(|c| c.is_some()).count();
            assert_eq!(busy, 2, "idle processor with runnable threads");
        }
        sim.sched.check_invariants();
    }

    #[test]
    fn at_least_one_zero_surplus_thread() {
        // §2.3: at any instant at least one runnable thread has α_i = 0
        // (the one holding the minimum start tag).
        let mut sim = MiniSim::new(Sfs::new(2));
        for i in 0..6 {
            sim.spawn(i, 1 + i % 3);
        }
        sim.run_quanta(100);
        let (sched, now) = (&sim.sched, sim.now);
        let min_alpha = (0..6u64)
            .map(|i| sched.charged_surplus(TaskId(i), Duration::ZERO, now))
            .min()
            .unwrap();
        assert_eq!(min_alpha, Some(Fixed::ZERO));
    }

    #[test]
    fn wake_preemption_favors_low_surplus_sleeper() {
        let mut sched = Sfs::new(1);
        let now = Time::ZERO;
        sched.attach(TaskId(1), Weight::new(1).unwrap(), now);
        sched.attach(TaskId(2), Weight::new(1).unwrap(), now);
        let picked = sched.pick_next(CpuId(0), now).unwrap();
        // Let the running thread consume 50ms, then block the other...
        // (first make T2 the blocked one: whichever wasn't picked runs).
        let other = if picked == TaskId(1) {
            TaskId(2)
        } else {
            TaskId(1)
        };
        // Block `other` while ready is not possible; instead run it briefly.
        // Simpler: wake-preemption query against a long-running thread.
        sched.put_prev(
            picked,
            Duration::from_millis(100),
            SwitchReason::Preempted,
            now,
        );
        let picked2 = sched.pick_next(CpuId(0), now).unwrap();
        assert_eq!(picked2, other, "min start tag runs next");
        // `picked` is ready with surplus 0 relative... give `picked2` lots
        // of charged runtime: a woken thread with zero surplus preempts.
        sched.put_prev(
            picked2,
            Duration::from_millis(100),
            SwitchReason::Preempted,
            now,
        );
        let p3 = sched.pick_next(CpuId(0), now).unwrap();
        let waiter = if p3 == TaskId(1) {
            TaskId(2)
        } else {
            TaskId(1)
        };
        assert!(sched.wake_preempts(waiter, p3, Duration::from_millis(150), now));
        assert!(!sched.wake_preempts(waiter, p3, Duration::ZERO, now));
    }

    #[test]
    fn steal_candidate_is_max_surplus_ready() {
        let mut s = Sfs::with_config(
            2,
            SfsConfig {
                quantum: Duration::from_millis(1),
                ..SfsConfig::default()
            },
        );
        let now = Time::ZERO;
        for i in 1..=3u64 {
            s.attach(TaskId(i), Weight::new(1).unwrap(), now);
        }
        assert_eq!(s.pick_next(CpuId(0), now), Some(TaskId(1)));
        s.put_prev(
            TaskId(1),
            Duration::from_millis(30),
            SwitchReason::Preempted,
            now,
        );
        assert_eq!(s.pick_next(CpuId(0), now), Some(TaskId(2)));
        s.put_prev(
            TaskId(2),
            Duration::from_millis(10),
            SwitchReason::Preempted,
            now,
        );
        // T1 is the most-ahead ready task; running tasks are excluded.
        assert_eq!(s.steal_candidate(), Some(TaskId(1)));
        let p = s.pick_next(CpuId(0), now).unwrap();
        assert_eq!(p, TaskId(3), "least surplus runs");
        assert_eq!(s.steal_candidate(), Some(TaskId(1)));
        // Charged surplus ranks victims: T1 with in-flight time beats
        // its own idle surplus.
        let base = s.charged_surplus(TaskId(1), Duration::ZERO, now).unwrap();
        let charged = s
            .charged_surplus(TaskId(1), Duration::from_millis(5), now)
            .unwrap();
        assert_eq!(charged - base, duration_fx(Duration::from_millis(5)));
        assert_eq!(s.charged_surplus(TaskId(99), Duration::ZERO, now), None);
    }

    #[test]
    fn set_weight_changes_future_shares() {
        let mut sim = MiniSim::new(Sfs::new(1));
        sim.spawn(1, 1);
        sim.spawn(2, 1);
        sim.run_quanta(500);
        let (a0, b0) = (sim.service(1), sim.service(2));
        assert_close(
            a0.as_nanos() as f64 / b0.as_nanos() as f64,
            1.0,
            0.01,
            "equal before",
        );
        sim.sched
            .set_weight(TaskId(2), Weight::new(3).unwrap(), sim.now);
        sim.run_quanta(2000);
        let a_gain = (sim.service(1) - a0).as_nanos() as f64;
        let b_gain = (sim.service(2) - b0).as_nanos() as f64;
        assert_close(b_gain / a_gain, 3.0, 0.05, "3:1 after reweight");
    }

    #[test]
    fn detach_ready_task() {
        let mut sim = MiniSim::new(Sfs::new(1));
        sim.spawn(1, 1);
        sim.spawn(2, 1);
        sim.spawn(3, 1);
        sim.run_quanta(9);
        sim.kill(3);
        assert_eq!(sim.sched.nr_tasks(), 2);
        sim.run_quanta(100);
        sim.sched.check_invariants();
    }

    #[test]
    #[should_panic(expected = "attached twice")]
    fn double_attach_panics() {
        let mut s = Sfs::new(1);
        s.attach(TaskId(1), Weight::DEFAULT, Time::ZERO);
        s.attach(TaskId(1), Weight::DEFAULT, Time::ZERO);
    }

    #[test]
    fn stats_are_populated() {
        let mut sim = MiniSim::new(Sfs::new(2));
        sim.spawn(1, 10);
        sim.spawn(2, 1);
        sim.run_quanta(50);
        let st = sim.sched.stats();
        assert!(st.picks > 0);
        assert!(st.readjust_calls > 0);
        assert!(st.weights_clamped > 0, "1:10 on 2 cpus must clamp");
        assert!(st.vt_changes > 0);
        assert!(st.weight_classes >= 1);
    }

    #[test]
    fn exact_mode_never_resorts() {
        // The old implementation re-sorted the whole surplus queue on
        // nearly every pick (the virtual time advances almost every
        // quantum). The bucket queue must do zero bulk re-sorts while
        // still advancing the virtual time constantly.
        let mut sim = MiniSim::new(Sfs::new(2));
        for i in 0..30 {
            sim.spawn(i, 1 + i % 7);
        }
        sim.run_quanta(300);
        sim.block(3, Duration::ZERO);
        sim.run_quanta(50);
        sim.wake(3);
        sim.sched
            .set_weight(TaskId(5), Weight::new(40).unwrap(), sim.now);
        sim.run_quanta(200);
        let st = sim.sched.stats();
        assert_eq!(st.full_resorts, 0, "bucket queue must never bulk-resort");
        assert_eq!(st.nodes_moved, 0);
        assert!(st.vt_changes > 100, "virtual time should advance freely");
        assert!(st.bucket_scans > 0);
        assert!(
            (1..=8).contains(&st.weight_classes),
            "7 raw weights (+ clamp cap) ⇒ few buckets, got {}",
            st.weight_classes
        );
        sim.sched.check_invariants();
    }

    #[test]
    fn clamp_changes_migrate_between_buckets() {
        // 1:10 on 2 CPUs clamps T2 at φ=1 (same bucket as T1). A third
        // light thread moves the cap to 2: T2 must migrate buckets, and
        // only T2 (the one clamped thread).
        let mut sim = MiniSim::new(Sfs::new(2));
        sim.spawn(1, 1);
        sim.spawn(2, 10);
        sim.run_quanta(10);
        assert_eq!(sim.sched.stats().weight_classes, 1, "both at φ=1");
        let migrations_before = sim.sched.stats().bucket_migrations;
        sim.spawn(3, 1);
        sim.run_quanta(10);
        let st = sim.sched.stats();
        assert!(
            st.bucket_migrations > migrations_before,
            "cap move must migrate the clamped thread"
        );
        assert_eq!(st.weight_classes, 2, "φ=1 bucket and φ=2 bucket");
        assert_eq!(
            sim.sched.adjusted_weight_of(TaskId(2)),
            Some(Fixed::from_int(2))
        );
        sim.sched.check_invariants();
    }

    #[test]
    fn reweighting_blocked_task_updates_phi() {
        // Regression: the old code updated `task.weight` but not the
        // stored `task.phi` on `set_weight`, so `adjusted_weight_of` on
        // a blocked task reported the pre-reweight φ until it next ran.
        let mut sim = MiniSim::new(Sfs::new(2));
        sim.spawn(1, 4);
        sim.spawn(2, 4);
        sim.run_quanta(4);
        sim.block(1, Duration::ZERO);
        sim.sched
            .set_weight(TaskId(1), Weight::new(9).unwrap(), sim.now);
        assert_eq!(
            sim.sched.adjusted_weight_of(TaskId(1)),
            Some(Fixed::from_int(9)),
            "blocked task must report its reweighted φ immediately"
        );
        sim.wake(1);
        sim.run_quanta(10);
        sim.sched.check_invariants();
    }

    #[test]
    fn reweighting_ready_task_moves_its_bucket() {
        let mut sim = MiniSim::new(Sfs::new(1));
        sim.spawn(1, 1);
        sim.spawn(2, 1);
        sim.run_quanta(4);
        assert_eq!(sim.sched.stats().weight_classes, 1);
        let before = sim.sched.stats().bucket_migrations;
        sim.sched
            .set_weight(TaskId(2), Weight::new(5).unwrap(), sim.now);
        let st = sim.sched.stats();
        assert_eq!(st.bucket_migrations, before + 1);
        assert_eq!(st.weight_classes, 2);
        sim.sched.check_invariants();
    }
}
