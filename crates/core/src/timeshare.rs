//! The Linux 2.2-style time-sharing scheduler, the paper's second
//! baseline (Figs. 6(b), 6(c), 7 and Table 1).
//!
//! Linux 2.2 scheduling in brief: every task has a `priority` (its nice
//! level translated to timer ticks; the default gives about 200 ms) and a
//! `counter` of remaining ticks in the current epoch. The scheduler picks
//! the ready task with the highest *goodness* — essentially
//! `counter + priority` — and a task's counter is consumed as it runs.
//! When every ready task has exhausted its counter the scheduler starts a
//! new epoch, recharging **all** tasks with `counter = counter/2 +
//! priority`. Blocked tasks keep half of their unused budget, which is
//! exactly the implicit I/O-bound boost that gives interactive tasks good
//! response times (and which Fig. 6(c) measures).
//!
//! This reimplementation keeps the essential behaviours the paper's
//! experiments depend on:
//!
//! * equal CPU sharing among compute-bound tasks regardless of weights
//!   (the scheduler is weight-oblivious, which is why the MPEG decoder in
//!   Fig. 6(b) loses bandwidth as compilations pile up);
//! * epoch recharge with counter carry-over for sleepers;
//! * wakeup preemption when the woken task's goodness exceeds the
//!   running task's remaining goodness (Linux's `reschedule_idle`);
//! * an O(t) scan of the ready list at every decision, like the original
//!   `schedule()` loop.

use crate::sched::{SchedStats, Scheduler, SwitchReason};
use crate::task::{CpuId, TaskId, TaskState, Weight};
use crate::taskmap::TaskMap;
use crate::time::{Duration, Time};

/// One timer tick; Linux 2.2 on x86 used 10 ms.
pub const TICK: Duration = Duration::from_millis(10);

/// Default priority in ticks: a 200 ms maximum quantum, matching both
/// Linux 2.2's default and the paper's test-bed quantum.
pub const DEFAULT_PRIORITY: i64 = 20;

/// Tuning knobs for [`TimeSharing`].
#[derive(Debug, Clone)]
pub struct TimeSharingConfig {
    /// Ticks granted per epoch to every task (the `priority` field).
    pub priority_ticks: i64,
}

impl Default for TimeSharingConfig {
    fn default() -> TimeSharingConfig {
        TimeSharingConfig {
            priority_ticks: DEFAULT_PRIORITY,
        }
    }
}

#[derive(Debug, Clone)]
struct TsTask {
    weight: Weight,
    counter: i64,
    state: TaskState,
    /// Sub-tick remainder of consumed CPU time, in nanoseconds.
    partial_ns: u64,
    service: Duration,
}

/// The epoch/goodness time-sharing scheduler.
pub struct TimeSharing {
    cfg: TimeSharingConfig,
    cpus: u32,
    tasks: TaskMap<TsTask>,
    stats: SchedStats,
}

impl TimeSharing {
    /// Creates the scheduler with default (Linux 2.2) parameters.
    pub fn new(cpus: u32) -> TimeSharing {
        TimeSharing::with_config(cpus, TimeSharingConfig::default())
    }

    /// Creates the scheduler with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is zero or `priority_ticks` is not positive.
    pub fn with_config(cpus: u32, cfg: TimeSharingConfig) -> TimeSharing {
        assert!(cpus > 0, "need at least one processor");
        assert!(cfg.priority_ticks > 0, "priority must be positive");
        TimeSharing {
            cfg,
            cpus,
            tasks: TaskMap::new(),
            stats: SchedStats::default(),
        }
    }

    /// Linux 2.2 `goodness()`: 0 for an exhausted counter, otherwise
    /// `counter + priority`.
    fn goodness(&self, t: &TsTask) -> i64 {
        if t.counter <= 0 {
            0
        } else {
            t.counter + self.cfg.priority_ticks
        }
    }

    /// Starts a new epoch: `counter = counter/2 + priority` for every
    /// task in the system (blocked tasks accumulate up to 2×priority).
    fn recharge(&mut self) {
        for t in self.tasks.values_mut() {
            t.counter = t.counter / 2 + self.cfg.priority_ticks;
        }
        // Reuse the resort counter to record epochs for the stats report.
        self.stats.full_resorts += 1;
    }

    fn charge(&mut self, id: TaskId, ran: Duration) {
        let t = self.tasks.get_mut(&id).unwrap();
        t.service += ran;
        let total_ns = t.partial_ns + ran.as_nanos();
        let ticks = (total_ns / TICK.as_nanos()) as i64;
        t.partial_ns = total_ns % TICK.as_nanos();
        t.counter -= ticks;
        if t.counter < 0 {
            t.counter = 0;
        }
    }

    /// The remaining epoch budget of a task, for tests.
    pub fn counter_of(&self, id: TaskId) -> Option<i64> {
        self.tasks.get(&id).map(|t| t.counter)
    }

    fn best_ready(&self) -> Option<(TaskId, i64)> {
        // O(t) goodness scan, ties broken by lowest id for determinism.
        self.tasks
            .iter()
            .filter(|(_, t)| matches!(t.state, TaskState::Ready))
            .map(|(id, t)| (id, self.goodness(t)))
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
    }
}

impl Scheduler for TimeSharing {
    fn name(&self) -> &'static str {
        "TimeSharing"
    }

    fn cpus(&self) -> u32 {
        self.cpus
    }

    fn attach(&mut self, id: TaskId, w: Weight, _now: Time) {
        let prev = self.tasks.insert(
            id,
            TsTask {
                weight: w,
                counter: self.cfg.priority_ticks,
                state: TaskState::Ready,
                partial_ns: 0,
                service: Duration::ZERO,
            },
        );
        assert!(prev.is_none(), "task {id} attached twice");
    }

    fn detach(&mut self, id: TaskId, _now: Time) {
        let t = self.tasks.remove(&id).expect("detaching unknown task");
        assert!(!t.state.is_running(), "detach of running task {id}");
    }

    fn set_weight(&mut self, id: TaskId, w: Weight, _now: Time) {
        // Weights exist only for API parity; time sharing ignores them.
        self.tasks.get_mut(&id).expect("unknown task").weight = w;
    }

    fn weight_of(&self, id: TaskId) -> Option<Weight> {
        self.tasks.get(&id).map(|t| t.weight)
    }

    fn wake(&mut self, id: TaskId, _now: Time) {
        let t = self.tasks.get_mut(&id).expect("waking unknown task");
        assert!(matches!(t.state, TaskState::Blocked));
        t.state = TaskState::Ready;
    }

    fn pick_next(&mut self, cpu: CpuId, _now: Time) -> Option<TaskId> {
        let mut best = self.best_ready()?;
        if best.1 == 0 {
            // Every ready task has exhausted its quantum: new epoch.
            self.recharge();
            best = self.best_ready()?;
        }
        let t = self.tasks.get_mut(&best.0).unwrap();
        t.state = TaskState::Running(cpu);
        self.stats.picks += 1;
        Some(best.0)
    }

    fn put_prev(&mut self, id: TaskId, ran: Duration, reason: SwitchReason, _now: Time) {
        assert!(
            self.tasks[&id].state.is_running(),
            "put_prev of non-running task {id}"
        );
        self.charge(id, ran);
        let t = self.tasks.get_mut(&id).unwrap();
        match reason {
            SwitchReason::Preempted | SwitchReason::Yielded => t.state = TaskState::Ready,
            SwitchReason::Blocked => t.state = TaskState::Blocked,
            SwitchReason::Exited => {
                self.tasks.remove(&id);
            }
        }
    }

    fn time_slice(&self, id: TaskId) -> Duration {
        // The task runs until its counter is exhausted.
        let ticks = self.tasks.get(&id).map(|t| t.counter.max(1)).unwrap_or(1);
        TICK * ticks as u64
    }

    fn wake_preempts(
        &self,
        woken: TaskId,
        running: TaskId,
        ran_so_far: Duration,
        _now: Time,
    ) -> bool {
        let (Some(w), Some(r)) = (self.tasks.get(&woken), self.tasks.get(&running)) else {
            return false;
        };
        if !matches!(w.state, TaskState::Ready) || !r.state.is_running() {
            return false;
        }
        // Charge the running task its in-flight ticks before comparing.
        let spent = ((r.partial_ns + ran_so_far.as_nanos()) / TICK.as_nanos()) as i64;
        let mut charged = r.clone();
        charged.counter = (charged.counter - spent).max(0);
        self.goodness(w) > self.goodness(&charged)
    }

    fn nr_runnable(&self) -> usize {
        self.tasks
            .values()
            .filter(|t| t.state.is_runnable())
            .count()
    }

    fn nr_tasks(&self) -> usize {
        self.tasks.len()
    }

    fn stats(&self) -> SchedStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{assert_close, MiniSim};

    #[test]
    fn equal_sharing_regardless_of_weights() {
        // The baseline is weight-oblivious: 1:10 still shares equally.
        let mut sim = MiniSim::new(TimeSharing::new(1));
        sim.quantum = TICK;
        sim.spawn(1, 1);
        sim.spawn(2, 10);
        sim.run_quanta(2000);
        assert_close(sim.ratio(2, 1), 1.0, 0.02, "weight-oblivious");
    }

    #[test]
    fn counter_depletes_and_epoch_recharges() {
        let mut s = TimeSharing::new(1);
        s.attach(TaskId(1), Weight::DEFAULT, Time::ZERO);
        let id = s.pick_next(CpuId(0), Time::ZERO).unwrap();
        assert_eq!(s.counter_of(id), Some(DEFAULT_PRIORITY));
        // Consume 5 ticks.
        s.put_prev(id, TICK * 5, SwitchReason::Preempted, Time::ZERO);
        assert_eq!(s.counter_of(id), Some(DEFAULT_PRIORITY - 5));
        // Exhaust; next pick recharges: counter/2 + priority.
        let next = s.pick_next(CpuId(0), Time::ZERO).unwrap();
        s.put_prev(next, TICK * 100, SwitchReason::Preempted, Time::ZERO);
        assert_eq!(s.counter_of(id), Some(0));
        let again = s.pick_next(CpuId(0), Time::ZERO).unwrap();
        assert_eq!(again, id);
        assert_eq!(s.counter_of(id), Some(DEFAULT_PRIORITY));
    }

    #[test]
    fn sleeper_accumulates_goodness_boost() {
        let mut s = TimeSharing::new(1);
        s.attach(TaskId(1), Weight::DEFAULT, Time::ZERO);
        s.attach(TaskId(2), Weight::DEFAULT, Time::ZERO);
        // T1 runs and blocks immediately with most budget intact.
        let first = s.pick_next(CpuId(0), Time::ZERO).unwrap();
        s.put_prev(first, TICK, SwitchReason::Blocked, Time::ZERO);
        // The other task burns several epochs.
        for _ in 0..6 {
            let id = s.pick_next(CpuId(0), Time::ZERO).unwrap();
            s.put_prev(id, TICK * 50, SwitchReason::Preempted, Time::ZERO);
        }
        // The sleeper's counter grew beyond one priority quantum.
        assert!(
            s.counter_of(first).unwrap() > DEFAULT_PRIORITY,
            "sleeper counter: {:?}",
            s.counter_of(first)
        );
        // On wake it preempts the CPU-bound task.
        let running = s.pick_next(CpuId(0), Time::ZERO).unwrap();
        s.wake(first, Time::ZERO);
        assert!(s.wake_preempts(first, running, TICK, Time::ZERO));
    }

    #[test]
    fn time_slice_tracks_counter() {
        let mut s = TimeSharing::new(1);
        s.attach(TaskId(1), Weight::DEFAULT, Time::ZERO);
        assert_eq!(s.time_slice(TaskId(1)), Duration::from_millis(200));
        let id = s.pick_next(CpuId(0), Time::ZERO).unwrap();
        s.put_prev(id, TICK * 15, SwitchReason::Preempted, Time::ZERO);
        assert_eq!(s.time_slice(id), Duration::from_millis(50));
    }

    #[test]
    fn two_cpus_share_among_three_tasks() {
        let mut sim = MiniSim::new(TimeSharing::new(2));
        sim.quantum = TICK;
        sim.spawn(1, 1);
        sim.spawn(2, 1);
        sim.spawn(3, 1);
        sim.run_quanta(3000);
        assert_close(sim.ratio(1, 2), 1.0, 0.05, "equal shares");
        assert_close(sim.ratio(2, 3), 1.0, 0.05, "equal shares");
    }

    #[test]
    fn partial_tick_accounting_accumulates() {
        let mut s = TimeSharing::new(1);
        s.attach(TaskId(1), Weight::DEFAULT, Time::ZERO);
        // 4 × 2.5 ms = 1 tick.
        for _ in 0..4 {
            let id = s.pick_next(CpuId(0), Time::ZERO).unwrap();
            s.put_prev(
                id,
                Duration::from_micros(2_500),
                SwitchReason::Preempted,
                Time::ZERO,
            );
        }
        assert_eq!(s.counter_of(TaskId(1)), Some(DEFAULT_PRIORITY - 1));
    }

    #[test]
    fn exited_task_disappears() {
        let mut s = TimeSharing::new(1);
        s.attach(TaskId(1), Weight::DEFAULT, Time::ZERO);
        let id = s.pick_next(CpuId(0), Time::ZERO).unwrap();
        s.put_prev(id, TICK, SwitchReason::Exited, Time::ZERO);
        assert_eq!(s.nr_tasks(), 0);
        assert_eq!(s.pick_next(CpuId(0), Time::ZERO), None);
    }
}
