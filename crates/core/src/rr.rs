//! Weight-oblivious round-robin, the simplest work-conserving baseline.
//!
//! Used by the test suite as a sanity reference (every scheduler should
//! at least match round-robin's work conservation) and by the overhead
//! benchmarks as the lower bound on per-decision cost.

use std::collections::VecDeque;

use crate::sched::{SchedStats, Scheduler, SwitchReason};
use crate::task::{CpuId, TaskId, TaskState, Weight};
use crate::taskmap::TaskMap;
use crate::time::{Duration, Time};

#[derive(Debug, Clone)]
struct RrTask {
    weight: Weight,
    state: TaskState,
}

/// FIFO round-robin over all ready tasks.
pub struct RoundRobin {
    cpus: u32,
    quantum: Duration,
    tasks: TaskMap<RrTask>,
    ready: VecDeque<TaskId>,
    /// Ready plus running tasks, counted as they change state: the
    /// substrates read `nr_runnable` per arrival and under shard locks.
    runnable: usize,
    stats: SchedStats,
}

impl RoundRobin {
    /// Creates a round-robin scheduler with the given quantum.
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is zero.
    pub fn new(cpus: u32, quantum: Duration) -> RoundRobin {
        assert!(cpus > 0, "need at least one processor");
        RoundRobin {
            cpus,
            quantum,
            tasks: TaskMap::new(),
            ready: VecDeque::new(),
            runnable: 0,
            stats: SchedStats::default(),
        }
    }
}

impl Scheduler for RoundRobin {
    fn name(&self) -> &'static str {
        "RoundRobin"
    }

    fn cpus(&self) -> u32 {
        self.cpus
    }

    fn attach(&mut self, id: TaskId, w: Weight, _now: Time) {
        let prev = self.tasks.insert(
            id,
            RrTask {
                weight: w,
                state: TaskState::Ready,
            },
        );
        assert!(prev.is_none(), "task {id} attached twice");
        self.stats.events += 1;
        self.stats.event_steps += 1;
        self.ready.push_back(id);
        self.runnable += 1;
    }

    fn detach(&mut self, id: TaskId, _now: Time) {
        let t = self.tasks.remove(&id).expect("detaching unknown task");
        assert!(!t.state.is_running(), "detach of running task {id}");
        self.stats.events += 1;
        self.stats.event_steps += self.ready.len() as u64;
        self.ready.retain(|&r| r != id);
        if t.state.is_runnable() {
            self.runnable -= 1;
        }
    }

    fn set_weight(&mut self, id: TaskId, w: Weight, _now: Time) {
        self.stats.events += 1;
        self.stats.event_steps += 1;
        self.tasks.get_mut(&id).expect("unknown task").weight = w;
    }

    fn weight_of(&self, id: TaskId) -> Option<Weight> {
        self.tasks.get(&id).map(|t| t.weight)
    }

    fn wake(&mut self, id: TaskId, _now: Time) {
        self.stats.events += 1;
        self.stats.event_steps += 1;
        let t = self.tasks.get_mut(&id).expect("waking unknown task");
        assert!(matches!(t.state, TaskState::Blocked));
        t.state = TaskState::Ready;
        self.ready.push_back(id);
        self.runnable += 1;
    }

    fn pick_next(&mut self, cpu: CpuId, _now: Time) -> Option<TaskId> {
        let id = self.ready.pop_front()?;
        self.tasks.get_mut(&id).unwrap().state = TaskState::Running(cpu);
        self.stats.picks += 1;
        Some(id)
    }

    fn put_prev(&mut self, id: TaskId, _ran: Duration, reason: SwitchReason, _now: Time) {
        self.stats.events += 1;
        self.stats.event_steps += 1;
        assert!(self.tasks[&id].state.is_running());
        match reason {
            SwitchReason::Preempted | SwitchReason::Yielded => {
                self.tasks.get_mut(&id).unwrap().state = TaskState::Ready;
                self.ready.push_back(id);
            }
            SwitchReason::Blocked => {
                self.tasks.get_mut(&id).unwrap().state = TaskState::Blocked;
                self.runnable -= 1;
            }
            SwitchReason::Exited => {
                self.tasks.remove(&id);
                self.runnable -= 1;
            }
        }
    }

    fn time_slice(&self, _id: TaskId) -> Duration {
        self.quantum
    }

    fn nr_runnable(&self) -> usize {
        self.runnable
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
    fn equal_shares() {
        let mut sim = MiniSim::new(RoundRobin::new(1, Duration::from_millis(1)));
        sim.spawn(1, 1);
        sim.spawn(2, 99);
        sim.run_quanta(1000);
        assert_close(sim.ratio(1, 2), 1.0, 0.01, "round robin is fair-ish");
    }

    #[test]
    fn fifo_order() {
        let mut s = RoundRobin::new(1, Duration::from_millis(1));
        for i in 0..3 {
            s.attach(TaskId(i), Weight::DEFAULT, Time::ZERO);
        }
        let picks: Vec<_> = (0..6)
            .map(|_| {
                let id = s.pick_next(CpuId(0), Time::ZERO).unwrap();
                s.put_prev(
                    id,
                    Duration::from_millis(1),
                    SwitchReason::Preempted,
                    Time::ZERO,
                );
                id.0
            })
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn block_and_wake_requeues_at_tail() {
        let mut s = RoundRobin::new(1, Duration::from_millis(1));
        s.attach(TaskId(0), Weight::DEFAULT, Time::ZERO);
        s.attach(TaskId(1), Weight::DEFAULT, Time::ZERO);
        let id = s.pick_next(CpuId(0), Time::ZERO).unwrap();
        s.put_prev(id, Duration::ZERO, SwitchReason::Blocked, Time::ZERO);
        assert_eq!(s.nr_runnable(), 1);
        s.wake(id, Time::ZERO);
        assert_eq!(s.nr_runnable(), 2);
        // The woken task goes behind the other ready task.
        assert_eq!(s.pick_next(CpuId(0), Time::ZERO), Some(TaskId(1)));
    }

    #[test]
    fn runnable_counter_matches_the_task_table() {
        let scan = |s: &RoundRobin| s.tasks.values().filter(|t| t.state.is_runnable()).count();
        let mut s = RoundRobin::new(2, Duration::from_millis(1));
        for i in 0..5 {
            s.attach(TaskId(i), Weight::DEFAULT, Time::ZERO);
            assert_eq!(s.nr_runnable(), scan(&s));
        }
        let a = s.pick_next(CpuId(0), Time::ZERO).unwrap();
        let b = s.pick_next(CpuId(1), Time::ZERO).unwrap();
        assert_eq!((s.nr_runnable(), scan(&s)), (5, 5));
        s.put_prev(a, Duration::ZERO, SwitchReason::Blocked, Time::ZERO);
        assert_eq!((s.nr_runnable(), scan(&s)), (4, 4));
        s.put_prev(b, Duration::ZERO, SwitchReason::Exited, Time::ZERO);
        assert_eq!((s.nr_runnable(), scan(&s)), (3, 3));
        s.wake(a, Time::ZERO);
        assert_eq!((s.nr_runnable(), scan(&s)), (4, 4));
        let c = s.pick_next(CpuId(0), Time::ZERO).unwrap();
        s.put_prev(c, Duration::ZERO, SwitchReason::Yielded, Time::ZERO);
        assert_eq!((s.nr_runnable(), scan(&s)), (4, 4));
        // Detach one ready task and one blocked task.
        s.detach(c, Time::ZERO);
        assert_eq!((s.nr_runnable(), scan(&s)), (3, 3));
        let d = s.pick_next(CpuId(0), Time::ZERO).unwrap();
        s.put_prev(d, Duration::ZERO, SwitchReason::Blocked, Time::ZERO);
        s.detach(d, Time::ZERO);
        assert_eq!((s.nr_runnable(), scan(&s)), (2, 2));
        assert_eq!(s.nr_tasks(), 2);
    }
}
