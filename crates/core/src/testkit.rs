//! A miniature lockstep driver for scheduler unit tests.
//!
//! This is *not* the full discrete-event simulator (that lives in
//! `sfs-sim`); it is a deliberately simple harness used by the unit tests
//! of the individual policies in this crate: all processors tick in
//! lockstep with a fixed quantum, and tasks are CPU-bound unless the test
//! blocks/wakes them explicitly.

use crate::sched::{Scheduler, SwitchReason};
use crate::task::{CpuId, TaskId, Weight};
use crate::taskmap::TaskMap;
use crate::time::{Duration, Time};

/// Lockstep test driver around any [`Scheduler`].
pub struct MiniSim<S: Scheduler> {
    /// The policy under test (public for direct inspection).
    pub sched: S,
    /// Current simulated time.
    pub now: Time,
    /// Quantum granted on every dispatch.
    pub quantum: Duration,
    cpus: Vec<Option<TaskId>>,
    service: TaskMap<Duration>,
}

impl<S: Scheduler> MiniSim<S> {
    /// Wraps a scheduler with `cpus` processors and a 1 ms quantum.
    pub fn new(sched: S) -> MiniSim<S> {
        let n = sched.cpus() as usize;
        MiniSim {
            sched,
            now: Time::ZERO,
            quantum: Duration::from_millis(1),
            cpus: vec![None; n],
            service: TaskMap::new(),
        }
    }

    /// Attaches a new runnable task.
    pub fn spawn(&mut self, id: u64, w: u64) {
        self.sched
            .attach(TaskId(id), Weight::new(w).unwrap(), self.now);
        if !self.service.contains_key(&TaskId(id)) {
            self.service.insert(TaskId(id), Duration::ZERO);
        }
    }

    /// Blocks a task, giving up its CPU mid-quantum after `used` of the
    /// quantum. If the task is not currently on a CPU, lockstep quanta
    /// are run until the scheduler dispatches it (only a running task
    /// can block, as in a real system).
    pub fn block(&mut self, id: u64, used: Duration) {
        let tid = TaskId(id);
        for _ in 0..100_000 {
            if let Some(slot) = self.cpus.iter_mut().find(|c| **c == Some(tid)) {
                *slot = None;
                *self.service.get_mut(&tid).unwrap() += used;
                self.sched
                    .put_prev(tid, used, SwitchReason::Blocked, self.now);
                return;
            }
            self.run_quanta(1);
        }
        panic!("block: task {tid} was never scheduled");
    }

    /// Wakes a blocked task.
    pub fn wake(&mut self, id: u64) {
        self.sched.wake(TaskId(id), self.now);
    }

    /// Kills a task wherever it is.
    pub fn kill(&mut self, id: u64) {
        let id = TaskId(id);
        if let Some(slot) = self.cpus.iter_mut().find(|c| **c == Some(id)) {
            *slot = None;
            self.sched
                .put_prev(id, Duration::ZERO, SwitchReason::Exited, self.now);
        } else {
            self.sched.detach(id, self.now);
        }
    }

    /// Fills any idle CPUs, then runs `n` full lockstep quanta:
    /// every CPU's task runs one whole quantum, is preempted, and the
    /// CPUs are refilled in index order.
    pub fn run_quanta(&mut self, n: u64) {
        for _ in 0..n {
            self.fill();
            self.now += self.quantum;
            let running: Vec<(usize, TaskId)> = self
                .cpus
                .iter()
                .enumerate()
                .filter_map(|(i, c)| c.map(|t| (i, t)))
                .collect();
            for (i, t) in running {
                *self.service.get_mut(&t).unwrap() += self.quantum;
                self.sched
                    .put_prev(t, self.quantum, SwitchReason::Preempted, self.now);
                self.cpus[i] = None;
            }
        }
        self.fill();
    }

    /// Dispatches onto all idle CPUs.
    pub fn fill(&mut self) {
        for i in 0..self.cpus.len() {
            if self.cpus[i].is_none() {
                self.cpus[i] = self.sched.pick_next(CpuId(i as u32), self.now);
            }
        }
    }

    /// Cumulative CPU service of a task.
    pub fn service(&self, id: u64) -> Duration {
        self.service
            .get(&TaskId(id))
            .copied()
            .unwrap_or(Duration::ZERO)
    }

    /// Service of `a` divided by service of `b` (as f64, for ratio checks).
    pub fn ratio(&self, a: u64, b: u64) -> f64 {
        self.service(a).as_nanos() as f64 / self.service(b).as_nanos().max(1) as f64
    }

    /// The tasks currently occupying CPUs.
    pub fn running(&self) -> Vec<Option<TaskId>> {
        self.cpus.clone()
    }
}

/// Asserts `got` is within `tol` (relative) of `want`.
pub fn assert_close(got: f64, want: f64, tol: f64, what: &str) {
    let err = if want == 0.0 {
        got.abs()
    } else {
        (got - want).abs() / want.abs()
    };
    assert!(
        err <= tol,
        "{what}: got {got}, want {want} (rel err {err:.4} > {tol})"
    );
}
