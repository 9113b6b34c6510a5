//! Weighted fair queueing (WFQ) [Parekh & Gallager / Demers et al.],
//! translated to CPU scheduling.
//!
//! WFQ picks the minimum *finish* tag, where a finish tag is computed at
//! enqueue time as `F_i = S_i + Q / φ_i` with `Q` the *expected* quantum.
//! This is the packet-scheduling discipline the paper groups with the
//! other GPS instantiations (§1.2); it contrasts with SFS in a way the
//! paper highlights: WFQ needs the quantum length **a priori**, whereas
//! SFS only needs actual usage after the fact (§2.3). When a thread
//! blocks early, WFQ's finish-tag estimate was wrong and is corrected
//! retroactively from the actual usage.
//!
//! Supports the optional readjustment wrapper (§2.1) like the other
//! baselines.

use crate::feasible::FeasibleWeights;
use crate::fixed::Fixed;
use crate::queues::{IndexedList, KeyCounter, NodeRef, Order};
use crate::sched::{SchedStats, Scheduler, SwitchReason};
use crate::task::{CpuId, TagTask, TaskId, TaskState, Weight};
use crate::taskmap::TaskMap;
use crate::time::{Duration, Time};

/// Tuning knobs for [`Wfq`].
#[derive(Debug, Clone)]
pub struct WfqConfig {
    /// Expected quantum used to precompute finish tags.
    pub quantum: Duration,
    /// Apply weight readjustment (§2.1).
    pub readjust: bool,
}

impl Default for WfqConfig {
    fn default() -> WfqConfig {
        WfqConfig {
            quantum: Duration::from_millis(200),
            readjust: false,
        }
    }
}

#[derive(Debug)]
struct Entry {
    task: TagTask,
    node: Option<NodeRef>,
}

/// The weighted-fair-queueing scheduler.
pub struct Wfq {
    cfg: WfqConfig,
    cpus: u32,
    tasks: TaskMap<Entry>,
    feas: FeasibleWeights,
    /// Ready+running tasks ordered by precomputed finish tag.
    finish_q: IndexedList,
    /// Runnable start tags, tracked incrementally: the queue above is
    /// finish-tag-ordered, so the virtual time (minimum *start* tag)
    /// would otherwise need an O(n) scan per arrival or wakeup.
    start_tags: KeyCounter,
    v: Fixed,
    stats: SchedStats,
}

impl Wfq {
    /// Plain WFQ.
    pub fn new(cpus: u32) -> Wfq {
        Wfq::with_config(cpus, WfqConfig::default())
    }

    /// WFQ with explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is zero.
    pub fn with_config(cpus: u32, cfg: WfqConfig) -> Wfq {
        assert!(cpus > 0, "need at least one processor");
        let readjust = cfg.readjust;
        Wfq {
            cfg,
            cpus,
            tasks: TaskMap::new(),
            feas: FeasibleWeights::new(cpus, readjust),
            finish_q: IndexedList::new(Order::Ascending),
            start_tags: KeyCounter::new(),
            v: Fixed::ZERO,
            stats: SchedStats::default(),
        }
    }

    fn current_v(&self) -> Fixed {
        // Minimum start tag over runnable threads, in O(log n).
        self.start_tags.min().unwrap_or(self.v)
    }

    /// Precomputes the finish tag for the task's *next* quantum.
    fn expected_finish(&self, id: TaskId, e: &TagTask) -> Fixed {
        let phi = self.feas.phi(id, e.weight);
        e.start_tag + phi.div_into_int(self.cfg.quantum.as_nanos())
    }

    fn link(&mut self, id: TaskId) {
        let f = self.expected_finish(id, &self.tasks[&id].task);
        self.tasks.get_mut(&id).unwrap().task.finish_tag = f;
        let node = self.finish_q.insert(f, id);
        self.tasks.get_mut(&id).unwrap().node = Some(node);
    }

    fn unlink(&mut self, id: TaskId) {
        if let Some(n) = self.tasks.get_mut(&id).unwrap().node.take() {
            self.finish_q.remove(n);
        }
    }
}

impl Scheduler for Wfq {
    fn name(&self) -> &'static str {
        if self.cfg.readjust {
            "WFQ+readjust"
        } else {
            "WFQ"
        }
    }

    fn cpus(&self) -> u32 {
        self.cpus
    }

    fn attach(&mut self, id: TaskId, w: Weight, _now: Time) {
        assert!(!self.tasks.contains_key(&id), "task {id} attached twice");
        self.stats.events += 1;
        let task = TagTask::new(id, w, self.current_v());
        self.start_tags.insert(task.start_tag);
        self.tasks.insert(id, Entry { task, node: None });
        self.feas.insert(id, w);
        self.link(id);
    }

    fn detach(&mut self, id: TaskId, _now: Time) {
        self.stats.events += 1;
        let state = self.tasks[&id].task.state;
        assert!(!state.is_running(), "detach of running task {id}");
        if state.is_runnable() {
            let w = self.tasks[&id].task.weight;
            self.start_tags.remove(self.tasks[&id].task.start_tag);
            self.unlink(id);
            self.feas.remove(id, w);
        }
        self.tasks.remove(&id);
    }

    fn set_weight(&mut self, id: TaskId, w: Weight, _now: Time) {
        let old = self.tasks[&id].task.weight;
        if old == w {
            return;
        }
        self.stats.events += 1;
        self.tasks.get_mut(&id).unwrap().task.weight = w;
        if self.tasks[&id].task.state.is_runnable() {
            self.feas.set_weight(id, old, w);
        }
    }

    fn weight_of(&self, id: TaskId) -> Option<Weight> {
        self.tasks.get(&id).map(|e| e.task.weight)
    }

    fn adjusted_weight_of(&self, id: TaskId) -> Option<Fixed> {
        let e = self.tasks.get(&id)?;
        Some(self.feas.phi(id, e.task.weight))
    }

    fn wake(&mut self, id: TaskId, _now: Time) {
        self.stats.events += 1;
        let v_now = self.current_v();
        {
            let e = self.tasks.get_mut(&id).expect("waking unknown task");
            assert!(matches!(e.task.state, TaskState::Blocked));
            e.task.start_tag = e.task.start_tag.max(v_now);
            e.task.state = TaskState::Ready;
        }
        self.start_tags.insert(self.tasks[&id].task.start_tag);
        let w = self.tasks[&id].task.weight;
        self.feas.insert(id, w);
        self.link(id);
    }

    fn pick_next(&mut self, cpu: CpuId, _now: Time) -> Option<TaskId> {
        let picked = self
            .finish_q
            .iter()
            .map(|(_, id)| id)
            .find(|id| matches!(self.tasks[id].task.state, TaskState::Ready))?;
        self.tasks.get_mut(&picked).unwrap().task.state = TaskState::Running(cpu);
        self.stats.picks += 1;
        Some(picked)
    }

    fn put_prev(&mut self, id: TaskId, ran: Duration, reason: SwitchReason, _now: Time) {
        self.stats.events += 1;
        let w = {
            let e = &self.tasks[&id];
            assert!(e.task.state.is_running(), "put_prev of non-running {id}");
            e.task.weight
        };
        let phi = self.feas.phi(id, w);
        let (old_start, actual_finish) = {
            let e = self.tasks.get_mut(&id).unwrap();
            // Correct the precomputed estimate with actual usage.
            let old_start = e.task.start_tag;
            let f = old_start + phi.div_into_int(ran.as_nanos());
            e.task.service += ran;
            e.task.start_tag = f;
            (old_start, f)
        };
        match reason {
            SwitchReason::Preempted | SwitchReason::Yielded => {
                self.start_tags.update(old_start, actual_finish);
                self.tasks.get_mut(&id).unwrap().task.state = TaskState::Ready;
                // Re-key with the next quantum's expected finish tag.
                let f = self.expected_finish(id, &self.tasks[&id].task);
                self.tasks.get_mut(&id).unwrap().task.finish_tag = f;
                let node = self.tasks[&id].node.expect("runnable without node");
                self.finish_q.update_key(node, f);
            }
            SwitchReason::Blocked => {
                self.start_tags.remove(old_start);
                self.unlink(id);
                self.tasks.get_mut(&id).unwrap().task.state = TaskState::Blocked;
                self.feas.remove(id, w);
                if self.feas.is_empty() {
                    self.v = actual_finish;
                }
            }
            SwitchReason::Exited => {
                self.start_tags.remove(old_start);
                self.unlink(id);
                self.feas.remove(id, w);
                self.tasks.remove(&id);
                if self.feas.is_empty() {
                    self.v = actual_finish;
                }
            }
        }
    }

    fn time_slice(&self, _id: TaskId) -> Duration {
        self.cfg.quantum
    }

    fn nr_runnable(&self) -> usize {
        self.finish_q.len()
    }

    fn nr_tasks(&self) -> usize {
        self.tasks.len()
    }

    fn stats(&self) -> SchedStats {
        let mut s = self.stats;
        s.readjust_calls = self.feas.calls;
        s.weights_clamped = self.feas.clamps;
        s.event_steps = self.finish_q.steps() + self.start_tags.steps() + self.feas.event_steps();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{assert_close, MiniSim};

    #[test]
    fn proportional_on_uniprocessor() {
        // Match the expected quantum to the driver's actual quantum so
        // the precomputed finish tags are exact.
        let mut sim = MiniSim::new(Wfq::with_config(
            1,
            WfqConfig {
                quantum: Duration::from_millis(1),
                ..WfqConfig::default()
            },
        ));
        sim.spawn(1, 2);
        sim.spawn(2, 6);
        sim.run_quanta(4000);
        assert_close(sim.ratio(2, 1), 3.0, 0.01, "3:1");
    }

    #[test]
    fn picks_min_finish_tag() {
        let mut s = Wfq::new(1);
        s.attach(TaskId(1), Weight::new(1).unwrap(), Time::ZERO);
        s.attach(TaskId(2), Weight::new(10).unwrap(), Time::ZERO);
        // Heavy task has the smaller expected finish tag.
        assert_eq!(s.pick_next(CpuId(0), Time::ZERO), Some(TaskId(2)));
    }

    #[test]
    fn early_block_is_charged_actual_usage() {
        let mut s = Wfq::new(1);
        s.attach(TaskId(1), Weight::DEFAULT, Time::ZERO);
        let id = s.pick_next(CpuId(0), Time::ZERO).unwrap();
        // Runs 1 ms of a 200 ms quantum, then blocks.
        s.put_prev(
            id,
            Duration::from_millis(1),
            SwitchReason::Blocked,
            Time::ZERO,
        );
        // Start tag advanced by 1 ms / 1, not 200 ms.
        let e = &s.tasks[&TaskId(1)].task;
        assert_eq!(
            e.start_tag,
            Fixed::from_raw(1_000_000 * crate::fixed::SCALE)
        );
    }

    #[test]
    fn readjustment_clamps_on_smp() {
        let mut sim = MiniSim::new(Wfq::with_config(
            2,
            WfqConfig {
                readjust: true,
                ..WfqConfig::default()
            },
        ));
        sim.spawn(1, 1);
        sim.spawn(2, 10);
        sim.run_quanta(600);
        assert_close(sim.ratio(2, 1), 1.0, 0.02, "clamped 1:1");
    }
}
