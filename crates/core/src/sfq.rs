//! Start-time fair queueing (SFQ), the paper's principal baseline.
//!
//! SFQ [Goyal et al., OSDI'96] is a GPS-based scheduler: every thread
//! carries a start tag `S_i`, initialised to the system virtual time on
//! arrival, and incremented by `q / w_i` each time the thread runs for
//! `q`. Each scheduling instance picks the runnable thread with the
//! minimum start tag.
//!
//! On a uniprocessor SFQ has strong fairness bounds, but Example 1 of the
//! paper shows it can starve threads for unbounded stretches on an SMP
//! when the weight assignment is infeasible, and Example 2 shows it
//! misallocates under frequent arrivals/departures even when weights are
//! feasible. Both pathologies are reproduced by this implementation's
//! tests and by the Fig. 4/Fig. 5 experiments.
//!
//! The `readjust` configuration flag applies the paper's weight
//! readjustment algorithm (§2.1) on every runnable-set change, which
//! repairs the infeasible-weights pathology (Fig. 4b) but not the
//! short-jobs one (Fig. 5a).

use crate::feasible::FeasibleWeights;
use crate::fixed::Fixed;
use crate::queues::{IndexedList, NodeRef, Order};
use crate::sched::{SchedStats, Scheduler, SwitchReason};
use crate::task::{CpuId, TagTask, TaskId, TaskState, Weight};
use crate::taskmap::TaskMap;
use crate::time::{Duration, Time};

/// Tuning knobs for [`Sfq`].
#[derive(Debug, Clone)]
pub struct SfqConfig {
    /// Maximum quantum granted per dispatch.
    pub quantum: Duration,
    /// Apply the weight readjustment algorithm (§2.1). Off reproduces the
    /// unmodified SFQ of Example 1 / Fig. 4(a).
    pub readjust: bool,
    /// Allow wakeups to preempt a running thread with a larger start tag.
    pub wake_preemption: bool,
    /// Tag renormalisation threshold (wrap-around handling).
    pub renorm_threshold: Fixed,
}

impl Default for SfqConfig {
    fn default() -> SfqConfig {
        SfqConfig {
            quantum: Duration::from_millis(200),
            readjust: false,
            wake_preemption: true,
            renorm_threshold: Fixed::from_int(100_000_000_000_000),
        }
    }
}

#[derive(Debug)]
struct Entry {
    task: TagTask,
    s_node: Option<NodeRef>,
}

/// The start-time fair queueing scheduler.
pub struct Sfq {
    cfg: SfqConfig,
    cpus: u32,
    tasks: TaskMap<Entry>,
    feas: FeasibleWeights,
    start_q: IndexedList,
    v: Fixed,
    stats: SchedStats,
}

impl Sfq {
    /// Plain SFQ (no readjustment), as in Example 1.
    pub fn new(cpus: u32) -> Sfq {
        Sfq::with_config(cpus, SfqConfig::default())
    }

    /// SFQ with the weight readjustment algorithm enabled (Fig. 4b).
    pub fn with_readjustment(cpus: u32) -> Sfq {
        Sfq::with_config(
            cpus,
            SfqConfig {
                readjust: true,
                ..SfqConfig::default()
            },
        )
    }

    /// SFQ with explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is zero.
    pub fn with_config(cpus: u32, cfg: SfqConfig) -> Sfq {
        assert!(cpus > 0, "need at least one processor");
        let readjust = cfg.readjust;
        Sfq {
            cfg,
            cpus,
            tasks: TaskMap::new(),
            feas: FeasibleWeights::new(cpus, readjust),
            start_q: IndexedList::new(Order::Ascending),
            v: Fixed::ZERO,
            stats: SchedStats::default(),
        }
    }

    fn current_v(&self) -> Fixed {
        self.start_q.head().map(|(k, _)| k).unwrap_or(self.v)
    }

    fn phi(&self, id: TaskId, w: Weight) -> Fixed {
        self.feas.phi(id, w)
    }

    fn link(&mut self, id: TaskId) {
        let s = self.tasks[&id].task.start_tag;
        let node = self.start_q.insert(s, id);
        self.tasks.get_mut(&id).unwrap().s_node = Some(node);
    }

    fn unlink(&mut self, id: TaskId) {
        if let Some(n) = self.tasks.get_mut(&id).unwrap().s_node.take() {
            self.start_q.remove(n);
        }
    }

    fn maybe_renormalize(&mut self) {
        if self.v <= self.cfg.renorm_threshold && self.current_v() <= self.cfg.renorm_threshold {
            return;
        }
        let delta = self.current_v().min(self.v);
        for e in self.tasks.values_mut() {
            e.task.start_tag -= delta;
            e.task.finish_tag -= delta;
        }
        self.v -= delta;
        let Sfq { start_q, tasks, .. } = self;
        let moved = start_q.resort_with(|id| tasks[&id].task.start_tag);
        debug_assert_eq!(moved, 0);
        self.stats.renormalizations += 1;
    }

    /// Immutable view of a task's tag state, for tests and tracing.
    pub fn tags_of(&self, id: TaskId) -> Option<&TagTask> {
        self.tasks.get(&id).map(|e| &e.task)
    }
}

impl Scheduler for Sfq {
    fn name(&self) -> &'static str {
        if self.cfg.readjust {
            "SFQ+readjust"
        } else {
            "SFQ"
        }
    }

    fn cpus(&self) -> u32 {
        self.cpus
    }

    fn attach(&mut self, id: TaskId, w: Weight, _now: Time) {
        assert!(!self.tasks.contains_key(&id), "task {id} attached twice");
        self.stats.events += 1;
        // "Newly arriving threads are assigned the minimum value of S_i
        // over all runnable threads" (Example 1).
        let task = TagTask::new(id, w, self.current_v());
        self.tasks.insert(id, Entry { task, s_node: None });
        self.feas.insert(id, w);
        self.link(id);
    }

    fn detach(&mut self, id: TaskId, _now: Time) {
        self.stats.events += 1;
        let state = self.tasks[&id].task.state;
        assert!(!state.is_running(), "detach of running task {id}");
        if state.is_runnable() {
            let w = self.tasks[&id].task.weight;
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
        if e.task.state.is_runnable() {
            Some(self.phi(id, e.task.weight))
        } else {
            Some(e.task.phi)
        }
    }

    fn wake(&mut self, id: TaskId, _now: Time) {
        self.stats.events += 1;
        let v_now = self.current_v();
        {
            let e = self.tasks.get_mut(&id).expect("waking unknown task");
            assert!(matches!(e.task.state, TaskState::Blocked));
            e.task.start_tag = e.task.finish_tag.max(v_now);
            e.task.state = TaskState::Ready;
        }
        let w = self.tasks[&id].task.weight;
        self.feas.insert(id, w);
        self.link(id);
    }

    fn pick_next(&mut self, cpu: CpuId, now: Time) -> Option<TaskId> {
        let picked = self
            .start_q
            .iter()
            .map(|(_, id)| id)
            .find(|id| matches!(self.tasks[id].task.state, TaskState::Ready))?;
        let e = self.tasks.get_mut(&picked).unwrap();
        e.task.state = TaskState::Running(cpu);
        e.task.dispatched_at = now;
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
        let phi = self.phi(id, w);
        let finish_tag = {
            let e = self.tasks.get_mut(&id).unwrap();
            e.task.phi = phi;
            let f = e.task.start_tag + phi.div_into_int(ran.as_nanos());
            e.task.finish_tag = f;
            e.task.service += ran;
            f
        };
        match reason {
            SwitchReason::Preempted | SwitchReason::Yielded => {
                let e = self.tasks.get_mut(&id).unwrap();
                e.task.start_tag = finish_tag;
                e.task.state = TaskState::Ready;
                let node = e.s_node.expect("runnable task missing node");
                self.start_q.update_key(node, finish_tag);
            }
            SwitchReason::Blocked => {
                self.unlink(id);
                let e = self.tasks.get_mut(&id).unwrap();
                e.task.state = TaskState::Blocked;
                self.feas.remove(id, w);
                if self.start_q.is_empty() {
                    self.v = finish_tag;
                }
            }
            SwitchReason::Exited => {
                self.unlink(id);
                self.feas.remove(id, w);
                self.tasks.remove(&id);
                if self.start_q.is_empty() {
                    self.v = finish_tag;
                }
            }
        }
        self.maybe_renormalize();
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
        if !self.cfg.wake_preemption {
            return false;
        }
        let (Some(we), Some(re)) = (self.tasks.get(&woken), self.tasks.get(&running)) else {
            return false;
        };
        if !matches!(we.task.state, TaskState::Ready) || !re.task.state.is_running() {
            return false;
        }
        // Charge the running thread its in-flight time before comparing.
        let phi = self.phi(running, re.task.weight);
        let charged = re.task.start_tag + phi.div_into_int(ran_so_far.as_nanos());
        we.task.start_tag < charged
    }

    fn nr_runnable(&self) -> usize {
        self.start_q.len()
    }

    fn nr_tasks(&self) -> usize {
        self.tasks.len()
    }

    fn stats(&self) -> SchedStats {
        let mut s = self.stats;
        s.readjust_calls = self.feas.calls;
        s.weights_clamped = self.feas.clamps;
        s.event_steps = self.start_q.steps() + self.feas.event_steps();
        s
    }

    fn virtual_time(&self) -> Option<Fixed> {
        Some(self.current_v())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{assert_close, MiniSim};

    /// Example 1 (Fig. 1): plain SFQ starves the weight-1 thread after a
    /// same-weight thread arrives, because 1:10 is infeasible on 2 CPUs.
    #[test]
    fn example1_plain_sfq_starves() {
        let mut sim = MiniSim::new(Sfq::new(2));
        sim.spawn(1, 1);
        sim.spawn(2, 10);
        sim.run_quanta(1000);
        // Both compute-bound threads ran continuously so far.
        assert_eq!(sim.service(1), Duration::from_millis(1000));
        assert_eq!(sim.service(2), Duration::from_millis(1000));
        sim.spawn(3, 1);
        let before = sim.service(1);
        sim.run_quanta(800);
        // T1 starves: S1 = 1000 tag units, S2 = S3 = 100; SFQ runs
        // threads 2 and 3 until they catch up (~900 quanta for T3).
        let gained = sim.service(1) - before;
        // T1 may finish the quantum it already held when T3 arrived, but
        // nothing more: it starves until S2/S3 catch up with S1.
        assert!(
            gained <= Duration::from_millis(1),
            "plain SFQ should starve T1, yet it gained {gained}"
        );
        // ... but after the catch-up period T1 runs again.
        sim.run_quanta(400);
        assert!(sim.service(1) > before, "T1 should eventually resume");
    }

    /// Fig. 4(b): the readjustment algorithm prevents the starvation.
    #[test]
    fn example1_readjusted_sfq_does_not_starve() {
        let mut sim = MiniSim::new(Sfq::with_readjustment(2));
        sim.spawn(1, 1);
        sim.spawn(2, 10);
        sim.run_quanta(1000);
        sim.spawn(3, 1);
        let before = sim.service(1);
        sim.run_quanta(200);
        let gained = sim.service(1) - before;
        // Readjusted weights are 1:2:1 (shares 1/4:1/2:1/4 of 2 CPUs):
        // T1 receives ≈ half a CPU immediately.
        assert!(
            gained >= Duration::from_millis(80),
            "T1 starved under readjusted SFQ: {gained}"
        );
    }

    #[test]
    fn uniprocessor_proportional_shares() {
        let mut sim = MiniSim::new(Sfq::new(1));
        sim.spawn(1, 1);
        sim.spawn(2, 3);
        sim.run_quanta(4000);
        assert_close(sim.ratio(2, 1), 3.0, 0.01, "3:1 on uniprocessor");
    }

    #[test]
    fn readjusted_shares_follow_instantaneous_weights() {
        // 1:10 clamped to 1:1 on a dual-processor.
        let mut sim = MiniSim::new(Sfq::with_readjustment(2));
        sim.spawn(1, 1);
        sim.spawn(2, 10);
        sim.run_quanta(500);
        assert_close(sim.ratio(2, 1), 1.0, 0.01, "clamped 1:1");
    }

    #[test]
    fn new_arrival_gets_min_start_tag() {
        let mut sim = MiniSim::new(Sfq::new(1));
        sim.spawn(1, 1);
        sim.run_quanta(100);
        sim.spawn(2, 1);
        let s1 = sim.sched.tags_of(TaskId(1)).unwrap().start_tag;
        let s2 = sim.sched.tags_of(TaskId(2)).unwrap().start_tag;
        assert_eq!(s2, s1, "arrival initialised to current min start tag");
    }

    #[test]
    fn sleeper_gets_no_credit() {
        let mut sim = MiniSim::new(Sfq::new(1));
        sim.spawn(1, 1);
        sim.spawn(2, 1);
        sim.run_quanta(4);
        sim.block(2, Duration::ZERO);
        sim.run_quanta(500);
        sim.wake(2);
        let s2 = sim.sched.tags_of(TaskId(2)).unwrap().start_tag;
        let s1 = sim.sched.tags_of(TaskId(1)).unwrap().start_tag;
        // S2 was floored at v (≈ S1): no banked credit.
        assert!(s2 >= s1 - Fixed::from_int(2_000_000), "s2={s2:?} s1={s1:?}");
        let before = sim.service(1);
        sim.run_quanta(100);
        let gain1 = sim.service(1) - before;
        assert!(
            gain1 >= Duration::from_millis(40),
            "T1 starved by returning sleeper: {gain1}"
        );
    }

    #[test]
    fn idle_system_freezes_virtual_time() {
        let mut sim = MiniSim::new(Sfq::new(1));
        sim.spawn(1, 1);
        sim.run_quanta(10);
        sim.block(1, Duration::ZERO);
        let v = sim.sched.virtual_time().unwrap();
        assert_eq!(v, sim.sched.tags_of(TaskId(1)).unwrap().finish_tag);
        // A task arriving while idle starts at the frozen v.
        sim.spawn(2, 1);
        assert_eq!(sim.sched.tags_of(TaskId(2)).unwrap().start_tag, v);
    }

    #[test]
    fn renormalization_is_transparent() {
        let tiny = SfqConfig {
            quantum: Duration::from_millis(1),
            renorm_threshold: Fixed::from_int(20_000_000),
            ..SfqConfig::default()
        };
        let mut a = MiniSim::new(Sfq::with_config(1, tiny));
        let mut b = MiniSim::new(Sfq::new(1));
        for sim in [&mut a, &mut b] {
            sim.spawn(1, 2);
            sim.spawn(2, 5);
            sim.run_quanta(1500);
        }
        assert!(a.sched.stats().renormalizations > 0);
        assert_eq!(a.service(1), b.service(1));
        assert_eq!(a.service(2), b.service(2));
    }

    #[test]
    fn wake_preemption_compares_start_tags() {
        let mut s = Sfq::new(1);
        s.attach(TaskId(1), Weight::DEFAULT, Time::ZERO);
        s.attach(TaskId(2), Weight::DEFAULT, Time::ZERO);
        let first = s.pick_next(CpuId(0), Time::ZERO).unwrap();
        // The other thread has an equal start tag; only after the running
        // thread is charged some time does preemption trigger.
        let other = if first == TaskId(1) {
            TaskId(2)
        } else {
            TaskId(1)
        };
        assert!(!s.wake_preempts(other, first, Duration::ZERO, Time::ZERO));
        assert!(s.wake_preempts(other, first, Duration::from_millis(10), Time::ZERO));
    }
}
