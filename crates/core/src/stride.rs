//! Stride scheduling [Waldspurger & Weihl, 1995], a GPS-based baseline.
//!
//! Each task holds `tickets` (its weight) and a `stride = STRIDE1 /
//! tickets`; its `pass` advances by `stride` per quantum consumed, and
//! the scheduler always runs the minimum-pass task. The paper lists
//! stride scheduling among the GPS instantiations that inherit the
//! infeasible-weights pathology on SMPs (§1.2); the optional
//! readjustment wrapper demonstrates the paper's claim that the §2.1
//! algorithm "can be combined with most existing GPS-based scheduling
//! algorithms".
//!
//! Variable-length quanta are charged proportionally:
//! `pass += stride · q / Q_nominal`.

use crate::feasible::FeasibleWeights;
use crate::fixed::Fixed;
use crate::queues::{IndexedList, NodeRef, Order};
use crate::sched::{SchedStats, Scheduler, SwitchReason};
use crate::task::{CpuId, TaskId, TaskState, Weight};
use crate::taskmap::TaskMap;
use crate::time::{Duration, Time};

/// The classic stride constant.
const STRIDE1: i64 = 1 << 20;

/// Tuning knobs for [`Stride`].
#[derive(Debug, Clone)]
pub struct StrideConfig {
    /// Nominal quantum; `pass` advances by one full stride per quantum.
    pub quantum: Duration,
    /// Apply weight readjustment (§2.1) to the ticket values.
    pub readjust: bool,
}

impl Default for StrideConfig {
    fn default() -> StrideConfig {
        StrideConfig {
            quantum: Duration::from_millis(200),
            readjust: false,
        }
    }
}

#[derive(Debug)]
struct StrideTask {
    weight: Weight,
    pass: Fixed,
    remain: Fixed,
    state: TaskState,
    node: Option<NodeRef>,
}

/// The stride scheduler.
pub struct Stride {
    cfg: StrideConfig,
    cpus: u32,
    tasks: TaskMap<StrideTask>,
    feas: FeasibleWeights,
    /// Ready+running tasks ordered by pass (ascending).
    pass_q: IndexedList,
    global_pass: Fixed,
    stats: SchedStats,
}

impl Stride {
    /// Plain stride scheduling.
    pub fn new(cpus: u32) -> Stride {
        Stride::with_config(cpus, StrideConfig::default())
    }

    /// Stride scheduling with the readjustment wrapper.
    pub fn with_readjustment(cpus: u32) -> Stride {
        Stride::with_config(
            cpus,
            StrideConfig {
                readjust: true,
                ..StrideConfig::default()
            },
        )
    }

    /// Stride scheduling with explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is zero.
    pub fn with_config(cpus: u32, cfg: StrideConfig) -> Stride {
        assert!(cpus > 0, "need at least one processor");
        let readjust = cfg.readjust;
        Stride {
            cfg,
            cpus,
            tasks: TaskMap::new(),
            feas: FeasibleWeights::new(cpus, readjust),
            pass_q: IndexedList::new(Order::Ascending),
            global_pass: Fixed::ZERO,
            stats: SchedStats::default(),
        }
    }

    fn stride_of(&self, id: TaskId, w: Weight) -> Fixed {
        let phi = self.feas.phi(id, w);
        Fixed::from_int(STRIDE1).div_fixed(phi)
    }

    fn min_pass(&self) -> Fixed {
        self.pass_q
            .head()
            .map(|(k, _)| k)
            .unwrap_or(self.global_pass)
    }

    fn link(&mut self, id: TaskId) {
        let pass = self.tasks[&id].pass;
        let node = self.pass_q.insert(pass, id);
        self.tasks.get_mut(&id).unwrap().node = Some(node);
    }

    fn unlink(&mut self, id: TaskId) {
        if let Some(n) = self.tasks.get_mut(&id).unwrap().node.take() {
            self.pass_q.remove(n);
        }
    }
}

impl Scheduler for Stride {
    fn name(&self) -> &'static str {
        if self.cfg.readjust {
            "Stride+readjust"
        } else {
            "Stride"
        }
    }

    fn cpus(&self) -> u32 {
        self.cpus
    }

    fn attach(&mut self, id: TaskId, w: Weight, _now: Time) {
        assert!(!self.tasks.contains_key(&id), "task {id} attached twice");
        self.stats.events += 1;
        let pass = self.min_pass();
        self.tasks.insert(
            id,
            StrideTask {
                weight: w,
                pass,
                remain: Fixed::ZERO,
                state: TaskState::Ready,
                node: None,
            },
        );
        self.feas.insert(id, w);
        self.link(id);
    }

    fn detach(&mut self, id: TaskId, _now: Time) {
        self.stats.events += 1;
        let state = self.tasks[&id].state;
        assert!(!state.is_running(), "detach of running task {id}");
        if state.is_runnable() {
            let w = self.tasks[&id].weight;
            self.unlink(id);
            self.feas.remove(id, w);
        }
        self.tasks.remove(&id);
    }

    fn set_weight(&mut self, id: TaskId, w: Weight, _now: Time) {
        let old = self.tasks[&id].weight;
        if old == w {
            return;
        }
        self.stats.events += 1;
        self.tasks.get_mut(&id).unwrap().weight = w;
        if self.tasks[&id].state.is_runnable() {
            self.feas.set_weight(id, old, w);
        }
    }

    fn weight_of(&self, id: TaskId) -> Option<Weight> {
        self.tasks.get(&id).map(|t| t.weight)
    }

    fn adjusted_weight_of(&self, id: TaskId) -> Option<Fixed> {
        let t = self.tasks.get(&id)?;
        Some(self.feas.phi(id, t.weight))
    }

    fn wake(&mut self, id: TaskId, _now: Time) {
        self.stats.events += 1;
        let floor = self.min_pass();
        {
            let t = self.tasks.get_mut(&id).expect("waking unknown task");
            assert!(matches!(t.state, TaskState::Blocked));
            // Exhausted-ticket sleepers resume from the system pass plus
            // any leftover fractional pass they still owed.
            t.pass = t.pass.max(floor) + t.remain;
            t.remain = Fixed::ZERO;
            t.state = TaskState::Ready;
        }
        let w = self.tasks[&id].weight;
        self.feas.insert(id, w);
        self.link(id);
    }

    fn pick_next(&mut self, cpu: CpuId, _now: Time) -> Option<TaskId> {
        let picked = self
            .pass_q
            .iter()
            .map(|(_, id)| id)
            .find(|id| matches!(self.tasks[id].state, TaskState::Ready))?;
        self.tasks.get_mut(&picked).unwrap().state = TaskState::Running(cpu);
        self.global_pass = self.min_pass();
        self.stats.picks += 1;
        Some(picked)
    }

    fn put_prev(&mut self, id: TaskId, ran: Duration, reason: SwitchReason, _now: Time) {
        self.stats.events += 1;
        let w = {
            let t = &self.tasks[&id];
            assert!(t.state.is_running(), "put_prev of non-running {id}");
            t.weight
        };
        let stride = self.stride_of(id, w);
        // pass += stride * q / Q_nominal.
        let advance = Fixed::from_raw(
            stride.raw() * ran.as_nanos() as i128 / self.cfg.quantum.as_nanos() as i128,
        );
        {
            let t = self.tasks.get_mut(&id).unwrap();
            t.pass += advance;
        }
        match reason {
            SwitchReason::Preempted | SwitchReason::Yielded => {
                let pass = self.tasks[&id].pass;
                let node = self.tasks[&id].node.expect("runnable without node");
                self.pass_q.update_key(node, pass);
                self.tasks.get_mut(&id).unwrap().state = TaskState::Ready;
            }
            SwitchReason::Blocked => {
                self.unlink(id);
                self.tasks.get_mut(&id).unwrap().state = TaskState::Blocked;
                self.feas.remove(id, w);
            }
            SwitchReason::Exited => {
                self.unlink(id);
                self.feas.remove(id, w);
                self.tasks.remove(&id);
            }
        }
    }

    fn time_slice(&self, _id: TaskId) -> Duration {
        self.cfg.quantum
    }

    fn nr_runnable(&self) -> usize {
        self.pass_q.len()
    }

    fn nr_tasks(&self) -> usize {
        self.tasks.len()
    }

    fn stats(&self) -> SchedStats {
        let mut s = self.stats;
        s.readjust_calls = self.feas.calls;
        s.weights_clamped = self.feas.clamps;
        s.event_steps = self.pass_q.steps() + self.feas.event_steps();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{assert_close, MiniSim};

    #[test]
    fn proportional_on_uniprocessor() {
        let mut sim = MiniSim::new(Stride::new(1));
        sim.spawn(1, 1);
        sim.spawn(2, 4);
        sim.run_quanta(5000);
        assert_close(sim.ratio(2, 1), 4.0, 0.01, "4:1");
    }

    #[test]
    fn infeasible_weights_unfair_without_readjustment() {
        // 1:10 on 2 CPUs: both run continuously, but after a third task
        // arrives, plain stride starves the light original task just
        // like SFQ (§1.2 applies to all GPS instantiations).
        let mut sim = MiniSim::new(Stride::new(2));
        sim.spawn(1, 1);
        sim.spawn(2, 10);
        sim.run_quanta(500);
        sim.spawn(3, 1);
        let before = sim.service(1);
        sim.run_quanta(300);
        let gained = sim.service(1) - before;
        assert!(
            gained < Duration::from_millis(30),
            "expected near-starvation, gained {gained}"
        );
    }

    #[test]
    fn readjustment_fixes_starvation() {
        let mut sim = MiniSim::new(Stride::with_readjustment(2));
        sim.spawn(1, 1);
        sim.spawn(2, 10);
        sim.run_quanta(500);
        sim.spawn(3, 1);
        let before = sim.service(1);
        sim.run_quanta(300);
        let gained = sim.service(1) - before;
        assert!(
            gained > Duration::from_millis(100),
            "starved despite readjustment: {gained}"
        );
    }

    #[test]
    fn arrival_inherits_min_pass() {
        let mut sim = MiniSim::new(Stride::new(1));
        sim.spawn(1, 1);
        sim.run_quanta(50);
        sim.spawn(2, 1);
        sim.run_quanta(100);
        // The newcomer shares from its arrival onward; it must not be
        // starved nor monopolise.
        let s2 = sim.service(2);
        assert_close(s2.as_millis() as f64, 50.0, 0.1, "half of 100 quanta");
    }

    #[test]
    fn partial_quantum_charges_proportionally() {
        let mut s = Stride::new(1);
        s.attach(TaskId(1), Weight::DEFAULT, Time::ZERO);
        let id = s.pick_next(CpuId(0), Time::ZERO).unwrap();
        let full = Duration::from_millis(200);
        s.put_prev(id, full / 2, SwitchReason::Preempted, Time::ZERO);
        let pass = s.tasks[&TaskId(1)].pass;
        assert_eq!(pass, Fixed::from_int(STRIDE1) / 2);
    }
}
