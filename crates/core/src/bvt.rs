//! Borrowed virtual time (BVT) [Duda & Cheriton, SOSP'99].
//!
//! BVT is "a derivative of SFQ with an additional latency parameter"
//! (§1.2): each thread's *actual* virtual time `A_i` advances by
//! `q / w_i` as it runs, and the scheduler picks the minimum *effective*
//! virtual time `E_i = A_i − (warp_i if warped)`. Latency-sensitive
//! threads are given a positive warp so they jump ahead of the queue on
//! wakeup while their long-run share is still governed by their weight.
//! With every warp at zero BVT reduces to SFQ, which a unit test checks.
//!
//! Like the other GPS instantiations, BVT inherits the infeasible-weights
//! pathology on SMPs; the optional readjustment wrapper (§2.1) repairs
//! it.

use crate::feasible::FeasibleWeights;
use crate::fixed::Fixed;
use crate::queues::{IndexedList, KeyCounter, NodeRef, Order};
use crate::sched::{SchedStats, Scheduler, SwitchReason};
use crate::task::{CpuId, TaskId, TaskState, Weight};
use crate::taskmap::TaskMap;
use crate::time::{Duration, Time};

/// Tuning knobs for [`Bvt`].
#[derive(Debug, Clone)]
pub struct BvtConfig {
    /// Maximum quantum granted per dispatch.
    pub quantum: Duration,
    /// Apply weight readjustment (§2.1).
    pub readjust: bool,
}

impl Default for BvtConfig {
    fn default() -> BvtConfig {
        BvtConfig {
            quantum: Duration::from_millis(200),
            readjust: false,
        }
    }
}

#[derive(Debug)]
struct BvtTask {
    weight: Weight,
    /// Actual virtual time `A_i`.
    avt: Fixed,
    /// Warp offset granted to this thread (virtual-time units).
    warp: Fixed,
    /// Whether the warp is currently applied (set on wakeup).
    warped: bool,
    state: TaskState,
    node: Option<NodeRef>,
}

impl BvtTask {
    fn evt(&self) -> Fixed {
        if self.warped {
            self.avt - self.warp
        } else {
            self.avt
        }
    }
}

/// The borrowed-virtual-time scheduler.
pub struct Bvt {
    cfg: BvtConfig,
    cpus: u32,
    tasks: TaskMap<BvtTask>,
    feas: FeasibleWeights,
    /// Ready+running tasks ordered by effective virtual time.
    evt_q: IndexedList,
    /// Runnable *actual* virtual times, tracked incrementally: the
    /// queue above is EVT-ordered (warped entries jump ahead), so the
    /// wakeup floor (minimum AVT) would otherwise need an O(n) scan
    /// per arrival or wakeup.
    avts: KeyCounter,
    /// Scheduler virtual time: minimum AVT seen, for wakeup flooring.
    svt: Fixed,
    stats: SchedStats,
}

impl Bvt {
    /// BVT with all warps zero (SFQ-equivalent).
    pub fn new(cpus: u32) -> Bvt {
        Bvt::with_config(cpus, BvtConfig::default())
    }

    /// BVT with explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is zero.
    pub fn with_config(cpus: u32, cfg: BvtConfig) -> Bvt {
        assert!(cpus > 0, "need at least one processor");
        let readjust = cfg.readjust;
        Bvt {
            cfg,
            cpus,
            tasks: TaskMap::new(),
            feas: FeasibleWeights::new(cpus, readjust),
            evt_q: IndexedList::new(Order::Ascending),
            avts: KeyCounter::new(),
            svt: Fixed::ZERO,
            stats: SchedStats::default(),
        }
    }

    /// Grants a warp (in virtual-time units) to a latency-sensitive task.
    pub fn set_warp(&mut self, id: TaskId, warp: Fixed) {
        self.tasks.get_mut(&id).expect("unknown task").warp = warp;
    }

    fn min_avt(&self) -> Fixed {
        // Minimum AVT over runnable threads, in O(log n).
        self.avts.min().unwrap_or(self.svt)
    }

    fn link(&mut self, id: TaskId) {
        let evt = self.tasks[&id].evt();
        let node = self.evt_q.insert(evt, id);
        self.tasks.get_mut(&id).unwrap().node = Some(node);
    }

    fn unlink(&mut self, id: TaskId) {
        if let Some(n) = self.tasks.get_mut(&id).unwrap().node.take() {
            self.evt_q.remove(n);
        }
    }
}

impl Scheduler for Bvt {
    fn name(&self) -> &'static str {
        if self.cfg.readjust {
            "BVT+readjust"
        } else {
            "BVT"
        }
    }

    fn cpus(&self) -> u32 {
        self.cpus
    }

    fn attach(&mut self, id: TaskId, w: Weight, _now: Time) {
        assert!(!self.tasks.contains_key(&id), "task {id} attached twice");
        self.stats.events += 1;
        let avt = self.min_avt();
        self.avts.insert(avt);
        self.tasks.insert(
            id,
            BvtTask {
                weight: w,
                avt,
                warp: Fixed::ZERO,
                warped: false,
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
            self.avts.remove(self.tasks[&id].avt);
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
        self.svt = self.min_avt();
        {
            let svt = self.svt;
            let t = self.tasks.get_mut(&id).expect("waking unknown task");
            assert!(matches!(t.state, TaskState::Blocked));
            // BVT floors a waking thread's AVT at the scheduler virtual
            // time (no sleeper credit) and applies its warp.
            t.avt = t.avt.max(svt);
            t.warped = !t.warp.is_zero();
            t.state = TaskState::Ready;
        }
        self.avts.insert(self.tasks[&id].avt);
        let w = self.tasks[&id].weight;
        self.feas.insert(id, w);
        self.link(id);
    }

    fn pick_next(&mut self, cpu: CpuId, _now: Time) -> Option<TaskId> {
        let picked = self
            .evt_q
            .iter()
            .map(|(_, id)| id)
            .find(|id| matches!(self.tasks[id].state, TaskState::Ready))?;
        self.tasks.get_mut(&picked).unwrap().state = TaskState::Running(cpu);
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
        let phi = self.feas.phi(id, w);
        let old_avt = {
            let t = self.tasks.get_mut(&id).unwrap();
            let old_avt = t.avt;
            t.avt += phi.div_into_int(ran.as_nanos());
            // The warp applies only to the dispatch straight after a
            // wakeup; once the thread has run it competes normally.
            t.warped = false;
            old_avt
        };
        match reason {
            SwitchReason::Preempted | SwitchReason::Yielded => {
                self.avts.update(old_avt, self.tasks[&id].avt);
                let evt = self.tasks[&id].evt();
                let node = self.tasks[&id].node.expect("runnable without node");
                self.evt_q.update_key(node, evt);
                self.tasks.get_mut(&id).unwrap().state = TaskState::Ready;
            }
            SwitchReason::Blocked => {
                self.avts.remove(old_avt);
                self.unlink(id);
                self.tasks.get_mut(&id).unwrap().state = TaskState::Blocked;
                self.feas.remove(id, w);
            }
            SwitchReason::Exited => {
                self.avts.remove(old_avt);
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
        self.evt_q.len()
    }

    fn nr_tasks(&self) -> usize {
        self.tasks.len()
    }

    fn stats(&self) -> SchedStats {
        let mut s = self.stats;
        s.readjust_calls = self.feas.calls;
        s.weights_clamped = self.feas.clamps;
        s.event_steps = self.evt_q.steps() + self.avts.steps() + self.feas.event_steps();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sfq::Sfq;
    use crate::testkit::{assert_close, MiniSim};

    #[test]
    fn proportional_on_uniprocessor() {
        let mut sim = MiniSim::new(Bvt::new(1));
        sim.spawn(1, 1);
        sim.spawn(2, 5);
        sim.run_quanta(6000);
        assert_close(sim.ratio(2, 1), 5.0, 0.01, "5:1");
    }

    #[test]
    fn zero_warp_matches_sfq_decisions() {
        let mut bvt = Bvt::new(1);
        let mut sfq = Sfq::new(1);
        let mut now = Time::ZERO;
        for (i, w) in [2u64, 1, 3].iter().enumerate() {
            bvt.attach(TaskId(i as u64), Weight::new(*w).unwrap(), now);
            sfq.attach(TaskId(i as u64), Weight::new(*w).unwrap(), now);
        }
        for step in 0..300 {
            let a = bvt.pick_next(CpuId(0), now);
            let b = sfq.pick_next(CpuId(0), now);
            assert_eq!(a, b, "diverged at step {step}");
            let id = a.unwrap();
            now += Duration::from_millis(1);
            bvt.put_prev(id, Duration::from_millis(1), SwitchReason::Preempted, now);
            sfq.put_prev(id, Duration::from_millis(1), SwitchReason::Preempted, now);
        }
    }

    #[test]
    fn warped_wakeup_jumps_the_queue() {
        let mut s = Bvt::new(1);
        s.attach(TaskId(1), Weight::DEFAULT, Time::ZERO);
        s.attach(TaskId(2), Weight::DEFAULT, Time::ZERO);
        s.set_warp(TaskId(2), Fixed::from_int(1_000_000_000));
        // T2 blocks; T1 runs a while.
        let first = s.pick_next(CpuId(0), Time::ZERO).unwrap();
        if first == TaskId(2) {
            s.put_prev(
                first,
                Duration::from_millis(1),
                SwitchReason::Blocked,
                Time::ZERO,
            );
        } else {
            s.put_prev(
                first,
                Duration::from_millis(1),
                SwitchReason::Preempted,
                Time::ZERO,
            );
            let t2 = s.pick_next(CpuId(0), Time::ZERO).unwrap();
            assert_eq!(t2, TaskId(2));
            s.put_prev(
                t2,
                Duration::from_millis(1),
                SwitchReason::Blocked,
                Time::ZERO,
            );
        }
        for _ in 0..5 {
            let id = s.pick_next(CpuId(0), Time::ZERO).unwrap();
            assert_eq!(id, TaskId(1));
            s.put_prev(
                id,
                Duration::from_millis(1),
                SwitchReason::Preempted,
                Time::ZERO,
            );
        }
        // On wakeup the warped task is dispatched first.
        s.wake(TaskId(2), Time::ZERO);
        assert_eq!(s.pick_next(CpuId(0), Time::ZERO), Some(TaskId(2)));
    }

    #[test]
    fn readjustment_clamps_on_smp() {
        let mut sim = MiniSim::new(Bvt::with_config(
            2,
            BvtConfig {
                readjust: true,
                ..BvtConfig::default()
            },
        ));
        sim.spawn(1, 1);
        sim.spawn(2, 10);
        sim.run_quanta(400);
        assert_close(sim.ratio(2, 1), 1.0, 0.02, "clamped 1:1");
    }
}
