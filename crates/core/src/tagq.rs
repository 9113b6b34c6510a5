//! The tag-queue core shared by SFQ, WFQ, stride and BVT.
//!
//! The paper groups these four as instantiations of one GPS idea
//! (§1.2): keep a tag per thread, run the runnable thread with the
//! minimum tag, advance the tag of whoever ran by `q / φ`, and never
//! let a thread that slept or just arrived start behind the rest (its
//! tag is floored at the minimum over the runnable set). They differ
//! only in the tag arithmetic, which a [`TagPolicy`] states; everything
//! else lives here once, in [`TagQueue`]:
//!
//! * the task table ([`TaskMap`]) and the Ready / Running / Blocked /
//!   exited state machine behind the [`Scheduler`] events;
//! * the §2.1 readjustment tracker ([`FeasibleWeights`]), re-run on
//!   every runnable-set change, whose `φ` the policy's `charge` sees;
//! * the run queue, an [`IndexedList`] of ready *and* running tasks
//!   ordered by the policy's queue key, so a pick is the first `Ready`
//!   entry from the head;
//! * the floor: the queue head where the floor tag *is* the queue key
//!   (SFQ start tags, stride passes), otherwise a [`KeyCounter`] of the
//!   runnable floor keys (WFQ orders by finish tag but floors at the
//!   minimum start tag; BVT orders by effective but floors at actual
//!   virtual time), and the floor remembered for an idle machine;
//! * the `SchedStats` merge and the structural invariant check.
//!
//! One event probes the task table once: the entry is fetched, the
//! policy rewrites its tags in place, and the queues are updated from
//! the same borrow.

use std::fmt;

use crate::feasible::FeasibleWeights;
use crate::fixed::Fixed;
use crate::queues::{IndexedList, KeyCounter, NodeRef, Order};
use crate::sched::{SchedStats, Scheduler, SwitchReason};
use crate::task::{CpuId, TaskId, TaskState, Weight};
use crate::taskmap::TaskMap;
use crate::time::{Duration, Time};

/// Configuration shared by the tag-queue policies (SFQ, WFQ, stride,
/// BVT).
#[derive(Debug, Clone)]
pub struct TagConfig {
    /// Maximum quantum granted per dispatch. WFQ also uses it as the
    /// expected quantum behind its finish tags, stride as the length
    /// one full stride pays for.
    pub quantum: Duration,
    /// Apply the weight readjustment algorithm (§2.1). Off reproduces
    /// the unmodified GPS baselines (Example 1, Fig. 4a).
    pub readjust: bool,
}

impl Default for TagConfig {
    fn default() -> TagConfig {
        TagConfig {
            quantum: Duration::from_millis(200),
            readjust: false,
        }
    }
}

/// Which floor a policy remembers for the time nothing is runnable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdleFloor {
    /// The tag `charge` returned for the task that emptied the queue
    /// (SFQ and WFQ: the last finish tag).
    Finish,
    /// The floor at the most recent pick (stride's global pass).
    Pick,
    /// The floor at the most recent wakeup (BVT's scheduler virtual
    /// time).
    Wake,
}

/// The tag arithmetic that distinguishes one tag-queue policy from
/// another. Implementors are stateless markers; every function is a
/// pure rule over one task's tags.
pub trait TagPolicy {
    /// Per-task tag state.
    type Tags: fmt::Debug + Clone + Send;

    /// `Scheduler::name` without and with readjustment.
    const NAMES: [&'static str; 2];

    /// When the idle floor is remembered.
    const IDLE_FLOOR: IdleFloor;

    /// Whether a wakeup preempts a running task whose queue key, once
    /// charged its in-flight time, is behind the woken task's.
    const WAKE_PREEMPTS: bool = false;

    /// Whether the floor is a virtual time in the §2.3 sense, reported
    /// by `Scheduler::virtual_time`. Needs `floor_key` to be the queue
    /// key.
    const VIRTUAL_TIME: bool = false;

    /// Tags of a task arriving at `floor`. `phi` is its instantaneous
    /// weight with the task already in the runnable set.
    fn arrive(floor: Fixed, phi: Fixed, quantum: Duration) -> Self::Tags;

    /// A blocked task becomes runnable at `floor`; `phi` as in `arrive`.
    fn wake(tags: &mut Self::Tags, floor: Fixed, phi: Fixed, quantum: Duration);

    /// The task ran for `ran` at weight `phi`. `requeue` tells whether
    /// it stays runnable (preempted or yielded) and so needs its next
    /// queue key. Returns the task's tag after the charge, which
    /// [`IdleFloor::Finish`] remembers.
    fn charge(
        tags: &mut Self::Tags,
        phi: Fixed,
        ran: Duration,
        quantum: Duration,
        requeue: bool,
    ) -> Fixed;

    /// The tag the run queue is ordered by (ascending).
    fn queue_key(tags: &Self::Tags) -> Fixed;

    /// The tag arrivals and wakeups are floored at, when it is not the
    /// queue key.
    fn floor_key(_tags: &Self::Tags) -> Option<Fixed> {
        None
    }
}

#[derive(Debug)]
struct Entry<T> {
    weight: Weight,
    state: TaskState,
    /// The task's run-queue node while it is ready or running.
    node: Option<NodeRef>,
    tags: T,
}

/// A GPS-style scheduler: the run-the-minimum-tag machinery, with the
/// tag arithmetic supplied by `P`.
pub struct TagQueue<P: TagPolicy> {
    cfg: TagConfig,
    cpus: u32,
    tasks: TaskMap<Entry<P::Tags>>,
    feas: FeasibleWeights,
    /// Ready and running tasks by `P::queue_key`.
    queue: IndexedList,
    /// `P::floor_key` of every ready and running task; stays empty for
    /// policies whose floor key is the queue key.
    floor_keys: KeyCounter,
    /// The floor while nothing is runnable (see [`IdleFloor`]).
    idle_floor: Fixed,
    stats: SchedStats,
}

impl<P: TagPolicy> TagQueue<P> {
    /// The policy without readjustment and with the default quantum.
    pub fn new(cpus: u32) -> TagQueue<P> {
        TagQueue::with_config(cpus, TagConfig::default())
    }

    /// The policy with the weight readjustment algorithm enabled.
    pub fn with_readjustment(cpus: u32) -> TagQueue<P> {
        TagQueue::with_config(
            cpus,
            TagConfig {
                readjust: true,
                ..TagConfig::default()
            },
        )
    }

    /// The policy with explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is zero.
    #[expect(clippy::disallowed_methods, reason = "the core owns the queue")]
    pub fn with_config(cpus: u32, cfg: TagConfig) -> TagQueue<P> {
        assert!(cpus > 0, "need at least one processor");
        TagQueue {
            cpus,
            tasks: TaskMap::new(),
            feas: FeasibleWeights::new(cpus, cfg.readjust),
            queue: IndexedList::new(Order::Ascending),
            floor_keys: KeyCounter::new(),
            idle_floor: Fixed::ZERO,
            stats: SchedStats::default(),
            cfg,
        }
    }

    /// Immutable view of a task's tags, for tests and tracing.
    pub fn tags_of(&self, id: TaskId) -> Option<&P::Tags> {
        self.tasks.get(&id).map(|e| &e.tags)
    }

    /// Mutable view of a task's tags, for policy parameters that live
    /// beside them. The caller must not change a runnable task's keys.
    pub(crate) fn tags_mut(&mut self, id: TaskId) -> Option<&mut P::Tags> {
        self.tasks.get_mut(&id).map(|e| &mut e.tags)
    }

    /// Minimum floor key over the runnable set, or the remembered idle
    /// floor when nothing is runnable.
    fn floor(&self) -> Fixed {
        self.floor_keys
            .min()
            .or_else(|| self.queue.head().map(|(k, _)| k))
            .unwrap_or(self.idle_floor)
    }
}

impl<P: TagPolicy> Scheduler for TagQueue<P> {
    fn name(&self) -> &'static str {
        P::NAMES[usize::from(self.cfg.readjust)]
    }

    fn cpus(&self) -> u32 {
        self.cpus
    }

    fn attach(&mut self, id: TaskId, w: Weight, _now: Time) {
        assert!(!self.tasks.contains_key(&id), "task {id} attached twice");
        self.stats.events += 1;
        // "Newly arriving threads are assigned the minimum value of S_i
        // over all runnable threads" (Example 1).
        let floor = self.floor();
        self.feas.insert(id, w);
        let tags = P::arrive(floor, self.feas.phi(id, w), self.cfg.quantum);
        if let Some(k) = P::floor_key(&tags) {
            self.floor_keys.insert(k);
        }
        let node = self.queue.insert(P::queue_key(&tags), id);
        self.tasks.insert(
            id,
            Entry {
                weight: w,
                state: TaskState::Ready,
                node: Some(node),
                tags,
            },
        );
    }

    fn detach(&mut self, id: TaskId, _now: Time) {
        self.stats.events += 1;
        let e = self.tasks.remove(&id).expect("detach of unknown task");
        assert!(!e.state.is_running(), "detach of running task {id}");
        if let Some(node) = e.node {
            if let Some(k) = P::floor_key(&e.tags) {
                self.floor_keys.remove(k);
            }
            self.queue.remove(node);
            self.feas.remove(id, e.weight);
        }
    }

    fn set_weight(&mut self, id: TaskId, w: Weight, _now: Time) {
        let e = self.tasks.get_mut(&id).expect("reweighting unknown task");
        let old = e.weight;
        if old == w {
            return;
        }
        self.stats.events += 1;
        e.weight = w;
        if e.state.is_runnable() {
            self.feas.set_weight(id, old, w);
        }
    }

    fn weight_of(&self, id: TaskId) -> Option<Weight> {
        self.tasks.get(&id).map(|e| e.weight)
    }

    fn adjusted_weight_of(&self, id: TaskId) -> Option<Fixed> {
        let e = self.tasks.get(&id)?;
        Some(self.feas.phi(id, e.weight))
    }

    fn wake(&mut self, id: TaskId, _now: Time) {
        self.stats.events += 1;
        let floor = self.floor();
        if P::IDLE_FLOOR == IdleFloor::Wake {
            self.idle_floor = floor;
        }
        let e = self.tasks.get_mut(&id).expect("waking unknown task");
        assert!(matches!(e.state, TaskState::Blocked));
        self.feas.insert(id, e.weight);
        let phi = self.feas.phi(id, e.weight);
        P::wake(&mut e.tags, floor, phi, self.cfg.quantum);
        e.state = TaskState::Ready;
        if let Some(k) = P::floor_key(&e.tags) {
            self.floor_keys.insert(k);
        }
        e.node = Some(self.queue.insert(P::queue_key(&e.tags), id));
    }

    fn pick_next(&mut self, cpu: CpuId, _now: Time) -> Option<TaskId> {
        let picked = self.queue.iter().find_map(|(_, id)| {
            let e = self.tasks.get_mut(&id).expect("queued task has an entry");
            matches!(e.state, TaskState::Ready).then(|| {
                e.state = TaskState::Running(cpu);
                id
            })
        })?;
        if P::IDLE_FLOOR == IdleFloor::Pick {
            self.idle_floor = self.floor();
        }
        self.stats.picks += 1;
        Some(picked)
    }

    fn put_prev(&mut self, id: TaskId, ran: Duration, reason: SwitchReason, _now: Time) {
        self.stats.events += 1;
        let e = self.tasks.get_mut(&id).expect("put_prev of unknown task");
        assert!(e.state.is_running(), "put_prev of non-running {id}");
        let node = e.node.expect("running task has a queue node");
        let w = e.weight;
        let old_floor = P::floor_key(&e.tags);
        let requeue = reason.still_runnable();
        let phi = self.feas.phi(id, w);
        let finish = P::charge(&mut e.tags, phi, ran, self.cfg.quantum, requeue);
        if requeue {
            e.state = TaskState::Ready;
            if let (Some(old), Some(new)) = (old_floor, P::floor_key(&e.tags)) {
                self.floor_keys.update(old, new);
            }
            self.queue.update_key(node, P::queue_key(&e.tags));
        } else {
            if reason == SwitchReason::Blocked {
                e.state = TaskState::Blocked;
                e.node = None;
            } else {
                self.tasks.remove(&id);
            }
            if let Some(old) = old_floor {
                self.floor_keys.remove(old);
            }
            self.queue.remove(node);
            self.feas.remove(id, w);
            if P::IDLE_FLOOR == IdleFloor::Finish && self.queue.is_empty() {
                self.idle_floor = finish;
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
        if !P::WAKE_PREEMPTS {
            return false;
        }
        let (Some(we), Some(re)) = (self.tasks.get(&woken), self.tasks.get(&running)) else {
            return false;
        };
        if !matches!(we.state, TaskState::Ready) || !re.state.is_running() {
            return false;
        }
        // Charge the running thread its in-flight time before comparing.
        let mut charged = re.tags.clone();
        let phi = self.feas.phi(running, re.weight);
        P::charge(&mut charged, phi, ran_so_far, self.cfg.quantum, true);
        P::queue_key(&we.tags) < P::queue_key(&charged)
    }

    fn nr_runnable(&self) -> usize {
        self.queue.len()
    }

    fn nr_tasks(&self) -> usize {
        self.tasks.len()
    }

    fn stats(&self) -> SchedStats {
        let mut s = self.stats;
        s.readjust_calls = self.feas.calls;
        s.weights_clamped = self.feas.clamps;
        s.event_steps = self.queue.steps() + self.floor_keys.steps() + self.feas.event_steps();
        s
    }

    fn virtual_time(&self) -> Option<Fixed> {
        P::VIRTUAL_TIME.then(|| self.floor())
    }

    /// Every ready or running task has exactly one queue node, keyed by
    /// its current `queue_key`; no blocked task has one; the readjustment
    /// tracker and the floor keys cover exactly the runnable set.
    fn check_invariants(&self) {
        self.queue.check_invariants();
        let mut floor_keys = std::collections::BTreeMap::new();
        let mut runnable = 0;
        for (id, e) in self.tasks.iter() {
            match e.node {
                Some(node) => {
                    assert!(e.state.is_runnable(), "blocked task {id} is queued");
                    let key = P::queue_key(&e.tags);
                    assert_eq!(self.queue.key(node), key, "stale queue key for {id}");
                    runnable += 1;
                    if let Some(k) = P::floor_key(&e.tags) {
                        *floor_keys.entry(k).or_insert(0u32) += 1;
                    }
                }
                None => assert!(!e.state.is_runnable(), "runnable task {id} not queued"),
            }
        }
        assert_eq!(self.queue.len(), runnable, "queue nodes vs runnable tasks");
        assert_eq!(
            self.queue.len(),
            self.feas.len(),
            "queue vs readjustment set"
        );
        let mut queued: Vec<TaskId> = self.queue.iter().map(|(_, id)| id).collect();
        queued.sort_unstable();
        queued.dedup();
        assert_eq!(queued.len(), runnable, "a task is queued twice");
        for id in queued {
            assert!(
                self.tasks[&id].node.is_some(),
                "{id} queued but not runnable"
            );
        }
        assert!(
            self.floor_keys.iter().eq(floor_keys),
            "floor keys drifted from the runnable set"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bvt::Bvt;
    use crate::sfq::Sfq;
    use crate::wfq::Wfq;

    fn two_tasks<P: TagPolicy>() -> TagQueue<P> {
        let mut s = TagQueue::<P>::new(2);
        s.attach(TaskId(1), Weight::DEFAULT, Time::ZERO);
        s.attach(TaskId(2), Weight::DEFAULT, Time::ZERO);
        s.check_invariants();
        s
    }

    #[test]
    #[should_panic(expected = "stale queue key")]
    fn invariants_catch_a_stale_queue_key() {
        let mut s: Sfq = two_tasks();
        s.tags_mut(TaskId(1)).unwrap().start_tag += Fixed::from_int(1);
        s.check_invariants();
    }

    #[test]
    #[should_panic(expected = "floor keys drifted")]
    fn invariants_catch_a_drifted_floor_key() {
        // The queue key (finish tag) is intact; only the start tag the
        // floor counter mirrors has moved.
        let mut s: Wfq = two_tasks();
        s.tags_mut(TaskId(2)).unwrap().start_tag += Fixed::from_int(1);
        s.check_invariants();
    }

    #[test]
    #[should_panic(expected = "not queued")]
    fn invariants_catch_a_lost_queue_node() {
        let mut s: Bvt = two_tasks();
        s.tasks.get_mut(&TaskId(1)).unwrap().node = None;
        s.check_invariants();
    }

    #[test]
    fn every_event_keeps_the_invariants_with_a_split_floor() {
        let mut s: Wfq = two_tasks();
        let q = Duration::from_millis(3);
        let a = s.pick_next(CpuId(0), Time::ZERO).unwrap();
        let b = s.pick_next(CpuId(1), Time::ZERO).unwrap();
        assert_eq!(s.pick_next(CpuId(0), Time::ZERO), None);
        s.put_prev(a, q, SwitchReason::Preempted, Time::ZERO);
        s.check_invariants();
        s.put_prev(b, q, SwitchReason::Blocked, Time::ZERO);
        s.check_invariants();
        assert_eq!((s.nr_runnable(), s.nr_tasks()), (1, 2));
        s.set_weight(b, Weight::new(4).unwrap(), Time::ZERO);
        s.wake(b, Time::ZERO);
        s.check_invariants();
        s.detach(a, Time::ZERO);
        s.check_invariants();
        let b2 = s.pick_next(CpuId(0), Time::ZERO).unwrap();
        s.put_prev(b2, q, SwitchReason::Exited, Time::ZERO);
        s.check_invariants();
        assert_eq!((s.nr_runnable(), s.nr_tasks()), (0, 0));
    }
}
