//! A userspace gang scheduler running real OS threads.
//!
//! The executor emulates the paper's kernel environment in user space:
//! `p` *virtual processors* gate which OS threads may run. A task runs
//! only while it holds a virtual CPU; the policy (any
//! [`sfs_core::sched::Scheduler`]) decides who holds one. Preemption is
//! cooperative at *checkpoints*: a timer thread raises a per-task
//! preempt flag when the quantum expires, and the task's next
//! [`TaskCtx::checkpoint`] call enters the scheduler — the userspace
//! analogue of a timer interrupt hitting at the next instruction
//! boundary. Blocking I/O is modelled by [`TaskCtx::block_for`], which
//! releases the virtual CPU for the sleep duration.
//!
//! # Lock structure
//!
//! The machine is split into run-queue *shards* (one by default — the
//! paper's global queue — or per [`PolicySpec`] `shards=N`). Each shard
//! owns a contiguous CPU range, its own policy instance and its own
//! mutex, so quantum expiry, yields and picks on different shards never
//! contend. A single small *global section* serializes only what is
//! inherently machine-wide: task placement on arrival and wakeup, the
//! §2.1 weight readjustment (published to SFS shards through the
//! lock-free epoch snapshot of [`sfs_core::shard`]), and the periodic
//! surplus rebalance that migrates ready tasks off overloaded shards.
//! Lock order is global → shard, shards in ascending index; the hot
//! still-runnable path (checkpoint preemption, yield) takes only its
//! own shard lock.
//!
//! A dispatch decides and records its grants under the shard lock but
//! wakes no thread there: the granted tasks queue in a `Wakeups` that
//! delivers them once the caller has released every scheduler lock (the
//! Linux scheduler's deferred `wake_q`). On one core, a thread woken
//! under a lock preempts its waker and then convoys on the lock the
//! waker still holds; woken after the unlock, it finds every lock free.
//!
//! Each scheduler entry reads the clock once, under its shard lock, for
//! every stop, pick and charge it makes, so one slice ends where the
//! next begins. Task threads are pooled: an exiting task parks its OS
//! thread for the next spawn, so thread-locals outlive their task.
//!
//! This substrate is what the overhead experiments (Table 1, Fig. 7),
//! the shard guard in `tests/perf_guards.rs` and the `benchmark/`
//! `rt_ring` workload measure: every scheduler entry takes the
//! same locks and runs the same policy code a kernel implementation
//! would, so the *relative* costs of SFS vs time sharing — and of one
//! global lock vs per-shard locks — are preserved, even though the
//! absolute numbers are userspace numbers.
#![deny(clippy::unwrap_used)]

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Instant;

use parking_lot::Condvar;
use sfs_analyze::lockorder::{assert_no_lock_held, lock_pair, rank, OrderedGuard, OrderedMutex};
use sfs_core::admit::{AdmissionControl, AdmissionPolicy, RejectReason};
use sfs_core::policy::PolicySpec;
use sfs_core::sched::{select_preemption_victim, SchedStats, Scheduler, SwitchReason};
use sfs_core::shard::{Balancer, ShardLayout, ShardedScheduler};
use sfs_core::task::{CpuId, TaskId, TenantId, Weight};
use sfs_core::taskmap::TaskMap;
use sfs_core::time::{Duration, Time};
use sfs_trace::{CounterTrack, MigrateKind, TraceEvent, TraceRecorder};

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct RtConfig {
    /// Number of virtual processors.
    pub cpus: u32,
    /// How often the timer thread scans for expired quanta.
    pub timer_interval: Duration,
}

impl Default for RtConfig {
    fn default() -> RtConfig {
        RtConfig {
            cpus: 2,
            timer_interval: Duration::from_millis(1),
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct CpuSlot {
    current: Option<TaskId>,
    dispatched_at: Time,
    slice: Duration,
    /// The task this CPU most recently ran — `switches` counts only
    /// grants to a *different* task, matching the sim's definition of a
    /// context switch (idle gaps do not reset the memory).
    last_task: Option<TaskId>,
}

struct RtTask {
    id: TaskId,
    /// Tenant group the task attached under (admission buckets and
    /// hierarchical accounting).
    tenant: Option<TenantId>,
    /// The task holds an admission slot that must be released on exit.
    admitted: bool,
    /// The shard this task currently belongs to. Running and blocked
    /// tasks are never migrated, so a task reading its own index while
    /// it holds (or is about to re-check) a CPU sees a stable value;
    /// ready tasks are migrated only under both shard locks.
    shard: AtomicUsize,
    /// Raised by the timer thread or a wakeup preemption; consumed at
    /// the next checkpoint.
    preempt: AtomicBool,
    /// Total CPU service in nanoseconds.
    service_ns: AtomicU64,
    /// "You hold a virtual CPU" flag, guarded by its own mutex so a
    /// parked thread can wait on it without any scheduler lock. Rank
    /// `granted` sits below every scheduler lock and is taken with none
    /// held: set by [`Wakeups`], consumed by `wait_granted`.
    granted: OrderedMutex<bool>,
    cv: Condvar,
}

impl RtTask {
    /// Signals once the flag's mutex is released, so the woken thread
    /// never waits on it.
    fn grant(&self) {
        *self.granted.lock() = true;
        self.cv.notify_one();
    }

    /// Parks until a grant arrives, and consumes it.
    fn wait_granted(&self) {
        let mut g = self.granted.lock();
        while !*g {
            g.wait(&self.cv);
        }
        *g = false;
    }
}

/// A task body and its exit bookkeeping, sent to a pooled thread.
type Job = Box<dyn FnOnce() + Send>;

/// A task thread and the queue it takes its next job from.
struct Worker {
    jobs: mpsc::Sender<Job>,
    thread: thread::JoinHandle<()>,
}

impl Worker {
    fn spawn() -> Worker {
        let (jobs, queue) = mpsc::channel::<Job>();
        let thread = thread::Builder::new()
            .name("sfs-rt-task".into())
            .spawn(move || queue.into_iter().for_each(|job| job()))
            .expect("spawning task thread"); // invariant: OS thread-spawn failure is fatal
        Worker { jobs, thread }
    }
}

thread_local! {
    /// The calling thread's recycled [`Wakeups`] buffer.
    static WAKE_BUF: Cell<Vec<Arc<RtTask>>> = const { Cell::new(Vec::new()) };
}

/// The grants [`Inner::dispatch`] queued, delivered on drop. Declared
/// before a scope's first lock guard, it drops after the last one (on
/// unwinding too, so a panic never strands a grant).
struct Wakeups(Vec<Arc<RtTask>>);

impl Wakeups {
    fn new() -> Wakeups {
        Wakeups(WAKE_BUF.take())
    }
}

impl Drop for Wakeups {
    fn drop(&mut self) {
        for task in self.0.drain(..) {
            task.grant();
        }
        WAKE_BUF.set(std::mem::take(&mut self.0));
        assert_no_lock_held();
    }
}

/// One run-queue shard: a policy instance over a contiguous CPU range,
/// behind its own mutex.
struct ShardCore {
    /// This shard's index (for heartbeat and watchdog accounting).
    index: usize,
    sched: Box<dyn Scheduler>,
    /// Local CPU slots; machine CPU id = `cpu_base + local index`.
    cpus: Vec<CpuSlot>,
    /// First machine-wide CPU id of this shard (trace events report
    /// machine ids, not shard-local slots).
    cpu_base: u32,
    tasks: TaskMap<Arc<RtTask>>,
    /// Tasks currently blocked in this shard (event or timed sleep).
    /// With a balancer present, mutations additionally require the
    /// global lock, so wake/placement decisions are race-free.
    blocked: TaskMap<()>,
    switches: u64,
    /// Scratch for [`Inner::flag_wake_preemption`], reused across wakes.
    candidates: Vec<(usize, TaskId, Duration)>,
}

impl ShardCore {
    fn task(&self, id: TaskId) -> &Arc<RtTask> {
        // invariant: ids come from this shard's own slots/queues, and
        // task-map transfer happens under both shard locks.
        self.tasks.get(&id).expect("unknown task id")
    }

    fn slot_of(&self, id: TaskId) -> Option<usize> {
        self.cpus.iter().position(|c| c.current == Some(id))
    }
}

/// The global section: placement, machine-wide readjustment and task
/// lifetime accounting. Deliberately small — the pick/requeue hot path
/// never touches it.
struct Global {
    /// Placement + global feasibility; `None` for a single shard.
    bal: Option<Balancer>,
    /// Task threads parked by exited tasks, popped by the next spawn.
    idle: Vec<Worker>,
    next_id: u64,
    live: usize,
    /// Admission control state (a spec's `admit(...)` clause), or
    /// `None` to admit everything.
    admit: Option<AdmissionControl>,
}

struct Inner {
    cfg: RtConfig,
    /// Rank `shard.i`: acquired after `global`, in ascending index
    /// order (see [`sfs_analyze::lockorder::rank`]).
    shards: Vec<OrderedMutex<ShardCore>>,
    /// Rank `global`: above every shard lock — placement, readjustment
    /// and rebalance take it first.
    global: OrderedMutex<Global>,
    /// Interval of the timer thread's rebalance pass (sharded only).
    rebalance_every: Duration,
    idle_cv: Condvar,
    epoch: Instant,
    shutdown: AtomicBool,
    stop_requested: AtomicBool,
    steals: AtomicU64,
    rebalances: AtomicU64,
    wake_migrations: AtomicU64,
    /// Per-shard scheduler-progress counters (bumped on every grant and
    /// every stop): the watchdog's heartbeat. A shard whose heartbeat
    /// does not move while work is waiting is stalled.
    heartbeats: Vec<AtomicU64>,
    /// Injected extra delay (ns) consumed by the timer thread's next
    /// tick — deterministic timer-jitter fault injection.
    timer_jitter: AtomicU64,
    /// Task bodies that panicked and were forcibly reaped.
    reaped: AtomicU64,
    /// Watchdog activations (stalled-shard recoveries).
    watchdogs: AtomicU64,
    /// Scheduler invariant checks that failed during panic recovery.
    invariant_violations: AtomicU64,
    /// Event recorder; off by default, so every hook below is a single
    /// relaxed atomic load on the hot path.
    trace: TraceRecorder,
}

impl Inner {
    fn now(&self) -> Time {
        Time(u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }

    fn sharded(&self) -> bool {
        self.shards.len() > 1
    }

    /// Locks the shard a task currently belongs to, revalidating the
    /// index after acquisition (a ready task may migrate between the
    /// load and the lock).
    fn lock_own_shard(&self, task: &RtTask) -> (usize, OrderedGuard<'_, ShardCore>) {
        loop {
            let s = task.shard.load(Ordering::Acquire);
            let guard = self.shards[s].lock();
            if task.shard.load(Ordering::Acquire) == s {
                return (s, guard);
            }
        }
    }

    /// Fills idle virtual CPUs of one shard, queueing each grant on
    /// `wakes`. Caller holds its lock.
    fn dispatch(&self, core: &mut ShardCore, wakes: &mut Wakeups, now: Time) {
        for i in 0..core.cpus.len() {
            if core.cpus[i].current.is_some() {
                continue;
            }
            let Some(next) = core.sched.pick_next(CpuId(i as u32), now) else {
                continue;
            };
            let slice = core.sched.time_slice(next);
            let switching = core.cpus[i].last_task != Some(next);
            if switching {
                core.switches += 1;
            }
            if self.trace.on() {
                let t = now.as_nanos();
                let cpu = core.cpu_base + i as u32;
                if switching {
                    self.trace.emit(TraceEvent::CtxSwitch {
                        t,
                        cpu,
                        from: core.cpus[i].last_task,
                        to: next,
                    });
                }
                self.trace
                    .emit(TraceEvent::SliceBegin { t, cpu, task: next });
            }
            core.cpus[i] = CpuSlot {
                current: Some(next),
                dispatched_at: now,
                slice,
                last_task: Some(next),
            };
            // relaxed: monotonic progress beacon; the watchdog only
            // compares successive reads of the same counter.
            self.heartbeats[core.index].fetch_add(1, Ordering::Relaxed);
            let task = core.task(next).clone();
            task.preempt.store(false, Ordering::Release);
            wakes.0.push(task);
        }
    }

    /// Removes `id` from its virtual CPU, charging actual usage.
    /// Caller holds the shard lock (and the global lock when the
    /// reason leaves the runnable set and a balancer exists — the
    /// caller also updates the balancer).
    fn stop_running(&self, core: &mut ShardCore, id: TaskId, reason: SwitchReason, now: Time) {
        // invariant: every caller either found `id` on a CPU under
        // this same lock or holds the slot it granted it.
        let slot = core.slot_of(id).expect("task not on any cpu");
        let since = core.cpus[slot].dispatched_at;
        debug_assert!(now >= since, "clock read before the shard lock");
        let used = now.since(since);
        core.cpus[slot].current = None;
        core.task(id)
            .service_ns
            .fetch_add(used.as_nanos(), Ordering::Relaxed); // relaxed: stats accumulator; readers only need a recent total
        if reason == SwitchReason::Blocked {
            core.blocked.insert(id, ());
        }
        core.sched.put_prev(id, used, reason, now);
        // relaxed: monotonic progress beacon; the watchdog only
        // compares successive reads of the same counter.
        self.heartbeats[core.index].fetch_add(1, Ordering::Relaxed);
        if self.trace.on() {
            let t = now.as_nanos();
            self.trace.emit(TraceEvent::SliceEnd {
                t,
                cpu: core.cpu_base + slot as u32,
                task: id,
                reason,
            });
            if let Some(tenant) = core.sched.tenant_of(id) {
                self.trace.add_tenant_service(t, tenant, used.as_nanos());
            }
        }
    }

    /// If `woken` did not get a CPU, flags the *worst* eligible running
    /// task of this shard for preemption: among every CPU whose running
    /// task loses to the woken one, the one with the largest charged
    /// surplus (the old code flagged the first eligible CPU, evicting
    /// near-ties while far-worse tasks kept running).
    fn flag_wake_preemption(&self, core: &mut ShardCore, woken: TaskId, now: Time) {
        if core.slot_of(woken).is_some() {
            return;
        }
        core.candidates.clear();
        core.candidates
            .extend(core.cpus.iter().enumerate().filter_map(|(i, slot)| {
                slot.current
                    .map(|id| (i, id, now.since(slot.dispatched_at)))
            }));
        if let Some((slot, victim)) =
            select_preemption_victim(core.sched.as_ref(), woken, &core.candidates, now)
        {
            if self.trace.on() {
                self.trace.emit(TraceEvent::PreemptEvict {
                    t: now.as_nanos(),
                    cpu: core.cpu_base + slot as u32,
                    victim,
                    by: woken,
                });
            }
            core.task(victim).preempt.store(true, Ordering::Release);
        }
    }

    /// Moves a ready (or still-blocked, at wake migration) task between
    /// two locked shards: policy detach/attach, task-map transfer, and
    /// the task's shard index. Balancer accounting is the caller's
    /// (steals call [`Balancer::migrate`]; wake placement was already
    /// accounted by [`Balancer::wake`]).
    fn move_task_locked(
        &self,
        from: &mut ShardCore,
        to_idx: usize,
        to: &mut ShardCore,
        id: TaskId,
        now: Time,
    ) {
        // invariant: migration candidates come from `from`'s own
        // policy under its lock; attach/detach and the task map move
        // together under both shard locks.
        let w = from.sched.weight_of(id).expect("migrating stranger");
        from.sched.detach(id, now);
        let arc = from.tasks.remove(&id).expect("task map out of sync"); // invariant: same lock scope as above
        arc.shard.store(to_idx, Ordering::Release);
        to.tasks.insert(id, arc);
        to.sched.attach(id, w, now);
    }

    /// Steal-on-idle (sharded only; caller holds the global lock):
    /// after a blocking or exit event leaves shard `s` with an idle
    /// CPU, pull the highest-surplus ready task from the most loaded
    /// shard that can spare one — the same cross-shard work
    /// conservation the sim substrate's `ShardedScheduler::pick_next`
    /// has, without waiting for the next periodic rebalance tick. The
    /// donor and the task are [`Balancer::plan_steal`]'s decision.
    fn steal_on_idle(&self, global: &mut Global, s: usize, wakes: &mut Wakeups) {
        let Some(bal) = global.bal.as_mut() else {
            return;
        };
        // The probed donor's lock and `s`'s, held from one probe until
        // the next (or the move).
        let mut held = None;
        let mut filled = false;
        let plan = bal.plan_steal(s, |o| {
            held = None;
            if filled {
                return None; // the idle CPU was filled in the meantime
            }
            let (f, t) = lock_pair(&self.shards[o], &self.shards[s]);
            filled = t.cpus.iter().all(|c| c.current.is_some());
            // Never drain a shard below its own processor count.
            let spare = !filled && f.sched.nr_runnable() > f.cpus.len();
            let id = spare.then(|| f.sched.steal_candidate()).flatten();
            held = Some((f, t));
            id
        });
        let (Some((id, o)), Some((mut f, mut t))) = (plan, held) else {
            return;
        };
        bal.migrate(id, s);
        let now = self.now();
        self.move_task_locked(&mut f, s, &mut t, id, now);
        drop(f);
        if self.trace.on() {
            self.trace.emit(TraceEvent::Migrate {
                t: now.as_nanos(),
                task: id,
                from_shard: o as u32,
                to_shard: s as u32,
                kind: MigrateKind::Steal,
            });
        }
        self.dispatch(&mut t, wakes, now);
        self.flag_wake_preemption(&mut t, id, now);
        self.steals.fetch_add(1, Ordering::Relaxed); // relaxed: stats counter
    }

    /// Blocks the calling task: releases its CPU, records it blocked,
    /// and (when sharded) removes it from the global runnable set and
    /// offers the freed CPU a stolen task — unless `cancel`, asked once
    /// the locks are held, calls it off. Returns whether the task
    /// blocked; if so the caller parks on `wait_granted` afterwards.
    fn block_current(&self, task: &Arc<RtTask>, cancel: impl FnOnce() -> bool) -> bool {
        let mut wakes = Wakeups::new();
        let mut global = self.sharded().then(|| self.global.lock());
        let (s, mut core) = self.lock_own_shard(task);
        if cancel() {
            return false;
        }
        let now = self.now();
        self.stop_running(&mut core, task.id, SwitchReason::Blocked, now);
        if let Some(bal) = global.as_mut().and_then(|g| g.bal.as_mut()) {
            bal.block(task.id);
        }
        self.dispatch(&mut core, &mut wakes, now);
        let idle = core.cpus.iter().any(|c| c.current.is_none());
        drop(core);
        if idle {
            if let Some(g) = global.as_mut() {
                self.steal_on_idle(g, s, &mut wakes);
            }
        }
        true
    }

    /// Wakes a blocked task, letting the balancer place it (sticky to
    /// its home shard unless that shard is overloaded). Returns `false`
    /// if the task was not blocked.
    fn wake(&self, id: TaskId) -> bool {
        let mut wakes = Wakeups::new();
        let mut global = self.sharded().then(|| self.global.lock());
        // Blocked tasks never migrate, and every blocked-set transition
        // holds the global lock, so the balancer's shard is the home
        // one; unsharded, there is one shard.
        let Some(home) = global
            .as_ref()
            .map_or(Some(0), |g| g.bal.as_ref()?.shard_of(id))
        else {
            return false;
        };
        let mut core = self.shards[home].lock();
        let now = self.now();
        if !core.blocked.contains_key(&id) {
            return false;
        }
        let target = global.as_mut().map_or(home, |g| {
            // invariant: sharded executors are always constructed with
            // a balancer (from_parts).
            let bal = g.bal.as_mut().expect("sharded executor has balancer");
            bal.wake(id).1
        });
        if self.trace.on() {
            self.trace.emit(TraceEvent::Wake {
                t: now.as_nanos(),
                task: id,
            });
            if target != home {
                self.trace.emit(TraceEvent::Migrate {
                    t: now.as_nanos(),
                    task: id,
                    from_shard: home as u32,
                    to_shard: target as u32,
                    kind: MigrateKind::Wake,
                });
            }
        }
        if target == home {
            core.blocked.remove(&id);
            core.sched.wake(id, now);
            self.dispatch(&mut core, &mut wakes, now);
            self.flag_wake_preemption(&mut core, id, now);
        } else {
            // Overloaded home shard: re-admit the waker on the target
            // shard instead (fresh tags there, like any migration).
            // `Balancer::wake` already accounted the placement.
            self.wake_migrations.fetch_add(1, Ordering::Relaxed); // relaxed: stats counter
            drop(core);
            let (mut from, mut to) = lock_pair(&self.shards[home], &self.shards[target]);
            let now = self.now();
            from.blocked.remove(&id);
            self.move_task_locked(&mut from, target, &mut to, id, now);
            drop(from);
            self.dispatch(&mut to, &mut wakes, now);
            self.flag_wake_preemption(&mut to, id, now);
        }
        true
    }

    /// One surplus-rebalance pass (timer thread, sharded only):
    /// migrate highest-surplus ready tasks from overloaded to
    /// underloaded shards while each move strictly reduces the worse
    /// per-CPU load. The move decision itself is
    /// [`Balancer::plan_move`], shared with the sim substrate, so the
    /// rebalance invariant has exactly one implementation.
    fn rebalance(&self) {
        let mut wakes = Wakeups::new();
        let mut global = self.global.lock();
        let Some(bal) = global.bal.as_mut() else {
            return;
        };
        for _ in 0..self.shards.len() * 2 {
            let Some((from, to)) = bal.imbalanced_pair() else {
                break;
            };
            let (mut f, mut t) = lock_pair(&self.shards[from], &self.shards[to]);
            // Loads cannot change while we hold the global lock, so
            // the planner re-derives the same pair; the donor's
            // runnable count and candidate are read under its lock.
            let Some((id, pf, pt)) = bal.plan_move(
                |_| f.sched.nr_runnable() > f.cpus.len(),
                |_| f.sched.steal_candidate(),
            ) else {
                break;
            };
            debug_assert_eq!((pf, pt), (from, to), "loads moved under the global lock");
            bal.migrate(id, to);
            let now = self.now();
            self.move_task_locked(&mut f, to, &mut t, id, now);
            drop(f);
            if self.trace.on() {
                self.trace.emit(TraceEvent::Migrate {
                    t: now.as_nanos(),
                    task: id,
                    from_shard: from as u32,
                    to_shard: to as u32,
                    kind: MigrateKind::Rebalance,
                });
            }
            self.dispatch(&mut t, &mut wakes, now);
            self.rebalances.fetch_add(1, Ordering::Relaxed); // relaxed: stats counter
        }
    }
}

/// A handle to a spawned task, returned by [`Executor::spawn`].
pub struct TaskHandle {
    task: Arc<RtTask>,
    /// Disconnected once the task's exit bookkeeping is done.
    done: mpsc::Receiver<()>,
}

impl TaskHandle {
    /// The task's id in the scheduler.
    pub fn id(&self) -> TaskId {
        self.task.id
    }

    /// Total CPU service (virtual-CPU hold time) so far.
    pub fn service(&self) -> Duration {
        // relaxed: stats read; joiners get exactness from thread join.
        Duration::from_nanos(self.task.service_ns.load(Ordering::Relaxed))
    }

    /// Waits for the task to finish.
    pub fn join(self) {
        self.join_service();
    }

    /// Waits for the task to finish — including the scheduler
    /// bookkeeping that charges its final quantum — and returns the
    /// task's total CPU service.
    pub fn join_service(self) -> Duration {
        let _ = self.done.recv();
        // relaxed: stats read; the done signal orders the final charge.
        Duration::from_nanos(self.task.service_ns.load(Ordering::Relaxed))
    }
}

/// Context passed to every task body.
pub struct TaskCtx {
    inner: Arc<Inner>,
    task: Arc<RtTask>,
}

impl TaskCtx {
    /// The task's id.
    pub fn id(&self) -> TaskId {
        self.task.id
    }

    /// True once [`Executor::stop`] has been called; loops should exit.
    pub fn stopped(&self) -> bool {
        // relaxed: cooperative flag polled in a loop; stop() also
        // raises preempt flags under locks, which bounds the lag.
        self.inner.stop_requested.load(Ordering::Relaxed)
    }

    /// A preemption point: nearly free unless the quantum has expired,
    /// in which case the thread re-enters the scheduler and may hand its
    /// virtual CPU to another task.
    #[inline]
    pub fn checkpoint(&self) {
        if self.task.preempt.load(Ordering::Acquire) {
            self.reschedule(SwitchReason::Preempted);
        }
    }

    /// Voluntarily yields the virtual CPU (remains runnable).
    pub fn yield_now(&self) {
        self.reschedule(SwitchReason::Yielded);
    }

    /// The still-runnable requeue path: only this task's shard lock is
    /// taken — with per-shard locks, quantum expiry on one shard never
    /// contends with another shard's.
    fn reschedule(&self, reason: SwitchReason) {
        {
            let mut wakes = Wakeups::new();
            let (_, mut core) = self.inner.lock_own_shard(&self.task);
            // The flag may be stale (e.g. raised just as we blocked and
            // got re-granted); only act when we actually hold a CPU.
            if core.slot_of(self.task.id).is_none() {
                self.task.preempt.store(false, Ordering::Release);
                return;
            }
            let now = self.inner.now();
            self.inner
                .stop_running(&mut core, self.task.id, reason, now);
            self.inner.dispatch(&mut core, &mut wakes, now);
        }
        self.task.wait_granted();
    }

    /// Event blocking: atomically consumes `token` if set, otherwise
    /// blocks (releases the virtual CPU) until another task sets the
    /// token and calls [`TaskCtx::wake_task`]. Returns once the token
    /// has been consumed.
    ///
    /// Token inspection happens under the scheduler locks on both the
    /// consumer and producer sides, so no wakeup can be lost. This is
    /// the substrate for pipe-style handoffs (the lmbench `lat_ctx`
    /// analogue in [`crate::microbench`]).
    pub fn block_on_token(&self, token: &AtomicBool) {
        loop {
            // Fast path: a token set before we got here is consumed
            // without touching any scheduler lock (the early return
            // never blocks, so no wakeup can be lost).
            if token.swap(false, Ordering::AcqRel) {
                return;
            }
            // Re-check under the locks: the producer sets the token
            // before taking them on its wake path.
            let blocked = self.inner.block_current(&self.task, || {
                token.swap(false, Ordering::AcqRel)
                    // relaxed: stop is re-checked under the scheduler
                    // locks; worst case is one extra block/wake cycle.
                    || self.inner.stop_requested.load(Ordering::Relaxed)
            });
            if !blocked {
                return;
            }
            self.task.wait_granted();
        }
    }

    /// Wakes a task blocked via [`TaskCtx::block_on_token`] (or any
    /// blocked task). Returns `true` if the task was blocked. The
    /// producer must set its token *before* calling this.
    pub fn wake_task(&self, id: TaskId) -> bool {
        self.inner.wake(id)
    }

    /// Blocks (releases the virtual CPU) for the given duration — the
    /// userspace analogue of sleeping on I/O.
    #[expect(clippy::disallowed_methods, reason = "models real blocking I/O")]
    pub fn block_for(&self, d: Duration) {
        self.inner.block_current(&self.task, || false);
        thread::sleep(d.to_std());
        // `stop()` or `wake_task` may have woken us already; only
        // report the wakeup if we are still blocked.
        self.inner.wake(self.task.id);
        self.task.wait_granted();
    }
}

/// The userspace executor: `p` virtual CPUs multiplexed over real
/// threads by one or more `sfs-core` scheduling policy shards.
pub struct Executor {
    inner: Arc<Inner>,
    timer: Option<thread::JoinHandle<()>>,
}

impl Executor {
    /// Creates an executor over a single (global run queue) policy.
    ///
    /// # Panics
    ///
    /// Panics if the scheduler's CPU count differs from the config's.
    pub fn new(cfg: RtConfig, sched: Box<dyn Scheduler>) -> Executor {
        Executor::new_traced(cfg, sched, TraceRecorder::off())
    }

    /// [`Executor::new`] with an event recorder: every dispatch, slice,
    /// wake, preemption and migration of the run is emitted into `rec`
    /// (see the `sfs-trace` crate). Keep a clone of the recorder and
    /// call `finish()` after the run to collect the trace.
    ///
    /// # Panics
    ///
    /// Panics if the scheduler's CPU count differs from the config's.
    pub fn new_traced(cfg: RtConfig, sched: Box<dyn Scheduler>, rec: TraceRecorder) -> Executor {
        assert_eq!(sched.cpus(), cfg.cpus, "scheduler/machine mismatch");
        let layout = ShardLayout::new(cfg.cpus, 1);
        Executor::from_parts(cfg, layout, vec![sched], None, None, None, rec)
    }

    /// Creates an executor from a policy spec, honouring its `shards=N`
    /// option: the machine is split into per-shard policy instances
    /// behind per-shard locks, with the balancer in the global section
    /// and a periodic surplus rebalance on the timer thread. Unsharded
    /// specs behave exactly like [`Executor::new_traced`].
    pub fn from_spec_traced(cfg: RtConfig, spec: &PolicySpec, rec: TraceRecorder) -> Executor {
        let admit = spec.admission().copied();
        if spec.shard_count() <= 1 {
            // `spec.build` keeps the scheduler identical to the sim
            // substrate's — for `shards=1` that is the one-shard
            // wrapper (named e.g. "SFS(sharded)"), behind one lock.
            let sched = spec.build(cfg.cpus);
            assert_eq!(sched.cpus(), cfg.cpus, "scheduler/machine mismatch");
            let layout = ShardLayout::new(cfg.cpus, 1);
            return Executor::from_parts(cfg, layout, vec![sched], None, None, admit, rec);
        }
        let rebalance = spec.rebalance_every();
        let sharded = ShardedScheduler::build(
            &spec.without_sharding(),
            spec.shard_count(),
            cfg.cpus,
            rebalance,
        );
        let (layout, shards, bal) = sharded.into_parts();
        Executor::from_parts(cfg, layout, shards, Some(bal), rebalance, admit, rec)
    }

    fn from_parts(
        cfg: RtConfig,
        layout: ShardLayout,
        shards: Vec<Box<dyn Scheduler>>,
        bal: Option<Balancer>,
        rebalance: Option<Duration>,
        admit: Option<AdmissionPolicy>,
        trace: TraceRecorder,
    ) -> Executor {
        let mut cpu_base = 0u32;
        let shard_count = shards.len();
        let cores: Vec<OrderedMutex<ShardCore>> = shards
            .into_iter()
            .enumerate()
            .map(|(s, sched)| {
                let base = cpu_base;
                cpu_base += layout.shard_cpus(s);
                OrderedMutex::new(
                    rank::shard(s),
                    ShardCore {
                        index: s,
                        sched,
                        cpus: vec![CpuSlot::default(); layout.shard_cpus(s) as usize],
                        cpu_base: base,
                        tasks: TaskMap::new(),
                        blocked: TaskMap::new(),
                        switches: 0,
                        candidates: Vec::new(),
                    },
                )
            })
            .collect();
        let inner = Arc::new(Inner {
            cfg,
            shards: cores,
            global: OrderedMutex::new(
                rank::GLOBAL,
                Global {
                    bal,
                    idle: Vec::new(),
                    next_id: 1,
                    live: 0,
                    admit: admit.map(AdmissionControl::new),
                },
            ),
            rebalance_every: rebalance.unwrap_or(ShardedScheduler::DEFAULT_REBALANCE),
            idle_cv: Condvar::new(),
            epoch: Instant::now(),
            shutdown: AtomicBool::new(false),
            stop_requested: AtomicBool::new(false),
            steals: AtomicU64::new(0),
            rebalances: AtomicU64::new(0),
            wake_migrations: AtomicU64::new(0),
            heartbeats: (0..shard_count).map(|_| AtomicU64::new(0)).collect(),
            timer_jitter: AtomicU64::new(0),
            reaped: AtomicU64::new(0),
            watchdogs: AtomicU64::new(0),
            invariant_violations: AtomicU64::new(0),
            trace,
        });
        let timer = {
            let inner = Arc::clone(&inner);
            thread::Builder::new()
                .name("sfs-rt-timer".into())
                .spawn(move || Executor::timer_loop(&inner))
                .expect("spawning timer thread") // invariant: construction-time, not hot path; OS thread-spawn failure is fatal
        };
        Executor {
            inner,
            timer: Some(timer),
        }
    }

    /// The quantum-expiry timer. Two properties matter here:
    ///
    /// * **Absolute deadlines.** The loop sleeps until `next` and then
    ///   advances it by exactly one interval, so lock-hold and wake
    ///   latency do not accumulate as tick drift (the old relative
    ///   `sleep(interval)` pushed every subsequent tick late by the
    ///   scan time). If a scan overruns a whole interval the schedule
    ///   skips forward instead of bursting catch-up ticks.
    /// * **Flags set outside the lock.** Each shard's slots are
    ///   snapshot under its lock; the preempt flags are raised after
    ///   release, so a task re-entering the scheduler never contends
    ///   with the timer holding its shard lock across the full scan.
    #[expect(clippy::disallowed_methods, reason = "the timer's tick and jitter")]
    fn timer_loop(inner: &Inner) {
        let interval = inner.cfg.timer_interval.to_std();
        let rebalance_every = inner.rebalance_every.to_std();
        let mut next = Instant::now() + interval;
        let mut next_rebalance = Instant::now() + rebalance_every;
        let mut last_readjust = (0u64, 0u64);
        // Watchdog state: the heartbeat value last seen per shard, and
        // how many consecutive ticks it has sat still with work waiting.
        let mut wd_seen: Vec<u64> = vec![0; inner.shards.len()];
        let mut wd_stale: Vec<u32> = vec![0; inner.shards.len()];
        while !inner.shutdown.load(Ordering::Acquire) {
            let now = Instant::now();
            if next > now {
                thread::sleep(next - now);
            }
            // Injected timer jitter: delay this tick (and only this
            // tick) by the injected amount, so quantum expiry is
            // observed late — the fault the watchdog must survive.
            let jitter = inner.timer_jitter.swap(0, Ordering::AcqRel);
            if jitter > 0 {
                thread::sleep(std::time::Duration::from_nanos(jitter));
            }
            next += interval;
            let now = Instant::now();
            if next < now {
                next = now + interval;
            }
            let tracing = inner.trace.on();
            let mut runnable = 0usize;
            let mut readjust = (0u64, 0u64);
            let mut max_surplus: Option<f64> = None;
            let mut min_phi: Option<f64> = None;
            let mut expired: Vec<Arc<RtTask>> = Vec::new();
            for (si, shard) in inner.shards.iter().enumerate() {
                let occupied;
                let waiting;
                {
                    let wait_start = Instant::now();
                    let core = shard.lock();
                    let now = inner.now();
                    occupied = core.cpus.iter().filter(|c| c.current.is_some()).count();
                    waiting = core.sched.nr_runnable() > 0;
                    if tracing {
                        let t = now.as_nanos();
                        inner.trace.emit(TraceEvent::Counter {
                            t,
                            track: CounterTrack::LockWaitNs,
                            value: wait_start.elapsed().as_nanos() as f64,
                        });
                        runnable += core.sched.nr_runnable();
                        let stats = core.sched.stats();
                        readjust.0 += stats.readjust_calls;
                        readjust.1 += stats.weights_clamped;
                        if si == 0 {
                            if let Some(v) = core.sched.virtual_time() {
                                inner.trace.emit(TraceEvent::Counter {
                                    t,
                                    track: CounterTrack::VirtualTime,
                                    value: v.to_f64(),
                                });
                            }
                        }
                    }
                    for slot in &core.cpus {
                        let Some(id) = slot.current else { continue };
                        let ran = now.since(slot.dispatched_at);
                        if tracing {
                            // Worst running surplus / smallest running φ
                            // across every shard's occupied slots, the
                            // same §2.2 picture the simulator samples.
                            if let Some(s) = core.sched.charged_surplus(id, ran, now) {
                                let s = s.to_f64();
                                max_surplus = Some(max_surplus.map_or(s, |m| m.max(s)));
                            }
                            if let Some(phi) = core.sched.adjusted_weight_of(id) {
                                let phi = phi.to_f64();
                                min_phi = Some(min_phi.map_or(phi, |m| m.min(phi)));
                            }
                        }
                        if ran >= slot.slice {
                            expired.push(Arc::clone(core.task(id)));
                        }
                    }
                }
                // Shard lock released: raise the flags outside it.
                let expired_count = expired.len();
                for t in expired.drain(..) {
                    t.preempt.store(true, Ordering::Release);
                }
                // Watchdog: a shard is stalled when every occupied slot
                // has overshot its quantum, other tasks are waiting, and
                // the dispatch heartbeat has not moved since the last
                // tick — i.e. preemption flags are being raised but
                // nothing is yielding. After `WATCHDOG_TICKS` such ticks
                // we re-raise every flag and force a rebalance so the
                // stalled work can be pulled elsewhere.
                const WATCHDOG_TICKS: u32 = 8;
                // relaxed: same-location reads are coherent, so the
                // tick-over-tick comparison below never runs backwards.
                let hb = inner.heartbeats[si].load(Ordering::Relaxed);
                let stalled =
                    occupied > 0 && expired_count == occupied && waiting && hb == wd_seen[si];
                wd_seen[si] = hb;
                wd_stale[si] = if stalled { wd_stale[si] + 1 } else { 0 };
                if wd_stale[si] >= WATCHDOG_TICKS {
                    wd_stale[si] = 0;
                    inner.watchdogs.fetch_add(1, Ordering::Relaxed); // relaxed: stats counter
                    if tracing {
                        inner.trace.emit(TraceEvent::WatchdogFired {
                            t: inner.now().as_nanos(),
                            shard: si as u32,
                        });
                    }
                    // A rare recovery path: raise the flags under the lock.
                    let core = shard.lock();
                    for id in core.cpus.iter().filter_map(|c| c.current) {
                        core.task(id).preempt.store(true, Ordering::Release);
                    }
                    drop(core);
                    if inner.sharded() {
                        inner.rebalance();
                    }
                }
            }
            if tracing {
                let t = inner.now().as_nanos();
                inner.trace.emit(TraceEvent::Counter {
                    t,
                    track: CounterTrack::Runnable,
                    value: runnable as f64,
                });
                if let Some(value) = max_surplus {
                    inner.trace.emit(TraceEvent::Counter {
                        t,
                        track: CounterTrack::MaxRunSurplus,
                        value,
                    });
                }
                if let Some(value) = min_phi {
                    inner.trace.emit(TraceEvent::Counter {
                        t,
                        track: CounterTrack::MinRunPhi,
                        value,
                    });
                }
                if readjust != last_readjust {
                    inner.trace.emit(TraceEvent::Readjust {
                        t,
                        calls: readjust.0.saturating_sub(last_readjust.0),
                        clamped: readjust.1.saturating_sub(last_readjust.1),
                    });
                    last_readjust = readjust;
                }
            }
            if inner.sharded() && Instant::now() >= next_rebalance {
                next_rebalance = Instant::now() + rebalance_every;
                inner.rebalance();
            }
        }
    }

    /// Resolves a tenant group name (from a policy's `groups(...)`
    /// clause) to the id [`Executor::spawn_in_tenant`] takes. Returns
    /// `None` when the policy is flat or the name is unknown.
    pub fn bind_tenant(&self, group: &str) -> Option<TenantId> {
        self.inner.shards[0].lock().sched.bind_tenant(group)
    }

    /// Spawns a task with a weight; the body receives a [`TaskCtx`] and
    /// must call [`TaskCtx::checkpoint`] regularly. The task is placed
    /// on the shard with the least adjusted-weight load per CPU.
    pub fn spawn<F>(&self, name: &str, weight: Weight, body: F) -> TaskHandle
    where
        F: FnOnce(&TaskCtx) + Send + 'static,
    {
        self.spawn_in_tenant(name, weight, None, body)
    }

    /// [`Executor::spawn`] under a tenant group: the task attaches via
    /// [`Scheduler::attach_tenant`] so hierarchical policies account it
    /// to that group, and sharded executors anchor the whole tenant to
    /// one shard (members never split across shards).
    pub fn spawn_in_tenant<F>(
        &self,
        name: &str,
        weight: Weight,
        tenant: Option<TenantId>,
        body: F,
    ) -> TaskHandle
    where
        F: FnOnce(&TaskCtx) + Send + 'static,
    {
        self.try_spawn_in_tenant(name, weight, tenant, body)
            .unwrap_or_else(|why| panic!("task {name:?} refused by admission control ({why})"))
    }

    /// [`Executor::spawn_in_tenant`], but admission-checked: when the
    /// executor was built from a policy with an `admit(...)` clause the
    /// task may be refused (tenant cap, rate limit, or global load
    /// shed). A rejected task never attaches, never takes a thread,
    /// and consumes no weight; the caller gets the typed
    /// [`RejectReason`]. Without an admission policy this always
    /// succeeds.
    pub fn try_spawn_in_tenant<F>(
        &self,
        name: &str,
        weight: Weight,
        tenant: Option<TenantId>,
        body: F,
    ) -> Result<TaskHandle, RejectReason>
    where
        F: FnOnce(&TaskCtx) + Send + 'static,
    {
        let (ctx, worker) = {
            let mut wakes = Wakeups::new();
            let mut global = self.inner.global.lock();
            let id = TaskId(global.next_id);
            global.next_id += 1;
            let admitted = global.admit.is_some();
            if let Some(ctrl) = global.admit.as_mut() {
                // Ready-but-waiting depth across every shard feeds the
                // load-shed watermark (lock order: global, then shards
                // ascending).
                let runnable: usize = self
                    .inner
                    .shards
                    .iter()
                    .map(|s| s.lock().sched.nr_runnable())
                    .sum();
                let now = self.inner.now();
                if let Err(reason) = ctrl.admit(tenant, now, runnable as u64) {
                    if self.inner.trace.on() {
                        self.inner
                            .trace
                            .register_task(id, name, weight.get(), tenant);
                        self.inner.trace.emit(TraceEvent::TaskRejected {
                            t: now.as_nanos(),
                            task: id,
                        });
                    }
                    return Err(reason);
                }
            }
            global.live += 1;
            let shard = match global.bal.as_mut() {
                Some(bal) => bal.attach_tenant(id, weight, tenant),
                None => 0,
            };
            let task = Arc::new(RtTask {
                id,
                tenant,
                admitted,
                shard: AtomicUsize::new(shard),
                preempt: AtomicBool::new(false),
                service_ns: AtomicU64::new(0),
                granted: OrderedMutex::new(rank::GRANTED, false),
                cv: Condvar::new(),
            });
            let mut core = self.inner.shards[shard].lock();
            let now = self.inner.now();
            core.tasks.insert(id, Arc::clone(&task));
            core.sched.attach_tenant(id, weight, tenant, now);
            if self.inner.trace.on() {
                self.inner
                    .trace
                    .register_task(id, name, weight.get(), tenant);
                self.inner.trace.emit(TraceEvent::Wake {
                    t: now.as_nanos(),
                    task: id,
                });
            }
            self.inner.dispatch(&mut core, &mut wakes, now);
            let inner = Arc::clone(&self.inner);
            (TaskCtx { inner, task }, global.idle.pop())
        };
        let worker = worker.unwrap_or_else(Worker::spawn);
        let jobs = worker.jobs.clone();
        let (done_tx, done) = mpsc::channel();
        let task = Arc::clone(&ctx.task);
        let job = move || {
            let (inner, task) = (&ctx.inner, &ctx.task);
            task.wait_granted();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&ctx)));
            let panicked = result.is_err();
            if let Err(p) = result {
                // Surface panics to the test harness.
                eprintln!("task {} panicked: {p:?}", task.id);
            }
            {
                let mut wakes = Wakeups::new();
                let mut global = inner.global.lock();
                let (s, mut core) = inner.lock_own_shard(task);
                let now = inner.now();
                core.blocked.remove(&task.id);
                if core.slot_of(task.id).is_some() {
                    inner.stop_running(&mut core, task.id, SwitchReason::Exited, now);
                } else if core.sched.weight_of(task.id).is_some() {
                    // Off-CPU exit: only a panicking body unwinds there.
                    core.sched.reap(task.id, now);
                }
                if panicked {
                    // Record the forced reap and audit the books now, so
                    // a weight leak is caught at the fault.
                    inner.reaped.fetch_add(1, Ordering::Relaxed); // relaxed: stats counter
                    if inner.trace.on() {
                        inner.trace.emit(TraceEvent::TaskReaped {
                            t: now.as_nanos(),
                            task: task.id,
                        });
                    }
                    let audit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        core.sched.check_invariants();
                    }));
                    if audit.is_err() {
                        // relaxed: stats counter
                        inner.invariant_violations.fetch_add(1, Ordering::Relaxed);
                    }
                }
                if task.admitted {
                    if let Some(admit) = global.admit.as_mut() {
                        admit.release(task.tenant);
                    }
                }
                if let Some(bal) = global.bal.as_mut() {
                    bal.remove(task.id);
                }
                core.tasks.remove(&task.id);
                global.live -= 1;
                inner.dispatch(&mut core, &mut wakes, now);
                let idle = core.cpus.iter().any(|c| c.current.is_none());
                drop(core);
                if idle {
                    // The exit may have freed a CPU: offer it a
                    // stolen task before it idles.
                    inner.steal_on_idle(&mut global, s, &mut wakes);
                }
                global.idle.push(worker);
                inner.idle_cv.notify_all();
            }
            drop(done_tx);
        };
        // invariant: a job parks its thread after its last step that can
        // unwind, so a popped worker is alive.
        jobs.send(Box::new(job)).expect("task thread parked");
        Ok(TaskHandle { task, done })
    }

    /// Asks all cooperative loops to stop (see [`TaskCtx::stopped`]).
    pub fn stop(&self) {
        // relaxed: the lock acquisitions below publish the flag to
        // every task before any of them can observe the nudge.
        self.inner.stop_requested.store(true, Ordering::Relaxed);
        // Nudge everything through the scheduler so parked tasks get
        // CPU time to observe the stop flag, and release event-blocked
        // tasks so they can observe it too. Wakes stay on their home
        // shard — migration at shutdown is pointless churn.
        let mut wakes = Wakeups::new();
        let mut global = self.inner.global.lock();
        for shard in &self.inner.shards {
            let mut core = shard.lock();
            let now = self.inner.now();
            for t in core.tasks.values() {
                t.preempt.store(true, Ordering::Release);
            }
            for id in std::mem::take(&mut core.blocked).keys() {
                if let Some(bal) = global.bal.as_mut() {
                    bal.wake_in_place(id);
                }
                core.sched.wake(id, now);
            }
            self.inner.dispatch(&mut core, &mut wakes, now);
        }
    }

    /// Blocks until every spawned task has finished.
    pub fn wait(&self) {
        let mut global = self.inner.global.lock();
        while global.live > 0 {
            global.wait(&self.inner.idle_cv);
        }
    }

    /// Number of context switches across shards: dispatches that
    /// granted a virtual CPU to a different task than the one that CPU
    /// last ran. Re-granting the same task after an idle gap is not a
    /// switch — the same definition the simulator uses, so the two
    /// substrates' counts are comparable.
    pub fn switches(&self) -> u64 {
        self.inner.shards.iter().map(|s| s.lock().switches).sum()
    }

    /// Wakes an event-blocked task from outside the executor (e.g. the
    /// spawning thread kicking off a token ring). Returns `true` if the
    /// task was blocked.
    pub fn wake_task(&self, id: TaskId) -> bool {
        self.inner.wake(id)
    }

    /// Number of run-queue shards.
    pub fn shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// Aggregated scheduler work counters across all shards, including
    /// the executor-level steal/rebalance/wake-migration counts.
    pub fn sched_stats(&self) -> SchedStats {
        let mut agg = SchedStats::default();
        for shard in &self.inner.shards {
            agg = agg.merged(shard.lock().sched.stats());
        }
        agg.shard_steals += self.inner.steals.load(Ordering::Relaxed); // relaxed: stats read
        agg.shard_rebalances += self.inner.rebalances.load(Ordering::Relaxed); // relaxed: stats read
        agg.shard_wake_migrations += self.inner.wake_migrations.load(Ordering::Relaxed); // relaxed: stats read
        agg
    }

    /// Spawn attempts refused by admission control so far. Zero when
    /// the executor has no admission policy.
    pub fn rejected(&self) -> u64 {
        self.inner
            .global
            .lock()
            .admit
            .as_ref()
            .map_or(0, sfs_core::admit::AdmissionControl::rejected)
    }

    /// Task bodies that panicked and were forcibly reaped.
    pub fn reaped(&self) -> u64 {
        self.inner.reaped.load(Ordering::Relaxed) // relaxed: stats read
    }

    /// Times the timer-thread watchdog declared a shard stalled and
    /// forced recovery (flag re-raise plus rebalance).
    pub fn watchdog_fires(&self) -> u64 {
        self.inner.watchdogs.load(Ordering::Relaxed) // relaxed: stats read
    }

    /// Scheduler-invariant audits that failed after a forced reap.
    /// Any non-zero value is a bug in the scheduling policy.
    pub fn invariant_violations(&self) -> u64 {
        self.inner.invariant_violations.load(Ordering::Relaxed) // relaxed: stats read
    }

    /// Fault injection: delays the next timer tick by `d`, so quantum
    /// expiry is observed late. Used by the chaos experiments to
    /// exercise the watchdog path deterministically.
    pub fn inject_timer_jitter(&self, d: Duration) {
        self.inner
            .timer_jitter
            .fetch_add(d.as_nanos(), Ordering::AcqRel);
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        if let Some(t) = self.timer.take() {
            let _ = t.join();
        }
        // Closing its queue ends a parked thread.
        let idle = std::mem::take(&mut self.inner.global.lock().idle);
        for Worker { jobs, thread } in idle {
            drop(jobs);
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests let real time pass")]
#[expect(clippy::disallowed_types, reason = "a plain log of the run order")]
mod tests {
    use super::*;
    use sfs_core::policy::PolicySpec;
    use sfs_core::task::weight;

    fn small_sfs(cpus: u32) -> Box<dyn Scheduler> {
        PolicySpec::sfs()
            .with_quantum(Duration::from_millis(2))
            .build(cpus)
    }

    fn spin(ctx: &TaskCtx) {
        while !ctx.stopped() {
            std::hint::spin_loop();
            ctx.checkpoint();
        }
    }

    #[test]
    fn single_task_runs_and_exits() {
        let ex = Executor::new(
            RtConfig {
                cpus: 1,
                ..RtConfig::default()
            },
            small_sfs(1),
        );
        let h = ex.spawn("t", weight(1), |_ctx| {
            // Finite work.
            let mut acc = 0u64;
            for i in 0..1_000_000u64 {
                acc = acc.wrapping_add(i);
            }
            assert!(acc > 0);
        });
        ex.wait();
        assert!(h.service() > Duration::ZERO);
        h.join();
    }

    #[test]
    fn proportional_shares_on_one_vcpu() {
        let ex = Executor::new(
            RtConfig {
                cpus: 1,
                timer_interval: Duration::from_micros(200),
            },
            small_sfs(1),
        );
        let a = ex.spawn("w1", weight(1), spin);
        let b = ex.spawn("w3", weight(3), spin);
        std::thread::sleep(std::time::Duration::from_millis(400));
        ex.stop();
        ex.wait();
        let (sa, sb) = (a.service().as_nanos() as f64, b.service().as_nanos() as f64);
        let ratio = sb / sa.max(1.0);
        assert!(
            (1.8..4.5).contains(&ratio),
            "expected ≈3:1 service ratio, got {ratio:.2} ({sb} vs {sa})"
        );
    }

    #[test]
    fn two_vcpus_run_concurrently() {
        let ex = Executor::new(
            RtConfig {
                cpus: 2,
                ..RtConfig::default()
            },
            small_sfs(2),
        );
        let a = ex.spawn("a", weight(1), spin);
        let b = ex.spawn("b", weight(1), spin);
        std::thread::sleep(std::time::Duration::from_millis(300));
        ex.stop();
        ex.wait();
        // Both held a CPU essentially the whole time.
        assert!(
            a.service() > Duration::from_millis(150),
            "{:?}",
            a.service()
        );
        assert!(
            b.service() > Duration::from_millis(150),
            "{:?}",
            b.service()
        );
    }

    #[test]
    fn block_for_releases_the_cpu() {
        let ex = Executor::new(
            RtConfig {
                cpus: 1,
                ..RtConfig::default()
            },
            small_sfs(1),
        );
        let sleeper = ex.spawn("sleeper", weight(1), |ctx| {
            for _ in 0..3 {
                ctx.block_for(Duration::from_millis(30));
            }
        });
        let worker = ex.spawn("worker", weight(1), |ctx| {
            let until = Instant::now() + std::time::Duration::from_millis(120);
            while Instant::now() < until {
                ctx.checkpoint();
            }
        });
        ex.wait();
        // The worker must have run during the sleeper's blocks.
        assert!(
            worker.service() > Duration::from_millis(80),
            "worker starved: {:?}",
            worker.service()
        );
        assert!(sleeper.service() < Duration::from_millis(60));
        sleeper.join();
        worker.join();
    }

    #[test]
    fn yield_now_rotates_equal_weight_tasks() {
        const YIELDS: usize = 100;
        const WORK: std::time::Duration = std::time::Duration::from_micros(100);
        let ex = Executor::new(
            RtConfig {
                cpus: 1,
                ..RtConfig::default()
            },
            small_sfs(1),
        );
        let go = Arc::new(AtomicBool::new(false));
        // The run order: one `(task, its charged service so far)` entry
        // at the start of every slice that follows a counted yield.
        let order = Arc::new(std::sync::Mutex::new(Vec::new()));
        let mk = |ex: &Executor, name: &str| {
            let (go, order) = (Arc::clone(&go), Arc::clone(&order));
            ex.spawn(name, weight(1), move |ctx| {
                // Hold at the gate until both tasks are runnable, so
                // every counted yield below has a peer to rotate to.
                while !go.load(Ordering::Acquire) {
                    ctx.yield_now();
                }
                for _ in 0..YIELDS {
                    let served = ctx.task.service_ns.load(Ordering::Relaxed);
                    order.lock().unwrap().push((ctx.id(), served));
                    let t0 = Instant::now();
                    while t0.elapsed() < WORK {
                        std::hint::spin_loop();
                    }
                    ctx.yield_now();
                }
            })
        };
        let a = mk(&ex, "a");
        let b = mk(&ex, "b");
        go.store(true, Ordering::Release);
        ex.wait();
        let (a_id, a_total) = (a.id(), a.join_service().as_nanos());
        let b_total = b.join_service().as_nanos();
        let order = order.lock().unwrap();
        assert_eq!(order.len(), 2 * YIELDS);

        // Slices are charged in wall-clock time, so under host
        // contention one inflated slice legitimately buys the peer a
        // long run of dispatches: neither a switch count nor a run
        // length is a property of the scheduler. These two are, whatever
        // the charges. (1) Every yield ends a slice and charges it.
        // (2) On one CPU with equal weights, the task dispatched is
        // never the one ahead: with D = service(a) − service(b) read at
        // each dispatch, D at any dispatch of `a` is at most D at any
        // dispatch of `b`. Together: a yield hands the CPU to the peer
        // as soon as the peer is the one behind.
        let mut a_ahead_at_most = i128::MIN;
        let mut b_behind_at_least = i128::MAX;
        for (i, &(id, served)) in order.iter().enumerate() {
            let later = &order[i + 1..];
            let next_own = later.iter().find(|e| e.0 == id).map(|e| e.1);
            let charged = next_own.unwrap_or(if id == a_id { a_total } else { b_total }) - served;
            assert!(
                charged >= WORK.as_nanos() as u64,
                "slice {i} of {id} was charged {charged} ns for {WORK:?} of work"
            );
            // The peer has not run since its last charge, so its next
            // entry holds its service as of this dispatch. Without one
            // it is about to exit, and nothing is left to rotate to.
            let Some(peer) = later.iter().find(|e| e.0 != id).map(|e| e.1) else {
                continue;
            };
            let d = if id == a_id {
                served as i128 - peer as i128
            } else {
                peer as i128 - served as i128
            };
            if id == a_id {
                a_ahead_at_most = a_ahead_at_most.max(d);
            } else {
                b_behind_at_least = b_behind_at_least.min(d);
            }
        }
        assert!(
            a_ahead_at_most <= b_behind_at_least,
            "a task was dispatched while ahead of its ready peer: \
             a ran at D = {a_ahead_at_most} ns, b at D = {b_behind_at_least} ns"
        );
    }

    #[test]
    fn timesharing_policy_also_drives_executor() {
        // Small epochs (2 ticks = 20 ms) so a 300 ms run spans many
        // epochs; the default 200 ms quantum would dominate the run.
        let ex = Executor::new(
            RtConfig {
                cpus: 1,
                timer_interval: Duration::from_micros(500),
            },
            PolicySpec::time_sharing().with_ticks(2).build(1),
        );
        let a = ex.spawn("a", weight(1), spin);
        let b = ex.spawn("b", weight(10), spin);
        std::thread::sleep(std::time::Duration::from_millis(300));
        ex.stop();
        ex.wait();
        // Time sharing ignores weights: roughly equal.
        let ratio = b.service().as_nanos() as f64 / a.service().as_nanos().max(1) as f64;
        assert!(
            (0.5..2.0).contains(&ratio),
            "time sharing should be ≈1:1, got {ratio:.2}"
        );
    }

    #[test]
    fn stats_visible_through_executor() {
        let ex = Executor::new(
            RtConfig {
                cpus: 1,
                ..RtConfig::default()
            },
            small_sfs(1),
        );
        let h = ex.spawn("t", weight(1), |ctx| {
            for _ in 0..10 {
                ctx.yield_now();
            }
        });
        ex.wait();
        let picks = ex.sched_stats().picks;
        assert!(picks >= 10, "picks = {picks}");
        h.join();
    }

    #[test]
    fn sharded_executor_keeps_proportional_shares() {
        let spec: PolicySpec = "sfs:quantum=2ms,shards=2,rebalance=10ms".parse().unwrap();
        let ex = Executor::from_spec_traced(
            RtConfig {
                cpus: 2,
                timer_interval: Duration::from_micros(200),
            },
            &spec,
            TraceRecorder::off(),
        );
        assert_eq!(ex.shards(), 2);
        // Four spinners 3:3:1:1 over two single-CPU shards: placement
        // pairs a heavy with a light on each shard, and the global
        // snapshot keeps the weights feasible.
        let h1 = ex.spawn("w3a", weight(3), spin);
        let h2 = ex.spawn("w3b", weight(3), spin);
        let l1 = ex.spawn("w1a", weight(1), spin);
        let l2 = ex.spawn("w1b", weight(1), spin);
        std::thread::sleep(std::time::Duration::from_millis(500));
        ex.stop();
        ex.wait();
        let heavy = (h1.service() + h2.service()).as_nanos() as f64;
        let light = (l1.service() + l2.service()).as_nanos() as f64;
        let ratio = heavy / light.max(1.0);
        assert!(
            (1.7..5.0).contains(&ratio),
            "expected ≈3:1 heavy:light, got {ratio:.2}"
        );
        // Work conservation: the whole machine stayed busy.
        let total = heavy + light;
        assert!(
            total > 2.0 * 0.8 * 500e6,
            "machine under-utilised: {total} ns over 2 CPUs × 500 ms"
        );
    }

    #[test]
    fn sharded_executor_steals_work_from_loaded_shards() {
        let spec: PolicySpec = "sfs:quantum=1ms,shards=2,rebalance=5ms".parse().unwrap();
        let ex = Executor::from_spec_traced(
            RtConfig {
                cpus: 2,
                timer_interval: Duration::from_micros(200),
            },
            &spec,
            TraceRecorder::off(),
        );
        // Three equal spinners on two shards: one shard gets two tasks.
        // Stealing + rebalancing must keep both CPUs busy and the
        // allocation roughly equal thirds.
        let hs: Vec<TaskHandle> = (0..3)
            .map(|i| ex.spawn(&format!("t{i}"), weight(1), spin))
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(400));
        ex.stop();
        ex.wait();
        let svcs: Vec<f64> = hs.iter().map(|h| h.service().as_nanos() as f64).collect();
        let total: f64 = svcs.iter().sum();
        assert!(
            total > 2.0 * 0.8 * 400e6,
            "idle CPU despite ready tasks: {svcs:?}"
        );
        let stats = ex.sched_stats();
        assert!(
            stats.shard_steals + stats.shard_wake_migrations + stats.shard_rebalances > 0
                || svcs.iter().all(|&s| s > 0.25 * 400e6),
            "no balancing activity and skewed shares: {svcs:?} ({stats:?})"
        );
        for h in hs {
            h.join();
        }
    }

    #[test]
    fn sharded_executor_blocking_and_waking_across_shards() {
        let spec: PolicySpec = "sfs:quantum=1ms,shards=2".parse().unwrap();
        let ex = Executor::from_spec_traced(
            RtConfig {
                cpus: 2,
                timer_interval: Duration::from_micros(200),
            },
            &spec,
            TraceRecorder::off(),
        );
        let sleeper = ex.spawn("sleeper", weight(1), |ctx| {
            for _ in 0..5 {
                ctx.block_for(Duration::from_millis(10));
            }
        });
        let spinner = ex.spawn("spinner", weight(1), spin);
        std::thread::sleep(std::time::Duration::from_millis(200));
        ex.stop();
        ex.wait();
        assert!(sleeper.service() < Duration::from_millis(100));
        assert!(spinner.service() > Duration::from_millis(100));
    }

    #[test]
    fn panicking_task_is_reaped_and_survivors_keep_their_shares() {
        let ex = Executor::new(
            RtConfig {
                cpus: 1,
                timer_interval: Duration::from_micros(200),
            },
            small_sfs(1),
        );
        let a = ex.spawn("w1", weight(1), spin);
        let b = ex.spawn("w3", weight(3), spin);
        let bomb = ex.spawn("bomb", weight(2), |ctx| {
            let start = std::time::Instant::now();
            while start.elapsed() < std::time::Duration::from_millis(50) {
                std::hint::spin_loop();
                ctx.checkpoint();
            }
            panic!("injected fault");
        });
        std::thread::sleep(std::time::Duration::from_millis(450));
        ex.stop();
        ex.wait();
        assert_eq!(ex.reaped(), 1, "panicking body must be counted as reaped");
        assert_eq!(
            ex.invariant_violations(),
            0,
            "reap must not corrupt the scheduler's books"
        );
        bomb.join();
        // The survivors split the CPU 3:1 after the reap; the bomb's
        // weight must be fully released (§2.1 readjustment on exit).
        let (sa, sb) = (a.service().as_nanos() as f64, b.service().as_nanos() as f64);
        let ratio = sb / sa.max(1.0);
        assert!(
            (1.8..4.5).contains(&ratio),
            "expected ≈3:1 after reap, got {ratio:.2} ({sb} vs {sa})"
        );
        a.join();
        b.join();
    }

    /// Runs `rings` token rings of `n` tasks each for `rounds` laps
    /// (`block_on_token`/`wake_task` hand-offs) and returns every task's
    /// hop count and service in spawn order. A lost grant stalls a ring,
    /// and the bounded wait turns that into a failure instead of a hang.
    fn run_rings(ex: &Executor, rings: usize, n: usize, rounds: u64) -> Vec<(u64, Duration)> {
        let tokens: Arc<Vec<AtomicBool>> =
            Arc::new((0..rings * n).map(|_| AtomicBool::new(false)).collect());
        let (tx, rx) = std::sync::mpsc::channel();
        let handles: Vec<TaskHandle> = (0..rings * n)
            .map(|i| {
                let (tokens, tx) = (Arc::clone(&tokens), tx.clone());
                let next = i - i % n + (i + 1) % n;
                ex.spawn(&format!("ring{i}"), weight(1 + i as u64 % 3), move |ctx| {
                    let mut hops = 0u64;
                    for _ in 0..rounds {
                        ctx.block_on_token(&tokens[i]);
                        hops += 1;
                        tokens[next].store(true, Ordering::Release);
                        // Ids are handed out 1, 2, … in spawn order.
                        ctx.wake_task(TaskId(next as u64 + 1));
                    }
                    tx.send((i, hops)).expect("the test is waiting");
                })
            })
            .collect();
        drop(tx); // a ring whose tasks all died fails at once
        for r in 0..rings {
            tokens[r * n].store(true, Ordering::Release);
            ex.wake_task(handles[r * n].id());
        }
        let mut hops = vec![0; rings * n];
        for _ in 0..rings * n {
            let (i, h) = rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .expect("a ring stalled: a grant was lost");
            hops[i] = h;
        }
        ex.wait();
        let mut out = Vec::new();
        for ((i, h), hops) in handles.into_iter().enumerate().zip(hops) {
            assert_eq!(h.id(), TaskId(i as u64 + 1));
            out.push((hops, h.join_service()));
        }
        out
    }

    #[test]
    fn token_ring_hands_off_on_one_vcpu() {
        let ex = Executor::new(
            RtConfig {
                cpus: 1,
                ..RtConfig::default()
            },
            small_sfs(1),
        );
        let hops = run_rings(&ex, 1, 8, 200);
        assert!(hops.iter().all(|&(h, _)| h == 200), "{hops:?}");
        // One CPU and no checkpoints: after the first lap every hop is
        // a block, a pick and a grant to a different task.
        assert!(ex.switches() >= 8 * 199, "switches = {}", ex.switches());
    }

    #[test]
    fn token_rings_hand_off_across_two_shards() {
        // Two rings of four on two single-CPU shards: up to two tasks
        // are runnable at once, so wakes are placed by the balancer and
        // a blocking shard may steal the other's ready task.
        let spec: PolicySpec = "sfs:quantum=1ms,shards=2".parse().unwrap();
        let ex = Executor::from_spec_traced(
            RtConfig {
                cpus: 2,
                timer_interval: Duration::from_micros(200),
            },
            &spec,
            TraceRecorder::off(),
        );
        let hops = run_rings(&ex, 2, 4, 200);
        assert!(hops.iter().all(|&(h, _)| h == 200), "{hops:?}");
    }

    #[test]
    fn token_ring_accounting_is_contiguous() {
        let rec = TraceRecorder::new(sfs_trace::TraceMeta {
            substrate: "rt".into(),
            scenario: "ring".into(),
            policy: "sfs".into(),
            cpus: 1,
            tenants: Vec::new(),
        });
        let cfg = RtConfig {
            cpus: 1,
            ..RtConfig::default()
        };
        let ex = Executor::new_traced(cfg, small_sfs(1), rec.clone());
        let ring = run_rings(&ex, 1, 8, 200);
        drop(ex);
        // Replay the one CPU: a slice that ends while another task is
        // ready hands the CPU over in the same scheduler entry, so the
        // next slice must begin at the very same nanosecond.
        let mut ready = std::collections::BTreeSet::new();
        let mut running: Option<(TaskId, u64)> = None;
        let mut handoff: Option<u64> = None;
        let mut handoffs = 0;
        let mut traced = [0u64; 8];
        for ev in rec.finish().events {
            match ev {
                TraceEvent::Wake { task, .. } => {
                    ready.insert(task);
                }
                TraceEvent::SliceBegin { t, task, .. } => {
                    assert!(ready.remove(&task), "{task} ran without being ready");
                    if let Some(end) = handoff.take() {
                        assert_eq!(t, end, "a gap at the hand-off to {task}");
                        handoffs += 1;
                    }
                    running = Some((task, t));
                }
                TraceEvent::SliceEnd {
                    t, task, reason, ..
                } => {
                    let (began, t0) = running.take().expect("a slice ends after it begins");
                    assert_eq!(began, task);
                    traced[task.0 as usize - 1] += t - t0;
                    if reason.still_runnable() {
                        ready.insert(task);
                    }
                    handoff = (!ready.is_empty()).then_some(t);
                }
                _ => {}
            }
        }
        assert!(handoffs >= 8 * 199, "only {handoffs} hand-offs traced");
        for (i, &(_, service)) in ring.iter().enumerate() {
            assert_eq!(service.as_nanos(), traced[i], "task {}", i + 1);
        }
    }

    #[test]
    fn spawns_reuse_one_thread_and_drop_joins_it() {
        let ex = Executor::new(
            RtConfig {
                cpus: 1,
                ..RtConfig::default()
            },
            small_sfs(1),
        );
        let (tx, rx) = std::sync::mpsc::channel();
        let spawn = |panics: bool| {
            let tx = tx.clone();
            ex.spawn("job", weight(1), move |_| {
                tx.send(thread::current().id()).unwrap();
                assert!(!panics, "injected fault");
            })
            .join();
        };
        for _ in 0..50 {
            spawn(false);
        }
        spawn(true);
        spawn(false);
        drop(tx);
        let threads: Vec<_> = rx.iter().collect();
        assert_eq!(threads.len(), 52);
        assert!(threads.iter().all(|t| *t == threads[0]), "{threads:?}");
        assert_eq!(ex.reaped(), 1);
        let (tx, rx) = std::sync::mpsc::channel();
        thread::spawn(move || {
            drop(ex);
            tx.send(()).unwrap();
        });
        rx.recv_timeout(std::time::Duration::from_secs(60))
            .expect("dropping the executor hung on its idle threads");
    }

    #[test]
    fn a_panic_in_the_locked_section_still_delivers_queued_grants() {
        let task = Arc::new(RtTask {
            id: TaskId(1),
            tenant: None,
            admitted: false,
            shard: AtomicUsize::new(0),
            preempt: AtomicBool::new(false),
            service_ns: AtomicU64::new(0),
            granted: OrderedMutex::new(rank::GRANTED, false),
            cv: Condvar::new(),
        });
        let shard = OrderedMutex::new(rank::shard(0), ());
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut wakes = Wakeups::new();
            let _core = shard.lock();
            wakes.0.push(Arc::clone(&task));
            panic!("a policy fault between queueing and delivery");
        }));
        assert!(unwound.is_err());
        assert!(*task.granted.lock(), "the queued grant was stranded");
    }

    #[test]
    fn admission_policy_rejects_over_cap_spawns() {
        let spec: PolicySpec = "sfs:quantum=2ms,admit(max=2)".parse().unwrap();
        let ex = Executor::from_spec_traced(
            RtConfig {
                cpus: 1,
                timer_interval: Duration::from_micros(200),
            },
            &spec,
            TraceRecorder::off(),
        );
        let a = ex
            .try_spawn_in_tenant("a", weight(1), None, spin)
            .expect("first task admitted");
        let b = ex
            .try_spawn_in_tenant("b", weight(1), None, spin)
            .expect("second task admitted");
        let err = match ex.try_spawn_in_tenant("c", weight(1), None, spin) {
            Ok(_) => panic!("third task must hit the cap"),
            Err(reason) => reason,
        };
        assert_eq!(err, sfs_core::admit::RejectReason::TenantCap);
        assert_eq!(ex.rejected(), 1);
        ex.stop();
        ex.wait();
        a.join();
        b.join();
        // Exits release slots: a fresh spawn is admitted again.
        let c = ex
            .try_spawn_in_tenant("c2", weight(1), None, |_ctx| {})
            .expect("slot released after exit");
        c.join();
    }
}
