//! The discrete-event SMP simulator.
//!
//! The simulator owns a clock (nanoseconds), `p` processors and a set of
//! tasks executing [`Behavior`] state machines. It drives any
//! [`Scheduler`] through exactly the event protocol a kernel would
//! (§3.1): dispatch on idle, `put_prev` on quantum expiry / block /
//! exit, `wake` on sleep timers, with *unsynchronised* quanta across
//! processors — each CPU carries its own quantum deadline, so a blocking
//! task on one CPU never aligns the others.
//!
//! Determinism: all events are ordered by `(time, sequence number)` and
//! all workload randomness is seeded, so a run is a pure function of its
//! configuration. A context-switch overhead (default 5 µs) is charged
//! whenever a CPU switches between different tasks; the quantum starts
//! after the switch completes.
//!
//! ## Mega-scale internals
//!
//! Three structural choices keep the engine O(1)-ish per event at
//! 10⁶–10⁷ tasks (guarded by `tests/scaling_guards.rs`,
//! `tests/perf_guards.rs` and the `benchmark/` `churn` workload):
//!
//! * the event queue is a hierarchical [`TimingWheel`], not a binary
//!   heap — O(1) amortized push/pop with the identical `(time, seq)`
//!   total order (pinned by `tests/wheel_differential.rs`);
//! * per-task state lives in a struct-of-arrays `TaskArena` indexed
//!   by dense [`TaskId`]s, so the hot handlers touch one flat `Vec`
//!   lane per field instead of chasing a `HashMap` entry;
//! * all arrival/wake events sharing a tick are drained as one batch
//!   and applied through [`Scheduler::arrive_batch`] /
//!   [`Scheduler::wake_batch`] — consecutive same-operation runs are
//!   grouped (never reordered across a detach or across an op change,
//!   which keeps the scheduler-call order event-equivalent to per-item
//!   application), and the batch pays one dispatch sweep instead of one
//!   per event.
#![deny(clippy::unwrap_used)]

use sfs_core::admit::{AdmissionControl, AdmissionPolicy};
use sfs_core::fault::{FaultKind, FaultPlan};
use sfs_core::gms::FluidGms;
use sfs_core::sched::{select_preemption_victim, Scheduler, SwitchReason};
use sfs_core::task::{CpuId, TaskId, TenantId, Weight};
use sfs_core::time::{Duration, Time};
use sfs_trace::{CounterTrack, TraceEvent, TraceRecorder};
use sfs_workloads::{Behavior, BehaviorSpec, Phase};

use crate::trace::{RunHealth, SimReport, TaskLabel, Trace};
use crate::wheel::{TimingWheel, KEEP_CAPACITY};

/// Recording runs flush the local event buffer to the shared recorder
/// whenever it reaches this many events: the recorder is a shared,
/// locked handle, so this costs one lock acquisition per 32 k events
/// instead of one per event.
const TRACE_FLUSH_EVENTS: usize = 32 * 1024;

/// Simulator configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// Number of processors.
    pub cpus: u32,
    /// Simulated wall-clock length of the run.
    pub duration: Duration,
    /// Cost charged when a CPU switches between different tasks.
    pub ctx_switch: Duration,
    /// Sampling period for the cumulative-service curves.
    pub sample_every: Duration,
    /// Co-simulate the GMS fluid reference and report per-task error.
    pub track_gms: bool,
    /// Base seed for workload randomness.
    pub seed: u64,
    /// Lean mode: skip per-task service curves and response vectors and
    /// report aggregate totals only ([`crate::trace::LeanSummary`]).
    /// The memory floor for 10⁶-task runs.
    pub lean: bool,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            cpus: 2,
            duration: Duration::from_secs(30),
            ctx_switch: Duration::from_micros(5),
            sample_every: Duration::from_millis(500),
            track_gms: false,
            seed: 42,
            lean: false,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum EvKind {
    Arrive(usize),
    Kill(usize),
    Wake(TaskId),
    CpuTimer {
        cpu: usize,
        token: u64,
    },
    Sample,
    /// An injected fault (index into the simulator's fault list).
    Fault(usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TState {
    Ready,
    Running(usize),
    Sleeping,
    Exited,
}

/// Struct-of-arrays task storage, indexed by `TaskId − 1` (ids are
/// allocated densely from 1). Hot per-event fields (`state`,
/// `remaining`, …) are flat `Copy` lanes; the boxed behavior state
/// machine is the one cold, pointer-sized lane.
struct TaskArena {
    weight: Vec<Weight>,
    state: Vec<TState>,
    /// Remaining CPU demand of the current compute phase.
    remaining: Vec<Duration>,
    /// When the task last became runnable (for response times).
    last_wake: Vec<Time>,
    /// A response sample is pending for the current compute phase.
    awaiting_response: Vec<bool>,
    attached: Vec<bool>,
    /// Sequential-stream membership (next job spawns on exit).
    stream: Vec<Option<usize>>,
    /// Tenant group the task attaches under, for hierarchical policies.
    tenant: Vec<Option<TenantId>>,
    /// The task passed admission control (and must release its slot on
    /// exit). Always false when admission is off or the task was
    /// rejected.
    admitted: Vec<bool>,
    /// Pending wake-delay from an injected [`FaultKind::WakeDrop`]:
    /// the task's next wake event is re-posted this much later.
    wake_delay: Vec<Duration>,
    behavior: Vec<Box<dyn Behavior>>,
}

impl TaskArena {
    fn new() -> TaskArena {
        TaskArena {
            weight: Vec::new(),
            state: Vec::new(),
            remaining: Vec::new(),
            last_wake: Vec::new(),
            awaiting_response: Vec::new(),
            attached: Vec::new(),
            stream: Vec::new(),
            tenant: Vec::new(),
            admitted: Vec::new(),
            wake_delay: Vec::new(),
            behavior: Vec::new(),
        }
    }

    #[inline]
    fn idx(id: TaskId) -> usize {
        id.0 as usize - 1
    }

    fn len(&self) -> usize {
        self.behavior.len()
    }

    /// Adds a task in the initial (sleeping, unattached) state and
    /// returns its dense id.
    fn push(
        &mut self,
        weight: Weight,
        tenant: Option<TenantId>,
        stream: Option<usize>,
        behavior: Box<dyn Behavior>,
        now: Time,
    ) -> TaskId {
        self.weight.push(weight);
        self.state.push(TState::Sleeping);
        self.remaining.push(Duration::ZERO);
        self.last_wake.push(now);
        self.awaiting_response.push(false);
        self.attached.push(false);
        self.stream.push(stream);
        self.tenant.push(tenant);
        self.admitted.push(false);
        self.wake_delay.push(Duration::ZERO);
        self.behavior.push(behavior);
        TaskId(self.behavior.len() as u64)
    }
}

#[derive(Debug, Clone, Copy)]
struct Cpu {
    current: Option<TaskId>,
    dispatched_at: Time,
    /// Compute charging starts here (after the context switch).
    last_charge: Time,
    quantum_deadline: Time,
    token: u64,
    last_task: Option<TaskId>,
}

impl Cpu {
    fn idle() -> Cpu {
        Cpu {
            current: None,
            dispatched_at: Time::ZERO,
            last_charge: Time::ZERO,
            quantum_deadline: Time::ZERO,
            token: 0,
            last_task: None,
        }
    }
}

struct PendingArrival {
    label: TaskLabel,
    weight: Weight,
    spec: BehaviorSpec,
    seed: u64,
    tenant: Option<TenantId>,
    stream: Option<usize>,
    spawned: Option<TaskId>,
}

/// A sequential job stream: when one job exits, the next arrives.
struct StreamState {
    /// Interned base name; job `k` renders as `"{base}#{k}"`.
    sym: u32,
    weight: Weight,
    spec: BehaviorSpec,
    gap: Duration,
    until: Time,
    spawned: u64,
}

/// The discrete-event simulator.
pub struct Simulator {
    cfg: SimConfig,
    sched: Box<dyn Scheduler>,
    now: Time,
    events: TimingWheel<EvKind>,
    seq: u64,
    cpus: Vec<Cpu>,
    tasks: TaskArena,
    arrivals: Vec<PendingArrival>,
    streams: Vec<StreamState>,
    trace: Trace,
    gms: Option<FluidGms>,
    gms_last: Time,
    ctx_switches: u64,
    events_processed: u64,
    rec: TraceRecorder,
    /// Locally buffered trace events: the simulator is single-threaded,
    /// so events accumulate in a plain `Vec` (one push per event, no
    /// lock) and flush into the shared recorder in [`TRACE_FLUSH_EVENTS`]
    /// chunks, one recorder lock per chunk.
    trace_buf: Vec<TraceEvent>,
    /// Running CPUs offered to wake preemption, refilled per wake.
    candidates: Vec<(usize, TaskId, Duration)>,
    /// [`Simulator::on_tick_batch`]'s working lists, kept between
    /// batches so neither a wake nor a batch allocates.
    tick: TickScratch,
    /// True once any arrived task carries a tenant — lets the slice-end
    /// recording hook skip the per-event tenant lookup in the common
    /// tenant-less case.
    tenants_present: bool,
    /// (readjust_calls, weights_clamped) at the previous sample, for
    /// per-sample `Readjust` epoch deltas when recording.
    last_readjust: (u64, u64),
    /// Admission control state, when the run enforces an
    /// [`AdmissionPolicy`].
    admission: Option<AdmissionControl>,
    /// Injected fault kinds, indexed by [`EvKind::Fault`] payloads.
    fault_kinds: Vec<FaultKind>,
    faults_injected: u64,
    faults_recovered: u64,
    invariant_violations: u64,
}

impl Simulator {
    /// Creates a simulator driving the given scheduling policy.
    ///
    /// # Panics
    ///
    /// Panics if the scheduler's CPU count differs from the config's.
    pub fn new(cfg: SimConfig, sched: Box<dyn Scheduler>) -> Simulator {
        assert_eq!(
            sched.cpus(),
            cfg.cpus,
            "scheduler configured for a different machine"
        );
        let gms = cfg.track_gms.then(|| FluidGms::new(cfg.cpus));
        let trace = if cfg.lean {
            Trace::new_lean()
        } else {
            Trace::default()
        };
        let mut sim = Simulator {
            cpus: vec![Cpu::idle(); cfg.cpus as usize],
            cfg,
            sched,
            now: Time::ZERO,
            events: TimingWheel::new(),
            seq: 0,
            tasks: TaskArena::new(),
            arrivals: Vec::new(),
            streams: Vec::new(),
            trace,
            gms,
            gms_last: Time::ZERO,
            ctx_switches: 0,
            events_processed: 0,
            rec: TraceRecorder::off(),
            trace_buf: Vec::new(),
            candidates: Vec::new(),
            tick: TickScratch::default(),
            tenants_present: false,
            last_readjust: (0, 0),
            admission: None,
            fault_kinds: Vec::new(),
            faults_injected: 0,
            faults_recovered: 0,
            invariant_violations: 0,
        };
        let first_sample = sim.cfg.sample_every;
        sim.post(Time::ZERO + first_sample, EvKind::Sample);
        sim
    }

    /// Attaches an event recorder; every scheduling event of the run is
    /// emitted into it (see the `sfs-trace` crate). The recorder is a
    /// shared handle — keep a clone and call `finish()` after
    /// [`Simulator::run`] to collect the trace.
    #[must_use]
    pub fn with_recorder(mut self, rec: TraceRecorder) -> Simulator {
        if rec.on() {
            // One generous up-front allocation keeps buffer growth (and
            // its page-fault bursts) out of the recorded hot path.
            self.trace_buf.reserve(TRACE_FLUSH_EVENTS);
        }
        self.rec = rec;
        self
    }

    /// Enforces an admission policy on every arrival (see
    /// [`sfs_core::admit`]). Rejected arrivals are still materialised —
    /// they get a task id, a report entry and a `TaskRejected` trace
    /// event — but never attach to the scheduler.
    #[must_use]
    pub fn with_admission(mut self, policy: AdmissionPolicy) -> Simulator {
        self.admission = Some(AdmissionControl::new(policy));
        self
    }

    /// Injects a deterministic fault plan (see [`sfs_core::fault`]):
    /// each fault becomes an ordinary event at its scheduled time, so
    /// faulted runs stay pure functions of their configuration.
    #[must_use]
    pub fn with_faults(mut self, plan: &FaultPlan) -> Simulator {
        for ev in plan.sorted() {
            let idx = self.fault_kinds.len();
            self.fault_kinds.push(ev.kind);
            self.post(ev.at, EvKind::Fault(idx));
        }
        self
    }

    /// Schedules a task arrival. Returns the arrival index (usable with
    /// [`Simulator::schedule_kill`]).
    pub fn schedule_arrival(
        &mut self,
        at: Time,
        name: &str,
        weight: Weight,
        spec: BehaviorSpec,
    ) -> usize {
        let sym = self.trace.intern(name);
        self.schedule_arrival_inner(at, TaskLabel { sym, replica: 0 }, weight, spec, None, None)
    }

    /// Interns a base name for replica arrivals
    /// ([`Simulator::schedule_arrival_replica`]).
    pub(crate) fn intern_name(&mut self, name: &str) -> u32 {
        self.trace.intern(name)
    }

    /// Schedules one replica of a counted task spec: names render as
    /// `"{base}#{replica}"` (or the bare base for replica 0) without
    /// ever building the string — a 10⁶-replica scenario allocates one
    /// interned base name, not 10⁶ `String`s.
    pub(crate) fn schedule_arrival_replica(
        &mut self,
        at: Time,
        sym: u32,
        replica: u32,
        weight: Weight,
        spec: BehaviorSpec,
        tenant: Option<TenantId>,
    ) -> usize {
        self.schedule_arrival_inner(at, TaskLabel { sym, replica }, weight, spec, tenant, None)
    }

    fn schedule_arrival_inner(
        &mut self,
        at: Time,
        label: TaskLabel,
        weight: Weight,
        spec: BehaviorSpec,
        tenant: Option<TenantId>,
        stream: Option<usize>,
    ) -> usize {
        let idx = self.arrivals.len();
        let seed = self
            .cfg
            .seed
            .wrapping_mul(1_000_003)
            .wrapping_add(idx as u64);
        self.arrivals.push(PendingArrival {
            label,
            weight,
            spec,
            seed,
            tenant,
            stream,
            spawned: None,
        });
        self.post(at, EvKind::Arrive(idx));
        idx
    }

    /// Schedules a kill of the task created by arrival `idx`.
    pub fn schedule_kill(&mut self, at: Time, idx: usize) {
        self.post(at, EvKind::Kill(idx));
    }

    /// Registers a sequential job stream: the first job arrives at
    /// `first`, and each subsequent job arrives `gap` after the previous
    /// one exits, until `until`.
    pub fn add_stream(
        &mut self,
        first: Time,
        prefix: &str,
        weight: Weight,
        spec: BehaviorSpec,
        gap: Duration,
        until: Time,
    ) {
        let sidx = self.streams.len();
        let sym = self.trace.intern(prefix);
        self.streams.push(StreamState {
            sym,
            weight,
            spec: spec.clone(),
            gap,
            until,
            spawned: 1,
        });
        let label = TaskLabel { sym, replica: 1 };
        self.schedule_arrival_inner(first, label, weight, spec, None, Some(sidx));
    }

    fn post(&mut self, at: Time, kind: EvKind) {
        self.seq += 1;
        self.events.push(at.as_nanos(), self.seq, kind);
    }

    fn gms_advance(&mut self) {
        if let Some(g) = &mut self.gms {
            g.advance(self.now.since(self.gms_last));
        }
        self.gms_last = self.now;
    }

    /// Runs to the configured duration and produces the report.
    pub fn run(mut self) -> SimReport {
        let dur_ns = self.cfg.duration.as_nanos();
        let mut batch: Vec<EvKind> = Vec::new();
        while let Some((at, _seq, kind)) = self.events.pop() {
            if at > dur_ns {
                break;
            }
            debug_assert!(at >= self.now.as_nanos(), "time went backwards");
            self.now = Time(at);
            self.events_processed += 1;
            self.gms_advance();
            match kind {
                EvKind::Arrive(_) | EvKind::Wake(_) => {
                    // Drain the maximal run of same-tick arrival/wake
                    // events and apply it as one batch. Kills, timers
                    // and samples break the run: they are handled
                    // per-item, in event order, by the outer loop.
                    batch.clear();
                    batch.push(kind);
                    while let Some((t2, _, k2)) = self.events.peek() {
                        if t2 != at || !matches!(k2, EvKind::Arrive(_) | EvKind::Wake(_)) {
                            break;
                        }
                        // invariant: peek above returned Some at the
                        // same tick, and nothing popped in between.
                        let (_, _, k2) = self.events.pop().expect("peeked");
                        self.events_processed += 1;
                        batch.push(k2);
                    }
                    if batch.len() == 1 {
                        match batch[0].clone() {
                            EvKind::Arrive(idx) => self.on_arrive(idx),
                            EvKind::Wake(id) => self.on_wake(id),
                            _ => unreachable!(),
                        }
                    } else {
                        self.on_tick_batch(&batch);
                    }
                }
                EvKind::Kill(idx) => self.on_kill(idx),
                EvKind::CpuTimer { cpu, token } => self.on_cpu_timer(cpu, token),
                EvKind::Sample => self.on_sample(),
                EvKind::Fault(idx) => self.on_fault(idx),
            }
            if self.trace_buf.len() >= TRACE_FLUSH_EVENTS {
                self.rec.emit_many(std::mem::take(&mut self.trace_buf));
            }
        }
        // Wind down at the end-of-run instant.
        self.now = Time(self.cfg.duration.as_nanos());
        self.gms_advance();
        for i in 0..self.cpus.len() {
            if self.cpus[i].current.is_some() {
                self.stop_running(i, SwitchReason::Preempted);
            }
        }
        self.final_sample();
        self.rec.emit_many(std::mem::take(&mut self.trace_buf));

        let trace = std::mem::take(&mut self.trace);
        let mut report = trace.into_report(
            self.sched.name(),
            self.cfg.cpus,
            self.cfg.duration,
            self.sched.stats(),
            self.ctx_switches,
            self.events_processed,
        );
        if let Some(g) = &self.gms {
            for t in &mut report.tasks {
                let ideal = g.service(t.id);
                let err = if ideal >= t.service {
                    ideal - t.service
                } else {
                    t.service - ideal
                };
                t.gms_error = Some(err);
            }
        }
        report.health = RunHealth {
            rejected: self
                .admission
                .as_ref()
                .map_or(0, AdmissionControl::rejected),
            faults_injected: self.faults_injected,
            faults_recovered: self.faults_recovered,
            invariant_violations: self.invariant_violations,
        };
        report
    }

    // ---- event handlers -------------------------------------------------

    /// Creates the task for arrival `idx` (registering it with the
    /// trace) without resolving its first phase.
    fn spawn_arrival(&mut self, idx: usize) -> TaskId {
        let (label, weight, stream, tenant, behavior) = {
            let a = &self.arrivals[idx];
            (a.label, a.weight, a.stream, a.tenant, a.spec.build(a.seed))
        };
        let iteration_cost = behavior.iteration_cost();
        let id = self.tasks.push(weight, tenant, stream, behavior, self.now);
        self.arrivals[idx].spawned = Some(id);
        self.tenants_present |= tenant.is_some();
        self.trace
            .register_label(id, label, weight.get(), tenant, iteration_cost, self.now);
        if self.rec.on() {
            let name = self.trace.render(label);
            self.rec.register_task(id, &name, weight.get(), tenant);
        }
        id
    }

    /// Materialises arrival `idx` and runs it through admission
    /// control. A rejected arrival still gets a task id, a report entry
    /// and a `TaskRejected` trace event (so replica numbering, trace
    /// validation and stream continuations all stay intact), but it
    /// never touches the scheduler.
    fn admit_arrival(&mut self, idx: usize) -> Option<TaskId> {
        let id = self.spawn_arrival(idx);
        let Some(ctrl) = &mut self.admission else {
            return Some(id);
        };
        let i = TaskArena::idx(id);
        let runnable = self.sched.nr_runnable() as u64;
        match ctrl.admit(self.tasks.tenant[i], self.now, runnable) {
            Ok(()) => {
                self.tasks.admitted[i] = true;
                Some(id)
            }
            Err(_) => {
                self.trace.mark_rejected(id);
                if self.rec.on() {
                    self.trace_buf.push(TraceEvent::TaskRejected {
                        t: self.now.as_nanos(),
                        task: id,
                    });
                }
                self.finish_task(id);
                None
            }
        }
    }

    fn on_arrive(&mut self, idx: usize) {
        if let Some(id) = self.admit_arrival(idx) {
            self.continue_task(id);
        }
    }

    /// Applies a same-tick run of arrival/wake events as one batch:
    /// each event resolves its task's next phase in event order, with
    /// the scheduler insertions deferred and grouped into maximal
    /// consecutive same-operation runs ([`Scheduler::arrive_batch`] /
    /// [`Scheduler::wake_batch`]). A detach (a task exiting mid-batch)
    /// flushes the pending run first, so the scheduler observes every
    /// mutation in exact event order — only *consecutive identical*
    /// operations are fused. One dispatch sweep runs after the batch,
    /// then wake preemption is checked per made-runnable task in event
    /// order.
    fn on_tick_batch(&mut self, batch: &[EvKind]) {
        let mut tick = std::mem::take(&mut self.tick);
        for ev in batch {
            match *ev {
                EvKind::Arrive(idx) => {
                    if let Some(id) = self.admit_arrival(idx) {
                        self.resolve_batched(id, &mut tick);
                    }
                }
                EvKind::Wake(id) => {
                    if self.tasks.state[TaskArena::idx(id)] != TState::Sleeping {
                        continue; // killed or already woken
                    }
                    if self.delay_dropped_wake(id) {
                        continue;
                    }
                    self.resolve_batched(id, &mut tick);
                }
                _ => unreachable!("only arrivals and wakes batch"),
            }
        }
        self.flush_attaches(&mut tick.attaches);
        self.flush_wakes(&mut tick.wakes);
        self.dispatch_all();
        for &id in &tick.made_runnable {
            self.preempt_check(id);
        }
        tick.reset();
        self.tick = tick;
    }

    fn flush_attaches(&mut self, buf: &mut Vec<(TaskId, Weight, Option<TenantId>)>) {
        if buf.is_empty() {
            return;
        }
        self.sched.arrive_batch(buf, self.now);
        buf.clear();
    }

    fn flush_wakes(&mut self, buf: &mut Vec<TaskId>) {
        if buf.is_empty() {
            return;
        }
        self.sched.wake_batch(buf, self.now);
        buf.clear();
    }

    /// The batched counterpart of [`Simulator::continue_task`]: resolves
    /// the task's next phase and, if it becomes runnable, queues the
    /// scheduler insertion in the pending same-operation run (flushing
    /// the *other* operation's run first, so at most one is ever
    /// pending and the scheduler-call order is preserved).
    fn resolve_batched(&mut self, id: TaskId, tick: &mut TickScratch) {
        let i = TaskArena::idx(id);
        match self.resolve_next_phase(id) {
            Resolved::Compute(d) => {
                self.tasks.remaining[i] = d;
                self.tasks.last_wake[i] = self.now;
                self.tasks.awaiting_response[i] = true;
                if self.tasks.attached[i] {
                    self.flush_attaches(&mut tick.attaches);
                    tick.wakes.push(id);
                    if let Some(g) = &mut self.gms {
                        g.set_runnable(id, true);
                    }
                } else {
                    self.flush_wakes(&mut tick.wakes);
                    let weight = self.tasks.weight[i];
                    let tenant = self.tasks.tenant[i];
                    tick.attaches.push((id, weight, tenant));
                    self.tasks.attached[i] = true;
                    if let Some(g) = &mut self.gms {
                        g.add(id, weight, true);
                    }
                }
                self.tasks.state[i] = TState::Ready;
                if self.rec.on() {
                    self.trace_buf.push(TraceEvent::Wake {
                        t: self.now.as_nanos(),
                        task: id,
                    });
                }
                tick.made_runnable.push(id);
            }
            Resolved::Sleep(until) => {
                self.tasks.state[i] = TState::Sleeping;
                self.post(until, EvKind::Wake(id));
            }
            Resolved::Exit => {
                if self.tasks.attached[i] {
                    // The detach must hit the scheduler at its exact
                    // position in the event order.
                    self.flush_attaches(&mut tick.attaches);
                    self.flush_wakes(&mut tick.wakes);
                    self.sched.detach(id, self.now);
                }
                self.finish_task(id);
            }
        }
    }

    fn on_kill(&mut self, idx: usize) {
        let Some(id) = self.arrivals[idx].spawned else {
            return;
        };
        let i = TaskArena::idx(id);
        match self.tasks.state[i] {
            TState::Exited => {}
            TState::Running(cpu) => {
                self.stop_running(cpu, SwitchReason::Exited);
                self.finish_task(id);
                self.dispatch(cpu);
            }
            TState::Ready => {
                self.sched.detach(id, self.now);
                self.finish_task(id);
            }
            TState::Sleeping => {
                if self.tasks.attached[i] {
                    self.sched.detach(id, self.now);
                }
                self.finish_task(id);
            }
        }
    }

    fn on_wake(&mut self, id: TaskId) {
        if self.tasks.state[TaskArena::idx(id)] != TState::Sleeping {
            return; // killed or already woken
        }
        if self.delay_dropped_wake(id) {
            return;
        }
        self.continue_task(id);
    }

    /// If an injected [`FaultKind::WakeDrop`] is pending for the task,
    /// consumes it and re-posts the wake that much later, modelling a
    /// lost-then-retried wakeup. Returns true if the wake was deferred.
    fn delay_dropped_wake(&mut self, id: TaskId) -> bool {
        let i = TaskArena::idx(id);
        let delay = self.tasks.wake_delay[i];
        if delay.is_zero() {
            return false;
        }
        self.tasks.wake_delay[i] = Duration::ZERO;
        self.post(self.now + delay, EvKind::Wake(id));
        true
    }

    /// Applies injected fault `fidx` and immediately runs its recovery
    /// action; scheduler invariants are re-checked after any forced
    /// reap, with failures counted rather than propagated.
    fn on_fault(&mut self, fidx: usize) {
        self.faults_injected += 1;
        match self.fault_kinds[fidx] {
            FaultKind::Panic { task } => self.fault_panic(task),
            FaultKind::Stall { cpu, dur } => self.fault_slow(cpu, dur, true),
            FaultKind::Jitter { cpu, dur } => self.fault_slow(cpu, dur, false),
            FaultKind::WakeDrop { task, dur } => self.fault_wake_drop(task, dur),
        }
        self.faults_recovered += 1;
    }

    /// Resolves a fault's arrival-order task index to a spawned,
    /// still-live task id (faults targeting unspawned or exited tasks
    /// are no-ops — trivially recovered).
    fn fault_target(&self, task: u64) -> Option<TaskId> {
        let id = self.arrivals.get(task as usize)?.spawned?;
        (self.tasks.state[TaskArena::idx(id)] != TState::Exited).then_some(id)
    }

    /// An injected task panic: the task is forcibly reaped through
    /// [`Scheduler::reap`] (weight released, §2.1 readjustment applied)
    /// and marked in the trace, exactly as the real-time executor's
    /// `catch_unwind` cleanup does for a genuinely panicking body.
    fn fault_panic(&mut self, task: u64) {
        let Some(id) = self.fault_target(task) else {
            return;
        };
        let i = TaskArena::idx(id);
        match self.tasks.state[i] {
            TState::Exited => unreachable!("fault_target filters exited tasks"),
            TState::Running(cpu) => {
                self.stop_running(cpu, SwitchReason::Exited);
                self.reap_task(id);
                self.dispatch(cpu);
            }
            TState::Ready => {
                self.sched.reap(id, self.now);
                self.reap_task(id);
            }
            TState::Sleeping => {
                if self.tasks.attached[i] {
                    self.sched.reap(id, self.now);
                }
                self.reap_task(id);
            }
        }
        // A reap is exactly the surgery that could corrupt a run queue:
        // re-check the scheduler's structural invariants and count
        // (rather than abort on) any violation.
        let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.sched.check_invariants();
        }))
        .is_ok();
        if !ok {
            self.invariant_violations += 1;
        }
    }

    /// Marks a task killed by fault recovery and routes it through the
    /// normal exit path (the caller has already stopped it and released
    /// its scheduler weight).
    fn reap_task(&mut self, id: TaskId) {
        self.trace.mark_reaped(id);
        if self.rec.on() {
            self.trace_buf.push(TraceEvent::TaskReaped {
                t: self.now.as_nanos(),
                task: id,
            });
        }
        self.finish_task(id);
    }

    /// A stalled or jittered CPU: the running task holds the processor
    /// `dur` longer than it should. A stall also burns `dur` of extra
    /// demand (the task made no progress while stalled); jitter only
    /// delays the quantum timer, so expiry is observed late.
    fn fault_slow(&mut self, cpu: u32, dur: Duration, stall: bool) {
        let c = cpu as usize;
        if c >= self.cpus.len() {
            return;
        }
        let Some(id) = self.cpus[c].current else {
            return; // idle CPU: nothing to disturb
        };
        self.charge_compute(c);
        let i = TaskArena::idx(id);
        if stall {
            self.tasks.remaining[i] += dur;
        }
        let cpu_s = &mut self.cpus[c];
        if stall {
            cpu_s.quantum_deadline += dur;
        }
        // Invalidate the pending timer and reschedule. An earlier
        // jitter fault may have pushed the pending timer past the
        // quantum deadline; a second fault then sees a deadline in the
        // past, so clamp to now before rescheduling.
        cpu_s.token += 1;
        let fire = (self.now + self.tasks.remaining[i])
            .min(cpu_s.quantum_deadline)
            .max(self.now);
        let fire = if stall { fire } else { fire + dur };
        let token = cpu_s.token;
        self.post(fire, EvKind::CpuTimer { cpu: c, token });
    }

    /// A dropped wakeup: the task's next wake event will be re-posted
    /// `dur` late (see [`Simulator::delay_dropped_wake`]).
    fn fault_wake_drop(&mut self, task: u64, dur: Duration) {
        let Some(id) = self.fault_target(task) else {
            return;
        };
        let i = TaskArena::idx(id);
        if self.tasks.state[i] == TState::Sleeping {
            self.tasks.wake_delay[i] += dur;
        }
    }

    fn on_cpu_timer(&mut self, cpu_idx: usize, token: u64) {
        if self.cpus[cpu_idx].token != token {
            return; // stale timer
        }
        // invariant: the token matched, and tokens are bumped on
        // every dispatch/idle transition — the CPU still runs the task
        // this timer was armed for.
        let id = self.cpus[cpu_idx].current.expect("timer fired on idle CPU");
        self.charge_compute(cpu_idx);
        let i = TaskArena::idx(id);
        if !self.tasks.remaining[i].is_zero() {
            // Quantum expired mid-phase.
            self.stop_running(cpu_idx, SwitchReason::Preempted);
            self.tasks.state[i] = TState::Ready;
            self.dispatch(cpu_idx);
            return;
        }
        // The compute phase completed.
        let response = if self.tasks.awaiting_response[i] {
            self.tasks.awaiting_response[i] = false;
            Some(self.now.since(self.tasks.last_wake[i]))
        } else {
            None
        };
        self.trace.complete(id, response);
        match self.resolve_next_phase(id) {
            Resolved::Compute(d) => {
                self.tasks.remaining[i] = d;
                let cpu = &mut self.cpus[cpu_idx];
                if self.now < cpu.quantum_deadline {
                    // Keep running within the same quantum.
                    cpu.token += 1;
                    let fire = (self.now + d).min(cpu.quantum_deadline);
                    let token = cpu.token;
                    self.post(
                        fire,
                        EvKind::CpuTimer {
                            cpu: cpu_idx,
                            token,
                        },
                    );
                } else {
                    self.stop_running(cpu_idx, SwitchReason::Preempted);
                    self.tasks.state[i] = TState::Ready;
                    self.dispatch(cpu_idx);
                }
            }
            Resolved::Sleep(until) => {
                self.stop_running(cpu_idx, SwitchReason::Blocked);
                self.tasks.state[i] = TState::Sleeping;
                if let Some(g) = &mut self.gms {
                    g.set_runnable(id, false);
                }
                self.post(until, EvKind::Wake(id));
                self.dispatch(cpu_idx);
            }
            Resolved::Exit => {
                self.stop_running(cpu_idx, SwitchReason::Exited);
                self.finish_task(id);
                self.dispatch(cpu_idx);
            }
        }
    }

    fn on_sample(&mut self) {
        if !self.cfg.lean {
            let in_flight: Vec<(TaskId, Duration)> = self
                .cpus
                .iter()
                .filter_map(|c| c.current.map(|id| (id, self.now.since(c.dispatched_at))))
                .collect();
            for i in 0..self.tasks.len() {
                if self.tasks.state[i] == TState::Exited {
                    continue;
                }
                let id = TaskId(i as u64 + 1);
                let extra = in_flight
                    .iter()
                    .find(|(other, _)| *other == id)
                    .map(|(_, d)| *d)
                    .unwrap_or(Duration::ZERO);
                self.trace.sample(id, self.now, extra);
            }
        }
        self.record_counters();
        let next = self.now + self.cfg.sample_every;
        if next.as_nanos() <= self.cfg.duration.as_nanos() {
            self.post(next, EvKind::Sample);
        }
    }

    fn final_sample(&mut self) {
        if !self.cfg.lean {
            for i in 0..self.tasks.len() {
                self.trace
                    .sample(TaskId(i as u64 + 1), self.now, Duration::ZERO);
            }
        }
        self.record_counters();
    }

    // ---- task lifecycle -------------------------------------------------

    /// Pulls the task's next phase(s) after an arrival or wakeup and
    /// moves it into the right state.
    fn continue_task(&mut self, id: TaskId) {
        let i = TaskArena::idx(id);
        match self.resolve_next_phase(id) {
            Resolved::Compute(d) => {
                self.tasks.remaining[i] = d;
                self.tasks.last_wake[i] = self.now;
                self.tasks.awaiting_response[i] = true;
                self.make_runnable(id);
            }
            Resolved::Sleep(until) => {
                self.tasks.state[i] = TState::Sleeping;
                self.post(until, EvKind::Wake(id));
            }
            Resolved::Exit => {
                if self.tasks.attached[i] {
                    self.sched.detach(id, self.now);
                }
                self.finish_task(id);
            }
        }
    }

    /// Resolves behaviour output to a definite next step, skipping
    /// zero-cost computes and past deadlines.
    fn resolve_next_phase(&mut self, id: TaskId) -> Resolved {
        let i = TaskArena::idx(id);
        for _ in 0..10_000 {
            let now = self.now;
            match self.tasks.behavior[i].next(now) {
                Phase::Compute(d) if !d.is_zero() => return Resolved::Compute(d),
                Phase::Compute(_) => {
                    self.trace.complete(id, None);
                }
                Phase::Block(d) => return Resolved::Sleep(now + d),
                Phase::BlockUntil(t) => {
                    if t > now {
                        return Resolved::Sleep(t);
                    }
                }
                Phase::Exit => return Resolved::Exit,
            }
        }
        panic!("behavior of task {id} made no progress over 10000 phases");
    }

    fn make_runnable(&mut self, id: TaskId) {
        let i = TaskArena::idx(id);
        let weight = self.tasks.weight[i];
        let tenant = self.tasks.tenant[i];
        if self.tasks.attached[i] {
            self.sched.wake(id, self.now);
            if let Some(g) = &mut self.gms {
                g.set_runnable(id, true);
            }
        } else {
            self.sched.attach_tenant(id, weight, tenant, self.now);
            self.tasks.attached[i] = true;
            if let Some(g) = &mut self.gms {
                g.add(id, weight, true);
            }
        }
        self.tasks.state[i] = TState::Ready;
        if self.rec.on() {
            self.trace_buf.push(TraceEvent::Wake {
                t: self.now.as_nanos(),
                task: id,
            });
        }
        self.dispatch_all();
        self.preempt_check(id);
    }

    fn finish_task(&mut self, id: TaskId) {
        let i = TaskArena::idx(id);
        self.tasks.state[i] = TState::Exited;
        let stream = self.tasks.stream[i];
        self.trace.exited(id, self.now);
        if self.tasks.admitted[i] {
            self.tasks.admitted[i] = false;
            let tenant = self.tasks.tenant[i];
            if let Some(ctrl) = &mut self.admission {
                ctrl.release(tenant);
            }
        }
        if let Some(g) = &mut self.gms {
            if self.tasks.attached[i] {
                g.remove(id);
            }
        }
        if let Some(sidx) = stream {
            let next_at = self.now + self.streams[sidx].gap;
            let s = &mut self.streams[sidx];
            if next_at < s.until {
                s.spawned += 1;
                let label = TaskLabel {
                    sym: s.sym,
                    replica: s.spawned as u32,
                };
                let (weight, spec) = (s.weight, s.spec.clone());
                self.schedule_arrival_inner(next_at, label, weight, spec, None, Some(sidx));
            }
        }
    }

    // ---- CPU handling ---------------------------------------------------

    fn dispatch_all(&mut self) {
        for i in 0..self.cpus.len() {
            self.dispatch(i);
        }
    }

    fn dispatch(&mut self, cpu_idx: usize) {
        if self.cpus[cpu_idx].current.is_some() {
            return;
        }
        let Some(next) = self.sched.pick_next(CpuId(cpu_idx as u32), self.now) else {
            return;
        };
        let switching = self.cpus[cpu_idx].last_task != Some(next);
        if switching {
            self.ctx_switches += 1;
        }
        if self.rec.on() {
            let t = self.now.as_nanos();
            if switching {
                self.trace_buf.push(TraceEvent::CtxSwitch {
                    t,
                    cpu: cpu_idx as u32,
                    from: self.cpus[cpu_idx].last_task,
                    to: next,
                });
            }
            self.trace_buf.push(TraceEvent::SliceBegin {
                t,
                cpu: cpu_idx as u32,
                task: next,
            });
        }
        let cs = if switching {
            self.cfg.ctx_switch
        } else {
            Duration::ZERO
        };
        let slice = self.sched.time_slice(next);
        let i = TaskArena::idx(next);
        debug_assert_eq!(
            self.tasks.state[i],
            TState::Ready,
            "dispatching non-ready task"
        );
        self.tasks.state[i] = TState::Running(cpu_idx);
        let remaining = self.tasks.remaining[i];
        let cpu = &mut self.cpus[cpu_idx];
        cpu.current = Some(next);
        cpu.dispatched_at = self.now;
        cpu.last_charge = self.now + cs;
        cpu.quantum_deadline = cpu.last_charge + slice;
        cpu.token += 1;
        let fire = (cpu.last_charge + remaining).min(cpu.quantum_deadline);
        let token = cpu.token;
        self.post(
            fire,
            EvKind::CpuTimer {
                cpu: cpu_idx,
                token,
            },
        );
    }

    /// Charges compute progress since the last charge point.
    fn charge_compute(&mut self, cpu_idx: usize) {
        let cpu = &mut self.cpus[cpu_idx];
        // invariant: every caller just checked or installed
        // `current`; idle CPUs are never charged.
        let id = cpu.current.expect("charging idle CPU");
        let elapsed = self.now.since(cpu.last_charge);
        cpu.last_charge = self.now.max(cpu.last_charge);
        let i = TaskArena::idx(id);
        self.tasks.remaining[i] = self.tasks.remaining[i].saturating_sub(elapsed);
    }

    /// Removes the current task from a CPU, reporting actual usage to
    /// the scheduler. The caller updates the engine-side task state.
    fn stop_running(&mut self, cpu_idx: usize, reason: SwitchReason) {
        self.charge_compute(cpu_idx);
        let cpu = &mut self.cpus[cpu_idx];
        // invariant: callers stop a CPU only after dispatching to it
        // (preempt, block, exit all take the running task as input).
        let id = cpu.current.take().expect("stopping idle CPU");
        let q = self.now.since(cpu.dispatched_at);
        cpu.last_task = Some(id);
        cpu.token += 1; // invalidate any pending timer
        self.sched.put_prev(id, q, reason, self.now);
        self.trace.add_service(id, q);
        if self.rec.on() {
            let t = self.now.as_nanos();
            self.trace_buf.push(TraceEvent::SliceEnd {
                t,
                cpu: cpu_idx as u32,
                task: id,
                reason,
            });
            if self.tenants_present {
                if let Some(tenant) = self.tasks.tenant[TaskArena::idx(id)] {
                    self.rec.add_tenant_service(t, tenant, q.as_nanos());
                }
            }
        }
    }

    fn preempt_check(&mut self, woken: TaskId) {
        if self.tasks.state[TaskArena::idx(woken)] != TState::Ready {
            return;
        }
        self.candidates.clear();
        self.candidates
            .extend(self.cpus.iter().enumerate().filter_map(|(i, c)| {
                c.current
                    .map(|running| (i, running, self.now.since(c.dispatched_at)))
            }));
        let Some((i, running)) =
            select_preemption_victim(self.sched.as_ref(), woken, &self.candidates, self.now)
        else {
            return;
        };
        if self.rec.on() {
            self.trace_buf.push(TraceEvent::PreemptEvict {
                t: self.now.as_nanos(),
                cpu: i as u32,
                victim: running,
                by: woken,
            });
        }
        self.stop_running(i, SwitchReason::Preempted);
        self.tasks.state[TaskArena::idx(running)] = TState::Ready;
        self.dispatch(i);
    }

    /// Emits counter samples and readjustment-epoch deltas (recording
    /// runs only; called from the periodic sample event).
    fn record_counters(&mut self) {
        if !self.rec.on() {
            return;
        }
        let t = self.now.as_nanos();
        if let Some(v) = self.sched.virtual_time() {
            self.trace_buf.push(TraceEvent::Counter {
                t,
                track: CounterTrack::VirtualTime,
                value: v.to_f64(),
            });
        }
        self.trace_buf.push(TraceEvent::Counter {
            t,
            track: CounterTrack::Runnable,
            value: self.sched.nr_runnable() as f64,
        });
        let mut max_surplus: Option<f64> = None;
        let mut min_phi: Option<f64> = None;
        for cpu in &self.cpus {
            let Some(id) = cpu.current else { continue };
            let ran = self.now.since(cpu.dispatched_at);
            if let Some(s) = self.sched.charged_surplus(id, ran, self.now) {
                let s = s.to_f64();
                max_surplus = Some(max_surplus.map_or(s, |m| m.max(s)));
            }
            if let Some(phi) = self.sched.adjusted_weight_of(id) {
                let phi = phi.to_f64();
                min_phi = Some(min_phi.map_or(phi, |m| m.min(phi)));
            }
        }
        if let Some(value) = max_surplus {
            self.trace_buf.push(TraceEvent::Counter {
                t,
                track: CounterTrack::MaxRunSurplus,
                value,
            });
        }
        if let Some(value) = min_phi {
            self.trace_buf.push(TraceEvent::Counter {
                t,
                track: CounterTrack::MinRunPhi,
                value,
            });
        }
        let stats = self.sched.stats();
        let (calls, clamped) = (stats.readjust_calls, stats.weights_clamped);
        if calls > self.last_readjust.0 {
            self.trace_buf.push(TraceEvent::Readjust {
                t,
                calls: calls - self.last_readjust.0,
                clamped: clamped.saturating_sub(self.last_readjust.1),
            });
        }
        self.last_readjust = (calls, clamped);
    }
}

enum Resolved {
    Compute(Duration),
    Sleep(Time),
    Exit,
}

/// The pending same-operation runs of one tick batch and the tasks it
/// made runnable (see [`Simulator::on_tick_batch`]). Empty between
/// batches; only the capacity carries over.
#[derive(Default)]
struct TickScratch {
    attaches: Vec<(TaskId, Weight, Option<TenantId>)>,
    wakes: Vec<TaskId>,
    made_runnable: Vec<TaskId>,
}

impl TickScratch {
    /// Empties the lists (the pending runs are already flushed) and, as
    /// the wheel does with its slot buffers, frees what a burst grew
    /// past [`KEEP_CAPACITY`]: a mega-scale t = 0 arrival wave must not
    /// pin its lists for the rest of the run.
    fn reset(&mut self) {
        self.made_runnable.clear();
        self.attaches.shrink_to(KEEP_CAPACITY);
        self.wakes.shrink_to(KEEP_CAPACITY);
        self.made_runnable.shrink_to(KEEP_CAPACITY);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs_core::policy::PolicySpec;
    use sfs_core::task::weight;

    fn quick_cfg(cpus: u32, secs: u64) -> SimConfig {
        SimConfig {
            cpus,
            duration: Duration::from_secs(secs),
            sample_every: Duration::from_millis(200),
            ..SimConfig::default()
        }
    }

    fn sfs(cpus: u32) -> Box<dyn Scheduler> {
        PolicySpec::sfs()
            .with_quantum(Duration::from_millis(20))
            .build(cpus)
    }

    #[test]
    fn single_cpu_bound_task_gets_everything() {
        let mut sim = Simulator::new(quick_cfg(1, 2), sfs(1));
        sim.schedule_arrival(Time::ZERO, "T1", weight(1), BehaviorSpec::Inf);
        let rep = sim.run();
        let t = rep.task("T1").unwrap();
        // Minus context switches (one initial dispatch), service ≈ 2 s.
        assert!(t.service >= Duration::from_millis(1990), "{:?}", t.service);
    }

    #[test]
    fn proportional_shares_on_two_cpus() {
        let mut sim = Simulator::new(quick_cfg(2, 10), sfs(2));
        sim.schedule_arrival(Time::ZERO, "heavy", weight(2), BehaviorSpec::Inf);
        sim.schedule_arrival(Time::ZERO, "light1", weight(1), BehaviorSpec::Inf);
        sim.schedule_arrival(Time::ZERO, "light2", weight(1), BehaviorSpec::Inf);
        let rep = sim.run();
        let h = rep.task("heavy").unwrap().service.as_secs_f64();
        let l1 = rep.task("light1").unwrap().service.as_secs_f64();
        let l2 = rep.task("light2").unwrap().service.as_secs_f64();
        assert!((h / l1 - 2.0).abs() < 0.05, "h/l1 = {}", h / l1);
        assert!((h / l2 - 2.0).abs() < 0.05, "h/l2 = {}", h / l2);
        // Work conservation: total ≈ 2 CPUs × 10 s.
        assert!(h + l1 + l2 > 19.8, "total {}", h + l1 + l2);
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let mut sim = Simulator::new(quick_cfg(2, 5), sfs(2));
            sim.schedule_arrival(Time::ZERO, "a", weight(3), BehaviorSpec::Inf);
            sim.schedule_arrival(
                Time::ZERO,
                "b",
                weight(1),
                BehaviorSpec::Compile {
                    burst: Duration::from_millis(40),
                    io: Duration::from_millis(2),
                },
            );
            sim.schedule_arrival(
                Time::from_secs(1),
                "c",
                weight(1),
                BehaviorSpec::Interact {
                    think: Duration::from_millis(50),
                    burst: Duration::from_millis(5),
                },
            );
            let rep = sim.run();
            rep.tasks
                .iter()
                .map(|t| (t.name.clone(), t.service, t.completions))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn mpeg_alone_hits_target_frame_rate() {
        let mut sim = Simulator::new(quick_cfg(1, 10), sfs(1));
        sim.schedule_arrival(
            Time::ZERO,
            "mpeg",
            weight(1),
            BehaviorSpec::Mpeg {
                fps: 30,
                frame_cost: Duration::from_millis(10),
            },
        );
        let rep = sim.run();
        let t = rep.task("mpeg").unwrap();
        let rate = t.completion_rate(Time::from_secs(10));
        assert!((rate - 30.0).abs() < 1.0, "frame rate {rate}");
    }

    #[test]
    fn mpeg_degrades_when_overloaded() {
        // Frame cost 50 ms at 30 fps needs 1.5 CPUs: on one CPU the
        // decoder can do at most 20 fps.
        let mut sim = Simulator::new(quick_cfg(1, 10), sfs(1));
        sim.schedule_arrival(
            Time::ZERO,
            "mpeg",
            weight(1),
            BehaviorSpec::Mpeg {
                fps: 30,
                frame_cost: Duration::from_millis(50),
            },
        );
        let rep = sim.run();
        let rate = rep
            .task("mpeg")
            .unwrap()
            .completion_rate(Time::from_secs(10));
        assert!((rate - 20.0).abs() < 1.0, "frame rate {rate}");
    }

    #[test]
    fn wake_preemption_selects_worst_victim_not_first() {
        // Regression: preempt_check used to evict the *first* CPU whose
        // running task lost to the woken one. With a near-tie on CPU 0
        // and a far-worse task on CPU 2, the victim must be CPU 2.
        let mut sched = PolicySpec::sfs()
            .with_quantum(Duration::from_millis(1))
            .build(3);
        let now = Time::ZERO;
        for i in 1..=4u64 {
            sched.attach(TaskId(i), weight(1), now);
        }
        // Deterministic id tie-break: T1→cpu0, T2→cpu1, T3→cpu2;
        // T4 stays ready with zero surplus.
        for c in 0..3u32 {
            assert_eq!(
                sched.pick_next(sfs_core::task::CpuId(c), now),
                Some(TaskId(c as u64 + 1))
            );
        }
        let candidates = [
            (0usize, TaskId(1), Duration::from_micros(200)),
            (1usize, TaskId(2), Duration::from_micros(150)),
            (2usize, TaskId(3), Duration::from_millis(50)),
        ];
        // Every CPU is preemptable (all charged surpluses exceed the
        // woken task's zero surplus plus the margin)...
        for &(_, running, ran) in &candidates {
            assert!(sched.wake_preempts(TaskId(4), running, ran, now));
        }
        // ...but the selected victim is the largest-surplus one.
        let victim = select_preemption_victim(sched.as_ref(), TaskId(4), &candidates, now);
        assert_eq!(victim, Some((2, TaskId(3))));
        // With no eligible CPU there is no victim.
        let none = select_preemption_victim(sched.as_ref(), TaskId(4), &[], now);
        assert_eq!(none, None);
    }

    #[test]
    fn interactive_response_reasonable_under_sfs() {
        let mut sim = Simulator::new(quick_cfg(1, 20), sfs(1));
        sim.schedule_arrival(
            Time::ZERO,
            "interact",
            weight(1),
            BehaviorSpec::Interact {
                think: Duration::from_millis(100),
                burst: Duration::from_millis(5),
            },
        );
        sim.schedule_arrival(Time::ZERO, "hog", weight(1), BehaviorSpec::Inf);
        let rep = sim.run();
        let t = rep.task("interact").unwrap();
        let r = t.responses.as_ref().expect("no responses recorded");
        assert!(r.count() > 50, "too few requests: {}", r.count());
        // Wake preemption keeps responses near the burst length.
        assert!(r.mean() < 30.0, "mean response {} ms too high", r.mean());
    }

    #[test]
    fn kill_stops_a_task() {
        let mut sim = Simulator::new(quick_cfg(2, 10), sfs(2));
        let _a = sim.schedule_arrival(Time::ZERO, "a", weight(1), BehaviorSpec::Inf);
        let b = sim.schedule_arrival(Time::ZERO, "b", weight(1), BehaviorSpec::Inf);
        sim.schedule_kill(Time::from_secs(3), b);
        let rep = sim.run();
        let b = rep.task("b").unwrap();
        assert!(b.exited.is_some());
        assert!(
            b.service <= Duration::from_millis(3050),
            "b kept running: {:?}",
            b.service
        );
    }

    #[test]
    fn stream_spawns_jobs_back_to_back() {
        let mut sim = Simulator::new(quick_cfg(2, 5), sfs(2));
        sim.schedule_arrival(Time::ZERO, "bg", weight(1), BehaviorSpec::Inf);
        sim.add_stream(
            Time::ZERO,
            "short",
            weight(5),
            BehaviorSpec::Finite(Duration::from_millis(300)),
            Duration::ZERO,
            Time::from_secs(5),
        );
        let rep = sim.run();
        let shorts: Vec<_> = rep
            .tasks
            .iter()
            .filter(|t| t.name.starts_with("short#"))
            .collect();
        // 2 CPUs, 1 hog: a short job effectively owns a CPU, so ~300 ms
        // per job ⇒ ≈ 16 jobs in 5 s.
        assert!(shorts.len() >= 10, "only {} short jobs ran", shorts.len());
        // All but possibly the last exited after receiving 300 ms.
        for s in &shorts[..shorts.len() - 1] {
            assert!(s.exited.is_some(), "{} never finished", s.name);
            assert!(
                s.service >= Duration::from_millis(299),
                "{} got {:?}",
                s.name,
                s.service
            );
        }
    }

    #[test]
    fn gms_tracking_bounds_sfs_error() {
        let cfg = SimConfig {
            track_gms: true,
            ..quick_cfg(2, 10)
        };
        let mut sim = Simulator::new(cfg, sfs(2));
        sim.schedule_arrival(Time::ZERO, "a", weight(4), BehaviorSpec::Inf);
        sim.schedule_arrival(Time::ZERO, "b", weight(2), BehaviorSpec::Inf);
        sim.schedule_arrival(Time::ZERO, "c", weight(1), BehaviorSpec::Inf);
        sim.schedule_arrival(Time::ZERO, "d", weight(1), BehaviorSpec::Inf);
        let rep = sim.run();
        for t in &rep.tasks {
            let err = t.gms_error.expect("gms error missing");
            // Deviation from the fluid ideal stays within a few quanta.
            assert!(
                err < Duration::from_millis(100),
                "{}: GMS error {err}",
                t.name
            );
        }
    }

    #[test]
    fn timesharing_ignores_weights_in_sim() {
        let mut sim = Simulator::new(quick_cfg(2, 10), PolicySpec::time_sharing().build(2));
        sim.schedule_arrival(Time::ZERO, "w10", weight(10), BehaviorSpec::Inf);
        sim.schedule_arrival(Time::ZERO, "w1a", weight(1), BehaviorSpec::Inf);
        sim.schedule_arrival(Time::ZERO, "w1b", weight(1), BehaviorSpec::Inf);
        let rep = sim.run();
        let a = rep.task("w10").unwrap().service.as_secs_f64();
        let b = rep.task("w1a").unwrap().service.as_secs_f64();
        assert!((a / b - 1.0).abs() < 0.1, "time sharing skewed: {}", a / b);
    }

    #[test]
    fn context_switches_are_counted() {
        let mut sim = Simulator::new(quick_cfg(1, 2), sfs(1));
        sim.schedule_arrival(Time::ZERO, "a", weight(1), BehaviorSpec::Inf);
        sim.schedule_arrival(Time::ZERO, "b", weight(1), BehaviorSpec::Inf);
        let rep = sim.run();
        // 2 s / 20 ms quanta alternating between two tasks.
        assert!(rep.ctx_switches > 50, "{}", rep.ctx_switches);
    }

    #[test]
    fn series_are_monotone() {
        let mut sim = Simulator::new(quick_cfg(2, 5), sfs(2));
        sim.schedule_arrival(Time::ZERO, "a", weight(1), BehaviorSpec::Inf);
        sim.schedule_arrival(Time::ZERO, "b", weight(3), BehaviorSpec::Inf);
        let rep = sim.run();
        for t in &rep.tasks {
            let pts = t.series.points();
            assert!(pts.len() > 5, "{} has too few samples", t.name);
            for w in pts.windows(2) {
                assert!(w[1].1 >= w[0].1 - 1e-9, "{} not monotone", t.name);
            }
        }
    }

    #[test]
    fn engine_counts_events() {
        let mut sim = Simulator::new(quick_cfg(1, 2), sfs(1));
        sim.schedule_arrival(Time::ZERO, "a", weight(1), BehaviorSpec::Inf);
        sim.schedule_arrival(Time::ZERO, "b", weight(1), BehaviorSpec::Inf);
        let rep = sim.run();
        // At least the arrivals, the samples, and one timer per quantum.
        assert!(rep.engine_events > 100, "{}", rep.engine_events);
    }

    #[test]
    fn lean_mode_matches_full_mode_service_totals() {
        let run = |lean: bool| {
            let cfg = SimConfig {
                lean,
                ..quick_cfg(2, 5)
            };
            let mut sim = Simulator::new(cfg, sfs(2));
            sim.schedule_arrival(Time::ZERO, "a", weight(3), BehaviorSpec::Inf);
            sim.schedule_arrival(
                Time::ZERO,
                "b",
                weight(1),
                BehaviorSpec::Finite(Duration::from_millis(500)),
            );
            sim.schedule_arrival(
                Time::from_millis(100),
                "c",
                weight(1),
                BehaviorSpec::Interact {
                    think: Duration::from_millis(50),
                    burst: Duration::from_millis(5),
                },
            );
            sim.run()
        };
        let full = run(false);
        let lean = run(true);
        // Lean mode changes what is *recorded*, never what happens.
        assert_eq!(lean.total_service(), full.total_service());
        assert_eq!(lean.ctx_switches, full.ctx_switches);
        assert_eq!(lean.engine_events, full.engine_events);
        let s = lean.summary.expect("lean summary");
        assert!(lean.tasks.is_empty());
        assert_eq!(s.tasks, full.tasks.len() as u64);
        let full_completions: u64 = full.tasks.iter().map(|t| t.completions).sum();
        assert_eq!(s.completions, full_completions);
        assert_eq!(
            s.exited,
            full.tasks.iter().filter(|t| t.exited.is_some()).count() as u64
        );
    }

    #[test]
    fn admission_cap_rejects_excess_tasks() {
        use sfs_core::admit::AdmissionPolicy;
        let mut sim = Simulator::new(quick_cfg(1, 2), sfs(1))
            .with_admission(AdmissionPolicy::none().with_max_live(2));
        for k in 0..5 {
            sim.schedule_arrival(Time::ZERO, &format!("t{k}"), weight(1), BehaviorSpec::Inf);
        }
        let rep = sim.run();
        assert_eq!(rep.health.rejected, 3);
        let rejected: Vec<_> = rep.tasks.iter().filter(|t| t.rejected).collect();
        assert_eq!(rejected.len(), 3);
        for t in &rejected {
            assert_eq!(t.service, Duration::ZERO, "{} ran after rejection", t.name);
            assert!(t.exited.is_some(), "{} still live", t.name);
        }
        // The two admitted tasks split the CPU.
        let admitted: Vec<_> = rep.tasks.iter().filter(|t| !t.rejected).collect();
        assert_eq!(admitted.len(), 2);
        for t in &admitted {
            assert!(
                t.service >= Duration::from_millis(900),
                "{} got {:?}",
                t.name,
                t.service
            );
        }
    }

    #[test]
    fn admission_releases_slots_on_exit() {
        use sfs_core::admit::AdmissionPolicy;
        // Cap 1: the finite job's exit must free the slot for the
        // later arrival.
        let mut sim = Simulator::new(quick_cfg(1, 2), sfs(1))
            .with_admission(AdmissionPolicy::none().with_max_live(1));
        sim.schedule_arrival(
            Time::ZERO,
            "first",
            weight(1),
            BehaviorSpec::Finite(Duration::from_millis(100)),
        );
        sim.schedule_arrival(Time::from_secs(1), "second", weight(1), BehaviorSpec::Inf);
        let rep = sim.run();
        assert_eq!(rep.health.rejected, 0);
        assert!(!rep.task("second").unwrap().rejected);
        assert!(rep.task("second").unwrap().service > Duration::from_millis(900));
    }

    #[test]
    fn injected_panic_reaps_and_survivors_split_the_cpu() {
        use sfs_core::fault::{FaultKind, FaultPlan};
        let plan = FaultPlan::new().with(Time::from_millis(500), FaultKind::Panic { task: 0 });
        let mut sim = Simulator::new(quick_cfg(1, 4), sfs(1)).with_faults(&plan);
        sim.schedule_arrival(Time::ZERO, "victim", weight(1), BehaviorSpec::Inf);
        sim.schedule_arrival(Time::ZERO, "a", weight(1), BehaviorSpec::Inf);
        sim.schedule_arrival(Time::ZERO, "b", weight(1), BehaviorSpec::Inf);
        let rep = sim.run();
        assert_eq!(rep.health.faults_injected, 1);
        assert_eq!(rep.health.faults_recovered, 1);
        assert_eq!(rep.health.invariant_violations, 0);
        let v = rep.task("victim").unwrap();
        assert!(v.reaped, "victim not marked reaped");
        assert!(v.exited.is_some());
        assert!(v.service <= Duration::from_millis(520), "{:?}", v.service);
        // Survivors split the remaining 3.5 s 1:1 — the reaped weight
        // was released, not leaked.
        let a = rep.task("a").unwrap().service.as_secs_f64();
        let b = rep.task("b").unwrap().service.as_secs_f64();
        assert!((a / b - 1.0).abs() < 0.05, "a/b = {}", a / b);
        assert!(a + b > 3.2, "survivors starved: {}", a + b);
    }

    #[test]
    fn stall_jitter_and_wakedrop_recover_deterministically() {
        use sfs_core::fault::{FaultKind, FaultPlan};
        let plan = FaultPlan::new()
            .with(
                Time::from_millis(200),
                FaultKind::Stall {
                    cpu: 0,
                    dur: Duration::from_millis(30),
                },
            )
            .with(
                Time::from_millis(900),
                FaultKind::Jitter {
                    cpu: 0,
                    dur: Duration::from_millis(5),
                },
            )
            .with(
                Time::from_millis(1400),
                FaultKind::WakeDrop {
                    task: 1,
                    dur: Duration::from_millis(40),
                },
            );
        let run = || {
            let mut sim = Simulator::new(quick_cfg(1, 3), sfs(1)).with_faults(&plan);
            sim.schedule_arrival(Time::ZERO, "hog", weight(1), BehaviorSpec::Inf);
            sim.schedule_arrival(
                Time::ZERO,
                "sleeper",
                weight(1),
                BehaviorSpec::Interact {
                    think: Duration::from_millis(100),
                    burst: Duration::from_millis(5),
                },
            );
            sim.run()
        };
        let rep = run();
        assert_eq!(rep.health.faults_injected, 3);
        assert_eq!(rep.health.faults_recovered, 3);
        assert_eq!(rep.health.invariant_violations, 0);
        // Both tasks keep making progress after the faults.
        assert!(rep.task("hog").unwrap().service > Duration::from_secs(2));
        assert!(rep.task("sleeper").unwrap().completions > 10);
        let again = run();
        let a: Vec<_> = rep.tasks.iter().map(|t| t.service).collect();
        let b: Vec<_> = again.tasks.iter().map(|t| t.service).collect();
        assert_eq!(a, b, "faulted runs must stay deterministic");
    }

    #[test]
    fn same_tick_arrival_burst_is_fair_and_deterministic() {
        // 64 tasks arriving at the same instant exercise the batched
        // arrive path end to end (one arrive_batch, one dispatch sweep).
        let run = || {
            let mut sim = Simulator::new(quick_cfg(2, 3), sfs(2));
            for k in 0..64 {
                sim.schedule_arrival(Time::ZERO, &format!("t{k}"), weight(1), BehaviorSpec::Inf);
            }
            sim.run()
        };
        let rep = run();
        let shares = rep.shares();
        for (i, s) in shares.iter().enumerate() {
            assert!(
                (s - 1.0 / 64.0).abs() < 0.2 / 64.0,
                "task {i} share {s} far from 1/64"
            );
        }
        let again = run();
        let a: Vec<_> = rep.tasks.iter().map(|t| t.service).collect();
        let b: Vec<_> = again.tasks.iter().map(|t| t.service).collect();
        assert_eq!(a, b, "batched runs must stay deterministic");
    }
}
