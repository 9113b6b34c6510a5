//! `TimedScheduler`: a transparent decorator that times every call a
//! substrate makes across the [`Scheduler`] boundary.
//!
//! It forwards *every* trait method — including the defaulted hooks, so
//! a policy's own `arrive_batch`/`reap`/`steal_candidate` overrides stay
//! in effect — and records one span per call. Spans are aggregated
//! locally (the decorator is owned by one engine, or sits under the
//! executor's shard lock) and merged into the shared [`Tracer`] when the
//! decorator is dropped, which both substrates do before their run call
//! returns. The output checks assert that a decorated run produces
//! exactly the counters and simulated results of a bare one.

use std::cell::RefCell;
use std::time::Instant;

use sfs_core::fixed::Fixed;
use sfs_core::sched::{SchedStats, Scheduler, SwitchReason};
use sfs_core::task::{CpuId, TaskId, TenantId, Weight};
use sfs_core::time::{Duration, Time};

use crate::spans::{RawSpan, SpanAgg, SpanId, Tracer, RAW_SPAN_CAP};

/// Span names, indexed by the `M_*` constants below.
pub const METHOD_SPANS: [&str; 10] = [
    "core.sched.pick",
    "core.sched.put_prev",
    "core.sched.wake",
    "core.sched.wake_batch",
    "core.sched.attach",
    "core.sched.attach_batch",
    "core.sched.detach",
    "core.sched.set_weight",
    "core.sched.preempt_query",
    "core.sched.query",
];

const M_PICK: usize = 0;
const M_PUT_PREV: usize = 1;
const M_WAKE: usize = 2;
const M_WAKE_BATCH: usize = 3;
const M_ATTACH: usize = 4;
const M_ATTACH_BATCH: usize = 5;
const M_DETACH: usize = 6;
const M_SET_WEIGHT: usize = 7;
const M_PREEMPT_QUERY: usize = 8;
const M_QUERY: usize = 9;

/// Tracer count: tasks woken through `wake_batch` calls, so per-task
/// wake cost divides by tasks and not by calls.
pub const WOKEN_IN_BATCHES: &str = "core.sched.wake_batch.tasks";
/// Tracer count: tasks attached through `attach_batch`/`arrive_batch`.
pub const ATTACHED_IN_BATCHES: &str = "core.sched.attach_batch.tasks";

struct Local {
    aggs: Vec<SpanAgg>,
    raw: Vec<RawSpan>,
    woken_in_batches: u64,
    attached_in_batches: u64,
}

/// See the [module docs](self).
pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    tracer: Tracer,
    parent: SpanId,
    /// Test-only slowdown: busy-wait this long inside every `pick_next`
    /// (the `compare` self-test's injected regression). Zero in every
    /// real run.
    pick_spin_ns: u64,
    // `RefCell`, not a lock: the decorator is `Send` but never shared —
    // `&self` queries and `&mut self` events come from one thread at a
    // time (the engine's, or whichever holds the executor's shard lock).
    local: RefCell<Local>,
}

impl TimedScheduler {
    /// Wraps `inner`; spans are parented under `parent` in `tracer`.
    pub fn new(inner: Box<dyn Scheduler>, tracer: &Tracer, parent: SpanId) -> TimedScheduler {
        TimedScheduler {
            inner,
            tracer: tracer.clone(),
            parent,
            pick_spin_ns: 0,
            local: RefCell::new(Local {
                aggs: vec![SpanAgg::default(); METHOD_SPANS.len()],
                raw: Vec::with_capacity(RAW_SPAN_CAP),
                woken_in_batches: 0,
                attached_in_batches: 0,
            }),
        }
    }

    /// Adds the test-only busy-wait to every `pick_next`.
    #[must_use]
    pub fn with_pick_spin(mut self, ns: u64) -> TimedScheduler {
        self.pick_spin_ns = ns;
        self
    }

    #[inline]
    fn record(&self, method: usize, start_ns: u64, end_ns: u64) {
        let mut l = self.local.borrow_mut();
        l.aggs[method].record(end_ns - start_ns);
        if l.raw.len() < RAW_SPAN_CAP {
            l.raw.push(RawSpan {
                name: METHOD_SPANS[method],
                start_ns,
                end_ns,
                parent: self.parent,
            });
        }
    }

    #[inline]
    fn timed<R>(&self, method: usize, f: impl FnOnce(&dyn Scheduler) -> R) -> R {
        let start = self.tracer.now_ns();
        let r = f(self.inner.as_ref());
        self.record(method, start, self.tracer.now_ns());
        r
    }

    #[inline]
    fn timed_mut<R>(&mut self, method: usize, f: impl FnOnce(&mut dyn Scheduler) -> R) -> R {
        let start = self.tracer.now_ns();
        let r = f(self.inner.as_mut());
        self.record(method, start, self.tracer.now_ns());
        r
    }
}

impl Drop for TimedScheduler {
    fn drop(&mut self) {
        let l = self.local.borrow();
        let aggs: Vec<(&'static str, SpanAgg)> = METHOD_SPANS
            .iter()
            .copied()
            .zip(l.aggs.iter().cloned())
            .collect();
        self.tracer.merge(&aggs, &l.raw);
        self.tracer.count(WOKEN_IN_BATCHES, l.woken_in_batches);
        self.tracer
            .count(ATTACHED_IN_BATCHES, l.attached_in_batches);
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.timed(M_QUERY, |s| s.name())
    }

    fn cpus(&self) -> u32 {
        self.timed(M_QUERY, |s| s.cpus())
    }

    fn attach(&mut self, id: TaskId, w: Weight, now: Time) {
        self.timed_mut(M_ATTACH, |s| s.attach(id, w, now));
    }

    fn bind_tenant(&self, group: &str) -> Option<TenantId> {
        self.timed(M_QUERY, |s| s.bind_tenant(group))
    }

    fn attach_tenant(&mut self, id: TaskId, w: Weight, tenant: Option<TenantId>, now: Time) {
        self.timed_mut(M_ATTACH, |s| s.attach_tenant(id, w, tenant, now));
    }

    fn attach_batch(&mut self, batch: &[(TaskId, Weight, Option<TenantId>)], now: Time) {
        self.local.borrow_mut().attached_in_batches += batch.len() as u64;
        self.timed_mut(M_ATTACH_BATCH, |s| s.attach_batch(batch, now));
    }

    fn arrive_batch(&mut self, batch: &[(TaskId, Weight, Option<TenantId>)], now: Time) {
        self.local.borrow_mut().attached_in_batches += batch.len() as u64;
        self.timed_mut(M_ATTACH_BATCH, |s| s.arrive_batch(batch, now));
    }

    fn wake_batch(&mut self, ids: &[TaskId], now: Time) {
        self.local.borrow_mut().woken_in_batches += ids.len() as u64;
        self.timed_mut(M_WAKE_BATCH, |s| s.wake_batch(ids, now));
    }

    fn tenant_of(&self, id: TaskId) -> Option<TenantId> {
        self.timed(M_QUERY, |s| s.tenant_of(id))
    }

    fn detach(&mut self, id: TaskId, now: Time) {
        self.timed_mut(M_DETACH, |s| s.detach(id, now));
    }

    fn reap(&mut self, id: TaskId, now: Time) {
        self.timed_mut(M_DETACH, |s| s.reap(id, now));
    }

    fn set_weight(&mut self, id: TaskId, w: Weight, now: Time) {
        self.timed_mut(M_SET_WEIGHT, |s| s.set_weight(id, w, now));
    }

    fn weight_of(&self, id: TaskId) -> Option<Weight> {
        self.timed(M_QUERY, |s| s.weight_of(id))
    }

    fn adjusted_weight_of(&self, id: TaskId) -> Option<Fixed> {
        self.timed(M_QUERY, |s| s.adjusted_weight_of(id))
    }

    fn wake(&mut self, id: TaskId, now: Time) {
        self.timed_mut(M_WAKE, |s| s.wake(id, now));
    }

    fn pick_next(&mut self, cpu: CpuId, now: Time) -> Option<TaskId> {
        let spin = self.pick_spin_ns;
        self.timed_mut(M_PICK, |s| {
            let picked = s.pick_next(cpu, now);
            if spin > 0 {
                let t0 = Instant::now();
                while (t0.elapsed().as_nanos() as u64) < spin {
                    std::hint::spin_loop();
                }
            }
            picked
        })
    }

    fn put_prev(&mut self, id: TaskId, ran: Duration, reason: SwitchReason, now: Time) {
        self.timed_mut(M_PUT_PREV, |s| s.put_prev(id, ran, reason, now));
    }

    fn time_slice(&self, id: TaskId) -> Duration {
        self.timed(M_QUERY, |s| s.time_slice(id))
    }

    fn wake_preempts(
        &self,
        woken: TaskId,
        running: TaskId,
        ran_so_far: Duration,
        now: Time,
    ) -> bool {
        self.timed(M_PREEMPT_QUERY, |s| {
            s.wake_preempts(woken, running, ran_so_far, now)
        })
    }

    fn steal_candidate(&self) -> Option<TaskId> {
        self.timed(M_PREEMPT_QUERY, |s| s.steal_candidate())
    }

    fn charged_surplus(&self, id: TaskId, ran_so_far: Duration, now: Time) -> Option<Fixed> {
        self.timed(M_PREEMPT_QUERY, |s| s.charged_surplus(id, ran_so_far, now))
    }

    fn nr_runnable(&self) -> usize {
        self.timed(M_QUERY, |s| s.nr_runnable())
    }

    fn nr_tasks(&self) -> usize {
        self.timed(M_QUERY, |s| s.nr_tasks())
    }

    fn stats(&self) -> SchedStats {
        self.timed(M_QUERY, |s| s.stats())
    }

    fn virtual_time(&self) -> Option<Fixed> {
        self.timed(M_QUERY, |s| s.virtual_time())
    }

    fn check_invariants(&self) {
        self.timed(M_QUERY, |s| s.check_invariants());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs_core::policy::PolicySpec;
    use sfs_core::task::weight;

    #[test]
    fn forwards_calls_and_flushes_spans_on_drop() {
        let tracer = Tracer::new();
        {
            let mut s = TimedScheduler::new(PolicySpec::sfs().build(2), &tracer, SpanId::ROOT);
            assert_eq!(s.cpus(), 2);
            s.attach(TaskId(1), weight(2), Time::ZERO);
            s.arrive_batch(
                &[(TaskId(2), weight(1), None), (TaskId(3), weight(1), None)],
                Time::ZERO,
            );
            assert_eq!(s.nr_runnable(), 3);
            let picked = s.pick_next(CpuId(0), Time::ZERO).expect("a ready task");
            s.put_prev(
                picked,
                Duration::from_millis(1),
                SwitchReason::Preempted,
                Time::from_millis(1),
            );
            assert_eq!(s.stats().picks, 1);
            // Nothing is visible until the decorator is dropped.
            assert!(tracer.agg("core.sched.pick").is_none());
        }
        assert_eq!(tracer.agg("core.sched.pick").unwrap().count, 1);
        assert_eq!(tracer.agg("core.sched.put_prev").unwrap().count, 1);
        assert_eq!(tracer.agg("core.sched.attach").unwrap().count, 1);
        assert_eq!(tracer.agg("core.sched.attach_batch").unwrap().count, 1);
        assert_eq!(tracer.counted(ATTACHED_IN_BATCHES), 2);
        // cpus, nr_runnable and stats went through the query span.
        assert_eq!(tracer.agg("core.sched.query").unwrap().count, 3);
    }

    #[test]
    fn pick_spin_shows_up_in_the_pick_span() {
        let tracer = Tracer::new();
        {
            let mut s = TimedScheduler::new(PolicySpec::sfs().build(1), &tracer, SpanId::ROOT)
                .with_pick_spin(200_000);
            s.attach(TaskId(1), weight(1), Time::ZERO);
            let _ = s.pick_next(CpuId(0), Time::ZERO);
        }
        assert!(tracer.sum_ns("core.sched.pick") >= 200_000);
    }
}
