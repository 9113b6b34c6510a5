//! The shared, thread-safe event recorder.
//!
//! A [`TraceRecorder`] is a cheap cloneable handle. Disabled recorders
//! (the default everywhere) reduce every hook to one relaxed atomic
//! load, so instrumenting the rt executor's hot path costs nothing when
//! tracing is off. Enabled recorders append events to a mutex-guarded
//! [`EventTrace`]; `finish()` stable-sorts by timestamp (rt events from
//! different shards can arrive slightly out of order) and hands the
//! trace back.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use sfs_core::task::{TaskId, TenantId};

use crate::event::{CounterTrack, EventTrace, TaskMeta, TraceEvent, TraceMeta};

struct State {
    trace: EventTrace,
    tenant_service_ns: HashMap<TenantId, u64>,
}

struct Shared {
    on: AtomicBool,
    state: Mutex<State>,
}

/// A cloneable handle onto one recording. See the module docs.
#[derive(Clone)]
pub struct TraceRecorder {
    inner: Arc<Shared>,
}

impl std::fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRecorder")
            .field("on", &self.on())
            .finish()
    }
}

impl TraceRecorder {
    /// A recorder that records nothing; every hook is a single relaxed
    /// atomic load.
    pub fn off() -> TraceRecorder {
        let rec = TraceRecorder::new(TraceMeta::default());
        // relaxed: an off recorder never flips back on; no event data
        // is published through this flag.
        rec.inner.on.store(false, Ordering::Relaxed);
        rec
    }

    /// A live recorder for one run.
    pub fn new(meta: TraceMeta) -> TraceRecorder {
        TraceRecorder {
            inner: Arc::new(Shared {
                on: AtomicBool::new(true),
                state: Mutex::new(State {
                    trace: EventTrace::new(meta),
                    tenant_service_ns: HashMap::new(),
                }),
            }),
        }
    }

    /// True if events are being recorded. Emission hooks check this
    /// first and skip all work when it is false.
    #[inline]
    pub fn on(&self) -> bool {
        // relaxed: pure fast-path gate; recorders that are on protect
        // their buffers with the state lock, not this flag.
        self.inner.on.load(Ordering::Relaxed)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.inner
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Adds a task to the registry (call at attach/spawn time).
    pub fn register_task(&self, id: TaskId, name: &str, weight: u64, tenant: Option<TenantId>) {
        if !self.on() {
            return;
        }
        self.lock().trace.tasks.push(TaskMeta {
            id,
            name: name.to_string(),
            weight,
            tenant,
        });
    }

    /// Appends one event. No-op while the recorder is off.
    #[inline]
    pub fn emit(&self, ev: TraceEvent) {
        if !self.on() {
            return;
        }
        self.lock().trace.events.push(ev);
    }

    /// Appends a batch of events under one lock. No-op while off.
    ///
    /// Single-threaded emitters (the simulator) buffer events locally
    /// in a plain `Vec` and flush through this, so their per-event
    /// recording cost is one unsynchronized push.
    pub fn emit_many(&self, evs: Vec<TraceEvent>) {
        if !self.on() || evs.is_empty() {
            return;
        }
        let mut state = self.lock();
        if state.trace.events.is_empty() {
            state.trace.events = evs; // take the buffer, don't copy it
        } else {
            state.trace.events.extend(evs);
        }
    }

    /// Accumulates `delta_ns` of CPU service for `tenant` and emits the
    /// cumulative value (in seconds) as a [`CounterTrack::TenantService`]
    /// sample at time `t`.
    pub fn add_tenant_service(&self, t: u64, tenant: TenantId, delta_ns: u64) {
        if !self.on() {
            return;
        }
        let mut state = self.lock();
        let total = state
            .tenant_service_ns
            .entry(tenant)
            .and_modify(|v| *v += delta_ns)
            .or_insert(delta_ns);
        let value = *total as f64 / 1e9;
        state.trace.events.push(TraceEvent::Counter {
            t,
            track: CounterTrack::TenantService(tenant),
            value,
        });
    }

    /// Stops recording and returns the trace, events stable-sorted by
    /// timestamp. The recorder is left off and empty.
    pub fn finish(&self) -> EventTrace {
        // relaxed: hooks that raced past the flag still take the state
        // lock below, which orders them against the drain.
        self.inner.on.store(false, Ordering::Relaxed);
        let mut state = self.lock();
        let meta = state.trace.meta.clone();
        let mut trace = std::mem::replace(&mut state.trace, EventTrace::new(meta));
        // Single-threaded emitters produce already-sorted events; skip
        // the sort (and its temp allocation) unless rt shards actually
        // interleaved.
        if !trace.events.is_sorted_by_key(TraceEvent::timestamp) {
            trace.events.sort_by_key(TraceEvent::timestamp);
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_recorder_drops_everything() {
        let rec = TraceRecorder::off();
        assert!(!rec.on());
        rec.register_task(TaskId(1), "a", 1, None);
        rec.emit(TraceEvent::Wake {
            t: 1,
            task: TaskId(1),
        });
        rec.add_tenant_service(1, TenantId(0), 5);
        let trace = rec.finish();
        assert!(trace.tasks.is_empty());
        assert!(trace.events.is_empty());
    }

    #[test]
    fn finish_sorts_and_tenant_service_accumulates() {
        let rec = TraceRecorder::new(TraceMeta::default());
        rec.emit(TraceEvent::Wake {
            t: 10,
            task: TaskId(1),
        });
        rec.emit(TraceEvent::Wake {
            t: 5,
            task: TaskId(2),
        });
        rec.add_tenant_service(12, TenantId(0), 1_000_000_000);
        rec.add_tenant_service(13, TenantId(0), 500_000_000);
        let trace = rec.finish();
        let ts: Vec<u64> = trace.events.iter().map(TraceEvent::timestamp).collect();
        assert_eq!(ts, vec![5, 10, 12, 13]);
        match trace.events[3] {
            TraceEvent::Counter { value, .. } => assert!((value - 1.5).abs() < 1e-9),
            ref other => panic!("unexpected event {other:?}"),
        }
        assert!(!rec.on(), "finish turns the recorder off");
    }
}
