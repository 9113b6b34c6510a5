//! Unified event tracing for the SFS reproduction.
//!
//! Both execution substrates — the deterministic simulator (`sfs-sim`)
//! and the real-thread executor (`sfs-rt`) — emit the same structured
//! [`TraceEvent`] vocabulary through a shared [`TraceRecorder`]:
//! per-CPU run slices, context switches, wakes, preemption evictions,
//! shard steals/rebalances, §2.1 readjustment epochs, and counter
//! samples (virtual time `v`, runnable count, running surplus/φ,
//! lock-wait times, per-tenant service). That one event stream feeds
//! three consumers:
//!
//! * **Perfetto export** ([`perfetto::encode`]): hand-encoded
//!   `TracePacket`/`TrackEvent` protobufs (the vendored-deps policy
//!   rules out `prost`) that open directly in
//!   <https://ui.perfetto.dev> with per-CPU tracks, per-task slices,
//!   and per-tenant counter tracks.
//! * **Validation** ([`EventTrace::validate`] and
//!   [`perfetto::validate_encoded`]): CI's structural checks —
//!   monotonic timestamps, every registered task has at least one run
//!   slice, balanced slice begin/end pairs, non-empty counter tracks —
//!   that fail the build on malformed output.
//! * **Capture/replay** ([`EventTrace::to_json`] /
//!   [`EventTrace::from_json`] over the [`json`] module): an rt run's
//!   event sequence serializes to JSON alongside its scenario and
//!   seeds, and `sfs_experiment::Experiment::replay` re-drives the sim
//!   from the capture for lockstep context-switch comparison.
//!
//! Recording is off by default everywhere. A disabled recorder
//! ([`TraceRecorder::off`]) reduces every instrumentation hook to one
//! relaxed atomic load, so the rt executor's hot path is unaffected
//! unless a trace was explicitly requested.

pub mod event;
pub mod json;
pub mod perfetto;
pub mod recorder;

pub use event::{
    CounterTrack, EventTrace, MigrateKind, TaskMeta, TraceError, TraceEvent, TraceMeta,
};
pub use json::Json;
pub use perfetto::PerfettoStats;
pub use recorder::TraceRecorder;
