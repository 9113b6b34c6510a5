//! # sfs — Surplus Fair Scheduling for symmetric multiprocessors
//!
//! A complete, from-scratch Rust reproduction of
//! *Surplus Fair Scheduling: A Proportional-Share CPU Scheduling
//! Algorithm for Symmetric Multiprocessors* (Chandra, Adler, Goyal,
//! Shenoy; OSDI 2000).
//!
//! This facade crate re-exports the workspace:
//!
//! * [`core`] (`sfs-core`) — the algorithms: weight readjustment (§2.1),
//!   GMS (§2.2), SFS (§2.3, §3), hierarchical SFS over tenant groups
//!   (`"sfs:groups(batch=sfq,frontend*3=sfs)"`), the SFQ / time-sharing /
//!   stride / BVT / WFQ / round-robin baselines, and the [`core::policy`]
//!   registry that names all of them.
//! * [`sim`] (`sfs-sim`) — a deterministic discrete-event SMP simulator.
//! * [`rt`] (`sfs-rt`) — a userspace scheduler gating real OS threads.
//! * [`experiment`] (`sfs-experiment`) — one front-end over both
//!   substrates: run a [`Scenario`](sim::Scenario) under any
//!   [`PolicySpec`](core::policy::PolicySpec), or compare a whole
//!   policy matrix in one call.
//! * [`trace`] (`sfs-trace`) — one structured event vocabulary emitted
//!   by both substrates: Perfetto export (open runs in
//!   <https://ui.perfetto.dev>), trace validation, and the JSON layer
//!   behind deterministic capture/replay.
//! * [`workloads`] (`sfs-workloads`) — the paper's application models
//!   (Inf, Interact, mpeg_play, gcc, disksim, dhrystone, short jobs).
//! * [`metrics`] (`sfs-metrics`) — time series, statistics, fairness
//!   indices, tables and ASCII charts.
//! * [`analyze`] (`sfs-analyze`) — concurrency-correctness tooling:
//!   ranked mutexes with an optional lock-order audit (`lock-audit`
//!   feature) and a bounded interleaving checker over executor models.
//!
//! ## Quickstart
//!
//! Policies are named by parseable [`PolicySpec`](core::policy::PolicySpec)
//! strings — `"sfs:quantum=10ms"`, `"sfq:readjust"`, `"ts"` — and a
//! scenario plus a policy matrix is one [`Experiment`](experiment::Experiment)
//! call:
//!
//! ```
//! use sfs::prelude::*;
//!
//! // A two-CPU machine: weights 2:1:1 → shares 1/2 : 1/4 : 1/4.
//! let cfg = SimConfig {
//!     cpus: 2,
//!     duration: Duration::from_secs(2),
//!     ..SimConfig::default()
//! };
//! let scenario = Scenario::new("quick", cfg)
//!     .task(TaskSpec::new("db", 2, BehaviorSpec::Inf))
//!     .task(TaskSpec::new("http", 1, BehaviorSpec::Inf))
//!     .task(TaskSpec::new("batch", 1, BehaviorSpec::Inf));
//!
//! // Run one policy on the (deterministic) simulator...
//! let exp = Experiment::new(scenario.clone());
//! let report = exp.run("sfs:quantum=10ms").unwrap();
//! assert!(report.task("db").unwrap().service > report.task("http").unwrap().service);
//!
//! // ...or compare a whole matrix: SFS vs plain SFQ vs time sharing,
//! // with fairness-index deltas against the first (baseline) policy.
//! let cmp = exp.compare(["sfs:quantum=10ms", "sfq:quantum=10ms", "ts"]).unwrap();
//! println!("{}", cmp.to_table());
//! let deltas = cmp.deltas();
//! assert!(deltas[2].share_error_delta > 0.0, "time sharing ignores weights");
//! ```
//!
//! The same scenario, unchanged, also runs on **real OS threads** — the
//! scenario duration then becomes wall-clock time:
//!
//! ```no_run
//! use sfs::prelude::*;
//!
//! let cfg = SimConfig {
//!     cpus: 2,
//!     duration: Duration::from_millis(400), // wall clock on rt!
//!     ..SimConfig::default()
//! };
//! let scenario = Scenario::new("quick-rt", cfg)
//!     .task(TaskSpec::new("a", 3, BehaviorSpec::Inf))
//!     .task(TaskSpec::new("b", 1, BehaviorSpec::Inf));
//! let report = Experiment::on(scenario, RtSubstrate::default())
//!     .run("sfs:quantum=2ms")
//!     .unwrap();
//! assert_eq!(report.substrate, "rt");
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! harnesses regenerating every table and figure of the paper.

pub use sfs_analyze as analyze;
pub use sfs_core as core;
pub use sfs_experiment as experiment;
pub use sfs_metrics as metrics;
pub use sfs_rt as rt;
pub use sfs_sim as sim;
pub use sfs_trace as trace;
pub use sfs_workloads as workloads;

/// The most commonly used items across the workspace.
pub mod prelude {
    pub use sfs_core::prelude::*;
    pub use sfs_experiment::{
        Capture, ComparisonReport, Experiment, ExperimentError, ReplayReport, RtSubstrate,
        RunReport, SimSubstrate, Substrate, TaskFate, TaskOutcome,
    };
    pub use sfs_rt::{Executor, RtConfig, TaskCtx};
    pub use sfs_sim::{
        RunHealth, Scenario, ScenarioError, SimConfig, SimReport, StreamSpec, TaskSpec,
    };
    pub use sfs_trace::{EventTrace, TraceEvent, TraceRecorder};
    pub use sfs_workloads::{Behavior, BehaviorSpec, Phase};
}
