//! # sfs-rt — a userspace scheduler over real OS threads
//!
//! The second substrate of the reproduction (the first is the
//! deterministic simulator in `sfs-sim`): real OS threads gated by `p`
//! *virtual CPUs*, multiplexed by any `sfs-core` scheduling policy.
//! Preemption is cooperative at checkpoints, driven by a quantum timer
//! thread — the userspace analogue of the kernel's timer interrupt.
//!
//! This substrate exists for two reasons:
//!
//! 1. to demonstrate the policies scheduling *actual* concurrent
//!    threads (the quickstart example runs here), and
//! 2. to measure real scheduling overheads for Table 1 and Fig. 7 via
//!    [`microbench`] — lock acquisition, run-queue manipulation and
//!    park/unpark handoffs are all real costs here, preserving the
//!    relative SFS vs time-sharing comparison of the paper.
//!
//! ```
//! use sfs_core::policy::PolicySpec;
//! use sfs_core::task::weight;
//! use sfs_rt::{Executor, RtConfig};
//!
//! let ex = Executor::new(
//!     RtConfig { cpus: 2, ..RtConfig::default() },
//!     PolicySpec::sfs().build(2),
//! );
//! let h = ex.spawn("hello", weight(1), |ctx| {
//!     for _ in 0..1000 {
//!         ctx.checkpoint();
//!     }
//! });
//! ex.wait();
//! h.join();
//! ```

pub mod behavior_driver;
pub mod executor;
pub mod microbench;

pub use behavior_driver::{drive_recording_until, DriveRecord};
pub use executor::{Executor, RtConfig, TaskCtx, TaskHandle};
pub use microbench::{checkpoint_cost, ctx_switch_latency, spawn_cost};
