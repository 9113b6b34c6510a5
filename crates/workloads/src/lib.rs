//! # sfs-workloads — the paper's application models
//!
//! The experimental evaluation (§4.1) drives the schedulers with a mix
//! of real applications and micro-workloads. This crate reimplements
//! each of them as a [`behavior::Behavior`] state machine that both the
//! discrete-event simulator (`sfs-sim`) and the real-thread runtime
//! (`sfs-rt`) can execute:
//!
//! * [`apps::SpinLoop`] — *Inf* and *dhrystone* (compute-bound loops)
//! * [`apps::FiniteLoop`] — the short-lived tasks of Example 2 / Fig. 5
//! * [`apps::Interact`] — the I/O-bound interactive application
//! * [`apps::MpegDecode`] — the MPEG-1 software decoder (periodic frames)
//! * [`apps::CompileJob`] — `gcc` compilations (`make -j` background load)
//! * [`apps::SimJob`] — `disksim` (compute-heavy simulation)
//!
//! All randomness is drawn from per-task seeded generators, so every
//! experiment in this repository is exactly reproducible.

pub mod apps;
pub mod behavior;

pub use apps::{BehaviorSpec, CompileJob, FiniteLoop, Interact, MpegDecode, SimJob, SpinLoop};
pub use behavior::{Behavior, Phase};
