//! # sfs-core — proportional-share SMP scheduling algorithms
//!
//! A from-scratch reproduction of the scheduling machinery in
//! *Surplus Fair Scheduling: A Proportional-Share CPU Scheduling
//! Algorithm for Symmetric Multiprocessors* (Chandra, Adler, Goyal,
//! Shenoy; OSDI 2000):
//!
//! * [`mod@readjust`] — the optimal weight readjustment algorithm (§2.1)
//!   that maps infeasible weight assignments to the closest feasible
//!   ones: one walk, reached as `readjust` (sorted weights),
//!   `readjust_capped` (tenant groups with capacities) and through
//!   [`feasible::FeasibleWeights`], which re-runs it on every
//!   runnable-set change as the kernel implementation does (§3.1).
//! * [`gms`] — generalized multiprocessor sharing, the idealized
//!   fluid-flow reference (§2.2).
//! * [`sfs`] — surplus fair scheduling itself (§2.3), with the §3.1
//!   kernel queue structure upgraded to a per-weight-class bucket queue
//!   ([`mod@buckets`]) that makes the exact pick O(#weight-classes)
//!   instead of O(n) — which subsumes the §3.2 bounded-lookahead
//!   heuristic — and fixed-point tags (§3).
//! * [`hier`] — hierarchical SFS over tenant groups (`sfs:groups(...)`):
//!   the top level runs SFS with each group's share as its weight
//!   (group-level §2.1 readjustment included) and each group's member
//!   tasks are scheduled by that group's own policy, giving per-tenant
//!   isolation no flat weight space can.
//! * [`mod@shard`] — sharded run queues (§5 scaling direction): per-CPU
//!   instances of any registered policy behind surplus-balanced
//!   placement, steal-on-idle and a periodic rebalance pass, with the
//!   §2.1 readjustment kept logically global through an epoch-published
//!   snapshot (`sfs:shards=4`).
//! * Baselines the paper compares against or cites: [`sfq`] (start-time
//!   fair queueing, with optional readjustment — Figs. 4/5), [`stride`],
//!   [`bvt`] and [`wfq`] — the GPS instantiations of §1.2, each a tag
//!   rule (queue key, floor, charge, wake) over the one tag-queue core
//!   in `tagq.rs`, configured by [`TagConfig`] — plus [`timeshare`]
//!   (the Linux 2.2 epoch/goodness scheduler — Figs. 6/7, Table 1) and
//!   [`rr`].
//! * Overload armor: [`admit`] — admission control and per-tenant
//!   rate limits (`admit(max=...,rate=.../s)` on any spec), and
//!   [`fault`] — deterministic fault-injection plans the substrates
//!   replay bit-for-bit.
//! * [`taskmap`] — the paged direct-index table every policy keeps its
//!   per-task state in, so an event reaches a task's entry by indexing,
//!   not hashing.
//!
//! Schedulers are pure run-queue policies behind the [`sched::Scheduler`]
//! trait; the `sfs-sim` crate drives them in a discrete-event simulator
//! and `sfs-rt` drives them over real OS threads.
//!
//! ## Quick example
//!
//! ```
//! use sfs_core::prelude::*;
//!
//! // Two CPUs, three threads with weights 2:1:1 (feasible).
//! let mut sched = Sfs::new(2);
//! let now = Time::ZERO;
//! sched.attach(TaskId(1), weight(2), now);
//! sched.attach(TaskId(2), weight(1), now);
//! sched.attach(TaskId(3), weight(1), now);
//!
//! let first = sched.pick_next(CpuId(0), now).unwrap();
//! let second = sched.pick_next(CpuId(1), now).unwrap();
//! assert_ne!(first, second);
//!
//! // After a 10ms quantum, report actual usage; tags advance by q/φ.
//! let later = now + Duration::from_millis(10);
//! sched.put_prev(first, Duration::from_millis(10), SwitchReason::Preempted, later);
//! ```

pub mod admit;
pub mod buckets;
pub mod bvt;
pub mod fault;
pub mod feasible;
pub mod fixed;
pub mod gms;
pub mod hier;
pub mod policy;
pub mod queues;
pub mod readjust;
pub mod rr;
pub mod sched;
pub mod sfq;
pub mod sfs;
pub mod shard;
pub mod stride;
mod tagq;
pub mod task;
pub mod taskmap;
#[cfg(test)]
mod testkit;
pub mod time;
pub mod timeshare;
pub mod wfq;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::admit::{AdmissionControl, AdmissionPolicy, RejectReason};
    pub use crate::bvt::Bvt;
    pub use crate::fault::{FaultEvent, FaultKind, FaultPlan};
    pub use crate::fixed::Fixed;
    pub use crate::gms::FluidGms;
    pub use crate::hier::HierSfs;
    pub use crate::policy::{GroupSpec, ParsePolicyError, PolicyKind, PolicySpec};
    pub use crate::readjust::{is_feasible, readjust, Readjustment};
    pub use crate::rr::RoundRobin;
    pub use crate::sched::{SchedStats, Scheduler, SwitchReason};
    pub use crate::sfq::Sfq;
    pub use crate::sfs::{Sfs, SfsConfig};
    pub use crate::shard::{ShardLayout, ShardedScheduler};
    pub use crate::stride::Stride;
    pub use crate::tagq::TagConfig;
    pub use crate::task::{weight, CpuId, TaskId, TaskState, TenantId, Weight};
    pub use crate::time::{Duration, Time};
    pub use crate::timeshare::{TimeSharing, TimeSharingConfig};
    pub use crate::wfq::Wfq;
}

pub use prelude::*;
