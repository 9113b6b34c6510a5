//! # sfs-analyze — concurrency-correctness tooling
//!
//! The rt executor is genuinely concurrent: per-shard run-queue locks,
//! a two-lock migration path, a global placement section, an
//! epoch-published snapshot cell and a dozen hand-ordered atomics.
//! This crate holds the machinery that *proves* that structure is
//! deadlock- and race-free and keeps it that way:
//!
//! * [`lockorder`] — [`lockorder::OrderedMutex`], a mutex wrapper with
//!   a static [`lockorder::LockRank`]. Under the `lock-audit` feature
//!   every acquisition is checked against the per-thread held set
//!   (rank violations panic at the exact wrong acquisition) and
//!   recorded into a global acquisition-edge graph that tests assert
//!   acyclic (and export as DOT). With the feature off the wrapper is
//!   a zero-cost passthrough to `parking_lot::Mutex`.
//! * [`interleave`] — a hand-rolled, loom-style bounded interleaving
//!   explorer (vendored-deps policy: no external loom). Small
//!   deterministic models of the risky protocols are run under
//!   exhaustive or seeded-random schedule enumeration, with invariants
//!   checked after every step of every interleaving.
//! * [`models`] — the three protocol models drawn from the real code:
//!   epoch publish/read on the snapshot cell, steal-vs-exit weight
//!   conservation across two shards, and the watchdog-vs-timer
//!   heartbeat. Each has a deliberately broken variant so the checker
//!   itself is demonstrably non-vacuous.
//!
//! The `repro verify` artefact drives the checker in CI; the lock-audit
//! pass runs the full rt test suite with `--features lock-audit`. The
//! repo's source rules (no wall clock in the simulator, no raw mutex in
//! the rt crate, no `HashMap` in core, rt or sim, ...) are clippy bans
//! in the `clippy.toml` files.

pub mod interleave;
pub mod lockorder;
pub mod models;
