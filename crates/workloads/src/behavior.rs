//! The task behaviour abstraction.
//!
//! A [`Behavior`] is a state machine that yields [`Phase`]s: run on the
//! CPU for some service time, sleep, or exit. The substrates execute the
//! phases — the discrete-event simulator advances virtual time, while
//! the thread runtime spins/parks a real OS thread — so the same
//! workload definitions drive both.

use sfs_core::time::{Duration, Time};

/// What a task wants to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Consume this much CPU service (may be preempted and resumed).
    Compute(Duration),
    /// Sleep for a wall-clock duration (I/O, think time).
    Block(Duration),
    /// Sleep until an absolute instant (periodic work); an instant in
    /// the past means "continue immediately".
    BlockUntil(Time),
    /// Terminate the task.
    Exit,
}

/// A workload's behaviour over time.
///
/// `next` is called when the previous phase completes: a `Compute` phase
/// completes when the requested service has been fully received (across
/// any number of quanta), a `Block`/`BlockUntil` when its deadline
/// passes. The first call (at task start) receives the arrival time.
pub trait Behavior: Send {
    /// Returns the next phase. `now` is the current (virtual or real)
    /// time at which the previous phase completed.
    fn next(&mut self, now: Time) -> Phase;

    /// A short label for traces and reports (e.g. `"inf"`).
    fn kind(&self) -> &'static str;

    /// Nominal cost of one application-level "iteration" of this
    /// workload, used to convert CPU service into the loop counts the
    /// paper plots (Figs. 4, 5, 6a). `None` if iterations are not a
    /// meaningful unit for this workload.
    fn iteration_cost(&self) -> Option<Duration> {
        None
    }
}
