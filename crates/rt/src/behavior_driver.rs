//! Runs `sfs-workloads` behaviours on real threads.
//!
//! The same [`Behavior`] state machines the simulator executes can run
//! under the executor: `Compute` phases spin on the real clock with
//! checkpoints, `Block`/`BlockUntil` phases release the virtual CPU.
//! This lets the examples and tests exercise identical workloads on
//! both substrates.

use std::time::Instant;

use sfs_core::time::{Duration, Time};
use sfs_workloads::{Behavior, Phase};

use crate::executor::TaskCtx;

/// Full per-phase record from driving a behaviour: completions, the
/// individual response samples (for percentile summaries) and how the
/// drive ended, as the common experiment reports need.
#[derive(Debug, Clone, Default)]
pub struct DriveRecord {
    /// Completed compute phases (frames, requests, jobs).
    pub completions: u64,
    /// Response-time samples (wake → compute completion), milliseconds.
    pub responses_ms: Vec<f64>,
    /// True if the behaviour reached [`Phase::Exit`] (as opposed to
    /// being cut off by an executor stop or a kill deadline).
    pub finished: bool,
    /// True if the drive was aborted by the caller's kill deadline
    /// (the rt analogue of the simulator's kill event).
    pub deadline_hit: bool,
}

/// How a drive loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DriveEnd {
    /// The executor's stop flag was observed.
    Stopped,
    /// The kill deadline passed (mid-phase aborts count nothing).
    DeadlineHit,
    /// The behaviour reached [`Phase::Exit`].
    Finished,
}

/// The shared drive loop: runs the behaviour, reporting each completed
/// compute phase's response time to `on_response`, until the behaviour
/// exits, the executor stops, or the kill `deadline` (if any) passes.
/// A compute phase cut off by the deadline is aborted *without*
/// counting a completion — the simulator's kill-event semantics.
fn drive_loop(
    ctx: &TaskCtx,
    mut behavior: Box<dyn Behavior>,
    epoch: Instant,
    deadline: Option<Time>,
    mut on_response: impl FnMut(Duration),
) -> (u64, DriveEnd) {
    let now_fn = |epoch: Instant| -> Time {
        Time(u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX))
    };
    // Lazy: the clock is only read for this check when a deadline is
    // actually set, keeping the common (deadline-less) spin loop at one
    // clock read per iteration.
    let past_deadline = || deadline.is_some_and(|d| now_fn(epoch) >= d);
    let mut completions = 0u64;
    let mut last_wake = now_fn(epoch);
    loop {
        if ctx.stopped() {
            return (completions, DriveEnd::Stopped);
        }
        if past_deadline() {
            return (completions, DriveEnd::DeadlineHit);
        }
        let now = now_fn(epoch);
        match behavior.next(now) {
            Phase::Compute(d) => {
                let spin_until = Instant::now() + d.to_std();
                while Instant::now() < spin_until {
                    if ctx.stopped() {
                        return (completions, DriveEnd::Stopped);
                    }
                    if past_deadline() {
                        return (completions, DriveEnd::DeadlineHit);
                    }
                    std::hint::spin_loop();
                    ctx.checkpoint();
                }
                completions += 1;
                on_response(now_fn(epoch).since(last_wake));
            }
            Phase::Block(d) => {
                // Clip sleeps to the deadline so a killed task does not
                // linger asleep past its kill time.
                let d = deadline.map_or(d, |kill| d.min(kill.since(now)));
                ctx.block_for(d);
                last_wake = now_fn(epoch);
            }
            Phase::BlockUntil(t) => {
                let t = deadline.map_or(t, |kill| t.min(kill));
                if t > now {
                    ctx.block_for(t.since(now));
                }
                last_wake = now_fn(epoch);
            }
            Phase::Exit => return (completions, DriveEnd::Finished),
        }
    }
}

/// Executes a behaviour on the current task until it exits, the
/// executor is stopped, or the optional kill deadline passes: once the
/// epoch-relative clock reaches `deadline` the drive aborts — mid-phase,
/// without crediting the cut-off phase as a completion — mirroring the
/// simulator's kill event for `TaskSpec::stop_at`.
///
/// `Compute(d)` phases consume *virtual-CPU hold time*: the spin only
/// counts progress while the task holds its grant, which checkpointing
/// approximates closely for small quanta.
pub fn drive_recording_until(
    ctx: &TaskCtx,
    behavior: Box<dyn Behavior>,
    epoch: Instant,
    deadline: Option<Time>,
) -> DriveRecord {
    let mut responses_ms = Vec::new();
    let (completions, end) = drive_loop(ctx, behavior, epoch, deadline, |response| {
        responses_ms.push(response.as_millis_f64());
    });
    DriveRecord {
        completions,
        responses_ms,
        finished: end == DriveEnd::Finished,
        deadline_hit: end == DriveEnd::DeadlineHit,
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests let real time pass")]
mod tests {
    use super::*;
    use crate::executor::{Executor, RtConfig};
    use crossbeam::channel;
    use sfs_core::policy::PolicySpec;
    use sfs_core::task::weight;
    use sfs_workloads::{BehaviorSpec, FiniteLoop};

    #[test]
    fn finite_loop_completes_and_exits() {
        let ex = Executor::new(
            RtConfig {
                cpus: 1,
                ..RtConfig::default()
            },
            PolicySpec::sfs().build(1),
        );
        let epoch = Instant::now();
        let (tx, rx) = channel::bounded(1);
        let h = ex.spawn("job", weight(1), move |ctx| {
            let b = Box::new(FiniteLoop::new(Duration::from_millis(20)));
            let st = drive_recording_until(ctx, b, epoch, None);
            let _ = tx.send(st);
        });
        ex.wait();
        h.join();
        let st = rx.recv().unwrap();
        assert_eq!(st.completions, 1);
    }

    #[test]
    fn interact_records_responses() {
        let ex = Executor::new(
            RtConfig {
                cpus: 1,
                ..RtConfig::default()
            },
            PolicySpec::sfs().build(1),
        );
        let epoch = Instant::now();
        let (tx, rx) = channel::bounded(1);
        let spec = BehaviorSpec::Interact {
            think: Duration::from_millis(5),
            burst: Duration::from_millis(1),
        };
        let h = ex.spawn("interact", weight(1), move |ctx| {
            let b = spec.build(1);
            let st = drive_recording_until(ctx, b, epoch, None);
            let _ = tx.send(st);
        });
        std::thread::sleep(std::time::Duration::from_millis(150));
        ex.stop();
        ex.wait();
        h.join();
        let st = rx.recv().unwrap();
        assert!(st.completions >= 3, "completions: {}", st.completions);
        assert!(!st.responses_ms.is_empty());
    }
}
