//! lmbench-style microbenchmarks over the userspace executor.
//!
//! These regenerate Table 1 and Fig. 7 of the paper:
//!
//! * [`checkpoint_cost`] — the cost of a no-op scheduler entry point
//!   (the userspace analogue of lmbench's null *syscall overhead* row);
//! * [`spawn_cost`] — attaching and retiring a task on a pooled thread
//!   (the *fork/exec* rows; no OS thread is created per spawn);
//! * [`ctx_switch_latency`] — the yield ping-pong of `lat_ctx`: `n`
//!   tasks on one virtual CPU, each touching a working set of
//!   `wset_kb` KiB between yields, exactly like lmbench's
//!   "N proc / K KB" grid. The per-switch latency includes the
//!   scheduler decision, the park/unpark handoff and the cache effect
//!   of the working set — the same cost components the kernel numbers
//!   had.

use std::time::Instant;

use crossbeam::channel;
use sfs_core::sched::Scheduler;
use sfs_core::task::weight;
use sfs_core::time::Duration;

use crate::executor::{Executor, RtConfig};

fn single_cpu(sched: Box<dyn Scheduler>) -> Executor {
    Executor::new(
        RtConfig {
            cpus: 1,
            // Long timer period: these benches switch via yield, not
            // preemption, so the timer should stay out of the way.
            timer_interval: Duration::from_millis(50),
        },
        sched,
    )
}

/// Average cost of the checkpoint fast path (no preemption pending).
pub fn checkpoint_cost(sched: Box<dyn Scheduler>, iters: u64) -> Duration {
    let ex = single_cpu(sched);
    let (tx, rx) = channel::bounded(1);
    let h = ex.spawn("probe", weight(1), move |ctx| {
        let t0 = Instant::now();
        for _ in 0..iters {
            ctx.checkpoint();
        }
        let per = t0.elapsed().as_nanos() as u64 / iters.max(1);
        let _ = tx.send(per);
    });
    ex.wait();
    h.join();
    Duration::from_nanos(rx.recv().expect("probe died"))
}

/// Average cost of spawning a task and waiting for it to retire.
pub fn spawn_cost(mk_sched: impl Fn() -> Box<dyn Scheduler>, n: u64) -> Duration {
    let ex = single_cpu(mk_sched());
    // Creates the one task thread every spawn below reuses.
    ex.spawn("warm", weight(1), |_| {}).join();
    let t0 = Instant::now();
    for i in 0..n {
        let h = ex.spawn(&format!("job{i}"), weight(1), |_| {});
        h.join();
    }
    Duration::from_nanos(t0.elapsed().as_nanos() as u64 / n.max(1))
}

/// Per-switch latency of an `n`-task token ring with a `wset_kb` KiB
/// working set per task — the faithful lmbench `lat_ctx` analogue.
///
/// Like `lat_ctx`'s ring of pipes, each task *blocks* until the token
/// reaches it, touches its working set, passes the token on and blocks
/// again, so exactly one task is runnable at any moment and every hop
/// forces a genuine scheduler handoff under any policy (a yield ring
/// would let weight-oblivious policies re-pick the yielder and dodge
/// the switch).
pub fn ctx_switch_latency(
    sched: Box<dyn Scheduler>,
    nprocs: usize,
    wset_kb: usize,
    rounds: u64,
) -> Duration {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    assert!(nprocs >= 2, "need at least two tasks to switch between");
    let ex = single_cpu(sched);
    let tokens: Arc<Vec<AtomicBool>> =
        Arc::new((0..nprocs).map(|_| AtomicBool::new(false)).collect());

    let t0 = Instant::now();
    let handles: Vec<_> = (0..nprocs)
        .map(|i| {
            let tokens = Arc::clone(&tokens);
            ex.spawn(&format!("ring{i}"), weight(1), move |ctx| {
                let next = (i + 1) % tokens.len();
                // Ids are assigned 1..=n in spawn order on this fresh
                // executor; the successor's id is therefore next+1.
                let next_id = sfs_core::task::TaskId(next as u64 + 1);
                let mut buf = vec![0u8; wset_kb * 1024];
                for _ in 0..rounds {
                    ctx.block_on_token(&tokens[i]);
                    // Touch every cache line of the working set, as
                    // lmbench does, so larger sets evict more state.
                    let mut acc = 0u8;
                    let mut j = 0;
                    while j < buf.len() {
                        buf[j] = buf[j].wrapping_add(1);
                        acc ^= buf[j];
                        j += 64;
                    }
                    std::hint::black_box(acc);
                    tokens[next].store(true, Ordering::Release);
                    ctx.wake_task(next_id);
                }
            })
        })
        .collect();
    // Kick the ring off.
    tokens[0].store(true, Ordering::Release);
    ex.wake_task(sfs_core::task::TaskId(1));
    ex.wait();
    let total = t0.elapsed();
    for h in handles {
        h.join();
    }
    let switches = rounds * nprocs as u64;
    Duration::from_nanos(total.as_nanos() as u64 / switches.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs_core::policy::PolicySpec;

    #[test]
    fn checkpoint_fast_path_is_cheap() {
        let cost = checkpoint_cost(PolicySpec::sfs().build(1), 200_000);
        // An atomic load + branch: well under a microsecond.
        assert!(cost < Duration::from_micros(1), "checkpoint cost {cost}");
    }

    #[test]
    fn spawn_cost_is_bounded() {
        let cost = spawn_cost(|| PolicySpec::sfs().build(1), 20);
        // Scheduler attach + hand-off; generous bound for CI boxes.
        assert!(cost < Duration::from_millis(20), "spawn cost {cost}");
        assert!(cost > Duration::ZERO);
    }

    #[test]
    fn ctx_switch_measurable_for_both_policies() {
        for sched in [
            PolicySpec::sfs().build(1),
            PolicySpec::time_sharing().build(1),
        ] {
            let lat = ctx_switch_latency(sched, 2, 0, 300);
            assert!(lat > Duration::ZERO);
            assert!(lat < Duration::from_millis(5), "latency {lat}");
        }
    }

    #[test]
    fn bigger_working_sets_cost_more() {
        // 64 KB of working set must cost measurably more per switch
        // than 0 KB (cache restoration dominates, §4.5).
        let small = ctx_switch_latency(PolicySpec::sfs().build(1), 2, 0, 300);
        let large = ctx_switch_latency(PolicySpec::sfs().build(1), 2, 64, 300);
        assert!(large > small, "64KB ({large}) should exceed 0KB ({small})");
    }
}
