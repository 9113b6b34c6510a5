//! Lock-order audit pass over the live executor. Only compiled under
//! the `lock-audit` feature:
//!
//! ```text
//! cargo test -p sfs-rt --features lock-audit
//! ```
//!
//! Every `OrderedMutex` acquisition in the run is rank-checked (a
//! violation panics at the exact wrong lock) and recorded as
//! `held → acquired` edges in a global graph. This test drives the
//! sharded executor through its interesting lock flows — placement,
//! cross-shard stealing, timed sleeps, token blocking + wakeup,
//! watchdog/rebalance timer work, shutdown — then asserts the
//! *observed* graph is acyclic and exports it as the DOT figure the
//! README embeds (`results/lock_order.dot`).
#![cfg(feature = "lock-audit")]

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use sfs_analyze::lockorder::{acquisition_edges, check_acyclic, rank, reset_audit, to_dot};
use sfs_core::policy::PolicySpec;
use sfs_core::task::weight;
use sfs_core::time::Duration;
use sfs_rt::{Executor, RtConfig, TaskCtx};
use sfs_trace::TraceRecorder;

fn spin(ctx: &TaskCtx) {
    while !ctx.stopped() {
        std::hint::spin_loop();
        ctx.checkpoint();
    }
}

#[test]
fn observed_lock_graph_is_acyclic_across_executor_flows() {
    reset_audit();

    // Sharded SFS over 4 vCPUs: two shards behind separate locks, the
    // balancer in the global section, periodic surplus rebalance on
    // the timer thread — the full lock hierarchy in play.
    let spec = PolicySpec::sfs()
        .with_quantum(Duration::from_millis(1))
        .with_shards(2)
        .with_rebalance_every(Duration::from_millis(5));
    let ex = Executor::from_spec_traced(
        RtConfig {
            cpus: 4,
            timer_interval: Duration::from_micros(200),
        },
        &spec,
        TraceRecorder::off(),
    );

    // Spinners keep all CPUs busy so quantum expiry, preemption and
    // cross-shard steals actually happen.
    let spinners: Vec<_> = (0..6)
        .map(|i| ex.spawn(&format!("spin{i}"), weight(1 + i as u64 % 3), spin))
        .collect();

    // Sleepers exercise the timed-wait path (block under shard lock,
    // wake via the timer thread's global/balancer section).
    let sleepers: Vec<_> = (0..2)
        .map(|i| {
            ex.spawn(&format!("sleep{i}"), weight(1), |ctx| {
                for _ in 0..4 {
                    ctx.block_for(Duration::from_millis(5));
                }
            })
        })
        .collect();

    // A token-blocked task plus its waker: block_on_token parks on the
    // task's leaf `granted` lock; wake_task re-places the sleeper
    // through the global section, and its grant is delivered (asserted
    // under the audit) once every scheduler lock is released.
    let token = Arc::new(AtomicBool::new(false));
    let t = Arc::clone(&token);
    let blocked = ex.spawn("blocked", weight(1), move |ctx| {
        ctx.block_on_token(&t);
    });
    let blocked_id = blocked.id();
    let t = Arc::clone(&token);
    let waker = ex.spawn("waker", weight(1), move |ctx| {
        ctx.block_for(Duration::from_millis(10));
        t.store(true, std::sync::atomic::Ordering::Release);
        ctx.wake_task(blocked_id);
    });

    // Let the timer thread run several watchdog scans and rebalances.
    #[expect(clippy::disallowed_methods, reason = "lets the timer run")]
    std::thread::sleep(std::time::Duration::from_millis(120));
    ex.stop();
    ex.wait();
    for h in sleepers.into_iter().chain([blocked, waker]) {
        h.join();
    }
    for h in spinners {
        h.join();
    }

    let edges = acquisition_edges();
    assert!(
        !edges.is_empty(),
        "the audit must have observed nested acquisitions"
    );

    // The edges the executor's documented flows are built on. Their
    // presence proves the audit watched the real paths, not a no-op
    // run.
    for expected in [
        (rank::GLOBAL, rank::shard(0)),   // placement / rebalance / wake
        (rank::shard(0), rank::shard(1)), // two-lock migration, ascending
    ] {
        assert!(
            edges.contains(&expected),
            "missing hierarchy edge {} -> {} in observed graph {:?}",
            expected.0,
            expected.1,
            edges
        );
    }

    // A grant is set and consumed with no scheduler lock held, so no
    // global or shard lock ever precedes a `granted` flag.
    let under = edges
        .iter()
        .filter(|(held, taken)| *taken == rank::GRANTED && held.level <= rank::shard(0).level);
    assert_eq!(
        under.count(),
        0,
        "granted under a scheduler lock: {edges:?}"
    );

    // The point of the exercise: no cycle anywhere in what actually
    // ran.
    if let Err(cycle) = check_acyclic(&edges) {
        panic!("lock-order cycle observed: {}", cycle.join(" -> "));
    }

    // Export the observed graph for the README. Best-effort: the test
    // must not depend on the results directory existing.
    let dot = to_dot(&edges);
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results/lock_order.dot");
    if out.parent().is_some_and(std::path::Path::exists) {
        let _ = std::fs::write(&out, &dot);
    }
    assert!(dot.contains("\"global\" -> \"shard\""));
}
