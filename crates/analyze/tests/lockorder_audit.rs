//! Behavioural tests for the runtime lock-order audit. These only
//! compile under the `lock-audit` feature: they exercise the
//! per-thread held-set check (the violation panic) and the global
//! acquisition-edge graph that the rt suite later proves acyclic.
#![cfg(feature = "lock-audit")]

use sfs_analyze::lockorder::{
    acquisition_edges, assert_no_lock_held, audit_enabled, check_acyclic, lock_pair, rank,
    reset_audit, OrderedMutex,
};

#[test]
fn rank_violation_panics_at_the_wrong_acquisition() {
    assert!(audit_enabled());
    let global = OrderedMutex::new(rank::GLOBAL, ());
    let shard = OrderedMutex::new(rank::shard(0), ());

    // The violating acquisition itself panics — before the lock is
    // taken, so the held set stays consistent for the rest of the
    // thread.
    let held = shard.lock();
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _g = global.lock(); // global (1,0) under shard (2,0): inverted
    }))
    .expect_err("acquiring global under a shard lock must panic");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("lock-order violation"),
        "panic names the discipline: {msg}"
    );
    assert!(
        msg.contains("global") && msg.contains("shard"),
        "panic names both locks: {msg}"
    );
    drop(held);

    // The held set survived the refused acquisition: the same thread
    // can still run a fully ordered sequence without tripping.
    let g = global.lock();
    let s = shard.lock();
    drop((g, s));
}

#[test]
fn equal_rank_reacquisition_is_refused() {
    // Two distinct shard-3 instances: equal keys may never nest, in
    // either order — that is exactly an ABBA deadlock candidate.
    let a = OrderedMutex::new(rank::shard(3), ());
    let b = OrderedMutex::new(rank::shard(3), ());
    let held = a.lock();
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _g = b.lock();
    }));
    assert!(err.is_err(), "equal-rank nesting must be refused");
    drop(held);
}

#[test]
fn audit_records_nested_acquisitions_as_edges() {
    // The graph is a process-global; run the interesting acquisitions,
    // then assert *containment* (other tests in this binary may add
    // their own well-ordered edges concurrently).
    reset_audit();

    let global = OrderedMutex::new(rank::GLOBAL, ());
    let s0 = OrderedMutex::new(rank::shard(0), ());
    let s1 = OrderedMutex::new(rank::shard(1), ());
    let snap = OrderedMutex::new(rank::SNAPSHOT, ());

    {
        let _g = global.lock();
        let (_a, _b) = lock_pair(&s1, &s0); // acquired 0 then 1, returned (s1, s0)
        let _s = snap.lock();
    }

    let edges = acquisition_edges();
    for expected in [
        (rank::GLOBAL, rank::shard(0)),
        (rank::GLOBAL, rank::shard(1)),
        (rank::shard(0), rank::shard(1)),
        (rank::shard(1), rank::SNAPSHOT),
        (rank::GLOBAL, rank::SNAPSHOT),
    ] {
        assert!(
            edges.contains(&expected),
            "missing edge {} -> {} in {edges:?}",
            expected.0,
            expected.1
        );
    }
    // Whatever ran so far, the observed graph obeys the hierarchy.
    check_acyclic(&edges).expect("observed acquisition graph must be acyclic");
}

#[test]
fn disjoint_acquisitions_record_no_edges() {
    // Edges are held → acquired; back-to-back non-nested locks on one
    // thread must not fabricate ordering constraints.
    let a = OrderedMutex::new(rank::shard(10), ());
    let b = OrderedMutex::new(rank::shard(11), ());
    drop(a.lock());
    drop(b.lock());
    let edges = acquisition_edges();
    assert!(
        !edges.contains(&(rank::shard(11), rank::shard(10)))
            && !edges.contains(&(rank::shard(10), rank::shard(11))),
        "sequential (non-nested) locks must not record edges: {edges:?}"
    );
}

#[test]
fn no_lock_held_assertion_names_the_held_lock() {
    assert_no_lock_held();
    let shard = OrderedMutex::new(rank::shard(5), ());
    let held = shard.lock();
    let err = std::panic::catch_unwind(|| assert_no_lock_held())
        .expect_err("asserting with a shard lock held must panic");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("shard"), "panic names the held lock: {msg}");
    drop(held);
    assert_no_lock_held();
}
