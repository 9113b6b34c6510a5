//! Differential tests for the mega-scale event engine rewrite.
//!
//! Two data-path changes must be *invisible* to scheduling behavior:
//!
//! 1. The simulator's event queue moved from `BinaryHeap<Reverse<(time,
//!    seq)>>` to a hierarchical timing wheel. The wheel's module docs
//!    promise bit-for-bit the heap's pop order under the simulator's
//!    caller contract (pushes never go into the past, `seq` is a global
//!    increasing counter). The lockstep tests here pin that promise
//!    against the heap itself, across every delta scale the wheel
//!    treats differently: same-tick (delta 0), within one level-0
//!    window (< 64 ns), level-1/2 spans, the 2¹⁸–2³⁰ ns band of the
//!    simulator's quantum timers and wakes, and far-future times that
//!    cascade down five or more levels.
//!
//! 2. The engine now applies same-tick event runs through
//!    `arrive_batch` / `wake_batch`. Those entry points must be
//!    *event-equivalent* to the per-item `attach_tenant` / `wake`
//!    calls they replace: driving two scheduler instances through the
//!    same script — one per-item, one batched — must produce identical
//!    pick sequences, virtual time, runnable counts, and adjusted
//!    weights, for both flat SFS and hierarchical multi-tenant SFS.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use sfs::sim::wheel::TimingWheel;
use sfs_core::policy::{GroupSpec, PolicySpec};
use sfs_core::sched::{Scheduler, SwitchReason};
use sfs_core::task::{weight, CpuId, TaskId, TenantId};
use sfs_core::time::{Duration, Time};

// ---------------------------------------------------------------------
// Part 1: timing wheel vs binary heap, in lockstep.
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum WheelOp {
    /// Push at `now + delta`, where `now` is the last popped time.
    Push(u64),
    Pop,
    Peek,
}

/// Deltas at every scale the wheel handles differently: same tick,
/// within the current level-0 window, across level-1/2 slot
/// boundaries, the simulator's quantum-timer and wake band (2¹⁸–2³⁰
/// ns: 1–20 ms timers and 100 ms wakes, which cascade through the
/// recycled slot buffers from level 3 or 4), and far-future times that
/// live five or more levels up.
fn wheel_op() -> impl Strategy<Value = WheelOp> {
    prop_oneof![
        Just(WheelOp::Push(0)),
        (0u64..64).prop_map(WheelOp::Push),
        (0u64..4096).prop_map(WheelOp::Push),
        (0u64..(1 << 18)).prop_map(WheelOp::Push),
        ((1u64 << 18)..(1u64 << 30)).prop_map(WheelOp::Push),
        ((1u64 << 30)..(1u64 << 41)).prop_map(WheelOp::Push),
        Just(WheelOp::Pop),
        Just(WheelOp::Pop),
        Just(WheelOp::Pop),
        Just(WheelOp::Peek),
    ]
}

/// Runs one op stream against both queues and asserts equal behavior
/// at every step, then drains both and asserts the tails agree.
fn wheel_lockstep(ops: &[WheelOp]) {
    let mut wheel: TimingWheel<u64> = TimingWheel::new();
    let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
    let mut now = 0u64; // time of the most recent pop
    let mut seq = 0u64; // global event counter
    for op in ops {
        match op {
            WheelOp::Push(delta) => {
                let t = now.saturating_add(*delta);
                wheel.push(t, seq, t);
                heap.push(Reverse((t, seq)));
                seq += 1;
            }
            WheelOp::Pop => {
                let got = wheel.pop().map(|(t, s, payload)| {
                    assert_eq!(t, payload, "payload must travel with its key");
                    (t, s)
                });
                let want = heap.pop().map(|Reverse(k)| k);
                assert_eq!(got, want, "pop diverged after {seq} pushes");
                if let Some((t, _)) = got {
                    now = t;
                }
            }
            WheelOp::Peek => {
                let got = wheel.peek().map(|(t, s, _)| (t, s));
                let want = heap.peek().map(|&Reverse(k)| k);
                assert_eq!(got, want, "peek diverged after {seq} pushes");
            }
        }
        assert_eq!(wheel.len(), heap.len());
        assert_eq!(wheel.is_empty(), heap.is_empty());
    }
    loop {
        let got = wheel.pop().map(|(t, s, _)| (t, s));
        let want = heap.pop().map(|Reverse(k)| k);
        assert_eq!(got, want, "drain diverged");
        if got.is_none() {
            break;
        }
    }
}

proptest! {
    #[test]
    fn wheel_matches_heap_pop_for_pop(
        ops in proptest::collection::vec(wheel_op(), 1..400)
    ) {
        wheel_lockstep(&ops);
    }
}

/// A deterministic long soak: tens of thousands of operations from a
/// seeded generator, far deeper than any single proptest case, so
/// multi-level cascades happen hundreds of times in one run.
#[test]
fn wheel_matches_heap_through_a_long_deterministic_churn() {
    let mut state = 0x243F_6A88_85A3_08D3u64; // arbitrary fixed seed
    let mut next = move || {
        // xorshift64* — deterministic, dependency-free.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let mut ops = Vec::with_capacity(50_000);
    for _ in 0..50_000 {
        ops.push(match next() % 10 {
            0 => WheelOp::Push(0),
            1 => WheelOp::Push(next() % 64),
            2 => WheelOp::Push(next() % 4096),
            3 => WheelOp::Push(next() % (1 << 20)),
            4 => WheelOp::Push((1 << 18) + next() % ((1 << 30) - (1 << 18))),
            5 => WheelOp::Push((1 << 30) + next() % (1 << 40)),
            6..=8 => WheelOp::Pop,
            _ => WheelOp::Peek,
        });
    }
    wheel_lockstep(&ops);
}

// ---------------------------------------------------------------------
// Part 2: batched scheduler entry points vs per-item calls.
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Step {
    /// Attach a batch of new tasks: (weight, tenant selector) each.
    Arrive(Vec<(u64, u8)>),
    /// Wake up to N currently blocked tasks, oldest first.
    Wake(u8),
    /// Run N quanta on every CPU; bit k of the mask blocks the tasks
    /// picked in quantum k instead of preempting them.
    Run { quanta: u8, block_mask: u8 },
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        proptest::collection::vec((1u64..8, 0u8..8), 1..12).prop_map(Step::Arrive),
        (1u8..6).prop_map(Step::Wake),
        (1u8..5, 0u8..16).prop_map(|(quanta, block_mask)| Step::Run { quanta, block_mask }),
    ]
}

/// Drives `per_item` with singleton calls and `batched` with the batch
/// entry points through one script, asserting the observable scheduler
/// state never diverges. `tenant_of` maps the script's tenant selector
/// to a policy-appropriate tenant (None for flat SFS).
fn batch_lockstep<S: Scheduler>(
    per_item: &mut S,
    batched: &mut S,
    steps: &[Step],
    tenant_of: impl Fn(u8) -> Option<TenantId>,
) {
    const Q: Duration = Duration::from_millis(10);
    let cpus = per_item.cpus();
    assert_eq!(cpus, batched.cpus());
    let mut now = Time::ZERO;
    let mut next_id = 1u64;
    let mut blocked: Vec<TaskId> = Vec::new();
    let mut attached: Vec<TaskId> = Vec::new();

    let same = |a: &S, b: &S, attached: &[TaskId], when: &str| {
        assert_eq!(a.nr_runnable(), b.nr_runnable(), "nr_runnable after {when}");
        assert_eq!(
            a.virtual_time(),
            b.virtual_time(),
            "virtual time after {when}"
        );
        for &id in attached {
            assert_eq!(
                a.weight_of(id),
                b.weight_of(id),
                "weight of {id} after {when}"
            );
            assert_eq!(
                a.adjusted_weight_of(id),
                b.adjusted_weight_of(id),
                "adjusted weight of {id} after {when}"
            );
            assert_eq!(
                a.tenant_of(id),
                b.tenant_of(id),
                "tenant of {id} after {when}"
            );
        }
        a.check_invariants();
        b.check_invariants();
    };

    for s in steps {
        match s {
            Step::Arrive(specs) => {
                let batch: Vec<(TaskId, _, _)> = specs
                    .iter()
                    .map(|&(w, t)| {
                        let id = TaskId(next_id);
                        next_id += 1;
                        (id, weight(w), tenant_of(t))
                    })
                    .collect();
                for &(id, w, tenant) in &batch {
                    per_item.attach_tenant(id, w, tenant, now);
                    attached.push(id);
                }
                batched.arrive_batch(&batch, now);
                same(per_item, batched, &attached, "arrive");
            }
            Step::Wake(n) => {
                let n = (*n as usize).min(blocked.len());
                let ids: Vec<TaskId> = blocked.drain(..n).collect();
                for &id in &ids {
                    per_item.wake(id, now);
                }
                batched.wake_batch(&ids, now);
                same(per_item, batched, &attached, "wake");
            }
            Step::Run { quanta, block_mask } => {
                for k in 0..*quanta {
                    let mut picked = Vec::new();
                    for c in 0..cpus {
                        let a = per_item.pick_next(CpuId(c), now);
                        let b = batched.pick_next(CpuId(c), now);
                        assert_eq!(a, b, "pick diverged on cpu {c} at {now:?}");
                        if let Some(id) = a {
                            picked.push(id);
                        }
                    }
                    now += Q;
                    let reason = if block_mask & (1 << k) != 0 {
                        SwitchReason::Blocked
                    } else {
                        SwitchReason::Preempted
                    };
                    for id in picked {
                        per_item.put_prev(id, Q, reason, now);
                        batched.put_prev(id, Q, reason, now);
                        if reason == SwitchReason::Blocked {
                            blocked.push(id);
                        }
                    }
                    same(per_item, batched, &attached, "quantum");
                }
            }
        }
    }
}

fn hier_pair(cpus: u32) -> (sfs_core::hier::HierSfs, sfs_core::hier::HierSfs) {
    let spec = PolicySpec::sfs_over(
        [("gold", 4u64), ("silver", 2), ("bronze", 1)]
            .iter()
            .map(|&(n, s)| GroupSpec::new(n, PolicySpec::sfs()).with_share(s)),
    );
    (
        sfs_core::hier::HierSfs::new(cpus, spec.groups()),
        sfs_core::hier::HierSfs::new(cpus, spec.groups()),
    )
}

proptest! {
    #[test]
    fn flat_sfs_batch_calls_equal_per_item_calls(
        steps in proptest::collection::vec(step(), 1..40),
        cpus in 1u32..5,
    ) {
        let mut a = sfs_core::sfs::Sfs::new(cpus);
        let mut b = sfs_core::sfs::Sfs::new(cpus);
        batch_lockstep(&mut a, &mut b, &steps, |_| None);
    }

    #[test]
    fn hierarchical_sfs_batch_calls_equal_per_item_calls(
        steps in proptest::collection::vec(step(), 1..40),
        cpus in 1u32..5,
    ) {
        let (mut a, mut b) = hier_pair(cpus);
        // Selector 0..8 folds onto the three groups, so every group
        // sees multi-task batches and same-batch tenant mixes occur.
        batch_lockstep(&mut a, &mut b, &steps, |t| Some(TenantId(t as u32 % 3)));
    }
}
