//! Allocation guards for the simulator's steady-state event loop.
//!
//! A counting global allocator tallies every `alloc`, `alloc_zeroed`
//! and `realloc` made on the calling thread (per-thread, so the test
//! harness running the other test in parallel cannot perturb a count).
//! Two guards:
//!
//! * the timing wheel, driven in the engine's quantum-timer pattern,
//!   makes no allocation once one warm-up pass has sized its buffers;
//! * a whole lean round-robin run with wake traffic makes exactly as
//!   many allocations over 2·D simulated seconds as over D: setup and
//!   report cost are fixed, and nothing per event, per wake or per
//!   batch allocates.

#![expect(unsafe_code, reason = "a `GlobalAlloc` impl is unsafe by definition")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sfs::prelude::*;
use sfs::sim::wheel::TimingWheel;
use sfs::sim::Simulator;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot is gone while the thread itself tears down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so each caller's obligations are exactly `System`'s. The count is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on
/// this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn wheel_rearming_quantum_timers_allocates_nothing_after_warm_up() {
    // Four CPUs, each re-arming its quantum timer ≈ 2²⁰ ns (a 1 ms
    // quantum plus a 1 µs switch) past the one that just fired: timers
    // land at level 3, slots holding two of them cascade down, and the
    // clock crosses level-4 and level-5 slot boundaries on the way.
    const CPUS: u64 = 4;
    const AHEAD: u64 = 1_001_000;
    const POPS: usize = 10_000;
    let mut wheel: TimingWheel<u64> = TimingWheel::new();
    let mut seq = 0u64;
    for cpu in 0..CPUS {
        seq += 1;
        wheel.push(AHEAD + cpu * 250_000, seq, cpu);
    }
    let mut pass = |wheel: &mut TimingWheel<u64>| {
        let mut last = 0;
        for _ in 0..POPS {
            let (t, _, cpu) = wheel.pop().expect("four timers stay armed");
            assert!(t >= last, "timer popped out of order");
            last = t;
            seq += 1;
            wheel.push(t + AHEAD, seq, cpu);
        }
        last
    };
    let (warm_end, _) = allocations(|| pass(&mut wheel));
    let (end, n) = allocations(|| pass(&mut wheel));
    assert!(
        end > warm_end + (1 << 31),
        "the measured pass spans two level-5 slots"
    );
    assert_eq!(n, 0, "{n} allocations after the warm-up pass");
    assert_eq!(wheel.len(), CPUS as usize);
}

/// A lean four-CPU round-robin run of `secs` simulated seconds: four
/// compute-bound hogs and four interactive tasks whose wakes go
/// through wake preemption and same-tick batching. Returns the events
/// processed and the allocations of the whole run, setup to report.
fn rr_run(secs: u64) -> (u64, u64) {
    allocations(|| {
        let cfg = SimConfig {
            cpus: 4,
            duration: Duration::from_secs(secs),
            sample_every: Duration::from_millis(100),
            lean: true,
            ..SimConfig::default()
        };
        let rr = PolicySpec::round_robin()
            .with_quantum(Duration::from_millis(1))
            .build(4);
        let mut sim = Simulator::new(cfg, rr);
        for _ in 0..4 {
            sim.schedule_arrival(Time::ZERO, "hog", weight(1), BehaviorSpec::Inf);
            sim.schedule_arrival(
                Time::ZERO,
                "io",
                weight(1),
                BehaviorSpec::Interact {
                    think: Duration::from_millis(3),
                    burst: Duration::from_micros(500),
                },
            );
        }
        sim.run().engine_events
    })
}

#[test]
fn lean_rr_run_allocates_the_same_at_d_and_2d() {
    // D is past warm-up. Until then the count still creeps (83 at 2 s,
    // 86 at 3 s, 89 from 12 s to at least 48 s): each time a recycled
    // wheel buffer lands in a slot fuller than it has held before, it
    // grows once.
    const D: u64 = 12;
    let (events_d, allocs_d) = rr_run(D);
    let (events_2d, allocs_2d) = rr_run(2 * D);
    assert!(
        events_2d > events_d * 19 / 10,
        "the longer run processes twice the events: {events_d} vs {events_2d}"
    );
    assert_eq!(
        allocs_2d,
        allocs_d,
        "allocations grow with simulated time: {allocs_d} over {D} s, \
         {allocs_2d} over {} s",
        2 * D
    );
}
