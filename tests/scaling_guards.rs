//! Scaling guards: how scheduler and engine work grows with the
//! runnable-set size. The counter guards are exact (deterministic
//! `SchedStats` counters); the mega and tenant guards are wall-clock
//! ratios with factors generous enough for a loaded debug build. The
//! costs themselves are measured by `benchmark/` (`steady`, `churn` and
//! `serve`: `core.sched.scans_per_pick`, `core.sched.steps_per_event`,
//! `sim.engine.ns_per_event`); the tight wall-clock gates live in
//! `perf_guards.rs`.

mod common;

use std::time::Instant;

use sfs::core::feasible::FeasibleWeights;
use sfs::prelude::*;

const CPUS: usize = 4;
const WEIGHT_CLASSES: u64 = 10;
const Q: Duration = Duration::from_millis(1);

/// Holds `threads` compute-bound threads of ten mixed weights in steady
/// state on a lockstep quad-processor and returns the scheduler's
/// counters before and after the measured window. Every round fills the
/// processors and requeues them; with `churn` it also wakes the thread
/// blocked last round, blocks one running thread, replaces two ready
/// threads (exit + fresh arrival) and reweights two — the §3.1 event
/// path. The window ends after `measured` events (`churn`) or picks.
fn lockstep(spec: &str, threads: usize, churn: bool, measured: u64) -> (SchedStats, SchedStats) {
    let mut sched = spec.parse::<PolicySpec>().expect("spec").build(CPUS as u32);
    let mut now = Time::ZERO;
    // Descending-weight blocks keep setup linear for sorted-insert queues.
    let mut live: Vec<TaskId> = (0..threads as u64).map(TaskId).collect();
    for (i, id) in live.iter().enumerate() {
        let w = WEIGHT_CLASSES - (i as u64 * WEIGHT_CLASSES / threads as u64);
        sched.attach(*id, weight(w.max(1)), now);
    }
    let mut next_id = threads as u64;
    let mut running = [None; CPUS];
    let mut blocked: Option<TaskId> = None;
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut rand = move |n: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d) % n
    };
    let progress = |s: SchedStats| if churn { s.events } else { s.picks };

    // Warm-up (requeues only): every thread runs once, dispersing the
    // cold-start tie mass into a steady-state tag spread.
    let warm_rounds = threads / CPUS + 16;
    let mut before = sched.stats();
    for round in 0.. {
        let warm = round < warm_rounds;
        if round == warm_rounds {
            before = sched.stats();
        }
        if !warm && progress(sched.stats()) - progress(before) >= measured {
            break;
        }
        for (c, slot) in running.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = sched.pick_next(CpuId(c as u32), now);
            }
        }
        now += Q;
        if churn && !warm {
            if let Some(id) = blocked.take() {
                sched.wake(id, now);
            }
            if let Some(id) = running[rand(CPUS as u64) as usize].take() {
                sched.put_prev(id, Q / 2, SwitchReason::Blocked, now);
                blocked = Some(id);
            }
            for replace in [true, true, false, false] {
                let i = rand(live.len() as u64) as usize;
                let id = live[i];
                if running.contains(&Some(id)) || blocked == Some(id) {
                    continue; // only ready threads exit or are reweighted
                }
                let w = weight(1 + rand(WEIGHT_CLASSES));
                if replace {
                    sched.detach(id, now);
                    live[i] = TaskId(next_id);
                    next_id += 1;
                    sched.attach(live[i], w, now);
                } else {
                    sched.set_weight(id, w, now);
                }
            }
        }
        for slot in &mut running {
            if let Some(id) = slot.take() {
                sched.put_prev(id, Q, SwitchReason::Preempted, now);
            }
        }
    }
    (before, sched.stats())
}

/// Exact SFS examines O(#weight classes) queue entries per decision and
/// never bulk re-sorts (also pinned by `sfs.rs::exact_mode_never_resorts`
/// and `bucket_differential.rs`): 40× the threads must not mean 40× the
/// scans.
#[test]
fn exact_pick_work_tracks_weight_classes_not_threads() {
    for threads in [100, 4_000] {
        let (before, after) = lockstep("sfs:quantum=1ms", threads, false, 2_000);
        let picks = (after.picks - before.picks) as f64;
        assert_eq!(after.full_resorts, before.full_resorts);
        let scans = (after.bucket_scans - before.bucket_scans) as f64 / picks;
        assert!(scans < 200.0, "{scans:.1} scans/pick at {threads} threads");
        assert!(after.weight_classes <= WEIGHT_CLASSES + 1);
    }
}

/// Steps per runnable-set mutation stay flat-to-logarithmic in the
/// runnable-set size for every tag-ordered policy — including WFQ and
/// BVT, whose virtual times come from the incremental `KeyCounter`. A
/// position-scan queue or an O(n) min-tag scan pays ~n/2 here.
#[test]
fn event_work_does_not_grow_linearly_with_thread_count() {
    let steps_per_event = |spec: &str, threads: usize| {
        let (before, after) = lockstep(spec, threads, true, 2_000);
        (after.event_steps - before.event_steps) as f64 / (after.events - before.events) as f64
    };
    for spec in [
        "sfs:quantum=1ms",
        "sfq:quantum=1ms,readjust",
        "wfq:quantum=1ms",
        "bvt:quantum=1ms,readjust",
        "stride:quantum=1ms,readjust",
    ] {
        let (small, big) = (steps_per_event(spec, 100), steps_per_event(spec, 4_000));
        assert!(small > 0.0, "{spec}: the event path counted no steps");
        assert!(
            big < small * 4.0 + 64.0,
            "{spec} event path scales with n: {big:.1} vs {small:.1} steps/event"
        );
    }
}

/// The pick path probes the clamp set via `phi` on every candidate; the
/// probe must stay O(log p), independent of n.
#[test]
fn clamp_lookups_do_not_scale_with_runnable_set() {
    let mut per_n = Vec::new();
    for n in [100u64, 10_000] {
        let mut f = FeasibleWeights::new(4, true);
        for i in 0..n {
            f.insert(TaskId(i), weight(1 + i % 50));
        }
        // Two infeasibly heavy threads keep the clamp set non-empty so
        // every `phi` call pays a membership probe.
        f.insert(TaskId(n + 1), weight(50_000_000));
        f.insert(TaskId(n + 2), weight(50_000_000));
        let (l0, s0) = f.clamp_lookup_stats();
        for i in 0..n {
            let _ = f.phi(TaskId(i), weight(1 + i % 50));
        }
        let (l1, s1) = f.clamp_lookup_stats();
        assert!(l1 > l0, "phi must be probing the clamp set");
        per_n.push((s1 - s0) as f64 / (l1 - l0) as f64);
    }
    assert!(per_n[1] <= per_n[0] + 4.0, "probe cost scaled: {per_n:?}");
}

// Debug-build scale for the mega mix: tiny jobs, a second per sweep.
const TEST_JOB: Duration = Duration::from_micros(20);

/// The mega mix is sized to drain: the 90 % finite tasks all complete
/// (the interactive 10 % never exit).
#[test]
fn mega_mix_completes_all_finite_tasks() {
    let p = common::mega_point(2_000, TEST_JOB);
    assert_eq!(p.tasks, 2_000);
    assert!(p.completed >= 1_800, "{} of 2000 completed", p.completed);
    assert!(p.events > 2_000, "implausibly few events: {}", p.events);
}

/// Whole-engine cost per event over 25× the tasks. A linear scan
/// anywhere in the event path costs 25× here, not 8×.
#[test]
fn engine_cost_per_event_stays_logarithmic_in_task_count() {
    let small = common::mega_point(800, TEST_JOB).ns_per_event;
    let big = common::mega_point(20_000, TEST_JOB).ns_per_event;
    assert!(
        big < small * 8.0 + 2_000.0,
        "per-event cost scaled with task count: {small:.0} ns at 800 vs {big:.0} ns at 20k"
    );
}

/// Group scheduling uses the same bucket queue as flat SFS: 20× the
/// tenants must not cost an order of magnitude per decision.
#[test]
fn decision_cost_stays_flat_in_tenant_count() {
    let ns_per_decision = |tenants: u64| {
        let groups: Vec<GroupSpec> = (0..tenants)
            .map(|i| GroupSpec::new(&format!("t{i}"), PolicySpec::sfs()).with_share(1 + i % 10))
            .collect();
        let mut sched = HierSfs::new(CPUS as u32, &groups);
        let batch: Vec<_> = (0..tenants)
            .map(|i| (TaskId(i), weight(1), Some(TenantId(i as u32))))
            .collect();
        sched.attach_batch(&batch, Time::ZERO);
        let (mut now, mut running) = (Time::ZERO, [None; CPUS]);
        let start = Instant::now();
        for i in 0..40_000 {
            now += Q;
            if let Some(id) = running[i % CPUS].take() {
                sched.put_prev(id, Q, SwitchReason::Preempted, now);
            }
            running[i % CPUS] = sched.pick_next(CpuId((i % CPUS) as u32), now);
        }
        start.elapsed().as_nanos() as f64 / 40_000.0
    };
    let (small, large) = (ns_per_decision(100), ns_per_decision(2_000));
    assert!(
        large < small * 10.0 + 2_000.0,
        "decision cost exploded: {small:.0} ns at 100 tenants vs {large:.0} ns at 2000"
    );
}
