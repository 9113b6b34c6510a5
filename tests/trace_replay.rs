//! Trace subsystem integration: the shared context-switch definition,
//! Perfetto export from both substrates, and deterministic
//! capture→replay.

use sfs::experiment::{Capture, Experiment, RtSubstrate};
use sfs::prelude::*;
use sfs::trace::{perfetto, CounterTrack, TraceEvent};

/// A 1-CPU scenario where exactly one task ever runs: under the shared
/// definition (a dispatch granting the CPU to a different task than it
/// last ran; idle gaps do not reset the memory), it must cost exactly
/// one context switch — the initial idle→task grant — no matter how
/// often it blocks, wakes, or is re-granted.
fn lone_interact() -> Scenario {
    let cfg = SimConfig {
        cpus: 1,
        duration: Duration::from_millis(300),
        ..SimConfig::default()
    };
    Scenario::new("lone-interact", cfg).task(TaskSpec::new(
        "only",
        1,
        BehaviorSpec::Interact {
            think: Duration::from_millis(20),
            burst: Duration::from_millis(5),
        },
    ))
}

#[test]
fn both_substrates_share_the_ctx_switch_definition() {
    let policy = "sfs:quantum=10ms";
    let sim = Experiment::new(lone_interact()).run(policy).unwrap();
    assert_eq!(
        sim.ctx_switches, 1,
        "sim: a lone task is exactly one switch (idle→task)"
    );
    let rt = Experiment::on(lone_interact(), RtSubstrate::default())
        .run(policy)
        .unwrap();
    assert_eq!(
        rt.ctx_switches, 1,
        "rt: re-grants of the same task after blocks/expiries are not switches"
    );
}

/// Three non-overlapping finite tasks on one CPU: each finishes its
/// whole demand before the next arrives, so the context-switch
/// sequence is the same on wall-clock threads as in virtual time.
fn sequential_scenario() -> Scenario {
    let cfg = SimConfig {
        cpus: 1,
        duration: Duration::from_millis(300),
        ..SimConfig::default()
    };
    Scenario::new("sequential", cfg)
        .task(TaskSpec::new(
            "alpha",
            1,
            BehaviorSpec::Finite(Duration::from_millis(30)),
        ))
        .task(
            TaskSpec::new("beta", 2, BehaviorSpec::Finite(Duration::from_millis(30)))
                .arrive_at(Time::from_millis(100)),
        )
        .task(
            TaskSpec::new("gamma", 1, BehaviorSpec::Finite(Duration::from_millis(30)))
                .arrive_at(Time::from_millis(200)),
        )
}

#[test]
fn rt_capture_replays_identically_on_the_simulator() {
    let exp = Experiment::on(sequential_scenario(), RtSubstrate::default());
    let (report, capture) = exp.capture("sfs:quantum=5ms").unwrap();
    assert_eq!(report.substrate, "rt");
    assert_eq!(capture.trace.meta.substrate, "rt");

    // The capture survives its serialized form.
    let path = std::env::temp_dir().join("sfs-capture-replay-test.json");
    capture.save(&path).unwrap();
    let loaded = Capture::load(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(loaded.scenario, capture.scenario);
    assert_eq!(
        loaded.trace.ctx_switch_sequence(),
        capture.trace.ctx_switch_sequence()
    );

    // Replay re-drives the simulator from the capture: the identical
    // context-switch sequence — task, cpu, timestamp order — must come
    // back.
    let replay = Experiment::replay(&loaded).unwrap();
    assert_eq!(replay.report.substrate, "sim");
    assert_eq!(
        replay.captured,
        vec![
            (0, "alpha".to_string()),
            (0, "beta".to_string()),
            (0, "gamma".to_string()),
        ],
        "rt run must switch exactly at the three arrivals"
    );
    assert!(
        replay.sequences_match(),
        "replay diverged at index {:?}: captured {:?} vs replayed {:?}",
        replay.first_divergence(),
        replay.captured,
        replay.replayed,
    );
}

/// Chaos is as deterministic as everything else on the simulator: a
/// run with a seeded fault plan (panics, stalls, jitter, dropped wakes)
/// under an admission-gated hierarchy is captured and re-driven, and
/// the context-switch sequences match exactly.
#[test]
fn faulted_admission_gated_capture_replays_identically() {
    let cfg = SimConfig {
        cpus: 2,
        duration: Duration::from_millis(500),
        ..SimConfig::default()
    };
    let plan = FaultPlan::generate(0xC0FF_EE00_5EED, Time::from_millis(500), 4, 2, 4);
    let scenario = Scenario::new("chaos-replay", cfg)
        .task(TaskSpec::new("a", 1, BehaviorSpec::Inf))
        .task(TaskSpec::new("b", 1, BehaviorSpec::Inf))
        .task(TaskSpec::new("c", 2, BehaviorSpec::Inf))
        .task(TaskSpec::new("d", 2, BehaviorSpec::Inf))
        .with_faults(plan);
    let (report, capture) = Experiment::new(scenario)
        .capture("sfs:groups(t0=sfs:quantum=5ms,t1=sfs:quantum=5ms),admit(max=4,rate=500/s)")
        .unwrap();
    assert!(report.health.faults_injected > 0, "{:?}", report.health);
    let replay = Experiment::replay(&capture).unwrap();
    assert!(!replay.captured.is_empty());
    assert!(
        replay.sequences_match(),
        "chaos replay diverged at index {:?}",
        replay.first_divergence()
    );
}

/// The rt timer thread samples per-task scheduling state through the
/// live scheduler: the worst charged surplus and the smallest adjusted
/// weight among running tasks, on the same counter tracks the simulator
/// uses — so both substrates' traces answer "how unfair did it get"
/// directly in the Perfetto UI.
#[test]
fn rt_timer_samples_running_surplus_and_phi() {
    let exp = Experiment::on(sequential_scenario(), RtSubstrate::default());
    let (_, capture) = exp.capture("sfs:quantum=5ms").unwrap();
    let has = |want: CounterTrack| {
        capture
            .trace
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::Counter { track, .. } if *track == want))
    };
    assert!(
        has(CounterTrack::MaxRunSurplus),
        "no surplus samples from the timer thread"
    );
    assert!(
        has(CounterTrack::MinRunPhi),
        "no adjusted-weight samples from the timer thread"
    );
}

#[test]
fn both_substrates_export_valid_perfetto_traces() {
    let dir = std::env::temp_dir();
    let sim_path = dir.join("sfs-trace-test-sim.perfetto-trace");
    let rt_path = dir.join("sfs-trace-test-rt.perfetto-trace");

    let sim = Experiment::new(sequential_scenario())
        .run_with_trace("sfs:quantum=5ms", &sim_path)
        .unwrap();
    assert_eq!(sim.trace_path.as_deref(), Some(sim_path.as_path()));
    let bytes = std::fs::read(&sim_path).unwrap();
    let _ = std::fs::remove_file(&sim_path);
    let stats = perfetto::validate_encoded(&bytes).unwrap();
    assert!(stats.track_events > 0, "{stats:?}");
    assert!(stats.counter_samples > 0, "{stats:?}");

    let rt = Experiment::on(sequential_scenario(), RtSubstrate::default())
        .run_with_trace("sfs:quantum=5ms", &rt_path)
        .unwrap();
    assert_eq!(rt.trace_path.as_deref(), Some(rt_path.as_path()));
    let bytes = std::fs::read(&rt_path).unwrap();
    let _ = std::fs::remove_file(&rt_path);
    let stats = perfetto::validate_encoded(&bytes).unwrap();
    assert!(stats.track_events > 0, "{stats:?}");
    assert!(stats.counter_samples > 0, "{stats:?}");
}
