//! Integration tests for the real-thread substrate: the same policies
//! that drive the simulator must schedule actual OS threads with the
//! same qualitative outcomes.
#![expect(clippy::disallowed_methods, reason = "real threads run for real time")]

use std::time::Instant;

use sfs::prelude::*;
use sfs::rt::drive_recording_until;

fn rt_sfs(cpus: u32) -> Executor {
    Executor::new(
        RtConfig {
            cpus,
            timer_interval: Duration::from_micros(250),
        },
        PolicySpec::sfs()
            .with_quantum(Duration::from_millis(2))
            .build(cpus),
    )
}

fn spin(ctx: &TaskCtx) {
    while !ctx.stopped() {
        std::hint::spin_loop();
        ctx.checkpoint();
    }
}

#[test]
fn real_threads_track_weights() {
    let ex = rt_sfs(1);
    let handles: Vec<_> = [1u64, 2, 4]
        .iter()
        .map(|&w| ex.spawn(&format!("w{w}"), weight(w), spin))
        .collect();
    std::thread::sleep(std::time::Duration::from_millis(600));
    ex.stop();
    ex.wait();
    let s: Vec<f64> = handles.iter().map(|h| h.service().as_secs_f64()).collect();
    let r21 = s[1] / s[0];
    let r42 = s[2] / s[1];
    assert!((1.4..3.0).contains(&r21), "w2/w1 = {r21:.2} ({s:?})");
    assert!((1.4..3.0).contains(&r42), "w4/w2 = {r42:.2} ({s:?})");
}

#[test]
fn infeasible_weight_clamped_on_real_threads() {
    // 1:100 on two virtual CPUs: readjustment clamps the heavy task to
    // one CPU, so both should receive roughly equal service.
    let ex = rt_sfs(2);
    let a = ex.spawn("light", weight(1), spin);
    let b = ex.spawn("heavy", weight(100), spin);
    std::thread::sleep(std::time::Duration::from_millis(400));
    ex.stop();
    ex.wait();
    let ratio = b.service().as_secs_f64() / a.service().as_secs_f64().max(1e-9);
    assert!(
        (0.6..1.7).contains(&ratio),
        "expected ≈1:1 after clamping, got {ratio:.2}"
    );
}

#[test]
fn behavior_driver_runs_paper_workloads_on_threads() {
    // An MPEG decoder model on real threads against a compile job:
    // the decoder (large weight ⇒ one full virtual CPU) keeps its rate.
    let ex = rt_sfs(2);
    let epoch = Instant::now();
    let (tx, rx) = std::sync::mpsc::channel();
    let decoder = ex.spawn("mpeg", weight(10), move |ctx| {
        let spec = BehaviorSpec::Mpeg {
            fps: 30,
            frame_cost: Duration::from_millis(3),
        };
        let stats = drive_recording_until(ctx, spec.build(1), epoch, None);
        let _ = tx.send(stats);
    });
    let cc = ex.spawn("cc", weight(1), spin);
    std::thread::sleep(std::time::Duration::from_millis(700));
    ex.stop();
    ex.wait();
    decoder.join();
    cc.join();
    let stats = rx.recv().expect("decoder stats");
    // ~0.7 s at 30 fps ⇒ ~21 frames; allow generous slack for CI boxes.
    assert!(
        stats.completions >= 12,
        "decoder managed only {} frames",
        stats.completions
    );
}

#[test]
fn timeshare_vs_sfs_weight_sensitivity_end_to_end() {
    // The same two-task workload under both policies: SFS must honour
    // the 4:1 weights; time sharing must not.
    let run = |sched: Box<dyn Scheduler>| -> f64 {
        let ex = Executor::new(
            RtConfig {
                cpus: 1,
                timer_interval: Duration::from_micros(250),
            },
            sched,
        );
        let a = ex.spawn("w1", weight(1), spin);
        let b = ex.spawn("w4", weight(4), spin);
        std::thread::sleep(std::time::Duration::from_millis(500));
        ex.stop();
        ex.wait();
        b.service().as_secs_f64() / a.service().as_secs_f64().max(1e-9)
    };
    let sfs_ratio = run(PolicySpec::sfs()
        .with_quantum(Duration::from_millis(2))
        .build(1));
    let ts_ratio = run(PolicySpec::time_sharing().with_ticks(1).build(1));
    assert!(sfs_ratio > 2.5, "SFS ratio {sfs_ratio:.2}");
    assert!(ts_ratio < 2.0, "time sharing ratio {ts_ratio:.2}");
    assert!(sfs_ratio > ts_ratio, "{sfs_ratio:.2} vs {ts_ratio:.2}");
}

#[test]
fn substrate_parity_sim_vs_rt() {
    // The *same* scenario, expressed once, runs through the Experiment
    // front-end on both substrates and must produce the same 3:1 share
    // split (loose tolerance for the real-thread run).
    let policy: PolicySpec = "sfs:quantum=2ms".parse().unwrap();
    let cfg = SimConfig {
        cpus: 1,
        duration: Duration::from_millis(600),
        ctx_switch: Duration::from_micros(5),
        sample_every: Duration::from_millis(100),
        track_gms: false,
        seed: 21,
        lean: false,
    };
    let scenario = Scenario::new("parity", cfg)
        .task(TaskSpec::new("a", 3, BehaviorSpec::Inf))
        .task(TaskSpec::new("b", 1, BehaviorSpec::Inf));

    let sim_rep = Experiment::new(scenario.clone()).run(&policy).unwrap();
    let rt_rep = Experiment::on(
        scenario,
        RtSubstrate {
            timer_interval: Duration::from_micros(250),
        },
    )
    .run(&policy)
    .unwrap();

    let ratio = |rep: &RunReport| {
        rep.task("a").unwrap().service.as_secs_f64()
            / rep.task("b").unwrap().service.as_secs_f64().max(1e-9)
    };
    let (sim_ratio, rt_ratio) = (ratio(&sim_rep), ratio(&rt_rep));
    assert_eq!(sim_rep.substrate, "sim");
    assert_eq!(rt_rep.substrate, "rt");
    assert!((sim_ratio - 3.0).abs() < 0.05, "sim ratio {sim_ratio:.2}");
    assert!(
        (rt_ratio / sim_ratio - 1.0).abs() < 0.45,
        "substrates disagree: sim {sim_ratio:.2} vs rt {rt_ratio:.2}"
    );
}
