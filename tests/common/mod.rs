//! The mega-scale engine mix, shared by `scaling_guards` (debug scale,
//! tier-1) and `perf_guards` (release scale, `#[ignore]`d).

use std::time::Instant;

use sfs::prelude::*;

const CPUS: u32 = 8;
/// Staggered arrival waves after the t = 0 bulk.
const WAVES: usize = 32;

/// One whole-engine run's measurements.
#[derive(Debug)]
pub struct MegaPoint {
    /// Wall-clock nanoseconds per discrete engine event.
    pub ns_per_event: f64,
    /// Engine events processed.
    pub events: u64,
    /// Tasks that arrived.
    pub tasks: u64,
    /// Tasks that ran to completion and exited.
    pub completed: u64,
}

/// Runs `tasks` tasks through one lean-mode simulator run under SFS:
/// 70 % finite jobs of `job` CPU demand arriving in one same-tick burst
/// at t = 0, 20 % identical jobs in 32 staggered same-tick waves of
/// three weight classes over the first 60 % of the run, and 10 %
/// interactive tasks (100 ms think, 1 ms burst) that block and wake
/// throughout. The run is sized so the finite demand drains.
pub fn mega_point(tasks: usize, job: Duration) -> MegaPoint {
    let bulk = tasks * 7 / 10;
    let interactive = tasks / 10;
    let waved = tasks - bulk - interactive;
    let work = Duration(job.as_nanos() * (bulk + waved) as u64 / CPUS as u64);
    let duration = Duration(work.as_nanos() * 3 / 2).max(Duration::from_secs(2));
    let cfg = SimConfig {
        cpus: CPUS,
        duration,
        ctx_switch: Duration::from_micros(1),
        sample_every: duration / 8,
        track_gms: false,
        seed: 0xC0DE,
        lean: true,
    };
    let think = BehaviorSpec::Interact {
        think: Duration::from_millis(100),
        burst: Duration::from_millis(1),
    };
    let mut sc = Scenario::new("mega", cfg)
        .task(TaskSpec::new("bulk", 1, BehaviorSpec::Finite(job)).replicated(bulk))
        .task(TaskSpec::new("think", 2, think).replicated(interactive));
    let window = duration.as_nanos() * 3 / 5;
    for wave in 0..WAVES {
        let n = waved / WAVES + usize::from(wave < waved % WAVES);
        if n > 0 {
            let at = Time(window * (wave as u64 + 1) / WAVES as u64);
            let spec = TaskSpec::new(
                &format!("wave{wave:02}"),
                1 << (wave % 3),
                BehaviorSpec::Finite(job),
            );
            sc = sc.task(spec.replicated(n).arrive_at(at));
        }
    }
    let sched = "sfs:quantum=20ms"
        .parse::<PolicySpec>()
        .expect("static spec")
        .build(CPUS);
    let t0 = Instant::now();
    let rep = sc.try_run(sched).expect("mega scenario is well-formed");
    let elapsed = t0.elapsed();
    let s = rep.summary.expect("mega runs in lean mode");
    MegaPoint {
        ns_per_event: elapsed.as_nanos() as f64 / rep.engine_events.max(1) as f64,
        events: rep.engine_events,
        tasks: s.tasks,
        completed: s.exited,
    }
}
