//! `churn`: the event path — attach, exit, wake, §2.1 readjustment,
//! batch arrival, timing wheel, task arena — through the structures
//! `steady` only reads.
//!
//! The `repro mega` mix on eight simulated CPUs under
//! `sfs:quantum=20ms`, lean mode: 70 % of the tasks are 200 µs jobs
//! arriving in one same-tick burst at t = 0, 20 % arrive in 32 same-tick
//! waves over three weight classes, 10 % think and burst for the whole
//! run. A pick speed-up paid for on requeue or bucket migration shows
//! here and not on `steady`.
//!
//! The seed drives what is random in the workload — the think and burst
//! times of the interactive tenth, and with them how wakes interleave
//! with the waves. The wave plan is the workload's definition and the
//! same for every seed.

use sfs_core::policy::PolicySpec;
use sfs_core::time::{Duration, Time};
use sfs_sim::{Scenario, SimConfig, TaskSpec};
use sfs_workloads::BehaviorSpec;

use crate::rng::InputHasher;
use crate::simrun::scenario_rep;
use crate::spans::{SpanId, Tracer};
use crate::workload::{spanned, Check, Prepared, RepMode, RepOutcome, Scale};

/// Simulated CPUs of the churn mix (shared with `baselines`).
pub const CPUS: u32 = 8;
const WAVES: usize = 32;
const JOB: Duration = Duration::from_micros(200);
const POLICY: &str = "sfs:quantum=20ms";

/// One same-tick wave of finite jobs.
pub struct Wave {
    at: Time,
    weight: u64,
    tasks: usize,
}

/// The generated churn mix, reused at a smaller size by `baselines`.
pub struct Mix {
    bulk: usize,
    interactive: usize,
    waves: Vec<Wave>,
    duration: Duration,
    sim_seed: u64,
}

impl Mix {
    /// Tasks that must exit before the run ends (bulk + waved).
    pub fn finite(&self) -> u64 {
        (self.bulk + self.waves.iter().map(|w| w.tasks).sum::<usize>()) as u64
    }

    /// Every task of the mix.
    pub fn tasks(&self) -> u64 {
        self.finite() + self.interactive as u64
    }

    /// Mixes every generated value into `h`.
    pub fn hash_into(&self, h: &mut InputHasher) {
        h.word(self.bulk as u64);
        h.word(self.interactive as u64);
        for w in &self.waves {
            h.word(w.at.as_nanos());
            h.word(w.weight);
            h.word(w.tasks as u64);
        }
        h.word(self.duration.as_nanos());
        h.word(self.sim_seed);
    }
}

/// Generates the mix at `tasks` total tasks, running for at least
/// `min_duration`.
pub fn generate_mix(seed: u64, tasks: usize, min_duration: Duration) -> Mix {
    let bulk = tasks * 7 / 10;
    let interactive = tasks / 10;
    let waved = tasks - bulk - interactive;
    // Long enough for the finite demand to drain on eight CPUs with the
    // interactive tasks competing, short enough that the idle tail does
    // not dominate.
    let work = Duration(JOB.as_nanos() * (bulk + waved) as u64 / u64::from(CPUS));
    let duration = Duration(work.as_nanos() * 3 / 2).max(min_duration);
    let window = duration.as_nanos() * 3 / 5;

    // Equal waves at the centres of equal slots of the window (never
    // t = 0, which belongs to the bulk), cycling over three weight
    // classes.
    let slot = window / WAVES as u64;
    let waves = (0..WAVES)
        .map(|i| Wave {
            at: Time(i as u64 * slot + slot / 2),
            weight: 1 << (i % 3),
            tasks: waved / WAVES + usize::from(i < waved % WAVES),
        })
        .filter(|w| w.tasks > 0)
        .collect();
    Mix {
        bulk,
        interactive,
        waves,
        duration,
        sim_seed: seed,
    }
}

/// The mix as a scenario; `lean` selects aggregate-only reporting.
pub fn build_mix(name: &str, mix: &Mix, lean: bool) -> Scenario {
    let cfg = SimConfig {
        cpus: CPUS,
        duration: mix.duration,
        ctx_switch: Duration::from_micros(1),
        sample_every: mix.duration / 8,
        track_gms: false,
        seed: mix.sim_seed,
        lean,
    };
    let mut sc = Scenario::new(name, cfg)
        .task(TaskSpec::new("bulk", 1, BehaviorSpec::Finite(JOB)).replicated(mix.bulk))
        .task(
            TaskSpec::new(
                "think",
                2,
                BehaviorSpec::Interact {
                    think: Duration::from_millis(100),
                    burst: Duration::from_millis(1),
                },
            )
            .replicated(mix.interactive),
        );
    for (i, w) in mix.waves.iter().enumerate() {
        sc = sc.task(
            TaskSpec::new(&format!("wave{i:02}"), w.weight, BehaviorSpec::Finite(JOB))
                .replicated(w.tasks)
                .arrive_at(w.at),
        );
    }
    sc
}

/// `churn`, generated and built.
pub struct Churn {
    hash: String,
    finite: u64,
    tasks: u64,
    scenario: Scenario,
    policy: PolicySpec,
}

/// Generates and builds `churn` for `seed`.
pub fn prepare(seed: u64, scale: Scale, spans: Option<(&Tracer, SpanId)>) -> Churn {
    let tasks = match scale {
        Scale::Full => 120_000,
        Scale::Tiny => 2_000,
    };
    let mix = spanned(spans, "bench.generate", || {
        generate_mix(seed, tasks, Duration::from_secs(2))
    });
    let scenario = spanned(spans, "sim.scenario.build", || {
        build_mix("churn", &mix, true)
    });
    let mut h = InputHasher::default();
    h.text("churn");
    mix.hash_into(&mut h);
    Churn {
        hash: h.finish(),
        finite: mix.finite(),
        tasks: mix.tasks(),
        scenario,
        policy: POLICY.parse().expect("churn policy parses"),
    }
}

impl Prepared for Churn {
    fn inputs_hash(&self) -> &str {
        &self.hash
    }

    fn rep(&self, mode: &RepMode) -> RepOutcome {
        let (rep, mut out) = scenario_rep(&self.scenario, &self.policy, mode);
        let s = rep.summary.expect("churn runs in lean mode");
        out.int("sim.completions", s.completions);
        out.int("sim.exited", s.exited);
        out.attempted = s.tasks;
        // Every finite job must have finished; lean mode reports no
        // per-task service, so starvation shows up here as a job that
        // never exits.
        out.failed = s.rejected + self.finite.saturating_sub(s.exited);
        out.checks.push(Check::new(
            "all_tasks_arrived",
            s.tasks == self.tasks,
            format!("{} of {} tasks arrived", s.tasks, self.tasks),
        ));
        out
    }
}
