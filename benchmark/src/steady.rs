//! `steady`: a constant runnable set, so the run is almost all picks.
//!
//! Ten weight classes of always-runnable tasks plus three infeasibly
//! heavy ones (so the §2.1 clamp set is never empty) share four
//! simulated CPUs under `sfs:quantum=1ms`; a few `Interact` probes block
//! and wake among them. The runnable set never changes size, so
//! readjustment does next to nothing and the wall time is
//! `BucketQueue::min_surplus` + requeue + the engine's timer pops — the
//! "read" side of the structures `churn` writes.
//!
//! The seed drives what is random in the workload — the probes' think
//! and burst times. The class plan (weights, sizes, order) is the
//! workload's definition and the same for every seed: measured, dealing
//! the weights by seed moved both time and memory by several percent
//! through tree shapes alone, which says nothing about the program.

use sfs_core::policy::PolicySpec;
use sfs_core::time::Duration;
use sfs_metrics::fairness;
use sfs_sim::{Scenario, SimConfig, SimReport, TaskSpec};
use sfs_workloads::BehaviorSpec;

use crate::rng::InputHasher;
use crate::simrun::scenario_rep;
use crate::spans::{SpanId, Tracer};
use crate::stats::median;
use crate::workload::{spanned, Check, Prepared, RepMode, RepOutcome, Scale};

const CPUS: u32 = 4;
const CLASSES: usize = 10;
const HEAVY: usize = 3;
const POLICY: &str = "sfs:quantum=1ms";
/// The ten class weights, ascending.
const WEIGHTS: [u64; CLASSES] = [1, 2, 3, 4, 6, 8, 12, 16, 24, 32];

struct Inputs {
    /// `(weight, tasks)` per class, in spec order.
    classes: Vec<(u64, usize)>,
    heavy_weight: u64,
    probes: usize,
    probe_weight: u64,
    duration: Duration,
    sim_seed: u64,
}

fn generate(seed: u64, scale: Scale) -> Inputs {
    let (tasks, probes, duration) = match scale {
        Scale::Full => (20_000usize, 40usize, Duration::from_secs(150)),
        Scale::Tiny => (400, 8, Duration::from_secs(4)),
    };
    let classes: Vec<(u64, usize)> = WEIGHTS.iter().map(|&w| (w, tasks / CLASSES)).collect();
    let light_total: u64 = classes.iter().map(|&(w, n)| w * n as u64).sum();
    Inputs {
        // Twice everything else: far over a 1/p share on four CPUs.
        heavy_weight: 2 * light_total,
        probe_weight: WEIGHTS[CLASSES - 1],
        classes,
        probes,
        duration,
        sim_seed: seed,
    }
}

fn hash(inp: &Inputs) -> String {
    let mut h = InputHasher::default();
    h.text("steady");
    for &(w, n) in &inp.classes {
        h.word(w);
        h.word(n as u64);
    }
    h.word(inp.heavy_weight);
    h.word(inp.probes as u64);
    h.word(inp.probe_weight);
    h.word(inp.duration.as_nanos());
    h.word(inp.sim_seed);
    h.finish()
}

fn build(inp: &Inputs) -> Scenario {
    let cfg = SimConfig {
        cpus: CPUS,
        duration: inp.duration,
        ctx_switch: Duration::from_micros(1),
        // One mid-run sample: the per-task curves are not the subject.
        sample_every: inp.duration / 2,
        track_gms: false,
        seed: inp.sim_seed,
        lean: false,
    };
    let mut sc = Scenario::new("steady", cfg);
    for (i, &(w, n)) in inp.classes.iter().enumerate() {
        sc = sc.task(TaskSpec::new(&format!("class{i}"), w, BehaviorSpec::Inf).replicated(n));
        if i == CLASSES / 2 {
            // Heavy tasks and probes arrive mid-list, so their ids sit
            // among the classes rather than after them.
            sc = sc
                .task(TaskSpec::new("heavy", inp.heavy_weight, BehaviorSpec::Inf).replicated(HEAVY))
                .task(
                    TaskSpec::new(
                        "probe",
                        inp.probe_weight,
                        BehaviorSpec::Interact {
                            // Bursts far below the quantum: a response is
                            // the wait for a CPU plus the burst, not a
                            // second trip round the run queue.
                            think: Duration::from_millis(80),
                            burst: Duration::from_micros(100),
                        },
                    )
                    .replicated(inp.probes),
                );
        }
    }
    sc
}

/// `steady`, generated and built.
pub struct Steady {
    hash: String,
    scenario: Scenario,
    policy: PolicySpec,
}

/// Generates and builds `steady` for `seed`.
pub fn prepare(seed: u64, scale: Scale, spans: Option<(&Tracer, SpanId)>) -> Steady {
    let inputs = spanned(spans, "bench.generate", || generate(seed, scale));
    let scenario = spanned(spans, "sim.scenario.build", || build(&inputs));
    Steady {
        hash: hash(&inputs),
        scenario,
        policy: POLICY.parse().expect("steady policy parses"),
    }
}

/// The share error of the always-runnable tasks against the §2.1-capped
/// ideal, and the probes' response times.
fn score(rep: &SimReport, out: &mut RepOutcome) {
    let backlogged: Vec<_> = rep
        .tasks
        .iter()
        .filter(|t| !t.name.starts_with("probe"))
        .collect();
    let services: Vec<f64> = backlogged.iter().map(|t| t.service.as_secs_f64()).collect();
    let weights: Vec<f64> = backlogged.iter().map(|t| t.weight as f64).collect();
    out.real(
        "e2e.share_err_max",
        fairness::proportional_error(&services, &weights, rep.cpus),
    );
    let probes: Vec<_> = rep
        .tasks
        .iter()
        .filter_map(|t| t.responses.as_ref())
        .collect();
    let medians: Vec<f64> = probes.iter().map(|s| s.median()).collect();
    let worst_p99 = probes
        .iter()
        .map(|s| s.percentile(99.0))
        .fold(0.0, f64::max);
    out.real("e2e.resp_p50_ms", median(&medians));
    out.real("e2e.resp_p99_ms", worst_p99);
    out.int(
        "resp_samples",
        probes.iter().map(|s| s.count() as u64).sum(),
    );
}

impl Prepared for Steady {
    fn inputs_hash(&self) -> &str {
        &self.hash
    }

    fn rep(&self, mode: &RepMode) -> RepOutcome {
        let (rep, mut out) = scenario_rep(&self.scenario, &self.policy, mode);
        score(&rep, &mut out);

        out.attempted = rep.tasks.len() as u64;
        out.failed = rep
            .tasks
            .iter()
            .filter(|t| t.rejected || t.service.is_zero())
            .count() as u64;
        // More always-runnable tasks than CPUs, so any idle CPU time is
        // a work-conservation failure (service includes switch costs).
        let capacity = u64::from(rep.cpus) * rep.duration.as_nanos();
        let idle = capacity - rep.total_service().as_nanos().min(capacity);
        let slack = u64::from(rep.cpus) * self.scenario.config.ctx_switch.as_nanos();
        out.checks.push(Check::new(
            "no_idle_cpu_while_ready",
            idle <= slack,
            format!("{idle} ns idle of {capacity} ns (slack {slack} ns)"),
        ));
        out
    }
}
