//! `serve`: the multi-tenant serving scenario, end to end through
//! `Experiment::run` — hierarchy, sharding, admission control, the
//! non-lean report and the fairness metrics in one run.
//!
//! Four tenants on four simulated CPUs under
//! `sfs:groups(frontend*4,api*2,batch,rogue),shards=2,admit(...)`:
//!
//! * `frontend`: 64 interactive sessions (think 50 ms, burst 1 ms);
//! * `api`: an open loop of short requests — Pareto(1.5) service between
//!   200 µs and 50 ms, arriving in alternating calm and burst periods at
//!   a mean rate that keeps `api` at about 85 % of its guaranteed CPU.
//!   Each request is timed from its scheduled arrival (the engine
//!   delivers arrivals on time, so the generator is never late);
//! * `batch`: 16 always-runnable jobs;
//! * `rogue`: 4 always-runnable tasks from t = 0 and, at a third of the
//!   run, a flash crowd of 2 000 weight-100 tasks in one tick.
//!
//! Admission is sized so that only the flash crowd is refused; the
//! output checks assert it.
//!
//! The seed orders the service times over the requests, places the
//! arrival bursts and seeds the sessions' think times. The multiset of
//! service times, the request count and the mean rate are the same for
//! every seed.

use sfs_core::policy::PolicySpec;
use sfs_core::task::TenantId;
use sfs_core::time::{Duration, Time};
use sfs_experiment::{Experiment, RunReport, TaskFate};
use sfs_metrics::Summary;
use sfs_sim::{Scenario, SimConfig, TaskSpec};
use sfs_workloads::BehaviorSpec;

use crate::rng::{InputHasher, SplitMix64};
use crate::simrun::SpanSubstrate;
use crate::spans::{SpanId, Tracer};
use crate::workload::{spanned, timed_s, Check, Prepared, RepMode, RepOutcome, Scale};

const CPUS: u32 = 4;
const SESSIONS: usize = 64;
const BATCH_JOBS: usize = 16;
const ROGUE_BACKLOG: usize = 4;
const SERVICE_MIN: Duration = Duration::from_micros(200);
const SERVICE_MAX: Duration = Duration::from_millis(50);
const PARETO_ALPHA: f64 = 1.5;
/// Mean request rate per simulated second.
const API_RATE: u64 = 600;

struct Inputs {
    /// `(arrival, service)` per request, in arrival order.
    requests: Vec<(Time, Duration)>,
    crowd: usize,
    crowd_at: Time,
    /// Per-tenant live-task cap of the admission clause: far above what
    /// `api` ever holds, far below the crowd.
    max_live: u64,
    duration: Duration,
    sim_seed: u64,
}

fn generate(seed: u64, scale: Scale) -> Inputs {
    let (duration, crowd, max_live) = match scale {
        Scale::Full => (Duration::from_secs(90), 2_000usize, 512),
        Scale::Tiny => (Duration::from_secs(2), 120, 64),
    };
    // Arrivals stop early enough for the last request to finish.
    let window = duration.as_nanos() * 9 / 10;
    let n = (u128::from(window) * u128::from(API_RATE) / 1_000_000_000) as usize;

    // Service times: the n-point quantile grid of the truncated Pareto,
    // so every seed serves the same multiset in a different order.
    let lo = SERVICE_MIN.as_nanos() as f64;
    let hi = SERVICE_MAX.as_nanos() as f64;
    let mut services: Vec<u64> = (0..n)
        .map(|i| {
            let u = (i as f64 + 0.5) / n as f64;
            (lo / (1.0 - u).powf(1.0 / PARETO_ALPHA)).min(hi) as u64
        })
        .collect();
    SplitMix64::fork(seed, "serve.service").shuffle(&mut services);

    // Arrivals: exponential gaps whose rate alternates between a calm
    // (0.5×) and a burst (3×) level, then rescaled onto the window so
    // the request count and mean rate do not depend on the seed.
    let mut rng = SplitMix64::fork(seed, "serve.arrivals");
    let mut t = 0.0f64;
    let mut period_end = 0.0f64;
    let mut calm = false;
    let mut raw = Vec::with_capacity(n);
    for _ in 0..n {
        if t >= period_end {
            calm = !calm;
            // Calm periods average 200 ms, bursts 40 ms.
            let mean = if calm { 0.2 } else { 0.04 };
            period_end = t - mean * (1.0 - rng.unit()).ln();
        }
        let level = if calm { 0.5 } else { 3.0 };
        t -= (1.0 - rng.unit()).ln() / (API_RATE as f64 * level);
        raw.push(t);
    }
    let stretch = window as f64 / t;
    let requests = raw
        .iter()
        .zip(&services)
        .map(|(&at, &s)| (Time((at * stretch) as u64), Duration(s)))
        .collect();
    Inputs {
        requests,
        crowd,
        crowd_at: Time(duration.as_nanos() / 3),
        max_live,
        duration,
        sim_seed: seed,
    }
}

fn hash(inp: &Inputs) -> String {
    let mut h = InputHasher::default();
    h.text("serve");
    for &(at, s) in &inp.requests {
        h.word(at.as_nanos());
        h.word(s.as_nanos());
    }
    h.word(inp.crowd as u64);
    h.word(inp.crowd_at.as_nanos());
    h.word(inp.max_live);
    h.word(inp.duration.as_nanos());
    h.word(inp.sim_seed);
    h.finish()
}

fn policy(max_live: u64) -> PolicySpec {
    // The token bucket holds one second of arrivals at four times the
    // mean api rate, so api bursts pass; `max` is what stops the crowd.
    format!(
        "sfs:groups(frontend*4=sfs:quantum=5ms,api*2=sfs:quantum=5ms,\
         batch=sfq:quantum=5ms,rogue=sfs:quantum=5ms),shards=2,\
         admit(max={max_live},rate={}/s)",
        4 * API_RATE
    )
    .parse()
    .expect("serve policy parses")
}

fn build(inp: &Inputs) -> Scenario {
    let cfg = SimConfig {
        cpus: CPUS,
        duration: inp.duration,
        ctx_switch: Duration::from_micros(1),
        // The per-task curves are not the subject; two samples.
        sample_every: inp.duration / 2,
        track_gms: false,
        seed: inp.sim_seed,
        lean: false,
    };
    let api = inp.requests.iter().enumerate().map(|(i, &(at, service))| {
        TaskSpec::new(&format!("req{i:06}"), 1, BehaviorSpec::Finite(service)).arrive_at(at)
    });
    Scenario::new("serve", cfg)
        .tenant(
            "frontend",
            [TaskSpec::new(
                "session",
                1,
                BehaviorSpec::Interact {
                    think: Duration::from_millis(50),
                    burst: Duration::from_millis(1),
                },
            )
            .replicated(SESSIONS)],
        )
        .tenant("api", api)
        .tenant(
            "batch",
            [TaskSpec::new("job", 1, BehaviorSpec::Inf).replicated(BATCH_JOBS)],
        )
        .tenant(
            "rogue",
            [
                TaskSpec::new("hog", 1, BehaviorSpec::Inf).replicated(ROGUE_BACKLOG),
                TaskSpec::new("crowd", 100, BehaviorSpec::Inf)
                    .replicated(inp.crowd)
                    .arrive_at(inp.crowd_at),
            ],
        )
}

/// `serve`, generated and built.
pub struct Serve {
    hash: String,
    scenario: Scenario,
    policy: PolicySpec,
    plain: Experiment,
    api: TenantId,
    batch: TenantId,
    rogue: TenantId,
    ctx_switch_ns: u64,
}

/// Generates and builds `serve` for `seed`.
pub fn prepare(seed: u64, scale: Scale, spans: Option<(&Tracer, SpanId)>) -> Serve {
    let inputs = spanned(spans, "bench.generate", || generate(seed, scale));
    let scenario = spanned(spans, "sim.scenario.build", || build(&inputs));
    let policy = policy(inputs.max_live);
    let tenant = |name| policy.tenant_of(name).expect("declared group");
    Serve {
        hash: hash(&inputs),
        api: tenant("api"),
        batch: tenant("batch"),
        rogue: tenant("rogue"),
        ctx_switch_ns: scenario.config.ctx_switch.as_nanos(),
        plain: Experiment::new(scenario.clone()),
        scenario,
        policy,
    }
}

impl Serve {
    fn score(&self, run: &RunReport, mode: &RepMode, out: &mut RepOutcome) {
        let sim = run.sim_report();
        out.decisions = run.sched_stats.picks;
        out.sim_counters(sim);
        out.sched_stats(&run.sched_stats);

        // Sojourn of every admitted api request, from its arrival.
        let mut sojourn_ms = Vec::new();
        let (mut refused_other, mut refused_rogue, mut unfinished, mut starved) = (0u64, 0, 0, 0);
        for t in &run.tasks {
            let is_rogue = t.tenant == Some(self.rogue);
            match t.fate {
                TaskFate::Rejected if is_rogue => refused_rogue += 1,
                TaskFate::Rejected => refused_other += 1,
                _ if t.service.is_zero() => starved += 1,
                _ => {}
            }
            if t.tenant == Some(self.api) && t.fate == TaskFate::Ran {
                match t.exited {
                    Some(end) => sojourn_ms.push(end.since(t.arrived).as_millis_f64()),
                    None => unfinished += 1,
                }
            }
        }
        let sojourn = Summary::from(sojourn_ms);
        out.real("e2e.resp_p50_ms", sojourn.median());
        out.real("e2e.resp_p99_ms", sojourn.percentile(99.0));
        out.int("resp_samples", sojourn.count() as u64);

        // batch and rogue hold equal group shares and are both always
        // backlogged: each should get half of what the two get.
        let batch = run.tenant_service(self.batch).as_secs_f64();
        let rogue = run.tenant_service(self.rogue).as_secs_f64();
        out.real("e2e.share_err_max", (batch / (batch + rogue) - 0.5).abs());
        let fairness = spanned(mode.spans(), "experiment.report.fairness", || {
            run.fairness()
        });
        out.real("report.jain", fairness.jain);
        out.real(
            "report.tenant_jain",
            run.tenant_fairness().expect("grouped policy"),
        );

        out.attempted = run.tasks.len() as u64;
        out.failed = refused_other + refused_rogue + unfinished + starved;
        out.refused_by_design = refused_rogue;
        out.int("admit.rejected", run.health.rejected);
        out.checks.push(Check::new(
            "only_rogue_refused",
            refused_other == 0 && refused_rogue > 0 && refused_rogue == run.health.rejected,
            format!(
                "rogue refused {refused_rogue}, others refused {refused_other}, engine counted {}",
                run.health.rejected
            ),
        ));
        // batch and rogue keep more than four tasks runnable throughout,
        // so any idle CPU time is a work-conservation failure.
        let capacity = u64::from(run.cpus) * run.duration.as_nanos();
        let idle = capacity - run.total_service().as_nanos().min(capacity);
        let slack = u64::from(run.cpus) * self.ctx_switch_ns;
        out.checks.push(Check::new(
            "no_idle_cpu_while_ready",
            idle <= slack,
            format!("{idle} ns idle of {capacity} ns (slack {slack} ns)"),
        ));
    }
}

impl Prepared for Serve {
    fn inputs_hash(&self) -> &str {
        &self.hash
    }

    fn rep(&self, mode: &RepMode) -> RepOutcome {
        let mut out = RepOutcome::default();
        match mode {
            RepMode::Plain => {
                let ((), wall_s) = timed_s(|| {
                    let run = self.plain.run(&self.policy).expect("serve runs");
                    self.score(&run, mode, &mut out);
                });
                out.wall_s = wall_s;
            }
            RepMode::Timed { tracer, .. } => {
                let scenario = self.scenario.clone();
                let ((), wall_s) = timed_s(|| {
                    let span = tracer.span("experiment.substrate.run", SpanId::ROOT);
                    let exp = Experiment::on(scenario, SpanSubstrate::new(mode, span.id()));
                    let run = exp.run(&self.policy).expect("serve runs");
                    drop(span);
                    self.score(&run, mode, &mut out);
                });
                out.wall_s = wall_s;
            }
            RepMode::Recorded => {
                let ((), wall_s) = timed_s(|| {
                    let (run, trace) = self
                        .plain
                        .run_recorded(&self.policy)
                        .expect("serve records");
                    out.measured
                        .insert("trace.recorder.events".into(), trace.events.len() as f64);
                    self.score(&run, mode, &mut out);
                });
                out.wall_s = wall_s;
            }
        }
        out
    }
}
