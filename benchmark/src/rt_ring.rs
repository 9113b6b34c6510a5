//! `rt_ring`: the real-thread executor and nothing from the simulator.
//!
//! One virtual CPU under `sfs:quantum=5ms`, three phases per repetition:
//!
//! 1. an eight-task token ring (`block_on_token`/`wake_task`, weights
//!    1–3): a closed loop with eight clients in which exactly one task is
//!    runnable at a time, so every hop is a genuine hand-off — wake,
//!    block, pick, park/unpark. Each hop is stamped by its producer and
//!    timed by its consumer;
//! 2. eight tasks yielding in turn (`yield_now`);
//! 3. spawn-and-join of short tasks from the driving thread.
//!
//! The load is one thread at a time (the other task threads are parked),
//! so with the process pinned to one core the numbers measure the
//! executor, not the host's thread placement.
//!
//! The seed deals a fixed multiset of weights over the ring's and the
//! yielders' positions.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::Instant;

use sfs_core::policy::PolicySpec;
use sfs_core::task::{weight, TaskId};
use sfs_core::time::Duration;
use sfs_metrics::Summary;
use sfs_rt::{Executor, RtConfig};
use sfs_trace::{TraceMeta, TraceRecorder};

use crate::rng::{InputHasher, SplitMix64};
use crate::spans::{SpanId, Tracer};
use crate::workload::{decorate, spanned, Check, Prepared, RepMode, RepOutcome, Scale};

const RING: usize = 8;
const POLICY: &str = "sfs:quantum=5ms";

struct Inputs {
    ring_weights: [u64; RING],
    yield_weights: [u64; RING],
    rounds: u64,
    yields_each: u64,
    spawns: u64,
    spin_check: Duration,
}

fn generate(seed: u64, scale: Scale) -> Inputs {
    // The same multiset of weights for every seed, dealt in seeded order.
    let mut rng = SplitMix64::fork(seed, "rt_ring.weights");
    let mut draw = || {
        let mut w = [1u64, 1, 1, 2, 2, 2, 3, 3];
        rng.shuffle(&mut w);
        w
    };
    let (rounds, yields_each, spawns, spin_check) = match scale {
        // 64 000 hops, 24 000 yields, 800 spawns: about half a second.
        Scale::Full => (8_000, 3_000, 800, Duration::from_secs(2)),
        Scale::Tiny => (150, 100, 20, Duration::from_millis(300)),
    };
    Inputs {
        ring_weights: draw(),
        yield_weights: draw(),
        rounds,
        yields_each,
        spawns,
        spin_check,
    }
}

/// `rt_ring`, generated.
pub struct RtRing {
    hash: String,
    inputs: Inputs,
    policy: PolicySpec,
}

/// Generates `rt_ring` for `seed` (the executor itself is built per
/// repetition: it cannot be reused after its tasks have exited).
pub fn prepare(seed: u64, scale: Scale, spans: Option<(&Tracer, SpanId)>) -> RtRing {
    let inputs = spanned(spans, "bench.generate", || generate(seed, scale));
    let mut h = InputHasher::default();
    h.text("rt_ring");
    for w in inputs.ring_weights.iter().chain(&inputs.yield_weights) {
        h.word(*w);
    }
    h.word(inputs.rounds);
    h.word(inputs.yields_each);
    h.word(inputs.spawns);
    RtRing {
        hash: h.finish(),
        inputs,
        policy: POLICY.parse().expect("rt_ring policy parses"),
    }
}

fn config() -> RtConfig {
    RtConfig {
        cpus: 1,
        timer_interval: Duration::from_millis(1),
    }
}

/// Runs the token ring to completion; returns every hop's latency in
/// nanoseconds (producer's stamp to the consumer running again).
fn ring_phase(ex: &Executor, inp: &Inputs) -> Vec<f64> {
    let epoch = Instant::now();
    let tokens: Arc<Vec<AtomicBool>> =
        Arc::new((0..RING).map(|_| AtomicBool::new(false)).collect());
    let stamps: Arc<Vec<AtomicU64>> = Arc::new((0..RING).map(|_| AtomicU64::new(0)).collect());
    let ids: Arc<OnceLock<Vec<TaskId>>> = Arc::new(OnceLock::new());
    let (tx, rx) = mpsc::channel::<Vec<u32>>();
    let rounds = inp.rounds;
    let handles: Vec<_> = (0..RING)
        .map(|i| {
            let (tokens, stamps, ids, tx) = (
                Arc::clone(&tokens),
                Arc::clone(&stamps),
                Arc::clone(&ids),
                tx.clone(),
            );
            ex.spawn(
                &format!("ring{i}"),
                weight(inp.ring_weights[i]),
                move |ctx| {
                    let next = (i + 1) % RING;
                    let mut lat = Vec::with_capacity(rounds as usize);
                    for _ in 0..rounds {
                        ctx.block_on_token(&tokens[i]);
                        let now = epoch.elapsed().as_nanos() as u64;
                        // Acquire pairs with the producer's Release store of
                        // the stamp, made before it set our token.
                        lat.push((now - stamps[i].load(Ordering::Acquire)) as u32);
                        let next_id = ids.get().expect("ids are set before the kick-off")[next];
                        stamps[next].store(epoch.elapsed().as_nanos() as u64, Ordering::Release);
                        tokens[next].store(true, Ordering::Release);
                        ctx.wake_task(next_id);
                    }
                    let _ = tx.send(lat);
                },
            )
        })
        .collect();
    drop(tx);
    ids.set(handles.iter().map(sfs_rt::TaskHandle::id).collect())
        .expect("set once");
    // Kick the ring off.
    stamps[0].store(epoch.elapsed().as_nanos() as u64, Ordering::Release);
    tokens[0].store(true, Ordering::Release);
    ex.wake_task(handles[0].id());
    ex.wait();
    for h in handles {
        h.join();
    }
    rx.iter().flatten().map(f64::from).collect()
}

/// Eight tasks each yielding `yields_each` times; returns host seconds.
fn yield_phase(ex: &Executor, inp: &Inputs) -> f64 {
    let t0 = Instant::now();
    let n = inp.yields_each;
    let handles: Vec<_> = (0..RING)
        .map(|i| {
            ex.spawn(
                &format!("yield{i}"),
                weight(inp.yield_weights[i]),
                move |ctx| {
                    for _ in 0..n {
                        ctx.yield_now();
                    }
                },
            )
        })
        .collect();
    ex.wait();
    for h in handles {
        h.join();
    }
    t0.elapsed().as_secs_f64()
}

/// Spawn-and-join of empty tasks from the driving thread; host seconds.
fn spawn_phase(ex: &Executor, inp: &Inputs) -> f64 {
    let t0 = Instant::now();
    for _ in 0..inp.spawns {
        ex.spawn("job", weight(1), |_| {}).join();
    }
    t0.elapsed().as_secs_f64()
}

impl Prepared for RtRing {
    fn inputs_hash(&self) -> &str {
        &self.hash
    }

    fn rep(&self, mode: &RepMode) -> RepOutcome {
        let inp = &self.inputs;
        let mut out = RepOutcome::default();
        let t0 = Instant::now();
        let span = match mode {
            RepMode::Timed { tracer, .. } => Some(tracer.span("rt.executor.run", SpanId::ROOT)),
            RepMode::Plain | RepMode::Recorded => None,
        };
        let parent = span
            .as_ref()
            .map_or(SpanId::ROOT, crate::spans::SpanGuard::id);
        let sched = decorate(self.policy.build(1), mode, parent);
        let rec = match mode {
            RepMode::Recorded => TraceRecorder::new(TraceMeta {
                substrate: "rt".into(),
                scenario: "rt_ring".into(),
                policy: self.policy.to_string(),
                cpus: 1,
                tenants: Vec::new(),
            }),
            RepMode::Plain | RepMode::Timed { .. } => TraceRecorder::off(),
        };
        let ex = Executor::new_traced(config(), sched, rec.clone());

        let hops = ring_phase(&ex, inp);
        let ring_s = t0.elapsed().as_secs_f64();
        let yield_s = yield_phase(&ex, inp);
        let spawn_s = spawn_phase(&ex, inp);

        let stats = ex.sched_stats();
        let switches = ex.switches();
        let (rejected, reaped) = (ex.rejected(), ex.reaped());
        let (watchdog, violations) = (ex.watchdog_fires(), ex.invariant_violations());
        // Dropping the executor joins its timer thread and releases the
        // scheduler (a decorator flushes its spans here).
        drop(ex);
        drop(span);
        out.wall_s = t0.elapsed().as_secs_f64();
        if matches!(mode, RepMode::Recorded) {
            out.measured.insert(
                "trace.recorder.events".into(),
                rec.finish().events.len() as f64,
            );
        }

        let hops = Summary::from(hops);
        let done = hops.count() as u64;
        let want_hops = inp.rounds * RING as u64;
        let yields = inp.yields_each * RING as u64;
        let spawned = 2 * RING as u64 + inp.spawns;
        out.decisions = switches;
        out.attempted = spawned + want_hops;
        out.failed = rejected + reaped + want_hops.saturating_sub(done);
        out.int("rt.hops", done);
        out.int("rt.spawned", spawned);
        for (key, value) in [
            ("handoff_p50_us", hops.median() / 1e3),
            ("handoff_p99_us", hops.percentile(99.0) / 1e3),
            ("handoff_p999_us", hops.percentile(99.9) / 1e3),
            ("ring_s", ring_s),
            ("yield_ns", yield_s * 1e9 / yields as f64),
            ("spawn_us", spawn_s * 1e6 / inp.spawns as f64),
            ("switches", switches as f64),
            ("picks", stats.picks as f64),
            ("events", stats.events as f64),
            ("event_steps", stats.event_steps as f64),
            ("bucket_scans", stats.bucket_scans as f64),
            ("readjust_calls", stats.readjust_calls as f64),
            ("weights_clamped", stats.weights_clamped as f64),
            ("bucket_migrations", stats.bucket_migrations as f64),
            ("full_resorts", stats.full_resorts as f64),
            ("watchdog_fires", watchdog as f64),
            ("invariant_violations", violations as f64),
        ] {
            out.measured.insert(key.into(), value);
        }
        out.checks.push(Check::new(
            "rt_self_audit_clean",
            violations == 0 && watchdog == 0,
            format!("invariant_violations {violations}, watchdog_fires {watchdog}"),
        ));
        out.checks.push(Check::new(
            "rt_all_hops_done",
            done == want_hops && rejected == 0 && reaped == 0,
            format!("{done} of {want_hops} hops, {rejected} refused, {reaped} reaped"),
        ));
        out
    }

    fn setup_check(&self) -> Option<Check> {
        // Three spinners weighted 2:1:1 on the one virtual CPU must
        // split it 1/2, 1/4, 1/4 (within 0.05 each).
        let ex = Executor::new(config(), self.policy.build(1));
        let handles: Vec<_> = [2u64, 1, 1]
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                ex.spawn(&format!("spin{i}"), weight(w), |ctx| {
                    while !ctx.stopped() {
                        ctx.checkpoint();
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        std::thread::sleep(self.inputs.spin_check.to_std());
        ex.stop();
        ex.wait();
        let service: Vec<f64> = handles
            .into_iter()
            .map(|h| h.join_service().as_secs_f64())
            .collect();
        let total: f64 = service.iter().sum();
        let shares: Vec<f64> = service.iter().map(|s| s / total).collect();
        let ok = total > 0.0
            && shares
                .iter()
                .zip([0.5, 0.25, 0.25])
                .all(|(s, want)| (s - want).abs() <= 0.05);
        Some(Check::new(
            "rt_spinner_shares_2_1_1",
            ok,
            format!(
                "shares {:.3}/{:.3}/{:.3} over {:.2} s of service",
                shares[0], shares[1], shares[2], total
            ),
        ))
    }
}
