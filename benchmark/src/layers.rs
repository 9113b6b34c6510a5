//! Component drives: timed loops on one layer's public API, at the
//! sizes of the workload that leans on the layer (source "b" of the
//! per-layer metrics).
//!
//! Every drive runs its loop [`ROUNDS`] times and keeps the fastest
//! round: on a shared host, interference only ever adds time. The loops
//! pass inputs and results through `black_box`, and each round is sized
//! to tens of milliseconds.

use std::hint::black_box;
use std::time::Instant;

use sfs_core::admit::{AdmissionControl, AdmissionPolicy};
use sfs_core::buckets::BucketQueue;
use sfs_core::feasible::FeasibleWeights;
use sfs_core::fixed::Fixed;
use sfs_core::gms::FluidGms;
use sfs_core::policy::PolicySpec;
use sfs_core::queues::{IndexedList, KeyCounter, NodeRef, Order};
use sfs_core::readjust::{readjust, readjust_capped};
use sfs_core::task::{weight, TaskId, TenantId};
use sfs_core::time::{Duration, Time};
use sfs_experiment::{Capture, Experiment};
use sfs_metrics::fairness;
use sfs_rt::{Executor, RtConfig};
use sfs_sim::wheel::TimingWheel;
use sfs_sim::{Scenario, SimConfig, TaskSpec};
use sfs_trace::{perfetto, EventTrace, Json};
use sfs_workloads::BehaviorSpec;

use crate::rng::SplitMix64;
use crate::workload::Scale;

const ROUNDS: usize = 5;

/// One drive's results: `(metric, value)`.
pub type Measured = Vec<(&'static str, f64)>;

/// Nanoseconds per operation of the fastest of [`ROUNDS`] rounds, where
/// one round is `f()` performing `ops` operations.
fn best_ns_per_op(ops: u64, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_nanos() as f64);
    }
    best / ops.max(1) as f64
}

fn mb_per_s(bytes: usize, ns: f64) -> f64 {
    if ns <= 0.0 {
        0.0
    } else {
        bytes as f64 / 1e6 / (ns / 1e9)
    }
}

fn ids(n: usize) -> impl Iterator<Item = TaskId> {
    (1..=n as u64).map(TaskId)
}

/// `core.buckets` at the `steady` shape: `n` tasks over ten φ classes,
/// four of them "running" and skipped by the pick.
fn buckets(n: usize) -> Measured {
    let mut q = BucketQueue::new();
    let phi = |i: usize| Fixed::from_int((i % 10 + 1) as i64);
    for (i, id) in ids(n).enumerate() {
        q.insert(id, phi(i), Fixed::from_int((i / 10) as i64));
    }
    let running = [TaskId(1), TaskId(2), TaskId(3), TaskId(4)];
    let ops = (n as u64).max(1_000);

    let mut v = Fixed::ZERO;
    let pick_ns = best_ns_per_op(ops, || {
        for _ in 0..ops {
            v += Fixed::from_raw(1);
            black_box(q.min_surplus(black_box(v), |id| !running.contains(&id)));
        }
    });

    let steps0 = q.steps();
    let mut tag = Fixed::from_int(n as i64);
    let requeue_ns = best_ns_per_op(ops, || {
        for k in 0..ops {
            let i = (k as usize * 7919) % n;
            // A quantum's worth of tag: q/φ.
            tag += phi(i).div_into_int(1_000_000);
            q.update_start(TaskId(i as u64 + 1), black_box(tag));
        }
    });
    let mut flip = false;
    let migrate_ns = best_ns_per_op(ops, || {
        flip = !flip;
        for k in 0..ops {
            let i = (k as usize * 104_729) % n;
            let to = if flip { phi(i + 1) } else { phi(i) };
            black_box(q.set_phi(TaskId(i as u64 + 1), to));
        }
    });
    let steps = (q.steps() - steps0) as f64 / (2 * ROUNDS as u64 * ops) as f64;
    vec![
        ("core.buckets.pick_ns", pick_ns),
        ("core.buckets.requeue_ns", requeue_ns),
        ("core.buckets.migrate_ns", migrate_ns),
        ("core.buckets.steps_per_op", steps),
    ]
}

/// `core.feasible` at the `churn` shape: `n` runnable tasks over three
/// light weight classes plus a few heavy ones on eight CPUs, one task
/// leaving and re-entering per update pair.
fn feasible(n: usize) -> Measured {
    let mut f = FeasibleWeights::new(8, true);
    let w = |i: usize| weight(if i < 5 { 1_000_000 } else { 1 << (i % 3) });
    let batch: Vec<_> = ids(n).enumerate().map(|(i, id)| (id, w(i))).collect();
    f.insert_many(&batch);
    let ops = (n as u64).clamp(1_000, 50_000);
    let steps0 = f.event_steps();
    let update_ns = best_ns_per_op(2 * ops, || {
        for k in 0..ops {
            let i = (k as usize * 7919) % n;
            let id = TaskId(i as u64 + 1);
            black_box(f.remove(id, w(i)));
            black_box(f.insert(id, w(i)));
        }
        black_box(f.take_changed());
    });
    let steps = (f.event_steps() - steps0) as f64 / (2 * ROUNDS as u64 * ops) as f64;
    vec![
        ("core.feasible.update_ns", update_ns),
        ("core.feasible.steps_per_update", steps),
    ]
}

/// `core.readjust`: the capped (hierarchical) routine over 64 groups and
/// the flat §2.1 routine over `n` descending weights, eight CPUs.
fn readjustment(n: usize) -> Measured {
    let groups: Vec<(u64, u32)> = (0..64u64)
        .map(|g| (if g < 3 { 10_000 } else { 1 + g % 7 }, 1 + (g % 8) as u32))
        .collect();
    let capped_ns = best_ns_per_op(2_000, || {
        for _ in 0..2_000 {
            black_box(readjust_capped(black_box(&groups), 8));
        }
    });
    let mut weights: Vec<u64> = (0..n as u64)
        .map(|i| if i < 5 { 1_000_000 } else { 1 << (i % 3) })
        .collect();
    weights.sort_unstable_by(|a, b| b.cmp(a));
    let flat_ns = best_ns_per_op(2_000, || {
        for _ in 0..2_000 {
            black_box(readjust(black_box(&weights), 8));
        }
    });
    vec![
        ("core.readjust.capped_ns", capped_ns),
        ("core.readjust.flat_ns", flat_ns),
    ]
}

/// `core.queues` at the `baselines` shape: an `n`-node ascending
/// `IndexedList` (the start-tag queue of SFQ/WFQ/stride/BVT) and the
/// `KeyCounter` WFQ and BVT keep beside it.
fn queues(n: usize) -> Measured {
    let mut rng = SplitMix64::new(0x5EED);
    let mut list = IndexedList::new(Order::Ascending);
    let mut refs: Vec<NodeRef> = ids(n)
        .map(|id| list.insert(Fixed::from_int(rng.below(1 << 20) as i64), id))
        .collect();
    let ops = (n as u64).max(1_000);
    let steps0 = list.steps();
    let update_key_ns = best_ns_per_op(ops, || {
        for k in 0..ops {
            let r = refs[(k as usize * 7919) % n];
            let key = list.key(r) + Fixed::from_int(1 + rng.below(1 << 10) as i64);
            list.update_key(r, black_box(key));
        }
    });
    // Remove and re-insert, timed apart: collect the two halves of each
    // round separately.
    let (mut remove_best, mut insert_best) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        for &r in &refs {
            list.remove(r);
        }
        remove_best = remove_best.min(t0.elapsed().as_nanos() as f64);
        let t1 = Instant::now();
        refs = ids(n)
            .map(|id| list.insert(Fixed::from_int(rng.below(1 << 20) as i64), id))
            .collect();
        insert_best = insert_best.min(t1.elapsed().as_nanos() as f64);
    }
    let total_ops = ROUNDS as u64 * (ops + 2 * n as u64);
    let steps = (list.steps() - steps0) as f64 / total_ops as f64;

    let mut counter = KeyCounter::new();
    let mut keys: Vec<Fixed> = (0..n)
        .map(|_| Fixed::from_int(rng.below(1 << 12) as i64))
        .collect();
    for &k in &keys {
        counter.insert(k);
    }
    let keycounter_update_ns = best_ns_per_op(ops, || {
        for k in 0..ops {
            let i = (k as usize * 7919) % n;
            let new = keys[i] + Fixed::from_int(1 + rng.below(64) as i64);
            counter.update(keys[i], new);
            keys[i] = new;
        }
        black_box(counter.min());
    });
    vec![
        ("core.queues.insert_ns", insert_best / n as f64),
        ("core.queues.update_key_ns", update_key_ns),
        ("core.queues.remove_ns", remove_best / n as f64),
        ("core.queues.steps_per_op", steps),
        ("core.queues.keycounter_update_ns", keycounter_update_ns),
    ]
}

/// `core.admit`: one admit + release against `serve`'s policy, four
/// tenants, simulated time advancing a microsecond per arrival.
fn admit() -> Measured {
    let policy = AdmissionPolicy::none().with_max_live(512).with_rate(2_400);
    let mut ctrl = AdmissionControl::new(policy);
    let mut now = 0u64;
    let ops = 200_000u64;
    let ns = best_ns_per_op(ops, || {
        for k in 0..ops {
            now += 1_000;
            let tenant = Some(TenantId((k % 4) as u32));
            if black_box(ctrl.admit(tenant, Time(now), 16)).is_ok() {
                ctrl.release(tenant);
            }
        }
    });
    vec![("core.admit.try_admit_ns", ns)]
}

/// `core.gms`: one `advance` over 64 runnable tasks on four CPUs.
fn gms() -> Measured {
    let mut g = FluidGms::new(4);
    for (i, id) in ids(64).enumerate() {
        g.add(id, weight(1 + (i % 5) as u64), true);
    }
    let ops = 2_000u64;
    let ns = best_ns_per_op(ops, || {
        for _ in 0..ops {
            g.advance(black_box(Duration::from_millis(1)));
        }
    });
    vec![("core.gms.advance_ns", ns)]
}

/// `core.policy`: parse `serve`'s spec and build it for four CPUs.
fn policy() -> Measured {
    let text = "sfs:groups(frontend*4=sfs:quantum=5ms,api*2=sfs:quantum=5ms,\
                batch=sfq:quantum=5ms,rogue=sfs:quantum=5ms),shards=2,\
                admit(max=512,rate=2400/s)";
    let ops = 2_000u64;
    let ns = best_ns_per_op(ops, || {
        for _ in 0..ops {
            let spec: PolicySpec = black_box(text).parse().expect("serve policy parses");
            black_box(spec.build(4));
        }
    });
    vec![("core.policy.parse_build_us", ns / 1e3)]
}

/// `sim.wheel`: `n` pending events pushed at engine-like deltas (quantum
/// timers, think-time wakes, far samples), then popped in order.
fn wheel(n: usize) -> Measured {
    let mut rng = SplitMix64::new(0x11EE1);
    let deltas: Vec<u64> = (0..n)
        .map(|i| match i % 8 {
            0 => 100_000_000 + rng.below(50_000_000),
            1 => 2_000_000_000,
            _ => 200_000 + rng.below(20_000_000),
        })
        .collect();
    let (mut push_best, mut pop_best) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..ROUNDS {
        let mut w: TimingWheel<u32> = TimingWheel::new();
        let t0 = Instant::now();
        for (i, &d) in deltas.iter().enumerate() {
            w.push(d, i as u64, i as u32);
        }
        push_best = push_best.min(t0.elapsed().as_nanos() as f64);
        let t1 = Instant::now();
        while let Some(e) = w.pop() {
            black_box(e);
        }
        pop_best = pop_best.min(t1.elapsed().as_nanos() as f64);
    }
    vec![
        ("sim.wheel.push_ns", push_best / n as f64),
        ("sim.wheel.pop_ns", pop_best / n as f64),
    ]
}

/// A recorded run to feed the codecs: a few dozen tasks blocking and
/// waking for `secs` simulated seconds on two CPUs.
fn sample_capture(secs: u64) -> Capture {
    let cfg = SimConfig {
        cpus: 2,
        duration: Duration::from_secs(secs),
        sample_every: Duration::from_millis(250),
        ..SimConfig::default()
    };
    let scenario = Scenario::new("codec-sample", cfg)
        .task(TaskSpec::new("spin", 2, BehaviorSpec::Inf).replicated(4))
        .task(
            TaskSpec::new(
                "io",
                1,
                BehaviorSpec::Interact {
                    think: Duration::from_millis(5),
                    burst: Duration::from_millis(1),
                },
            )
            .replicated(24),
        );
    let (_report, capture) = Experiment::new(scenario)
        .capture("sfs:quantum=2ms")
        .expect("codec sample records");
    capture
}

/// `trace.json`, `trace.perfetto` and `experiment.capture`: encode and
/// parse throughput over one recorded run.
fn codecs(secs: u64) -> Measured {
    let capture = sample_capture(secs);
    let trace: &EventTrace = &capture.trace;
    let text = trace.to_json().to_string();
    let encode_ns = best_ns_per_op(1, || {
        black_box(trace.to_json().to_string());
    });
    let parse_ns = best_ns_per_op(1, || {
        let v = Json::parse(black_box(&text)).expect("own output parses");
        black_box(EventTrace::from_json(&v).expect("own output decodes"));
    });
    let proto = perfetto::encode(trace);
    let perfetto_ns = best_ns_per_op(1, || {
        black_box(perfetto::encode(black_box(trace)));
    });
    let cap_text = capture.to_json().to_string();
    let roundtrip_ns = best_ns_per_op(1, || {
        let text = capture.to_json().to_string();
        let v = Json::parse(&text).expect("own output parses");
        black_box(Capture::from_json(&v).expect("own output decodes"));
    });
    vec![
        ("trace.json.encode_mb_s", mb_per_s(text.len(), encode_ns)),
        ("trace.json.parse_mb_s", mb_per_s(text.len(), parse_ns)),
        (
            "trace.perfetto.encode_mb_s",
            mb_per_s(proto.len(), perfetto_ns),
        ),
        (
            "experiment.capture.roundtrip_mb_s",
            mb_per_s(cap_text.len(), roundtrip_ns),
        ),
    ]
}

/// `metrics.fairness` at the `serve` shape: share error and Jain index
/// over `n` per-task services on four CPUs.
fn fairness_metrics(n: usize) -> Measured {
    let mut rng = SplitMix64::new(0xFA1);
    let weights: Vec<f64> = (0..n).map(|i| (1 + i % 4) as f64).collect();
    let services: Vec<f64> = weights
        .iter()
        .map(|w| w * (0.9 + 0.2 * rng.unit()))
        .collect();
    let ns = best_ns_per_op(n as u64, || {
        let err = fairness::proportional_error(black_box(&services), &weights, 4);
        let ideal = fairness::ideal_shares(&weights, 4);
        let total: f64 = services.iter().sum();
        let ratios: Vec<f64> = services
            .iter()
            .zip(&ideal)
            .map(|(s, i)| s / total / i)
            .collect();
        black_box((err, fairness::jain_index(&ratios)));
    });
    vec![("metrics.fairness.ns_per_task", ns)]
}

/// `rt.executor.checkpoint_ns` (the no-op preemption point) and
/// `core.sched.set_weight_ns` (no workload reweights, so the entry point
/// is driven here, at the `steady` shape).
fn entry_points(n: usize, iters: u64) -> Measured {
    // `sfs_rt::checkpoint_cost` rounds to whole nanoseconds per call,
    // which is the size of the thing measured; time the loop here.
    let sfs: PolicySpec = "sfs:quantum=5ms".parse().expect("policy parses");
    let ex = Executor::new(
        RtConfig {
            cpus: 1,
            timer_interval: Duration::from_millis(50),
        },
        sfs.build(1),
    );
    let (tx, rx) = std::sync::mpsc::channel();
    let probe = ex.spawn("probe", weight(1), move |ctx| {
        let ns = best_ns_per_op(iters, || {
            for _ in 0..iters {
                ctx.checkpoint();
            }
        });
        let _ = tx.send(ns);
    });
    ex.wait();
    probe.join();
    let checkpoint = rx.recv().expect("probe reports before exiting");
    drop(ex);

    let mut sched = PolicySpec::sfs().build(4);
    let batch: Vec<_> = ids(n)
        .enumerate()
        .map(|(i, id)| (id, weight(1 + (i % 10) as u64), None))
        .collect();
    sched.attach_batch(&batch, Time::ZERO);
    let ops = (n as u64).clamp(1_000, 20_000);
    let mut flip = 0u64;
    let set_weight_ns = best_ns_per_op(ops, || {
        flip += 1;
        for k in 0..ops {
            let i = (k as usize * 7919) % n;
            let w = weight(1 + (i as u64 + flip) % 10);
            sched.set_weight(TaskId(i as u64 + 1), black_box(w), Time::ZERO);
        }
    });
    vec![
        ("rt.executor.checkpoint_ns", checkpoint),
        ("core.sched.set_weight_ns", set_weight_ns),
    ]
}

/// Runs every component drive at `scale`.
pub fn run_all(scale: Scale) -> Measured {
    let (steady_n, churn_n, base_n, serve_n, codec_secs, ckpt) = match scale {
        Scale::Full => (20_000, 100_000, 5_000, 50_000, 4, 2_000_000),
        Scale::Tiny => (400, 2_000, 600, 1_000, 1, 20_000),
    };
    let mut out = Measured::new();
    out.extend(buckets(steady_n));
    out.extend(feasible(churn_n));
    out.extend(readjustment(churn_n));
    out.extend(queues(base_n));
    out.extend(admit());
    out.extend(gms());
    out.extend(policy());
    out.extend(wheel(churn_n));
    out.extend(codecs(codec_secs));
    out.extend(fairness_metrics(serve_n));
    out.extend(entry_points(steady_n, ckpt));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_drive_reports_finite_positive_values() {
        let out = run_all(Scale::Tiny);
        assert!(out.len() >= 25, "only {} drive metrics", out.len());
        for (name, v) in &out {
            assert!(v.is_finite() && *v > 0.0, "{name} = {v}");
        }
        let mut names: Vec<_> = out.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), out.len(), "duplicate drive metric");
    }
}
