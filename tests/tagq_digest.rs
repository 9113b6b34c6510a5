//! Behaviour pin for the four tag-queue policies.
//!
//! A seeded multi-CPU script (attach, pick, yield/preempt with variable
//! `ran`, block, wake, reweight, detach, exit, periodic drains to an
//! idle machine; BVT with warped tasks) runs through SFQ, WFQ, stride
//! and BVT with readjustment off and on. Each configuration has two
//! pins, asserted separately:
//!
//! * the **decision digest**: every pick folded into 64 bits together
//!   with the picked task's `adjusted_weight_of` and the policy's
//!   `virtual_time`, every `wake_preempts` verdict at a wakeup, and the
//!   final `picks`, `events`, `readjust_calls` and `weights_clamped`.
//!   The script and these observations are those recorded from the four
//!   hand-written implementations that preceded the shared tag-queue
//!   core. A different digest means a different decision or tag. Do not
//!   regenerate one to make a change pass.
//! * `event_steps`, summed over the seeds: the cost-model counter. It
//!   moves whenever the run queue's structure or its step accounting
//!   does and never changes what runs, so a change to either may
//!   re-record it, and only it, saying so.
//!
//! The same script, with every duration scaled, is also the time-scale
//! oracle at the end of this file.

use sfs_core::prelude::*;

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn fixed(&mut self, f: Option<Fixed>) {
        match f {
            None => self.word(0),
            Some(f) => {
                let raw = f.raw();
                self.word(1);
                self.word(raw as u64);
                self.word((raw >> 64) as u64);
            }
        }
    }
}

/// xorshift64*, so the script does not depend on any crate's stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const CPUS: usize = 3;
const QUANTUM: Duration = Duration::from_millis(10);
const STEPS: usize = 6000;

/// The script's shape: the machine size, a factor every duration is
/// multiplied by, and the weights arrivals and reweights draw from.
#[derive(Clone, Copy)]
struct Script {
    cpus: usize,
    scale: u64,
    weights: [u64; 8],
}

/// The shape the pins were recorded with. The weights are skewed so
/// assignments are often infeasible on three CPUs.
const PINNED: Script = Script {
    cpus: CPUS,
    scale: 1,
    weights: [1, 1, 2, 3, 5, 8, 40, 200],
};

/// Drives one seeded script through `s`, folding every decision into
/// `d` and appending every `(cpu, picked id)` to `picks`, and returns
/// the run's `event_steps`. `on_attach` runs after each attach (BVT
/// grants warps). Tasks alternate between tenants 0 and 1, which only
/// a hierarchy reads.
fn drive<S: Scheduler + ?Sized>(
    s: &mut S,
    script: Script,
    seed: u64,
    d: &mut Digest,
    picks: &mut Vec<(usize, u64)>,
    on_attach: &dyn Fn(&mut S, TaskId),
) -> u64 {
    let Script {
        cpus,
        scale,
        weights,
    } = script;
    let quantum = QUANTUM * scale;
    let micros = |us: usize| Duration::from_micros(us as u64 * scale);
    let mut rng = Rng(seed | 1);
    let mut now = Time::ZERO;
    let mut next_id = 0u64;
    let mut running: Vec<Option<TaskId>> = vec![None; cpus];
    let mut ready_or_running: Vec<TaskId> = Vec::new();
    let mut blocked: Vec<TaskId> = Vec::new();

    for step in 0..STEPS {
        now += micros(100 + rng.below(900));
        // Every 1500 steps the script drains the machine to idle (only
        // blocks and picks), so the idle-floor rule is exercised.
        let draining = step % 1500 >= 1350;
        let op = if draining {
            2 + rng.below(2)
        } else {
            rng.below(16)
        };
        match op {
            // Arrival.
            0 | 1 if ready_or_running.len() + blocked.len() < 40 => {
                let id = TaskId(next_id);
                next_id += 1;
                let w = weight(weights[rng.below(weights.len())]);
                s.attach_tenant(id, w, Some(TenantId(id.0 as u32 % 2)), now);
                on_attach(s, id);
                ready_or_running.push(id);
            }
            // Dispatch on every idle processor.
            2 | 4 | 5 => {
                for (cpu, slot) in running.iter_mut().enumerate() {
                    if slot.is_some() {
                        continue;
                    }
                    let picked = s.pick_next(CpuId(cpu as u32), now);
                    let picked_word = picked.map_or(u64::MAX, |id| id.0);
                    picks.push((cpu, picked_word));
                    d.word(cpu as u64);
                    d.word(picked_word);
                    if let Some(id) = picked {
                        d.fixed(s.adjusted_weight_of(id));
                    }
                    d.fixed(s.virtual_time());
                    *slot = picked;
                }
            }
            // A running task stops: requeue, block or exit.
            3 | 6..=9 => {
                let cpu = rng.below(cpus);
                let Some(id) = running[cpu].take() else {
                    continue;
                };
                let ran = match rng.below(4) {
                    0 => quantum,
                    1 => Duration::ZERO,
                    _ => micros(rng.below(10_000)),
                };
                let reason = if draining {
                    SwitchReason::Blocked
                } else {
                    match rng.below(10) {
                        0..=4 => SwitchReason::Preempted,
                        5 | 6 => SwitchReason::Yielded,
                        7 | 8 => SwitchReason::Blocked,
                        _ => SwitchReason::Exited,
                    }
                };
                s.put_prev(id, ran, reason, now);
                match reason {
                    SwitchReason::Preempted | SwitchReason::Yielded => {}
                    SwitchReason::Blocked => {
                        ready_or_running.retain(|&t| t != id);
                        blocked.push(id);
                    }
                    SwitchReason::Exited => ready_or_running.retain(|&t| t != id),
                }
            }
            // Wakeup, with the preemption verdict against each runner.
            10 | 11 if !blocked.is_empty() => {
                let id = blocked.swap_remove(rng.below(blocked.len()));
                s.wake(id, now);
                ready_or_running.push(id);
                for (cpu, slot) in running.iter().enumerate() {
                    if let Some(r) = *slot {
                        let ran = micros(rng.below(10_000));
                        d.word(cpu as u64);
                        d.word(u64::from(s.wake_preempts(id, r, ran, now)));
                    }
                }
            }
            // Reweight any attached task (ready, running or blocked).
            12 | 13 => {
                let n = ready_or_running.len() + blocked.len();
                if n == 0 {
                    continue;
                }
                let k = rng.below(n);
                let id = if k < ready_or_running.len() {
                    ready_or_running[k]
                } else {
                    blocked[k - ready_or_running.len()]
                };
                s.set_weight(id, weight(weights[rng.below(weights.len())]), now);
            }
            // Kill a task that is not on a processor.
            14 => {
                let victims: Vec<TaskId> = ready_or_running
                    .iter()
                    .chain(blocked.iter())
                    .copied()
                    .filter(|id| !running.contains(&Some(*id)))
                    .collect();
                if victims.is_empty() {
                    continue;
                }
                let id = victims[rng.below(victims.len())];
                s.detach(id, now);
                ready_or_running.retain(|&t| t != id);
                blocked.retain(|&t| t != id);
            }
            _ => {}
        }
        s.check_invariants();
        assert_eq!(s.nr_runnable(), ready_or_running.len());
        assert_eq!(s.nr_tasks(), ready_or_running.len() + blocked.len());
    }

    let st = s.stats();
    for w in [st.picks, st.events, st.readjust_calls, st.weights_clamped] {
        d.word(w);
    }
    st.event_steps
}

/// Three seeds per configuration: the decisions folded into one digest,
/// the `event_steps` summed.
fn digest<S: Scheduler>(make: impl Fn() -> S, on_attach: &dyn Fn(&mut S, TaskId)) -> (u64, u64) {
    let mut d = Digest::new();
    let mut steps = 0;
    for seed in [0x5f5_2000, 0x0dd_ba11, 0xc0ff_ee00] {
        let mut s = make();
        steps += drive(&mut s, PINNED, seed, &mut d, &mut Vec::new(), on_attach);
    }
    (d.0, steps)
}

fn no_warp<S: ?Sized>(_: &mut S, _: TaskId) {}

/// Every third BVT task is latency-sensitive.
fn warp_thirds(s: &mut Bvt, id: TaskId) {
    if id.0.is_multiple_of(3) {
        s.set_warp(id, Fixed::from_int(2_000_000 * (1 + id.0 as i64 % 4)));
    }
}

fn cfg(readjust: bool) -> TagConfig {
    TagConfig {
        quantum: QUANTUM,
        readjust,
    }
}

fn sfq(readjust: bool) -> Sfq {
    Sfq::with_config(CPUS as u32, cfg(readjust))
}

fn wfq(readjust: bool) -> Wfq {
    Wfq::with_config(CPUS as u32, cfg(readjust))
}

fn stride(readjust: bool) -> Stride {
    Stride::with_config(CPUS as u32, cfg(readjust))
}

fn bvt(readjust: bool) -> Bvt {
    Bvt::with_config(CPUS as u32, cfg(readjust))
}

/// Asserts one configuration against its two pins: the decision
/// digest, then the `event_steps` total.
fn pin((got_digest, got_steps): (u64, u64), decisions: u64, event_steps: u64) {
    assert_eq!(
        got_digest, decisions,
        "a decision, tag or verdict changed: {got_digest:#018x}"
    );
    assert_eq!(got_steps, event_steps, "only the step counter moved");
}

#[test]
fn sfq_digest() {
    pin(
        digest(|| sfq(false), &no_warp),
        0xb37f_9152_7b0c_714e,
        89_378,
    );
    pin(
        digest(|| sfq(true), &no_warp),
        0x9c97_7f0b_4055_ba62,
        117_229,
    );
}

#[test]
fn wfq_digest() {
    pin(
        digest(|| wfq(false), &no_warp),
        0x1a1e_bc27_94f0_c724,
        128_430,
    );
    pin(
        digest(|| wfq(true), &no_warp),
        0xda0b_4121_309b_483c,
        158_682,
    );
}

#[test]
fn stride_digest() {
    pin(
        digest(|| stride(false), &no_warp),
        0x7ab7_7a5d_50a2_802d,
        89_401,
    );
    pin(
        digest(|| stride(true), &no_warp),
        0xc68e_7346_5d45_cb99,
        117_766,
    );
}

#[test]
fn bvt_digest() {
    pin(
        digest(|| bvt(false), &warp_thirds),
        0xc80e_827d_c500_af26,
        138_484,
    );
    pin(
        digest(|| bvt(true), &warp_thirds),
        0xc9e1_9c03_347f_8f7b,
        165_972,
    );
}

/// ROADMAP item 6's time-scale relation, and the check that tags need
/// no §3.2 renormalisation: multiplying every duration by 10⁸ changes no
/// pick, and leaves sfq, sfs and the hierarchy with a virtual time past
/// the old 10¹⁴ shift threshold. The scaling is exact only while every
/// `φ` divides `SCALE`: the weights below do, the tag policies run
/// without readjustment, and sfs and the hierarchy (which always
/// readjust) run on one CPU, where the §2.1 walk clamps nothing. Picks
/// only: SFS's preemption margin is a constant that does not scale.
#[test]
fn time_scale_invariance_past_the_old_threshold() {
    const K: u64 = 100_000_000;
    let old_threshold = Fixed::from_int(100_000_000_000_000);
    let run = |spec: &str, cpus: usize, scale: u64| {
        let script = Script {
            cpus,
            scale,
            weights: [1, 1, 2, 4, 5, 8, 40, 200],
        };
        let spec: PolicySpec = spec.parse().unwrap();
        // Group policies keep their default quanta: sfs and sfq only
        // report them as a time slice, which the script never reads.
        let spec = if spec.groups().is_empty() {
            spec.with_quantum(QUANTUM * scale)
        } else {
            spec
        };
        let mut s = spec.build(cpus as u32);
        let mut picks = Vec::new();
        drive(
            &mut *s,
            script,
            0x5f5_2000,
            &mut Digest::new(),
            &mut picks,
            &no_warp,
        );
        (picks, s.virtual_time())
    };
    for (spec, cpus, vt_checked) in [
        ("sfq", CPUS, true),
        ("wfq", CPUS, false),
        ("stride", CPUS, false),
        ("bvt", CPUS, false),
        ("sfs", 1, true),
        ("sfs:groups(a*2=sfs,b=sfq)", 1, true),
    ] {
        let (base, _) = run(spec, cpus, 1);
        let (scaled, v) = run(spec, cpus, K);
        assert!(
            base.iter().any(|&(_, id)| id != u64::MAX),
            "{spec}: nothing ran"
        );
        assert!(base == scaled, "{spec}: scaling time changed a pick");
        if vt_checked {
            let v = v.unwrap();
            assert!(v > old_threshold, "{spec}: v = {v} never passed 10¹⁴");
        }
    }
}
