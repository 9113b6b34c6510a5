//! Behaviour pin for hierarchical SFS (`sfs:groups(...)`).
//!
//! A seeded multi-CPU script (attach, pick, preempt and yield with
//! variable `ran`, block, wake, reweight, detach, exit, `attach_batch`,
//! `wake_batch`, periodic drains to an idle machine) runs through one
//! tenant hierarchy whose groups use the child policies `sfs`, `sfq` and
//! `rr`. One group's share is infeasible whenever it holds fewer than
//! `p` runnable members, and the script moves every group's runnable
//! count back and forth across `p`, so the capacity-aware group
//! readjustment both clamps and releases. The hierarchy runs unsharded
//! and as `shards=2`. Each configuration has two pins, asserted
//! separately:
//!
//! * the **decision digest**: every `(cpu, pick)`, the policy's
//!   `virtual_time` at each pick, every attached task's
//!   `adjusted_weight_of` after every step, and the final `picks` and
//!   `events`. A different digest means a different decision, tag or
//!   weight. Do not regenerate one to make a change pass.
//! * `readjust_calls`, summed over the seeds: how many readjustment
//!   walks ran. A walk that changes no weight leaves the digest alone,
//!   so this pin moves, and only it, when a change runs or skips such a
//!   walk; such a change may re-record it, saying why.

use sfs::prelude::*;

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

const CPUS: usize = 4;
const STEPS: usize = 6000;
/// Tenants `a`..`d`. `d`'s share 40 of 46 is infeasible on four CPUs
/// until it holds four runnable members (40·4 > 3·46).
const GROUPS: &str = "a*2=sfs:quantum=10ms,b=sfq:quantum=10ms,c*3=rr,d*40=sfs:quantum=10ms";
const TENANTS: usize = 4;
const WEIGHTS: [u64; 8] = [1, 1, 2, 3, 5, 8, 40, 200];

/// Where the script keeps each task it has attached.
#[derive(Default)]
struct World {
    running: Vec<Option<TaskId>>,
    ready_or_running: Vec<TaskId>,
    blocked: Vec<TaskId>,
    next_id: u64,
}

impl World {
    fn attached(&self) -> usize {
        self.ready_or_running.len() + self.blocked.len()
    }

    /// A fresh arrival: its id, a drawn weight and a drawn tenant.
    fn arrival(&mut self, rng: &mut Rng) -> (TaskId, Weight, Option<TenantId>) {
        let id = TaskId(self.next_id);
        self.next_id += 1;
        let w = weight(WEIGHTS[rng.below(WEIGHTS.len())]);
        self.ready_or_running.push(id);
        (id, w, Some(TenantId(rng.below(TENANTS) as u32)))
    }

    /// Takes a random blocked task out of the blocked list.
    fn wakee(&mut self, rng: &mut Rng) -> TaskId {
        let id = self.blocked.swap_remove(rng.below(self.blocked.len()));
        self.ready_or_running.push(id);
        id
    }
}

/// Drives one seeded script through `s`, folding every decision into
/// `d`, and returns the run's `readjust_calls`.
fn drive(s: &mut dyn Scheduler, seed: u64, d: &mut Digest) -> u64 {
    let mut rng = Rng(seed | 1);
    let mut now = Time::ZERO;
    let mut w = World {
        running: vec![None; CPUS],
        ..World::default()
    };

    for step in 0..STEPS {
        now += Duration::from_micros(100 + rng.below(900) as u64);
        // Every 1500 steps the script drains the machine to idle (only
        // blocks and picks), so the idle-floor rule is exercised.
        let draining = step % 1500 >= 1350;
        let op = if draining {
            2 + rng.below(2)
        } else {
            rng.below(20)
        };
        match op {
            // One arrival.
            0 | 1 if w.attached() < 48 => {
                let (id, wt, tenant) = w.arrival(&mut rng);
                s.attach_tenant(id, wt, tenant, now);
            }
            // A batch of zero to four arrivals.
            15 if w.attached() < 44 => {
                let n = rng.below(5);
                let batch: Vec<_> = (0..n).map(|_| w.arrival(&mut rng)).collect();
                s.attach_batch(&batch, now);
            }
            // Dispatch on every idle processor.
            2 | 4 | 5 => {
                for (cpu, slot) in w.running.iter_mut().enumerate() {
                    if slot.is_some() {
                        continue;
                    }
                    let picked = s.pick_next(CpuId(cpu as u32), now);
                    d.word(cpu as u64);
                    d.word(picked.map_or(u64::MAX, |id| id.0));
                    d.fixed(s.virtual_time());
                    *slot = picked;
                }
            }
            // A running task stops: requeue, block or exit.
            3 | 6..=9 => {
                let cpu = rng.below(CPUS);
                let Some(id) = w.running[cpu].take() else {
                    continue;
                };
                let ran = match rng.below(4) {
                    0 => Duration::from_millis(10),
                    1 => Duration::ZERO,
                    _ => Duration::from_micros(rng.below(10_000) as u64),
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
                        w.ready_or_running.retain(|&t| t != id);
                        w.blocked.push(id);
                    }
                    SwitchReason::Exited => w.ready_or_running.retain(|&t| t != id),
                }
            }
            // One wakeup.
            10 | 11 if !w.blocked.is_empty() => {
                let id = w.wakee(&mut rng);
                s.wake(id, now);
            }
            // A batch of up to four wakeups.
            16 | 17 if !w.blocked.is_empty() => {
                let n = 1 + rng.below(w.blocked.len().min(4));
                let ids: Vec<TaskId> = (0..n).map(|_| w.wakee(&mut rng)).collect();
                s.wake_batch(&ids, now);
            }
            // Reweight any attached task (ready, running or blocked).
            12 | 13 => {
                let n = w.attached();
                if n == 0 {
                    continue;
                }
                let k = rng.below(n);
                let id = if k < w.ready_or_running.len() {
                    w.ready_or_running[k]
                } else {
                    w.blocked[k - w.ready_or_running.len()]
                };
                s.set_weight(id, weight(WEIGHTS[rng.below(WEIGHTS.len())]), now);
            }
            // Kill a task that is not on a processor.
            14 => {
                let victims: Vec<TaskId> = w
                    .ready_or_running
                    .iter()
                    .chain(w.blocked.iter())
                    .copied()
                    .filter(|id| !w.running.contains(&Some(*id)))
                    .collect();
                if victims.is_empty() {
                    continue;
                }
                let id = victims[rng.below(victims.len())];
                s.detach(id, now);
                w.ready_or_running.retain(|&t| t != id);
                w.blocked.retain(|&t| t != id);
            }
            _ => {}
        }
        s.check_invariants();
        assert_eq!(s.nr_runnable(), w.ready_or_running.len());
        assert_eq!(s.nr_tasks(), w.attached());
        for id in (0..w.next_id).map(TaskId) {
            d.fixed(s.adjusted_weight_of(id));
        }
    }

    let st = s.stats();
    d.word(st.picks);
    d.word(st.events);
    st.readjust_calls
}

/// Three seeds per configuration: the decisions folded into one digest,
/// the `readjust_calls` summed.
fn digest(spec: &str) -> (u64, u64) {
    let spec: PolicySpec = spec.parse().unwrap();
    let mut d = Digest::new();
    let mut walks = 0;
    for seed in [0x5f5_2000, 0x0dd_ba11, 0xc0ff_ee00] {
        let mut s = spec.build(CPUS as u32);
        walks += drive(&mut *s, seed, &mut d);
    }
    (d.0, walks)
}

/// Asserts one configuration against its two pins: the decision
/// digest, then the `readjust_calls` total.
fn pin((got_digest, got_walks): (u64, u64), decisions: u64, readjust_calls: u64) {
    assert_eq!(
        got_digest, decisions,
        "a decision, tag or weight changed: {got_digest:#018x}"
    );
    assert_eq!(got_walks, readjust_calls, "only the walk count moved");
}

#[test]
fn hier_digest() {
    pin(
        digest(&format!("sfs:groups({GROUPS})")),
        0x625b_1aa4_bd63_553f,
        3_764,
    );
}

#[test]
fn sharded_hier_digest() {
    pin(
        digest(&format!("sfs:groups({GROUPS}),shards=2")),
        0x24bf_d64a_4b97_83e3,
        3_014,
    );
}
