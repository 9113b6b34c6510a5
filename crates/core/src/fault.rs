//! Deterministic fault injection plans.
//!
//! A [`FaultPlan`] is a seeded, fully explicit script of faults —
//! task panics, CPU stalls and slowdowns, timer jitter, dropped wakes
//! — that a substrate injects at fixed instants. Because the plan is
//! plain data (no RNG state at injection time, no wall clock), a chaos
//! run is exactly reproducible: the same plan against the same
//! scenario yields the same event sequence, so recovery behavior can
//! be captured and replayed through `sfs-trace` like any other run.
//!
//! Plans travel inside a `Scenario`, serialize through the capture
//! format via the `Display`/`FromStr` round-trip, and can be generated
//! pseudo-randomly from a seed with [`FaultPlan::generate`] (an
//! inlined splitmix64 — the vendored-deps policy rules out `rand`).
//!
//! The textual form is `seed=S;fault;fault;...` with each fault
//! `kind@time` plus `key=value` operands:
//!
//! ```text
//! seed=42;panic@500ms,task=3;stall@1s,cpu=0,dur=20ms;jitter@2s,cpu=1,dur=5ms
//! ```
//!
//! `task=` identifies a task by *arrival order* (0-based spawn index),
//! which both substrates assign identically, so one plan means the
//! same thing in sim and rt.

use core::fmt;
use std::str::FromStr;

use crate::time::{Duration, Literal, Time};

/// What goes wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The task with this 0-based spawn index panics mid-run. The
    /// substrate must reap it: release its weight, clean scheduler
    /// state, and re-check invariants.
    Panic {
        /// 0-based spawn (arrival-order) index of the victim.
        task: u64,
    },
    /// The CPU executes nothing for `dur` (a hard stall: the running
    /// task makes no progress and consumes no checkpoints), modelling
    /// an SMI, a page-fault storm, or a preempted vCPU.
    Stall {
        /// Which CPU stalls.
        cpu: u32,
        /// How long it stalls.
        dur: Duration,
    },
    /// The CPU's next timer tick fires `dur` late, modelling timer
    /// coalescing or interrupt jitter; the running task keeps
    /// executing (and over-runs its quantum by up to `dur`).
    Jitter {
        /// Which CPU's timer jitters.
        cpu: u32,
        /// How late the tick fires.
        dur: Duration,
    },
    /// The next wake-up of the task with this spawn index is delivered
    /// `dur` late, modelling a dropped-then-retried shard mailbox
    /// message. Sim-only: the rt substrate has no lossy mailbox to
    /// model, so it ignores these.
    WakeDrop {
        /// 0-based spawn index of the task whose wake is delayed.
        task: u64,
        /// Extra delay before the wake is delivered.
        dur: Duration,
    },
}

impl FaultKind {
    /// The textual tag used by `Display`/`FromStr`.
    fn tag(&self) -> &'static str {
        match self {
            FaultKind::Panic { .. } => "panic",
            FaultKind::Stall { .. } => "stall",
            FaultKind::Jitter { .. } => "jitter",
            FaultKind::WakeDrop { .. } => "wakedrop",
        }
    }
}

/// One scheduled fault: a [`FaultKind`] at an instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultEvent {
    /// When the fault fires (experiment time).
    pub at: Time,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic, serializable script of faults; see the
/// [module docs](self) for the format and semantics.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct FaultPlan {
    /// The seed the plan was generated from (0 for hand-written
    /// plans); carried so captures record provenance.
    pub seed: u64,
    /// The faults, in the order they were scheduled. Substrates sort
    /// by `at` when injecting; ties keep this order.
    pub faults: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds one fault.
    pub fn with(mut self, at: Time, kind: FaultKind) -> FaultPlan {
        self.faults.push(FaultEvent { at, kind });
        self
    }

    /// True if the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// The faults sorted by firing time (stable, so same-instant
    /// faults keep their scheduled order).
    pub fn sorted(&self) -> Vec<FaultEvent> {
        let mut v = self.faults.clone();
        v.sort_by_key(|f| f.at);
        v
    }

    /// Generates a pseudo-random plan: `count` faults drawn uniformly
    /// over `(0, horizon)`, targeting spawn indices `< tasks` and CPUs
    /// `< cpus`, with stall/jitter/delay durations of 1–20ms. Fully
    /// determined by `seed`.
    pub fn generate(seed: u64, horizon: Time, tasks: u64, cpus: u32, count: usize) -> FaultPlan {
        let mut rng = SplitMix64::new(seed);
        let mut plan = FaultPlan {
            seed,
            faults: Vec::with_capacity(count),
        };
        let tasks = tasks.max(1);
        let cpus = cpus.max(1);
        let span = horizon.as_nanos().max(2);
        for _ in 0..count {
            let at = Time(1 + rng.below(span - 1));
            let dur = Duration::from_micros(1_000 + rng.below(19_001));
            let kind = match rng.below(4) {
                0 => FaultKind::Panic {
                    task: rng.below(tasks),
                },
                1 => FaultKind::Stall {
                    cpu: rng.below(u64::from(cpus)) as u32,
                    dur,
                },
                2 => FaultKind::Jitter {
                    cpu: rng.below(u64::from(cpus)) as u32,
                    dur,
                },
                _ => FaultKind::WakeDrop {
                    task: rng.below(tasks),
                    dur,
                },
            };
            plan.faults.push(FaultEvent { at, kind });
        }
        plan
    }
}

/// splitmix64 (Steele, Lea, Flood 2014) — tiny, seedable, and good
/// enough for fault placement; inlined to honor the no-new-deps rule.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform-enough draw in `[0, n)`; modulo bias is irrelevant for
    /// fault placement.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn parse_dur(s: &str) -> Result<Duration, ParseFaultError> {
    Duration::parse_literal(s)
        .ok_or_else(|| ParseFaultError(format!("bad duration {s:?} (want e.g. 20ms, 1s, 500us)")))
}

/// Error from parsing a [`FaultPlan`]'s textual form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFaultError(pub String);

impl fmt::Display for ParseFaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault plan: {}", self.0)
    }
}

impl std::error::Error for ParseFaultError {}

impl fmt::Display for FaultPlan {
    /// `seed=S;kind@time,key=value,...;...` — exactly inverts
    /// [`FromStr`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={}", self.seed)?;
        for ev in &self.faults {
            write!(
                f,
                ";{}@{}",
                ev.kind.tag(),
                Literal(Duration(ev.at.as_nanos()))
            )?;
            match ev.kind {
                FaultKind::Panic { task } => write!(f, ",task={task}")?,
                FaultKind::Stall { cpu, dur } | FaultKind::Jitter { cpu, dur } => {
                    write!(f, ",cpu={cpu},dur={}", Literal(dur))?;
                }
                FaultKind::WakeDrop { task, dur } => {
                    write!(f, ",task={task},dur={}", Literal(dur))?;
                }
            }
        }
        Ok(())
    }
}

impl FromStr for FaultPlan {
    type Err = ParseFaultError;

    fn from_str(s: &str) -> Result<FaultPlan, ParseFaultError> {
        let err = |msg: String| ParseFaultError(msg);
        let mut parts = s.split(';');
        let head = parts.next().unwrap_or("").trim();
        let seed: u64 = head
            .strip_prefix("seed=")
            .ok_or_else(|| err(format!("expected seed=N first, got {head:?}")))?
            .parse()
            .map_err(|_| err(format!("bad seed in {head:?}")))?;
        let mut plan = FaultPlan {
            seed,
            faults: Vec::new(),
        };
        for part in parts {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let mut fields = part.split(',');
            let head = fields.next().unwrap_or("");
            let (tag, at) = head
                .split_once('@')
                .ok_or_else(|| err(format!("expected kind@time, got {head:?}")))?;
            let at = Time(parse_dur(at)?.as_nanos());
            let mut task: Option<u64> = None;
            let mut cpu: Option<u32> = None;
            let mut dur: Option<Duration> = None;
            for field in fields {
                let (k, v) = field
                    .split_once('=')
                    .ok_or_else(|| err(format!("expected key=value, got {field:?}")))?;
                match k {
                    "task" => {
                        task = Some(
                            v.parse()
                                .map_err(|_| err(format!("bad task index {v:?}")))?,
                        );
                    }
                    "cpu" => {
                        cpu = Some(v.parse().map_err(|_| err(format!("bad cpu {v:?}")))?);
                    }
                    "dur" => dur = Some(parse_dur(v)?),
                    other => return Err(err(format!("unknown operand {other:?} in {part:?}"))),
                }
            }
            let want = |x: Option<u64>, what: &str| {
                x.ok_or_else(|| err(format!("{tag} needs {what}= in {part:?}")))
            };
            let want_dur =
                |x: Option<Duration>| x.ok_or_else(|| err(format!("{tag} needs dur= in {part:?}")));
            let kind = match tag {
                "panic" => FaultKind::Panic {
                    task: want(task, "task")?,
                },
                "stall" => FaultKind::Stall {
                    cpu: want(cpu.map(u64::from), "cpu")? as u32,
                    dur: want_dur(dur)?,
                },
                "jitter" => FaultKind::Jitter {
                    cpu: want(cpu.map(u64::from), "cpu")? as u32,
                    dur: want_dur(dur)?,
                },
                "wakedrop" => FaultKind::WakeDrop {
                    task: want(task, "task")?,
                    dur: want_dur(dur)?,
                },
                other => return Err(err(format!("unknown fault kind {other:?}"))),
            };
            plan.faults.push(FaultEvent { at, kind });
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_parse_round_trip() {
        let plan = FaultPlan::new()
            .with(Time::from_millis(500), FaultKind::Panic { task: 3 })
            .with(
                Time::from_secs(1),
                FaultKind::Stall {
                    cpu: 0,
                    dur: Duration::from_millis(20),
                },
            )
            .with(
                Time::from_secs(2),
                FaultKind::Jitter {
                    cpu: 1,
                    dur: Duration::from_micros(1500),
                },
            )
            .with(
                Time(1_000_000_007),
                FaultKind::WakeDrop {
                    task: 7,
                    dur: Duration::from_millis(50),
                },
            );
        let text = plan.to_string();
        assert_eq!(
            text,
            "seed=0;panic@500ms,task=3;stall@1s,cpu=0,dur=20ms;\
             jitter@2s,cpu=1,dur=1500us;wakedrop@1000000007ns,task=7,dur=50ms"
        );
        assert_eq!(text.parse::<FaultPlan>().unwrap(), plan);
        // Zero reads back from either spelling and prints as `0s`.
        let zero: FaultPlan = "seed=1;stall@0ns,cpu=0,dur=0s".parse().unwrap();
        assert_eq!(zero.to_string(), "seed=1;stall@0s,cpu=0,dur=0s");
        assert_eq!(zero.to_string().parse::<FaultPlan>().unwrap(), zero);
    }

    #[test]
    fn generated_plans_are_deterministic_and_round_trip() {
        let a = FaultPlan::generate(42, Time::from_secs(2), 8, 4, 32);
        let b = FaultPlan::generate(42, Time::from_secs(2), 8, 4, 32);
        assert_eq!(a, b);
        assert_eq!(a.len(), 32);
        assert_eq!(a.seed, 42);
        assert_ne!(a, FaultPlan::generate(43, Time::from_secs(2), 8, 4, 32));
        for ev in &a.faults {
            assert!(ev.at > Time::ZERO && ev.at < Time::from_secs(2));
            match ev.kind {
                FaultKind::Panic { task } | FaultKind::WakeDrop { task, .. } => assert!(task < 8),
                FaultKind::Stall { cpu, .. } | FaultKind::Jitter { cpu, .. } => assert!(cpu < 4),
            }
        }
        let text = a.to_string();
        assert_eq!(text.parse::<FaultPlan>().unwrap(), a);
    }

    #[test]
    fn sorted_orders_by_time_stably() {
        let plan = FaultPlan::new()
            .with(Time::from_millis(2), FaultKind::Panic { task: 0 })
            .with(Time::from_millis(1), FaultKind::Panic { task: 1 })
            .with(Time::from_millis(2), FaultKind::Panic { task: 2 });
        let sorted = plan.sorted();
        assert_eq!(sorted[0].kind, FaultKind::Panic { task: 1 });
        assert_eq!(sorted[1].kind, FaultKind::Panic { task: 0 });
        assert_eq!(sorted[2].kind, FaultKind::Panic { task: 2 });
    }

    #[test]
    fn parse_rejects_malformed() {
        for s in [
            "",
            "panic@1ms,task=0",         // missing seed
            "seed=1;panic@1ms",         // missing task
            "seed=1;stall@1ms,cpu=0",   // missing dur
            "seed=1;stall@1ms,dur=2ms", // missing cpu
            "seed=1;frob@1ms,task=0",   // unknown kind
            "seed=1;panic@xyz,task=0",  // bad time
            "seed=1;panic@1ms,task=0,zap=1",
            "seed=1;stall@1ms,cpu=0,dur=18446744073709551616ns", // past u64
            "seed=1;panic@18446744073709551615us,task=0",        // past u64 once scaled
        ] {
            assert!(s.parse::<FaultPlan>().is_err(), "{s:?}");
        }
    }
}
