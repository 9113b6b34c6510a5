//! The paper's application models (§4.1).
//!
//! | Paper workload | Model here | Behaviour |
//! |---|---|---|
//! | *Inf* | [`SpinLoop::inf`] | compute-bound infinite loop |
//! | *dhrystone* | [`SpinLoop::dhrystone`] | compute-bound integer benchmark, loops/sec metric |
//! | *Interact* | [`Interact`] | think (sleep) → short burst, response-time metric |
//! | *mpeg_play* | [`MpegDecode`] | periodic frame decode at a target fps |
//! | *gcc* | [`CompileJob`] | long CPU bursts with short I/O gaps |
//! | *disksim* | [`SimJob`] | compute-heavy simulation with rare I/O |
//! | short tasks (Fig. 5) | [`FiniteLoop`] | fixed CPU demand, then exit |
//!
//! Randomised workloads draw from exponential distributions with a
//! seeded [xorshift-based] generator so every experiment is reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sfs_core::time::{Duration, Time};

use crate::behavior::{Behavior, Phase};

/// Samples an exponential distribution with the given mean via inverse
/// transform; clamped away from zero so phases always make progress.
fn exp_sample(rng: &mut StdRng, mean: Duration) -> Duration {
    let u: f64 = rng.gen_range(1e-12..1.0);
    let ns = -(mean.as_nanos() as f64) * u.ln();
    Duration::from_nanos(ns.max(1.0) as u64)
}

/// A compute-bound loop: the paper's *Inf* application and the
/// *dhrystone* benchmark (which differs only in what one "iteration"
/// means for reporting).
#[derive(Debug, Clone)]
pub struct SpinLoop {
    chunk: Duration,
    iter_cost: Duration,
    label: &'static str,
}

impl SpinLoop {
    /// *Inf*: performs computations in an infinite loop. One iteration
    /// is modelled as 1 µs of CPU work.
    pub fn inf() -> SpinLoop {
        SpinLoop {
            chunk: Duration::from_secs(3600),
            iter_cost: Duration::from_micros(1),
            label: "inf",
        }
    }

    /// *dhrystone*: same structure; one dhrystone loop is modelled as
    /// 2 µs of CPU work (≈ a 2000-era Pentium III).
    pub fn dhrystone() -> SpinLoop {
        SpinLoop {
            chunk: Duration::from_secs(3600),
            iter_cost: Duration::from_micros(2),
            label: "dhrystone",
        }
    }
}

impl Behavior for SpinLoop {
    fn next(&mut self, _now: Time) -> Phase {
        Phase::Compute(self.chunk)
    }

    fn kind(&self) -> &'static str {
        self.label
    }

    fn iteration_cost(&self) -> Option<Duration> {
        Some(self.iter_cost)
    }
}

/// A compute-bound task with a fixed total demand that then exits: the
/// short-lived tasks of Example 2 / Fig. 5.
#[derive(Debug, Clone)]
pub struct FiniteLoop {
    remaining: Duration,
    iter_cost: Duration,
}

impl FiniteLoop {
    /// A task that needs `total` CPU service and then exits.
    pub fn new(total: Duration) -> FiniteLoop {
        FiniteLoop {
            remaining: total,
            iter_cost: Duration::from_micros(1),
        }
    }
}

impl Behavior for FiniteLoop {
    fn next(&mut self, _now: Time) -> Phase {
        if self.remaining.is_zero() {
            Phase::Exit
        } else {
            let d = self.remaining;
            self.remaining = Duration::ZERO;
            Phase::Compute(d)
        }
    }

    fn kind(&self) -> &'static str {
        "short"
    }

    fn iteration_cost(&self) -> Option<Duration> {
        Some(self.iter_cost)
    }
}

/// The I/O-bound interactive application *Interact*: sleep (user think
/// time), then handle the "request" with a short CPU burst. The
/// substrates record the time from wakeup to burst completion as the
/// response time (Fig. 6c).
#[derive(Debug)]
pub struct Interact {
    rng: StdRng,
    think: Duration,
    burst: Duration,
    started: bool,
}

impl Interact {
    /// Creates an interactive task with mean think time and mean burst.
    pub fn new(think: Duration, burst: Duration, seed: u64) -> Interact {
        Interact {
            rng: StdRng::seed_from_u64(seed),
            think,
            burst,
            started: false,
        }
    }
}

impl Behavior for Interact {
    fn next(&mut self, _now: Time) -> Phase {
        self.started = !self.started;
        if self.started {
            Phase::Block(exp_sample(&mut self.rng, self.think))
        } else {
            Phase::Compute(exp_sample(&mut self.rng, self.burst))
        }
    }

    fn kind(&self) -> &'static str {
        "interact"
    }
}

/// The Berkeley software MPEG-1 decoder model: decode one frame
/// (`frame_cost` of CPU), display it at the frame period, block until
/// the next period if ahead of schedule, decode continuously when
/// behind. Achieved frame rate = completed `Compute` phases per second.
#[derive(Debug, Clone)]
pub struct MpegDecode {
    frame_cost: Duration,
    period: Duration,
    next_deadline: Time,
    primed: bool,
    sleeping: bool,
}

impl MpegDecode {
    /// A decoder targeting `fps` frames/sec, each frame costing
    /// `frame_cost` of CPU service.
    pub fn new(fps: u64, frame_cost: Duration) -> MpegDecode {
        assert!(fps > 0, "fps must be positive");
        MpegDecode {
            frame_cost,
            period: Duration::from_nanos(1_000_000_000 / fps),
            next_deadline: Time::ZERO,
            primed: false,
            sleeping: false,
        }
    }
}

impl Behavior for MpegDecode {
    fn next(&mut self, now: Time) -> Phase {
        if !self.primed {
            // First call: set the display clock and decode frame 1.
            self.primed = true;
            self.next_deadline = now + self.period;
            return Phase::Compute(self.frame_cost);
        }
        if self.sleeping {
            // Woke at the display deadline: decode the next frame.
            self.sleeping = false;
            return Phase::Compute(self.frame_cost);
        }
        // A frame just finished decoding.
        if now < self.next_deadline {
            let deadline = self.next_deadline;
            self.next_deadline = deadline + self.period;
            self.sleeping = true;
            Phase::BlockUntil(deadline)
        } else {
            // Behind schedule: decode the next frame immediately and
            // re-anchor the display clock (frames are dropped, not
            // batched, so no catch-up burst follows).
            self.next_deadline = now + self.period;
            Phase::Compute(self.frame_cost)
        }
    }

    fn kind(&self) -> &'static str {
        "mpeg"
    }

    fn iteration_cost(&self) -> Option<Duration> {
        Some(self.frame_cost)
    }
}

/// A *gcc* compile job: long CPU bursts separated by short I/O blocks
/// (reading sources, writing objects). Restarted continuously, it is
/// the background load of Fig. 6(b).
#[derive(Debug)]
pub struct CompileJob {
    rng: StdRng,
    burst: Duration,
    io: Duration,
    computing: bool,
}

impl CompileJob {
    /// Creates a compile job with mean burst and mean I/O pause.
    pub fn new(burst: Duration, io: Duration, seed: u64) -> CompileJob {
        CompileJob {
            rng: StdRng::seed_from_u64(seed),
            burst,
            io,
            computing: false,
        }
    }
}

impl Behavior for CompileJob {
    fn next(&mut self, _now: Time) -> Phase {
        self.computing = !self.computing;
        if self.computing {
            Phase::Compute(exp_sample(&mut self.rng, self.burst))
        } else {
            Phase::Block(exp_sample(&mut self.rng, self.io))
        }
    }

    fn kind(&self) -> &'static str {
        "gcc"
    }
}

/// A *disksim* process: a compute-intensive simulation with rare, very
/// short blocking events (trace reads). Background load of Fig. 6(c).
#[derive(Debug)]
pub struct SimJob {
    rng: StdRng,
    burst: Duration,
    io: Duration,
    computing: bool,
}

impl SimJob {
    /// Creates a simulation job with mean burst and mean I/O pause.
    pub fn new(burst: Duration, io: Duration, seed: u64) -> SimJob {
        SimJob {
            rng: StdRng::seed_from_u64(seed),
            burst,
            io,
            computing: false,
        }
    }
}

impl Behavior for SimJob {
    fn next(&mut self, _now: Time) -> Phase {
        self.computing = !self.computing;
        if self.computing {
            Phase::Compute(exp_sample(&mut self.rng, self.burst))
        } else {
            Phase::Block(exp_sample(&mut self.rng, self.io))
        }
    }

    fn kind(&self) -> &'static str {
        "disksim"
    }
}

/// A cloneable, seedable description of a behaviour; lets scenario
/// configs stay declarative while each task gets an independent RNG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BehaviorSpec {
    /// [`SpinLoop::inf`].
    Inf,
    /// [`SpinLoop::dhrystone`].
    Dhrystone,
    /// [`FiniteLoop`] with a total demand.
    Finite(Duration),
    /// [`Interact`] with mean think/burst.
    Interact {
        /// Mean think (sleep) time.
        think: Duration,
        /// Mean CPU burst per request.
        burst: Duration,
    },
    /// [`MpegDecode`] with target fps and per-frame cost.
    Mpeg {
        /// Target display rate.
        fps: u64,
        /// CPU cost per frame.
        frame_cost: Duration,
    },
    /// [`CompileJob`] with mean burst / I/O pause.
    Compile {
        /// Mean CPU burst.
        burst: Duration,
        /// Mean I/O pause.
        io: Duration,
    },
    /// [`SimJob`] with mean burst / I/O pause.
    Sim {
        /// Mean CPU burst.
        burst: Duration,
        /// Mean I/O pause.
        io: Duration,
    },
}

impl BehaviorSpec {
    /// Instantiates the behaviour with a per-task seed.
    pub fn build(&self, seed: u64) -> Box<dyn Behavior> {
        match *self {
            BehaviorSpec::Inf => Box::new(SpinLoop::inf()),
            BehaviorSpec::Dhrystone => Box::new(SpinLoop::dhrystone()),
            BehaviorSpec::Finite(total) => Box::new(FiniteLoop::new(total)),
            BehaviorSpec::Interact { think, burst } => Box::new(Interact::new(think, burst, seed)),
            BehaviorSpec::Mpeg { fps, frame_cost } => Box::new(MpegDecode::new(fps, frame_cost)),
            BehaviorSpec::Compile { burst, io } => Box::new(CompileJob::new(burst, io, seed)),
            BehaviorSpec::Sim { burst, io } => Box::new(SimJob::new(burst, io, seed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spin_loop_never_exits() {
        let mut b = SpinLoop::inf();
        for _ in 0..5 {
            assert!(matches!(b.next(Time::ZERO), Phase::Compute(_)));
        }
        assert_eq!(b.kind(), "inf");
        assert_eq!(b.iteration_cost(), Some(Duration::from_micros(1)));
    }

    #[test]
    fn finite_loop_exits_after_demand() {
        let mut b = FiniteLoop::new(Duration::from_millis(300));
        assert_eq!(
            b.next(Time::ZERO),
            Phase::Compute(Duration::from_millis(300))
        );
        assert_eq!(b.next(Time::ZERO), Phase::Exit);
    }

    /// ~100 ms think time, ~5 ms bursts.
    fn interact(seed: u64) -> Interact {
        Interact::new(Duration::from_millis(100), Duration::from_millis(5), seed)
    }

    #[test]
    fn interact_alternates_block_compute() {
        let mut b = interact(7);
        assert!(matches!(b.next(Time::ZERO), Phase::Block(_)));
        assert!(matches!(b.next(Time::ZERO), Phase::Compute(_)));
        assert!(matches!(b.next(Time::ZERO), Phase::Block(_)));
    }

    #[test]
    fn interact_is_reproducible() {
        let (mut a, mut b) = (interact(42), interact(42));
        for _ in 0..20 {
            assert_eq!(a.next(Time::ZERO), b.next(Time::ZERO));
        }
    }

    #[test]
    fn mpeg_blocks_when_ahead() {
        let mut m = MpegDecode::new(30, Duration::from_millis(5));
        // Frame 1 decode.
        assert_eq!(m.next(Time::ZERO), Phase::Compute(Duration::from_millis(5)));
        // Finished early at t = 5 ms; display deadline is 33.3 ms.
        let p = m.next(Time::from_millis(5));
        match p {
            Phase::BlockUntil(t) => assert_eq!(t.as_nanos(), 1_000_000_000 / 30),
            other => panic!("expected BlockUntil, got {other:?}"),
        }
        // After waking at the deadline the next frame decodes.
        let deadline = Time(1_000_000_000 / 30);
        assert_eq!(m.next(deadline), Phase::Compute(Duration::from_millis(5)));
    }

    #[test]
    fn mpeg_decodes_continuously_when_behind() {
        let mut m = MpegDecode::new(30, Duration::from_millis(50));
        assert!(matches!(m.next(Time::ZERO), Phase::Compute(_)));
        // Frame took 50 ms > 33 ms period: no blocking.
        assert!(matches!(m.next(Time::from_millis(50)), Phase::Compute(_)));
        assert!(matches!(m.next(Time::from_millis(100)), Phase::Compute(_)));
    }

    #[test]
    fn compile_job_mostly_computes() {
        let mut c = CompileJob::new(Duration::from_millis(40), Duration::from_millis(2), 3);
        let mut compute = Duration::ZERO;
        let mut block = Duration::ZERO;
        for _ in 0..2000 {
            match c.next(Time::ZERO) {
                Phase::Compute(d) => compute += d,
                Phase::Block(d) => block += d,
                _ => unreachable!(),
            }
        }
        let frac = compute.as_nanos() as f64 / (compute + block).as_nanos() as f64;
        assert!(frac > 0.9, "gcc model should be >90% CPU-bound: {frac}");
    }

    #[test]
    fn exp_sample_has_right_mean() {
        let mut rng = StdRng::seed_from_u64(1);
        let mean = Duration::from_millis(10);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| exp_sample(&mut rng, mean).as_nanos()).sum();
        let got = total as f64 / n as f64;
        let want = mean.as_nanos() as f64;
        assert!(
            (got - want).abs() / want < 0.05,
            "mean off: {got} vs {want}"
        );
    }

    #[test]
    fn spec_builds_matching_kind() {
        let specs: Vec<(BehaviorSpec, &str)> = vec![
            (BehaviorSpec::Inf, "inf"),
            (BehaviorSpec::Dhrystone, "dhrystone"),
            (BehaviorSpec::Finite(Duration::from_millis(1)), "short"),
            (
                BehaviorSpec::Interact {
                    think: Duration::from_millis(10),
                    burst: Duration::from_millis(1),
                },
                "interact",
            ),
            (
                BehaviorSpec::Mpeg {
                    fps: 30,
                    frame_cost: Duration::from_millis(30),
                },
                "mpeg",
            ),
            (
                BehaviorSpec::Compile {
                    burst: Duration::from_millis(40),
                    io: Duration::from_millis(2),
                },
                "gcc",
            ),
            (
                BehaviorSpec::Sim {
                    burst: Duration::from_millis(80),
                    io: Duration::from_micros(500),
                },
                "disksim",
            ),
        ];
        for (spec, kind) in specs {
            assert_eq!(spec.build(0).kind(), kind);
        }
    }
}
