//! Start-time fair queueing (SFQ) [Goyal et al., OSDI'96], the paper's
//! principal baseline, as a tag rule over the shared core in `tagq.rs`.
//!
//! * **key** — the start tag `S_i`; the queue head is the virtual time.
//! * **floor** — the same start tag; an idle machine remembers the last
//!   finish tag.
//! * **charge** — `F_i = S_i + q / φ_i`, and `S_i = F_i` for a thread
//!   that stays runnable.
//! * **wake** — `S_i = max(F_i, v)`: a sleeper banks no credit. A
//!   wakeup preempts a running thread whose charged start tag is behind
//!   the woken thread's.
//!
//! On a uniprocessor SFQ has strong fairness bounds, but Example 1 of the
//! paper shows it can starve threads for unbounded stretches on an SMP
//! when the weight assignment is infeasible, and Example 2 shows it
//! misallocates under frequent arrivals/departures even when weights are
//! feasible. Both pathologies are reproduced by the tests below and by
//! the Fig. 4/Fig. 5 experiments. With `readjust` set the §2.1 algorithm
//! repairs the infeasible-weights pathology (Fig. 4b) but not the
//! short-jobs one (Fig. 5a).

use crate::fixed::Fixed;
use crate::tagq::{IdleFloor, TagPolicy, TagQueue};
use crate::time::Duration;

/// A thread's SFQ tags.
#[derive(Debug, Clone)]
pub struct SfqTags {
    /// Start tag `S_i`.
    pub start_tag: Fixed,
    /// Finish tag `F_i`.
    pub finish_tag: Fixed,
}

/// SFQ's tag rule.
#[derive(Debug)]
pub struct SfqRule;

impl TagPolicy for SfqRule {
    type Tags = SfqTags;
    const NAMES: [&'static str; 2] = ["SFQ", "SFQ+readjust"];
    const IDLE_FLOOR: IdleFloor = IdleFloor::Finish;
    const WAKE_PREEMPTS: bool = true;
    const VIRTUAL_TIME: bool = true;

    fn arrive(floor: Fixed, _phi: Fixed, _quantum: Duration) -> SfqTags {
        SfqTags {
            start_tag: floor,
            finish_tag: floor,
        }
    }

    fn wake(t: &mut SfqTags, floor: Fixed, _phi: Fixed, _quantum: Duration) {
        t.start_tag = t.finish_tag.max(floor);
    }

    fn charge(
        t: &mut SfqTags,
        phi: Fixed,
        ran: Duration,
        _quantum: Duration,
        requeue: bool,
    ) -> Fixed {
        t.finish_tag = t.start_tag + phi.div_into_int(ran.as_nanos());
        if requeue {
            t.start_tag = t.finish_tag;
        }
        t.finish_tag
    }

    fn queue_key(t: &SfqTags) -> Fixed {
        t.start_tag
    }
}

/// The start-time fair queueing scheduler.
pub type Sfq = TagQueue<SfqRule>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::Scheduler;
    use crate::task::{CpuId, TaskId, Weight};
    use crate::testkit::{assert_close, MiniSim};
    use crate::time::Time;

    /// Example 1 (Fig. 1): plain SFQ starves the weight-1 thread after a
    /// same-weight thread arrives, because 1:10 is infeasible on 2 CPUs.
    #[test]
    fn example1_plain_sfq_starves() {
        let mut sim = MiniSim::new(Sfq::new(2));
        sim.spawn(1, 1);
        sim.spawn(2, 10);
        sim.run_quanta(1000);
        // Both compute-bound threads ran continuously so far.
        assert_eq!(sim.service(1), Duration::from_millis(1000));
        assert_eq!(sim.service(2), Duration::from_millis(1000));
        sim.spawn(3, 1);
        let before = sim.service(1);
        sim.run_quanta(800);
        // T1 starves: S1 = 1000 tag units, S2 = S3 = 100; SFQ runs
        // threads 2 and 3 until they catch up (~900 quanta for T3).
        let gained = sim.service(1) - before;
        // T1 may finish the quantum it already held when T3 arrived, but
        // nothing more: it starves until S2/S3 catch up with S1.
        assert!(
            gained <= Duration::from_millis(1),
            "plain SFQ should starve T1, yet it gained {gained}"
        );
        // ... but after the catch-up period T1 runs again.
        sim.run_quanta(400);
        assert!(sim.service(1) > before, "T1 should eventually resume");
    }

    /// Fig. 4(b): the readjustment algorithm prevents the starvation.
    #[test]
    fn example1_readjusted_sfq_does_not_starve() {
        let mut sim = MiniSim::new(Sfq::with_readjustment(2));
        sim.spawn(1, 1);
        sim.spawn(2, 10);
        sim.run_quanta(1000);
        sim.spawn(3, 1);
        let before = sim.service(1);
        sim.run_quanta(200);
        let gained = sim.service(1) - before;
        // Readjusted weights are 1:2:1 (shares 1/4:1/2:1/4 of 2 CPUs):
        // T1 receives ≈ half a CPU immediately.
        assert!(
            gained >= Duration::from_millis(80),
            "T1 starved under readjusted SFQ: {gained}"
        );
    }

    #[test]
    fn uniprocessor_proportional_shares() {
        let mut sim = MiniSim::new(Sfq::new(1));
        sim.spawn(1, 1);
        sim.spawn(2, 3);
        sim.run_quanta(4000);
        assert_close(sim.ratio(2, 1), 3.0, 0.01, "3:1 on uniprocessor");
    }

    #[test]
    fn readjusted_shares_follow_instantaneous_weights() {
        // 1:10 clamped to 1:1 on a dual-processor.
        let mut sim = MiniSim::new(Sfq::with_readjustment(2));
        sim.spawn(1, 1);
        sim.spawn(2, 10);
        sim.run_quanta(500);
        assert_close(sim.ratio(2, 1), 1.0, 0.01, "clamped 1:1");
    }

    #[test]
    fn new_arrival_gets_min_start_tag() {
        let mut sim = MiniSim::new(Sfq::new(1));
        sim.spawn(1, 1);
        sim.run_quanta(100);
        sim.spawn(2, 1);
        let s1 = sim.sched.tags_of(TaskId(1)).unwrap().start_tag;
        let s2 = sim.sched.tags_of(TaskId(2)).unwrap().start_tag;
        assert_eq!(s2, s1, "arrival initialised to current min start tag");
    }

    #[test]
    fn sleeper_gets_no_credit() {
        let mut sim = MiniSim::new(Sfq::new(1));
        sim.spawn(1, 1);
        sim.spawn(2, 1);
        sim.run_quanta(4);
        sim.block(2, Duration::ZERO);
        sim.run_quanta(500);
        sim.wake(2);
        let s2 = sim.sched.tags_of(TaskId(2)).unwrap().start_tag;
        let s1 = sim.sched.tags_of(TaskId(1)).unwrap().start_tag;
        // S2 was floored at v (≈ S1): no banked credit.
        assert!(s2 >= s1 - Fixed::from_int(2_000_000), "s2={s2:?} s1={s1:?}");
        let before = sim.service(1);
        sim.run_quanta(100);
        let gain1 = sim.service(1) - before;
        assert!(
            gain1 >= Duration::from_millis(40),
            "T1 starved by returning sleeper: {gain1}"
        );
    }

    #[test]
    fn idle_system_freezes_virtual_time() {
        let mut sim = MiniSim::new(Sfq::new(1));
        sim.spawn(1, 1);
        sim.run_quanta(10);
        sim.block(1, Duration::ZERO);
        let v = sim.sched.virtual_time().unwrap();
        assert_eq!(v, sim.sched.tags_of(TaskId(1)).unwrap().finish_tag);
        // A task arriving while idle starts at the frozen v.
        sim.spawn(2, 1);
        assert_eq!(sim.sched.tags_of(TaskId(2)).unwrap().start_tag, v);
    }

    #[test]
    fn wake_preemption_compares_start_tags() {
        let mut s = Sfq::new(1);
        s.attach(TaskId(1), Weight::DEFAULT, Time::ZERO);
        s.attach(TaskId(2), Weight::DEFAULT, Time::ZERO);
        let first = s.pick_next(CpuId(0), Time::ZERO).unwrap();
        // The other thread has an equal start tag; only after the running
        // thread is charged some time does preemption trigger.
        let other = if first == TaskId(1) {
            TaskId(2)
        } else {
            TaskId(1)
        };
        assert!(!s.wake_preempts(other, first, Duration::ZERO, Time::ZERO));
        assert!(s.wake_preempts(other, first, Duration::from_millis(10), Time::ZERO));
    }
}
