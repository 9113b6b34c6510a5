//! Borrowed virtual time (BVT) [Duda & Cheriton, SOSP'99], "a
//! derivative of SFQ with an additional latency parameter" (§1.2), as a
//! tag rule over the shared core in `tagq.rs`.
//!
//! * **key** — the effective virtual time `E_i = A_i − warp_i` for the
//!   dispatch straight after a wakeup, `A_i` otherwise.
//! * **floor** — the minimum actual virtual time `A_i` over the runnable
//!   set; an idle machine remembers the scheduler virtual time of the
//!   last wakeup.
//! * **charge** — `A_i += q / φ_i`, and the warp is spent.
//! * **wake** — `A_i = max(A_i, SVT)` (no sleeper credit) and the warp
//!   applies, so a latency-sensitive thread jumps the queue while its
//!   long-run share is still governed by its weight.
//!
//! With every warp at zero BVT reduces to SFQ, which a unit test checks.
//! Like the other GPS instantiations it inherits the infeasible-weights
//! pathology on SMPs, which `readjust` (§2.1) repairs.

use crate::fixed::Fixed;
use crate::tagq::{IdleFloor, TagPolicy, TagQueue};
use crate::task::TaskId;
use crate::time::Duration;

/// A thread's BVT tags.
#[derive(Debug, Clone)]
pub struct BvtTags {
    /// Actual virtual time `A_i`.
    pub avt: Fixed,
    /// Warp granted to this thread (virtual-time units).
    warp: Fixed,
    /// Warp in force for the current dispatch: `warp` from a wakeup
    /// until the thread has run, zero otherwise.
    applied: Fixed,
}

/// BVT's tag rule.
#[derive(Debug)]
pub struct BvtRule;

impl TagPolicy for BvtRule {
    type Tags = BvtTags;
    const NAMES: [&'static str; 2] = ["BVT", "BVT+readjust"];
    const IDLE_FLOOR: IdleFloor = IdleFloor::Wake;

    fn arrive(floor: Fixed, _phi: Fixed, _quantum: Duration) -> BvtTags {
        BvtTags {
            avt: floor,
            warp: Fixed::ZERO,
            applied: Fixed::ZERO,
        }
    }

    fn wake(t: &mut BvtTags, floor: Fixed, _phi: Fixed, _quantum: Duration) {
        t.avt = t.avt.max(floor);
        t.applied = t.warp;
    }

    fn charge(
        t: &mut BvtTags,
        phi: Fixed,
        ran: Duration,
        _quantum: Duration,
        _requeue: bool,
    ) -> Fixed {
        t.avt += phi.div_into_int(ran.as_nanos());
        t.applied = Fixed::ZERO;
        t.avt
    }

    fn queue_key(t: &BvtTags) -> Fixed {
        t.avt - t.applied
    }

    fn floor_key(t: &BvtTags) -> Option<Fixed> {
        Some(t.avt)
    }
}

/// The borrowed-virtual-time scheduler.
pub type Bvt = TagQueue<BvtRule>;

impl Bvt {
    /// Grants a warp (in virtual-time units) to a latency-sensitive
    /// task; it applies from the task's next wakeup.
    pub fn set_warp(&mut self, id: TaskId, warp: Fixed) {
        self.tags_mut(id).expect("unknown task").warp = warp;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{Scheduler, SwitchReason};
    use crate::sfq::Sfq;
    use crate::tagq::TagConfig;
    use crate::task::{CpuId, Weight};
    use crate::testkit::{assert_close, MiniSim};
    use crate::time::Time;

    #[test]
    fn proportional_on_uniprocessor() {
        let mut sim = MiniSim::new(Bvt::new(1));
        sim.spawn(1, 1);
        sim.spawn(2, 5);
        sim.run_quanta(6000);
        assert_close(sim.ratio(2, 1), 5.0, 0.01, "5:1");
    }

    #[test]
    fn zero_warp_matches_sfq_decisions() {
        let mut bvt = Bvt::new(1);
        let mut sfq = Sfq::new(1);
        let mut now = Time::ZERO;
        for (i, w) in [2u64, 1, 3].iter().enumerate() {
            bvt.attach(TaskId(i as u64), Weight::new(*w).unwrap(), now);
            sfq.attach(TaskId(i as u64), Weight::new(*w).unwrap(), now);
        }
        for step in 0..300 {
            let a = bvt.pick_next(CpuId(0), now);
            let b = sfq.pick_next(CpuId(0), now);
            assert_eq!(a, b, "diverged at step {step}");
            let id = a.unwrap();
            now += Duration::from_millis(1);
            bvt.put_prev(id, Duration::from_millis(1), SwitchReason::Preempted, now);
            sfq.put_prev(id, Duration::from_millis(1), SwitchReason::Preempted, now);
        }
    }

    #[test]
    fn warped_wakeup_jumps_the_queue() {
        let mut s = Bvt::new(1);
        s.attach(TaskId(1), Weight::DEFAULT, Time::ZERO);
        s.attach(TaskId(2), Weight::DEFAULT, Time::ZERO);
        s.set_warp(TaskId(2), Fixed::from_int(1_000_000_000));
        // T2 blocks; T1 runs a while.
        let first = s.pick_next(CpuId(0), Time::ZERO).unwrap();
        if first == TaskId(2) {
            s.put_prev(
                first,
                Duration::from_millis(1),
                SwitchReason::Blocked,
                Time::ZERO,
            );
        } else {
            s.put_prev(
                first,
                Duration::from_millis(1),
                SwitchReason::Preempted,
                Time::ZERO,
            );
            let t2 = s.pick_next(CpuId(0), Time::ZERO).unwrap();
            assert_eq!(t2, TaskId(2));
            s.put_prev(
                t2,
                Duration::from_millis(1),
                SwitchReason::Blocked,
                Time::ZERO,
            );
        }
        for _ in 0..5 {
            let id = s.pick_next(CpuId(0), Time::ZERO).unwrap();
            assert_eq!(id, TaskId(1));
            s.put_prev(
                id,
                Duration::from_millis(1),
                SwitchReason::Preempted,
                Time::ZERO,
            );
        }
        // On wakeup the warped task is dispatched first.
        s.wake(TaskId(2), Time::ZERO);
        assert_eq!(s.pick_next(CpuId(0), Time::ZERO), Some(TaskId(2)));
    }

    #[test]
    fn readjustment_clamps_on_smp() {
        let mut sim = MiniSim::new(Bvt::with_config(
            2,
            TagConfig {
                readjust: true,
                ..TagConfig::default()
            },
        ));
        sim.spawn(1, 1);
        sim.spawn(2, 10);
        sim.run_quanta(400);
        assert_close(sim.ratio(2, 1), 1.0, 0.02, "clamped 1:1");
    }
}
