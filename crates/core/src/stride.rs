//! Stride scheduling [Waldspurger & Weihl, 1995], as a tag rule over
//! the shared core in `tagq.rs`.
//!
//! * **key** — the task's `pass`.
//! * **floor** — the minimum pass over the runnable set; an idle machine
//!   remembers the global pass at the last pick.
//! * **charge** — `pass += stride · q / Q` with `stride = STRIDE1 / φ_i`
//!   (tickets are the weight) and `Q` the nominal quantum, so
//!   variable-length quanta are charged proportionally.
//! * **wake** — `pass = max(pass, floor)`.
//!
//! The paper lists stride scheduling among the GPS instantiations that
//! inherit the infeasible-weights pathology on SMPs (§1.2); with
//! `readjust` set it demonstrates the paper's claim that the §2.1
//! algorithm "can be combined with most existing GPS-based scheduling
//! algorithms".

use crate::fixed::Fixed;
use crate::tagq::{IdleFloor, TagPolicy, TagQueue};
use crate::time::Duration;

/// The classic stride constant.
const STRIDE1: i64 = 1 << 20;

/// A task's stride tag.
#[derive(Debug, Clone)]
pub struct StrideTags {
    /// Virtual progress; advances by one stride per nominal quantum.
    pub pass: Fixed,
}

/// Stride scheduling's tag rule.
#[derive(Debug)]
pub struct StrideRule;

impl TagPolicy for StrideRule {
    type Tags = StrideTags;
    const NAMES: [&'static str; 2] = ["Stride", "Stride+readjust"];
    const IDLE_FLOOR: IdleFloor = IdleFloor::Pick;

    fn arrive(floor: Fixed, _phi: Fixed, _quantum: Duration) -> StrideTags {
        StrideTags { pass: floor }
    }

    fn wake(t: &mut StrideTags, floor: Fixed, _phi: Fixed, _quantum: Duration) {
        t.pass = t.pass.max(floor);
    }

    fn charge(
        t: &mut StrideTags,
        phi: Fixed,
        ran: Duration,
        quantum: Duration,
        _requeue: bool,
    ) -> Fixed {
        let stride = Fixed::from_int(STRIDE1).div_fixed(phi);
        t.pass +=
            Fixed::from_raw(stride.raw() * ran.as_nanos() as i128 / quantum.as_nanos() as i128);
        t.pass
    }

    fn queue_key(t: &StrideTags) -> Fixed {
        t.pass
    }
}

/// The stride scheduler.
pub type Stride = TagQueue<StrideRule>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{Scheduler, SwitchReason};
    use crate::task::{CpuId, TaskId, Weight};
    use crate::testkit::{assert_close, MiniSim};
    use crate::time::Time;

    #[test]
    fn proportional_on_uniprocessor() {
        let mut sim = MiniSim::new(Stride::new(1));
        sim.spawn(1, 1);
        sim.spawn(2, 4);
        sim.run_quanta(5000);
        assert_close(sim.ratio(2, 1), 4.0, 0.01, "4:1");
    }

    #[test]
    fn infeasible_weights_unfair_without_readjustment() {
        // 1:10 on 2 CPUs: both run continuously, but after a third task
        // arrives, plain stride starves the light original task just
        // like SFQ (§1.2 applies to all GPS instantiations).
        let mut sim = MiniSim::new(Stride::new(2));
        sim.spawn(1, 1);
        sim.spawn(2, 10);
        sim.run_quanta(500);
        sim.spawn(3, 1);
        let before = sim.service(1);
        sim.run_quanta(300);
        let gained = sim.service(1) - before;
        assert!(
            gained < Duration::from_millis(30),
            "expected near-starvation, gained {gained}"
        );
    }

    #[test]
    fn readjustment_fixes_starvation() {
        let mut sim = MiniSim::new(Stride::with_readjustment(2));
        sim.spawn(1, 1);
        sim.spawn(2, 10);
        sim.run_quanta(500);
        sim.spawn(3, 1);
        let before = sim.service(1);
        sim.run_quanta(300);
        let gained = sim.service(1) - before;
        assert!(
            gained > Duration::from_millis(100),
            "starved despite readjustment: {gained}"
        );
    }

    #[test]
    fn arrival_inherits_min_pass() {
        let mut sim = MiniSim::new(Stride::new(1));
        sim.spawn(1, 1);
        sim.run_quanta(50);
        sim.spawn(2, 1);
        sim.run_quanta(100);
        // The newcomer shares from its arrival onward; it must not be
        // starved nor monopolise.
        let s2 = sim.service(2);
        assert_close(s2.as_millis_f64(), 50.0, 0.1, "half of 100 quanta");
    }

    #[test]
    fn partial_quantum_charges_proportionally() {
        let mut s = Stride::new(1);
        s.attach(TaskId(1), Weight::DEFAULT, Time::ZERO);
        let id = s.pick_next(CpuId(0), Time::ZERO).unwrap();
        let full = Duration::from_millis(200);
        s.put_prev(id, full / 2, SwitchReason::Preempted, Time::ZERO);
        let pass = s.tags_of(TaskId(1)).unwrap().pass;
        assert_eq!(pass, Fixed::from_int(STRIDE1) / 2);
    }
}
