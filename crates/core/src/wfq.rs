//! Weighted fair queueing (WFQ) [Parekh & Gallager / Demers et al.],
//! translated to CPU scheduling, as a tag rule over the shared core in
//! `tagq.rs`.
//!
//! * **key** — the finish tag `F_i = S_i + Q / φ_i`, precomputed when
//!   the thread is queued from the *expected* quantum `Q`.
//! * **floor** — the minimum start tag `S_i` over the runnable set; an
//!   idle machine remembers the last actual finish.
//! * **charge** — `S_i += q / φ_i` from the actual usage `q`, which
//!   corrects the estimate the key was built on.
//! * **wake** — `S_i = max(S_i, v)`.
//!
//! This is the packet-scheduling discipline the paper groups with the
//! other GPS instantiations (§1.2); it contrasts with SFS in a way the
//! paper highlights: WFQ needs the quantum length **a priori**, whereas
//! SFS only needs actual usage after the fact (§2.3).

use crate::fixed::Fixed;
use crate::tagq::{IdleFloor, TagPolicy, TagQueue};
use crate::time::Duration;

/// A thread's WFQ tags.
#[derive(Debug, Clone)]
pub struct WfqTags {
    /// Start tag `S_i`, advanced by actual usage.
    pub start_tag: Fixed,
    /// Expected finish tag of the next quantum.
    pub finish_tag: Fixed,
}

impl WfqTags {
    /// Precomputes the finish tag for the thread's *next* quantum.
    fn expect_finish(&mut self, phi: Fixed, quantum: Duration) {
        self.finish_tag = self.start_tag + phi.div_into_int(quantum.as_nanos());
    }
}

/// WFQ's tag rule.
#[derive(Debug)]
pub struct WfqRule;

impl TagPolicy for WfqRule {
    type Tags = WfqTags;
    const NAMES: [&'static str; 2] = ["WFQ", "WFQ+readjust"];
    const IDLE_FLOOR: IdleFloor = IdleFloor::Finish;

    fn arrive(floor: Fixed, phi: Fixed, quantum: Duration) -> WfqTags {
        let mut t = WfqTags {
            start_tag: floor,
            finish_tag: floor,
        };
        t.expect_finish(phi, quantum);
        t
    }

    fn wake(t: &mut WfqTags, floor: Fixed, phi: Fixed, quantum: Duration) {
        t.start_tag = t.start_tag.max(floor);
        t.expect_finish(phi, quantum);
    }

    fn charge(
        t: &mut WfqTags,
        phi: Fixed,
        ran: Duration,
        quantum: Duration,
        requeue: bool,
    ) -> Fixed {
        t.start_tag += phi.div_into_int(ran.as_nanos());
        if requeue {
            t.expect_finish(phi, quantum);
        }
        t.start_tag
    }

    fn queue_key(t: &WfqTags) -> Fixed {
        t.finish_tag
    }

    fn floor_key(t: &WfqTags) -> Option<Fixed> {
        Some(t.start_tag)
    }
}

/// The weighted-fair-queueing scheduler.
pub type Wfq = TagQueue<WfqRule>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{Scheduler, SwitchReason};
    use crate::tagq::TagConfig;
    use crate::task::{CpuId, TaskId, Weight};
    use crate::testkit::{assert_close, MiniSim};
    use crate::time::Time;

    #[test]
    fn proportional_on_uniprocessor() {
        // Match the expected quantum to the driver's actual quantum so
        // the precomputed finish tags are exact.
        let mut sim = MiniSim::new(Wfq::with_config(
            1,
            TagConfig {
                quantum: Duration::from_millis(1),
                ..TagConfig::default()
            },
        ));
        sim.spawn(1, 2);
        sim.spawn(2, 6);
        sim.run_quanta(4000);
        assert_close(sim.ratio(2, 1), 3.0, 0.01, "3:1");
    }

    #[test]
    fn picks_min_finish_tag() {
        let mut s = Wfq::new(1);
        s.attach(TaskId(1), Weight::new(1).unwrap(), Time::ZERO);
        s.attach(TaskId(2), Weight::new(10).unwrap(), Time::ZERO);
        // Heavy task has the smaller expected finish tag.
        assert_eq!(s.pick_next(CpuId(0), Time::ZERO), Some(TaskId(2)));
    }

    #[test]
    fn early_block_is_charged_actual_usage() {
        let mut s = Wfq::new(1);
        s.attach(TaskId(1), Weight::DEFAULT, Time::ZERO);
        let id = s.pick_next(CpuId(0), Time::ZERO).unwrap();
        // Runs 1 ms of a 200 ms quantum, then blocks.
        s.put_prev(
            id,
            Duration::from_millis(1),
            SwitchReason::Blocked,
            Time::ZERO,
        );
        // Start tag advanced by 1 ms / 1, not 200 ms.
        let e = s.tags_of(TaskId(1)).unwrap();
        assert_eq!(
            e.start_tag,
            Fixed::from_raw(1_000_000 * crate::fixed::SCALE)
        );
    }

    #[test]
    fn readjustment_clamps_on_smp() {
        let mut sim = MiniSim::new(Wfq::with_config(
            2,
            TagConfig {
                readjust: true,
                ..TagConfig::default()
            },
        ));
        sim.spawn(1, 1);
        sim.spawn(2, 10);
        sim.run_quanta(600);
        assert_close(sim.ratio(2, 1), 1.0, 0.02, "clamped 1:1");
    }
}
