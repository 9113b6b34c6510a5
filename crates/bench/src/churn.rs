//! Event-path cost sweep: arrivals, wakes, departures and reweights.
//!
//! Not a figure from the paper: this artefact is the complement of the
//! pick-path sweep in [`overhead`](crate::overhead). Where that one
//! measures the cost of a scheduling *decision*, this one measures the
//! cost of a runnable-set *mutation* — the §3.1 kernel path that runs
//! "after each arrival, departure, blocking event or wakeup event, or
//! if the user changes the weight of a thread". Under the sorted-scan
//! queues every such event paid an O(position) walk; the indexed
//! queues (skip-list run queues + per-weight-class readjustment map)
//! make it O(log n). The driver holds `n` compute-bound threads of ten
//! mixed weights in steady state on a lockstep quad-processor and
//! applies a churn-heavy mix, Fig. 6-style: every quantum requeues the
//! four running threads and additionally blocks one, wakes the
//! previously blocked, replaces two (exit + fresh arrival) and
//! reweights two.
//!
//! The emitted `BENCH_churn.json` carries, per thread count:
//!
//! * `ns_per_event_at_<n>` — wall-clock cost of one event (SFS),
//! * `steps_per_event_at_<n>` — queue/readjustment structure steps per
//!   event (SFS; deterministic, what CI gates on),
//! * `events_at_<n>` — events measured at that point, and
//! * `sfq_ns_per_event_at_<n>` / `sfq_steps_per_event_at_<n>` — the
//!   same two costs for SFQ+readjust, whose start queue is the shared
//!   indexed list that also backs WFQ, stride and BVT.
//!
//! A CI smoke step regenerates the quick variant on every PR and fails
//! if `steps_per_event` grows superlogarithmically across the sweep.

use std::collections::HashMap;
use std::time::Instant;

use sfs_core::sched::SwitchReason;
use sfs_core::task::{weight, CpuId, TaskId};
use sfs_core::time::{Duration, Time};
use sfs_metrics::{render, ChartConfig, TimeSeries};

use crate::common::{policy, Effort, ExpResult};

const CPUS: u32 = 4;
const WEIGHT_CLASSES: u64 = 10;

/// Deterministic xorshift64* stream driving the churn mix.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The driver's view of the ready set: O(1) membership updates so the
/// harness itself never adds O(n) scans to the measured loop.
#[derive(Default)]
struct ReadySet {
    ids: Vec<TaskId>,
    pos: HashMap<TaskId, usize>,
}

impl ReadySet {
    fn len(&self) -> usize {
        self.ids.len()
    }

    fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    fn push(&mut self, id: TaskId) {
        self.pos.insert(id, self.ids.len());
        self.ids.push(id);
    }

    fn at(&self, i: usize) -> TaskId {
        self.ids[i]
    }

    fn remove(&mut self, id: TaskId) {
        let i = self.pos.remove(&id).expect("removing unknown ready id");
        let last = self.ids.pop().expect("ready set empty");
        if last != id {
            self.ids[i] = last;
            self.pos.insert(last, i);
        }
    }
}

/// Per-event cost measured at one (policy, thread-count) point.
pub struct ChurnPoint {
    /// Wall-clock nanoseconds per runnable-set mutation.
    pub ns_per_event: f64,
    /// Queue + readjustment structure steps per mutation.
    pub steps_per_event: f64,
    /// Mutations measured (after warm-up).
    pub events: u64,
}

/// Runs a churn-heavy steady state over `threads` runnable threads of
/// ten mixed weights on a lockstep quad-processor until at least
/// `measured_events` runnable-set mutations have been applied, and
/// reports the per-event cost.
pub fn churn_point(kind: &str, threads: usize, measured_events: u64) -> ChurnPoint {
    let quantum = Duration::from_millis(1);
    let mut sched = policy(kind, quantum).build(CPUS);
    let mut now = Time::ZERO;
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    // Ten equal-sized weight classes, attached in descending-weight
    // blocks so setup stays linear even for position-scan queues.
    let mut ready = ReadySet::default();
    for i in 0..threads {
        let w = WEIGHT_CLASSES - (i * WEIGHT_CLASSES as usize / threads) as u64;
        let id = TaskId(i as u64);
        sched.attach(id, weight(w.max(1)), now);
        ready.push(id);
    }
    let mut next_id = threads as u64;
    let mut running: Vec<Option<TaskId>> = vec![None; CPUS as usize];
    let mut blocked: Vec<TaskId> = Vec::new();

    // One lockstep quantum: fill every processor, then requeue.
    // `churn` additionally blocks one running thread (waking it next
    // round), retires two ready threads for two fresh arrivals, and
    // reweights two ready threads.
    macro_rules! round {
        ($churn:expr) => {
            for (c, slot) in running.iter_mut().enumerate() {
                if slot.is_none() {
                    if let Some(id) = sched.pick_next(CpuId(c as u32), now) {
                        ready.remove(id);
                        *slot = Some(id);
                    }
                }
            }
            now += quantum;
            if $churn {
                for id in blocked.drain(..) {
                    sched.wake(id, now);
                    ready.push(id);
                }
                let c = rng.below(running.len());
                if let Some(id) = running[c].take() {
                    sched.put_prev(id, quantum / 2, SwitchReason::Blocked, now);
                    blocked.push(id);
                }
                for _ in 0..2 {
                    if ready.len() > 2 {
                        let gone = ready.at(rng.below(ready.len()));
                        ready.remove(gone);
                        sched.detach(gone, now);
                        let id = TaskId(next_id);
                        next_id += 1;
                        sched.attach(id, weight(1 + rng.next() % WEIGHT_CLASSES), now);
                        ready.push(id);
                    }
                }
                for _ in 0..2 {
                    if !ready.is_empty() {
                        let id = ready.at(rng.below(ready.len()));
                        sched.set_weight(id, weight(1 + rng.next() % WEIGHT_CLASSES), now);
                    }
                }
            }
            for slot in &mut running {
                if let Some(id) = slot.take() {
                    sched.put_prev(id, quantum, SwitchReason::Preempted, now);
                    ready.push(id);
                }
            }
        };
    }

    // Warm-up: every thread runs once (requeues only), dispersing the
    // cold-start tie mass into a steady-state tag spread, so measured
    // arrivals and wakes land at realistic queue positions.
    let warm_rounds = threads as u64 / CPUS as u64 + 16;
    for _ in 0..warm_rounds {
        round!(false);
    }
    let before = sched.stats();
    let t0 = Instant::now();
    while sched.stats().events - before.events < measured_events {
        round!(true);
    }
    let elapsed = t0.elapsed();
    let after = sched.stats();
    let events = (after.events - before.events).max(1);
    ChurnPoint {
        ns_per_event: elapsed.as_nanos() as f64 / events as f64,
        steps_per_event: (after.event_steps - before.event_steps) as f64 / events as f64,
        events,
    }
}

/// Regenerates the event-path churn sweep (`BENCH_churn.json`).
pub fn run(effort: Effort) -> ExpResult {
    let mut res = ExpResult::new(
        "churn",
        "Per-event cost vs runnable threads under arrival/wake/reweight churn",
    );
    let counts: &[usize] = match effort {
        Effort::Full => &[100, 1_000, 10_000, 100_000],
        Effort::Quick => &[100, 1_000, 5_000],
    };
    let events = effort.count(40_000);

    let mut sfs = TimeSeries::new("SFS (bucket queue + indexed weight map)");
    let mut sfq = TimeSeries::new("SFQ+readjust (indexed start queue)");
    let mut csv = String::from(
        "threads,ns_per_event,steps_per_event,events,sfq_ns_per_event,sfq_steps_per_event\n",
    );
    for &n in counts {
        let p = churn_point("sfs", n, events);
        let q = churn_point("sfq-readjust", n, events);
        sfs.push(n as f64, p.ns_per_event);
        sfq.push(n as f64, q.ns_per_event);
        csv.push_str(&format!(
            "{n},{:.1},{:.2},{},{:.1},{:.2}\n",
            p.ns_per_event, p.steps_per_event, p.events, q.ns_per_event, q.steps_per_event
        ));
        res.finding(
            &format!("ns_per_event_at_{n}"),
            format!("{:.1}", p.ns_per_event),
        );
        res.finding(
            &format!("steps_per_event_at_{n}"),
            format!("{:.2}", p.steps_per_event),
        );
        res.finding(&format!("events_at_{n}"), format!("{}", p.events));
        res.finding(
            &format!("sfq_ns_per_event_at_{n}"),
            format!("{:.1}", q.ns_per_event),
        );
        res.finding(
            &format!("sfq_steps_per_event_at_{n}"),
            format!("{:.2}", q.steps_per_event),
        );
    }
    res.section(&render(
        "Per-event scheduling cost vs runnable threads",
        &[&sfs, &sfq],
        &ChartConfig {
            x_label: "runnable threads".into(),
            y_label: "ns per runnable-set mutation".into(),
            ..ChartConfig::default()
        },
    ));
    res.csv.push(("churn.csv".into(), csv));
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfs_core::feasible::FeasibleWeights;

    #[test]
    fn event_work_does_not_grow_linearly_with_thread_count() {
        // Deterministic counters, not wall time: steps per event must be
        // flat-to-logarithmic in the runnable-set size for *every*
        // tag-ordered policy — including WFQ and BVT, whose virtual
        // times come from the incremental KeyCounter rather than the
        // run queue itself. A position-scan queue (or an O(n) min-tag
        // scan) pays ~n/2 here: thousands of steps at 4×10³.
        for kind in [
            "sfs",
            "sfq-readjust",
            "wfq",
            "bvt-readjust",
            "stride-readjust",
        ] {
            let small = churn_point(kind, 100, 2_000);
            let big = churn_point(kind, 4_000, 2_000);
            assert!(
                big.steps_per_event < small.steps_per_event * 4.0 + 64.0,
                "{kind} event path scales with n: {:.1} vs {:.1} steps/event",
                big.steps_per_event,
                small.steps_per_event
            );
        }
    }

    #[test]
    fn clamp_lookups_do_not_scale_with_runnable_set() {
        // The pick path probes the clamp set via `phi` on every
        // candidate; the probe must stay O(log p), independent of n.
        let mut per_n = Vec::new();
        for &n in &[100u64, 10_000] {
            let mut f = FeasibleWeights::new(4, true);
            for i in 0..n {
                f.insert(TaskId(i), weight(1 + i % 50));
            }
            // Two infeasibly heavy threads keep the clamp set non-empty
            // so every `phi` call pays a membership probe.
            f.insert(TaskId(n + 1), weight(50_000_000));
            f.insert(TaskId(n + 2), weight(50_000_000));
            let (l0, s0) = f.clamp_lookup_stats();
            for i in 0..n {
                let _ = f.phi(TaskId(i), weight(1 + i % 50));
            }
            let (l1, s1) = f.clamp_lookup_stats();
            assert!(l1 > l0, "phi must be probing the clamp set");
            per_n.push((s1 - s0) as f64 / (l1 - l0) as f64);
        }
        assert!(
            per_n[1] <= per_n[0] + 4.0,
            "clamp lookup cost scaled with n: {per_n:?}"
        );
    }

    #[test]
    fn churn_emits_machine_readable_summary() {
        let res = run(Effort::Quick);
        for key in [
            "ns_per_event_at_5000",
            "steps_per_event_at_100",
            "events_at_1000",
            "sfq_steps_per_event_at_5000",
        ] {
            assert!(
                res.summary.iter().any(|(k, _)| k == key),
                "missing finding {key}"
            );
        }
        let json = res.summary_json();
        assert!(json.contains(r#""id":"churn""#), "{json}");
    }
}
