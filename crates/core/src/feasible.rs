//! Bookkeeping that keeps a scheduler's weights feasible at all times.
//!
//! The kernel implementation invokes the readjustment algorithm "every
//! time the set of runnable threads changes (i.e., after each arrival,
//! departure, blocking event or wakeup event), or if the user changes the
//! weight of a thread" (§3.1). [`FeasibleWeights`] packages that
//! behaviour — but not with the kernel's weight-descending linked list,
//! whose sorted insert paid O(position) per arrival and made every
//! wakeup of a mid-weight thread linear in the runnable-set size.
//!
//! Readjustment never needs a totally ordered list of *threads*: the
//! §2.1 walk only reads the at-most-`p − 1` largest weights plus the
//! running total, and threads of equal weight are interchangeable. So
//! the runnable set is held as a **per-weight-class count map**
//! (`BTreeMap<weight, BTreeSet<TaskId>>`): `insert`, `remove` and
//! `set_weight` are O(p + log C) for `C` distinct weights, and the
//! top-(p−1) prefix is read off the heaviest classes directly and
//! handed, with the running total, to the one walk in
//! [`mod@crate::readjust`] — this module decides nothing about
//! feasibility itself, it keeps the clamp set and the change report.
//!
//! The clamp boundary can never split a weight class: clamping a thread
//! of weight `w` forces the final cap below `w` (that is its clamp
//! condition), while *stopping* at a thread of the same weight forces
//! the cap to at least `w` — a contradiction. Hence the
//! clamp set is always a union of whole classes, whichever order ties
//! are walked in, and membership is order-independent. At most `p − 1`
//! threads are ever clamped (§2.1), so the clamp set is a tiny sorted
//! vector and `phi` lookups are O(log p) binary searches.

use std::borrow::Borrow;
use std::cell::Cell;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use crate::fixed::Fixed;
use crate::queues::tree_steps;
use crate::readjust::walk;
use crate::task::{TaskId, Weight};

/// Tracks the runnable set's weights and their feasible readjustment.
#[derive(Debug)]
pub struct FeasibleWeights {
    cpus: u32,
    enabled: bool,
    /// One id set per distinct raw weight; the count map replacing the
    /// kernel's weight-descending thread list (queue #1 of §3.1).
    classes: BTreeMap<u64, BTreeSet<TaskId>>,
    /// Runnable tasks tracked (sum of class sizes).
    len: usize,
    total: u128,
    /// Currently clamped task ids, sorted for binary search; at most
    /// `p − 1` entries.
    clamped: Vec<TaskId>,
    cap: Option<Fixed>,
    /// Tasks whose `φ` changed in the most recent readjustment pass
    /// (clamped, unclamped, or still clamped under a moved cap); drained
    /// by [`FeasibleWeights::take_changed`].
    changed: Vec<TaskId>,
    /// Number of readjustment passes run (for [`SchedStats`]).
    ///
    /// [`SchedStats`]: crate::sched::SchedStats
    pub calls: u64,
    /// Total clamped-thread count across all passes.
    pub clamps: u64,
    /// Readjustment bookkeeping steps (class-map updates, prefix walks
    /// and clamp-set diffs); the event-path cost counter.
    walk_steps: u64,
    /// The weights handed to the most recent §2.1 walk (at most
    /// `cpus − 1`: readjustment cannot clamp more) and scratch for the
    /// next clamp set, kept across passes so a readjustment allocates
    /// nothing.
    prefix: Vec<u64>,
    next_clamped: Vec<TaskId>,
    /// Clamp-set membership probes served (`phi` / `is_clamped`).
    lookups: Cell<u64>,
    /// Entries examined across all membership probes.
    lookup_steps: Cell<u64>,
}

impl FeasibleWeights {
    /// Creates the tracker. When `enabled` is false the tracker still
    /// maintains the weight classes but never clamps (plain GPS
    /// behaviour, used to reproduce the *un*readjusted baselines).
    pub fn new(cpus: u32, enabled: bool) -> FeasibleWeights {
        FeasibleWeights {
            cpus,
            enabled,
            classes: BTreeMap::new(),
            len: 0,
            total: 0,
            clamped: Vec::new(),
            cap: None,
            changed: Vec::new(),
            calls: 0,
            clamps: 0,
            walk_steps: 0,
            prefix: Vec::new(),
            next_clamped: Vec::new(),
            lookups: Cell::new(0),
            lookup_steps: Cell::new(0),
        }
    }

    /// Number of runnable tasks tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no runnable task is tracked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Cumulative event-path steps: class-map updates plus readjustment
    /// bookkeeping.
    pub fn event_steps(&self) -> u64 {
        self.walk_steps
    }

    /// Clamp-set probe accounting as `(probes, entries examined)`; the
    /// churn bench asserts the per-probe cost stays independent of the
    /// runnable-set size.
    pub fn clamp_lookup_stats(&self) -> (u64, u64) {
        (self.lookups.get(), self.lookup_steps.get())
    }

    /// The O(log C) cost estimate for one class-map operation with `C`
    /// distinct weights, charged to [`FeasibleWeights::event_steps`].
    fn map_steps(&self) -> u64 {
        tree_steps(self.classes.len())
    }

    /// Adds a task to the runnable set and readjusts.
    /// Returns `true` if any task's instantaneous weight changed.
    pub fn insert(&mut self, id: TaskId, w: Weight) -> bool {
        self.insert_many([(id, w)])
    }

    /// Adds a whole batch of tasks and readjusts **once**. The final
    /// clamp set, cap, and change report are identical to one
    /// [`FeasibleWeights::insert`] per task: the readjustment is a pure
    /// function of the resulting weight classes, and the change report
    /// is diffed against the clamp state from before the batch, so it
    /// covers every task whose `φ` differs from that baseline. Returns
    /// `true` if any task's instantaneous weight changed. Takes any
    /// iterator of `(id, weight)` pairs or references to them, so a
    /// caller need not collect its batch into a list first.
    pub fn insert_many<T: Borrow<(TaskId, Weight)>>(
        &mut self,
        batch: impl IntoIterator<Item = T>,
    ) -> bool {
        let before = self.len;
        for item in batch {
            let &(id, w) = item.borrow();
            self.walk_steps += self.map_steps();
            self.link(id, w);
            self.len += 1;
            self.total += w.get() as u128;
        }
        self.len != before && self.run()
    }

    /// Files `id` under weight class `w`.
    fn link(&mut self, id: TaskId, w: Weight) {
        let fresh = self.classes.entry(w.get()).or_default().insert(id);
        debug_assert!(fresh, "task {id} already tracked");
    }

    /// Takes `id` out of weight class `w`, dropping the class with its
    /// last member.
    ///
    /// # Panics
    ///
    /// Panics if the task is not tracked under weight `w`.
    fn unlink(&mut self, id: TaskId, w: Weight) {
        let Entry::Occupied(mut class) = self.classes.entry(w.get()) else {
            panic!("untracked task {id}");
        };
        assert!(class.get_mut().remove(&id), "untracked task {id}");
        if class.get().is_empty() {
            class.remove();
        }
    }

    /// Removes a task from the runnable set (block/exit) and readjusts.
    /// Returns `true` if any remaining task's instantaneous weight changed.
    ///
    /// # Panics
    ///
    /// Panics if the task is not tracked under weight `w`.
    pub fn remove(&mut self, id: TaskId, w: Weight) -> bool {
        self.walk_steps += self.map_steps();
        self.unlink(id, w);
        self.len -= 1;
        self.total -= w.get() as u128;
        if let Ok(i) = self.clamped.binary_search(&id) {
            self.clamped.remove(i);
        }
        self.run()
    }

    /// Updates a task's weight in place and readjusts.
    ///
    /// # Panics
    ///
    /// Panics if the task is not tracked under weight `old`.
    pub fn set_weight(&mut self, id: TaskId, old: Weight, new: Weight) -> bool {
        self.walk_steps += 2 * self.map_steps();
        self.unlink(id, old);
        self.link(id, new);
        self.total = self.total - old.get() as u128 + new.get() as u128;
        self.run()
    }

    /// The instantaneous weight `φ_i` for a runnable task with raw weight
    /// `w`: the clamp cap if the task is clamped, its own weight otherwise.
    pub fn phi(&self, id: TaskId, w: Weight) -> Fixed {
        match self.cap {
            Some(cap) if self.is_clamped(id) => cap,
            _ => w.as_fixed(),
        }
    }

    /// True if the task is currently clamped. O(log p): a binary search
    /// over the at-most-`p − 1` clamped ids.
    pub fn is_clamped(&self, id: TaskId) -> bool {
        self.lookups.set(self.lookups.get() + 1);
        self.lookup_steps
            .set(self.lookup_steps.get() + tree_steps(self.clamped.len()));
        self.clamped.binary_search(&id).is_ok()
    }

    /// The current clamp set (at most `p − 1` ids, sorted by id).
    pub fn clamped(&self) -> &[TaskId] {
        &self.clamped
    }

    /// The current clamp cap, if any thread is clamped.
    pub fn cap(&self) -> Option<Fixed> {
        self.cap
    }

    /// Drains the set of tasks whose instantaneous weight `φ` changed in
    /// the most recent mutation (`insert`/`remove`/`set_weight`): tasks
    /// newly clamped, newly unclamped, or still clamped while the cap
    /// moved. At most `p − 1` tasks are ever clamped, so the set is tiny.
    ///
    /// Callers that keep per-task `φ` state (the SFS bucket queue) use
    /// this to migrate exactly the affected tasks instead of rescanning
    /// the whole runnable set. The directly mutated task itself is *not*
    /// reported unless its clamp state changed — its `φ` obviously moved
    /// with its raw weight and the caller already knows.
    pub fn take_changed(&mut self) -> Vec<TaskId> {
        std::mem::take(&mut self.changed)
    }

    /// The set [`FeasibleWeights::take_changed`] would drain, borrowed:
    /// valid until the next mutation, and leaves the buffer in place for
    /// the next pass to reuse. What the schedulers call per event.
    pub fn changed(&self) -> &[TaskId] {
        &self.changed
    }

    /// Re-runs readjustment over the current runnable set.
    /// Returns `true` if the clamp set or cap changed.
    fn run(&mut self) -> bool {
        self.changed.clear();
        if !self.enabled {
            return false;
        }
        self.calls += 1;
        // The §2.1 walk needs only the p−1 largest weights (none on a
        // uniprocessor) and the total: read them off the heaviest classes.
        let limit = self.cpus.saturating_sub(1) as usize;
        self.prefix.clear();
        if limit > 0 {
            'outer: for (&w, ids) in self.classes.iter().rev() {
                self.walk_steps += 1;
                for _ in 0..ids.len() {
                    if self.prefix.len() == limit {
                        break 'outer;
                    }
                    self.prefix.push(w);
                }
            }
        }
        self.walk_steps += self.prefix.len() as u64;
        let adj = walk(self.prefix.iter().map(|&w| (w, 1)), self.total, self.cpus).flat();

        if adj.clamped == 0 && self.clamped.is_empty() {
            // Nothing was clamped and nothing is: there is no clamp set
            // to build or diff. (A cap can still be on record when the
            // only clamped task has just been removed.)
            return self.cap.take().is_some();
        }

        // The clamp set is the adj.clamped heaviest threads — always a
        // union of whole weight classes (see the module docs), so the
        // walk below never has to order threads within a class.
        self.next_clamped.clear();
        let mut need = adj.clamped;
        for (_, ids) in self.classes.iter().rev() {
            if need == 0 {
                break;
            }
            self.walk_steps += 1;
            debug_assert!(
                ids.len() <= need,
                "readjustment split a weight class at the clamp boundary"
            );
            self.next_clamped.extend(ids.iter().take(need));
            need = need.saturating_sub(ids.len());
        }
        self.next_clamped.sort_unstable();

        let changed = self.next_clamped != self.clamped || adj.cap != self.cap;
        for &id in &self.clamped {
            if self.next_clamped.binary_search(&id).is_err() {
                self.changed.push(id); // unclamped: φ back to raw weight
            }
        }
        for &id in &self.next_clamped {
            if self.clamped.binary_search(&id).is_err() {
                self.changed.push(id); // newly clamped to the cap
            } else if adj.cap != self.cap {
                self.changed.push(id); // still clamped, but the cap moved
            }
        }
        self.walk_steps += (self.clamped.len() + self.next_clamped.len()) as u64;
        self.clamps += adj.clamped as u64;
        std::mem::swap(&mut self.clamped, &mut self.next_clamped);
        self.cap = adj.cap;
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::readjust::oracle::is_feasible_fixed;
    use crate::task::weight;

    fn phis(f: &FeasibleWeights, tasks: &[(TaskId, Weight)]) -> Vec<Fixed> {
        tasks.iter().map(|&(id, w)| f.phi(id, w)).collect()
    }

    #[test]
    fn example1_clamps_heavy_thread() {
        let mut f = FeasibleWeights::new(2, true);
        f.insert(TaskId(1), weight(1));
        let changed = f.insert(TaskId(2), weight(10));
        assert!(changed);
        assert!(f.is_clamped(TaskId(2)));
        assert!(!f.is_clamped(TaskId(1)));
        assert_eq!(f.phi(TaskId(2), weight(10)), Fixed::from_int(1));
        assert_eq!(f.phi(TaskId(1), weight(1)), Fixed::from_int(1));
    }

    #[test]
    fn blocking_triggers_reclamp() {
        // 1:1:2 feasible on 2 CPUs; removing a weight-1 task makes 1:2
        // infeasible (§1.2).
        let mut f = FeasibleWeights::new(2, true);
        f.insert(TaskId(1), weight(1));
        f.insert(TaskId(2), weight(1));
        f.insert(TaskId(3), weight(2));
        assert!(!f.is_clamped(TaskId(3)));
        let changed = f.remove(TaskId(1), weight(1));
        assert!(changed);
        assert!(f.is_clamped(TaskId(3)));
        assert_eq!(f.phi(TaskId(3), weight(2)), Fixed::from_int(1));
    }

    #[test]
    fn disabled_tracker_never_clamps() {
        let mut f = FeasibleWeights::new(2, false);
        f.insert(TaskId(1), weight(1));
        let changed = f.insert(TaskId(2), weight(1_000));
        assert!(!changed);
        assert!(!f.is_clamped(TaskId(2)));
        assert_eq!(f.phi(TaskId(2), weight(1_000)), Fixed::from_int(1_000));
        assert_eq!(f.calls, 0);
    }

    #[test]
    fn set_weight_reclamps() {
        let mut f = FeasibleWeights::new(2, true);
        f.insert(TaskId(1), weight(1));
        f.insert(TaskId(2), weight(1));
        assert!(f.clamped().is_empty());
        let changed = f.set_weight(TaskId(2), weight(1), weight(50));
        assert!(changed);
        assert!(f.is_clamped(TaskId(2)));
    }

    #[test]
    fn resulting_weights_are_feasible() {
        let mut f = FeasibleWeights::new(4, true);
        let tasks: Vec<(TaskId, Weight)> = [100u64, 50, 10, 1, 1, 1]
            .iter()
            .enumerate()
            .map(|(i, &w)| (TaskId(i as u64), weight(w)))
            .collect();
        for &(id, w) in &tasks {
            f.insert(id, w);
        }
        let phi = phis(&f, &tasks);
        assert!(is_feasible_fixed(&phi, 4), "{phi:?}");
    }

    #[test]
    fn total_weight_tracks_mutations() {
        // On 2 CPUs a weight-100 task stays clamped to the total of the
        // others (§2.1 with p − 1 = 1), so the cap reads the running total.
        let mut f = FeasibleWeights::new(2, true);
        f.insert(TaskId(0), weight(100));
        f.insert(TaskId(1), weight(3));
        f.insert(TaskId(2), weight(4));
        assert_eq!(f.cap(), Some(Fixed::from_int(7)));
        f.set_weight(TaskId(2), weight(4), weight(10));
        assert_eq!(f.cap(), Some(Fixed::from_int(13)));
        f.remove(TaskId(1), weight(3));
        assert_eq!(f.cap(), Some(Fixed::from_int(10)));
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn take_changed_reports_exact_phi_delta() {
        let mut f = FeasibleWeights::new(2, true);
        f.insert(TaskId(1), weight(1));
        f.insert(TaskId(2), weight(1));
        // Setup churn: with n ≤ p the heaviest task is transiently
        // clamped at cap 1; drain that before asserting.
        let _ = f.take_changed();
        // A feasibility-neutral arrival reports nothing.
        f.insert(TaskId(3), weight(1));
        assert!(f.take_changed().is_empty());
        // A weight-30 arrival on 2 CPUs is clamped immediately (cap
        // (1+1+1)/1 = 3): only the new task itself is affected.
        f.insert(TaskId(4), weight(30));
        assert_eq!(f.take_changed(), vec![TaskId(4)]);
        // Draining twice yields nothing new.
        assert!(f.take_changed().is_empty());
        assert_eq!(f.phi(TaskId(4), weight(30)), Fixed::from_int(3));
        // Another light arrival moves the cap to 4: T4 stays clamped
        // but its φ changed, so it is reported again.
        f.insert(TaskId(5), weight(1));
        assert_eq!(f.take_changed(), vec![TaskId(4)]);
        assert_eq!(f.phi(TaskId(4), weight(30)), Fixed::from_int(4));
        // Dropping T4's weight to 1 unclamps it.
        f.set_weight(TaskId(4), weight(30), weight(1));
        assert_eq!(f.take_changed(), vec![TaskId(4)]);
        assert!(!f.is_clamped(TaskId(4)));
        // A feasibility-neutral departure reports nothing.
        f.remove(TaskId(5), weight(1));
        assert!(f.take_changed().is_empty());
    }

    #[test]
    fn prefix_walk_is_bounded_by_p_minus_one() {
        // Readjustment can clamp at most p−1 threads, so the §2.1 walk
        // must collect at most p−1 weights however large the runnable
        // set is. (The previous implementation collected p — one whole
        // extra scan entry per pass.)
        let mut f = FeasibleWeights::new(4, true);
        for i in 0..3u64 {
            f.insert(TaskId(i), weight(10 + i));
            assert_eq!(f.prefix.len(), (i as usize + 1).min(3));
        }
        for i in 3..40u64 {
            f.insert(TaskId(i), weight(1 + i % 7));
            assert_eq!(f.prefix.len(), 3, "prefix must stay at p−1");
        }
        // On a uniprocessor nothing can ever clamp, so no prefix is
        // collected at all.
        let mut up = FeasibleWeights::new(1, true);
        up.insert(TaskId(1), weight(50));
        assert_eq!(up.prefix.len(), 0);
    }

    #[test]
    fn clamp_set_is_a_union_of_whole_weight_classes() {
        // Five weight-9 threads plus many light ones on 8 CPUs: either
        // the whole weight-9 class is clamped or none of it, never a
        // split (the invariant the count-map readjustment relies on).
        let mut f = FeasibleWeights::new(8, true);
        for i in 0..5u64 {
            f.insert(TaskId(i), weight(9));
        }
        for i in 5..30u64 {
            f.insert(TaskId(i), weight(1));
        }
        let clamped_heavy = (0..5u64).filter(|&i| f.is_clamped(TaskId(i))).count();
        assert!(
            clamped_heavy == 0 || clamped_heavy == 5,
            "clamp boundary split the weight-9 class: {clamped_heavy}/5"
        );
        let phi = phis(
            &f,
            &(0..30u64)
                .map(|i| (TaskId(i), weight(if i < 5 { 9 } else { 1 })))
                .collect::<Vec<_>>(),
        );
        assert!(is_feasible_fixed(&phi, 8), "{phi:?}");
    }

    #[test]
    fn clamp_lookup_cost_is_independent_of_runnable_set_size() {
        let mut f = FeasibleWeights::new(4, true);
        for i in 0..10_000u64 {
            f.insert(TaskId(i), weight(1 + i % 40));
        }
        // Two infeasibly heavy threads so the clamp set is non-empty
        // and `phi` actually probes it.
        f.insert(TaskId(90_000), weight(1_000_000));
        f.insert(TaskId(90_001), weight(1_000_000));
        assert!(f.is_clamped(TaskId(90_000)), "setup must clamp");
        let (l0, s0) = f.clamp_lookup_stats();
        for i in 0..1_000u64 {
            let _ = f.phi(TaskId(i), weight(1 + i % 40));
        }
        let (l1, s1) = f.clamp_lookup_stats();
        let per = (s1 - s0) as f64 / (l1 - l0) as f64;
        assert!(per <= 4.0, "clamp probe cost {per:.2} — not O(log p)");
    }

    #[test]
    #[should_panic(expected = "untracked task")]
    fn remove_untracked_panics() {
        let mut f = FeasibleWeights::new(2, true);
        f.remove(TaskId(9), weight(1));
    }
}
