//! Per-weight-class bucket queue for exact surplus fair scheduling.
//!
//! The kernel design (§3.1/§3.2) keeps one global surplus-sorted queue
//! and re-sorts it whenever the virtual time advances. Because the
//! minimum-start-tag thread is usually the one that just ran, the
//! virtual time advances on essentially every quantum, so the "periodic"
//! re-sort degenerates into an O(n) insertion-sort pass per scheduling
//! decision.
//!
//! The fix exploits the algebraic structure of the surplus
//!
//! ```text
//! α_i = φ_i · (S_i − v)
//! ```
//!
//! For two threads sharing the same adjusted weight `φ`,
//!
//! ```text
//! α_i < α_j  ⇔  φ·(S_i − v) < φ·(S_j − v)  ⇔  S_i < S_j
//! ```
//!
//! so *within one weight class surplus order is exactly start-tag order,
//! for every value of `v`*. A change of virtual time can never reorder
//! threads of equal `φ`; it can only reshuffle the interleaving *across*
//! weight classes. [`BucketQueue`] therefore keeps one start-tag-ordered
//! bucket per distinct `φ` and finds the minimum-surplus thread by
//! comparing the O(#distinct-φ) bucket heads — no re-sort ever happens,
//! and a virtual-time advance costs nothing.
//!
//! Within a bucket, entries are totally ordered by `(S_i, id)` — the
//! exact tie-break the scheduler preserves — in a balanced ordered set
//! rather than the intrusive linked list used by the start-tag and
//! weight queues. The list was tried first: under phase-locked equal
//! quanta (the paper's own lockstep experiments) every thread of one
//! weight class advances its tag by the same `q/φ` on every round, so
//! whole classes stay tied at one start tag indefinitely, and a linked
//! list pays O(tie-run) per operation to honour the id tie-break —
//! measured at thousands of entries examined per pick at 4×10³ threads.
//! The ordered set makes both the requeue and the head lookup
//! O(log n_bucket) with the tie-break built into the key.
//!
//! Cost model (p processors, n runnable threads, w distinct weights):
//!
//! * pick: O(w + p) — one pass over the cached bucket heads, walking a
//!   tree only past its ≤ p currently-running entries,
//! * requeue after a quantum: O(log n) in one bucket, plus one index
//!   lookup,
//! * insert / remove: O(log n) in one bucket, plus one index write; a
//!   new or emptied class also shifts the later buckets of the `φ`-sorted
//!   `Vec`, O(w) like a pick (a `BTreeMap` walk measured far slower),
//! * weight readjustment: migrates only the at-most-`p − 1` clamped (or
//!   unclamped) threads between buckets — a lookup, a remove and an
//!   insert each,
//! * virtual-time advance: free.
//!
//! The old resort-based path was O(n) per pick.
//!
//! The location index (task → its `φ` bucket and start-tag key) is a
//! [`TaskMap`]: an index lookup is two indexed loads, with no hashing,
//! so the ordered-set work above is what an operation costs.
//!
//! The queue is also the one surplus core of §2.3, for threads
//! ([`crate::sfs`]) and tenant groups ([`crate::hier`]) alike: it holds
//! the virtual time `v` — the least queued start tag, frozen at the last
//! finish tag while the queue is empty — enters an entry at
//! `S = max(F, v)`, and picks the least `φ·(S − v)`. The owner keeps the
//! tags and charges `F = S + q/φ` itself.

use std::collections::BTreeSet;

use crate::fixed::Fixed;
use crate::queues::tree_steps;
use crate::sched::SchedStats;
use crate::task::TaskId;
use crate::taskmap::TaskMap;

/// One weight class `φ`: runnable threads ordered by `(start tag, id)`,
/// and a copy of the first (buckets are never empty) read without a descent.
#[derive(Debug)]
struct Bucket {
    phi: Fixed,
    head: (Fixed, TaskId),
    set: BTreeSet<(Fixed, TaskId)>,
}

/// A runnable-thread queue ordered by surplus, maintained as one
/// start-tag-ordered bucket per distinct adjusted weight `φ`.
///
/// The queue tracks each task's location itself; callers address tasks
/// by [`TaskId`] only.
#[derive(Debug, Default)]
pub struct BucketQueue {
    /// One `(S, id)`-ordered set per distinct `φ`, sorted by `φ`. Empty
    /// buckets are removed eagerly so pick cost tracks the number of
    /// weight classes actually present.
    buckets: Vec<Bucket>,
    /// Per-task location: the bucket key `φ` and the start-tag key.
    index: TaskMap<(Fixed, Fixed)>,
    /// Cumulative event-path steps; see [`BucketQueue::steps`].
    steps: u64,
    /// The virtual time as of the last pick: surpluses are taken
    /// against it. The last finish tag while the queue is empty.
    v: Fixed,
}

impl BucketQueue {
    /// Creates an empty bucket queue.
    pub fn new() -> BucketQueue {
        BucketQueue::default()
    }

    /// Number of queued tasks.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if no task is queued.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Number of distinct weight classes currently present.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Cumulative structure steps across all mutations (insert, remove,
    /// requeue, migration): the comparison depth of each ordered-set
    /// operation. The event-path cost counter read by the scheduler.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// True if `id` is queued.
    pub fn contains(&self, id: TaskId) -> bool {
        self.index.contains_key(&id)
    }

    /// The virtual time `v` right now (§2.3): the least queued start
    /// tag, in O(#buckets) from the cached heads, or the last finish tag
    /// while the queue is empty. This subsumes the start-tag-sorted queue
    /// #2 of §3.1: its head was the only thing the scheduler ever read
    /// from it, while its per-requeue sorted reinsertion cost
    /// O(displacement) ≈ O(n) on the global list.
    pub(crate) fn virtual_time(&self) -> Fixed {
        let least = self.buckets.iter().map(|b| b.head.0).min();
        least.unwrap_or(self.v)
    }

    /// The surplus `α = φ·(S − v)` of an entry with weight `phi` and
    /// start tag `start_tag`, against `v` as of the last pick.
    pub(crate) fn surplus(&self, phi: Fixed, start_tag: Fixed) -> Fixed {
        phi.mul_fixed(start_tag - self.v)
    }

    /// Queues an entry that becomes runnable with finish tag
    /// `finish_tag`, at the start tag `S = max(F, v)`, and returns `S`:
    /// a sleeper gains no credit, and an arrival (`F ≤ v`) starts at `v`.
    pub(crate) fn enter(&mut self, id: TaskId, phi: Fixed, finish_tag: Fixed) -> Fixed {
        let start_tag = finish_tag.max(self.virtual_time());
        self.insert(id, phi, start_tag);
        start_tag
    }

    /// Removes an entry that stops being runnable with finish tag
    /// `finish_tag`. If it was the last, `v` freezes at that tag.
    pub(crate) fn leave(&mut self, id: TaskId, finish_tag: Fixed) {
        self.remove(id);
        if self.is_empty() {
            self.v = finish_tag;
        }
    }

    /// The §2.3 pick: advances `v` to the least start tag, counting a
    /// move in `vt_changes`, then returns the least-surplus entry for
    /// which `ready` holds, counting the entries examined in
    /// `bucket_scans`. Advancing `v` moves no entry: within a weight
    /// class surplus order does not depend on it.
    pub(crate) fn pick(
        &mut self,
        stats: &mut SchedStats,
        ready: impl Fn(TaskId) -> bool,
    ) -> Option<TaskId> {
        let v = self.virtual_time();
        if v != self.v {
            debug_assert!(v > self.v, "virtual time went backwards");
            self.v = v;
            stats.vt_changes += 1;
        }
        let (best, scanned) = self.min_surplus(v, ready);
        stats.bucket_scans += scanned;
        best.map(|(_, _, id)| id)
    }

    /// The position of the `phi` bucket, or where it would be inserted.
    fn slot(&self, phi: Fixed) -> Result<usize, usize> {
        self.buckets.binary_search_by(|b| b.phi.cmp(&phi))
    }

    /// Queues a task in the `phi` weight class with the given start tag.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the task is already queued.
    pub fn insert(&mut self, id: TaskId, phi: Fixed, start_tag: Fixed) {
        let key = (start_tag, id);
        let at = self.slot(phi).unwrap_or_else(|at| {
            let (head, set) = (key, BTreeSet::new());
            self.buckets.insert(at, Bucket { phi, head, set });
            at
        });
        let bucket = &mut self.buckets[at];
        self.steps += tree_steps(bucket.set.len());
        let fresh = bucket.set.insert(key);
        debug_assert!(fresh, "task {id} queued twice");
        bucket.head = bucket.head.min(key);
        let prev = self.index.insert(id, (phi, start_tag));
        debug_assert!(prev.is_none(), "task {id} indexed twice");
    }

    /// Removes a task from its bucket.
    ///
    /// # Panics
    ///
    /// Panics if the task is not queued.
    pub fn remove(&mut self, id: TaskId) {
        let (phi, start_tag) = self
            .index
            .remove(&id)
            .expect("removing task not in bucket queue");
        let at = self.slot(phi).expect("bucket missing");
        let bucket = &mut self.buckets[at];
        self.steps += tree_steps(bucket.set.len());
        let removed = bucket.set.remove(&(start_tag, id));
        debug_assert!(removed, "bucket entry missing for {id}");
        if bucket.set.is_empty() {
            self.buckets.remove(at);
        } else if bucket.head == (start_tag, id) {
            bucket.head = *bucket.set.first().expect("bucket is non-empty");
        }
    }

    /// Repositions a task inside its bucket after its start tag changed
    /// (the per-quantum requeue). O(log) in the bucket size.
    ///
    /// # Panics
    ///
    /// Panics if the task is not queued.
    pub fn update_start(&mut self, id: TaskId, start_tag: Fixed) {
        let entry = self.index.get_mut(&id).expect("updating unqueued task");
        let (phi, old_start) = *entry;
        entry.1 = start_tag;
        let at = self.slot(phi).expect("bucket missing");
        let bucket = &mut self.buckets[at];
        self.steps += 2 * tree_steps(bucket.set.len());
        bucket.set.remove(&(old_start, id));
        let key = (start_tag, id);
        bucket.set.insert(key);
        if bucket.head == (old_start, id) {
            bucket.head = *bucket.set.first().expect("bucket is non-empty");
        } else {
            bucket.head = bucket.head.min(key);
        }
    }

    /// Moves a task to a different weight class, preserving its start
    /// tag. Returns `true` if the task actually migrated (its `φ`
    /// changed). This is the only work a readjustment-driven `φ` change
    /// requires — at most `p − 1` threads are ever clamped, so at most
    /// that many migrate.
    ///
    /// # Panics
    ///
    /// Panics if the task is not queued.
    pub fn set_phi(&mut self, id: TaskId, phi: Fixed) -> bool {
        let &(old_phi, start_tag) = self.index.get(&id).expect("re-weighting unqueued task");
        if old_phi == phi {
            return false;
        }
        self.remove(id);
        self.insert(id, phi, start_tag);
        true
    }

    /// The minimum-surplus candidate `(α, S, id)` over queued tasks for
    /// which `ready` holds, under virtual time `v`, with the exact
    /// (surplus, start-tag, id) tie-break of the original algorithm.
    /// Also returns the number of queue entries examined.
    ///
    /// Per bucket only the cached head and any non-ready (currently
    /// running) entries in front of it are visited — the bucket's
    /// `(S, id)` order *is* the tie-break order, so the first ready
    /// entry is the bucket's exact minimum. The tree is walked only
    /// when the head is not ready. Buckets whose head already exceeds
    /// the best surplus are skipped without scanning.
    pub fn min_surplus(
        &self,
        v: Fixed,
        ready: impl Fn(TaskId) -> bool,
    ) -> (Option<(Fixed, Fixed, TaskId)>, u64) {
        let mut best: Option<(Fixed, Fixed, TaskId)> = None;
        let mut scanned = 0u64;
        for bucket in &self.buckets {
            scanned += 1;
            let (s, id) = bucket.head;
            let alpha = bucket.phi.mul_fixed(s - v);
            // φ·(head_S − v) lower-bounds every surplus in this bucket;
            // a strictly larger bound can never win (ties could still
            // win on the (S, id) tie-break).
            if best.is_some_and(|(ba, _, _)| alpha > ba) {
                continue;
            }
            // First ready entry: the bucket's minimum (α, S, id) — later
            // entries are ≥ in (S, id) and surplus is non-decreasing in S.
            let cand = if ready(id) {
                Some((alpha, s, id))
            } else {
                bucket.set.iter().skip(1).find_map(|&(s, id)| {
                    scanned += 1;
                    ready(id).then(|| (bucket.phi.mul_fixed(s - v), s, id))
                })
            };
            if cand.is_some_and(|c| best.is_none_or(|b| c < b)) {
                best = cand;
            }
        }
        (best, scanned)
    }

    /// The maximum-surplus candidate `(α, S, id)` over queued tasks for
    /// which `ready` holds, under virtual time `v` — the mirror image
    /// of [`BucketQueue::min_surplus`], used to nominate the task a
    /// shard can best afford to give up when another shard steals work.
    /// Within one bucket surplus is non-decreasing in `(S, id)`, so per
    /// bucket only the tail and any non-ready entries behind it are
    /// visited, and buckets whose tail already lower-bounds below the
    /// best are skipped.
    pub fn max_surplus(
        &self,
        v: Fixed,
        ready: impl Fn(TaskId) -> bool,
    ) -> Option<(Fixed, Fixed, TaskId)> {
        let mut best: Option<(Fixed, Fixed, TaskId)> = None;
        for bucket in &self.buckets {
            if let (Some(&(tail_s, _)), Some((ba, _, _))) = (bucket.set.last(), best) {
                // φ·(tail_S − v) upper-bounds every surplus in this
                // bucket; a strictly smaller bound can never win.
                if bucket.phi.mul_fixed(tail_s - v) < ba {
                    continue;
                }
            }
            for &(s, id) in bucket.set.iter().rev() {
                if !ready(id) {
                    continue;
                }
                // Last ready entry: the bucket's maximum (α, S, id).
                let cand = (bucket.phi.mul_fixed(s - v), s, id);
                if best.is_none_or(|b| cand > b) {
                    best = Some(cand);
                }
                break;
            }
        }
        best
    }

    /// Debug invariant check: buckets are strictly `φ`-sorted, every one
    /// is non-empty with its cached head equal to its first entry, the
    /// index matches the buckets, `v` as of the last pick is at most the
    /// virtual time, and every entry sits at the start tag and in the
    /// `φ` bucket its owner records (`owner` returns both), with a start
    /// tag of at least `v`, so no fresh surplus is negative (§2.3).
    #[doc(hidden)]
    pub fn check_invariants(&self, owner: impl Fn(TaskId) -> (Fixed, Fixed)) {
        let sorted = self.buckets.windows(2).all(|w| w[0].phi < w[1].phi);
        assert!(sorted, "buckets out of φ order");
        let v = self.virtual_time();
        assert!(self.v <= v, "virtual time {v:?} behind the last pick's");
        let mut seen = 0usize;
        for bucket in &self.buckets {
            assert_eq!(
                Some(&bucket.head),
                bucket.set.first(),
                "stale head for phi {}",
                bucket.phi
            );
            for &(key, id) in &bucket.set {
                seen += 1;
                let &(iphi, istart) = self.index.get(&id).expect("task missing from index");
                assert_eq!(iphi, bucket.phi, "index phi mismatch for {id}");
                assert_eq!(istart, key, "index start mismatch for {id}");
                let (start_tag, phi) = owner(id);
                assert_eq!(key, start_tag, "stale start-tag key for {id}");
                assert_eq!(bucket.phi, phi, "{id} in the wrong weight-class bucket");
                assert!(key >= v, "start tag of {id} below virtual time");
            }
        }
        assert_eq!(seen, self.index.len(), "index/bucket length mismatch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fx(v: i64) -> Fixed {
        Fixed::from_int(v)
    }

    #[test]
    fn insert_groups_by_phi() {
        let mut q = BucketQueue::new();
        q.insert(TaskId(1), fx(1), fx(10));
        q.insert(TaskId(2), fx(2), fx(5));
        q.insert(TaskId(3), fx(1), fx(7));
        assert_eq!(q.len(), 3);
        assert_eq!(q.num_buckets(), 2);
        q.check_invariants(|id| match id.0 {
            1 => (fx(10), fx(1)),
            2 => (fx(5), fx(2)),
            _ => (fx(7), fx(1)),
        });
    }

    #[test]
    fn min_surplus_compares_bucket_heads() {
        let mut q = BucketQueue::new();
        // phi=1: S=10 → α=10; phi=3: S=4 → α=12. Light class wins.
        q.insert(TaskId(1), fx(1), fx(10));
        q.insert(TaskId(2), fx(3), fx(4));
        let (best, _) = q.min_surplus(Fixed::ZERO, |_| true);
        assert_eq!(best, Some((fx(10), fx(10), TaskId(1))));
        // Raise v: α₁ = 1·(10−4) = 6, α₂ = 3·(4−4) = 0. Heavy class wins
        // — the cross-class order flipped without any key update.
        let (best, _) = q.min_surplus(fx(4), |_| true);
        assert_eq!(best, Some((fx(0), fx(4), TaskId(2))));
    }

    #[test]
    fn min_surplus_ties_break_by_start_then_id() {
        let mut q = BucketQueue::new();
        // Same surplus 6 via different classes: (6, S=6, T9) vs
        // (6, S=3, T5): smaller start tag wins.
        q.insert(TaskId(9), fx(1), fx(6));
        q.insert(TaskId(5), fx(2), fx(3));
        let (best, _) = q.min_surplus(Fixed::ZERO, |_| true);
        assert_eq!(best, Some((fx(6), fx(3), TaskId(5))));
        // Identical (α, S) within one class: min id wins regardless of
        // insertion order.
        let mut q = BucketQueue::new();
        q.insert(TaskId(7), fx(1), fx(2));
        q.insert(TaskId(3), fx(1), fx(2));
        let (best, _) = q.min_surplus(Fixed::ZERO, |_| true);
        assert_eq!(best, Some((fx(2), fx(2), TaskId(3))));
    }

    #[test]
    fn min_surplus_tie_runs_cost_one_probe_per_bucket() {
        // A whole class tied at one start tag (the phase-locked lockstep
        // regime): the pick must examine O(1) entries per bucket, not
        // the tie run.
        let mut q = BucketQueue::new();
        for i in 0..1000u64 {
            q.insert(TaskId(i), fx(1), fx(0));
        }
        for i in 1000..2000u64 {
            q.insert(TaskId(i), fx(7), fx(0));
        }
        let (best, scanned) = q.min_surplus(Fixed::ZERO, |_| true);
        assert_eq!(best, Some((fx(0), fx(0), TaskId(0))));
        assert!(scanned <= 4, "tie run was scanned: {scanned} entries");
    }

    #[test]
    fn min_surplus_skips_non_ready_heads() {
        let mut q = BucketQueue::new();
        q.insert(TaskId(1), fx(1), fx(0));
        q.insert(TaskId(2), fx(1), fx(5));
        let (best, _) = q.min_surplus(Fixed::ZERO, |id| id != TaskId(1));
        assert_eq!(best, Some((fx(5), fx(5), TaskId(2))));
        let (none, _) = q.min_surplus(Fixed::ZERO, |_| false);
        assert_eq!(none, None);
    }

    #[test]
    fn set_phi_migrates_between_buckets() {
        let mut q = BucketQueue::new();
        q.insert(TaskId(1), fx(5), fx(100));
        q.insert(TaskId(2), fx(5), fx(50));
        assert!(q.set_phi(TaskId(1), fx(2)));
        assert!(!q.set_phi(TaskId(1), fx(2)), "no-op migration");
        assert_eq!(q.num_buckets(), 2);
        // The start tag is kept across the move.
        q.check_invariants(|id| {
            if id.0 == 1 {
                (fx(100), fx(2))
            } else {
                (fx(50), fx(5))
            }
        });
        q.remove(TaskId(2));
        assert_eq!(q.num_buckets(), 1, "empty bucket pruned");
        q.check_invariants(|_| (fx(100), fx(2)));
    }

    #[test]
    fn update_start_repositions_within_bucket() {
        let mut q = BucketQueue::new();
        q.insert(TaskId(1), fx(1), fx(1));
        q.insert(TaskId(2), fx(1), fx(2));
        q.update_start(TaskId(1), fx(9));
        let (best, _) = q.min_surplus(Fixed::ZERO, |_| true);
        assert_eq!(best, Some((fx(2), fx(2), TaskId(2))));
        q.check_invariants(|id| (if id.0 == 1 { fx(9) } else { fx(2) }, fx(1)));
        // The cached head follows an entry that moves in front of it, and
        // stays put when a later entry moves further back.
        q.update_start(TaskId(1), fx(0));
        assert_eq!(q.virtual_time(), fx(0));
        q.update_start(TaskId(2), fx(5));
        q.check_invariants(|id| (if id.0 == 1 { fx(0) } else { fx(5) }, fx(1)));
    }

    #[test]
    fn min_start_and_start_iter_span_buckets() {
        let mut q = BucketQueue::new();
        assert_eq!(q.virtual_time(), Fixed::ZERO);
        q.insert(TaskId(1), fx(1), fx(10));
        q.insert(TaskId(2), fx(7), fx(3));
        q.insert(TaskId(3), fx(1), fx(5));
        assert_eq!(q.virtual_time(), fx(3));
    }

    #[test]
    fn max_surplus_mirrors_min_surplus() {
        let mut q = BucketQueue::new();
        q.insert(TaskId(1), fx(1), fx(10)); // α = 10
        q.insert(TaskId(2), fx(2), fx(3)); // α = 6
        q.insert(TaskId(3), fx(4), fx(3)); // α = 12
        assert_eq!(
            q.max_surplus(Fixed::ZERO, |_| true),
            Some((fx(12), fx(3), TaskId(3)))
        );
        // Filtering out the heavy tail falls back to the next bucket max.
        assert_eq!(
            q.max_surplus(Fixed::ZERO, |id| id != TaskId(3)),
            Some((fx(10), fx(10), TaskId(1)))
        );
        assert_eq!(q.max_surplus(Fixed::ZERO, |_| false), None);
        // Raising v flips the cross-class order, with no key updates.
        assert_eq!(
            q.max_surplus(fx(3), |_| true),
            Some((fx(7), fx(10), TaskId(1)))
        );
    }

    #[test]
    fn entries_start_at_v_and_v_freezes_when_the_queue_empties() {
        let mut q = BucketQueue::new();
        let mut stats = SchedStats::default();
        // An arrival starts at v; an entry with a later finish tag keeps it.
        assert_eq!(q.enter(TaskId(1), fx(1), Fixed::ZERO), Fixed::ZERO);
        assert_eq!(q.enter(TaskId(2), fx(2), fx(6)), fx(6));
        assert_eq!(q.pick(&mut stats, |_| true), Some(TaskId(1)));
        q.update_start(TaskId(1), fx(10));
        // The pick advances v to the least start tag, 6: T2's surplus
        // 2·(6 − 6) = 0 beats T1's 1·(10 − 6) = 4.
        assert_eq!(q.pick(&mut stats, |_| true), Some(TaskId(2)));
        assert_eq!((q.virtual_time(), stats.vt_changes), (fx(6), 1));
        assert_eq!(q.surplus(fx(1), fx(10)), fx(4));
        q.leave(TaskId(2), fx(8));
        q.leave(TaskId(1), fx(12));
        // Idle: v is the last finish tag, and a sleeper's earlier finish
        // tag is floored at it.
        assert_eq!(q.virtual_time(), fx(12));
        assert_eq!(q.enter(TaskId(2), fx(2), fx(8)), fx(12));
        q.check_invariants(|_| (fx(12), fx(2)));
    }

    #[test]
    fn bucket_churn_prunes_empty_classes() {
        let mut q = BucketQueue::new();
        for round in 0..5 {
            q.insert(TaskId(1), fx(1 + round % 2), fx(round));
            q.remove(TaskId(1));
        }
        assert!(q.is_empty());
        assert_eq!(q.num_buckets(), 0);
    }
}
