//! Indexed run-queue structures.
//!
//! The kernel implementation (§3.1) keeps three doubly-linked lists of
//! runnable threads: sorted by weight (descending), by start tag
//! (ascending) and by surplus (ascending). Insertions use a sorted scan
//! — O(position) per arrival, wakeup or tag update — which is exactly
//! the event-path cost this module eliminates.
//!
//! [`IndexedList`] keeps the same contract as those kernel lists — a
//! totally ordered sequence with FIFO tie order, an arena slot per
//! task, and an owner-held [`NodeRef`] handle — but orders the slots in
//! a std `BTreeSet` of `(key, stamp, slot)` entries, the ordered
//! set the bucket queue and the weight-class map use too. `insert`,
//! `update_key` and `remove` are O(log n) instead of the O(position)
//! scan. The stamp is a per-list counter taken on every insert and
//! re-key, so a node placed later sorts after every equal key already
//! present, and replaying the same events yields the same order and the
//! same step counts.

use std::collections::BTreeSet;

use crate::fixed::Fixed;
use crate::task::TaskId;

/// The O(log) cost estimate for one balanced-tree operation over `len`
/// entries: the comparison depth, floor(log2 len) + 1. Shared by every
/// event-path step counter ([`IndexedList`], bucket queue, weight-class
/// map, clamp-set probes, [`KeyCounter`]) so the CI-gated
/// `steps_per_event` metric uses one cost model.
pub(crate) fn tree_steps(len: usize) -> u64 {
    (usize::BITS - len.leading_zeros()) as u64 + 1
}

/// A handle to a node in an [`IndexedList`], held by the task's owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeRef(u32);

/// One arena slot: the key the owner sees, the stamp that places the
/// node among equal keys, and its task.
#[derive(Debug, Clone)]
struct Node {
    key: Fixed,
    stamp: u64,
    id: TaskId,
}

/// Direction of the sort order: smallest key at the head, the only
/// order the tag queues use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    /// Smallest key at the head (start-tag and surplus queues).
    Ascending,
}

/// A B-tree-ordered arena of nodes keyed by [`Fixed`].
///
/// Ties are FIFO: a newly inserted or re-keyed node goes after existing
/// nodes with an equal key, matching the "ties are broken arbitrarily"
/// licence in §2.3 while keeping behaviour deterministic — and
/// identical to the sorted-scan list this structure replaced.
#[derive(Debug, Clone)]
pub struct IndexedList {
    /// `(key, stamp, slot)` per linked node.
    tree: BTreeSet<(Fixed, u64, u32)>,
    nodes: Vec<Node>,
    free: Vec<u32>,
    /// The next stamp to hand out.
    stamp: u64,
    steps: u64,
}

impl IndexedList {
    /// Creates an empty list (ascending, [`Order`]'s one variant).
    pub fn new(_: Order) -> IndexedList {
        IndexedList {
            tree: BTreeSet::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            stamp: 0,
            steps: 0,
        }
    }

    /// Number of linked nodes.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// True if no nodes are linked.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Cumulative structure steps: the comparison depth, floor(log2
    /// len) + 1, of every B-tree link and unlink, the cost model of every
    /// ordered structure in this crate. Read by the policies.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The tree entry slot `idx` is linked under.
    fn entry(&self, idx: u32) -> (Fixed, u64, u32) {
        let n = &self.nodes[idx as usize];
        (n.key, n.stamp, idx)
    }

    /// Stamps slot `idx` as the newest node and links it, after every
    /// equal key already present (FIFO tie order).
    fn link(&mut self, idx: u32) {
        self.steps += tree_steps(self.tree.len());
        self.nodes[idx as usize].stamp = self.stamp;
        self.stamp += 1;
        self.tree.insert(self.entry(idx));
    }

    fn unlink(&mut self, idx: u32) {
        self.steps += tree_steps(self.tree.len());
        let linked = self.tree.remove(&self.entry(idx));
        assert!(linked, "stale NodeRef: slot {idx} is not linked");
    }

    /// Inserts `(key, id)` at its sorted position in O(log n). Returns a
    /// handle for later removal or re-keying.
    pub fn insert(&mut self, key: Fixed, id: TaskId) -> NodeRef {
        let node = Node { key, stamp: 0, id };
        let idx = if let Some(idx) = self.free.pop() {
            self.nodes[idx as usize] = node;
            idx
        } else {
            self.nodes.push(node);
            self.nodes.len() as u32 - 1
        };
        self.link(idx);
        NodeRef(idx)
    }

    /// Removes the node and frees its slot in O(log n). The handle must
    /// not be reused.
    pub fn remove(&mut self, r: NodeRef) {
        self.unlink(r.0);
        self.free.push(r.0);
    }

    /// Changes a node's key and moves it to its new sorted position in
    /// O(log n) (the sorted-scan list paid O(displacement) here, which
    /// degenerated to O(n) for wakeups landing near the virtual time).
    pub fn update_key(&mut self, r: NodeRef, key: Fixed) {
        self.unlink(r.0);
        self.nodes[r.0 as usize].key = key;
        self.link(r.0);
    }

    /// Returns the key currently stored for the node.
    pub fn key(&self, r: NodeRef) -> Fixed {
        self.nodes[r.0 as usize].key
    }

    /// The `(key, id)` of the node a tree entry names.
    fn node(&self, &(_, _, idx): &(Fixed, u64, u32)) -> (Fixed, TaskId) {
        let n = &self.nodes[idx as usize];
        (n.key, n.id)
    }

    /// The task at the head of the list, if any.
    pub fn head(&self) -> Option<(Fixed, TaskId)> {
        self.tree.first().map(|e| self.node(e))
    }

    /// Iterates `(key, id)` pairs in list order.
    pub fn iter(&self) -> impl Iterator<Item = (Fixed, TaskId)> + '_ {
        self.tree.iter().map(|e| self.node(e))
    }

    /// Debug invariant check: every tree entry is its slot's current
    /// `(key, stamp, slot)`, stamps come from the counter, and
    /// every slot is either linked or free, never both.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        for e in &self.tree {
            assert_eq!(*e, self.entry(e.2), "tree entry stale for slot {}", e.2);
            assert!(e.1 < self.stamp, "stamp {} not yet handed out", e.1);
        }
        let linked = |&idx: &u32| self.tree.contains(&self.entry(idx));
        assert!(!self.free.iter().any(linked), "a free slot is linked");
        let slots = self.tree.len() + self.free.len();
        assert_eq!(slots, self.nodes.len(), "slot leaked or freed twice");
    }
}

/// An ordered multiset of [`Fixed`] keys with an O(log n) minimum.
///
/// Policies that key their run queue by one tag but define the virtual
/// time as the minimum of *another* tag (WFQ orders by finish tag but
/// floors wakeups at the minimum start tag; BVT orders by effective
/// virtual time but floors at the minimum actual virtual time) used to
/// recompute that minimum with a full scan over every attached task on
/// each arrival and wakeup — an O(n) event-path residue. This counter
/// tracks the runnable tags incrementally instead.
#[derive(Debug, Clone, Default)]
pub struct KeyCounter {
    keys: std::collections::BTreeMap<Fixed, u32>,
    steps: u64,
}

impl KeyCounter {
    /// Creates an empty counter.
    pub fn new() -> KeyCounter {
        KeyCounter::default()
    }

    /// Cumulative structure steps (the comparison depth of each map
    /// operation); the event-path cost counter read by the policies.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The O(log) cost estimate of one map operation at the current
    /// number of distinct keys.
    fn op_steps(&self) -> u64 {
        tree_steps(self.keys.len())
    }

    /// Adds one occurrence of `key`.
    pub fn insert(&mut self, key: Fixed) {
        self.steps += self.op_steps();
        *self.keys.entry(key).or_insert(0) += 1;
    }

    /// Removes one occurrence of `key`.
    ///
    /// # Panics
    ///
    /// Panics if `key` is not tracked.
    pub fn remove(&mut self, key: Fixed) {
        self.steps += self.op_steps();
        let count = self.keys.get_mut(&key).expect("removing untracked key");
        *count -= 1;
        if *count == 0 {
            self.keys.remove(&key);
        }
    }

    /// Moves one occurrence from `old` to `new`.
    pub fn update(&mut self, old: Fixed, new: Fixed) {
        if old != new {
            self.remove(old);
            self.insert(new);
        }
    }

    /// The minimum tracked key, in O(log n).
    pub fn min(&self) -> Option<Fixed> {
        self.keys.first_key_value().map(|(&k, _)| k)
    }

    /// Every distinct key with its multiplicity, ascending; for
    /// invariant checks.
    pub fn iter(&self) -> impl Iterator<Item = (Fixed, u32)> + '_ {
        self.keys.iter().map(|(&k, &n)| (k, n))
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests build bare lists")]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ids(list: &IndexedList) -> Vec<u64> {
        list.iter().map(|(_, id)| id.0).collect()
    }

    #[test]
    fn ascending_insert_orders_by_key() {
        let mut l = IndexedList::new(Order::Ascending);
        l.insert(Fixed::from_int(5), TaskId(1));
        l.insert(Fixed::from_int(2), TaskId(2));
        l.insert(Fixed::from_int(8), TaskId(3));
        l.insert(Fixed::from_int(2), TaskId(4)); // tie: after T2
        assert_eq!(ids(&l), vec![2, 4, 1, 3]);
        assert_eq!(l.head().unwrap().1, TaskId(2));
        l.check_invariants();
    }

    #[test]
    fn remove_unlinks_from_any_position() {
        let mut l = IndexedList::new(Order::Ascending);
        let a = l.insert(Fixed::from_int(1), TaskId(1));
        let b = l.insert(Fixed::from_int(2), TaskId(2));
        let c = l.insert(Fixed::from_int(3), TaskId(3));
        l.remove(b);
        assert_eq!(ids(&l), vec![1, 3]);
        l.remove(a);
        assert_eq!(ids(&l), vec![3]);
        l.remove(c);
        assert!(l.is_empty());
        assert_eq!(l.head(), None);
        l.check_invariants();
    }

    #[test]
    fn slots_are_reused_after_removal() {
        let mut l = IndexedList::new(Order::Ascending);
        let a = l.insert(Fixed::from_int(1), TaskId(1));
        l.remove(a);
        let _b = l.insert(Fixed::from_int(2), TaskId(2));
        // The arena should not have grown.
        assert_eq!(l.nodes.len(), 1);
    }

    #[test]
    fn update_key_repositions() {
        let mut l = IndexedList::new(Order::Ascending);
        let a = l.insert(Fixed::from_int(1), TaskId(1));
        let _b = l.insert(Fixed::from_int(2), TaskId(2));
        let _c = l.insert(Fixed::from_int(3), TaskId(3));
        l.update_key(a, Fixed::from_int(10));
        assert_eq!(ids(&l), vec![2, 3, 1]);
        assert_eq!(l.key(a), Fixed::from_int(10));
        l.check_invariants();
    }

    #[test]
    fn tie_updates_go_after_equals() {
        let mut l = IndexedList::new(Order::Ascending);
        let a = l.insert(Fixed::from_int(5), TaskId(1));
        l.insert(Fixed::from_int(5), TaskId(2));
        l.update_key(a, Fixed::from_int(5));
        // Re-inserting an equal key lands after the existing run.
        assert_eq!(ids(&l), vec![2, 1]);
    }

    #[test]
    fn search_cost_is_logarithmic_not_linear() {
        // 4096 keys inserted in ascending order, then mid-range
        // insertions: each must cost far fewer steps than the ~n/2 a
        // sorted scan from either end would pay.
        let mut l = IndexedList::new(Order::Ascending);
        for i in 0..4096 {
            l.insert(Fixed::from_int(2 * i), TaskId(i as u64));
        }
        let before = l.steps();
        for i in 0..64i64 {
            l.insert(
                Fixed::from_int(2 * (i * 61 % 4096) + 1),
                TaskId(90_000 + i as u64),
            );
        }
        let per_insert = (l.steps() - before) as f64 / 64.0;
        assert!(
            per_insert < 200.0,
            "mid-list insert cost {per_insert:.1} steps — not logarithmic"
        );
        l.check_invariants();
    }

    proptest! {
        #[test]
        fn random_ops_preserve_invariants(ops in proptest::collection::vec((0u8..3, 0i64..100), 1..200)) {
            let mut l = IndexedList::new(Order::Ascending);
            let mut live: Vec<NodeRef> = Vec::new();
            let mut next_id = 0u64;
            for (op, val) in ops {
                match op {
                    0 => {
                        next_id += 1;
                        live.push(l.insert(Fixed::from_int(val), TaskId(next_id)));
                    }
                    1 => {
                        if !live.is_empty() {
                            let r = live.remove(val as usize % live.len());
                            l.remove(r);
                        }
                    }
                    _ => {
                        if !live.is_empty() {
                            let r = live[val as usize % live.len()];
                            l.update_key(r, Fixed::from_int(val));
                        }
                    }
                }
                l.check_invariants();
            }
            prop_assert_eq!(l.len(), live.len());
        }
    }
}
