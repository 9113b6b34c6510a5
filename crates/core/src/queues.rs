//! Indexed run-queue structures.
//!
//! The kernel implementation (§3.1) keeps three doubly-linked lists of
//! runnable threads: sorted by weight (descending), by start tag
//! (ascending) and by surplus (ascending). Insertions use a sorted scan
//! — O(position) per arrival, wakeup or tag update — which is exactly
//! the event-path cost this module eliminates.
//!
//! [`IndexedList`] keeps the same contract as those kernel lists — a
//! totally ordered sequence with FIFO tie order, an arena-backed node
//! per task, and an owner-held [`NodeRef`] handle — but layers a
//! deterministic skip-list index over the bottom-level doubly-linked
//! list. Costs:
//!
//! * `insert` / `update_key`: O(log n) expected search instead of the
//!   O(position) sorted scan;
//! * `remove`: O(1) expected (the node stores its own tower links, so
//!   unlinking touches only its own height, expected constant);
//! * `head` / `tail`: O(1) — the bottom level is still a plain
//!   doubly-linked list.
//!
//! The index heights come from a fixed-seed xorshift64* stream per
//! list, so runs are bit-for-bit reproducible: rebuilding a scheduler
//! and replaying the same events yields the same structure, the same
//! step counts, and the same iteration order.

use crate::fixed::Fixed;
use crate::task::TaskId;

const NIL: u32 = u32::MAX;

/// The O(log) cost estimate for one balanced-tree operation over `len`
/// entries: the comparison depth, floor(log2 len) + 1. Shared by every
/// event-path step counter (bucket queue, weight-class map, clamp-set
/// probes, [`KeyCounter`]) so the CI-gated `steps_per_event` metric
/// uses one cost model.
pub(crate) fn tree_steps(len: usize) -> u64 {
    (usize::BITS - len.leading_zeros()) as u64 + 1
}

/// Tallest tower a node can carry; enough index levels for ~10⁶ nodes
/// at the 1/2 promotion rate before the top level saturates.
const MAX_HEIGHT: usize = 24;

/// A handle to a node in an [`IndexedList`], held by the task's owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeRef(u32);

#[derive(Debug, Clone)]
struct Node {
    key: Fixed,
    id: TaskId,
    /// Interleaved tower links, one heap allocation per node:
    /// `links[2l]` is the level-`l` successor, `links[2l + 1]` the
    /// level-`l` predecessor; level 0 is the complete doubly-linked
    /// list, upper levels are the index.
    links: Vec<u32>,
    linked: bool,
}

impl Node {
    fn height(&self) -> usize {
        self.links.len() / 2
    }

    fn next(&self, l: usize) -> u32 {
        self.links[2 * l]
    }

    fn prev(&self, l: usize) -> u32 {
        self.links[2 * l + 1]
    }

    fn set_next(&mut self, l: usize, v: u32) {
        self.links[2 * l] = v;
    }

    fn set_prev(&mut self, l: usize, v: u32) {
        self.links[2 * l + 1] = v;
    }
}

/// Direction of the sort order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    /// Smallest key at the head (start-tag and surplus queues).
    Ascending,
    /// Largest key at the head (the weight queue).
    Descending,
}

/// An arena-backed skip list keyed by [`Fixed`].
///
/// Ties are FIFO: a newly inserted node goes after existing nodes with
/// an equal key, matching the "ties are broken arbitrarily" licence in
/// §2.3 while keeping behaviour deterministic — and identical to the
/// sorted-scan list this structure replaced.
#[derive(Debug, Clone)]
pub struct IndexedList {
    nodes: Vec<Node>,
    free: Vec<u32>,
    /// Head pointer per level; `head[0]` is the list head.
    head: [u32; MAX_HEIGHT],
    /// Bottom-level tail.
    tail: u32,
    /// Number of index levels currently in use (≥ 1 when non-empty).
    levels: usize,
    len: usize,
    order: Order,
    /// Deterministic tower-height stream (xorshift64*).
    rng: u64,
    steps: u64,
}

impl IndexedList {
    /// Creates an empty list with the given order.
    pub fn new(order: Order) -> IndexedList {
        IndexedList {
            nodes: Vec::new(),
            free: Vec::new(),
            head: [NIL; MAX_HEIGHT],
            tail: NIL,
            levels: 1,
            len: 0,
            order,
            rng: 0x9e37_79b9_7f4a_7c15,
            steps: 0,
        }
    }

    /// Number of linked nodes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no nodes are linked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Cumulative structure steps (search hops and link/unlink level
    /// work) across all mutations; the event-path cost counter read by
    /// the policies.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// `a` sorts strictly before `b` under this list's order.
    fn before(&self, a: Fixed, b: Fixed) -> bool {
        match self.order {
            Order::Ascending => a < b,
            Order::Descending => a > b,
        }
    }

    /// Next deterministic tower height: geometric with promotion
    /// probability 1/2, capped at [`MAX_HEIGHT`].
    fn random_height(&mut self) -> usize {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        let r = x.wrapping_mul(0x2545_f491_4f6c_dd1d);
        (1 + r.trailing_ones() as usize).min(MAX_HEIGHT)
    }

    /// The successor of `at` on level `l`; `NIL` stands for the head
    /// sentinel.
    fn next_of(&self, at: u32, l: usize) -> u32 {
        if at == NIL {
            self.head[l]
        } else {
            self.nodes[at as usize].next(l)
        }
    }

    fn alloc(&mut self, key: Fixed, id: TaskId) -> u32 {
        let height = self.random_height();
        if let Some(idx) = self.free.pop() {
            let n = &mut self.nodes[idx as usize];
            n.key = key;
            n.id = id;
            n.links.clear();
            n.links.resize(2 * height, NIL);
            n.linked = false;
            idx
        } else {
            self.nodes.push(Node {
                key,
                id,
                links: vec![NIL; 2 * height],
                linked: false,
            });
            (self.nodes.len() - 1) as u32
        }
    }

    /// Inserts `(key, id)` at its sorted position in O(log n) expected
    /// hops. Returns a handle for later O(1) removal.
    pub fn insert(&mut self, key: Fixed, id: TaskId) -> NodeRef {
        let idx = self.alloc(key, id);
        self.link_sorted(idx);
        NodeRef(idx)
    }

    /// Finds the insertion point for the node's key on every level and
    /// splices the node in after all equal keys (FIFO tie order).
    fn link_sorted(&mut self, idx: u32) {
        let key = self.nodes[idx as usize].key;
        let height = self.nodes[idx as usize].height();
        debug_assert!(!self.nodes[idx as usize].linked);
        if height > self.levels {
            self.levels = height;
        }
        // Walk down from the top level, advancing while the next node
        // sorts at-or-before `key` (past equals: FIFO).
        let mut update = [NIL; MAX_HEIGHT];
        let mut at = NIL;
        for l in (0..self.levels).rev() {
            self.steps += 1;
            loop {
                let nxt = self.next_of(at, l);
                if nxt == NIL || self.before(key, self.nodes[nxt as usize].key) {
                    break;
                }
                at = nxt;
                self.steps += 1;
            }
            update[l] = at;
        }
        for (l, &after) in update.iter().enumerate().take(height) {
            let next = self.next_of(after, l);
            {
                let n = &mut self.nodes[idx as usize];
                n.set_prev(l, after);
                n.set_next(l, next);
            }
            if after == NIL {
                self.head[l] = idx;
            } else {
                self.nodes[after as usize].set_next(l, idx);
            }
            if next != NIL {
                self.nodes[next as usize].set_prev(l, idx);
            } else if l == 0 {
                self.tail = idx;
            }
        }
        self.nodes[idx as usize].linked = true;
        self.len += 1;
    }

    fn unlink_idx(&mut self, idx: u32) {
        debug_assert!(self.nodes[idx as usize].linked);
        let height = self.nodes[idx as usize].height();
        for l in 0..height {
            self.steps += 1;
            let (prev, next) = {
                let n = &self.nodes[idx as usize];
                (n.prev(l), n.next(l))
            };
            if prev == NIL {
                self.head[l] = next;
            } else {
                self.nodes[prev as usize].set_next(l, next);
            }
            if next == NIL {
                if l == 0 {
                    self.tail = prev;
                }
            } else {
                self.nodes[next as usize].set_prev(l, prev);
            }
            let n = &mut self.nodes[idx as usize];
            n.set_prev(l, NIL);
            n.set_next(l, NIL);
        }
        self.nodes[idx as usize].linked = false;
        self.len -= 1;
        while self.levels > 1 && self.head[self.levels - 1] == NIL {
            self.levels -= 1;
        }
    }

    /// Removes the node and frees its slot. The handle must not be
    /// reused. O(1) expected: only the node's own tower is touched.
    pub fn remove(&mut self, r: NodeRef) {
        self.unlink_idx(r.0);
        self.free.push(r.0);
    }

    /// Changes a node's key and moves it to its new sorted position in
    /// O(log n) expected hops (the sorted-scan list paid O(displacement)
    /// here, which degenerated to O(n) for wakeups landing near the
    /// virtual time).
    pub fn update_key(&mut self, r: NodeRef, key: Fixed) {
        let idx = r.0;
        self.unlink_idx(idx);
        self.nodes[idx as usize].key = key;
        self.link_sorted(idx);
    }

    /// Returns the key currently stored for the node.
    pub fn key(&self, r: NodeRef) -> Fixed {
        self.nodes[r.0 as usize].key
    }

    /// The task at the head of the list, if any. O(1).
    pub fn head(&self) -> Option<(Fixed, TaskId)> {
        if self.head[0] == NIL {
            None
        } else {
            let n = &self.nodes[self.head[0] as usize];
            Some((n.key, n.id))
        }
    }

    /// The task at the tail of the list, if any. O(1).
    pub fn tail(&self) -> Option<(Fixed, TaskId)> {
        if self.tail == NIL {
            None
        } else {
            let n = &self.nodes[self.tail as usize];
            Some((n.key, n.id))
        }
    }

    /// Iterates `(key, id)` pairs in list order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            list: self,
            at: self.head[0],
        }
    }

    /// Iterates `(key, id)` pairs from the tail backwards.
    pub fn iter_rev(&self) -> IterRev<'_> {
        IterRev {
            list: self,
            at: self.tail,
        }
    }

    /// Debug invariant check: every level is sorted and consistent with
    /// the level below, pointers line up, and `len` matches.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let mut count = 0;
        for l in 0..MAX_HEIGHT {
            let mut at = self.head[l];
            let mut prev_key: Option<Fixed> = None;
            let mut prev_idx = NIL;
            while at != NIL {
                let n = &self.nodes[at as usize];
                assert!(n.linked, "unlinked node reachable at level {l}");
                assert!(n.height() > l, "node too short for level {l}");
                assert_eq!(n.prev(l), prev_idx, "prev pointer corrupt at level {l}");
                if let Some(pk) = prev_key {
                    assert!(
                        !self.before(n.key, pk),
                        "level {l} out of order: {pk:?} then {:?}",
                        n.key
                    );
                }
                prev_key = Some(n.key);
                prev_idx = at;
                at = n.next(l);
                if l == 0 {
                    count += 1;
                }
            }
            if l == 0 {
                assert_eq!(self.tail, prev_idx, "tail pointer corrupt");
            }
            if l >= self.levels {
                assert_eq!(self.head[l], NIL, "level above `levels` in use");
            }
        }
        assert_eq!(count, self.len, "len mismatch");
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

/// Forward iterator over an [`IndexedList`].
pub struct Iter<'a> {
    list: &'a IndexedList,
    at: u32,
}

impl Iterator for Iter<'_> {
    type Item = (Fixed, TaskId);
    fn next(&mut self) -> Option<Self::Item> {
        if self.at == NIL {
            return None;
        }
        let n = &self.list.nodes[self.at as usize];
        self.at = n.next(0);
        Some((n.key, n.id))
    }
}

/// Reverse iterator over an [`IndexedList`].
pub struct IterRev<'a> {
    list: &'a IndexedList,
    at: u32,
}

impl Iterator for IterRev<'_> {
    type Item = (Fixed, TaskId);
    fn next(&mut self) -> Option<Self::Item> {
        if self.at == NIL {
            return None;
        }
        let n = &self.list.nodes[self.at as usize];
        self.at = n.prev(0);
        Some((n.key, n.id))
    }
}

#[cfg(test)]
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
        assert_eq!(l.tail().unwrap().1, TaskId(3));
        l.check_invariants();
    }

    #[test]
    fn descending_insert_orders_by_key() {
        let mut l = IndexedList::new(Order::Descending);
        l.insert(Fixed::from_int(1), TaskId(1));
        l.insert(Fixed::from_int(10), TaskId(2));
        l.insert(Fixed::from_int(5), TaskId(3));
        assert_eq!(ids(&l), vec![2, 3, 1]);
        l.check_invariants();
    }

    #[test]
    fn remove_unlinks_in_o1() {
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
    fn iter_rev_matches_forward() {
        let mut l = IndexedList::new(Order::Ascending);
        for i in [3i64, 1, 4, 1, 5] {
            l.insert(Fixed::from_int(i), TaskId(i as u64 * 10));
        }
        let fwd: Vec<_> = l.iter().collect();
        let mut rev: Vec<_> = l.iter_rev().collect();
        rev.reverse();
        assert_eq!(fwd, rev);
    }

    #[test]
    fn search_cost_is_logarithmic_not_linear() {
        // 4096 keys inserted in ascending order, then mid-range
        // insertions: each must cost far fewer hops than the ~n/2 a
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
            "mid-list insert cost {per_insert:.1} hops — not logarithmic"
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
