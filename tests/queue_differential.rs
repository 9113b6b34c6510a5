//! Differential test for the indexed run-queue rewrite.
//!
//! The B-tree-indexed slot arena replaced the §3.1 sorted-scan linked
//! list under every tag-ordered run queue (SFQ start tags, WFQ finish
//! tags, stride passes, BVT effective virtual times) and is a pure
//! data-structure change: the *sequence* a queue presents must be
//! identical, including the FIFO order of equal keys that the §2.3
//! "ties are broken arbitrarily" licence pins down deterministically.
//!
//! The reference model is the semantics the old list implemented by
//! construction: a plain `Vec` kept sorted by linear scan, inserting
//! every new or re-keyed entry *after* all entries with an equal key.
//! Random churn (inserts, removals, key updates — with heavy key
//! duplication so tie runs are long) must keep the indexed list and the
//! scan-sorted vector identical entry for entry.

use proptest::prelude::*;
use sfs_core::fixed::Fixed;
use sfs_core::queues::{IndexedList, NodeRef, Order};
use sfs_core::task::TaskId;

/// The naive reference: a scan-sorted vector with FIFO tie order.
#[derive(Default)]
struct RefList {
    entries: Vec<(Fixed, TaskId)>,
}

impl RefList {
    /// Inserts after all entries sorting at-or-before `key` — the FIFO
    /// tie rule of the original sorted scan.
    fn insert(&mut self, key: Fixed, id: TaskId) {
        let at = self
            .entries
            .iter()
            .position(|&(k, _)| key < k)
            .unwrap_or(self.entries.len());
        self.entries.insert(at, (key, id));
    }

    fn remove(&mut self, id: TaskId) {
        let at = self
            .entries
            .iter()
            .position(|&(_, e)| e == id)
            .expect("reference lost an id");
        self.entries.remove(at);
    }

    fn update_key(&mut self, id: TaskId, key: Fixed) {
        self.remove(id);
        self.insert(key, id);
    }
}

/// One random queue operation. Keys are drawn from a tiny range so
/// duplicate-key tie runs dominate.
#[derive(Debug, Clone)]
enum Op {
    Insert(i64),
    Remove(usize),
    UpdateKey(usize, i64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (-8i64..8).prop_map(Op::Insert),
        (-8i64..8).prop_map(Op::Insert),
        (0usize..64).prop_map(Op::Remove),
        ((0usize..64), (-8i64..8)).prop_map(|(i, k)| Op::UpdateKey(i, k)),
        ((0usize..64), (-8i64..8)).prop_map(|(i, k)| Op::UpdateKey(i, k)),
    ]
}

fn lockstep(ops: &[Op]) {
    let mut list = IndexedList::new(Order::Ascending);
    let mut model = RefList::default();
    let mut live: Vec<(TaskId, NodeRef)> = Vec::new();
    let mut next_id = 0u64;

    for op in ops {
        match *op {
            Op::Insert(k) => {
                next_id += 1;
                let id = TaskId(next_id);
                let key = Fixed::from_int(k);
                let node = list.insert(key, id);
                model.insert(key, id);
                live.push((id, node));
            }
            Op::Remove(i) => {
                if !live.is_empty() {
                    let (id, node) = live.remove(i % live.len());
                    list.remove(node);
                    model.remove(id);
                }
            }
            Op::UpdateKey(i, k) => {
                if !live.is_empty() {
                    let (id, node) = live[i % live.len()];
                    let key = Fixed::from_int(k);
                    list.update_key(node, key);
                    model.update_key(id, key);
                }
            }
        }
        list.check_invariants();

        // Entry-for-entry equality, including FIFO tie order.
        let got: Vec<(Fixed, TaskId)> = list.iter().collect();
        assert_eq!(got, model.entries, "forward order diverged");
        assert_eq!(list.len(), model.entries.len());
        assert_eq!(list.head(), model.entries.first().copied());
    }
}

proptest! {
    /// Ascending order (the start-tag / finish-tag / pass / EVT queues).
    #[test]
    fn indexed_list_matches_scan_sorted_vec_ascending(
        ops in proptest::collection::vec(op_strategy(), 1..200),
    ) {
        lockstep(&ops);
    }
}

/// A deterministic soak heavy on tie churn: every key is one of three
/// values, so nearly all inserts and updates land inside a tie run.
#[test]
fn indexed_list_matches_reference_under_tie_soak() {
    let mut ops = Vec::new();
    for i in 0..120u64 {
        ops.push(Op::Insert((i % 3) as i64));
    }
    for round in 0..600u64 {
        match round % 5 {
            0 => ops.push(Op::Insert((round % 3) as i64)),
            1 => ops.push(Op::Remove(round as usize)),
            _ => ops.push(Op::UpdateKey(round as usize, ((round / 5) % 3) as i64)),
        }
    }
    lockstep(&ops);
}
