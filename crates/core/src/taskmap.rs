//! Paged direct-index table keyed by [`TaskId`].
//!
//! The paper's kernel port reaches a thread's tags through the task
//! struct itself (§3.1–3.2): a scheduling event never *looks a thread
//! up*. The policies here address tasks by id instead, and every event
//! resolves that id to its entry at least once — under
//! `HashMap<TaskId, _>` that was a SipHash per lookup, which measured as
//! most of the scheduler's event-path time at 10⁵ tasks.
//!
//! Substrates allocate ids densely from a counter, so [`TaskMap`]
//! indexes instead of hashing: `id / 64` selects a page in a `Vec`
//! directory and `id % 64` a slot inside it. Pages are allocated on
//! first use and released when their last entry leaves, so a map holding a
//! sparse subset of a large id range — one tenant's group under
//! `groups(...)`, one shard's share of the machine, the runnable subset
//! in a [`BucketQueue`](crate::buckets::BucketQueue) — pays for the
//! pages it touches plus eight bytes of directory per 64 ids of range,
//! not for a slot per id (a flat `Vec<Option<V>>` was measured: same
//! speed, +19 % peak RSS on the multi-tenant serving workload).
//!
//! Ids are opaque `u64`s, so anything at or beyond 2²⁴ (`DIRECT_SPAN`)
//! goes to an ordered spill map; correctness never depends on ids being
//! small, only speed does. Iteration is in ascending id order on both
//! paths, which also makes every walk over a table deterministic.
//!
//! The method set mirrors the `std` maps it replaces (`get(&id)`,
//! `map[&id]`, `insert`, `remove`, `values_mut`, …).

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Index;

use crate::task::TaskId;

const PAGE_BITS: u32 = 6;
const PAGE_SLOTS: usize = 1 << PAGE_BITS;

/// Ids below this are direct-indexed; the directory for the whole span
/// is 2 MiB, reached only if an id that large is actually used.
const DIRECT_SPAN: u64 = 1 << 24;

#[derive(Clone)]
struct Page<V> {
    live: u32,
    slots: [Option<V>; PAGE_SLOTS],
}

impl<V> Page<V> {
    fn empty() -> Box<Page<V>> {
        Box::new(Page {
            live: 0,
            slots: std::array::from_fn(|_| None),
        })
    }
}

/// Where an id lives: a directory page and slot, or the spill map.
enum Slot {
    Direct(usize, usize),
    Spill(u64),
}

fn locate(id: TaskId) -> Slot {
    if id.0 < DIRECT_SPAN {
        Slot::Direct(
            (id.0 >> PAGE_BITS) as usize,
            id.0 as usize & (PAGE_SLOTS - 1),
        )
    } else {
        Slot::Spill(id.0)
    }
}

/// A map from [`TaskId`] to `V`; see the module docs.
#[derive(Clone)]
pub struct TaskMap<V> {
    /// `pages[id / 64]`, `None` while no id of that page is present.
    pages: Vec<Option<Box<Page<V>>>>,
    /// The page emptied last, kept for the next page needed: without it
    /// a lone task that exits and is respawned — or blocks and wakes, in
    /// a run-queue index — frees and rebuilds a page on every event
    /// (measured: `attach` 0.3 → 1.1 µs on the spawn-and-join loop).
    spare: Option<Box<Page<V>>>,
    /// Entries whose id is at or beyond [`DIRECT_SPAN`].
    spill: BTreeMap<u64, V>,
    len: usize,
}

impl<V> Default for TaskMap<V> {
    fn default() -> TaskMap<V> {
        TaskMap::new()
    }
}

impl<V> TaskMap<V> {
    /// Creates an empty map; allocates nothing until the first insert.
    pub fn new() -> TaskMap<V> {
        TaskMap {
            pages: Vec::new(),
            spare: None,
            spill: BTreeMap::new(),
            len: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the map holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The entry for `id`, if present.
    pub fn get(&self, id: &TaskId) -> Option<&V> {
        match locate(*id) {
            Slot::Direct(p, s) => self.pages.get(p)?.as_ref()?.slots[s].as_ref(),
            Slot::Spill(k) => self.spill.get(&k),
        }
    }

    /// The entry for `id`, mutably, if present.
    pub fn get_mut(&mut self, id: &TaskId) -> Option<&mut V> {
        match locate(*id) {
            Slot::Direct(p, s) => self.pages.get_mut(p)?.as_mut()?.slots[s].as_mut(),
            Slot::Spill(k) => self.spill.get_mut(&k),
        }
    }

    /// True if `id` has an entry.
    pub fn contains_key(&self, id: &TaskId) -> bool {
        self.get(id).is_some()
    }

    /// Stores `value` under `id`, returning the entry it replaced.
    pub fn insert(&mut self, id: TaskId, value: V) -> Option<V> {
        let prev = match locate(id) {
            Slot::Direct(p, s) => {
                if p >= self.pages.len() {
                    self.pages.resize_with(p + 1, || None);
                }
                let page = self.pages[p]
                    .get_or_insert_with(|| self.spare.take().unwrap_or_else(Page::empty));
                let prev = page.slots[s].replace(value);
                if prev.is_none() {
                    page.live += 1;
                }
                prev
            }
            Slot::Spill(k) => self.spill.insert(k, value),
        };
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// Removes and returns the entry for `id`; a page whose last entry
    /// leaves is released (one is kept as the spare).
    pub fn remove(&mut self, id: &TaskId) -> Option<V> {
        let prev = match locate(*id) {
            Slot::Direct(p, s) => {
                let dir = self.pages.get_mut(p)?;
                let page = dir.as_mut()?;
                let prev = page.slots[s].take()?;
                page.live -= 1;
                if page.live == 0 {
                    self.spare = dir.take();
                }
                Some(prev)
            }
            Slot::Spill(k) => self.spill.remove(&k),
        };
        if prev.is_some() {
            self.len -= 1;
        }
        prev
    }

    /// All entries in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, &V)> {
        let direct = self.pages.iter().enumerate().flat_map(|(p, page)| {
            page.iter().flat_map(move |page| {
                page.slots
                    .iter()
                    .enumerate()
                    .filter_map(move |(s, v)| Some((direct_id(p, s), v.as_ref()?)))
            })
        });
        direct.chain(self.spill.iter().map(|(&k, v)| (TaskId(k), v)))
    }

    /// All ids in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.iter().map(|(id, _)| id)
    }

    /// All values in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }

    /// All values in ascending id order, mutable.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        let direct = self.pages.iter_mut().flatten();
        direct
            .flat_map(|page| page.slots.iter_mut().flatten())
            .chain(self.spill.values_mut())
    }
}

fn direct_id(page: usize, slot: usize) -> TaskId {
    TaskId(((page as u64) << PAGE_BITS) | slot as u64)
}

impl<V> Index<&TaskId> for TaskMap<V> {
    type Output = V;

    /// # Panics
    ///
    /// Panics if `id` has no entry.
    fn index(&self, id: &TaskId) -> &V {
        match self.get(id) {
            Some(v) => v,
            None => panic!("no entry for task {id}"),
        }
    }
}

impl<V: fmt::Debug> fmt::Debug for TaskMap<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_types, reason = "the differential oracle is std")]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    impl<V> TaskMap<V> {
        fn live_pages(&self) -> usize {
            self.pages.iter().flatten().count()
        }
    }

    #[test]
    fn boundary_ids_take_the_right_path() {
        let mut m = TaskMap::new();
        for id in [0, 63, 64, DIRECT_SPAN - 1, DIRECT_SPAN, 1 << 40, u64::MAX] {
            assert_eq!(m.insert(TaskId(id), id), None);
        }
        assert_eq!(m.len(), 7);
        assert_eq!(m.spill.len(), 3);
        assert_eq!(m.live_pages(), 3);
        assert_eq!(m[&TaskId(u64::MAX)], u64::MAX);
        assert_eq!(m.insert(TaskId(64), 7), Some(64));
        assert_eq!(m.len(), 7);
        let keys: Vec<u64> = m.keys().map(|id| id.0).collect();
        assert_eq!(
            keys,
            [0, 63, 64, DIRECT_SPAN - 1, DIRECT_SPAN, 1 << 40, u64::MAX]
        );
        assert_eq!(m.remove(&TaskId(64)), Some(7));
        assert_eq!(m.remove(&TaskId(64)), None);
        assert_eq!(m.live_pages(), 2);
    }

    #[test]
    fn sliding_window_over_a_million_ids_holds_a_few_pages() {
        const LIVE: u64 = 100;
        let mut m = TaskMap::new();
        let mut most = 0;
        for id in 0..1_000_000u64 {
            m.insert(TaskId(id), id);
            if id >= LIVE {
                assert_eq!(m.remove(&TaskId(id - LIVE)), Some(id - LIVE));
            }
            // Sampled at a stride coprime to the page size: counting
            // walks the whole directory.
            if id % 1009 == 0 {
                most = most.max(m.live_pages());
            }
        }
        most = most.max(m.live_pages());
        assert_eq!(m.len(), LIVE as usize);
        // 100 consecutive ids straddle at most three 64-slot pages.
        assert!(most <= 3, "window of {LIVE} ids held {most} pages");
    }

    /// Ids drawn so that pages fill, empty and refill (two thirds are
    /// dense), and so that the spill path sees ids ≥ 2⁴⁰, its first id
    /// and `u64::MAX`. (The last direct id is in the unit test above: it
    /// grows the directory to its full span, which every step's full
    /// walk here would then pay for.)
    fn arb_id() -> impl Strategy<Value = TaskId> {
        const EDGES: [u64; 4] = [u64::MAX, u64::MAX - 1, DIRECT_SPAN, DIRECT_SPAN + 1];
        (0u32..6, 0u64..200, 0usize..8).prop_map(|(kind, dense, k)| {
            TaskId(match kind {
                0..=3 => dense,
                4 => (1 << 40) + k as u64,
                _ => EDGES[k % EDGES.len()],
            })
        })
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(TaskId, u32),
        Remove(TaskId),
        Get(TaskId),
        Bump(TaskId),
        BumpAll,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        (0u32..12, arb_id(), 0u32..u32::MAX).prop_map(|(kind, id, v)| match kind {
            0..=3 => Op::Insert(id, v),
            4..=6 => Op::Remove(id),
            7..=8 => Op::Get(id),
            9..=10 => Op::Bump(id),
            _ => Op::BumpAll,
        })
    }

    proptest! {
        #[test]
        fn agrees_with_std_hashmap(ops in proptest::collection::vec(arb_op(), 1..400)) {
            let mut ours: TaskMap<u32> = TaskMap::new();
            let mut std: HashMap<TaskId, u32> = HashMap::new();
            for op in ops {
                match op {
                    Op::Insert(id, v) => prop_assert_eq!(ours.insert(id, v), std.insert(id, v)),
                    Op::Remove(id) => prop_assert_eq!(ours.remove(&id), std.remove(&id)),
                    Op::Get(id) => {
                        prop_assert_eq!(ours.get(&id), std.get(&id));
                        prop_assert_eq!(ours.contains_key(&id), std.contains_key(&id));
                    }
                    Op::Bump(id) => {
                        let (a, b) = (ours.get_mut(&id), std.get_mut(&id));
                        prop_assert_eq!(a.is_some(), b.is_some());
                        if let (Some(a), Some(b)) = (a, b) {
                            *a = a.wrapping_add(1);
                            *b = b.wrapping_add(1);
                        }
                    }
                    Op::BumpAll => {
                        ours.values_mut().for_each(|v| *v = v.wrapping_mul(3));
                        std.values_mut().for_each(|v| *v = v.wrapping_mul(3));
                    }
                }
                prop_assert_eq!(ours.len(), std.len());
                prop_assert_eq!(ours.is_empty(), std.is_empty());
                let got: Vec<(TaskId, u32)> = ours.iter().map(|(id, &v)| (id, v)).collect();
                let mut want: Vec<(TaskId, u32)> = std.iter().map(|(&id, &v)| (id, v)).collect();
                want.sort_unstable();
                prop_assert_eq!(&got, &want, "contents, in ascending id order");
                // No page outlives its last entry.
                let mut pages: Vec<u64> = want
                    .iter()
                    .filter(|(id, _)| id.0 < DIRECT_SPAN)
                    .map(|(id, _)| id.0 >> PAGE_BITS)
                    .collect();
                pages.dedup();
                prop_assert_eq!(ours.live_pages(), pages.len());
            }
        }
    }
}
