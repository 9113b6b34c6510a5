//! Lock-order verification: ranked mutexes and the acquisition-graph
//! audit.
//!
//! Every lock in the concurrent (rt) half of the workspace carries a
//! static [`LockRank`]. The rule is the classic partial-order
//! discipline: **a thread may acquire a lock only while every lock it
//! already holds has a strictly smaller rank key**. The workspace
//! hierarchy (see [`rank`]) is:
//!
//! | rank key | lock | held for |
//! |---|---|---|
//! | (1, 0) | `global` | placement, §2.1 readjustment, rebalance, task lifetime |
//! | (2, i) | `shard i` | one shard's run queue: pick, requeue, dispatch |
//! | (3, 0) | `snapshot` | the epoch-published §2.1 clamp set (`SnapshotCell`) |
//! | (4, 0) | `granted` | one task's virtual-CPU grant flag: set and consumed with no scheduler lock held |
//!
//! so the executor's documented order — global → shards in ascending
//! index → leaf flags — is machine-checked, not just a comment.
//!
//! With the `lock-audit` feature **off** (the default), [`OrderedMutex`]
//! compiles down to the raw `parking_lot::Mutex`: `lock()` is an
//! `#[inline]` passthrough, the guard is a newtype with no `Drop`
//! impl, and none of the audit statics exist.
//!
//! With `lock-audit` **on**, each acquisition checks the per-thread
//! held set (violations panic at the exact wrong acquisition, naming
//! both locks) and records `held → acquired` edges into a global
//! acquisition graph. A test pass over the full rt suite then asserts
//! the observed graph is acyclic ([`check_acyclic`]) and exports it as
//! DOT ([`to_dot`]) — the graph in the README.

use std::fmt;

use parking_lot::{Condvar, Mutex, MutexGuard};

/// A static position in the workspace lock hierarchy.
///
/// Ordering is by `(level, index)`: `level` separates lock *classes*
/// (global section before shard locks before leaf flags), `index`
/// orders instances within a class (shard locks by shard index). Two
/// locks with equal keys may never be held together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LockRank {
    /// Hierarchy level; outer locks have smaller levels.
    pub level: u32,
    /// Instance order within the level (e.g. the shard index).
    pub index: u32,
    /// Human-readable class name for panics and the DOT export.
    pub domain: &'static str,
}

impl LockRank {
    /// Creates a rank. `domain` names the lock class in diagnostics.
    pub const fn new(domain: &'static str, level: u32, index: u32) -> LockRank {
        LockRank {
            level,
            index,
            domain,
        }
    }

    /// The acquisition-order key: acquisitions must be strictly
    /// increasing in this key while locks are held.
    pub const fn key(self) -> (u32, u32) {
        (self.level, self.index)
    }
}

impl fmt::Display for LockRank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.index == 0 {
            f.write_str(self.domain)
        } else {
            write!(f, "{}.{}", self.domain, self.index)
        }
    }
}

/// The workspace's lock-rank table (the hierarchy the rt executor and
/// `sfs-core`'s `SnapshotCell` are built on).
pub mod rank {
    use super::LockRank;

    /// The rt executor's global section: placement, readjustment,
    /// rebalance, task lifetime. Outermost — taken before any shard.
    pub const GLOBAL: LockRank = LockRank::new("global", 1, 0);

    /// Shard `i`'s run-queue lock. Multiple shard locks are taken in
    /// ascending index order (the two-lock migration path).
    pub const fn shard(i: usize) -> LockRank {
        LockRank::new("shard", 2, i as u32)
    }

    /// The epoch-published §2.1 clamp snapshot slot (`SnapshotCell`):
    /// read on shard pick paths, written under the global section.
    pub const SNAPSHOT: LockRank = LockRank::new("snapshot", 3, 0);

    /// A task's virtual-CPU grant flag: the leaf of the hierarchy, set
    /// (by the waker) and waited on and consumed (by the task) with no
    /// scheduler lock held.
    pub const GRANTED: LockRank = LockRank::new("granted", 4, 0);
}

/// True when this build carries the runtime lock-order audit.
pub const fn audit_enabled() -> bool {
    cfg!(feature = "lock-audit")
}

#[cfg(feature = "lock-audit")]
mod audit {
    use super::LockRank;
    use std::cell::RefCell;
    use std::collections::BTreeSet;

    thread_local! {
        pub(super) static HELD: RefCell<Vec<LockRank>> = const { RefCell::new(Vec::new()) };
    }

    // The audit's own bookkeeping lock is deliberately a raw std mutex:
    // it guards nothing the scheduler can see and must not itself
    // participate in the rank discipline it implements.
    static EDGES: std::sync::Mutex<BTreeSet<(LockRank, LockRank)>> =
        std::sync::Mutex::new(BTreeSet::new());

    pub(super) fn acquire(rank: LockRank) {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(worst) = held.iter().find(|l| l.key() >= rank.key()) {
                panic!(
                    "lock-order violation: acquiring `{rank}` {:?} while holding `{worst}` {:?} \
                     (held: [{}]) — acquisition keys must be strictly increasing",
                    rank.key(),
                    worst.key(),
                    held.iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join(", "),
                );
            }
            if !held.is_empty() {
                let mut edges = EDGES
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                for &from in held.iter() {
                    edges.insert((from, rank));
                }
            }
            held.push(rank);
        });
    }

    pub(super) fn release(rank: LockRank) {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            let pos = held
                .iter()
                .rposition(|&l| l == rank)
                .expect("releasing a lock this thread does not hold");
            held.remove(pos);
        });
    }

    pub(super) fn edges() -> Vec<(LockRank, LockRank)> {
        EDGES
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .copied()
            .collect()
    }

    pub(super) fn reset() {
        EDGES
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clear();
    }
}

/// Under `lock-audit`, panics if the calling thread holds any ranked
/// lock (the rt executor wakes threads only with none held). Silent
/// while the thread unwinds, where a second panic would abort.
#[inline]
#[track_caller]
pub fn assert_no_lock_held() {
    #[cfg(feature = "lock-audit")]
    {
        let held: Vec<String> =
            audit::HELD.with_borrow(|h| h.iter().map(ToString::to_string).collect());
        let ok = held.is_empty() || std::thread::panicking();
        assert!(ok, "lock-audit: still holding {held:?}");
    }
}

/// Every `held → acquired` edge observed by the audit so far, sorted.
///
/// Only available under the `lock-audit` feature.
#[cfg(feature = "lock-audit")]
pub fn acquisition_edges() -> Vec<(LockRank, LockRank)> {
    audit::edges()
}

/// Clears the recorded acquisition graph (test isolation).
///
/// Only available under the `lock-audit` feature.
#[cfg(feature = "lock-audit")]
pub fn reset_audit() {
    audit::reset();
}

/// Checks an acquisition graph for cycles. Returns `Err` with one
/// witness cycle (as a list of lock names) when the graph is cyclic.
///
/// Pure function of its input, so the checker itself is testable
/// against deliberately cyclic (mutated) graphs even in builds without
/// the runtime audit.
pub fn check_acyclic(edges: &[(LockRank, LockRank)]) -> Result<(), Vec<String>> {
    use std::collections::{BTreeMap, BTreeSet};
    let mut adj: BTreeMap<LockRank, Vec<LockRank>> = BTreeMap::new();
    let mut nodes: BTreeSet<LockRank> = BTreeSet::new();
    for &(a, b) in edges {
        adj.entry(a).or_default().push(b);
        nodes.insert(a);
        nodes.insert(b);
    }
    // Iterative DFS with colouring; a back edge to an in-progress node
    // is a cycle, reconstructed off the explicit stack.
    let mut state: BTreeMap<LockRank, u8> = BTreeMap::new(); // 1 = open, 2 = done
    for &start in &nodes {
        if state.contains_key(&start) {
            continue;
        }
        let mut stack: Vec<(LockRank, usize)> = vec![(start, 0)];
        state.insert(start, 1);
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            let succs = adj.get(&node).map_or(&[][..], Vec::as_slice);
            if *next >= succs.len() {
                state.insert(node, 2);
                stack.pop();
                continue;
            }
            let succ = succs[*next];
            *next += 1;
            match state.get(&succ) {
                Some(1) => {
                    let mut cycle: Vec<String> = stack
                        .iter()
                        .skip_while(|&&(n, _)| n != succ)
                        .map(|&(n, _)| n.to_string())
                        .collect();
                    cycle.push(succ.to_string());
                    return Err(cycle);
                }
                Some(_) => {}
                None => {
                    state.insert(succ, 1);
                    stack.push((succ, 0));
                }
            }
        }
    }
    Ok(())
}

/// Renders an acquisition graph as GraphViz DOT (the README figure).
pub fn to_dot(edges: &[(LockRank, LockRank)]) -> String {
    let mut out = String::from("digraph lock_order {\n  rankdir=LR;\n  node [shape=box];\n");
    for (a, b) in edges {
        out.push_str(&format!("  \"{a}\" -> \"{b}\";\n"));
    }
    out.push_str("}\n");
    out
}

/// A `parking_lot::Mutex` carrying a static [`LockRank`].
///
/// With the `lock-audit` feature off this is a zero-cost passthrough;
/// with it on, every [`OrderedMutex::lock`] checks the calling
/// thread's held set against the rank discipline and records an
/// acquisition edge.
pub struct OrderedMutex<T> {
    rank: LockRank,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// Creates a ranked mutex.
    pub fn new(rank: LockRank, value: T) -> OrderedMutex<T> {
        OrderedMutex {
            rank,
            inner: Mutex::new(value),
        }
    }

    /// Acquires the lock, blocking until available.
    ///
    /// # Panics
    ///
    /// Under `lock-audit`, panics if the calling thread already holds
    /// a lock whose rank key is not strictly smaller.
    #[inline]
    pub fn lock(&self) -> OrderedGuard<'_, T> {
        #[cfg(feature = "lock-audit")]
        audit::acquire(self.rank);
        OrderedGuard {
            inner: self.inner.lock(),
            #[cfg(feature = "lock-audit")]
            rank: self.rank,
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedMutex")
            .field("rank", &self.rank)
            .field("inner", &self.inner)
            .finish()
    }
}

/// RAII guard returned by [`OrderedMutex::lock`].
pub struct OrderedGuard<'a, T> {
    inner: MutexGuard<'a, T>,
    #[cfg(feature = "lock-audit")]
    rank: LockRank,
}

impl<T> OrderedGuard<'_, T> {
    /// Atomically releases the lock and waits on `cv`, reacquiring
    /// before returning. The lock counts as held for rank purposes
    /// across the wait (it is reacquired before control returns).
    pub fn wait(&mut self, cv: &Condvar) {
        cv.wait(&mut self.inner);
    }
}

impl<T> std::ops::Deref for OrderedGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> std::ops::DerefMut for OrderedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(feature = "lock-audit")]
impl<T> Drop for OrderedGuard<'_, T> {
    fn drop(&mut self) {
        audit::release(self.rank);
    }
}

/// Acquires two distinct-rank locks in rank order, returning the
/// guards in **argument** order — the deadlock-free two-lock
/// acquisition behind the rt executor's cross-shard migrations.
///
/// # Panics
///
/// Panics if the two locks share a rank key (they could deadlock
/// against a concurrent caller with the arguments swapped).
pub fn lock_pair<'a, T>(
    a: &'a OrderedMutex<T>,
    b: &'a OrderedMutex<T>,
) -> (OrderedGuard<'a, T>, OrderedGuard<'a, T>) {
    assert_ne!(
        a.rank.key(),
        b.rank.key(),
        "lock_pair on equal ranks ({}) would deadlock against a swapped-argument caller",
        a.rank
    );
    if a.rank.key() < b.rank.key() {
        let ga = a.lock();
        let gb = b.lock();
        (ga, gb)
    } else {
        let gb = b.lock();
        let ga = a.lock();
        (ga, gb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_order_by_level_then_index() {
        assert!(rank::GLOBAL.key() < rank::shard(0).key());
        assert!(rank::shard(0).key() < rank::shard(1).key());
        assert!(rank::shard(7).key() < rank::SNAPSHOT.key());
        assert!(rank::SNAPSHOT.key() < rank::GRANTED.key());
        assert_eq!(rank::shard(3).to_string(), "shard.3");
        assert_eq!(rank::GLOBAL.to_string(), "global");
    }

    #[test]
    fn acyclic_checker_accepts_the_hierarchy_and_rejects_a_cycle() {
        let good = vec![
            (rank::GLOBAL, rank::shard(0)),
            (rank::GLOBAL, rank::shard(1)),
            (rank::shard(0), rank::shard(1)),
            (rank::shard(1), rank::SNAPSHOT),
            (rank::shard(0), rank::GRANTED),
        ];
        assert!(check_acyclic(&good).is_ok());
        // The seeded mutation: one inverted edge (a shard lock taken
        // while holding the snapshot slot) closes a cycle, and the
        // checker must name it.
        let mut bad = good;
        bad.push((rank::SNAPSHOT, rank::shard(0)));
        let cycle = check_acyclic(&bad).expect_err("cycle must be found");
        assert!(
            cycle.iter().any(|n| n == "snapshot"),
            "witness names the snapshot lock: {cycle:?}"
        );
        assert!(cycle.len() >= 3, "a real loop, not an edge: {cycle:?}");
    }

    #[test]
    fn dot_export_lists_every_edge() {
        let edges = vec![
            (rank::GLOBAL, rank::shard(0)),
            (rank::shard(0), rank::GRANTED),
        ];
        let dot = to_dot(&edges);
        assert!(dot.contains("digraph lock_order"));
        assert!(dot.contains("\"global\" -> \"shard\""));
        assert!(dot.contains("\"shard\" -> \"granted\""));
    }

    #[test]
    fn lock_pair_returns_guards_in_argument_order() {
        let a = OrderedMutex::new(rank::shard(0), 1u32);
        let b = OrderedMutex::new(rank::shard(1), 2u32);
        // Both argument orders: values must follow the arguments, not
        // the acquisition order.
        let (ga, gb) = lock_pair(&a, &b);
        assert_eq!((*ga, *gb), (1, 2));
        drop((ga, gb));
        let (gb, ga) = lock_pair(&b, &a);
        assert_eq!((*gb, *ga), (2, 1));
    }

    #[test]
    fn lock_pair_rejects_equal_ranks() {
        let a = OrderedMutex::new(rank::shard(0), 0u32);
        let b = OrderedMutex::new(rank::shard(0), 1u32);
        let err = std::panic::catch_unwind(|| {
            let _g = lock_pair(&a, &b);
        });
        assert!(err.is_err(), "equal-rank pair must be refused");
    }

    #[cfg(not(feature = "lock-audit"))]
    #[test]
    fn audit_off_guard_is_zero_sized_overhead() {
        // The feature-off guard is exactly the parking_lot guard: no
        // rank field, no Drop hook, nothing for the optimiser to keep.
        assert!(!audit_enabled());
        assert_eq!(
            std::mem::size_of::<OrderedGuard<'_, u64>>(),
            std::mem::size_of::<parking_lot::MutexGuard<'_, u64>>()
        );
    }
}
