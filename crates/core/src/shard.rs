//! Sharded run queues: per-CPU policy instances with surplus-balanced
//! placement and stealing.
//!
//! The paper implements SFS with a single global run queue (§5), and
//! both substrates in this repository reproduced that faithfully —
//! every pick, wake and tick serialised through one scheduler object.
//! Adding processors then adds contention, not throughput. This module
//! shards the machine instead: the `p` processors are partitioned into
//! shards, each shard runs its *own* instance of any registered policy
//! over its own CPUs, and three mechanisms keep the per-task CPU shares
//! close to what the global scheduler would allocate:
//!
//! 1. **Surplus-balanced placement** — arrivals go to the shard with
//!    the least adjusted-weight sum per CPU; wakeups stay on the shard
//!    where the task last ran (so a wake alone never moves a task to
//!    other processors) unless its per-CPU load exceeds the
//!    least-loaded shard's by more than the waking task's own
//!    contribution.
//! 2. **Steal-on-idle** — a processor whose shard has no ready task
//!    takes the *highest-surplus* ready task (the one most ahead of
//!    its GMS share, i.e. the one that can best afford to wait — and
//!    therefore to pay a migration) from the most loaded shard that
//!    has more runnable tasks than processors. This restores work
//!    conservation across shards.
//! 3. **Periodic rebalance** — every [`ShardedScheduler`] rebalance
//!    interval, highest-surplus ready tasks migrate from overloaded to
//!    underloaded shards while each move strictly reduces the larger of
//!    the two per-CPU loads.
//!
//! **Rebalance bound.** Greedy moves stop exactly when no single
//! migration reduces the worse per-CPU load, so immediately after a
//! rebalance pass every shard's adjusted-weight sum per CPU is within
//! `φ_max` (the largest single task weight) of every other's. Between
//! passes the imbalance is bounded by the weight churn of one window,
//! so a task's service rate deviates from the global scheduler's by at
//! most the relative load gap of its shard over one rebalance window —
//! the bound the differential test (`tests/shard_differential.rs`)
//! checks.
//!
//! **Global feasibility.** The §2.1 infeasible-weight readjustment is
//! inherently global: a weight can be infeasible on the whole machine
//! while locally feasible inside its shard. The [`Balancer`] therefore
//! keeps one machine-wide [`FeasibleWeights`] and publishes its clamp
//! set through an epoch-versioned [`SnapshotCell`]; SFS shards check
//! the epoch with a single atomic load on their pick path (lock-free
//! unless a new epoch was actually published) and cap each task's
//! local `φ` at the global value. Non-SFS shard policies ignore the
//! snapshot and get placement balancing only.
//!
//! **Tenant groups place as units.** When the shard policy is
//! hierarchical (`sfs:groups(...)`, see [`crate::hier`]), every task
//! carries a [`TenantId`] and per-tenant isolation is only meaningful
//! while all of a tenant's tasks share one group instance. The
//! balancer therefore anchors each tenant to a home shard — the
//! least-loaded shard at the moment the tenant's *first* task arrives
//! — and every later arrival, wakeup and rebalance decision keeps the
//! tenant's tasks there: wakers with a tenant never migrate, and
//! [`Balancer::plan_move`] and [`Balancer::plan_steal`] refuse
//! candidates that belong to a tenant (hierarchical shards nominate no
//! steal candidates in the first place). A tenant moves between shards
//! only as a whole group, which happens naturally when its last task
//! exits and the next one re-anchors it.
#![expect(clippy::disallowed_types, reason = "keyed by tenant, not task")]

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sfs_analyze::lockorder::{rank, OrderedMutex};

use crate::feasible::FeasibleWeights;
use crate::fixed::Fixed;
use crate::policy::PolicySpec;
use crate::sched::{SchedStats, Scheduler, SwitchReason};
use crate::task::{CpuId, TaskId, TenantId, Weight};
use crate::taskmap::TaskMap;
use crate::time::{Duration, Time};

/// One published epoch of the machine-wide weight readjustment: the
/// clamp cap and the ids currently clamped to it. Tasks outside
/// `clamped` run at their raw (or locally readjusted) weight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhiSnapshot {
    /// Monotonically increasing publication counter.
    pub epoch: u64,
    /// The feasible cap; meaningful only when `clamped` is non-empty.
    pub cap: Fixed,
    /// Ids clamped to `cap`, sorted; at most `p − 1` entries (§2.1).
    pub clamped: Vec<TaskId>,
}

impl PhiSnapshot {
    /// The globally imposed cap for `id`, if it is clamped.
    pub fn cap_of(&self, id: TaskId) -> Option<Fixed> {
        if self.clamped.binary_search(&id).is_ok() {
            Some(self.cap)
        } else {
            None
        }
    }
}

/// An epoch-versioned, shared publication slot for [`PhiSnapshot`]s.
///
/// Readers poll [`SnapshotCell::load_if_newer`] with the epoch they
/// last applied: the no-change fast path is one atomic load, so a
/// shard's pick path never takes a lock unless the global section
/// actually republished. Publications that would not change the cap or
/// clamp set are skipped, keeping steady-state scheduling entirely on
/// the fast path.
#[derive(Debug)]
pub struct SnapshotCell {
    epoch: AtomicU64,
    slot: OrderedMutex<Arc<PhiSnapshot>>,
}

impl Default for SnapshotCell {
    fn default() -> SnapshotCell {
        SnapshotCell::new()
    }
}

impl SnapshotCell {
    /// Creates a cell holding the empty (nothing clamped) snapshot.
    pub fn new() -> SnapshotCell {
        SnapshotCell {
            epoch: AtomicU64::new(0),
            slot: OrderedMutex::new(
                rank::SNAPSHOT,
                Arc::new(PhiSnapshot {
                    epoch: 0,
                    cap: Fixed::ZERO,
                    clamped: Vec::new(),
                }),
            ),
        }
    }

    /// The currently published snapshot.
    pub fn load(&self) -> Arc<PhiSnapshot> {
        Arc::clone(&self.slot.lock())
    }

    /// The published snapshot if its epoch is newer than `seen`, else
    /// `None` without taking the slot lock.
    pub fn load_if_newer(&self, seen: u64) -> Option<Arc<PhiSnapshot>> {
        if self.epoch.load(Ordering::Acquire) == seen {
            None
        } else {
            Some(self.load())
        }
    }

    /// Publishes a new clamp state, bumping the epoch — unless it is
    /// identical to the current one, in which case nothing happens and
    /// readers stay on their lock-free fast path.
    pub fn publish(&self, cap: Option<Fixed>, clamped: &[TaskId]) {
        let mut slot = self.slot.lock();
        let cap = cap.unwrap_or(Fixed::ZERO);
        if slot.cap == cap && slot.clamped == clamped {
            return;
        }
        let epoch = slot.epoch + 1;
        *slot = Arc::new(PhiSnapshot {
            epoch,
            cap,
            clamped: clamped.to_vec(),
        });
        self.epoch.store(epoch, Ordering::Release);
    }
}

/// The partition of the machine's processors into shards: shard `s`
/// owns the contiguous CPU range `starts[s]..starts[s+1]`. Remainder
/// CPUs go to the lowest-indexed shards, so any `1 ≤ shards ≤ cpus`
/// split is valid.
#[derive(Debug, Clone)]
pub struct ShardLayout {
    starts: Vec<u32>,
}

impl ShardLayout {
    /// Partitions `cpus` processors into `shards` contiguous shards
    /// (clamped to `1..=cpus`).
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is zero.
    pub fn new(cpus: u32, shards: u32) -> ShardLayout {
        assert!(cpus > 0, "need at least one processor");
        let shards = shards.clamp(1, cpus);
        let (base, rem) = (cpus / shards, cpus % shards);
        let mut starts = Vec::with_capacity(shards as usize + 1);
        let mut at = 0u32;
        starts.push(at);
        for s in 0..shards {
            at += base + u32::from(s < rem);
            starts.push(at);
        }
        ShardLayout { starts }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.starts.len() - 1
    }

    /// Total processors across all shards.
    pub fn cpus(&self) -> u32 {
        *self.starts.last().expect("layout non-empty")
    }

    /// Processors owned by shard `s`.
    pub fn shard_cpus(&self, s: usize) -> u32 {
        self.starts[s + 1] - self.starts[s]
    }

    /// The shard owning a machine-level CPU id.
    pub fn shard_of(&self, cpu: CpuId) -> usize {
        debug_assert!(cpu.0 < self.cpus(), "cpu {cpu} outside the machine");
        self.starts.partition_point(|&st| st <= cpu.0) - 1
    }

    /// Translates a machine-level CPU id into the owning shard's local
    /// id space (shard policies are built over `0..shard_cpus`).
    pub fn local(&self, cpu: CpuId) -> CpuId {
        CpuId(cpu.0 - self.starts[self.shard_of(cpu)])
    }
}

#[derive(Debug)]
struct BalTask {
    weight: Weight,
    /// The task's last-accounted global adjusted weight (its
    /// contribution to its shard's load sum while runnable).
    phi: Fixed,
    shard: usize,
    runnable: bool,
    /// The tenant group this task belongs to, when the shard policy is
    /// hierarchical. Tenant tasks are pinned to the tenant's home
    /// shard.
    tenant: Option<TenantId>,
}

/// The sharded scheduler's global section: machine-wide weight
/// readjustment, per-shard adjusted-weight load sums, task placement,
/// and the [`SnapshotCell`] publication of the clamp state.
///
/// Substrates that lock shards independently (the rt executor, the
/// `tests/perf_guards.rs` shard driver) keep exactly one `Balancer`
/// behind one lock;
/// it is touched only on runnable-set changes (arrival, block, wake,
/// exit, reweight) and rebalance — never on the per-shard pick path.
#[derive(Debug)]
pub struct Balancer {
    feas: FeasibleWeights,
    cell: Arc<SnapshotCell>,
    tasks: TaskMap<BalTask>,
    shard_phi: Vec<Fixed>,
    shard_cpus: Vec<u32>,
    /// Each tenant's home shard and its live task count. The anchor is
    /// dropped when the count reaches zero, so an empty tenant can
    /// re-place onto the then-least-loaded shard.
    tenant_home: HashMap<TenantId, (usize, usize)>,
}

impl Balancer {
    /// Creates the global section for a shard layout, publishing into
    /// `cell`.
    pub fn new(layout: &ShardLayout, cell: Arc<SnapshotCell>) -> Balancer {
        Balancer {
            feas: FeasibleWeights::new(layout.cpus(), true),
            cell,
            tasks: TaskMap::new(),
            shard_phi: vec![Fixed::ZERO; layout.shards()],
            shard_cpus: (0..layout.shards()).map(|s| layout.shard_cpus(s)).collect(),
            tenant_home: HashMap::new(),
        }
    }

    /// Adjusted-weight load per processor of shard `s`.
    pub fn load(&self, s: usize) -> Fixed {
        self.shard_phi[s] / self.shard_cpus[s] as i64
    }

    /// The shard with the smallest per-CPU load (lowest index on ties).
    pub fn least_loaded(&self) -> usize {
        (0..self.shard_phi.len())
            .min_by_key(|&s| self.load(s))
            .expect("at least one shard")
    }

    /// The shard with the largest per-CPU load (lowest index on ties).
    pub fn most_loaded(&self) -> usize {
        (0..self.shard_phi.len())
            .max_by_key(|&s| (self.load(s), std::cmp::Reverse(s)))
            .expect("at least one shard")
    }

    /// The shard a known task currently belongs to.
    pub fn shard_of(&self, id: TaskId) -> Option<usize> {
        self.tasks.get(&id).map(|t| t.shard)
    }

    /// Folds the φ deltas the last readjustment produced into the
    /// per-shard load sums.
    fn apply_changes(&mut self) {
        for &id in self.feas.changed() {
            let Some(t) = self.tasks.get_mut(&id) else {
                continue;
            };
            if !t.runnable {
                continue;
            }
            let phi = self.feas.phi(id, t.weight);
            self.shard_phi[t.shard] += phi - t.phi;
            t.phi = phi;
        }
    }

    fn publish(&self) {
        self.cell.publish(self.feas.cap(), self.feas.clamped());
    }

    /// Places a new runnable task on the least-loaded shard, updates
    /// the global readjustment and publishes. Returns the chosen shard.
    pub fn attach(&mut self, id: TaskId, w: Weight) -> usize {
        self.attach_tenant(id, w, None)
    }

    /// Places a new runnable task, honouring tenant anchoring: the
    /// first task of a tenant anchors the tenant to the least-loaded
    /// shard; every later task of that tenant joins it there, so the
    /// tenant's group is never split across shard policies. Returns
    /// the chosen shard.
    pub fn attach_tenant(&mut self, id: TaskId, w: Weight, tenant: Option<TenantId>) -> usize {
        let shard = match tenant {
            Some(t) => {
                let least = self.least_loaded();
                let entry = self.tenant_home.entry(t).or_insert((least, 0));
                entry.1 += 1;
                entry.0
            }
            None => self.least_loaded(),
        };
        self.feas.insert(id, w);
        self.apply_changes();
        let phi = self.feas.phi(id, w);
        self.shard_phi[shard] += phi;
        let prev = self.tasks.insert(
            id,
            BalTask {
                weight: w,
                phi,
                shard,
                runnable: true,
                tenant,
            },
        );
        debug_assert!(prev.is_none(), "task {id} placed twice");
        self.publish();
        shard
    }

    /// The tenant a tracked task belongs to, if any.
    pub fn tenant_of(&self, id: TaskId) -> Option<TenantId> {
        self.tasks.get(&id)?.tenant
    }

    /// The home shard a tenant is anchored to, while it has tasks.
    pub fn tenant_shard(&self, t: TenantId) -> Option<usize> {
        self.tenant_home.get(&t).map(|&(s, _)| s)
    }

    /// Records a task leaving the runnable set (blocking).
    pub fn block(&mut self, id: TaskId) {
        let t = self.tasks.get_mut(&id).expect("blocking unknown task");
        debug_assert!(t.runnable, "blocking non-runnable task {id}");
        t.runnable = false;
        let (shard, phi, w) = (t.shard, t.phi, t.weight);
        self.shard_phi[shard] -= phi;
        self.feas.remove(id, w);
        self.apply_changes();
        self.publish();
    }

    /// Re-admits a blocked task, choosing its shard: it stays on the
    /// shard it last ran on unless that shard's per-CPU load exceeds
    /// the least-loaded shard's by more than the waker's own per-CPU
    /// contribution.
    /// Returns `(home, target)`; the caller migrates the task between
    /// shard policies when they differ.
    pub fn wake(&mut self, id: TaskId) -> (usize, usize) {
        self.readmit(id, true)
    }

    /// Re-admits a blocked task on its home shard unconditionally
    /// (shutdown path, where migration would be pointless churn).
    pub fn wake_in_place(&mut self, id: TaskId) -> usize {
        self.readmit(id, false).1
    }

    fn readmit(&mut self, id: TaskId, allow_migration: bool) -> (usize, usize) {
        let (home, w, pinned) = {
            let t = self.tasks.get(&id).expect("waking unknown task");
            debug_assert!(!t.runnable, "waking runnable task {id}");
            (t.shard, t.weight, t.tenant.is_some())
        };
        // A tenant task never leaves its tenant's home shard.
        let allow_migration = allow_migration && !pinned;
        self.feas.insert(id, w);
        self.apply_changes();
        let phi = self.feas.phi(id, w);
        let least = self.least_loaded();
        let hysteresis = phi / self.shard_cpus[home] as i64;
        let target = if allow_migration
            && least != home
            && self.load(home) - self.load(least) > hysteresis
        {
            least
        } else {
            home
        };
        self.shard_phi[target] += phi;
        let t = self.tasks.get_mut(&id).expect("waking unknown task");
        t.runnable = true;
        t.phi = phi;
        t.shard = target;
        self.publish();
        (home, target)
    }

    /// Updates a task's weight, readjusting and republishing if it is
    /// runnable.
    pub fn set_weight(&mut self, id: TaskId, w: Weight) {
        let t = self.tasks.get_mut(&id).expect("re-weighting unknown task");
        let old = t.weight;
        if old == w {
            return;
        }
        t.weight = w;
        if t.runnable {
            self.feas.set_weight(id, old, w);
            // `apply_changes` may itself re-account this task (its
            // clamp state can change with its weight), so the final
            // delta is taken against the currently accounted φ.
            self.apply_changes();
            let phi = self.feas.phi(id, w);
            let t = self.tasks.get_mut(&id).expect("just seen");
            let (shard, accounted) = (t.shard, t.phi);
            t.phi = phi;
            self.shard_phi[shard] += phi - accounted;
            self.publish();
        }
    }

    /// Forgets a task entirely (exit or detach). A tenant whose last
    /// task leaves loses its anchor and re-places on its next arrival.
    pub fn remove(&mut self, id: TaskId) {
        let t = self.tasks.remove(&id).expect("removing unknown task");
        if let Some(tenant) = t.tenant {
            let count = self
                .tenant_home
                .get_mut(&tenant)
                .expect("tenant anchor missing");
            count.1 -= 1;
            if count.1 == 0 {
                self.tenant_home.remove(&tenant);
            }
        }
        if t.runnable {
            self.shard_phi[t.shard] -= t.phi;
            self.feas.remove(id, t.weight);
            self.apply_changes();
            self.publish();
        }
    }

    /// Accounts a ready task's migration from its current shard to
    /// `to`. The caller performs the policy-level detach/attach.
    pub fn migrate(&mut self, id: TaskId, to: usize) {
        let t = self.tasks.get_mut(&id).expect("migrating unknown task");
        debug_assert!(t.runnable, "migrating non-runnable task {id}");
        debug_assert!(t.tenant.is_none(), "migrating would split tenant {id}");
        let (from, phi) = (t.shard, t.phi);
        t.shard = to;
        self.shard_phi[from] -= phi;
        self.shard_phi[to] += phi;
    }

    /// True if moving `id` from its shard to `to` strictly reduces the
    /// larger of the two per-CPU loads — the greedy rebalance
    /// condition. Stopping when it fails leaves every pair of shards
    /// within one task weight per CPU of each other.
    pub fn steal_gain(&self, id: TaskId, to: usize) -> bool {
        let t = &self.tasks[&id];
        let from = t.shard;
        if from == to {
            return false;
        }
        let before = self.load(from).max(self.load(to));
        let after = ((self.shard_phi[from] - t.phi) / self.shard_cpus[from] as i64)
            .max((self.shard_phi[to] + t.phi) / self.shard_cpus[to] as i64);
        after < before
    }

    /// The (most-loaded, least-loaded) shard pair when they differ —
    /// the source/target of the next greedy rebalance move.
    pub fn imbalanced_pair(&self) -> Option<(usize, usize)> {
        let (from, to) = (self.most_loaded(), self.least_loaded());
        (from != to).then_some((from, to))
    }

    /// Decides one greedy rebalance move, shared by both substrates
    /// (the single-threaded [`ShardedScheduler`] and the rt executor's
    /// lock-split rebalance pass) so the rebalance invariant has one
    /// implementation. `donor_spare(s)` reports whether shard `s` has
    /// more runnable tasks than processors (never drain a shard below
    /// its own CPU count); `candidate(s)` nominates its
    /// highest-surplus ready task. Returns the approved
    /// `(task, from, to)`, or `None` when the shards are balanced, the
    /// donor cannot spare a task, or the move would not strictly
    /// reduce the worse per-CPU load.
    pub fn plan_move(
        &self,
        donor_spare: impl Fn(usize) -> bool,
        candidate: impl Fn(usize) -> Option<TaskId>,
    ) -> Option<(TaskId, usize, usize)> {
        let (from, to) = self.imbalanced_pair()?;
        if !donor_spare(from) {
            return None;
        }
        let id = candidate(from)?;
        // Never split a tenant: its group is whole on its home shard.
        if self.tenant_of(id).is_some() {
            return None;
        }
        self.steal_gain(id, to).then_some((id, from, to))
    }

    /// Decides one steal-on-idle for shard `to`, which has an idle
    /// processor and no ready task; shared by both substrates like
    /// [`Balancer::plan_move`]. Donors are probed from the most loaded
    /// down (ties to the lowest index), one at a time, so a
    /// lock-splitting caller holds one donor's lock at a time.
    /// `probe(s)` nominates donor `s`'s highest-surplus ready task, or
    /// `None` when `s` cannot spare one (never drain a shard below its
    /// own CPU count). Returns the first `(task, from)` whose nominee
    /// belongs to no tenant (stealing one member would split the
    /// group).
    pub fn plan_steal(
        &self,
        to: usize,
        mut probe: impl FnMut(usize) -> Option<TaskId>,
    ) -> Option<(TaskId, usize)> {
        let key = |s: usize| (self.load(s), std::cmp::Reverse(s));
        // Key of the donor probed last; keys are distinct, so "the
        // largest key below it" walks the donors in order, unallocated.
        let mut probed = None;
        loop {
            let from = (0..self.shard_phi.len())
                .filter(|&s| s != to && probed.is_none_or(|p| key(s) < p))
                .max_by_key(|&s| key(s))?;
            probed = Some(key(from));
            if let Some(id) = probe(from).filter(|&id| self.tenant_of(id).is_none()) {
                return Some((id, from));
            }
        }
    }

    /// Total tasks tracked (runnable + blocked).
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True if no task is tracked.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Asserts internal consistency: load sums match the per-task
    /// records, and the global readjustment tracks exactly the runnable
    /// tasks.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let mut sums = vec![Fixed::ZERO; self.shard_phi.len()];
        let mut runnable = 0usize;
        let mut tenant_counts: HashMap<TenantId, usize> = HashMap::new();
        for (id, t) in self.tasks.iter() {
            if t.runnable {
                runnable += 1;
                sums[t.shard] += t.phi;
                assert_eq!(
                    t.phi,
                    self.feas.phi(id, t.weight),
                    "stale global φ for {id}"
                );
            }
            if let Some(tenant) = t.tenant {
                *tenant_counts.entry(tenant).or_default() += 1;
                assert_eq!(
                    self.tenant_home.get(&tenant).map(|&(s, _)| s),
                    Some(t.shard),
                    "task {id} strayed from tenant {tenant}'s home shard"
                );
            }
        }
        assert_eq!(runnable, self.feas.len(), "readjustment tracks runnable");
        assert_eq!(sums, self.shard_phi, "shard load sums out of sync");
        assert_eq!(
            tenant_counts,
            self.tenant_home
                .iter()
                .map(|(&t, &(_, n))| (t, n))
                .collect(),
            "tenant anchors track live tasks"
        );
    }
}

/// A machine-wide scheduler built from per-shard instances of any
/// registered policy — the single-threaded form (one object behind the
/// [`Scheduler`] trait) that the simulator and `Experiment` drive; the
/// rt executor uses [`ShardedScheduler::into_parts`] to put each shard
/// behind its own lock instead.
pub struct ShardedScheduler {
    layout: ShardLayout,
    shards: Vec<Box<dyn Scheduler>>,
    bal: Balancer,
    rebalance_every: Duration,
    next_rebalance: Time,
    name: &'static str,
    steals: u64,
    rebalances: u64,
    wake_migrations: u64,
}

impl ShardedScheduler {
    /// The default rebalance interval.
    pub const DEFAULT_REBALANCE: Duration = Duration::from_millis(50);

    /// Builds `shards` instances of `inner` (which must not itself be
    /// sharded) over a `cpus`-processor machine. SFS shards subscribe
    /// to the balancer's feasibility snapshot; other policies run with
    /// placement balancing only.
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is zero or `inner` is itself sharded.
    pub fn build(
        inner: &PolicySpec,
        shards: u32,
        cpus: u32,
        rebalance_every: Option<Duration>,
    ) -> ShardedScheduler {
        assert_eq!(inner.shard_count(), 1, "inner policy must be unsharded");
        let layout = ShardLayout::new(cpus, shards);
        let cell = Arc::new(SnapshotCell::new());
        let shards: Vec<Box<dyn Scheduler>> = (0..layout.shards())
            .map(|s| inner.build_with_phi_snapshot(layout.shard_cpus(s), &cell))
            .collect();
        let bal = Balancer::new(&layout, cell);
        let name = match shards[0].name() {
            "SFS" => "SFS(sharded)",
            "SFS(hier)" => "SFS(hier,sharded)",
            "SFQ" => "SFQ(sharded)",
            "SFQ+readjust" => "SFQ+readjust(sharded)",
            "WFQ" => "WFQ(sharded)",
            "WFQ+readjust" => "WFQ+readjust(sharded)",
            "Stride" => "Stride(sharded)",
            "Stride+readjust" => "Stride+readjust(sharded)",
            "BVT" => "BVT(sharded)",
            "BVT+readjust" => "BVT+readjust(sharded)",
            "TimeSharing" => "TimeSharing(sharded)",
            "RoundRobin" => "RoundRobin(sharded)",
            _ => "sharded",
        };
        ShardedScheduler {
            layout,
            shards,
            bal,
            rebalance_every: rebalance_every.unwrap_or(Self::DEFAULT_REBALANCE),
            next_rebalance: Time::ZERO + rebalance_every.unwrap_or(Self::DEFAULT_REBALANCE),
            name,
            steals: 0,
            rebalances: 0,
            wake_migrations: 0,
        }
    }

    /// Decomposes into the shard layout, the per-shard policies and the
    /// global balancer, for substrates that lock shards independently.
    pub fn into_parts(self) -> (ShardLayout, Vec<Box<dyn Scheduler>>, Balancer) {
        (self.layout, self.shards, self.bal)
    }

    fn home(&self, id: TaskId) -> usize {
        self.bal.shard_of(id).expect("task on no shard")
    }

    /// Moves a ready task between shard policies. The task re-arrives
    /// on the target shard at its virtual time — migration carries no
    /// tag credit or debt, exactly like the no-sleeper-credit rule at
    /// wakeup (§2.3). Substrate-side service accounting is unaffected.
    fn migrate_ready(&mut self, id: TaskId, from: usize, to: usize, now: Time) {
        let w = self.shards[from].weight_of(id).expect("migrating stranger");
        self.shards[from].detach(id, now);
        self.bal.migrate(id, to);
        self.shards[to].attach(id, w, now);
    }

    /// The periodic rebalance pass: migrate highest-surplus ready tasks
    /// from overloaded to underloaded shards while each move strictly
    /// reduces the worse per-CPU load.
    fn maybe_rebalance(&mut self, now: Time) {
        if now < self.next_rebalance {
            return;
        }
        self.next_rebalance = now + self.rebalance_every;
        for _ in 0..self.layout.shards() * 2 {
            let (shards, layout) = (&self.shards, &self.layout);
            let Some((id, from, to)) = self.bal.plan_move(
                |s| shards[s].nr_runnable() > layout.shard_cpus(s) as usize,
                |s| shards[s].steal_candidate(),
            ) else {
                break;
            };
            self.migrate_ready(id, from, to, now);
            self.rebalances += 1;
        }
    }

    /// Steal-on-idle: called when shard `s` has no ready task. Takes
    /// the highest-surplus ready task [`Balancer::plan_steal`] approves.
    fn steal_for(&mut self, s: usize, now: Time) -> bool {
        let (shards, layout) = (&self.shards, &self.layout);
        let Some((id, donor)) = self.bal.plan_steal(s, |o| {
            let spare = shards[o].nr_runnable() > layout.shard_cpus(o) as usize;
            spare.then(|| shards[o].steal_candidate()).flatten()
        }) else {
            return false;
        };
        self.migrate_ready(id, donor, s, now);
        self.steals += 1;
        true
    }
}

impl Scheduler for ShardedScheduler {
    fn name(&self) -> &'static str {
        self.name
    }

    fn cpus(&self) -> u32 {
        self.layout.cpus()
    }

    fn attach(&mut self, id: TaskId, w: Weight, now: Time) {
        let s = self.bal.attach(id, w);
        self.shards[s].attach(id, w, now);
    }

    fn bind_tenant(&self, group: &str) -> Option<TenantId> {
        // All shards are built from the same spec, so any shard's
        // group table answers.
        self.shards[0].bind_tenant(group)
    }

    fn attach_tenant(&mut self, id: TaskId, w: Weight, tenant: Option<TenantId>, now: Time) {
        let s = self.bal.attach_tenant(id, w, tenant);
        self.shards[s].attach_tenant(id, w, tenant, now);
    }

    fn tenant_of(&self, id: TaskId) -> Option<TenantId> {
        self.bal.tenant_of(id)
    }

    fn detach(&mut self, id: TaskId, now: Time) {
        let s = self.home(id);
        self.shards[s].detach(id, now);
        self.bal.remove(id);
    }

    fn set_weight(&mut self, id: TaskId, w: Weight, now: Time) {
        self.bal.set_weight(id, w);
        let s = self.home(id);
        self.shards[s].set_weight(id, w, now);
    }

    fn weight_of(&self, id: TaskId) -> Option<Weight> {
        self.shards[self.bal.shard_of(id)?].weight_of(id)
    }

    fn adjusted_weight_of(&self, id: TaskId) -> Option<Fixed> {
        self.shards[self.bal.shard_of(id)?].adjusted_weight_of(id)
    }

    fn wake(&mut self, id: TaskId, now: Time) {
        let (home, target) = self.bal.wake(id);
        if home == target {
            self.shards[home].wake(id, now);
        } else {
            // Overloaded home shard: the waker re-arrives on the target
            // shard instead (fresh tags there, like any migration).
            self.wake_migrations += 1;
            let w = self.shards[home].weight_of(id).expect("waking stranger");
            self.shards[home].detach(id, now);
            self.shards[target].attach(id, w, now);
        }
    }

    fn pick_next(&mut self, cpu: CpuId, now: Time) -> Option<TaskId> {
        self.maybe_rebalance(now);
        let s = self.layout.shard_of(cpu);
        let local = self.layout.local(cpu);
        if let Some(id) = self.shards[s].pick_next(local, now) {
            return Some(id);
        }
        // Work conservation across shards: try to steal before idling.
        if self.steal_for(s, now) {
            return self.shards[s].pick_next(local, now);
        }
        None
    }

    fn put_prev(&mut self, id: TaskId, ran: Duration, reason: SwitchReason, now: Time) {
        let s = self.home(id);
        self.shards[s].put_prev(id, ran, reason, now);
        match reason {
            SwitchReason::Blocked => self.bal.block(id),
            SwitchReason::Exited => self.bal.remove(id),
            SwitchReason::Preempted | SwitchReason::Yielded => {}
        }
    }

    fn time_slice(&self, id: TaskId) -> Duration {
        match self.bal.shard_of(id) {
            Some(s) => self.shards[s].time_slice(id),
            None => self.shards[0].time_slice(id),
        }
    }

    fn wake_preempts(
        &self,
        woken: TaskId,
        running: TaskId,
        ran_so_far: Duration,
        now: Time,
    ) -> bool {
        // Tags are only comparable within one shard; cross-shard
        // wakeups rely on placement + stealing instead of preemption.
        match (self.bal.shard_of(woken), self.bal.shard_of(running)) {
            (Some(a), Some(b)) if a == b => {
                self.shards[a].wake_preempts(woken, running, ran_so_far, now)
            }
            _ => false,
        }
    }

    fn charged_surplus(&self, id: TaskId, ran_so_far: Duration, now: Time) -> Option<Fixed> {
        self.shards[self.bal.shard_of(id)?].charged_surplus(id, ran_so_far, now)
    }

    fn nr_runnable(&self) -> usize {
        self.shards.iter().map(|s| s.nr_runnable()).sum()
    }

    fn nr_tasks(&self) -> usize {
        self.shards.iter().map(|s| s.nr_tasks()).sum()
    }

    fn stats(&self) -> SchedStats {
        let mut agg = self
            .shards
            .iter()
            .map(|s| s.stats())
            .fold(SchedStats::default(), SchedStats::merged);
        agg.shard_steals = self.steals;
        agg.shard_rebalances = self.rebalances;
        agg.shard_wake_migrations = self.wake_migrations;
        agg
    }

    fn check_invariants(&self) {
        for s in &self.shards {
            s.check_invariants();
        }
        self.bal.check_invariants();
        let total: usize = self.shards.iter().map(|s| s.nr_tasks()).sum();
        assert_eq!(total, self.bal.len(), "task partition out of sync");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::weight;

    fn fx(v: i64) -> Fixed {
        Fixed::from_int(v)
    }

    #[test]
    fn layout_partitions_cpus_contiguously() {
        let l = ShardLayout::new(8, 3);
        assert_eq!(l.shards(), 3);
        assert_eq!(l.cpus(), 8);
        assert_eq!(
            (0..3).map(|s| l.shard_cpus(s)).collect::<Vec<_>>(),
            vec![3, 3, 2]
        );
        assert_eq!(l.shard_of(CpuId(0)), 0);
        assert_eq!(l.shard_of(CpuId(2)), 0);
        assert_eq!(l.shard_of(CpuId(3)), 1);
        assert_eq!(l.shard_of(CpuId(7)), 2);
        assert_eq!(l.local(CpuId(7)), CpuId(1));
        assert_eq!(l.local(CpuId(3)), CpuId(0));
        // Over-sharding clamps to one CPU per shard.
        let l = ShardLayout::new(2, 9);
        assert_eq!(l.shards(), 2);
    }

    #[test]
    fn snapshot_cell_publishes_only_changes() {
        let cell = SnapshotCell::new();
        assert_eq!(cell.load().epoch, 0);
        assert!(cell.load_if_newer(0).is_none());
        cell.publish(Some(fx(2)), &[TaskId(7)]);
        let s = cell.load_if_newer(0).expect("new epoch");
        assert_eq!(s.epoch, 1);
        assert_eq!(s.cap_of(TaskId(7)), Some(fx(2)));
        assert_eq!(s.cap_of(TaskId(8)), None);
        // Identical republication is a no-op.
        cell.publish(Some(fx(2)), &[TaskId(7)]);
        assert!(cell.load_if_newer(1).is_none());
        cell.publish(None, &[]);
        assert_eq!(cell.load().epoch, 2);
    }

    /// Regression pin for publish-then-read visibility: the slot
    /// content is written *before* the epoch counter is released, so a
    /// reader whose `load_if_newer` fires must always observe content
    /// at least as new as the epoch that triggered it, and epochs must
    /// never run backwards per reader.
    #[test]
    fn snapshot_cell_publish_then_read_visibility() {
        use std::sync::atomic::AtomicBool;

        let cell = Arc::new(SnapshotCell::new());
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut seen = 0u64;
                    while !stop.load(Ordering::Acquire) {
                        if let Some(snap) = cell.load_if_newer(seen) {
                            assert!(
                                snap.epoch > seen,
                                "epoch regressed: {} after {}",
                                snap.epoch,
                                seen
                            );
                            // The publisher keeps |clamped| == epoch % 2 + 1,
                            // so stale content under a fresh epoch is caught.
                            assert_eq!(
                                snap.clamped.len() as u64,
                                snap.epoch % 2 + 1,
                                "content does not match its own epoch"
                            );
                            seen = snap.epoch;
                        }
                    }
                    seen
                })
            })
            .collect();
        // Epoch k carries k % 2 + 1 clamped ids; consecutive clamp
        // sets always differ, so every publish bumps the epoch.
        for k in 1..=2_000u64 {
            if k % 2 == 0 {
                cell.publish(Some(fx(1)), &[TaskId(1)]);
            } else {
                cell.publish(Some(fx(1)), &[TaskId(1), TaskId(2)]);
            }
        }
        stop.store(true, Ordering::Release);
        for r in readers {
            r.join().expect("reader panicked");
        }
        assert_eq!(cell.load().epoch, 2_000);
    }

    #[test]
    fn balancer_places_on_least_loaded_shard() {
        let layout = ShardLayout::new(2, 2);
        let mut b = Balancer::new(&layout, Arc::new(SnapshotCell::new()));
        // Equal weights alternate between the shards (ties → shard 0).
        for i in 0..6u64 {
            assert_eq!(b.attach(TaskId(i), weight(1)), (i % 2) as usize, "T{i}");
        }
        // A heavy arrival joins the tied shard 0 and is globally
        // clamped: 10·2 > 16, so its φ is the cap (16 − 10)/1 = 6.
        assert_eq!(b.attach(TaskId(6), weight(10)), 0);
        assert_eq!(b.load(0), fx(3 + 6));
        // Its clamped φ, not its raw weight, loads shard 0; the next
        // light arrival still sees shard 1 as the lighter one.
        assert_eq!(b.attach(TaskId(7), weight(1)), 1);
        b.check_invariants();
    }

    #[test]
    fn balancer_wake_is_sticky_until_overloaded() {
        let layout = ShardLayout::new(2, 2);
        let mut b = Balancer::new(&layout, Arc::new(SnapshotCell::new()));
        for i in 1..=4u64 {
            b.attach(TaskId(i), weight(1));
        }
        b.block(TaskId(2));
        // Loads 2 vs 1: the gap does not exceed the waker's own
        // contribution, so it stays home (shard 1).
        assert_eq!(b.wake(TaskId(2)), (1, 1));
        b.block(TaskId(2));
        // A heavy arrival lands on the lighter shard 1 (clamped to
        // φ = 3); waking the blocked shard-1 task now sees loads 5 vs 2
        // and migrates it to shard 0.
        b.attach(TaskId(5), weight(5));
        assert_eq!(b.shard_of(TaskId(5)), Some(1));
        assert_eq!(b.wake(TaskId(2)), (1, 0));
        b.check_invariants();
    }

    #[test]
    fn balancer_publishes_global_clamps() {
        // 1:10 on a 2-CPU machine clamps the heavy task globally even
        // though each 1-CPU shard is locally feasible.
        let layout = ShardLayout::new(2, 2);
        let cell = Arc::new(SnapshotCell::new());
        let mut b = Balancer::new(&layout, Arc::clone(&cell));
        b.attach(TaskId(1), weight(1));
        b.attach(TaskId(2), weight(10));
        let snap = cell.load();
        assert_eq!(snap.cap_of(TaskId(2)), Some(fx(1)));
        assert_eq!(snap.cap_of(TaskId(1)), None);
        // The load sums use the clamped φ, not the raw weight.
        assert_eq!(b.load(0) + b.load(1), fx(2));
        b.check_invariants();
    }

    #[test]
    fn steal_gain_stops_within_one_weight_per_cpu() {
        let layout = ShardLayout::new(2, 2);
        let mut b = Balancer::new(&layout, Arc::new(SnapshotCell::new()));
        b.attach(TaskId(1), weight(1)); // shard 0
        b.attach(TaskId(2), weight(1)); // shard 1
        b.attach(TaskId(3), weight(1)); // shard 0 (tie)
                                        // Moving the tie-breaker over cannot reduce the larger load.
        assert!(!b.steal_gain(TaskId(3), 1));
        // Overload shard 1 (arrivals alternate toward the lighter
        // shard), ending at per-CPU loads 7 vs 10.
        b.attach(TaskId(4), weight(5)); // shard 1
        b.attach(TaskId(5), weight(5)); // shard 0
        b.attach(TaskId(6), weight(4)); // shard 1
        assert_eq!(b.shard_of(TaskId(6)), Some(1));
        assert_eq!((b.load(0), b.load(1)), (fx(7), fx(10)));
        // Shedding a light task strictly helps; shedding the big one
        // would overshoot and is refused.
        assert!(b.steal_gain(TaskId(2), 0));
        assert!(!b.steal_gain(TaskId(6), 0), "a big task overshoots");
        b.check_invariants();
    }

    #[test]
    fn sharded_sfs_is_work_conserving_via_stealing() {
        let spec: PolicySpec = "sfs:quantum=1ms".parse().unwrap();
        let mut s = ShardedScheduler::build(&spec, 2, 2, None);
        let now = Time::ZERO;
        // Both tasks land on different shards; block one, then make its
        // shard's CPU pick: it must steal the other shard's ready task
        // only if that shard can spare one (it cannot here), so the CPU
        // idles — then add a third task and the idle CPU steals it.
        s.attach(TaskId(1), weight(1), now);
        s.attach(TaskId(2), weight(1), now);
        assert_eq!(s.nr_runnable(), 2);
        let a = s.pick_next(CpuId(0), now).unwrap();
        let b = s.pick_next(CpuId(1), now).unwrap();
        assert_ne!(a, b);
        // CPU 0's task blocks; shard 0 is now empty.
        s.put_prev(a, Duration::from_millis(1), SwitchReason::Blocked, now);
        assert!(s.pick_next(CpuId(0), now).is_none(), "nothing to steal");
        // A new arrival goes to the empty shard 0 by load...
        s.attach(TaskId(3), weight(1), now);
        let c = s.pick_next(CpuId(0), now).unwrap();
        assert_eq!(c, TaskId(3));
        // ...and a fourth, landing on whichever shard, is stolen by an
        // idle CPU of the other shard if needed.
        s.attach(TaskId(4), weight(1), now);
        s.put_prev(b, Duration::from_millis(1), SwitchReason::Preempted, now);
        let d = s.pick_next(CpuId(1), now).unwrap();
        assert!(d == TaskId(4) || d == b, "cpu1 must not idle");
        s.check_invariants();
    }

    #[test]
    fn sharded_shares_track_global_weights() {
        // 4 CPUs, 2 shards, weights 2:1:1:1:1:2 — lockstep quanta. The
        // sharded scheduler's service ratios must approximate the
        // global 2:1.
        let spec: PolicySpec = "sfs:quantum=1ms".parse().unwrap();
        let mut s = ShardedScheduler::build(&spec, 2, 4, Some(Duration::from_millis(4)));
        let weights = [2u64, 1, 1, 1, 1, 2];
        let mut now = Time::ZERO;
        let mut service = vec![0u64; weights.len()];
        for (i, w) in weights.iter().enumerate() {
            s.attach(TaskId(i as u64), weight(*w), now);
        }
        let q = Duration::from_millis(1);
        let mut running: Vec<Option<TaskId>> = vec![None; 4];
        for _ in 0..4000 {
            for (c, slot) in running.iter_mut().enumerate() {
                if slot.is_none() {
                    *slot = s.pick_next(CpuId(c as u32), now);
                }
            }
            now += q;
            for slot in &mut running {
                if let Some(id) = slot.take() {
                    service[id.0 as usize] += 1;
                    s.put_prev(id, q, SwitchReason::Preempted, now);
                }
            }
        }
        s.check_invariants();
        let total: u64 = service.iter().sum();
        assert_eq!(total, 16_000, "work conservation");
        // Weights sum to 8 over 4 CPUs: weight-2 tasks deserve 1/4 of
        // the machine each, weight-1 tasks 1/8.
        for (i, w) in weights.iter().enumerate() {
            let share = service[i] as f64 / total as f64;
            let ideal = *w as f64 / 8.0;
            assert!(
                (share - ideal).abs() < 0.04,
                "T{i} share {share:.3}, ideal {ideal:.3} (service {service:?})"
            );
        }
        let st = s.stats();
        assert!(st.picks > 0);
    }

    #[test]
    fn sharded_clamp_matches_global_readjustment() {
        // Example 1 sharded: 1:10 on 2 CPUs split into 2 shards. Each
        // 1-CPU shard is locally feasible, so only the published global
        // snapshot clamps the heavy task — both must end up ~1:1.
        let spec: PolicySpec = "sfs:quantum=1ms".parse().unwrap();
        let mut s = ShardedScheduler::build(&spec, 2, 2, None);
        let mut now = Time::ZERO;
        s.attach(TaskId(1), weight(1), now);
        s.attach(TaskId(2), weight(10), now);
        assert_eq!(s.adjusted_weight_of(TaskId(2)), Some(fx(1)), "global cap");
        let q = Duration::from_millis(1);
        let mut service = [0u64; 2];
        for _ in 0..500 {
            for c in 0..2u32 {
                if let Some(id) = s.pick_next(CpuId(c), now) {
                    service[id.0 as usize - 1] += 1;
                    now += q;
                    s.put_prev(id, q, SwitchReason::Preempted, now);
                }
            }
        }
        s.check_invariants();
        let ratio = service[1] as f64 / service[0] as f64;
        assert!(
            (0.9..1.1).contains(&ratio),
            "clamped ratio {ratio:.2} (service {service:?})"
        );
    }

    #[test]
    fn tenants_anchor_to_one_shard_and_wake_in_place() {
        let layout = ShardLayout::new(2, 2);
        let mut b = Balancer::new(&layout, Arc::new(SnapshotCell::new()));
        let ta = TenantId(0);
        // The tenant's first task anchors it (shard 0 on the empty
        // tie); every later task joins it there even though plain
        // placement would alternate.
        assert_eq!(b.attach_tenant(TaskId(1), weight(1), Some(ta)), 0);
        assert_eq!(b.attach_tenant(TaskId(2), weight(1), Some(ta)), 0);
        assert_eq!(b.attach_tenant(TaskId(3), weight(1), Some(ta)), 0);
        assert_eq!(b.tenant_shard(ta), Some(0));
        assert_eq!(b.tenant_of(TaskId(2)), Some(ta));
        // Even with the home shard far heavier, a tenant task wakes in
        // place — migration would split the group.
        b.attach(TaskId(9), weight(1)); // shard 1
        b.block(TaskId(1));
        assert_eq!(b.wake(TaskId(1)), (0, 0), "tenant task stays home");
        // A tenant candidate is refused by the rebalance planner.
        assert_eq!(b.plan_move(|_| true, |_| Some(TaskId(2))), None);
        // ...and by the steal planner, which takes the free task.
        assert_eq!(b.plan_steal(1, |_| Some(TaskId(2))), None);
        assert_eq!(b.plan_steal(0, |_| Some(TaskId(9))), Some((TaskId(9), 1)));
        b.check_invariants();
        // The anchor drops with the last task and re-places on the
        // (now heavier-0) machine: the next arrival anchors on shard 1.
        for id in [1u64, 2, 3] {
            b.remove(TaskId(id));
        }
        assert_eq!(b.tenant_shard(ta), None);
        assert_eq!(b.attach_tenant(TaskId(4), weight(1), Some(ta)), 0);
        b.check_invariants();
    }

    #[test]
    fn plan_steal_probes_donors_from_the_most_loaded_down() {
        let layout = ShardLayout::new(4, 4);
        let mut b = Balancer::new(&layout, Arc::new(SnapshotCell::new()));
        // Equal weights fill the shards round-robin: 11 tasks leave
        // loads (3, 3, 3, 2); blocking T1 makes them (2, 3, 3, 2).
        for id in 1..=11u64 {
            b.attach(TaskId(id), weight(1));
        }
        b.block(TaskId(1));
        let mut order = Vec::new();
        let plan = b.plan_steal(3, |s| {
            order.push(s);
            None
        });
        assert_eq!(plan, None);
        assert_eq!(order, [1, 2, 0], "descending load, ties to the low index");
        // The search ends at the first approved nominee.
        assert_eq!(
            b.plan_steal(3, |s| (s == 2).then_some(TaskId(3))),
            Some((TaskId(3), 2))
        );
    }

    #[test]
    fn sharded_hier_never_splits_a_tenant() {
        let spec: PolicySpec = "sfs:groups(a=sfs,b=sfs),shards=2".parse().unwrap();
        let inner = spec.without_sharding();
        let mut s = ShardedScheduler::build(&inner, 2, 4, Some(Duration::from_millis(2)));
        assert_eq!(s.name(), "SFS(hier,sharded)");
        let ta = s.bind_tenant("a").unwrap();
        let tb = s.bind_tenant("b").unwrap();
        assert_eq!(s.bind_tenant("zzz"), None);
        let mut now = Time::ZERO;
        for i in 0..4u64 {
            s.attach_tenant(TaskId(i), weight(1), Some(ta), now);
        }
        for i in 4..8u64 {
            s.attach_tenant(TaskId(i), weight(1), Some(tb), now);
        }
        assert_eq!(s.tenant_of(TaskId(0)), Some(ta));
        assert_eq!(s.tenant_of(TaskId(7)), Some(tb));
        let q = Duration::from_millis(1);
        let mut running: Vec<Option<TaskId>> = vec![None; 4];
        for _ in 0..200 {
            for (c, slot) in running.iter_mut().enumerate() {
                if slot.is_none() {
                    *slot = s.pick_next(CpuId(c as u32), now);
                }
            }
            now += q;
            for slot in &mut running {
                if let Some(id) = slot.take() {
                    s.put_prev(id, q, SwitchReason::Preempted, now);
                }
            }
        }
        s.check_invariants();
        // Every tenant's tasks stayed together on one shard.
        let home_a = s.bal.shard_of(TaskId(0)).unwrap();
        for i in 0..4u64 {
            assert_eq!(s.bal.shard_of(TaskId(i)), Some(home_a), "tenant a split");
        }
        let home_b = s.bal.shard_of(TaskId(4)).unwrap();
        for i in 4..8u64 {
            assert_eq!(s.bal.shard_of(TaskId(i)), Some(home_b), "tenant b split");
        }
    }

    #[test]
    fn steal_on_idle_never_splits_a_tenant() {
        // Flat SFS shards nominate steal candidates without knowing
        // about tenants; the balancer anchored all three tasks to one
        // shard, so the other shard's idle CPU must stay idle.
        let spec: PolicySpec = "sfs:quantum=1ms".parse().unwrap();
        let mut s = ShardedScheduler::build(&spec, 2, 2, None);
        let now = Time::ZERO;
        for i in 0..3u64 {
            s.attach_tenant(TaskId(i), weight(1), Some(TenantId(0)), now);
        }
        assert!(s.pick_next(CpuId(0), now).is_some());
        assert_eq!(s.pick_next(CpuId(1), now), None, "stole a tenant member");
        assert_eq!(s.stats().shard_steals, 0);
        s.check_invariants();
    }

    #[test]
    fn rebalance_moves_surplus_from_overloaded_shard() {
        let spec: PolicySpec = "sfs:quantum=1ms".parse().unwrap();
        let mut s = ShardedScheduler::build(&spec, 2, 4, Some(Duration::from_millis(2)));
        let mut now = Time::ZERO;
        // Fill shard 0 and shard 1 evenly, then block everything on
        // shard 1 except one task and pile wakes onto shard 0 — the
        // periodic pass must shed load.
        for i in 0..8u64 {
            s.attach(TaskId(i), weight(1), now);
        }
        let q = Duration::from_millis(1);
        let mut running: Vec<Option<TaskId>> = vec![None; 4];
        for _ in 0..200 {
            for (c, slot) in running.iter_mut().enumerate() {
                if slot.is_none() {
                    *slot = s.pick_next(CpuId(c as u32), now);
                }
            }
            now += q;
            for slot in &mut running {
                if let Some(id) = slot.take() {
                    s.put_prev(id, q, SwitchReason::Preempted, now);
                }
            }
        }
        s.check_invariants();
        // Balanced load: no steals needed beyond possibly startup.
        let st = s.stats();
        assert!(st.picks > 700, "both shards kept busy: {}", st.picks);
    }
}
