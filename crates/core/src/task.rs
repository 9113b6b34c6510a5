//! Task and processor identifiers and shared per-task scheduling state.

use core::fmt;
use core::num::NonZeroU64;

use crate::fixed::Fixed;

/// Identifies a schedulable entity (the paper's "thread").
///
/// Ids are allocated by the substrate (simulator or runtime); schedulers
/// treat them as opaque keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u64);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Identifies a tenant group in hierarchical scheduling.
///
/// Tenants are declared by a `PolicySpec`'s `groups(...)` clause; the
/// id is the group's position in that clause, so it is stable across
/// the spec's parse ∘ `Display` round-trip. Tasks carry an optional
/// tenant and the hierarchical scheduler (`crate::hier`) enforces each
/// tenant's share regardless of how many tasks the tenant runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "G{}", self.0)
    }
}

/// Identifies one processor of the symmetric multiprocessor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CpuId(pub u32);

impl fmt::Display for CpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

/// A proportional share expressed as a relative weight (§2).
///
/// A thread with weight `w_i` should receive `w_i / Σ_j w_j` of the total
/// processor bandwidth, subject to the feasibility constraint (Eq. 1).
/// Weights are strictly positive; the kernel implementation assigns every
/// thread a default weight of 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Weight(NonZeroU64);

impl Weight {
    /// The default weight assigned to new threads (§3.1).
    pub const DEFAULT: Weight = match NonZeroU64::new(1) {
        Some(w) => Weight(w),
        None => unreachable!(),
    };

    /// Creates a weight; returns `None` for zero (invalid, like the
    /// kernel's `setweight` rejecting non-positive weights).
    pub fn new(w: u64) -> Option<Weight> {
        NonZeroU64::new(w).map(Weight)
    }

    /// Returns the raw weight value.
    pub const fn get(self) -> u64 {
        self.0.get()
    }

    /// The weight as a fixed-point value.
    pub fn as_fixed(self) -> Fixed {
        Fixed::from_int(self.get() as i64)
    }
}

impl Default for Weight {
    fn default() -> Weight {
        Weight::DEFAULT
    }
}

impl fmt::Display for Weight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.get())
    }
}

/// Convenience constructor for tests and examples.
///
/// # Panics
///
/// Panics if `w` is zero.
pub fn weight(w: u64) -> Weight {
    Weight::new(w).expect("weight must be positive")
}

/// Run state of a task as seen by a scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// On the run queue, waiting for a processor.
    Ready,
    /// Currently executing on the given processor.
    Running(CpuId),
    /// Sleeping on an I/O or synchronisation event.
    Blocked,
}

impl TaskState {
    /// True for `Ready` and `Running` (the paper's "runnable").
    pub fn is_runnable(self) -> bool {
        !matches!(self, TaskState::Blocked)
    }

    /// True only for `Running`.
    pub fn is_running(self) -> bool {
        matches!(self, TaskState::Running(_))
    }
}

/// Per-task accounting of SFS (the tag-queue policies keep their own
/// tag structs beside their tag rules).
///
/// Field names follow §2.3: `start_tag`/`finish_tag` are the virtual-time
/// tags `S_i`/`F_i` and `phi` is the instantaneous (readjusted) weight
/// `φ_i`. The surplus `α_i = φ_i · (S_i − v)` is never stored — it
/// depends on the live virtual time, so SFS derives it on demand.
#[derive(Debug, Clone)]
pub struct TagTask {
    /// The task this state belongs to.
    pub id: TaskId,
    /// The user-assigned weight `w_i`.
    pub weight: Weight,
    /// The instantaneous weight `φ_i` produced by weight readjustment.
    pub phi: Fixed,
    /// Start tag `S_i`.
    pub start_tag: Fixed,
    /// Finish tag `F_i`.
    pub finish_tag: Fixed,
    /// Current run state.
    pub state: TaskState,
}

impl TagTask {
    /// Creates accounting state for a newly arrived task.
    pub fn new(id: TaskId, w: Weight, start_tag: Fixed) -> TagTask {
        TagTask {
            id,
            weight: w,
            phi: w.as_fixed(),
            start_tag,
            finish_tag: start_tag,
            state: TaskState::Ready,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_rejects_zero() {
        assert!(Weight::new(0).is_none());
        assert_eq!(Weight::new(5).unwrap().get(), 5);
        assert_eq!(Weight::DEFAULT.get(), 1);
        assert_eq!(Weight::default(), Weight::DEFAULT);
    }

    #[test]
    #[should_panic(expected = "weight must be positive")]
    fn weight_helper_panics_on_zero() {
        let _ = weight(0);
    }

    #[test]
    fn weight_as_fixed() {
        assert_eq!(weight(7).as_fixed(), Fixed::from_int(7));
    }

    #[test]
    fn state_predicates() {
        assert!(TaskState::Ready.is_runnable());
        assert!(TaskState::Running(CpuId(0)).is_runnable());
        assert!(!TaskState::Blocked.is_runnable());
        assert!(TaskState::Running(CpuId(1)).is_running());
        assert!(!TaskState::Ready.is_running());
    }

    #[test]
    fn new_tag_task_starts_at_virtual_time() {
        let t = TagTask::new(TaskId(3), weight(2), Fixed::from_int(9));
        assert_eq!(t.start_tag, Fixed::from_int(9));
        assert_eq!(t.finish_tag, Fixed::from_int(9));
        assert_eq!(t.phi, Fixed::from_int(2));
        assert_eq!(t.state, TaskState::Ready);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", TaskId(4)), "T4");
        assert_eq!(format!("{}", CpuId(1)), "cpu1");
        assert_eq!(format!("{}", TenantId(2)), "G2");
        assert_eq!(format!("{}", weight(10)), "10");
    }
}
