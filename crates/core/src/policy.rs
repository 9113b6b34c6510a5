//! A typed, parseable description of a scheduling policy.
//!
//! Every experiment in this repository compares policies — SFS against
//! SFQ, time sharing, stride, BVT, WFQ, round-robin (§4) — so the
//! policy-plus-configuration pair is itself a first-class value:
//! [`PolicySpec`] is a small, serialisable registry entry that
//!
//! * round-trips through strings (`"sfs:quantum=5ms"`,
//!   `"sfq:quantum=1ms,readjust"`, `"ts"`, `"rr"`), so harness CLIs,
//!   result files and test matrices all speak the same dialect;
//! * builds a ready [`Scheduler`] for any CPU count via
//!   [`PolicySpec::build`], replacing ad-hoc constructor calls at every
//!   comparison site;
//! * enumerates the registry via [`PolicySpec::registered`], so generic
//!   properties (conservation, churn survival) run against *every*
//!   policy automatically.
//!
//! The grammar is `kind[:opt,opt,...]` where each `opt` is `key=value`
//! or a bare flag. Options are validated against the kind — `ts:readjust`
//! is a parse error, not a silent no-op — and [`fmt::Display`] prints a
//! canonical form, so `parse ∘ to_string` is the identity on every
//! constructible spec. Top-level options may also be separated by `:`
//! (an accepted alternate spelling, convenient for clause-shaped
//! options: `sfs:groups(a=sfs,b=sfs):admit(max=1000,rate=500/s)`);
//! `Display` always emits commas.

use core::fmt;
use core::str::FromStr;
use std::sync::Arc;

use crate::admit::{AdmissionPolicy, ParseAdmitError};
use crate::bvt::Bvt;
use crate::hier::HierSfs;
use crate::rr::RoundRobin;
use crate::sched::Scheduler;
use crate::sfq::Sfq;
use crate::sfs::{Sfs, SfsConfig};
use crate::shard::{ShardedScheduler, SnapshotCell};
use crate::stride::Stride;
use crate::tagq::TagConfig;
use crate::task::TenantId;
use crate::time::{Duration, Literal};
use crate::timeshare::{TimeSharing, TimeSharingConfig};
use crate::wfq::Wfq;

/// The algorithms registered with [`PolicySpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Surplus fair scheduling (§2.3, §3).
    Sfs,
    /// Start-time fair queueing (Goyal et al.), optionally readjusted.
    Sfq,
    /// The Linux 2.2 epoch/goodness time-sharing scheduler.
    TimeSharing,
    /// Stride scheduling (Waldspurger & Weihl).
    Stride,
    /// Borrowed virtual time (Duda & Cheriton).
    Bvt,
    /// Weighted fair queueing (finish-tag based).
    Wfq,
    /// Plain round-robin.
    RoundRobin,
}

impl PolicyKind {
    /// Every registered kind, in canonical order.
    pub const ALL: [PolicyKind; 7] = [
        PolicyKind::Sfs,
        PolicyKind::Sfq,
        PolicyKind::TimeSharing,
        PolicyKind::Stride,
        PolicyKind::Bvt,
        PolicyKind::Wfq,
        PolicyKind::RoundRobin,
    ];

    /// The canonical string token (`"sfs"`, `"ts"`, ...).
    pub fn token(self) -> &'static str {
        match self {
            PolicyKind::Sfs => "sfs",
            PolicyKind::Sfq => "sfq",
            PolicyKind::TimeSharing => "ts",
            PolicyKind::Stride => "stride",
            PolicyKind::Bvt => "bvt",
            PolicyKind::Wfq => "wfq",
            PolicyKind::RoundRobin => "rr",
        }
    }

    /// Whether the `quantum` option applies to this kind.
    fn has_quantum(self) -> bool {
        !matches!(self, PolicyKind::TimeSharing)
    }

    /// Whether the `readjust` flag applies to this kind (SFS always
    /// readjusts; time sharing and round-robin ignore weights).
    fn has_readjust(self) -> bool {
        matches!(
            self,
            PolicyKind::Sfq | PolicyKind::Stride | PolicyKind::Bvt | PolicyKind::Wfq
        )
    }

    fn parse(token: &str) -> Option<PolicyKind> {
        Some(match token {
            "sfs" => PolicyKind::Sfs,
            "sfq" => PolicyKind::Sfq,
            "ts" | "timeshare" | "timesharing" => PolicyKind::TimeSharing,
            "stride" => PolicyKind::Stride,
            "bvt" => PolicyKind::Bvt,
            "wfq" => PolicyKind::Wfq,
            "rr" | "roundrobin" => PolicyKind::RoundRobin,
            _ => return None,
        })
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// One tenant group of a hierarchical spec: a name, a share (the group
/// weight SFS enforces at the top level) and the policy scheduling
/// *within* the group.
///
/// The string form is `name=policy` inside a `groups(...)` clause, or
/// `name*share=policy` for shares other than 1:
///
/// ```
/// use sfs_core::policy::{GroupSpec, PolicySpec};
/// use sfs_core::time::Duration;
///
/// let frontend = PolicySpec::sfs().with_quantum(Duration::from_millis(5));
/// let spec = PolicySpec::sfs_over([
///     GroupSpec::new("batch", PolicySpec::sfq()),
///     GroupSpec::new("frontend", frontend).with_share(3),
/// ]);
/// assert_eq!(spec.to_string(), "sfs:groups(batch=sfq,frontend*3=sfs:quantum=5ms)");
/// assert_eq!(spec, spec.to_string().parse().unwrap());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GroupSpec {
    name: String,
    share: u64,
    policy: PolicySpec,
}

impl GroupSpec {
    /// A group with share 1 under the given intra-group policy.
    ///
    /// # Panics
    ///
    /// Panics if the name is empty or contains characters outside
    /// `[A-Za-z0-9_-]`, or if the policy is itself sharded or grouped
    /// (hierarchies are two-level).
    #[must_use]
    pub fn new(name: &str, policy: PolicySpec) -> GroupSpec {
        assert!(
            !name.is_empty() && name.chars().all(valid_group_char),
            "invalid group name {name:?} (want [A-Za-z0-9_-]+)"
        );
        assert!(
            policy.shards.is_none(),
            "group policies cannot be sharded: {policy}"
        );
        assert!(policy.groups.is_empty(), "groups cannot nest: {policy}");
        assert!(
            policy.admission.is_none(),
            "admission control applies to the whole spec, not a group: {policy}"
        );
        GroupSpec {
            name: name.to_string(),
            share: 1,
            policy,
        }
    }

    /// Sets the group's share (its weight in the top-level SFS).
    ///
    /// # Panics
    ///
    /// Panics if the share is zero.
    #[must_use]
    pub fn with_share(mut self, share: u64) -> GroupSpec {
        assert!(share > 0, "group share must be positive");
        self.share = share;
        self
    }

    /// The group (tenant) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The group's share.
    pub fn share(&self) -> u64 {
        self.share
    }

    /// The intra-group policy.
    pub fn policy(&self) -> &PolicySpec {
        &self.policy
    }
}

impl fmt::Display for GroupSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.share == 1 {
            write!(f, "{}=", self.name)?;
        } else {
            write!(f, "{}*{}=", self.name, self.share)?;
        }
        // A sub-spec with several options contains commas, which would
        // read as new group entries; parenthesise it so the clause
        // round-trips.
        let policy = self.policy.to_string();
        if policy.contains(',') {
            write!(f, "({policy})")
        } else {
            f.write_str(&policy)
        }
    }
}

fn valid_group_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '-'
}

/// A serialisable policy + configuration description.
///
/// Construct one with the per-kind builders ([`PolicySpec::sfs`],
/// [`PolicySpec::sfq`], ...), refine it with the `with_*` methods, or
/// parse it from its string form. Build a live scheduler for a machine
/// with [`PolicySpec::build`].
///
/// ```
/// use sfs_core::policy::PolicySpec;
/// use sfs_core::time::Duration;
///
/// let spec: PolicySpec = "sfs:quantum=5ms".parse().unwrap();
/// assert_eq!(spec, PolicySpec::sfs().with_quantum(Duration::from_millis(5)));
/// assert_eq!(spec.to_string(), "sfs:quantum=5ms");
/// let sched = spec.build(2);
/// assert_eq!(sched.cpus(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PolicySpec {
    kind: PolicyKind,
    quantum: Option<Duration>,
    readjust: bool,
    ticks: Option<i64>,
    shards: Option<u32>,
    rebalance: Option<Duration>,
    groups: Vec<GroupSpec>,
    admission: Option<AdmissionPolicy>,
}

impl PolicySpec {
    /// A spec of the given kind with every option at its default.
    pub fn new(kind: PolicyKind) -> PolicySpec {
        PolicySpec {
            kind,
            quantum: None,
            readjust: false,
            ticks: None,
            shards: None,
            rebalance: None,
            groups: Vec::new(),
            admission: None,
        }
    }

    /// Surplus fair scheduling with default configuration.
    #[must_use]
    pub fn sfs() -> PolicySpec {
        PolicySpec::new(PolicyKind::Sfs)
    }

    /// Start-time fair queueing (no readjustment).
    #[must_use]
    pub fn sfq() -> PolicySpec {
        PolicySpec::new(PolicyKind::Sfq)
    }

    /// The Linux 2.2 time-sharing baseline.
    #[must_use]
    pub fn time_sharing() -> PolicySpec {
        PolicySpec::new(PolicyKind::TimeSharing)
    }

    /// Stride scheduling.
    #[must_use]
    pub fn stride() -> PolicySpec {
        PolicySpec::new(PolicyKind::Stride)
    }

    /// Borrowed virtual time.
    #[must_use]
    pub fn bvt() -> PolicySpec {
        PolicySpec::new(PolicyKind::Bvt)
    }

    /// Weighted fair queueing.
    #[must_use]
    pub fn wfq() -> PolicySpec {
        PolicySpec::new(PolicyKind::Wfq)
    }

    /// Round-robin.
    #[must_use]
    pub fn round_robin() -> PolicySpec {
        PolicySpec::new(PolicyKind::RoundRobin)
    }

    /// Hierarchical SFS over tenant groups: the top level runs SFS with
    /// each group's share as its weight (group-level §2.1 readjustment
    /// included), and each group's member tasks are scheduled by that
    /// group's own policy. String form: `sfs:groups(name=policy,...)`.
    ///
    /// ```
    /// use sfs_core::policy::{GroupSpec, PolicySpec};
    ///
    /// let spec = PolicySpec::sfs_over([
    ///     GroupSpec::new("batch", PolicySpec::sfq()),
    ///     GroupSpec::new("frontend", PolicySpec::sfs()),
    /// ]);
    /// let sched = spec.build(2);
    /// assert_eq!(sched.name(), "SFS(hier)");
    /// assert_eq!(spec.tenant_of("frontend").unwrap().0, 1);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the group list is empty or contains duplicate names.
    #[must_use]
    pub fn sfs_over(groups: impl IntoIterator<Item = GroupSpec>) -> PolicySpec {
        let groups: Vec<GroupSpec> = groups.into_iter().collect();
        assert!(!groups.is_empty(), "need at least one group");
        for (i, g) in groups.iter().enumerate() {
            assert!(
                !groups[..i].iter().any(|o| o.name == g.name),
                "duplicate group name {:?}",
                g.name
            );
        }
        let mut spec = PolicySpec::new(PolicyKind::Sfs);
        spec.groups = groups;
        spec
    }

    /// The tenant groups of a hierarchical spec (empty when flat).
    pub fn groups(&self) -> &[GroupSpec] {
        &self.groups
    }

    /// Resolves a group name to its [`TenantId`] — the group's position
    /// in the `groups(...)` clause, stable across the parse ∘ `Display`
    /// round-trip. `None` for flat specs or unknown names.
    pub fn tenant_of(&self, name: &str) -> Option<TenantId> {
        self.groups
            .iter()
            .position(|g| g.name == name)
            .map(|i| TenantId(i as u32))
    }

    /// One canonical (all-defaults) spec per registered kind — the
    /// registry that generic cross-policy tests iterate.
    pub fn registered() -> Vec<PolicySpec> {
        PolicyKind::ALL
            .iter()
            .copied()
            .map(PolicySpec::new)
            .collect()
    }

    /// The policy kind.
    pub fn kind(&self) -> PolicyKind {
        self.kind
    }

    /// Sets the scheduling quantum.
    ///
    /// # Panics
    ///
    /// Panics for time sharing, which derives its quantum from epoch
    /// ticks (use [`PolicySpec::with_ticks`]), or if `q` is zero.
    #[must_use]
    pub fn with_quantum(mut self, q: Duration) -> PolicySpec {
        assert!(
            self.kind.has_quantum(),
            "`quantum` does not apply to {}",
            self.kind
        );
        assert!(q > Duration::ZERO, "`quantum` must be positive");
        self.assert_flat("quantum");
        self.quantum = Some(q);
        self
    }

    /// Per-task options live on the group policies of a hierarchical
    /// spec, not on the outer `sfs:groups(...)` level.
    fn assert_flat(&self, opt: &str) {
        assert!(
            self.groups.is_empty(),
            "`{opt}` does not apply to a hierarchical spec; set it on the group policies"
        );
    }

    /// Enables §2.1 weight readjustment (SFQ / stride / BVT / WFQ only;
    /// SFS always readjusts).
    ///
    /// # Panics
    ///
    /// Panics for kinds that do not take the flag.
    #[must_use]
    pub fn with_readjustment(mut self) -> PolicySpec {
        assert!(
            self.kind.has_readjust(),
            "`readjust` does not apply to {}",
            self.kind
        );
        self.readjust = true;
        self
    }

    /// Sets the per-epoch tick grant (time sharing only).
    ///
    /// # Panics
    ///
    /// Panics for non-time-sharing kinds, or if `ticks` is not positive.
    #[must_use]
    pub fn with_ticks(mut self, ticks: i64) -> PolicySpec {
        assert!(
            self.kind == PolicyKind::TimeSharing,
            "`ticks` does not apply to {}",
            self.kind
        );
        assert!(ticks > 0, "`ticks` must be at least 1");
        self.ticks = Some(ticks);
        self
    }

    /// Splits the machine into per-CPU run-queue shards, each running
    /// its own instance of this policy behind surplus-balanced
    /// placement and stealing (any kind; see [`crate::shard`]). The
    /// shard count is clamped to the CPU count at build time.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn with_shards(mut self, n: u32) -> PolicySpec {
        assert!(n > 0, "need at least one shard");
        self.shards = Some(n);
        self
    }

    /// Sets the sharded scheduler's rebalance interval (requires
    /// [`PolicySpec::with_shards`] first).
    ///
    /// # Panics
    ///
    /// Panics if the spec is not sharded.
    #[must_use]
    pub fn with_rebalance_every(mut self, every: Duration) -> PolicySpec {
        assert!(
            self.shards.is_some(),
            "`rebalance` requires `shards` on {self}"
        );
        self.rebalance = Some(every);
        self
    }

    /// Attaches an admission-control policy (`admit(...)` in the
    /// string form). Admission is enforced by the *substrate* — sim or
    /// rt — before an arrival ever reaches the scheduler, so it
    /// composes with any kind, flat or hierarchical; the policy itself
    /// never sees rejected tasks. Rejections surface as typed
    /// outcomes, not silent drops.
    ///
    /// # Panics
    ///
    /// Panics if the policy has no limit set.
    #[must_use]
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> PolicySpec {
        assert!(
            !admission.is_none(),
            "admission policy must set at least one limit"
        );
        self.admission = Some(admission);
        self
    }

    /// The attached admission-control policy, if any.
    pub fn admission(&self) -> Option<&AdmissionPolicy> {
        self.admission.as_ref()
    }

    /// The configured shard count (1 when unsharded).
    pub fn shard_count(&self) -> u32 {
        self.shards.unwrap_or(1)
    }

    /// The configured rebalance interval, if sharded with an override.
    pub fn rebalance_every(&self) -> Option<Duration> {
        self.rebalance
    }

    /// This spec with sharding removed — the per-shard inner policy.
    #[must_use]
    pub fn without_sharding(&self) -> PolicySpec {
        PolicySpec {
            shards: None,
            rebalance: None,
            ..self.clone()
        }
    }

    /// Builds a live scheduler for a `cpus`-processor machine. Sharded
    /// specs produce a [`ShardedScheduler`] wrapping one inner policy
    /// instance per shard.
    pub fn build(&self, cpus: u32) -> Box<dyn Scheduler> {
        match self.shards {
            Some(n) => Box::new(ShardedScheduler::build(
                &self.without_sharding(),
                n,
                cpus,
                self.rebalance,
            )),
            None => self.build_base(cpus, None),
        }
    }

    /// Builds the (unsharded) policy with an externally owned global
    /// feasibility snapshot attached, for use as one shard of a sharded
    /// scheduler. Policies without snapshot support (everything but
    /// SFS) ignore the cell.
    ///
    /// # Panics
    ///
    /// Panics if this spec is itself sharded.
    pub fn build_with_phi_snapshot(
        &self,
        cpus: u32,
        cell: &Arc<SnapshotCell>,
    ) -> Box<dyn Scheduler> {
        assert!(self.shards.is_none(), "cannot nest sharding: {self}");
        self.build_base(cpus, Some(cell))
    }

    /// The configuration the tag-queue kinds (sfq, stride, bvt, wfq)
    /// are built with.
    fn tag_config(&self) -> TagConfig {
        TagConfig {
            quantum: self.quantum.unwrap_or(TagConfig::default().quantum),
            readjust: self.readjust,
        }
    }

    fn build_base(&self, cpus: u32, snapshot: Option<&Arc<SnapshotCell>>) -> Box<dyn Scheduler> {
        if !self.groups.is_empty() {
            debug_assert_eq!(self.kind, PolicyKind::Sfs);
            // Hierarchical: SFS over the groups, each scheduling its
            // members with its own policy. The cross-shard φ snapshot
            // does not apply — group shares are readjusted at the
            // group level, per shard.
            return Box::new(HierSfs::new(cpus, &self.groups));
        }
        match self.kind {
            PolicyKind::Sfs => {
                let mut cfg = SfsConfig::default();
                if let Some(q) = self.quantum {
                    cfg.quantum = q;
                }
                cfg.phi_snapshot = snapshot.map(Arc::clone);
                Box::new(Sfs::with_config(cpus, cfg))
            }
            PolicyKind::Sfq => Box::new(Sfq::with_config(cpus, self.tag_config())),
            PolicyKind::TimeSharing => {
                let mut cfg = TimeSharingConfig::default();
                if let Some(t) = self.ticks {
                    cfg.priority_ticks = t;
                }
                Box::new(TimeSharing::with_config(cpus, cfg))
            }
            PolicyKind::Stride => Box::new(Stride::with_config(cpus, self.tag_config())),
            PolicyKind::Bvt => Box::new(Bvt::with_config(cpus, self.tag_config())),
            PolicyKind::Wfq => Box::new(Wfq::with_config(cpus, self.tag_config())),
            PolicyKind::RoundRobin => {
                let q = self.quantum.unwrap_or(Duration::from_millis(200));
                Box::new(RoundRobin::new(cpus, q))
            }
        }
    }
}

impl fmt::Display for PolicySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.kind.token())?;
        let mut sep = ':';
        let mut emit = |f: &mut fmt::Formatter<'_>, opt: fmt::Arguments<'_>| -> fmt::Result {
            write!(f, "{sep}{opt}")?;
            sep = ',';
            Ok(())
        };
        if let Some(q) = self.quantum {
            emit(f, format_args!("quantum={}", Literal(q)))?;
        }
        if let Some(t) = self.ticks {
            emit(f, format_args!("ticks={t}"))?;
        }
        if !self.groups.is_empty() {
            let inner = self
                .groups
                .iter()
                .map(GroupSpec::to_string)
                .collect::<Vec<_>>()
                .join(",");
            emit(f, format_args!("groups({inner})"))?;
        }
        if let Some(a) = &self.admission {
            emit(f, format_args!("admit({a})"))?;
        }
        if let Some(n) = self.shards {
            emit(f, format_args!("shards={n}"))?;
        }
        if let Some(r) = self.rebalance {
            emit(f, format_args!("rebalance={}", Literal(r)))?;
        }
        if self.readjust {
            emit(f, format_args!("readjust"))?;
        }
        Ok(())
    }
}

/// Error from parsing a [`PolicySpec`] string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePolicyError {
    message: String,
}

impl ParsePolicyError {
    fn new(message: impl Into<String>) -> ParsePolicyError {
        ParsePolicyError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ParsePolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid policy spec: {}", self.message)
    }
}

impl std::error::Error for ParsePolicyError {}

impl FromStr for PolicySpec {
    type Err = ParsePolicyError;

    fn from_str(s: &str) -> Result<PolicySpec, ParsePolicyError> {
        let s = s.trim();
        let (kind_tok, opts) = match s.split_once(':') {
            Some((k, o)) => (k, Some(o)),
            None => (s, None),
        };
        let kind = PolicyKind::parse(kind_tok).ok_or_else(|| {
            ParsePolicyError::new(format!(
                "unknown policy {kind_tok:?}; known: {}",
                PolicyKind::ALL.map(PolicyKind::token).join(" ")
            ))
        })?;
        let mut spec = PolicySpec::new(kind);
        let Some(opts) = opts else { return Ok(spec) };
        if opts.is_empty() {
            return Err(ParsePolicyError::new("trailing `:` with no options"));
        }
        for opt in split_options(opts) {
            let opt = opt.trim();
            // `groups(...)` carries a nested spec list whose commas and
            // `=` belong to the sub-specs, so it is handled before the
            // generic key[=value] split.
            if let Some(rest) = opt.strip_prefix("groups(") {
                if kind != PolicyKind::Sfs {
                    return Err(ParsePolicyError::new(format!(
                        "option \"groups\" does not apply to policy {kind}"
                    )));
                }
                let inner = rest
                    .strip_suffix(')')
                    .ok_or_else(|| ParsePolicyError::new("unclosed `groups(` (missing `)`)"))?;
                if !spec.groups.is_empty() {
                    return Err(ParsePolicyError::new("`groups` given twice"));
                }
                spec.groups = parse_groups(inner)?;
                continue;
            }
            // `admit(...)` likewise carries its own key=value list.
            if let Some(rest) = opt.strip_prefix("admit(") {
                let inner = rest
                    .strip_suffix(')')
                    .ok_or_else(|| ParsePolicyError::new("unclosed `admit(` (missing `)`)"))?;
                if spec.admission.is_some() {
                    return Err(ParsePolicyError::new("`admit` given twice"));
                }
                spec.admission = Some(inner.parse().map_err(|e: ParseAdmitError| {
                    ParsePolicyError::new(format!("in admit(...): {}", e.0))
                })?);
                continue;
            }
            let (key, value) = match opt.split_once('=') {
                Some((k, v)) => (k.trim(), Some(v.trim())),
                None => (opt, None),
            };
            let check = |ok: bool| -> Result<(), ParsePolicyError> {
                if ok {
                    Ok(())
                } else {
                    Err(ParsePolicyError::new(format!(
                        "option {key:?} does not apply to policy {kind}"
                    )))
                }
            };
            let want_value = || -> Result<&str, ParsePolicyError> {
                value.ok_or_else(|| ParsePolicyError::new(format!("option {key:?} needs a value")))
            };
            let want_flag = |v: Option<&str>| -> Result<(), ParsePolicyError> {
                if v.is_some() {
                    Err(ParsePolicyError::new(format!(
                        "flag {key:?} does not take a value"
                    )))
                } else {
                    Ok(())
                }
            };
            match key {
                "quantum" => {
                    check(kind.has_quantum())?;
                    let q = parse_duration(want_value()?)?;
                    if q == Duration::ZERO {
                        return Err(ParsePolicyError::new("`quantum` must be positive"));
                    }
                    spec.quantum = Some(q);
                }
                "readjust" => {
                    check(kind.has_readjust())?;
                    want_flag(value)?;
                    spec.readjust = true;
                }
                "ticks" => {
                    check(kind == PolicyKind::TimeSharing)?;
                    let t: i64 = parse_num(want_value()?, "ticks")?;
                    if t <= 0 {
                        return Err(ParsePolicyError::new("`ticks` must be at least 1"));
                    }
                    spec.ticks = Some(t);
                }
                "shards" => {
                    let n: u32 = parse_num(want_value()?, "shards")?;
                    if n == 0 {
                        return Err(ParsePolicyError::new("`shards` must be at least 1"));
                    }
                    spec.shards = Some(n);
                }
                "rebalance" => {
                    spec.rebalance = Some(parse_duration(want_value()?)?);
                }
                other => {
                    return Err(ParsePolicyError::new(format!("unknown option {other:?}")));
                }
            }
        }
        if spec.rebalance.is_some() && spec.shards.is_none() {
            return Err(ParsePolicyError::new("`rebalance` requires `shards`"));
        }
        if !spec.groups.is_empty() && spec.quantum.is_some() {
            return Err(ParsePolicyError::new(
                "per-task options do not apply to a `groups(...)` spec; \
                 set them on the group policies",
            ));
        }
        Ok(spec)
    }
}

/// Splits an option list on commas outside parentheses, so the commas
/// inside a `groups(...)` clause stay with the clause.
fn split_top_level(s: &str) -> impl Iterator<Item = &str> {
    let mut depth = 0usize;
    s.split(move |c: char| {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            _ => {}
        }
        c == ',' && depth == 0
    })
}

/// Splits a spec's *top-level option list*, where `:` is accepted as
/// an alternate separator alongside `,` (outside parentheses), so
/// clause chains like `groups(...):admit(...)` parse. Group entries
/// keep using [`split_top_level`] — a group's `name=kind:opt` embeds a
/// `:` that belongs to the sub-spec.
fn split_options(s: &str) -> impl Iterator<Item = &str> {
    let mut depth = 0usize;
    s.split(move |c: char| {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            _ => {}
        }
        (c == ',' || c == ':') && depth == 0
    })
}

/// Parses the inside of a `groups(...)` clause: comma-separated
/// `name[*share]=policy` entries.
fn parse_groups(inner: &str) -> Result<Vec<GroupSpec>, ParsePolicyError> {
    if inner.trim().is_empty() {
        return Err(ParsePolicyError::new("empty `groups(...)`"));
    }
    let mut groups: Vec<GroupSpec> = Vec::new();
    for entry in split_top_level(inner) {
        let entry = entry.trim();
        let (head, sub) = entry.split_once('=').ok_or_else(|| {
            ParsePolicyError::new(format!("group entry {entry:?} wants `name=policy`"))
        })?;
        let head = head.trim();
        let (name, share) = match head.split_once('*') {
            Some((n, s)) => (n.trim(), parse_num::<u64>(s.trim(), "group share")?),
            None => (head, 1),
        };
        if name.is_empty() || !name.chars().all(valid_group_char) {
            return Err(ParsePolicyError::new(format!(
                "invalid group name {name:?} (want [A-Za-z0-9_-]+)"
            )));
        }
        if share == 0 {
            return Err(ParsePolicyError::new(format!(
                "group {name:?} has zero share (shares must be ≥ 1)"
            )));
        }
        if groups.iter().any(|g| g.name() == name) {
            return Err(ParsePolicyError::new(format!(
                "duplicate group name {name:?}"
            )));
        }
        let sub = sub.trim();
        let sub = match sub.strip_prefix('(') {
            Some(rest) => rest
                .strip_suffix(')')
                .ok_or_else(|| ParsePolicyError::new(format!("group {name:?}: unclosed `(`")))?,
            None => sub,
        };
        let policy: PolicySpec = sub.trim().parse().map_err(|e: ParsePolicyError| {
            ParsePolicyError::new(format!("in group {name:?}: {}", e.message))
        })?;
        if policy.shards.is_some() {
            return Err(ParsePolicyError::new(format!(
                "group {name:?}: group policies cannot be sharded"
            )));
        }
        if !policy.groups.is_empty() {
            return Err(ParsePolicyError::new(format!(
                "group {name:?}: groups cannot nest"
            )));
        }
        if policy.admission.is_some() {
            return Err(ParsePolicyError::new(format!(
                "group {name:?}: admission control applies to the whole spec, not a group"
            )));
        }
        groups.push(GroupSpec {
            name: name.to_string(),
            share,
            policy,
        });
    }
    Ok(groups)
}

/// `&str → PolicySpec` for APIs taking `impl TryInto<PolicySpec>`
/// (e.g. `Experiment::run("sfs:quantum=5ms")`).
impl TryFrom<&str> for PolicySpec {
    type Error = ParsePolicyError;

    fn try_from(s: &str) -> Result<PolicySpec, ParsePolicyError> {
        s.parse()
    }
}

impl TryFrom<&String> for PolicySpec {
    type Error = ParsePolicyError;

    fn try_from(s: &String) -> Result<PolicySpec, ParsePolicyError> {
        s.parse()
    }
}

/// Borrowed specs convert by cloning, so `impl TryInto<PolicySpec>`
/// APIs accept `&PolicySpec` alongside owned specs and strings.
impl From<&PolicySpec> for PolicySpec {
    fn from(spec: &PolicySpec) -> PolicySpec {
        spec.clone()
    }
}

fn parse_num<T: FromStr>(v: &str, key: &str) -> Result<T, ParsePolicyError> {
    v.parse()
        .map_err(|_| ParsePolicyError::new(format!("bad {key} value {v:?}")))
}

fn parse_duration(v: &str) -> Result<Duration, ParsePolicyError> {
    Duration::parse_literal(v).ok_or_else(|| {
        ParsePolicyError::new(format!("bad duration {v:?} (want e.g. `5ms`, `300us`)"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_specs_round_trip() {
        for spec in PolicySpec::registered() {
            let s = spec.to_string();
            let back: PolicySpec = s.parse().unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(back, spec, "{s}");
        }
    }

    #[test]
    fn configured_specs_round_trip() {
        let specs = [
            PolicySpec::sfs().with_quantum(Duration::from_millis(5)),
            PolicySpec::sfq()
                .with_quantum(Duration::from_micros(1500))
                .with_readjustment(),
            PolicySpec::time_sharing().with_ticks(2),
            PolicySpec::stride().with_readjustment(),
            PolicySpec::bvt().with_quantum(Duration::from_secs(1)),
            PolicySpec::wfq().with_readjustment(),
            PolicySpec::round_robin().with_quantum(Duration::from_nanos(777)),
            PolicySpec::sfs()
                .with_quantum(Duration::from_millis(5))
                .with_shards(4)
                .with_rebalance_every(Duration::from_millis(25)),
            PolicySpec::sfq().with_readjustment().with_shards(2),
        ];
        for spec in specs {
            let s = spec.to_string();
            assert_eq!(s.parse::<PolicySpec>().unwrap(), spec, "{s}");
        }
        // Zero reads back from either spelling and prints as `0s`.
        for zero in ["sfs:shards=2,rebalance=0ns", "sfs:shards=2,rebalance=0s"] {
            let spec: PolicySpec = zero.parse().unwrap();
            assert_eq!(spec.to_string(), "sfs:shards=2,rebalance=0s");
        }
    }

    #[test]
    fn sharded_specs_build_and_report() {
        let spec: PolicySpec = "sfs:quantum=5ms,shards=2,rebalance=10ms".parse().unwrap();
        assert_eq!(spec.shard_count(), 2);
        assert_eq!(spec.rebalance_every(), Some(Duration::from_millis(10)));
        assert_eq!(spec.without_sharding().shard_count(), 1);
        let sched = spec.build(4);
        assert_eq!(sched.cpus(), 4);
        assert_eq!(sched.name(), "SFS(sharded)");
        assert_eq!(spec.to_string(), "sfs:quantum=5ms,shards=2,rebalance=10ms");
        // An unsharded spec reports one shard and builds the bare policy.
        let flat: PolicySpec = "sfs".parse().unwrap();
        assert_eq!(flat.shard_count(), 1);
        assert_eq!(flat.build(2).name(), "SFS");
        // Sharding applies to any registered kind.
        for spec in PolicySpec::registered() {
            let sharded = spec.with_shards(2).build(4);
            assert_eq!(sharded.cpus(), 4, "{sharded:?}", sharded = sharded.name());
        }
    }

    #[test]
    fn parse_examples_from_the_docs() {
        let spec: PolicySpec = "sfs:quantum=5ms".parse().unwrap();
        assert_eq!(spec.to_string(), "sfs:quantum=5ms");
        let spec: PolicySpec = "sfq:quantum=1ms,readjust".parse().unwrap();
        assert_eq!(spec.to_string(), "sfq:quantum=1ms,readjust");
        assert_eq!(
            "timeshare".parse::<PolicySpec>().unwrap().kind(),
            PolicyKind::TimeSharing
        );
    }

    #[test]
    fn parse_rejects_nonsense() {
        for bad in [
            "cfs",
            "sfs:",
            "sfs:quantum",
            "sfs:quantum=",
            "sfs:quantum=5parsecs",
            "sfs:readjust",
            "ts:quantum=5ms",
            "rr:heuristic=3",
            "sfs:audit=1",
            "sfq:bogus=2",
            "sfs:shards=0",
            "sfs:shards",
            "sfs:rebalance=5ms",
            "sfs:quantum=0ms",
            "stride:quantum=0ms",
            "rr:quantum=0s",
            "ts:ticks=0",
            "ts:ticks=-3",
            "sfs:groups(a=stride:quantum=0ms)",
        ] {
            assert!(bad.parse::<PolicySpec>().is_err(), "{bad:?} parsed");
        }
        // A literal past `u64` nanoseconds is a typed error, not a panic.
        let err = "sfs:quantum=18446744073709551616ns"
            .parse::<PolicySpec>()
            .unwrap_err();
        assert!(err.to_string().contains("bad duration"), "{err}");
        let err = "sfs:refresh=5".parse::<PolicySpec>().unwrap_err();
        assert!(
            err.to_string().contains("unknown option \"refresh\""),
            "{err}"
        );
        // The removed §3.2 heuristic, its audit and the affinity margin
        // are unknown options, also inside a group.
        for removed in [
            "sfs:heuristic=4",
            "sfs:affinity=1ms",
            "sfs:audit",
            "sfs:groups(a=sfs:heuristic=4)",
        ] {
            let err = removed.parse::<PolicySpec>().unwrap_err();
            assert!(
                err.to_string().contains("unknown option"),
                "{removed}: {err}"
            );
        }
    }

    #[test]
    fn grouped_specs_round_trip() {
        let specs = [
            PolicySpec::sfs_over([
                GroupSpec::new("batch", PolicySpec::sfq()),
                GroupSpec::new(
                    "frontend",
                    PolicySpec::sfs().with_quantum(Duration::from_millis(5)),
                ),
            ]),
            PolicySpec::sfs_over([
                GroupSpec::new("a", PolicySpec::round_robin()).with_share(3),
                GroupSpec::new(
                    "b",
                    PolicySpec::sfq()
                        .with_quantum(Duration::from_millis(1))
                        .with_readjustment(),
                ),
                GroupSpec::new("c-2", PolicySpec::time_sharing().with_ticks(2)),
            ]),
            PolicySpec::sfs_over([
                GroupSpec::new("x", PolicySpec::sfs()),
                GroupSpec::new("y", PolicySpec::sfs()).with_share(7),
            ])
            .with_shards(2)
            .with_rebalance_every(Duration::from_millis(20)),
        ];
        for spec in specs {
            let s = spec.to_string();
            assert_eq!(s.parse::<PolicySpec>().unwrap(), spec, "{s}");
        }
    }

    #[test]
    fn grouped_grammar_examples() {
        // The issue's literal example parses and round-trips.
        let spec: PolicySpec = "sfs:groups(batch=sfq,frontend=sfs:quantum=5ms)"
            .parse()
            .unwrap();
        assert_eq!(spec.groups().len(), 2);
        assert_eq!(spec.groups()[0].name(), "batch");
        assert_eq!(spec.groups()[1].policy().kind(), PolicyKind::Sfs);
        assert_eq!(spec.tenant_of("batch"), Some(crate::task::TenantId(0)));
        assert_eq!(spec.tenant_of("frontend"), Some(crate::task::TenantId(1)));
        assert_eq!(spec.tenant_of("nope"), None);
        assert_eq!(
            spec.to_string(),
            "sfs:groups(batch=sfq,frontend=sfs:quantum=5ms)"
        );
        // Shares and parenthesised multi-option sub-specs.
        let spec: PolicySpec = "sfs:groups(a*3=rr,b=(sfq:quantum=1ms,readjust))"
            .parse()
            .unwrap();
        assert_eq!(spec.groups()[0].share(), 3);
        assert_eq!(
            spec.groups()[1].policy(),
            &PolicySpec::sfq()
                .with_quantum(Duration::from_millis(1))
                .with_readjustment()
        );
        assert_eq!(
            spec.to_string(),
            "sfs:groups(a*3=rr,b=(sfq:quantum=1ms,readjust))"
        );
        // groups × shards composition.
        let spec: PolicySpec = "sfs:groups(a=sfs,b=rr),shards=2".parse().unwrap();
        assert_eq!(spec.shard_count(), 2);
        assert_eq!(spec.without_sharding().groups().len(), 2);
    }

    #[test]
    fn grouped_grammar_rejects_nonsense() {
        for bad in [
            "sfs:groups()",
            "sfs:groups(",
            "sfs:groups(a=sfs",
            "sfs:groups(a)",
            "sfs:groups(a=cfs)",
            "sfs:groups(a*0=sfs)",
            "sfs:groups(a*x=sfs)",
            "sfs:groups(a=sfs,a=rr)",
            "sfs:groups(a=sfs:shards=2)",
            "sfs:groups(a=(sfs:groups(b=rr)))",
            "sfs:groups(a=(sfq:readjust)",
            "sfs:groups(a b=sfs)",
            "sfq:groups(a=sfs)",
            "sfs:groups(a=sfs),quantum=5ms",
            "sfs:quantum=5ms,groups(a=sfs)",
            "sfs:groups(a=sfs),groups(b=sfs)",
        ] {
            assert!(bad.parse::<PolicySpec>().is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn admission_specs_round_trip() {
        let specs = [
            PolicySpec::sfs().with_admission(AdmissionPolicy::none().with_max_live(1000)),
            PolicySpec::sfs()
                .with_quantum(Duration::from_millis(5))
                .with_admission(
                    AdmissionPolicy::none()
                        .with_max_live(1000)
                        .with_rate(500)
                        .with_burst(750)
                        .with_shed_above(100_000),
                )
                .with_shards(2),
            PolicySpec::sfs_over([
                GroupSpec::new("a", PolicySpec::sfs()),
                GroupSpec::new("b", PolicySpec::sfq()).with_share(3),
            ])
            .with_admission(AdmissionPolicy::none().with_rate(500)),
            PolicySpec::round_robin().with_admission(AdmissionPolicy::none().with_shed_above(64)),
        ];
        for spec in specs {
            let s = spec.to_string();
            assert_eq!(s.parse::<PolicySpec>().unwrap(), spec, "{s}");
        }
    }

    #[test]
    fn admission_grammar_examples() {
        // The issue's literal colon-chained spelling parses...
        let spec: PolicySpec =
            "sfs:groups(batch=sfq,frontend=sfs:quantum=5ms):admit(max=1000,rate=500/s)"
                .parse()
                .unwrap();
        let admit = spec.admission().expect("admission parsed");
        assert_eq!(admit.max_live, Some(1000));
        assert_eq!(admit.rate_per_sec, Some(500));
        assert_eq!(spec.groups().len(), 2);
        // ...and Display emits the canonical comma form, which parses
        // back to the same spec (exact parse ∘ Display round-trip).
        assert_eq!(
            spec.to_string(),
            "sfs:groups(batch=sfq,frontend=sfs:quantum=5ms),admit(max=1000,rate=500/s)"
        );
        assert_eq!(spec.to_string().parse::<PolicySpec>().unwrap(), spec);
        // Colons also separate plain options.
        assert_eq!(
            "sfs:quantum=5ms:shards=2".parse::<PolicySpec>().unwrap(),
            "sfs:quantum=5ms,shards=2".parse::<PolicySpec>().unwrap()
        );
    }

    #[test]
    fn admission_grammar_rejects_nonsense() {
        for bad in [
            "sfs:admit()",
            "sfs:admit(",
            "sfs:admit(burst=5)",
            "sfs:admit(max=abc)",
            "sfs:admit(rate=0/s)",
            "sfs:admit(max=1),admit(max=2)",
            "sfs:admit(frobnicate=1)",
            "sfs:groups(a=(sfs:admit(max=1)))",
        ] {
            assert!(bad.parse::<PolicySpec>().is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    #[should_panic(expected = "at least one limit")]
    fn builder_rejects_empty_admission() {
        let _ = PolicySpec::sfs().with_admission(AdmissionPolicy::none());
    }

    #[test]
    fn spec_conversions() {
        let spec = PolicySpec::try_from("sfs:quantum=5ms").unwrap();
        assert_eq!(spec, "sfs:quantum=5ms".parse().unwrap());
        assert!(PolicySpec::try_from("bogus").is_err());
        assert_eq!(PolicySpec::from(&spec), spec);
    }

    #[test]
    #[should_panic(expected = "does not apply to a hierarchical spec")]
    fn builder_rejects_per_task_option_on_hier() {
        let _ = PolicySpec::sfs_over([GroupSpec::new("a", PolicySpec::sfs())])
            .with_quantum(Duration::from_millis(5));
    }

    #[test]
    #[should_panic(expected = "duplicate group name")]
    fn builder_rejects_duplicate_groups() {
        let _ = PolicySpec::sfs_over([
            GroupSpec::new("a", PolicySpec::sfs()),
            GroupSpec::new("a", PolicySpec::sfq()),
        ]);
    }

    #[test]
    fn build_respects_cpu_count_and_name() {
        for spec in PolicySpec::registered() {
            let sched = spec.build(3);
            assert_eq!(sched.cpus(), 3, "{spec}");
            assert!(!sched.name().is_empty());
        }
    }

    #[test]
    fn build_applies_options() {
        let sched = PolicySpec::sfs()
            .with_quantum(Duration::from_millis(7))
            .build(1);
        assert_eq!(
            sched.time_slice(crate::task::TaskId(0)),
            Duration::from_millis(7)
        );
        let sched = PolicySpec::round_robin()
            .with_quantum(Duration::from_millis(3))
            .build(1);
        assert_eq!(
            sched.time_slice(crate::task::TaskId(0)),
            Duration::from_millis(3)
        );
    }

    #[test]
    #[should_panic(expected = "does not apply")]
    fn builder_rejects_misapplied_option() {
        let _ = PolicySpec::time_sharing().with_quantum(Duration::from_millis(1));
    }
}
