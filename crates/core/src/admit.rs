//! Admission control and per-tenant rate limits.
//!
//! SFS assumes every arriving task is admitted; at overload that
//! assumption inverts — an unbounded flood from one tenant inflates
//! the runnable set until every well-behaved task's latency collapses,
//! even when the hierarchy keeps long-run *shares* exact. This module
//! supplies the armor: a typed [`AdmissionPolicy`] (what to enforce)
//! and a deterministic [`AdmissionControl`] (the enforcement state),
//! applied by the substrates *before* a task ever reaches a scheduler.
//!
//! Three independent limits compose, checked in this order:
//!
//! 1. **Global load-shed watermark** (`shed=N`): reject every arrival
//!    while the machine-wide runnable count is at or above `N`.
//! 2. **Per-tenant live cap** (`max=N`): at most `N` live (admitted,
//!    not yet exited) tasks per tenant.
//! 3. **Per-tenant arrival rate** (`rate=R/s`, optional `burst=B`): a
//!    token bucket holding at most `B` tokens (default `R`, i.e. one
//!    second of arrivals) refilled at `R` tokens/second; each admitted
//!    arrival spends one token.
//!
//! Tasks with no tenant share one implicit bucket, so the limits are
//! meaningful on flat specs too.
//!
//! The token bucket is integer-only (nano-tokens refilled from elapsed
//! nanoseconds), so identical arrival timelines produce identical
//! verdicts on both substrates and under capture/replay — there is no
//! float drift and no wall-clock dependence.
//!
//! Policies are written inside a spec's `admit(...)` clause, e.g.
//! `sfs:groups(a,b):admit(max=1000,rate=500/s)`; see
//! [`crate::policy::PolicySpec`]. [`AdmissionPolicy`]'s own
//! `Display`/`FromStr` round-trips the clause's argument list exactly.
#![expect(clippy::disallowed_types, reason = "keyed by tenant, not task")]

use core::fmt;
use std::collections::HashMap;
use std::str::FromStr;

use crate::task::TenantId;
use crate::time::Time;

/// Nano-tokens per admission: buckets count in billionths of a token so
/// refill arithmetic is exact for any integer rate.
const TOKEN: u128 = 1_000_000_000;

/// What overload protection to enforce; see the [module docs](self)
/// for the semantics of each field.
///
/// An `AdmissionPolicy` is pure configuration — feed it to
/// [`AdmissionControl::new`] to get enforcement state. At least one
/// limit must be set (the parser rejects an empty clause), and `burst`
/// is only meaningful alongside `rate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct AdmissionPolicy {
    /// Per-tenant cap on live (admitted, not yet exited) tasks.
    pub max_live: Option<u64>,
    /// Per-tenant arrival rate in admissions per second.
    pub rate_per_sec: Option<u64>,
    /// Token-bucket depth; defaults to `rate_per_sec` (one second of
    /// arrivals) when unset.
    pub burst: Option<u64>,
    /// Global runnable-count watermark above which every arrival is
    /// shed regardless of tenant.
    pub shed_above: Option<u64>,
}

impl AdmissionPolicy {
    /// A policy with every limit disabled (admits everything).
    pub fn none() -> AdmissionPolicy {
        AdmissionPolicy::default()
    }

    /// True if no limit is set.
    pub fn is_none(&self) -> bool {
        *self == AdmissionPolicy::default()
    }

    /// Sets the per-tenant live-task cap.
    pub fn with_max_live(mut self, max: u64) -> AdmissionPolicy {
        self.max_live = Some(max);
        self
    }

    /// Sets the per-tenant arrival rate (admissions per second).
    pub fn with_rate(mut self, per_sec: u64) -> AdmissionPolicy {
        self.rate_per_sec = Some(per_sec);
        self
    }

    /// Sets the token-bucket depth.
    pub fn with_burst(mut self, burst: u64) -> AdmissionPolicy {
        self.burst = Some(burst);
        self
    }

    /// Sets the global load-shed watermark.
    pub fn with_shed_above(mut self, runnable: u64) -> AdmissionPolicy {
        self.shed_above = Some(runnable);
        self
    }

    /// The effective bucket depth: explicit `burst`, else `rate`.
    fn effective_burst(&self) -> u64 {
        self.burst.or(self.rate_per_sec).unwrap_or(0)
    }
}

/// Why an arrival was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RejectReason {
    /// The tenant is at its live-task cap (`max=`).
    TenantCap,
    /// The tenant's token bucket is empty (`rate=`).
    RateLimit,
    /// The global runnable count is at or above the watermark (`shed=`).
    LoadShed,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::TenantCap => write!(f, "tenant live-task cap"),
            RejectReason::RateLimit => write!(f, "tenant rate limit"),
            RejectReason::LoadShed => write!(f, "global load shed"),
        }
    }
}

/// Per-tenant enforcement state.
#[derive(Debug, Clone)]
struct TenantBucket {
    /// Admitted tasks that have not yet exited.
    live: u64,
    /// Nano-tokens currently in the bucket.
    tokens: u128,
    /// Instant of the last refill.
    refilled_at: Time,
}

/// Deterministic runtime state enforcing an [`AdmissionPolicy`].
///
/// One instance guards one substrate run. Call [`admit`] on every
/// arrival (it books the admission on success) and [`release`] on
/// every exit of an *admitted* task — rejected arrivals must not be
/// released. Both substrates drive this with their own notion of
/// "now", so sim and rt enforce identical limits.
///
/// [`admit`]: AdmissionControl::admit
/// [`release`]: AdmissionControl::release
#[derive(Debug, Clone)]
pub struct AdmissionControl {
    policy: AdmissionPolicy,
    tenants: HashMap<Option<TenantId>, TenantBucket>,
    admitted: u64,
    rejected: u64,
}

impl AdmissionControl {
    /// Enforcement state for `policy`, with every bucket starting full.
    pub fn new(policy: AdmissionPolicy) -> AdmissionControl {
        AdmissionControl {
            policy,
            tenants: HashMap::new(),
            admitted: 0,
            rejected: 0,
        }
    }

    /// Total arrivals admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Total arrivals rejected so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Live (admitted, not yet released) tasks for `tenant`.
    pub fn live(&self, tenant: Option<TenantId>) -> u64 {
        self.tenants.get(&tenant).map_or(0, |b| b.live)
    }

    /// Decides one arrival at `now` for `tenant`, with `runnable` the
    /// current machine-wide runnable count. On `Ok` the admission is
    /// booked (live count incremented, one token spent); on `Err`
    /// nothing is booked and the caller must surface the rejection.
    pub fn admit(
        &mut self,
        tenant: Option<TenantId>,
        now: Time,
        runnable: u64,
    ) -> Result<(), RejectReason> {
        if let Some(shed) = self.policy.shed_above {
            if runnable >= shed {
                self.rejected += 1;
                return Err(RejectReason::LoadShed);
            }
        }
        let burst = u128::from(self.policy.effective_burst()) * TOKEN;
        let bucket = self.tenants.entry(tenant).or_insert(TenantBucket {
            live: 0,
            tokens: burst,
            refilled_at: now,
        });
        if let Some(max) = self.policy.max_live {
            if bucket.live >= max {
                self.rejected += 1;
                return Err(RejectReason::TenantCap);
            }
        }
        if let Some(rate) = self.policy.rate_per_sec {
            let elapsed = u128::from(now.since(bucket.refilled_at).as_nanos());
            bucket.refilled_at = now;
            bucket.tokens = (bucket.tokens + elapsed * u128::from(rate)).min(burst);
            if bucket.tokens < TOKEN {
                self.rejected += 1;
                return Err(RejectReason::RateLimit);
            }
            bucket.tokens -= TOKEN;
        }
        bucket.live += 1;
        self.admitted += 1;
        Ok(())
    }

    /// Books the exit of a previously *admitted* task. Must not be
    /// called for rejected arrivals.
    pub fn release(&mut self, tenant: Option<TenantId>) {
        if let Some(bucket) = self.tenants.get_mut(&tenant) {
            bucket.live = bucket.live.saturating_sub(1);
        }
    }
}

/// Error from parsing an `admit(...)` argument list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAdmitError(pub String);

impl fmt::Display for ParseAdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad admit clause: {}", self.0)
    }
}

impl std::error::Error for ParseAdmitError {}

impl fmt::Display for AdmissionPolicy {
    /// The canonical `admit(...)` argument list: set fields in the
    /// order `max`, `rate`, `burst`, `shed`, comma-separated. Exactly
    /// inverts [`FromStr`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut sep = "";
        let mut emit = |f: &mut fmt::Formatter<'_>, part: fmt::Arguments<'_>| {
            let r = write!(f, "{sep}{part}");
            sep = ",";
            r
        };
        if let Some(max) = self.max_live {
            emit(f, format_args!("max={max}"))?;
        }
        if let Some(rate) = self.rate_per_sec {
            emit(f, format_args!("rate={rate}/s"))?;
        }
        if let Some(burst) = self.burst {
            emit(f, format_args!("burst={burst}"))?;
        }
        if let Some(shed) = self.shed_above {
            emit(f, format_args!("shed={shed}"))?;
        }
        Ok(())
    }
}

impl FromStr for AdmissionPolicy {
    type Err = ParseAdmitError;

    /// Parses an `admit(...)` argument list such as
    /// `max=1000,rate=500/s,burst=750,shed=100000`. At least one limit
    /// is required; `burst` requires `rate`; `rate` accepts an
    /// optional `/s` suffix.
    fn from_str(s: &str) -> Result<AdmissionPolicy, ParseAdmitError> {
        let mut policy = AdmissionPolicy::default();
        let err = |msg: String| Err(ParseAdmitError(msg));
        let num = |key: &str, v: &str| -> Result<u64, ParseAdmitError> {
            v.parse()
                .map_err(|_| ParseAdmitError(format!("{key} wants an integer, got {v:?}")))
        };
        for part in s.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let Some((key, value)) = part.split_once('=') else {
                return err(format!("expected key=value, got {part:?}"));
            };
            let dup = |slot: &Option<u64>| slot.is_some();
            match key {
                "max" if !dup(&policy.max_live) => policy.max_live = Some(num(key, value)?),
                "rate" if !dup(&policy.rate_per_sec) => {
                    let value = value.strip_suffix("/s").unwrap_or(value);
                    policy.rate_per_sec = Some(num(key, value)?);
                }
                "burst" if !dup(&policy.burst) => policy.burst = Some(num(key, value)?),
                "shed" if !dup(&policy.shed_above) => policy.shed_above = Some(num(key, value)?),
                "max" | "rate" | "burst" | "shed" => {
                    return err(format!("duplicate {key}="));
                }
                other => return err(format!("unknown option {other:?}")),
            }
        }
        if policy.is_none() {
            return err("admit() needs at least one of max=, rate=, shed=".into());
        }
        if policy.burst.is_some() && policy.rate_per_sec.is_none() {
            return err("burst= without rate=".into());
        }
        if policy.rate_per_sec == Some(0) {
            return err("rate=0 would reject everything; use max=0".into());
        }
        Ok(policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> Time {
        Time::from_millis(ms)
    }

    #[test]
    fn display_parse_round_trip() {
        for s in [
            "max=1000",
            "rate=500/s",
            "max=1000,rate=500/s",
            "max=1000,rate=500/s,burst=750,shed=100000",
            "shed=4096",
        ] {
            let p: AdmissionPolicy = s.parse().expect(s);
            assert_eq!(p.to_string(), s, "canonical form");
            assert_eq!(p.to_string().parse::<AdmissionPolicy>().unwrap(), p);
        }
        // Non-canonical spellings normalise.
        let p: AdmissionPolicy = "rate=500".parse().unwrap();
        assert_eq!(p.to_string(), "rate=500/s");
    }

    #[test]
    fn parse_rejects_malformed() {
        for s in [
            "",
            "max",
            "max=abc",
            "burst=5",
            "rate=0/s",
            "max=1,max=2",
            "frobnicate=1",
        ] {
            assert!(s.parse::<AdmissionPolicy>().is_err(), "{s:?}");
        }
    }

    #[test]
    fn tenant_cap_enforced_and_released() {
        let mut ac = AdmissionControl::new(AdmissionPolicy::none().with_max_live(2));
        let tn = Some(TenantId(0));
        assert!(ac.admit(tn, t(0), 0).is_ok());
        assert!(ac.admit(tn, t(0), 0).is_ok());
        assert_eq!(ac.admit(tn, t(0), 0), Err(RejectReason::TenantCap));
        // A different tenant has its own cap.
        assert!(ac.admit(Some(TenantId(1)), t(0), 0).is_ok());
        // Releasing frees a slot.
        ac.release(tn);
        assert!(ac.admit(tn, t(0), 0).is_ok());
        assert_eq!(ac.admitted(), 4);
        assert_eq!(ac.rejected(), 1);
        assert_eq!(ac.live(tn), 2);
    }

    #[test]
    fn token_bucket_is_deterministic() {
        // 10/s with default burst 10: the first 10 admit instantly,
        // then exactly one more per 100ms.
        let mut ac = AdmissionControl::new(AdmissionPolicy::none().with_rate(10));
        for _ in 0..10 {
            assert!(ac.admit(None, t(0), 0).is_ok());
        }
        assert_eq!(ac.admit(None, t(0), 0), Err(RejectReason::RateLimit));
        assert_eq!(ac.admit(None, t(99), 0), Err(RejectReason::RateLimit));
        assert!(ac.admit(None, t(100), 0).is_ok());
        assert_eq!(ac.admit(None, t(100), 0), Err(RejectReason::RateLimit));
        assert!(ac.admit(None, t(200), 0).is_ok());
    }

    #[test]
    fn burst_caps_idle_accumulation() {
        // rate=10/s, burst=3: after any idle stretch at most 3 admit
        // back-to-back.
        let mut ac = AdmissionControl::new(AdmissionPolicy::none().with_rate(10).with_burst(3));
        for _ in 0..3 {
            assert!(ac.admit(None, t(0), 0).is_ok());
        }
        assert_eq!(ac.admit(None, t(0), 0), Err(RejectReason::RateLimit));
        // A long idle period refills to the burst cap only.
        for _ in 0..3 {
            assert!(ac.admit(None, t(10_000), 0).is_ok());
        }
        assert_eq!(ac.admit(None, t(10_000), 0), Err(RejectReason::RateLimit));
    }

    #[test]
    fn load_shed_watermark_applies_globally() {
        let mut ac = AdmissionControl::new(AdmissionPolicy::none().with_shed_above(100));
        assert!(ac.admit(None, t(0), 99).is_ok());
        assert_eq!(ac.admit(None, t(0), 100), Err(RejectReason::LoadShed));
        assert_eq!(
            ac.admit(Some(TenantId(7)), t(0), 5000),
            Err(RejectReason::LoadShed)
        );
    }

    #[test]
    fn shed_precedes_cap_precedes_rate() {
        let p = AdmissionPolicy::none()
            .with_max_live(1)
            .with_rate(1)
            .with_shed_above(10);
        let mut ac = AdmissionControl::new(p);
        assert_eq!(ac.admit(None, t(0), 10), Err(RejectReason::LoadShed));
        assert!(ac.admit(None, t(0), 0).is_ok());
        // Cap trips before the (also-empty) bucket is consulted.
        assert_eq!(ac.admit(None, t(0), 0), Err(RejectReason::TenantCap));
        ac.release(None);
        assert_eq!(ac.admit(None, t(0), 0), Err(RejectReason::RateLimit));
    }

    #[test]
    fn reject_reason_display() {
        assert_eq!(RejectReason::TenantCap.to_string(), "tenant live-task cap");
        assert_eq!(RejectReason::RateLimit.to_string(), "tenant rate limit");
        assert_eq!(RejectReason::LoadShed.to_string(), "global load shed");
    }
}
