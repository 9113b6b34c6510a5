//! The weight readjustment algorithm (§2.1, Figure 2).
//!
//! A weight assignment is *feasible* on a `p`-processor machine iff no
//! thread demands more than the capacity of one processor:
//!
//! ```text
//! w_i / Σ_j w_j  ≤  1/p        (feasibility constraint, Eq. 1)
//! ```
//!
//! The readjustment algorithm translates an infeasible assignment into the
//! *closest* feasible one: threads violating the constraint are clamped so
//! their requested share becomes exactly `1/p`, and all other weights are
//! untouched. The paper proves at most `p − 1` threads can be infeasible,
//! so the algorithm only inspects a prefix of the weight-sorted run queue
//! and runs in `O(p)` given that ordering.
//!
//! **Closed form.** Let the runnable weights be sorted in descending
//! order. Walk the prefix: thread `i` (0-based) is infeasible iff
//! `w_i · (p − i) > Σ_{j ≥ i} w_j`. Let `m` be the number of infeasible
//! threads found before the walk stops and `T = Σ_{j ≥ m} w_j` the weight
//! of the feasible tail. Unfolding the recursion in Figure 2 shows every
//! infeasible thread receives the *same* adjusted weight
//! `φ = T / (p − m)`, which makes each of their shares exactly
//! `φ / (m·φ + T) = 1/p`.
//!
//! **Capacities.** §2.1 assumes each entity is a thread that can consume
//! at most one processor. A tenant group ([`crate::hier`]) with `c`
//! runnable members can consume up to `c`, so the constraint generalizes
//! to `φ_g · p ≤ c_g · Σ_h φ_h`. The same greedy argument applies with
//! entities ordered by `w/c` descending: entity `g` is infeasible iff
//! `w_g · p' > c_g · W'`, with `W'` and `p'` the weight and processors
//! left once the entities clamped before it are set aside; each clamp
//! removes `c_g` processors, and every clamped entity lands exactly *at*
//! its capacity, `φ_g = c_g · T / (p − Σ c)`. With every capacity 1 this
//! is the closed form above.
//!
//! **One walk, three callers.** That test is evaluated in exactly one
//! place, the crate-private `walk`, over a `(weight, capacity)` prefix
//! and a precomputed total, and `c · T / (p − Σ c)` is converted to
//! fixed point in one place, in 128 bits. The callers differ only in how
//! they come by the prefix:
//!
//! * [`readjust`] — a weight-descending vector: sums it, walks the
//!   first `p − 1` entries at capacity 1.
//! * [`readjust_capped`] — `(weight, capacity)` entities in any order:
//!   selects the top `p − 1` by `w/c`, walks them.
//! * [`FeasibleWeights`](crate::feasible::FeasibleWeights) — what the
//!   schedulers run on every event: hands over the heaviest `p − 1`
//!   weights off its class map and its running total, so a pass never
//!   re-sums the runnable set.
//!
//! The test module keeps a direct transliteration of the recursive
//! procedure in Figure 2, in exact rational arithmetic, as the oracle
//! the walk is property-tested against; `tests/readjust_differential.rs`
//! pins the three callers against each other.

use crate::fixed::{Fixed, SCALE};

/// Outcome of a readjustment pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Readjustment {
    /// Number of threads (a prefix of the weight-descending order) whose
    /// weights were clamped. At most `p − 1`.
    pub clamped: usize,
    /// The common adjusted weight assigned to each clamped thread,
    /// or `None` when nothing was clamped.
    pub cap: Option<Fixed>,
}

impl Readjustment {
    /// Returns the instantaneous weight `φ_i` for the thread at
    /// `rank` (0-based position in the weight-descending order) whose raw
    /// weight is `w`.
    pub fn phi(&self, rank: usize, w: u64) -> Fixed {
        match self.cap {
            Some(cap) if rank < self.clamped => cap,
            _ => Fixed::from_int(w as i64),
        }
    }
}

/// Checks the feasibility constraint (Eq. 1) for every weight.
///
/// `weights` need not be sorted. Returns `true` iff
/// `w_i · p ≤ Σ_j w_j` for all `i`.
pub fn is_feasible(weights: &[u64], cpus: u32) -> bool {
    let total: u128 = weights.iter().map(|&w| w as u128).sum();
    weights.iter().all(|&w| (w as u128) * cpus as u128 <= total)
}

/// What [`walk`] leaves behind: how many entries of the prefix it
/// clamped, the weight `T` of the feasible tail and the processors left
/// to serve it.
pub(crate) struct Tail {
    pub(crate) clamped: usize,
    weight: u128,
    cpus: u128,
}

impl Tail {
    /// The weight a clamped entity of capacity `c` lands on:
    /// `c · T / (p − Σ_clamped c)`, rounded toward zero. With an empty
    /// tail (less demand than processors) every clamped entity can hold
    /// its full capacity continuously, so the capacities themselves are
    /// an exact assignment.
    fn cap(&self, c: u32) -> Fixed {
        if self.weight == 0 {
            return Fixed::from_int(i64::from(c));
        }
        Fixed::from_raw((u128::from(c) * self.weight * SCALE as u128 / self.cpus) as i128)
    }

    /// The outcome for threads (capacity 1).
    pub(crate) fn flat(&self) -> Readjustment {
        Readjustment {
            clamped: self.clamped,
            cap: (self.clamped > 0).then(|| self.cap(1)),
        }
    }
}

/// The §2.1 walk: clamps entries of `prefix` — `(weight, capacity)`
/// pairs in `w/c`-descending order, all counted in `total` — until the
/// first feasible one; every later entry is feasible too.
///
/// A clamp needs `w · p' > c · W'` and has `W' ≥ w`, hence `p' > c`:
/// the processor count stays positive, and since each clamp takes at
/// least one processor a prefix of `p − 1` entries is always enough.
pub(crate) fn walk(prefix: impl IntoIterator<Item = (u64, u32)>, total: u128, cpus: u32) -> Tail {
    let (mut rem_w, mut rem_p) = (total, u128::from(cpus));
    let mut clamped = 0;
    for (w, c) in prefix {
        let (w, c) = (u128::from(w), u128::from(c));
        // Infeasible iff (w/c) / rem_w > 1 / rem_p.
        if w * rem_p <= c * rem_w {
            break;
        }
        rem_w -= w;
        rem_p -= c;
        clamped += 1;
    }
    Tail {
        clamped,
        weight: rem_w,
        cpus: rem_p,
    }
}

/// Readjusts weights sorted in descending order.
///
/// Only the first `min(p − 1, t)` entries are ever inspected; the walk
/// stops at the first feasible thread (all later threads have smaller
/// weights and are therefore feasible too, §2.1). On a uniprocessor
/// every assignment is feasible.
///
/// Degenerate case: if *every* runnable thread is clamped the feasible
/// tail is empty (`T = 0`), which happens only when `t < p`. Each thread
/// can then run on its own processor continuously, so any equal assignment
/// is exact; we use `φ = 1`.
///
/// # Panics
///
/// Panics (debug builds) if `weights_desc` is not sorted descending.
pub fn readjust(weights_desc: &[u64], cpus: u32) -> Readjustment {
    debug_assert!(
        weights_desc.windows(2).all(|w| w[0] >= w[1]),
        "weights must be sorted in descending order"
    );
    let total: u128 = weights_desc.iter().map(|&w| w as u128).sum();
    let prefix = weights_desc.iter().take(cpus.saturating_sub(1) as usize);
    walk(prefix.map(|&w| (w, 1)), total, cpus).flat()
}

/// Capacity-generalized readjustment, used for *group*-level
/// feasibility in [`crate::hier`] with `c_g = min(runnable members, p)`
/// (see the module docs).
///
/// `entries` is a slice of `(weight, capacity)` pairs in any order;
/// capacities must be ≥ 1. Returns the instantaneous weights in input
/// order plus the number of clamped entries. At most `p − 1` entries
/// are ever clamped, so only the top `p − 1` by `w/c` are inspected
/// (selected in O(n), not sorted).
pub fn readjust_capped(entries: &[(u64, u32)], cpus: u32) -> (Vec<Fixed>, usize) {
    debug_assert!(entries.iter().all(|&(_, c)| c >= 1), "capacities are >= 1");
    let mut phis: Vec<Fixed> = entries
        .iter()
        .map(|&(w, _)| Fixed::from_int(w as i64))
        .collect();
    let prefix = (cpus.saturating_sub(1) as usize).min(entries.len());
    if prefix == 0 {
        return (phis, 0);
    }
    let ratio_desc = |&a: &usize, &b: &usize| {
        // w_a/c_a vs w_b/c_b, descending, by cross-multiplication.
        let (wa, ca) = entries[a];
        let (wb, cb) = entries[b];
        (u128::from(wb) * u128::from(ca)).cmp(&(u128::from(wa) * u128::from(cb)))
    };
    let mut order: Vec<usize> = (0..entries.len()).collect();
    if order.len() > prefix {
        order.select_nth_unstable_by(prefix - 1, ratio_desc);
    }
    order[..prefix].sort_unstable_by(ratio_desc);

    let total: u128 = entries.iter().map(|&(w, _)| u128::from(w)).sum();
    let tail = walk(order[..prefix].iter().map(|&i| entries[i]), total, cpus);
    for &i in &order[..tail.clamped] {
        phis[i] = tail.cap(entries[i].1);
    }
    (phis, tail.clamped)
}

/// Applies a [`Readjustment`] to a descending weight slice, producing the
/// vector of instantaneous weights. Convenience for tests and the fluid
/// reference.
pub fn apply(weights_desc: &[u64], adj: &Readjustment) -> Vec<Fixed> {
    weights_desc
        .iter()
        .enumerate()
        .map(|(i, &w)| adj.phi(i, w))
        .collect()
}

#[cfg(test)]
/// The Figure-2 recursion in exact rational arithmetic, and the Eq. 1
/// check on fixed-point weights: what the walk is tested against.
pub(crate) mod oracle {
    use super::readjust;
    use crate::fixed::Fixed;

    /// Checks feasibility of fixed-point instantaneous weights.
    pub(crate) fn is_feasible_fixed(phis: &[Fixed], cpus: u32) -> bool {
        let total: i128 = phis.iter().map(|f| f.raw()).sum();
        phis.iter().all(|f| f.raw() * cpus as i128 <= total)
    }

    /// Exact rational number used by the reference implementation.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Ratio {
        num: i128,
        den: i128,
    }

    impl Ratio {
        fn int(v: i128) -> Ratio {
            Ratio { num: v, den: 1 }
        }

        fn new(num: i128, den: i128) -> Ratio {
            assert!(den != 0);
            let g = gcd(num.unsigned_abs(), den.unsigned_abs()) as i128;
            let sign = if den < 0 { -1 } else { 1 };
            Ratio {
                num: sign * num / g.max(1),
                den: sign * den / g.max(1),
            }
        }

        fn add(self, o: Ratio) -> Ratio {
            Ratio::new(self.num * o.den + o.num * self.den, self.den * o.den)
        }

        fn div_int(self, k: i128) -> Ratio {
            Ratio::new(self.num, self.den * k)
        }

        /// `self / total > 1 / p`  ⇔  `self · p > total`.
        fn exceeds_share(self, total: Ratio, p: i128) -> bool {
            // self·p > total  ⇔  num·p·total.den > total.num·den
            self.num * p * total.den > total.num * self.den
        }

        fn to_fixed(self) -> Fixed {
            Fixed::from_raw(self.num * crate::fixed::SCALE / self.den)
        }
    }

    fn gcd(mut a: u128, mut b: u128) -> u128 {
        while b != 0 {
            let t = a % b;
            a = b;
            b = t;
        }
        if a == 0 {
            1
        } else {
            a
        }
    }

    /// Direct transliteration of Figure 2, with exact rational arithmetic.
    ///
    /// ```text
    /// readjust(w[1..t], i, p):
    ///     if w[i] / Σ_{j=i..t} w[j] > 1/p:
    ///         readjust(w, i+1, p−1)
    ///         sum = Σ_{j=i+1..t} w[j]
    ///         w[i] = sum / (p−1)
    /// ```
    ///
    /// Returns the full vector of instantaneous weights `φ_i` (fixed-point),
    /// in the same (descending) order as the input. Used as the oracle for
    /// [`readjust`].
    pub(crate) fn readjust_reference(weights_desc: &[u64], cpus: u32) -> Vec<Fixed> {
        // Degenerate case first (empty feasible tail, only possible when
        // t < p): match the iterative convention of equal unit weights. The
        // recursion in Figure 2 divides by an empty tail here, so the paper
        // leaves this case undefined.
        let adj = readjust(weights_desc, cpus);
        if adj.clamped == weights_desc.len() && !weights_desc.is_empty() {
            return vec![Fixed::from_int(1); weights_desc.len()];
        }
        let mut w: Vec<Ratio> = weights_desc
            .iter()
            .map(|&x| Ratio::int(x as i128))
            .collect();
        if cpus > 1 {
            readjust_rec(&mut w, 0, cpus as i128);
        }
        w.into_iter().map(Ratio::to_fixed).collect()
    }

    fn readjust_rec(w: &mut [Ratio], i: usize, p: i128) {
        if i >= w.len() || p <= 1 {
            return;
        }
        let total = w[i..].iter().fold(Ratio::int(0), |acc, &x| acc.add(x));
        if w[i].exceeds_share(total, p) {
            readjust_rec(w, i + 1, p - 1);
            let sum = w[i + 1..].iter().fold(Ratio::int(0), |acc, &x| acc.add(x));
            w[i] = if sum.num == 0 {
                // Degenerate tail (t < p): match the iterative convention.
                Ratio::int(1)
            } else {
                sum.div_int(p - 1)
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::{is_feasible_fixed, readjust_reference};
    use super::*;
    use proptest::prelude::*;

    /// What a pass that found every weight feasible returns.
    const NOTHING_CLAMPED: Readjustment = Readjustment {
        clamped: 0,
        cap: None,
    };

    fn phis(weights_desc: &[u64], cpus: u32) -> Vec<Fixed> {
        apply(weights_desc, &readjust(weights_desc, cpus))
    }

    #[test]
    fn feasible_assignment_is_unchanged() {
        // 1:1:2 on two CPUs is feasible (max share 1/2).
        let w = [2, 1, 1];
        assert!(is_feasible(&w, 2));
        assert_eq!(readjust(&w, 2), NOTHING_CLAMPED);
    }

    #[test]
    fn example1_infeasible_pair_is_clamped() {
        // Example 1: weights 10:1 on a dual-processor. Thread with weight
        // 10 demands 10/11 > 1/2, so it is clamped to the feasible tail:
        // phi = 1/(2−1) = 1, giving shares 1/2 : 1/2.
        let w = [10, 1];
        assert!(!is_feasible(&w, 2));
        let adj = readjust(&w, 2);
        assert_eq!(adj.clamped, 1);
        assert_eq!(adj.cap, Some(Fixed::from_int(1)));
        let phi = apply(&w, &adj);
        assert!(is_feasible_fixed(&phi, 2));
    }

    #[test]
    fn blocking_makes_feasible_set_infeasible() {
        // §1.2: 1:1:2 on two CPUs is feasible, but when one weight-1
        // thread blocks, 1:2 is not: the weight-2 thread asks for 2/3.
        let w = [2, 1];
        assert!(!is_feasible(&w, 2));
        let adj = readjust(&w, 2);
        assert_eq!(adj.clamped, 1);
        // phi = 1/(2-1) = 1: shares become 1/2 each.
        assert_eq!(adj.cap, Some(Fixed::from_int(1)));
    }

    #[test]
    fn uniprocessor_never_clamps() {
        let w = [1_000_000, 1];
        assert!(is_feasible(&w, 1));
        assert_eq!(readjust(&w, 1), NOTHING_CLAMPED);
    }

    #[test]
    fn capped_readjustment_respects_capacities() {
        // Two CPUs, shares 3:1, both entities able to use both CPUs
        // (3 members each): 3/4 of 2 CPUs = 1.5 ≤ capacity 2, feasible.
        let (phi, clamps) = readjust_capped(&[(3, 2), (1, 2)], 2);
        assert_eq!(clamps, 0);
        assert_eq!(phi, vec![Fixed::from_int(3), Fixed::from_int(1)]);

        // Same shares but the big entity has a single member: it can
        // hold only one CPU, so its weight clamps to the tail (1/(2−1)).
        let (phi, clamps) = readjust_capped(&[(3, 1), (1, 2)], 2);
        assert_eq!(clamps, 1);
        assert_eq!(phi[0], Fixed::from_int(1));
        assert_eq!(phi[1], Fixed::from_int(1));

        // Input order does not matter.
        let (phi, clamps) = readjust_capped(&[(1, 2), (3, 1)], 2);
        assert_eq!(clamps, 1);
        assert_eq!(phi[1], Fixed::from_int(1));
    }

    #[test]
    fn capped_degenerate_tail_uses_capacities() {
        // One entity with one member on four CPUs: clamped with an
        // empty tail; its capacity is the exact assignment.
        let (phi, clamps) = readjust_capped(&[(100, 1)], 4);
        assert_eq!(clamps, 1);
        assert_eq!(phi[0], Fixed::from_int(1));
        // Two members: capacity 2.
        let (phi, _) = readjust_capped(&[(100, 2)], 4);
        assert_eq!(phi[0], Fixed::from_int(2));
    }

    #[test]
    fn capped_clamp_lands_exactly_at_capacity() {
        // Three CPUs, entity (10, c=2) vs two (1, c=1): 10/12 of 3 CPUs
        // = 2.5 > 2, so it clamps to φ = 2·2/(3−2) = 4 — exactly 4/6 of
        // 3 CPUs = 2 CPUs, its capacity.
        let (phi, clamps) = readjust_capped(&[(10, 2), (1, 1), (1, 1)], 3);
        assert_eq!(clamps, 1);
        assert_eq!(phi[0], Fixed::from_int(4));
        let total: i128 = phi.iter().map(|f| f.raw()).sum();
        assert_eq!(phi[0].raw() * 3, 2 * total);
    }

    #[test]
    fn cascade_of_infeasible_threads() {
        // Four CPUs, weights 100:10:1:1. 100·4 > 112 (infeasible);
        // then 10·3 > 12 (infeasible); then 1·2 ≤ 2 (feasible).
        let w = [100, 10, 1, 1];
        let adj = readjust(&w, 4);
        assert_eq!(adj.clamped, 2);
        // T = 2, p − m = 2: cap = 1.
        assert_eq!(adj.cap, Some(Fixed::from_int(1)));
        let phi = apply(&w, &adj);
        assert!(is_feasible_fixed(&phi, 4));
        // Each clamped thread's share is exactly 1/p = 1/4 of total 4.
        assert_eq!(phi[0], Fixed::from_int(1));
        assert_eq!(phi[1], Fixed::from_int(1));
        assert_eq!(phi[2], Fixed::from_int(1));
    }

    #[test]
    fn fewer_tasks_than_processors_degenerates_to_equal_weights() {
        // One thread on two CPUs: the constraint cannot be satisfied at
        // all (its share of itself is 1). Convention: equal weights.
        let w = [10];
        let adj = readjust(&w, 2);
        assert_eq!(adj.clamped, 1);
        assert_eq!(adj.cap, Some(Fixed::from_int(1)));

        // Two threads with wild weights on four CPUs.
        let w = [1_000, 1];
        let adj = readjust(&w, 4);
        assert_eq!(adj.clamped, 2);
        assert_eq!(adj.cap, Some(Fixed::from_int(1)));
    }

    #[test]
    fn clamp_count_is_bounded_by_p_minus_1() {
        // With t ≥ p at most p−1 threads can be clamped (§2.1).
        let w = [100, 100, 100, 100, 1, 1, 1, 1];
        for p in 2..=4u32 {
            let adj = readjust(&w, p);
            assert!(adj.clamped <= (p - 1) as usize, "p={p}: {adj:?}");
        }
    }

    #[test]
    fn matches_recursive_reference_on_known_cases() {
        let cases: &[(&[u64], u32)] = &[
            (&[10, 1], 2),
            (&[2, 1, 1], 2),
            (&[100, 10, 1, 1], 4),
            (&[10_000, 100, 1, 1, 1], 2),
            (&[5, 4, 3, 2, 1], 3),
            (&[7, 7, 7], 3),
            (&[1], 2),
            (&[1000, 1], 4),
        ];
        for &(w, p) in cases {
            assert_eq!(
                phis(w, p),
                readjust_reference(w, p),
                "weights {w:?} on {p} cpus"
            );
        }
    }

    #[test]
    fn cap_past_i64_is_exact() {
        // Three CPUs: the heaviest thread is infeasible and the feasible
        // tail sums to 3·2⁶² > i64::MAX. The cap is still the exact
        // 3·2⁶²/2, from either caller.
        let w = [i64::MAX as u64, 1 << 62, 1 << 62, 1 << 62];
        let adj = readjust(&w, 3);
        assert_eq!(adj.clamped, 1);
        assert!(adj.cap.unwrap() > Fixed::ZERO, "{adj:?}");
        assert_eq!(apply(&w, &adj), readjust_reference(&w, 3));
        let (phi, clamps) = readjust_capped(&w.map(|w| (w, 1)), 3);
        assert_eq!(clamps, 1);
        assert_eq!(phi, apply(&w, &adj));
        // Nine CPUs, two 2⁶² entities of capacity 4 and 6: the first
        // clamps to 4·2⁶²/5, and 4·2⁶² alone is past i64::MAX.
        let (phi, clamps) = readjust_capped(&[(1 << 62, 4), (1 << 62, 6)], 9);
        assert_eq!(clamps, 1);
        assert_eq!(phi[0].raw(), (1i128 << 62) * 4 * crate::fixed::SCALE / 5);
        assert_eq!(phi[1], Fixed::from_int(1 << 62));
    }

    #[test]
    fn clamped_share_is_exactly_one_over_p() {
        let w = [10_000u64, 100, 1, 1, 1];
        let adj = readjust(&w, 2);
        let phi = apply(&w, &adj);
        let total: f64 = phi.iter().map(|f| f.to_f64()).sum();
        for p in phi.iter().take(adj.clamped) {
            let share = p.to_f64() / total;
            assert!((share - 0.5).abs() < 1e-3, "share {share}");
        }
    }

    proptest! {
        #[test]
        fn readjusted_weights_are_always_feasible(
            mut w in proptest::collection::vec(1u64..1_000_000, 1..40),
            p in 2u32..9,
        ) {
            w.sort_unstable_by(|a, b| b.cmp(a));
            let phi = phis(&w, p);
            // When t >= p the result must satisfy Eq. 1 exactly.
            if w.len() >= p as usize {
                prop_assert!(is_feasible_fixed(&phi, p), "w={w:?} p={p} phi={phi:?}");
            }
        }

        #[test]
        fn feasible_tail_is_never_modified(
            mut w in proptest::collection::vec(1u64..1_000_000, 1..40),
            p in 2u32..9,
        ) {
            w.sort_unstable_by(|a, b| b.cmp(a));
            let adj = readjust(&w, p);
            let phi = apply(&w, &adj);
            for i in adj.clamped..w.len() {
                prop_assert_eq!(phi[i], Fixed::from_int(w[i] as i64));
            }
        }

        #[test]
        fn clamp_count_bound(
            mut w in proptest::collection::vec(1u64..1_000_000, 1..40),
            p in 2u32..9,
        ) {
            w.sort_unstable_by(|a, b| b.cmp(a));
            let adj = readjust(&w, p);
            prop_assert!(adj.clamped <= (p as usize - 1).min(w.len()));
        }

        #[test]
        fn nearly_idempotent_after_one_pass(
            mut w in proptest::collection::vec(1u64..1_000_000, 2..40),
            p in 2u32..9,
        ) {
            // Re-running readjustment on an already-feasible set (clamped
            // weights included, re-expressed as integer mantissas) changes
            // each weight by at most a few fixed-point ULPs: the cap
            // `T/(p−m)` truncates, so the second pass may nudge a weight
            // that sits exactly on the feasibility boundary.
            w.sort_unstable_by(|a, b| b.cmp(a));
            if w.len() < p as usize { return Ok(()); }
            let phi = phis(&w, p);
            let as_int: Vec<u64> = phi.iter().map(|f| f.raw() as u64).collect();
            let mut sorted = as_int.clone();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            let phi2 = phis(&sorted, p);
            for (a, b) in sorted.iter().zip(phi2.iter()) {
                let before = *a as i128; // mantissa, SCALE-scaled input
                let after = b.raw() / crate::fixed::SCALE; // phi of mantissa-valued weight
                let drift = (before - after).abs();
                prop_assert!(drift <= p as i128, "before={before} after={after}");
            }
        }

        /// The production walk against the Figure-2 recursion, over the
        /// input family `tests/readjust_differential.rs` pins the three
        /// callers on: tie runs, `t < p`, `p = 1`, entries near 2⁶².
        #[test]
        fn iterative_matches_recursive_reference(
            mut w in proptest::collection::vec(
                prop_oneof![1u64..8, 1u64..1_000_000, ((1u64 << 62) - 1_000)..((1u64 << 62) + 1)],
                1..24,
            ),
            p in 1u32..17,
        ) {
            w.sort_unstable_by(|a, b| b.cmp(a));
            // At most two entries near 2⁶², so every feasible-tail sum
            // stays below 2⁶³; `cap_past_i64_is_exact` covers the rest.
            for x in w.iter_mut().skip(2) {
                *x = (*x).min(1_000_000);
            }
            prop_assert_eq!(phis(&w, p), readjust_reference(&w, p));
        }

        #[test]
        fn descending_order_is_preserved(
            mut w in proptest::collection::vec(1u64..1_000_000, 1..40),
            p in 2u32..9,
        ) {
            w.sort_unstable_by(|a, b| b.cmp(a));
            let phi = phis(&w, p);
            for win in phi.windows(2) {
                prop_assert!(win[0] >= win[1], "phi not descending: {phi:?}");
            }
        }
    }
}
