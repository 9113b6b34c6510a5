//! Differential pins for the §2.1 weight readjustment and its callers.
//!
//! One routine evaluates the infeasibility test; three callers feed it:
//! [`readjust`] (a weight-descending vector), [`readjust_capped`]
//! (`(weight, capacity)` entities in any order) and
//! [`FeasibleWeights`] (a class map that hands over only its heaviest
//! `p − 1` weights and a running total). The Figure-2 recursion the
//! flat form is checked against lives in `readjust.rs`'s own test
//! module; this file pins that the three callers agree with *each
//! other*, on one input family: 1–16 CPUs, vectors with long tie runs,
//! fewer threads than processors, the uniprocessor, and entries near
//! 2⁶².

use std::collections::BTreeMap;

use proptest::prelude::*;
use sfs_core::feasible::FeasibleWeights;
use sfs_core::fixed::Fixed;
use sfs_core::readjust::{apply, readjust, readjust_capped};
use sfs_core::task::{weight, TaskId, Weight};

const BIG: u64 = 1 << 62;

/// Tie-heavy small weights, a wide middle range, and one arm in six
/// just under 2⁶².
fn weight_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        1u64..8,
        1u64..8,
        1u64..1_000_000,
        1u64..1_000_000,
        1u64..1_000_000,
        (BIG - 1_000)..(BIG + 1),
    ]
}

/// Keeps at most `max_big` near-2⁶² entries (the rest drop to their top
/// 22 bits), so that `c · T` for a clamped entity of capacity `c` over
/// the feasible tail `T` stays below 2⁶³; caps past that are pinned by
/// `readjust::tests::cap_past_i64_is_exact`.
fn tame(mut w: Vec<u64>, max_big: usize) -> Vec<u64> {
    let mut bigs = 0;
    for x in &mut w {
        if *x > BIG / 2 {
            bigs += 1;
            if bigs > max_big {
                *x >>= 40;
            }
        }
    }
    w
}

fn desc(w: &[u64]) -> Vec<u64> {
    let mut s = w.to_vec();
    s.sort_unstable_by(|a, b| b.cmp(a));
    s
}

/// φ as a function of the raw weight, read off the flat routine. The
/// clamp set is a union of whole weight classes, so this is well
/// defined under ties.
fn flat_phi_by_weight(w: &[u64], cpus: u32) -> BTreeMap<u64, Fixed> {
    let sorted = desc(w);
    let phi = apply(&sorted, &readjust(&sorted, cpus));
    sorted.into_iter().zip(phi).collect()
}

proptest! {
    /// With every capacity 1 the capacity-generalized caller IS §2.1:
    /// same clamp count, same φ per entry, whatever order the entries
    /// arrive in.
    #[test]
    fn capped_with_unit_capacities_matches_flat(
        w in proptest::collection::vec(weight_strategy(), 1..24),
        cpus in 1u32..17,
    ) {
        let w = tame(w, 2);
        let entries: Vec<(u64, u32)> = w.iter().map(|&w| (w, 1)).collect();
        let (phi, clamps) = readjust_capped(&entries, cpus);
        prop_assert_eq!(clamps, readjust(&desc(&w), cpus).clamped);
        let flat = flat_phi_by_weight(&w, cpus);
        for (k, &wk) in w.iter().enumerate() {
            prop_assert_eq!(phi[k], flat[&wk], "entry {} (w={})", k, wk);
        }
    }

    /// With capacities: at most `p − 1` clamps, a clamp only ever
    /// lowers a weight and every other weight is untouched, and on a
    /// saturable machine (Σc ≥ p) the result satisfies the generalized
    /// constraint `φ_g · p ≤ c_g · Σφ` up to `p` raw units of
    /// rounding. With less total capacity than processors every entity
    /// simply holds its capacity.
    #[test]
    fn capped_result_is_feasible(
        w in proptest::collection::vec(weight_strategy(), 1..24),
        caps in proptest::collection::vec(1u32..17, 24..25),
        cpus in 1u32..17,
    ) {
        let entries: Vec<(u64, u32)> = tame(w, 1)
            .into_iter()
            .zip(caps)
            .map(|(w, c)| (w, c.min(cpus)))
            .collect();
        let (phi, clamps) = readjust_capped(&entries, cpus);
        prop_assert!(clamps <= (cpus as usize - 1).min(entries.len()));
        let cap_total: u64 = entries.iter().map(|&(_, c)| u64::from(c)).sum();
        if cpus > 1 && cap_total < u64::from(cpus) {
            for (k, &(_, c)) in entries.iter().enumerate() {
                prop_assert_eq!(phi[k], Fixed::from_int(i64::from(c)));
            }
            return Ok(());
        }
        let total: i128 = phi.iter().map(|f| f.raw()).sum();
        let mut touched = 0;
        for (k, &(w, c)) in entries.iter().enumerate() {
            let raw = Fixed::from_int(w as i64);
            prop_assert!(phi[k] <= raw, "entry {} raised: {} > {}", k, phi[k], raw);
            touched += usize::from(phi[k] != raw);
            prop_assert!(
                phi[k].raw() * i128::from(cpus) <= i128::from(c) * total + i128::from(cpus),
                "entity {} over capacity: phi={} c={} total={}",
                k, phi[k], c, total
            );
        }
        prop_assert!(touched <= clamps, "{} weights moved, {} clamped", touched, clamps);
    }
}

/// One mutation of the tracked runnable set. Indices pick among the
/// live tasks (modulo their count).
#[derive(Debug, Clone)]
enum Op {
    Insert(u64),
    InsertMany(Vec<u64>),
    Remove(usize),
    SetWeight(usize, u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        weight_strategy().prop_map(Op::Insert),
        weight_strategy().prop_map(Op::Insert),
        proptest::collection::vec(weight_strategy(), 1..5).prop_map(Op::InsertMany),
        (0usize..64).prop_map(Op::Remove),
        (0usize..64).prop_map(Op::Remove),
        (0usize..64, weight_strategy()).prop_map(|(i, w)| Op::SetWeight(i, w)),
    ]
}

/// Clamp state and φ of every tracked task.
fn snapshot(f: &FeasibleWeights, live: &[(TaskId, Weight)]) -> BTreeMap<TaskId, (bool, Fixed)> {
    live.iter()
        .map(|&(id, w)| (id, (f.is_clamped(id), f.phi(id, w))))
        .collect()
}

proptest! {
    /// After every mutation the incremental tracker holds exactly the
    /// clamp set and cap that `readjust` computes from scratch over the
    /// sorted snapshot, and `changed()` is exact: it names a task iff
    /// its clamp state flipped or it stayed clamped while the cap moved
    /// — so every *other* task whose φ moved is named, and the mutated
    /// task itself only for a clamp-state change, as `take_changed`
    /// documents.
    #[test]
    fn feasible_weights_tracks_readjust_and_reports_exact_changes(
        ops in proptest::collection::vec(op_strategy(), 1..80),
        cpus in 1u32..17,
    ) {
        let mut f = FeasibleWeights::new(cpus, true);
        let mut live: Vec<(TaskId, Weight)> = Vec::new();
        let mut next = 0u64;
        // Scatter ids so id order is unrelated to arrival order.
        let mut fresh = || {
            next += 1;
            TaskId(next * 7919 % 1009)
        };
        for op in ops {
            let before = snapshot(&f, &live);
            let cap_before = f.cap();
            let mut mutated: Vec<TaskId> = Vec::new();
            match op {
                Op::Insert(w) => {
                    let id = fresh();
                    live.push((id, weight(w)));
                    mutated.push(id);
                    f.insert(id, weight(w));
                }
                Op::InsertMany(ws) => {
                    let batch: Vec<(TaskId, Weight)> =
                        ws.iter().map(|&w| (fresh(), weight(w))).collect();
                    live.extend_from_slice(&batch);
                    mutated.extend(batch.iter().map(|&(id, _)| id));
                    f.insert_many(&batch);
                }
                Op::Remove(i) => {
                    if live.is_empty() {
                        continue;
                    }
                    let (id, w) = live.swap_remove(i % live.len());
                    f.remove(id, w);
                }
                Op::SetWeight(i, w) => {
                    if live.is_empty() {
                        continue;
                    }
                    let k = i % live.len();
                    let (id, old) = live[k];
                    live[k].1 = weight(w);
                    mutated.push(id);
                    f.set_weight(id, old, weight(w));
                }
            }

            // (clamp set, cap) against a from-scratch pass.
            let mut sorted = live.clone();
            sorted.sort_unstable_by_key(|&(_, w)| std::cmp::Reverse(w));
            let weights: Vec<u64> = sorted.iter().map(|&(_, w)| w.get()).collect();
            let adj = readjust(&weights, cpus);
            let mut want: Vec<TaskId> = sorted[..adj.clamped].iter().map(|&(id, _)| id).collect();
            want.sort_unstable();
            prop_assert_eq!(f.clamped(), &want[..]);
            prop_assert_eq!(f.cap(), adj.cap);
            prop_assert_eq!(f.len(), live.len());

            // The change report.
            let after = snapshot(&f, &live);
            let cap_moved = f.cap() != cap_before;
            for (&id, &(clamped, phi)) in &after {
                let (was_clamped, was_phi) = before
                    .get(&id)
                    .copied()
                    .unwrap_or((false, phi));
                let named = f.changed().contains(&id);
                let expect = clamped != was_clamped || (clamped && cap_moved);
                prop_assert_eq!(named, expect, "{}: {:?} -> {:?}", id, before.get(&id), after[&id]);
                if !mutated.contains(&id) {
                    prop_assert!(named || phi == was_phi, "{} moved unreported", id);
                }
            }
            prop_assert!(f.changed().iter().all(|id| after.contains_key(id)));
        }
    }
}
