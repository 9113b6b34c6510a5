//! `compare <setA> <setB>`: a verdict per metric and workload.
//!
//! * **Bounded metrics** (the end-to-end list of `BENCHMARK.json`, plus
//!   the hand-off median): `regression` when B is worse than A by more
//!   than the bound; `unresolved` when the measurement cannot tell —
//!   either set's spread exceeds the bound, or a host stamp says the
//!   run was unpinned or the machine already loaded — unless every
//!   sample of B is better than every sample of A; `ok` otherwise.
//! * **Exact values** (counters and simulated results of the simulated
//!   workloads): `ok` when identical, `differs` otherwise.
//! * **`ops_failed_share`**: `regression` on any rise.
//!
//! The spread of a fastest-of-n value is the gap between the fastest
//! repetition and the lower quartile: if a quarter of the repetitions
//! sit within the bound of the floor, the floor is resolved.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use sfs_trace::Json;

use crate::metrics::{Better, Gate, END_TO_END, USER_VISIBLE};
use crate::results::ResultSet;
use crate::runner::WorkloadResult;
use crate::stats::quartiles;
use crate::workload::WorkloadId;

/// The outcome for one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (or identical).
    Ok,
    /// Worse than the bound allows.
    Regression,
    /// The measurement cannot resolve the bound.
    Unresolved,
    /// An exact value changed.
    Differs,
}

impl Verdict {
    /// How the table prints it.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regression => "regression",
            Verdict::Unresolved => "unresolved",
            Verdict::Differs => "differs",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// The workload.
    pub workload: WorkloadId,
    /// The metric (or exact key).
    pub metric: String,
    /// Set A's value.
    pub a: f64,
    /// Set B's value.
    pub b: f64,
    /// The verdict.
    pub verdict: Verdict,
    /// Why, in numbers.
    pub note: String,
}

/// The whole comparison.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// Every row, bounded metrics first.
    pub rows: Vec<Row>,
    /// Conditions that make the two sets incomparable.
    pub errors: Vec<String>,
}

impl Comparison {
    /// The verdict on `metric` for `workload`, if compared.
    pub fn verdict(&self, workload: WorkloadId, metric: &str) -> Option<Verdict> {
        self.rows
            .iter()
            .find(|r| r.workload == workload && r.metric == metric)
            .map(|r| r.verdict)
    }

    /// Whether anything regressed, differed or could not be compared.
    pub fn failed(&self) -> bool {
        !self.errors.is_empty()
            || self
                .rows
                .iter()
                .any(|r| matches!(r.verdict, Verdict::Regression | Verdict::Differs))
    }

    /// The table `compare` prints. Exact values that agree are counted,
    /// not listed.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.errors {
            let _ = writeln!(out, "error: {e}");
        }
        let _ = writeln!(
            out,
            "{:<10} {:<28} {:>14} {:>14}  {:<10} note",
            "workload", "metric", "A", "B", "verdict"
        );
        let mut agreeing: BTreeMap<WorkloadId, usize> = BTreeMap::new();
        for r in &self.rows {
            if r.verdict == Verdict::Ok && r.note == "identical" {
                *agreeing.entry(r.workload).or_default() += 1;
                continue;
            }
            let _ = writeln!(
                out,
                "{:<10} {:<28} {:>14.6} {:>14.6}  {:<10} {}",
                r.workload.name(),
                r.metric,
                r.a,
                r.b,
                r.verdict.name(),
                r.note
            );
        }
        for (w, n) in agreeing {
            let _ = writeln!(
                out,
                "{:<10} {n} exact counters and simulated results identical",
                w.name()
            );
        }
        out
    }
}

/// Reads the end-to-end bounds of a `BENCHMARK.json`.
pub fn load_bounds(path: &Path) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: no end_to_end list", path.display()))?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            match (name, bound) {
                (Some(n), Some(b)) => Ok((n.to_string(), b)),
                _ => Err(format!("{}: malformed end_to_end entry", path.display())),
            }
        })
        .collect()
}

/// The bounds of the metric registry, for when no `BENCHMARK.json` is at
/// hand (the two are held equal by `tests/contract.rs`).
pub fn registry_bounds() -> BTreeMap<String, f64> {
    END_TO_END
        .iter()
        .filter_map(|d| match d.gate {
            Gate::Relative(b) => Some((d.name.to_string(), b)),
            _ => None,
        })
        .collect()
}

/// A timed metric's value, samples and spread in one set.
struct Timed {
    value: f64,
    samples: Vec<f64>,
    spread: f64,
}

fn low_tail_spread(samples: &[f64]) -> f64 {
    let (q1, _, _) = quartiles(samples);
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    if min > 0.0 && min.is_finite() {
        (q1 - min).max(0.0) / min
    } else {
        0.0
    }
}

fn timed(w: &WorkloadResult, metric: &str) -> Option<Timed> {
    match metric {
        "wall_s" => Some(Timed {
            value: w.wall_value(),
            spread: low_tail_spread(&w.wall_s.0),
            samples: w.wall_s.0.clone(),
        }),
        "decisions_per_s" => {
            // The mirror image: highest rate, upper-tail spread.
            let s = &w.decisions_per_s.0;
            let (_, _, q3) = quartiles(s);
            let max = w.decisions_value();
            Some(Timed {
                value: max,
                spread: if max > 0.0 {
                    (max - q3).max(0.0) / max
                } else {
                    0.0
                },
                samples: s.clone(),
            })
        }
        "setup_s" => Some(Timed {
            value: w.setup_value(),
            spread: w.setup_s.spread(),
            samples: w.setup_s.0.clone(),
        }),
        "peak_rss_mb" => Some(Timed {
            value: w.peak_rss_mb,
            spread: 0.0,
            samples: vec![w.peak_rss_mb],
        }),
        "e2e.handoff_p50_us" => {
            let s = w.handoff_p50_us.as_ref()?;
            Some(Timed {
                value: w.handoff_value()?,
                spread: low_tail_spread(&s.0),
                samples: s.0.clone(),
            })
        }
        _ => None,
    }
}

fn bounded_row(
    workload: WorkloadId,
    metric: &str,
    better: Better,
    bound: f64,
    quiet: bool,
    a: &Timed,
    b: &Timed,
) -> Row {
    let worse = match better {
        Better::Lower => (b.value - a.value) / a.value,
        Better::Higher => (a.value - b.value) / a.value,
    };
    let b_all_better = match better {
        Better::Lower => {
            b.samples.iter().copied().fold(0.0, f64::max)
                < a.samples.iter().copied().fold(f64::INFINITY, f64::min)
        }
        Better::Higher => {
            b.samples.iter().copied().fold(f64::INFINITY, f64::min)
                > a.samples.iter().copied().fold(0.0, f64::max)
        }
    };
    // Memory is not a timing: host noise does not blur it.
    let timing = metric != "peak_rss_mb";
    let spread = a.spread.max(b.spread);
    let blurred = timing && (!quiet || spread > bound);
    let verdict = if blurred && !b_all_better {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    // In the note, positive is better.
    let mut note = format!(
        "{:+.2}% (bound {:.0}%, spread {:.2}%)",
        100.0 * -worse,
        100.0 * bound,
        100.0 * spread
    );
    if timing && !quiet {
        note.push_str("; host unpinned or loaded");
    }
    Row {
        workload,
        metric: metric.to_string(),
        a: a.value,
        b: b.value,
        verdict,
        note,
    }
}

/// Compares set `b` against set `a` under the given end-to-end bounds.
pub fn compare(a: &ResultSet, b: &ResultSet, bounds: &BTreeMap<String, f64>) -> Comparison {
    let mut cmp = Comparison::default();
    if a.seed != b.seed || a.scale != b.scale {
        cmp.errors.push(format!(
            "sets differ in inputs: seed {} scale {} vs seed {} scale {}",
            a.seed,
            a.scale.name(),
            b.seed,
            b.scale.name()
        ));
        return cmp;
    }
    let quiet = a.host.quiet() && b.host.quiet();
    for id in WorkloadId::ALL {
        let (Some(wa), Some(wb)) = (a.workload(id), b.workload(id)) else {
            if a.workload(id).is_some() != b.workload(id).is_some() {
                cmp.errors
                    .push(format!("{} is in only one of the sets", id.name()));
            }
            continue;
        };
        if wa.inputs_hash != wb.inputs_hash {
            cmp.errors.push(format!(
                "{}: inputs_hash {} vs {}: the generators differ",
                id.name(),
                wa.inputs_hash,
                wb.inputs_hash
            ));
            continue;
        }
        let bounded = END_TO_END
            .iter()
            .map(|d| (d, bounds.get(d.name).copied()))
            .chain(USER_VISIBLE.iter().map(|d| match d.gate {
                Gate::Relative(bound) => (d, Some(bound)),
                _ => (d, None),
            }));
        for (def, bound) in bounded {
            let (Some(bound), Some(ta), Some(tb)) =
                (bound, timed(wa, def.name), timed(wb, def.name))
            else {
                continue;
            };
            cmp.rows.push(bounded_row(
                id, def.name, def.better, bound, quiet, &ta, &tb,
            ));
        }
        let (fa, fb) = (wa.ops_failed_share(), wb.ops_failed_share());
        cmp.rows.push(Row {
            workload: id,
            metric: "e2e.ops_failed_share".into(),
            a: fa,
            b: fb,
            verdict: if fb > fa {
                Verdict::Regression
            } else {
                Verdict::Ok
            },
            note: format!("{} vs {} failed; must not rise", wa.failed, wb.failed),
        });
        if id.is_sim() {
            let keys: std::collections::BTreeSet<&String> =
                wa.exact.keys().chain(wb.exact.keys()).collect();
            for key in keys {
                let (va, vb) = (wa.exact.get(key), wb.exact.get(key));
                let same = va == vb;
                cmp.rows.push(Row {
                    workload: id,
                    metric: key.clone(),
                    a: va.map_or(f64::NAN, |v| v.as_f64()),
                    b: vb.map_or(f64::NAN, |v| v.as_f64()),
                    verdict: if same { Verdict::Ok } else { Verdict::Differs },
                    note: if same {
                        "identical".into()
                    } else {
                        "exact value changed".into()
                    },
                });
            }
        }
    }
    cmp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostStamp;
    use crate::stats::Samples;
    use crate::workload::{Exact, Scale};

    fn result(wall: &[f64]) -> WorkloadResult {
        WorkloadResult {
            workload: WorkloadId::Steady,
            seed: 1,
            scale: Scale::Tiny,
            inputs_hash: "h".into(),
            setup_s: Samples(vec![0.1, 0.1, 0.1]),
            wall_s: Samples(wall.to_vec()),
            decisions_per_s: Samples(wall.iter().map(|w| 1000.0 / w).collect()),
            handoff_p50_us: None,
            measured: BTreeMap::new(),
            peak_rss_mb: 10.0,
            attempted: 100,
            failed: 0,
            refused_by_design: 0,
            exact: [("sched.picks".to_string(), Exact::Int(1000))].into(),
            checks: Vec::new(),
            layers: BTreeMap::new(),
            trace: None,
        }
    }

    fn set(wall: &[f64], pinned: bool) -> ResultSet {
        ResultSet {
            host: HostStamp {
                nproc: 2,
                cpu_model: "x".into(),
                rustc: "x".into(),
                git_rev: "x".into(),
                loadavg: 0.1,
                pinned_core: pinned.then_some(1),
            },
            seed: 1,
            scale: Scale::Tiny,
            workloads: vec![result(wall)],
            drives: BTreeMap::new(),
        }
    }

    const CLEAN: [f64; 8] = [1.00, 1.01, 1.01, 1.02, 1.02, 1.03, 1.30, 1.50];

    #[test]
    fn clean_sets_are_ok_and_a_slowdown_past_the_bound_regresses() {
        let bounds = registry_bounds();
        let a = set(&CLEAN, true);
        let same = compare(&a, &set(&CLEAN, true), &bounds);
        assert_eq!(
            same.verdict(WorkloadId::Steady, "wall_s"),
            Some(Verdict::Ok)
        );
        assert!(!same.failed(), "{}", same.render());

        let slow: Vec<f64> = CLEAN.iter().map(|w| w * 1.2).collect();
        let worse = compare(&a, &set(&slow, true), &bounds);
        assert_eq!(
            worse.verdict(WorkloadId::Steady, "wall_s"),
            Some(Verdict::Regression)
        );
        assert_eq!(
            worse.verdict(WorkloadId::Steady, "decisions_per_s"),
            Some(Verdict::Regression)
        );
        assert!(worse.failed());
        // The other way round it is an improvement, not a regression.
        let better = compare(&set(&slow, true), &a, &bounds);
        assert_eq!(
            better.verdict(WorkloadId::Steady, "wall_s"),
            Some(Verdict::Ok)
        );
    }

    #[test]
    fn wide_spread_or_an_unpinned_host_is_unresolved() {
        let bounds = registry_bounds();
        // The fastest repetition stands alone: the floor is not resolved.
        let ragged = [1.00, 1.40, 1.45, 1.50, 1.50, 1.55, 1.60, 1.70];
        let c = compare(&set(&CLEAN, true), &set(&ragged, true), &bounds);
        assert_eq!(
            c.verdict(WorkloadId::Steady, "wall_s"),
            Some(Verdict::Unresolved)
        );
        let c = compare(&set(&CLEAN, true), &set(&CLEAN, false), &bounds);
        assert_eq!(
            c.verdict(WorkloadId::Steady, "wall_s"),
            Some(Verdict::Unresolved)
        );
        // Memory is not blurred by an unpinned host.
        assert_eq!(
            c.verdict(WorkloadId::Steady, "peak_rss_mb"),
            Some(Verdict::Ok)
        );
        // ...unless every sample of B beats every sample of A.
        let fast: Vec<f64> = CLEAN.iter().map(|w| w * 0.5).collect();
        let c = compare(&set(&CLEAN, false), &set(&fast, false), &bounds);
        assert_eq!(c.verdict(WorkloadId::Steady, "wall_s"), Some(Verdict::Ok));
    }

    #[test]
    fn exact_values_are_diffed_at_equality() {
        let bounds = registry_bounds();
        let a = set(&CLEAN, true);
        let mut b = set(&CLEAN, true);
        b.workloads[0]
            .exact
            .insert("sched.picks".into(), Exact::Int(1001));
        let c = compare(&a, &b, &bounds);
        assert_eq!(
            c.verdict(WorkloadId::Steady, "sched.picks"),
            Some(Verdict::Differs)
        );
        assert!(c.failed());
        b.workloads[0].failed = 1;
        let c = compare(&a, &b, &bounds);
        assert_eq!(
            c.verdict(WorkloadId::Steady, "e2e.ops_failed_share"),
            Some(Verdict::Regression)
        );
    }

    #[test]
    fn different_inputs_are_refused() {
        let bounds = registry_bounds();
        let a = set(&CLEAN, true);
        let mut b = set(&CLEAN, true);
        b.workloads[0].inputs_hash = "other".into();
        let c = compare(&a, &b, &bounds);
        assert!(c.failed());
        assert!(c.rows.is_empty());
        b.seed = 2;
        assert!(compare(&a, &b, &bounds).failed());
    }
}
