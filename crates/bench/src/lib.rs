//! # sfs-bench — the paper's tables and figures, and the gate
//!
//! One module per paper artefact, each exposing `run(effort)` and
//! returning a rendered [`common::ExpResult`]:
//!
//! | Module | Paper artefact |
//! |---|---|
//! | [`fig1`] | Figure 1 / Example 1 (infeasible-weights starvation) |
//! | [`fig3`] | Figure 3, as the counted cost of the exact pick (the §3.2 heuristic it measured is subsumed) |
//! | [`fig4`] | Figure 4(a,b) (readjustment fixes SFQ) |
//! | [`fig5`] | Figure 5(a,b) (short-jobs problem, SFQ vs SFS) |
//! | [`fig6`] | Figure 6(a,b,c) (allocation, isolation, interactivity) |
//! | [`overheads`] | Figure 7 and Table 1 (scheduling overheads) |
//! | [`verify`] | Concurrency-correctness gate: the bounded interleaving checker over the epoch/steal/watchdog models — a gate, not a measurement: a failure exits non-zero |
//!
//! The `repro` binary drives them all and writes reports to `results/`.
//! Performance is measured by the `benchmark/` package and guarded by
//! the root `tests/scaling_guards.rs` and `tests/perf_guards.rs`.

pub mod common;
pub mod fig1;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod helpers;
pub mod overheads;
pub mod verify;

use common::{Effort, ExpResult};

/// One `repro` experiment: its id and the harness that regenerates it.
pub type Entry = (&'static str, fn(Effort) -> ExpResult);

/// Every experiment `repro` can run, in paper order — the one source
/// for the id list, the dispatch and the usage line.
pub const EXPERIMENTS: &[Entry] = &[
    ("fig1", fig1::run),
    ("fig3", fig3::run),
    ("fig4", fig4::run),
    ("fig5", fig5::run),
    ("fig6a", fig6::run_6a),
    ("fig6b", fig6::run_6b),
    ("fig6c", fig6::run_6c),
    ("fig7", overheads::run_fig7),
    ("table1", overheads::run_table1),
    ("verify", verify::run_verify),
];

/// Resolves the ids given on the command line (`all` expands to the
/// whole table; nothing requested means `all`) to the experiments to
/// run, each once, in order of first mention — or, as the error, the
/// first id that names no experiment.
pub fn select(requested: &[String]) -> Result<Vec<Entry>, String> {
    let mut picked: Vec<Entry> = Vec::new();
    for id in requested {
        let named = match EXPERIMENTS.iter().position(|(known, _)| known == id) {
            Some(i) => &EXPERIMENTS[i..=i],
            None if id == "all" => EXPERIMENTS,
            None => return Err(id.clone()),
        };
        for exp in named {
            if !picked.iter().any(|(id, _)| *id == exp.0) {
                picked.push(*exp);
            }
        }
    }
    if requested.is_empty() {
        picked.extend(EXPERIMENTS);
    }
    Ok(picked)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(requested: &[&str]) -> Vec<&'static str> {
        let requested: Vec<String> = requested.iter().map(ToString::to_string).collect();
        let picked = select(&requested).expect("known ids");
        picked.iter().map(|(id, _)| *id).collect()
    }

    #[test]
    fn selection_runs_each_experiment_once_in_order_of_first_mention() {
        let all: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
        assert_eq!(all.len(), 10);
        assert_eq!(ids(&[]), all);
        assert_eq!(ids(&["all"]), all);
        // `dedup()` only dropped adjacent repeats: `fig3 all` ran fig3 twice.
        let fig3_first = ids(&["fig3", "all"]);
        assert_eq!(fig3_first.len(), all.len());
        assert_eq!(fig3_first[..3], ["fig3", "fig1", "fig4"]);
        assert_eq!(ids(&["fig5", "fig1", "fig5"]), ["fig5", "fig1"]);
        // A deleted sweep or gate is an unknown id, not a silent no-op.
        assert_eq!(select(&["churn".to_string()]).unwrap_err(), "churn");
        assert_eq!(select(&["lint".to_string()]).unwrap_err(), "lint");
    }
}
