//! The `compare` self-test: an injected slowdown of 20 % of the measured
//! `pick_next` time must be flagged on `steady.wall_s`, and two clean
//! sets must not be.
//!
//! The slowdown is the test-only busy-wait of `TimedScheduler`, so all
//! three sets run their timed repetitions through the decorator
//! (`--pick-spin-ns`, zero for the clean ones) and differ in nothing
//! else. On `steady` a fifth of `pick_next` is about a tenth of a
//! repetition, the size of the committed `wall_s` bound; the comparator
//! is therefore asked for a 4 % bound here, well above what the
//! fastest-repetition estimator resolves and well below the injected
//! shift. The host stamp's load average is neutralised (cargo is busy
//! building while tests run); the spread rule still applies, and one
//! disturbed attempt is retried.

use std::path::{Path, PathBuf};
use std::process::Command;

use sfs_benchmark::compare::{compare, registry_bounds, Verdict};
use sfs_benchmark::results::ResultSet;
use sfs_benchmark::workload::WorkloadId;

const BIN: &str = env!("CARGO_BIN_EXE_sfs-benchmark");
const ATTEMPTS: usize = 3;

fn steady_set(name: &str, pick_spin_ns: u64) -> ResultSet {
    let dir: PathBuf = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(BIN)
        .args(["run", "--workload", "steady", "--seed", "11", "--reps", "9"])
        .args(["--pick-spin-ns", &pick_spin_ns.to_string(), "--out"])
        .arg(&dir)
        .output()
        .expect("run starts");
    assert!(
        out.status.success(),
        "run failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut set = ResultSet::load(&dir).expect("results.json loads");
    set.host.loadavg = 0.0;
    set
}

#[test]
fn injected_pick_slowdown_is_flagged_and_clean_sets_are_not() {
    let mut bounds = registry_bounds();
    bounds.insert("wall_s".into(), 0.04);
    let mut last = String::new();
    for attempt in 1..=ATTEMPTS {
        let clean_a = steady_set("selftest_a", 0);
        if clean_a.host.pinned_core.is_none() {
            eprintln!("taskset is unavailable: timings cannot be resolved, skipping");
            return;
        }
        let pick_ns = clean_a.workload(WorkloadId::Steady).unwrap().layers["core.sched.pick_ns"];
        let clean_b = steady_set("selftest_b", 0);
        let slowed = steady_set("selftest_c", (0.2 * pick_ns).round() as u64);

        let clean = compare(&clean_a, &clean_b, &bounds);
        let injected = compare(&clean_a, &slowed, &bounds);
        let verdicts = (
            clean.verdict(WorkloadId::Steady, "wall_s"),
            injected.verdict(WorkloadId::Steady, "wall_s"),
        );
        last = format!(
            "attempt {attempt}: pick_ns {pick_ns:.0}\nclean:\n{}\ninjected:\n{}",
            clean.render(),
            injected.render()
        );
        // Exact values never move: the spin is invisible to the policy.
        assert!(!last.contains("differs"), "{last}");
        if verdicts == (Some(Verdict::Ok), Some(Verdict::Regression)) {
            return;
        }
        eprintln!("{last}");
    }
    panic!("the comparator did not separate the sets in {ATTEMPTS} attempts:\n{last}");
}
