//! The `--scale tiny` smoke test: all five workloads through `run` and
//! `compare`, in a few seconds.

use std::path::{Path, PathBuf};
use std::process::Command;

use sfs_benchmark::metrics::per_layer_all;
use sfs_benchmark::results::ResultSet;
use sfs_benchmark::workload::WorkloadId;

const BIN: &str = env!("CARGO_BIN_EXE_sfs-benchmark");

fn out_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_tiny(seed: u64, dir: &Path) -> ResultSet {
    let out = Command::new(BIN)
        .args([
            "run",
            "--scale",
            "tiny",
            "--seed",
            &seed.to_string(),
            "--out",
        ])
        .arg(dir)
        .output()
        .expect("run starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // One command prints every metric by name with its unit.
    for name in ["wall_s", "decisions_per_s", "peak_rss_mb", "setup_s"] {
        assert!(stdout.contains(name), "run did not print {name}");
    }
    for d in per_layer_all() {
        assert!(stdout.contains(d.name), "run did not print {}", d.name);
    }
    ResultSet::load(dir).expect("results.json loads")
}

#[test]
fn tiny_run_and_compare_cover_all_five_workloads() {
    let (dir_a, dir_b, dir_c) = (out_dir("smoke_a"), out_dir("smoke_b"), out_dir("smoke_c"));
    let a = run_tiny(7, &dir_a);
    let b = run_tiny(7, &dir_b);
    let c = run_tiny(8, &dir_c);

    assert_eq!(a.workloads.len(), WorkloadId::ALL.len());
    for w in &a.workloads {
        assert!(w.correct(), "{}: {:?}", w.workload.name(), w.checks);
        assert!(w.wall_s.0.len() >= 5, "fewer than five timed reps");
        assert_eq!(w.failed, w.refused_by_design, "an operation failed");
        assert!(dir_a
            .join(format!("trace_{}.json", w.workload.name()))
            .exists());
        // The traced repetition was checked against the untraced ones.
        if w.workload.is_sim() {
            assert!(w
                .checks
                .iter()
                .any(|c| c.name == "traced_rep_equals_untraced" && c.ok));
        }
        assert!(w.layers.contains_key("bench.trace_overhead_pct"));
    }
    // The stamp is in the file, and the same seed gives the same inputs.
    let text = std::fs::read_to_string(dir_a.join("results.json")).unwrap();
    for field in [
        "nproc",
        "cpu_model",
        "rustc",
        "git_rev",
        "loadavg",
        "pinned",
        "seed",
        "reps",
        "inputs_hash",
    ] {
        assert!(
            text.contains(&format!("\"{field}\"")),
            "stamp lacks {field}"
        );
    }
    for id in WorkloadId::ALL {
        let hash = |s: &ResultSet| s.workload(id).unwrap().inputs_hash.clone();
        assert_eq!(hash(&a), hash(&b), "{}: same seed, other inputs", id.name());
        assert_ne!(hash(&a), hash(&c), "{}: other seed, same inputs", id.name());
    }

    // compare: same seed compares (exact values identical), another seed
    // is refused.
    let out = Command::new(BIN)
        .arg("compare")
        .args([&dir_a, &dir_b])
        .output()
        .expect("compare starts");
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(
        !table.contains("differs") && !table.contains("error:"),
        "{table}"
    );
    for id in WorkloadId::ALL {
        assert!(table.contains(id.name()), "compare skipped {}", id.name());
    }
    assert!(
        table.contains("wall_s") && table.contains("identical"),
        "{table}"
    );
    let out = Command::new(BIN)
        .arg("compare")
        .args([&dir_a, &dir_c])
        .output()
        .expect("compare starts");
    assert_eq!(
        out.status.code(),
        Some(1),
        "sets of different seeds compared"
    );
}

/// The driver's entry point: the last line of standard output is one
/// JSON object with exactly the contract's keys, and the metrics are
/// the registry's, by trace mode.
#[test]
fn bench_prints_the_contract_line_in_both_trace_modes() {
    use sfs_benchmark::metrics::END_TO_END;
    use sfs_trace::Json;

    for (trace, expected) in [
        ("0", END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>()),
        ("1", per_layer_all().map(|d| d.name).collect()),
    ] {
        let out = Command::new(BIN)
            .args([
                "bench",
                "--workload",
                "serve",
                "--seed",
                "3",
                "--seconds",
                "1",
            ])
            .args(["--trace", trace, "--scale", "tiny"])
            .output()
            .expect("bench starts");
        assert!(out.status.success());
        let stdout = String::from_utf8(out.stdout).unwrap();
        let line = Json::parse(stdout.lines().last().unwrap()).expect("one JSON line");
        let Json::Obj(members) = &line else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct").unwrap().as_bool(), Some(true));
        assert!(line.get("attempted").unwrap().as_u64().unwrap() >= 1);
        // The flash crowd's refusals are the workload's correct output.
        assert_eq!(line.get("failed").unwrap().as_u64(), Some(0));
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!("no metrics")
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, expected, "--trace {trace}");
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64);
            assert!(value.is_some_and(f64::is_finite), "{name}: {m}");
            assert!(m.get("unit").and_then(Json::as_str).is_some(), "{name}");
            if trace == "0" {
                assert!(value.unwrap() > 0.0, "{name} is an end-to-end metric and 0");
            }
        }
    }
}
