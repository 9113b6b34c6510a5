//! `BENCHMARK.json` at the repository root against the metric registry
//! and the limits of the driver's contract.

use std::path::Path;
use std::process::Command;

use sfs_benchmark::metrics::{per_layer_all, END_TO_END};
use sfs_benchmark::workload::WorkloadId;
use sfs_trace::Json;

fn committed() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json exceeds 64 KiB");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(list: &Json) -> Vec<&str> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).expect("a name"))
        .collect()
}

#[test]
fn committed_file_is_what_the_registry_generates() {
    let out = Command::new(env!("CARGO_BIN_EXE_sfs-benchmark"))
        .arg("contract")
        .output()
        .expect("contract runs");
    assert!(out.status.success());
    let generated = Json::parse(String::from_utf8(out.stdout).unwrap().trim()).unwrap();
    assert_eq!(
        committed(),
        generated,
        "BENCHMARK.json is stale: regenerate it with `sfs-benchmark contract`"
    );
}

#[test]
fn committed_file_fits_the_contract() {
    let json = committed();
    let Json::Obj(members) = &json else {
        panic!("BENCHMARK.json is not an object")
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let command = json.get("command").unwrap().as_arr().unwrap();
    assert!(command.len() <= 32);
    for part in command {
        let s = part.as_str().unwrap();
        assert!(
            s.len() <= 200 && !s.starts_with('/') && !s.contains(".."),
            "{s}"
        );
    }
    assert_eq!(names_of_paths(&json), ["benchmark"]);
    let seconds = json.get("run_seconds").unwrap().as_u64().unwrap();
    assert!((1..=60).contains(&seconds));
    // 4 + 22 × workloads runs must fit in 3420 s with set-up and builds.
    let runs = 4 + 22 * WorkloadId::ALL.len() as u64;
    assert!(
        runs * (seconds + 8) < 3420 - 600,
        "run_seconds leaves no room"
    );

    let workloads = json.get("workloads").unwrap();
    assert_eq!(
        names(workloads),
        WorkloadId::ALL.map(WorkloadId::name).to_vec()
    );
    for w in workloads.as_arr().unwrap() {
        let why = w.get("why").unwrap().as_str().unwrap();
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
    }

    let e2e = json.get("end_to_end").unwrap();
    assert_eq!(
        names(e2e),
        END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>()
    );
    assert!((1..=16).contains(&e2e.as_arr().unwrap().len()));
    let mut largest = ("", 0.0);
    for m in e2e.as_arr().unwrap() {
        let bound = m.get("bound").unwrap().as_f64().unwrap();
        assert!(bound > 0.0 && bound <= 0.25);
        if bound > largest.1 {
            largest = (m.get("name").unwrap().as_str().unwrap(), bound);
        }
    }
    assert_eq!(largest.0, "setup_s", "setup_s carries the largest bound");

    let per_layer = json.get("per_layer").unwrap();
    assert_eq!(
        names(per_layer),
        per_layer_all().map(|d| d.name).collect::<Vec<_>>()
    );
    assert!((1..=128).contains(&per_layer.as_arr().unwrap().len()));
    for m in per_layer.as_arr().unwrap() {
        let Json::Obj(fields) = m else { panic!() };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["name", "unit", "better"]);
    }
}

fn names_of_paths(json: &Json) -> Vec<&str> {
    json.get("paths")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|p| p.as_str().unwrap())
        .collect()
}
