//! The command line: `bench` (the driver's contract), `run` (a full
//! set), `compare`, and the two internal child entry points.
//!
//! Every workload runs in a child process of its own, so `peak_rss_mb`
//! is per workload, and each child is started under `taskset -c <k>`
//! when `taskset` is on PATH. Children print their result as the last
//! line of standard output.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use sfs_trace::json::obj;
use sfs_trace::Json;

use crate::compare::{compare, load_bounds};
use crate::host::{self, HostStamp};
use crate::metrics::{per_layer_all, Gate, MetricDef, END_TO_END};
use crate::results::ResultSet;
use crate::runner::{run_child, Budget, ChildPlan, WorkloadResult, SETUP_REPS};
use crate::workload::{Scale, WorkloadId};

/// The command `BENCHMARK.json` gives the driver, run from the
/// repository root.
pub const CONTRACT_COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "bench",
];
/// Seconds one driver run measures for.
pub const CONTRACT_RUN_SECONDS: i128 = 12;

/// The default seed of `run`.
pub const DEFAULT_SEED: u64 = 20_000_806;
/// Timed repetitions of `run` per workload (the traced pass is extra).
pub const RUN_REPS: usize = 7;

const USAGE: &str = "\
usage:
  sfs-benchmark run [--seed N] [--out DIR] [--scale full|tiny] [--reps N]
                    [--workload W]
      run all five workloads and the component drives (or workload W
      alone), check outputs, print every metric, write DIR/results.json
      and DIR/trace_<w>.json
  sfs-benchmark compare <setA> <setB> [--bounds BENCHMARK.json]
      per-metric, per-workload verdicts of set B against set A
  sfs-benchmark bench --workload W --seed N --seconds S --trace 0|1
      one workload, result as one JSON line (the driver's contract)
";

/// `--key value` pairs plus positionals.
struct Args {
    flags: BTreeMap<String, String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut flags = BTreeMap::new();
        let mut positional = Vec::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                flags.insert(key.to_string(), value.clone());
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Args { flags, positional })
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.flags.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{key}: cannot read {v:?}")),
        }
    }

    fn need<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.get(key)?.ok_or_else(|| format!("--{key} is required"))
    }

    fn workload(&self) -> Result<WorkloadId, String> {
        let name: String = self.need("workload")?;
        WorkloadId::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))
    }

    fn scale(&self) -> Result<Scale, String> {
        match self.flags.get("scale") {
            None => Ok(Scale::Full),
            Some(s) => Scale::parse(s).ok_or_else(|| format!("unknown scale {s:?}")),
        }
    }
}

fn last_line(stdout: &[u8]) -> Option<&str> {
    std::str::from_utf8(stdout)
        .ok()?
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
}

/// Starts this executable again with `args`, pinned to `pin` if given,
/// waits for it and parses the last line of its output.
fn spawn_self(args: &[String], pin: Option<u32>) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = match pin {
        Some(core) => {
            let mut c = Command::new("taskset");
            c.arg("-c").arg(core.to_string()).arg(&exe);
            c
        }
        None => Command::new(&exe),
    };
    // `output` waits for the child; its stderr passes through.
    let out = cmd
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {args:?} failed: {}", out.status));
    }
    let line = last_line(&out.stdout).ok_or("child printed no result")?;
    Json::parse(line).map_err(|e| format!("child result does not parse: {e}"))
}

fn plan_args(plan: &ChildPlan, trace_file: Option<&Path>) -> Vec<String> {
    let mut a = vec![
        "child".to_string(),
        "--workload".into(),
        plan.workload.name().into(),
        "--seed".into(),
        plan.seed.to_string(),
        "--scale".into(),
        plan.scale.name().into(),
        "--setups".into(),
        plan.setups.to_string(),
        "--traced".into(),
        u8::from(plan.traced).to_string(),
    ];
    match plan.budget {
        Budget::Seconds(s) => a.extend(["--budget-seconds".into(), s.to_string()]),
        Budget::Reps(n) => a.extend(["--budget-reps".into(), n.to_string()]),
    }
    if let Some(ns) = plan.pick_spin_ns {
        a.extend(["--pick-spin-ns".into(), ns.to_string()]);
    }
    if let Some(p) = trace_file {
        a.extend(["--trace-file".into(), p.display().to_string()]);
    }
    a
}

/// Runs `plan` in a pinned child process.
pub fn spawn_workload(
    plan: &ChildPlan,
    pin: Option<u32>,
    trace_file: Option<&Path>,
) -> Result<WorkloadResult, String> {
    let json = spawn_self(&plan_args(plan, trace_file), pin)?;
    WorkloadResult::from_json(&json).ok_or_else(|| "child result is malformed".to_string())
}

/// Runs the component drives in a pinned child process.
pub fn spawn_drives(scale: Scale, pin: Option<u32>) -> Result<BTreeMap<String, f64>, String> {
    let args = ["drives".to_string(), "--scale".into(), scale.name().into()];
    match spawn_self(&args, pin)? {
        Json::Obj(members) => Ok(members
            .into_iter()
            .filter_map(|(k, v)| Some((k, v.as_f64()?)))
            .collect()),
        _ => Err("drives result is malformed".into()),
    }
}

fn cmd_child(args: &Args) -> Result<i32, String> {
    let budget = match (
        args.get::<f64>("budget-seconds")?,
        args.get::<usize>("budget-reps")?,
    ) {
        (Some(s), None) => Budget::Seconds(s),
        (None, Some(n)) => Budget::Reps(n),
        _ => return Err("child needs --budget-seconds or --budget-reps".into()),
    };
    let plan = ChildPlan {
        workload: args.workload()?,
        seed: args.need("seed")?,
        scale: args.scale()?,
        budget,
        setups: args.get("setups")?.unwrap_or(SETUP_REPS),
        traced: args.get::<u8>("traced")?.unwrap_or(0) != 0,
        pick_spin_ns: args.get("pick-spin-ns")?,
    };
    let res = run_child(&plan);
    if let (Some(path), Some(trace)) = (args.flags.get("trace-file"), &res.trace) {
        std::fs::write(path, trace.to_string()).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", res.to_json());
    Ok(0)
}

fn cmd_drives(args: &Args) -> Result<i32, String> {
    let out = crate::layers::run_all(args.scale()?);
    let json = Json::Obj(
        out.into_iter()
            .map(|(k, v)| (k.to_string(), Json::Num(v)))
            .collect(),
    );
    println!("{json}");
    Ok(0)
}

/// `contract`: prints the `BENCHMARK.json` that matches the metric
/// registry, so the committed file can be regenerated, not hand-edited.
fn cmd_contract(_args: &Args) -> Result<i32, String> {
    let named = |d: &MetricDef| {
        vec![
            ("name", Json::Str(d.name.into())),
            ("unit", Json::Str(d.unit.into())),
            ("better", Json::Str(d.better.name().into())),
        ]
    };
    let end_to_end = END_TO_END
        .iter()
        .map(|d| {
            let mut m = named(d);
            if let Gate::Relative(b) = d.gate {
                m.push(("bound", Json::Num(b)));
            }
            obj(m)
        })
        .collect();
    let json = obj(vec![
        (
            "command",
            Json::Arr(
                CONTRACT_COMMAND
                    .iter()
                    .map(|s| Json::Str((*s).into()))
                    .collect(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::Str("benchmark".into())])),
        ("run_seconds", Json::Int(CONTRACT_RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WorkloadId::ALL
                    .iter()
                    .map(|w| {
                        obj(vec![
                            ("name", Json::Str(w.name().into())),
                            ("why", Json::Str(w.why().into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("end_to_end", Json::Arr(end_to_end)),
        (
            "per_layer",
            Json::Arr(per_layer_all().map(|d| obj(named(d))).collect()),
        ),
    ]);
    println!("{json}");
    Ok(0)
}

fn metric_json(value: f64, unit: &str) -> Json {
    obj(vec![
        ("value", Json::Num(value)),
        ("unit", Json::Str(unit.into())),
    ])
}

/// `bench`: the driver's contract. One workload, one JSON line.
fn cmd_bench(args: &Args) -> Result<i32, String> {
    let workload = args.workload()?;
    let seed: u64 = args.need("seed")?;
    let seconds: f64 = args.need("seconds")?;
    let trace: u8 = args.need("trace")?;
    let scale = args.scale()?;
    let pin = host::pin_target();
    let plan = ChildPlan {
        workload,
        seed,
        scale,
        budget: Budget::Seconds(seconds),
        // The traced run reports no set-up time: one set-up is enough.
        setups: if trace == 0 { SETUP_REPS } else { 1 },
        traced: trace != 0,
        pick_spin_ns: None,
    };
    let res = spawn_workload(&plan, pin, None)?;
    for c in res.checks.iter().filter(|c| !c.ok) {
        eprintln!("check failed: {}: {}", c.name, c.detail);
    }
    let metrics: Vec<(String, Json)> = if trace == 0 {
        END_TO_END
            .iter()
            .map(|d| {
                let value = res
                    .end_to_end_value(d.name)
                    .ok_or_else(|| format!("end-to-end metric {} has no source", d.name))?;
                Ok((d.name.to_string(), metric_json(value, d.unit)))
            })
            .collect::<Result<_, String>>()?
    } else {
        let drives = spawn_drives(scale, pin)?;
        per_layer_all()
            .map(|d| {
                // A metric with no meaning on this workload reads 0.
                let value = res
                    .layers
                    .get(d.name)
                    .or_else(|| drives.get(d.name))
                    .copied()
                    .unwrap_or(0.0);
                (d.name.to_string(), metric_json(value, d.unit))
            })
            .collect()
    };
    let reps = res.wall_s.0.len() as u64;
    let line = obj(vec![
        ("correct", Json::Bool(res.correct())),
        ("attempted", Json::Int(i128::from(res.attempted * reps))),
        (
            "failed",
            Json::Int(i128::from(
                res.failed.saturating_sub(res.refused_by_design) * reps,
            )),
        ),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{line}");
    Ok(0)
}

fn print_set(set: &ResultSet) {
    println!(
        "host: {} × {}, {}, git {}, loadavg {:.2}, {}",
        set.host.nproc,
        set.host.cpu_model,
        set.host.rustc,
        set.host.git_rev,
        set.host.loadavg,
        set.host
            .pinned_core
            .map_or("pinned=false".to_string(), |c| format!(
                "pinned to core {c}"
            )),
    );
    if !set.host.quiet() {
        println!("host was unpinned or loaded: timings below are unresolved, not clean");
    }
    for w in &set.workloads {
        println!(
            "\n== {} (seed {}, inputs {}, {} reps)",
            w.workload.name(),
            w.seed,
            w.inputs_hash,
            w.wall_s.0.len()
        );
        let timing = |name: &str, unit: &str, value: f64, s: &crate::stats::Samples| {
            let (q1, med, q3) = crate::stats::quartiles(&s.0);
            println!(
                "  {name:<34} {value:>16.6} {unit:<6} (median {med:.6}, quartiles {q1:.6}–{q3:.6}, n={})",
                s.0.len()
            );
        };
        timing("setup_s", "s", w.setup_value(), &w.setup_s);
        timing("wall_s", "s", w.wall_value(), &w.wall_s);
        timing(
            "decisions_per_s",
            "1/s",
            w.decisions_value(),
            &w.decisions_per_s,
        );
        println!("  {:<34} {:>16.6} MB", "peak_rss_mb", w.peak_rss_mb);
        for d in per_layer_all() {
            if let Some(v) = w.layers.get(d.name) {
                println!("  {:<34} {v:>16.6} {}", d.name, d.unit);
            }
        }
        for c in &w.checks {
            println!(
                "  check {:<28} {} {}",
                c.name,
                if c.ok { "ok  " } else { "FAIL" },
                c.detail
            );
        }
    }
    println!("\n== component drives");
    for d in per_layer_all() {
        if let Some(v) = set.drives.get(d.name) {
            println!("  {:<34} {v:>16.6} {}", d.name, d.unit);
        }
    }
}

/// `run`: all five workloads plus the drives, checked and printed.
fn cmd_run(args: &Args) -> Result<i32, String> {
    let seed = args.get("seed")?.unwrap_or(DEFAULT_SEED);
    let scale = args.scale()?;
    let reps = args.get("reps")?.unwrap_or(RUN_REPS);
    if reps < 5 {
        return Err("--reps must be at least 5".into());
    }
    let out: PathBuf = args
        .get("out")?
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("results/latest"));
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let pin = host::pin_target();
    let host = HostStamp::read(pin);
    if !args.flags.contains_key("seed") {
        eprintln!("using the default seed {DEFAULT_SEED}");
    }
    let only = match args.flags.get("workload") {
        Some(_) => Some(args.workload()?),
        None => None,
    };
    let mut workloads = Vec::new();
    for workload in WorkloadId::ALL {
        if only.is_some_and(|w| w != workload) {
            continue;
        }
        eprintln!("running {} …", workload.name());
        let plan = ChildPlan {
            workload,
            seed,
            scale,
            budget: Budget::Reps(reps),
            setups: SETUP_REPS,
            traced: true,
            pick_spin_ns: args.get("pick-spin-ns")?,
        };
        let trace_file = out.join(format!("trace_{}.json", workload.name()));
        workloads.push(spawn_workload(&plan, pin, Some(&trace_file))?);
    }
    let drives = if only.is_none() {
        eprintln!("running the component drives …");
        spawn_drives(scale, pin)?
    } else {
        BTreeMap::new()
    };
    let set = ResultSet {
        host,
        seed,
        scale,
        workloads,
        drives,
    };
    set.save(&out)
        .map_err(|e| format!("{}: {e}", out.display()))?;
    print_set(&set);
    let failed: Vec<_> = set
        .workloads
        .iter()
        .flat_map(|w| w.checks.iter().filter(|c| !c.ok).map(move |c| (w, c)))
        .collect();
    for (w, c) in &failed {
        eprintln!(
            "output check failed on {}: {}: {}",
            w.workload.name(),
            c.name,
            c.detail
        );
    }
    println!("\nwrote {}", out.join(crate::results::SET_FILE).display());
    Ok(i32::from(!failed.is_empty()))
}

/// `compare`: verdicts of set B against set A.
fn cmd_compare(args: &Args) -> Result<i32, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("compare needs two result directories".into());
    };
    let bounds_path: PathBuf = args
        .get("bounds")?
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"));
    let bounds = load_bounds(&bounds_path)?;
    let a = ResultSet::load(Path::new(a))?;
    let b = ResultSet::load(Path::new(b))?;
    let cmp = compare(&a, &b, &bounds);
    print!("{}", cmp.render());
    Ok(i32::from(cmp.failed()))
}

/// Dispatches a command line (without the program name); returns the
/// process exit code.
pub fn main_with(raw: &[String]) -> i32 {
    let Some((command, rest)) = raw.split_first() else {
        eprint!("{USAGE}");
        return 2;
    };
    let run = |f: fn(&Args) -> Result<i32, String>| match Args::parse(rest).and_then(|a| f(&a)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("sfs-benchmark {command}: {e}");
            2
        }
    };
    match command.as_str() {
        "bench" => run(cmd_bench),
        "run" => run(cmd_run),
        "compare" => run(cmd_compare),
        "child" => run(cmd_child),
        "drives" => run(cmd_drives),
        "contract" => run(cmd_contract),
        _ => {
            eprint!("{USAGE}");
            2
        }
    }
}
