//! `repro` — regenerate the paper's tables and figures, and run the
//! concurrency-correctness gate. `repro --help` prints the options
//! and the experiment ids (from `sfs_bench::EXPERIMENTS`).
//!
//! Each experiment prints its report to stdout and writes
//! `<out>/<id>.txt` plus CSV data files. A failed gate (`verify`)
//! exits non-zero.

use std::path::PathBuf;
use std::process::ExitCode;

use sfs_bench::common::Effort;
use sfs_bench::{fig6, select, EXPERIMENTS};

fn usage() -> String {
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
    format!(
        "usage: repro [--quick] [--out DIR] [--trace DIR] [ID...]\n       \
         IDs: {} all   (default: all)\n  \
         --quick  scaled-down runs (seconds instead of minutes)\n  \
         --out    output directory (default: results/)\n  \
         --trace  also export a <id>.perfetto-trace into DIR for every requested\n           \
         experiment with a canonical sim scenario (the fig6 family)",
        ids.join(" ")
    )
}

fn run() -> Result<(), String> {
    let mut effort = Effort::Full;
    let mut out = PathBuf::from("results");
    let mut trace_dir: Option<PathBuf> = None;
    let mut ids: Vec<String> = Vec::new();
    let needs_dir = |flag: &str| format!("{flag} needs a directory\n{}", usage());

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" | "-q" => effort = Effort::Quick,
            "--out" | "-o" => out = args.next().ok_or_else(|| needs_dir("--out"))?.into(),
            "--trace" | "-t" => {
                trace_dir = Some(args.next().ok_or_else(|| needs_dir("--trace"))?.into());
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(());
            }
            _ => ids.push(a),
        }
    }
    let experiments =
        select(&ids).map_err(|unknown| format!("unknown argument {unknown:?}\n{}", usage()))?;

    for (id, experiment) in experiments {
        eprintln!(">> running {id} ({effort:?})");
        let res = experiment(effort);
        println!("{}", res.render());
        let mut files = res
            .write_to(&out)
            .map_err(|e| format!("failed writing results for {id}: {e}"))?;
        if let Some(dir) = &trace_dir {
            let trace = fig6::export_trace_for(id, effort, dir)
                .map_err(|e| format!("failed exporting trace for {id}: {e}"))?;
            files.extend(trace);
        }
        for f in files {
            eprintln!("   wrote {}", f.display());
        }
        if res.failed {
            return Err(format!("{id}: GATE FAILED (see report above)"));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    if let Err(msg) = run() {
        eprintln!("{msg}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
