//! `lint` and `verify` — the concurrency-correctness gates.
//!
//! Both are **gates**, not measurements: a failure sets
//! [`ExpResult::failed`] and the `repro` driver exits non-zero.
//!
//! * `repro lint` runs the project lint engine (see
//!   `sfs_analyze::lint`) over `crates/*/src`, applying the workspace
//!   `lint.allow` (an entry whose file is gone fails the gate), and
//!   additionally proves each rule non-vacuous by feeding it a seeded
//!   mutation it must catch.
//! * `repro verify` runs the bounded interleaving checker (see
//!   `sfs_analyze::interleave`) over the three concurrency models —
//!   epoch publish/read, steal-vs-exit on two shards,
//!   watchdog-vs-timer heartbeat — exhaustively plus a seeded random
//!   sweep, and proves each model's checker non-vacuous by confirming
//!   the deliberately broken variant is caught.

use std::fmt::Write as _;
use std::path::Path;

use sfs_analyze::interleave::{Explorer, Model, Report};
use sfs_analyze::lint;
use sfs_analyze::models::{EpochPublish, StealVsExit, WatchdogHeartbeat};

use crate::common::{Effort, ExpResult};

/// The workspace root, resolved from this crate's manifest directory
/// (works from `cargo run`, `cargo test` and the installed binary run
/// from a checkout).
fn workspace_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// The `lint.allow` entries under `root` whose path no longer exists.
/// The engine only ever matches entries against findings, so an entry
/// that outlives the file it excused would otherwise go unnoticed.
fn stale_allow_entries(root: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(root.join("lint.allow")).unwrap_or_default();
    text.lines()
        .filter(|line| !line.trim_start().starts_with('#'))
        .filter_map(|line| line.split_whitespace().nth(1))
        .filter(|path| !root.join(path).exists())
        .map(str::to_string)
        .collect()
}

/// Lints the tree under `root` and fails `res` on any unsuppressed
/// finding or stale `lint.allow` entry.
fn lint_tree(root: &Path, res: &mut ExpResult) {
    match lint::run(root) {
        Ok(report) => {
            let stale = stale_allow_entries(root);
            let mut body = format!(
                "scanned {} files; {} finding(s), {} suppressed by lint.allow\n",
                report.files_scanned,
                report.findings.len(),
                report.suppressed
            );
            for f in &report.findings {
                let _ = writeln!(body, "  {f}");
            }
            for path in &stale {
                let _ = writeln!(body, "  lint.allow: stale entry, no such file: {path}");
            }
            res.section(&body);
            res.finding("files scanned", report.files_scanned.to_string());
            res.finding("findings", report.findings.len().to_string());
            res.finding("suppressed", report.suppressed.to_string());
            res.finding("stale allow entries", stale.len().to_string());
            res.failed |= !report.clean() || !stale.is_empty();
        }
        Err(e) => {
            res.section(&format!("lint run failed: {e}"));
            res.failed = true;
        }
    }
}

/// Runs the project lint engine as a gate.
pub fn run_lint(_effort: Effort) -> ExpResult {
    let mut res = ExpResult::new("lint", "Project lint engine: concurrency hygiene rules");

    let mut rules = String::from("rules:\n");
    for (id, desc) in lint::RULES {
        let _ = writeln!(rules, "  {id:<16} {desc}");
    }
    res.section(&rules);

    // Non-vacuousness first: every rule must catch its seeded
    // mutation, or a clean report over the real tree proves nothing.
    let mutations: &[(&str, &str, &str)] = &[
        (
            "sim-wall-clock",
            "crates/sim/src/clock.rs",
            "let t0 = std::time::SystemTime::now();\n",
        ),
        (
            "rt-sleep",
            "crates/core/src/shard.rs",
            "thread::sleep(Duration::from_millis(1));\n",
        ),
        (
            "hot-unwrap",
            "crates/rt/src/executor.rs",
            "let g = self.global.lock().unwrap();\n",
        ),
        (
            "rt-raw-mutex",
            "crates/rt/src/executor.rs",
            "let m: Mutex<u32> = Mutex::new(0);\n",
        ),
        (
            "relaxed-justify",
            "crates/rt/src/executor.rs",
            "self.epoch.store(e, Ordering::Relaxed);\n",
        ),
        (
            "task-hashmap",
            "crates/core/src/sfs.rs",
            "tasks: HashMap<TaskId, Entry>,\n",
        ),
        (
            "policy-own-queue",
            "crates/core/src/stride.rs",
            "pass_q: IndexedList::new(Order::Ascending),\n",
        ),
    ];
    let mut caught = 0usize;
    let mut mut_text = String::from("seeded mutations (each rule must fire on its own):\n");
    for (rule, path, src) in mutations {
        let hit = lint::scan_source(path, src).iter().any(|f| f.rule == *rule);
        caught += usize::from(hit);
        res.failed |= !hit;
        let _ = writeln!(
            mut_text,
            "  {rule:<16} {}",
            if hit { "caught" } else { "MISSED" }
        );
    }
    res.section(&mut_text);
    res.finding("mutations caught", format!("{caught}/{}", mutations.len()));

    lint_tree(workspace_root(), &mut res);
    res.finding("gate", if res.failed { "FAIL" } else { "pass" }.to_string());
    res
}

/// The three executor models, correct or carrying their seeded bug.
fn models(broken: bool) -> [(&'static str, Box<dyn Model>); 3] {
    [
        ("epoch-publish", Box::new(EpochPublish::new(broken))),
        ("steal-vs-exit", Box::new(StealVsExit::new(broken))),
        (
            "watchdog-heartbeat",
            Box::new(WatchdogHeartbeat::new(broken)),
        ),
    ]
}

/// Appends one model's exploration line to `body`; true when the
/// exploration came out as expected.
fn describe(body: &mut String, name: &str, report: &Report, expect_clean: bool) -> bool {
    let ok = report.clean() == expect_clean;
    let _ = writeln!(
        body,
        "  {name:<28} {:>7} schedules ({}) — {}",
        report.schedules,
        if report.complete {
            "exhaustive"
        } else {
            "budget-capped"
        },
        match (expect_clean, ok) {
            (true, true) => "clean".to_string(),
            (true, false) => format!("VIOLATION: {}", report.violations[0].message),
            (false, true) => format!("caught: {}", report.violations[0].message),
            (false, false) => "MUTATION MISSED".to_string(),
        }
    );
    ok
}

/// Runs the bounded interleaving checker as a gate.
pub fn run_verify(effort: Effort) -> ExpResult {
    let mut res = ExpResult::new(
        "verify",
        "Bounded interleaving checker: exhaustive + sampled model exploration",
    );
    let explorer = Explorer::default();
    let samples = effort.count(4_000) as usize;

    let mut total = 0usize;
    let mut body = String::from("exhaustive DFS over each model:\n");
    for ((name, mut correct), (_, mut broken)) in models(false).into_iter().zip(models(true)) {
        let clean = explorer.explore(correct.as_mut());
        total += clean.schedules;
        res.failed |= !describe(&mut body, name, &clean, true);
        res.finding(
            &format!("{name} schedules"),
            format!(
                "{}{}",
                clean.schedules,
                if clean.complete { " (exhaustive)" } else { "" }
            ),
        );
        let seeded = explorer.explore(broken.as_mut());
        res.failed |= !describe(&mut body, &format!("{name} [broken]"), &seeded, false);
    }
    res.section(&body);

    // A seeded random sweep on top: different coverage shape, same
    // invariants, deterministic per seed.
    let mut sampled = String::from("seeded random sweep (xorshift64*, seed 0xC0FFEE):\n");
    for (name, mut model) in models(false) {
        let rep = explorer.sample(model.as_mut(), 0xC0_FFEE, samples);
        total += rep.schedules;
        res.failed |= !describe(&mut sampled, name, &rep, true);
    }
    res.section(&sampled);

    res.finding("total schedules", total.to_string());
    res.finding(
        "schedule floor (>= 10^4)",
        if total >= 10_000 { "met" } else { "MISSED" }.to_string(),
    );
    res.failed |= total < 10_000;
    res.finding("gate", if res.failed { "FAIL" } else { "pass" }.to_string());
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_gate_is_clean_on_this_tree() {
        let res = run_lint(Effort::Quick);
        assert!(
            !res.failed,
            "lint gate must pass on the checked-in tree:\n{}",
            res.text
        );
    }

    #[test]
    fn stale_allow_entry_fails_the_gate() {
        // A fixture tree with one clean source file: an entry naming it
        // passes, the same entry naming a file that is gone must fail.
        let root = std::env::temp_dir().join("sfs_stale_allow_test");
        let src = root.join("crates/x/src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(src.join("lib.rs"), "pub fn f() {}\n").unwrap();
        let gate = |path: &str| {
            let entry = format!("# fixture\nrt-sleep {path} # a reason\n");
            std::fs::write(root.join("lint.allow"), entry).unwrap();
            let mut res = ExpResult::new("lint", "fixture");
            lint_tree(&root, &mut res);
            res
        };
        let live = gate("crates/x/src/lib.rs");
        assert!(!live.failed, "{}", live.text);
        let stale = gate("crates/x/src/gone.rs");
        assert!(stale.failed, "stale entry slipped through:\n{}", stale.text);
        assert!(stale.text.contains("src/gone.rs"), "{}", stale.text);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn verify_gate_passes_and_meets_the_schedule_floor() {
        let res = run_verify(Effort::Quick);
        assert!(!res.failed, "verify gate must pass:\n{}", res.text);
        let total: usize = res
            .summary
            .iter()
            .find(|(k, _)| k == "total schedules")
            .and_then(|(_, v)| v.parse().ok())
            .unwrap();
        assert!(total >= 10_000, "schedule floor: {total}");
    }
}
