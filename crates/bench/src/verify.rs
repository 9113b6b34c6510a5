//! `verify` — the concurrency-correctness gate.
//!
//! A **gate**, not a measurement: a failure sets [`ExpResult::failed`]
//! and the `repro` driver exits non-zero. It runs the bounded
//! interleaving checker (see `sfs_analyze::interleave`) over the three
//! concurrency models — epoch publish/read, steal-vs-exit on two
//! shards, watchdog-vs-timer heartbeat — exhaustively plus a seeded
//! random sweep, and proves each model's checker non-vacuous by
//! confirming the deliberately broken variant is caught.

use std::fmt::Write as _;

use sfs_analyze::interleave::{Explorer, Model, Report};
use sfs_analyze::models::{EpochPublish, StealVsExit, WatchdogHeartbeat};

use crate::common::{Effort, ExpResult};

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
