//! The project lint engine: a token-level scanner over `crates/*/src`
//! enforcing repo-specific correctness conventions that `rustc` and
//! `clippy` cannot see.
//!
//! Rules (see [`RULES`]):
//!
//! * `sim-wall-clock` — `sfs-sim` is a deterministic simulator; the
//!   identifiers `Instant` and `SystemTime` must not appear in
//!   `crates/sim/src` (virtual time only).
//! * `rt-sleep` — `thread::sleep` is allowed only in the rt timer
//!   (every other blocking wait must go through a condvar so shutdown
//!   and watchdogs stay prompt); exemptions live in `lint.allow`.
//! * `hot-unwrap` — no `.unwrap()` on the executor/engine hot paths,
//!   and `.expect(` only with an adjacent `// invariant:` comment
//!   stating why the invariant holds.
//! * `rt-raw-mutex` — locks in `crates/rt/src` must be
//!   `OrderedMutex` (the raw `Mutex` identifier is banned) so every
//!   acquisition participates in the lock-rank discipline.
//! * `relaxed-justify` — every `Ordering::Relaxed` must carry a
//!   `// relaxed:` comment (same line or the line above) justifying
//!   why no ordering is needed.
//! * `task-hashmap` — per-task state in `crates/{core,rt,sim}/src` is
//!   keyed through `sfs_core::taskmap::TaskMap`; `HashMap<TaskId, _>` /
//!   `HashSet<TaskId>` put a SipHash on every scheduler event.
//! * `policy-own-queue` — in `crates/core/src` only `tagq.rs` (the
//!   tag-queue core) and `queues.rs` itself construct an `IndexedList`
//!   or a `KeyCounter`; a policy that builds its own run queue is
//!   re-growing the plumbing the core exists to hold once.
//!
//! The scanner strips strings and comments before matching, matches
//! identifiers exactly (`OrderedMutex` does not trip the `Mutex`
//! rule), and skips `#[cfg(test)]` regions by brace tracking. It is
//! deliberately token-level, not a parser: the conventions it enforces
//! are lexically visible, and the fixture self-tests in this module
//! prove each rule fires on a seeded violation.
//!
//! Suppressions are driven by `lint.allow` at the workspace root:
//! one `rule path # reason` entry per line, reason mandatory.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Lint rule identifiers with one-line descriptions.
pub const RULES: &[(&str, &str)] = &[
    (
        "sim-wall-clock",
        "no std::time::Instant / SystemTime in sfs-sim (virtual time only)",
    ),
    (
        "rt-sleep",
        "thread::sleep only in the rt timer (allowlisted); condvars elsewhere",
    ),
    (
        "hot-unwrap",
        "no .unwrap() on executor/engine hot paths; .expect( needs a // invariant: comment",
    ),
    (
        "rt-raw-mutex",
        "locks in crates/rt/src must be OrderedMutex, not raw Mutex",
    ),
    (
        "relaxed-justify",
        "every Ordering::Relaxed needs a // relaxed: justification comment",
    ),
    (
        "task-hashmap",
        "no HashMap<TaskId, _> / HashSet<TaskId> in core, rt or sim; use taskmap::TaskMap",
    ),
    (
        "policy-own-queue",
        "IndexedList::new / KeyCounter::new in sfs-core only in tagq.rs and queues.rs",
    ),
];

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier from [`RULES`].
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Parsed `lint.allow` suppression file.
#[derive(Debug, Default)]
pub struct Allowlist {
    entries: Vec<AllowEntry>,
}

#[derive(Debug)]
struct AllowEntry {
    rule: String,
    path: String,
}

impl Allowlist {
    /// Parses allowlist text: one `rule path # reason` per line; blank
    /// lines and lines starting with `#` are comments.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line when an entry is
    /// malformed, names an unknown rule, or omits its reason.
    pub fn parse(text: &str) -> Result<Allowlist, String> {
        let mut entries = Vec::new();
        for (no, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (body, reason) = match line.split_once('#') {
                Some((b, r)) => (b.trim(), r.trim()),
                None => return Err(format!("lint.allow:{}: entry needs a '# reason'", no + 1)),
            };
            if reason.is_empty() {
                return Err(format!("lint.allow:{}: empty reason", no + 1));
            }
            let mut parts = body.split_whitespace();
            let (rule, path) = match (parts.next(), parts.next(), parts.next()) {
                (Some(rule), Some(path), None) => (rule, path),
                _ => {
                    return Err(format!(
                        "lint.allow:{}: expected 'rule path # reason'",
                        no + 1
                    ))
                }
            };
            if !RULES.iter().any(|(id, _)| *id == rule) {
                return Err(format!("lint.allow:{}: unknown rule '{}'", no + 1, rule));
            }
            entries.push(AllowEntry {
                rule: rule.to_string(),
                path: path.to_string(),
            });
        }
        Ok(Allowlist { entries })
    }

    /// True when the finding is suppressed by an allowlist entry
    /// (exact rule match, path equal to or ending with the entry's).
    pub fn allows(&self, f: &Finding) -> bool {
        self.entries
            .iter()
            .any(|e| e.rule == f.rule && (f.path == e.path || f.path.ends_with(&e.path)))
    }
}

/// The outcome of a lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Violations not covered by the allowlist.
    pub findings: Vec<Finding>,
    /// Violations suppressed by `lint.allow` entries.
    pub suppressed: usize,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// True when no unsuppressed findings remain.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Runs every rule over `crates/*/src/**/*.rs` under `root`, applying
/// the `lint.allow` file at the workspace root if present.
///
/// # Errors
///
/// Returns a message on a malformed allowlist or an unreadable tree.
pub fn run(root: &Path) -> Result<LintReport, String> {
    let allow = match fs::read_to_string(root.join("lint.allow")) {
        Ok(text) => Allowlist::parse(&text)?,
        Err(_) => Allowlist::default(),
    };
    let mut files: Vec<PathBuf> = Vec::new();
    let crates = root.join("crates");
    let entries = fs::read_dir(&crates).map_err(|e| format!("read {}: {}", crates.display(), e))?;
    for entry in entries.flatten() {
        let src = entry.path().join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files)?;
        }
    }
    files.sort();
    let mut report = LintReport::default();
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let source =
            fs::read_to_string(file).map_err(|e| format!("read {}: {}", file.display(), e))?;
        report.files_scanned += 1;
        for finding in scan_source(&rel, &source) {
            if allow.allows(&finding) {
                report.suppressed += 1;
            } else {
                report.findings.push(finding);
            }
        }
    }
    Ok(report)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read {}: {}", dir.display(), e))?;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scans one file's source, returning all rule violations. Pure —
/// fixture self-tests feed synthetic sources through this directly.
pub fn scan_source(rel_path: &str, source: &str) -> Vec<Finding> {
    let is_sim = rel_path.contains("crates/sim/src");
    let is_rt = rel_path.contains("crates/rt/src");
    let is_core = rel_path.contains("crates/core/src");
    let keys_tasks = is_sim || is_rt || is_core;
    let owns_queues = rel_path.ends_with("/tagq.rs") || rel_path.ends_with("/queues.rs");
    let is_hot = rel_path.ends_with("crates/rt/src/executor.rs")
        || rel_path.ends_with("crates/sim/src/engine.rs")
        || rel_path == "crates/rt/src/executor.rs"
        || rel_path == "crates/sim/src/engine.rs";

    let mut findings = Vec::new();
    let mut in_block_comment = false;
    let mut depth: i32 = 0;
    let mut armed_test = false;
    let mut test_until: Option<i32> = None;
    let mut prev_raw = String::new();
    // Markers seen in the contiguous run of comment-only lines
    // directly above the current code line — a justification comment
    // may wrap over several lines.
    let mut block_invariant = false;
    let mut block_relaxed = false;

    for (idx, raw) in source.lines().enumerate() {
        let line_no = idx + 1;
        let code = strip_line(raw, &mut in_block_comment);
        let comment_only = raw.trim_start().starts_with("//");
        if comment_only {
            block_invariant |= raw.contains("// invariant:");
            block_relaxed |= raw.contains("// relaxed:");
        }
        if code.contains("cfg(test)") || code.contains("cfg(all(test") {
            armed_test = true;
        }
        let in_test = test_until.is_some();

        if !in_test {
            let mut push = |rule: &'static str, message: String| {
                findings.push(Finding {
                    rule,
                    path: rel_path.to_string(),
                    line: line_no,
                    message,
                });
            };
            if is_sim {
                for ident in ["Instant", "SystemTime"] {
                    if has_ident(&code, ident) {
                        push(
                            "sim-wall-clock",
                            format!("wall-clock type `{ident}` in the simulator"),
                        );
                    }
                }
            }
            if code.contains("thread::sleep") {
                push("rt-sleep", "thread::sleep outside the rt timer".to_string());
            }
            if is_hot {
                if code.contains(".unwrap(") {
                    push("hot-unwrap", ".unwrap() on a hot path".to_string());
                }
                if code.contains(".expect(")
                    && !raw.contains("// invariant:")
                    && !prev_raw.contains("// invariant:")
                    && !block_invariant
                {
                    push(
                        "hot-unwrap",
                        ".expect( on a hot path without a // invariant: comment".to_string(),
                    );
                }
            }
            if is_rt && has_ident(&code, "Mutex") {
                push(
                    "rt-raw-mutex",
                    "raw Mutex in crates/rt — use lockorder::OrderedMutex".to_string(),
                );
            }
            if keys_tasks {
                let dense: String = code.split_whitespace().collect();
                for ty in ["HashMap<TaskId", "HashSet<TaskId"] {
                    if dense.contains(ty) {
                        push(
                            "task-hashmap",
                            format!("`{ty}` hashes on every lookup — use taskmap::TaskMap"),
                        );
                    }
                }
                if is_core && !owns_queues {
                    for ctor in ["IndexedList::new", "KeyCounter::new"] {
                        if dense.contains(ctor) {
                            push(
                                "policy-own-queue",
                                format!(
                                    "`{ctor}` outside tagq.rs — state the policy as a TagPolicy"
                                ),
                            );
                        }
                    }
                }
            }
            if code.contains("::Relaxed")
                && !raw.contains("// relaxed:")
                && !prev_raw.contains("// relaxed:")
                && !block_relaxed
            {
                push(
                    "relaxed-justify",
                    "Ordering::Relaxed without a // relaxed: justification".to_string(),
                );
            }
        }

        for ch in code.chars() {
            match ch {
                '{' => {
                    if armed_test && test_until.is_none() {
                        test_until = Some(depth);
                        armed_test = false;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if test_until.is_some_and(|level| depth <= level) {
                        test_until = None;
                    }
                }
                _ => {}
            }
        }
        if !comment_only {
            // The comment block above justified (at most) this code
            // line; a fresh block must precede the next site.
            block_invariant = false;
            block_relaxed = false;
        }
        prev_raw = raw.to_string();
    }
    findings
}

/// Removes string literals, char literals, and comments from one line,
/// carrying block-comment state across lines. The result keeps only
/// code tokens, so rules never fire on prose.
fn strip_line(raw: &str, in_block_comment: &mut bool) -> String {
    let chars: Vec<char> = raw.chars().collect();
    let mut out = String::with_capacity(raw.len());
    let mut i = 0;
    while i < chars.len() {
        if *in_block_comment {
            if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                *in_block_comment = false;
                i += 2;
            } else {
                i += 1;
            }
            continue;
        }
        match chars[i] {
            '/' if chars.get(i + 1) == Some(&'/') => break, // line comment
            '/' if chars.get(i + 1) == Some(&'*') => {
                *in_block_comment = true;
                i += 2;
            }
            '"' => {
                // String literal: skip to the unescaped closing quote
                // (raw strings with embedded quotes are out of scope —
                // none exist in this workspace's source).
                i += 1;
                while i < chars.len() {
                    if chars[i] == '\\' {
                        i += 2;
                        continue;
                    }
                    if chars[i] == '"' {
                        i += 1;
                        break;
                    }
                    i += 1;
                }
                out.push_str("\"\"");
            }
            '\'' => {
                // Char literal ('x' or '\x') vs lifetime ('a in types):
                // treat as a literal only when a closing quote sits one
                // or two characters ahead.
                if chars.get(i + 1) == Some(&'\\') && chars.get(i + 3) == Some(&'\'') {
                    out.push_str("' '");
                    i += 4;
                } else if chars.get(i + 2) == Some(&'\'') {
                    out.push_str("' '");
                    i += 3;
                } else {
                    out.push('\'');
                    i += 1;
                }
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    out
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Exact-identifier search: `Mutex` matches `Mutex::new` but not
/// `OrderedMutex` or `MutexGuard`.
fn has_ident(code: &str, ident: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find(ident) {
        let at = start + pos;
        let before_ok = at == 0 || !code[..at].chars().next_back().is_some_and(is_ident_char);
        let after = at + ident.len();
        let after_ok = !code[after..].chars().next().is_some_and(is_ident_char);
        if before_ok && after_ok {
            return true;
        }
        start = after;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_fired(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn sim_wall_clock_fires_on_instant() {
        let src = "use std::time::Instant;\nfn f() { let t = Instant::now(); }\n";
        let f = scan_source("crates/sim/src/engine.rs", src);
        assert!(rules_fired(&f).contains(&"sim-wall-clock"), "{f:?}");
        // Same source outside sim: rule silent.
        let f = scan_source("crates/bench/src/scale.rs", src);
        assert!(!rules_fired(&f).contains(&"sim-wall-clock"));
    }

    #[test]
    fn rt_sleep_fires_anywhere() {
        let src = "fn f() { std::thread::sleep(d); }\n";
        let f = scan_source("crates/experiment/src/substrate.rs", src);
        assert!(rules_fired(&f).contains(&"rt-sleep"), "{f:?}");
    }

    #[test]
    fn hot_unwrap_fires_only_on_hot_paths() {
        let src = "fn f() { x.unwrap(); }\n";
        let f = scan_source("crates/rt/src/executor.rs", src);
        assert!(rules_fired(&f).contains(&"hot-unwrap"), "{f:?}");
        let f = scan_source("crates/rt/src/timer.rs", src);
        assert!(!rules_fired(&f).contains(&"hot-unwrap"));
    }

    #[test]
    fn hot_expect_requires_invariant_comment() {
        let bad = "fn f() { x.expect(\"boom\"); }\n";
        let f = scan_source("crates/sim/src/engine.rs", bad);
        assert!(rules_fired(&f).contains(&"hot-unwrap"), "{f:?}");
        let good = "// invariant: x was just inserted above\nfn f() { x.expect(\"boom\"); }\n";
        let f = scan_source("crates/sim/src/engine.rs", good);
        assert!(f.is_empty(), "{f:?}");
        let good_inline = "fn f() { x.expect(\"boom\"); } // invariant: checked\n";
        let f = scan_source("crates/sim/src/engine.rs", good_inline);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn rt_raw_mutex_fires_but_ordered_mutex_passes() {
        let bad = "use parking_lot::Mutex;\n";
        let f = scan_source("crates/rt/src/executor.rs", bad);
        assert!(rules_fired(&f).contains(&"rt-raw-mutex"), "{f:?}");
        let good = "use sfs_analyze::lockorder::OrderedMutex;\nfn f(m: &OrderedMutex<u32>) {}\n";
        let f = scan_source("crates/rt/src/executor.rs", good);
        assert!(f.is_empty(), "{f:?}");
        // MutexGuard is a type name, not a lock construction.
        let guard = "fn f(g: MutexGuard<u32>) {}\n";
        let f = scan_source("crates/rt/src/executor.rs", guard);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn relaxed_needs_justification() {
        let bad = "fn f() { x.load(Ordering::Relaxed); }\n";
        let f = scan_source("crates/core/src/shard.rs", bad);
        assert!(rules_fired(&f).contains(&"relaxed-justify"), "{f:?}");
        let good = "// relaxed: monotonic counter, read for stats only\nfn f() { x.load(Ordering::Relaxed); }\n";
        let f = scan_source("crates/core/src/shard.rs", good);
        assert!(f.is_empty(), "{f:?}");
        let inline = "fn f() { x.load(Ordering::Relaxed); } // relaxed: stats only\n";
        let f = scan_source("crates/core/src/shard.rs", inline);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn task_hashmap_fires_in_scheduler_crates_only() {
        let src = "struct S { tasks: HashMap< TaskId, Entry>, blocked: HashSet<TaskId> }\n";
        for path in [
            "crates/core/src/sfs.rs",
            "crates/rt/src/executor.rs",
            "crates/sim/src/engine.rs",
        ] {
            let f = scan_source(path, src);
            assert_eq!(rules_fired(&f), ["task-hashmap", "task-hashmap"], "{f:?}");
        }
        // Other crates may hash task ids (reports, fairness tables).
        let f = scan_source("crates/metrics/src/fairness.rs", src);
        assert!(f.is_empty(), "{f:?}");
        // Other keys, and test code, are not the rule's business.
        let other = "struct S { homes: HashMap<TenantId, usize> }\n#[cfg(test)]\nmod tests {\n    fn t() { let m: HashMap<TaskId, u64> = HashMap::new(); }\n}\n";
        let f = scan_source("crates/core/src/shard.rs", other);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn policy_own_queue_fires_outside_the_core() {
        let src = "fn new() -> S { S { q: IndexedList::new(Order::Ascending), k: KeyCounter :: new() } }\n";
        let f = scan_source("crates/core/src/wfq.rs", src);
        assert_eq!(
            rules_fired(&f),
            ["policy-own-queue", "policy-own-queue"],
            "{f:?}"
        );
        // The core and the queue module own the constructors; other
        // crates (benches, layer probes) may build bare queues.
        for path in [
            "crates/core/src/tagq.rs",
            "crates/core/src/queues.rs",
            "crates/bench/src/churn.rs",
        ] {
            let f = scan_source(path, src);
            assert!(f.is_empty(), "{path}: {f:?}");
        }
        let in_test = "#[cfg(test)]\nmod tests {\n    fn t() { let l = IndexedList::new(Order::Ascending); }\n}\n";
        let f = scan_source("crates/core/src/sfs.rs", in_test);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn multi_line_justification_comments_are_honoured() {
        // The marker line may sit several comment lines above the
        // site when the justification wraps.
        let wrapped = "// relaxed: monotonic progress beacon; the watchdog only\n// compares successive reads of the same counter.\nfn f() { x.fetch_add(1, Ordering::Relaxed); }\n";
        let f = scan_source("crates/core/src/shard.rs", wrapped);
        assert!(f.is_empty(), "{f:?}");
        let expect = "// invariant: ids come from this shard's own slots, and\n// task-map transfer happens under both locks.\nfn f() { m.get(&id).expect(\"unknown\"); }\n";
        let f = scan_source("crates/rt/src/executor.rs", expect);
        assert!(f.is_empty(), "{f:?}");
        // A code line consumes the block: the same comment does not
        // cover later sites.
        let stale = "// relaxed: only covers the next line\nlet a = x.load(Ordering::Relaxed);\nlet b = y.load(Ordering::Relaxed);\n";
        let f = scan_source("crates/core/src/shard.rs", stale);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn cfg_test_regions_are_skipped() {
        let src = "fn hot() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); let i = Instant::now(); }\n}\nfn after() { y.unwrap(); }\n";
        let f = scan_source("crates/sim/src/engine.rs", src);
        // Only the unwrap *after* the test mod fires.
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 6);
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = "fn f() { log(\"call .unwrap() on Mutex\"); }\n// thread::sleep is banned here\n/* Instant::now() in prose */\n";
        let f = scan_source("crates/rt/src/executor.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn allowlist_suppresses_exact_rule_and_path() {
        let allow =
            Allowlist::parse("rt-sleep crates/rt/src/timer.rs # timer needs a real sleep\n")
                .expect("well-formed allowlist");
        let hit = Finding {
            rule: "rt-sleep",
            path: "crates/rt/src/timer.rs".to_string(),
            line: 1,
            message: String::new(),
        };
        assert!(allow.allows(&hit));
        let other_file = Finding {
            path: "crates/rt/src/executor.rs".to_string(),
            ..hit.clone()
        };
        assert!(!allow.allows(&other_file));
        let other_rule = Finding {
            rule: "hot-unwrap",
            ..hit.clone()
        };
        assert!(!allow.allows(&other_rule));
    }

    #[test]
    fn allowlist_rejects_malformed_entries() {
        assert!(Allowlist::parse("rt-sleep crates/rt/src/timer.rs\n").is_err()); // no reason
        assert!(Allowlist::parse("rt-sleep crates/rt/src/timer.rs #   \n").is_err()); // empty reason
        assert!(Allowlist::parse("no-such-rule a.rs # why\n").is_err()); // unknown rule
        assert!(Allowlist::parse("# comment\n\n").is_ok());
    }

    #[test]
    fn seeded_mutation_is_caught_per_rule() {
        // One synthetic file per rule, each carrying the exact
        // mutation the rule exists to stop — the non-vacuousness
        // proof for the lint layer.
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
        for (rule, path, src) in mutations {
            let f = scan_source(path, src);
            assert!(
                f.iter().any(|x| x.rule == *rule),
                "rule {rule} did not fire on its mutation: {f:?}"
            );
        }
    }
}
