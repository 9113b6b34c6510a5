//! Shared plumbing for the experiment harnesses.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use sfs_core::policy::PolicySpec;
use sfs_core::time::Duration;

/// How much work to spend on an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Scaled-down runs for tests and CI smoke (seconds total).
    Quick,
    /// Paper-scale runs for the recorded results.
    Full,
}

impl Effort {
    /// Scales a full-effort duration down in quick mode.
    pub fn scale(self, full: Duration) -> Duration {
        match self {
            Effort::Full => full,
            Effort::Quick => (full / 8).max(Duration::from_millis(500)),
        }
    }

    /// Scales an iteration count down in quick mode.
    pub fn count(self, full: u64) -> u64 {
        match self {
            Effort::Full => full,
            Effort::Quick => (full / 8).max(1),
        }
    }

    /// The scheduling quantum for application scenarios: the paper's
    /// 200 ms test-bed quantum at full effort, scaled down with the run
    /// length in quick mode so tag dynamics keep the same shape.
    pub fn quantum(self) -> Duration {
        match self {
            Effort::Full => Duration::from_millis(200),
            Effort::Quick => Duration::from_millis(25),
        }
    }
}

/// The rendered outcome of one experiment.
#[derive(Debug, Clone, Default)]
pub struct ExpResult {
    /// Experiment id, e.g. `"fig5"`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// The full text report (charts + tables).
    pub text: String,
    /// CSV artefacts: (file name, contents).
    pub csv: Vec<(String, String)>,
    /// Key findings, as (metric, value) pairs, printed after the text.
    pub summary: Vec<(String, String)>,
    /// True when the experiment is a gate (`verify`) and its check
    /// failed — the `repro` driver exits non-zero so CI goes red.
    pub failed: bool,
}

impl ExpResult {
    /// Creates an empty result.
    pub fn new(id: &str, title: &str) -> ExpResult {
        ExpResult {
            id: id.to_string(),
            title: title.to_string(),
            ..ExpResult::default()
        }
    }

    /// Appends a section of text.
    pub fn section(&mut self, s: &str) {
        self.text.push_str(s);
        if !s.ends_with('\n') {
            self.text.push('\n');
        }
        self.text.push('\n');
    }

    /// Records a summary key/value.
    pub fn finding(&mut self, key: &str, value: String) {
        self.summary.push((key.to_string(), value));
    }

    /// The report as `repro` prints it and `<id>.txt` stores it: title,
    /// text, then the summary findings.
    pub fn render(&self) -> String {
        let mut full = format!("== {} — {} ==\n\n{}", self.id, self.title, self.text);
        if !self.summary.is_empty() {
            let _ = writeln!(full, "-- summary --");
            for (k, v) in &self.summary {
                let _ = writeln!(full, "{k}: {v}");
            }
        }
        full
    }

    /// Writes the report and CSVs under `dir`.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        fs::create_dir_all(dir)?;
        let mut written = Vec::new();
        let txt = dir.join(format!("{}.txt", self.id));
        fs::write(&txt, self.render())?;
        written.push(txt);
        for (name, content) in &self.csv {
            let p = dir.join(name);
            fs::write(&p, content)?;
            written.push(p);
        }
        Ok(written)
    }
}

/// The policy spec for one of the experiments' named configurations,
/// with a common quantum. These are the paper's §4 policy variants,
/// expressed through the `sfs-core` policy registry.
pub fn policy(kind: &str, quantum: Duration) -> PolicySpec {
    match kind {
        "sfs" => PolicySpec::sfs().with_quantum(quantum),
        "sfq" => PolicySpec::sfq().with_quantum(quantum),
        "sfq-readjust" => PolicySpec::sfq().with_quantum(quantum).with_readjustment(),
        "timeshare" => PolicySpec::time_sharing(),
        other => panic!("unknown scheduler kind {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effort_scaling() {
        let full = Duration::from_secs(40);
        assert_eq!(Effort::Full.scale(full), full);
        assert_eq!(Effort::Quick.scale(full), Duration::from_secs(5));
        assert_eq!(Effort::Quick.count(80), 10);
        assert_eq!(Effort::Quick.count(4), 1);
    }

    #[test]
    fn all_sched_kinds_construct() {
        for kind in ["sfs", "sfq", "sfq-readjust", "timeshare"] {
            let spec = policy(kind, Duration::from_millis(100));
            // Every named configuration round-trips through the string
            // form of the registry.
            let reparsed: PolicySpec = spec.to_string().parse().unwrap();
            assert_eq!(reparsed, spec, "{kind}");
            assert_eq!(spec.build(2).cpus(), 2, "{kind}");
        }
    }

    #[test]
    fn result_writes_files() {
        let mut r = ExpResult::new("t1", "demo");
        r.section("hello");
        r.finding("x", "1".into());
        r.csv.push(("t1_data.csv".into(), "a,b\n1,2\n".into()));
        let dir = std::env::temp_dir().join("sfs_exp_test");
        let files = r.write_to(&dir).unwrap();
        assert_eq!(files.len(), 2);
        let txt = fs::read_to_string(&files[0]).unwrap();
        assert!(txt.contains("hello"));
        assert!(txt.contains("x: 1"));
        assert!(files[1].ends_with("t1_data.csv"), "{:?}", files[1]);
        let _ = fs::remove_dir_all(&dir);
    }
}
