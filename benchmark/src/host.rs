//! Facts about the machine and the process: the host stamp every result
//! file carries, the core a child is pinned to, and peak memory.

use std::process::Command;

use sfs_trace::json::obj;
use sfs_trace::Json;

/// The stamp written into every result file.
#[derive(Debug, Clone, PartialEq)]
pub struct HostStamp {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// CPU model string from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version`, or "unknown".
    pub rustc: String,
    /// `git rev-parse HEAD` of the checkout, or "unknown".
    pub git_rev: String,
    /// 1-minute load average when the run began.
    pub loadavg: f64,
    /// The core children are pinned to; `None` means unpinned.
    pub pinned_core: Option<u32>,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (!text.is_empty()).then_some(text)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The 1-minute load average (0.0 where `/proc` has none).
pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|t| t.split_whitespace().next().and_then(|x| x.parse().ok()))
        .unwrap_or(0.0)
}

/// The last CPU this process may run on, from `Cpus_allowed_list` (so a
/// restricted cpuset is respected).
fn last_allowed_cpu() -> Option<u32> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    list.trim()
        .rsplit(',')
        .next()?
        .rsplit('-')
        .next()?
        .trim()
        .parse()
        .ok()
}

/// The core to pin children to: the last allowed CPU, if `taskset` is on
/// PATH and accepts it.
pub fn pin_target() -> Option<u32> {
    let core = last_allowed_cpu()?;
    let ok = Command::new("taskset")
        .args(["-c", &core.to_string(), "true"])
        .output()
        .is_ok_and(|o| o.status.success());
    ok.then_some(core)
}

impl HostStamp {
    /// Reads the stamp. `pinned_core` is where children will be pinned.
    pub fn read(pinned_core: Option<u32>) -> HostStamp {
        HostStamp {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model: cpu_model(),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            git_rev: command_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(|| "unknown".into()),
            loadavg: loadavg(),
            pinned_core,
        }
    }

    /// Whether timings taken on this host can be trusted to resolve a
    /// regression: pinned, and not already loaded when the run began.
    pub fn quiet(&self) -> bool {
        self.pinned_core.is_some() && self.loadavg <= 0.5 * self.nproc as f64
    }

    /// As result files carry it.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("nproc", Json::Int(self.nproc as i128)),
            ("cpu_model", Json::Str(self.cpu_model.clone())),
            ("rustc", Json::Str(self.rustc.clone())),
            ("git_rev", Json::Str(self.git_rev.clone())),
            ("loadavg", Json::Num(self.loadavg)),
            (
                "pinned_core",
                self.pinned_core
                    .map_or(Json::Null, |c| Json::Int(i128::from(c))),
            ),
            ("pinned", Json::Bool(self.pinned_core.is_some())),
        ])
    }

    /// Reads back [`HostStamp::to_json`].
    pub fn from_json(v: &Json) -> Option<HostStamp> {
        Some(HostStamp {
            nproc: v.get("nproc")?.as_u64()? as usize,
            cpu_model: v.get("cpu_model")?.as_str()?.to_string(),
            rustc: v.get("rustc")?.as_str()?.to_string(),
            git_rev: v.get("git_rev")?.as_str()?.to_string(),
            loadavg: v.get("loadavg")?.as_f64()?,
            pinned_core: v
                .get("pinned_core")
                .and_then(Json::as_u64)
                .map(|c| c as u32),
        })
    }
}

/// Peak resident set of this process in MB (`VmHWM`), or 0.0 where
/// `/proc` has none.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_round_trips_through_json() {
        let s = HostStamp {
            nproc: 2,
            cpu_model: "Some CPU @ 2.10GHz".into(),
            rustc: "rustc 1.95.0".into(),
            git_rev: "unknown".into(),
            loadavg: 0.25,
            pinned_core: Some(1),
        };
        let text = s.to_json().to_string();
        assert_eq!(HostStamp::from_json(&Json::parse(&text).unwrap()), Some(s));
        let unpinned = HostStamp {
            pinned_core: None,
            ..HostStamp::read(None)
        };
        let back = HostStamp::from_json(&Json::parse(&unpinned.to_json().to_string()).unwrap());
        assert_eq!(back.unwrap().pinned_core, None);
    }

    #[test]
    fn quiet_needs_pinning_and_low_load() {
        let mut s = HostStamp::read(Some(0));
        s.nproc = 2;
        s.loadavg = 0.4;
        assert!(s.quiet());
        s.loadavg = 1.5;
        assert!(!s.quiet());
        s.loadavg = 0.0;
        s.pinned_core = None;
        assert!(!s.quiet());
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
