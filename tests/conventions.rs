//! The two comment conventions clippy cannot see (its bans live in the
//! `clippy.toml` files), over the lines of `crates/*/src` above each
//! file's first top-level `#[cfg(test)]`: every `::Relaxed` needs a
//! `// relaxed:` comment, and every `.expect(` in the rt executor or
//! the sim engine an `// invariant:` one, on the site's line or in the
//! comment lines (or the code line) directly above it.

use std::fs;
use std::path::Path;

const HOT: [&str; 2] = ["crates/rt/src/executor.rs", "crates/sim/src/engine.rs"];

/// The 1-based lines of `source` that break a convention; `hot` asks
/// `.expect(` for an `// invariant:` comment too.
fn violations(source: &str, hot: bool) -> Vec<usize> {
    let end = source.find("\n#[cfg(test)]").unwrap_or(source.len());
    let mut bad = Vec::new();
    let mut above = String::new();
    for (i, line) in source[..end].lines().enumerate() {
        if line.trim_start().starts_with("//") {
            above.push_str(line);
            continue;
        }
        let ok = |marker: &str| line.contains(marker) || above.contains(marker);
        if (line.contains("::Relaxed") && !ok("// relaxed:"))
            || (hot && line.contains(".expect(") && !ok("// invariant:"))
        {
            bad.push(i + 1);
        }
        above = line.to_string();
    }
    bad
}

/// Appends the violations of every `.rs` file under `dir`.
fn scan(root: &Path, dir: &Path, bad: &mut Vec<String>) {
    for entry in fs::read_dir(dir).expect("readable tree").flatten() {
        let path = entry.path();
        let rel = path.strip_prefix(root).expect("under the root");
        let rel = rel.to_string_lossy().replace('\\', "/");
        if path.is_dir() {
            scan(root, &path, bad);
        } else if rel.ends_with(".rs") {
            let source = fs::read_to_string(&path).expect("readable source");
            for line in violations(&source, HOT.contains(&rel.as_str())) {
                bad.push(format!("{rel}:{line}"));
            }
        }
    }
}

#[test]
fn crate_sources_follow_the_comment_conventions() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    assert!(HOT.iter().all(|hot| root.join(hot).is_file()));
    let mut bad = Vec::new();
    let crates = fs::read_dir(root.join("crates")).expect("crates/");
    for krate in crates.flatten() {
        scan(root, &krate.path().join("src"), &mut bad);
    }
    assert!(bad.is_empty(), "uncommented sites:\n{}", bad.join("\n"));
}

#[test]
fn each_convention_fires_on_a_seeded_violation() {
    let relaxed = "let a = x.load(Ordering::Relaxed);\n";
    assert_eq!(violations(relaxed, false), [1]);
    let why = "// relaxed: a monotonic beacon; the watchdog\n// compares reads.\n";
    assert_eq!(violations(&format!("{why}{relaxed}{relaxed}"), false), [4]);
    let expect = "let t = m.get(&id).expect(\"live\");\n";
    assert!(violations(expect, false).is_empty());
    assert_eq!(violations(expect, true), [1]);
    let why = "// invariant: id was just inserted\n";
    assert!(violations(&format!("{why}{expect}"), true).is_empty());
    let tests = format!("fn f() {{}}\n#[cfg(test)]\n{relaxed}{expect}");
    assert!(violations(&tests, true).is_empty());
}
