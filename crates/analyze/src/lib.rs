//! `fastiov-analyze`: the workspace lint pass.
//!
//! Four repo-wide rules, enforced by `cargo run -p fastiov-analyze` (CI
//! lint gate) and by this crate's own tests:
//!
//! - **raw-lock** — no raw `parking_lot`/`std::sync` lock construction
//!   (`Mutex::new`, `RwLock::new`, `Condvar::new`) outside the
//!   instrumented `TrackedMutex`/`TrackedRwLock`/`TrackedCondvar`
//!   wrappers in `crates/simtime`. Every production lock must declare a
//!   `LockClass` so the lockdep witness sees it. Test code is exempt.
//! - **wall-clock** — no `std::time::Instant`/`SystemTime` outside
//!   `crates/simtime`; real-time measurement goes through
//!   `WallStopwatch`, simulated time through `Clock`. Applies to test
//!   code too (mixed clocks in tests is how the pre-PR-4 flakes
//!   happened).
//! - **unwrap-expect** — no `.unwrap()`, and no `.expect(...)` whose
//!   message does not start with `"invariant:"`, in the six hot-path
//!   crates (`vfio`, `fastiovd`, `iommu`, `hostmem`, `nic`, `engine`)
//!   outside test code. Remaining sites are budgeted per file by
//!   `crates/analyze/allowlist.txt`; the budget must match exactly, so
//!   it can only ever shrink.
//! - **sim-thread** — no `std::thread::spawn`/`scope`, `thread::sleep`
//!   or `crossbeam::channel` outside `crates/simtime`: simulation threads
//!   start with `fastiov_simtime::spawn`, sleep on their `Clock` and talk
//!   over `fastiov_simtime::channel`, so that every blocking point is one
//!   the virtual clock's executor schedules. Test code and the frozen
//!   `benchmark/` crate are exempt.
//!
//! An intentional exception is annotated at the violating line (or the
//! line above) as `// analyze: allow(<rule>): <reason>` — the reason is
//! mandatory and malformed annotations are themselves errors.
//!
//! The pass is deliberately dependency-free: the workspace vendors no
//! `syn`, so this is a hand-rolled scanner. It first *masks* each source
//! file — comments and string/char-literal bodies blanked, line
//! structure preserved — then runs line rules over the masked text with
//! a brace-depth tracker that skips `#[cfg(test)]` / `#[test]` items.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// The four enforced rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Raw lock construction outside the instrumented wrappers.
    RawLock,
    /// `std::time::Instant`/`SystemTime` outside `crates/simtime`.
    WallClock,
    /// `.unwrap()` / undocumented `.expect()` in a hot-path crate.
    UnwrapExpect,
    /// An OS thread, OS sleep or crossbeam channel outside `simtime`.
    SimThread,
}

impl Rule {
    /// The rule's name, as used in `allow(...)` annotations.
    pub fn name(self) -> &'static str {
        match self {
            Rule::RawLock => "raw-lock",
            Rule::WallClock => "wall-clock",
            Rule::UnwrapExpect => "unwrap-expect",
            Rule::SimThread => "sim-thread",
        }
    }

    fn from_name(name: &str) -> Option<Rule> {
        match name {
            "raw-lock" => Some(Rule::RawLock),
            "wall-clock" => Some(Rule::WallClock),
            "unwrap-expect" => Some(Rule::UnwrapExpect),
            "sim-thread" => Some(Rule::SimThread),
            _ => None,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One rule violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which rule fired.
    pub rule: Rule,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.snippet
        )
    }
}

/// Result of analysing a workspace tree.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Hard violations (raw-lock, wall-clock, sim-thread, malformed
    /// annotations).
    pub violations: Vec<Violation>,
    /// unwrap-expect sites per file (budgeted by the allowlist rather
    /// than individually fatal).
    pub unwrap_counts: BTreeMap<String, usize>,
    /// unwrap-expect violations, for reporting.
    pub unwrap_sites: Vec<Violation>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

/// Hot-path crates covered by the unwrap-expect rule.
pub const HOT_CRATES: [&str; 6] = ["vfio", "fastiovd", "iommu", "hostmem", "nic", "engine"];

/// Calls that block outside the simulation's executor.
const SIM_THREAD_NEEDLES: [&str; 4] = [
    "thread::spawn",
    "thread::scope",
    "thread::sleep",
    "crossbeam::channel",
];

/// Masks comments, string literals and char literals in Rust source:
/// their bytes become spaces, newlines survive, everything else is
/// untouched. Handles nested block comments, escapes, raw strings and
/// lifetimes (`'a` is not a char literal).
pub fn mask_source(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(bytes.len());
    let mut i = 0;
    let blank = |b: u8| if b == b'\n' { b'\n' } else { b' ' };
    while i < bytes.len() {
        let b = bytes[i];
        // Line comment.
        if b == b'/' && bytes.get(i + 1) == Some(&b'/') {
            while i < bytes.len() && bytes[i] != b'\n' {
                out.push(b' ');
                i += 1;
            }
            continue;
        }
        // Block comment (nesting).
        if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
            let mut depth = 0usize;
            while i < bytes.len() {
                if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    depth += 1;
                    out.push(b' ');
                    out.push(b' ');
                    i += 2;
                } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    depth -= 1;
                    out.push(b' ');
                    out.push(b' ');
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    out.push(blank(bytes[i]));
                    i += 1;
                }
            }
            continue;
        }
        // Raw string (optionally byte): r"...", r#"..."#, br"...".
        let raw_start = if b == b'r' && !prev_is_ident(&out) {
            Some(i + 1)
        } else if b == b'b' && bytes.get(i + 1) == Some(&b'r') && !prev_is_ident(&out) {
            Some(i + 2)
        } else {
            None
        };
        if let Some(mut j) = raw_start {
            let mut hashes = 0;
            while bytes.get(j) == Some(&b'#') {
                hashes += 1;
                j += 1;
            }
            if bytes.get(j) == Some(&b'"') {
                // Emit the prefix as spaces, then scan to `"` + hashes `#`.
                out.extend(std::iter::repeat_n(b' ', j - i + 1));
                i = j + 1;
                'raw: while i < bytes.len() {
                    if bytes[i] == b'"' {
                        let mut k = 0;
                        while k < hashes && bytes.get(i + 1 + k) == Some(&b'#') {
                            k += 1;
                        }
                        if k == hashes {
                            out.extend(std::iter::repeat_n(b' ', hashes + 1));
                            i += 1 + hashes;
                            break 'raw;
                        }
                    }
                    out.push(blank(bytes[i]));
                    i += 1;
                }
                continue;
            }
        }
        // Plain string (optionally byte).
        if b == b'"' || (b == b'b' && bytes.get(i + 1) == Some(&b'"') && !prev_is_ident(&out)) {
            if b == b'b' {
                out.push(b' ');
                i += 1;
            }
            out.push(b' ');
            i += 1;
            while i < bytes.len() {
                if bytes[i] == b'\\' && i + 1 < bytes.len() {
                    out.push(b' ');
                    out.push(blank(bytes[i + 1]));
                    i += 2;
                    continue;
                }
                let end = bytes[i] == b'"';
                out.push(blank(bytes[i]));
                i += 1;
                if end {
                    break;
                }
            }
            continue;
        }
        // Char literal vs lifetime.
        if b == b'\'' {
            let is_char = match bytes.get(i + 1) {
                Some(b'\\') => true,
                Some(_) => {
                    // 'x' is a char; 'x followed by anything else is a
                    // lifetime. Multibyte chars: find the next ' within
                    // 5 bytes.
                    bytes[i + 1..].iter().take(5).any(|&c| c == b'\'')
                }
                None => false,
            };
            if is_char {
                out.push(b' ');
                i += 1;
                while i < bytes.len() {
                    if bytes[i] == b'\\' && i + 1 < bytes.len() {
                        out.push(b' ');
                        out.push(blank(bytes[i + 1]));
                        i += 2;
                        continue;
                    }
                    let end = bytes[i] == b'\'';
                    out.push(blank(bytes[i]));
                    i += 1;
                    if end {
                        break;
                    }
                }
                continue;
            }
        }
        out.push(b);
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn prev_is_ident(out: &[u8]) -> bool {
    out.last()
        .is_some_and(|&c| c.is_ascii_alphanumeric() || c == b'_')
}

/// Does `needle` occur in `line` with a non-identifier character (or line
/// start) immediately before it? Catches `Mutex::new` without flagging
/// `TrackedMutex::new`, and `Instant` without flagging `SimInstant`.
pub fn ident_bounded(line: &str, needle: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = line[from..].find(needle) {
        let at = from + pos;
        let before_ok = at == 0
            || !line[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
        if before_ok {
            return true;
        }
        from = at + needle.len();
    }
    false
}

/// What rules apply to a file, derived from its workspace-relative path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileRules {
    /// raw-lock applies (production code outside simtime).
    pub raw_lock: bool,
    /// wall-clock applies (everything outside simtime).
    pub wall_clock: bool,
    /// unwrap-expect applies (hot-path crate src).
    pub unwrap_expect: bool,
    /// sim-thread applies (production code in this workspace).
    pub sim_thread: bool,
}

/// Classifies `rel` (workspace-relative, `/`-separated). Returns `None`
/// for files the pass skips entirely.
pub fn classify(rel: &str) -> Option<FileRules> {
    if rel.starts_with("shims/")
        || rel.starts_with("crates/analyze/")
        || rel.starts_with("target/")
        || rel.contains("/target/")
    {
        return None;
    }
    if rel.starts_with("crates/simtime/") {
        // The sanctioned home of both the wrappers and the wall clock.
        return None;
    }
    // Integration tests and benches: lock discipline is about production
    // locks, but the wall-clock rule still applies (mixed clocks in tests
    // caused the pre-PR-4 flakes).
    let is_test_tree = rel.starts_with("tests/") || rel.contains("/benches/");
    let hot = HOT_CRATES
        .iter()
        .any(|c| rel.starts_with(&format!("crates/{c}/src/")));
    Some(FileRules {
        raw_lock: !is_test_tree,
        wall_clock: true,
        unwrap_expect: hot && !is_test_tree,
        // The benchmark drives the simulator from its own threads until
        // it moves onto the engine's concurrent calls.
        sim_thread: !is_test_tree && !rel.starts_with("benchmark/"),
    })
}

/// Does original line `line` (or the line above it) carry a well-formed
/// `// analyze: allow(<rule>): reason` annotation for `rule`?
fn allowed(original: &[&str], idx: usize, rule: Rule) -> bool {
    let here = annotation_on(original[idx]);
    let above = if idx > 0 {
        annotation_on(original[idx - 1])
    } else {
        None
    };
    [here, above]
        .into_iter()
        .flatten()
        .flatten()
        .any(|(r, _reason)| r == rule)
}

/// Parses an `// analyze: allow(rule): reason` annotation on a line.
/// `None` if the line has no annotation; `Some(Err(msg))` if malformed.
#[allow(clippy::type_complexity)]
fn annotation_on(line: &str) -> Option<Result<(Rule, String), String>> {
    let marker = "// analyze: allow(";
    let pos = line.find(marker)?;
    let rest = &line[pos + marker.len()..];
    let Some(close) = rest.find(')') else {
        return Some(Err("unclosed allow(...)".into()));
    };
    let rule_name = &rest[..close];
    let Some(rule) = Rule::from_name(rule_name) else {
        return Some(Err(format!(
            "unknown rule {rule_name:?} \
             (expected raw-lock, wall-clock, unwrap-expect or sim-thread)"
        )));
    };
    let tail = rest[close + 1..].trim_start();
    let Some(reason) = tail.strip_prefix(':') else {
        return Some(Err(format!(
            "allow({rule_name}) needs a reason: `// analyze: allow({rule_name}): why`"
        )));
    };
    let reason = reason.trim();
    if reason.is_empty() {
        return Some(Err(format!("allow({rule_name}) has an empty reason")));
    }
    Some(Ok((rule, reason.to_string())))
}

/// Scans one file's source, appending findings to `analysis`.
pub fn scan_source(rel: &str, src: &str, rules: FileRules, analysis: &mut Analysis) {
    let masked = mask_source(src);
    let original: Vec<&str> = src.lines().collect();
    let masked_lines: Vec<&str> = masked.lines().collect();

    // Validate every annotation in the file, wherever it sits.
    for (i, line) in original.iter().enumerate() {
        if let Some(Err(msg)) = annotation_on(line) {
            analysis.violations.push(Violation {
                rule: Rule::RawLock, // reported under the generic banner below
                file: rel.to_string(),
                line: i + 1,
                snippet: format!("malformed annotation: {msg}"),
            });
        }
    }

    // Brace-depth tracker for #[cfg(test)] / #[test] item skipping.
    let mut depth: i64 = 0;
    let mut armed = false;
    let mut skip_from: Option<i64> = None;

    for (i, mline) in masked_lines.iter().enumerate() {
        let in_test_at_line_start = skip_from.is_some();
        let trimmed = mline.trim_start();
        if skip_from.is_none()
            && (trimmed.contains("#[cfg(test)]")
                || trimmed.starts_with("#[test]")
                || trimmed.contains("#[cfg(all(test"))
        {
            armed = true;
        }
        for c in mline.chars() {
            match c {
                '{' => {
                    if armed {
                        skip_from = Some(depth);
                        armed = false;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if skip_from.is_some_and(|d| depth <= d) {
                        skip_from = None;
                    }
                }
                _ => {}
            }
        }
        let in_test = in_test_at_line_start || skip_from.is_some() || armed;

        if rules.raw_lock && !in_test {
            for needle in ["Mutex::new", "RwLock::new", "Condvar::new"] {
                if ident_bounded(mline, needle) && !allowed(&original, i, Rule::RawLock) {
                    analysis.violations.push(Violation {
                        rule: Rule::RawLock,
                        file: rel.to_string(),
                        line: i + 1,
                        snippet: original[i].trim().to_string(),
                    });
                    break;
                }
            }
        }

        if rules.wall_clock
            && (ident_bounded(mline, "Instant") || ident_bounded(mline, "SystemTime"))
            && !allowed(&original, i, Rule::WallClock)
        {
            analysis.violations.push(Violation {
                rule: Rule::WallClock,
                file: rel.to_string(),
                line: i + 1,
                snippet: original[i].trim().to_string(),
            });
        }

        if rules.sim_thread
            && !in_test
            && SIM_THREAD_NEEDLES.iter().any(|n| ident_bounded(mline, n))
            && !allowed(&original, i, Rule::SimThread)
        {
            analysis.violations.push(Violation {
                rule: Rule::SimThread,
                file: rel.to_string(),
                line: i + 1,
                snippet: original[i].trim().to_string(),
            });
        }

        if rules.unwrap_expect && !in_test {
            let mut hit = mline.contains(".unwrap()");
            if !hit {
                // .expect("invariant: ...") is the documented form; check
                // the literal in the ORIGINAL line (masking blanked it).
                let mut from = 0;
                while let Some(pos) = mline[from..].find(".expect(") {
                    let at = from + pos + ".expect(".len();
                    let arg = original[i].get(at..).unwrap_or("").trim_start();
                    if !arg.starts_with("\"invariant:") {
                        hit = true;
                        break;
                    }
                    from = at;
                }
            }
            if hit && !allowed(&original, i, Rule::UnwrapExpect) {
                let v = Violation {
                    rule: Rule::UnwrapExpect,
                    file: rel.to_string(),
                    line: i + 1,
                    snippet: original[i].trim().to_string(),
                };
                *analysis.unwrap_counts.entry(rel.to_string()).or_insert(0) += 1;
                analysis.unwrap_sites.push(v);
            }
        }
    }
}

/// Recursively collects `.rs` files under `root`, returning
/// workspace-relative `/`-separated paths.
pub fn collect_rs_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// Runs the full pass over the workspace at `root`.
pub fn analyze_workspace(root: &Path) -> Analysis {
    let mut analysis = Analysis::default();
    for path in collect_rs_files(root) {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let Some(rules) = classify(&rel) else {
            continue;
        };
        let Ok(src) = std::fs::read_to_string(&path) else {
            continue;
        };
        analysis.files_scanned += 1;
        scan_source(&rel, &src, rules, &mut analysis);
    }
    analysis
}

/// Parses `allowlist.txt`: `path count` per line, `#` comments.
pub fn parse_allowlist(text: &str) -> Result<BTreeMap<String, usize>, String> {
    let mut map = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(path), Some(count), None) = (parts.next(), parts.next(), parts.next()) else {
            return Err(format!("allowlist line {}: expected `path count`", i + 1));
        };
        let count: usize = count
            .parse()
            .map_err(|_| format!("allowlist line {}: bad count {count:?}", i + 1))?;
        if map.insert(path.to_string(), count).is_some() {
            return Err(format!("allowlist line {}: duplicate entry {path}", i + 1));
        }
    }
    Ok(map)
}

/// Checks unwrap-expect counts against the allowlist. The budget must
/// match *exactly*: a new site fails (the list never grows), and a
/// removed site fails until the budget is lowered (the list must
/// shrink).
pub fn check_allowlist(
    counts: &BTreeMap<String, usize>,
    allow: &BTreeMap<String, usize>,
) -> Vec<String> {
    let mut errors = Vec::new();
    for (file, &n) in counts {
        let budget = allow.get(file).copied().unwrap_or(0);
        if n > budget {
            errors.push(format!(
                "{file}: {n} unwrap/expect sites, allowlist budget is {budget} — \
                 convert the new sites to typed errors or `expect(\"invariant: ...\")`"
            ));
        }
    }
    for (file, &budget) in allow {
        let n = counts.get(file).copied().unwrap_or(0);
        if n < budget {
            errors.push(format!(
                "{file}: allowlist budget {budget} but only {n} sites remain — \
                 shrink the entry in crates/analyze/allowlist.txt"
            ));
        }
    }
    errors
}

/// Total budget across the allowlist (asserted by tests to never grow).
pub fn allowlist_total(allow: &BTreeMap<String, usize>) -> usize {
    allow.values().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_all() -> FileRules {
        FileRules {
            raw_lock: true,
            wall_clock: true,
            unwrap_expect: true,
            sim_thread: true,
        }
    }

    fn scan(rel: &str, src: &str, rules: FileRules) -> Analysis {
        let mut a = Analysis::default();
        scan_source(rel, src, rules, &mut a);
        a
    }

    #[test]
    fn masking_blanks_comments_and_strings() {
        let src = "let a = \"Mutex::new\"; // Mutex::new\nlet b = 1; /* Instant */\n";
        let m = mask_source(src);
        assert!(!m.contains("Mutex"));
        assert!(!m.contains("Instant"));
        assert_eq!(m.lines().count(), src.lines().count());
    }

    #[test]
    fn masking_handles_raw_strings_and_chars() {
        let src = "let s = r#\"Mutex::new \"quoted\" \"#; let c = '\"'; let x = Instant::now();";
        let m = mask_source(src);
        assert!(!m.contains("Mutex"));
        assert!(m.contains("Instant::now"), "{m}");
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }\nlet m = Mutex::new(());";
        let m = mask_source(src);
        assert!(m.contains("Mutex::new"), "{m}");
    }

    #[test]
    fn tracked_wrappers_do_not_trip_raw_lock() {
        let a = scan(
            "crates/x/src/lib.rs",
            "let m = TrackedMutex::new(LockClass::Test, ());\nlet r = TrackedRwLock::new(LockClass::Test, ());",
            rules_all(),
        );
        assert!(a.violations.is_empty(), "{:?}", a.violations);
    }

    #[test]
    fn raw_lock_flagged_and_annotable() {
        let a = scan(
            "crates/x/src/lib.rs",
            "let m = Mutex::new(());",
            rules_all(),
        );
        assert_eq!(a.violations.len(), 1);
        let a = scan(
            "crates/x/src/lib.rs",
            "// analyze: allow(raw-lock): internal to the wrapper itself\nlet m = Mutex::new(());",
            rules_all(),
        );
        assert!(a.violations.is_empty(), "{:?}", a.violations);
    }

    #[test]
    fn sim_instant_does_not_trip_wall_clock() {
        let a = scan(
            "crates/x/src/lib.rs",
            "let t: SimInstant = clock.now();",
            rules_all(),
        );
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        let a = scan(
            "crates/x/src/lib.rs",
            "let t = std::time::Instant::now();",
            rules_all(),
        );
        assert_eq!(a.violations.len(), 1);
        assert_eq!(a.violations[0].rule, Rule::WallClock);
    }

    #[test]
    fn cfg_test_regions_are_skipped_for_unwrap_but_not_wall_clock() {
        let src = "\
fn hot() {
    let v = compute();
}
#[cfg(test)]
mod tests {
    fn t() {
        let v = compute().unwrap();
        let t0 = Instant::now();
    }
}
";
        let a = scan("crates/vfio/src/lib.rs", src, rules_all());
        assert!(a.unwrap_sites.is_empty(), "{:?}", a.unwrap_sites);
        assert_eq!(a.violations.len(), 1, "{:?}", a.violations);
        assert_eq!(a.violations[0].rule, Rule::WallClock);
    }

    #[test]
    fn unwrap_and_bare_expect_flagged_invariant_expect_allowed() {
        let src = "\
fn f() {
    a.unwrap();
    b.expect(\"boom\");
    c.expect(\"invariant: shard index in range\");
}
";
        let a = scan("crates/vfio/src/lib.rs", src, rules_all());
        assert_eq!(a.unwrap_sites.len(), 2, "{:?}", a.unwrap_sites);
        assert_eq!(a.unwrap_counts["crates/vfio/src/lib.rs"], 2);
    }

    #[test]
    fn malformed_annotations_are_errors() {
        for bad in [
            "// analyze: allow(raw-lock)",
            "// analyze: allow(raw-lock):",
            "// analyze: allow(no-such-rule): reason",
        ] {
            let a = scan("crates/x/src/lib.rs", bad, rules_all());
            assert_eq!(a.violations.len(), 1, "{bad}");
            assert!(a.violations[0].snippet.contains("annotation"), "{bad}");
        }
    }

    #[test]
    fn classify_skips_shims_simtime_and_analyze() {
        assert!(classify("shims/parking_lot/src/lib.rs").is_none());
        assert!(classify("crates/simtime/src/lockdep.rs").is_none());
        assert!(classify("crates/analyze/src/lib.rs").is_none());
        let t = classify("tests/end_to_end.rs").unwrap();
        assert!(!t.raw_lock && t.wall_clock && !t.unwrap_expect);
        let hot = classify("crates/vfio/src/devset.rs").unwrap();
        assert!(hot.raw_lock && hot.wall_clock && hot.unwrap_expect);
        let cold = classify("crates/pool/src/pool.rs").unwrap();
        assert!(cold.raw_lock && cold.wall_clock && !cold.unwrap_expect);
    }

    #[test]
    fn sim_thread_flags_os_threads_outside_the_executor() {
        let src = "\
use crossbeam::channel::unbounded;
fn launch(clock: &Clock) {
    let a = std::thread::spawn(|| work());
    thread::scope(|s| { s.spawn(|| work()); });
    std::thread::sleep(d);
    let b = fastiov_simtime::spawn(clock, \"pod-0\", || work());
    clock.sleep(d);
}
#[cfg(test)]
mod tests {
    fn t() {
        std::thread::spawn(|| ()).join().unwrap();
    }
}
";
        let pool = "crates/pool/src/pool.rs";
        let a = scan(pool, src, classify(pool).unwrap());
        let lines: Vec<usize> = a.violations.iter().map(|v| v.line).collect();
        assert_eq!(lines, [1, 3, 4, 5], "{:?}", a.violations);
        assert!(a.violations.iter().all(|v| v.rule == Rule::SimThread));
        let annotated = "// analyze: allow(sim-thread): a helper outside every clock\n\
                         std::thread::spawn(|| ());";
        assert!(scan(pool, annotated, classify(pool).unwrap())
            .violations
            .is_empty());
        for exempt in [
            "tests/host.rs",
            "crates/bench/benches/dma_map.rs",
            "benchmark/src/workload.rs",
        ] {
            assert!(!classify(exempt).unwrap().sim_thread, "{exempt}");
        }
        assert!(classify("crates/simtime/src/exec.rs").is_none());
        assert!(classify("examples/quickstart.rs").unwrap().sim_thread);
    }

    #[test]
    fn allowlist_must_match_exactly() {
        let allow = parse_allowlist("# seeded\ncrates/vfio/src/a.rs 2\n").unwrap();
        let mut counts = BTreeMap::new();
        counts.insert("crates/vfio/src/a.rs".to_string(), 2);
        assert!(check_allowlist(&counts, &allow).is_empty());
        counts.insert("crates/vfio/src/a.rs".to_string(), 3);
        assert_eq!(check_allowlist(&counts, &allow).len(), 1);
        counts.insert("crates/vfio/src/a.rs".to_string(), 1);
        let errs = check_allowlist(&counts, &allow);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("shrink"), "{errs:?}");
        assert_eq!(allowlist_total(&allow), 2);
    }
}
