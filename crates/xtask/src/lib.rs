//! `cla-xtask` — the workspace's static-analysis task runner.
//!
//! `cargo run -p cla-xtask -- lint` walks every Rust source (and CI
//! workflow) in the repository and enforces the invariants the
//! concurrency work leans on. The scanner is **lexical and
//! brace-aware** — no external parser: comments and string literals are
//! stripped by a small state machine, `#[cfg(test)] mod` regions are
//! tracked by brace depth, and each rule then pattern-matches on the
//! cleaned code text.
//!
//! ## Rules
//!
//! | rule | requirement |
//! |------|-------------|
//! | `safety-comment` | every `unsafe` block / `unsafe impl` is preceded by a `// SAFETY:` comment (within 6 lines). `unsafe fn` declarations document `# Safety` in rustdoc instead and are exempt. |
//! | `unwrap` | no `.unwrap()` / `.expect(` in non-test, non-example library code without a reasoned annotation. |
//! | `ordering` | every non-`SeqCst` atomic ordering (`Relaxed`, `Acquire`, `Release`, `AcqRel`) in library code carries a `// ordering:` justification within 3 lines. |
//! | `failpoint` | every failpoint name referenced by tests or CI workflows exists in the `cla_core::failpoints` `REGISTERED` list. |
//! | `thread-spawn` | no `std::thread::spawn` (unscoped, leak-prone) — use `std::thread::scope`. |
//! | `doc-comment` | no degraded doc comments: a line starting with `////` (four slashes are a *plain* comment to rustdoc — the doc text silently vanishes) or a stray `/ ` line inside a comment block (a `///` that lost slashes in an edit; the prose leaks into code and breaks the build or the docs). |
//!
//! ## Annotations
//!
//! * `// lint: allow(<rule>, <reason>)` on the offending line or the
//!   line above silences one finding.
//! * `// lint: allow-file(<rule>, <reason>)` anywhere in a file
//!   silences the rule for the whole file (used to triage files whose
//!   unwraps are structurally infallible, with the reason recorded).

#![forbid(unsafe_code)]

use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

mod scan;

use scan::FileScan;

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub path: String,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.message)
    }
}

/// CLI entry point: returns the process exit code.
pub fn run(mut args: impl Iterator<Item = String>) -> i32 {
    match args.next().as_deref() {
        Some("lint") => {
            let root = match args.next() {
                Some(p) => PathBuf::from(p),
                None => workspace_root(),
            };
            match lint_tree(&root) {
                Ok(findings) if findings.is_empty() => {
                    eprintln!("cla-xtask lint: clean ({})", root.display());
                    0
                }
                Ok(findings) => {
                    for f in &findings {
                        println!("{f}");
                    }
                    eprintln!("cla-xtask lint: {} finding(s)", findings.len());
                    1
                }
                Err(e) => {
                    eprintln!("cla-xtask lint: error: {e}");
                    2
                }
            }
        }
        Some("--help") | Some("-h") | None => {
            eprintln!("usage: cla-xtask lint [ROOT]");
            eprintln!(
                "  lint   run the repository static-analysis pass (exit 1 on findings)"
            );
            2
        }
        Some(other) => {
            eprintln!("cla-xtask: unknown command {other:?} (try `lint`)");
            2
        }
    }
}

/// The workspace root when invoked via `cargo run -p cla-xtask`:
/// two levels above this crate's manifest.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().and_then(Path::parent).map(Path::to_path_buf).unwrap_or(manifest)
}

/// How a file participates in the rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FileKind {
    /// Shipped library/binary code: all rules apply.
    Lib,
    /// Integration tests / benches / examples: correctness rules
    /// (`safety-comment`, `failpoint`, `thread-spawn`) still apply;
    /// ergonomic ones (`unwrap`, `ordering`) do not.
    Test,
}

/// Run every rule over the tree rooted at `root`; findings are sorted
/// by path and line.
pub fn lint_tree(root: &Path) -> Result<Vec<Finding>, String> {
    let mut rust = Vec::new();
    let mut workflows = Vec::new();
    collect_files(root, &mut rust, &mut workflows)?;
    rust.sort();
    workflows.sort();

    let registry = failpoint_registry(root);
    let mut findings = Vec::new();

    for path in &rust {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let scan = FileScan::new(&text);
        let rel = rel_path(root, path);
        let kind = classify(&rel);

        check_safety_comments(&scan, &rel, &mut findings);
        check_thread_spawn(&scan, &rel, &mut findings);
        check_doc_comments(&scan, &rel, &mut findings);
        if kind == FileKind::Lib {
            check_unwrap(&scan, &rel, &mut findings);
            check_ordering(&scan, &rel, &mut findings);
        }
        if !rel.ends_with("crates/core/src/failpoints.rs") {
            check_failpoint_refs(&scan, &rel, registry.as_deref(), &mut findings);
        }
    }

    for path in &workflows {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let rel = rel_path(root, path);
        check_workflow_failpoints(&text, &rel, registry.as_deref(), &mut findings);
    }

    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(findings)
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace(std::path::MAIN_SEPARATOR, "/")
}

fn classify(rel: &str) -> FileKind {
    let in_dir =
        |d: &str| rel.contains(&format!("/{d}/")) || rel.starts_with(&format!("{d}/"));
    if in_dir("tests") || in_dir("benches") || in_dir("examples") {
        FileKind::Test
    } else {
        FileKind::Lib
    }
}

fn collect_files(
    dir: &Path,
    rust: &mut Vec<PathBuf>,
    workflows: &mut Vec<PathBuf>,
) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "target" | ".git" | "node_modules") {
                continue;
            }
            collect_files(&path, rust, workflows)?;
        } else if name.ends_with(".rs") {
            rust.push(path);
        } else if (name.ends_with(".yml") || name.ends_with(".yaml"))
            && path.to_string_lossy().contains("workflows")
        {
            workflows.push(path);
        }
    }
    Ok(())
}

// ---- annotations ------------------------------------------------------

/// `// lint: allow(rule, ...)` on this or the previous raw line.
fn allowed(scan: &FileScan, line_idx: usize, rule: &str) -> bool {
    let needle = format!("lint: allow({rule}");
    let here = &scan.raw[line_idx];
    if here.contains(&needle) {
        return true;
    }
    line_idx > 0 && scan.raw[line_idx - 1].contains(&needle)
}

/// `// lint: allow-file(rule, ...)` anywhere in the file.
fn allowed_file(scan: &FileScan, rule: &str) -> bool {
    let needle = format!("lint: allow-file({rule}");
    scan.raw.iter().any(|l| l.contains(&needle))
}

// ---- rule: safety-comment ---------------------------------------------

/// A `// SAFETY:` comment within the 6 raw lines up to and including
/// the `unsafe` token's line.
fn has_safety_comment(scan: &FileScan, line_idx: usize) -> bool {
    let lo = line_idx.saturating_sub(6);
    scan.raw[lo..=line_idx].iter().any(|l| l.contains("SAFETY:"))
}

fn check_safety_comments(scan: &FileScan, rel: &str, findings: &mut Vec<Finding>) {
    for (i, code) in scan.code.iter().enumerate() {
        for col in scan::token_positions(code, "unsafe") {
            // The token *after* `unsafe` decides the form: `fn` (and
            // trait declarations' `unsafe fn` signatures) document a
            // `# Safety` section instead and are exempt here.
            if scan.next_word_after(i, col + "unsafe".len()).as_deref() == Some("fn") {
                continue;
            }
            if allowed(scan, i, "safety-comment") || allowed_file(scan, "safety-comment") {
                continue;
            }
            if !has_safety_comment(scan, i) {
                findings.push(Finding {
                    path: rel.to_owned(),
                    line: i + 1,
                    rule: "safety-comment",
                    message: "`unsafe` without a `// SAFETY:` comment in the 6 lines above"
                        .to_owned(),
                });
            }
        }
    }
}

// ---- rule: unwrap -----------------------------------------------------

fn check_unwrap(scan: &FileScan, rel: &str, findings: &mut Vec<Finding>) {
    if allowed_file(scan, "unwrap") {
        return;
    }
    for (i, code) in scan.code.iter().enumerate() {
        if scan.is_test[i] {
            continue;
        }
        let hit = code.contains(".unwrap()") || code.contains(".expect(");
        if hit && !allowed(scan, i, "unwrap") {
            findings.push(Finding {
                path: rel.to_owned(),
                line: i + 1,
                rule: "unwrap",
                message: "`.unwrap()`/`.expect(` in library code — handle the error, or \
                          annotate with `// lint: allow(unwrap, <reason>)`"
                    .to_owned(),
            });
        }
    }
}

// ---- rule: ordering ---------------------------------------------------

const WEAK_ORDERINGS: [&str; 4] = ["Relaxed", "Acquire", "Release", "AcqRel"];

fn check_ordering(scan: &FileScan, rel: &str, findings: &mut Vec<Finding>) {
    if allowed_file(scan, "ordering") {
        return;
    }
    for (i, code) in scan.code.iter().enumerate() {
        if scan.is_test[i] {
            continue;
        }
        for weak in WEAK_ORDERINGS {
            if scan::token_positions(code, weak).is_empty() {
                continue;
            }
            if allowed(scan, i, "ordering") {
                continue;
            }
            let lo = i.saturating_sub(3);
            let justified = scan.raw[lo..=i].iter().any(|l| l.contains("ordering:"));
            if !justified {
                findings.push(Finding {
                    path: rel.to_owned(),
                    line: i + 1,
                    rule: "ordering",
                    message: format!(
                        "atomic ordering `{weak}` without a `// ordering:` justification \
                         within 3 lines"
                    ),
                });
            }
            break;
        }
    }
}

// ---- rule: thread-spawn -----------------------------------------------

fn check_thread_spawn(scan: &FileScan, rel: &str, findings: &mut Vec<Finding>) {
    if allowed_file(scan, "thread-spawn") {
        return;
    }
    let imports_std_thread = scan
        .code
        .iter()
        .any(|l| l.contains("use std::thread;") || l.contains("use std::thread::spawn"));
    for (i, code) in scan.code.iter().enumerate() {
        let qualified = code.contains("std::thread::spawn");
        let bare = imports_std_thread && code.contains("thread::spawn(");
        if (qualified || bare) && !allowed(scan, i, "thread-spawn") {
            findings.push(Finding {
                path: rel.to_owned(),
                line: i + 1,
                rule: "thread-spawn",
                message: "unscoped `std::thread::spawn` — use `std::thread::scope` so every \
                          thread is joined (or annotate why detaching is sound)"
                    .to_owned(),
            });
        }
    }
}

// ---- rule: doc-comment ------------------------------------------------

/// `true` for a raw line that is (or opens) a line comment of any
/// flavor — the anchor for spotting degraded neighbors.
fn is_comment_line(raw: &str) -> bool {
    let t = raw.trim_start();
    t.starts_with("//") || t.starts_with("/ ")
}

fn check_doc_comments(scan: &FileScan, rel: &str, findings: &mut Vec<Finding>) {
    if allowed_file(scan, "doc-comment") {
        return;
    }
    for (i, raw) in scan.raw.iter().enumerate() {
        let trimmed = raw.trim_start();
        if allowed(scan, i, "doc-comment") {
            continue;
        }
        // Four or more slashes: rustdoc parses `////` as a plain
        // comment, so intended documentation silently disappears from
        // the rendered docs. Only comment-only lines are considered
        // (a `////` inside a string literal leaves code on the line).
        if trimmed.starts_with("////") && scan.code[i].trim().is_empty() {
            findings.push(Finding {
                path: rel.to_owned(),
                line: i + 1,
                rule: "doc-comment",
                message: "`////` is a plain comment to rustdoc, not documentation — \
                          use `///` (or `//` for a non-doc note)"
                    .to_owned(),
            });
            continue;
        }
        // A `/ `-prefixed line is a doc comment that lost slashes when
        // it sits in a comment block (its neighbor is a comment): the
        // prose leaks into code. A lone `/ ` continuation elsewhere is
        // rustfmt's line-broken division and stays exempt.
        if trimmed.starts_with("/ ") && !trimmed.starts_with("//") {
            let prev_comment = i > 0 && is_comment_line(&scan.raw[i - 1]);
            let next_comment = i + 1 < scan.raw.len() && is_comment_line(&scan.raw[i + 1]);
            if prev_comment || next_comment {
                findings.push(Finding {
                    path: rel.to_owned(),
                    line: i + 1,
                    rule: "doc-comment",
                    message: "stray `/ ` line inside a comment block — a doc comment \
                              missing its slashes (`///`)"
                        .to_owned(),
                });
            }
        }
    }
}

// ---- rule: failpoint --------------------------------------------------

/// Parse the `REGISTERED` list out of `crates/core/src/failpoints.rs`.
/// `None` when the registry file does not exist under `root` (small
/// test trees): references then lint as unknown only if present.
fn failpoint_registry(root: &Path) -> Option<Vec<String>> {
    let path = root.join("crates/core/src/failpoints.rs");
    let text = std::fs::read_to_string(path).ok()?;
    let scan = FileScan::new(&text);
    let mut names = Vec::new();
    let mut in_list = false;
    for (i, code) in scan.code.iter().enumerate() {
        if code.contains("REGISTERED") {
            in_list = true;
        }
        if in_list {
            names.extend(scan.strings[i].iter().cloned());
            if code.contains(';') {
                break;
            }
        }
    }
    Some(names)
}

/// Methods of `cla_core::failpoints` that take a failpoint name.
const FAILPOINT_PROBES: [&str; 5] = ["triggered(", "arm(", "disarm(", "hits(", "exclusive("];

fn check_failpoint_refs(
    scan: &FileScan,
    rel: &str,
    registry: Option<&[String]>,
    findings: &mut Vec<Finding>,
) {
    for (i, code) in scan.code.iter().enumerate() {
        let probes = FAILPOINT_PROBES.iter().any(|p| code.contains(p));
        let env_spec = scan.strings[i].iter().any(|s| s == "CLA_FAILPOINTS");
        if !probes && !env_spec {
            continue;
        }
        let mut referenced: Vec<String> = Vec::new();
        if probes {
            referenced
                .extend(scan.strings[i].iter().filter(|s| looks_like_failpoint(s)).cloned());
        }
        if env_spec {
            for s in &scan.strings[i] {
                if s != "CLA_FAILPOINTS" {
                    referenced.extend(parse_failpoint_spec(s));
                }
            }
        }
        for name in referenced {
            report_unknown_failpoint(&name, rel, i + 1, registry, findings);
        }
    }
}

/// Failpoint names are dotted lowercase identifiers (`apply.mid`); the
/// filter keeps mode strings and prose out of the check.
fn looks_like_failpoint(s: &str) -> bool {
    s.contains('.')
        && !s.contains(' ')
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_')
}

/// `a=once,b=always` → `["a", "b"]`.
fn parse_failpoint_spec(spec: &str) -> Vec<String> {
    spec.split(',')
        .filter_map(|pair| pair.split_once('=').map(|(name, _)| name.trim().to_owned()))
        .filter(|n| !n.is_empty())
        .collect()
}

fn report_unknown_failpoint(
    name: &str,
    rel: &str,
    line: usize,
    registry: Option<&[String]>,
    findings: &mut Vec<Finding>,
) {
    let known = registry.is_some_and(|r| r.iter().any(|n| n == name));
    if !known {
        let hint = match registry {
            Some(r) if !r.is_empty() => {
                format!("registered: {}", r.join(", "))
            }
            _ => "no failpoints::REGISTERED list found".to_owned(),
        };
        findings.push(Finding {
            path: rel.to_owned(),
            line,
            rule: "failpoint",
            message: format!(
                "failpoint `{name}` is not in the cla_core::failpoints registry ({hint})"
            ),
        });
    }
}

fn check_workflow_failpoints(
    text: &str,
    rel: &str,
    registry: Option<&[String]>,
    findings: &mut Vec<Finding>,
) {
    for (i, line) in text.lines().enumerate() {
        let Some(pos) = line.find("CLA_FAILPOINTS") else { continue };
        let rest = line[pos + "CLA_FAILPOINTS".len()..]
            .trim_start_matches([':', '=', ' ', '"', '\'']);
        let spec: String = rest
            .chars()
            .take_while(|c| !c.is_whitespace() && *c != '"' && *c != '\'')
            .collect();
        let mut seen = BTreeSet::new();
        for name in parse_failpoint_spec(&spec) {
            if seen.insert(name.clone()) {
                report_unknown_failpoint(&name, rel, i + 1, registry, findings);
            }
        }
    }
}
