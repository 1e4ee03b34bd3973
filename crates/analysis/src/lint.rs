//! Workspace lint pass: text/AST-lite rules the compiler does not enforce.
//!
//! Six rules, each scoped to where it matters:
//!
//! 1. **`missing-forbid-unsafe`** — every crate root (`src/lib.rs` of the
//!    facade, every `crates/*` member and every `shims/*` member) must
//!    carry `#![forbid(unsafe_code)]`; the whole reproduction is safe
//!    Rust by policy.
//! 2. **`hot-path-unwrap` / `hot-path-expect`** — no `.unwrap()` /
//!    `.expect(` in the scheduler and kernel hot paths (`core::dp`,
//!    `core::pattern`, everything under `gpu` and `taskgraph`). Panics
//!    there either poison a worker pool or abort a long routing run;
//!    recoverable paths must return errors. Deliberate invariant panics
//!    are granted case-by-case through the allowlist file.
//! 3. **`dp-alloc`** — the pattern-routing dynamic program, the maze
//!    search and the cost prober's rebuild path all promise a
//!    zero-allocation steady state (`DpScratch` / `MazeScratch` /
//!    `RebuildScratch` are reused across nets and batches); inside every
//!    `fn *_into` of `core::dp`, `maze::router` and `grid::prober` no
//!    allocating call (`Vec::new`, `vec!`, `with_capacity`, `collect`,
//!    `Box::new`, `format!`, …) and no `Mutex` may appear.
//! 4. **`timing-instant`** — no `Instant::now()` outside
//!    `crates/telemetry` (the `fastgr-telemetry::Stopwatch` clock).
//!    Every crate measures wall time through the one clock, so reported
//!    seconds are mutually comparable and the telemetry layer is the
//!    single place timestamps originate. Scope: the facade `src/` and
//!    every `crates/*/src/` except the telemetry crate (shims keep their
//!    own clocks — they substitute external crates).
//! 5. **`rrr-rwlock`** — no `RwLock` in `core::rrr`. The RRR stage shares
//!    the grid between tasks through the lock-free atomic congestion
//!    store (`GridGraph::commit` on `&self`); reintroducing a reader–writer
//!    lock around the grid would serialise every commit and defeat the
//!    parallel design. (Per-task result slots may keep plain mutexes.)
//! 6. **`dp-direct-cost`** — no `wire_edge_cost` call sites in `core::dp`.
//!    The pattern kernels read wire-run and via-stack costs through the
//!    prefix-sum `CostProber` (or its quantised direct-walk twin) in O(1)
//!    per probe; summing per-edge costs inline would silently reintroduce
//!    the O(span) inner loop the prober exists to remove.
//!
//! The scanner strips line/block comments and string-literal contents, and
//! skips `#[cfg(test)] mod` bodies by brace tracking, so doc examples and
//! unit tests do not trip hot-path rules. Findings suppressed by the
//! allowlist (`lint-allow.txt` at the workspace root; `rule path
//! substring` per line) are dropped; unused allowlist entries surface as
//! warnings so the file cannot rot.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use crate::diagnostics::{Diagnostic, Severity, ValidationReport};

/// One allowlist entry: suppress `rule` findings in `path` on lines
/// containing `pattern` (an empty pattern matches any line of the file).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule identifier the entry suppresses.
    pub rule: String,
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// Substring the offending source line must contain.
    pub pattern: String,
}

/// Parses the allowlist format: one `rule path substring...` entry per
/// line; `#` starts a comment; blank lines are ignored.
pub fn parse_allowlist(text: &str) -> Vec<AllowEntry> {
    let mut entries = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, char::is_whitespace);
        let (Some(rule), Some(path)) = (parts.next(), parts.next()) else {
            continue;
        };
        entries.push(AllowEntry {
            rule: rule.to_string(),
            path: path.to_string(),
            pattern: parts.next().unwrap_or("").trim().to_string(),
        });
    }
    entries
}

/// Runs every lint rule over the workspace rooted at `root` (the directory
/// holding the top-level `Cargo.toml`). Reads `lint-allow.txt` from the
/// root if present. I/O failures surface as `lint-io` diagnostics rather
/// than panics, so a truncated checkout still yields a report.
pub fn lint_workspace(root: &Path) -> ValidationReport {
    let allowlist = match fs::read_to_string(root.join("lint-allow.txt")) {
        Ok(text) => parse_allowlist(&text),
        Err(_) => Vec::new(),
    };
    let mut used = vec![false; allowlist.len()];
    let mut report = ValidationReport::default();

    // --- Rule 1: #![forbid(unsafe_code)] in every crate root. ---
    let mut roots: Vec<PathBuf> = vec![root.join("src/lib.rs")];
    for members in ["crates", "shims"] {
        for dir in list_dirs(&root.join(members)) {
            let lib = dir.join("src/lib.rs");
            if lib.is_file() {
                roots.push(lib);
            }
        }
    }
    for lib in &roots {
        let rel = rel_path(root, lib);
        match fs::read_to_string(lib) {
            Ok(text) => {
                report.tasks_checked += 1;
                if !text.contains("#![forbid(unsafe_code)]") {
                    push_allowed(
                        &mut report,
                        &allowlist,
                        &mut used,
                        Diagnostic::error(
                            "missing-forbid-unsafe",
                            format!("{rel}: crate root lacks #![forbid(unsafe_code)]"),
                        ),
                        &rel,
                        "",
                    );
                }
            }
            Err(e) => report.push(Diagnostic::error("lint-io", format!("{rel}: {e}"))),
        }
    }

    // --- Rules 2–4 over per-file rule sets. Rule 4 scans every crate
    // except the telemetry crate (which owns the clock); rules 2 and 3
    // additionally apply on the hot-path subset. The telemetry crate's
    // worker hooks run on every block and task, so they join the hot set.
    let worker_hooks = root.join("crates/telemetry/src/hooks.rs");
    let mut hot: Vec<PathBuf> = vec![
        root.join("crates/core/src/dp.rs"),
        root.join("crates/core/src/pattern.rs"),
        worker_hooks.clone(),
    ];
    hot.extend(list_rust_files(&root.join("crates/gpu/src")));
    hot.extend(list_rust_files(&root.join("crates/taskgraph/src")));
    let mut files = list_rust_files(&root.join("src"));
    files.push(worker_hooks);
    for dir in list_dirs(&root.join("crates")) {
        if dir.file_name().is_some_and(|n| n == "telemetry") {
            continue;
        }
        files.extend(list_rust_files(&dir.join("src")));
    }
    for file in &files {
        let rel = rel_path(root, file);
        let text = match fs::read_to_string(file) {
            Ok(text) => text,
            Err(e) => {
                report.push(Diagnostic::error("lint-io", format!("{rel}: {e}")));
                continue;
            }
        };
        report.tasks_checked += 1;
        let rules = Rules {
            hot: hot.contains(file),
            dp: rel.ends_with("core/src/dp.rs")
                || rel.ends_with("maze/src/router.rs")
                || rel.ends_with("grid/src/prober.rs"),
            timing: !rel.starts_with("crates/telemetry/"),
            rrr_lock: rel.ends_with("core/src/rrr.rs"),
            dp_direct: rel.ends_with("core/src/dp.rs"),
        };
        lint_file(&text, &rel, rules, &allowlist, &mut used, &mut report);
    }

    for (entry, &was_used) in allowlist.iter().zip(used.iter()) {
        if !was_used {
            report.push(Diagnostic {
                severity: Severity::Warning,
                rule: "allowlist-unused",
                message: format!(
                    "allowlist entry never matched: {} {} {}",
                    entry.rule, entry.path, entry.pattern
                ),
                tasks: None,
                witness: Vec::new(),
            });
        }
    }
    report
}

/// Which per-file rules apply to a scanned file.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rules {
    /// Rule 2: hot-path `.unwrap()` / `.expect(` ban.
    pub hot: bool,
    /// Rule 3: zero-alloc `fn *_into` DP body ban.
    pub dp: bool,
    /// Rule 4: `Instant::now` ban (timing goes through the telemetry
    /// crate's `Stopwatch`).
    pub timing: bool,
    /// Rule 5: `RwLock` ban in the RRR stage (grid sharing goes through
    /// the lock-free atomic congestion store).
    pub rrr_lock: bool,
    /// Rule 6: `wire_edge_cost` ban in the pattern DP (costs go through
    /// the prefix-sum `CostProber` probes, not per-edge summation).
    pub dp_direct: bool,
}

/// Scans one file for whichever of rules 2–6 `rules` enables.
pub fn lint_file(
    text: &str,
    rel: &str,
    rules: Rules,
    allowlist: &[AllowEntry],
    used: &mut [bool],
    report: &mut ValidationReport,
) {
    let mut in_block_comment = 0usize;
    // > 0 while inside a `#[cfg(test)] mod { ... }` body (brace depth).
    let mut test_depth = 0i64;
    let mut pending_test_attr = false;
    let mut seen_test_mod_open = false;
    // > 0 while inside a `fn *_into(...) { ... }` body.
    let mut into_depth = 0i64;
    let mut seen_into_open = false;

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let code = strip_comments_and_strings(raw, &mut in_block_comment);
        let opens = code.matches('{').count() as i64;
        let closes = code.matches('}').count() as i64;

        if test_depth > 0 || (seen_test_mod_open && !code.trim().is_empty()) {
            // Inside (or just opened) a test module: only track braces.
            test_depth += opens - closes;
            if test_depth <= 0 && opens + closes > 0 {
                test_depth = 0;
                seen_test_mod_open = false;
            }
            continue;
        }
        if code.contains("#[cfg(test)]") {
            pending_test_attr = true;
            continue;
        }
        if pending_test_attr {
            if code.trim().is_empty() || code.trim_start().starts_with("#[") {
                continue; // further attributes between cfg(test) and the item
            }
            pending_test_attr = false;
            if code.contains("mod ") {
                test_depth = opens - closes;
                if test_depth > 0 {
                    continue;
                }
                // `mod tests;` or one-line module: nothing to skip.
                seen_test_mod_open = opens == 0 && closes == 0 && !code.contains(';');
                continue;
            }
            // `#[cfg(test)]` on a non-module item (fn, use): just that item
            // is test-only; fall through and keep linting — hot-path rules
            // firing on it is conservative but harmless in this codebase.
        }

        // Rule 3 state: entering / leaving a `fn *_into` body.
        if into_depth > 0 || seen_into_open {
            if seen_into_open && opens > 0 {
                seen_into_open = false;
                into_depth = opens - closes;
            } else {
                into_depth += opens - closes;
            }
            if into_depth <= 0 {
                into_depth = 0;
            }
        } else if rules.dp && declares_into_fn(&code) {
            into_depth = opens - closes;
            if into_depth <= 0 {
                into_depth = 0;
                seen_into_open = opens == 0; // signature spans lines
            }
        }

        // Rule 2: no unwrap/expect on the hot path.
        if rules.hot {
            for (needle, rule) in [
                (".unwrap()", "hot-path-unwrap"),
                (".expect(", "hot-path-expect"),
            ] {
                if code.contains(needle) {
                    push_allowed(
                        report,
                        allowlist,
                        used,
                        Diagnostic::error(
                            rule,
                            format!("{rel}:{line_no}: `{needle}` in a hot-path module"),
                        ),
                        rel,
                        raw,
                    );
                }
            }
        }

        // Rule 4: one wall-clock source for the whole workspace.
        if rules.timing && code.contains("Instant::now") {
            push_allowed(
                report,
                allowlist,
                used,
                Diagnostic::error(
                    "timing-instant",
                    format!(
                        "{rel}:{line_no}: `Instant::now` outside fastgr-telemetry \
                         (time through `fastgr_telemetry::Stopwatch`)"
                    ),
                ),
                rel,
                raw,
            );
        }

        // Rule 5: the RRR stage must stay lock-free on the grid.
        if rules.rrr_lock && code.contains("RwLock") {
            push_allowed(
                report,
                allowlist,
                used,
                Diagnostic::error(
                    "rrr-rwlock",
                    format!(
                        "{rel}:{line_no}: `RwLock` in the RRR stage (share the grid \
                         through `GridGraph::commit` instead)"
                    ),
                ),
                rel,
                raw,
            );
        }

        // Rule 6: DP kernels must probe aggregate costs, never walk edges.
        if rules.dp_direct && code.contains("wire_edge_cost") {
            push_allowed(
                report,
                allowlist,
                used,
                Diagnostic::error(
                    "dp-direct-cost",
                    format!(
                        "{rel}:{line_no}: `wire_edge_cost` in the pattern DP \
                         (probe through `CostProber::wire_run_cost` or \
                         `GridGraph::wire_run_cost` instead)"
                    ),
                ),
                rel,
                raw,
            );
        }

        // Rule 3: no allocation / locking inside the zero-alloc DP body.
        if rules.dp && (into_depth > 0 || seen_into_open) {
            const MARKERS: &[&str] = &[
                "Vec::new",
                "vec!",
                "with_capacity",
                ".collect(",
                ".to_vec(",
                "Box::new",
                "String::new",
                ".to_string(",
                "format!",
                "HashMap::new",
                "HashSet::new",
                "BinaryHeap::new",
                "Mutex",
                "RwLock",
            ];
            for marker in MARKERS {
                if code.contains(marker) {
                    push_allowed(
                        report,
                        allowlist,
                        used,
                        Diagnostic::error(
                            "dp-alloc",
                            format!(
                                "{rel}:{line_no}: `{marker}` inside a zero-alloc \
                                 `fn *_into` body"
                            ),
                        ),
                        rel,
                        raw,
                    );
                }
            }
        }
    }
}

/// Whether the (comment-stripped) line declares a function whose name ends
/// in `_into`.
fn declares_into_fn(code: &str) -> bool {
    let mut rest = code;
    while let Some(pos) = rest.find("fn ") {
        // Reject identifier characters immediately before ("pub fn" is
        // fine, "often " is not — the space in the needle handles most).
        let before_ok = pos == 0
            || !rest[..pos]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = &rest[pos + 3..];
        let name: String = after
            .chars()
            .take_while(|&c| c.is_alphanumeric() || c == '_')
            .collect();
        if before_ok && name.ends_with("_into") {
            return true;
        }
        rest = after;
    }
    false
}

/// Pushes `diagnostic` unless an allowlist entry covers it; marks matching
/// entries used either way.
fn push_allowed(
    report: &mut ValidationReport,
    allowlist: &[AllowEntry],
    used: &mut [bool],
    diagnostic: Diagnostic,
    rel: &str,
    raw_line: &str,
) {
    let mut suppressed = false;
    for (i, entry) in allowlist.iter().enumerate() {
        if entry.rule == diagnostic.rule
            && entry.path == rel
            && (entry.pattern.is_empty() || raw_line.contains(entry.pattern.as_str()))
        {
            used[i] = true;
            suppressed = true;
        }
    }
    if !suppressed {
        report.push(diagnostic);
    }
}

/// Removes `//` and (possibly nested, possibly multi-line) `/* */`
/// comments and blanks out string-literal contents, so lint needles only
/// match real code. `in_block_comment` carries nesting depth across lines.
fn strip_comments_and_strings(line: &str, in_block_comment: &mut usize) -> String {
    let mut out = String::with_capacity(line.len());
    let bytes = line.as_bytes();
    let mut i = 0;
    let mut in_string = false;
    while i < bytes.len() {
        if *in_block_comment > 0 {
            if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                *in_block_comment += 1;
                i += 2;
            } else if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                *in_block_comment -= 1;
                i += 2;
            } else {
                i += 1;
            }
            continue;
        }
        if in_string {
            if bytes[i] == b'\\' {
                i += 2; // skip the escaped byte
                continue;
            }
            if bytes[i] == b'"' {
                in_string = false;
                out.push('"');
            }
            i += 1;
            continue;
        }
        match bytes[i] {
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => break, // line comment
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                *in_block_comment += 1;
                i += 2;
            }
            b'"' => {
                in_string = true;
                out.push('"');
                i += 1;
            }
            b => {
                out.push(b as char);
                i += 1;
            }
        }
    }
    // An unterminated plain string at end-of-line cannot happen in valid
    // Rust (raw/multi-line strings are not handled; none appear in the
    // linted set — a false match would surface as a visible finding, not a
    // silent pass).
    out
}

/// Immediate subdirectories of `dir` (empty if unreadable).
fn list_dirs(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Every `.rs` file under `dir`, recursively, sorted.
fn list_rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        if let Ok(entries) = fs::read_dir(&d) {
            for entry in entries.flatten() {
                let path = entry.path();
                if path.is_dir() {
                    stack.push(path);
                } else if path.extension().is_some_and(|e| e == "rs") {
                    out.push(path);
                }
            }
        }
    }
    out.sort();
    out
}

/// Workspace-relative path with forward slashes (for stable diagnostics
/// and allowlist matching across platforms).
fn rel_path(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    let mut out = String::new();
    for (i, comp) in rel.components().enumerate() {
        if i > 0 {
            out.push('/');
        }
        let _ = write!(out, "{}", comp.as_os_str().to_string_lossy());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripper_removes_line_and_block_comments() {
        let mut depth = 0;
        assert_eq!(
            strip_comments_and_strings("let x = 1; // .unwrap()", &mut depth),
            "let x = 1; "
        );
        assert_eq!(
            strip_comments_and_strings("a /* .expect( */ b", &mut depth),
            "a  b"
        );
        assert_eq!(depth, 0);
        // Nested block comment spanning lines.
        assert_eq!(
            strip_comments_and_strings("x /* outer /* inner", &mut depth),
            "x "
        );
        assert_eq!(depth, 2);
        assert_eq!(
            strip_comments_and_strings("inner */ still out */ y", &mut depth),
            " y"
        );
        assert_eq!(depth, 0);
    }

    #[test]
    fn stripper_blanks_string_contents() {
        let mut depth = 0;
        assert_eq!(
            strip_comments_and_strings(r#"let m = "call .unwrap() now";"#, &mut depth),
            r#"let m = "";"#
        );
        assert_eq!(
            strip_comments_and_strings(r#"let e = "esc \" .expect(";"#, &mut depth),
            r#"let e = "";"#
        );
    }

    #[test]
    fn into_fn_declarations_are_recognised() {
        assert!(declares_into_fn("pub fn route_net_into(&mut self) {"));
        assert!(declares_into_fn("    fn bottom_cost_into("));
        assert!(!declares_into_fn("pub fn route_net(&self) {"));
        assert!(!declares_into_fn("let into = fn_pointer;"));
    }

    #[test]
    fn allowlist_parses_rules_paths_and_patterns() {
        let entries = parse_allowlist(
            "# comment\n\
             hot-path-expect crates/gpu/src/pool.rs expect(\"every index produced a value\")\n\
             \n\
             dp-alloc crates/core/src/dp.rs\n",
        );
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].rule, "hot-path-expect");
        assert_eq!(entries[0].path, "crates/gpu/src/pool.rs");
        assert!(entries[0].pattern.contains("every index"));
        assert_eq!(entries[1].pattern, "");
    }

    #[test]
    fn lint_file_flags_hot_path_unwrap_but_not_tests_or_comments() {
        let src = "\
//! Doc: .unwrap() here is fine.\n\
pub fn hot(x: Option<u32>) -> u32 {\n\
    x.unwrap()\n\
}\n\
#[cfg(test)]\n\
mod tests {\n\
    #[test]\n\
    fn t() { Some(1).unwrap(); Some(2).expect(\"fine in tests\"); }\n\
}\n";
        let mut report = ValidationReport::default();
        let rules = Rules {
            hot: true,
            ..Rules::default()
        };
        lint_file(src, "x.rs", rules, &[], &mut [], &mut report);
        assert_eq!(report.error_count(), 1, "{report}");
        assert!(report.diagnostics[0].message.contains("x.rs:3"));
    }

    #[test]
    fn lint_file_flags_alloc_in_into_fn_only() {
        let src = "\
pub fn setup() -> Vec<u32> {\n\
    Vec::with_capacity(8)\n\
}\n\
pub fn route_net_into(&mut self, out: &mut Vec<u32>) {\n\
    let tmp = Vec::new();\n\
    out.push(1);\n\
}\n\
pub fn after() { let v = vec![1]; }\n";
        let mut report = ValidationReport::default();
        let rules = Rules {
            hot: true,
            dp: true,
            ..Rules::default()
        };
        lint_file(
            src,
            "crates/core/src/dp.rs",
            rules,
            &[],
            &mut [],
            &mut report,
        );
        let fired: Vec<&str> = report.diagnostics.iter().map(|d| d.rule).collect();
        assert_eq!(fired, vec!["dp-alloc"], "{report}");
        assert!(report.diagnostics[0].message.contains(":5:"));
    }

    #[test]
    fn rwlock_rule_fires_only_in_rrr_scope() {
        let src = "\
use std::sync::RwLock;\n\
pub fn share(graph: &RwLock<u32>) -> u32 {\n\
    *graph.read()\n\
}\n";
        let mut report = ValidationReport::default();
        let rules = Rules {
            rrr_lock: true,
            ..Rules::default()
        };
        lint_file(
            src,
            "crates/core/src/rrr.rs",
            rules,
            &[],
            &mut [],
            &mut report,
        );
        let fired: Vec<&str> = report.diagnostics.iter().map(|d| d.rule).collect();
        assert_eq!(fired, vec!["rrr-rwlock", "rrr-rwlock"], "{report}");
        // The same file with the rule off is clean; comments never count.
        let mut off = ValidationReport::default();
        lint_file(src, "x.rs", Rules::default(), &[], &mut [], &mut off);
        assert!(off.is_clean(), "{off}");
        let mut comment = ValidationReport::default();
        lint_file(
            "// RwLock was removed here.\npub fn f() {}\n",
            "crates/core/src/rrr.rs",
            rules,
            &[],
            &mut [],
            &mut comment,
        );
        assert!(comment.is_clean(), "{comment}");
    }

    #[test]
    fn zero_alloc_rule_covers_the_maze_search_body() {
        let src = "\
pub fn search_into(&self, scratch: &mut MazeScratch) {\n\
    let extra: Vec<u32> = (0..4).collect();\n\
    scratch.path.push(extra.len());\n\
}\n";
        let mut report = ValidationReport::default();
        let rules = Rules {
            dp: true,
            ..Rules::default()
        };
        lint_file(
            src,
            "crates/maze/src/router.rs",
            rules,
            &[],
            &mut [],
            &mut report,
        );
        let fired: Vec<&str> = report.diagnostics.iter().map(|d| d.rule).collect();
        assert_eq!(fired, vec!["dp-alloc"], "{report}");
    }

    #[test]
    fn direct_cost_rule_bans_wire_edge_cost_in_the_dp() {
        let src = "\
fn l_shape_into(&self, scratch: &mut DpScratch) {\n\
    let w = self.graph.params().wire_edge_cost(demand, capacity);\n\
    scratch.w1.push(w);\n\
}\n";
        let mut report = ValidationReport::default();
        let rules = Rules {
            dp_direct: true,
            ..Rules::default()
        };
        lint_file(
            src,
            "crates/core/src/dp.rs",
            rules,
            &[],
            &mut [],
            &mut report,
        );
        let fired: Vec<&str> = report.diagnostics.iter().map(|d| d.rule).collect();
        assert_eq!(fired, vec!["dp-direct-cost"], "{report}");
        assert!(report.diagnostics[0].message.contains(":2:"), "{report}");
        // Probe-based cost reads are clean; so are comments.
        let clean = "\
//! wire_edge_cost is banned here — probe instead.\n\
fn l_shape_into(&self) { let w = self.run_cost(l, a, b); }\n";
        let mut off = ValidationReport::default();
        lint_file(
            clean,
            "crates/core/src/dp.rs",
            rules,
            &[],
            &mut [],
            &mut off,
        );
        assert!(off.is_clean(), "{off}");
    }

    #[test]
    fn zero_alloc_rule_covers_the_prober_rebuild_path() {
        let src = "\
fn rebuild_wire_row_into(&self, graph: &GridGraph, row: usize) {\n\
    let acc: Vec<u64> = (0..8).collect();\n\
    let _ = acc;\n\
}\n";
        let mut report = ValidationReport::default();
        let rules = Rules {
            dp: true,
            ..Rules::default()
        };
        lint_file(
            src,
            "crates/grid/src/prober.rs",
            rules,
            &[],
            &mut [],
            &mut report,
        );
        let fired: Vec<&str> = report.diagnostics.iter().map(|d| d.rule).collect();
        assert_eq!(fired, vec!["dp-alloc"], "{report}");
    }

    #[test]
    fn timing_rule_flags_instant_outside_tests_and_comments() {
        let src = "\
//! Doc: Instant::now() here is fine.\n\
use std::time::Instant;\n\
pub fn measure() -> f64 {\n\
    let t0 = Instant::now();\n\
    t0.elapsed().as_secs_f64()\n\
}\n\
#[cfg(test)]\n\
mod tests {\n\
    #[test]\n\
    fn t() { let _ = std::time::Instant::now(); }\n\
}\n";
        let mut report = ValidationReport::default();
        let rules = Rules {
            timing: true,
            ..Rules::default()
        };
        lint_file(
            src,
            "crates/core/src/router.rs",
            rules,
            &[],
            &mut [],
            &mut report,
        );
        assert_eq!(report.error_count(), 1, "{report}");
        assert_eq!(report.diagnostics[0].rule, "timing-instant");
        assert!(report.diagnostics[0].message.contains(":4:"), "{report}");
        // The same file with the rule off is clean.
        let mut off = ValidationReport::default();
        lint_file(src, "x.rs", Rules::default(), &[], &mut [], &mut off);
        assert!(off.is_clean(), "{off}");
    }

    #[test]
    fn allowlist_suppresses_and_is_marked_used() {
        let src = "pub fn hot() { q().expect(\"queue open\"); }\n";
        let allow = parse_allowlist("hot-path-expect x.rs expect(\"queue open\")");
        let mut used = vec![false];
        let mut report = ValidationReport::default();
        let rules = Rules {
            hot: true,
            ..Rules::default()
        };
        lint_file(src, "x.rs", rules, &allow, &mut used, &mut report);
        assert!(report.is_clean(), "{report}");
        assert!(used[0]);
    }

    #[test]
    fn whole_workspace_lints_clean() {
        // The real tree, with the real allowlist: must be clean, and every
        // allowlist entry must still be needed.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let report = lint_workspace(&root);
        assert!(report.is_clean(), "{report}");
        assert!(
            !report
                .diagnostics
                .iter()
                .any(|d| d.rule == "allowlist-unused"),
            "{report}"
        );
        assert!(report.tasks_checked > 10, "scanned {report}");
    }
}
