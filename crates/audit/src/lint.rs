//! `rips-lint`: repo-specific static analysis over the workspace
//! source, built on the [`crate::lexer`] tokenizer (no `syn`, no
//! external dependencies — consistent with the offline-shims policy).
//!
//! # Rules
//!
//! | id | rule |
//! |----|------|
//! | RIPS-L001 | no `HashMap`/`HashSet` in the deterministic-path crates (`sched`, `runtime`, `core`): their iteration order is seeded per process and leaks into results |
//! | RIPS-L002 | no `Instant`/`SystemTime`/`thread_rng` outside the reasoned [`TIMING_PATHS`] allowlist (`crates/bench`, `crates/live`, `benchmark`): simulated runs must not observe wall-clock time or ambient randomness |
//! | RIPS-L003 | no `unwrap`/`expect`/`panic!`/`unreachable!` in the desim engine hot path (`crates/desim/src/engine.rs`) without a reasoned suppression |
//! | RIPS-L004 | `unsafe` is forbidden outside the reasoned [`UNSAFE_ALLOWLIST`] (exactly one file: the live backend's SPSC ring) |
//! | RIPS-L005 | public items in `#![warn(missing_docs)]` crates must carry a doc comment |
//! | RIPS-L006 | no raw `std::sync::atomic` types (`Ordering` excepted) or `std::thread` park-family calls (`park`, `park_timeout`, `current`, `yield_now`) in `crates/live` + `crates/runtime`: lock-free code there must go through the `rips_verify::sync` / `vthread` seam so the bounded model checker can explore it |
//!
//! # Suppressions
//!
//! A finding is suppressed by a comment on the same line or the line
//! directly above:
//!
//! ```text
//! // rips-lint: allow(L003, engine invariant — queue is non-empty by construction)
//! let head = lane.pop().expect("armed node with empty lane");
//! ```
//!
//! The reason is mandatory; an `allow` without one is itself reported
//! (RIPS-L000), so every suppression documents *why* the rule does not
//! apply at that site.

use std::path::{Path, PathBuf};

use rips_trace::Json;

use crate::lexer::{tokenize, Tok, TokKind};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule id (`RIPS-L001` … `RIPS-L006`, `RIPS-L000` for a
    /// malformed suppression).
    pub rule: &'static str,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

/// Outcome of a lint pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintReport {
    /// Non-suppressed findings, in (path, line) order.
    pub findings: Vec<Finding>,
    /// Files analysed.
    pub files_checked: usize,
    /// Findings silenced by a reasoned `rips-lint: allow` comment.
    pub suppressed: usize,
}

impl LintReport {
    /// `true` when the pass found nothing.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable rendering, one line per finding plus a summary.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{}: [{}] {}\n",
                f.path, f.line, f.rule, f.message
            ));
        }
        out.push_str(&format!(
            "{} finding(s) in {} file(s), {} suppressed\n",
            self.findings.len(),
            self.files_checked,
            self.suppressed
        ));
        out
    }

    /// JSON rendering.
    pub fn render_json(&self) -> String {
        let mut j = Json::new();
        j.obj().key("findings").arr();
        for f in &self.findings {
            j.obj().key("rule").str(f.rule).key("path").str(&f.path);
            j.key("line").u64(f.line.into());
            j.key("message").str(&f.message).end();
        }
        j.end().key("count").u64(self.findings.len() as u64);
        j.key("files_checked").u64(self.files_checked as u64);
        j.key("suppressed").u64(self.suppressed as u64).end();
        j.finish()
    }
}

/// Crates whose results must be bit-for-bit reproducible: RIPS-L001
/// forbids seeded-order containers anywhere inside them.
const DETERMINISTIC_CRATES: &[&str] = &["crates/sched/", "crates/runtime/", "crates/core/"];

/// Paths allowed to observe wall-clock time / ambient randomness
/// (RIPS-L002 does not apply). Every entry carries a mandatory reason,
/// mirroring the inline `allow(L00x, reason)` contract: an unexplained
/// scope hole is itself a lint smell. Keep entries narrow — a crate
/// goes here only if real time is its *purpose*, not a convenience.
pub const TIMING_PATHS: &[(&str, &str)] = &[
    (
        "crates/bench/",
        "the bench harness measures real elapsed time by design",
    ),
    (
        "crates/live/",
        "the live backend's whole point is wall-clock execution: \
         Instant anchors its monotonic Clock (which the metrics \
         histograms sample too), park timeouts \
         realise its timer-wheel deadlines, and the stall watchdog \
         sleeps real intervals between progress samples — a virtual \
         clock cannot detect a wedged OS thread",
    ),
    (
        "benchmark/",
        "the repo's benchmark (BENCHMARK.json) times the program from \
         outside: Instant is how it measures wall_s, setup_s and its \
         spans, and nothing under it runs inside a simulated machine",
    ),
];

/// The desim engine hot path (RIPS-L003 scope).
const ENGINE_HOT_PATH: &str = "crates/desim/src/engine.rs";

/// Crates whose lock-free code must route atomics and park/unpark
/// through the `rips_verify::sync` / `vthread` seam (RIPS-L006), so
/// the bounded model checker can instrument and explore it. Raw
/// `std::sync::atomic` types (`Ordering` excepted — it is plain data)
/// and `std::thread` park-family calls there evade the checker.
const VERIFY_SEAM_CRATES: &[&str] = &["crates/live/", "crates/runtime/"];

/// `std::thread` functions with a `rips_verify::vthread` equivalent
/// (RIPS-L006): calling the raw version makes the schedule invisible
/// to the checker. `spawn`/`sleep`/`scope`/`panicking` stay legal —
/// real-thread plumbing is not part of a modelled protocol.
const PARK_FAMILY: &[&str] = &["park", "park_timeout", "current", "yield_now", "Thread"];

/// The one file allowed to contain `unsafe` (RIPS-L004), pinned to its
/// exact path with a mandatory reason (same contract as
/// [`TIMING_PATHS`]). Everything else is safe Rust, and the safe
/// crates additionally carry `#![forbid(unsafe_code)]` (`rips-live`:
/// `#![deny]` with a module-scoped allow for exactly this file). Adding
/// an entry here requires a matching DESIGN §7 note and a safety
/// argument in the file's module docs.
pub const UNSAFE_ALLOWLIST: &[(&str, &str)] = &[(
    "crates/live/src/ring.rs",
    "SPSC ring slots are UnsafeCell<MaybeUninit>; non-Clone &mut \
     handles plus the head/tail acquire/release protocol make every \
     slot access data-race-free (safety argument in module docs)",
)];

/// A parsed `rips-lint: allow(...)` comment.
struct Suppression {
    /// Normalized rule id (`RIPS-L001`).
    rule: String,
    /// Comment line; suppresses findings on this line and the next.
    line: u32,
}

/// Lints one in-memory source file. `missing_docs` says whether the
/// file belongs to a `#![warn(missing_docs)]` crate (enables L005).
/// Returns `(findings, suppressed_count)`.
pub fn lint_source(path: &str, src: &str, missing_docs: bool) -> (Vec<Finding>, usize) {
    let toks = tokenize(src);
    let mut raw: Vec<Finding> = Vec::new();
    let mut suppressions: Vec<Suppression> = Vec::new();

    // Pass 0: collect suppressions (and report malformed ones).
    for t in &toks {
        if t.kind != TokKind::LineComment && t.kind != TokKind::BlockComment {
            continue;
        }
        let Some(pos) = t.text.find("rips-lint:") else {
            continue;
        };
        let rest = t.text[pos + "rips-lint:".len()..].trim_start();
        let Some(body) = rest
            .strip_prefix("allow(")
            .and_then(|r| r.split(')').next())
        else {
            raw.push(Finding {
                rule: "RIPS-L000",
                path: path.to_string(),
                line: t.line,
                message: "malformed rips-lint comment: expected `allow(L00x, reason)`".into(),
            });
            continue;
        };
        let mut parts = body.splitn(2, ',');
        let id = parts.next().unwrap_or("").trim();
        let reason = parts.next().map(str::trim).unwrap_or("");
        let norm = normalize_rule_id(id);
        match norm {
            Some(rule) if !reason.is_empty() => {
                suppressions.push(Suppression { rule, line: t.line })
            }
            Some(_) => raw.push(Finding {
                rule: "RIPS-L000",
                path: path.to_string(),
                line: t.line,
                message: format!("suppression of {id} carries no reason"),
            }),
            None => raw.push(Finding {
                rule: "RIPS-L000",
                path: path.to_string(),
                line: t.line,
                message: format!("unknown lint id {id:?} in suppression"),
            }),
        }
    }

    // Pass 1: the rules. Test modules (`#[cfg(test)] mod … { … }`) are
    // exempt from L003/L005 (assertion style and private helpers are
    // fine in tests) but NOT from L001/L002/L004 — determinism, time,
    // and unsafety matter in tests too.
    let test_ranges = cfg_test_ranges(&toks);
    let in_tests = |idx: usize| test_ranges.iter().any(|&(lo, hi)| idx >= lo && idx < hi);

    let l001 = DETERMINISTIC_CRATES.iter().any(|p| path.starts_with(p));
    let l002 = !TIMING_PATHS.iter().any(|(p, _)| path.starts_with(p));
    let l003 = path == ENGINE_HOT_PATH;
    let l004 = !UNSAFE_ALLOWLIST.iter().any(|(p, _)| *p == path);
    let l006 = VERIFY_SEAM_CRATES.iter().any(|p| path.starts_with(p));

    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let next_punct = |want: &str| {
            toks[i + 1..]
                .iter()
                .find(|n| {
                    !matches!(
                        n.kind,
                        TokKind::LineComment | TokKind::BlockComment | TokKind::DocComment
                    )
                })
                .is_some_and(|n| n.kind == TokKind::Punct && n.text == want)
        };
        match t.text {
            "HashMap" | "HashSet" if l001 => raw.push(Finding {
                rule: "RIPS-L001",
                path: path.to_string(),
                line: t.line,
                message: format!(
                    "`{}` in a deterministic-path crate: iteration order is seeded per \
                     process and can leak into results; use `BTreeMap`/`BTreeSet` or a sorted Vec",
                    t.text
                ),
            }),
            "SystemTime" | "thread_rng" if l002 => raw.push(Finding {
                rule: "RIPS-L002",
                path: path.to_string(),
                line: t.line,
                message: format!(
                    "`{}` outside bench timing code: simulated runs must not observe \
                     wall-clock time or ambient randomness",
                    t.text
                ),
            }),
            "Instant" if l002 => raw.push(Finding {
                rule: "RIPS-L002",
                path: path.to_string(),
                line: t.line,
                message: "`Instant` outside bench timing code: simulated runs must not \
                          observe wall-clock time"
                    .into(),
            }),
            "unwrap" | "expect" if l003 && !in_tests(i) && next_punct("(") => raw.push(Finding {
                rule: "RIPS-L003",
                path: path.to_string(),
                line: t.line,
                message: format!(
                    "`{}` in the engine hot path: a panic here takes down the whole \
                     simulation; handle the case or suppress with the invariant that rules it out",
                    t.text
                ),
            }),
            "panic" | "unreachable" if l003 && !in_tests(i) && next_punct("!") => {
                raw.push(Finding {
                    rule: "RIPS-L003",
                    path: path.to_string(),
                    line: t.line,
                    message: format!(
                        "`{}!` in the engine hot path: a panic here takes down the whole \
                         simulation; handle the case or suppress with the invariant that rules it out",
                        t.text
                    ),
                })
            }
            "unsafe" if l004 => raw.push(Finding {
                rule: "RIPS-L004",
                path: path.to_string(),
                line: t.line,
                message: "`unsafe` outside the allowlist (see crates/audit/src/lint.rs \
                          UNSAFE_ALLOWLIST); the workspace is safe Rust"
                    .into(),
            }),
            "std" if l006 => {
                // Path-shaped lookahead over significant tokens:
                // `std :: sync :: atomic [:: Tail]` / `std :: thread :: f`.
                let sig: Vec<(TokKind, &str)> = toks[i + 1..]
                    .iter()
                    .filter(|n| {
                        !matches!(
                            n.kind,
                            TokKind::LineComment | TokKind::BlockComment | TokKind::DocComment
                        )
                    })
                    .take(9)
                    .map(|n| (n.kind, n.text))
                    .collect();
                let colon2 = |k: usize| {
                    sig.get(k) == Some(&(TokKind::Punct, ":"))
                        && sig.get(k + 1) == Some(&(TokKind::Punct, ":"))
                };
                let ident = |k: usize, s: &str| sig.get(k) == Some(&(TokKind::Ident, s));
                if colon2(0) && ident(2, "sync") && colon2(3) && ident(5, "atomic") {
                    if !(colon2(6) && ident(8, "Ordering")) {
                        raw.push(Finding {
                            rule: "RIPS-L006",
                            path: path.to_string(),
                            line: t.line,
                            message: "raw `std::sync::atomic` in a model-checked crate: \
                                      import atomic types from `rips_verify::sync::atomic` \
                                      so the bounded checker can instrument them \
                                      (`std::sync::atomic::Ordering` alone is exempt)"
                                .into(),
                        });
                    }
                } else if colon2(0) && ident(2, "thread") && colon2(3) {
                    if let Some(&(TokKind::Ident, f)) = sig.get(5) {
                        if PARK_FAMILY.contains(&f) {
                            raw.push(Finding {
                                rule: "RIPS-L006",
                                path: path.to_string(),
                                line: t.line,
                                message: format!(
                                    "`std::thread::{f}` in a model-checked crate: use \
                                     `rips_verify::vthread::{f}` so park/wake protocols \
                                     run under the bounded checker's scheduler"
                                ),
                            });
                        }
                    }
                }
            }
            _ => {}
        }
    }

    if missing_docs {
        check_missing_docs(path, &toks, &test_ranges, &mut raw);
    }

    // Pass 2: apply suppressions (same line or the line directly below
    // the comment).
    let mut suppressed = 0;
    let findings = raw
        .into_iter()
        .filter(|f| {
            let hit = suppressions
                .iter()
                .any(|s| s.rule == f.rule && (s.line == f.line || s.line + 1 == f.line));
            if hit {
                suppressed += 1;
            }
            !hit
        })
        .collect();
    (findings, suppressed)
}

/// Accepts `L001` or `RIPS-L001` (any case), returns `RIPS-L001`.
fn normalize_rule_id(id: &str) -> Option<String> {
    let id = id.trim();
    let tail = id
        .strip_prefix("RIPS-")
        .or_else(|| id.strip_prefix("rips-"))
        .unwrap_or(id);
    let t = tail.to_ascii_uppercase();
    let ok = t.len() == 4
        && t.starts_with('L')
        && t[1..].chars().all(|c| c.is_ascii_digit())
        && ("L001"..="L006").contains(&t.as_str());
    ok.then(|| format!("RIPS-{t}"))
}

/// Token-index ranges covered by `#[cfg(test)]` items (the attribute
/// through the matching close brace of the item that follows).
fn cfg_test_ranges(toks: &[Tok<'_>]) -> Vec<(usize, usize)> {
    fn sig<'a>(t: &Tok<'a>) -> (TokKind, &'a str) {
        (t.kind, t.text)
    }
    let mut ranges = Vec::new();
    let mut i = 0;
    while i + 6 < toks.len() {
        let is_cfg_test = sig(&toks[i]) == (TokKind::Punct, "#")
            && sig(&toks[i + 1]) == (TokKind::Punct, "[")
            && sig(&toks[i + 2]) == (TokKind::Ident, "cfg")
            && sig(&toks[i + 3]) == (TokKind::Punct, "(")
            && sig(&toks[i + 4]) == (TokKind::Ident, "test")
            && sig(&toks[i + 5]) == (TokKind::Punct, ")")
            && sig(&toks[i + 6]) == (TokKind::Punct, "]");
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Skip to the item's opening brace, then to its matching close.
        let mut j = i + 7;
        while j < toks.len() && !(toks[j].kind == TokKind::Punct && toks[j].text == "{") {
            j += 1;
        }
        let mut depth = 0usize;
        while j < toks.len() {
            if toks[j].kind == TokKind::Punct {
                match toks[j].text {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            j += 1;
        }
        ranges.push((i, j));
        i = j;
    }
    ranges
}

/// RIPS-L005: a `pub` item declaration must be preceded by a doc
/// comment (attributes may sit between the doc and the item).
/// `pub use` re-exports and restricted visibility (`pub(crate)` …) are
/// exempt, matching rustc's `missing_docs` behaviour closely enough
/// for this workspace.
fn check_missing_docs(
    path: &str,
    toks: &[Tok<'_>],
    test_ranges: &[(usize, usize)],
    out: &mut Vec<Finding>,
) {
    const ITEM_KEYWORDS: &[&str] = &[
        "fn", "struct", "enum", "trait", "mod", "const", "static", "type", "union",
    ];
    let in_tests = |idx: usize| test_ranges.iter().any(|&(lo, hi)| idx >= lo && idx < hi);
    let mut has_doc = false;
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        match t.kind {
            TokKind::DocComment => has_doc = true,
            TokKind::LineComment | TokKind::BlockComment => {}
            TokKind::Punct if t.text == "#" => {
                // Attribute: skip its bracketed body, preserving the
                // doc flag (`/// doc` + `#[derive(..)]` + item is fine).
                let mut j = i + 1;
                if toks.get(j).is_some_and(|n| n.text == "!") {
                    j += 1;
                }
                if toks.get(j).is_some_and(|n| n.text == "[") {
                    let mut depth = 0usize;
                    while j < toks.len() {
                        match (toks[j].kind, toks[j].text) {
                            (TokKind::Punct, "[") => depth += 1,
                            (TokKind::Punct, "]") => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    i = j;
                }
            }
            TokKind::Ident if t.text == "pub" => {
                let mut j = i + 1;
                // Restricted visibility: pub(crate) / pub(super) …
                if toks
                    .get(j)
                    .is_some_and(|n| n.kind == TokKind::Punct && n.text == "(")
                {
                    while j < toks.len() && toks[j].text != ")" {
                        j += 1;
                    }
                    has_doc = false;
                    i = j + 1;
                    continue;
                }
                // Skip qualifiers between `pub` and the item keyword.
                while toks
                    .get(j)
                    .is_some_and(|n| matches!(n.text, "async" | "unsafe" | "extern" | "crate"))
                    || toks.get(j).is_some_and(|n| n.kind == TokKind::Literal)
                {
                    j += 1;
                }
                if let Some(kw) = toks.get(j) {
                    // An out-of-line `pub mod name;` is documented by
                    // the module file's own `//!` inner docs, which
                    // rustc's missing_docs accepts — exempt it.
                    let out_of_line_mod =
                        kw.text == "mod" && toks.get(j + 2).is_some_and(|n| n.text == ";");
                    if kw.kind == TokKind::Ident
                        && ITEM_KEYWORDS.contains(&kw.text)
                        && !out_of_line_mod
                        && !has_doc
                        && !in_tests(i)
                    {
                        let name = toks.get(j + 1).map(|n| n.text).unwrap_or("?");
                        out.push(Finding {
                            rule: "RIPS-L005",
                            path: path.to_string(),
                            line: t.line,
                            message: format!(
                                "public {} `{}` in a #![warn(missing_docs)] crate has no doc comment",
                                kw.text, name
                            ),
                        });
                    }
                }
                has_doc = false;
            }
            _ => has_doc = false,
        }
        i += 1;
    }
}

/// Lints a set of in-memory files (`(path, contents)` pairs, paths
/// workspace-relative and `/`-separated). The `#![warn(missing_docs)]`
/// crates are discovered from the provided `crates/*/src/lib.rs` files
/// themselves, so the fixture tests exercise the same discovery the
/// workspace walk uses.
pub fn lint_files(files: &[(String, String)]) -> LintReport {
    // Which crates opt into missing_docs?
    let mut doc_crates: Vec<String> = Vec::new();
    for (path, src) in files {
        let Some(rest) = path.strip_prefix("crates/") else {
            continue;
        };
        let Some(name) = rest.strip_suffix("/src/lib.rs") else {
            continue;
        };
        let toks = tokenize(src);
        // `#![warn(missing_docs)]` — match the attribute head, then
        // require the ident anywhere (tolerates other warns in the list).
        let has = toks.windows(5).any(|w| {
            w[0].text == "#"
                && w[1].text == "!"
                && w[2].text == "["
                && w[3].text == "warn"
                && w[4].text == "("
        }) && toks
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text == "missing_docs");
        if has {
            doc_crates.push(format!("crates/{name}/src/"));
        }
    }

    let mut report = LintReport::default();
    for (path, src) in files {
        let missing_docs = doc_crates.iter().any(|p| path.starts_with(p.as_str()));
        let (findings, suppressed) = lint_source(path, src, missing_docs);
        report.findings.extend(findings);
        report.suppressed += suppressed;
        report.files_checked += 1;
    }
    report
        .findings
        .sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    report
}

/// Walks the workspace rooted at `root` (skipping `target/`, `.git/`,
/// and the results archive) and lints every `.rs` file.
pub fn lint_workspace(root: &Path) -> std::io::Result<LintReport> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let p = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if p.is_dir() {
                if matches!(
                    name.as_ref(),
                    "target" | ".git" | "results" | "node_modules"
                ) {
                    continue;
                }
                stack.push(p);
            } else if name.ends_with(".rs") {
                let rel = rel_unix_path(root, &p);
                let src = std::fs::read_to_string(&p)?;
                files.push((rel, src));
            }
        }
    }
    Ok(lint_files(&files))
}

fn rel_unix_path(root: &Path, p: &Path) -> String {
    let rel: PathBuf = p.strip_prefix(root).unwrap_or(p).to_path_buf();
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_one(path: &str, src: &str) -> Vec<Finding> {
        lint_source(path, src, false).0
    }

    #[test]
    fn l001_fires_only_in_deterministic_crates() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(lint_one("crates/sched/src/x.rs", src).len(), 1);
        assert_eq!(lint_one("crates/sched/src/x.rs", src)[0].rule, "RIPS-L001");
        assert!(lint_one("crates/desim/src/x.rs", src).is_empty());
    }

    #[test]
    fn l001_ignores_strings_and_comments() {
        let src = "// a HashMap here is fine\nlet s = \"HashMap\";\n";
        assert!(lint_one("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn l002_scopes_out_bench_and_shims() {
        let src = "let t = std::time::Instant::now();\n";
        assert_eq!(lint_one("crates/apps/src/x.rs", src)[0].rule, "RIPS-L002");
        assert!(lint_one("crates/bench/src/suites.rs", src).is_empty());
        // The vendored shims read no clock, so they get no exemption.
        assert_eq!(lint_one("shims/rand/src/lib.rs", src)[0].rule, "RIPS-L002");
    }

    #[test]
    fn l002_allowlist_pins_live_scope_with_reasons() {
        // The live backend is the one *runtime* crate allowed to
        // observe wall-clock time — and only it. A rename or a new
        // sibling crate must not silently inherit the exemption.
        let src = "let t = std::time::Instant::now();\n";
        assert!(lint_one("crates/live/src/lib.rs", src).is_empty());
        // The standalone benchmark package times runs from outside.
        assert!(lint_one("benchmark/src/span.rs", src).is_empty());
        for flagged in [
            "crates/livex/src/lib.rs", // prefix must not over-match
            "benchmarks/src/main.rs",
            "crates/runtime/src/driver.rs",
            "crates/core/src/program.rs",
            "crates/desim/src/engine.rs",
            "crates/trace/src/lib.rs",
        ] {
            let f = lint_one(flagged, src);
            assert_eq!(f.len(), 1, "{flagged} escaped L002");
            assert_eq!(f[0].rule, "RIPS-L002", "{flagged}");
        }
        // Every allowlist hole documents why it exists.
        for (path, reason) in TIMING_PATHS {
            assert!(
                !reason.trim().is_empty(),
                "TIMING_PATHS entry {path:?} carries no reason"
            );
            assert!(
                path.ends_with('/'),
                "TIMING_PATHS entry {path:?} must be a directory prefix"
            );
        }
        for pinned in ["crates/live/", "benchmark/"] {
            assert!(
                TIMING_PATHS.iter().any(|(p, _)| *p == pinned),
                "{pinned} missing from the timing allowlist"
            );
        }
    }

    #[test]
    fn l003_only_in_engine_and_not_in_tests() {
        let src = "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn g() { y.unwrap(); } }\n";
        let f = lint_one("crates/desim/src/engine.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "RIPS-L003");
        assert_eq!(f[0].line, 1);
        assert!(lint_one("crates/desim/src/latency.rs", src).is_empty());
    }

    #[test]
    fn l003_catches_panic_macros_not_field_names() {
        let f = lint_one(
            "crates/desim/src/engine.rs",
            "fn f() { panic!(\"boom\") }\nstruct S { expect: u32 }\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn l004_fires_everywhere() {
        let f = lint_one("crates/desim/src/engine.rs", "unsafe { *p }\n");
        assert_eq!(f[0].rule, "RIPS-L004");
    }

    #[test]
    fn l004_allowlist_pins_unsafe_scope_with_reasons() {
        // Exactly one audited file may contain `unsafe`: the live
        // backend's SPSC ring. A rename, a sibling module, or a new
        // crate must not silently inherit the exemption.
        let src = "unsafe { core::ptr::read(p) }\n";
        assert!(lint_one("crates/live/src/ring.rs", src).is_empty());
        for flagged in [
            "crates/live/src/lib.rs", // siblings don't inherit
            "crates/live/src/transport.rs",
            "crates/live/src/ring2.rs", // exact file match, not prefix
            "crates/runtime/src/lib.rs",
            "crates/runtime/src/driver.rs",
            "crates/runtime/src/rcu.rs", // no entry, so a finding
            "crates/desim/src/engine.rs",
        ] {
            let f = lint_one(flagged, src);
            assert_eq!(f.len(), 1, "{flagged} escaped L004");
            assert_eq!(f[0].rule, "RIPS-L004", "{flagged}");
        }
        // Every hole is an exact .rs file path and documents why it
        // exists (the reason doubles as the audit pointer).
        for (path, reason) in UNSAFE_ALLOWLIST {
            assert!(
                path.ends_with(".rs"),
                "UNSAFE_ALLOWLIST entry {path:?} must be a single file, not a prefix"
            );
            assert!(
                !reason.trim().is_empty(),
                "UNSAFE_ALLOWLIST entry {path:?} carries no reason"
            );
        }
        // The allowlist is *exactly* the SPSC ring — not a prefix, not
        // a second file (the instrumented cells in crates/verify are
        // `#![forbid(unsafe_code)]` and need no entry); any growth
        // needs its own safety audit and DESIGN §7 note.
        let paths: Vec<&str> = UNSAFE_ALLOWLIST.iter().map(|(p, _)| *p).collect();
        assert_eq!(
            paths,
            ["crates/live/src/ring.rs"],
            "UNSAFE_ALLOWLIST must stay pinned to exactly ring.rs"
        );
        assert_eq!(
            lint_one("crates/verify/src/rt.rs", src)[0].rule,
            "RIPS-L004",
            "the verify crate itself is not exempt"
        );
    }

    #[test]
    fn l006_flags_raw_atomics_in_model_checked_crates_only() {
        let src = "use std::sync::atomic::AtomicU64;\n";
        for flagged in ["crates/live/src/x.rs", "crates/runtime/src/x.rs"] {
            let f = lint_one(flagged, src);
            assert_eq!(f.len(), 1, "{flagged} escaped L006");
            assert_eq!(f[0].rule, "RIPS-L006", "{flagged}");
        }
        // Outside the model-checked crates raw atomics are fine — the
        // checker seam is a live/runtime contract, not a global one.
        assert!(lint_one("crates/trace/src/x.rs", src).is_empty());
        assert!(lint_one("crates/verify/src/rt.rs", src).is_empty());
    }

    #[test]
    fn l006_exempts_ordering_but_not_brace_imports() {
        // `Ordering` is plain data (no instrumentation needed), so the
        // idiomatic `use std::sync::atomic::Ordering;` stays legal —
        // but a brace import smuggling atomic types does not.
        assert!(lint_one(
            "crates/live/src/x.rs",
            "use std::sync::atomic::Ordering;\nfn f(o: std::sync::atomic::Ordering) {}\n"
        )
        .is_empty());
        let f = lint_one(
            "crates/live/src/x.rs",
            "use std::sync::atomic::{AtomicBool, Ordering};\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "RIPS-L006");
    }

    #[test]
    fn l006_flags_park_family_but_not_thread_plumbing() {
        for call in ["park()", "park_timeout(d)", "current()", "yield_now()"] {
            let src = format!("fn f() {{ std::thread::{call}; }}\n");
            let f = lint_one("crates/live/src/x.rs", &src);
            assert_eq!(f.len(), 1, "std::thread::{call} escaped L006");
            assert_eq!(f[0].rule, "RIPS-L006");
            assert!(f[0].message.contains("vthread"), "{}", f[0].message);
        }
        // Real-thread plumbing has no vthread equivalent and stays
        // legal: spawning, sleeping, scoped threads, panic checks.
        let src = "fn f() { std::thread::sleep(d); std::thread::spawn(g); \
                   std::thread::scope(h); std::thread::panicking(); }\n";
        assert!(lint_one("crates/live/src/x.rs", src).is_empty());
        // The seam's own calls are what the rule pushes toward.
        assert!(lint_one("crates/live/src/x.rs", "fn f() { vthread::park(); }\n").is_empty());
    }

    #[test]
    fn l006_reasoned_suppression_works_like_the_others() {
        let src = "// rips-lint: allow(L006, watchdog thread is real-time by design)\n\
                   use std::sync::atomic::AtomicBool;\n";
        let (f, suppressed) = lint_source("crates/live/src/x.rs", src, false);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(suppressed, 1);
    }

    #[test]
    fn suppression_needs_reason() {
        let src = "// rips-lint: allow(L001)\nuse std::collections::HashMap;\n";
        let f = lint_one("crates/core/src/x.rs", src);
        // The reasonless allow is itself a finding, and does not
        // suppress.
        assert!(f.iter().any(|f| f.rule == "RIPS-L000"));
        assert!(f.iter().any(|f| f.rule == "RIPS-L001"));
    }

    #[test]
    fn reasoned_suppression_silences_next_line() {
        let src =
            "// rips-lint: allow(L001, checked: map is drained in sorted order)\nuse std::collections::HashMap;\n";
        let (f, suppressed) = lint_source("crates/core/src/x.rs", src, false);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(suppressed, 1);
    }

    #[test]
    fn reasoned_suppression_silences_same_line() {
        let src =
            "use std::collections::HashMap; // rips-lint: allow(RIPS-L001, test-only helper)\n";
        let (f, suppressed) = lint_source("crates/sched/src/x.rs", src, false);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(suppressed, 1);
    }

    #[test]
    fn suppression_does_not_leak_to_other_rules_or_lines() {
        let src = "// rips-lint: allow(L001, reason here)\nuse std::collections::HashMap;\nuse std::collections::HashSet;\n";
        let f = lint_one("crates/core/src/x.rs", src);
        assert_eq!(f.len(), 1); // line 3 not covered
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn l005_requires_docs_on_pub_items() {
        let lib = (
            "crates/foo/src/lib.rs".to_string(),
            "#![warn(missing_docs)]\n\n/// Documented.\npub fn ok() {}\n\npub fn bad() {}\n"
                .to_string(),
        );
        let report = lint_files(&[lib]);
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        assert_eq!(report.findings[0].rule, "RIPS-L005");
        assert_eq!(report.findings[0].line, 6);
        assert!(report.findings[0].message.contains("`bad`"));
    }

    #[test]
    fn l005_allows_attributes_between_doc_and_item() {
        let lib = (
            "crates/foo/src/lib.rs".to_string(),
            "#![warn(missing_docs)]\n/// Doc.\n#[derive(Debug, Clone)]\npub struct S;\npub use std::rc::Rc;\npub(crate) fn helper() {}\n".to_string(),
        );
        let report = lint_files(&[lib]);
        assert!(report.is_clean(), "{:?}", report.findings);
    }

    #[test]
    fn l005_exempts_out_of_line_mods_but_not_inline_ones() {
        let lib = (
            "crates/foo/src/lib.rs".to_string(),
            "#![warn(missing_docs)]\npub mod child;\npub mod inline { }\n".to_string(),
        );
        let report = lint_files(&[lib]);
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        assert!(report.findings[0].message.contains("`inline`"));
    }

    #[test]
    fn l005_skips_crates_without_the_attr() {
        let lib = (
            "crates/foo/src/lib.rs".to_string(),
            "pub fn undocumented() {}\n".to_string(),
        );
        assert!(lint_files(&[lib]).is_clean());
    }

    #[test]
    fn json_rendering_is_wellformed() {
        let report = LintReport {
            findings: vec![Finding {
                rule: "RIPS-L001",
                path: "a/b.rs".into(),
                line: 7,
                message: "quote \" and backslash \\".into(),
            }],
            files_checked: 3,
            suppressed: 2,
        };
        let json = report.render_json();
        assert!(json.contains("\"rule\":\"RIPS-L001\""));
        assert!(json.contains("\\\""));
        assert!(json.contains("\"count\":1"));
        assert!(json.ends_with("\"suppressed\":2}"));
    }

    #[test]
    fn every_scope_path_names_a_real_path() {
        // A stale entry silently scopes nothing.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let timing = TIMING_PATHS.iter().map(|(p, _)| *p);
        let unsafe_ok = UNSAFE_ALLOWLIST.iter().map(|(p, _)| *p);
        let all = DETERMINISTIC_CRATES
            .iter()
            .chain(VERIFY_SEAM_CRATES)
            .copied()
            .chain(timing)
            .chain(unsafe_ok)
            .chain([ENGINE_HOT_PATH]);
        for path in all {
            assert!(root.join(path).exists(), "{path} names nothing");
        }
    }

    #[test]
    fn normalizes_rule_ids() {
        assert_eq!(normalize_rule_id("L001").as_deref(), Some("RIPS-L001"));
        assert_eq!(normalize_rule_id("rips-l005").as_deref(), Some("RIPS-L005"));
        assert_eq!(normalize_rule_id("L009"), None);
        assert_eq!(normalize_rule_id("bogus"), None);
    }
}
