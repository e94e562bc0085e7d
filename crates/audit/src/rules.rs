//! The six rule families `mx-audit` enforces, each a pure function from a
//! [`Workspace`] to findings.
//!
//! | id | contract |
//! |---|---|
//! | `unsafe-safety` | every `unsafe` block/item carries a `SAFETY` justification |
//! | `target-feature` | `#[target_feature]` fns are unsafe, non-`pub`, and runtime-detected |
//! | `ci-wiring` | every test suite is named in the CI workflow |
//! | `env-knobs` | `MX_*` env reads ⊆ knob registry ⊆ README table, and back |
//! | `serve-panic` | no panic paths in `crates/serve` request handling |
//! | `thread-budget` | the core-count query and `mx-core`/`mx-nn` thread spawns live only in `parallel.rs` |
//!
//! A finding on a specific line can be suppressed with a comment
//! `audit:allow(<rule-id>): <reason>` on the same line or in the comment
//! run directly above it — the suppression is itself greppable, so the
//! escape hatch leaves a paper trail.

use crate::lexer::{find_word, LexedFile};
use std::collections::BTreeSet;
use std::fmt;
use std::path::PathBuf;

/// One source file of the workspace under audit.
pub struct SourceFile {
    /// Path relative to the workspace root, with `/` separators.
    pub path: String,
    /// Channel-split source.
    pub lex: LexedFile,
}

/// Everything the rules look at, loaded once.
pub struct Workspace {
    /// Every non-vendored `.rs` file.
    pub files: Vec<SourceFile>,
    /// `.github/workflows/ci.yml`, verbatim.
    pub ci_yml: String,
    /// `README.md`, verbatim.
    pub readme: String,
    /// Stems of `tests/*.rs` integration suites.
    pub test_stems: Vec<String>,
}

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule family id (e.g. `unsafe-safety`).
    pub rule: &'static str,
    /// File the finding is in, relative to the workspace root.
    pub path: PathBuf,
    /// 1-based line (0 for file-level findings).
    pub line: usize,
    /// Human-readable defect statement.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Runs every rule over the workspace, findings in file order.
pub fn run_all(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    rule_unsafe_safety(ws, &mut findings);
    rule_target_feature(ws, &mut findings);
    rule_ci_wiring(ws, &mut findings);
    rule_env_knobs(ws, &mut findings);
    rule_serve_panic(ws, &mut findings);
    rule_thread_budget(ws, &mut findings);
    findings
}

impl SourceFile {
    /// True when line `idx` (0-based) carries an `audit:allow(rule)` tag on
    /// the same line or in the contiguous comment run directly above.
    fn allowed(&self, rule: &str, idx: usize) -> bool {
        let tag = format!("audit:allow({rule})");
        let has = |i: usize| self.lex.comments.get(i).is_some_and(|c| c.contains(&tag));
        if has(idx) {
            return true;
        }
        let mut i = idx;
        while i > 0 {
            i -= 1;
            let code_empty = self.lex.code.get(i).is_none_or(|c| c.trim().is_empty());
            let has_comment = self.lex.comments.get(i).is_some_and(|c| !c.is_empty());
            if !(code_empty && has_comment) {
                return false;
            }
            if has(i) {
                return true;
            }
        }
        false
    }

    /// 0-based line mask of `#[cfg(test)]`-gated module bodies, so rules
    /// about production paths can skip test code.
    fn test_mask(&self) -> Vec<bool> {
        let mut mask = vec![false; self.lex.code.len()];
        let mut i = 0;
        while i < self.lex.code.len() {
            if !self.lex.code[i].contains("#[cfg(test)]") {
                i += 1;
                continue;
            }
            // Find the gated item's opening brace, then match it.
            let mut depth: i64 = 0;
            let mut opened = false;
            let mut j = i;
            while j < self.lex.code.len() {
                for ch in self.lex.code[j].chars() {
                    match ch {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                mask[j] = true;
                if opened && depth <= 0 {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        }
        mask
    }

    /// First non-whitespace token of the code channel at/after
    /// `(idx, col)`, scanning forward across lines.
    fn next_code_token(&self, idx: usize, col: usize) -> Option<String> {
        let mut line = idx;
        let mut start = col;
        while line < self.lex.code.len() {
            let code = &self.lex.code[line];
            let rest: String = code.chars().skip(start).collect();
            let trimmed = rest.trim_start();
            if !trimmed.is_empty() {
                let mut tok = String::new();
                for c in trimmed.chars() {
                    let ident = c.is_ascii_alphanumeric() || c == '_';
                    if tok.is_empty()
                        || (ident && tok.chars().all(|t| t.is_ascii_alphanumeric() || t == '_'))
                    {
                        tok.push(c);
                        if !ident {
                            break;
                        }
                    } else {
                        break;
                    }
                }
                return Some(tok);
            }
            line += 1;
            start = 0;
        }
        None
    }

    /// Comment text of the contiguous comment/attribute run directly above
    /// line `idx` plus line `idx` itself — where `SAFETY` justifications
    /// and `# Safety` doc sections live.
    fn leading_comment_text(&self, idx: usize) -> String {
        let mut text = self.lex.comments.get(idx).cloned().unwrap_or_default();
        let mut i = idx;
        while i > 0 {
            i -= 1;
            let code = self.lex.code.get(i).map(|c| c.trim()).unwrap_or("");
            let comment = self.lex.comments.get(i).map(String::as_str).unwrap_or("");
            let is_comment_line = code.is_empty() && !comment.is_empty();
            let is_attr_line = code.starts_with("#[") || code.starts_with("#!");
            if !(is_comment_line || is_attr_line) {
                break;
            }
            text.push('\n');
            text.push_str(comment);
        }
        text
    }

    /// The crate this file belongs to: its first two path components
    /// (`crates/core`), or the first for root-level files.
    fn crate_key(&self) -> String {
        let parts: Vec<&str> = self.path.split('/').collect();
        match parts.as_slice() {
            [a, b, ..] => format!("{a}/{b}"),
            [a] => (*a).to_string(),
            [] => String::new(),
        }
    }
}

/// Rule `unsafe-safety`: every `unsafe {}` block needs a `SAFETY:` comment
/// on the same line or directly above; every `unsafe fn`/`unsafe impl`/
/// `unsafe trait`/`unsafe extern` needs a safety section in its docs.
fn rule_unsafe_safety(ws: &Workspace, findings: &mut Vec<Finding>) {
    const RULE: &str = "unsafe-safety";
    for f in &ws.files {
        for (idx, code) in f.lex.code.iter().enumerate() {
            for at in find_word(code, "unsafe") {
                let col = code.char_indices().take_while(|&(b, _)| b < at).count() + "unsafe".len();
                let Some(tok) = f.next_code_token(idx, col) else {
                    continue;
                };
                if tok == "{" {
                    let ctx = f.leading_comment_text(idx);
                    if !ctx.contains("SAFETY") && !f.allowed(RULE, idx) {
                        findings.push(Finding {
                            rule: RULE,
                            path: PathBuf::from(&f.path),
                            line: idx + 1,
                            message: "unsafe block without an adjacent `// SAFETY:` comment".into(),
                        });
                    }
                } else if matches!(tok.as_str(), "fn" | "impl" | "trait" | "extern") {
                    let ctx = f.leading_comment_text(idx).to_lowercase();
                    if !ctx.contains("safety") && !f.allowed(RULE, idx) {
                        findings.push(Finding {
                            rule: RULE,
                            path: PathBuf::from(&f.path),
                            line: idx + 1,
                            message: format!("unsafe {tok} without a safety contract in its docs"),
                        });
                    }
                }
            }
        }
    }
}

/// Rule `target-feature`: a `#[target_feature(enable = "X")]` fn must be
/// `unsafe`, must not be bare-`pub`, and `X` must be runtime-gated by
/// `is_x86_feature_detected!("X")` somewhere in the same crate. `sse2` is
/// exempt from detection — it is part of the x86-64 baseline ABI.
fn rule_target_feature(ws: &Workspace, findings: &mut Vec<Finding>) {
    const RULE: &str = "target-feature";
    // Crate → features runtime-detected anywhere in it.
    let mut detected: BTreeSet<(String, String)> = BTreeSet::new();
    for f in &ws.files {
        for (idx, code) in f.lex.code.iter().enumerate() {
            if !code.contains("is_x86_feature_detected") {
                continue;
            }
            for (line, s) in &f.lex.strings {
                if *line == idx + 1 {
                    detected.insert((f.crate_key(), s.clone()));
                }
            }
        }
    }
    for f in &ws.files {
        for (idx, code) in f.lex.code.iter().enumerate() {
            if !code.contains("#[target_feature(") {
                continue;
            }
            let feats: Vec<String> = f
                .lex
                .strings
                .iter()
                .filter(|(line, _)| *line == idx + 1)
                .flat_map(|(_, s)| s.split(','))
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect();
            // The annotated fn: first following line whose code declares one.
            let Some(fn_idx) = (idx..f.lex.code.len().min(idx + 8))
                .find(|&j| !find_word(&f.lex.code[j], "fn").is_empty())
            else {
                continue;
            };
            let decl = &f.lex.code[fn_idx];
            if find_word(decl, "unsafe").is_empty() && !f.allowed(RULE, idx) {
                findings.push(Finding {
                    rule: RULE,
                    path: PathBuf::from(&f.path),
                    line: fn_idx + 1,
                    message: "#[target_feature] fn must be `unsafe fn` (callers must check \
                              CPU support first)"
                        .into(),
                });
            }
            let trimmed = decl.trim_start();
            if trimmed.starts_with("pub ") && !f.allowed(RULE, idx) {
                findings.push(Finding {
                    rule: RULE,
                    path: PathBuf::from(&f.path),
                    line: fn_idx + 1,
                    message: "#[target_feature] fn must not be `pub`: export a safe \
                              detected-dispatch wrapper instead"
                        .into(),
                });
            }
            let krate = f.crate_key();
            for feat in feats {
                if feat == "sse2" {
                    continue;
                }
                if !detected.contains(&(krate.clone(), feat.clone())) && !f.allowed(RULE, idx) {
                    findings.push(Finding {
                        rule: RULE,
                        path: PathBuf::from(&f.path),
                        line: idx + 1,
                        message: format!(
                            "feature {feat:?} is enabled here but never gated by \
                             is_x86_feature_detected!({feat:?}) in {krate}"
                        ),
                    });
                }
            }
        }
    }
}

/// Rule `ci-wiring`: every `tests/*.rs` suite must be named with
/// `--test <stem>` in the CI workflow.
fn rule_ci_wiring(ws: &Workspace, findings: &mut Vec<Finding>) {
    const RULE: &str = "ci-wiring";
    for stem in &ws.test_stems {
        if !ws.ci_yml.contains(&format!("--test {stem}")) {
            findings.push(Finding {
                rule: RULE,
                path: PathBuf::from(".github/workflows/ci.yml"),
                line: 0,
                message: format!("test suite tests/{stem}.rs is not named (`--test {stem}`) in CI"),
            });
        }
    }
}

/// True when `s` is shaped like an environment-knob name: `MX_` plus a
/// non-empty `[A-Z0-9_]` tail.
fn is_knob_name(s: &str) -> bool {
    s.len() > 3
        && s.starts_with("MX_")
        && s[3..]
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

/// `MX_*`-shaped tokens appearing anywhere in free text (the README).
fn knob_tokens(text: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for raw in text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')) {
        if is_knob_name(raw) {
            out.insert(raw.to_string());
        }
    }
    out
}

/// Rule `env-knobs`: the registry in `crates/core/src/knobs.rs` is the
/// single source of truth for `MX_*` environment variables. Every `MX_*`
/// string literal in production code must be registered, every registered
/// knob must be documented in the README, and the README must not document
/// phantom knobs.
fn rule_env_knobs(ws: &Workspace, findings: &mut Vec<Finding>) {
    const RULE: &str = "env-knobs";
    const REGISTRY: &str = "crates/core/src/knobs.rs";
    let registry: BTreeSet<String> = ws
        .files
        .iter()
        .filter(|f| f.path.ends_with(REGISTRY) || f.path == REGISTRY)
        .flat_map(|f| f.lex.strings.iter())
        .filter(|(_, s)| is_knob_name(s))
        .map(|(_, s)| s.clone())
        .collect();
    if registry.is_empty() {
        findings.push(Finding {
            rule: RULE,
            path: PathBuf::from(REGISTRY),
            line: 0,
            message: "knob registry is missing or declares no MX_* knobs".into(),
        });
        return;
    }
    for f in &ws.files {
        if f.path == REGISTRY {
            continue;
        }
        let mask = f.test_mask();
        for (line, s) in &f.lex.strings {
            if is_knob_name(s)
                && !registry.contains(s.as_str())
                && !mask.get(line.saturating_sub(1)).copied().unwrap_or(false)
                && !f.allowed(RULE, line.saturating_sub(1))
            {
                findings.push(Finding {
                    rule: RULE,
                    path: PathBuf::from(&f.path),
                    line: *line,
                    message: format!("env knob {s:?} is not declared in mx_core::knobs::KNOBS"),
                });
            }
        }
    }
    let documented = knob_tokens(&ws.readme);
    for k in &registry {
        if !documented.contains(k) {
            findings.push(Finding {
                rule: RULE,
                path: PathBuf::from("README.md"),
                line: 0,
                message: format!("declared knob {k:?} is not documented in the README"),
            });
        }
    }
    for k in &documented {
        if !registry.contains(k) {
            findings.push(Finding {
                rule: RULE,
                path: PathBuf::from("README.md"),
                line: 0,
                message: format!(
                    "README documents {k:?}, which is not declared in mx_core::knobs::KNOBS"
                ),
            });
        }
    }
}

/// Rule `serve-panic`: production code in `crates/serve/src` must not
/// contain panic paths — `.unwrap()`, `.expect(`, panicking macros,
/// asserts, or bracket indexing — outside `#[cfg(test)]` modules and
/// explicit `audit:allow(serve-panic)` sites.
fn rule_serve_panic(ws: &Workspace, findings: &mut Vec<Finding>) {
    const RULE: &str = "serve-panic";
    const SUBSTRINGS: &[&str] = &[".unwrap()", ".expect("];
    const MACROS: &[&str] = &[
        "panic!",
        "unreachable!",
        "todo!",
        "unimplemented!",
        "assert!",
        "assert_eq!",
        "assert_ne!",
    ];
    for f in &ws.files {
        if !f.path.starts_with("crates/serve/src") {
            continue;
        }
        let mask = f.test_mask();
        for (idx, code) in f.lex.code.iter().enumerate() {
            if mask.get(idx).copied().unwrap_or(false) || f.allowed(RULE, idx) {
                continue;
            }
            for pat in SUBSTRINGS {
                if code.contains(pat) {
                    findings.push(Finding {
                        rule: RULE,
                        path: PathBuf::from(&f.path),
                        line: idx + 1,
                        message: format!(
                            "`{pat}` on the serve request path: return a ServeError instead"
                        ),
                    });
                }
            }
            for mac in MACROS {
                let word = &mac[..mac.len() - 1];
                if find_word(code, word)
                    .iter()
                    .any(|&at| code[at + word.len()..].starts_with('!'))
                {
                    findings.push(Finding {
                        rule: RULE,
                        path: PathBuf::from(&f.path),
                        line: idx + 1,
                        message: format!(
                            "`{mac}` on the serve request path: return a ServeError instead"
                        ),
                    });
                }
            }
            if has_index_expr(code) {
                findings.push(Finding {
                    rule: RULE,
                    path: PathBuf::from(&f.path),
                    line: idx + 1,
                    message: "bracket indexing on the serve request path can panic: use \
                              `.get()`/`.chunks()` and return a ServeError"
                        .into(),
                });
            }
        }
    }
}

/// Rule `thread-budget`: `mx_core::parallel` is the one place that asks the
/// OS for the core count (once per process — the query is a 12–17 µs
/// syscall round that used to run once per GEMM) and the one place `mx-core`
/// and `mx-nn` start threads (so every fan-out goes through its grain and
/// span policy). Outside `crates/core/src/parallel.rs`, production code
/// under `crates/` must not name `available_parallelism`, and production
/// code in `crates/core` / `crates/nn` must not spawn or scope threads.
fn rule_thread_budget(ws: &Workspace, findings: &mut Vec<Finding>) {
    const RULE: &str = "thread-budget";
    const HOME: &str = "crates/core/src/parallel.rs";
    const SPAWNS: &[&str] = &["thread::scope", "thread::spawn", "thread::Builder"];
    for f in &ws.files {
        if !f.path.starts_with("crates/") || f.path == HOME {
            continue;
        }
        let spawn_free = matches!(f.crate_key().as_str(), "crates/core" | "crates/nn");
        let mask = f.test_mask();
        for (idx, code) in f.lex.code.iter().enumerate() {
            if mask.get(idx).copied().unwrap_or(false) || f.allowed(RULE, idx) {
                continue;
            }
            let mut report = |message: String| {
                findings.push(Finding {
                    rule: RULE,
                    path: PathBuf::from(&f.path),
                    line: idx + 1,
                    message,
                });
            };
            if !find_word(code, "available_parallelism").is_empty() {
                report(format!(
                    "`available_parallelism` outside {HOME}: call \
                     mx_core::parallel::default_threads(), which resolves it once"
                ));
            }
            for pat in SPAWNS {
                if spawn_free && code.contains(pat) {
                    report(format!(
                        "`{pat}` in {}: fan out through mx_core::parallel instead",
                        f.crate_key()
                    ));
                }
            }
        }
    }
}

/// True when the line contains `expr[...]` indexing: a `[` whose previous
/// non-space character ends an expression (identifier, `)`, or `]`).
/// Attribute (`#[...]`), macro (`vec![...]`), and type/array positions do
/// not match.
fn has_index_expr(code: &str) -> bool {
    let chars: Vec<char> = code.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        if c != '[' {
            continue;
        }
        let prev = chars[..i].iter().rev().find(|ch| !ch.is_whitespace());
        if let Some(&p) = prev {
            if p.is_ascii_alphanumeric() || p == '_' || p == ')' || p == ']' {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn file(path: &str, src: &str) -> SourceFile {
        SourceFile {
            path: path.to_string(),
            lex: lex(src),
        }
    }

    fn ws(files: Vec<SourceFile>) -> Workspace {
        Workspace {
            files,
            ci_yml: String::new(),
            readme: String::new(),
            test_stems: Vec::new(),
        }
    }

    fn knobs_fixture() -> SourceFile {
        file(
            "crates/core/src/knobs.rs",
            "pub const KNOBS: &[(&str, &str)] = &[\n    (\"MX_DEMO\", \"demo\"),\n];\n",
        )
    }

    #[test]
    fn unsafe_block_without_safety_comment_fires() {
        let w = ws(vec![file(
            "crates/core/src/k.rs",
            "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n",
        )]);
        let mut found = Vec::new();
        rule_unsafe_safety(&w, &mut found);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, "unsafe-safety");
        assert_eq!(found[0].line, 2);
    }

    #[test]
    fn unsafe_block_with_safety_comment_is_clean() {
        let w = ws(vec![file(
            "crates/core/src/k.rs",
            "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}\n",
        )]);
        let mut found = Vec::new();
        rule_unsafe_safety(&w, &mut found);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn unsafe_fn_needs_safety_docs_and_allow_suppresses() {
        let src = "unsafe fn raw() {}\n\n// audit:allow(unsafe-safety): fixture.\nunsafe fn raw2() {}\n\n/// # Safety\n/// Caller checks bounds.\nunsafe fn raw3() {}\n";
        let w = ws(vec![file("crates/core/src/k.rs", src)]);
        let mut found = Vec::new();
        rule_unsafe_safety(&w, &mut found);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 1);
    }

    #[test]
    fn unsafe_in_comments_and_strings_is_ignored() {
        let src =
            "// this mentions unsafe { } freely\nfn f() { let s = \"unsafe { }\"; let _ = s; }\n";
        let w = ws(vec![file("crates/core/src/k.rs", src)]);
        let mut found = Vec::new();
        rule_unsafe_safety(&w, &mut found);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn target_feature_requires_unsafe_and_detection() {
        let src = "#[target_feature(enable = \"avx2\")]\nfn fast() {}\n";
        let w = ws(vec![file("crates/core/src/k.rs", src)]);
        let mut found = Vec::new();
        rule_target_feature(&w, &mut found);
        // Not unsafe + avx2 never detected in the crate = two findings.
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found.iter().all(|f| f.rule == "target-feature"));
    }

    #[test]
    fn target_feature_detected_unsafe_private_is_clean() {
        let kernel = "/// # Safety\n/// Requires AVX2.\n#[target_feature(enable = \"avx2\")]\nunsafe fn fast() {}\n";
        let gate = "fn pick() -> bool { std::arch::is_x86_feature_detected!(\"avx2\") }\n";
        let w = ws(vec![
            file("crates/core/src/kern.rs", kernel),
            file("crates/core/src/gate.rs", gate),
        ]);
        let mut found = Vec::new();
        rule_target_feature(&w, &mut found);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn target_feature_pub_fn_fires() {
        let src = "#[target_feature(enable = \"sse2\")]\npub unsafe fn fast() {}\n";
        let w = ws(vec![file("crates/core/src/k.rs", src)]);
        let mut found = Vec::new();
        rule_target_feature(&w, &mut found);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("must not be `pub`"));
    }

    #[test]
    fn target_feature_avx512_multi_feature_attr_needs_every_gate() {
        // Comma-separated feature lists (the AVX-512 kernel style) are
        // checked feature by feature: a VNNI-featured fn in a crate that
        // only gates the F/BW baseline fires on exactly the missing name.
        let kernel = "/// # Safety\n/// Requires AVX-512 F/BW/VNNI.\n#[target_feature(enable = \"avx512f,avx512bw,avx512vnni\")]\nunsafe fn fused() {}\n";
        let gate = "fn baseline() -> bool {\n    std::arch::is_x86_feature_detected!(\"avx512f\")\n        && std::arch::is_x86_feature_detected!(\"avx512bw\")\n}\n";
        let w = ws(vec![
            file("crates/core/src/kern.rs", kernel),
            file("crates/core/src/gate.rs", gate),
        ]);
        let mut found = Vec::new();
        rule_target_feature(&w, &mut found);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("\"avx512vnni\""), "{found:?}");
    }

    #[test]
    fn target_feature_avx512_detected_unsafe_private_is_clean() {
        // The full AVX-512 kernel contract: private `unsafe fn`s behind a
        // comma-separated feature attr, every name (including the
        // separately detected VNNI) runtime-gated in the same crate.
        let kernel = "/// # Safety\n/// Requires AVX-512 F/BW.\n#[target_feature(enable = \"avx512f,avx512bw\")]\nunsafe fn wide() {}\n\n/// # Safety\n/// Requires AVX-512 F/BW/VNNI.\n#[target_feature(enable = \"avx512f,avx512bw,avx512vnni\")]\nunsafe fn fused() {}\n";
        let gate = "fn gates() -> bool {\n    std::arch::is_x86_feature_detected!(\"avx512f\")\n        && std::arch::is_x86_feature_detected!(\"avx512bw\")\n        && std::arch::is_x86_feature_detected!(\"avx512vnni\")\n}\n";
        let w = ws(vec![
            file("crates/core/src/kern.rs", kernel),
            file("crates/core/src/gate.rs", gate),
        ]);
        let mut found = Vec::new();
        rule_target_feature(&w, &mut found);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn target_feature_generic_entry_over_an_inlined_body_is_clean() {
        // The vector GEMM's shape: one generic `#[inline(always)]` body,
        // no feature attr of its own, compiled only inside restricted-
        // visibility generic entry points whose signatures span lines.
        let body = "/// # Safety\n/// Inline into a fn enabling the ISA.\n#[inline(always)]\npub(super) unsafe fn span<L: Lanes, const D: usize>(x: usize) {}\n";
        let entry = "/// # Safety\n/// Requires AVX-512 F/BW/VNNI.\n#[target_feature(enable = \"avx512f,avx512bw,avx512vnni\")]\npub(super) unsafe fn span_vnni<A, B, const DIGITS: usize>(\n    x: usize,\n) {\n    // SAFETY: same ISA.\n    unsafe { span::<Zmm<true>, DIGITS>(x) }\n}\n";
        let gate = "fn gates() -> bool {\n    std::arch::is_x86_feature_detected!(\"avx512f\")\n        && std::arch::is_x86_feature_detected!(\"avx512bw\")\n        && std::arch::is_x86_feature_detected!(\"avx512vnni\")\n}\n";
        let w = ws(vec![
            file("crates/core/src/body.rs", body),
            file("crates/core/src/kern.rs", entry),
            file("crates/core/src/gate.rs", gate),
        ]);
        let mut found = Vec::new();
        rule_target_feature(&w, &mut found);
        assert!(found.is_empty(), "{found:?}");
        // Without the gates the entry, not the body, fires once per feature.
        let w = ws(vec![
            file("crates/core/src/body.rs", body),
            file("crates/core/src/kern.rs", entry),
        ]);
        let mut found = Vec::new();
        rule_target_feature(&w, &mut found);
        assert_eq!(found.len(), 3, "{found:?}");
        assert!(
            found.iter().all(|f| f.path.ends_with("kern.rs")),
            "{found:?}"
        );
    }

    #[test]
    fn ci_wiring_flags_unnamed_suites_and_benches() {
        let mut w = ws(vec![]);
        w.test_stems = vec!["alpha".into(), "beta".into()];
        w.ci_yml = "run: cargo test -q --test alpha\n".into();
        let mut found = Vec::new();
        rule_ci_wiring(&w, &mut found);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("beta"));
    }

    #[test]
    fn env_knobs_flags_unregistered_reads_and_readme_drift() {
        let reader = file(
            "crates/bench/src/lib.rs",
            "fn f() { let _ = std::env::var(\"MX_ROGUE\"); }\n",
        );
        let mut w = ws(vec![knobs_fixture(), reader]);
        w.readme = "| `MX_DEMO` | demo |\n| `MX_GHOST` | never declared |\n".into();
        let mut found = Vec::new();
        rule_env_knobs(&w, &mut found);
        let msgs: Vec<&str> = found.iter().map(|f| f.message.as_str()).collect();
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(msgs[0].contains("ROGUE"), "{msgs:?}");
        assert!(msgs[1].contains("GHOST"), "{msgs:?}");
    }

    #[test]
    fn env_knobs_clean_when_registry_and_readme_agree() {
        let reader = file(
            "crates/bench/src/lib.rs",
            "fn f() { let _ = mx_core::knobs::raw(\"MX_DEMO\"); }\n",
        );
        let mut w = ws(vec![knobs_fixture(), reader]);
        w.readme = "| `MX_DEMO` | demo |\n".into();
        let mut found = Vec::new();
        rule_env_knobs(&w, &mut found);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn missing_registry_is_itself_a_finding() {
        let w = ws(vec![]);
        let mut found = Vec::new();
        rule_env_knobs(&w, &mut found);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("registry"));
    }

    #[test]
    fn serve_panic_flags_each_pattern() {
        let src = "fn handle(v: &[f32], i: usize) -> f32 {\n    let x = v[i];\n    let y: Option<f32> = None;\n    let y = y.unwrap();\n    assert!(x > 0.0);\n    if x > 1.0 { panic!(\"no\") }\n    x + y\n}\n";
        let w = ws(vec![file("crates/serve/src/lib.rs", src)]);
        let mut found = Vec::new();
        rule_serve_panic(&w, &mut found);
        assert_eq!(found.len(), 4, "{found:?}");
    }

    #[test]
    fn serve_panic_skips_tests_allows_and_other_crates() {
        let src = "fn ok(v: &[f32]) -> f32 {\n    // audit:allow(serve-panic): demo.\n    v[0]\n}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { assert_eq!(1, 1); let v = vec![1]; let _ = v[0]; }\n}\n";
        let serve = file("crates/serve/src/lib.rs", src);
        let core = file(
            "crates/core/src/lib.rs",
            "fn fine(v: &[f32]) -> f32 { v[0] }\n",
        );
        let w = ws(vec![serve, core]);
        let mut found = Vec::new();
        rule_serve_panic(&w, &mut found);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn serve_panic_ignores_non_panicking_lookalikes() {
        let src = "fn ok(v: Option<u32>) -> u32 {\n    let a = vec![0u32; 4];\n    debug_assert!(!a.is_empty());\n    v.unwrap_or_else(|| a.first().copied().unwrap_or(0))\n}\n";
        let w = ws(vec![file("crates/serve/src/lib.rs", src)]);
        let mut found = Vec::new();
        rule_serve_panic(&w, &mut found);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn thread_budget_flags_core_count_queries_and_ad_hoc_spawns() {
        let query = "fn n() -> usize {\n    std::thread::available_parallelism().map_or(4, |n| n.get())\n}\n";
        let spawn = "fn go() {\n    std::thread::scope(|s| {\n        s.spawn(|| ());\n    });\n    let _ = std::thread::spawn(|| ());\n}\n";
        let w = ws(vec![
            file("crates/bench/src/lib.rs", query),
            file("crates/nn/src/tensor.rs", query),
            file("crates/core/src/gemm/mod.rs", spawn),
            file("crates/nn/src/plan.rs", spawn),
        ]);
        let mut found = Vec::new();
        rule_thread_budget(&w, &mut found);
        assert_eq!(found.len(), 6, "{found:?}");
        assert!(found.iter().all(|f| f.rule == "thread-budget"));
        assert_eq!(
            found.iter().map(|f| f.line).collect::<Vec<_>>(),
            [2, 2, 2, 5, 2, 5]
        );
    }

    #[test]
    fn thread_budget_allows_parallel_rs_tests_other_crates_and_waivers() {
        let both = "fn n() -> usize {\n    std::thread::scope(|_| ());\n    std::thread::available_parallelism().map_or(4, |n| n.get())\n}\n";
        let spawn = "fn go() {\n    let _ = std::thread::spawn(|| ());\n}\n";
        let in_test = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        std::thread::spawn(|| ()).join().unwrap();\n    }\n}\n";
        let waived = "fn go() {\n    // audit:allow(thread-budget): fixture.\n    let _ = std::thread::spawn(|| ());\n}\n// available_parallelism and thread::spawn in a comment\nconst S: &str = \"thread::scope available_parallelism\";\n";
        let w = ws(vec![
            file("crates/core/src/parallel.rs", both),
            // mx-serve owns its worker threads; the benchmark package and
            // the integration suites are outside `crates/`.
            file("crates/serve/src/lib.rs", spawn),
            file("benchmark/src/env.rs", both),
            file("tests/weight_cache.rs", both),
            file("crates/nn/src/qflow.rs", in_test),
            file("crates/core/src/engine.rs", waived),
        ]);
        let mut found = Vec::new();
        rule_thread_budget(&w, &mut found);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn index_detection_boundaries() {
        assert!(has_index_expr("let x = v[i];"));
        assert!(has_index_expr("rows[0][1]"));
        assert!(!has_index_expr("#[derive(Debug)]"));
        assert!(!has_index_expr("let a = vec![1, 2];"));
        assert!(!has_index_expr("let a: [u8; 4] = make();"));
    }
}
