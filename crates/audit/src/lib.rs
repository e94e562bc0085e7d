//! # mx-audit — workspace static-analysis pass
//!
//! The workspace's correctness story leans on contracts no compiler pass
//! checks: every `unsafe` kernel block carries a written justification,
//! every `#[target_feature]` kernel is reachable only behind runtime CPU
//! detection, every test suite is actually wired into CI, every `MX_*`
//! environment knob is declared in one registry and documented, the
//! serving request path never panics, and the core-count query and every
//! `mx-core` / `mx-nn` thread spawn stay inside `mx_core::parallel`.
//! `mx-audit` turns those conventions into CI failures.
//!
//! The binary is dependency-free by design (the build container has no
//! crates.io access, so `syn` is off the table): [`lexer`] is a small
//! hand-rolled scanner that splits Rust source into code / comment /
//! string channels, and [`rules`] pattern-matches the channels. Run it
//! from the workspace root:
//!
//! ```text
//! cargo run -p mx-audit --release
//! ```
//!
//! Exit status is non-zero when any rule fires; findings print one per
//! line as `path:line: [rule] message`. Individual sites can be waived
//! with an `audit:allow(<rule-id>): <reason>` comment, which keeps every
//! exception greppable.

#![warn(missing_docs)]

pub mod lexer;
pub mod rules;

pub use rules::{run_all, Finding, SourceFile, Workspace};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into: build output, VCS metadata, the
/// vendored dependency stand-ins (external idioms, not ours to police),
/// and experiment outputs.
const SKIP_DIRS: &[&str] = &["target", ".git", "vendor", "results"];

/// Collects every auditable `.rs` path under `root`, sorted for
/// deterministic findings.
fn rust_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<_> = fs::read_dir(&dir)?.collect::<io::Result<Vec<_>>>()?;
        entries.sort_by_key(|e| e.file_name());
        for entry in entries {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// File stems of `*.rs` directly inside `dir` (empty when the directory
/// does not exist).
fn stems(dir: &Path) -> Vec<String> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut out: Vec<String> = entries
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let path = e.path();
            (path.extension().is_some_and(|x| x == "rs"))
                .then(|| path.file_stem().map(|s| s.to_string_lossy().into_owned()))
                .flatten()
        })
        .collect();
    out.sort();
    out
}

/// Loads the workspace at `root` into the form the rules consume.
pub fn load_workspace(root: &Path) -> io::Result<Workspace> {
    let mut files = Vec::new();
    for path in rust_files(root)? {
        let src = fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        files.push(SourceFile {
            path: rel,
            lex: lexer::lex(&src),
        });
    }
    Ok(Workspace {
        files,
        ci_yml: fs::read_to_string(root.join(".github/workflows/ci.yml")).unwrap_or_default(),
        readme: fs::read_to_string(root.join("README.md")).unwrap_or_default(),
        test_stems: stems(&root.join("tests")),
    })
}

/// Locates the workspace root: the current directory when it holds the
/// workspace `Cargo.toml`, else the crate's grandparent (so the binary
/// works both from the root and under `cargo run -p mx-audit` from
/// anywhere inside the tree).
pub fn workspace_root() -> PathBuf {
    if let Ok(cwd) = std::env::current_dir() {
        if fs::read_to_string(cwd.join("Cargo.toml"))
            .map(|s| s.contains("[workspace]"))
            .unwrap_or(false)
        {
            return cwd;
        }
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from("."))
}
