//! The auditor's own gate: the real workspace must audit clean. This is
//! the test that keeps the contracts honest — adding an undocumented
//! knob, an unjustified `unsafe`, an unwired test suite, or a panic on
//! the serve request path fails this suite before CI even reaches the
//! dedicated audit step.

use std::path::PathBuf;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_audits_clean() {
    let ws = mx_audit::load_workspace(&repo_root()).expect("workspace loads");
    // Sanity: the walker actually found the tree (guards against a silent
    // "0 files audited, 0 findings" pass if the layout moves).
    assert!(
        ws.files.len() > 40,
        "suspiciously few files audited: {}",
        ws.files.len()
    );
    assert!(!ws.ci_yml.is_empty(), "ci.yml not found");
    assert!(!ws.readme.is_empty(), "README.md not found");
    assert!(
        ws.test_stems.len() >= 5,
        "test suites not discovered: {:?}",
        ws.test_stems
    );

    let findings = mx_audit::run_all(&ws);
    assert!(
        findings.is_empty(),
        "workspace must audit clean; findings:\n{}",
        findings
            .iter()
            .map(|f| format!("  {f}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn every_rule_family_is_exercised_by_the_workspace() {
    // The clean pass must not be vacuous: the audited tree really contains
    // unsafe kernels, target_feature attributes, MX_ knobs, serve sources,
    // and a core-count query — i.e. each rule had something to look at.
    let ws = mx_audit::load_workspace(&repo_root()).expect("workspace loads");
    let any_line = |pat: &str| {
        ws.files
            .iter()
            .any(|f| f.lex.code.iter().any(|l| l.contains(pat)))
    };
    assert!(any_line("unsafe "), "no unsafe code found to audit");
    assert!(any_line("target_feature("), "no target_feature fns found");
    assert!(
        ws.files.iter().any(|f| f.path.ends_with("knobs.rs")),
        "knob registry missing"
    );
    assert!(
        ws.files
            .iter()
            .any(|f| f.path.starts_with("crates/serve/src")),
        "serve sources missing"
    );
    assert!(
        any_line("available_parallelism") && any_line("thread::scope"),
        "no thread-budget code found to audit"
    );
}
