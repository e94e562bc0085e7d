//! CI entry point: audit the workspace, print findings, fail on any.

use std::process::ExitCode;

fn main() -> ExitCode {
    let root = mx_audit::workspace_root();
    let ws = match mx_audit::load_workspace(&root) {
        Ok(ws) => ws,
        Err(err) => {
            eprintln!(
                "mx-audit: cannot load workspace at {}: {err}",
                root.display()
            );
            return ExitCode::FAILURE;
        }
    };
    let findings = mx_audit::run_all(&ws);
    for finding in &findings {
        println!("{finding}");
    }
    if findings.is_empty() {
        println!(
            "mx-audit: OK — {} files, {} test suites audited",
            ws.files.len(),
            ws.test_stems.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("mx-audit: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}
