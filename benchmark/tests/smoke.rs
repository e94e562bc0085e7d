//! The smoke test: the real binary in `--quick` mode (every workload, one
//! round of one second, the traced pass and the probes), then one workload
//! the way the driver calls it.

use std::path::Path;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_mx-benchmark");

fn names(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repo root");
    let flat: String = text.split_whitespace().collect();
    let start = flat.find(&format!("\"{section}\":[")).expect(section);
    let body = &flat[start..];
    let body = &body[..body.find(']').unwrap()];
    body.split("\"name\":\"")
        .skip(1)
        .map(|s| s[..s.find('"').unwrap()].to_owned())
        .collect()
}

/// One test, so the two runs do not share the box's two cores.
#[test]
fn smoke() {
    quick_mode_runs_every_workload_and_prints_every_metric();
    the_drivers_call_prints_exactly_the_end_to_end_metrics();
}

fn quick_mode_runs_every_workload_and_prints_every_metric() {
    let started = std::time::Instant::now();
    let out = Command::new(BIN)
        .arg("--quick")
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        started.elapsed().as_secs() < 60,
        "quick mode took {:?}",
        started.elapsed()
    );
    assert!(stdout.starts_with("# env: "), "{stdout}");
    let last = stdout.lines().last().unwrap();
    assert!(
        last.starts_with("{\"correct\":true,\"attempted\":"),
        "{last}"
    );
    for workload in names("workloads") {
        assert!(
            stdout.contains(&format!("== {workload} ==")),
            "{workload} missing"
        );
        for metric in names("per_layer") {
            assert!(
                last.contains(&format!("\"{workload}/{metric}\":{{\"value\":")),
                "{workload}/{metric}"
            );
        }
        let trace =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/trace_{workload}.json"));
        let text = std::fs::read_to_string(&trace).expect("trace file written");
        assert!(text.contains("\"spans\":["), "{}", trace.display());
    }
    for metric in names("end_to_end").iter().chain(&names("per_layer")) {
        assert!(
            stdout.contains(&format!("  {metric} ")),
            "{metric} not printed"
        );
    }
    let results =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/out/results.json")).unwrap();
    assert!(results.contains("\"git_sha\"") && results.contains("\"kernel_backend\""));
}

fn the_drivers_call_prints_exactly_the_end_to_end_metrics() {
    let out = Command::new(BIN)
        .args([
            "--workload",
            "dense_sync",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap();
    assert!(
        last.starts_with("{\"correct\":true,\"attempted\":"),
        "{last}"
    );
    let e2e = names("end_to_end");
    for metric in &e2e {
        assert!(
            last.contains(&format!("\"{metric}\":{{\"value\":")),
            "{metric}"
        );
    }
    assert_eq!(last.matches("\"unit\":").count(), e2e.len());
    let unknown = Command::new(BIN)
        .args(["--workload", "nope"])
        .output()
        .unwrap();
    assert_eq!(unknown.status.code(), Some(2));
}
