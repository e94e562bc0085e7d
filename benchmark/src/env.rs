//! The environment header: what a number was measured on. Printed first and
//! stored in `results.json`, so two result files can be told apart before
//! their numbers are compared.

use crate::json::Writer;
use std::process::Command;

/// Everything that can change a number without a code change.
pub struct Environment {
    pub git_sha: String,
    pub nproc: usize,
    pub rustc: String,
    pub kernel_backend: &'static str,
    pub deferred_scale_out: bool,
    /// Every registered knob with its value, `None` when unset.
    pub knobs: Vec<(&'static str, Option<String>)>,
}

/// First line of a command's standard output, `unknown` when it cannot run.
fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

impl Environment {
    pub fn probe() -> Self {
        Environment {
            // The driver's checkout is not a git repository: `unknown` there.
            git_sha: first_line("git", &["rev-parse", "--short=12", "HEAD"]),
            nproc: std::thread::available_parallelism().map_or(0, usize::from),
            rustc: first_line("rustc", &["--version"]),
            kernel_backend: mx_core::gemm::kernel_backend_name(),
            deferred_scale_out: mx_core::gemm::deferred_scale_out_enabled(),
            // Iterating the registry keeps this file free of knob names: a
            // knob added later is reported without an edit here.
            knobs: mx_core::knobs::KNOBS
                .iter()
                .map(|&(name, _)| (name, mx_core::knobs::raw(name)))
                .collect(),
        }
    }

    /// A run with any registered knob set measures a different program: its
    /// numbers are labelled and must not be compared with standard runs.
    pub fn nonstandard(&self) -> bool {
        self.knobs.iter().any(|(_, v)| v.is_some())
    }

    pub fn label(&self) -> &'static str {
        if self.nonstandard() {
            "nonstandard"
        } else {
            "standard"
        }
    }

    pub fn print(&self) {
        println!(
            "# env: {} | git {} | nproc {} | {} | backend {} | deferral {}",
            self.label(),
            self.git_sha,
            self.nproc,
            self.rustc,
            self.kernel_backend,
            if self.deferred_scale_out { "on" } else { "off" },
        );
        let knobs: Vec<String> = self
            .knobs
            .iter()
            .map(|(k, v)| format!("{k}={}", v.as_deref().unwrap_or("<unset>")))
            .collect();
        println!("# knobs: {}", knobs.join(" "));
        if self.nonstandard() {
            println!("# NONSTANDARD: a registered knob is set; these numbers are not comparable");
        }
    }

    pub fn write_json(&self, w: &mut Writer) {
        w.begin_obj();
        w.key("label").str(self.label());
        w.key("git_sha").str(&self.git_sha);
        w.key("nproc").uint(self.nproc as u64);
        w.key("rustc").str(&self.rustc);
        w.key("kernel_backend").str(self.kernel_backend);
        w.key("deferred_scale_out").bool(self.deferred_scale_out);
        w.key("knobs").begin_obj();
        for (k, v) in &self.knobs {
            match v {
                Some(v) => w.key(k).str(v),
                None => w.key(k).null(),
            };
        }
        w.end_obj();
        w.end_obj();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_lists_every_registered_knob() {
        let env = Environment::probe();
        assert_eq!(env.knobs.len(), mx_core::knobs::KNOBS.len());
        assert!(env.nproc >= 1);
        assert!(!env.kernel_backend.is_empty());
        let mut w = Writer::new();
        env.write_json(&mut w);
        let text = w.finish();
        for &(name, _) in mx_core::knobs::KNOBS {
            assert!(text.contains(name), "{name} missing from {text}");
        }
        assert_eq!(
            env.nonstandard(),
            env.knobs.iter().any(|(_, v)| v.is_some())
        );
    }

    #[test]
    fn a_command_that_cannot_run_reads_unknown() {
        assert_eq!(first_line("definitely-not-a-program", &[]), "unknown");
    }
}
