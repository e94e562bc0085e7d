//! Central registry of `MX_*` environment knobs.
//!
//! Every runtime-tunable environment variable the workspace honors is
//! declared in [`KNOBS`] and read through [`raw`] — the one sanctioned
//! `std::env::var` call site (the workspace `clippy.toml` bans raw reads
//! everywhere else via `disallowed-methods`, and `mx-audit` cross-checks
//! this table against the README's knob table and against every `"MX_*"`
//! string literal in the sources). Adding a knob is therefore a three-line
//! change — the [`KNOBS`] row, the README table row, and the call site —
//! and forgetting any one of them is a CI failure, not a doc drift.

/// Every `MX_*` environment knob the workspace honors, as
/// `(name, one-line effect)`. `mx-audit` lexically parses this table as
/// the knob registry; the README's "Environment knobs" table must list
/// exactly these names.
pub const KNOBS: &[(&str, &str)] = &[
    (
        "MX_KERNEL_BACKEND",
        "force the quantized-GEMM kernel backend: auto | scalar | avx2 | avx512 (can only narrow the ISA, never fake one); the engine's block core and the FP32 GEMM follow it",
    ),
    (
        "MX_FULL",
        "1 = publication-scale sample sizes in the paper-table binaries",
    ),
];

/// Reads a declared knob from the environment, `None` when unset or not
/// valid unicode.
///
/// # Panics
///
/// Debug builds panic when `name` is not declared in [`KNOBS`] — an
/// undeclared knob is a registry bug, and `mx-audit` would flag the string
/// literal at the call site anyway.
///
/// # Examples
///
/// ```
/// // Unset (or set) — either way the read goes through the registry.
/// let _ = mx_core::knobs::raw("MX_KERNEL_BACKEND");
/// ```
pub fn raw(name: &str) -> Option<String> {
    debug_assert!(
        KNOBS.iter().any(|&(n, _)| n == name),
        "undeclared env knob {name:?}: add it to mx_core::knobs::KNOBS"
    );
    #[allow(clippy::disallowed_methods)] // the one sanctioned raw env read
    std::env::var(name).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_well_formed() {
        assert!(!KNOBS.is_empty());
        for (i, &(name, summary)) in KNOBS.iter().enumerate() {
            assert!(name.starts_with("MX_"), "{name} must be MX_-prefixed");
            assert!(
                name[3..]
                    .chars()
                    .all(|c| c.is_ascii_uppercase() || c == '_'),
                "{name} must be SCREAMING_SNAKE_CASE"
            );
            assert!(!summary.is_empty(), "{name} needs a summary");
            assert!(
                KNOBS[..i].iter().all(|&(n, _)| n != name),
                "{name} declared twice"
            );
        }
    }

    #[test]
    fn raw_reads_declared_knobs() {
        // Whatever the environment, a declared name must not panic and an
        // unset knob reads as None.
        let _ = raw("MX_FULL");
    }
}
