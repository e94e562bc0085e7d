//! The kernel-backend dispatch layer: which ISA-specific tile kernel
//! executes the narrow (`i16` activation codes against `i8` or `i16`
//! weight codes) code-domain path, and whether the deferred-scale-out
//! optimization is armed.
//!
//! # The backend contract
//!
//! A backend is a `SpanKernel` — a plain function pointer computing one
//! span of output rows from two already-lowered `PlaneView`s. Every
//! backend must be **bit-identical** to every other (and to
//! [`super::reference_gemm`]): same per-block integer dots, same one-`f32`
//! rounding per scale-out, same K-block accumulation order. Backends are
//! therefore free to differ in *how* they traverse the planes (tile
//! shapes, SIMD width, deferral) but never in what they round. The
//! `gemm_backends` integration suite enforces this by forcing every
//! backend over the full preset matrix.
//!
//! Three backends exist today, each in its own sibling module:
//!
//! - `scalar` — portable Rust, no intrinsics; the reference
//!   implementation, and the kernel every vector-major plane runs: block
//!   sizes other than the panel kernels' `k1 = 16`, x86-64 CPUs without
//!   AVX2, and every other architecture;
//! - `avx2` — panel-major B, register-blocked 8-column panels
//!   (two rows at a time where deferral holds) with deferred scale-out
//!   (generation 2), and an in-register per-block scale-out panel as the
//!   exact fallback;
//! - `avx512` — generation 3: one kernel body over
//!   column-in-lane 16-column panels (each column's K pairs interleaved,
//!   the VNNI GEMM layout), so a broadcast A pair feeds 16 columns per
//!   `vpdpwssd` (AVX-512-VNNI, detected separately; `vpmaddwd`+`vpaddd`
//!   without it), each lane ends a block holding one column's block dot,
//!   and the per-block scale-out is a lane epilogue with no horizontal
//!   reduce. Up to four rows share each B load; deferral is a
//!   per-(row, panel) skip of the epilogue; ragged N is a masked store.
//!
//! Adding an ISA (NEON next) is: write the module, give it a
//! [`KernelBackend`] variant, extend `narrow_span_kernel` — no changes
//! to packing, dispatch entries, or callers.
//!
//! # Backend author checklist
//!
//! The invariants below are not conventions — `mx-audit` (run in CI and
//! by the `clean_repo` suite) fails the build when a new kernel module
//! violates them:
//!
//! 1. **Every `unsafe` block carries an adjacent `// SAFETY:` comment**
//!    justifying the specific bounds/ISA precondition it relies on, and
//!    every `unsafe fn` documents its contract in a `# Safety` doc
//!    section (rule `unsafe-safety`). The kernel crates compile under
//!    `#![deny(unsafe_op_in_unsafe_fn)]`, so each unsafe operation sits
//!    in its own scoped block — justify the block, not the function.
//! 2. **`#[target_feature(enable = "X")]` fns are `unsafe`, are not
//!    `pub`, and `X` is gated by `is_x86_feature_detected!("X")`**
//!    somewhere in the crate (rule `target-feature`). The dispatch layer
//!    here is that gate: a new ISA variant must only be selectable after
//!    detection says so, exactly like [`KernelBackend::Avx2`]. Below the
//!    lowest detected tier the selection is [`KernelBackend::Scalar`], so
//!    no backend leans on the x86-64 baseline ISA.
//! 3. **Wire the backend into CI** (rule `ci-wiring`): extend the
//!    `gemm_backends` suite to force the new variant over the preset
//!    matrix, and if you add a new test file, name it in
//!    `.github/workflows/ci.yml`.
//! 4. **New tuning knobs go through `mx_core::knobs`** (rule
//!    `env-knobs`): declare the `MX_*` variable in
//!    [`crate::knobs::KNOBS`], read it with [`crate::knobs::raw`], and
//!    document it in the README's knob table — the auditor
//!    cross-checks all three.
//! 5. **Bit-identity is the contract**: deferral or layout tricks may
//!    change traversal, never rounding. Assert the new backend against
//!    [`super::reference_gemm`] in `gemm_backends` before enabling it
//!    in [`selected_backend`].
//!
//! Lessons the AVX-512 generation added to the list:
//!
//! 6. **Panel width is a per-backend property of the packed plane**, not a
//!    global constant: `pack::panel_slot` takes the width as a
//!    parameter and the plane records which width it was packed with
//!    (`PackedOperand::panel_n`), so `narrow_span_kernel` dispatches on
//!    the *plane's* layout, never on the current knob — a plane packed 8
//!    wide keeps running the AVX2 kernels after the knob moves. A wider
//!    kernel therefore starts at the packer: define the layout, teach
//!    `panel_slot` the formula, and only then write the loads.
//! 7. **Prefer mask registers and padding to remainder loops.** The
//!    AVX-512 kernel has no ragged-K tail (the packer zero-pads every
//!    block to `k1` codes) and no ragged-N path: the last panel is
//!    zero-padded to 16 columns and its outputs leave through one masked
//!    store (masked-out lanes are architecturally not accessed). Fewer
//!    paths, fewer bit-identity proofs.
//! 8. **Detect optional sub-features separately and fall back in-module.**
//!    VNNI is not implied by AVX-512F/BW: `avx512_vnni_available` gates
//!    `vpdpwssd` on its own `is_x86_feature_detected!` probe, and the
//!    kernel compiles its one body a second time with `vpmaddwd`+`vpaddd`
//!    under the F/BW-only entry point, so the backend (and its
//!    bit-identity) never depends on the optional instruction.
//!    [`force_vnni`] selects the fallback for tests.
//! 9. **Consume `FormatPair`, never re-derive.** Kernel class, `k1`, the
//!    scale-out constant `c`, and the deferral headroom all come from the
//!    one `FormatPair::new(fa, fb)` the entry point built (a kernel sees
//!    them as its `c` / `DeferCtx` arguments and the plane's recorded
//!    layout). A backend that recomputes any of them from the formats —
//!    or asks whether a plane fits by running it — gives the decision a
//!    second home that can drift from the first.
//!
//! # Selection
//!
//! [`selected_backend`] resolves, in priority order: the process-wide
//! programmatic override ([`force_kernel_backend`], used by tests), the
//! `MX_KERNEL_BACKEND` environment variable (`auto` / `scalar` / `avx2` /
//! `avx512`, read once), then the best
//! backend the CPU supports. An environment request the CPU cannot honor
//! degrades to the best available (forcing `avx512` on a non-AVX-512
//! machine runs AVX2) with a one-line stderr warning naming what actually
//! runs — the knob can only *narrow* the ISA, never fake one — while the
//! programmatic [`force_kernel_backend`] refuses outright with
//! [`BackendUnavailable`]. An unrecognized name warns the same way and
//! runs the best available backend. [`kernel_backend_name`] reports the
//! effective choice so the `benchmark/` package and the `cpu_features`
//! probe can record which backend actually ran.
//!
//! The choice is honored at **pack time**: each panel backend consumes a
//! panel-major B plane of its own width (8 columns for AVX2, 16 for
//! AVX-512), the scalar kernel a vector-major one, so
//! [`super::PackedOperand::pack_cols`] lays the plane out for the backend
//! selected when it runs, and execution always follows the plane's
//! recorded layout (a panel plane runs its backend's kernels even if the
//! knob has since changed — each layout exists only on machines that
//! support its backend).

use super::pack::PlaneView;
use super::{DeferCtx, NarrowCode};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::OnceLock;

/// The ISA tier executing the narrow (`i16`/`i8`-code) integer GEMM path. The
/// wide (`i32`-code) path for exotic custom formats always runs the
/// portable scalar kernel — it is not serving-critical and keeps the
/// backend matrix small.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelBackend {
    /// Portable Rust, no intrinsics.
    Scalar,
    /// Wide-tile deferred-scale-out kernel over 8-column panel-major B.
    Avx2,
    /// 512-bit kernel over 16-column column-in-lane panels: a lane
    /// epilogue scales out each block, a masked store handles ragged N,
    /// and VNNI (`vpdpwssd`) block dots are used where the CPU has them.
    Avx512,
}

impl KernelBackend {
    /// The knob spelling of this backend (`scalar` / `avx2` / `avx512`).
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Avx2 => "avx2",
            KernelBackend::Avx512 => "avx512",
        }
    }
}

/// Parses a knob spelling back to a backend; `None` for `auto`/unknown.
fn parse_backend_name(name: &str) -> Option<KernelBackend> {
    match name {
        "scalar" => Some(KernelBackend::Scalar),
        "avx2" => Some(KernelBackend::Avx2),
        "avx512" => Some(KernelBackend::Avx512),
        _ => None,
    }
}

/// Whether the running CPU supports the AVX2 kernels.
#[cfg(target_arch = "x86_64")]
pub(super) fn avx2_available() -> bool {
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

#[cfg(not(target_arch = "x86_64"))]
pub(super) fn avx2_available() -> bool {
    false
}

/// Whether the running CPU supports the AVX-512 kernel (the baseline it
/// needs is F for the 512-bit registers/masks plus BW for the 32-lane
/// `i16` loads and `vpmaddwd`).
#[cfg(target_arch = "x86_64")]
pub(super) fn avx512_available() -> bool {
    static AVX512: OnceLock<bool> = OnceLock::new();
    *AVX512.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
    })
}

#[cfg(not(target_arch = "x86_64"))]
pub(super) fn avx512_available() -> bool {
    false
}

/// Whether the running CPU additionally supports AVX-512-VNNI
/// (`vpdpwssd`). Detected separately from [`avx512_available`] — VNNI is
/// not implied by F/BW, and the kernel carries a `vpmaddwd`+`vpaddd`
/// fallback so the backend itself never depends on it.
#[cfg(target_arch = "x86_64")]
pub(super) fn avx512_vnni_available() -> bool {
    static VNNI: OnceLock<bool> = OnceLock::new();
    *VNNI.get_or_init(|| avx512_available() && std::arch::is_x86_feature_detected!("avx512vnni"))
}

#[cfg(not(target_arch = "x86_64"))]
pub(super) fn avx512_vnni_available() -> bool {
    false
}

/// The best backend the running CPU supports.
fn best_available() -> KernelBackend {
    if avx512_available() {
        KernelBackend::Avx512
    } else if avx2_available() {
        KernelBackend::Avx2
    } else {
        KernelBackend::Scalar
    }
}

/// Caps a requested backend at what the CPU can actually run.
fn clamp_available(req: KernelBackend) -> KernelBackend {
    match req {
        KernelBackend::Avx512 if !avx512_available() => clamp_available(KernelBackend::Avx2),
        KernelBackend::Avx2 if !avx2_available() => KernelBackend::Scalar,
        other => other,
    }
}

/// Programmatic override slot: 0 = none, else `KernelBackend as u8 + 1`.
static BACKEND_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// The one-line warning [`env_backend`] emits when `MX_KERNEL_BACKEND`
/// cannot be honored as written, naming the backend that will actually
/// run. `None` when the value is fine (recognized and available). Pure —
/// the CPU-dependent inputs (`parsed`, `resolved`) are arguments so unit
/// tests cover both failure shapes on any machine.
fn env_backend_warning(
    value: &str,
    parsed: Option<KernelBackend>,
    resolved: KernelBackend,
) -> Option<String> {
    match parsed {
        None => Some(format!(
            "mx-core: MX_KERNEL_BACKEND={value:?} is not a recognized backend \
             (expected auto | scalar | avx2 | avx512); using {}",
            resolved.name()
        )),
        Some(req) if req != resolved => Some(format!(
            "mx-core: MX_KERNEL_BACKEND={} is not available on this CPU; using {}",
            req.name(),
            resolved.name()
        )),
        Some(_) => None,
    }
}

/// `MX_KERNEL_BACKEND` parsed once; `None` for unset/`auto`/unrecognized.
/// A value that cannot be honored (unknown name, or an ISA this CPU
/// lacks) warns once on stderr naming the backend that runs instead.
fn env_backend() -> Option<KernelBackend> {
    static ENV: OnceLock<Option<KernelBackend>> = OnceLock::new();
    *ENV.get_or_init(|| {
        let value = crate::knobs::raw("MX_KERNEL_BACKEND")?;
        if value == "auto" {
            return None;
        }
        let parsed = parse_backend_name(&value);
        let resolved = parsed.map_or_else(best_available, clamp_available);
        if let Some(warning) = env_backend_warning(&value, parsed, resolved) {
            eprintln!("{warning}");
        }
        parsed
    })
}

/// The backend the dispatch layer is currently selecting: the
/// [`force_kernel_backend`] override, else `MX_KERNEL_BACKEND`, else the
/// best the CPU supports — always capped at what can actually run. The
/// engine's block core ([`crate::engine`]) follows the same selection: its
/// AVX-512 tier runs only while this returns [`KernelBackend::Avx512`].
pub fn selected_backend() -> KernelBackend {
    let req = match BACKEND_OVERRIDE.load(Ordering::Relaxed) {
        1 => KernelBackend::Scalar,
        2 => KernelBackend::Avx2,
        3 => KernelBackend::Avx512,
        _ => env_backend().unwrap_or_else(best_available),
    };
    clamp_available(req)
}

/// Name of the effective backend (`"scalar"` / `"avx2"` / `"avx512"`) —
/// what the `benchmark/` package and the `cpu_features` probe report
/// alongside their output.
///
/// # Examples
///
/// ```
/// // Whatever the machine, the name is one of the three tiers.
/// assert!(["scalar", "avx2", "avx512"].contains(&mx_core::gemm::kernel_backend_name()));
/// ```
pub fn kernel_backend_name() -> &'static str {
    selected_backend().name()
}

/// Error from [`force_kernel_backend`]: the requested backend cannot run
/// on this CPU. The override is left unchanged — the caller decides
/// whether to degrade (to [`BackendUnavailable::available`]) or skip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendUnavailable {
    /// The backend that was requested.
    pub requested: KernelBackend,
    /// The best backend this CPU can run in its place.
    pub available: KernelBackend,
}

impl std::fmt::Display for BackendUnavailable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "kernel backend {} is unavailable on this CPU (best available: {})",
            self.requested.name(),
            self.available.name()
        )
    }
}

impl std::error::Error for BackendUnavailable {}

/// Forces the dispatch layer onto one backend (process-wide), or back to
/// automatic selection with `None`. Intended for tests that sweep
/// backends; affects the layout of subsequently packed B planes as
/// well as kernel choice (pack after forcing — see the module docs).
///
/// # Errors
///
/// [`BackendUnavailable`] when the CPU cannot run the requested backend;
/// the previous selection stays in force (a forced backend is exact by
/// construction — silently degrading would let a sweep mislabel its
/// rows). `None` always succeeds.
pub fn force_kernel_backend(backend: Option<KernelBackend>) -> Result<(), BackendUnavailable> {
    if let Some(req) = backend {
        let available = clamp_available(req);
        if available != req {
            return Err(BackendUnavailable {
                requested: req,
                available,
            });
        }
    }
    let v = match backend {
        None => 0,
        Some(KernelBackend::Scalar) => 1,
        Some(KernelBackend::Avx2) => 2,
        Some(KernelBackend::Avx512) => 3,
    };
    BACKEND_OVERRIDE.store(v, Ordering::Relaxed);
    Ok(())
}

/// Set while [`force_deferred_scale_out`] holds deferral off.
static DEFER_OFF: AtomicBool = AtomicBool::new(false);

/// Whether deferred scale-out is armed: on, unless
/// [`force_deferred_scale_out`] switched it off. Disabling it never changes
/// results — deferral is applied only where it is provably exact — it only
/// forces the per-block scale-out everywhere, which is what the
/// equivalence tests use to cover the per-block path on data that would
/// defer.
pub fn deferred_scale_out_enabled() -> bool {
    !DEFER_OFF.load(Ordering::Relaxed)
}

/// Forces deferred scale-out off with `Some(false)` (process-wide); `None`
/// and `Some(true)` both restore the default (on). Results are
/// bit-identical either way.
pub fn force_deferred_scale_out(enabled: Option<bool>) {
    DEFER_OFF.store(enabled == Some(false), Ordering::Relaxed);
}

/// Set while [`force_vnni`] holds the AVX-512 kernel on its fallback dots.
static VNNI_OFF: AtomicBool = AtomicBool::new(false);

/// Whether the AVX-512 kernel uses `vpdpwssd` for its block dots: on
/// wherever [`avx512_vnni_available`] detected it, unless [`force_vnni`]
/// selected the `vpmaddwd`+`vpaddd` fallback. Both paths are bit-identical
/// (`vpdpwssd` computes exactly the fused chain per lane); the hook only
/// lets tests cover the fallback on a VNNI machine.
pub(super) fn vnni_enabled() -> bool {
    avx512_vnni_available() && !VNNI_OFF.load(Ordering::Relaxed)
}

/// Forces the AVX-512 kernel onto its `vpmaddwd`+`vpaddd` fallback with
/// `Some(false)` (process-wide); `None` and `Some(true)` both restore the
/// default — VNNI wherever the CPU has it (like `MX_KERNEL_BACKEND`, the
/// hook can only narrow the ISA, never fake one). Results are
/// bit-identical either way.
pub fn force_vnni(enabled: Option<bool>) {
    VNNI_OFF.store(enabled == Some(false), Ordering::Relaxed);
}

/// A span kernel: computes the `rows × n` output slice `out` from an A
/// plane of `A` codes holding exactly those `rows` rows and a B plane of
/// `B` codes — the unit of work the row-span dispatch schedules. See the
/// module docs for the bit-identity contract.
pub(super) type SpanKernel<A, B> =
    fn(PlaneView<'_, A>, usize, PlaneView<'_, B>, usize, i32, DeferCtx, &mut [f32]);

/// The narrow-pair span kernel for a B plane packed with the given panel
/// width: a 16-wide plane always runs the AVX-512 kernel and an 8-wide
/// plane the AVX2 kernels (each layout is only ever built when the CPU
/// supports its backend); a vector-major plane (`b_panel_n == 0`) runs
/// the scalar kernel whichever backend is selected (the panel kernels
/// require their own layout). Every backend's one kernel body is generic
/// over the weight code width `B`.
pub(super) fn narrow_span_kernel<B: NarrowCode>(b_panel_n: usize) -> SpanKernel<i16, B> {
    match b_panel_n {
        #[cfg(target_arch = "x86_64")]
        super::PANEL_N_512 => super::avx512::gemm_span::<B>,
        #[cfg(target_arch = "x86_64")]
        super::PANEL_N => super::avx2::gemm_span::<B>,
        _ => super::scalar::gemm_span::<i16, B>,
    }
}

/// The wide-pair span kernel (exotic custom formats): always the portable
/// generic kernel with the chunked `i64`-accumulator dot.
pub(super) fn wide_span_kernel() -> SpanKernel<i32, i32> {
    super::scalar::gemm_span::<i32, i32>
}

// These tests deliberately avoid mutating the process-wide override slots
// (`BACKEND_OVERRIDE` etc.) — the in-module test in `super::tests` and the
// `gemm_backends` integration suite own those, serialized behind their own
// lock. Everything here is pure or read-only.
#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [KernelBackend; 3] = [
        KernelBackend::Scalar,
        KernelBackend::Avx2,
        KernelBackend::Avx512,
    ];

    #[test]
    fn backend_names_round_trip_through_the_parser() {
        for backend in ALL {
            assert_eq!(parse_backend_name(backend.name()), Some(backend));
        }
        for bogus in ["auto", "", "AVX512", "avx-512", "neon", "avx9000"] {
            assert_eq!(parse_backend_name(bogus), None, "{bogus:?}");
        }
    }

    #[test]
    fn unrecognized_env_value_warns_naming_the_resolved_backend() {
        let warning = env_backend_warning("avx9000", None, KernelBackend::Avx512)
            .expect("an unknown name must warn");
        assert!(warning.contains("avx9000"), "{warning}");
        assert!(warning.contains("using avx512"), "{warning}");
        assert!(
            warning.contains("avx2 | avx512"),
            "lists the choices: {warning}"
        );
    }

    #[test]
    fn sse2_is_an_unrecognized_env_value() {
        // There is no SSE2 tier: the spelling warns like any unknown name
        // and runs the best backend this CPU has.
        let best = best_available();
        let warning =
            env_backend_warning("sse2", parse_backend_name("sse2"), best).expect("sse2 must warn");
        assert!(warning.contains("not a recognized backend"), "{warning}");
        assert!(
            warning.contains(&format!("using {}", best.name())),
            "{warning}"
        );
    }

    #[test]
    fn unavailable_env_value_warns_naming_the_resolved_backend() {
        let warning =
            env_backend_warning("avx512", Some(KernelBackend::Avx512), KernelBackend::Avx2)
                .expect("an unavailable backend must warn");
        assert!(warning.contains("avx512 is not available"), "{warning}");
        assert!(warning.contains("using avx2"), "{warning}");
    }

    #[test]
    fn honorable_env_value_stays_silent() {
        for backend in ALL {
            assert_eq!(
                env_backend_warning(backend.name(), Some(backend), backend),
                None
            );
        }
    }

    #[test]
    fn backend_unavailable_error_names_both_ends() {
        let err = BackendUnavailable {
            requested: KernelBackend::Avx512,
            available: KernelBackend::Avx2,
        };
        let msg = err.to_string();
        assert!(msg.contains("avx512"), "{msg}");
        assert!(msg.contains("best available: avx2"), "{msg}");
    }

    #[test]
    fn forcing_the_detected_best_backend_is_always_honored() {
        // `clamp_available(best_available())` is the identity, so the
        // error path can never fire for the CPU's own best tier. Checking
        // via the pure clamp keeps this test override-free.
        let best = best_available();
        assert_eq!(clamp_available(best), best);
    }

    #[test]
    fn vnni_detection_implies_the_avx512_baseline() {
        // The VNNI probe is only consulted behind the F/BW gate.
        if avx512_vnni_available() {
            assert!(avx512_available());
        }
    }
}
