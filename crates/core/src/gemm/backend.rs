//! The kernel-backend dispatch layer: which ISA runs the narrow
//! code-domain path (`i16` activation codes against biased byte or `i16`
//! weight codes, or — on AVX-512 with VNNI — signed byte activation digits
//! against the biased bytes), and whether the deferred-scale-out
//! optimization is armed. It selects and detects; the kernels are called
//! directly by the execute entry's one `(plane, body)` match.
//!
//! # The backend contract
//!
//! A backend computes one span of output rows from two already-lowered
//! code planes. Every backend must be **bit-identical** to every other
//! (and to [`super::reference_gemm`]): same per-block integer dots, same
//! one-`f32` rounding per scale-out, same K-block accumulation order.
//! Backends are therefore free to differ in *how* they traverse the planes
//! (tile shapes, SIMD width, deferral) but never in what they round. The
//! `gemm_backends` integration suite enforces this by forcing every
//! backend over the full preset matrix.
//!
//! Every backend reads the one weight-plane layout, column-in-lane
//! 16-column panels (the VNNI GEMM layout, see `pack::panel_slot`): a byte
//! plane (MX6, MX4, MSFP weights) holds each column's K **quads** as
//! biased bytes, an `i16` or `i32` plane its K **pairs**. Two kernels
//! serve the three backends:
//!
//! - `scalar` — portable Rust, no intrinsics; the reference
//!   implementation and the readable form of the vector body's loop (one
//!   lane per column, bytes read as `b − 128` against `i16` rows), and the
//!   kernel of the wide class, of block sizes other than the vector
//!   body's `k1 = 16`, of x86-64 CPUs without AVX2, and of every other
//!   architecture;
//! - `vector` — the one vector body, written once over a 16-lane trait
//!   (`Lanes`) and instantiated for AVX2 (two `ymm` halves per panel) and
//!   AVX-512 (one `zmm`, with VNNI and without). A broadcast A quad (byte
//!   plane) or pair (`i16` plane) feeds the panel's 16 columns, one per
//!   `i32` lane; the bias's `128·Σ a` is taken out by seeding each
//!   block's accumulator with `−128·Σ a`; each lane ends a block holding
//!   one column's block dot, and the per-block scale-out is a lane
//!   epilogue with no horizontal reduce. Up to four rows share each B
//!   load; deferral is a per-(row, panel) skip of the epilogue; ragged N
//!   is a masked store. The body owns the tile, panel and row-group walk,
//!   the deferral test, the seeds, the epilogue order and the store mask;
//!   an ISA's impl (`avx2`, `avx512`) owns only its register blocking and
//!   primitives: the group-row load, the MAC, the digit lane sum, the lane
//!   epilogue and the store.
//!
//! Adding an ISA (NEON next) is: implement `Lanes` for its registers,
//! give the impl a `#[target_feature]` entry point and a
//! [`KernelBackend`] variant, and extend `span_backend` and the entry's
//! match — no changes to the body, packing or callers.
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
//! Lessons the vector generations added to the list:
//!
//! 6. **The plane layout does not depend on the host or the backend.**
//!    `pack::panel_slot` has one formula, and a plane packed under any
//!    backend is the same bytes, so every backend's kernel reads every
//!    plane and the kernel is picked per execute call, never at pack time.
//!    A new ISA therefore starts from the existing layout and the existing
//!    body: its `Lanes` impl holds the 16-column panel in whatever
//!    registers the ISA has (AVX2 two 8-lane halves) and widens codes in
//!    registers, and its associated constants set the register blocking
//!    (AVX-512 loads four group rows per step into four accumulators per
//!    row; AVX2 one into one, which is what 16 `ymm` hold).
//! 7. **Prefer masks and padding to remainder loops.** The body has no
//!    ragged-K tail (the packer zero-pads every block to `k1` codes) and no
//!    ragged-N path: the last panel is zero-padded to 16 columns and each
//!    row's outputs leave through one store under the real columns' mask
//!    (AVX-512 masks the store, and masked-out lanes are architecturally
//!    not accessed; AVX2 copies the masked lanes). Fewer paths, fewer
//!    bit-identity proofs.
//! 8. **Detect optional sub-features separately and fall back exactly.**
//!    VNNI is not implied by AVX-512F/BW: `avx512_vnni_available` gates
//!    `vpdpbusd`/`vpdpwssd` on its own `is_x86_feature_detected!` probe,
//!    and the one body is instantiated a second time under the F/BW-only
//!    entry point, so the backend (and its bit-identity) never depends on
//!    the optional instruction. The fallback must be an exact spelling,
//!    not a close one: `vpdpwssd` is `vpmaddwd` + `vpaddd`; `vpdpbusd` is
//!    the biased bytes zero-extended to 16-bit pairs against A's codes
//!    sign-extended to `i16` (the activation lowering writes them at that
//!    width for this instance), two `vpmaddwd` and two `vpaddd` — never
//!    `vpmaddubsw`, which saturates its 16-bit pair sums (up to
//!    `2·255·128`) at `i16::MAX`. The AVX2 instance runs the same
//!    spelling. [`force_vnni`] selects the fallback for tests, and
//!    [`byte_plane_body`] names the body the byte planes take.
//! 9. **Consume `FormatPair`, never re-derive.** Kernel class, `k1`, the
//!    scale-out constant `c`, and the deferral headroom all come from the
//!    one `FormatPair::new(fa, fb)` the entry point built (a kernel sees
//!    them as its `c` / `DeferCtx` arguments and the plane's recorded
//!    block size). A backend that recomputes any of them from the formats —
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
//! The choice is honored **per execute call**, never at pack time: the
//! weight-plane layout is one and the same on every host and backend (see
//! [`super::PackedOperand::pack_cols`]), so each call of
//! [`super::quantized_gemm_prepacked_scratch`] reads the selection and
//! VNNI once, and its activation lowering and the span kernel of every
//! row span — fan-out spans included — use that one value. A plane packed
//! under one backend runs under any other, and a concurrent
//! [`force_kernel_backend`] cannot pair activation rows lowered for one
//! body with another body.

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::OnceLock;

/// The ISA tier executing the narrow (8- and 16-bit code) integer GEMM path. The
/// wide (`i32`-code) path for exotic custom formats always runs the
/// portable scalar kernel — it is not serving-critical and keeps the
/// backend matrix small.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelBackend {
    /// Portable Rust, no intrinsics.
    Scalar,
    /// 256-bit kernel reading each 16-column panel as two 8-lane halves:
    /// a lane epilogue scales out each block, and a partial store handles
    /// ragged N.
    Avx2,
    /// 512-bit kernel over 16-column column-in-lane panels: a lane
    /// epilogue scales out each block, a masked store handles ragged N,
    /// and VNNI block dots (`vpdpbusd` on byte planes, `vpdpwssd` on `i16`
    /// ones) are used where the CPU has them.
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
/// (`vpdpbusd`, `vpdpwssd`). Detected separately from
/// [`avx512_available`] — VNNI is not implied by F/BW, and the kernel
/// carries exact `vpmaddwd`+`vpaddd` fallbacks so the backend itself never
/// depends on it.
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
/// backends; an execute call already running keeps the backend it read
/// (see the module docs).
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

/// Whether the AVX-512 kernel uses `vpdpbusd`/`vpdpwssd` for its block
/// dots: on wherever [`avx512_vnni_available`] detected it, unless
/// [`force_vnni`] selected the `vpmaddwd`+`vpaddd` fallback. Both paths are
/// bit-identical (the fallback spells each fused instruction exactly, lane
/// by lane); the hook only lets tests cover the fallback on a VNNI machine.
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

/// The backend whose body runs a narrow plane of block size `k1` in an
/// execute call that read `selected`: the vector body is specialized for
/// `k1 = 16`, so every other block size runs the scalar kernel. The
/// plane's layout does not enter — it is the same under every backend.
pub(super) fn span_backend(selected: KernelBackend, k1: usize) -> KernelBackend {
    match selected {
        #[cfg(target_arch = "x86_64")]
        KernelBackend::Avx2 | KernelBackend::Avx512 if k1 == super::vector::K1 => selected,
        _ => KernelBackend::Scalar,
    }
}

/// Which body a byte plane (MX6, MX4, MSFP weights at the preset
/// `k1 = 16`) takes under the backend selected right now:
///
/// - `scalar`: `"b - 128 loop"`, each biased byte read back as `b − 128`
///   against `i16` rows;
/// - `avx2`: `"vpmaddwd, zero-extended pairs"`, the bytes zero-extended to
///   16-bit pairs against `i16` rows;
/// - `avx512`: `"vpdpbusd"` where the CPU has AVX-512-VNNI and
///   [`force_vnni`] has not switched it off, else `"vpmaddwd"` — its exact
///   spelling, the AVX2 instance's at full width.
///
/// The `cpu_features` probe prints it, so a log names the path a
/// default-backend test step took.
///
/// # Examples
///
/// ```
/// let bodies = ["b - 128 loop", "vpmaddwd, zero-extended pairs", "vpdpbusd", "vpmaddwd"];
/// assert!(bodies.contains(&mx_core::gemm::byte_plane_body()));
/// ```
pub fn byte_plane_body() -> &'static str {
    match selected_backend() {
        KernelBackend::Scalar => "b - 128 loop",
        KernelBackend::Avx2 => "vpmaddwd, zero-extended pairs",
        KernelBackend::Avx512 if vnni_enabled() => "vpdpbusd",
        KernelBackend::Avx512 => "vpmaddwd",
    }
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
