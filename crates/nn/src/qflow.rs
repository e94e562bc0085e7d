//! The quantized compute flow of Fig. 8: which tensors get quantized, in
//! which format, along which axis, in the forward and backward passes.
//!
//! Every tensor (matrix-multiply / convolution) operation quantizes *both*
//! operands along the reduction dimension. Element-wise operations run in a
//! scalar format (BF16 in the paper; FP32 here by default — see
//! [`QuantConfig::elementwise`]). The backward pass may use a different
//! (usually wider) format than the forward pass, which is how
//! quantization-aware fine-tuning with an MX6/MX4 forward and an FP32
//! backward is expressed.
//!
//! # The weight-plane cache and its invalidation contract
//!
//! When both operands of [`quantized_matmul_ab`] are BDR formats, the
//! product runs on `mx_core::gemm`: the right (weight) operand is lowered
//! once to a shift-aligned integer code plane
//! ([`mx_core::gemm::PackedOperand`]), and the one execute entry
//! (`quantized_gemm_prepacked_scratch`) quantizes the left (activation)
//! operand as a stage of the same call — so every layer and the
//! `mx-serve` batch path ride the serving hot path with no call-site
//! choices to make.
//! The plane is cached **on the weight tensor itself**, keyed by
//! `(weight format, kernel class)`: the codes and their storage width
//! (`i8` or `i16` in the narrow class) depend only on the weight format,
//! the class (narrow or wide `i32` codes) on the activation partner, and
//! a lookup asks each candidate plane whether it
//! [`accepts`](mx_core::gemm::PackedOperand::accepts) the activation
//! format — no GEMM is ever run to find out. One plane therefore serves
//! every activation format in its class, a narrow-class and a wide-class
//! plane for the same weight format coexist, and attention, linear, RNN,
//! and conv im2col all amortize packing across forward passes — at
//! inference steady state the weight operand is never re-quantized. The
//! cache is bounded (see `MAX_CACHED_PLANES`) and sits behind a mutex,
//! so concurrent serving threads that select formats per request share
//! the same warm planes instead of evicting each other — `mx-serve` leans
//! on exactly this to lower each model's weights once across all
//! in-flight requests, and [`plane_cache_counters`] exposes the hit/pack
//! tallies its `ServeStats` reports as "packs avoided".
//!
//! The invalidation contract is generation-based and cannot go stale:
//!
//! - every [`Tensor`] carries a globally unique generation stamp that
//!   changes on **every** mutable-data access ([`Tensor::data_mut`]);
//! - a cached plane records the generation it was packed at and is only
//!   reused while the stamps still match;
//! - optimizer steps (`Sgd::step` / `Adam::step` write through `data_mut`),
//!   direct `Param` weight writes, and wholesale tensor replacement
//!   therefore all invalidate the cache automatically — the next matmul
//!   repacks from the updated values and is bit-identical to an uncached
//!   run (asserted by the `weight_cache` regression suite).

use crate::format::{quantize_along, Axis, TensorFormat};
use crate::tensor::{CachedPlane, Tensor};
use mx_core::bdr::BdrFormat;
use mx_core::gemm::{self, PackScratch, PackedOperand};
use std::borrow::Borrow;
use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Most weight code planes a tensor caches at once (one per weight format
/// and kernel class).
/// Large enough for every preset plus headroom; past it the oldest entry is
/// evicted. Serving traffic that cycles through the presets therefore never
/// repacks after warmup, and a pathological format fuzzer cannot hoard
/// memory.
const MAX_CACHED_PLANES: usize = 8;

/// Process-wide count of weight-plane cache hits (a B-side lowering that
/// was skipped because a cached plane accepted the pair).
static PLANE_HITS: AtomicU64 = AtomicU64::new(0);
/// Process-wide count of weight-plane packs actually performed (cold slot,
/// stale generation, new weight format, or new kernel class).
static PLANE_MISSES: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-wide weight-plane cache counters as
/// `(hits, packs_performed)`. Hits are packs *avoided*: each one is a full
/// B-side lowering that a cached plane made unnecessary. The counters are
/// cumulative over the process (all models, all threads); consumers such as
/// `mx-serve`'s `ServeStats` report deltas against a baseline.
pub fn plane_cache_counters() -> (u64, u64) {
    (
        PLANE_HITS.load(Ordering::Relaxed),
        PLANE_MISSES.load(Ordering::Relaxed),
    )
}

thread_local! {
    /// Per-thread scratch for A-side (activation) packing: reusing the code
    /// plane buffers across forward passes removes the last per-call
    /// allocation on the inference steady-state path. Thread-local rather
    /// than per-tensor because activations are short-lived — the buffers
    /// belong to the compute thread, not the data.
    static PACK_SCRATCH: RefCell<PackScratch> = RefCell::new(PackScratch::new());
}

/// Format assignment for a model's tensor and vector operations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantConfig {
    /// Format of forward-pass *activation* operands.
    pub fwd: TensorFormat,
    /// Format of forward-pass *weight* operands (Table IV evaluates
    /// weight/activation format combinations independently).
    pub fwd_w: TensorFormat,
    /// Format of backward-pass tensor-op operands (errors, transposed
    /// weights and activations).
    pub bwd: TensorFormat,
    /// Format element-wise (vector) operation outputs are rounded to.
    pub elementwise: TensorFormat,
}

impl QuantConfig {
    /// Full-precision baseline: nothing is quantized.
    pub fn fp32() -> Self {
        QuantConfig {
            fwd: TensorFormat::Fp32,
            fwd_w: TensorFormat::Fp32,
            bwd: TensorFormat::Fp32,
            elementwise: TensorFormat::Fp32,
        }
    }

    /// The paper's MX training setup: the same block format on every tensor
    /// operand in forward and backward, element-wise ops left in full
    /// precision.
    pub fn uniform(format: TensorFormat) -> Self {
        QuantConfig {
            fwd: format,
            fwd_w: format,
            bwd: format,
            elementwise: TensorFormat::Fp32,
        }
    }

    /// Quantization-aware fine-tuning: narrow forward, full-precision
    /// backward (§V "the forward pass might use MX6 or MX4 and the backward
    /// pass a higher bit-width format").
    pub fn qat(fwd: TensorFormat) -> Self {
        QuantConfig {
            fwd,
            fwd_w: fwd,
            bwd: TensorFormat::Fp32,
            elementwise: TensorFormat::Fp32,
        }
    }

    /// Inference-style config with separate weight and activation formats —
    /// the `(w, a)` tuples of Table IV.
    pub fn weights_activations(w: TensorFormat, a: TensorFormat) -> Self {
        QuantConfig {
            fwd: a,
            fwd_w: w,
            bwd: TensorFormat::Fp32,
            elementwise: TensorFormat::Fp32,
        }
    }

    /// Whether any tensor op quantizes at all.
    pub fn is_fp32(&self) -> bool {
        self.fwd.is_identity()
            && self.fwd_w.is_identity()
            && self.bwd.is_identity()
            && self.elementwise.is_identity()
    }
}

impl Default for QuantConfig {
    fn default() -> Self {
        Self::fp32()
    }
}

impl fmt::Display for QuantConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fwd={} fwd_w={} bwd={} elem={}",
            self.fwd, self.fwd_w, self.bwd, self.elementwise
        )
    }
}

/// Quantized matrix product: quantizes `a` along its rows (the reduction
/// dimension `K`) and `b` along its columns, then multiplies.
///
/// This is the single primitive every tensor op in the repository routes
/// through; it encodes the directional-quantization rule of §V.
///
/// # Examples
///
/// ```
/// # use mx_nn::qflow::quantized_matmul;
/// # use mx_nn::format::TensorFormat;
/// # use mx_nn::tensor::Tensor;
/// let a = Tensor::from_vec(vec![1.0; 32], &[2, 16]);
/// let b = Tensor::from_vec(vec![0.5; 32], &[16, 2]);
/// let y = quantized_matmul(&a, &b, TensorFormat::MX6);
/// assert_eq!(y.data(), &[8.0, 8.0, 8.0, 8.0]);
/// ```
pub fn quantized_matmul(a: &Tensor, b: &Tensor, format: TensorFormat) -> Tensor {
    quantized_matmul_ab(a, b, format, format)
}

/// [`quantized_matmul`] with distinct operand formats: `a` (activations)
/// quantizes in `fa`, `b` (weights) in `fb`.
///
/// When both operands are block (BDR) formats the product runs on
/// [`mx_core::gemm`]'s integer code-domain path: `b`'s shift-aligned code
/// plane is fetched from the tensor's generation-keyed cache (packed on a
/// miss — see the module docs for the invalidation contract), `a`'s rows
/// are quantized inside the one execute entry, and
/// every K-block dot product is computed in integer arithmetic with a
/// single `f32` scale-out per block pair — bit-identical to the dequantize
/// reference with blocked accumulation (and exactly equal to the naive
/// `f32` product whenever `K ≤ k1`), cached plane or not. Identity
/// (`FP32`) and scalar formats fall back to fake-quantize + `f32` matmul.
pub fn quantized_matmul_ab(a: &Tensor, b: &Tensor, fa: TensorFormat, fb: TensorFormat) -> Tensor {
    matmul_on(a, b, fa, fb, |ba, bb, k, n| weight_plane(b, ba, bb, k, n))
}

/// [`quantized_matmul`] for a right operand that lives for this one
/// product — attention's per-head `kᵀ` and `v`. Its plane is packed for
/// the product and dropped with it: no plane slot on the tensor, no cache
/// entry, no count in [`plane_cache_counters`]. The plane and the bits are
/// the cached path's.
pub(crate) fn transient_matmul(a: &Tensor, b: &Tensor, format: TensorFormat) -> Tensor {
    matmul_on(a, b, format, format, |ba, bb, k, n| {
        PackedOperand::pack_cols(b.data(), k, n, ba, bb)
    })
}

/// The body of both products: `plane_of(fa, fb, k, n)` supplies `b`'s code
/// plane, or `None` for the dequantize fallback.
fn matmul_on<P: Borrow<PackedOperand>>(
    a: &Tensor,
    b: &Tensor,
    fa: TensorFormat,
    fb: TensorFormat,
    plane_of: impl FnOnce(BdrFormat, BdrFormat, usize, usize) -> Option<P>,
) -> Tensor {
    if fa.is_identity() && fb.is_identity() {
        return a.matmul(b);
    }
    if let (TensorFormat::Bdr(ba), TensorFormat::Bdr(bb)) = (fa, fb) {
        let (m, k) = (a.rows(), a.cols());
        assert_eq!(b.shape().len(), 2, "rhs of matmul must be 2-D");
        let (kb, n) = (b.shape()[0], b.shape()[1]);
        assert_eq!(k, kb, "inner dims: {k} vs {kb}");
        let out = plane_of(ba, bb, k, n).and_then(|plane| {
            PACK_SCRATCH.with(|scratch| {
                gemm::quantized_gemm_prepacked_scratch(
                    a.data(),
                    m,
                    ba,
                    plane.borrow(),
                    0,
                    &mut scratch.borrow_mut(),
                )
            })
        });
        if let Some(out) = out {
            let mut shape = a.shape()[..a.shape().len() - 1].to_vec();
            shape.push(n);
            return Tensor::from_vec(out, &shape);
        }
    }
    let aq = quantize_along(a, fa, Axis::Row);
    let bq = quantize_along(b, fb, Axis::Col);
    aq.matmul(&bq)
}

/// Returns a weight code plane of `b` in format `fb` that accepts
/// `fa`-format activations: the cached one when the tensor holds it,
/// otherwise packed for the `(fa, fb)` pair and cached — or `None` when
/// the pair has no code-domain path (the caller's dequantize fallback;
/// this is the only support gate the callers need). A hit requires the
/// stored generation stamp to equal [`Tensor::generation`] — the contract
/// that makes optimizer steps and direct weight writes invalidate
/// automatically. Stale entries (from any older generation) are purged
/// wholesale on the first lookup after a mutation.
///
/// The cache key is `(fb, kernel class)`, asked of each plane through
/// [`PackedOperand::accepts`]: the codes depend only on `fb`, so one plane
/// serves every activation format in its class (direct-cast sweeps that
/// alternate activation formats against one weight tensor keep hitting),
/// and the rare cross-class pairing gets its own entry beside it instead
/// of evicting it. Up to [`MAX_CACHED_PLANES`] entries, oldest evicted:
/// serving traffic that selects formats per request keeps every live
/// plane warm.
///
/// The packing work is needed by the GEMM either way, so caching costs no
/// extra compute; for short-lived activation tensors that pass through as
/// the right operand of the backward pass, the entry simply drops with the
/// tensor. Attention's forward products skip the cache altogether
/// ([`transient_matmul`]).
///
/// Hits and packs are tallied in the process-wide counters behind
/// [`plane_cache_counters`]. `pub(crate)` so the `plan` module pins the
/// same planes (same cache, same bits) at plan-compile time.
pub(crate) fn weight_plane(
    b: &Tensor,
    fa: BdrFormat,
    fb: BdrFormat,
    k: usize,
    n: usize,
) -> Option<Arc<PackedOperand>> {
    let mut slot = b.plane_slot().lock().expect("plane cache poisoned");
    let gen = b.generation();
    // The data changed since these planes were packed: all of them are dead.
    slot.retain(|c| c.gen == gen);
    let cached = slot
        .iter()
        .find(|c| c.plane.format() == fb && c.plane.accepts(&fa));
    if let Some(cached) = cached {
        PLANE_HITS.fetch_add(1, Ordering::Relaxed);
        return Some(cached.plane.clone());
    }
    let plane = Arc::new(PackedOperand::pack_cols(b.data(), k, n, fa, fb)?);
    PLANE_MISSES.fetch_add(1, Ordering::Relaxed);
    if slot.len() >= MAX_CACHED_PLANES {
        slot.remove(0);
    }
    slot.push(CachedPlane {
        gen,
        plane: plane.clone(),
    });
    Some(plane)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mx_core::bdr::BdrFormat;

    #[test]
    fn fp32_config_is_identity() {
        let cfg = QuantConfig::fp32();
        assert!(cfg.is_fp32());
        let a = Tensor::from_vec((0..8).map(|i| i as f32).collect(), &[2, 4]);
        let b = Tensor::eye(4);
        assert_eq!(quantized_matmul(&a, &b, cfg.fwd), a);
    }

    #[test]
    fn uniform_and_qat_constructors() {
        let mx9 = QuantConfig::uniform(TensorFormat::MX9);
        assert_eq!(mx9.fwd, TensorFormat::MX9);
        assert_eq!(mx9.bwd, TensorFormat::MX9);
        let qat = QuantConfig::qat(TensorFormat::MX6);
        assert_eq!(qat.fwd, TensorFormat::MX6);
        assert!(qat.bwd.is_identity());
    }

    #[test]
    fn quantized_matmul_matches_manual_quantization() {
        // K = 16 is a single k1-block, where the code-domain GEMM is exactly
        // equal to the dequantize + naive f32 matmul composition.
        let a = Tensor::from_vec((0..64).map(|i| (i as f32 * 0.17).sin()).collect(), &[4, 16]);
        let b = Tensor::from_vec((0..64).map(|i| (i as f32 * 0.13).cos()).collect(), &[16, 4]);
        let y = quantized_matmul(&a, &b, TensorFormat::MX6);
        let aq = quantize_along(&a, TensorFormat::MX6, Axis::Row);
        let bq = quantize_along(&b, TensorFormat::MX6, Axis::Col);
        assert_eq!(y, aq.matmul(&bq));
        // And it differs from the unquantized product.
        assert_ne!(y, a.matmul(&b));
    }

    #[test]
    fn quantized_matmul_routes_through_code_domain_gemm() {
        use mx_core::gemm;
        // Multi-block K: the result is the integer-domain GEMM output
        // (bit-identical to the blocked dequantize reference).
        let (m, k, n) = (3, 40, 5);
        let a = Tensor::from_vec(
            (0..m * k).map(|i| (i as f32 * 0.19).sin()).collect(),
            &[m, k],
        );
        let b = Tensor::from_vec(
            (0..k * n).map(|i| (i as f32 * 0.23).cos()).collect(),
            &[k, n],
        );
        for (fa, fb) in [
            (TensorFormat::MX6, TensorFormat::MX6),
            (TensorFormat::MX9, TensorFormat::MX4),
        ] {
            let y = quantized_matmul_ab(&a, &b, fa, fb);
            let (TensorFormat::Bdr(ba), TensorFormat::Bdr(bb)) = (fa, fb) else {
                unreachable!()
            };
            let want = gemm::reference_gemm(a.data(), b.data(), m, k, n, ba, bb);
            assert!(
                y.data()
                    .iter()
                    .zip(want.iter())
                    .all(|(x, w)| x.to_bits() == w.to_bits()),
                "{fa}/{fb}"
            );
        }
    }

    #[test]
    fn quantized_matmul_3d_lhs_keeps_leading_dims() {
        let a = Tensor::from_vec(
            (0..2 * 2 * 24).map(|i| (i as f32 * 0.11).sin()).collect(),
            &[2, 2, 24],
        );
        let b = Tensor::from_vec(
            (0..24 * 3).map(|i| (i as f32 * 0.07).cos()).collect(),
            &[24, 3],
        );
        let y = quantized_matmul(&a, &b, TensorFormat::MX9);
        assert_eq!(y.shape(), &[2, 2, 3]);
    }

    #[test]
    fn narrow_formats_add_more_noise() {
        let a = Tensor::from_vec(
            (0..256).map(|i| (i as f32 * 0.37).sin()).collect(),
            &[16, 16],
        );
        let b = Tensor::from_vec(
            (0..256).map(|i| (i as f32 * 0.29).cos()).collect(),
            &[16, 16],
        );
        let exact = a.matmul(&b);
        let err = |fmt| {
            let y = quantized_matmul(&a, &b, TensorFormat::Bdr(fmt));
            y.sub(&exact).sq_norm()
        };
        let e9 = err(BdrFormat::MX9);
        let e6 = err(BdrFormat::MX6);
        let e4 = err(BdrFormat::MX4);
        assert!(e9 < e6 && e6 < e4, "{e9} {e6} {e4}");
    }

    #[test]
    fn weight_plane_cache_hits_and_invalidates() {
        let (m, k, n) = (3, 40, 5);
        let a = Tensor::from_vec(
            (0..m * k).map(|i| (i as f32 * 0.19).sin()).collect(),
            &[m, k],
        );
        let mut b = Tensor::from_vec(
            (0..k * n).map(|i| (i as f32 * 0.23).cos()).collect(),
            &[k, n],
        );
        assert_eq!(b.cached_plane_generation(), None, "cold before first use");
        let y1 = quantized_matmul(&a, &b, TensorFormat::MX6);
        assert_eq!(
            b.cached_plane_generation(),
            Some(b.generation()),
            "warm after first use"
        );
        // Second call hits the cache and is bit-identical.
        let y2 = quantized_matmul(&a, &b, TensorFormat::MX6);
        assert_eq!(y1, y2);
        // Same weight format under a different activation format reuses
        // the plane (the codes depend only on the weight format) and is
        // still bit-exact against the uncached reference for that pair.
        let y_mixed = quantized_matmul_ab(&a, &b, TensorFormat::MX9, TensorFormat::MX6);
        let (TensorFormat::Bdr(a9), TensorFormat::Bdr(w6)) = (TensorFormat::MX9, TensorFormat::MX6)
        else {
            unreachable!()
        };
        let want_mixed = gemm::reference_gemm(a.data(), b.data(), m, k, n, a9, w6);
        assert!(y_mixed
            .data()
            .iter()
            .zip(want_mixed.iter())
            .all(|(x, y)| x.to_bits() == y.to_bits()));
        // A different *weight* format replaces the entry (still correct).
        let y9 = quantized_matmul(&a, &b, TensorFormat::MX9);
        let (TensorFormat::Bdr(f9), TensorFormat::Bdr(f9b)) =
            (TensorFormat::MX9, TensorFormat::MX9)
        else {
            unreachable!()
        };
        let want9 = gemm::reference_gemm(a.data(), b.data(), m, k, n, f9, f9b);
        assert_eq!(y9.data(), &want9[..]);
        // Clones do not share the slot: a clone starts cold (one repack at
        // worst) rather than thrashing a shared one-entry cache once the
        // copies diverge.
        let b_clone = b.clone();
        assert_eq!(b_clone.cached_plane_generation(), None);
        assert!(b.cached_plane_generation().is_some());
        // Mutating the weights invalidates: the stored stamp goes stale ...
        let stamp = b.cached_plane_generation().unwrap();
        b.data_mut()[0] += 1.0;
        assert_ne!(b.cached_plane_generation(), Some(b.generation()));
        assert_eq!(
            b.cached_plane_generation(),
            Some(stamp),
            "entry not yet replaced"
        );
        // ... and the next product repacks from the new values,
        // bit-identical to the uncached reference.
        let y3 = quantized_matmul(&a, &b, TensorFormat::MX6);
        let (TensorFormat::Bdr(f6), _) = (TensorFormat::MX6, ()) else {
            unreachable!()
        };
        let want = gemm::reference_gemm(a.data(), b.data(), m, k, n, f6, f6);
        assert!(y3
            .data()
            .iter()
            .zip(want.iter())
            .all(|(x, y)| x.to_bits() == y.to_bits()));
        assert_ne!(y3, y1);
    }

    #[test]
    fn plane_cache_keeps_one_plane_per_weight_format() {
        let (m, k, n) = (2, 32, 4);
        let a = Tensor::from_vec(
            (0..m * k).map(|i| (i as f32 * 0.31).sin()).collect(),
            &[m, k],
        );
        let mut b = Tensor::from_vec(
            (0..k * n).map(|i| (i as f32 * 0.27).cos()).collect(),
            &[k, n],
        );
        assert_eq!(b.cached_plane_count(), 0);
        let y6 = quantized_matmul(&a, &b, TensorFormat::MX6);
        let y9 = quantized_matmul(&a, &b, TensorFormat::MX9);
        assert_eq!(b.cached_plane_count(), 2, "MX6 and MX9 planes must coexist");
        // Re-running either format hits its own plane (bit-identical) and
        // the count stays put — no thrash between formats. The hit counter
        // is process-wide (parallel tests inflate it), so assert the ≥
        // direction only; "no repack of *this* tensor" is proven by the
        // stable generation stamp and entry count instead.
        let stamp = b.cached_plane_generation();
        let (h0, _) = plane_cache_counters();
        assert_eq!(quantized_matmul(&a, &b, TensorFormat::MX6), y6);
        assert_eq!(quantized_matmul(&a, &b, TensorFormat::MX9), y9);
        let (h1, _) = plane_cache_counters();
        assert!(h1 >= h0 + 2, "both lookups must hit ({h0} -> {h1})");
        assert_eq!(b.cached_plane_count(), 2);
        assert_eq!(b.cached_plane_generation(), stamp, "no repack, no evict");
        // Mutation drops every format's plane at the next lookup.
        b.data_mut()[0] += 1.0;
        let _ = quantized_matmul(&a, &b, TensorFormat::MX6);
        assert_eq!(b.cached_plane_count(), 1, "stale planes must be purged");
    }

    #[test]
    fn display() {
        let cfg = QuantConfig::uniform(TensorFormat::MX9);
        assert_eq!(cfg.to_string(), "fwd=MX9 fwd_w=MX9 bwd=MX9 elem=FP32");
        // Table IV-style (w, a) configs with different weight formats must
        // not print identically.
        let w4a6 = QuantConfig::weights_activations(TensorFormat::MX4, TensorFormat::MX6);
        let w9a6 = QuantConfig::weights_activations(TensorFormat::MX9, TensorFormat::MX6);
        assert_eq!(w4a6.to_string(), "fwd=MX6 fwd_w=MX4 bwd=FP32 elem=FP32");
        assert_ne!(w4a6.to_string(), w9a6.to_string());
    }
}
