//! Forced-backend bit-identity suite: every kernel backend (scalar, AVX2,
//! AVX-512 where the CPU has them) must reproduce the quantize →
//! dequantize → `f32` matmul reference **bit for bit** over the full
//! preset matrix, ragged K tails, ragged N (every masked-store width of
//! the 16-column AVX-512 panel), every serving-relevant M, and every
//! thread count — and
//! deferred scale-out must be provably invisible: forcing it on or off
//! never changes a single output bit, including on adversarial exponent
//! spreads built to straddle every deferral gate (mixed per-vector
//! exponents, all-zero blocks and vectors, magnitudes pushed outside the
//! `f32` grid window, and block counts exceeding the static headroom
//! bound).
//!
//! Generated weight formats add the plane's code width to the matrix: a
//! narrow plane stores byte codes exactly when its format's aligned codes
//! fit a byte, and every backend reads them to the same bits as the
//! reference on hostile data.
//!
//! The backend, deferral, and VNNI overrides are process-wide, so every test that
//! touches them serializes on one mutex and restores automatic selection
//! before releasing it.

mod common;

use std::sync::{Mutex, MutexGuard};

use common::{assert_bits_eq, gemm, stress_vector};
use mx::core::bdr::BdrFormat;
use mx::core::gemm::{
    code_domain_supported, force_deferred_scale_out, force_kernel_backend, force_vnni,
    quantized_gemm_prepacked_scratch, reference_gemm, selected_backend, KernelBackend, PackScratch,
    PackedOperand,
};
use mx::hw::pipeline::{DotProductPipeline, PipelineConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PRESETS: [BdrFormat; 5] = [
    BdrFormat::MX4,
    BdrFormat::MX6,
    BdrFormat::MX9,
    BdrFormat::MSFP12,
    BdrFormat::MSFP16,
];

const BACKENDS: [KernelBackend; 3] = [
    KernelBackend::Scalar,
    KernelBackend::Avx2,
    KernelBackend::Avx512,
];

/// Forces `backend`, or reports `false` (skip it) when this CPU lacks the
/// ISA — `force_kernel_backend` refuses rather than silently clamping.
fn try_force(backend: KernelBackend) -> bool {
    force_kernel_backend(Some(backend)).is_ok()
}

/// Serializes tests that touch the process-wide dispatch knobs.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// RAII guard: holds the lock and restores automatic selection on drop
/// (also on panic, so one failing test cannot poison the others' knobs).
struct KnobGuard<'a>(#[allow(dead_code)] MutexGuard<'a, ()>);

fn lock_knobs() -> KnobGuard<'static> {
    let guard = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    KnobGuard(guard)
}

impl Drop for KnobGuard<'_> {
    fn drop(&mut self) {
        force_kernel_backend(None).expect("clearing the backend override cannot fail");
        force_deferred_scale_out(None);
        force_vnni(None);
    }
}

/// Adversarial exponent spreads for the deferral gates: vector `salt`
/// selects among uniform-exponent data (maximal deferral), per-block
/// exponent jumps (MIXED_EXP vectors), tiny magnitudes that push
/// `e_a + e_b + c` below the `f32` grid window, huge magnitudes that push
/// it above, and interleaved zero blocks.
fn exponent_spread_vector(n: usize, salt: usize) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let h = (i.wrapping_mul(2654435761).wrapping_add(salt * 131)) % 997;
            let base = 1.0 + h as f32 / 997.0; // [1, 2): exponent 0
            let sign = if (h >> 3) & 1 == 0 { 1.0 } else { -1.0 };
            match salt % 5 {
                // Uniform shared exponent across every block.
                0 => sign * base,
                // Alternate blocks 2^40 apart: mixed per-vector exponents.
                1 => {
                    sign * base
                        * if (i / 16) % 2 == 0 {
                            1.0
                        } else {
                            2.0f32.powi(40)
                        }
                }
                // Tiny: e_a + e_b lands below the grid window when both
                // sides use this scale.
                2 => sign * base * 2.0f32.powi(-75),
                // Huge: e_a + e_b lands above the grid window.
                3 => sign * base * 2.0f32.powi(55),
                // Zero blocks interleaved with uniform data.
                _ => {
                    if (i / 16) % 2 == 0 {
                        0.0
                    } else {
                        sign * base
                    }
                }
            }
        })
        .collect()
}

/// Every backend × the full preset matrix × ragged K × all serving Ms
/// (both sides of the 8-row tile and of a 32-row serving batch)
/// reproduces the reference bit for bit. Packing happens after forcing, so
/// each backend also exercises the pack under its own block-core tier.
#[test]
fn forced_backend_matrix_is_bit_identical_to_reference() {
    let _guard = lock_knobs();
    let (k, n) = (40, 7); // ragged K tail: 40 = 2·16 + 8
    for backend in BACKENDS {
        if !try_force(backend) {
            continue;
        }
        let effective = selected_backend();
        for fa in PRESETS {
            for fb in PRESETS {
                for m in [1usize, 7, 8, 32, 33] {
                    let a = stress_vector(m * k, 3 * m + 1);
                    let b = stress_vector(k * n, 5 * m + 2);
                    let want = reference_gemm(&a, &b, m, k, n, fa, fb);
                    let got = gemm(&a, &b, m, k, n, fa, fb, 1);
                    assert_bits_eq(
                        &got,
                        &want,
                        &format!("{}({}) {fa}/{fb} m={m}", backend.name(), effective.name()),
                    );
                }
            }
        }
    }
}

/// Forced backends stay bit-identical under row-parallel dispatch at every
/// thread count, with every row span lowering its own rows of A.
#[test]
fn forced_backends_are_thread_count_invariant() {
    let _guard = lock_knobs();
    let fmt = BdrFormat::MX6;
    for backend in BACKENDS {
        if !try_force(backend) {
            continue;
        }
        // The last three shapes are above the GEMM's fan-out threshold:
        // 4 Mi MACs at M = 32 / 33 (up to four row spans, ragged at 33)
        // and 12.5 Mi at M = 100 (up to seven ragged spans). The first
        // three stay serial under any budget.
        for (m, k, n) in [
            (8usize, 96, 24),
            (32, 96, 24),
            (33, 96, 24),
            (32, 512, 256),
            (33, 512, 256),
            (100, 512, 256),
        ] {
            let a = stress_vector(m * k, 7 * m);
            let b = stress_vector(k * n, 11 * m);
            let pb = PackedOperand::pack_cols(&b, k, n, fmt, fmt).unwrap();
            let want = reference_gemm(&a, &b, m, k, n, fmt, fmt);
            let mut scratch = PackScratch::new();
            for threads in [1usize, 2, 3, 7, 0] {
                let got = quantized_gemm_prepacked_scratch(&a, m, fmt, &pb, threads, &mut scratch)
                    .unwrap();
                assert_bits_eq(
                    &got,
                    &want,
                    &format!("{} m={m} threads={threads}", backend.name()),
                );
            }
        }
    }
}

/// A B plane packed under one backend still executes correctly after the
/// knob moves: the layout is the same under every backend, each call runs
/// the backend selected when it starts, and results stay bit-identical to
/// the reference regardless of which backend packed the plane.
#[test]
fn planes_packed_under_one_backend_execute_under_another() {
    let _guard = lock_knobs();
    let fmt = BdrFormat::MX9;
    let (m, k, n) = (5, 48, 9);
    let a = stress_vector(m * k, 201);
    let b = stress_vector(k * n, 202);
    let want = reference_gemm(&a, &b, m, k, n, fmt, fmt);
    for packer in BACKENDS {
        if !try_force(packer) {
            continue;
        }
        let pb = PackedOperand::pack_cols(&b, k, n, fmt, fmt).unwrap();
        for runner in BACKENDS {
            if !try_force(runner) {
                continue;
            }
            let got = quantized_gemm_prepacked_scratch(&a, m, fmt, &pb, 1, &mut PackScratch::new())
                .unwrap();
            assert_bits_eq(
                &got,
                &want,
                &format!(
                    "packed under {}, run under {}",
                    packer.name(),
                    runner.name()
                ),
            );
        }
    }
}

/// Deferred scale-out is bit-invisible on every backend: forcing it on and
/// off produces identical bits (and both match the reference) on data
/// built to straddle every deferral gate — uniform exponents, mixed
/// per-vector exponents, magnitudes outside the grid window on either
/// side, and interleaved zero blocks, in every A-case × B-case
/// combination.
#[test]
fn deferral_is_bit_invisible_on_adversarial_exponent_spreads() {
    let _guard = lock_knobs();
    let (k, n) = (64, 6);
    for backend in BACKENDS {
        if !try_force(backend) {
            continue;
        }
        for a_case in 0..5usize {
            for b_case in 0..5usize {
                for m in [1usize, 8, 9] {
                    let a = exponent_spread_vector(m * k, a_case + 5 * (m + 1));
                    let b = exponent_spread_vector(k * n, b_case + 5 * (m + 7));
                    let want = reference_gemm(&a, &b, m, k, n, BdrFormat::MX6, BdrFormat::MX6);
                    let mut runs = Vec::new();
                    for defer in [true, false] {
                        force_deferred_scale_out(Some(defer));
                        let got = gemm(&a, &b, m, k, n, BdrFormat::MX6, BdrFormat::MX6, 1);
                        assert_bits_eq(
                            &got,
                            &want,
                            &format!(
                                "{} a_case={a_case} b_case={b_case} m={m} defer={defer}",
                                backend.name()
                            ),
                        );
                        runs.push(got);
                    }
                    force_deferred_scale_out(None);
                    assert_bits_eq(&runs[0], &runs[1], "defer on vs off");
                }
            }
        }
    }
}

/// Block counts that exceed the static headroom bound (MX9 × MX9 at large
/// K: `blocks · Dmax > 2²⁴`) disarm deferral; results still match the
/// reference bit for bit with the knob forced either way.
#[test]
fn headroom_exceeded_pairs_fall_back_exactly() {
    let _guard = lock_knobs();
    let fmt = BdrFormat::MX9;
    let (m, k, n) = (4, 512, 5);
    let a = stress_vector(m * k, 301);
    let b = stress_vector(k * n, 302);
    let want = reference_gemm(&a, &b, m, k, n, fmt, fmt);
    for backend in BACKENDS {
        if !try_force(backend) {
            continue;
        }
        for defer in [true, false] {
            force_deferred_scale_out(Some(defer));
            let got = gemm(&a, &b, m, k, n, fmt, fmt, 1);
            assert_bits_eq(
                &got,
                &want,
                &format!("{} k=512 defer={defer}", backend.name()),
            );
        }
        force_deferred_scale_out(None);
    }
}

/// Deferral × VNNI, each forced both ways, match the reference under every
/// forced backend at row counts across the 8-row tile and a 32-row
/// serving batch: the deferral, VNNI and backend seams are independent of
/// each other and of M.
#[test]
fn deferral_and_vnni_agree_under_forced_backends() {
    let _guard = lock_knobs();
    let fmt = BdrFormat::MX6;
    let (k, n) = (80, 11);
    let b = exponent_spread_vector(k * n, 11);
    for backend in BACKENDS {
        if !try_force(backend) {
            continue;
        }
        let pb = PackedOperand::pack_cols(&b, k, n, fmt, fmt).unwrap();
        let mut scratch = PackScratch::new();
        for m in [9, 32, 33, 100] {
            let a = exponent_spread_vector(m * k, 10);
            let want = reference_gemm(&a, &b, m, k, n, fmt, fmt);
            for (defer, vnni) in [(true, true), (false, true), (true, false), (false, false)] {
                force_deferred_scale_out(Some(defer));
                force_vnni(Some(vnni));
                let got = quantized_gemm_prepacked_scratch(&a, m, fmt, &pb, 1, &mut scratch);
                assert_bits_eq(
                    &got.unwrap(),
                    &want,
                    &format!("{} m={m} defer={defer} vnni={vnni}", backend.name()),
                );
            }
        }
        force_deferred_scale_out(None);
        force_vnni(None);
    }
}

/// The deferral gate sits exactly at `blocks · Dmax ≤ 2²⁴` — and the
/// column-in-lane AVX-512 kernel inherits that bound *unchanged* (it
/// protects the `f32` mantissa of the deferred sum; each `i32` lane holds
/// one output's partial sum, at most the same 2²⁴, see `FormatPair::defer`
/// in `gemm/pair.rs`).
/// Drive every backend with the block count sitting exactly on the bound
/// and one past it; bits must match the reference with deferral forced
/// both ways.
#[test]
fn headroom_edge_blocks_sit_exactly_on_the_deferral_bound() {
    let _guard = lock_knobs();
    let fmt = BdrFormat::MX6;
    let dmax =
        fmt.k1() as u64 * (fmt.max_code() << fmt.max_shift()) * (fmt.max_code() << fmt.max_shift());
    // Largest block count the static gate still defers; +1 disarms it.
    let edge_blocks = ((1u64 << 24) / dmax) as usize;
    assert!(edge_blocks > 0 && edge_blocks as u64 * dmax <= 1 << 24);
    assert!((edge_blocks as u64 + 1) * dmax > 1 << 24);
    let (m, n) = (3usize, 17usize);
    for blocks in [edge_blocks, edge_blocks + 1] {
        let k = blocks * fmt.k1();
        let a = stress_vector(m * k, 501);
        let b = stress_vector(k * n, 502);
        let want = reference_gemm(&a, &b, m, k, n, fmt, fmt);
        for backend in BACKENDS {
            if !try_force(backend) {
                continue;
            }
            for defer in [true, false] {
                force_deferred_scale_out(Some(defer));
                let got = gemm(&a, &b, m, k, n, fmt, fmt, 1);
                assert_bits_eq(
                    &got,
                    &want,
                    &format!("{} blocks={blocks} defer={defer}", backend.name()),
                );
            }
            force_deferred_scale_out(None);
        }
    }
}

/// Every ragged shape: K % 32 ∈ {1, 15, 16, 17, 31} gives odd and even
/// block counts with ragged final blocks, crossed with N covering ragged
/// widths of the 16-column panel every backend reads (the AVX-512 masked
/// store and the AVX2 partial store: standalone, after one full panel and
/// after two, and on either side of the AVX2 body's 8-lane halves), and
/// with M covering every remainder of the 4-row and 2-row groups and the
/// 16-row tile — each with deferral on and off, on stress data and on
/// uniform-exponent data that defers wherever the gates allow.
#[test]
fn mask_tail_shapes_cover_every_ragged_k_and_n() {
    let _guard = lock_knobs();
    let (fa, fb) = (BdrFormat::MX6, BdrFormat::MX9);
    for (ki, k) in [65usize, 79, 80, 81, 95].into_iter().enumerate() {
        for n in [1usize, 2, 6, 15, 16, 17, 31, 33, 47, 48, 49] {
            for (m, uniform) in [1usize, 2, 3, 4, 5, 17]
                .into_iter()
                .flat_map(|m| [(m, false), (m, true)])
            {
                let (a, b) = if uniform {
                    (
                        exponent_spread_vector(m * k, 5 * (ki + 1)),
                        exponent_spread_vector(k * n, 5 * n),
                    )
                } else {
                    (
                        stress_vector(m * k, 601 + 7 * ki),
                        stress_vector(k * n, 701 + 13 * n),
                    )
                };
                let want = reference_gemm(&a, &b, m, k, n, fa, fb);
                for backend in BACKENDS {
                    if !try_force(backend) {
                        continue;
                    }
                    for defer in [true, false] {
                        force_deferred_scale_out(Some(defer));
                        let got = gemm(&a, &b, m, k, n, fa, fb, 1);
                        assert_bits_eq(
                            &got,
                            &want,
                            &format!(
                                "{} k={k} n={n} m={m} uniform={uniform} defer={defer}",
                                backend.name()
                            ),
                        );
                    }
                    force_deferred_scale_out(None);
                }
            }
        }
    }
}

/// Mixed per-vector exponents (alternate blocks 2⁴⁰ apart) disqualify
/// whole-panel deferral inside full panels, forcing the per-block
/// epilogue on one or both operands; bits must still match the reference
/// at even and odd block counts and with a ragged panel in play.
#[test]
fn mixed_exponent_vectors_force_the_per_block_fallback() {
    let _guard = lock_knobs();
    let fmt = BdrFormat::MX6;
    let (m, n) = (6usize, 33usize); // two full panels + ragged 1
    for k in [80usize, 96] {
        // salt ≡ 1 (mod 5) selects the mixed-exponent spread.
        let a_mixed = exponent_spread_vector(m * k, 1 + 5 * k);
        let b_mixed = exponent_spread_vector(k * n, 6 + 5 * k);
        let a_uniform = exponent_spread_vector(m * k, 5 * k);
        let b_uniform = exponent_spread_vector(k * n, 10 * k);
        for (a, b, case) in [
            (&a_mixed, &b_uniform, "mixed A"),
            (&a_uniform, &b_mixed, "mixed B"),
            (&a_mixed, &b_mixed, "mixed both"),
        ] {
            let want = reference_gemm(a, b, m, k, n, fmt, fmt);
            for backend in BACKENDS {
                if !try_force(backend) {
                    continue;
                }
                let got = gemm(a, b, m, k, n, fmt, fmt, 1);
                assert_bits_eq(&got, &want, &format!("{} {case} k={k}", backend.name()));
            }
        }
    }
}

/// A row group that mixes deferring and per-block rows: B is a
/// uniform-exponent panel plus a ragged one, so every uniform A row defers
/// against both, and A alternates uniform rows with rows whose blocks sit
/// 2⁴⁰ apart, which take the per-block epilogue. Every row group of two,
/// three or four rows (M ∈ {2, 3, 5, 6, 7, 15, 17, 33} reaches each
/// remainder of the 4-row group and the 16-row tile) then holds both
/// kinds, and each row must take its own seed — the row's total bias
/// correction, or its block's — on every backend, with VNNI and deferral
/// each forced both ways: one byte digit (MX6 × MX6), two (MX9 × MX6),
/// three (a 15-bit custom format against MX4, the widest weights whose
/// block dots still let such a row defer) and the `i16` plane (MX9 × MX9).
#[test]
fn row_groups_mixing_deferred_and_per_block_rows_keep_every_bit() {
    let _guard = lock_knobs();
    let wide_a = BdrFormat::new(15, 8, 0, 16, 16).unwrap();
    let pairs = [
        (BdrFormat::MX6, BdrFormat::MX6),
        (BdrFormat::MX9, BdrFormat::MX6),
        (wide_a, BdrFormat::MX4),
        (BdrFormat::MX9, BdrFormat::MX9),
    ];
    let (k, n) = (72, 16 + 9); // five blocks, the last ragged
                               // Salt 0 (mod 5): uniform exponents; salt 1 (mod 5): blocks 2⁴⁰ apart.
    let b = exponent_spread_vector(k * n, 20);
    for backend in BACKENDS {
        if !try_force(backend) {
            continue;
        }
        for (fa, fb) in pairs {
            let pb = PackedOperand::pack_cols(&b, k, n, fa, fb).unwrap();
            let mut scratch = PackScratch::new();
            for m in [2usize, 3, 5, 6, 7, 15, 17, 33] {
                let a: Vec<f32> = (0..m)
                    .flat_map(|i| exponent_spread_vector(k, 5 * i + i % 2))
                    .collect();
                let want = reference_gemm(&a, &b, m, k, n, fa, fb);
                for (defer, vnni) in [(true, true), (false, true), (true, false), (false, false)] {
                    force_deferred_scale_out(Some(defer));
                    force_vnni(Some(vnni));
                    let got = quantized_gemm_prepacked_scratch(&a, m, fa, &pb, 1, &mut scratch);
                    assert_bits_eq(
                        &got.unwrap(),
                        &want,
                        &format!(
                            "{} {fa}/{fb} m={m} defer={defer} vnni={vnni}",
                            backend.name()
                        ),
                    );
                }
            }
            force_deferred_scale_out(None);
            force_vnni(None);
        }
    }
}

/// Wide custom formats (i32 codes) always run the portable kernel; forcing
/// any backend neither crashes nor changes their bits.
#[test]
fn wide_pairs_are_backend_invariant() {
    let _guard = lock_knobs();
    let wide = BdrFormat::new(16, 8, 0, 16, 16).unwrap();
    let (m, k, n) = (3, 40, 4);
    let a = stress_vector(m * k, 401);
    let b = stress_vector(k * n, 402);
    let want = reference_gemm(&a, &b, m, k, n, wide, wide);
    for backend in BACKENDS {
        if !try_force(backend) {
            continue;
        }
        let got = gemm(&a, &b, m, k, n, wide, wide, 1);
        assert_bits_eq(&got, &want, &format!("wide pair under {}", backend.name()));
    }
}

/// Hostile operand data, one mode per vector (an A row or a B column),
/// `v mod 3`: uniform shared exponents (the deferred path), hostile
/// elements (±NaN, which lowers to code 0; ±Inf, which clamps to
/// `max_code`; ±0; subnormals; a wide magnitude spread), or blocks
/// alternating 2⁴⁰ apart with every third block zero (a mixed-exponent
/// vector: the per-block fallback). Element `i` of vector `v` sits at
/// `v·vec_stride + i·elem_stride`.
fn hostile_operand(
    rng: &mut StdRng,
    vectors: usize,
    len: usize,
    k1: usize,
    (vec_stride, elem_stride): (usize, usize),
) -> Vec<f32> {
    let mut data = vec![0.0f32; vectors * len];
    for v in 0..vectors {
        for i in 0..len {
            let sign = if rng.gen_range(0..2u32) == 0 {
                1.0
            } else {
                -1.0
            };
            data[v * vec_stride + i * elem_stride] = match v % 3 {
                0 => sign * rng.gen_range(1.0f32..2.0),
                1 => match rng.gen_range(0..10u32) {
                    0 => f32::NAN,
                    1 => -f32::NAN,
                    2 => f32::INFINITY,
                    3 => f32::NEG_INFINITY,
                    4 => 0.0,
                    5 => -0.0,
                    6 => sign * f32::from_bits(rng.gen_range(1..0x0080_0000u32)),
                    7 => sign * rng.gen_range(0.0f32..1e4),
                    _ => sign * rng.gen_range(0.0f32..1.0),
                },
                _ => match (i / k1) % 3 {
                    0 => sign * rng.gen_range(1.0f32..2.0),
                    1 => sign * rng.gen_range(1.0f32..2.0) * 2.0f32.powi(40),
                    _ => 0.0,
                },
            };
        }
    }
    data
}

/// Generated narrow-class weight formats, half of them at the vector
/// bodies' `k1 = 16`: the plane holds byte codes exactly when
/// `max_code ≪ β ≤ 127` (read back from `packed_bytes` and `Debug`), on
/// every backend in the one layout — 16-column panels, blocks padded to a
/// whole lane group — it accepts exactly the partners its class admits,
/// and on every backend it reproduces the reference bit for bit at
/// M ∈ {1, 4, 33} and threads ∈ {1, 0} — on hostile data, with ragged N
/// (a partial last panel, short of and past the AVX2 half) and odd block
/// counts.
#[test]
fn generated_weight_formats_pick_the_plane_width_and_keep_every_bit() {
    let _guard = lock_knobs();
    let mut rng = StdRng::seed_from_u64(35);
    let (mut byte_planes, mut half_planes, mut draws) = (0, 0, 0);
    while byte_planes < 16 || half_planes < 16 {
        draws += 1;
        assert!(
            draws < 20_000,
            "{byte_planes} byte, {half_planes} i16 planes"
        );
        let panel_k1 = draws % 2 == 0;
        let fb = BdrFormat::random(&mut rng, panel_k1.then_some(16));
        let fa = BdrFormat::random(&mut rng, Some(fb.k1()));
        // A partner lands in the narrow class with `fb` when the pair is
        // supported and both aligned widths and the block dot fit the
        // 16-bit MAC datapath.
        let width = |f: &BdrFormat| f.m() + f.max_shift();
        let ceil_log2 = usize::BITS - (fb.k1() - 1).leading_zeros();
        let narrow_with = |f: &BdrFormat| {
            code_domain_supported(f, &fb)
                && width(f) <= 15
                && width(&fb) <= 15
                && width(f) + width(&fb) + ceil_log2 <= 31
        };
        if !narrow_with(&fa) {
            continue;
        }
        let byte = (fb.max_code() << fb.max_shift()) <= 127;
        let (counter, code_bytes) = if byte {
            (&mut byte_planes, 1)
        } else {
            (&mut half_planes, 2)
        };
        if *counter >= 16 {
            continue;
        }
        *counter += 1;
        let k1 = fb.k1();
        // An odd block count, ragged or whole, and N short of a whole
        // 16-column panel.
        let blocks = 2 * rng.gen_range(0..3usize) + 1;
        let k = (blocks - 1) * k1 + rng.gen_range(1..=k1);
        let n = [1usize, 2, 3, 5, 6, 7, 9, 10, 11][rng.gen_range(0..9usize)];
        let b = hostile_operand(&mut rng, n, k, k1, (1, n));
        for backend in BACKENDS {
            if !try_force(backend) {
                continue;
            }
            let pb = PackedOperand::pack_cols(&b, k, n, fa, fb).unwrap();
            // Every backend zero-pads the last panel to 16 columns, and
            // each block to whole quads (bytes) or pairs (`i16`).
            let stored = n.next_multiple_of(16);
            let slots = k1.next_multiple_of(4 / code_bytes);
            let exps = 4 * stored * blocks;
            assert_eq!(
                pb.packed_bytes(),
                code_bytes * stored * blocks * slots + exps,
                "{fa}/{fb}: {pb:?}"
            );
            let shown = format!("{pb:?}");
            let label = if byte { ", i8" } else { ", i16" };
            assert!(shown.contains(label), "{fa}/{fb}: {shown}");
            for other in [fa, BdrFormat::MX9, BdrFormat::MX6] {
                assert_eq!(
                    pb.accepts(&other),
                    narrow_with(&other),
                    "{other} on {shown}"
                );
            }
            let mut scratch = PackScratch::new();
            for m in [1usize, 4, 33] {
                let a = hostile_operand(&mut rng, m, k, k1, (k, 1));
                let want = reference_gemm(&a, &b, m, k, n, fa, fb);
                for threads in [1usize, 0] {
                    let got =
                        quantized_gemm_prepacked_scratch(&a, m, fa, &pb, threads, &mut scratch)
                            .unwrap();
                    assert_bits_eq(
                        &got,
                        &want,
                        &format!("{} {fa}/{fb} {m}x{k}x{n} threads={threads}", backend.name()),
                    );
                }
            }
        }
    }
}

/// Three independent routes to one product agree bit for bit. The Fig. 6
/// datapath model (`mx_hw::pipeline`) quantizes each block itself into
/// `i128` significands and, with one block per pass (`r = k1`) and a
/// lossless fixed-point width (`f = natural_width`), converts each block
/// result to `f32` once and accumulates in `f32` — per output element,
/// with no code plane, no kernel and no dequantized matrix. It must equal
/// `reference_gemm` and every forced backend (VNNI and deferral each both
/// ways) on the presets and on generated same-format lattice formats, over
/// hostile data: ±NaN, ±Inf, ±0, subnormals, magnitude and exponent
/// spreads, ragged K and a ragged 16-column panel.
#[test]
fn fig6_datapath_reference_and_backends_agree_bit_for_bit() {
    let _guard = lock_knobs();
    let mut rng = StdRng::seed_from_u64(38);
    // The presets, narrow formats whose block dots exceed 2²⁴ (the widest
    // the 16-bit MAC path admits: `m + β = 13`, full exponent range) and
    // generated lattice formats.
    let mut formats = PRESETS.to_vec();
    for (m, d2, k2) in [(13, 0, 16), (12, 1, 2), (10, 2, 4)] {
        formats.push(BdrFormat::new(m, 8, d2, 16, k2).unwrap());
    }
    while formats.len() < PRESETS.len() + 3 + 48 {
        let at_panel_k1 = formats.len().is_multiple_of(2);
        let fmt = BdrFormat::random(&mut rng, at_panel_k1.then_some(16));
        if code_domain_supported(&fmt, &fmt) {
            formats.push(fmt);
        }
    }
    let (m, n) = (3usize, 18usize);
    for fmt in formats {
        let k1 = fmt.k1();
        let config = PipelineConfig::Bdr(fmt);
        let pipeline = DotProductPipeline::new(config, k1)
            .with_accumulator_bits(config.natural_width().max(4));
        let k = rng.gen_range(0..4usize) * k1 + rng.gen_range(1..=k1);
        let a = hostile_operand(&mut rng, m, k, k1, (k, 1));
        let b = hostile_operand(&mut rng, n, k, k1, (1, n));
        // Also both operands scaled by 2⁻⁶⁶: block results land in the
        // `f32` subnormal range, where a wide block dot's scale-out rounds
        // at a lower precision than its conversion would.
        let tiny = |x: &[f32]| x.iter().map(|v| v * 2.0f32.powi(-66)).collect::<Vec<_>>();
        for (a, b) in [(a.clone(), b.clone()), (tiny(&a), tiny(&b))] {
            check_three_ways(&pipeline, &a, &b, (m, k, n), fmt);
        }
    }
}

/// The body of [`fig6_datapath_reference_and_backends_agree_bit_for_bit`]
/// for one operand pair.
fn check_three_ways(
    pipeline: &DotProductPipeline,
    a: &[f32],
    b: &[f32],
    (m, k, n): (usize, usize, usize),
    fmt: BdrFormat,
) {
    let want = reference_gemm(a, b, m, k, n, fmt, fmt);
    for i in 0..m {
        for j in 0..n {
            let col: Vec<f32> = (0..k).map(|p| b[p * n + j]).collect();
            let got = pipeline.dot(&a[i * k..][..k], &col);
            assert_bits_eq(
                &[got],
                &[want[i * n + j]],
                &format!("pipeline {fmt} k={k} ({i}, {j})"),
            );
        }
    }
    for backend in BACKENDS {
        if !try_force(backend) {
            continue;
        }
        let pb = PackedOperand::pack_cols(b, k, n, fmt, fmt).unwrap();
        for (defer, vnni) in [(true, true), (false, true), (true, false), (false, false)] {
            force_deferred_scale_out(Some(defer));
            force_vnni(Some(vnni));
            let got = quantized_gemm_prepacked_scratch(a, m, fmt, &pb, 1, &mut PackScratch::new());
            assert_bits_eq(
                &got.unwrap(),
                &want,
                &format!("{} {fmt} k={k} defer={defer} vnni={vnni}", backend.name()),
            );
        }
        force_deferred_scale_out(None);
        force_vnni(None);
    }
}

/// An operand of `rows × cols` (row-major) whose K runs along `k_axis`
/// (`0`: along a row, an A operand; `1`: down a column, a B operand),
/// built from `k1 = 16` blocks of one kind each, cycling with the block
/// index and `salt`: every element `+v`, every element `−v`, `±v`
/// alternating, or random values in `(−2, 2)` with zeros. `v = 2 − 2⁻⁶`
/// is the largest 7-bit mantissa at exponent 0: code 127 for MSFP16
/// (stored 255 and 1 on a biased byte plane) and aligned code ±254 for
/// MX9.
fn extreme_operand(
    rng: &mut StdRng,
    rows: usize,
    cols: usize,
    k_axis: usize,
    salt: usize,
) -> Vec<f32> {
    let v = 2.0 - 2f32.powi(-6);
    let mut out = vec![0.0; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            let (kk, other) = if k_axis == 0 { (c, r) } else { (r, c) };
            out[r * cols + c] = match (kk / 16 + other + salt) % 4 {
                0 => v,
                1 => -v,
                2 if kk % 2 == 0 => v,
                2 => -v,
                _ if rng.gen_range(0..5u32) == 0 => 0.0,
                _ => rng.gen_range(-2.0f32..2.0),
            };
        }
    }
    out
}

/// The AVX-512 byte plane at its extremes, against the reference, with
/// VNNI and deferral each forced both ways on every backend: weight codes
/// ±127 (the biased bytes 255 and 1) against activation codes ±127
/// (MSFP16 × MSFP16: one digit), ±254 (MX9 × MSFP16: two digits,
/// `a = 256·h + l`) and up to ±32767 (a 15-bit custom activation format:
/// three digits); all-negative, all-positive and alternating blocks,
/// ragged K and ragged N. Every block's bias correction and every digit
/// weight shows in these sums: a lane that kept `128·Σ a` or shifted a
/// digit by the wrong base misses by far more than an ulp.
#[test]
fn byte_planes_keep_every_bit_at_code_extremes_and_digit_splits() {
    let _guard = lock_knobs();
    let mut rng = StdRng::seed_from_u64(40);
    let wide_a = BdrFormat::new(15, 8, 0, 16, 16).unwrap();
    let pairs = [
        (BdrFormat::MSFP16, BdrFormat::MSFP16),
        (BdrFormat::MX9, BdrFormat::MSFP16),
        (BdrFormat::MX6, BdrFormat::MX6),
        (wide_a, BdrFormat::MSFP16),
    ];
    let shapes = [(1, 16, 16), (4, 40, 17), (33, 73, 31), (7, 512, 33)];
    for backend in BACKENDS {
        if !try_force(backend) {
            continue;
        }
        for (fa, fb) in pairs {
            assert!(code_domain_supported(&fa, &fb), "{fa}/{fb}");
            for (salt, &(m, k, n)) in shapes.iter().enumerate() {
                let b = extreme_operand(&mut rng, k, n, 1, salt);
                let a = extreme_operand(&mut rng, m, k, 0, salt + 1);
                let pb = PackedOperand::pack_cols(&b, k, n, fa, fb).unwrap();
                assert!(pb.accepts(&fa), "{fa}/{fb}: {pb:?}");
                let want = reference_gemm(&a, &b, m, k, n, fa, fb);
                let mut scratch = PackScratch::new();
                for (defer, vnni) in [(true, true), (false, true), (true, false), (false, false)] {
                    force_deferred_scale_out(Some(defer));
                    force_vnni(Some(vnni));
                    for threads in [1usize, 0] {
                        let got =
                            quantized_gemm_prepacked_scratch(&a, m, fa, &pb, threads, &mut scratch);
                        assert_bits_eq(
                            &got.unwrap(),
                            &want,
                            &format!(
                                "{} {fa}/{fb} {m}x{k}x{n} defer={defer} vnni={vnni} threads={threads}",
                                backend.name()
                            ),
                        );
                    }
                }
                force_deferred_scale_out(None);
                force_vnni(None);
            }
        }
    }
}
