//! Property-style consistency suite for the unified quantization engine:
//! every consumer of the BDR block plan — the packed bit stream, the value
//! path, the strided column kernel, and the nn-layer axis quantization —
//! must produce identical values, and the parallel front-end must be
//! bit-identical to serial execution.

mod common;

use common::{assert_bits_eq, gemm, stress_vector};
use mx::core::bdr::BdrFormat;
use mx::core::engine::{QuantEngine, PARALLEL_GRAIN};
use mx::core::gemm::{code_domain_supported, force_kernel_backend, KernelBackend};
use mx::core::mx::MxTensor;
use mx::nn::format::{quantize_along, Axis, TensorFormat};
use mx::nn::tensor::Tensor;
use mx::sweep::space::bdr_grid;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const FORMATS: [BdrFormat; 5] = [
    BdrFormat::MX4,
    BdrFormat::MX6,
    BdrFormat::MX9,
    BdrFormat::MSFP12,
    BdrFormat::MSFP16,
];

/// `MxTensor::encode(...).decode()`, the engine value path, and the
/// format's own method agree exactly, for every format, across lengths
/// that are and are not multiples of `k1 = 16`.
#[test]
fn packed_and_value_paths_agree() {
    for fmt in FORMATS {
        for n in [1usize, 5, 15, 16, 17, 31, 32, 33, 100, 256, 1000] {
            let x = stress_vector(n, n);
            let engine = QuantEngine::new(fmt);
            let value = engine.quantize_dequantize(&x);
            assert_eq!(
                value,
                fmt.quantize_dequantize(&x),
                "{fmt} n={n}: format method"
            );
            let packed = MxTensor::encode(fmt, &x);
            let decoded = packed.decode();
            assert_eq!(decoded, value, "{fmt} n={n}: packed round trip");
            // Stronger than == (which treats -0.0 == 0.0): the packed and
            // value paths agree bit for bit, zeros included.
            assert!(
                decoded
                    .iter()
                    .zip(value.iter())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{fmt} n={n}: packed and value paths differ in sign-of-zero"
            );
            assert_eq!(packed.len(), n);
        }
    }
}

/// The strided column kernel agrees with the transpose oracle (transpose,
/// quantize rows, transpose back) on ragged and square shapes.
#[test]
fn strided_column_path_matches_transpose_oracle() {
    for fmt in FORMATS {
        for (rows, cols) in [
            (16, 16),
            (17, 3),
            (33, 7),
            (48, 5),
            (100, 9),
            (1, 8),
            (7, 1),
        ] {
            let x = stress_vector(rows * cols, rows + cols);
            let t = Tensor::from_vec(x.clone(), &[rows, cols]);
            // Oracle: the seed's deleted double-transpose path.
            let mut tt = t.transpose2d();
            let m = tt.cols();
            for row in tt.data_mut().chunks_mut(m) {
                let q = fmt.quantize_dequantize(row);
                row.copy_from_slice(&q);
            }
            let oracle = tt.transpose2d();
            // Engine: strided kernel through quantize_along.
            let got = quantize_along(&t, TensorFormat::Bdr(fmt), Axis::Col);
            assert_eq!(got, oracle, "{fmt} {rows}x{cols}");
        }
    }
}

/// The retained division oracle, through public API only:
/// `quantize_block_codes` is `plan_into` + `quantize_code` (per-element
/// `f64` division, `floor`-based tie break) and `dequantize` the code × ulp
/// product — per `k1`-block of `xs`.
fn division_oracle(fmt: BdrFormat, xs: &[f32]) -> Vec<f32> {
    xs.chunks(fmt.k1())
        .flat_map(|block| fmt.quantize_block_codes(block).dequantize())
        .collect()
}

/// `stress_vector` with the values no arithmetic shortcut may mishandle
/// scattered over it — NaN of both signs, ±Inf, ±0, the smallest and
/// largest denormals, `f32::MIN_POSITIVE`, ±`f32::MAX`, `2^120` (saturates
/// every narrow-`d1` grid far above `2^52` ulps) — and one 64-element run of
/// nothing but non-finite values and zeros (a block the planner answers
/// with `None` although it is not all-zero).
fn hostile_vector(rng: &mut StdRng, n: usize) -> Vec<f32> {
    const SPECIALS: [f32; 14] = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        f32::MAX,
        f32::MIN,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        1.329_228e36, // 2^120
        -1.329_228e36,
        1.0,
        -1.5,
        0.75,
    ];
    let mut x = stress_vector(n, rng.gen_range(0..1000usize));
    let special = |rng: &mut StdRng| match rng.gen_range(0..18u32) {
        14 => f32::from_bits(1),            // 2^-149
        15 => -f32::from_bits(0x007f_ffff), // largest denormal
        16 => -f32::NAN,
        17 => f32::from_bits(rng.gen_range(1..0x0080_0000u32)),
        i => SPECIALS[i as usize],
    };
    for _ in 0..n.div_ceil(5) {
        let at = rng.gen_range(0..n);
        x[at] = special(rng);
    }
    let run = rng.gen_range(0..n);
    for v in x[run..n.min(run + 64)].iter_mut() {
        *v = SPECIALS[rng.gen_range(0..5usize)];
    }
    x
}

/// The value path on the fast block core (integer exponent scan, hoisted
/// power-of-two reciprocal, bias-trick rounding, `f64` clamp) is bit-equal
/// to the retained division oracle and to `decode(encode(x))` — on formats
/// drawn from the whole legal `BdrFormat::new` lattice (plus block shapes
/// the draw cannot reach: 128 sub-blocks, the on-stack limit, and 256,
/// past it), on hostile data, for the contiguous, row and column kernels,
/// ragged in every direction, at threads 1 / 3 / all. Every sixteenth
/// format runs shapes past the parallel threshold so the fan-out is real.
#[test]
fn value_path_matches_division_oracle_on_the_format_lattice() {
    let mut rng = StdRng::seed_from_u64(14);
    let mut formats: Vec<BdrFormat> = [
        (4, 8, 1, 128, 1),
        (3, 8, 2, 256, 1),
        (8, 4, 0, 512, 512),
        (1, 4, 2, 8, 1),
        (23, 8, 4, 16, 2),
        (8, 8, 4, 32, 4),
    ]
    .into_iter()
    .map(|(m, d1, d2, k1, k2)| BdrFormat::new(m, d1, d2, k1, k2).expect("legal"))
    .collect();
    formats.extend((0..250).map(|_| BdrFormat::random(&mut rng, None)));
    assert!(formats.iter().any(|f| f.d1() <= 4) && formats.iter().any(|f| f.m() > 16));

    for (i, fmt) in formats.into_iter().enumerate() {
        let k1 = fmt.k1();
        let big = i % 16 == 0;
        // Contiguous, ragged tail.
        let n = if big {
            2 * PARALLEL_GRAIN + 3 * k1 + 5
        } else {
            rng.gen_range(1..4 * k1 + 40)
        };
        let x = hostile_vector(&mut rng, n);
        let want = division_oracle(fmt, &x);
        let serial = QuantEngine::new(fmt);
        assert_bits_eq(
            &serial.decode(&serial.encode(&x), n),
            &want,
            &format!("{fmt} n={n}: decode(encode(x)) vs division oracle"),
        );
        // 2-D, ragged against k1 along the quantized axis.
        let (rows, cols) = if big {
            (150, 2 * PARALLEL_GRAIN / 150 + 7)
        } else {
            (rng.gen_range(1..2 * k1 + 9), rng.gen_range(1..2 * k1 + 9))
        };
        let m = hostile_vector(&mut rng, rows * cols);
        let want_rows: Vec<f32> = m
            .chunks(cols)
            .flat_map(|row| division_oracle(fmt, row))
            .collect();
        let mut want_cols = vec![0.0f32; rows * cols];
        for c in 0..cols {
            let col: Vec<f32> = (0..rows).map(|r| m[r * cols + c]).collect();
            for (r, v) in division_oracle(fmt, &col).into_iter().enumerate() {
                want_cols[r * cols + c] = v;
            }
        }
        for threads in [1usize, 3, 0] {
            let engine = serial.with_threads(threads);
            let ctx = |kernel: &str| format!("{fmt} {kernel} threads={threads}");
            assert_bits_eq(&engine.quantize_dequantize(&x), &want, &ctx("contiguous"));
            let mut in_place = x.clone();
            engine.quantize_dequantize_in_place(&mut in_place);
            assert_bits_eq(&in_place, &want, &ctx("in place"));
            let mut by_rows = m.clone();
            engine.quantize_dequantize_rows(&mut by_rows, cols);
            assert_bits_eq(&by_rows, &want_rows, &ctx(&format!("{rows}x{cols} rows")));
            let mut by_cols = m.clone();
            engine.quantize_dequantize_cols(&mut by_cols, cols);
            assert_bits_eq(&by_cols, &want_cols, &ctx(&format!("{rows}x{cols} cols")));
        }
    }
}

/// Whether this CPU runs the AVX-512 tier of the engine's block core.
fn vector_tier_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512cd")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("avx512vl")
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// `hostile_vector` plus the whole-block cases: `k1`-aligned runs of
/// nothing but zeros, of nothing but NaN, of subnormals, and of ordinary
/// values scaled to 1e-38 (straddling `f32::MIN_POSITIVE`).
fn hostile_blocks(rng: &mut StdRng, n: usize, k1: usize) -> Vec<f32> {
    let mut x = hostile_vector(rng, n);
    for (b, block) in x.chunks_mut(k1).enumerate() {
        match (b + rng.gen_range(0..2usize)) % 8 {
            1 => block.fill(0.0),
            3 => block.fill(if b % 2 == 0 { f32::NAN } else { -f32::NAN }),
            5 => block.iter_mut().for_each(|v| {
                *v = f32::from_bits(rng.gen_range(0..0x0080_0000u32) | (rng.gen::<u32>() << 31));
            }),
            7 => block
                .iter_mut()
                .for_each(|v| *v = (rng.gen::<f32>() - 0.5) * 4e-38),
            _ => {}
        }
    }
    x
}

/// Everything the block core feeds, computed under whatever backend is
/// forced right now: the three value kernels (contiguous with a ragged
/// tail, rows ragged against `k1`, strided columns) and — where the code
/// domain admits the format — the products whose A side is lowered to
/// codes at a single-tile (`m = 3`) and a multi-tile (`m = 40`) row count,
/// against a column-packed (strided) B.
fn block_core_outputs(fmt: BdrFormat, x: &[f32], rows: usize, cols: usize) -> Vec<Vec<f32>> {
    let engine = QuantEngine::new(fmt);
    let matrix = &x[..rows * cols];
    let mut by_rows = matrix.to_vec();
    engine.quantize_dequantize_rows(&mut by_rows, cols);
    let mut by_cols = matrix.to_vec();
    engine.quantize_dequantize_cols(&mut by_cols, cols);
    let mut out = vec![engine.quantize_dequantize(x), by_rows, by_cols];
    if code_domain_supported(&fmt, &fmt) {
        let (k, n) = (cols, 5);
        let b = stress_vector(k * n, rows);
        for m in [3, 40] {
            out.push(gemm(&x[..m * k], &b, m, k, n, fmt, fmt, 1));
        }
    }
    out
}

/// The AVX-512 tier of the block core equals the scalar tier, bit for
/// bit, toggled in-process with `force_kernel_backend`: values and — through
/// the products they feed — `i16` and `i32` codes, for every `(m, d1, d2,
/// k1, k2)` of the Fig. 7 grid and 256 formats drawn from the whole legal
/// lattice (half of them on the block sizes the vector core covers), on
/// data mixing NaN of both signs, ±Inf, ±0, subnormals, `MIN_POSITIVE`,
/// `MAX`, all-zero, all-NaN and 1e-38-scaled blocks, with ragged tails and
/// strided blocks (which stay on the scalar tier under either setting).
#[test]
fn vector_tier_matches_scalar_tier_bit_for_bit() {
    if !vector_tier_available() {
        eprintln!("SKIPPED vector_tier_matches_scalar_tier_bit_for_bit: no AVX-512 F/CD/DQ/BW/VL");
        return;
    }
    let mut rng = StdRng::seed_from_u64(22);
    let mut formats: Vec<BdrFormat> = bdr_grid()
        .into_iter()
        .map(|c| match c {
            mx::hw::cost::FormatConfig::Bdr(fmt) => fmt,
            other => panic!("bdr_grid yields BDR formats, got {other}"),
        })
        .collect();
    for i in 0..256 {
        let k1 = (i % 2 == 1).then(|| [8, 16, 32, 128][i / 2 % 4]);
        formats.push(BdrFormat::random(&mut rng, k1));
    }
    let (mut narrow, mut wide) = (0, 0);
    for fmt in formats {
        let k1 = fmt.k1();
        // 40 rows for the multi-tile product; `cols` ragged against k1.
        let (rows, cols) = (40, 2 * k1 + rng.gen_range(0..k1));
        let n = rows * cols + rng.gen_range(0..k1);
        let x = hostile_blocks(&mut rng, n, k1);
        force_kernel_backend(Some(KernelBackend::Scalar)).expect("scalar always runs");
        let scalar = block_core_outputs(fmt, &x, rows, cols);
        force_kernel_backend(Some(KernelBackend::Avx512)).expect("AVX-512 was detected");
        let vector = block_core_outputs(fmt, &x, rows, cols);
        let kernels = ["contiguous", "rows", "cols", "gemm m=3", "gemm m=40"];
        for ((s, v), kernel) in scalar.iter().zip(&vector).zip(kernels) {
            assert_bits_eq(v, s, &format!("{fmt} {kernel}: avx512 vs scalar"));
        }
        if code_domain_supported(&fmt, &fmt) {
            // The code width the pair class picks (`pair_class`'s gate).
            if fmt.m() + fmt.max_shift() <= 15 {
                narrow += 1;
            } else {
                wide += 1;
            }
        }
    }
    force_kernel_backend(None).expect("clearing the override cannot fail");
    assert!(narrow > 500 && wide > 20, "i16: {narrow}, i32: {wide}");
}

/// Row-axis quantization through the engine matches per-row vector
/// quantization.
#[test]
fn row_path_matches_per_row_vectors() {
    for fmt in [BdrFormat::MX4, BdrFormat::MX9] {
        let (rows, cols) = (9, 37);
        let x = stress_vector(rows * cols, 11);
        let t = Tensor::from_vec(x.clone(), &[rows, cols]);
        let q = quantize_along(&t, TensorFormat::Bdr(fmt), Axis::Row);
        for r in 0..rows {
            let expect = fmt.quantize_dequantize(&x[r * cols..(r + 1) * cols]);
            assert_eq!(
                &q.data()[r * cols..(r + 1) * cols],
                &expect[..],
                "{fmt} row {r}"
            );
        }
    }
}

/// Parallel and serial quantization produce bit-identical output on every
/// kernel (value, rows, cols, packed encode), for tensors large enough to
/// actually engage the thread pool.
#[test]
fn parallel_quantization_is_deterministic() {
    let fmt = BdrFormat::MX6;
    let n = 4 * PARALLEL_GRAIN + 19; // well past the parallel threshold, ragged tail
    let x = stress_vector(n, 23);

    let serial = QuantEngine::new(fmt);
    let value_serial = serial.quantize_dequantize(&x);
    let bytes_serial = serial.encode(&x);

    for threads in [2usize, 3, 8, 0] {
        let par = QuantEngine::new(fmt).with_threads(threads);
        let value_par = par.quantize_dequantize(&x);
        assert!(
            value_serial
                .iter()
                .zip(value_par.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "value path diverged at threads={threads}"
        );
        assert_eq!(
            bytes_serial,
            par.encode(&x),
            "packed stream diverged at threads={threads}"
        );
    }

    // 2-D kernels: 520 rows x 301 cols (ragged in both directions).
    let (rows, cols) = (520usize, 301usize);
    let m = stress_vector(rows * cols, 29);
    for kernel in ["rows", "cols"] {
        let mut a = m.clone();
        let mut b = m.clone();
        let par = QuantEngine::new(fmt).with_threads(4);
        match kernel {
            "rows" => {
                serial.quantize_dequantize_rows(&mut a, cols);
                par.quantize_dequantize_rows(&mut b, cols);
            }
            _ => {
                serial.quantize_dequantize_cols(&mut a, cols);
                par.quantize_dequantize_cols(&mut b, cols);
            }
        }
        assert!(
            a.iter()
                .zip(b.iter())
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "{kernel} kernel diverged"
        );
    }
}

/// Parallel span decoding of byte-aligned packed streams is bit-identical
/// to the serial decode, for every preset format (all of which have
/// byte-aligned full-block footprints) and a ragged tail block.
#[test]
fn parallel_decode_is_bit_identical_to_serial() {
    for fmt in FORMATS {
        let n = 3 * PARALLEL_GRAIN + 13; // past the threshold, ragged tail
        let x = stress_vector(n, 41);
        let bytes = QuantEngine::new(fmt).encode(&x);
        let serial = QuantEngine::new(fmt).decode(&bytes, n);
        for threads in [2usize, 3, 8, 0] {
            let par = QuantEngine::new(fmt)
                .with_threads(threads)
                .decode(&bytes, n);
            assert!(
                serial
                    .iter()
                    .zip(par.iter())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{fmt} decode diverged at threads={threads}"
            );
        }
    }
}

/// The engine's packed stream is byte-for-byte what the seed's encoder
/// produced: spot-check the exact layout of one known block.
#[test]
fn packed_layout_is_stable() {
    // MX6 block of two values: 1.0 = 8 * 2^-3 (code 8), -0.5 = 4 * 2^-3.
    // Layout: 8-bit biased exponent (0 + 127), one 1-bit shift per
    // sub-block (k2 = 2 -> one sub-block, shift 0), then sign+4-bit codes.
    let t = MxTensor::encode(BdrFormat::MX6, &[1.0, -0.5]);
    // 8 + 1 + 2*5 = 19 bits -> 3 bytes.
    assert_eq!(t.as_bytes().len(), 3);
    let bits: Vec<u8> = t
        .as_bytes()
        .iter()
        .flat_map(|b| (0..8).rev().map(move |i| (b >> i) & 1))
        .collect();
    // Biased shared exponent 127.
    assert_eq!(&bits[0..8], &[0, 1, 1, 1, 1, 1, 1, 1]);
    // Microexponent shift 0.
    assert_eq!(bits[8], 0);
    // +1.0 -> sign 0, code 8 (1000); -0.5 -> sign 1, code 4 (0100).
    assert_eq!(&bits[9..14], &[0, 1, 0, 0, 0]);
    assert_eq!(&bits[14..19], &[1, 0, 1, 0, 0]);
}
