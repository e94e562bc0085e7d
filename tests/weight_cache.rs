//! Regression suite for the weight-plane cache: quantized matmuls cache
//! the weight operand's prepacked integer code plane on the tensor, keyed
//! by a generation counter that every mutable-data access bumps. The
//! contract under test: **a stale cache is impossible to observe** — after
//! an optimizer step or a direct weight write, layer outputs are
//! bit-identical to a cold-cache run over the updated weights, and while
//! the weights are untouched, repeated forwards are bit-identical to the
//! first. The cache key is `(weight format, kernel class)`: activation
//! formats of both classes alternating against one weight tensor pack once
//! per class, never per call.

use mx::core::bdr::BdrFormat;
use mx::core::gemm::reference_gemm;
use mx::nn::attention::TransformerBlock;
use mx::nn::conv::Conv2d;
use mx::nn::format::TensorFormat;
use mx::nn::layers::{Layer, Linear};
use mx::nn::optim::{Adam, Sgd};
use mx::nn::param::HasParams;
use mx::nn::qflow::{plane_cache_counters, quantized_matmul_ab, QuantConfig};
use mx::nn::rnn::Gru;
use mx::nn::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{RwLock, RwLockReadGuard};

/// The pack counters are process-wide: the one test asserting an exact
/// delta takes this exclusively, every other test (they all pack) shares.
static PACK_COUNTERS: RwLock<()> = RwLock::new(());

/// Shared hold on [`PACK_COUNTERS`] (a failed exclusive holder must not
/// fail the rest of the suite, so poisoning is ignored).
fn packing() -> RwLockReadGuard<'static, ()> {
    PACK_COUNTERS.read().unwrap_or_else(|e| e.into_inner())
}

fn rng() -> StdRng {
    StdRng::seed_from_u64(1234)
}

fn input(rows: usize, cols: usize, salt: usize) -> Tensor {
    Tensor::from_vec(
        (0..rows * cols)
            .map(|i| ((i.wrapping_mul(31).wrapping_add(salt * 7) % 61) as f32 - 30.0) * 0.043)
            .collect(),
        &[rows, cols],
    )
}

fn assert_bits_eq(got: &[f32], want: &[f32], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length");
    for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        assert!(g.to_bits() == w.to_bits(), "{ctx}: element {i}: {g} vs {w}");
    }
}

/// The forward pass a warm cache must reproduce, computed without any
/// caching: the bit-exact dequantize reference over the *current* weights.
fn linear_reference(l: &Linear, x: &Tensor) -> Vec<f32> {
    let (TensorFormat::Bdr(fa), TensorFormat::Bdr(fw)) = (l.quant().fwd, l.quant().fwd_w) else {
        panic!("test requires BDR formats")
    };
    reference_gemm(
        x.data(),
        l.w.value.data(),
        x.rows(),
        x.cols(),
        l.d_out(),
        fa,
        fw,
    )
}

#[test]
fn linear_forward_warms_cache_and_repeats_bit_identically() {
    let _shared = packing();
    let mut l = Linear::new(
        &mut rng(),
        48,
        6,
        false,
        QuantConfig::uniform(TensorFormat::MX6),
    );
    let x = input(5, 48, 1);
    assert_eq!(l.w.weight_plane_generation(), None, "cold before first use");
    let y1 = l.forward(&x, false);
    assert_eq!(
        l.w.weight_plane_generation(),
        Some(l.w.value.generation()),
        "warm after first use"
    );
    assert_bits_eq(y1.data(), &linear_reference(&l, &x), "first forward");
    // Steady state: the cached plane serves every subsequent pass.
    for pass in 0..3 {
        let y = l.forward(&x, false);
        assert_bits_eq(y.data(), y1.data(), &format!("pass {pass}"));
    }
}

#[test]
fn sgd_step_invalidates_cached_plane() {
    let _shared = packing();
    let mut l = Linear::new(
        &mut rng(),
        32,
        4,
        false,
        QuantConfig::uniform(TensorFormat::MX6),
    );
    let x = input(4, 32, 2);
    let y0 = l.forward(&x, true);
    let stamp = l.w.weight_plane_generation().expect("warm");
    // Drive a real update through the optimizer.
    let _ = l.backward(&y0);
    Sgd::new(0.05).step(&mut l);
    assert_ne!(
        l.w.weight_plane_generation(),
        Some(l.w.value.generation()),
        "optimizer step must leave the cached stamp stale"
    );
    assert_eq!(l.w.weight_plane_generation(), Some(stamp));
    // Post-update output == uncached reference over the *new* weights.
    let y1 = l.forward(&x, false);
    assert_bits_eq(y1.data(), &linear_reference(&l, &x), "post-SGD forward");
    assert_ne!(y1.data(), y0.data(), "the update must actually change y");
    // And the repack is itself cached again.
    assert_eq!(l.w.weight_plane_generation(), Some(l.w.value.generation()));
}

#[test]
fn adam_step_invalidates_cached_plane() {
    let _shared = packing();
    let mut l = Linear::new(
        &mut rng(),
        16,
        3,
        false,
        QuantConfig::uniform(TensorFormat::MX9),
    );
    let x = input(2, 16, 3);
    let y0 = l.forward(&x, true);
    let _ = l.backward(&y0);
    Adam::new(0.05).step(&mut l);
    let y1 = l.forward(&x, false);
    assert_bits_eq(y1.data(), &linear_reference(&l, &x), "post-Adam forward");
    assert_ne!(y1.data(), y0.data());
}

#[test]
fn direct_weight_writes_invalidate_cached_plane() {
    let _shared = packing();
    let mut l = Linear::new(
        &mut rng(),
        32,
        5,
        false,
        QuantConfig::uniform(TensorFormat::MX4),
    );
    let x = input(3, 32, 4);
    let _ = l.forward(&x, false);
    // In-place element write through data_mut.
    l.w.value.data_mut()[7] = 0.625;
    let y = l.forward(&x, false);
    assert_bits_eq(y.data(), &linear_reference(&l, &x), "after data_mut write");
    // Wholesale tensor replacement: a fresh tensor starts cold.
    l.w.value = Tensor::from_vec(
        (0..32 * 5)
            .map(|i| ((i % 13) as f32 - 6.0) * 0.09)
            .collect(),
        &[32, 5],
    );
    assert_eq!(l.w.weight_plane_generation(), None, "fresh tensor is cold");
    let y = l.forward(&x, false);
    assert_bits_eq(y.data(), &linear_reference(&l, &x), "after replacement");
}

/// Cached-vs-cold equivalence for the composite layers the cache is meant
/// to serve: attention (4 projections), GRU gates, and conv im2col all
/// produce bit-identical outputs on repeated forwards, and match a
/// freshly constructed (cold-cache) copy fed the same weights.
#[test]
fn composite_layers_repeat_bit_identically_and_match_cold_runs() {
    let _shared = packing();
    let cfg = QuantConfig::uniform(TensorFormat::MX6);
    // Attention block over [batch, seq, d_model].
    let mut block = TransformerBlock::new(&mut rng(), 32, 4, true, cfg);
    let xb = Tensor::from_vec(input(2 * 8, 32, 5).data().to_vec(), &[2, 8, 32]);
    let b1 = block.forward(&xb, false);
    let b2 = block.forward(&xb, false);
    assert_bits_eq(b2.data(), b1.data(), "transformer block repeat");
    let mut cold = TransformerBlock::new(&mut rng(), 32, 4, true, cfg);
    let bc = cold.forward(&xb, false);
    assert_bits_eq(bc.data(), b1.data(), "transformer block cold copy");

    // GRU step.
    let mut gru = Gru::new(&mut rng(), 16, 16, cfg);
    let (x, h) = (input(3, 16, 6), input(3, 16, 7));
    let g1 = gru.step(&x, &h, false);
    let g2 = gru.step(&x, &h, false);
    assert_bits_eq(g2.data(), g1.data(), "gru repeat");
    let mut gcold = Gru::new(&mut rng(), 16, 16, cfg);
    let gc = gcold.step(&x, &h, false);
    assert_bits_eq(gc.data(), g1.data(), "gru cold copy");

    // Conv2d im2col over [batch, ch, h, w].
    let mut conv = Conv2d::new(&mut rng(), 2, 3, 3, cfg);
    let xc = Tensor::from_vec(input(2 * 2 * 6, 6, 8).data().to_vec(), &[2, 2, 6, 6]);
    let c1 = conv.forward(&xc, false);
    let c2 = conv.forward(&xc, false);
    assert_bits_eq(c2.data(), c1.data(), "conv repeat");
    let mut ccold = Conv2d::new(&mut rng(), 2, 3, 3, cfg);
    let cc = ccold.forward(&xc, false);
    assert_bits_eq(cc.data(), c1.data(), "conv cold copy");
}

/// Concurrency hammer for the shared plane cache: N threads fire quantized
/// matmuls against **one** weight tensor — the serving pattern, where every
/// in-flight request reads the same model. Activation formats alternate
/// (they share the weight plane), weight formats split across two planes in
/// the per-format cache. Every output must be bit-identical to the serial
/// run, and the weight tensor must end up with exactly the two planes — no
/// thrash, no corruption, no deadlock.
#[test]
fn concurrent_matmuls_against_one_weight_tensor_match_serial() {
    let _shared = packing();
    let (m, k, n) = (4, 48, 6);
    let b = input(k, n, 20);
    let weight_formats = [TensorFormat::MX6, TensorFormat::MX9];
    let act_formats = [
        TensorFormat::MX6,
        TensorFormat::MX9,
        TensorFormat::MX4,
        TensorFormat::Bdr(mx::core::bdr::BdrFormat::MSFP12),
    ];
    let threads = 8;
    let per_thread: Vec<(Tensor, TensorFormat, TensorFormat)> = (0..threads)
        .map(|t| {
            (
                input(m, k, 30 + t),
                act_formats[t % act_formats.len()],
                weight_formats[t % weight_formats.len()],
            )
        })
        .collect();
    // Serial references (also warms both weight planes).
    let serial: Vec<Tensor> = per_thread
        .iter()
        .map(|(a, fa, fw)| quantized_matmul_ab(a, &b, *fa, *fw))
        .collect();
    assert_eq!(b.cached_plane_count(), weight_formats.len());
    let stamp = b.cached_plane_generation();
    std::thread::scope(|s| {
        for (t, (a, fa, fw)) in per_thread.iter().enumerate() {
            let b = &b;
            let want = &serial[t];
            s.spawn(move || {
                for round in 0..25 {
                    let y = quantized_matmul_ab(a, b, *fa, *fw);
                    assert_bits_eq(y.data(), want.data(), &format!("thread {t} round {round}"));
                }
            });
        }
    });
    // The hammer ran entirely on the two warm planes: same generation, same
    // per-format entries, nothing evicted or repacked.
    assert_eq!(b.cached_plane_count(), weight_formats.len());
    assert_eq!(b.cached_plane_generation(), stamp);
}

/// End-to-end: training with quantized forwards steps the optimizer every
/// iteration; each step must invalidate and repack, keeping the whole
/// trajectory identical to a run that never caches (simulated by cloning
/// weights into a cold layer each step).
#[test]
fn training_loop_with_cache_matches_per_step_cold_runs() {
    let _shared = packing();
    let cfg = QuantConfig::uniform(TensorFormat::MX6);
    let mut l = Linear::new(&mut rng(), 16, 2, false, cfg);
    let opt = Sgd::new(0.1);
    let x = input(4, 16, 9);
    for step in 0..5 {
        let y = l.forward(&x, true);
        // A cold layer with identical weights must agree bit for bit.
        let mut cold = Linear::new(&mut rng(), 16, 2, false, cfg);
        cold.w.value = Tensor::from_vec(l.w.value.data().to_vec(), &[16, 2]);
        let yc = cold.forward(&x, false);
        assert_bits_eq(yc.data(), y.data(), &format!("step {step}"));
        let _ = l.backward(&y);
        opt.step(&mut l);
        l.zero_grads();
    }
}

/// Alternating a narrow-class and a wide-class activation format against
/// one weight tensor keeps both planes warm — two packs for twenty calls:
/// the class is part of the cache key, so neither lookup evicts the other
/// class's plane.
#[test]
fn alternating_kernel_classes_pack_once_per_class() {
    let _exclusive = PACK_COUNTERS.write().unwrap_or_else(|e| e.into_inner());
    let (m, k, n) = (3, 40, 5);
    let a = input(m, k, 11);
    let b = input(k, n, 12);
    let wide = BdrFormat::new(16, 8, 0, 16, 16).unwrap();
    let (_, packs_before) = plane_cache_counters();
    for round in 0..10 {
        for fa in [BdrFormat::MX6, wide] {
            let y = quantized_matmul_ab(&a, &b, TensorFormat::Bdr(fa), TensorFormat::MX6);
            let want = reference_gemm(a.data(), b.data(), m, k, n, fa, BdrFormat::MX6);
            assert_bits_eq(y.data(), &want, &format!("round {round} {fa}"));
        }
    }
    let (_, packs_after) = plane_cache_counters();
    assert_eq!(packs_after - packs_before, 2, "one pack per kernel class");
    assert_eq!(
        b.cached_plane_count(),
        2,
        "both classes' planes stay cached"
    );
}
