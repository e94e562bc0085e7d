//! Production [`tanh`], on every instantiation this CPU runs, against the
//! fdlibm oracle, bit for bit.

use super::fdlibm;
use super::tanh;
use crate::layers::Activation;
use mx_core::gemm::KernelBackend;
use mx_core::parallel;

/// The activation tiers this CPU can run (the others would fall back to
/// the portable loop and test nothing new).
fn tiers() -> Vec<KernelBackend> {
    let mut tiers = vec![KernelBackend::Scalar];
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            tiers.push(KernelBackend::Avx2);
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            tiers.push(KernelBackend::Avx512);
        }
    }
    tiers
}

/// Runs `Activation::Tanh` over `bits` on every tier and returns the first
/// input whose output differs from the oracle, with the tier and both
/// outputs.
fn first_mismatch(bits: &[u32]) -> Option<(KernelBackend, u32, u32, u32)> {
    let xs: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
    let want: Vec<u32> = xs.iter().map(|&x| fdlibm::tanhf(x).to_bits()).collect();
    for tier in tiers() {
        let mut ys = xs.clone();
        Activation::Tanh.apply_slice_on(tier, &mut ys);
        if let Some(i) = (0..ys.len()).find(|&i| ys[i].to_bits() != want[i]) {
            return Some((tier, bits[i], ys[i].to_bits(), want[i]));
        }
    }
    None
}

/// `|x|` bit patterns where fdlibm changes branch, for `tanhf`'s own
/// thresholds and for `expm1f`'s at the argument `2|x|` it is called with.
fn thresholds() -> Vec<u32> {
    let tanh = [0x7f80_0000, 0x41b0_0000, 0x2400_0000, 0x3f80_0000];
    let expm1 = [
        0x4195_b844,
        0x42b1_7218,
        0x3eb1_7218,
        0x3f85_1592,
        0x3300_0000,
    ];
    let mut out: Vec<u32> = tanh.to_vec();
    // expm1's argument is 2|x|: one less in the exponent field.
    out.extend(expm1.iter().map(|&a| a - 0x0080_0000));
    // Where k = trunc(|2x|/ln2 + 0.5) steps, k reaching 64 at |x| = 22.
    for k in 1..=64 {
        let edge = (k as f32 - 0.5) * std::f32::consts::LN_2 / 2.0;
        out.push(edge.to_bits());
    }
    out
}

#[test]
fn every_tier_matches_oracle_on_a_strided_sweep_and_every_threshold() {
    // Every 4099th pattern: about a million inputs spread over all
    // exponents, signs, NaN payloads and subnormals.
    let mut bits: Vec<u32> = (0..=u32::MAX).step_by(4099).collect();
    for t in thresholds() {
        for sign in [0, 0x8000_0000] {
            // ±2 ulps; the k edges above are rounded, so widen those.
            for d in -8i32..=8 {
                bits.push((t as i32).wrapping_add(d) as u32 | sign);
            }
        }
    }
    assert_eq!(first_mismatch(&bits), None, "(tier, input, got, oracle)");
}

#[test]
fn scalar_calls_match_the_oracle() {
    // The derivative path calls `tanh` one element at a time.
    for b in (0..=u32::MAX).step_by(65_537) {
        let x = f32::from_bits(b);
        assert_eq!(tanh(x).to_bits(), fdlibm::tanhf(x).to_bits(), "{b:#010x}");
    }
}

/// Splits all 2^32 patterns into chunks and checks them across
/// [`parallel::map`]; returns the mismatches `(input, got, expected)`.
fn sweep_all(check: impl Fn(&[u32]) -> Option<(u32, u32, u32)> + Sync) -> Vec<(u32, u32, u32)> {
    const CHUNK: u64 = 1 << 20;
    let starts: Vec<u64> = (0..1u64 << 32).step_by(CHUNK as usize).collect();
    let found = parallel::map(&starts, parallel::default_threads(), |&start| {
        let bits: Vec<u32> = (start..start + CHUNK).map(|b| b as u32).collect();
        check(&bits)
    });
    found.into_iter().flatten().collect()
}

/// Every tier against the oracle on all 2^32 patterns. Release builds
/// only in practice: `cargo test --release -p mx-nn --lib --
/// --ignored --exact tanh::tests::every_tier_matches_oracle_on_all_patterns`.
#[test]
#[ignore = "walks all 2^32 patterns; run in release"]
fn every_tier_matches_oracle_on_all_patterns() {
    let bad = sweep_all(|bits| first_mismatch(bits).map(|(_, x, got, want)| (x, got, want)));
    assert!(bad.is_empty(), "(input, got, oracle): {bad:x?}");
}

/// The oracle against the host's `f32::tanh` on all 2^32 patterns. Holds
/// only where the host `tanhf` is fdlibm's (glibc's is); a statement
/// about the host, not about this crate, so CI does not run it.
#[test]
#[ignore = "depends on the host libm; walks all 2^32 patterns"]
fn oracle_matches_host_tanhf_on_all_patterns() {
    let bad = sweep_all(|bits| {
        bits.iter().find_map(|&b| {
            let x = f32::from_bits(b);
            let (got, want) = (fdlibm::tanhf(x).to_bits(), x.tanh().to_bits());
            (got != want).then_some((b, got, want))
        })
    });
    assert!(bad.is_empty(), "(input, oracle, host): {bad:x?}");
}
