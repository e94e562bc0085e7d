//! The division form of the BDR block plan — a per-element exponent scan
//! and a per-element `f64` division with a `floor`-based tie break
//! ([`round_half_even`]) — kept as the reference the integration suites
//! and the debug-build cross-checks hold the engine's fast block core to.
//! No production path calls it.

use super::ulp_of;
use crate::bdr::{BdrFormat, QuantizedBlock};
use crate::util::{exponent_of, round_half_even};

/// Largest exponent over the strided elements `data[base + i·stride]`,
/// `i in 0..len`, skipping zeros and non-finite values; `None` if none is
/// left.
pub fn max_exp_strided(data: &[f32], base: usize, stride: usize, len: usize) -> Option<i32> {
    let mut best: Option<i32> = None;
    let mut idx = base;
    for _ in 0..len {
        let x = data[idx];
        if x != 0.0 && x.is_finite() {
            let e = exponent_of(x);
            best = Some(match best {
                Some(b) if b >= e => b,
                _ => e,
            });
        }
        idx += stride;
    }
    best
}

/// Computes the shared exponent and fills `shifts` (one per `k2`-sub-block)
/// for the strided block `data[base + i·stride], i in 0..len`. Returns
/// `None` (leaving `shifts` empty) for a block with no finite nonzero
/// element.
///
/// The paper's two-level plan: the shared exponent is the clamped exponent
/// of the block's largest magnitude, and each sub-block's shift is
/// `min(E − Eᵢ, 2^d2 − 1)` (all-zero sub-blocks take the maximum shift).
///
/// # Panics
///
/// Panics (in debug builds) if `len` exceeds `k1`; panics if the last index
/// is out of bounds.
pub fn plan_into(
    fmt: &BdrFormat,
    data: &[f32],
    base: usize,
    stride: usize,
    len: usize,
    shifts: &mut Vec<u32>,
) -> Option<i32> {
    debug_assert!(len <= fmt.k1(), "block of {len} exceeds k1 = {}", fmt.k1());
    shifts.clear();
    let e_raw = max_exp_strided(data, base, stride, len)?;
    let shared_exp = e_raw.clamp(fmt.min_shared_exp(), fmt.max_shared_exp());
    let beta = fmt.max_shift();
    let k2 = fmt.k2();
    let mut sub_start = 0;
    while sub_start < len {
        let sub_len = k2.min(len - sub_start);
        let shift = match max_exp_strided(data, base + sub_start * stride, stride, sub_len) {
            Some(e_i) => (shared_exp.saturating_sub(e_i).max(0) as u32).min(beta),
            None => beta,
        };
        shifts.push(shift);
        sub_start += k2;
    }
    Some(shared_exp)
}

/// Quantizes one magnitude to its integer code: `|x| / ulp` rounded
/// half-even, saturating at `max_code`.
#[inline]
pub fn quantize_code(x: f32, ulp: f64, max_code: u64) -> u64 {
    if x == 0.0 {
        0
    } else {
        (round_half_even(x.abs() as f64 / ulp) as u64).min(max_code)
    }
}

/// [`BdrFormat::quantize_block_codes`] in the division form: the block is
/// planned with [`plan_into`] and every element rounded with
/// [`quantize_code`]. A block with no finite nonzero element returns
/// shared exponent 0, zero shifts and zero codes.
///
/// # Panics
///
/// Panics (in debug builds) if the block is longer than `k1`.
pub fn quantize_block_codes(fmt: &BdrFormat, block: &[f32]) -> QuantizedBlock {
    let sub_blocks = block.len().div_ceil(fmt.k2());
    let mut shifts = Vec::new();
    let Some(shared_exp) = plan_into(fmt, block, 0, 1, block.len(), &mut shifts) else {
        return QuantizedBlock {
            format: *fmt,
            shared_exp: 0,
            shifts: vec![0; sub_blocks],
            signs: vec![false; block.len()],
            codes: vec![0; block.len()],
        };
    };
    let max_code = fmt.max_code();
    let mut signs = Vec::with_capacity(block.len());
    let mut codes = Vec::with_capacity(block.len());
    for (i, sub) in block.chunks(fmt.k2()).enumerate() {
        let ulp = ulp_of(fmt, shared_exp, shifts[i]);
        for &x in sub {
            // Zeros (including -0.0) carry sign 0.
            signs.push(x != 0.0 && x.is_sign_negative());
            codes.push(quantize_code(x, ulp, max_code) as u32);
        }
    }
    QuantizedBlock {
        format: *fmt,
        shared_exp,
        shifts,
        signs,
        codes,
    }
}
