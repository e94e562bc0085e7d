//! Packed MX tensors: the storage form of shared-microexponent formats.
//!
//! [`crate::bdr::BdrFormat`] computes *values*; this module commits them to
//! an actual bit stream laid out the way Fig. 4 of the paper draws it —
//! per block: one `d1`-bit shared exponent, `k1/k2` microexponents of `d2`
//! bits, then `k1` elements of (sign, `m`-bit magnitude). The packed form
//! backs the memory-footprint analysis and proves the format is truly
//! self-contained (no hidden FP32 side-channel).

use crate::bdr::BdrFormat;
use crate::engine::QuantEngine;

/// A tensor encoded in a BDR/MX bit stream.
///
/// # Examples
///
/// ```
/// # use mx_core::mx::MxTensor;
/// # use mx_core::bdr::BdrFormat;
/// let x: Vec<f32> = (0..32).map(|i| (i as f32 * 0.3).sin()).collect();
/// let packed = MxTensor::encode(BdrFormat::MX6, &x);
/// let restored = packed.decode();
/// // Decoding is exactly the quantize-dequantize grid of the format.
/// assert_eq!(restored, BdrFormat::MX6.quantize_dequantize(&x));
/// // MX6 spends 6 bits/element: 32 elements -> 192 bits -> 24 bytes.
/// assert_eq!(packed.as_bytes().len(), 24);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MxTensor {
    format: BdrFormat,
    len: usize,
    bytes: Vec<u8>,
}

impl MxTensor {
    /// Quantizes `values` into a packed bit stream.
    pub fn encode(format: BdrFormat, values: &[f32]) -> Self {
        MxTensor {
            format,
            len: values.len(),
            bytes: QuantEngine::new(format).encode(values),
        }
    }

    /// Decodes the packed stream back to `f32` values.
    pub fn decode(&self) -> Vec<f32> {
        QuantEngine::new(self.format).decode(&self.bytes, self.len)
    }

    /// The format this tensor is packed in.
    pub fn format(&self) -> BdrFormat {
        self.format
    }

    /// Number of encoded elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The raw packed bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Measured storage bits per element (including the final byte's
    /// padding-free bit count for whole blocks).
    pub fn measured_bits_per_element(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let mut bits = 0usize;
        let mut remaining = self.len;
        while remaining > 0 {
            let block_len = remaining.min(self.format.k1());
            bits += self.format.block_bits(block_len);
            remaining -= block_len;
        }
        bits as f64 / self.len as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| ((i as f32) - n as f32 / 2.0) * 0.37)
            .collect()
    }

    #[test]
    fn decode_matches_quantize_dequantize_all_formats() {
        for fmt in [
            BdrFormat::MX4,
            BdrFormat::MX6,
            BdrFormat::MX9,
            BdrFormat::MSFP12,
            BdrFormat::MSFP16,
        ] {
            let x = ramp(64);
            let t = MxTensor::encode(fmt, &x);
            assert_eq!(t.decode(), fmt.quantize_dequantize(&x), "format {fmt}");
        }
    }

    #[test]
    fn packed_size_matches_bit_budget() {
        let x = ramp(256);
        let t = MxTensor::encode(BdrFormat::MX9, &x);
        // 256 elements * 9 bits = 2304 bits = 288 bytes.
        assert_eq!(t.as_bytes().len(), 288);
        assert_eq!(t.measured_bits_per_element(), 9.0);
        let t = MxTensor::encode(BdrFormat::MX4, &x);
        assert_eq!(t.as_bytes().len(), 128);
    }

    #[test]
    fn partial_blocks_round_trip() {
        let fmt = BdrFormat::MX6;
        for n in [1usize, 5, 15, 17, 31, 33] {
            let x = ramp(n);
            let t = MxTensor::encode(fmt, &x);
            assert_eq!(t.len(), n);
            assert_eq!(t.decode(), fmt.quantize_dequantize(&x), "n = {n}");
        }
    }

    #[test]
    fn zero_and_negative_zero_blocks() {
        let fmt = BdrFormat::MX4;
        let x = vec![0.0f32, -0.0, 0.0, 0.0];
        let t = MxTensor::encode(fmt, &x);
        assert_eq!(t.decode(), vec![0.0; 4]);
    }

    #[test]
    fn empty_tensor() {
        let t = MxTensor::encode(BdrFormat::MX9, &[]);
        assert!(t.is_empty());
        assert_eq!(t.decode(), Vec::<f32>::new());
        assert_eq!(t.measured_bits_per_element(), 0.0);
    }

    #[test]
    fn extreme_magnitudes_round_trip() {
        let fmt = BdrFormat::MX9;
        let x = vec![1e30f32, -1e-30, 1.0, -1.0, 1e20, 1e-20, 0.0, 2.5];
        let t = MxTensor::encode(fmt, &x);
        assert_eq!(t.decode(), fmt.quantize_dequantize(&x));
    }

    #[test]
    fn signs_survive_packing() {
        let fmt = BdrFormat::MX6;
        let x = vec![-1.0f32, 1.0, -0.5, 0.5, -0.25, 0.25, -2.0, 2.0];
        let decoded = MxTensor::encode(fmt, &x).decode();
        for (a, b) in x.iter().zip(decoded.iter()) {
            assert_eq!(a.signum(), b.signum(), "{a} vs {b}");
        }
    }
}
