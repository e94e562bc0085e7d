//! Minimal MSB-first bit stream reader/writer used by the packed MX encoder
//! and the memory-footprint analysis.

/// Append-only bit writer (MSB-first within each byte).
///
/// # Examples
///
/// ```
/// # use mx_core::bits::{BitReader, BitWriter};
/// let mut w = BitWriter::new();
/// w.write(0b101, 3);
/// w.write(0b01, 2);
/// let bytes = w.into_bytes();
/// let mut r = BitReader::new(&bytes);
/// assert_eq!(r.read(3), Some(0b101));
/// assert_eq!(r.read(2), Some(0b01));
/// ```
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    /// Every whole 32-bit word written so far, big-endian.
    bytes: Vec<u8>,
    /// The `fill < 32` bits past the last whole word, in the low bits.
    acc: u64,
    fill: u32,
}

/// Widest field moved through the accumulators in one step: with fewer
/// than 32 bits pending the writer's `u64` never overflows, and a field
/// of this width spans at most 5 bytes of a stream at any bit offset.
const STEP: u32 = 32;

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the low `width` bits of `value`, MSB first.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or if `value` has bits set above `width`.
    #[inline]
    pub fn write(&mut self, value: u64, width: u32) {
        assert!(width <= 64, "width {width} exceeds u64");
        assert!(
            width == 64 || value < (1u64 << width),
            "value {value} does not fit in {width} bits"
        );
        if width > STEP {
            self.put(value >> STEP, width - STEP);
            self.put(value & u64::from(u32::MAX), STEP);
        } else {
            self.put(value, width);
        }
    }

    /// Appends a field of `width ≤ STEP` bits, moving a whole word into
    /// the stream once 32 bits are pending.
    #[inline]
    fn put(&mut self, value: u64, width: u32) {
        self.acc = (self.acc << width) | value;
        self.fill += width;
        if self.fill >= STEP {
            self.fill -= STEP;
            let word = (self.acc >> self.fill) as u32;
            self.bytes.extend_from_slice(&word.to_be_bytes());
            self.acc &= (1 << self.fill) - 1;
        }
    }

    /// Total bits written so far.
    pub fn bit_len(&self) -> usize {
        self.bytes.len() * 8 + self.fill as usize
    }

    /// Finishes the stream, returning the underlying bytes (final byte
    /// zero-padded).
    pub fn into_bytes(mut self) -> Vec<u8> {
        // The pending bits left-aligned (in two shifts: `fill` may be 0).
        let tail = (self.acc << STEP << (STEP - self.fill)).to_be_bytes();
        self.bytes
            .extend_from_slice(&tail[..self.fill.div_ceil(8) as usize]);
        self.bytes
    }
}

/// Sequential bit reader over a byte slice (MSB-first).
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader positioned at the first bit of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    /// Reads `width` bits, returning `None` if the stream is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`.
    #[inline]
    pub fn read(&mut self, width: u32) -> Option<u64> {
        assert!(width <= 64, "width {width} exceeds u64");
        if self.pos + width as usize > self.bytes.len() * 8 {
            return None;
        }
        Some(if width > STEP {
            let high = self.take(width - STEP);
            (high << STEP) | self.take(STEP)
        } else {
            self.take(width)
        })
    }

    /// Reads a field of `width ≤ STEP` bits the stream is known to hold,
    /// from one big-endian word loaded at its first byte.
    #[inline]
    fn take(&mut self, width: u32) -> u64 {
        if width == 0 {
            return 0;
        }
        let (first, skip) = (self.pos / 8, self.pos % 8);
        let word = match self.bytes.get(first..first + 8) {
            Some(word) => u64::from_be_bytes(word.try_into().expect("8 bytes")),
            None => {
                let mut word = [0u8; 8];
                let tail = &self.bytes[first..];
                word[..tail.len()].copy_from_slice(tail);
                u64::from_be_bytes(word)
            }
        };
        self.pos += width as usize;
        (word << skip) >> (64 - width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_mixed_widths() {
        let fields: Vec<(u64, u32)> = vec![
            (0, 1),
            (1, 1),
            (0b1010, 4),
            (0xff, 8),
            (0x1234, 16),
            (7, 3),
            (0, 5),
        ];
        let mut w = BitWriter::new();
        for (v, width) in &fields {
            w.write(*v, *width);
        }
        let total: usize = fields.iter().map(|(_, w)| *w as usize).sum();
        assert_eq!(w.bit_len(), total);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for (v, width) in &fields {
            assert_eq!(r.read(*width), Some(*v));
        }
    }

    #[test]
    fn reader_stops_at_end() {
        let mut w = BitWriter::new();
        w.write(0b11, 2);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read(8), Some(0b1100_0000)); // padded byte readable
        assert_eq!(r.read(1), None);
    }

    #[test]
    fn zero_width_writes_are_noops() {
        let mut w = BitWriter::new();
        w.write(0, 0);
        assert_eq!(w.bit_len(), 0);
        assert!(w.into_bytes().is_empty());
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_value_rejected() {
        let mut w = BitWriter::new();
        w.write(8, 3);
    }

    /// The bit-at-a-time forms the field-at-a-time writer and reader
    /// replaced, kept as the reference stream.
    fn write_bitwise(bytes: &mut Vec<u8>, bits: &mut usize, value: u64, width: u32) {
        for i in (0..width).rev() {
            if bits.is_multiple_of(8) {
                bytes.push(0);
            }
            *bytes.last_mut().unwrap() |= (((value >> i) & 1) as u8) << (7 - *bits % 8);
            *bits += 1;
        }
    }

    fn read_bitwise(bytes: &[u8], pos: &mut usize, width: u32) -> Option<u64> {
        if *pos + width as usize > bytes.len() * 8 {
            return None;
        }
        let mut out = 0u64;
        for _ in 0..width {
            out = (out << 1) | u64::from((bytes[*pos / 8] >> (7 - *pos % 8)) & 1);
            *pos += 1;
        }
        Some(out)
    }

    #[test]
    fn fields_match_the_bitwise_stream() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..200 {
            let fields: Vec<(u64, u32)> = (0..rng.gen_range(0..40usize))
                .map(|_| {
                    let width = rng.gen_range(0..=64u32);
                    let value = match width {
                        0 => 0,
                        64 => rng.gen::<u64>(),
                        w => rng.gen::<u64>() >> (64 - w),
                    };
                    (value, width)
                })
                .collect();
            let mut w = BitWriter::new();
            let (mut want, mut bits) = (Vec::new(), 0);
            for &(value, width) in &fields {
                w.write(value, width);
                write_bitwise(&mut want, &mut bits, value, width);
                assert_eq!(w.bit_len(), bits);
            }
            let bytes = w.into_bytes();
            assert_eq!(bytes, want, "{fields:?}");
            // Read the stream back in fresh random widths, past its end.
            let (mut r, mut pos) = (BitReader::new(&bytes), 0);
            for _ in 0..fields.len() + 4 {
                let width = rng.gen_range(0..=64u32);
                assert_eq!(r.read(width), read_bitwise(&bytes, &mut pos, width));
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds u64")]
    fn oversized_width_rejected() {
        BitReader::new(&[0; 16]).read(65);
    }

    #[test]
    fn sixty_four_bit_values() {
        let mut w = BitWriter::new();
        w.write(u64::MAX, 64);
        w.write(0, 64);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read(64), Some(u64::MAX));
        assert_eq!(r.read(64), Some(0));
    }
}
