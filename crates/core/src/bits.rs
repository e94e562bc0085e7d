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
    bytes: Vec<u8>,
    /// Number of valid bits in the final partial byte (0 = byte-aligned).
    partial: u32,
}

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
    pub fn write(&mut self, value: u64, width: u32) {
        assert!(width <= 64, "width {width} exceeds u64");
        assert!(
            width == 64 || value < (1u64 << width),
            "value {value} does not fit in {width} bits"
        );
        for i in (0..width).rev() {
            let bit = ((value >> i) & 1) as u8;
            if self.partial == 0 {
                self.bytes.push(0);
            }
            let last = self.bytes.last_mut().expect("pushed above");
            *last |= bit << (7 - self.partial);
            self.partial = (self.partial + 1) % 8;
        }
    }

    /// Total bits written so far.
    pub fn bit_len(&self) -> usize {
        if self.partial == 0 {
            self.bytes.len() * 8
        } else {
            (self.bytes.len() - 1) * 8 + self.partial as usize
        }
    }

    /// Finishes the stream, returning the underlying bytes (final byte
    /// zero-padded).
    pub fn into_bytes(self) -> Vec<u8> {
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
    pub fn read(&mut self, width: u32) -> Option<u64> {
        assert!(width <= 64, "width {width} exceeds u64");
        if self.pos + width as usize > self.bytes.len() * 8 {
            return None;
        }
        let mut out = 0u64;
        for _ in 0..width {
            let byte = self.bytes[self.pos / 8];
            let bit = (byte >> (7 - (self.pos % 8))) & 1;
            out = (out << 1) | bit as u64;
            self.pos += 1;
        }
        Some(out)
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
