//! Bit-granular I/O over byte buffers.
//!
//! The codec's bitstream layer: a most-significant-bit-first writer/reader
//! pair used by the Exp-Golomb coder and the VLC entropy backend, and as the
//! byte transport underneath the arithmetic coder.

/// Error type for bitstream reads that run past the end of the buffer or
/// encounter malformed data.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ReadBitsError;

impl std::fmt::Display for ReadBitsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bitstream exhausted or malformed")
    }
}

impl std::error::Error for ReadBitsError {}

/// Writes bits MSB-first into a growable byte buffer.
///
/// Bits gather in a 64-bit accumulator and reach the buffer a whole word
/// at a time, so a field of up to 64 bits costs the same as one bit.
///
/// ```
/// use vcodec::bitio::{BitReader, BitWriter};
/// let mut w = BitWriter::new();
/// w.put_bit(true);
/// w.put_bits(0b1011, 4);
/// let bytes = w.finish();
/// let mut r = BitReader::new(&bytes);
/// assert_eq!(r.get_bit().unwrap(), true);
/// assert_eq!(r.get_bits(4).unwrap(), 0b1011);
/// ```
#[derive(Clone, Debug, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits pending in the low end of `acc`, 0..64; the bits above them
    /// are stale and shift out before a word is stored.
    pending: u32,
    acc: u64,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> BitWriter {
        BitWriter::default()
    }

    /// Appends one bit.
    pub fn put_bit(&mut self, bit: bool) {
        self.put_bits(u64::from(bit), 1);
    }

    /// Appends the `count` low-order bits of `value`, MSB first.
    ///
    /// # Panics
    ///
    /// Panics if `count > 64` or `value` has bits above `count`.
    #[inline]
    pub fn put_bits(&mut self, value: u64, count: u32) {
        if count > 64 || (count < 64 && value >> count != 0) {
            field_overflow(value, count);
        }
        let free = 64 - self.pending;
        if count < free {
            self.acc = self.acc << count | value;
            self.pending += count;
        } else {
            // The pending bits and the top `free` bits of `value` make a
            // whole word; the other `rest` bits stay pending. `free` is
            // 64 only when nothing is pending.
            let rest = count - free;
            let word = self.acc << 1 << (free - 1) | value >> rest;
            self.bytes.extend_from_slice(&word.to_be_bytes());
            self.acc = value;
            self.pending = rest;
        }
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> u64 {
        self.bytes.len() as u64 * 8 + u64::from(self.pending)
    }

    /// Pads with zero bits to a byte boundary and returns the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        self.byte_align();
        self.flush_bytes();
        self.bytes
    }

    /// Pads to a byte boundary in place (e.g. between stream sections).
    pub fn byte_align(&mut self) {
        self.put_bits(0, (8 - self.pending % 8) % 8);
    }

    /// Appends whole bytes; the writer must be byte-aligned.
    ///
    /// # Panics
    ///
    /// Panics if the writer is not at a byte boundary.
    pub fn put_bytes(&mut self, data: &[u8]) {
        assert_eq!(self.pending % 8, 0, "put_bytes requires byte alignment");
        self.flush_bytes();
        self.bytes.extend_from_slice(data);
    }

    /// Moves the pending bits, a whole number of bytes, to the buffer.
    fn flush_bytes(&mut self) {
        let n = (self.pending / 8) as usize;
        if n > 0 {
            let top = self.acc << (64 - self.pending);
            self.bytes.extend_from_slice(&top.to_be_bytes()[..n]);
            self.pending = 0;
        }
    }
}

/// The panic of [`BitWriter::put_bits`], out of line so the writer's hot
/// path keeps its operands in registers.
#[cold]
#[inline(never)]
fn field_overflow(value: u64, count: u32) -> ! {
    assert!(count <= 64, "cannot write more than 64 bits at once");
    panic!("value {value} does not fit in {count} bits");
}

/// Reads bits MSB-first from a byte slice.
#[derive(Clone, Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Next bit position.
    pos: u64,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> BitReader<'a> {
        BitReader { bytes, pos: 0 }
    }

    /// Reads one bit.
    ///
    /// # Errors
    ///
    /// Returns [`ReadBitsError`] at end of stream.
    pub fn get_bit(&mut self) -> Result<bool, ReadBitsError> {
        let byte = self.bytes.get((self.pos / 8) as usize).ok_or(ReadBitsError)?;
        let bit = (byte >> (7 - (self.pos % 8))) & 1;
        self.pos += 1;
        Ok(bit == 1)
    }

    /// Reads `count` bits MSB-first.
    ///
    /// # Errors
    ///
    /// Returns [`ReadBitsError`] at end of stream.
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`.
    pub fn get_bits(&mut self, count: u32) -> Result<u64, ReadBitsError> {
        assert!(count <= 64, "cannot read more than 64 bits at once");
        let mut v = 0u64;
        for _ in 0..count {
            v = (v << 1) | u64::from(self.get_bit()?);
        }
        Ok(v)
    }

    /// Current bit position from the start of the buffer.
    pub fn bit_pos(&self) -> u64 {
        self.pos
    }

    /// Skips to the next byte boundary.
    pub fn byte_align(&mut self) {
        self.pos = self.pos.div_ceil(8) * 8;
    }

    /// Reads `n` whole bytes; the reader must be byte-aligned.
    ///
    /// # Errors
    ///
    /// Returns [`ReadBitsError`] if fewer than `n` bytes remain.
    ///
    /// # Panics
    ///
    /// Panics if the reader is not at a byte boundary.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], ReadBitsError> {
        assert_eq!(self.pos % 8, 0, "get_bytes requires byte alignment");
        let start = (self.pos / 8) as usize;
        let end = start.checked_add(n).ok_or(ReadBitsError)?;
        if end > self.bytes.len() {
            return Err(ReadBitsError);
        }
        self.pos += n as u64 * 8;
        Ok(&self.bytes[start..end])
    }

    /// Remaining bits in the buffer.
    pub fn remaining_bits(&self) -> u64 {
        (self.bytes.len() as u64 * 8).saturating_sub(self.pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_bits_roundtrip() {
        let pattern = [true, false, true, true, false, false, true, false, true];
        let mut w = BitWriter::new();
        for &b in &pattern {
            w.put_bit(b);
        }
        let bytes = w.finish();
        assert_eq!(bytes.len(), 2);
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.get_bit().unwrap(), b);
        }
    }

    #[test]
    fn multi_bit_roundtrip() {
        let mut w = BitWriter::new();
        w.put_bits(0x3FF, 10);
        w.put_bits(0, 3);
        w.put_bits(0xDEADBEEF, 32);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get_bits(10).unwrap(), 0x3FF);
        assert_eq!(r.get_bits(3).unwrap(), 0);
        assert_eq!(r.get_bits(32).unwrap(), 0xDEADBEEF);
    }

    #[test]
    fn bit_len_tracks_writes() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.put_bits(1, 1);
        w.put_bits(0b101, 3);
        assert_eq!(w.bit_len(), 4);
    }

    #[test]
    fn eof_is_an_error() {
        let bytes = [0xFFu8];
        let mut r = BitReader::new(&bytes);
        assert!(r.get_bits(8).is_ok());
        assert!(r.get_bit().is_err());
    }

    #[test]
    fn byte_align_and_bytes() {
        let mut w = BitWriter::new();
        w.put_bits(0b101, 3);
        w.byte_align();
        w.put_bytes(&[0xAB, 0xCD]);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get_bits(3).unwrap(), 0b101);
        r.byte_align();
        assert_eq!(r.get_bytes(2).unwrap(), &[0xAB, 0xCD]);
        assert_eq!(r.remaining_bits(), 0);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_value_rejected() {
        let mut w = BitWriter::new();
        w.put_bits(16, 4);
    }

    /// The writer this one replaced: one bit at a time into a byte.
    #[derive(Default)]
    struct BitAtATime {
        bytes: Vec<u8>,
        pending: u32,
        acc: u8,
    }

    impl BitAtATime {
        fn put_bit(&mut self, bit: bool) {
            self.acc = (self.acc << 1) | u8::from(bit);
            self.pending += 1;
            if self.pending == 8 {
                self.bytes.push(self.acc);
                (self.acc, self.pending) = (0, 0);
            }
        }

        fn put_bits(&mut self, value: u64, count: u32) {
            for i in (0..count).rev() {
                self.put_bit((value >> i) & 1 == 1);
            }
        }

        fn byte_align(&mut self) {
            while self.pending != 0 {
                self.put_bit(false);
            }
        }

        fn bit_len(&self) -> u64 {
            self.bytes.len() as u64 * 8 + u64::from(self.pending)
        }

        fn finish(&self) -> Vec<u8> {
            let mut bytes = self.bytes.clone();
            if self.pending > 0 {
                bytes.push(self.acc << (8 - self.pending));
            }
            bytes
        }
    }

    /// One writer operation drawn from `(kind, value, count)`: widths
    /// 32, 33 and 64 come up often, since the word boundary sits there.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        Bit(bool),
        Bits(u64, u32),
        Align,
        Bytes(u64, usize),
    }

    fn op((kind, value, count): (u8, u64, u32)) -> Op {
        let bits = |count: u32| Op::Bits(value.checked_shr(64 - count).unwrap_or(0), count);
        match kind {
            0 => Op::Bit(value & 1 == 1),
            1 => bits([32, 33, 64, 0][count as usize % 4]),
            2 => Op::Align,
            3 => Op::Bytes(value, count as usize % 9),
            _ => bits(count),
        }
    }

    proptest! {
        // Oracle: the bit-at-a-time writer. Bytes and length agree after
        // every operation, and a reader reads back what was written.
        #[test]
        fn writer_equals_the_bit_at_a_time_writer(
            ops in prop::collection::vec((0u8..8, any::<u64>(), 0u32..=64), 0..120),
        ) {
            let (mut w, mut oracle) = (BitWriter::new(), BitAtATime::default());
            let ops: Vec<Op> = ops.into_iter().map(op).collect();
            for &op in &ops {
                match op {
                    Op::Bit(b) => {
                        w.put_bit(b);
                        oracle.put_bit(b);
                    }
                    Op::Bits(v, n) => {
                        w.put_bits(v, n);
                        oracle.put_bits(v, n);
                    }
                    Op::Align => {
                        w.byte_align();
                        oracle.byte_align();
                    }
                    Op::Bytes(v, n) => {
                        w.byte_align();
                        oracle.byte_align();
                        w.put_bytes(&v.to_be_bytes()[..n]);
                        oracle.bytes.extend_from_slice(&v.to_be_bytes()[..n]);
                    }
                }
                prop_assert_eq!(w.bit_len(), oracle.bit_len());
                prop_assert_eq!(w.clone().finish(), oracle.finish());
            }
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            for op in ops {
                match op {
                    Op::Bit(b) => prop_assert_eq!(r.get_bit().unwrap(), b),
                    Op::Bits(v, n) => prop_assert_eq!(r.get_bits(n).unwrap(), v),
                    Op::Align => r.byte_align(),
                    Op::Bytes(v, n) => {
                        r.byte_align();
                        prop_assert_eq!(r.get_bytes(n).unwrap(), &v.to_be_bytes()[..n]);
                    }
                }
            }
            prop_assert!(r.remaining_bits() < 8);
        }
    }

    #[test]
    fn get_bytes_eof() {
        let bytes = [1u8, 2];
        let mut r = BitReader::new(&bytes);
        assert!(r.get_bytes(3).is_err());
        assert_eq!(r.get_bytes(2).unwrap(), &[1, 2]);
    }
}
