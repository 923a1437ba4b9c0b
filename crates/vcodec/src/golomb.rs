//! Exponential-Golomb codes.
//!
//! The universal variable-length codes H.264 uses for headers, macroblock
//! modes and motion-vector differences. Small values get short codes; the
//! code is prefix-free and self-delimiting, so no length fields are needed.

use crate::bitio::{BitReader, BitWriter, ReadBitsError};

/// Writes an unsigned Exp-Golomb code (order 0): `value 0 → "1"`,
/// `1 → "010"`, `2 → "011"`, `3 → "00100"` …
///
/// ```
/// use vcodec::bitio::{BitReader, BitWriter};
/// use vcodec::golomb::{read_ue, write_ue};
/// let mut w = BitWriter::new();
/// for v in [0u64, 1, 2, 7, 4096] {
///     write_ue(&mut w, v);
/// }
/// let bytes = w.finish();
/// let mut r = BitReader::new(&bytes);
/// for v in [0u64, 1, 2, 7, 4096] {
///     assert_eq!(read_ue(&mut r).unwrap(), v);
/// }
/// ```
///
/// # Panics
///
/// Panics if `value == u64::MAX`: its code would need a 64-bit prefix,
/// which [`read_ue`] rejects.
pub fn write_ue(w: &mut BitWriter, value: u64) {
    let bits = ue_width(value);
    // (bits - 1) zero prefix, then the value itself (whose MSB is 1).
    w.put_bits(0, bits - 1);
    w.put_bits(value + 1, bits);
}

/// Significant bits of `value + 1`, the width of its code's suffix.
fn ue_width(value: u64) -> u32 {
    assert!(value < u64::MAX, "{value} is outside the Exp-Golomb domain (at most 2^64 - 2)");
    64 - (value + 1).leading_zeros()
}

/// Reads an unsigned Exp-Golomb code written by [`write_ue`].
///
/// # Errors
///
/// Returns [`ReadBitsError`] on end of stream or a prefix longer than 63
/// zeros (malformed stream).
pub fn read_ue(r: &mut BitReader<'_>) -> Result<u64, ReadBitsError> {
    let mut zeros = 0u32;
    while !r.get_bit()? {
        zeros += 1;
        if zeros > 63 {
            return Err(ReadBitsError);
        }
    }
    let mut v = 1u64;
    for _ in 0..zeros {
        v = (v << 1) | u64::from(r.get_bit()?);
    }
    Ok(v - 1)
}

/// The H.264 mapping `0, 1, -1, 2, -2, …` of a signed value onto the
/// unsigned code space.
///
/// # Panics
///
/// Panics if `value == i64::MIN`, the one value whose image is past the
/// unsigned domain.
pub(crate) fn se_to_ue(value: i64) -> u64 {
    assert!(value != i64::MIN, "{value} is outside the signed Exp-Golomb domain");
    if value > 0 {
        value.unsigned_abs() * 2 - 1
    } else {
        value.unsigned_abs() * 2
    }
}

/// Writes a signed Exp-Golomb code using the H.264 mapping
/// `0, 1, -1, 2, -2, …`.
///
/// # Panics
///
/// Panics if `value == i64::MIN`.
pub fn write_se(w: &mut BitWriter, value: i64) {
    write_ue(w, se_to_ue(value));
}

/// Reads a signed Exp-Golomb code written by [`write_se`].
///
/// # Errors
///
/// Returns [`ReadBitsError`] on end of stream or malformed prefix.
pub fn read_se(r: &mut BitReader<'_>) -> Result<i64, ReadBitsError> {
    let v = read_ue(r)?;
    if v % 2 == 1 {
        Ok(v.div_ceil(2) as i64)
    } else {
        Ok(-((v / 2) as i64))
    }
}

/// Number of bits [`write_ue`] would emit for `value` — used by RDO bit
/// estimation without touching a writer.
///
/// # Panics
///
/// Panics if `value == u64::MAX`: its code would need a 64-bit prefix,
/// which [`read_ue`] rejects.
pub fn ue_bits(value: u64) -> u32 {
    2 * ue_width(value) - 1
}

/// Number of bits [`write_se`] would emit for `value`.
///
/// # Panics
///
/// Panics if `value == i64::MIN`.
pub fn se_bits(value: i64) -> u32 {
    ue_bits(se_to_ue(value))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_codewords_match_h264_table() {
        // value -> bit pattern length per the H.264 spec table 9-2.
        let expected = [(0u64, 1u64), (1, 3), (2, 3), (3, 5), (4, 5), (5, 5), (6, 5), (7, 7)];
        for (v, len) in expected {
            let mut w = BitWriter::new();
            write_ue(&mut w, v);
            assert_eq!(w.bit_len(), len, "value {v}");
            assert_eq!(u64::from(ue_bits(v)), len, "ue_bits {v}");
        }
    }

    #[test]
    fn ue_roundtrip_wide_range() {
        let mut w = BitWriter::new();
        let values: Vec<u64> = (0..200).chain([1000, 65535, 1 << 40]).collect();
        for &v in &values {
            write_ue(&mut w, v);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &v in &values {
            assert_eq!(read_ue(&mut r).unwrap(), v);
        }
    }

    #[test]
    fn se_roundtrip() {
        let mut w = BitWriter::new();
        let values: Vec<i64> = (-50..=50).chain([-100000, 100000]).collect();
        for &v in &values {
            write_se(&mut w, v);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &v in &values {
            assert_eq!(read_se(&mut r).unwrap(), v);
        }
    }

    #[test]
    fn se_mapping_prefers_small_magnitudes() {
        assert!(se_bits(0) < se_bits(1));
        assert!(se_bits(1) <= se_bits(-1));
        assert!(se_bits(-1) < se_bits(2));
    }

    #[test]
    fn se_bits_matches_actual_encoding() {
        for v in -300..=300i64 {
            let mut w = BitWriter::new();
            write_se(&mut w, v);
            assert_eq!(u64::from(se_bits(v)), w.bit_len(), "value {v}");
        }
    }

    #[test]
    #[should_panic(expected = "outside the Exp-Golomb domain")]
    fn write_ue_rejects_the_value_past_its_domain() {
        write_ue(&mut BitWriter::new(), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "outside the Exp-Golomb domain")]
    fn ue_bits_rejects_the_value_past_its_domain() {
        ue_bits(u64::MAX);
    }

    #[test]
    #[should_panic(expected = "outside the signed Exp-Golomb domain")]
    fn write_se_rejects_the_value_past_its_domain() {
        write_se(&mut BitWriter::new(), i64::MIN);
    }

    #[test]
    #[should_panic(expected = "outside the signed Exp-Golomb domain")]
    fn se_bits_rejects_the_value_past_its_domain() {
        se_bits(i64::MIN);
    }

    #[test]
    fn the_ends_of_both_domains_roundtrip() {
        const TOP: u64 = u64::MAX - 1;
        let mut w = BitWriter::new();
        write_ue(&mut w, TOP);
        write_se(&mut w, i64::MIN + 1);
        write_se(&mut w, i64::MAX);
        assert_eq!(
            w.bit_len(),
            u64::from(ue_bits(TOP) + se_bits(i64::MIN + 1) + se_bits(i64::MAX))
        );
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(read_ue(&mut r).unwrap(), TOP);
        assert_eq!(read_se(&mut r).unwrap(), i64::MIN + 1);
        assert_eq!(read_se(&mut r).unwrap(), i64::MAX);
    }

    #[test]
    fn malformed_prefix_is_error() {
        // 9 zero bytes: 72 zero bits, prefix too long.
        let bytes = [0u8; 9];
        let mut r = BitReader::new(&bytes);
        assert!(read_ue(&mut r).is_err());
    }
}
