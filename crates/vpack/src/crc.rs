//! CRC-32 (IEEE 802.3) — the integrity check attached to every packaged
//! segment.
//!
//! Two implementations compute the same function. Slicing-by-8 runs
//! everywhere and is the oracle. On x86-64 CPUs with carry-less multiply,
//! `clmul::fold` folds the input 64 bytes at a time at memory speed and
//! slicing-by-8 finishes the last bytes. The CPU alone picks the path.

/// Reflected polynomial of CRC-32/IEEE.
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables: `t[0]` is the classic bytewise table, and
/// `t[k][b]` is the CRC register contribution of byte `b` followed by `k`
/// zero bytes, so eight input bytes fold into the register with eight
/// independent lookups instead of eight dependent ones.
fn tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 == 1 { (c >> 1) ^ POLY } else { c >> 1 };
            }
            *entry = c;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// Computes the CRC-32 (IEEE) of `data`.
///
/// ```
/// use vpack::crc32;
/// assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= clmul::FOLD
        && std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        let (blocks, tail) = data.split_at(data.len() / 16 * 16);
        // SAFETY: `fold` enables `pclmulqdq` and `sse4.1`, and both were
        // just detected on this CPU. It has no other requirement.
        #[allow(unsafe_code)]
        let c = unsafe { clmul::fold(0xFFFF_FFFF, blocks) };
        return sliced(c, tail) ^ 0xFFFF_FFFF;
    }
    sliced(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Advances the CRC register `c` (not inverted) over `data` with
/// slicing-by-8.
fn sliced(mut c: u32, data: &[u8]) -> u32 {
    let t = tables();
    let mut blocks = data.chunks_exact(8);
    for block in &mut blocks {
        let lo = c ^ u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
        let hi = u32::from_le_bytes([block[4], block[5], block[6], block[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in blocks.remainder() {
        c = (c >> 8) ^ t[0][((c ^ u32::from(b)) & 0xFF) as usize];
    }
    c
}

/// CRC-32 by carry-less multiplication: four 128-bit lanes fold 64 bytes
/// per step, then one lane, then a Barrett reduction to 32 bits (Gopal et
/// al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ",
/// Intel, 2009; the bit-reflected form zlib and crc32fast use).
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32, _mm_set_epi32,
        _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Bytes one fold step consumes: the shortest input `fold` takes.
    pub(super) const FOLD: usize = 64;

    // x^n mod P(x), bit-reflected and shifted left by one, for the
    // distances the folds span.
    /// x^(4·128+32) and x^(4·128−32): the four-lane fold over 512 bits.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// x^(128+32) and x^(128−32): the one-lane fold over 128 bits.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// x^64: 96 → 64 bits.
    const K5: i64 = 0x1_63cd_6124;
    /// P(x) and μ = ⌊x^64 / P(x)⌋, reflected: the Barrett reduction.
    const P_X: i64 = 0x1_db71_0641;
    const U_PRIME: i64 = 0x1_f701_1641;

    /// Advances the CRC register `c` (not inverted) over `blocks`, whose
    /// length is a multiple of 16 and at least [`FOLD`].
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn fold(c: u32, blocks: &[u8]) -> u32 {
        assert!(blocks.len() >= FOLD && blocks.len().is_multiple_of(16), "{} bytes", blocks.len());
        // Sixteen little-endian bytes as one lane (one unaligned load
        // once inlined).
        let load = |bytes: &[u8]| {
            let word = |b: &[u8]| i64::from_le_bytes(b.try_into().expect("8 bytes"));
            _mm_set_epi64x(word(&bytes[8..16]), word(&bytes[..8]))
        };
        // `a` folded forward by the distance `keys` encode, plus `b`.
        let reduce128 = |a, b, keys| {
            let t1 = _mm_clmulepi64_si128(a, keys, 0x00);
            let t2 = _mm_clmulepi64_si128(a, keys, 0x11);
            _mm_xor_si128(_mm_xor_si128(b, t1), t2)
        };
        let (first, rest) = blocks.split_at(FOLD);
        let mut x3 = _mm_xor_si128(load(&first[..16]), _mm_cvtsi32_si128(c as i32));
        let mut x2 = load(&first[16..32]);
        let mut x1 = load(&first[32..48]);
        let mut x0 = load(&first[48..]);

        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut rest = rest.chunks_exact(FOLD);
        for step in &mut rest {
            x3 = reduce128(x3, load(&step[..16]), k1k2);
            x2 = reduce128(x2, load(&step[16..32]), k1k2);
            x1 = reduce128(x1, load(&step[32..48]), k1k2);
            x0 = reduce128(x0, load(&step[48..]), k1k2);
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = reduce128(x3, x2, k3k4);
        x = reduce128(x, x1, k3k4);
        x = reduce128(x, x0, k3k4);
        for lane in rest.remainder().chunks_exact(16) {
            x = reduce128(x, load(lane), k3k4);
        }

        // 128 → 96 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );

        // Barrett reduction, 64 → 32 bits: T1 = (R mod x^32)·μ,
        // T2 = (T1 mod x^32)·P, and the register is the upper half of R ⊕ T2.
        let pu = _mm_set_epi64x(U_PRIME, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, RngCore, SeedableRng};

    /// The byte-at-a-time table CRC `crc32` replaced: the oracle both
    /// paths are held to. Builds its own table, so a fault in [`tables`]
    /// cannot hide in both.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 == 1 { (c >> 1) ^ POLY } else { c >> 1 };
            }
            *entry = c;
        }
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = (c >> 8) ^ table[((c ^ u32::from(b)) & 0xFF) as usize];
        }
        c ^ 0xFFFF_FFFF
    }

    /// The portable path alone, whatever the CPU.
    fn crc32_sliced(data: &[u8]) -> u32 {
        sliced(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
    }

    /// `crc32` (carry-less multiply where the CPU has it) and the
    /// portable path both equal the oracle on `data`.
    fn assert_both_paths(data: &[u8], what: &str) {
        let want = crc32_bytewise(data);
        assert_eq!(crc32(data), want, "crc32, {what}");
        assert_eq!(crc32_sliced(data), want, "sliced, {what}");
    }

    /// Case-count multiplier: the `--release` test run does ten times
    /// what the debug tier-1 run does.
    const SCALE: usize = if cfg!(debug_assertions) { 1 } else { 10 };

    fn random_bytes(rng: &mut SmallRng, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let a = vec![0u8; 64];
        let mut b = a.clone();
        b[17] ^= 0x04;
        assert_ne!(crc32(&a), crc32(&b));
    }

    /// Every length up to 1 KiB at every alignment, the lengths around
    /// each fold boundary, then random buffers up to 64 KiB: `crc32` and
    /// the portable path each equal the bytewise oracle.
    #[test]
    fn sliced_crc_matches_the_bytewise_oracle() {
        let mut rng = SmallRng::seed_from_u64(0x0c2c_3200);
        for _ in 0..SCALE {
            let buf = random_bytes(&mut rng, 1024 + 8);
            for start in 0..8 {
                for len in 0..=1024 {
                    assert_both_paths(
                        &buf[start..start + len],
                        &format!("start {start} len {len}"),
                    );
                }
            }
            // One fold, one fold plus a lane, two folds and past: the
            // lengths where the four-lane loop, the one-lane loop and the
            // sliced tail hand over, all bits set and all clear too.
            for len in (63..=65).chain(127..=129).chain(191..=257) {
                for fill in [None, Some(0x00), Some(0xFF)] {
                    let data = match fill {
                        None => random_bytes(&mut rng, len),
                        Some(b) => vec![b; len],
                    };
                    assert_both_paths(&data, &format!("len {len} fill {fill:?}"));
                }
            }
        }
        for _ in 0..32 * SCALE {
            let len = rng.gen_range(0..=64 * 1024);
            assert_both_paths(&random_bytes(&mut rng, len), &format!("len {len}"));
        }
    }
}
