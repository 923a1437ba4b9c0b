//! CRC-32 (IEEE 802.3) — the integrity check attached to every packaged
//! segment.

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
    let t = tables();
    let mut c = 0xFFFF_FFFFu32;
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
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, RngCore, SeedableRng};

    /// The byte-at-a-time table CRC `crc32` replaced: the oracle the
    /// sliced loop is held to. Builds its own table, so a fault in
    /// [`tables`] cannot hide in both.
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

    /// Every length up to 1 KiB at every alignment, then random buffers
    /// up to 64 KiB: the sliced CRC equals the bytewise one.
    #[test]
    fn sliced_crc_matches_the_bytewise_oracle() {
        let mut rng = SmallRng::seed_from_u64(0x0c2c_3200);
        for _ in 0..SCALE {
            let buf = random_bytes(&mut rng, 1024 + 8);
            for start in 0..8 {
                for len in 0..=1024 {
                    let data = &buf[start..start + len];
                    assert_eq!(crc32(data), crc32_bytewise(data), "start {start} len {len}");
                }
            }
        }
        for _ in 0..32 * SCALE {
            let len = rng.gen_range(0..=64 * 1024);
            let data = random_bytes(&mut rng, len);
            assert_eq!(crc32(&data), crc32_bytewise(&data), "len {len}");
        }
    }
}
