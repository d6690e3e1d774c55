//! CRC-32 (IEEE 802.3 polynomial, the zlib/gzip variant), slice-by-8.
//!
//! Hand-rolled because the build is offline: every WAL record carries a
//! checksum so recovery can tell a torn tail from a complete record.
//! Every deposit's bytes pass through here once on append and once on
//! replay, so the loop takes eight bytes a step instead of one.

/// `TABLES[0]` is the classic byte-at-a-time table for the reflected
/// polynomial `0xEDB88320`; `TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, which lets eight bytes be folded in with
/// eight independent lookups.
static TABLES: [[u32; 256]; 8] = tables();

const fn tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 == 1 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop the WAL format was defined with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let a = crc32(b"hello wal record");
        let b = crc32(b"hello wal recorc");
        assert_ne!(a, b);
    }

    /// xorshift64*, so the random buffers are the same on every run.
    fn fill(seed: u64, buf: &mut [u8]) {
        let mut x = seed.wrapping_mul(2685821657736338717).max(1);
        for b in buf {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *b = (x.wrapping_mul(2685821657736338717) >> 56) as u8;
        }
    }

    #[test]
    fn slice_by_8_equals_the_bytewise_loop() {
        // Every length around the eight-byte step, at every alignment
        // the slice can start on.
        let mut buf = vec![0u8; 64 + 8];
        fill(7, &mut buf);
        for start in 0..8 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start}, length {len}");
            }
        }
        for seed in 1..=32u64 {
            let mut buf = vec![0u8; (seed as usize * 2053) % (64 * 1024 + 1)];
            fill(seed, &mut buf);
            assert_eq!(crc32(&buf), crc32_bytewise(&buf), "seed {seed}, length {}", buf.len());
        }
        let mut buf = vec![0u8; 64 * 1024];
        fill(99, &mut buf);
        assert_eq!(crc32(&buf), crc32_bytewise(&buf));
    }
}
