//! CRC-32 (IEEE 802.3 polynomial), slicing-by-8: eight table lookups
//! fold eight input bytes into the state at once, where the classic
//! table walk spends a dependent lookup per byte. Used by the gzip-like
//! framing, the log store's record frames, the delta snapshot's base
//! checksum and the TCP wire frames — one implementation, so a checksum
//! written by one layer is the number another layer computes.

/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the CRC of
/// byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = tables();

const fn tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
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

/// Streaming CRC-32 state.
#[derive(Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// Fresh CRC.
    pub fn new() -> Crc32 {
        Crc32 { state: 0xFFFFFFFF }
    }

    /// Feed bytes.
    pub fn update(&mut self, data: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.state = crc;
    }

    /// Final CRC value.
    pub fn finish(self) -> u32 {
        self.state ^ 0xFFFFFFFF
    }
}

/// One-shot CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition the sliced walk must agree with: one table lookup
    /// per byte.
    fn bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    /// Seeded filler (xorshift64): the same bytes on every run.
    fn noise(len: usize, mut x: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // Standard test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414FA339
        );
    }

    #[test]
    fn sliced_equals_bytewise_at_every_length_and_offset() {
        let buf = noise(8 + 257, 0x9E37_79B9_7F4A_7C15);
        for start in 0..8 {
            for len in 0..=257 {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), bytewise(data), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn sliced_equals_bytewise_on_a_mebibyte() {
        let buf = noise(1 << 20, 0xD17A_5EED);
        assert_eq!(crc32(&buf), bytewise(&buf));
    }

    #[test]
    fn update_split_anywhere_matches_oneshot() {
        let data = noise(64, 7);
        for cut in 0..=data.len() {
            let mut c = Crc32::new();
            c.update(&data[..cut]);
            c.update(&data[cut..]);
            assert_eq!(c.finish(), bytewise(&data), "cut at {cut}");
        }
    }
}
