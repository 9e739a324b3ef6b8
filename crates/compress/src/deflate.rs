//! The deflate-like stream: LZ77 tokens entropy-coded with two canonical
//! Huffman alphabets (literal/length and distance), using deflate's
//! standard length/distance base+extra-bit tables.
//!
//! The container is deliberately minimal — one dynamic-Huffman block with
//! nibble-packed code lengths and an end-of-block symbol — because the
//! §4.2 experiment compares *stream* cost (this) against *framed* cost
//! (`gzip`-like, which adds a header and CRC).

use crate::bitio::{BitReader, BitWriter};
use crate::huffman::{build_lengths, Decoder, Encoder};
use crate::lz77::{compress_tokens, expand_tokens, Token, MAX_MATCH, MIN_MATCH};

/// Number of literal/length symbols: 256 literals + EOB + 29 length codes.
const NUM_LITLEN: usize = 286;
/// Number of distance symbols.
const NUM_DIST: usize = 30;
/// End-of-block symbol.
const EOB: usize = 256;

/// Deflate's length-code table: (base, extra_bits) for codes 257..=285.
const LEN_TABLE: [(u16, u8); 29] = [
    (3, 0),
    (4, 0),
    (5, 0),
    (6, 0),
    (7, 0),
    (8, 0),
    (9, 0),
    (10, 0),
    (11, 1),
    (13, 1),
    (15, 1),
    (17, 1),
    (19, 2),
    (23, 2),
    (27, 2),
    (31, 2),
    (35, 3),
    (43, 3),
    (51, 3),
    (59, 3),
    (67, 4),
    (83, 4),
    (99, 4),
    (115, 4),
    (131, 5),
    (163, 5),
    (195, 5),
    (227, 5),
    (258, 0),
];

/// Deflate's distance-code table: (base, extra_bits) for codes 0..=29.
const DIST_TABLE: [(u16, u8); 30] = [
    (1, 0),
    (2, 0),
    (3, 0),
    (4, 0),
    (5, 1),
    (7, 1),
    (9, 2),
    (13, 2),
    (17, 3),
    (25, 3),
    (33, 4),
    (49, 4),
    (65, 5),
    (97, 5),
    (129, 6),
    (193, 6),
    (257, 7),
    (385, 7),
    (513, 8),
    (769, 8),
    (1025, 9),
    (1537, 9),
    (2049, 10),
    (3073, 10),
    (4097, 11),
    (6145, 11),
    (8193, 12),
    (12289, 12),
    (16385, 13),
    (24577, 13),
];

fn length_code(len: u16) -> (usize, u16, u8) {
    debug_assert!((MIN_MATCH as u16..=MAX_MATCH as u16).contains(&len));
    // Find the last code whose base <= len.
    let idx = LEN_TABLE
        .iter()
        .rposition(|&(base, _)| base <= len)
        .expect("len in range");
    let (base, extra) = LEN_TABLE[idx];
    (257 + idx, len - base, extra)
}

fn dist_code(dist: u16) -> (usize, u16, u8) {
    let d = dist as u32;
    let idx = DIST_TABLE
        .iter()
        .rposition(|&(base, _)| (base as u32) <= d)
        .expect("dist in range");
    let (base, extra) = DIST_TABLE[idx];
    (idx, (d - base as u32) as u16, extra)
}

/// Compress `data` into a deflate-like stream.
pub fn deflate(data: &[u8]) -> Vec<u8> {
    let tokens = compress_tokens(data);
    // Frequency pass.
    let mut lit_freq = vec![0u64; NUM_LITLEN];
    let mut dist_freq = vec![0u64; NUM_DIST];
    for t in &tokens {
        match *t {
            Token::Literal(b) => lit_freq[b as usize] += 1,
            Token::Match { len, dist } => {
                lit_freq[length_code(len).0] += 1;
                dist_freq[dist_code(dist).0] += 1;
            }
        }
    }
    lit_freq[EOB] += 1;
    let lit_lengths = build_lengths(&lit_freq);
    let dist_lengths = build_lengths(&dist_freq);

    let mut w = BitWriter::new();
    // Header: code lengths, nibble-packed (each 0..=15).
    for chunk in lit_lengths.chunks(2).chain(dist_lengths.chunks(2)) {
        let lo = chunk[0] as u32;
        let hi = *chunk.get(1).unwrap_or(&0) as u32;
        w.write(lo | (hi << 4), 8);
    }
    let lit_enc = Encoder::new(&lit_lengths);
    let dist_enc = Encoder::new(&dist_lengths);
    for t in &tokens {
        match *t {
            Token::Literal(b) => lit_enc.write(&mut w, b as usize),
            Token::Match { len, dist } => {
                let (code, extra_val, extra_bits) = length_code(len);
                lit_enc.write(&mut w, code);
                if extra_bits > 0 {
                    w.write(extra_val as u32, extra_bits as u32);
                }
                let (dcode, dextra_val, dextra_bits) = dist_code(dist);
                dist_enc.write(&mut w, dcode);
                if dextra_bits > 0 {
                    w.write(dextra_val as u32, dextra_bits as u32);
                }
            }
        }
    }
    lit_enc.write(&mut w, EOB);
    w.finish()
}

/// Decompress a deflate-like stream.
pub fn inflate(stream: &[u8]) -> Result<Vec<u8>, String> {
    let header_bytes = NUM_LITLEN.div_ceil(2) + NUM_DIST / 2;
    if stream.len() < header_bytes {
        return Err("truncated deflate header".into());
    }
    let mut r = BitReader::new(stream);
    let mut lit_lengths = vec![0u8; NUM_LITLEN];
    let mut dist_lengths = vec![0u8; NUM_DIST];
    for lengths in [&mut lit_lengths, &mut dist_lengths] {
        for chunk in lengths.chunks_mut(2) {
            let byte = r.read(8).ok_or("truncated header")?;
            chunk[0] = (byte & 0xF) as u8;
            if let Some(hi) = chunk.get_mut(1) {
                *hi = (byte >> 4) as u8;
            }
        }
    }
    let lit_dec = Decoder::new(&lit_lengths);
    let dist_dec = Decoder::new(&dist_lengths);
    let mut tokens = Vec::new();
    loop {
        let sym = lit_dec.read(&mut r).ok_or("truncated stream")? as usize;
        if sym == EOB {
            break;
        }
        if sym < 256 {
            tokens.push(Token::Literal(sym as u8));
            continue;
        }
        let idx = sym - 257;
        let (base, extra) = *LEN_TABLE.get(idx).ok_or("bad length code")?;
        let extra_val = if extra > 0 {
            r.read(extra as u32).ok_or("truncated length extra")?
        } else {
            0
        };
        let len = base + extra_val as u16;
        let dsym = dist_dec.read(&mut r).ok_or("truncated distance")? as usize;
        let (dbase, dextra) = *DIST_TABLE.get(dsym).ok_or("bad distance code")?;
        let dextra_val = if dextra > 0 {
            r.read(dextra as u32).ok_or("truncated distance extra")?
        } else {
            0
        };
        let dist = (dbase as u32 + dextra_val) as u16;
        tokens.push(Token::Match { len, dist });
    }
    expand_tokens(&tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> usize {
        let c = deflate(data);
        assert_eq!(inflate(&c).unwrap(), data, "roundtrip failed");
        c.len()
    }

    #[test]
    fn roundtrip_small() {
        roundtrip(b"");
        roundtrip(b"x");
        roundtrip(b"hello hello hello hello");
    }

    #[test]
    fn compresses_repetitive_text() {
        let data = "the serialized fiber state of a workflow task "
            .repeat(200)
            .into_bytes();
        let clen = roundtrip(&data);
        assert!(
            clen < data.len() / 4,
            "expected >4x compression, got {} -> {}",
            data.len(),
            clen
        );
    }

    #[test]
    fn handles_incompressible_data() {
        let mut data = Vec::new();
        let mut x: u64 = 0x123456789;
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            data.push((x >> 33) as u8);
        }
        let clen = roundtrip(&data);
        // Random bytes should not shrink meaningfully but must roundtrip.
        assert!(clen >= data.len() * 9 / 10);
    }

    #[test]
    fn length_code_boundaries() {
        assert_eq!(length_code(3).0, 257);
        assert_eq!(length_code(10).0, 264);
        assert_eq!(length_code(258).0, 285);
        assert_eq!(length_code(258).1, 0);
    }

    #[test]
    fn dist_code_boundaries() {
        assert_eq!(dist_code(1).0, 0);
        assert_eq!(dist_code(4).0, 3);
        assert_eq!(dist_code(24577).0, 29);
        assert_eq!(dist_code(32768).0, 29);
    }

    #[test]
    fn corrupt_stream_is_an_error() {
        let data = b"compress me compress me compress me".to_vec();
        let mut c = deflate(&data);
        let n = c.len();
        c.truncate(n.saturating_sub(4));
        assert!(inflate(&c).is_err());
    }
}
