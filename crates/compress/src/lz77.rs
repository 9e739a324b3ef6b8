//! LZ77 match finding over a 32 KiB sliding window with a hash-chain
//! matcher, producing the literal/match token stream consumed by the
//! Huffman layer.

/// Maximum backward distance.
pub const WINDOW_SIZE: usize = 32 * 1024;
/// Minimum profitable match length.
pub const MIN_MATCH: usize = 3;
/// Maximum match length.
pub const MAX_MATCH: usize = 258;

/// One LZ77 token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// A literal byte.
    Literal(u8),
    /// A back-reference: copy `len` bytes from `dist` bytes back.
    Match {
        /// Copy length, `MIN_MATCH..=MAX_MATCH`.
        len: u16,
        /// Backward distance, `1..=WINDOW_SIZE`.
        dist: u16,
    },
}

const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;
/// Bound on chain walks per position — the usual speed/ratio knob.
const MAX_CHAIN: usize = 64;

#[inline]
fn hash3(data: &[u8], i: usize) -> usize {
    let h = (data[i] as u32)
        .wrapping_mul(0x9E37)
        .wrapping_add((data[i + 1] as u32).wrapping_mul(0x79B9))
        .wrapping_add((data[i + 2] as u32).wrapping_mul(0x7F4A));
    (h as usize) & (HASH_SIZE - 1)
}

/// Tokenize `data` with greedy matching (plus one-step lazy evaluation,
/// as zlib does at its default level).
pub fn compress_tokens(data: &[u8]) -> Vec<Token> {
    let n = data.len();
    let mut tokens = Vec::with_capacity(n / 2 + 16);
    if n < MIN_MATCH {
        tokens.extend(data.iter().map(|&b| Token::Literal(b)));
        return tokens;
    }
    // head[h] = most recent position with hash h; prev[i % WINDOW] = the
    // previous position in i's chain.
    let mut head = vec![usize::MAX; HASH_SIZE];
    let mut prev = vec![usize::MAX; WINDOW_SIZE];

    let insert = |head: &mut Vec<usize>, prev: &mut Vec<usize>, i: usize| {
        if i + MIN_MATCH <= n {
            let h = hash3(data, i);
            prev[i % WINDOW_SIZE] = head[h];
            head[h] = i;
        }
    };

    let find_match = |head: &[usize], prev: &[usize], i: usize| -> Option<(usize, usize)> {
        if i + MIN_MATCH > n {
            return None;
        }
        let mut cand = head[hash3(data, i)];
        let mut best_len = MIN_MATCH - 1;
        let mut best_dist = 0usize;
        let max_len = MAX_MATCH.min(n - i);
        let mut chain = 0;
        while cand != usize::MAX && chain < MAX_CHAIN {
            if cand >= i || i - cand > WINDOW_SIZE {
                break;
            }
            // Quick reject using the byte just past the current best.
            if i + best_len < n
                && data[cand + best_len.min(max_len - 1)] == data[i + best_len.min(max_len - 1)]
            {
                let mut l = 0;
                while l < max_len && data[cand + l] == data[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_dist = i - cand;
                    if l >= max_len {
                        break;
                    }
                }
            }
            cand = prev[cand % WINDOW_SIZE];
            chain += 1;
        }
        (best_len >= MIN_MATCH).then_some((best_len, best_dist))
    };

    let mut i = 0;
    while i < n {
        match find_match(&head, &prev, i) {
            Some((len, dist)) => {
                // One-step lazy match: if i+1 has a strictly longer match,
                // emit a literal and take that one next round.
                let lazy_better = i + 1 < n
                    && find_match(&head, &prev, i + 1).is_some_and(|(l2, _)| l2 > len + 1);
                if lazy_better {
                    tokens.push(Token::Literal(data[i]));
                    insert(&mut head, &mut prev, i);
                    i += 1;
                } else {
                    tokens.push(Token::Match {
                        len: len as u16,
                        dist: dist as u16,
                    });
                    for k in i..(i + len).min(n) {
                        insert(&mut head, &mut prev, k);
                    }
                    i += len;
                }
            }
            None => {
                tokens.push(Token::Literal(data[i]));
                insert(&mut head, &mut prev, i);
                i += 1;
            }
        }
    }
    tokens
}

/// Reconstruct the original bytes from tokens.
pub fn expand_tokens(tokens: &[Token]) -> Result<Vec<u8>, String> {
    let mut out = Vec::with_capacity(tokens.len() * 2);
    for t in tokens {
        match *t {
            Token::Literal(b) => out.push(b),
            Token::Match { len, dist } => {
                let dist = dist as usize;
                let len = len as usize;
                if dist == 0 || dist > out.len() {
                    return Err(format!(
                        "corrupt stream: distance {dist} with only {} bytes output",
                        out.len()
                    ));
                }
                let start = out.len() - dist;
                // Overlapping copies are the RLE case (dist < len).
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let tokens = compress_tokens(data);
        let back = expand_tokens(&tokens).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn roundtrip_basic() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"ab");
        roundtrip(b"abcabcabcabcabc");
        roundtrip(b"the quick brown fox jumps over the lazy dog the quick brown fox");
    }

    #[test]
    fn roundtrip_rle_overlap() {
        roundtrip(&[7u8; 1000]);
        roundtrip(b"abababababababababababab");
    }

    #[test]
    fn finds_matches_in_repetitive_data() {
        let data = b"hello world hello world hello world".repeat(10);
        let tokens = compress_tokens(&data);
        let matches = tokens
            .iter()
            .filter(|t| matches!(t, Token::Match { .. }))
            .count();
        assert!(matches > 0, "expected back-references");
        assert!(tokens.len() < data.len() / 2, "expected compression");
    }

    #[test]
    fn corrupt_distance_detected() {
        let err = expand_tokens(&[Token::Match { len: 3, dist: 5 }]).unwrap_err();
        assert!(err.contains("corrupt"));
    }

    #[test]
    fn long_input_roundtrip() {
        let mut data = Vec::new();
        let mut x: u32 = 12345;
        for i in 0..100_000usize {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            // Mix of compressible runs and noise.
            if i % 512 < 300 {
                data.push((i % 7) as u8);
            } else {
                data.push((x >> 24) as u8);
            }
        }
        roundtrip(&data);
    }
}
