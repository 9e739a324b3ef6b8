#![warn(missing_docs)]

//! # gozer-compress
//!
//! From-scratch compression used by Vinz fiber persistence (paper §4.2).
//! The original system found that compressing serialized fiber state
//! before writing it to NFS was a net win, and that raw deflate
//! outperformed the gzip framing by ~30% for their data. This crate
//! provides both shapes so the experiment can be reproduced:
//!
//! * [`Codec::Deflate`] — LZ77 (32 KiB window, hash chains, lazy
//!   matching) + two canonical Huffman alphabets with deflate's standard
//!   length/distance tables, in a minimal container.
//! * [`Codec::Gzip`] — the same stream wrapped in a gzip-like frame
//!   (header, CRC-32, length trailer).
//! * [`Codec::None`] — identity, the "don't compress" baseline.
//!
//! Beside them sit the CRC-32 every layer checksums with and [`frame`],
//! the one `[len][crc]` frame that TCP wire messages and log records
//! are written in.
//!
//! ```
//! use gozer_compress::Codec;
//! let data = b"fiber state fiber state fiber state".repeat(10);
//! let packed = Codec::Deflate.compress(&data);
//! assert!(packed.len() < data.len());
//! assert_eq!(Codec::Deflate.decompress(&packed).unwrap(), data);
//! ```

pub mod bitio;
pub mod crc32;
pub mod deflate;
pub mod frame;
pub mod gzip;
pub mod huffman;
pub mod lz77;

pub use crc32::crc32;
pub use deflate::{deflate, inflate};
pub use gzip::{gzip_compress, gzip_decompress};

/// Compression codec selector used by the serializer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Codec {
    /// No compression.
    None,
    /// Deflate-like raw stream — the production choice in the paper.
    #[default]
    Deflate,
    /// Gzip-like framed stream (header + CRC): more robust, slower.
    Gzip,
}

impl Codec {
    /// Stable on-disk tag.
    pub fn tag(self) -> u8 {
        match self {
            Codec::None => 0,
            Codec::Deflate => 1,
            Codec::Gzip => 2,
        }
    }

    /// Inverse of [`tag`](Codec::tag).
    pub fn from_tag(tag: u8) -> Option<Codec> {
        match tag {
            0 => Some(Codec::None),
            1 => Some(Codec::Deflate),
            2 => Some(Codec::Gzip),
            _ => None,
        }
    }

    /// Compress `data`.
    pub fn compress(self, data: &[u8]) -> Vec<u8> {
        match self {
            Codec::None => data.to_vec(),
            Codec::Deflate => deflate(data),
            Codec::Gzip => gzip_compress(data),
        }
    }

    /// Decompress `data`.
    pub fn decompress(self, data: &[u8]) -> Result<Vec<u8>, String> {
        match self {
            Codec::None => Ok(data.to_vec()),
            Codec::Deflate => inflate(data),
            Codec::Gzip => gzip_decompress(data),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_tags_roundtrip() {
        for c in [Codec::None, Codec::Deflate, Codec::Gzip] {
            assert_eq!(Codec::from_tag(c.tag()), Some(c));
        }
        assert_eq!(Codec::from_tag(99), None);
    }

    #[test]
    fn all_codecs_roundtrip() {
        let data = b"workflow continuation state ".repeat(40);
        for c in [Codec::None, Codec::Deflate, Codec::Gzip] {
            assert_eq!(c.decompress(&c.compress(&data)).unwrap(), data, "{c:?}");
        }
    }

    #[test]
    fn deflate_smaller_than_gzip_smaller_than_none() {
        let data = b"a typical serialized fiber has much structural repetition ".repeat(100);
        let none = Codec::None.compress(&data).len();
        let defl = Codec::Deflate.compress(&data).len();
        let gz = Codec::Gzip.compress(&data).len();
        assert!(defl < none);
        assert!(defl < gz);
        assert!(gz < none);
    }
}
