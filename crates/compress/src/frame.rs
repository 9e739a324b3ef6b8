//! The one record frame: `[u32 len LE][u32 crc LE][payload: len bytes]`,
//! where `crc` is the CRC-32 of the payload. A TCP wire message
//! (`bluebox::wire`), a log record and the log's checkpoint
//! (`vinz::store::log`) are written in it, and this module is the only
//! code that lays a header down or checks one.
//!
//! * [`encode`] frames in place: it reserves the header at the end of a
//!   buffer, lets the caller write the payload behind it, then patches
//!   `len` and `crc`. The payload is laid down once and never copied.
//! * [`decode`] splits the frame at the front of a buffer into its
//!   payload and the bytes it takes. It is incremental: a buffer that
//!   ends early is [`Error::Truncated`], with the bytes needed so far.
//!   The length is checked against the caller's bound from the first 4
//!   bytes, before anything is awaited or allocated.
//! * [`Cursor`] reads a payload's fields and checks that enough bytes
//!   are left before it hands any out, so a hostile inner length fails
//!   the read instead of driving an allocation.
//! * [`FrameReader`] reads frames off a byte stream.
//!
//! # The bound
//!
//! [`MAX_FRAME_LEN`] bounds a wire frame and a log record alike, so one
//! log record always fits in one wire frame. The caller passes the
//! bound to [`encode`] and [`decode`]; the checkpoint, which the store
//! reads whole from a file it wrote itself, passes `u32::MAX`.
//!
//! # Torn tails
//!
//! One rule for the socket and the disk. A stream of frames ends at its
//! first frame that does not decode, and everything before that frame
//! is intact. Where the writer stopped there (the peer closed the
//! socket, or the frame lies in the log's last segment), the bad frame
//! is a write cut short: [`FrameReader`] reports a close inside a frame
//! as [`Error::Truncated`], and log replay truncates the segment at the
//! frame. Where the writer went on past it (a segment the log has
//! rotated away from), it is corruption, and recovery fails.

use std::io::Read;

use crate::crc32::crc32;

/// Bytes of a frame header: `len` then `crc`.
pub const HEADER_LEN: usize = 8;

/// Upper bound on the payload of a wire frame or a log record. Larger
/// claims are refused from the 4-byte length prefix alone.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// What can be wrong with a frame, with the payload inside it, or with
/// the stream it is read from. A wire message and a log record are
/// checked against the same list; no variant is ever a panic or an
/// oversized reservation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The buffer ends before the announced frame or field does.
    Truncated {
        /// Bytes needed.
        need: usize,
        /// Bytes present.
        have: usize,
    },
    /// The payload length exceeds the bound (`u32::MAX` if the
    /// length itself does).
    TooLarge {
        /// The payload length, claimed or written.
        len: u32,
    },
    /// Payload checksum mismatch (bit flip or torn write).
    BadCrc {
        /// CRC announced in the header.
        expect: u32,
        /// CRC computed over the payload.
        got: u32,
    },
    /// Unknown tag byte: a wire message type, a log record's op.
    BadTag(u8),
    /// A string field is not UTF-8.
    BadUtf8,
    /// A collection count exceeds its bound.
    BadCount {
        /// The claimed element count.
        count: u32,
    },
    /// Payload bytes left over after a complete message or record.
    TrailingBytes {
        /// Number of unread bytes.
        extra: usize,
    },
    /// The stream ended cleanly between frames (peer closed).
    Eof,
    /// Stream failure (reset, timeout, ...).
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Truncated { need, have } => {
                write!(f, "truncated frame: need {need} bytes, have {have}")
            }
            Error::TooLarge { len } => write!(f, "frame length {len} exceeds its bound"),
            Error::BadCrc { expect, got } => {
                write!(
                    f,
                    "frame crc mismatch: header {expect:#010x}, payload {got:#010x}"
                )
            }
            Error::BadTag(tag) => write!(f, "unknown tag {tag:#04x}"),
            Error::BadUtf8 => write!(f, "string is not utf-8"),
            Error::BadCount { count } => write!(f, "count {count} exceeds its bound"),
            Error::TrailingBytes { extra } => write!(f, "{extra} trailing bytes in frame"),
            Error::Eof => write!(f, "connection closed"),
            Error::Io(kind) => write!(f, "io error: {kind:?}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Error {
        match e.kind() {
            std::io::ErrorKind::UnexpectedEof => Error::Eof,
            kind => Error::Io(kind),
        }
    }
}

/// Append one frame to `out`: reserve its header, let `payload` write
/// the payload behind it, then patch `len` and `crc`. A payload over
/// `max` is refused with [`Error::TooLarge`] and `out` is left as it
/// was.
pub fn encode(
    out: &mut Vec<u8>,
    max: u32,
    payload: impl FnOnce(&mut Vec<u8>),
) -> Result<(), Error> {
    let start = out.len();
    let body = start + HEADER_LEN;
    out.resize(body, 0);
    payload(out);
    let len = out.len() - body;
    if len > max as usize {
        out.truncate(start);
        let len = u32::try_from(len).unwrap_or(u32::MAX);
        return Err(Error::TooLarge { len });
    }
    let crc = crc32(&out[body..]);
    out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    out[start + 4..body].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// Split the frame at the front of `buf`: its payload and the bytes the
/// whole frame takes. A buffer that ends inside the frame is
/// `Truncated` (ask for more); a length over `max` is `TooLarge` as
/// soon as its 4 bytes are present.
pub fn decode(buf: &[u8], max: u32) -> Result<(&[u8], usize), Error> {
    let word = |at: usize| {
        buf.get(at..at + 4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    };
    if let Some(len) = word(0).filter(|&len| len > max) {
        return Err(Error::TooLarge { len });
    }
    let (Some(len), Some(expect)) = (word(0), word(4)) else {
        return Err(Error::Truncated {
            need: HEADER_LEN,
            have: buf.len(),
        });
    };
    let total = HEADER_LEN + len as usize;
    let payload = buf.get(HEADER_LEN..total).ok_or(Error::Truncated {
        need: total,
        have: buf.len(),
    })?;
    let got = crc32(payload);
    if got != expect {
        return Err(Error::BadCrc { expect, got });
    }
    Ok((payload, total))
}

/// Reads little-endian fields off the front of a payload. Every read
/// checks that its bytes are present first, so no length it is given
/// can make it allocate or read past the buffer.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    /// Bytes read so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not read yet.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `Truncated` unless at least `n` bytes are left.
    pub fn need(&self, n: usize) -> Result<(), Error> {
        let have = self.remaining();
        if have < n {
            return Err(Error::Truncated { need: n, have });
        }
        Ok(())
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        self.need(n)?;
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], Error> {
        let mut bytes = [0; N];
        bytes.copy_from_slice(self.take(N)?);
        Ok(bytes)
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8, Error> {
        Ok(self.take(1)?[0])
    }

    /// The next little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, Error> {
        self.array().map(u16::from_le_bytes)
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, Error> {
        self.array().map(u32::from_le_bytes)
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, Error> {
        self.array().map(u64::from_le_bytes)
    }

    /// The next `n` bytes as a string.
    pub fn utf8(&mut self, n: usize) -> Result<String, Error> {
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| Error::BadUtf8)
    }

    /// `TrailingBytes` unless the whole payload has been read.
    pub fn end(&self) -> Result<(), Error> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(Error::TrailingBytes { extra }),
        }
    }
}

/// Reads frames off a byte stream, keeping a partly read frame across
/// calls.
///
/// A socket read timeout can fire *mid-frame* (a large frame, a stalled
/// peer). A reader that dropped the bytes read so far would
/// desynchronise the stream: the next read would start in the middle of
/// the old frame. `FrameReader` buffers them instead, so after a
/// `WouldBlock`/`TimedOut` error the caller simply reads again and the
/// same frame resumes.
#[derive(Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// Read the next frame of at most `max` payload bytes and hand its
    /// payload to `parse`.
    ///
    /// A stream that closes between frames is [`Error::Eof`]; one that
    /// closes inside a frame is [`Error::Truncated`], the torn tail. An
    /// I/O error is [`Error::Io`], and a `WouldBlock`/`TimedOut` one
    /// keeps the buffered bytes for the next call.
    pub fn read<T>(
        &mut self,
        stream: &mut impl Read,
        max: u32,
        parse: impl FnOnce(&[u8]) -> Result<T, Error>,
    ) -> Result<T, Error> {
        loop {
            let torn = match decode(&self.buf, max) {
                Ok((payload, used)) => {
                    let parsed = parse(payload);
                    self.buf.drain(..used);
                    return parsed;
                }
                Err(e @ Error::Truncated { .. }) => e,
                Err(e) => return Err(e),
            };
            let mut chunk = [0u8; 8192];
            match stream.read(&mut chunk) {
                Ok(0) if self.buf.is_empty() => return Err(Error::Eof),
                Ok(0) => return Err(torn),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn framed(payload: &[u8], max: u32) -> Result<Vec<u8>, Error> {
        let mut out = Vec::new();
        encode(&mut out, max, |out| out.extend_from_slice(payload))?;
        Ok(out)
    }

    #[test]
    fn honest_frames_round_trip() {
        for payload in [&b""[..], b"x", b"a log record or a wire message"] {
            let mut buf = b"prefix".to_vec();
            encode(&mut buf, MAX_FRAME_LEN, |out| {
                out.extend_from_slice(payload)
            })
            .unwrap();
            buf.extend_from_slice(b"next frame");
            let (got, used) = decode(&buf[6..], MAX_FRAME_LEN).unwrap();
            assert_eq!(got, payload);
            assert_eq!(used, HEADER_LEN + payload.len());
            assert_eq!(&buf[6 + used..], b"next frame");
        }
    }

    #[test]
    fn the_header_is_len_then_crc() {
        let frame = framed(b"123456789", MAX_FRAME_LEN).unwrap();
        assert_eq!(frame[..4], 9u32.to_le_bytes());
        assert_eq!(frame[4..8], 0xCBF4_3926u32.to_le_bytes());
        assert_eq!(&frame[8..], b"123456789");
    }

    #[test]
    fn every_proper_prefix_is_truncated() {
        let frame = framed(b"every prefix asks for more", MAX_FRAME_LEN).unwrap();
        for cut in 0..frame.len() {
            match decode(&frame[..cut], MAX_FRAME_LEN) {
                Err(Error::Truncated { need, have }) => {
                    assert_eq!(have, cut);
                    assert!(need > cut, "cut {cut}: need {need}");
                }
                other => panic!("cut {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_length_over_the_bound_is_refused_from_four_bytes() {
        let claim = (MAX_FRAME_LEN + 1).to_le_bytes();
        let want = Err(Error::TooLarge {
            len: MAX_FRAME_LEN + 1,
        });
        assert_eq!(decode(&claim, MAX_FRAME_LEN), want);
        // The caller's bound decides, not the constant.
        let small = framed(b"sixteen bytes!!!", u32::MAX).unwrap();
        assert_eq!(decode(&small, 15), Err(Error::TooLarge { len: 16 }));
        assert!(decode(&small, 16).is_ok());
    }

    #[test]
    fn a_payload_of_exactly_the_bound_is_accepted() {
        let payload = vec![0xA5; MAX_FRAME_LEN as usize];
        let frame = framed(&payload, MAX_FRAME_LEN).unwrap();
        let (got, used) = decode(&frame, MAX_FRAME_LEN).unwrap();
        assert_eq!((got.len(), used), (payload.len(), frame.len()));
    }

    #[test]
    fn encode_refuses_a_payload_over_the_bound_and_leaves_the_buffer() {
        let mut out = b"kept".to_vec();
        let refused = encode(&mut out, 3, |out| out.extend_from_slice(b"four"));
        assert_eq!(refused, Err(Error::TooLarge { len: 4 }));
        assert_eq!(out, b"kept");
    }

    #[test]
    fn one_flipped_bit_fails_the_crc() {
        let frame = framed(b"bit rot", MAX_FRAME_LEN).unwrap();
        for bit in 0..8 * (frame.len() - HEADER_LEN) {
            let mut bad = frame.clone();
            bad[HEADER_LEN + bit / 8] ^= 1 << (bit % 8);
            match decode(&bad, MAX_FRAME_LEN) {
                Err(Error::BadCrc { .. }) => {}
                other => panic!("bit {bit}: expected BadCrc, got {other:?}"),
            }
        }
    }

    #[test]
    fn the_cursor_checks_before_it_reads() {
        let buf = [1, 2, 0, 3, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 9];
        let mut c = Cursor::new(&buf);
        assert_eq!(c.u8(), Ok(1));
        assert_eq!(c.u16(), Ok(2));
        assert_eq!(c.u32(), Ok(3));
        assert_eq!(c.u64(), Ok(4));
        assert_eq!(c.pos(), 15);
        assert_eq!(c.take(2), Err(Error::Truncated { need: 2, have: 1 }));
        assert_eq!(
            c.need(usize::MAX),
            Err(Error::Truncated {
                need: usize::MAX,
                have: 1
            })
        );
        assert_eq!(c.take(1), Ok(&[9][..]));
        assert_eq!((c.remaining(), c.end()), (0, Ok(())));

        let mut c = Cursor::new(b"ok\xff!");
        assert_eq!(c.utf8(2), Ok("ok".to_string()));
        assert_eq!(c.utf8(1), Err(Error::BadUtf8));
        assert_eq!(c.end(), Err(Error::TrailingBytes { extra: 1 }));
    }

    #[test]
    fn the_reader_tells_a_clean_close_from_a_torn_frame() {
        let mut bytes = framed(b"one", MAX_FRAME_LEN).unwrap();
        let second = framed(b"two", MAX_FRAME_LEN).unwrap();
        bytes.extend_from_slice(&second[..5]);
        let mut stream = std::io::Cursor::new(bytes);
        let mut reader = FrameReader::default();
        let owned = |p: &[u8]| Ok(p.to_vec());
        assert_eq!(
            reader.read(&mut stream, MAX_FRAME_LEN, owned),
            Ok(b"one".to_vec())
        );
        assert_eq!(
            reader.read(&mut stream, MAX_FRAME_LEN, owned),
            Err(Error::Truncated { need: 8, have: 5 })
        );
        let mut empty = std::io::Cursor::new(Vec::new());
        assert_eq!(
            FrameReader::default().read(&mut empty, MAX_FRAME_LEN, owned),
            Err(Error::Eof)
        );
    }
}
