//! The TCP transport's wire format: length-prefixed, CRC-framed
//! messages over a byte stream.
//!
//! Every frame is `[len: u32 LE][crc: u32 LE][payload: len bytes]`,
//! where `crc` is the IEEE CRC-32 of the payload. The payload is one
//! [`WireMsg`], encoded with a small hand-rolled tag-length-value
//! scheme (message *bodies* stay opaque byte blobs — they are already
//! `gozer-serial` output on the workflow path and are passed through
//! untouched).
//!
//! Decoding is defensive by construction, because the peer is a
//! separate OS process that can die mid-write (`kill -9` leaves torn
//! frames) and the fuzz harness feeds the decoder arbitrary bytes:
//!
//! * the frame length is validated against [`MAX_FRAME_LEN`] *before*
//!   any allocation;
//! * every inner length/count is validated against the bytes actually
//!   present before any allocation;
//! * all failures are typed [`FrameError`]s — never a panic, never an
//!   oversized reservation.

use std::collections::BTreeMap;
use std::io::Read;

use gozer_compress::crc32;

/// Hard upper bound on a frame's payload length. Larger claims are
/// rejected from the 4-byte prefix alone, so a corrupt or hostile
/// length can never drive an allocation.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// Upper bound on counted collections inside a payload (headers,
/// registered services, instance ids). Far above anything the protocol
/// produces; exists so a bit-flipped count cannot demand a huge table.
pub const MAX_WIRE_COUNT: u32 = 4096;

const FRAME_HEADER_LEN: usize = 8;

// ---- errors -----------------------------------------------------------

/// Typed decode/IO failures of the wire layer. Every variant is a
/// *connection-fatal* condition: the reader cannot resynchronise inside
/// a byte stream whose framing it no longer trusts, so the connection
/// is torn down and the broker-side lease machinery takes over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ends before the announced frame/field does.
    Truncated {
        /// Bytes the decoder needed.
        need: usize,
        /// Bytes it had.
        have: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    TooLarge {
        /// The claimed payload length.
        len: u32,
    },
    /// Payload checksum mismatch (bit flip or torn write).
    BadCrc {
        /// CRC announced in the header.
        expect: u32,
        /// CRC computed over the received payload.
        got: u32,
    },
    /// Unknown message tag byte.
    BadTag(u8),
    /// A string field is not UTF-8.
    BadUtf8,
    /// A collection count exceeds [`MAX_WIRE_COUNT`].
    BadCount {
        /// The claimed element count.
        count: u32,
    },
    /// Payload bytes left over after a complete message.
    TrailingBytes {
        /// Number of undecoded bytes.
        extra: usize,
    },
    /// The stream ended cleanly between frames (peer closed).
    Eof,
    /// Socket-level failure (reset, timeout, ...).
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { need, have } => {
                write!(f, "truncated frame: need {need} bytes, have {have}")
            }
            FrameError::TooLarge { len } => {
                write!(f, "frame length {len} exceeds max {MAX_FRAME_LEN}")
            }
            FrameError::BadCrc { expect, got } => {
                write!(f, "frame crc mismatch: header {expect:#010x}, payload {got:#010x}")
            }
            FrameError::BadTag(tag) => write!(f, "unknown wire message tag {tag:#04x}"),
            FrameError::BadUtf8 => write!(f, "wire string is not utf-8"),
            FrameError::BadCount { count } => {
                write!(f, "wire count {count} exceeds max {MAX_WIRE_COUNT}")
            }
            FrameError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after wire message")
            }
            FrameError::Eof => write!(f, "connection closed"),
            FrameError::Io(kind) => write!(f, "io error: {kind:?}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> FrameError {
        match e.kind() {
            std::io::ErrorKind::UnexpectedEof => FrameError::Eof,
            kind => FrameError::Io(kind),
        }
    }
}

// ---- wire messages ----------------------------------------------------

/// A [`crate::Message`] as it crosses the wire: the broker-owned
/// runtime fields (`enqueued_at`, lease bookkeeping, `reply_to`) stay
/// on the broker; only what a remote worker needs — or may set on a
/// send of its own — is carried.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WirePayload {
    /// Destination service.
    pub service: String,
    /// Destination operation.
    pub operation: String,
    /// String headers.
    pub headers: BTreeMap<String, String>,
    /// Opaque body (`gozer-serial` bytes on the workflow path).
    pub body: Vec<u8>,
    /// Scheduling priority (worker-originated sends).
    pub priority: i32,
    /// Durability gate (worker-originated sends; see
    /// [`crate::Message::hold_until`]).
    pub hold_until: u64,
}

/// How a worker settles a delivery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SettleBody {
    /// Handler completed; the reply body.
    Ok(Vec<u8>),
    /// Handler returned a fault: `(code, message)`.
    Fault(String, String),
}

/// One protocol message. The connection lifecycle is
/// `Hello → HelloAck → Register*/Registered* → (Delivery/Settle/Send/
/// Heartbeat)* → Bye/EOF`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireMsg {
    /// Worker → broker: identify this connection.
    Hello {
        /// Worker name (diagnostics only).
        worker: String,
        /// Logical node id the worker's instances run on (affinity).
        node: u32,
    },
    /// Broker → worker: handshake accepted.
    HelloAck {
        /// Heartbeat cadence the broker expects, in milliseconds.
        heartbeat_ms: u64,
    },
    /// Worker → broker: host `instances` competing consumers of
    /// `service` on this connection.
    Register {
        /// Service name.
        service: String,
        /// Instance count.
        instances: u32,
    },
    /// Broker → worker: instance ids assigned to a `Register`.
    Registered {
        /// Service name.
        service: String,
        /// Broker-assigned instance ids.
        ids: Vec<u64>,
    },
    /// Broker → worker: one leased message to process.
    Delivery {
        /// Broker message id; doubles as the lease key the `Settle`
        /// must echo.
        lease: u64,
        /// Redelivery count (workers may use it for backoff/diagnosis).
        redeliveries: u32,
        /// The message.
        payload: WirePayload,
    },
    /// Worker → broker: the outcome of a delivery.
    Settle {
        /// The delivery's lease key.
        lease: u64,
        /// Reply body or fault.
        body: SettleBody,
    },
    /// Worker → broker: inject a fire-and-forget message into the
    /// broker's queues.
    Send {
        /// The message.
        payload: WirePayload,
    },
    /// Worker → broker: liveness. Also re-arms the lease TTL of this
    /// connection's *idle* instances (a busy instance's clock keeps
    /// running so a wedged handler still expires).
    Heartbeat {
        /// Monotonic per-connection sequence number.
        seq: u64,
    },
    /// Either side: orderly goodbye.
    Bye,
}

// ---- encoding ---------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i32(out: &mut Vec<u8>, v: i32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

fn put_payload(out: &mut Vec<u8>, p: &WirePayload) {
    put_str(out, &p.service);
    put_str(out, &p.operation);
    put_u32(out, p.headers.len() as u32);
    for (k, v) in &p.headers {
        put_str(out, k);
        put_str(out, v);
    }
    put_bytes(out, &p.body);
    put_i32(out, p.priority);
    put_u64(out, p.hold_until);
}

/// Encode `msg` as a frame payload (no frame header).
pub fn encode_msg(msg: &WireMsg) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    match msg {
        WireMsg::Hello { worker, node } => {
            out.push(1);
            put_str(&mut out, worker);
            put_u32(&mut out, *node);
        }
        WireMsg::HelloAck { heartbeat_ms } => {
            out.push(2);
            put_u64(&mut out, *heartbeat_ms);
        }
        WireMsg::Register { service, instances } => {
            out.push(3);
            put_str(&mut out, service);
            put_u32(&mut out, *instances);
        }
        WireMsg::Registered { service, ids } => {
            out.push(4);
            put_str(&mut out, service);
            put_u32(&mut out, ids.len() as u32);
            for id in ids {
                put_u64(&mut out, *id);
            }
        }
        WireMsg::Delivery {
            lease,
            redeliveries,
            payload,
        } => {
            out.push(5);
            put_u64(&mut out, *lease);
            put_u32(&mut out, *redeliveries);
            put_payload(&mut out, payload);
        }
        WireMsg::Settle { lease, body } => {
            out.push(6);
            put_u64(&mut out, *lease);
            match body {
                SettleBody::Ok(bytes) => {
                    out.push(0);
                    put_bytes(&mut out, bytes);
                }
                SettleBody::Fault(code, message) => {
                    out.push(1);
                    put_str(&mut out, code);
                    put_str(&mut out, message);
                }
            }
        }
        WireMsg::Send { payload } => {
            out.push(7);
            put_payload(&mut out, payload);
        }
        WireMsg::Heartbeat { seq } => {
            out.push(8);
            put_u64(&mut out, *seq);
        }
        WireMsg::Bye => out.push(9),
    }
    out
}

/// Encode `msg` as a complete frame: header plus payload.
pub fn encode_frame(msg: &WireMsg) -> Vec<u8> {
    let payload = encode_msg(msg);
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, crc32(&payload));
    out.extend_from_slice(&payload);
    out
}

// ---- decoding ---------------------------------------------------------

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn need(&self, n: usize) -> Result<(), FrameError> {
        let have = self.buf.len() - self.pos;
        if have < n {
            return Err(FrameError::Truncated {
                need: n,
                have,
            });
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        self.need(n)?;
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn i32(&mut self) -> Result<i32, FrameError> {
        let b = self.take(4)?;
        Ok(i32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// A length/count that must have at least `min_elem` bytes per
    /// element still present — the pre-allocation bound.
    fn count(&mut self, min_elem: usize) -> Result<u32, FrameError> {
        let n = self.u32()?;
        if n > MAX_WIRE_COUNT {
            return Err(FrameError::BadCount { count: n });
        }
        self.need((n as usize).saturating_mul(min_elem))?;
        Ok(n)
    }

    fn bytes(&mut self) -> Result<Vec<u8>, FrameError> {
        let n = self.u32()? as usize;
        // `need` runs before the allocation: a hostile length can make
        // the decode fail, never make it reserve.
        Ok(self.take(n)?.to_vec())
    }

    fn str(&mut self) -> Result<String, FrameError> {
        let raw = self.bytes()?;
        String::from_utf8(raw).map_err(|_| FrameError::BadUtf8)
    }

    fn payload(&mut self) -> Result<WirePayload, FrameError> {
        let service = self.str()?;
        let operation = self.str()?;
        let n = self.count(8)?; // each header ≥ two 4-byte lengths
        let mut headers = BTreeMap::new();
        for _ in 0..n {
            let k = self.str()?;
            let v = self.str()?;
            headers.insert(k, v);
        }
        let body = self.bytes()?;
        let priority = self.i32()?;
        let hold_until = self.u64()?;
        Ok(WirePayload {
            service,
            operation,
            headers,
            body,
            priority,
            hold_until,
        })
    }
}

/// Decode one frame *payload* (the bytes after the 8-byte header) into
/// a [`WireMsg`]. The whole payload must be consumed.
pub fn decode_msg(payload: &[u8]) -> Result<WireMsg, FrameError> {
    let mut c = Cursor {
        buf: payload,
        pos: 0,
    };
    let msg = match c.u8()? {
        1 => WireMsg::Hello {
            worker: c.str()?,
            node: c.u32()?,
        },
        2 => WireMsg::HelloAck {
            heartbeat_ms: c.u64()?,
        },
        3 => WireMsg::Register {
            service: c.str()?,
            instances: c.u32()?,
        },
        4 => {
            let service = c.str()?;
            let n = c.count(8)?;
            let mut ids = Vec::with_capacity(n as usize);
            for _ in 0..n {
                ids.push(c.u64()?);
            }
            WireMsg::Registered { service, ids }
        }
        5 => WireMsg::Delivery {
            lease: c.u64()?,
            redeliveries: c.u32()?,
            payload: c.payload()?,
        },
        6 => {
            let lease = c.u64()?;
            let body = match c.u8()? {
                0 => SettleBody::Ok(c.bytes()?),
                1 => SettleBody::Fault(c.str()?, c.str()?),
                other => return Err(FrameError::BadTag(other)),
            };
            WireMsg::Settle { lease, body }
        }
        7 => WireMsg::Send {
            payload: c.payload()?,
        },
        8 => WireMsg::Heartbeat { seq: c.u64()? },
        9 => WireMsg::Bye,
        other => return Err(FrameError::BadTag(other)),
    };
    if c.pos != payload.len() {
        return Err(FrameError::TrailingBytes {
            extra: payload.len() - c.pos,
        });
    }
    Ok(msg)
}

/// Decode one complete frame from the front of `buf`.
///
/// Returns the message and the total bytes consumed (header included),
/// or `Truncated` when more bytes are needed — the incremental-parse
/// contract the fuzz harness and any buffered reader rely on. The
/// length bound is checked from the first 4 bytes alone, so an
/// oversized claim fails before any payload is awaited or allocated.
pub fn decode_frame(buf: &[u8]) -> Result<(WireMsg, usize), FrameError> {
    if buf.len() < FRAME_HEADER_LEN {
        // The length prefix itself may already convict the frame.
        if buf.len() >= 4 {
            let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
            if len > MAX_FRAME_LEN {
                return Err(FrameError::TooLarge { len });
            }
        }
        return Err(FrameError::Truncated {
            need: FRAME_HEADER_LEN,
            have: buf.len(),
        });
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if len > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge { len });
    }
    let expect = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
    let total = FRAME_HEADER_LEN + len as usize;
    if buf.len() < total {
        return Err(FrameError::Truncated {
            need: total,
            have: buf.len(),
        });
    }
    let payload = &buf[FRAME_HEADER_LEN..total];
    let got = crc32(payload);
    if got != expect {
        return Err(FrameError::BadCrc { expect, got });
    }
    Ok((decode_msg(payload)?, total))
}

// ---- blocking stream IO -----------------------------------------------

/// The incremental frame reader, the one way frames are read off a
/// stream. Frames are written by encoding them with [`encode_frame`].
///
/// A socket read timeout can fire *mid-frame* (a large Delivery, a
/// stalled peer). A reader that discarded the partially-read bytes then
/// would desynchronise the stream: the next read starts in the middle
/// of the old frame and everything after decodes as garbage.
/// `FrameReader` instead accumulates bytes in a buffer and decodes with
/// [`decode_frame`], so a `WouldBlock`/`TimedOut` error leaves the
/// partial frame intact — the caller can treat the timeout as benign
/// and simply call [`FrameReader::read_frame`] again to resume where it
/// left off.
#[derive(Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// A reader with an empty buffer.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Read one frame, resuming any partially-buffered frame first.
    ///
    /// `Eof` on clean close between frames; a close *inside* a frame is
    /// `Truncated` — the torn-frame case the connection layer treats as
    /// peer death. `Io(WouldBlock)`/`Io(TimedOut)` are resumable:
    /// buffered bytes are kept and the next call continues the same
    /// frame. Every other error is connection-fatal.
    pub fn read_frame(&mut self, stream: &mut impl Read) -> Result<WireMsg, FrameError> {
        loop {
            let (need, have) = match decode_frame(&self.buf) {
                Ok((msg, used)) => {
                    self.buf.drain(..used);
                    return Ok(msg);
                }
                Err(FrameError::Truncated { need, have }) => (need, have),
                Err(e) => return Err(e),
            };
            let mut chunk = [0u8; 8192];
            match stream.read(&mut chunk) {
                Ok(0) if self.buf.is_empty() => return Err(FrameError::Eof),
                // Peer closed inside a frame: torn frame.
                Ok(0) => return Err(FrameError::Truncated { need, have }),
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

    fn sample_msgs() -> Vec<WireMsg> {
        let payload = WirePayload {
            service: "compute".into(),
            operation: "Work".into(),
            headers: [("task-id".to_string(), "task-1".to_string())]
                .into_iter()
                .collect(),
            body: vec![0, 1, 2, 255],
            priority: -1,
            hold_until: 42,
        };
        vec![
            WireMsg::Hello {
                worker: "w1".into(),
                node: 7,
            },
            WireMsg::HelloAck { heartbeat_ms: 250 },
            WireMsg::Register {
                service: "compute".into(),
                instances: 2,
            },
            WireMsg::Registered {
                service: "compute".into(),
                ids: vec![3, 4],
            },
            WireMsg::Delivery {
                lease: 99,
                redeliveries: 1,
                payload: payload.clone(),
            },
            WireMsg::Settle {
                lease: 99,
                body: SettleBody::Ok(b"result".to_vec()),
            },
            WireMsg::Settle {
                lease: 100,
                body: SettleBody::Fault("{urn:x}Bad".into(), "boom".into()),
            },
            WireMsg::Send { payload },
            WireMsg::Heartbeat { seq: 12 },
            WireMsg::Bye,
        ]
    }

    #[test]
    fn round_trips_every_message() {
        for msg in sample_msgs() {
            let frame = encode_frame(&msg);
            let (back, used) = decode_frame(&frame).expect("decodes");
            assert_eq!(back, msg);
            assert_eq!(used, frame.len());
        }
    }

    #[test]
    fn truncated_frames_ask_for_more() {
        let frame = encode_frame(&WireMsg::Heartbeat { seq: 5 });
        for cut in 0..frame.len() {
            match decode_frame(&frame[..cut]) {
                Err(FrameError::Truncated { need, have }) => {
                    assert_eq!(have, cut);
                    assert!(need > cut);
                }
                other => panic!("cut {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_length_rejected_before_payload() {
        let mut frame = Vec::new();
        frame.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        // No payload present at all: the length alone must convict.
        assert_eq!(
            decode_frame(&frame),
            Err(FrameError::TooLarge {
                len: MAX_FRAME_LEN + 1
            })
        );
    }

    #[test]
    fn bit_flips_are_caught_by_crc() {
        let frame = encode_frame(&WireMsg::Register {
            service: "compute".into(),
            instances: 2,
        });
        for bit in 0..8 {
            let mut bad = frame.clone();
            let last = bad.len() - 1;
            bad[last] ^= 1 << bit;
            match decode_frame(&bad) {
                Err(FrameError::BadCrc { .. }) => {}
                other => panic!("bit {bit}: expected BadCrc, got {other:?}"),
            }
        }
    }

    #[test]
    fn hostile_inner_lengths_do_not_allocate() {
        // A Settle whose body claims 4 GiB: payload length check fires.
        let mut payload = vec![6u8];
        payload.extend_from_slice(&7u64.to_le_bytes());
        payload.push(0);
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        match decode_frame(&frame) {
            Err(FrameError::Truncated { .. }) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn hostile_counts_rejected() {
        // A Registered with a 1M-id table in a tiny payload.
        let mut payload = vec![4u8];
        payload.extend_from_slice(&0u32.to_le_bytes()); // empty service
        payload.extend_from_slice(&1_000_000u32.to_le_bytes());
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        match decode_frame(&frame) {
            Err(FrameError::BadCount { count: 1_000_000 }) => {}
            other => panic!("expected BadCount, got {other:?}"),
        }
    }

    #[test]
    fn bad_tag_and_trailing_bytes_are_typed() {
        let payload = vec![200u8];
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        assert_eq!(decode_frame(&frame), Err(FrameError::BadTag(200)));

        let mut payload = encode_msg(&WireMsg::Bye);
        payload.push(0xAA);
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        assert_eq!(
            decode_frame(&frame),
            Err(FrameError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn stream_read_write_round_trip() {
        let mut buf = Vec::new();
        for msg in sample_msgs() {
            buf.extend_from_slice(&encode_frame(&msg));
        }
        let mut cursor = std::io::Cursor::new(buf);
        let mut reader = FrameReader::new();
        for msg in sample_msgs() {
            assert_eq!(reader.read_frame(&mut cursor).unwrap(), msg);
        }
        assert_eq!(reader.read_frame(&mut cursor), Err(FrameError::Eof));
    }

    /// Yields one byte per read and a timeout error between every
    /// byte — the worst case of a read timeout firing mid-frame.
    struct ChoppyStream {
        data: Vec<u8>,
        pos: usize,
        tick: usize,
    }

    impl Read for ChoppyStream {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            self.tick += 1;
            if self.tick.is_multiple_of(2) {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            if self.pos >= self.data.len() {
                return Ok(0);
            }
            out[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn frame_reader_resumes_across_mid_frame_timeouts() {
        let msgs = sample_msgs();
        let mut data = Vec::new();
        for msg in &msgs {
            data.extend_from_slice(&encode_frame(msg));
        }
        let mut stream = ChoppyStream { data, pos: 0, tick: 0 };
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        loop {
            match reader.read_frame(&mut stream) {
                Ok(msg) => got.push(msg),
                Err(FrameError::Io(std::io::ErrorKind::WouldBlock)) => continue,
                Err(FrameError::Eof) => break,
                Err(other) => panic!("unexpected error: {other:?}"),
            }
        }
        assert_eq!(got, msgs, "no frame may be lost or corrupted by timeouts");
    }

    #[test]
    fn frame_reader_torn_tail_is_truncated_not_garbage() {
        let frame = encode_frame(&WireMsg::Settle {
            lease: 7,
            body: SettleBody::Ok(vec![0xAB; 512]),
        });
        let mut data = encode_frame(&WireMsg::Heartbeat { seq: 1 });
        data.extend_from_slice(&frame[..frame.len() / 2]);
        let mut stream = ChoppyStream { data, pos: 0, tick: 0 };
        let mut reader = FrameReader::new();
        let first = loop {
            match reader.read_frame(&mut stream) {
                Ok(msg) => break msg,
                Err(FrameError::Io(std::io::ErrorKind::WouldBlock)) => continue,
                Err(other) => panic!("unexpected error: {other:?}"),
            }
        };
        assert_eq!(first, WireMsg::Heartbeat { seq: 1 });
        let tail = loop {
            match reader.read_frame(&mut stream) {
                Err(FrameError::Io(std::io::ErrorKind::WouldBlock)) => continue,
                other => break other,
            }
        };
        match tail {
            Err(FrameError::Truncated { .. }) => {}
            other => panic!("expected Truncated for torn tail, got {other:?}"),
        }
    }

    #[test]
    fn torn_stream_surfaces_as_truncated_or_eof() {
        let frame = encode_frame(&WireMsg::Heartbeat { seq: 1 });
        for cut in 1..frame.len() {
            let mut cursor = std::io::Cursor::new(frame[..cut].to_vec());
            match FrameReader::new().read_frame(&mut cursor) {
                Err(FrameError::Truncated { .. }) | Err(FrameError::Eof) => {}
                other => panic!("cut {cut}: expected torn-frame error, got {other:?}"),
            }
        }
    }
}
