//! The TCP transport's wire format: one [`WireMsg`] per frame of
//! [`gozer_compress::frame`], the frame log records are written in too.
//! The payload is encoded with a small hand-rolled tag-length-value
//! scheme (message *bodies* stay opaque byte blobs — they are already
//! `gozer-serial` output on the workflow path and are passed through
//! untouched).
//!
//! Decoding is defensive by construction, because the peer is a
//! separate OS process that can die mid-write (`kill -9` leaves torn
//! frames) and the fuzz harness feeds the decoder arbitrary bytes:
//!
//! * the frame's length bound and CRC are checked by the frame module
//!   before the payload is parsed;
//! * every inner length/count is validated against the bytes actually
//!   present before any allocation;
//! * all failures are typed [`FrameError`]s — never a panic, never an
//!   oversized reservation.

use std::collections::BTreeMap;
use std::io::Read;

pub use gozer_compress::frame::MAX_FRAME_LEN;
use gozer_compress::frame::{self, Cursor};

/// Upper bound on counted collections inside a payload (headers,
/// registered services, instance ids). Far above anything the protocol
/// produces; exists so a bit-flipped count cannot demand a huge table.
pub const MAX_WIRE_COUNT: u32 = 4096;

// ---- errors -----------------------------------------------------------

/// Typed decode/IO failures of the wire layer: the frame module's one
/// error type. Every variant is a *connection-fatal* condition: the
/// reader cannot resynchronise inside a byte stream whose framing it no
/// longer trusts, so the connection is torn down and the broker-side
/// lease machinery takes over.
pub use gozer_compress::frame::Error as FrameError;

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
    put_u32(out, p.priority as u32);
    put_u64(out, p.hold_until);
}

fn put_msg(out: &mut Vec<u8>, msg: &WireMsg) {
    match msg {
        WireMsg::Hello { worker, node } => {
            out.push(1);
            put_str(out, worker);
            put_u32(out, *node);
        }
        WireMsg::HelloAck { heartbeat_ms } => {
            out.push(2);
            put_u64(out, *heartbeat_ms);
        }
        WireMsg::Register { service, instances } => {
            out.push(3);
            put_str(out, service);
            put_u32(out, *instances);
        }
        WireMsg::Registered { service, ids } => {
            out.push(4);
            put_str(out, service);
            put_u32(out, ids.len() as u32);
            for id in ids {
                put_u64(out, *id);
            }
        }
        WireMsg::Delivery {
            lease,
            redeliveries,
            payload,
        } => {
            out.push(5);
            put_u64(out, *lease);
            put_u32(out, *redeliveries);
            put_payload(out, payload);
        }
        WireMsg::Settle { lease, body } => {
            out.push(6);
            put_u64(out, *lease);
            match body {
                SettleBody::Ok(bytes) => {
                    out.push(0);
                    put_bytes(out, bytes);
                }
                SettleBody::Fault(code, message) => {
                    out.push(1);
                    put_str(out, code);
                    put_str(out, message);
                }
            }
        }
        WireMsg::Send { payload } => {
            out.push(7);
            put_payload(out, payload);
        }
        WireMsg::Heartbeat { seq } => {
            out.push(8);
            put_u64(out, *seq);
        }
        WireMsg::Bye => out.push(9),
    }
}

/// Encode `msg` as one frame, refusing a payload over `max`. An inner
/// length cast to `u32` can be cut short only inside a payload too
/// long for any bound, so no mis-framed message leaves here.
pub(crate) fn encode_frame_within(msg: &WireMsg, max: u32) -> Result<Vec<u8>, FrameError> {
    let mut out = Vec::with_capacity(64);
    frame::encode(&mut out, max, |out| put_msg(out, msg))?;
    Ok(out)
}

/// Encode `msg` as a complete frame: header plus payload. A message
/// over [`MAX_FRAME_LEN`] is encoded too, and every decoder refuses it;
/// the transport encodes with that bound and does not send it.
///
/// # Panics
///
/// If the payload is 4 GiB or more, which no `u32` length can frame.
pub fn encode_frame(msg: &WireMsg) -> Vec<u8> {
    encode_frame_within(msg, u32::MAX).expect("a wire payload fits a u32 length")
}

// ---- decoding ---------------------------------------------------------

/// A length/count that must have at least `min_elem` bytes per element
/// still present — the pre-allocation bound.
fn get_count(c: &mut Cursor, min_elem: usize) -> Result<u32, FrameError> {
    let n = c.u32()?;
    if n > MAX_WIRE_COUNT {
        return Err(FrameError::BadCount { count: n });
    }
    c.need((n as usize).saturating_mul(min_elem))?;
    Ok(n)
}

fn get_bytes(c: &mut Cursor) -> Result<Vec<u8>, FrameError> {
    let n = c.u32()? as usize;
    // `take` checks before the allocation: a hostile length can make
    // the decode fail, never make it reserve.
    Ok(c.take(n)?.to_vec())
}

fn get_str(c: &mut Cursor) -> Result<String, FrameError> {
    let n = c.u32()? as usize;
    c.utf8(n)
}

fn get_payload(c: &mut Cursor) -> Result<WirePayload, FrameError> {
    let service = get_str(c)?;
    let operation = get_str(c)?;
    let n = get_count(c, 8)?; // each header ≥ two 4-byte lengths
    let mut headers = BTreeMap::new();
    for _ in 0..n {
        let k = get_str(c)?;
        let v = get_str(c)?;
        headers.insert(k, v);
    }
    Ok(WirePayload {
        service,
        operation,
        headers,
        body: get_bytes(c)?,
        priority: c.u32()? as i32,
        hold_until: c.u64()?,
    })
}

/// Decode one frame *payload* into a [`WireMsg`]. The whole payload
/// must be consumed.
fn decode_msg(payload: &[u8]) -> Result<WireMsg, FrameError> {
    let c = &mut Cursor::new(payload);
    let msg = match c.u8()? {
        1 => WireMsg::Hello {
            worker: get_str(c)?,
            node: c.u32()?,
        },
        2 => WireMsg::HelloAck {
            heartbeat_ms: c.u64()?,
        },
        3 => WireMsg::Register {
            service: get_str(c)?,
            instances: c.u32()?,
        },
        4 => {
            let service = get_str(c)?;
            let n = get_count(c, 8)?;
            let mut ids = Vec::with_capacity(n as usize);
            for _ in 0..n {
                ids.push(c.u64()?);
            }
            WireMsg::Registered { service, ids }
        }
        5 => WireMsg::Delivery {
            lease: c.u64()?,
            redeliveries: c.u32()?,
            payload: get_payload(c)?,
        },
        6 => {
            let lease = c.u64()?;
            let body = match c.u8()? {
                0 => SettleBody::Ok(get_bytes(c)?),
                1 => SettleBody::Fault(get_str(c)?, get_str(c)?),
                other => return Err(FrameError::BadTag(other)),
            };
            WireMsg::Settle { lease, body }
        }
        7 => WireMsg::Send {
            payload: get_payload(c)?,
        },
        8 => WireMsg::Heartbeat { seq: c.u64()? },
        9 => WireMsg::Bye,
        other => return Err(FrameError::BadTag(other)),
    };
    c.end()?;
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
    let (payload, used) = frame::decode(buf, MAX_FRAME_LEN)?;
    Ok((decode_msg(payload)?, used))
}

// ---- blocking stream IO -----------------------------------------------

/// The incremental frame reader, the one way frames are read off a
/// stream: [`frame::FrameReader`] with the wire's bound and decoder.
/// Frames are written by encoding them with [`encode_frame`]. A read
/// timeout mid-frame keeps the partial frame, so the caller can treat
/// the timeout as benign and call [`FrameReader::read_frame`] again to
/// resume where it left off.
#[derive(Default)]
pub struct FrameReader {
    frames: frame::FrameReader,
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
        self.frames.read(stream, MAX_FRAME_LEN, decode_msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gozer_compress::crc32;

    /// A message's frame payload, without the header.
    fn encode_msg(msg: &WireMsg) -> Vec<u8> {
        let mut out = Vec::new();
        put_msg(&mut out, msg);
        out
    }

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
        let mut stream = ChoppyStream {
            data,
            pos: 0,
            tick: 0,
        };
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
        let mut stream = ChoppyStream {
            data,
            pos: 0,
            tick: 0,
        };
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
