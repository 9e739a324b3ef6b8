#![warn(missing_docs)]

//! # gozer-serial
//!
//! The custom binary serialization format for Gozer values and fiber
//! continuations (paper §4.2). The original system started from Java
//! serialization "with many customizations for efficiency and to broaden
//! what can be successfully serialized", then introduced "a custom
//! serialization format that stored the most commonly serialized objects
//! more efficiently". This crate is that custom format:
//!
//! * compact varint integers, tag-per-value encoding;
//! * **sharing preservation**: aggregates, strings, closures and mutable
//!   objects serialize once and back-reference after that (object
//!   identity — including self-referential mutable objects — survives a
//!   round trip);
//! * **code by reference**: a closure serializes as its program's content
//!   hash plus a chunk index; deserialization re-links against the
//!   destination node's program registry (which is why Vinz loads the
//!   same workflow source on every node);
//! * futures serialize as their determined value (the GVM guarantees
//!   determination before capture, §4.1);
//! * pluggable compression envelope ([`gozer_compress::Codec`]).
//!
//! Entry points: [`serialize_state`] / [`deserialize_state`] for whole
//! fiber continuations, [`serialize_value`] / [`deserialize_value`] for
//! single values.

mod reader;
mod writer;

use std::fmt;
use std::sync::Arc;

use gozer_compress::Codec;
use gozer_lang::Value;
use gozer_vm::{FiberState, Gvm};

pub use reader::ValueReader;
pub use writer::ValueWriter;

/// Format magic.
pub(crate) const MAGIC: [u8; 2] = [b'G', b'Z'];
/// Format version written by this crate, and the only one it reads. v2
/// brought the symbol/keyword dictionary ([`Tag::SymRef`]/[`Tag::KwRef`]),
/// string content deduplication, and delta snapshot records; v3 writes a
/// full state's frames before its non-frame portion, so that a full
/// snapshot's tables are a delta's seeding tables
/// ([`serialize_state_base`]).
pub(crate) const VERSION: u8 = 3;
/// First payload byte of a delta snapshot record — distinguishes a delta
/// from a full state, whose first byte is its frame count as a varint
/// (bit 7 clear below 128 frames; this byte would open a count of 213,
/// 341, …). A sanity check: the store key says which record is which.
pub(crate) const DELTA_MARKER: u8 = 0xD5;

/// Serialization/deserialization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SerError(pub String);

impl SerError {
    pub(crate) fn new(msg: impl Into<String>) -> SerError {
        SerError(msg.into())
    }
}

impl fmt::Display for SerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serialization error: {}", self.0)
    }
}

impl std::error::Error for SerError {}

/// Value tags. Kept stable: persisted fiber state outlives processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Tag {
    Nil = 0,
    False = 1,
    True = 2,
    Int = 3,
    Float = 4,
    Char = 5,
    Str = 6,
    Symbol = 7,
    Keyword = 8,
    List = 9,
    Vector = 10,
    Map = 11,
    Closure = 12,
    Native = 13,
    Object = 14,
    Continuation = 15,
    BackRef = 16,
    /// Back-reference into the symbol/keyword dictionary, read back as a
    /// `Symbol` (format v2).
    SymRef = 17,
    /// Back-reference into the symbol/keyword dictionary, read back as a
    /// `Keyword` (format v2).
    KwRef = 18,
    /// Small non-negative integer packed into the tag byte:
    /// `SMALL_INT_BASE + n` for `n` in `0..SMALL_INT_RANGE` — the "most
    /// commonly serialized objects, stored more efficiently".
    SmallIntBase = 128,
}

pub(crate) const SMALL_INT_BASE: u8 = Tag::SmallIntBase as u8;
pub(crate) const SMALL_INT_RANGE: u8 = 128;

impl Tag {
    pub(crate) fn from_u8(b: u8) -> Option<Tag> {
        Some(match b {
            0 => Tag::Nil,
            1 => Tag::False,
            2 => Tag::True,
            3 => Tag::Int,
            4 => Tag::Float,
            5 => Tag::Char,
            6 => Tag::Str,
            7 => Tag::Symbol,
            8 => Tag::Keyword,
            9 => Tag::List,
            10 => Tag::Vector,
            11 => Tag::Map,
            12 => Tag::Closure,
            13 => Tag::Native,
            14 => Tag::Object,
            15 => Tag::Continuation,
            16 => Tag::BackRef,
            17 => Tag::SymRef,
            18 => Tag::KwRef,
            _ => return None,
        })
    }
}

/// Serialize a single value.
pub fn serialize_value(v: &Value, codec: Codec) -> Result<Vec<u8>, SerError> {
    let mut w = ValueWriter::with_envelope(64);
    w.write_value(v)?;
    Ok(w.finish_enveloped(codec))
}

/// Deserialize a single value (natives and closures re-link through
/// `gvm`).
pub fn deserialize_value(bytes: &[u8], gvm: &Arc<Gvm>) -> Result<Value, SerError> {
    let payload = strip_envelope(bytes)?;
    let mut r = ValueReader::new(&payload, gvm);
    r.read_value()
}

/// Serialize a complete fiber continuation.
pub fn serialize_state(state: &FiberState, codec: Codec) -> Result<Vec<u8>, SerError> {
    serialize_state_sized(state, codec, 256)
}

/// [`serialize_state`] with an output-buffer capacity hint — typically
/// the size of the fiber's previous snapshot, so steady-state saves
/// never reallocate mid-write.
pub fn serialize_state_sized(
    state: &FiberState,
    codec: Codec,
    size_hint: usize,
) -> Result<Vec<u8>, SerError> {
    let mut w = ValueWriter::with_envelope(size_hint);
    w.write_state(state)?;
    Ok(w.finish_enveloped(codec))
}

/// [`serialize_state_sized`], byte for byte, for a snapshot that deltas
/// will be stacked on: the tables the write built anyway are left in
/// `state.seed`, checkpointed after every frame, so the first
/// [`serialize_state_delta`] after it finds them warm instead of
/// serializing the whole clean prefix a second time to rebuild them.
/// (Frames from the first one holding a mutable object up are not
/// covered, exactly as a seeding walk would have stopped there.)
pub fn serialize_state_base(
    state: &FiberState,
    codec: Codec,
    size_hint: usize,
) -> Result<Vec<u8>, SerError> {
    let mut w = ValueWriter::with_envelope(size_hint);
    w.write_state_seeding(state)?;
    keep_in_cache(&mut w, state);
    Ok(w.finish_enveloped(codec))
}

/// Deserialize a fiber continuation, re-linking code against `gvm`'s
/// program registry.
pub fn deserialize_state(bytes: &[u8], gvm: &Arc<Gvm>) -> Result<FiberState, SerError> {
    let payload = strip_envelope(bytes)?;
    let mut r = ValueReader::new(&payload, gvm);
    r.read_state()
}

/// How a delta call obtained its seeding tables: clean frames whose
/// tables were still in the state's [`SeedCache`](gozer_vm::SeedCache)
/// against clean frames it had to serialize to rebuild them. A warm
/// cache reuses nearly all; `reused == 0` on every call means the cache
/// never hits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeedUse {
    /// Clean frames covered by the kept tables.
    pub reused: u64,
    /// Clean frames walked by this call.
    pub walked: u64,
}

/// Serialize a **delta snapshot**: the fiber's state relative to its
/// previous snapshot, re-encoding only the frames above the clean prefix
/// (`state.frames[clean_frames..]`) plus the always-small dynamic state.
///
/// The writer's sharing and dictionary tables must first be *seeded* as
/// if the clean frames had just been written, so dirty frames can
/// back-reference values owned by clean frames; the record carries the
/// CRC of the clean frames' bytes. The reader runs the identical walk
/// over its copy of the base state — [`deserialize_state_delta`] — which
/// assigns the same indices, and the CRC proves the two bases match.
///
/// **Cost.** The seeded tables are kept in `state.seed`, checkpointed
/// after every frame. The first delta of a state that comes with none
/// (a load, a clone, a full snapshot not written by
/// [`serialize_state_base`]) walks the whole prefix; every other one
/// rolls back to the deepest checkpoint the VM has not invalidated and
/// walks only the frames that became clean since — O(dirty frames), not
/// O(continuation). The bytes cannot depend on which happened: the
/// tables for `frames[..k]` are a function of those frames alone, and
/// the cold walk is the warm one run on empty tables.
///
/// Returns `Ok(None)` when a delta is pointless or unsound: no clean
/// frames, or a mutable object reachable from the clean prefix (object
/// fields change without frame mutation). The caller then writes a full
/// snapshot.
pub fn serialize_state_delta(
    state: &FiberState,
    clean_frames: usize,
    codec: Codec,
    size_hint: usize,
) -> Result<Option<Vec<u8>>, SerError> {
    serialize_state_delta_costed(state, clean_frames, codec, size_hint).map(|(bytes, _)| bytes)
}

/// [`serialize_state_delta`] plus the [`SeedUse`] of the call.
pub fn serialize_state_delta_costed(
    state: &FiberState,
    clean_frames: usize,
    codec: Codec,
    size_hint: usize,
) -> Result<(Option<Vec<u8>>, SeedUse), SerError> {
    let prefix = clean_frames.min(state.frames.len());
    if prefix == 0 {
        return Ok((None, SeedUse::default()));
    }
    let mut w = ValueWriter::with_envelope(size_hint);
    w.out.push(DELTA_MARKER);
    write_uvarint(&mut w.out, prefix as u64);
    write_uvarint(&mut w.out, state.frames.len() as u64);
    let written = match seed_from_cache(&mut w, state, prefix) {
        Ok((crc, used)) => {
            w.out.extend_from_slice(&crc.to_le_bytes());
            let written = w
                .write_state_meta(state)
                .and_then(|()| w.write_frames(&state.frames[prefix..]));
            // Back to "seeded from the clean frames": what the dirty
            // frames registered is not clean.
            w.unwind(prefix);
            written.map(|()| Some(used))
        }
        // Unserializable or mutable data in the prefix: fall back to a
        // full snapshot (which will surface any genuine error itself).
        Err(_) => Ok(None),
    };
    keep_in_cache(&mut w, state);
    Ok(match written? {
        Some(used) => (Some(w.finish_enveloped(codec)), used),
        None => (None, SeedUse::default()),
    })
}

/// Leave `w`'s tables, and the frames they are seeded from, in
/// `state.seed` for the next delta.
fn keep_in_cache(w: &mut ValueWriter, state: &FiberState) {
    let tables = std::mem::take(&mut w.tables);
    state.seed.put(tables.frames(), Box::new(tables));
}

/// Seed `w` from `state.frames[..prefix]`, starting from whatever tables
/// `state.seed` still holds (taken out; [`keep_in_cache`] puts them back).
fn seed_from_cache(
    w: &mut ValueWriter,
    state: &FiberState,
    prefix: usize,
) -> Result<(u32, SeedUse), SerError> {
    let (valid, kept) = state.seed.take();
    if let Some(tables) = kept.and_then(|t| t.downcast().ok()) {
        w.tables = *tables;
    }
    let (crc, reused) = w.seed(&state.frames[..prefix], valid, false)?;
    let used = SeedUse {
        reused: reused as u64,
        walked: (prefix - reused) as u64,
    };
    Ok((crc, used))
}

/// Reconstitute a fiber state from a delta snapshot and the base state
/// it was encoded against (the previous snapshot in the chain, itself
/// either a full snapshot or the result of applying earlier deltas).
///
/// The result is bit-identical under re-serialization to the state the
/// writer held: the seeding walk assigns both sides the same table
/// indices, and string content deduplication makes the byte stream
/// independent of Arc-identity differences between the two sides.
///
/// The walk starts from the tables in `base.seed`, and the result leaves
/// with them: replaying a chain of `n` deltas seeds each frame once, not
/// once per delta, and the loaded state's first save finds a warm cache.
/// When the record is rejected the tables stay with `base`.
pub fn deserialize_state_delta(
    bytes: &[u8],
    gvm: &Arc<Gvm>,
    base: &FiberState,
) -> Result<FiberState, SerError> {
    deserialize_state_delta_costed(bytes, gvm, base).map(|(state, _)| state)
}

/// [`deserialize_state_delta`] plus the [`SeedUse`] of the call.
pub fn deserialize_state_delta_costed(
    bytes: &[u8],
    gvm: &Arc<Gvm>,
    base: &FiberState,
) -> Result<(FiberState, SeedUse), SerError> {
    let payload = strip_envelope(bytes)?;
    let data: &[u8] = &payload;
    if data.first() != Some(&DELTA_MARKER) {
        return Err(SerError::new("not a delta snapshot record"));
    }
    let mut pos = 1;
    let prefix = read_uvarint(data, &mut pos)? as usize;
    let total = read_uvarint(data, &mut pos)? as usize;
    if prefix > base.frames.len() || total < prefix {
        return Err(SerError::new(format!(
            "delta base mismatch: clean prefix {prefix} of {total} frames \
             against a base with {} frames",
            base.frames.len()
        )));
    }
    let crc_end = pos
        .checked_add(4)
        .filter(|&e| e <= data.len())
        .ok_or_else(|| SerError::new("truncated delta header"))?;
    let stored_crc = u32::from_le_bytes(data[pos..crc_end].try_into().expect("4 bytes"));
    let mut seeder = ValueWriter::new();
    let seeded = seed_from_cache(&mut seeder, base, prefix);
    let read = seeded.and_then(|(crc, used)| {
        if crc != stored_crc {
            return Err(SerError::new(format!(
                "delta base mismatch: seeded prefix checksum {crc:#010x}, \
                 record expects {stored_crc:#010x}"
            )));
        }
        let mut r = ValueReader::seeded(data, crc_end, gvm, &seeder.tables);
        let (next_restart_id, ext, dyn_state) = r.read_state_meta()?;
        // Cap the pre-allocation: `total` is attacker-controlled (a mutated
        // record can claim billions of frames) and each missing frame errors
        // out of the loop below after consuming at least one byte anyway.
        let mut frames = Vec::with_capacity(total.min(1 << 12));
        frames.extend_from_slice(&base.frames[..prefix]);
        for _ in prefix..total {
            frames.push(r.read_frame()?);
        }
        // The reconstituted state is exactly the persisted snapshot at this
        // chain position, so the whole stack is clean.
        let clean_prefix = frames.len();
        let state = FiberState {
            frames,
            dyn_state,
            next_restart_id,
            ext,
            clean_prefix,
            seed: Default::default(),
        };
        Ok((state, used))
    });
    // The tables describe `base.frames[..k]`, which the result shares.
    keep_in_cache(&mut seeder, read.as_ref().map_or(base, |(state, _)| state));
    read
}

/// Cost of one continuation (de)serialization, as measured by the
/// `*_costed` entry points: envelope bytes on the wire and wall nanos
/// spent encoding or decoding. `nanos` is clamped to at least 1 so a
/// recorded sample is always distinguishable from "never measured".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostSample {
    /// Envelope size in bytes.
    pub bytes: u64,
    /// Wall time of the operation, nanoseconds (≥ 1).
    pub nanos: u64,
}

/// [`serialize_state`] plus a [`CostSample`] for the profiler's
/// continuation-cost accounting.
pub fn serialize_state_costed(
    state: &FiberState,
    codec: Codec,
) -> Result<(Vec<u8>, CostSample), SerError> {
    let start = std::time::Instant::now();
    let bytes = serialize_state(state, codec)?;
    let sample = CostSample {
        bytes: bytes.len() as u64,
        nanos: (start.elapsed().as_nanos() as u64).max(1),
    };
    Ok((bytes, sample))
}

/// [`deserialize_state`] plus a [`CostSample`].
pub fn deserialize_state_costed(
    bytes: &[u8],
    gvm: &Arc<Gvm>,
) -> Result<(FiberState, CostSample), SerError> {
    let start = std::time::Instant::now();
    let state = deserialize_state(bytes, gvm)?;
    let sample = CostSample {
        bytes: bytes.len() as u64,
        nanos: (start.elapsed().as_nanos() as u64).max(1),
    };
    Ok((state, sample))
}

/// Validate the transport envelope and expose the payload. With
/// [`Codec::None`] this borrows straight out of `bytes` — the zero-copy
/// counterpart of the writer's in-place
/// [`finish_enveloped`](ValueWriter::finish_enveloped); other codecs
/// decompress into a fresh buffer.
fn strip_envelope(bytes: &[u8]) -> Result<std::borrow::Cow<'_, [u8]>, SerError> {
    if bytes.len() < 4 || bytes[0..2] != MAGIC {
        return Err(SerError::new("bad magic"));
    }
    if bytes[2] != VERSION {
        return Err(SerError::new(format!("unsupported version {}", bytes[2])));
    }
    let codec = Codec::from_tag(bytes[3])
        .ok_or_else(|| SerError::new(format!("unknown codec tag {}", bytes[3])))?;
    match codec {
        Codec::None => Ok(std::borrow::Cow::Borrowed(&bytes[4..])),
        _ => codec
            .decompress(&bytes[4..])
            .map(std::borrow::Cow::Owned)
            .map_err(SerError::new),
    }
}

// ---- varints -------------------------------------------------------------

pub(crate) fn write_uvarint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

pub(crate) fn read_uvarint(data: &[u8], pos: &mut usize) -> Result<u64, SerError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *data
            .get(*pos)
            .ok_or_else(|| SerError::new("truncated varint"))?;
        *pos += 1;
        if shift >= 64 {
            return Err(SerError::new("varint overflow"));
        }
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_uvarint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_uvarint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn envelope_rejects_garbage() {
        assert!(strip_envelope(&[]).is_err());
        assert!(strip_envelope(&[1, 2, 3, 4]).is_err());
        assert!(strip_envelope(&[b'G', b'Z', 9, 0]).is_err());
        assert!(strip_envelope(&[b'G', b'Z', 0, 0]).is_err());
        assert!(strip_envelope(&[b'G', b'Z', VERSION, 77]).is_err());
    }

    #[test]
    fn envelope_accepts_one_version_and_borrows_uncompressed() {
        for other in [VERSION - 1, VERSION + 1] {
            let err = strip_envelope(&[b'G', b'Z', other, 0, 42, 43]).unwrap_err();
            assert!(err.0.contains("unsupported version"), "{err}");
        }
        // Codec::None borrows the payload without copying.
        let v2 = [b'G', b'Z', VERSION, 0, 9, 9, 9];
        match strip_envelope(&v2).unwrap() {
            std::borrow::Cow::Borrowed(p) => assert_eq!(p, &[9, 9, 9]),
            std::borrow::Cow::Owned(_) => panic!("Codec::None must not copy"),
        }
    }
}
