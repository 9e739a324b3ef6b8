//! The value/state writer.

use std::collections::HashMap;
use std::sync::Arc;

use gozer_compress::crc32::Crc32;
use gozer_compress::Codec;
use gozer_lang::{Symbol, Value};
use gozer_vm::fiber::Frame;
use gozer_vm::runtime::{Closure, ContinuationVal, FutureVal, NativeFn};
use gozer_vm::{FiberState, ObjectVal};

use crate::{
    write_uvarint, zigzag, SerError, Tag, MAGIC, SMALL_INT_BASE, SMALL_INT_RANGE, VERSION,
};

/// Streaming writer with a sharing table keyed by object identity, a
/// content table for strings, and a symbol/keyword dictionary (format
/// v2: repeated `Symbol`/`Keyword` payloads — function names, map keys —
/// encode as one-varint back-references after their first occurrence).
pub struct ValueWriter {
    pub(crate) out: Vec<u8>,
    /// True when `out` starts with 4 reserved envelope-header bytes
    /// (filled by [`finish_enveloped`](ValueWriter::finish_enveloped)).
    header: bool,
    pub(crate) tables: Seeds,
    next_ref: u64,
    /// Dictionary coding on (off only for format A/B tests).
    dict: bool,
    /// Log every table registration in `tables.slots`/`tables.syms`, so
    /// it can be undone and a reader can mirror it. On once the tables
    /// are seeded: a snapshot no delta follows builds its tables once
    /// and drops them.
    journal: bool,
    /// Seeding mode: serializing a delta's clean frames purely to
    /// populate the tables. Mutable objects are rejected (their fields
    /// can change without any frame mutation, so a "clean" frame holding
    /// one is not actually clean).
    seeding: bool,
    /// Mutable objects written so far; a frame that wrote one gets no
    /// checkpoint, nor does any frame above it.
    objects: usize,
}

/// The writer's lookup tables. For a delta record they are first
/// *seeded* from the clean frames, with a checkpoint after every frame,
/// and then outlive the record in the state's
/// [`SeedCache`](gozer_vm::SeedCache): the tables for `frames[..k]` are a
/// pure function of those frames, which is exactly what "clean" promises,
/// so the next delta rolls back to the deepest checkpoint still clean and
/// seeds only the frames above it.
#[derive(Default)]
pub(crate) struct Seeds {
    /// Arc pointer address → back-reference index. Every key belongs to
    /// a value held in `slots` (when journaling), so no address can be
    /// reused while it is in the table.
    seen: HashMap<usize, u64>,
    /// String content → back-reference index. Distinct `Arc`s with equal
    /// content collapse to one record, which keeps the byte stream a
    /// function of the *state*, not of allocation history — the property
    /// that makes delta-reconstituted states re-serialize bit-identically.
    str_content: HashMap<Arc<str>, u64>,
    /// Symbol/keyword dictionary, indexed in first-occurrence order.
    sym_dict: HashMap<Symbol, u64>,
    /// Journal of sharing-table registrations in index order — also the
    /// reader's initial back-reference table.
    pub(crate) slots: Vec<Value>,
    /// Journal of dictionary registrations in index order.
    pub(crate) syms: Vec<Symbol>,
    /// `marks[k]`: journal lengths and running checksum once `frames[..k]`
    /// are seeded. Empty until the first seeding.
    marks: Vec<Mark>,
}

#[derive(Clone, Copy, Default)]
struct Mark {
    slots: usize,
    syms: usize,
    crc: Crc32,
}

impl Seeds {
    /// Number of leading frames the tables are seeded from.
    pub(crate) fn frames(&self) -> usize {
        self.marks.len().saturating_sub(1)
    }
}

/// Address of the allocation behind a shareable value.
fn identity(v: &Value) -> usize {
    match v {
        Value::Str(s) => Arc::as_ptr(s) as *const u8 as usize,
        Value::List(items) | Value::Vector(items) => Arc::as_ptr(items) as usize,
        Value::Map(m) => Arc::as_ptr(m) as usize,
        Value::Func(f) => Arc::as_ptr(f) as *const u8 as usize,
        Value::Opaque(o) => Arc::as_ptr(o) as *const u8 as usize,
        _ => unreachable!("only Arc-backed values enter the sharing table"),
    }
}

impl Default for ValueWriter {
    fn default() -> Self {
        ValueWriter::new()
    }
}

impl ValueWriter {
    /// Fresh writer.
    pub fn new() -> ValueWriter {
        ValueWriter::sized(256, false)
    }

    /// Fresh writer with a buffer capacity hint (typically the size of
    /// the previous snapshot of the same fiber) and 4 reserved bytes for
    /// the envelope header, enabling a zero-copy
    /// [`finish_enveloped`](ValueWriter::finish_enveloped).
    pub(crate) fn with_envelope(size_hint: usize) -> ValueWriter {
        ValueWriter::sized(size_hint, true)
    }

    /// A writer with the symbol/keyword dictionary disabled — every
    /// occurrence re-encodes its name. The reference encoding tests
    /// compare the dictionary against.
    #[doc(hidden)]
    pub fn without_dictionary() -> ValueWriter {
        let mut w = ValueWriter::new();
        w.dict = false;
        w
    }

    fn sized(size_hint: usize, header: bool) -> ValueWriter {
        let mut out = Vec::with_capacity(size_hint.max(64) + if header { 4 } else { 0 });
        if header {
            out.extend_from_slice(&[0u8; 4]);
        }
        ValueWriter {
            out,
            header,
            tables: Seeds::default(),
            next_ref: 0,
            dict: true,
            journal: false,
            seeding: false,
            objects: 0,
        }
    }

    /// Consume and return the bytes.
    pub fn finish(self) -> Vec<u8> {
        debug_assert!(!self.header, "enveloped writers finish via finish_enveloped");
        self.out
    }

    /// Wrap the payload in the transport envelope. With [`Codec::None`]
    /// the reserved header bytes are filled in place and the buffer is
    /// returned as-is — no copy, no second allocation.
    pub(crate) fn finish_enveloped(mut self, codec: Codec) -> Vec<u8> {
        debug_assert!(self.header, "writer was not constructed with_envelope");
        match codec {
            Codec::None => {
                self.out[0] = MAGIC[0];
                self.out[1] = MAGIC[1];
                self.out[2] = VERSION;
                self.out[3] = codec.tag();
                self.out
            }
            _ => {
                let body = codec.compress(&self.out[4..]);
                let mut out = Vec::with_capacity(body.len() + 4);
                out.extend_from_slice(&MAGIC);
                out.push(VERSION);
                out.push(codec.tag());
                out.extend_from_slice(&body);
                out
            }
        }
    }

    /// Bring the tables to "seeded from exactly `frames`" and return the
    /// CRC-32 of those frames' serialized bytes, plus how many frames the
    /// kept tables already covered. This is the delta seeding walk:
    /// writer and reader both run it over their copy of the clean prefix,
    /// and because it *is* the serializer the two sides assign identical
    /// indices to corresponding objects; the checksum lets the reader
    /// prove its base state matches the writer's.
    ///
    /// `valid` is how many leading frames the tables this writer was
    /// given may still describe (0 for fresh tables). Checkpoints above
    /// `min(valid, frames.len())` are rolled back, frames above the
    /// deepest one left are serialized into the tail of `out`, and each
    /// adds a checkpoint. The journal stays on afterwards, so
    /// [`unwind`](Self::unwind) can remove whatever is written next.
    ///
    /// A delta walks only to seed: the bytes are checksummed and cut off
    /// again, and a mutable object is an error, after which the tables
    /// stay seeded from the frames before the offending one. With `keep`
    /// the walk *is* a full snapshot's frame section — the same bytes the
    /// seeding walk would produce, since both start from empty tables —
    /// so they stay in `out`; a mutable object is written like anything
    /// else and the checkpoints stop below its frame.
    pub(crate) fn seed(
        &mut self,
        frames: &[Frame],
        valid: usize,
        keep: bool,
    ) -> Result<(u32, usize), SerError> {
        if self.tables.marks.is_empty() {
            self.tables.marks.push(Mark::default());
        }
        let reused = valid.min(frames.len()).min(self.tables.frames());
        self.unwind(reused);
        self.journal = true;
        self.seeding = !keep;
        let mut crc = self.tables.marks[reused].crc;
        let mut start = self.out.len();
        let objects = self.objects;
        let result = frames[reused..].iter().try_for_each(|f| {
            let written = self.write_frame(f);
            crc.update(&self.out[start..]);
            if keep {
                start = self.out.len();
            } else {
                self.out.truncate(start);
            }
            written?;
            if self.objects == objects {
                self.tables.marks.push(Mark {
                    slots: self.tables.slots.len(),
                    syms: self.tables.syms.len(),
                    crc,
                });
            }
            Ok(())
        });
        self.seeding = false;
        if result.is_err() {
            // Drop what the offending frame registered before it failed.
            self.unwind(self.tables.frames());
        }
        result.map(|()| (crc.finish(), reused))
    }

    /// Roll the tables back to the checkpoint after `frames` seeded
    /// frames, undoing every later registration.
    pub(crate) fn unwind(&mut self, frames: usize) {
        let t = &mut self.tables;
        t.marks.truncate(frames + 1);
        let mark = t.marks[frames];
        for v in t.slots.drain(mark.slots..) {
            t.seen.remove(&identity(&v));
            if let Value::Str(s) = &v {
                t.str_content.remove(s);
            }
        }
        for s in t.syms.drain(mark.syms..) {
            t.sym_dict.remove(&s);
        }
        self.next_ref = mark.slots as u64;
    }

    fn tag(&mut self, t: Tag) {
        self.out.push(t as u8);
    }

    pub(crate) fn uv(&mut self, v: u64) {
        write_uvarint(&mut self.out, v);
    }

    fn bytes(&mut self, b: &[u8]) {
        self.uv(b.len() as u64);
        self.out.extend_from_slice(b);
    }

    /// If `v`'s allocation was already written, emit a back-reference
    /// and return true. Otherwise register it (claiming the next index —
    /// indices are assigned in first-encounter order on both sides).
    fn share(&mut self, v: &Value) -> bool {
        let ptr = identity(v);
        if let Some(&idx) = self.tables.seen.get(&ptr) {
            self.backref(idx);
            return true;
        }
        self.register(ptr, v);
        false
    }

    fn backref(&mut self, idx: u64) {
        self.tag(Tag::BackRef);
        self.uv(idx);
    }

    fn register(&mut self, ptr: usize, v: &Value) -> u64 {
        let idx = self.next_ref;
        self.tables.seen.insert(ptr, idx);
        if self.journal {
            self.tables.slots.push(v.clone());
        }
        self.next_ref += 1;
        idx
    }

    fn write_sym(&mut self, s: Symbol, full: Tag, reference: Tag) {
        if self.dict {
            if let Some(&idx) = self.tables.sym_dict.get(&s) {
                self.tag(reference);
                self.uv(idx);
                return;
            }
            let idx = self.tables.sym_dict.len() as u64;
            self.tables.sym_dict.insert(s, idx);
            if self.journal {
                self.tables.syms.push(s);
            }
        }
        self.tag(full);
        self.bytes(s.name().as_bytes());
    }

    /// Write one value.
    pub fn write_value(&mut self, v: &Value) -> Result<(), SerError> {
        match v {
            Value::Nil => self.tag(Tag::Nil),
            Value::Bool(false) => self.tag(Tag::False),
            Value::Bool(true) => self.tag(Tag::True),
            Value::Int(i) => {
                if (0..SMALL_INT_RANGE as i64).contains(i) {
                    self.out.push(SMALL_INT_BASE + *i as u8);
                } else {
                    self.tag(Tag::Int);
                    self.uv(zigzag(*i));
                }
            }
            Value::Float(f) => {
                self.tag(Tag::Float);
                self.out.extend_from_slice(&f.to_le_bytes());
            }
            Value::Char(c) => {
                self.tag(Tag::Char);
                self.uv(*c as u64);
            }
            Value::Str(s) => {
                let ptr = identity(v);
                // Equal content under a different Arc reuses the first
                // copy's slot (strings are immutable, aliasing is safe).
                let known = self
                    .tables
                    .seen
                    .get(&ptr)
                    .or_else(|| self.tables.str_content.get(s));
                if let Some(&idx) = known {
                    self.backref(idx);
                    return Ok(());
                }
                let idx = self.register(ptr, v);
                self.tables.str_content.insert(s.clone(), idx);
                self.tag(Tag::Str);
                self.bytes(s.as_bytes());
            }
            Value::Symbol(s) => self.write_sym(*s, Tag::Symbol, Tag::SymRef),
            Value::Keyword(s) => self.write_sym(*s, Tag::Keyword, Tag::KwRef),
            Value::List(items) => {
                if self.share(v) {
                    return Ok(());
                }
                self.tag(Tag::List);
                self.uv(items.len() as u64);
                for item in items.iter() {
                    self.write_value(item)?;
                }
            }
            Value::Vector(items) => {
                if self.share(v) {
                    return Ok(());
                }
                self.tag(Tag::Vector);
                self.uv(items.len() as u64);
                for item in items.iter() {
                    self.write_value(item)?;
                }
            }
            Value::Map(m) => {
                if self.share(v) {
                    return Ok(());
                }
                self.tag(Tag::Map);
                self.uv(m.len() as u64);
                for (k, val) in m.iter() {
                    self.write_value(k)?;
                    self.write_value(val)?;
                }
            }
            Value::Func(f) => {
                if let Some(c) = f.as_any().downcast_ref::<Closure>() {
                    if self.share(v) {
                        return Ok(());
                    }
                    self.tag(Tag::Closure);
                    self.out.extend_from_slice(&c.program.id.to_le_bytes());
                    self.uv(c.chunk as u64);
                    self.uv(c.captures.len() as u64);
                    for cap in c.captures.iter() {
                        self.write_value(cap)?;
                    }
                } else if let Some(n) = f.as_any().downcast_ref::<NativeFn>() {
                    self.tag(Tag::Native);
                    self.bytes(n.name.as_bytes());
                } else {
                    return Err(SerError::new(format!(
                        "cannot serialize function {}",
                        f.callable_name()
                    )));
                }
            }
            Value::Opaque(o) => {
                if let Some(fut) = o.as_any().downcast_ref::<FutureVal>() {
                    // §4.1: "passing any future to a Java library or a
                    // BlueBox service will cause that future to be
                    // determined" — serialization is exactly that
                    // boundary, so block until determination. (For fiber
                    // continuations the GVM already determined every
                    // reachable future at capture, making this a no-op.)
                    match fut.wait() {
                        Ok(v) => return self.write_value(&v),
                        Err(e) => {
                            return Err(SerError::new(format!(
                                "cannot serialize failed future: {e}"
                            )))
                        }
                    }
                }
                if let Some(obj) = o.as_any().downcast_ref::<ObjectVal>() {
                    if self.seeding {
                        return Err(SerError::new(
                            "mutable object reachable from clean frames; \
                             delta snapshot is unsound",
                        ));
                    }
                    self.objects += 1;
                    if self.share(v) {
                        return Ok(());
                    }
                    self.tag(Tag::Object);
                    self.bytes(obj.class.as_bytes());
                    let fields = obj.snapshot();
                    self.uv(fields.len() as u64);
                    for (k, val) in fields.iter() {
                        self.write_value(k)?;
                        self.write_value(val)?;
                    }
                } else if let Some(k) = o.as_any().downcast_ref::<ContinuationVal>() {
                    self.tag(Tag::Continuation);
                    self.write_state(&k.state)?;
                } else {
                    return Err(SerError::new(format!(
                        "cannot serialize opaque value of type {}",
                        o.opaque_type()
                    )));
                }
            }
        }
        Ok(())
    }

    /// The non-frame portion of a fiber state: restart counter,
    /// extension map, handlers, restarts. Written whole in both full and
    /// delta snapshots (it is small and changes freely between saves).
    pub(crate) fn write_state_meta(&mut self, state: &FiberState) -> Result<(), SerError> {
        self.uv(state.next_restart_id);
        // Extension map.
        self.uv(state.ext.0.len() as u64);
        for (k, v) in &state.ext.0 {
            self.bytes(k.name().as_bytes());
            self.write_value(v)?;
        }
        // Handlers.
        self.uv(state.dyn_state.handlers.len() as u64);
        for h in &state.dyn_state.handlers {
            self.write_value(&h.func)?;
        }
        // Restarts.
        self.uv(state.dyn_state.restarts.len() as u64);
        for r in &state.dyn_state.restarts {
            if r.foreign {
                return Err(SerError::new(
                    "foreign restart entries cannot be persisted",
                ));
            }
            self.uv(r.id);
            self.bytes(r.name.name().as_bytes());
            self.uv(r.frame_depth as u64);
            self.uv(r.stack_depth as u64);
            self.uv(r.target_pc as u64);
            self.uv(r.handlers_len as u64);
            self.uv(r.restarts_len as u64);
        }
        Ok(())
    }

    /// Write frames in the standard layout (no count prefix).
    pub(crate) fn write_frames(&mut self, frames: &[Frame]) -> Result<(), SerError> {
        frames.iter().try_for_each(|f| self.write_frame(f))
    }

    fn write_frame(&mut self, f: &Frame) -> Result<(), SerError> {
        self.out.extend_from_slice(&f.program.id.to_le_bytes());
        self.uv(f.chunk as u64);
        self.uv(f.pc as u64);
        self.uv(f.locals.len() as u64);
        for v in &f.locals {
            self.write_value(v)?;
        }
        self.uv(f.stack.len() as u64);
        for v in &f.stack {
            self.write_value(v)?;
        }
        // Captures are shared with the closure object; the sharing
        // table keeps this from doubling the payload.
        if self.share(&Value::Vector(f.captures.clone())) {
            return Ok(());
        }
        self.tag(Tag::Vector);
        self.uv(f.captures.len() as u64);
        for v in f.captures.iter() {
            self.write_value(v)?;
        }
        Ok(())
    }

    /// Write a complete fiber state: frame count, frames, then the
    /// non-frame portion. Frames come first so that they meet the same
    /// (empty) tables a delta's seeding walk starts from.
    pub fn write_state(&mut self, state: &FiberState) -> Result<(), SerError> {
        self.uv(state.frames.len() as u64);
        self.write_frames(&state.frames)?;
        self.write_state_meta(state)
    }

    /// [`write_state`](Self::write_state), byte for byte, as the base of
    /// a delta chain: the tables come out seeded from the state's frames
    /// (see [`seed`](Self::seed)), ready to be kept for the first delta.
    pub(crate) fn write_state_seeding(&mut self, state: &FiberState) -> Result<(), SerError> {
        self.uv(state.frames.len() as u64);
        self.seed(&state.frames, 0, true)?;
        let written = self.write_state_meta(state);
        // What the meta registered belongs to no frame.
        self.unwind(self.tables.frames());
        written
    }
}
