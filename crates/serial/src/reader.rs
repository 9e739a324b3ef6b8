//! The value/state reader.

use std::sync::Arc;

use gozer_lang::{AssocMap, Symbol, Value};
use gozer_vm::fiber::{DynState, FiberExt, Frame, HandlerEntry, RestartEntry};
use gozer_vm::runtime::{Closure, ContinuationVal, NativeFn};
use gozer_vm::{FiberState, Gvm, ObjectVal};

use crate::{read_uvarint, unzigzag, SerError, Tag, SMALL_INT_BASE};

/// Maximum value nesting the deserializer accepts (stack-exhaustion
/// guard against corrupt or hostile payloads).
pub const MAX_DEPTH: u32 = 200;

/// Streaming reader; re-links code and natives against a [`Gvm`].
pub struct ValueReader<'a> {
    data: &'a [u8],
    pos: usize,
    depth: u32,
    gvm: &'a Arc<Gvm>,
    /// Back-reference table, indexed in first-encounter order. `None`
    /// marks an aggregate still under construction (only mutable objects
    /// may be referenced before completion, and those register complete
    /// shells upfront).
    shared: Vec<Option<Value>>,
    /// Symbol/keyword dictionary (format v2), in first-occurrence order.
    sym_dict: Vec<Symbol>,
    /// Entries both tables start from when reading a delta record: what
    /// seeding the base's clean frames registered. Borrowed, so applying
    /// a delta costs nothing per seeded entry; indices continue in
    /// `shared` / `sym_dict`.
    seeded: &'a [Value],
    seeded_syms: &'a [Symbol],
}

impl<'a> ValueReader<'a> {
    /// Reader over `data`.
    pub fn new(data: &'a [u8], gvm: &'a Arc<Gvm>) -> ValueReader<'a> {
        ValueReader {
            data,
            pos: 0,
            depth: 0,
            gvm,
            shared: Vec::new(),
            sym_dict: Vec::new(),
            seeded: &[],
            seeded_syms: &[],
        }
    }

    /// Reader over a delta record's body at `pos`, its tables starting
    /// from the seeding journals of the base's clean frames.
    pub(crate) fn seeded(
        data: &'a [u8],
        pos: usize,
        gvm: &'a Arc<Gvm>,
        seeds: &'a crate::writer::Seeds,
    ) -> ValueReader<'a> {
        ValueReader {
            pos,
            seeded: &seeds.slots,
            seeded_syms: &seeds.syms,
            ..ValueReader::new(data, gvm)
        }
    }

    fn uv(&mut self) -> Result<u64, SerError> {
        read_uvarint(self.data, &mut self.pos)
    }

    fn byte(&mut self) -> Result<u8, SerError> {
        let b = *self
            .data
            .get(self.pos)
            .ok_or_else(|| SerError::new("truncated input"))?;
        self.pos += 1;
        Ok(b)
    }

    fn raw(&mut self, n: usize) -> Result<&'a [u8], SerError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.data.len())
            .ok_or_else(|| SerError::new("truncated input"))?;
        let s = &self.data[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn string(&mut self) -> Result<String, SerError> {
        let n = self.uv()? as usize;
        let bytes = self.raw(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SerError::new("invalid utf-8"))
    }

    fn dict_sym(&mut self) -> Result<Symbol, SerError> {
        let idx = self.uv()? as usize;
        let n = self.seeded_syms.len();
        self.seeded_syms
            .get(idx)
            .or_else(|| self.sym_dict.get(idx - n))
            .copied()
            .ok_or_else(|| SerError::new(format!("bad symbol dictionary reference {idx}")))
    }

    fn reserve_slot(&mut self) -> usize {
        self.shared.push(None);
        self.shared.len() - 1
    }

    fn fill_slot(&mut self, idx: usize, v: Value) -> Value {
        self.shared[idx] = Some(v.clone());
        v
    }

    /// Read one value.
    pub fn read_value(&mut self) -> Result<Value, SerError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(SerError::new(format!(
                "value nesting deeper than {MAX_DEPTH} (corrupt payload?)"
            )));
        }
        let result = self.read_value_inner();
        self.depth -= 1;
        result
    }

    fn read_value_inner(&mut self) -> Result<Value, SerError> {
        let tag_byte = self.byte()?;
        if tag_byte >= SMALL_INT_BASE {
            return Ok(Value::Int((tag_byte - SMALL_INT_BASE) as i64));
        }
        let tag = Tag::from_u8(tag_byte)
            .ok_or_else(|| SerError::new(format!("unknown tag {tag_byte}")))?;
        match tag {
            Tag::Nil => Ok(Value::Nil),
            Tag::False => Ok(Value::Bool(false)),
            Tag::True => Ok(Value::Bool(true)),
            Tag::Int => Ok(Value::Int(unzigzag(self.uv()?))),
            Tag::Float => {
                let bytes = self.raw(8)?;
                Ok(Value::Float(f64::from_le_bytes(
                    bytes.try_into().expect("8 bytes"),
                )))
            }
            Tag::Char => {
                let c = self.uv()? as u32;
                char::from_u32(c)
                    .map(Value::Char)
                    .ok_or_else(|| SerError::new(format!("invalid char {c}")))
            }
            Tag::Str => {
                let idx = self.reserve_slot();
                let s = Value::from(self.string()?);
                Ok(self.fill_slot(idx, s))
            }
            Tag::Symbol => {
                let s = Symbol::intern(&self.string()?);
                self.sym_dict.push(s);
                Ok(Value::Symbol(s))
            }
            Tag::Keyword => {
                let s = Symbol::intern(&self.string()?);
                self.sym_dict.push(s);
                Ok(Value::Keyword(s))
            }
            Tag::SymRef => Ok(Value::Symbol(self.dict_sym()?)),
            Tag::KwRef => Ok(Value::Keyword(self.dict_sym()?)),
            Tag::List | Tag::Vector => {
                let idx = self.reserve_slot();
                let n = self.uv()? as usize;
                let mut items = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    items.push(self.read_value()?);
                }
                // Note: an empty persisted list deserializes to Nil, which
                // matches the writer (Nil never takes this path).
                let v = if tag == Tag::List {
                    Value::List(Arc::new(items))
                } else {
                    Value::Vector(Arc::new(items))
                };
                Ok(self.fill_slot(idx, v))
            }
            Tag::Map => {
                let idx = self.reserve_slot();
                let n = self.uv()? as usize;
                let mut m = AssocMap::new();
                for _ in 0..n {
                    let k = self.read_value()?;
                    let v = self.read_value()?;
                    m.insert(k, v);
                }
                Ok(self.fill_slot(idx, Value::Map(Arc::new(m))))
            }
            Tag::Closure => {
                let idx = self.reserve_slot();
                let pid = u64::from_le_bytes(self.raw(8)?.try_into().expect("8 bytes"));
                let chunk = self.uv()? as u32;
                let ncaps = self.uv()? as usize;
                let mut caps = Vec::with_capacity(ncaps.min(1 << 12));
                for _ in 0..ncaps {
                    caps.push(self.read_value()?);
                }
                let program = self.gvm.get_program(pid).ok_or_else(|| {
                    SerError::new(format!(
                        "program {pid:#018x} is not loaded on this node; load the \
                         workflow source before resuming its fibers"
                    ))
                })?;
                if chunk as usize >= program.chunks.len() {
                    return Err(SerError::new(format!(
                        "chunk {chunk} out of range for program {pid:#018x}"
                    )));
                }
                let v = Value::Func(Arc::new(Closure {
                    program,
                    chunk,
                    captures: Arc::new(caps),
                }));
                Ok(self.fill_slot(idx, v))
            }
            Tag::Native => {
                let name = self.string()?;
                let v = self
                    .gvm
                    .get_global(Symbol::intern(&name))
                    .ok_or_else(|| SerError::new(format!("native {name} not registered")))?;
                if v.as_callable::<NativeFn>().is_none() {
                    return Err(SerError::new(format!(
                        "global {name} is no longer a native function"
                    )));
                }
                Ok(v)
            }
            Tag::Object => {
                // Register the shell before the fields so self-references
                // resolve (mutable objects may be cyclic).
                let idx = self.reserve_slot();
                let class = self.string()?;
                let shell = ObjectVal::new_value(&class, AssocMap::new());
                self.fill_slot(idx, shell.clone());
                let n = self.uv()? as usize;
                let obj = shell
                    .as_opaque::<ObjectVal>()
                    .expect("just constructed object");
                for _ in 0..n {
                    let k = self.read_value()?;
                    let v = self.read_value()?;
                    obj.fields.lock().insert(k, v);
                }
                Ok(shell)
            }
            Tag::Continuation => {
                let state = self.read_state()?;
                Ok(Value::Opaque(Arc::new(ContinuationVal { state })))
            }
            Tag::BackRef => {
                let idx = self.uv()? as usize;
                let n = self.seeded.len();
                match self.seeded.get(idx) {
                    Some(v) => Some(v.clone()),
                    None => self.shared.get(idx - n).cloned().flatten(),
                }
                .ok_or_else(|| SerError::new(format!("bad back-reference {idx}")))
            }
            Tag::SmallIntBase => unreachable!("handled before tag decode"),
        }
    }

    /// The non-frame portion of a fiber state (mirrors
    /// `ValueWriter::write_state_meta`).
    pub(crate) fn read_state_meta(&mut self) -> Result<(u64, FiberExt, DynState), SerError> {
        let next_restart_id = self.uv()?;
        let mut ext = FiberExt::default();
        let n_ext = self.uv()? as usize;
        for _ in 0..n_ext {
            let key = self.string()?;
            let v = self.read_value()?;
            ext.set(&key, v);
        }
        let mut dyn_state = DynState::default();
        let n_handlers = self.uv()? as usize;
        for _ in 0..n_handlers {
            dyn_state.handlers.push(HandlerEntry {
                func: self.read_value()?,
            });
        }
        let n_restarts = self.uv()? as usize;
        for _ in 0..n_restarts {
            let id = self.uv()?;
            let name = Symbol::intern(&self.string()?);
            dyn_state.restarts.push(RestartEntry {
                id,
                name,
                frame_depth: self.uv()? as u32,
                stack_depth: self.uv()? as u32,
                target_pc: self.uv()? as u32,
                handlers_len: self.uv()? as u32,
                restarts_len: self.uv()? as u32,
                foreign: false,
            });
        }
        Ok((next_restart_id, ext, dyn_state))
    }

    /// Read one frame in the standard layout.
    pub(crate) fn read_frame(&mut self) -> Result<Frame, SerError> {
        let pid = u64::from_le_bytes(self.raw(8)?.try_into().expect("8 bytes"));
        let chunk = self.uv()? as u32;
        let pc = self.uv()? as u32;
        let n_locals = self.uv()? as usize;
        let mut locals = Vec::with_capacity(n_locals.min(1 << 16));
        for _ in 0..n_locals {
            locals.push(self.read_value()?);
        }
        let n_stack = self.uv()? as usize;
        let mut stack = Vec::with_capacity(n_stack.min(1 << 16));
        for _ in 0..n_stack {
            stack.push(self.read_value()?);
        }
        let captures = match self.read_value()? {
            Value::Vector(items) => items,
            Value::Nil => Arc::new(Vec::new()),
            other => {
                return Err(SerError::new(format!(
                    "expected capture vector, got {}",
                    other.type_name()
                )))
            }
        };
        let program = self.gvm.get_program(pid).ok_or_else(|| {
            SerError::new(format!(
                "program {pid:#018x} is not loaded on this node; load the \
                 workflow source before resuming its fibers"
            ))
        })?;
        if chunk as usize >= program.chunks.len() || pc as usize > program.chunk(chunk).code.len() {
            return Err(SerError::new("frame position out of range"));
        }
        Ok(Frame {
            program,
            chunk,
            pc,
            locals,
            stack,
            captures,
        })
    }

    /// Read a complete fiber state.
    pub fn read_state(&mut self) -> Result<FiberState, SerError> {
        let n_frames = self.uv()? as usize;
        let mut frames = Vec::with_capacity(n_frames.min(1 << 12));
        for _ in 0..n_frames {
            frames.push(self.read_frame()?);
        }
        let (next_restart_id, ext, dyn_state) = self.read_state_meta()?;
        // A freshly deserialized state *is* its snapshot, so every frame
        // is clean until the interpreter touches it.
        let clean_prefix = frames.len();
        Ok(FiberState {
            frames,
            dyn_state,
            next_restart_id,
            ext,
            clean_prefix,
            seed: Default::default(),
        })
    }
}
