//! The Java-interop method protocol: `(. receiver (method args...))`.
//!
//! BlueBox messages and other mutable platform objects are [`ObjectVal`]s
//! — class-tagged field bags with interior mutability, mirroring the Java
//! objects the original system manipulates (Listing 2's
//! `(. msg (set "FilterParams" FilterParams))`). Strings, maps and
//! sequences answer a read-only subset of the familiar `java.lang`
//! methods.

use std::any::Any;
use std::fmt;
use std::sync::Arc;

use gozer_lang::printer::display_to_string;
use gozer_lang::{AssocMap, Opaque, Value};
use parking_lot::Mutex;

use crate::error::{VmError, VmResult};
use crate::gvm::Gvm;
use crate::runtime::NativeOutcome;

use super::{arity, reg, str_arg};

/// A mutable, class-tagged field bag — the stand-in for a Java object.
/// Mutation is visible through shared references *within one fiber*;
/// serialization snapshots the fields (cross-fiber sharing never happens
/// because fibers are cloned, §3.4).
pub struct ObjectVal {
    /// Class tag, e.g. `"message"`.
    pub class: String,
    /// Named fields.
    pub fields: Mutex<AssocMap>,
}

impl ObjectVal {
    /// Create an object value.
    pub fn new(class: &str, fields: AssocMap) -> Value {
        Value::Opaque(Arc::new(ObjectVal {
            class: class.to_string(),
            fields: Mutex::new(fields),
        }))
    }

    /// Read a field by string name.
    pub fn get_field(&self, name: &str) -> Option<Value> {
        self.fields.lock().get(&Value::str(name)).cloned()
    }

    /// Snapshot the fields.
    pub fn snapshot(&self) -> AssocMap {
        self.fields.lock().clone()
    }
}

impl fmt::Debug for ObjectVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Object({}, {} fields)", self.class, self.fields.lock().len())
    }
}

impl Opaque for ObjectVal {
    fn opaque_type(&self) -> &'static str {
        "object"
    }
    fn opaque_print(&self) -> String {
        format!("object {}", self.class)
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

pub(super) fn install(gvm: &Arc<Gvm>) {
    reg(gvm, "%method", |_, args| {
        arity("%method", &args, 2, None)?;
        let receiver = &args[0];
        let method = str_arg("%method", &args, 1)?;
        let margs = &args[2..];
        dispatch(receiver, method, margs).map(NativeOutcome::Value)
    });
    reg(gvm, "create-object", |_, args| {
        arity("create-object", &args, 1, None)?;
        let class = str_arg("create-object", &args, 0)?;
        let rest = &args[1..];
        if rest.len() % 2 != 0 {
            return Err(VmError::msg("create-object: odd number of field forms"));
        }
        let mut fields = AssocMap::new();
        let mut i = 0;
        while i < rest.len() {
            fields.insert(rest[i].clone(), rest[i + 1].clone());
            i += 2;
        }
        NativeOutcome::ok(ObjectVal::new(class, fields))
    });
    reg(gvm, "object-class", |_, args| {
        arity("object-class", &args, 1, Some(1))?;
        match args[0].as_opaque::<ObjectVal>() {
            Some(o) => NativeOutcome::ok(Value::str(&o.class)),
            None => Err(VmError::type_error("object", &args[0])),
        }
    });
    reg(gvm, "object-fields", |_, args| {
        arity("object-fields", &args, 1, Some(1))?;
        match args[0].as_opaque::<ObjectVal>() {
            Some(o) => NativeOutcome::ok(Value::Map(Arc::new(o.snapshot()))),
            None => Err(VmError::type_error("object", &args[0])),
        }
    });
}

fn expect_args(method: &str, margs: &[Value], n: usize) -> VmResult<()> {
    if margs.len() != n {
        return Err(VmError::msg(format!(
            "method {method}: expected {n} argument(s), got {}",
            margs.len()
        )));
    }
    Ok(())
}

fn dispatch(receiver: &Value, method: &str, margs: &[Value]) -> VmResult<Value> {
    // Universal methods.
    if method == "toString" {
        expect_args(method, margs, 0)?;
        return Ok(Value::from(display_to_string(receiver)));
    }
    if let Some(obj) = receiver.as_opaque::<ObjectVal>() {
        return object_method(obj, method, margs);
    }
    match receiver {
        Value::Str(s) => string_method(s, method, margs),
        Value::Map(m) => map_method(m, method, margs),
        Value::Nil => seq_method(&[], method, margs),
        Value::List(items) | Value::Vector(items) => seq_method(items, method, margs),
        other => Err(VmError::msg(format!(
            "no method {method} on {}",
            other.type_name()
        ))),
    }
}

fn object_method(obj: &ObjectVal, method: &str, margs: &[Value]) -> VmResult<Value> {
    match method {
        "get" => {
            expect_args(method, margs, 1)?;
            Ok(obj
                .fields
                .lock()
                .get(&margs[0])
                .cloned()
                .unwrap_or(Value::Nil))
        }
        "set" | "put" => {
            expect_args(method, margs, 2)?;
            obj.fields.lock().insert(margs[0].clone(), margs[1].clone());
            Ok(Value::Nil)
        }
        "has" | "containsKey" => {
            expect_args(method, margs, 1)?;
            Ok(Value::Bool(obj.fields.lock().get(&margs[0]).is_some()))
        }
        "remove" => {
            expect_args(method, margs, 1)?;
            Ok(obj.fields.lock().remove(&margs[0]).unwrap_or(Value::Nil))
        }
        "keys" | "keySet" => {
            expect_args(method, margs, 0)?;
            Ok(Value::list(
                obj.fields.lock().iter().map(|(k, _)| k.clone()).collect(),
            ))
        }
        "size" => {
            expect_args(method, margs, 0)?;
            Ok(Value::Int(obj.fields.lock().len() as i64))
        }
        "className" => {
            expect_args(method, margs, 0)?;
            Ok(Value::str(&obj.class))
        }
        _ => Err(VmError::msg(format!(
            "no method {method} on object {}",
            obj.class
        ))),
    }
}

fn string_method(s: &str, method: &str, margs: &[Value]) -> VmResult<Value> {
    let str_marg = |i: usize| -> VmResult<&str> {
        margs[i]
            .as_str()
            .ok_or_else(|| VmError::type_error("string", &margs[i]))
    };
    match method {
        "endsWith" => {
            expect_args(method, margs, 1)?;
            Ok(Value::Bool(s.ends_with(str_marg(0)?)))
        }
        "startsWith" => {
            expect_args(method, margs, 1)?;
            Ok(Value::Bool(s.starts_with(str_marg(0)?)))
        }
        "contains" => {
            expect_args(method, margs, 1)?;
            Ok(Value::Bool(s.contains(str_marg(0)?)))
        }
        "length" => {
            expect_args(method, margs, 0)?;
            Ok(Value::Int(s.chars().count() as i64))
        }
        "isEmpty" => {
            expect_args(method, margs, 0)?;
            Ok(Value::Bool(s.is_empty()))
        }
        "toUpperCase" => {
            expect_args(method, margs, 0)?;
            Ok(Value::from(s.to_uppercase()))
        }
        "toLowerCase" => {
            expect_args(method, margs, 0)?;
            Ok(Value::from(s.to_lowercase()))
        }
        "trim" => {
            expect_args(method, margs, 0)?;
            Ok(Value::from(s.trim()))
        }
        "substring" => {
            let a = margs
                .first()
                .and_then(Value::as_int)
                .ok_or_else(|| VmError::msg("substring: integer start required"))? as usize;
            let chars: Vec<char> = s.chars().collect();
            let b = match margs.get(1) {
                Some(v) => v
                    .as_int()
                    .ok_or_else(|| VmError::type_error("integer", v))? as usize,
                None => chars.len(),
            };
            if a > b || b > chars.len() {
                return Err(VmError::msg(format!(
                    "substring: bounds {a}..{b} out of range"
                )));
            }
            Ok(Value::from(chars[a..b].iter().collect::<String>()))
        }
        "indexOf" => {
            expect_args(method, margs, 1)?;
            let needle = str_marg(0)?;
            Ok(match s.find(needle) {
                Some(byte_idx) => Value::Int(s[..byte_idx].chars().count() as i64),
                None => Value::Int(-1),
            })
        }
        "split" => {
            expect_args(method, margs, 1)?;
            let sep = str_marg(0)?;
            Ok(Value::list(s.split(sep).map(Value::from).collect()))
        }
        "replace" => {
            expect_args(method, margs, 2)?;
            Ok(Value::from(s.replace(str_marg(0)?, str_marg(1)?)))
        }
        "charAt" => {
            expect_args(method, margs, 1)?;
            let i = margs[0]
                .as_int()
                .ok_or_else(|| VmError::type_error("integer", &margs[0]))?;
            usize::try_from(i)
                .ok()
                .and_then(|i| s.chars().nth(i))
                .map(Value::Char)
                .ok_or_else(|| VmError::msg(format!("charAt: index {i} out of bounds")))
        }
        _ => Err(VmError::msg(format!("no method {method} on string"))),
    }
}

fn map_method(m: &AssocMap, method: &str, margs: &[Value]) -> VmResult<Value> {
    match method {
        "get" => {
            expect_args(method, margs, 1)?;
            Ok(m.get(&margs[0]).cloned().unwrap_or(Value::Nil))
        }
        "containsKey" => {
            expect_args(method, margs, 1)?;
            Ok(Value::Bool(m.get(&margs[0]).is_some()))
        }
        "keySet" => {
            expect_args(method, margs, 0)?;
            Ok(Value::list(m.iter().map(|(k, _)| k.clone()).collect()))
        }
        "size" => {
            expect_args(method, margs, 0)?;
            Ok(Value::Int(m.len() as i64))
        }
        "isEmpty" => {
            expect_args(method, margs, 0)?;
            Ok(Value::Bool(m.is_empty()))
        }
        _ => Err(VmError::msg(format!("no method {method} on map"))),
    }
}

fn seq_method(items: &[Value], method: &str, margs: &[Value]) -> VmResult<Value> {
    match method {
        "get" => {
            expect_args(method, margs, 1)?;
            let i = margs[0]
                .as_int()
                .ok_or_else(|| VmError::type_error("integer", &margs[0]))?;
            usize::try_from(i)
                .ok()
                .and_then(|i| items.get(i).cloned())
                .ok_or_else(|| VmError::msg(format!("get: index {i} out of bounds")))
        }
        "size" => {
            expect_args(method, margs, 0)?;
            Ok(Value::Int(items.len() as i64))
        }
        "contains" => {
            expect_args(method, margs, 1)?;
            Ok(Value::Bool(items.contains(&margs[0])))
        }
        "indexOf" => {
            expect_args(method, margs, 1)?;
            Ok(Value::Int(
                items
                    .iter()
                    .position(|v| v == &margs[0])
                    .map(|i| i as i64)
                    .unwrap_or(-1),
            ))
        }
        "isEmpty" => {
            expect_args(method, margs, 0)?;
            Ok(Value::Bool(items.is_empty()))
        }
        _ => Err(VmError::msg(format!("no method {method} on sequence"))),
    }
}
