//! Condition objects.
//!
//! Gozer implements the Common Lisp condition system (paper §3.7): a
//! condition is a structured value describing an exceptional situation,
//! signaled to *handlers* that run **without unwinding the stack** and may
//! transfer control by invoking a *restart*.
//!
//! A condition is represented as a map value with well-known keys, which
//! keeps conditions serializable and lets distributed error payloads (XML
//! QNames from service faults, §3.7) flow through the same machinery as
//! local Lisp errors:
//!
//! * `:types` — list of type-designator strings, most specific first.
//!   Java-style class names (`"java.net.SocketException"`) and XML QNames
//!   (`"{urn:service}Connect"`) are both just designators.
//! * `:message` — human-readable description.
//! * `:data` — optional structured payload.

use std::sync::Arc;

use gozer_lang::{AssocMap, Value};

/// A signaled condition. Wraps the underlying map value.
#[derive(Debug, Clone, PartialEq)]
pub struct Condition(pub Value);

impl Condition {
    /// Build a condition with a single type designator and a message.
    pub fn new(designator: &str, message: impl Into<String>) -> Condition {
        Condition::with_types(vec![designator.to_string()], message, Value::Nil)
    }

    /// Build a condition with a full designator list (most specific first)
    /// and a payload.
    pub fn with_types(
        mut types: Vec<String>,
        message: impl Into<String>,
        data: Value,
    ) -> Condition {
        // Every condition is at least a `condition`; errors additionally
        // carry the `error` designator so `defhandler :java
        // ("java.lang.Throwable")`-style catch-alls can be emulated with
        // the root designators.
        if !types.iter().any(|t| t == "condition") {
            types.push("condition".to_string());
        }
        let mut m = AssocMap::new();
        m.insert(
            Value::keyword("types"),
            Value::list(types.into_iter().map(Value::from).collect()),
        );
        m.insert(Value::keyword("message"), Value::from(message.into()));
        if !data.is_nil() {
            m.insert(Value::keyword("data"), data);
        }
        Condition(Value::Map(Arc::new(m)))
    }

    /// A generic `error` condition (designators `error`, `condition`).
    pub fn error(message: impl Into<String>) -> Condition {
        Condition::with_types(vec!["error".to_string()], message, Value::Nil)
    }

    /// A type error with context.
    pub fn type_error(expected: &str, got: &Value) -> Condition {
        Condition::with_types(
            vec!["type-error".to_string(), "error".to_string()],
            format!("expected {expected}, got {}: {:?}", got.type_name(), got),
            Value::Nil,
        )
    }

    /// A fiber outgrew a stack bound ([`crate::limits`]).
    pub fn stack_exhausted(message: impl Into<String>) -> Condition {
        Condition::with_types(
            vec!["stack-exhausted".to_string(), "error".to_string()],
            message,
            Value::Nil,
        )
    }

    /// Wrap an arbitrary value signaled from Gozer code. Maps pass through
    /// unchanged; any other value becomes the `:data` of a generic error.
    pub fn from_value(v: Value) -> Condition {
        match &v {
            Value::Map(m) if m.get(&Value::keyword("types")).is_some() => Condition(v),
            Value::Str(s) => Condition::error(s.to_string()),
            _ => Condition::with_types(vec!["error".to_string()], format!("{v:?}"), v.clone()),
        }
    }

    /// The message, or an empty string.
    pub fn message(&self) -> String {
        self.field("message")
            .and_then(|v| v.as_str().map(str::to_owned))
            .unwrap_or_default()
    }

    /// The designator list.
    pub fn types(&self) -> Vec<String> {
        self.field("types")
            .and_then(|v| {
                v.as_list().map(|items| {
                    items
                        .iter()
                        .filter_map(|t| t.as_str().map(str::to_owned))
                        .collect()
                })
            })
            .unwrap_or_default()
    }

    /// Does this condition match `designator` (exact designator match)?
    pub fn matches(&self, designator: &str) -> bool {
        self.types().iter().any(|t| t == designator)
    }

    /// Fetch a field of the underlying map by keyword name.
    pub fn field(&self, key: &str) -> Option<Value> {
        self.0.as_map()?.get(&Value::keyword(key)).cloned()
    }

    /// The underlying value (for passing to handler functions).
    pub fn value(&self) -> &Value {
        &self.0
    }
}

impl std::fmt::Display for Condition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let types = self.types();
        let ty = types.first().map(String::as_str).unwrap_or("condition");
        write!(f, "{}: {}", ty, self.message())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_condition_has_designators() {
        let c = Condition::error("boom");
        assert!(c.matches("error"));
        assert!(c.matches("condition"));
        assert!(!c.matches("java.net.SocketException"));
        assert_eq!(c.message(), "boom");
    }

    #[test]
    fn qname_designators_match() {
        let c = Condition::with_types(
            vec!["{urn:service}Connect".into(), "error".into()],
            "fault",
            Value::Nil,
        );
        assert!(c.matches("{urn:service}Connect"));
        assert!(c.matches("condition"));
    }

    #[test]
    fn from_value_passthrough_and_wrap() {
        let c = Condition::error("x");
        let rewrapped = Condition::from_value(c.0.clone());
        assert_eq!(rewrapped, c);

        let wrapped = Condition::from_value(Value::Int(7));
        assert!(wrapped.matches("error"));
        assert_eq!(wrapped.field("data"), Some(Value::Int(7)));

        let from_str = Condition::from_value(Value::str("oops"));
        assert_eq!(from_str.message(), "oops");
    }

    #[test]
    fn display_format() {
        let c = Condition::error("kaput");
        assert_eq!(c.to_string(), "error: kaput");
    }
}
