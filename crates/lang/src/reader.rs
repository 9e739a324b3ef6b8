//! The Gozer reader: text → [`Value`] forms.
//!
//! The reader is table-driven in the Common Lisp tradition. Every macro
//! character maps to a handler in the [`ReadTable`]; the built-in handlers
//! cover `( ) [ ] { } " ' \` , ; #`, and embedders install additional
//! handlers at runtime — exactly how Vinz hooks `^task-var^` syntax into
//! the parser (paper Listing 5, `set-macro-character`).
//!
//! User-defined handlers are Gozer functions `(lambda (the-stream c) ...)`;
//! running them requires an evaluator, which the reader reaches through the
//! [`ReadEval`] callback so this crate does not depend on the VM.

use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;
use rustc_hash::FxHashMap;

use crate::error::LangError;
use crate::value::{Opaque, Value};

/// Maximum form nesting the reader accepts.
pub const MAX_NESTING: u32 = 256;

/// Callback used to run user-defined reader-macro functions.
pub trait ReadEval {
    /// Apply the Gozer function `func` to `args` and return its value.
    fn call_function(&mut self, func: &Value, args: &[Value]) -> Result<Value, LangError>;
}

/// A [`ReadEval`] that rejects user-defined reader macros. Useful for
/// reading pure data.
pub struct NoEval;

impl ReadEval for NoEval {
    fn call_function(&mut self, _func: &Value, _args: &[Value]) -> Result<Value, LangError> {
        Err(LangError::new(
            "user-defined reader macros require an evaluator",
        ))
    }
}

/// A character stream with position tracking, shareable with Gozer code as
/// an opaque value (reader-macro functions receive it as `the-stream`).
#[derive(Clone)]
pub struct SharedStream {
    inner: Arc<Mutex<StreamInner>>,
}

struct StreamInner {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
    depth: u32,
}

impl SharedStream {
    /// Create a stream over the whole of `src`.
    pub fn new(src: &str) -> Self {
        SharedStream {
            inner: Arc::new(Mutex::new(StreamInner {
                chars: src.chars().collect(),
                pos: 0,
                line: 1,
                col: 1,
                depth: 0,
            })),
        }
    }

    /// Peek without consuming.
    pub fn peek(&self) -> Option<char> {
        let inner = self.inner.lock();
        inner.chars.get(inner.pos).copied()
    }

    /// Consume and return the next character.
    pub fn next(&self) -> Option<char> {
        let mut inner = self.inner.lock();
        let c = inner.chars.get(inner.pos).copied()?;
        inner.pos += 1;
        if c == '\n' {
            inner.line += 1;
            inner.col = 1;
        } else {
            inner.col += 1;
        }
        Some(c)
    }

    /// Current (line, column), 1-based.
    pub fn position(&self) -> (u32, u32) {
        let inner = self.inner.lock();
        (inner.line, inner.col)
    }

    fn err(&self, msg: impl Into<String>) -> LangError {
        let (l, c) = self.position();
        LangError::at(msg, l, c)
    }

    /// Increment the nesting depth, failing beyond the cap (prevents
    /// stack exhaustion on pathological inputs like ten thousand open
    /// parentheses).
    pub(crate) fn enter(&self) -> Result<(), LangError> {
        let mut inner = self.inner.lock();
        if inner.depth >= MAX_NESTING {
            return Err(LangError::at(
                format!("nesting deeper than {MAX_NESTING}"),
                inner.line,
                inner.col,
            ));
        }
        inner.depth += 1;
        Ok(())
    }

    /// Decrement the nesting depth.
    pub(crate) fn leave(&self) {
        let mut inner = self.inner.lock();
        inner.depth = inner.depth.saturating_sub(1);
    }
}

impl fmt::Debug for SharedStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (l, c) = self.position();
        write!(f, "SharedStream@{l}:{c}")
    }
}

impl Opaque for SharedStream {
    fn opaque_type(&self) -> &'static str {
        "stream"
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Handler invoked when a macro character is encountered. `None` means the
/// handler consumed input but produced no form (comments).
type NativeHandler =
    fn(&Reader, &SharedStream, char, &mut dyn ReadEval) -> Result<Option<Value>, LangError>;

/// A reader-macro handler: built-in (Rust) or user-supplied (Gozer
/// function of `(the-stream char)`).
#[derive(Clone)]
pub enum Handler {
    /// Built-in handler.
    Native(NativeHandler),
    /// Gozer function, run through [`ReadEval`].
    User(Value),
}

#[derive(Clone)]
struct MacroEntry {
    handler: Handler,
    /// Terminating macro characters end a token in progress (like `(` in
    /// CL); non-terminating ones only act at token start.
    terminating: bool,
}

/// The mapping from macro characters to handlers.
#[derive(Clone, Default)]
pub struct ReadTable {
    entries: FxHashMap<char, MacroEntry>,
}

impl ReadTable {
    /// The standard Gozer read table.
    pub fn standard() -> Self {
        let mut t = ReadTable::default();
        t.set_native('(', read_list, true);
        t.set_native(')', unexpected_close, true);
        t.set_native('[', read_vector, true);
        t.set_native(']', unexpected_close, true);
        t.set_native('{', read_map, true);
        t.set_native('}', unexpected_close, true);
        t.set_native('"', read_string, true);
        t.set_native('\'', read_quote, true);
        t.set_native('`', read_quasiquote, true);
        t.set_native(',', read_unquote, true);
        t.set_native(';', read_line_comment, true);
        t.set_native('#', read_dispatch, false);
        t
    }

    fn set_native(&mut self, c: char, h: NativeHandler, terminating: bool) {
        self.entries.insert(
            c,
            MacroEntry {
                handler: Handler::Native(h),
                terminating,
            },
        );
    }

    /// Install a user macro character, as `set-macro-character` does.
    pub fn set_macro_character(&mut self, c: char, func: Value, terminating: bool) {
        self.entries.insert(
            c,
            MacroEntry {
                handler: Handler::User(func),
                terminating,
            },
        );
    }

    /// Is `c` a terminating macro character?
    fn is_terminating(&self, c: char) -> bool {
        self.entries.get(&c).map(|e| e.terminating).unwrap_or(false)
    }
}

/// The reader proper: a [`ReadTable`] plus the read algorithm.
#[derive(Clone)]
pub struct Reader {
    /// The active read table. Public so embedders (the VM's
    /// `set-macro-character` builtin) can mutate it.
    pub table: ReadTable,
}

impl Default for Reader {
    fn default() -> Self {
        Reader {
            table: ReadTable::standard(),
        }
    }
}

impl Reader {
    /// Reader with the standard table.
    pub fn new() -> Self {
        Reader::default()
    }

    /// Read every form in `src` with the standard table and no evaluator.
    pub fn read_all_str(src: &str) -> Result<Vec<Value>, LangError> {
        Reader::new().read_all(&SharedStream::new(src), &mut NoEval)
    }

    /// Read a single form from `src`.
    pub fn read_one_str(src: &str) -> Result<Value, LangError> {
        let stream = SharedStream::new(src);
        Reader::new()
            .read(&stream, &mut NoEval)?
            .ok_or_else(|| LangError::new("no form in input"))
    }

    /// Read all remaining forms from `stream`.
    pub fn read_all(
        &self,
        stream: &SharedStream,
        eval: &mut dyn ReadEval,
    ) -> Result<Vec<Value>, LangError> {
        let mut forms = Vec::new();
        while let Some(form) = self.read(stream, eval)? {
            forms.push(form);
        }
        Ok(forms)
    }

    /// Read one form, or `None` at end of input.
    pub fn read(
        &self,
        stream: &SharedStream,
        eval: &mut dyn ReadEval,
    ) -> Result<Option<Value>, LangError> {
        loop {
            self.skip_whitespace(stream);
            let Some(c) = stream.peek() else {
                return Ok(None);
            };
            if let Some(entry) = self.table.entries.get(&c).cloned() {
                stream.next();
                match entry.handler {
                    Handler::Native(h) => {
                        if let Some(v) = h(self, stream, c, eval)? {
                            return Ok(Some(v));
                        }
                        // comment: loop for the next form
                    }
                    Handler::User(func) => {
                        let args = [
                            Value::Opaque(Arc::new(stream.clone())),
                            Value::Char(c),
                        ];
                        let v = eval.call_function(&func, &args)?;
                        return Ok(Some(v));
                    }
                }
            } else {
                return Ok(Some(self.read_token(stream)?));
            }
        }
    }

    /// Read one form, erroring at EOF (used inside delimited forms).
    fn read_required(
        &self,
        stream: &SharedStream,
        eval: &mut dyn ReadEval,
        what: &str,
    ) -> Result<Value, LangError> {
        self.read(stream, eval)?
            .ok_or_else(|| stream.err(format!("unexpected end of input in {what}")))
    }

    fn skip_whitespace(&self, stream: &SharedStream) {
        while let Some(c) = stream.peek() {
            if c.is_whitespace() {
                stream.next();
            } else {
                break;
            }
        }
    }

    /// Read forms until `close`, consuming it.
    fn read_delimited(
        &self,
        stream: &SharedStream,
        eval: &mut dyn ReadEval,
        close: char,
        what: &str,
    ) -> Result<Vec<Value>, LangError> {
        stream.enter()?;
        let result = self.read_delimited_inner(stream, eval, close, what);
        stream.leave();
        result
    }

    fn read_delimited_inner(
        &self,
        stream: &SharedStream,
        eval: &mut dyn ReadEval,
        close: char,
        what: &str,
    ) -> Result<Vec<Value>, LangError> {
        let mut items = Vec::new();
        loop {
            self.skip_whitespace(stream);
            match stream.peek() {
                None => return Err(stream.err(format!("unterminated {what}"))),
                Some(c) if c == close => {
                    stream.next();
                    return Ok(items);
                }
                Some(';') => {
                    stream.next();
                    read_line_comment(self, stream, ';', eval)?;
                }
                _ => items.push(self.read_required(stream, eval, what)?),
            }
        }
    }

    fn read_token(&self, stream: &SharedStream) -> Result<Value, LangError> {
        let mut tok = String::new();
        while let Some(c) = stream.peek() {
            if c.is_whitespace() || self.table.is_terminating(c) {
                break;
            }
            tok.push(c);
            stream.next();
        }
        if tok.is_empty() {
            return Err(stream.err("empty token"));
        }
        Ok(classify_token(&tok))
    }
}

/// Turn a raw token into a value: number, keyword, `nil`/`t`, or symbol.
fn classify_token(tok: &str) -> Value {
    if let Some(v) = parse_number(tok) {
        return v;
    }
    if let Some(name) = tok.strip_prefix(':') {
        if !name.is_empty() {
            return Value::keyword(name);
        }
    }
    match tok {
        "nil" => Value::Nil,
        "t" => Value::Bool(true),
        _ => Value::symbol(tok),
    }
}

/// Parse a numeric token: integers and floats, with sign and exponent.
fn parse_number(tok: &str) -> Option<Value> {
    let body = tok.strip_prefix(['+', '-']).unwrap_or(tok);
    let first = body.chars().next()?;
    // Must begin (after sign) with a digit, or a dot followed by a digit:
    // `-`, `+`, `...` and `.` are symbols.
    let numeric_shape = first.is_ascii_digit()
        || (first == '.' && body.chars().nth(1).is_some_and(|c| c.is_ascii_digit()));
    if !numeric_shape {
        return None;
    }
    if let Ok(i) = tok.parse::<i64>() {
        return Some(Value::Int(i));
    }
    if let Ok(f) = tok.parse::<f64>() {
        // Reject things like "1x" that f64::parse would also reject; only
        // reached for valid float syntax.
        return Some(Value::Float(f));
    }
    None
}

// ---- built-in handlers -------------------------------------------------

fn read_list(
    r: &Reader,
    s: &SharedStream,
    _c: char,
    e: &mut dyn ReadEval,
) -> Result<Option<Value>, LangError> {
    Ok(Some(Value::list(r.read_delimited(s, e, ')', "list")?)))
}

fn read_vector(
    r: &Reader,
    s: &SharedStream,
    _c: char,
    e: &mut dyn ReadEval,
) -> Result<Option<Value>, LangError> {
    Ok(Some(Value::vector(r.read_delimited(s, e, ']', "vector")?)))
}

fn read_map(
    r: &Reader,
    s: &SharedStream,
    _c: char,
    e: &mut dyn ReadEval,
) -> Result<Option<Value>, LangError> {
    let items = r.read_delimited(s, e, '}', "map")?;
    if items.len() % 2 != 0 {
        return Err(s.err("map literal requires an even number of forms"));
    }
    let mut m = crate::value::AssocMap::new();
    let mut it = items.into_iter();
    while let (Some(k), Some(v)) = (it.next(), it.next()) {
        m.insert(k, v);
    }
    Ok(Some(Value::Map(Arc::new(m))))
}

fn unexpected_close(
    _r: &Reader,
    s: &SharedStream,
    c: char,
    _e: &mut dyn ReadEval,
) -> Result<Option<Value>, LangError> {
    Err(s.err(format!("unexpected '{c}'")))
}

fn read_string(
    _r: &Reader,
    s: &SharedStream,
    _c: char,
    _e: &mut dyn ReadEval,
) -> Result<Option<Value>, LangError> {
    let mut out = String::new();
    loop {
        match s.next() {
            None => return Err(s.err("unterminated string")),
            Some('"') => return Ok(Some(Value::from(out))),
            Some('\\') => match s.next() {
                None => return Err(s.err("unterminated escape in string")),
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('r') => out.push('\r'),
                Some('0') => out.push('\0'),
                Some(other) => out.push(other),
            },
            Some(ch) => out.push(ch),
        }
    }
}

fn wrap(head: &str, form: Value) -> Value {
    Value::list(vec![Value::symbol(head), form])
}

fn read_quote(
    r: &Reader,
    s: &SharedStream,
    _c: char,
    e: &mut dyn ReadEval,
) -> Result<Option<Value>, LangError> {
    Ok(Some(wrap("quote", r.read_required(s, e, "quote")?)))
}

fn read_quasiquote(
    r: &Reader,
    s: &SharedStream,
    _c: char,
    e: &mut dyn ReadEval,
) -> Result<Option<Value>, LangError> {
    Ok(Some(wrap(
        "quasiquote",
        r.read_required(s, e, "quasiquote")?,
    )))
}

fn read_unquote(
    r: &Reader,
    s: &SharedStream,
    _c: char,
    e: &mut dyn ReadEval,
) -> Result<Option<Value>, LangError> {
    let head = if s.peek() == Some('@') {
        s.next();
        "unquote-splicing"
    } else {
        "unquote"
    };
    Ok(Some(wrap(head, r.read_required(s, e, "unquote")?)))
}

fn read_line_comment(
    _r: &Reader,
    s: &SharedStream,
    _c: char,
    _e: &mut dyn ReadEval,
) -> Result<Option<Value>, LangError> {
    while let Some(c) = s.next() {
        if c == '\n' {
            break;
        }
    }
    Ok(None)
}

/// `#` dispatch: `#\c` characters, `#'f` function quote, `#| ... |#`
/// block comments (nesting).
fn read_dispatch(
    r: &Reader,
    s: &SharedStream,
    _c: char,
    e: &mut dyn ReadEval,
) -> Result<Option<Value>, LangError> {
    match s.next() {
        None => Err(s.err("unexpected end of input after #")),
        Some('\\') => read_char_literal(s).map(Some),
        Some('\'') => Ok(Some(wrap("function", r.read_required(s, e, "#'")?))),
        Some('|') => {
            let mut depth = 1;
            loop {
                match s.next() {
                    None => return Err(s.err("unterminated block comment")),
                    Some('|') if s.peek() == Some('#') => {
                        s.next();
                        depth -= 1;
                        if depth == 0 {
                            return Ok(None);
                        }
                    }
                    Some('#') if s.peek() == Some('|') => {
                        s.next();
                        depth += 1;
                    }
                    Some(_) => {}
                }
            }
        }
        Some(other) => Err(s.err(format!("unknown dispatch character #{other}"))),
    }
}

fn read_char_literal(s: &SharedStream) -> Result<Value, LangError> {
    let Some(first) = s.next() else {
        return Err(s.err("unexpected end of input after #\\"));
    };
    // Multi-character names: letters continue the name (e.g. #\space), but
    // a single letter followed by a delimiter is just that letter.
    let mut name = String::new();
    name.push(first);
    if first.is_alphabetic() {
        while let Some(c) = s.peek() {
            if c.is_alphanumeric() || c == '-' {
                name.push(c);
                s.next();
            } else {
                break;
            }
        }
    }
    if name.chars().count() == 1 {
        return Ok(Value::Char(first));
    }
    match name.to_ascii_lowercase().as_str() {
        "space" => Ok(Value::Char(' ')),
        "newline" | "linefeed" => Ok(Value::Char('\n')),
        "tab" => Ok(Value::Char('\t')),
        "return" => Ok(Value::Char('\r')),
        "nul" | "null" => Ok(Value::Char('\0')),
        _ => Err(s.err(format!("unknown character name #\\{name}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read1(src: &str) -> Value {
        Reader::read_one_str(src).unwrap()
    }

    #[test]
    fn read_atoms() {
        assert_eq!(read1("42"), Value::Int(42));
        assert_eq!(read1("-17"), Value::Int(-17));
        assert_eq!(read1("+8"), Value::Int(8));
        assert_eq!(read1("3.25"), Value::Float(3.25));
        assert_eq!(read1("-2e3"), Value::Float(-2000.0));
        assert_eq!(read1(".5"), Value::Float(0.5));
        assert_eq!(read1("nil"), Value::Nil);
        assert_eq!(read1("t"), Value::Bool(true));
        assert_eq!(read1(":key"), Value::keyword("key"));
        assert_eq!(read1("foo-bar"), Value::symbol("foo-bar"));
        assert_eq!(read1("+"), Value::symbol("+"));
        assert_eq!(read1("-"), Value::symbol("-"));
        assert_eq!(read1("..."), Value::symbol("..."));
        assert_eq!(read1("%get-task-var"), Value::symbol("%get-task-var"));
    }

    #[test]
    fn read_strings_and_chars() {
        assert_eq!(read1(r#""hi\nthere""#), Value::str("hi\nthere"));
        assert_eq!(read1(r#""q\"uote""#), Value::str("q\"uote"));
        assert_eq!(read1(r"#\a"), Value::Char('a'));
        assert_eq!(read1(r"#\space"), Value::Char(' '));
        assert_eq!(read1(r"#\^"), Value::Char('^'));
    }

    #[test]
    fn read_collections() {
        assert_eq!(read1("()"), Value::Nil);
        assert_eq!(
            read1("(1 2 3)"),
            Value::list(vec![Value::Int(1), Value::Int(2), Value::Int(3)])
        );
        assert_eq!(
            read1("[1 [2]]"),
            Value::vector(vec![Value::Int(1), Value::vector(vec![Value::Int(2)])])
        );
        let m = read1("{:a 1 :b 2}");
        assert_eq!(
            m.as_map().unwrap().get(&Value::keyword("b")),
            Some(&Value::Int(2))
        );
    }

    #[test]
    fn map_literal_odd_forms_errors() {
        assert!(Reader::read_one_str("{:a}").is_err());
    }

    #[test]
    fn read_quotes() {
        assert_eq!(read1("'x").to_string(), "(quote x)");
        assert_eq!(read1("`(a ,b ,@c)").to_string(),
            "(quasiquote (a (unquote b) (unquote-splicing c)))");
        assert_eq!(read1("#'+").to_string(), "(function +)");
    }

    #[test]
    fn read_comments() {
        let forms = Reader::read_all_str("; line\n1 #| block #| nested |# |# 2").unwrap();
        assert_eq!(forms, vec![Value::Int(1), Value::Int(2)]);
        let forms = Reader::read_all_str("(1 ; inside\n 2)").unwrap();
        assert_eq!(forms[0].as_list().unwrap().len(), 2);
    }

    #[test]
    fn error_positions() {
        let err = Reader::read_one_str("(1 2").unwrap_err();
        assert!(err.to_string().contains("unterminated"));
        let err = Reader::read_one_str(")").unwrap_err();
        assert!(err.to_string().contains("unexpected ')'"));
    }

    #[test]
    fn user_macro_character_invoked() {
        // ^exit-flag^  =>  (%get-task-var 'exit-flag^) per Listing 5.
        struct TaskVarEval;
        impl ReadEval for TaskVarEval {
            fn call_function(
                &mut self,
                _f: &Value,
                args: &[Value],
            ) -> Result<Value, LangError> {
                // emulate the Gozer-side handler: read the next token off
                // the stream and wrap it.
                let stream = args[0].as_opaque::<SharedStream>().unwrap().clone();
                let r = Reader::new();
                let name = r.read(&stream, &mut NoEval).unwrap().unwrap();
                Ok(Value::list(vec![
                    Value::symbol("%get-task-var"),
                    Value::list(vec![Value::symbol("quote"), name]),
                ]))
            }
        }
        let mut reader = Reader::new();
        reader
            .table
            .set_macro_character('^', Value::Nil, true);
        let stream = SharedStream::new("^exit-flag^");
        let form = reader.read(&stream, &mut TaskVarEval).unwrap().unwrap();
        assert_eq!(form.to_string(), "(%get-task-var (quote exit-flag^))");
    }

    #[test]
    fn roundtrip_print_read() {
        for src in [
            "(defun f (x) (* x x))",
            "[1 2.5 \"s\" :k (a b)]",
            "{:a [1 2] :b {\"k\" nil}}",
        ] {
            let v = read1(src);
            let printed = format!("{v:?}");
            assert_eq!(read1(&printed), v, "roundtrip failed for {src}");
        }
    }
}

#[cfg(test)]
mod depth_tests {
    use super::*;

    #[test]
    fn pathological_nesting_is_an_error_not_a_crash() {
        let opens = "(".repeat(100_000);
        let err = Reader::read_one_str(&opens).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
        // Deep-but-legal nesting still works.
        let ok = format!("{}1{}", "(list ".repeat(100), ")".repeat(100));
        assert!(Reader::read_one_str(&ok).is_ok());
    }
}
