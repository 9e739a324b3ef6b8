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
//!
//! The reader reads the source text in place through a [`Cursor`] it owns:
//! a byte offset, a line and a column, no lock and no copy of the text per
//! character, and the read table indexes ASCII macro characters directly.
//! Only a user handler sees a [`SharedStream`]: the reader lends the
//! function its cursor inside one, and takes it back, wherever the
//! function's `read`, `read-char` and `peek-char` calls left it, when the
//! function returns.

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

/// A read position in a source text: the text, the byte offset of the
/// next character, that character's 1-based line and column, and the
/// nesting depth of the form being read.
///
/// The reader reads through a cursor it owns, one plain field access
/// per character. While a user reader macro runs, the reader lends its
/// cursor to a [`SharedStream`] that the macro function receives, and
/// takes it back when the function returns.
#[derive(Clone, Default)]
pub struct Cursor {
    src: Arc<str>,
    pos: usize,
    line: u32,
    col: u32,
    depth: u32,
}

impl Cursor {
    /// A cursor at the start of `src`.
    pub fn new(src: &str) -> Self {
        Cursor {
            src: Arc::from(src),
            pos: 0,
            line: 1,
            col: 1,
            depth: 0,
        }
    }

    /// The next character, not consumed.
    #[inline]
    pub fn peek(&self) -> Option<char> {
        let b = *self.src.as_bytes().get(self.pos)?;
        if b.is_ascii() {
            Some(b as char)
        } else {
            self.src[self.pos..].chars().next()
        }
    }

    fn err(&self, msg: impl Into<String>) -> LangError {
        LangError::at(msg, self.line, self.col)
    }

    /// Increment the nesting depth, failing beyond the cap (prevents
    /// stack exhaustion on pathological inputs like ten thousand open
    /// parentheses).
    fn enter(&mut self) -> Result<(), LangError> {
        if self.depth >= MAX_NESTING {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING}")));
        }
        self.depth += 1;
        Ok(())
    }

    /// Decrement the nesting depth.
    fn leave(&mut self) {
        self.depth = self.depth.saturating_sub(1);
    }
}

impl Iterator for Cursor {
    type Item = char;

    /// Consume and return the next character.
    #[inline]
    fn next(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }
}

/// A character stream shareable with Gozer code as an opaque value:
/// reader-macro functions receive one as `the-stream`, and
/// `make-string-stream` makes one. It holds a [`Cursor`]; a read from
/// the stream takes the cursor out for the length of that read
/// ([`SharedStream::with_cursor`]), and the stream the reader lends a
/// macro function holds the reader's own cursor until the function
/// returns. Either way the stream is at end of input while its cursor
/// is out.
#[derive(Clone)]
pub struct SharedStream {
    cursor: Arc<Mutex<Cursor>>,
}

impl SharedStream {
    /// Create a stream over the whole of `src`.
    pub fn new(src: &str) -> Self {
        SharedStream::lend(Cursor::new(src))
    }

    fn lend(cursor: Cursor) -> Self {
        SharedStream {
            cursor: Arc::new(Mutex::new(cursor)),
        }
    }

    fn take_back(&self) -> Cursor {
        std::mem::take(&mut *self.cursor.lock())
    }

    /// Peek without consuming.
    pub fn peek(&self) -> Option<char> {
        self.cursor.lock().peek()
    }

    /// Consume and return the next character.
    pub fn next(&self) -> Option<char> {
        self.cursor.lock().next()
    }

    /// Current (line, column), 1-based; columns count characters.
    pub fn position(&self) -> (u32, u32) {
        let cursor = self.cursor.lock();
        (cursor.line, cursor.col)
    }

    /// Run `f` on the stream's cursor, taken out of the stream (and out
    /// of its lock) until `f` returns: how `read` reads a stream.
    pub fn with_cursor<R>(&self, f: impl FnOnce(&mut Cursor) -> R) -> R {
        let mut cursor = self.take_back();
        let out = f(&mut cursor);
        *self.cursor.lock() = cursor;
        out
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
    fn(&Reader, &mut Cursor, char, &mut dyn ReadEval) -> Result<Option<Value>, LangError>;

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

/// The mapping from macro characters to handlers: ASCII characters by
/// index, any others by hash. Cloning it is one reference count;
/// [`ReadTable::set_macro_character`] copies the entries only when a
/// clone still shares them.
#[derive(Clone)]
pub struct ReadTable {
    entries: Arc<Entries>,
}

#[derive(Clone)]
struct Entries {
    ascii: [Option<MacroEntry>; 128],
    other: FxHashMap<char, MacroEntry>,
}

impl ReadTable {
    /// The standard Gozer read table.
    pub fn standard() -> Self {
        let mut t = ReadTable {
            entries: Arc::new(Entries {
                ascii: std::array::from_fn(|_| None),
                other: FxHashMap::default(),
            }),
        };
        t.set('(', Handler::Native(read_list), true);
        t.set(')', Handler::Native(unexpected_close), true);
        t.set('[', Handler::Native(read_vector), true);
        t.set(']', Handler::Native(unexpected_close), true);
        t.set('{', Handler::Native(read_map), true);
        t.set('}', Handler::Native(unexpected_close), true);
        t.set('"', Handler::Native(read_string), true);
        t.set('\'', Handler::Native(read_quote), true);
        t.set('`', Handler::Native(read_quasiquote), true);
        t.set(',', Handler::Native(read_unquote), true);
        t.set(';', Handler::Native(read_line_comment), true);
        t.set('#', Handler::Native(read_dispatch), false);
        t
    }

    fn set(&mut self, c: char, handler: Handler, terminating: bool) {
        let entry = MacroEntry {
            handler,
            terminating,
        };
        let entries = Arc::make_mut(&mut self.entries);
        match entries.ascii.get_mut(c as usize) {
            Some(slot) => *slot = Some(entry),
            None => {
                entries.other.insert(c, entry);
            }
        }
    }

    /// Install a user macro character, as `set-macro-character` does.
    pub fn set_macro_character(&mut self, c: char, func: Value, terminating: bool) {
        self.set(c, Handler::User(func), terminating);
    }

    #[inline]
    fn get(&self, c: char) -> Option<&MacroEntry> {
        match self.entries.ascii.get(c as usize) {
            Some(slot) => slot.as_ref(),
            None => self.entries.other.get(&c),
        }
    }

    /// Is `c` a terminating macro character?
    #[inline]
    fn is_terminating(&self, c: char) -> bool {
        self.get(c).is_some_and(|e| e.terminating)
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
        Reader::new().read_all(&mut Cursor::new(src), &mut NoEval)
    }

    /// Read a single form from `src`.
    pub fn read_one_str(src: &str) -> Result<Value, LangError> {
        Reader::new()
            .read(&mut Cursor::new(src), &mut NoEval)?
            .ok_or_else(|| LangError::new("no form in input"))
    }

    /// Read all remaining forms from `cur`.
    pub fn read_all(
        &self,
        cur: &mut Cursor,
        eval: &mut dyn ReadEval,
    ) -> Result<Vec<Value>, LangError> {
        let mut forms = Vec::new();
        while let Some(form) = self.read(cur, eval)? {
            forms.push(form);
        }
        Ok(forms)
    }

    /// Read one form, or `None` at end of input.
    pub fn read(
        &self,
        cur: &mut Cursor,
        eval: &mut dyn ReadEval,
    ) -> Result<Option<Value>, LangError> {
        loop {
            skip_whitespace(cur);
            let Some(c) = cur.peek() else {
                return Ok(None);
            };
            let Some(entry) = self.table.get(c) else {
                return self.read_token(cur).map(Some);
            };
            cur.next();
            match &entry.handler {
                Handler::Native(h) => {
                    if let Some(v) = h(self, cur, c, eval)? {
                        return Ok(Some(v));
                    }
                    // comment: loop for the next form
                }
                Handler::User(func) => {
                    // Lend the cursor to the stream the function reads,
                    // and take it back wherever the function left it.
                    let stream = SharedStream::lend(std::mem::take(cur));
                    let args = [Value::Opaque(Arc::new(stream.clone())), Value::Char(c)];
                    let v = eval.call_function(func, &args);
                    *cur = stream.take_back();
                    return v.map(Some);
                }
            }
        }
    }

    /// Read one form, erroring at EOF (used inside delimited forms).
    fn read_required(
        &self,
        cur: &mut Cursor,
        eval: &mut dyn ReadEval,
        what: &str,
    ) -> Result<Value, LangError> {
        self.read(cur, eval)?
            .ok_or_else(|| cur.err(format!("unexpected end of input in {what}")))
    }

    /// Read forms until `close`, consuming it.
    fn read_delimited(
        &self,
        cur: &mut Cursor,
        eval: &mut dyn ReadEval,
        close: char,
        what: &str,
    ) -> Result<Vec<Value>, LangError> {
        cur.enter()?;
        let result = self.read_delimited_inner(cur, eval, close, what);
        cur.leave();
        result
    }

    fn read_delimited_inner(
        &self,
        cur: &mut Cursor,
        eval: &mut dyn ReadEval,
        close: char,
        what: &str,
    ) -> Result<Vec<Value>, LangError> {
        let mut items = Vec::new();
        loop {
            skip_whitespace(cur);
            match cur.peek() {
                None => return Err(cur.err(format!("unterminated {what}"))),
                Some(c) if c == close => {
                    cur.next();
                    return Ok(items);
                }
                Some(';') => {
                    cur.next();
                    read_line_comment(self, cur, ';', eval)?;
                }
                _ => items.push(self.read_required(cur, eval, what)?),
            }
        }
    }

    fn read_token(&self, cur: &mut Cursor) -> Result<Value, LangError> {
        let start = cur.pos;
        while let Some(c) = cur.peek() {
            if c.is_whitespace() || self.table.is_terminating(c) {
                break;
            }
            cur.next();
        }
        if cur.pos == start {
            return Err(cur.err("empty token"));
        }
        Ok(classify_token(&cur.src[start..cur.pos]))
    }
}

fn skip_whitespace(cur: &mut Cursor) {
    while cur.peek().is_some_and(char::is_whitespace) {
        cur.next();
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
    s: &mut Cursor,
    _c: char,
    e: &mut dyn ReadEval,
) -> Result<Option<Value>, LangError> {
    Ok(Some(Value::list(r.read_delimited(s, e, ')', "list")?)))
}

fn read_vector(
    r: &Reader,
    s: &mut Cursor,
    _c: char,
    e: &mut dyn ReadEval,
) -> Result<Option<Value>, LangError> {
    Ok(Some(Value::vector(r.read_delimited(s, e, ']', "vector")?)))
}

fn read_map(
    r: &Reader,
    s: &mut Cursor,
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
    s: &mut Cursor,
    c: char,
    _e: &mut dyn ReadEval,
) -> Result<Option<Value>, LangError> {
    Err(s.err(format!("unexpected '{c}'")))
}

fn read_string(
    _r: &Reader,
    s: &mut Cursor,
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
    s: &mut Cursor,
    _c: char,
    e: &mut dyn ReadEval,
) -> Result<Option<Value>, LangError> {
    Ok(Some(wrap("quote", r.read_required(s, e, "quote")?)))
}

fn read_quasiquote(
    r: &Reader,
    s: &mut Cursor,
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
    s: &mut Cursor,
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
    s: &mut Cursor,
    _c: char,
    _e: &mut dyn ReadEval,
) -> Result<Option<Value>, LangError> {
    s.find(|&c| c == '\n');
    Ok(None)
}

/// `#` dispatch: `#\c` characters, `#'f` function quote, `#| ... |#`
/// block comments (nesting).
fn read_dispatch(
    r: &Reader,
    s: &mut Cursor,
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

fn read_char_literal(s: &mut Cursor) -> Result<Value, LangError> {
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
        assert_eq!(
            read1("`(a ,b ,@c)").to_string(),
            "(quasiquote (a (unquote b) (unquote-splicing c)))"
        );
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
            fn call_function(&mut self, _f: &Value, args: &[Value]) -> Result<Value, LangError> {
                // emulate the Gozer-side handler: read the next token off
                // the stream and wrap it.
                let stream = args[0].as_opaque::<SharedStream>().unwrap().clone();
                let r = Reader::new();
                let name = stream
                    .with_cursor(|cur| r.read(cur, &mut NoEval))
                    .unwrap()
                    .unwrap();
                Ok(Value::list(vec![
                    Value::symbol("%get-task-var"),
                    Value::list(vec![Value::symbol("quote"), name]),
                ]))
            }
        }
        let mut reader = Reader::new();
        reader.table.set_macro_character('^', Value::Nil, true);
        let mut cur = Cursor::new("^exit-flag^");
        let form = reader.read(&mut cur, &mut TaskVarEval).unwrap().unwrap();
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
