//! A small, strict XML parser: elements, attributes, text, comments,
//! processing instructions, CDATA, the five predefined entities, and
//! namespace resolution (`xmlns`/`xmlns:prefix`).

use std::collections::HashMap;
use std::fmt;

use crate::qname::QName;
use crate::{Element, Node};

/// Parse failure with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Description.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "XML parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Maximum element nesting the parser accepts (stack-exhaustion guard).
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    depth: usize,
}

/// Parse a document, returning its root element.
pub fn parse(input: &str) -> Result<Element, ParseError> {
    let mut p = Parser {
        input: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_misc()?;
    let scopes = vec![HashMap::new()];
    let root = p.element(&scopes)?;
    p.skip_misc()?;
    if p.pos < p.input.len() {
        return Err(p.err("trailing content after root element"));
    }
    Ok(root)
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            message: msg.into(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Skip whitespace, comments, PIs, and a doctype before/after the root.
    fn skip_misc(&mut self) -> Result<(), ParseError> {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                self.comment()?;
            } else if self.starts_with("<?") {
                self.until("?>")?;
            } else if self.starts_with("<!DOCTYPE") {
                self.until(">")?;
            } else {
                return Ok(());
            }
        }
    }

    fn until(&mut self, end: &str) -> Result<(), ParseError> {
        match self.input[self.pos..]
            .windows(end.len())
            .position(|w| w == end.as_bytes())
        {
            Some(i) => {
                self.pos += i + end.len();
                Ok(())
            }
            None => Err(self.err(format!("unterminated construct (expected {end})"))),
        }
    }

    fn comment(&mut self) -> Result<(), ParseError> {
        self.pos += 4; // <!--
        self.until("-->")
    }

    fn name(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(String::from_utf8_lossy(&self.input[start..self.pos]).into_owned())
    }

    fn expect(&mut self, c: u8) -> Result<(), ParseError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", c as char)))
        }
    }

    fn attr_value(&mut self) -> Result<String, ParseError> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.err("expected quoted attribute value")),
        };
        self.pos += 1;
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == quote {
                let raw = String::from_utf8_lossy(&self.input[start..self.pos]).into_owned();
                self.pos += 1;
                return decode_entities(&raw).map_err(|m| self.err(m));
            }
            self.pos += 1;
        }
        Err(self.err("unterminated attribute value"))
    }

    fn element(&mut self, scopes: &[HashMap<String, String>]) -> Result<Element, ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err(format!("elements nested deeper than {MAX_DEPTH}")));
        }
        let result = self.element_inner(scopes);
        self.depth -= 1;
        result
    }

    fn element_inner(&mut self, scopes: &[HashMap<String, String>]) -> Result<Element, ParseError> {
        self.expect(b'<')?;
        let raw_name = self.name()?;
        // Collect attributes, splitting out namespace declarations.
        let mut attrs: Vec<(String, String)> = Vec::new();
        let mut ns_here: HashMap<String, String> = HashMap::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') | Some(b'/') => break,
                None => return Err(self.err("unterminated start tag")),
                _ => {}
            }
            let aname = self.name()?;
            self.skip_ws();
            self.expect(b'=')?;
            self.skip_ws();
            let aval = self.attr_value()?;
            if aname == "xmlns" {
                ns_here.insert(String::new(), aval);
            } else if let Some(prefix) = aname.strip_prefix("xmlns:") {
                ns_here.insert(prefix.to_string(), aval);
            } else {
                attrs.push((aname, aval));
            }
        }
        let mut scopes_vec: Vec<HashMap<String, String>>;
        let scopes_ref: &[HashMap<String, String>] = if ns_here.is_empty() {
            scopes
        } else {
            scopes_vec = scopes.to_vec();
            scopes_vec.push(ns_here);
            &scopes_vec
        };
        let name = resolve_name(&raw_name, scopes_ref).map_err(|m| self.err(m))?;
        let mut element = Element {
            name,
            attrs,
            children: Vec::new(),
        };
        // Self-closing?
        if self.peek() == Some(b'/') {
            self.pos += 1;
            self.expect(b'>')?;
            return Ok(element);
        }
        self.expect(b'>')?;
        // Content.
        loop {
            if self.starts_with("</") {
                self.pos += 2;
                let close = self.name()?;
                if close != raw_name {
                    return Err(self.err(format!(
                        "mismatched closing tag: expected </{raw_name}>, got </{close}>"
                    )));
                }
                self.skip_ws();
                self.expect(b'>')?;
                return Ok(element);
            } else if self.starts_with("<!--") {
                self.comment()?;
            } else if self.starts_with("<![CDATA[") {
                self.pos += 9;
                let start = self.pos;
                self.until("]]>")?;
                let text = String::from_utf8_lossy(&self.input[start..self.pos - 3]).into_owned();
                element.children.push(Node::Text(text));
            } else if self.starts_with("<?") {
                self.until("?>")?;
            } else if self.peek() == Some(b'<') {
                element
                    .children
                    .push(Node::Element(self.element(scopes_ref)?));
            } else if self.peek().is_none() {
                return Err(self.err(format!("unterminated element <{raw_name}>")));
            } else {
                let start = self.pos;
                while self.peek().is_some() && self.peek() != Some(b'<') {
                    self.pos += 1;
                }
                let raw = String::from_utf8_lossy(&self.input[start..self.pos]).into_owned();
                let text = decode_entities(&raw).map_err(|m| self.err(m))?;
                if !text.trim().is_empty() {
                    element.children.push(Node::Text(text));
                }
            }
        }
    }
}

fn resolve_name(raw: &str, scopes: &[HashMap<String, String>]) -> Result<QName, String> {
    let (prefix, local) = match raw.split_once(':') {
        Some((p, l)) => (p, l),
        None => ("", raw),
    };
    for scope in scopes.iter().rev() {
        if let Some(uri) = scope.get(prefix) {
            return Ok(QName::new(uri, local));
        }
    }
    if prefix.is_empty() {
        Ok(QName::local(local))
    } else {
        Err(format!("undeclared namespace prefix '{prefix}'"))
    }
}

/// Decode the five predefined entities plus numeric references.
pub fn decode_entities(s: &str) -> Result<String, String> {
    if !s.contains('&') {
        return Ok(s.to_string());
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        let after = &rest[amp + 1..];
        let semi = after
            .find(';')
            .ok_or_else(|| "unterminated entity reference".to_string())?;
        let entity = &after[..semi];
        match entity {
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "amp" => out.push('&'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ if entity.starts_with("#x") || entity.starts_with("#X") => {
                let code = u32::from_str_radix(&entity[2..], 16)
                    .map_err(|_| format!("bad character reference &{entity};"))?;
                out.push(char::from_u32(code).ok_or("invalid character reference")?);
            }
            _ if entity.starts_with('#') => {
                let code: u32 = entity[1..]
                    .parse()
                    .map_err(|_| format!("bad character reference &{entity};"))?;
                out.push(char::from_u32(code).ok_or("invalid character reference")?);
            }
            _ => return Err(format!("unknown entity &{entity};")),
        }
        rest = &after[semi + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_document() {
        let doc = parse(r#"<?xml version="1.0"?><a id="1"><b>text</b><c/></a>"#).unwrap();
        assert_eq!(doc.name.local, "a");
        assert_eq!(doc.get_attr("id"), Some("1"));
        assert_eq!(doc.find("b").unwrap().text_content(), "text");
        assert!(doc.find("c").unwrap().children.is_empty());
    }

    #[test]
    fn namespaces_resolve() {
        let doc = parse(r#"<s:svc xmlns:s="urn:svc" xmlns="urn:default"><op/><s:inner/></s:svc>"#)
            .unwrap();
        assert_eq!(doc.name.ns, "urn:svc");
        let op = doc.find("op").unwrap();
        assert_eq!(op.name.ns, "urn:default");
        assert_eq!(doc.find("inner").unwrap().name.ns, "urn:svc");
    }

    #[test]
    fn entities_decode() {
        let doc = parse("<a>&lt;x&gt; &amp; &#65;&#x42;</a>").unwrap();
        assert_eq!(doc.text_content(), "<x> & AB");
    }

    #[test]
    fn cdata_and_comments() {
        let doc = parse("<a><!-- note --><![CDATA[<raw>&]]></a>").unwrap();
        assert_eq!(doc.text_content(), "<raw>&");
    }

    #[test]
    fn pathological_nesting_is_an_error_not_a_crash() {
        let soup = "<a>".repeat(100_000);
        assert!(parse(&soup).is_err());
        let deep = format!("{}x{}", "<a>".repeat(100), "</a>".repeat(100));
        assert!(parse(&deep).is_ok());
    }

    #[test]
    fn errors_are_positioned() {
        assert!(parse("<a><b></a>").is_err());
        assert!(parse("<a>").is_err());
        assert!(parse("<a></a><b/>").is_err());
        assert!(parse("<p:a/>").is_err()); // undeclared prefix
        assert!(parse("<a attr=novalue/>").is_err());
    }
}
