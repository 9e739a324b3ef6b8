#![warn(missing_docs)]

//! # gozer-xml
//!
//! A minimal XML stack for the BlueBox substrate: document model, parser,
//! writer, namespace-qualified names (QNames, as used for error
//! designators in paper §3.7), and WSDL-like service descriptions (§3.3 —
//! "each service describes the operations it offers with an XML document
//! called a WSDL", which `deflink` parses to generate client stubs).

pub mod parser;
pub mod qname;
pub mod writer;
pub mod wsdl;

pub use parser::{parse, ParseError};
pub use qname::QName;
pub use writer::write_document;
pub use wsdl::{OperationDesc, ParamDesc, ServiceDescription};

/// An XML element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Element {
    /// Resolved qualified name.
    pub name: QName,
    /// Attributes in document order (namespace declarations excluded).
    pub attrs: Vec<(String, String)>,
    /// Child nodes.
    pub children: Vec<Node>,
}

/// A node: element or character data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// Nested element.
    Element(Element),
    /// Text content (entity-decoded).
    Text(String),
}

impl Element {
    /// New element with a local (un-namespaced) name.
    pub fn new(local: &str) -> Element {
        Element {
            name: QName::local(local),
            attrs: Vec::new(),
            children: Vec::new(),
        }
    }

    /// New element with a namespace.
    pub fn qualified(ns: &str, local: &str) -> Element {
        Element {
            name: QName::new(ns, local),
            attrs: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Builder: add an attribute.
    pub fn attr(mut self, name: &str, value: &str) -> Element {
        self.attrs.push((name.to_string(), value.to_string()));
        self
    }

    /// Builder: add a child element.
    pub fn child(mut self, e: Element) -> Element {
        self.children.push(Node::Element(e));
        self
    }

    /// Builder: add text content.
    pub fn text(mut self, t: &str) -> Element {
        self.children.push(Node::Text(t.to_string()));
        self
    }

    /// Attribute lookup.
    pub fn get_attr(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// First child element with the given local name.
    pub fn find(&self, local: &str) -> Option<&Element> {
        self.children.iter().find_map(|n| match n {
            Node::Element(e) if e.name.local == local => Some(e),
            _ => None,
        })
    }

    /// All child elements with the given local name.
    pub fn find_all<'a>(&'a self, local: &'a str) -> impl Iterator<Item = &'a Element> + 'a {
        self.children.iter().filter_map(move |n| match n {
            Node::Element(e) if e.name.local == local => Some(e),
            _ => None,
        })
    }

    /// All child elements.
    pub fn elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(|n| match n {
            Node::Element(e) => Some(e),
            _ => None,
        })
    }

    /// Concatenated text content of this element (direct children only).
    pub fn text_content(&self) -> String {
        self.children
            .iter()
            .filter_map(|n| match n {
                Node::Text(t) => Some(t.as_str()),
                _ => None,
            })
            .collect()
    }

    /// Serialize to a string.
    pub fn to_xml(&self) -> String {
        write_document(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_accessors() {
        let e = Element::new("root")
            .attr("id", "1")
            .child(Element::new("a").text("x"))
            .child(Element::new("a").text("y"))
            .child(Element::new("b"));
        assert_eq!(e.get_attr("id"), Some("1"));
        assert_eq!(e.find("a").unwrap().text_content(), "x");
        assert_eq!(e.find_all("a").count(), 2);
        assert_eq!(e.elements().count(), 3);
        assert!(e.find("missing").is_none());
    }
}
