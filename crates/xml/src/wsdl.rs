//! WSDL-like service descriptions.
//!
//! Every BlueBox service publishes an XML interface document describing
//! its operations (§1). Vinz's `deflink` macro fetches this document,
//! parses it, and generates one Gozer function per operation — including
//! the operation documentation, which Listing 2 shows surviving into the
//! generated stubs.

use crate::{parse, Element, ParseError};

/// One declared parameter of an operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamDesc {
    /// Parameter name (becomes a keyword argument in the generated stub).
    pub name: String,
    /// Declared type, informational (e.g. `"string"`, `"int"`, `"any"`).
    pub type_name: String,
}

/// One operation a service publishes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperationDesc {
    /// Operation name (e.g. `"ListSessions"`).
    pub name: String,
    /// Human documentation, preserved into generated stubs.
    pub doc: String,
    /// SOAP action URI.
    pub soap_action: String,
    /// Input parameters.
    pub params: Vec<ParamDesc>,
    /// When true, `deflink` generates an erroring macro instead of a
    /// function (the paper's compile-time guard for operations that
    /// cannot be bridged).
    pub unsupported: bool,
}

/// A service interface document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceDescription {
    /// Service name (the WSDL "port" in Listing 2).
    pub name: String,
    /// Target namespace, e.g. `urn:security-manager-service`.
    pub target_ns: String,
    /// Published operations.
    pub operations: Vec<OperationDesc>,
}

impl ServiceDescription {
    /// Start a description.
    pub fn new(name: &str, target_ns: &str) -> ServiceDescription {
        ServiceDescription {
            name: name.to_string(),
            target_ns: target_ns.to_string(),
            operations: Vec::new(),
        }
    }

    /// Builder: add an operation.
    pub fn operation(
        mut self,
        name: &str,
        doc: &str,
        params: &[(&str, &str)],
    ) -> ServiceDescription {
        self.operations.push(OperationDesc {
            name: name.to_string(),
            doc: doc.to_string(),
            soap_action: format!("{}:{}", self.target_ns, name),
            params: params
                .iter()
                .map(|(n, t)| ParamDesc {
                    name: n.to_string(),
                    type_name: t.to_string(),
                })
                .collect(),
            unsupported: false,
        });
        self
    }

    /// Builder: add an operation `deflink` must refuse to bridge.
    pub fn unsupported_operation(mut self, name: &str, doc: &str) -> ServiceDescription {
        self.operations.push(OperationDesc {
            name: name.to_string(),
            doc: doc.to_string(),
            soap_action: format!("{}:{}", self.target_ns, name),
            params: Vec::new(),
            unsupported: true,
        });
        self
    }

    /// Look up an operation by name.
    pub fn find_operation(&self, name: &str) -> Option<&OperationDesc> {
        self.operations.iter().find(|o| o.name == name)
    }

    /// Serialize to the interface-document XML.
    pub fn to_xml(&self) -> String {
        let mut root = Element::qualified("urn:wsdl", "definitions")
            .attr("name", &self.name)
            .attr("targetNamespace", &self.target_ns);
        for op in &self.operations {
            let mut e = Element::new("operation")
                .attr("name", &op.name)
                .attr("soapAction", &op.soap_action);
            if op.unsupported {
                e = e.attr("unsupported", "true");
            }
            e = e.child(Element::new("documentation").text(&op.doc));
            let mut input = Element::new("input");
            for p in &op.params {
                input = input.child(
                    Element::new("part")
                        .attr("name", &p.name)
                        .attr("type", &p.type_name),
                );
            }
            e = e.child(input);
            root = root.child(e);
        }
        root.to_xml()
    }

    /// Parse an interface document.
    pub fn from_xml(xml: &str) -> Result<ServiceDescription, ParseError> {
        let root = parse(xml)?;
        let bad = |message: &str| ParseError {
            message: message.to_string(),
            offset: 0,
        };
        if root.name.local != "definitions" {
            return Err(bad("expected <definitions> root"));
        }
        let name = root
            .get_attr("name")
            .ok_or_else(|| bad("missing service name"))?
            .to_string();
        let target_ns = root
            .get_attr("targetNamespace")
            .ok_or_else(|| bad("missing targetNamespace"))?
            .to_string();
        let mut desc = ServiceDescription {
            name,
            target_ns,
            operations: Vec::new(),
        };
        for op in root.find_all("operation") {
            let name = op
                .get_attr("name")
                .ok_or_else(|| bad("operation missing name"))?
                .to_string();
            let soap_action = op.get_attr("soapAction").unwrap_or_default().to_string();
            let doc = op
                .find("documentation")
                .map(Element::text_content)
                .unwrap_or_default();
            let params = op
                .find("input")
                .map(|input| {
                    input
                        .find_all("part")
                        .map(|p| ParamDesc {
                            name: p.get_attr("name").unwrap_or_default().to_string(),
                            type_name: p.get_attr("type").unwrap_or("any").to_string(),
                        })
                        .collect()
                })
                .unwrap_or_default();
            desc.operations.push(OperationDesc {
                name,
                doc,
                soap_action,
                params,
                unsupported: op.get_attr("unsupported") == Some("true"),
            });
        }
        Ok(desc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ServiceDescription {
        ServiceDescription::new("SecurityManager", "urn:security-manager-service")
            .operation(
                "ListSessions",
                "Returns a list of sessions visible to the caller.",
                &[("FilterParams", "string"), ("WithinRealm", "string")],
            )
            .operation("Ping", "Liveness check.", &[])
            .unsupported_operation("NativeCall", "Cannot be bridged.")
    }

    #[test]
    fn xml_roundtrip() {
        let desc = sample();
        let xml = desc.to_xml();
        let back = ServiceDescription::from_xml(&xml).unwrap();
        assert_eq!(back, desc);
    }

    #[test]
    fn lookup_and_flags() {
        let desc = sample();
        let op = desc.find_operation("ListSessions").unwrap();
        assert_eq!(op.params.len(), 2);
        assert_eq!(op.soap_action, "urn:security-manager-service:ListSessions");
        assert!(!op.unsupported);
        assert!(desc.find_operation("NativeCall").unwrap().unsupported);
        assert!(desc.find_operation("Missing").is_none());
    }
}
