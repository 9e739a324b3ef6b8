//! Service descriptions.
//!
//! Every BlueBox service publishes a description of its operations
//! (§3.3; the paper's WSDL document). The broker's registry hands it to
//! Vinz's `deflink` as typed data, and `deflink` generates one Gozer
//! function per operation — including the operation documentation,
//! which Listing 2 shows surviving into the generated stubs.

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
    fn lookup_and_flags() {
        let desc = sample();
        let [list, ping, native] = &desc.operations[..] else {
            panic!("three operations expected");
        };
        assert_eq!(list.params.len(), 2);
        assert_eq!(
            list.soap_action,
            "urn:security-manager-service:ListSessions"
        );
        assert!(!list.unsupported);
        assert!(ping.params.is_empty());
        assert!(native.unsupported);
    }
}
