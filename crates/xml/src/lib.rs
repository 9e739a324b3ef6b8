#![warn(missing_docs)]

//! # gozer-xml
//!
//! Service descriptions for the BlueBox substrate: the operations a
//! service offers, with their documentation, SOAP actions and
//! parameters. In the paper (§3.3) "each service describes the
//! operations it offers with an XML document called a WSDL", which
//! `deflink` fetches to generate client stubs. Here the broker's
//! registry hands `deflink` the description as typed data, as message
//! bodies are `gozer-serial` data and not SOAP, so no XML text is ever
//! written or read.

pub mod wsdl;

pub use wsdl::{OperationDesc, ParamDesc, ServiceDescription};
