#![warn(missing_docs)]

//! Foundation of the Gozer language: runtime values, interned symbols, the
//! reader (parser) with Common-Lisp-style reader macros, and the printer.
//!
//! Gozer is the Lisp dialect described in *"The Gozer Workflow System"*
//! (IPPS 2010). This crate is deliberately independent of the virtual
//! machine: the reader calls back into its embedder through the
//! [`ReadEval`] trait whenever a user-defined reader macro (installed with
//! `set-macro-character`, see Listing 5 of the paper) must run Gozer code.
//!
//! # Example
//!
//! ```
//! use gozer_lang::{Reader, Value};
//! let forms = Reader::read_all_str("(+ 1 2) ; comment\n[3 4]").unwrap();
//! assert_eq!(forms.len(), 2);
//! assert_eq!(forms[0].to_string(), "(+ 1 2)");
//! ```

pub mod error;
pub mod printer;
pub mod reader;
pub mod symbol;
pub mod value;

pub use error::LangError;
pub use reader::{Cursor, NoEval, ReadEval, ReadTable, Reader};
pub use symbol::{symbol_name, Symbol};
pub use value::{AssocMap, Callable, Opaque, Value};
