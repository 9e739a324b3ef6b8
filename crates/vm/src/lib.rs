#![warn(missing_docs)]

//! # The Gozer Virtual Machine (GVM)
//!
//! Implementation of the language runtime described in §4.1 of *"The
//! Gozer Workflow System"* (IPPS 2010): a bytecode compiler and a
//! stack-oriented interpreter whose call stack is ordinary heap data, so
//! any flow of control can be captured as a **serializable continuation**
//! (`yield` / `push-cc`), persisted, migrated to another node, and
//! resumed — the mechanism underlying Vinz's distributed workflows.
//!
//! The GVM also provides:
//!
//! * **Futures** (§2): Multilisp-style transparent promises executed on a
//!   thread pool, with the determination rules of §4.1 (forced when passed
//!   to natives, and before any continuation capture).
//! * **The condition system** (§3.7): handlers that run *without
//!   unwinding*, restarts, and non-local transfers, on which Vinz builds
//!   `defhandler`/`with-handler`.
//! * A substantial native library plus a Gozer-source prelude.
//!
//! # Quick start
//!
//! ```
//! use gozer_vm::Gvm;
//!
//! let gvm = Gvm::new();
//! let v = gvm.eval_str("(+ 1 (* 2 3))").unwrap();
//! assert_eq!(v, gozer_lang::Value::Int(7));
//!
//! // Local parallelism with futures (Listing 1's par-sum-squares):
//! let v = gvm
//!     .eval_str(
//!         "(apply #'+ (loop for n in (range 1 5) collect (future (* n n))))",
//!     )
//!     .unwrap();
//! assert_eq!(v, gozer_lang::Value::Int(30));
//! ```

pub mod bytecode;
pub mod compiler;
pub mod conditions;
pub mod error;
pub mod fiber;
pub(crate) mod fuse;
pub mod gvm;
pub mod interp;
pub mod natives;
pub mod opt;
pub mod pool;
pub mod profile;
pub mod runtime;
pub mod verify;

pub use bytecode::{disassemble, fnv1a64, Chunk, Op, Program, ProgramRef};
pub use compiler::{Compiler, MacroHost};
pub use conditions::Condition;
pub use error::{Unwind, VmError, VmResult};
pub use fiber::{DynState, FiberExt, FiberState, Frame, RunOutcome, SeedCache, Suspension};
pub use gvm::{FiberObsEvent, FiberObsKind, FiberObserver, Gvm, GvmHost, NativeCtx};
pub use natives::ObjectVal;
pub use opt::{set_fuse_override, OptConfig};
pub use pool::ThreadPool;
pub use verify::verify_program;
pub use profile::{VmProfiler, OPCODE_COUNT, OPCODE_NAMES};
pub use runtime::{force, Closure, ContinuationVal, Fast2, FutureVal, NativeFn, NativeOutcome};
