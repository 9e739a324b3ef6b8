//! The interpreter's one switch: superinstruction fusion.
//!
//! Everything else the dispatch loop does for speed — the
//! generation-stamped global inline caches, frame pooling, and the
//! inline arithmetic/closure-call fast paths — is unconditional. Fusion
//! stays switchable because it changes the bytecode itself, and the
//! differential tests lean on that: the same program must produce the
//! same value **and the same profiler opcode/pair counts** fused and
//! unfused.
//!
//! Fusion is a property of compiled [`crate::bytecode::Program`]s, not
//! of the interpreter. `GVM_OPT=nofuse` turns it off for a process;
//! tests that need both modes in one process use [`set_fuse_override`]
//! around compilation (compilation happens on the calling thread — see
//! [`crate::Gvm::load_str`]).

use std::cell::Cell;

thread_local! {
    static FUSE_OVERRIDE: Cell<Option<bool>> = const { Cell::new(None) };
}

/// Force fusion on or off for programs compiled **on this thread**,
/// overriding the environment; `None` restores the environment default.
/// In-process differential tests compile the same source twice under
/// opposite overrides.
pub fn set_fuse_override(v: Option<bool>) {
    FUSE_OVERRIDE.with(|c| c.set(v));
}

/// Whether the compiler should fuse: the thread override if set, else
/// on unless `GVM_OPT=nofuse`.
pub(crate) fn fusion_enabled() -> bool {
    FUSE_OVERRIDE
        .with(|c| c.get())
        .unwrap_or_else(|| std::env::var("GVM_OPT").as_deref() != Ok("nofuse"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn override_wins_over_env() {
        set_fuse_override(Some(false));
        assert!(!fusion_enabled());
        set_fuse_override(Some(true));
        assert!(fusion_enabled());
        set_fuse_override(None);
    }
}
