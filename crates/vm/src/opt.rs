//! Interpreter optimization switches.
//!
//! All of the PR-10 speed work — superinstruction fusion, the
//! generation-stamped global inline caches, frame pooling, and the
//! inline arithmetic/closure-call fast paths — is *semantics-preserving*
//! and individually defeatable, which is what the differential tests
//! lean on: the same program must produce the same value **and the same
//! profiler opcode/pair counts** at every level.
//!
//! One environment knob (read at [`crate::Gvm`] construction and, for
//! fusion, at compile time): `GVM_OPT=full` (default) | `nofuse` |
//! `off`. `nofuse` is the escape hatch the differential sweeps use.
//!
//! Fusion is a property of compiled [`crate::bytecode::Program`]s, not
//! of the interpreter, so tests that need both modes in one process use
//! [`set_fuse_override`] around compilation (compilation happens on the
//! calling thread — see [`crate::Gvm::load_str`]).

use std::cell::Cell;

/// Which optimizations are active for a VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptConfig {
    /// Compile-time superinstruction fusion (keep-second-slot pairs).
    pub fuse: bool,
    /// Generation-stamped inline caches for `LoadGlobal`.
    pub inline_caches: bool,
    /// Per-activation frame recycling.
    pub frame_pool: bool,
    /// Inline two-int arithmetic and zero-alloc closure calls.
    pub fast_paths: bool,
}

impl OptConfig {
    /// Everything on — the default.
    pub fn full() -> OptConfig {
        OptConfig {
            fuse: true,
            inline_caches: true,
            frame_pool: true,
            fast_paths: true,
        }
    }

    /// Fusion off, everything else on (`GVM_OPT=nofuse`).
    pub fn no_fuse() -> OptConfig {
        OptConfig {
            fuse: false,
            ..OptConfig::full()
        }
    }

    /// Everything off: the pre-optimization interpreter, kept as the
    /// reference implementation for differential testing and the
    /// speedup gate of `cargo run --release -p gozer-bench -- gvm`.
    pub fn off() -> OptConfig {
        OptConfig {
            fuse: false,
            inline_caches: false,
            frame_pool: false,
            fast_paths: false,
        }
    }

    /// Read the `GVM_OPT` environment knob.
    pub fn from_env() -> OptConfig {
        match std::env::var("GVM_OPT").as_deref() {
            Ok("off") => OptConfig::off(),
            Ok("nofuse") => OptConfig::no_fuse(),
            _ => OptConfig::full(),
        }
    }
}

impl Default for OptConfig {
    fn default() -> OptConfig {
        OptConfig::full()
    }
}

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

/// Whether the compiler should fuse, honoring the thread override.
pub(crate) fn fusion_enabled() -> bool {
    FUSE_OVERRIDE.with(|c| c.get()).unwrap_or_else(|| OptConfig::from_env().fuse)
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

    #[test]
    fn levels() {
        assert!(OptConfig::full().fuse);
        assert!(!OptConfig::no_fuse().fuse);
        assert!(OptConfig::no_fuse().inline_caches);
        assert!(!OptConfig::off().fast_paths);
    }
}
