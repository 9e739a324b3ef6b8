//! Global symbol interning.
//!
//! Gozer symbols are interned process-wide: two occurrences of the same
//! name always compare equal by integer id, which keeps `Value` small and
//! makes symbol comparison O(1) in the interpreter's hot path. The interner
//! never frees names; a workflow program uses a bounded set of symbols so
//! this mirrors the behaviour of a Lisp package system.

use std::fmt;
use std::sync::OnceLock;

use parking_lot::RwLock;
use rustc_hash::FxHashMap;

/// An interned symbol name. Copyable, `O(1)` comparison and hashing.
///
/// Symbols are case-sensitive (a deliberate simplification relative to
/// Common Lisp's upcasing reader; the paper's listings are all lowercase).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

struct Interner {
    names: Vec<&'static str>,
    ids: FxHashMap<&'static str, u32>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            names: Vec::with_capacity(1024),
            ids: FxHashMap::with_capacity_and_hasher(1024, Default::default()),
        })
    })
}

impl Symbol {
    /// Intern `name`, returning its unique id.
    pub fn intern(name: &str) -> Symbol {
        {
            let rd = interner().read();
            if let Some(&id) = rd.ids.get(name) {
                return Symbol(id);
            }
        }
        let mut wr = interner().write();
        if let Some(&id) = wr.ids.get(name) {
            return Symbol(id);
        }
        // Leaking is intentional: the symbol table lives for the process
        // lifetime and leaking lets us hand out `&'static str` names.
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let id = wr.names.len() as u32;
        wr.names.push(leaked);
        wr.ids.insert(leaked, id);
        Symbol(id)
    }

    /// The symbol's print name.
    pub fn name(self) -> &'static str {
        interner().read().names[self.0 as usize]
    }
}

/// Convenience free function mirroring [`Symbol::name`].
pub fn symbol_name(sym: Symbol) -> &'static str {
    sym.name()
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({})", self.name())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        Symbol::intern(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::intern("foo");
        let b = Symbol::intern("foo");
        assert_eq!(a, b);
        assert_eq!(a.name(), "foo");
    }

    #[test]
    fn distinct_names_distinct_ids() {
        let a = Symbol::intern("alpha-1");
        let b = Symbol::intern("alpha-2");
        assert_ne!(a, b);
    }

    #[test]
    fn case_sensitive() {
        assert_ne!(Symbol::intern("Foo"), Symbol::intern("foo"));
    }

    #[test]
    fn concurrent_interning() {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    // Every thread interns the same 200 names; the ids
                    // must agree regardless of interleaving.
                    let _ = t;
                    (0..200)
                        .map(|i| Symbol::intern(&format!("sym-{i}")))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<Symbol>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for w in results.windows(2) {
            assert_eq!(w[0], w[1]);
        }
    }

    #[test]
    fn display_matches_name() {
        let s = Symbol::intern("display-me");
        assert_eq!(format!("{s}"), "display-me");
        assert!(format!("{s:?}").contains("display-me"));
    }
}
