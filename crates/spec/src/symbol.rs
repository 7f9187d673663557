//! Shared immutable names used throughout the specification AST.

use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

/// A name: predicate, sort, variable or constant identifier.
///
/// A symbol is an `Arc<str>`: the analysis clones names into every atom,
/// substitution and grounded formula it builds, and each clone is a
/// reference-count bump, never a copy of the string. Order, equality and
/// hashing are the string's, so `Borrow<str>` lookups work. At
/// static-analysis scale (dozens of operations, a handful of predicates) a
/// global interner is unnecessary.
#[derive(Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Symbol(Arc<str>);

impl Symbol {
    /// Create a new symbol from anything string-like.
    pub fn new(s: impl Into<Arc<str>>) -> Self {
        Symbol(s.into())
    }

    /// View the symbol as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "`{}`", self.0)
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        Symbol(s.into())
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Self {
        Symbol(s.into())
    }
}

impl Borrow<str> for Symbol {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Symbol {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        &*self.0 == *other
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn symbol_roundtrip_and_lookup() {
        let s = Symbol::new("enrolled");
        assert_eq!(s.as_str(), "enrolled");
        assert_eq!(s, "enrolled");
        let mut m: HashMap<Symbol, u32> = HashMap::new();
        m.insert(s.clone(), 7);
        // Borrow<str> lets us look up by &str without allocating.
        assert_eq!(m.get("enrolled"), Some(&7));
        assert_eq!(format!("{s}"), "enrolled");
        assert_eq!(format!("{s:?}"), "`enrolled`");
    }

    #[test]
    fn symbol_ordering_is_lexicographic() {
        let a = Symbol::new("alpha");
        let b = Symbol::new("beta");
        assert!(a < b);
    }
}
