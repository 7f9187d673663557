//! Object keys.
//!
//! A [`Key`] is a shared immutable name (`Arc<str>`), and the table that
//! holds an object is the interner of its key: replica and transaction
//! entry points look an object up by `&str` (`Key: Borrow<str>`) and take
//! the owned `Key` an update or an overlay entry needs as a clone of the
//! table's own, so naming an existing object never allocates. Only
//! creating an object (`ensure` of a key not yet stored) builds a `Key`.

use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

/// A key naming one CRDT object in the store. Applications typically use
/// structured names like `"tournament:players"` or `"timeline:alice"`.
///
/// Cloning — which the replication hot path does once per update in
/// `apply_batch` and per touched object in transaction overlays — is a
/// reference-count bump, never a heap copy of the string. Hashing and
/// equality are the string's, as `Borrow<str>` requires.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Key(Arc<str>);

impl Key {
    pub fn new(s: impl Into<Arc<str>>) -> Key {
        Key(s.into())
    }

    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Key({})", self.0)
    }
}

impl Borrow<str> for Key {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Key {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Key {
    fn from(s: &str) -> Key {
        Key::new(s)
    }
}

impl From<String> for Key {
    fn from(s: String) -> Key {
        Key::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_basics() {
        let k: Key = "tournament:players".into();
        assert_eq!(k.as_str(), "tournament:players");
        assert_eq!(k.to_string(), "tournament:players");
        assert_eq!(format!("{k:?}"), "Key(tournament:players)");
    }

    #[test]
    fn a_table_keyed_by_key_is_probed_by_str() {
        let mut table = std::collections::HashMap::new();
        table.insert(Key::new("tournament:players"), 7);
        let (interned, v) = table.get_key_value("tournament:players").unwrap();
        assert_eq!((interned.as_str(), *v), ("tournament:players", 7));
        assert!(!table.contains_key("tournament"));
    }

    #[test]
    fn clones_share_the_backing_allocation() {
        let k: Key = "hot:key".into();
        let c = k.clone();
        assert_eq!(k, c);
        assert!(
            std::ptr::eq(k.as_str(), c.as_str()),
            "clone must not copy the string"
        );
    }
}
