//! Store errors.

use crate::key::Key;
use ipa_crdt::ReplicaId;
use std::fmt;

/// Errors surfaced by the store and transaction layers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The key does not exist (and the operation cannot create it).
    NoSuchObject(Key),
    /// The key's object is not of the type the accessor expects.
    WrongType { key: Key, expected: &'static str },
    /// An escrow decrement exceeded the replica's local rights
    /// (bounded counter / reservation path).
    InsufficientRights { key: Key },
    /// The replica is down (crashed by fault injection) and refuses
    /// transactions until restarted.
    Unavailable(ReplicaId),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NoSuchObject(k) => write!(f, "no such object: {k}"),
            StoreError::WrongType { key, expected } => {
                write!(f, "key {key} is not a {expected}")
            }
            StoreError::InsufficientRights { key } => {
                write!(f, "insufficient escrow rights on {key}")
            }
            StoreError::Unavailable(r) => write!(f, "replica {} is down", r.0),
        }
    }
}

impl std::error::Error for StoreError {}
