//! Sorts (entity types), variables, constants and terms.

use crate::symbol::Symbol;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A sort is an entity type of the application domain, e.g. `Player` or
/// `Tournament`. All variables and constants carry their sort so that the
/// analysis can instantiate quantifiers with well-typed universes.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Sort(pub Symbol);

impl Sort {
    pub fn new(name: impl Into<Symbol>) -> Self {
        Sort(name.into())
    }

    pub fn name(&self) -> &Symbol {
        &self.0
    }
}

impl fmt::Display for Sort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Debug for Sort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sort({})", self.0)
    }
}

impl From<&str> for Sort {
    fn from(s: &str) -> Self {
        Sort::new(s)
    }
}

/// A typed logical variable, e.g. `p : Player`.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Var {
    pub name: Symbol,
    pub sort: Sort,
}

impl Var {
    pub fn new(name: impl Into<Symbol>, sort: impl Into<Sort>) -> Self {
        Var {
            name: name.into(),
            sort: sort.into(),
        }
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.sort, self.name)
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

/// A typed constant (an element of a sort's universe), e.g. the concrete
/// player `P1`. Constants are produced by the analysis when instantiating
/// operation parameters and quantifiers over a small scope.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Constant {
    pub name: Symbol,
    pub sort: Sort,
}

impl Constant {
    pub fn new(name: impl Into<Symbol>, sort: impl Into<Sort>) -> Self {
        Constant {
            name: name.into(),
            sort: sort.into(),
        }
    }
}

impl fmt::Display for Constant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

impl fmt::Debug for Constant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.name, self.sort)
    }
}

/// A term: an argument position of a predicate atom or effect.
///
/// The wildcard `*` is the paper's §3.3 device for effects that apply to
/// *every* element of a position's sort — e.g. `enrolled(*, t) = false`
/// ("no player is enrolled in `t`"). In invariants a wildcard inside a
/// count expression `#enrolled(*, t)` ranges over the whole universe.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Term {
    Var(Var),
    Const(Constant),
    Wildcard,
}

impl Term {
    /// The sort of this term, if determined by the term itself.
    /// Wildcards take their sort from the predicate declaration.
    pub fn sort(&self) -> Option<&Sort> {
        match self {
            Term::Var(v) => Some(&v.sort),
            Term::Const(c) => Some(&c.sort),
            Term::Wildcard => None,
        }
    }

    pub fn is_wildcard(&self) -> bool {
        matches!(self, Term::Wildcard)
    }

    pub fn as_var(&self) -> Option<&Var> {
        match self {
            Term::Var(v) => Some(v),
            _ => None,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{}", v.name),
            Term::Const(c) => write!(f, "{}", c.name),
            Term::Wildcard => write!(f, "*"),
        }
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl From<Var> for Term {
    fn from(v: Var) -> Self {
        Term::Var(v)
    }
}

impl From<Constant> for Term {
    fn from(c: Constant) -> Self {
        Term::Const(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorts_and_vars_display() {
        let s = Sort::new("Player");
        let v = Var::new("p", s.clone());
        assert_eq!(v.to_string(), "Player:p");
        let c = Constant::new("P1", s);
        assert_eq!(c.to_string(), "P1");
    }

    #[test]
    fn term_kinds() {
        let v = Var::new("p", Sort::new("Player"));
        let t: Term = v.clone().into();
        assert_eq!(t.as_var(), Some(&v));
        assert!(!t.is_wildcard());
        assert!(Term::Wildcard.is_wildcard());
        assert_eq!(Term::Wildcard.sort(), None);
        assert_eq!(t.sort(), Some(&Sort::new("Player")));
        assert_eq!(Term::Wildcard.to_string(), "*");
    }

    #[test]
    fn constants_are_ordered_within_sort() {
        let s = Sort::new("T");
        let a = Constant::new("A", s.clone());
        let b = Constant::new("B", s);
        assert!(a < b);
    }
}
