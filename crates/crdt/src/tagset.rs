//! The set of add tags one element holds: what every add-wins entry,
//! observed-remove victim list and transaction-overlay copy stores.
//!
//! Nearly every live element holds exactly one tag (two or more only
//! while concurrent adds of the same element are unremoved), so the set
//! is inline until it really holds two: 24 bytes, no heap.
//!
//! The representation is canonical — `Many` is sorted, duplicate-free and
//! never shorter than two — so the derived `==` is *set* equality:
//! replicas that reach `{t}` through different add/remove orders compare
//! equal, which convergence checks on whole objects rely on.

use crate::tag::Tag;

/// A set of [`Tag`]s, iterated in `Tag` order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TagSet(Repr);

#[derive(Clone, Debug, Default, PartialEq, Eq)]
enum Repr {
    #[default]
    Empty,
    One(Tag),
    Many(Vec<Tag>),
}

impl TagSet {
    pub fn is_empty(&self) -> bool {
        matches!(self.0, Repr::Empty)
    }

    pub fn iter(&self) -> std::slice::Iter<'_, Tag> {
        match &self.0 {
            Repr::Empty => [].iter(),
            Repr::One(t) => std::slice::from_ref(t).iter(),
            Repr::Many(tags) => tags.iter(),
        }
    }

    pub fn insert(&mut self, tag: Tag) {
        match &mut self.0 {
            Repr::Empty => self.0 = Repr::One(tag),
            Repr::One(t) if *t == tag => {}
            Repr::One(t) => {
                let (lo, hi) = if *t < tag { (*t, tag) } else { (tag, *t) };
                self.0 = Repr::Many(vec![lo, hi]);
            }
            Repr::Many(tags) => {
                if let Err(at) = tags.binary_search(&tag) {
                    tags.insert(at, tag);
                }
            }
        }
    }

    pub fn remove(&mut self, tag: &Tag) {
        match &mut self.0 {
            Repr::One(t) if t == tag => self.0 = Repr::Empty,
            Repr::Many(tags) => {
                if let Ok(at) = tags.binary_search(tag) {
                    tags.remove(at);
                    if let [last] = tags[..] {
                        self.0 = Repr::One(last);
                    }
                }
            }
            _ => {}
        }
    }
}

impl FromIterator<Tag> for TagSet {
    fn from_iter<I: IntoIterator<Item = Tag>>(iter: I) -> Self {
        let mut set = TagSet::default();
        iter.into_iter().for_each(|t| set.insert(t));
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::ReplicaId;
    use crate::value::Val;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;
    use std::mem::size_of;

    #[test]
    fn sizes_are_pinned() {
        assert!(size_of::<TagSet>() <= 24);
        assert!(size_of::<(Val, TagSet)>() <= 56);
        assert!(size_of::<crate::ObjectOp>() <= 128);
    }

    /// Seeded differential test against `BTreeSet<Tag>`: same membership,
    /// iteration order and emptiness after every step, and the canonical
    /// variant for the size the model says the set has.
    #[test]
    fn behaves_like_a_btreeset_and_stays_canonical() {
        for seed in 0..64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut set = TagSet::default();
            let mut model = BTreeSet::new();
            for _ in 0..400 {
                // A small tag space so inserts hit present tags, removes
                // hit absent ones, and the set crosses 0/1/2 often.
                let tag = Tag::new(ReplicaId(rng.gen_range(0..3)), rng.gen_range(0..3));
                if rng.gen_bool(0.5) {
                    set.insert(tag);
                    model.insert(tag);
                } else {
                    set.remove(&tag);
                    model.remove(&tag);
                }
                assert!(set.iter().eq(model.iter()), "seed {seed}: {set:?}");
                assert_eq!(set.is_empty(), model.is_empty());
                assert_eq!(set, model.iter().copied().collect::<TagSet>());
                match (&set.0, model.len()) {
                    (Repr::Empty, 0) | (Repr::One(_), 1) => {}
                    (Repr::Many(tags), n) if n >= 2 => assert_eq!(tags.len(), n),
                    (repr, n) => panic!("seed {seed}: {repr:?} holds {n} tags"),
                }
            }
        }
    }
}
