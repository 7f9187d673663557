//! Invariant-violation scanners: evaluate each application's invariants
//! against a replica's materialized state and count the broken instances.
//!
//! These are the "Inv. violations count" of the paper's Figure 7 and the
//! ground truth for the integration tests (Causal violates, IPA does not).

use crate::tournament::runtime as tourn;
use ipa_crdt::{Object, Val};
use ipa_store::Replica;
use std::collections::BTreeMap;

/// Call `f` on each member of a set-like object (the keys of a map),
/// borrowed from the replica's state; nothing for a missing key.
fn for_each_member(replica: &Replica, key: &str, f: impl FnMut(&Val)) {
    match replica.object(key) {
        Some(Object::AWSet(s)) => s.elements().for_each(f),
        Some(Object::RWSet(s)) => s.elements().for_each(f),
        Some(Object::AWMap(m)) => m.keys().for_each(f),
        Some(Object::CompSet(s)) => {
            // Raw view: includes excess not yet compensated.
            let read = s.read();
            read.elements.iter().chain(&read.cancelled).for_each(f);
        }
        _ => {}
    }
}

fn member_count(replica: &Replica, key: &str) -> usize {
    let mut n = 0;
    for_each_member(replica, key, |_| n += 1);
    n
}

fn contains(replica: &Replica, key: &str, v: &Val) -> bool {
    replica
        .object(key)
        .and_then(|o| o.set_contains(v))
        .unwrap_or(false)
}

/// `enrolled(p, t) ⇒ player(p) ∧ tournament(t)` — count of orphan
/// enrollments.
pub fn tournament_enrollment_referential(replica: &Replica) -> u64 {
    let mut violations = 0u64;
    for_each_member(replica, tourn::ENROLLED, |e| {
        let (Some(p), Some(t)) = (e.fst(), e.snd()) else {
            return;
        };
        if !contains(replica, tourn::PLAYERS, p) || !contains(replica, tourn::TOURNS, t) {
            violations += 1;
        }
    });
    violations
}

/// `inMatch(p, q, t) ⇒ enrolled(p,t) ∧ enrolled(q,t)` — count of
/// matches with missing enrollments (touch-protected under IPA, so this
/// part holds continuously).
pub fn tournament_match_referential(replica: &Replica) -> u64 {
    let mut violations = 0u64;
    for_each_member(replica, tourn::MATCHES, |m| {
        let (Some(p), Some(q), Some(t)) = (m.fst(), m.snd(), m.thd()) else {
            return;
        };
        let ep = Val::pair(p.clone(), t.clone());
        let eq = Val::pair(q.clone(), t.clone());
        if !contains(replica, tourn::ENROLLED, &ep) || !contains(replica, tourn::ENROLLED, &eq) {
            violations += 1;
        }
    });
    violations
}

/// `inMatch(p, q, t) ⇒ active(t) ∨ finished(t)` — count of matches in a
/// tournament that is neither running nor finished. This disjunction is
/// *not* effect-preserved by the per-predicate resolution: two
/// concurrent finish→begin(restart) chains can annihilate both phase
/// marks (each begin observed-removes its own branch's `finished` tag,
/// each rem-wins finish defeats the other branch's concurrent `active`
/// add). IPA repairs it with the `status` read-side compensation, so it
/// is a final-phase invariant like capacity.
pub fn tournament_match_phase(replica: &Replica) -> u64 {
    let mut violations = 0u64;
    for_each_member(replica, tourn::MATCHES, |m| {
        let Some(t) = m.thd() else { return };
        if !contains(replica, tourn::ACTIVE, t) && !contains(replica, tourn::FINISHED, t) {
            violations += 1;
        }
    });
    violations
}

/// `#enrolled(*, t) ≤ Capacity` — count of over-capacity tournaments.
pub fn tournament_capacity(replica: &Replica) -> u64 {
    let mut per_tourn: BTreeMap<Val, usize> = BTreeMap::new();
    for_each_member(replica, tourn::ENROLLED, |e| {
        if let Some(t) = e.snd() {
            *per_tourn.entry(t.clone()).or_insert(0) += 1;
        }
    });
    per_tourn.values().filter(|&&n| n > tourn::CAPACITY).count() as u64
}

/// `active(t) ⇒ tournament(t)`, `finished(t) ⇒ tournament(t)`,
/// `¬(active(t) ∧ finished(t))` — phase referential integrity and
/// mutual exclusion.
pub fn tournament_phase(replica: &Replica) -> u64 {
    let mut violations = 0u64;
    for_each_member(replica, tourn::ACTIVE, |t| {
        if !contains(replica, tourn::TOURNS, t) {
            violations += 1;
        }
        if contains(replica, tourn::FINISHED, t) {
            violations += 1;
        }
    });
    for_each_member(replica, tourn::FINISHED, |t| {
        if !contains(replica, tourn::TOURNS, t) {
            violations += 1;
        }
    });
    violations
}

/// Count violated invariant instances of the Tournament app (Fig. 1) —
/// the sum over the registry's individual checks.
pub fn tournament_violations(replica: &Replica) -> u64 {
    tournament_enrollment_referential(replica)
        + tournament_match_referential(replica)
        + tournament_match_phase(replica)
        + tournament_capacity(replica)
        + tournament_phase(replica)
}

/// Count oversold events in the Ticket app: raw set size beyond capacity
/// (under Causal the set is a plain AWSet keyed per event).
pub fn ticket_violations(replica: &Replica, events: &[String], capacity: usize) -> u64 {
    let mut v = 0;
    for e in events {
        let key = format!("ticket/sold/{e}");
        if member_count(replica, &key) > capacity {
            v += 1;
        }
    }
    v
}

/// Count oversold events in the escrow ticket-sale app, where each
/// event carries its own capacity (one contended hot event plus a cheap
/// tail). Unlike [`ticket_violations`] this is a *continuous* invariant
/// for the escrow backend: rights are consumed before a purchase
/// commits, so no causal replica state may ever exceed a capacity.
pub fn sale_violations(replica: &Replica, events: &[(String, usize)]) -> u64 {
    let mut v = 0;
    for (e, cap) in events {
        let key = format!("ticket/sold/{e}");
        if member_count(replica, &key) > *cap {
            v += 1;
        }
    }
    v
}

/// Timeline entries whose tweet no longer exists.
pub fn twitter_timeline_referential(replica: &Replica) -> u64 {
    let mut v = 0;
    for_each_member(replica, crate::twitter::runtime::ENTRIES, |e| {
        let (Some(tweet), Some(_author)) = (e.snd(), e.thd()) else {
            return;
        };
        if !contains(replica, crate::twitter::runtime::TWEETS, tweet) {
            v += 1;
        }
    });
    v
}

/// Follow edges with missing users on either end.
pub fn twitter_follow_referential(replica: &Replica) -> u64 {
    let mut v = 0;
    for_each_member(replica, crate::twitter::runtime::FOLLOWS, |f| {
        let (Some(a), Some(b)) = (f.fst(), f.snd()) else {
            return;
        };
        if !contains(replica, crate::twitter::runtime::USERS, a)
            || !contains(replica, crate::twitter::runtime::USERS, b)
        {
            v += 1;
        }
    });
    v
}

/// Count Twitter referential-integrity violations: timeline entries whose
/// tweet no longer exists, and follow edges with missing users.
pub fn twitter_violations(replica: &Replica) -> u64 {
    twitter_timeline_referential(replica) + twitter_follow_referential(replica)
}

/// Negative stock counters (the TPC numeric invariant).
pub fn tpc_stock_nonnegative(replica: &Replica, items: &[String]) -> u64 {
    let mut v = 0;
    for i in items {
        if let Some(obj) = replica.object(&format!("tpc/stock/{i}")) {
            if let Some(c) = obj.as_pncounter() {
                if c.value() < 0 {
                    v += 1;
                }
            }
        }
    }
    v
}

/// Orders referencing missing products (TPC referential integrity).
pub fn tpc_order_referential(replica: &Replica) -> u64 {
    let mut v = 0;
    for_each_member(replica, crate::tpc::runtime::ORDERS, |o| {
        if let Some(p) = o.snd() {
            if !contains(replica, crate::tpc::runtime::PRODUCTS, p) {
                v += 1;
            }
        }
    });
    v
}

/// Count TPC violations: negative stock values and orders referencing
/// missing products.
pub fn tpc_violations(replica: &Replica, items: &[String]) -> u64 {
    tpc_stock_nonnegative(replica, items) + tpc_order_referential(replica)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_crdt::{ObjectKind, ReplicaId};

    #[test]
    fn empty_replica_has_no_violations() {
        let r = Replica::new(ReplicaId(0));
        assert_eq!(tournament_violations(&r), 0);
        assert_eq!(twitter_violations(&r), 0);
        assert_eq!(tpc_violations(&r, &["i1".into()]), 0);
    }

    #[test]
    fn orphan_enrollment_is_counted() {
        let mut r = Replica::new(ReplicaId(0));
        let mut tx = r.begin();
        tx.ensure(tourn::ENROLLED, ObjectKind::AWSet).unwrap();
        tx.aw_add(tourn::ENROLLED, Val::pair("p1", "ghost"))
            .unwrap();
        tx.commit();
        assert_eq!(tournament_violations(&r), 1);
    }

    #[test]
    fn capacity_violation_is_counted() {
        let mut r = Replica::new(ReplicaId(0));
        let mut tx = r.begin();
        tx.ensure(tourn::ENROLLED, ObjectKind::AWSet).unwrap();
        tx.ensure(tourn::PLAYERS, ObjectKind::AWMap).unwrap();
        tx.ensure(tourn::TOURNS, ObjectKind::AWMap).unwrap();
        tx.map_put(tourn::TOURNS, Val::str("t"), Val::str("m"))
            .unwrap();
        for i in 0..=tourn::CAPACITY {
            let p = format!("p{i}");
            tx.map_put(tourn::PLAYERS, Val::str(p.as_str()), Val::str("x"))
                .unwrap();
            tx.aw_add(tourn::ENROLLED, Val::pair(p, "t")).unwrap();
        }
        tx.commit();
        assert_eq!(tournament_violations(&r), 1, "one over-capacity tournament");
    }
}
