//! Tournament runtime over the replicated store.
//!
//! Each operation is the transaction code of Fig. 1's interface; in
//! [`Mode::Ipa`] the operations additionally execute the paper's Fig. 3
//! `ensure*` helpers (touches that restore referential integrity under
//! the chosen add-wins rules, and the rem-wins `active` set that makes
//! `finish_tourn` prevail).

use crate::common::Mode;
use crate::layout::{Layout, Place};
use ipa_crdt::{ObjectKind, Val, ValPattern};
use ipa_store::{StoreError, Transaction};

/// Tournament capacity: the value of the Fig. 1 aggregation
/// constraint's `Capacity`.
pub const CAPACITY: usize = 16;

/// Object keys.
pub const PLAYERS: &str = "tournament/players";
pub const TOURNS: &str = "tournament/tourns";
pub const ENROLLED: &str = "tournament/enrolled";
pub const ACTIVE: &str = "tournament/active";
pub const FINISHED: &str = "tournament/finished";
pub const MATCHES: &str = "tournament/matches";

/// Where each predicate of `tournament_spec()` lives in the store. The
/// tournament comes first in `enrolled(p, t)`, stored `(t, p)`, and in
/// `inMatch(p, q, t)`, stored `(t, p, q)`: `enroll` and `status` read
/// one tournament's members as a range.
pub const LAYOUT: Layout = Layout {
    places: &[
        ("player", Place::set(PLAYERS)),
        ("tournament", Place::set(TOURNS)),
        ("enrolled", Place::ordered(ENROLLED, &[1, 0])),
        ("active", Place::set(ACTIVE)),
        ("finished", Place::set(FINISHED)),
        ("inMatch", Place::ordered(MATCHES, &[1, 2, 0])),
    ],
    unmapped: &[],
};

/// The stored member of `enrolled(p, t)` ([`LAYOUT`]'s order).
pub fn enrolled(p: impl Into<Val>, t: impl Into<Val>) -> Val {
    Val::pair(t, p)
}

/// The pattern of `enrolled(p, t)`'s members, each argument a pattern.
pub fn enrolled_matching(p: ValPattern, t: ValPattern) -> ValPattern {
    ValPattern::pair(t, p)
}

/// The stored member of `inMatch(p, q, t)` ([`LAYOUT`]'s order).
pub fn in_match(p: impl Into<Val>, q: impl Into<Val>, t: impl Into<Val>) -> Val {
    Val::triple(t, p, q)
}

/// The pattern of `inMatch(p, q, t)`'s members, each argument a pattern.
pub fn in_match_matching(p: ValPattern, q: ValPattern, t: ValPattern) -> ValPattern {
    ValPattern::triple(t, p, q)
}

/// The Tournament application in one consistency mode.
#[derive(Clone, Copy, Debug)]
pub struct Tournament {
    pub mode: Mode,
}

pub use crate::common::OpCost;

impl Tournament {
    pub fn new(mode: Mode) -> Tournament {
        Tournament { mode }
    }

    /// The `active` set is rem-wins under IPA (so that `finish_tourn`'s
    /// and `rem_tourn`'s clears prevail over a concurrent `begin_tourn`),
    /// add-wins otherwise.
    fn active_kind(&self) -> ObjectKind {
        match self.mode {
            Mode::Ipa => ObjectKind::RWSet,
            _ => ObjectKind::AWSet,
        }
    }

    /// Matches are rem-wins under IPA: removing a tournament (or a
    /// player's enrollment) cancels its matches *including concurrent
    /// ones* — the Fig. 2c-style resolution for the `inMatch` invariant.
    fn matches_kind(&self) -> ObjectKind {
        match self.mode {
            Mode::Ipa => ObjectKind::RWSet,
            _ => ObjectKind::AWSet,
        }
    }

    /// Declare every object (first transaction per replica).
    pub fn ensure_schema(&self, tx: &mut Transaction<'_>) -> Result<(), StoreError> {
        tx.ensure(PLAYERS, ObjectKind::AWMap)?;
        tx.ensure(TOURNS, ObjectKind::AWMap)?;
        tx.ensure(ENROLLED, ObjectKind::AWSet)?;
        tx.ensure(ACTIVE, self.active_kind())?;
        tx.ensure(FINISHED, ObjectKind::AWSet)?;
        tx.ensure(MATCHES, self.matches_kind())?;
        Ok(())
    }

    fn matches_add(&self, tx: &mut Transaction<'_>, v: Val) -> Result<(), StoreError> {
        match self.matches_kind() {
            ObjectKind::RWSet => tx.rw_add(MATCHES, v),
            _ => tx.aw_add(MATCHES, v),
        }
    }

    fn matches_clear(&self, tx: &mut Transaction<'_>, pat: ValPattern) -> Result<(), StoreError> {
        match self.matches_kind() {
            ObjectKind::RWSet => tx.rw_remove_matching(MATCHES, pat),
            _ => tx.aw_remove_matching(MATCHES, &pat),
        }
    }

    fn active_remove(&self, tx: &mut Transaction<'_>, t: &str) -> Result<(), StoreError> {
        match self.active_kind() {
            ObjectKind::RWSet => tx.rw_remove(ACTIVE, Val::str(t)),
            _ => tx.aw_remove(ACTIVE, &Val::str(t)),
        }
    }

    // ------------------------------------------------------------------
    // Fig. 3 ensure* helpers (IPA mode only)
    // ------------------------------------------------------------------

    fn ensure_enroll(&self, tx: &mut Transaction<'_>, p: &str, t: &str) -> Result<(), StoreError> {
        // `touch` restores presence while preserving entity payload
        // (§4.2.1) — the add-wins rule makes it win over concurrent
        // removals.
        tx.map_touch(PLAYERS, Val::str(p))?;
        tx.map_touch(TOURNS, Val::str(t))?;
        Ok(())
    }

    fn ensure_begin(&self, tx: &mut Transaction<'_>, t: &str) -> Result<(), StoreError> {
        tx.map_touch(TOURNS, Val::str(t))
    }

    // ------------------------------------------------------------------
    // Operations
    // ------------------------------------------------------------------

    pub fn add_player(&self, tx: &mut Transaction<'_>, p: &str) -> Result<OpCost, StoreError> {
        self.ensure_schema(tx)?;
        tx.map_put(PLAYERS, Val::str(p), Val::str(format!("profile:{p}")))?;
        Ok(OpCost::new(1, 1))
    }

    pub fn rem_player(&self, tx: &mut Transaction<'_>, p: &str) -> Result<OpCost, StoreError> {
        self.ensure_schema(tx)?;
        // Sequential precondition restoration: clear the player's own
        // enrollments and matches (the operation's code maintains the
        // invariant locally, §2.2).
        tx.aw_remove_matching(
            ENROLLED,
            &enrolled_matching(ValPattern::exact(p), ValPattern::Any),
        )?;
        self.matches_clear(
            tx,
            in_match_matching(ValPattern::exact(p), ValPattern::Any, ValPattern::Any),
        )?;
        self.matches_clear(
            tx,
            in_match_matching(ValPattern::Any, ValPattern::exact(p), ValPattern::Any),
        )?;
        tx.map_remove(PLAYERS, &Val::str(p))?;
        Ok(OpCost::new(3, 4))
    }

    pub fn add_tourn(&self, tx: &mut Transaction<'_>, t: &str) -> Result<OpCost, StoreError> {
        self.ensure_schema(tx)?;
        tx.map_put(TOURNS, Val::str(t), Val::str(format!("meta:{t}")))?;
        Ok(OpCost::new(1, 1))
    }

    pub fn rem_tourn(&self, tx: &mut Transaction<'_>, t: &str) -> Result<OpCost, StoreError> {
        self.ensure_schema(tx)?;
        // Local precondition restoration: every piece of state that
        // depends on the tournament is cleared (enrollments, matches,
        // phase marks). Under IPA the rem-wins matches/active clears also
        // defeat concurrent additions, while concurrent `enroll`s win via
        // their add-wins restore (the mixed per-predicate resolution the
        // analysis proposes for this operation).
        tx.aw_remove_matching(
            ENROLLED,
            &enrolled_matching(ValPattern::Any, ValPattern::exact(t)),
        )?;
        self.matches_clear(
            tx,
            in_match_matching(ValPattern::Any, ValPattern::Any, ValPattern::exact(t)),
        )?;
        self.active_remove(tx, t)?;
        tx.aw_remove(FINISHED, &Val::str(t))?;
        tx.map_remove(TOURNS, &Val::str(t))?;
        Ok(OpCost::new(5, 5))
    }

    pub fn enroll(&self, tx: &mut Transaction<'_>, p: &str, t: &str) -> Result<OpCost, StoreError> {
        self.ensure_schema(tx)?;
        // Local precondition: the capacity constraint must hold in the
        // origin state (§2.2). Concurrent enrollments elsewhere can still
        // overshoot — that residue is repaired by the read-side
        // compensation in `status` (§3.4).
        let tv = Val::str(t);
        let mut seats = 0;
        let seated = enrolled_matching(ValPattern::Any, ValPattern::Exact(tv.clone()));
        tx.for_each_matching(ENROLLED, &seated, |_| seats += 1)?;
        if seats >= CAPACITY {
            return Ok(OpCost::new(1, 0));
        }
        tx.aw_add(ENROLLED, enrolled(p, tv))?;
        if self.mode == Mode::Ipa {
            self.ensure_enroll(tx, p, t)?;
            return Ok(OpCost::new(3, 3));
        }
        Ok(OpCost::new(1, 1))
    }

    pub fn disenroll(
        &self,
        tx: &mut Transaction<'_>,
        p: &str,
        t: &str,
    ) -> Result<OpCost, StoreError> {
        self.ensure_schema(tx)?;
        tx.aw_remove(ENROLLED, &enrolled(p, t))?;
        // Leaving a tournament cancels the player's matches in it.
        self.matches_clear(
            tx,
            in_match_matching(ValPattern::exact(p), ValPattern::Any, ValPattern::exact(t)),
        )?;
        self.matches_clear(
            tx,
            in_match_matching(ValPattern::Any, ValPattern::exact(p), ValPattern::exact(t)),
        )?;
        Ok(OpCost::new(2, 3))
    }

    pub fn begin_tourn(&self, tx: &mut Transaction<'_>, t: &str) -> Result<OpCost, StoreError> {
        self.ensure_schema(tx)?;
        match self.active_kind() {
            ObjectKind::RWSet => tx.rw_add(ACTIVE, Val::str(t))?,
            _ => tx.aw_add(ACTIVE, Val::str(t))?,
        }
        // Restart semantics: a (re-)begun tournament is no longer
        // finished (observed-remove, so a concurrent finish still wins).
        tx.aw_remove(FINISHED, &Val::str(t))?;
        if self.mode == Mode::Ipa {
            self.ensure_begin(tx, t)?;
            return Ok(OpCost::new(3, 3));
        }
        Ok(OpCost::new(2, 2))
    }

    pub fn finish_tourn(&self, tx: &mut Transaction<'_>, t: &str) -> Result<OpCost, StoreError> {
        self.ensure_schema(tx)?;
        tx.aw_add(FINISHED, Val::str(t))?;
        // Rem-wins clear under IPA: finish prevails over a concurrent
        // begin (preserves `not(active(t) and finished(t))`).
        self.active_remove(tx, t)?;
        if self.mode == Mode::Ipa {
            self.ensure_begin(tx, t)?; // ensureEnd touches the tournament
            return Ok(OpCost::new(3, 3));
        }
        Ok(OpCost::new(2, 2))
    }

    /// Precondition (checked by the caller's transaction code): both
    /// players enrolled, tournament active. The IPA version restores the
    /// enrollments and entities; a concurrent `rem_tourn` cancels the
    /// match through the rem-wins matches set instead.
    pub fn do_match(
        &self,
        tx: &mut Transaction<'_>,
        p: &str,
        q: &str,
        t: &str,
    ) -> Result<OpCost, StoreError> {
        self.ensure_schema(tx)?;
        self.matches_add(tx, in_match(p, q, t))?;
        if self.mode == Mode::Ipa {
            // ensureDoMatch = ensureEnroll(p1) + ensureEnroll(p2) and the
            // enrollments themselves are restored.
            tx.aw_add(ENROLLED, enrolled(p, t))?;
            tx.aw_add(ENROLLED, enrolled(q, t))?;
            self.ensure_enroll(tx, p, t)?;
            self.ensure_enroll(tx, q, t)?;
            return Ok(OpCost::new(4, 7));
        }
        Ok(OpCost::new(1, 1))
    }

    /// Is the tournament currently active (as observed locally)?
    pub fn is_active(&self, tx: &mut Transaction<'_>, t: &str) -> Result<bool, StoreError> {
        self.ensure_schema(tx)?;
        tx.contains(ACTIVE, &Val::str(t))
    }

    /// Status read: tournament metadata + enrollment count + phase.
    ///
    /// Under IPA this read carries the capacity *compensation* (§3.4):
    /// when concurrent enrollments overshot the bound, the deterministic
    /// excess (largest elements) is disenrolled and committed alongside
    /// the read — the paper's "only disenroll a player if the size limit
    /// is actually exceeded".
    pub fn status(&self, tx: &mut Transaction<'_>, t: &str) -> Result<OpCost, StoreError> {
        self.ensure_schema(tx)?;
        let tv = Val::str(t);
        let _meta = tx.map_get(TOURNS, &tv)?;
        let active = tx.contains(ACTIVE, &tv)?;
        if self.mode == Mode::Ipa && !active && !tx.contains(FINISHED, &tv)? {
            // Disjunction compensation (§3.4-style read repair): two
            // concurrent finish→begin(restart) chains can annihilate both
            // phase marks — each branch's begin observed-removes its own
            // `finished` tag while each rem-wins finish defeats the other
            // branch's `active` add — stranding matches in a tournament
            // that is neither running nor finished. Restore the
            // finish-prevails outcome the resolution is built around.
            let mut stranded = false;
            let played = in_match_matching(
                ValPattern::Any,
                ValPattern::Any,
                ValPattern::Exact(tv.clone()),
            );
            tx.for_each_matching(MATCHES, &played, |_| stranded = true)?;
            if stranded {
                tx.aw_add(FINISHED, tv.clone())?;
            }
        }
        // Kept, not only counted: the over-capacity tail is what the
        // compensation below removes. The range yields them in element
        // order, `(t, p)` sorted by `p`.
        let mut seated: Vec<Val> = Vec::new();
        let of_t = enrolled_matching(ValPattern::Any, ValPattern::Exact(tv.clone()));
        tx.for_each_matching(ENROLLED, &of_t, |e| seated.push(e.clone()))?;
        if self.mode == Mode::Ipa && seated.len() > CAPACITY {
            // Deterministic choice: every replica observing the same
            // oversized state cancels the same (largest) elements, so the
            // compensations commute and converge.
            let excess: Vec<Val> = seated.split_off(CAPACITY);
            let n = excess.len();
            for e in &excess {
                tx.aw_remove(ENROLLED, e)?;
                // `enrolled(p, t)` is stored `(t, p)`.
                if let Some(p) = e.snd().cloned() {
                    // Cascade: the disenrolled players' matches go too.
                    self.matches_clear(
                        tx,
                        in_match_matching(
                            ValPattern::Exact(p.clone()),
                            ValPattern::Any,
                            ValPattern::Exact(tv.clone()),
                        ),
                    )?;
                    self.matches_clear(
                        tx,
                        in_match_matching(
                            ValPattern::Any,
                            ValPattern::Exact(p),
                            ValPattern::Exact(tv.clone()),
                        ),
                    )?;
                }
            }
            return Ok(OpCost::new(3, n));
        }
        Ok(OpCost::new(3, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_crdt::ReplicaId;
    use ipa_store::Cluster;

    fn run(mode: Mode, f: impl FnOnce(&Tournament, &mut Cluster)) {
        let app = Tournament::new(mode);
        let mut cluster = Cluster::new(2);
        f(&app, &mut cluster);
    }

    fn commit<T>(
        cluster: &mut Cluster,
        r: u16,
        f: impl FnOnce(&mut Transaction<'_>) -> Result<T, StoreError>,
    ) -> T {
        let replica = cluster.replica_mut(ReplicaId(r));
        let mut tx = replica.begin();
        let out = f(&mut tx).expect("op");
        tx.commit();
        out
    }

    #[test]
    fn sequential_lifecycle() {
        run(Mode::Causal, |app, cluster| {
            commit(cluster, 0, |tx| app.add_player(tx, "alice"));
            commit(cluster, 0, |tx| app.add_tourn(tx, "open"));
            commit(cluster, 0, |tx| app.enroll(tx, "alice", "open"));
            commit(cluster, 0, |tx| app.begin_tourn(tx, "open"));
            cluster.sync();
            let v = crate::Oracle::tournament().final_violations(cluster.replica(ReplicaId(1)));
            assert_eq!(v, 0);
        });
    }

    #[test]
    fn causal_concurrent_enroll_vs_rem_tourn_violates() {
        run(Mode::Causal, |app, cluster| {
            commit(cluster, 0, |tx| app.add_player(tx, "p1"));
            commit(cluster, 0, |tx| app.add_tourn(tx, "t1"));
            cluster.sync();
            // Concurrent: replica 0 removes t1, replica 1 enrolls p1.
            commit(cluster, 0, |tx| app.rem_tourn(tx, "t1"));
            commit(cluster, 1, |tx| app.enroll(tx, "p1", "t1"));
            cluster.sync();
            let v0 = crate::Oracle::tournament().final_violations(cluster.replica(ReplicaId(0)));
            let v1 = crate::Oracle::tournament().final_violations(cluster.replica(ReplicaId(1)));
            assert!(v0 > 0, "the Fig. 2a anomaly must appear under Causal");
            assert_eq!(v0, v1, "replicas converge (to an invalid state)");
        });
    }

    #[test]
    fn ipa_concurrent_enroll_vs_rem_tourn_preserves_invariant() {
        run(Mode::Ipa, |app, cluster| {
            commit(cluster, 0, |tx| app.add_player(tx, "p1"));
            commit(cluster, 0, |tx| app.add_tourn(tx, "t1"));
            cluster.sync();
            commit(cluster, 0, |tx| app.rem_tourn(tx, "t1"));
            commit(cluster, 1, |tx| app.enroll(tx, "p1", "t1"));
            cluster.sync();
            for r in 0..2 {
                let v = crate::Oracle::tournament().final_violations(cluster.replica(ReplicaId(r)));
                assert_eq!(v, 0, "replica {r}: IPA must preserve the invariant");
                // The Fig. 2b outcome: the tournament was restored.
                let tourns = cluster.replica(ReplicaId(r)).object(TOURNS).unwrap();
                assert_eq!(tourns.set_contains(&Val::str("t1")), Some(true));
            }
        });
    }

    #[test]
    fn ipa_touch_preserves_tournament_payload() {
        run(Mode::Ipa, |app, cluster| {
            commit(cluster, 0, |tx| app.add_player(tx, "p1"));
            commit(cluster, 0, |tx| app.add_tourn(tx, "t1"));
            cluster.sync();
            commit(cluster, 0, |tx| app.rem_tourn(tx, "t1"));
            commit(cluster, 1, |tx| app.enroll(tx, "p1", "t1"));
            cluster.sync();
            let payload = cluster
                .replica(ReplicaId(0))
                .object(TOURNS)
                .unwrap()
                .as_awmap()
                .unwrap()
                .get(&Val::str("t1"))
                .cloned();
            assert_eq!(
                payload,
                Some(Val::str("meta:t1")),
                "touch restored the old payload"
            );
        });
    }

    #[test]
    fn ipa_begin_finish_race_resolves_to_finished() {
        run(Mode::Ipa, |app, cluster| {
            commit(cluster, 0, |tx| app.add_tourn(tx, "t1"));
            commit(cluster, 0, |tx| app.begin_tourn(tx, "t1"));
            cluster.sync();
            // Concurrent: replica 0 restarts (begin), replica 1 finishes.
            commit(cluster, 0, |tx| app.begin_tourn(tx, "t1"));
            commit(cluster, 1, |tx| app.finish_tourn(tx, "t1"));
            cluster.sync();
            for r in 0..2 {
                let rep = cluster.replica(ReplicaId(r));
                let active = rep.object(ACTIVE).unwrap().set_contains(&Val::str("t1"));
                let finished = rep.object(FINISHED).unwrap().set_contains(&Val::str("t1"));
                assert_eq!(active, Some(false), "rem-wins: finish prevails");
                assert_eq!(finished, Some(true));
                assert_eq!(
                    crate::Oracle::tournament().final_violations(rep),
                    0,
                    "not(active and finished) holds"
                );
            }
        });
    }

    #[test]
    fn causal_begin_finish_race_can_violate_mutex() {
        run(Mode::Causal, |app, cluster| {
            commit(cluster, 0, |tx| app.add_tourn(tx, "t1"));
            cluster.sync();
            commit(cluster, 0, |tx| app.begin_tourn(tx, "t1"));
            commit(cluster, 1, |tx| app.finish_tourn(tx, "t1"));
            cluster.sync();
            let rep = cluster.replica(ReplicaId(0));
            let active = rep.object(ACTIVE).unwrap().set_contains(&Val::str("t1"));
            let finished = rep.object(FINISHED).unwrap().set_contains(&Val::str("t1"));
            // Add-wins keeps `active` despite the concurrent clear.
            assert_eq!(active, Some(true));
            assert_eq!(finished, Some(true));
            assert!(crate::Oracle::tournament().final_violations(rep) > 0);
        });
    }

    #[test]
    fn tuple_constructors_agree_with_the_layout() {
        let (p, q, t) = (Val::str("p"), Val::str("q"), Val::str("t"));
        let seat = LAYOUT.member("enrolled", &[p.clone(), t.clone()]);
        assert_eq!(Some(enrolled("p", "t")), seat);
        let game = LAYOUT.member("inMatch", &[p.clone(), q.clone(), t.clone()]);
        assert_eq!(Some(in_match("p", "q", "t")), game);
        let exact = |v: &Val| ValPattern::Exact(v.clone());
        assert!(enrolled_matching(exact(&p), exact(&t)).matches(&enrolled("p", "t")));
        assert!(!enrolled_matching(exact(&t), exact(&p)).matches(&enrolled("p", "t")));
        let pattern = in_match_matching(exact(&p), exact(&q), exact(&t));
        assert!(pattern.matches(&in_match("p", "q", "t")));
        assert!(!pattern.matches(&in_match("q", "p", "t")));
    }

    #[test]
    fn op_costs_reflect_ipa_overhead() {
        run(Mode::Ipa, |app, cluster| {
            let c = commit(cluster, 0, |tx| app.enroll(tx, "p", "t"));
            assert_eq!(c, OpCost::new(3, 3));
        });
        run(Mode::Causal, |app, cluster| {
            let c = commit(cluster, 0, |tx| app.enroll(tx, "p", "t"));
            assert_eq!(c, OpCost::new(1, 1));
        });
    }
}
