//! Twitter runtime: tweets are written to all followers' timelines at
//! post time ("we opted for writing immediately to all followers
//! timelines", §5.1.2).

use crate::layout::{Layout, Place};
use ipa_crdt::{ObjectKind, Val, ValPattern};
use ipa_store::{StoreError, Transaction};

/// Fig. 6 compares the unmodified app against the two IPA strategies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Strategy {
    /// Unmodified (no repair; anomalies possible).
    Causal,
    /// Add-wins repairs: tweeting/retweeting restores the author/tweet.
    AddWins,
    /// Rem-wins repairs: deletions purge concurrent additions; removed
    /// content is hidden from timeline reads by compensation.
    RemWins,
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Strategy::Causal => write!(f, "Causal"),
            Strategy::AddWins => write!(f, "Add-Wins"),
            Strategy::RemWins => write!(f, "Rem-Wins"),
        }
    }
}

/// Object keys.
pub const USERS: &str = "twitter/users";
pub const TWEETS: &str = "twitter/tweets";
/// Timeline entries: triples `(timeline_owner, tweet_id, author)`.
pub const ENTRIES: &str = "twitter/entries";
pub const FOLLOWS: &str = "twitter/follows";

/// Where each predicate of `twitter_spec(_)` lives in the store: the
/// entry `(owner, tweet, author)` is `inTimeline(tweet, owner)`, and
/// `follows(a, b)` is stored `(b, a)`. Each puts first what a read names,
/// so `timeline` and `followers_of` read one owner's or one followee's
/// members as a range.
pub const LAYOUT: Layout = Layout {
    places: &[
        ("user", Place::set(USERS)),
        ("tweet", Place::set(TWEETS)),
        (
            "inTimeline",
            Place::Members {
                key: ENTRIES,
                arity: 3,
                args: &[1, 0],
            },
        ),
        ("follows", Place::ordered(FOLLOWS, &[1, 0])),
    ],
    unmapped: &[],
};

/// The stored member of `follows(a, b)`, `a` following `b` ([`LAYOUT`]'s
/// order).
pub fn follows(a: impl Into<Val>, b: impl Into<Val>) -> Val {
    Val::pair(b, a)
}

/// The pattern of `follows(a, b)`'s members, each argument a pattern.
pub fn follows_matching(a: ValPattern, b: ValPattern) -> ValPattern {
    ValPattern::pair(b, a)
}

/// A timeline entry: `tweet`, by `author`, in `owner`'s timeline.
pub fn entry(owner: impl Into<Val>, tweet: impl Into<Val>, author: impl Into<Val>) -> Val {
    Val::triple(owner, tweet, author)
}

pub use crate::common::OpCost;

/// The Twitter application under one strategy.
#[derive(Clone, Copy, Debug)]
pub struct Twitter {
    pub strategy: Strategy,
}

impl Twitter {
    pub fn new(strategy: Strategy) -> Twitter {
        Twitter { strategy }
    }

    fn entries_kind(&self) -> ObjectKind {
        match self.strategy {
            Strategy::RemWins => ObjectKind::RWSet,
            _ => ObjectKind::AWSet,
        }
    }

    pub fn ensure_schema(&self, tx: &mut Transaction<'_>) -> Result<(), StoreError> {
        tx.ensure(USERS, ObjectKind::AWMap)?;
        tx.ensure(TWEETS, ObjectKind::AWMap)?;
        tx.ensure(ENTRIES, self.entries_kind())?;
        tx.ensure(FOLLOWS, ObjectKind::AWSet)?;
        Ok(())
    }

    fn add_entry(&self, tx: &mut Transaction<'_>, e: Val) -> Result<(), StoreError> {
        match self.entries_kind() {
            ObjectKind::RWSet => tx.rw_add(ENTRIES, e),
            _ => tx.aw_add(ENTRIES, e),
        }
    }

    pub fn add_user(&self, tx: &mut Transaction<'_>, u: &str) -> Result<OpCost, StoreError> {
        self.ensure_schema(tx)?;
        tx.map_put(USERS, Val::str(u), Val::str(format!("bio:{u}")))?;
        Ok(OpCost::new(1, 1))
    }

    pub fn rem_user(&self, tx: &mut Transaction<'_>, u: &str) -> Result<OpCost, StoreError> {
        self.ensure_schema(tx)?;
        tx.map_remove(USERS, &Val::str(u))?;
        // Sequential cleanup of the user's follow edges.
        tx.aw_remove_matching(
            FOLLOWS,
            &follows_matching(ValPattern::exact(u), ValPattern::Any),
        )?;
        tx.aw_remove_matching(
            FOLLOWS,
            &follows_matching(ValPattern::Any, ValPattern::exact(u)),
        )?;
        if self.strategy == Strategy::RemWins {
            // Purge the user's whole history from all timelines — the
            // rem-wins wildcard defeats concurrent tweets too (§5.1.2).
            tx.rw_remove_matching(
                ENTRIES,
                ValPattern::triple(ValPattern::Any, ValPattern::Any, ValPattern::exact(u)),
            )?;
            return Ok(OpCost::new(3, 4));
        }
        Ok(OpCost::new(2, 3))
    }

    /// Post a tweet: register it and write it to the author's and all
    /// followers' timelines.
    pub fn tweet(
        &self,
        tx: &mut Transaction<'_>,
        author: &str,
        id: &str,
    ) -> Result<OpCost, StoreError> {
        self.ensure_schema(tx)?;
        let (author, id) = (Val::str(author), Val::str(id));
        tx.map_put(TWEETS, id.clone(), author.clone())?;
        let followers = self.followers_of(tx, &author)?;
        self.add_entry(tx, entry(author.clone(), id.clone(), author.clone()))?;
        let mut updates = 2 + followers.len();
        for f in followers {
            self.add_entry(tx, entry(f, id.clone(), author.clone()))?;
        }
        let mut objects = 2; // tweets + entries
        if self.strategy == Strategy::AddWins {
            // Restore the author against a concurrent rem_user.
            tx.map_touch(USERS, author)?;
            objects += 1;
            updates += 1;
        }
        Ok(OpCost { objects, updates })
    }

    /// Retweet an existing tweet into the retweeter's followers'
    /// timelines.
    pub fn retweet(
        &self,
        tx: &mut Transaction<'_>,
        user: &str,
        id: &str,
    ) -> Result<OpCost, StoreError> {
        self.ensure_schema(tx)?;
        let (user, id) = (Val::str(user), Val::str(id));
        let author = tx
            .map_get(TWEETS, &id)?
            .filter(|v| v.as_str().is_some())
            .unwrap_or_else(|| user.clone());
        let followers = self.followers_of(tx, &user)?;
        self.add_entry(tx, entry(user, id.clone(), author.clone()))?;
        let mut objects = 1;
        let mut updates = 1 + followers.len();
        for f in followers {
            self.add_entry(tx, entry(f, id.clone(), author.clone()))?;
        }
        if self.strategy == Strategy::AddWins {
            // "recover the deleted tweet": touch restores the tweet entity
            // with its payload against a concurrent deletion.
            tx.map_touch(TWEETS, id)?;
            objects += 1;
            updates += 1;
        }
        Ok(OpCost { objects, updates })
    }

    pub fn del_tweet(&self, tx: &mut Transaction<'_>, id: &str) -> Result<OpCost, StoreError> {
        self.ensure_schema(tx)?;
        tx.map_remove(TWEETS, &Val::str(id))?;
        match self.strategy {
            Strategy::RemWins => {
                // One wildcard op kills every timeline entry of the tweet,
                // including concurrent retweets ("hide all of its
                // retweets from the followers timelines").
                tx.rw_remove_matching(
                    ENTRIES,
                    ValPattern::triple(ValPattern::Any, ValPattern::exact(id), ValPattern::Any),
                )?;
                Ok(OpCost::new(2, 2))
            }
            _ => {
                // Remove the observed entries only (concurrent retweets
                // survive — under Causal they become dangling).
                tx.aw_remove_matching(
                    ENTRIES,
                    &ValPattern::triple(ValPattern::Any, ValPattern::exact(id), ValPattern::Any),
                )?;
                Ok(OpCost::new(2, 2))
            }
        }
    }

    pub fn follow(&self, tx: &mut Transaction<'_>, a: &str, b: &str) -> Result<OpCost, StoreError> {
        self.ensure_schema(tx)?;
        tx.aw_add(FOLLOWS, follows(a, b))?;
        if self.strategy == Strategy::AddWins {
            tx.map_touch(USERS, Val::str(a))?;
            tx.map_touch(USERS, Val::str(b))?;
            return Ok(OpCost::new(2, 3));
        }
        Ok(OpCost::new(1, 1))
    }

    pub fn unfollow(
        &self,
        tx: &mut Transaction<'_>,
        a: &str,
        b: &str,
    ) -> Result<OpCost, StoreError> {
        self.ensure_schema(tx)?;
        tx.aw_remove(FOLLOWS, &follows(a, b))?;
        Ok(OpCost::new(1, 1))
    }

    /// Read a user's timeline. Under rem-wins, entries whose tweet was
    /// deleted concurrently are *hidden by compensation on read* rather
    /// than eagerly purged from every timeline — "trading a slightly
    /// higher latency in reads to prevent unnecessary writes" (§5.2.3).
    pub fn timeline(
        &self,
        tx: &mut Transaction<'_>,
        user: &str,
    ) -> Result<(Vec<String>, OpCost), StoreError> {
        self.ensure_schema(tx)?;
        let mut ids: Vec<String> = Vec::new();
        let owned = ValPattern::triple(ValPattern::exact(user), ValPattern::Any, ValPattern::Any);
        tx.for_each_matching(ENTRIES, &owned, |e| {
            ids.push(e.snd().and_then(Val::as_str).unwrap_or_default().to_owned());
        })?;
        if self.strategy == Strategy::RemWins {
            // Compensation: consult the tweets map and hide removed
            // tweets.
            let mut shown = Vec::with_capacity(ids.len());
            for id in ids {
                if tx.map_get(TWEETS, &Val::str(id.as_str()))?.is_some() {
                    shown.push(id);
                }
            }
            ids = shown;
        }
        let objects = if self.strategy == Strategy::RemWins {
            2
        } else {
            1
        };
        Ok((
            ids,
            OpCost {
                objects,
                updates: 0,
            },
        ))
    }

    /// Who follows `user`, in order: one range of the follow edges,
    /// stored followee first.
    fn followers_of(&self, tx: &mut Transaction<'_>, user: &Val) -> Result<Vec<Val>, StoreError> {
        let mut followers = Vec::new();
        let of_user = follows_matching(ValPattern::Any, ValPattern::Exact(user.clone()));
        tx.for_each_matching(FOLLOWS, &of_user, |f| followers.extend(f.snd().cloned()))?;
        Ok(followers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_crdt::ReplicaId;
    use ipa_store::Cluster;

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

    fn seed(app: Twitter, cluster: &mut Cluster) {
        commit(cluster, 0, |tx| {
            app.add_user(tx, "alice")?;
            app.add_user(tx, "bob")?;
            app.follow(tx, "bob", "alice")
        });
        cluster.sync();
    }

    #[test]
    fn tuple_constructors_agree_with_the_layout() {
        let (a, b) = (Val::str("a"), Val::str("b"));
        let edge = LAYOUT.member("follows", &[a.clone(), b.clone()]);
        assert_eq!(Some(follows("a", "b")), edge);
        let pattern = follows_matching(ValPattern::Exact(a), ValPattern::Exact(b));
        assert!(pattern.matches(&follows("a", "b")));
        assert!(!pattern.matches(&follows("b", "a")));
        // An entry holds more than `inTimeline(tweet, owner)` names: the
        // layout builds no member, and reads the entry back by position.
        assert_eq!(
            LAYOUT.member("inTimeline", &[Val::str("w"), Val::str("u")]),
            None
        );
        let e = entry("u", "w", "author");
        assert_eq!(
            (e.fst(), e.snd()),
            (Some(&Val::str("u")), Some(&Val::str("w")))
        );
    }

    #[test]
    fn tweet_fans_out_to_followers() {
        let app = Twitter::new(Strategy::Causal);
        let mut cluster = Cluster::new(2);
        seed(app, &mut cluster);
        commit(&mut cluster, 0, |tx| app.tweet(tx, "alice", "tw1"));
        cluster.sync();
        let (bob_tl, _) = commit(&mut cluster, 1, |tx| app.timeline(tx, "bob"));
        assert_eq!(bob_tl, vec!["tw1"]);
    }

    #[test]
    fn causal_concurrent_retweet_vs_delete_dangles() {
        let app = Twitter::new(Strategy::Causal);
        let mut cluster = Cluster::new(2);
        seed(app, &mut cluster);
        commit(&mut cluster, 0, |tx| app.tweet(tx, "alice", "tw1"));
        cluster.sync();
        // Concurrent: delete at 0, retweet at 1.
        commit(&mut cluster, 0, |tx| app.del_tweet(tx, "tw1"));
        commit(&mut cluster, 1, |tx| app.retweet(tx, "bob", "tw1"));
        cluster.sync();
        let v = crate::Oracle::twitter().final_violations(cluster.replica(ReplicaId(0)));
        assert!(v > 0, "dangling retweet entries under Causal");
    }

    #[test]
    fn add_wins_restores_the_deleted_tweet() {
        let app = Twitter::new(Strategy::AddWins);
        let mut cluster = Cluster::new(2);
        seed(app, &mut cluster);
        commit(&mut cluster, 0, |tx| app.tweet(tx, "alice", "tw1"));
        cluster.sync();
        commit(&mut cluster, 0, |tx| app.del_tweet(tx, "tw1"));
        commit(&mut cluster, 1, |tx| app.retweet(tx, "bob", "tw1"));
        cluster.sync();
        for r in 0..2 {
            let rep = cluster.replica(ReplicaId(r));
            assert_eq!(
                crate::Oracle::twitter().final_violations(rep),
                0,
                "replica {r}"
            );
            // The tweet is back (touch), with its original payload.
            let tweets = rep.object(TWEETS).unwrap().as_awmap().unwrap();
            assert_eq!(tweets.get(&Val::str("tw1")), Some(&Val::str("alice")));
        }
    }

    #[test]
    fn rem_wins_purges_concurrent_retweets() {
        let app = Twitter::new(Strategy::RemWins);
        let mut cluster = Cluster::new(2);
        seed(app, &mut cluster);
        commit(&mut cluster, 0, |tx| app.tweet(tx, "alice", "tw1"));
        cluster.sync();
        commit(&mut cluster, 0, |tx| app.del_tweet(tx, "tw1"));
        commit(&mut cluster, 1, |tx| app.retweet(tx, "bob", "tw1"));
        cluster.sync();
        for r in 0..2 {
            let rep = cluster.replica(ReplicaId(r));
            // The wildcard remove defeated the concurrent retweet.
            let entries = rep.object(ENTRIES).unwrap().as_rwset().unwrap();
            assert_eq!(entries.len(), 0, "replica {r}: all entries purged");
            assert_eq!(crate::Oracle::twitter().final_violations(rep), 0);
        }
    }

    #[test]
    fn rem_wins_timeline_hides_removed_tweets_on_read() {
        let app = Twitter::new(Strategy::RemWins);
        let mut cluster = Cluster::new(2);
        seed(app, &mut cluster);
        commit(&mut cluster, 0, |tx| app.tweet(tx, "alice", "tw1"));
        commit(&mut cluster, 0, |tx| app.tweet(tx, "alice", "tw2"));
        cluster.sync();
        // Delete tw1 at replica 0; replica 1 reads before the delete
        // arrives — suppose only the tweets-map removal arrived (model by
        // reading at replica 0 where both applied; the hidden path is the
        // `map_get == None` branch).
        commit(&mut cluster, 0, |tx| {
            tx.map_remove(TWEETS, &Val::str("tw1"))?;
            Ok(OpCost::new(1, 1))
        });
        let (tl, cost) = commit(&mut cluster, 0, |tx| app.timeline(tx, "bob"));
        assert_eq!(tl, vec!["tw2"], "tw1 hidden by the read compensation");
        assert_eq!(cost.objects, 2, "rem-wins reads pay the extra check");
    }

    #[test]
    fn rem_user_purges_history_under_rem_wins() {
        let app = Twitter::new(Strategy::RemWins);
        let mut cluster = Cluster::new(2);
        seed(app, &mut cluster);
        commit(&mut cluster, 0, |tx| app.tweet(tx, "alice", "tw1"));
        cluster.sync();
        // Concurrent: remove alice at 0 while she tweets at 1.
        commit(&mut cluster, 0, |tx| app.rem_user(tx, "alice"));
        commit(&mut cluster, 1, |tx| app.tweet(tx, "alice", "tw2"));
        cluster.sync();
        for r in 0..2 {
            let rep = cluster.replica(ReplicaId(r));
            let entries = rep.object(ENTRIES).unwrap().as_rwset().unwrap();
            let alice_entries = entries
                .elements()
                .filter(|e| e.thd().and_then(Val::as_str) == Some("alice"))
                .count();
            assert_eq!(alice_entries, 0, "replica {r}: alice's history purged");
        }
    }
}
