//! Ticket runtime: per-event ticket pools.
//!
//! Under [`Mode::Causal`] a pool is a plain add-wins set — concurrent
//! purchases oversell it silently. Under [`Mode::Ipa`] the pool is the
//! Compensation Set of §4.2.2: reads repair observed overselling by
//! cancelling the deterministic excess (the cancelled purchases are
//! reimbursed — "the transfer of money ... must use a different
//! mechanism", modeled by the returned cancellation list).

use crate::common::Mode;
use crate::layout::{Layout, Place};
use ipa_crdt::{ObjectKind, Val};
use ipa_store::{StoreError, Transaction};

pub use crate::common::OpCost;

/// Result of a view: remaining capacity observed plus overselling info.
#[derive(Clone, Debug)]
pub struct EventView {
    pub sold: usize,
    pub cancelled: Vec<String>,
    /// True when the raw state was oversold at read time (a violation
    /// under Causal; a compensated event under IPA).
    pub oversold: bool,
    pub cost: OpCost,
}

/// The ticket application.
#[derive(Clone, Copy, Debug)]
pub struct TicketApp {
    pub mode: Mode,
    pub capacity: usize,
}

/// The prefix of each event's pool: `{POOLS}{event}`.
pub const POOLS: &str = "ticket/sold/";

pub fn pool_key(event: &str) -> String {
    format!("{POOLS}{event}")
}

/// Where each predicate of `ticket_spec()` lives in the store.
pub const LAYOUT: Layout = Layout {
    places: &[("sold", Place::PerEntity { prefix: POOLS })],
    unmapped: &[(
        "event",
        "the runtime keeps no event entity apart from its pool, and a \
         `sold(u, e)` member lives inside `e`'s pool",
    )],
};

impl TicketApp {
    pub fn new(mode: Mode, capacity: usize) -> TicketApp {
        TicketApp { mode, capacity }
    }

    fn pool_kind(&self) -> ObjectKind {
        match self.mode {
            Mode::Ipa => ObjectKind::CompSet {
                capacity: self.capacity,
            },
            _ => ObjectKind::AWSet,
        }
    }

    pub fn create_event(
        &self,
        tx: &mut Transaction<'_>,
        event: &str,
    ) -> Result<OpCost, StoreError> {
        tx.ensure(pool_key(event), self.pool_kind())?;
        Ok(OpCost::new(1, 0))
    }

    /// Buy a ticket. The local precondition (pool not full *as observed
    /// here*) is checked; concurrent buys at other replicas can still
    /// oversell — that is the anomaly the benchmark measures.
    pub fn buy(
        &self,
        tx: &mut Transaction<'_>,
        user: &str,
        event: &str,
    ) -> Result<Option<OpCost>, StoreError> {
        let key = pool_key(event);
        tx.ensure(key.as_str(), self.pool_kind())?;
        if tx.set_len(&key)? >= self.capacity {
            return Ok(None); // correctly rejected locally
        }
        match self.mode {
            Mode::Ipa => tx.compset_add(key, Val::str(user))?,
            _ => tx.aw_add(key, Val::str(user))?,
        }
        Ok(Some(OpCost::new(1, 1)))
    }

    /// View an event's sales. Under IPA this is the constrained read that
    /// triggers compensations; under Causal it merely *observes* the
    /// violation.
    pub fn view(&self, tx: &mut Transaction<'_>, event: &str) -> Result<EventView, StoreError> {
        let key = pool_key(event);
        tx.ensure(key.as_str(), self.pool_kind())?;
        match self.mode {
            Mode::Ipa => {
                let read = tx.compset_read(key)?;
                let oversold = !read.cancelled.is_empty();
                Ok(EventView {
                    sold: read.elements.len(),
                    cancelled: read
                        .cancelled
                        .iter()
                        .filter_map(|v| v.as_str().map(str::to_owned))
                        .collect(),
                    oversold,
                    cost: OpCost::new(1, usize::from(oversold)),
                })
            }
            _ => {
                let sold = tx.set_len(key)?;
                Ok(EventView {
                    sold,
                    cancelled: Vec::new(),
                    oversold: sold > self.capacity,
                    cost: OpCost::new(1, 0),
                })
            }
        }
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

    fn oversell(mode: Mode) -> (Cluster, TicketApp) {
        let app = TicketApp::new(mode, 1);
        let mut cluster = Cluster::new(2);
        commit(&mut cluster, 0, |tx| app.create_event(tx, "gig"));
        cluster.sync();
        // Concurrent last-ticket purchases at both replicas.
        let a = commit(&mut cluster, 0, |tx| app.buy(tx, "alice", "gig"));
        let b = commit(&mut cluster, 1, |tx| app.buy(tx, "bob", "gig"));
        assert!(a.is_some() && b.is_some(), "both locally admissible");
        cluster.sync();
        (cluster, app)
    }

    #[test]
    fn causal_oversells_and_observes_violation() {
        let (mut cluster, app) = oversell(Mode::Causal);
        let view = commit(&mut cluster, 0, |tx| app.view(tx, "gig"));
        assert!(view.oversold);
        assert_eq!(view.sold, 2, "both tickets visible: invariant broken");
        assert_eq!(
            crate::Oracle::ticket(vec!["gig".into()], 1)
                .final_violations(cluster.replica(ReplicaId(0))),
            1
        );
    }

    #[test]
    fn ipa_compensates_on_read_and_converges() {
        let (mut cluster, app) = oversell(Mode::Ipa);
        let v0 = commit(&mut cluster, 0, |tx| app.view(tx, "gig"));
        assert!(v0.oversold, "the violation happened…");
        assert_eq!(v0.sold, 1, "…but the read observes a consistent state");
        assert_eq!(v0.cancelled, vec!["bob"], "deterministic newest-cancelled");
        cluster.sync();
        // Both replicas converge to exactly one ticket sold.
        for r in 0..2 {
            let raw = cluster
                .replica(ReplicaId(r))
                .object(&pool_key("gig"))
                .unwrap()
                .as_compset()
                .unwrap()
                .raw_len();
            assert_eq!(raw, 1, "replica {r}");
        }
        // A second read finds nothing left to compensate.
        let v1 = commit(&mut cluster, 1, |tx| app.view(tx, "gig"));
        assert!(!v1.oversold);
        assert_eq!(v1.sold, 1);
    }

    #[test]
    fn local_precondition_rejects_when_full() {
        let app = TicketApp::new(Mode::Causal, 1);
        let mut cluster = Cluster::new(1);
        commit(&mut cluster, 0, |tx| app.create_event(tx, "gig"));
        assert!(commit(&mut cluster, 0, |tx| app.buy(tx, "u1", "gig")).is_some());
        assert!(
            commit(&mut cluster, 0, |tx| app.buy(tx, "u2", "gig")).is_none(),
            "sequential oversell is rejected locally"
        );
    }
}
