//! TPC runtime: catalogue, orders and per-product stock counters.

use crate::common::Mode;
use crate::layout::{Layout, Place};
use ipa_crdt::{ObjectKind, Val, ValPattern};
use ipa_store::{StoreError, Transaction};

pub const PRODUCTS: &str = "tpc/products";
pub const ORDERS: &str = "tpc/orders";

/// The prefix of each product's stock counter: `{STOCK}{product}`.
pub const STOCK: &str = "tpc/stock/";

pub fn stock_key(product: &str) -> String {
    format!("{STOCK}{product}")
}

/// Where each predicate of `tpc_spec()` lives in the store.
pub const LAYOUT: Layout = Layout {
    places: &[
        ("product", Place::set(PRODUCTS)),
        ("ordered", Place::tuple(ORDERS, 2)),
        ("stock", Place::PerEntity { prefix: STOCK }),
    ],
    unmapped: &[],
};

/// The stored member of `ordered(o, p)` ([`LAYOUT`]'s order).
pub fn ordered(o: impl Into<Val>, p: impl Into<Val>) -> Val {
    Val::pair(o, p)
}

pub use crate::common::OpCost;

/// The TPC application.
#[derive(Clone, Copy, Debug)]
pub struct TpcApp {
    pub mode: Mode,
    /// Units added by a (compensation) restock.
    pub restock_units: i64,
}

impl TpcApp {
    pub fn new(mode: Mode) -> TpcApp {
        TpcApp {
            mode,
            restock_units: 10,
        }
    }

    pub fn ensure_schema(&self, tx: &mut Transaction<'_>) -> Result<(), StoreError> {
        tx.ensure(PRODUCTS, ObjectKind::AWMap)?;
        tx.ensure(ORDERS, ObjectKind::AWSet)?;
        Ok(())
    }

    pub fn add_product(
        &self,
        tx: &mut Transaction<'_>,
        p: &str,
        initial_stock: i64,
    ) -> Result<OpCost, StoreError> {
        self.ensure_schema(tx)?;
        tx.map_put(PRODUCTS, Val::str(p), Val::str(format!("sku:{p}")))?;
        tx.ensure(stock_key(p), ObjectKind::PNCounter)?;
        tx.counter_add(stock_key(p), initial_stock)?;
        Ok(OpCost::new(2, 2))
    }

    pub fn rem_product(&self, tx: &mut Transaction<'_>, p: &str) -> Result<OpCost, StoreError> {
        self.ensure_schema(tx)?;
        // Local precondition restoration (mirrors the tournament's
        // `rem_tourn`): delisting a product also clears the observed
        // orders that reference it, so referential integrity holds in the
        // origin state. Concurrent purchases elsewhere still win via
        // add-wins (and, under IPA, their `touch` keeps the product
        // alive), which preserves the Causal-mode orphan anomaly.
        tx.aw_remove_matching(
            ORDERS,
            &ValPattern::pair(ValPattern::Any, ValPattern::exact(p)),
        )?;
        tx.map_remove(PRODUCTS, &Val::str(p))?;
        Ok(OpCost::new(2, 2))
    }

    /// Purchase one unit: records the order and decrements stock. The
    /// local precondition rejects when the locally observed stock is
    /// empty; concurrent purchases elsewhere can still drive it negative.
    pub fn purchase(
        &self,
        tx: &mut Transaction<'_>,
        order: &str,
        p: &str,
    ) -> Result<Option<OpCost>, StoreError> {
        self.ensure_schema(tx)?;
        tx.ensure(stock_key(p), ObjectKind::PNCounter)?;
        if tx.counter_value(stock_key(p))? <= 0 {
            return Ok(None);
        }
        tx.aw_add(ORDERS, ordered(order, p))?;
        tx.counter_add(stock_key(p), -1)?;
        if self.mode == Mode::Ipa {
            // The analysis-added restore: a purchase keeps its product
            // alive against a concurrent rem_product (add-wins touch).
            tx.map_touch(PRODUCTS, Val::str(p))?;
            return Ok(Some(OpCost::new(3, 3)));
        }
        Ok(Some(OpCost::new(2, 2)))
    }

    pub fn restock(&self, tx: &mut Transaction<'_>, p: &str) -> Result<OpCost, StoreError> {
        tx.ensure(stock_key(p), ObjectKind::PNCounter)?;
        tx.counter_add(stock_key(p), self.restock_units)?;
        Ok(OpCost::new(1, 1))
    }

    /// Product view. Under IPA a negative observed stock triggers the
    /// compensation: replenish back to a non-negative level (the
    /// TPC-specified behaviour, §5.1.2), committed with this read.
    pub fn view(
        &self,
        tx: &mut Transaction<'_>,
        p: &str,
    ) -> Result<(i64, bool, OpCost), StoreError> {
        self.ensure_schema(tx)?;
        tx.ensure(stock_key(p), ObjectKind::PNCounter)?;
        let stock = tx.counter_value(stock_key(p))?;
        let negative = stock < 0;
        if negative && self.mode == Mode::Ipa {
            tx.counter_add(stock_key(p), -stock + self.restock_units)?;
            return Ok((self.restock_units, true, OpCost::new(2, 1)));
        }
        Ok((stock, negative, OpCost::new(2, 0)))
    }

    /// Current stock of a product at a replica (test helper).
    pub fn stock_at(replica: &ipa_store::Replica, p: &str) -> i64 {
        replica
            .object(&stock_key(p))
            .and_then(|o| o.as_pncounter().map(|c| c.value()))
            .unwrap_or(0)
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

    #[test]
    fn tuple_constructor_agrees_with_the_layout() {
        let member = LAYOUT.member("ordered", &[Val::str("o"), Val::str("p")]);
        assert_eq!(Some(ordered("o", "p")), member);
    }

    #[test]
    fn concurrent_purchases_drive_stock_negative_under_causal() {
        let app = TpcApp::new(Mode::Causal);
        let mut cluster = Cluster::new(2);
        commit(&mut cluster, 0, |tx| app.add_product(tx, "book", 1));
        cluster.sync();
        // Both replicas see stock 1 and purchase concurrently.
        assert!(commit(&mut cluster, 0, |tx| app.purchase(tx, "o1", "book")).is_some());
        assert!(commit(&mut cluster, 1, |tx| app.purchase(tx, "o2", "book")).is_some());
        cluster.sync();
        assert_eq!(TpcApp::stock_at(cluster.replica(ReplicaId(0)), "book"), -1);
        assert_eq!(
            crate::Oracle::tpc(vec!["book".into()]).final_violations(cluster.replica(ReplicaId(0))),
            1
        );
    }

    #[test]
    fn ipa_view_compensates_negative_stock() {
        let app = TpcApp::new(Mode::Ipa);
        let mut cluster = Cluster::new(2);
        commit(&mut cluster, 0, |tx| app.add_product(tx, "book", 1));
        cluster.sync();
        assert!(commit(&mut cluster, 0, |tx| app.purchase(tx, "o1", "book")).is_some());
        assert!(commit(&mut cluster, 1, |tx| app.purchase(tx, "o2", "book")).is_some());
        cluster.sync();
        let (stock, was_negative, _) = commit(&mut cluster, 0, |tx| app.view(tx, "book"));
        assert!(was_negative);
        assert_eq!(stock, app.restock_units, "replenished to the restock level");
        cluster.sync();
        for r in 0..2 {
            assert!(
                TpcApp::stock_at(cluster.replica(ReplicaId(r)), "book") >= 0,
                "replica {r}"
            );
        }
    }

    #[test]
    fn ipa_purchase_restores_product_against_concurrent_removal() {
        let app = TpcApp::new(Mode::Ipa);
        let mut cluster = Cluster::new(2);
        commit(&mut cluster, 0, |tx| app.add_product(tx, "book", 10));
        cluster.sync();
        commit(&mut cluster, 0, |tx| app.rem_product(tx, "book"));
        assert!(commit(&mut cluster, 1, |tx| app.purchase(tx, "o1", "book")).is_some());
        cluster.sync();
        for r in 0..2 {
            let rep = cluster.replica(ReplicaId(r));
            assert_eq!(
                crate::Oracle::tpc(vec!["book".into()]).final_violations(rep),
                0
            );
            let products = rep.object(PRODUCTS).unwrap();
            assert_eq!(
                products.set_contains(&Val::str("book")),
                Some(true),
                "replica {r}: the touch restored the product"
            );
        }
    }

    #[test]
    fn causal_purchase_vs_removal_orphans_the_order() {
        let app = TpcApp::new(Mode::Causal);
        let mut cluster = Cluster::new(2);
        commit(&mut cluster, 0, |tx| app.add_product(tx, "book", 10));
        cluster.sync();
        commit(&mut cluster, 0, |tx| app.rem_product(tx, "book"));
        assert!(commit(&mut cluster, 1, |tx| app.purchase(tx, "o1", "book")).is_some());
        cluster.sync();
        assert!(
            crate::Oracle::tpc(vec!["book".into()]).final_violations(cluster.replica(ReplicaId(0)))
                > 0
        );
    }
}
