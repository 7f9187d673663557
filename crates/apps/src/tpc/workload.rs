//! TPC workload: browsing-heavy mix with purchases, restocks and
//! occasional catalogue changes.

use crate::common::Mode;
use crate::oracle::Oracle;
use crate::soak::{SoakApp, SoakMode};
use crate::tpc::runtime::TpcApp;
use ipa_sim::{AppWorkload, ClientInfo, OpCtx, OpOutcome};
use ipa_store::{StoreError, Transaction};
use rand::Rng;
use std::fmt;
use std::str::FromStr;

/// One decided TPC operation (fully resolved product name). A
/// `Purchase` that finds the shelf empty restocks instead — that branch
/// is execute-time state, mirroring the pre-split workload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TpcOp {
    View { p: String },
    Purchase { p: String },
    Restock { p: String },
    RemProduct { p: String },
    AddProduct { p: String },
}

impl fmt::Display for TpcOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TpcOp::View { p } => write!(f, "view {p}"),
            TpcOp::Purchase { p } => write!(f, "purchase {p}"),
            TpcOp::Restock { p } => write!(f, "restock {p}"),
            TpcOp::RemProduct { p } => write!(f, "remproduct {p}"),
            TpcOp::AddProduct { p } => write!(f, "addproduct {p}"),
        }
    }
}

impl FromStr for TpcOp {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let tok: Vec<&str> = s.split_whitespace().collect();
        if tok.len() != 2 {
            return Err(format!("bad tpc op {s:?}"));
        }
        let p = tok[1].to_owned();
        match tok[0] {
            "view" => Ok(TpcOp::View { p }),
            "purchase" => Ok(TpcOp::Purchase { p }),
            "restock" => Ok(TpcOp::Restock { p }),
            "remproduct" => Ok(TpcOp::RemProduct { p }),
            "addproduct" => Ok(TpcOp::AddProduct { p }),
            _ => Err(format!("bad tpc op {s:?}")),
        }
    }
}

/// Workload parameters.
#[derive(Clone, Debug)]
pub struct TpcConfig {
    pub num_products: usize,
    pub initial_stock: i64,
}

impl Default for TpcConfig {
    fn default() -> Self {
        TpcConfig {
            num_products: 20,
            initial_stock: 10,
        }
    }
}

/// Simulator workload for one mode.
pub struct TpcWorkload {
    pub app: TpcApp,
    cfg: TpcConfig,
    products: Vec<String>,
    next_order: u64,
}

impl TpcWorkload {
    pub fn new(mode: Mode, cfg: TpcConfig) -> Self {
        let products = (0..cfg.num_products).map(|i| format!("sku{i}")).collect();
        TpcWorkload {
            app: TpcApp::new(mode),
            cfg,
            products,
            next_order: 0,
        }
    }

    pub fn with_defaults(mode: Mode) -> Self {
        Self::new(mode, TpcConfig::default())
    }

    pub fn products(&self) -> &[String] {
        &self.products
    }
}

impl AppWorkload for TpcWorkload {
    type Op = TpcOp;

    fn setup<C: OpCtx>(&mut self, ctx: &mut C) {
        let app = self.app;
        let products = self.products.clone();
        let stock = self.cfg.initial_stock;
        ctx.commit(0, |tx| {
            for p in &products {
                app.add_product(tx, p, stock)?;
            }
            Ok(())
        })
        .expect("seed products");
    }

    /// Draw the next op (product, then op-kind — the pre-split order).
    fn decide<C: OpCtx>(&mut self, ctx: &mut C, _client: ClientInfo) -> TpcOp {
        let p = self.products[ctx.rng().gen_range(0..self.products.len())].clone();
        let x = ctx.rng().gen::<f64>();
        if x < 0.45 {
            TpcOp::View { p }
        } else if x < 0.85 {
            TpcOp::Purchase { p }
        } else if x < 0.93 {
            TpcOp::Restock { p }
        } else if x < 0.97 {
            TpcOp::RemProduct { p }
        } else {
            TpcOp::AddProduct { p }
        }
    }

    /// Execute a decided (or replayed) op. Order ids are execute-time
    /// state, so replays regenerate the identical order stream.
    fn execute<C: OpCtx>(&mut self, ctx: &mut C, client: ClientInfo, op: &TpcOp) -> OpOutcome {
        let region = client.region;
        let app = self.app;

        let (label, cost, violations): (&'static str, _, u64) = match op {
            TpcOp::View { p } => {
                let ((_, negative, cost), _info) =
                    ctx.commit(region, |tx| app.view(tx, p)).expect("view");
                (
                    "View",
                    cost,
                    u64::from(negative && app.mode == Mode::Causal),
                )
            }
            TpcOp::Purchase { p } => {
                self.next_order += 1;
                let order = format!("o{}", self.next_order);
                let (res, _info) = ctx
                    .commit(region, |tx| app.purchase(tx, &order, p))
                    .expect("purchase");
                match res {
                    Some(cost) => ("Purchase", cost, 0),
                    None => {
                        // Out of stock: restock (the admin path).
                        let (cost, _info) = ctx
                            .commit(region, |tx| app.restock(tx, p))
                            .expect("restock");
                        ("Restock", cost, 0)
                    }
                }
            }
            TpcOp::Restock { p } => {
                let (cost, _info) = ctx
                    .commit(region, |tx| app.restock(tx, p))
                    .expect("restock");
                ("Restock", cost, 0)
            }
            TpcOp::RemProduct { p } => {
                let (cost, _info) = ctx
                    .commit(region, |tx| app.rem_product(tx, p))
                    .expect("rem product");
                ("RemProduct", cost, 0)
            }
            TpcOp::AddProduct { p } => {
                let (cost, _info) = ctx
                    .commit(region, |tx| app.add_product(tx, p, self.cfg.initial_stock))
                    .expect("add product");
                ("AddProduct", cost, 0)
            }
        };

        OpOutcome {
            label,
            objects: cost.objects,
            updates: cost.updates,
            extra_wan_ms: 0.0,
            ok: true,
            violations,
        }
    }
}

impl SoakApp for TpcWorkload {
    fn fresh(mode: SoakMode) -> Self {
        Self::with_defaults(mode.app_mode())
    }

    fn oracle(&self) -> Oracle {
        Oracle::tpc(self.products.clone())
    }

    /// Negative stock is restocked by the `view` read.
    fn sweep(&self, tx: &mut Transaction<'_>) -> Result<(), StoreError> {
        for p in &self.products {
            self.app.view(tx, p)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_sim::{paper_topology, SimConfig, Simulation};

    fn run(mode: Mode, seed: u64) -> (Simulation, TpcWorkload) {
        let cfg = SimConfig {
            clients_per_region: 4,
            think_time_ms: 4.0,
            warmup_s: 0.5,
            duration_s: 4.0,
            seed,
            ..Default::default()
        };
        let mut sim = Simulation::new(paper_topology(), cfg);
        let mut w = TpcWorkload::with_defaults(mode);
        sim.run(&mut w);
        sim.quiesce();
        (sim, w)
    }

    #[test]
    fn causal_run_produces_anomalies() {
        let (sim, w) = run(Mode::Causal, 51);
        let v: u64 = (0..3)
            .map(|r| crate::Oracle::tpc(w.products().to_vec()).final_violations(sim.replica(r)))
            .sum();
        assert!(
            v + sim.metrics.violations > 0,
            "contended TPC under causal should violate stock/ref-integrity"
        );
    }

    #[test]
    fn ipa_reads_never_observe_violations_and_orders_stay_valid() {
        let (sim, _w) = run(Mode::Ipa, 51);
        // IPA views either see valid stock or repair it in the same
        // transaction, so the metric stays zero.
        assert_eq!(sim.metrics.violations, 0);
        // Referential integrity: the purchase-side touch keeps every
        // ordered product alive — no orphan orders on any replica.
        for r in 0..3 {
            let orphans = crate::Oracle::tpc(Vec::new()).final_violations(sim.replica(r));
            assert_eq!(orphans, 0, "replica {r}: no orphan orders");
        }
    }
}
