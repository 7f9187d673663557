//! The threaded-transport soak matrix: every application runs on real
//! `std::thread` replicas under a fault plan drawn from the seed (crash
//! and cut windows applied on the wall clock), and the full oracle suite
//! — continuous invariants, double-apply, final invariants, convergence,
//! bounded liveness — must come back green at quiescence.
//!
//! Unlike the deterministic nemesis soaks (`tests/nemesis_soak.rs`),
//! nothing here is replayable: a red cell is a genuine concurrency bug
//! and must be chased with the stats counters, the continuous auditor's
//! first-failure report and the printed fault plan, not a schedule digest.
//!
//! CI fans this out one cell per job via `IPA_THREADED_APP` /
//! `IPA_THREADED_SEED`; locally (no env) it sweeps all five cells of
//! `App::all()` (the four apps plus the escrow ticket sale) on one seed,
//! time-bounded to stay inside a tier-1 budget.

use ipa::apps::soak::{run_threaded_soak, App, ThreadedSoakConfig};
use std::time::Duration;

fn selected_apps() -> Vec<App> {
    match std::env::var("IPA_THREADED_APP") {
        Ok(name) => {
            let app = App::parse(&name)
                .unwrap_or_else(|| panic!("IPA_THREADED_APP={name:?}: unknown app"));
            vec![app]
        }
        Err(_) => App::all().to_vec(),
    }
}

fn selected_seeds() -> Vec<u64> {
    match std::env::var("IPA_THREADED_SEED") {
        Ok(s) => vec![s.parse().expect("IPA_THREADED_SEED must be a u64")],
        Err(_) => vec![17],
    }
}

#[test]
fn threaded_soak_matrix_is_green() {
    for app in selected_apps() {
        for seed in selected_seeds() {
            let run = run_threaded_soak(
                app,
                ThreadedSoakConfig {
                    seed,
                    duration: Duration::from_millis(400),
                    clients_per_region: 2,
                    faults: true,
                },
            );
            assert_eq!(
                run.failure, None,
                "{app} seed {seed}: threaded soak failed: {:?} \
                 (completed {} ops, quiesce took {} rounds) under this plan:\n{}",
                run.failure, run.completed, run.quiesce_rounds, run.plan
            );
            assert!(
                run.completed > 50,
                "{app} seed {seed}: clients made progress ({} ops)",
                run.completed
            );
        }
    }
}
