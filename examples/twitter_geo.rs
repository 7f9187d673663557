//! Run the Twitter clone on the simulated 3-region deployment and compare
//! the paper's repair strategies (§5.2.3 / Fig. 6): add-wins pays on
//! writes, rem-wins pays on timeline reads.
//!
//! ```sh
//! cargo run --release --example twitter_geo
//! ```

use ipa::apps::twitter::runtime::Strategy;
use ipa::apps::twitter::TwitterWorkload;
use ipa::apps::Oracle;
use ipa::sim::{paper_topology, SimConfig, Simulation};

fn main() {
    println!("Twitter on US-EAST / US-WEST / EU-WEST (80/80/160 ms RTTs)\n");
    for strategy in [Strategy::Causal, Strategy::AddWins, Strategy::RemWins] {
        let cfg = SimConfig {
            clients_per_region: 3,
            warmup_s: 0.5,
            duration_s: 4.0,
            seed: 7,
            ..Default::default()
        };
        let mut sim = Simulation::new(paper_topology(), cfg);
        let mut w = TwitterWorkload::with_defaults(strategy);
        sim.run(&mut w);
        sim.quiesce();

        let overall = sim.metrics.overall().expect("ops ran");
        let tweet = sim.metrics.summary("Tweet");
        let timeline = sim.metrics.summary("Timeline");
        let oracle = Oracle::twitter();
        let dangling: u64 = (0..3)
            .map(|r| oracle.final_violations(sim.replica(r)))
            .sum();
        println!("strategy {strategy}:");
        println!(
            "  {} ops, mean {:.2} ms (tweet {:.2} ms, timeline {:.2} ms)",
            overall.count,
            overall.mean_ms,
            tweet.map_or(0.0, |s| s.mean_ms),
            timeline.map_or(0.0, |s| s.mean_ms),
        );
        println!("  dangling references after convergence: {dangling}");
        match strategy {
            Strategy::Causal => {
                println!("  (unrepaired: concurrent delete/retweet races leave debris)\n")
            }
            Strategy::AddWins => {
                println!("  (writes restore users/tweets; deleted tweets can resurface)\n")
            }
            Strategy::RemWins => {
                println!("  (deletes purge concurrent additions; reads hide removed tweets)\n")
            }
        }
    }
}
