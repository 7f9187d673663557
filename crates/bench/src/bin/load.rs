//! Regenerate the open-loop load sweep and write the tracked
//! `BENCH_load.json` at the repo root.
//!
//! ```text
//! cargo run -p ipa-bench --release --bin load [-- --quick]
//! ```

use ipa_bench::figures::load;

fn main() {
    let report = load::regenerate(ipa_bench::quick_flag());
    if let Err(broken) = load::check(&report) {
        eprintln!("BENCH_load.json guardrail broken: {broken}");
        std::process::exit(1);
    }
    println!("BENCH_load.json OK: every guardrail holds");
}
