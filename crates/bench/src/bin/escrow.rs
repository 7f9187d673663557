//! Regenerate the escrow-vs-strong ticket-sale comparison and write the
//! tracked `BENCH_escrow.json` at the repo root.
//!
//! ```text
//! cargo run -p ipa-bench --release --bin escrow [-- --quick]
//! ```

use ipa_bench::figures::escrow;

fn main() {
    let report = escrow::regenerate(ipa_bench::quick_flag());
    if let Err(broken) = escrow::check(&report) {
        eprintln!("BENCH_escrow.json guardrail broken: {broken}");
        std::process::exit(1);
    }
    println!("BENCH_escrow.json OK: every guardrail holds");
}
