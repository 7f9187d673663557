//! Regenerate Table 1 (invariant class coverage) and the per-application
//! cost of the analysis that backs it.
fn main() {
    let rows = ipa_bench::figures::table1::run();
    ipa_bench::figures::table1::print(&rows);
    println!();
    let costs = ipa_bench::figures::table1::analysis_costs();
    ipa_bench::figures::table1::print_costs(&costs);
}
