//! Regenerate every table and figure of the paper's evaluation in one go.
fn main() {
    let quick = ipa_bench::quick_flag();
    println!("=== IPA evaluation — all tables & figures (quick={quick}) ===\n");
    let rows = ipa_bench::figures::table1::run();
    ipa_bench::figures::table1::print(&rows);
    println!();
    let p4 = ipa_bench::figures::fig4::run(quick);
    ipa_bench::figures::fig4::print(&p4);
    println!();
    let t5 = ipa_bench::figures::fig5::run(quick);
    ipa_bench::figures::fig5::print(&t5);
    println!();
    let t6 = ipa_bench::figures::fig6::run(quick);
    ipa_bench::figures::fig6::print(&t6);
    println!();
    let p7 = ipa_bench::figures::fig7::run(quick);
    ipa_bench::figures::fig7::print(&p7);
    println!();
    let (top, bottom) = ipa_bench::figures::fig8::run(quick);
    ipa_bench::figures::fig8::print(&top, &bottom);
    println!();
    let p9 = ipa_bench::figures::fig9::run(quick);
    ipa_bench::figures::fig9::print(&p9);
    println!();
    let nem = ipa_bench::figures::nemesis::run(quick);
    ipa_bench::figures::nemesis::print(&nem);
    println!();
    ipa_bench::figures::load::regenerate(quick);
    println!();
    ipa_bench::figures::escrow::regenerate(quick);
}
