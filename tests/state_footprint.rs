//! What replicated state costs in heap, counted exactly: bytes per live
//! add-wins element, allocations per slide commit, per simulated
//! application op, per value clone, per lookup by name and per static
//! analysis of a shipped specification. `peak_rss_mb`
//! and ops per wall second can only show these on a quiet runner; this
//! pins them on any.
//!
//! TEST-ONLY `unsafe`: the counting `GlobalAlloc` below forwards every
//! call unchanged to `System` and exists only in this test binary; it
//! counts per thread, so the harness's own threads do not disturb it.
//! Outside it, `crates/store/src/pool.rs` stays the repo's only `unsafe`.

use ipa::analysis::Analyzer;
use ipa::apps::ticket::sale::{SaleBackend, SaleConfig, SaleWorkload};
use ipa::apps::ticket::ticket_spec;
use ipa::apps::tournament::workload::TournamentConfig;
use ipa::apps::tournament::{tournament_spec, TournamentWorkload};
use ipa::apps::tpc::{tpc_spec, TpcWorkload};
use ipa::apps::twitter::runtime::Strategy;
use ipa::apps::twitter::{twitter_spec, TwitterWorkload};
use ipa::apps::Mode;
use ipa::crdt::{AWSetOp, Object, ObjectKind, ObjectOp, ReplicaId, Tag, Val};
use ipa::sim::{paper_topology, FaultPlan, SimConfig, Simulation, Workload};
use ipa::store::{Key, Replica};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and without a destructor, so reading them inside
    // the allocator neither allocates nor outlives the thread.
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

fn count(bytes: isize, allocations: usize) {
    LIVE_BYTES.with(|b| b.set(b.get() + bytes));
    ALLOCATIONS.with(|a| a.set(a.get() + allocations));
}

// SAFETY: every method hands its arguments to `System` untouched and
// returns what `System` returns, so `System`'s own contract carries over;
// the counters are plain thread-local integers.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize, 1);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize), 0);
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize, 1);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn live_bytes() -> isize {
    LIVE_BYTES.with(Cell::get)
}

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

const SETS: usize = 64;
const ELEMENTS: usize = 4096;

#[test]
fn state_costs_what_it_holds() {
    // Resident state: 64 sets of 4,096 single-tag integers, inserted in
    // ascending order. In a B-tree (whose leaves ascending inserts leave
    // 6/11 full) a nested `BTreeSet<Tag>` per element cost 299 B here;
    // the inline tag set left only the outer map's slots and their slack
    // (107 B); with a 24-byte `Val` the slot is 48 bytes (92 B). In a
    // list of full 64-slot chunks it is the slot and a share of the list.
    let ascending = bytes_per_element(SETS, ELEMENTS, add_ascending);
    eprintln!("ascending: {ascending} B per live element");
    assert!(ascending <= 56, "{ascending} B per live element");
    // Scattered adds and removes leave chunks partly full: 57 B per
    // element, where the B-tree spent 76.
    let churned = bytes_per_element(SETS, ELEMENTS, churn_scattered);
    eprintln!("scattered churn: {churned} B per live element");
    assert!(churned <= 78, "{churned} B per live element");

    // The write path: slides (add the next element, remove the oldest)
    // on a stored 4,096-element set, begin to sealed batch. One slide
    // counted 13 with nested `BTreeSet<Tag>` entries and two `Vec`s per
    // remove (eececc3), then 8 while the first write to the set started a
    // partial copy (8a92d08), then 7 once a write the transaction never
    // reads back copied nothing. A large set is a list of 64-slot chunks
    // and the first slide here opens the 65th, so the count is taken over
    // `SLIDES` slides in a row: 7 each, the chunk opened and the chunk
    // list's one growth, and the replica's outbox and origin log (never
    // drained here) each doubling at the 5th, 9th, 17th, 33rd and 65th
    // batch. The B-tree counted 468: a leaf per few ascending adds.
    const SLIDES: usize = 64;
    const PER_SLIDE: usize = 7;
    const LOG_GROWTH: usize = 2 * 5;
    let key = Key::new("hot");
    let mut replica = Replica::new(ReplicaId(0));
    let mut tx = replica.begin();
    tx.ensure(key.clone(), ObjectKind::AWSet)
        .expect("a new key");
    for i in 0..ELEMENTS {
        tx.aw_add(key.clone(), Val::Int(i as i64)).expect("an add");
    }
    tx.commit();
    let before = allocations();
    for i in 0..SLIDES {
        let mut tx = replica.begin();
        tx.aw_add(key.clone(), Val::Int((ELEMENTS + i) as i64))
            .expect("an add");
        tx.aw_remove(key.clone(), &Val::Int(i as i64))
            .expect("a remove");
        tx.commit();
    }
    let slides = allocations() - before;
    let bound = PER_SLIDE * SLIDES + 2 + LOG_GROWTH;
    assert!(
        slides <= bound,
        "{SLIDES} slide commits made {slides} allocations, pinned at {bound}"
    );
}

/// Heap bytes per live element of `sets` add-wins sets of `n` single-tag
/// integers each, each built by `fill`, the `Vec<Object>` holding them
/// included.
fn bytes_per_element(sets: usize, n: usize, fill: fn(&mut Object, usize)) -> usize {
    let before = live_bytes();
    let held: Vec<Object> = (0..sets)
        .map(|_| {
            let mut set = Object::new(ObjectKind::AWSet, ReplicaId(0));
            fill(&mut set, n);
            set
        })
        .collect();
    let per_element = (live_bytes() - before) as usize / (sets * n);
    // Walking the members allocates nothing, small set or large.
    let walks = allocations();
    let members: usize = held
        .iter()
        .map(|set| set.as_awset().expect("a set").elements().count())
        .sum();
    assert_eq!(members, sets * n);
    assert_eq!(allocations() - walks, 0, "walking sets of {n} allocated");
    per_element
}

fn add(set: &mut Object, e: usize) {
    let add = AWSetOp::Add {
        elem: Val::Int(e as i64),
        tag: Tag::new(ReplicaId(0), e as u64 + 1),
    };
    set.apply(&ObjectOp::AWSet(add)).expect("an add-wins add");
}

/// `0..n`, in ascending order.
fn add_ascending(set: &mut Object, n: usize) {
    (0..n).for_each(|e| add(set, e));
}

/// `2n` integers in a scattered order (an odd stride through a power of
/// two visits each once): the first `n` added, then `n` rounds that each
/// remove the oldest member and add the next integer.
fn churn_scattered(set: &mut Object, n: usize) {
    let space = 2 * n;
    assert!(space.is_power_of_two());
    let nth = |i: usize| i * 5_003 % space;
    (0..n).for_each(|i| add(set, nth(i)));
    for i in 0..n {
        let oldest = Val::Int(nth(i) as i64);
        let remove = set.as_awset().expect("a set").prepare_remove(&oldest);
        let remove = ObjectOp::AWSet(remove.expect("a member"));
        set.apply(&remove).expect("an add-wins remove");
        add(set, nth(n + i));
    }
}

#[test]
fn small_objects_cost_what_they_hold() {
    use std::mem::size_of;
    // A shard-table slot's object, and a logged or shipped update. They
    // were 88 and 112 bytes, the size of the largest kind (a bounded
    // counter, a map put) whatever the object or effect was.
    assert!(size_of::<Object>() <= 56, "{}", size_of::<Object>());
    assert!(size_of::<ObjectOp>() <= 48, "{}", size_of::<ObjectOp>());
    let logged = size_of::<(Key, ObjectKind, ObjectOp)>();
    assert!(logged <= 88, "a logged update is {logged} B, was 152");

    // The benchmark's sets hold 4 and 16 elements. A B-tree spent 158 and
    // 113 B per element on them (one 544-byte leaf per 4-element set); a
    // sorted vector spends the 48-byte `(Val, TagSet)` slot and a share
    // of the object's own.
    let four = bytes_per_element(SETS * 16, 4, add_ascending);
    let sixteen = bytes_per_element(SETS * 4, 16, add_ascending);
    assert!(four <= 64, "{four} B per element of a 4-element set");
    assert!(sixteen <= 56, "{sixteen} B per element of a 16-element set");
}

#[test]
fn cloning_a_value_never_allocates() {
    let values = [
        Val::str("alice"),
        Val::int(7),
        Val::pair("alice", "weekly-open"),
        Val::triple("alice", "bob", "weekly-open"),
        Val::triple(Val::pair("a", Val::pair("b", 1)), "c", Val::triple(1, 2, 3)),
    ];
    let before = allocations();
    let clones = values.clone();
    let made = allocations() - before;
    assert_eq!(clones, values);
    assert_eq!(made, 0, "cloning {values:?}");
}

#[test]
fn naming_a_stored_object_allocates_no_key() {
    let mut replica = Replica::new(ReplicaId(0));
    let mut tx = replica.begin();
    tx.ensure("k", ObjectKind::AWSet).expect("a new key");
    tx.aw_add("k", Val::Int(1)).expect("an add");
    tx.commit();

    // A read of a stored set by name: a lookup and nothing else.
    let mut tx = replica.begin();
    let before = allocations();
    let held = tx.contains("k", &Val::Int(1)).expect("a set");
    let read = allocations() - before;
    drop(tx);
    assert!(held);
    assert_eq!(read, 0, "contains by &str");

    // A write by name costs what the same write costs a caller who
    // already holds the `Key`: the overlay entry and the buffered effect,
    // both carrying clones of the shard table's own key.
    let add = |replica: &mut Replica, by_name: bool| {
        let key = Key::new("k");
        let mut tx = replica.begin();
        let before = allocations();
        if by_name {
            tx.aw_add("k", Val::Int(2)).expect("an add");
        } else {
            tx.aw_add(key, Val::Int(2)).expect("an add");
        }
        allocations() - before
    };
    let by_key = add(&mut replica, false);
    let by_name = add(&mut replica, true);
    assert_eq!(by_name, by_key, "aw_add by &str against by Key");

    // Creating an object takes a caller's `Key` as it is, and every later
    // effect on the object, named by `&str`, carries that same key.
    let fresh = Key::new("fresh");
    replica.take_outbox();
    for _ in 0..2 {
        let mut tx = replica.begin();
        tx.ensure(fresh.clone(), ObjectKind::AWSet)
            .expect("a new key");
        tx.aw_add("fresh", Val::Int(1)).expect("an add");
        tx.commit();
    }
    for batch in replica.take_outbox() {
        let carried = batch.updates[0].0.as_str();
        assert!(std::ptr::eq(carried, fresh.as_str()), "a copied key");
    }
}

/// One of the benchmark's `sim_apps` cells (its topology, clients, warm-up,
/// fault plan and seed 1; no auditor), `run` then `quiesce`: allocations
/// per completed op stay within `at_most`, members handed to whole-set
/// and range reads per completed op within `visits_at_most`, and the
/// schedule is the parent's.
fn simulated_cell(
    name: &str,
    workload: &mut dyn Workload,
    virtual_s: f64,
    (at_most, visits_at_most): (usize, f64),
    parent_digest: u64,
) {
    let cfg = SimConfig {
        clients_per_region: 8,
        warmup_s: 0.5,
        duration_s: virtual_s,
        seed: 1,
        faults: FaultPlan::with_intensity(1, 0.3),
        ..Default::default()
    };
    let mut sim = Simulation::new(paper_topology(), cfg);
    let before = allocations();
    sim.run(workload);
    sim.quiesce();
    let per_op = (allocations() - before) / sim.metrics.completed as usize;
    eprintln!("{name}: {per_op} allocations per simulated op");
    assert!(
        per_op <= at_most,
        "{name}: {per_op} allocations per simulated op, pinned at {at_most}"
    );
    let visited: u64 = (0..sim.regions())
        .map(|r| sim.replica(r as u16).stats.read_members_visited)
        .sum();
    let visits = visited as f64 / sim.metrics.completed as f64;
    eprintln!("{name}: {visits:.1} members read per simulated op");
    assert!(
        visits <= visits_at_most,
        "{name}: {visits:.1} members read per simulated op, pinned at {visits_at_most}"
    );
    assert_eq!(
        sim.schedule_digest(),
        parent_digest,
        "{name}: the schedule moved"
    );
}

#[test]
fn a_simulated_op_costs_its_own_work_not_the_allocators() {
    // With `Val::Str(String)`, boxed tuples, a cloned set per whole-set
    // read and a `Key` built per lookup (4623ee4) the four cells counted
    // 577 / 3,324 / 199 / 41 allocations per op; while a first write to a
    // stored set or map started a partial copy (8a92d08) 94 / 59 / 24 /
    // 18; once a write was copied only when read back, 31 / 54 / 24 /
    // 15; once an escrow decrement recorded no per-resource demand,
    // 31 / 54 / 23 / 15; now that a small set's vector grows one slot per
    // new member (a reallocation each) and map and rem-wins effects are
    // boxed, 33 / 56 / 25 / 19; now that an op reads the members it
    // names as a range (one bound each) and builds a tweet's entries from
    // shared values, 35 / 54 / 25 / 19. The digests are 4623ee4's: no
    // change moves a schedule.
    //
    // Members handed to whole-set reads per op were 96 / 538 / 164 / 0
    // while `enroll`, `status`, `timeline` and `followers_of` walked whole
    // sets and `set_len` counted a walk; reading by leading component,
    // and `set_len` from the object's `len`, 8.0 / 17.8 / 0 / 0.
    simulated_cell(
        "tournament",
        &mut TournamentWorkload::new(Mode::Ipa, TournamentConfig::default()),
        5.0,
        (135, 12.0),
        0x2854_3b09_146f_d9b6,
    );
    simulated_cell(
        "twitter",
        &mut TwitterWorkload::with_defaults(Strategy::AddWins),
        0.8,
        (100, 24.0),
        0xe3b3_cd96_2014_2f5a,
    );
    let sale = SaleConfig {
        num_events: 8,
        hot_capacity: 4_000,
        tail_capacity: 20_000,
        ..SaleConfig::default()
    };
    simulated_cell(
        "ticket",
        &mut SaleWorkload::new(SaleBackend::Escrow, sale),
        6.0,
        (40, 1.0),
        0x377c_4f4e_aed5_c9d7,
    );
    simulated_cell(
        "tpc",
        &mut TpcWorkload::with_defaults(Mode::Ipa),
        6.0,
        (32, 1.0),
        0x1803_83b8_8392_7e41,
    );
}

/// Allocations of one `Analyzer::analyze` of each shipped specification,
/// counted after a warm-up analysis of the same specification. While a
/// query re-walked its images' formulas, hashed them with SipHash and
/// built a `Vec` per clause, and a footprint grounded its effects through
/// names (7dd900b), the four counted 67,190 / 4,241 / 731 / 1,391; with
/// images asserted by number, effects grounded by block arithmetic and
/// the solver's clauses in one arena, 22,922 / 2,336 / 519 / 1,063.
#[test]
fn an_analysis_allocates_per_answer_not_per_lookup() {
    for (spec, at_most) in [
        (tournament_spec(), 24_000),
        (twitter_spec(false), 2_500),
        (ticket_spec(), 560),
        (tpc_spec(), 1_150),
    ] {
        let analyzer = Analyzer::for_spec(&spec);
        analyzer.analyze(&spec).expect("warm-up analysis");
        let before = allocations();
        let report = analyzer.analyze(&spec).expect("analysis");
        let made = allocations() - before;
        drop(report);
        eprintln!("{}: {made} allocations per analysis", spec.name);
        assert!(
            made <= at_most,
            "{}: {made} allocations per analysis, pinned at {at_most}",
            spec.name
        );
    }
}
