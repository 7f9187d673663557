//! What replicated state costs in heap, counted exactly: bytes per live
//! add-wins element, and allocations per slide commit. `peak_rss_mb` can
//! only show these on a quiet runner; this pins them on any.
//!
//! TEST-ONLY `unsafe`: the counting `GlobalAlloc` below forwards every
//! call unchanged to `System` and exists only in this test binary; it
//! counts per thread, so the harness's own threads do not disturb it.
//! Outside it, `crates/store/src/pool.rs` stays the repo's only `unsafe`.

use ipa::crdt::{AWSetOp, Object, ObjectKind, ObjectOp, ReplicaId, Tag, Val};
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
    // ascending order (the B-tree's emptiest leaves). A nested
    // `BTreeSet<Tag>` per element cost 299 B here; the inline tag set
    // leaves only the outer map's 56-byte slots and their slack (107 B).
    let before = live_bytes();
    let sets: Vec<Object> = (0..SETS)
        .map(|_| {
            let mut set = Object::new(ObjectKind::AWSet, ReplicaId(0));
            for i in 0..ELEMENTS {
                let add = AWSetOp::Add {
                    elem: Val::Int(i as i64),
                    tag: Tag::new(ReplicaId(0), i as u64 + 1),
                };
                set.apply(&ObjectOp::AWSet(add)).expect("an add-wins add");
            }
            set
        })
        .collect();
    let per_element = (live_bytes() - before) as usize / (SETS * ELEMENTS);
    assert!(per_element <= 140, "{per_element} B per live element");
    drop(sets);

    // The write path: one slide (add the next element, remove the oldest)
    // on a stored 4,096-element set, begin to sealed batch. At the parent
    // commit (eececc3, nested `BTreeSet<Tag>` entries and two `Vec`s per
    // remove) this counted PARENT_SLIDE_ALLOCATIONS.
    const PARENT_SLIDE_ALLOCATIONS: usize = 13;
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
    let mut tx = replica.begin();
    tx.aw_add(key.clone(), Val::Int(ELEMENTS as i64))
        .expect("an add");
    tx.aw_remove(key.clone(), &Val::Int(0)).expect("a remove");
    tx.commit();
    let slide = allocations() - before;
    assert!(
        slide < PARENT_SLIDE_ALLOCATIONS,
        "a slide commit made {slide} allocations, the parent {PARENT_SLIDE_ALLOCATIONS}"
    );
}
