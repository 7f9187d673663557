//! The transaction overlay copies only what a transaction reads back
//! (`ipa_store::txn` module docs, rules 1–5). That is a cost model, never
//! a semantic one: random scripts over all eight object kinds run through
//! [`Transaction`] and through a reference that clones the whole object
//! into its overlay at the first touch of a key — the semantics the
//! overlay replaced — must return the same reads, seal the same batch and
//! leave the same objects behind. The pins at the end fix the cost model
//! itself on the deterministic copy counters.

use ipa_crdt::compset::CompensatedRead;
use ipa_crdt::{Object, ObjectKind, ObjectOp, ReplicaId, Tag, VClock, Val, ValPattern};
use ipa_store::{Key, Replica, StoreError, Transaction, UpdateBatch};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

const ME: ReplicaId = ReplicaId(0);

const KINDS: [ObjectKind; 7] = [
    ObjectKind::AWSet,
    ObjectKind::RWSet,
    ObjectKind::AWMap,
    ObjectKind::PNCounter,
    ObjectKind::BCounter {
        floor: 0,
        initial: 6,
    },
    ObjectKind::LWW,
    ObjectKind::CompSet { capacity: 2 },
];

/// Keys `0..8` are preloaded (stored before the scripts run), `8..16`
/// start absent; the kind cycles with the key number.
const NUM_KEYS: u8 = 16;

/// The wide transaction's keys, numbered past [`NUM_KEYS`] from the
/// start of a kind cycle: stored add-wins sets, rem-wins sets and add-wins
/// maps, eleven of each.
const WIDE_KEYS: u8 = 33;

fn wide_key(w: u8) -> u8 {
    let cycle = KINDS.len() as u8;
    NUM_KEYS.next_multiple_of(cycle) + cycle * (w / 3) + w % 3
}

/// Every key a script may name.
fn all_keys() -> impl Iterator<Item = u8> {
    (0..NUM_KEYS).chain((0..WIDE_KEYS).map(wide_key))
}

fn key(k: u8) -> Key {
    Key::new(format!("k{k}"))
}

fn kind_of(k: u8) -> ObjectKind {
    KINDS[usize::from(k) % KINDS.len()]
}

/// Eight elements `(a, b)`, `a` in `0..4` and `b` in `0..2`, so that the
/// wildcard `(*, b)` matches half of them.
fn elem(e: u8) -> Val {
    Val::pair(Val::int(i64::from(e % 4)), Val::int(i64::from(e / 4 % 2)))
}

fn pattern(e: u8) -> ValPattern {
    ValPattern::pair(ValPattern::Any, ValPattern::exact(i64::from(e / 4 % 2)))
}

/// What a step does, decoded from `(kind of its key, op number)` so that
/// most steps are well typed. `Contains` on a counter or register is the
/// deliberate wrong-type probe.
#[derive(Clone, Copy, Debug)]
enum Op {
    Ensure,
    Add,
    Remove,
    RemoveMatching,
    Touch,
    Contains,
    Get,
    Elements,
}

fn decode(op: u8) -> Op {
    [
        Op::Ensure,
        Op::Add,
        Op::Add,
        Op::Remove,
        Op::RemoveMatching,
        Op::Touch,
        Op::Contains,
        Op::Contains,
        Op::Get,
        Op::Elements,
    ][usize::from(op % 10)]
}

/// A step's observable outcome.
#[derive(Clone, Debug, PartialEq)]
enum Out {
    Unit,
    Bool(bool),
    Int(i64),
    Value(Option<Val>),
    Elems(Vec<Val>),
    Read(CompensatedRead<Val>),
}

type Res = Result<Out, StoreError>;

/// One step through the transaction under test.
fn run_real(tx: &mut Transaction<'_>, k: u8, op: Op, e: u8) -> Res {
    let (key, kind, v) = (key(k), kind_of(k), elem(e));
    let n = u64::from(e % 4);
    if let Op::Ensure = op {
        return tx.ensure(key, kind).map(|()| Out::Unit);
    }
    if let Op::Contains = op {
        return tx.contains(key, &v).map(Out::Bool);
    }
    match (kind, op) {
        (ObjectKind::AWSet, Op::Add | Op::Touch) => tx.aw_add(key, v).map(|()| Out::Unit),
        (ObjectKind::AWSet, Op::Remove) => tx.aw_remove(key, &v).map(|()| Out::Unit),
        (ObjectKind::AWSet, Op::RemoveMatching) => {
            tx.aw_remove_matching(key, &pattern(e)).map(|()| Out::Unit)
        }
        (ObjectKind::RWSet, Op::Add | Op::Touch) => tx.rw_add(key, v).map(|()| Out::Unit),
        (ObjectKind::RWSet, Op::Remove) => tx.rw_remove(key, v).map(|()| Out::Unit),
        (ObjectKind::RWSet, Op::RemoveMatching) => {
            tx.rw_remove_matching(key, pattern(e)).map(|()| Out::Unit)
        }
        (ObjectKind::AWMap, Op::Add) => tx
            .map_put(key, v, Val::int(i64::from(e)))
            .map(|()| Out::Unit),
        (ObjectKind::AWMap, Op::Touch) => tx.map_touch(key, v).map(|()| Out::Unit),
        (ObjectKind::AWMap, Op::Remove | Op::RemoveMatching) => {
            tx.map_remove(key, &v).map(|()| Out::Unit)
        }
        (ObjectKind::AWMap, Op::Get) => tx.map_get(key, &v).map(Out::Value),
        (ObjectKind::PNCounter, Op::Add | Op::Touch) => {
            tx.counter_add(key, i64::from(e) - 3).map(|()| Out::Unit)
        }
        (ObjectKind::BCounter { .. }, Op::Add | Op::Touch) => {
            tx.bcounter_inc(key, n).map(|()| Out::Unit)
        }
        (ObjectKind::BCounter { .. }, Op::Remove | Op::RemoveMatching) => {
            tx.bcounter_dec(key, n).map(|()| Out::Unit)
        }
        (ObjectKind::BCounter { .. }, Op::Get) => tx.bcounter_rights(key, ME).map(Out::Int),
        (ObjectKind::PNCounter | ObjectKind::BCounter { .. }, _) => {
            tx.counter_value(key).map(Out::Int)
        }
        (ObjectKind::LWW, Op::Add | Op::Touch) => tx.lww_write(key, v).map(|()| Out::Unit),
        (ObjectKind::LWW, _) => tx.lww_get(key).map(Out::Value),
        (ObjectKind::CompSet { .. }, Op::Add | Op::Touch) => {
            tx.compset_add(key, v).map(|()| Out::Unit)
        }
        (ObjectKind::CompSet { .. }, Op::Get | Op::Remove | Op::RemoveMatching) => {
            tx.compset_read(key).map(Out::Read)
        }
        (_, Op::Elements | Op::Get) => tx.set_elements(key).map(Out::Elems),
        (_, Op::Ensure | Op::Contains) => unreachable!("handled above"),
    }
}

// ----------------------------------------------------------------------
// The reference: a model store, and a transaction over it that clones the
// whole object at first touch.
// ----------------------------------------------------------------------

#[derive(Default)]
struct RefStore {
    objects: BTreeMap<Key, (ObjectKind, Object)>,
    clock: VClock,
    lamport: u64,
    tags: u64,
}

struct RefTxn<'a> {
    store: &'a mut RefStore,
    overlay: BTreeMap<Key, (ObjectKind, Object)>,
    updates: Vec<(Key, ObjectKind, ObjectOp)>,
    clock: VClock,
    ts: u64,
}

impl<'a> RefTxn<'a> {
    fn begin(store: &'a mut RefStore) -> Self {
        let mut clock = store.clock.clone();
        clock.tick(ME);
        let ts = store.lamport + 1;
        RefTxn {
            store,
            overlay: BTreeMap::new(),
            updates: Vec::new(),
            clock,
            ts,
        }
    }

    fn ensure(&mut self, key: &Key, kind: ObjectKind) {
        if !self.overlay.contains_key(key) {
            let stored = self.store.objects.get(key).cloned();
            self.overlay.insert(
                key.clone(),
                stored.unwrap_or_else(|| (kind, Object::new(kind, ME))),
            );
        }
    }

    fn obj(&mut self, key: &Key) -> Result<&Object, StoreError> {
        if !self.overlay.contains_key(key) {
            let stored = self.store.objects.get(key).cloned();
            let whole = stored.ok_or_else(|| StoreError::NoSuchObject(key.clone()))?;
            self.overlay.insert(key.clone(), whole);
        }
        Ok(&self.overlay[key].1)
    }

    fn tag(&mut self) -> Tag {
        self.store.tags += 1;
        Tag::new(ME, self.store.tags)
    }

    fn push(&mut self, key: &Key, op: ObjectOp) {
        let (kind, obj) = self.overlay.get_mut(key).expect("prepared against it");
        obj.apply(&op).expect("prepared for its type");
        self.updates.push((key.clone(), *kind, op));
    }

    /// Install created-but-unwritten objects, rebuild written ones from
    /// their effects, and seal what a replica would have sealed.
    fn commit(self) -> Option<UpdateBatch> {
        let written: BTreeSet<&Key> = self.updates.iter().map(|(k, _, _)| k).collect();
        for (key, entry) in self.overlay {
            if !written.contains(&key) {
                self.store.objects.entry(key).or_insert(entry);
            }
        }
        if self.updates.is_empty() {
            return None;
        }
        for (key, kind, op) in &self.updates {
            let fresh = || (*kind, Object::new(*kind, ME));
            let (_, obj) = self.store.objects.entry(key.clone()).or_insert_with(fresh);
            obj.apply(op).expect("applied to the overlay already");
        }
        self.store.clock = self.clock.clone();
        self.store.lamport = self.store.lamport.max(self.ts);
        Some(UpdateBatch::sealed(
            ME,
            self.clock.get(ME),
            self.clock,
            self.ts,
            self.updates,
        ))
    }
}

fn wrong(key: &Key, expected: &'static str) -> StoreError {
    StoreError::WrongType {
        key: key.clone(),
        expected,
    }
}

/// The same step through the reference, against the CRDTs directly. Tags
/// are drawn before the object is looked up, as `Transaction` does.
fn run_ref(tx: &mut RefTxn<'_>, k: u8, op: Op, e: u8) -> Res {
    let (key, kind, v) = (key(k), kind_of(k), elem(e));
    let key = &key;
    let n = u64::from(e % 4);
    let clock = tx.clock.clone();
    let ts = tx.ts;
    if let Op::Ensure = op {
        tx.ensure(key, kind);
        return Ok(Out::Unit);
    }
    if let Op::Contains = op {
        let found = tx.obj(key)?.set_contains(&v);
        return found.map(Out::Bool).ok_or_else(|| wrong(key, "set-like"));
    }
    let effect = match (kind, op) {
        (ObjectKind::AWSet, Op::Add | Op::Touch) => {
            let tag = tx.tag();
            let set = tx.obj(key)?.as_awset().unwrap();
            Some(ObjectOp::AWSet(set.prepare_add(v, tag)))
        }
        (ObjectKind::AWSet, Op::Remove) => {
            let set = tx.obj(key)?.as_awset().unwrap();
            set.prepare_remove(&v).map(ObjectOp::AWSet)
        }
        (ObjectKind::AWSet, Op::RemoveMatching) => {
            let (set, pat) = (tx.obj(key)?.as_awset().unwrap(), pattern(e));
            Some(ObjectOp::AWSet(
                set.prepare_remove_matching(&|x: &Val| pat.matches(x)),
            ))
        }
        (ObjectKind::RWSet, Op::Add | Op::Touch | Op::Remove | Op::RemoveMatching) => {
            let tag = tx.tag();
            let set = tx.obj(key)?.as_rwset().unwrap();
            Some(ObjectOp::RWSet(Box::new(match op {
                Op::Remove => set.prepare_remove(v, tag, clock),
                Op::RemoveMatching => set.prepare_remove_matching(pattern(e), tag, clock),
                _ => set.prepare_add(v, tag, clock),
            })))
        }
        (ObjectKind::AWMap, Op::Add | Op::Touch) => {
            let tag = tx.tag();
            let map = tx.obj(key)?.as_awmap().unwrap();
            Some(ObjectOp::AWMap(Box::new(match op {
                Op::Add => map.prepare_put(v, tag, clock, ts, Val::int(i64::from(e))),
                _ => map.prepare_touch(v, tag, clock),
            })))
        }
        (ObjectKind::AWMap, Op::Remove | Op::RemoveMatching) => {
            let map = tx.obj(key)?.as_awmap().unwrap();
            map.prepare_remove(&v, clock)
                .map(|op| ObjectOp::AWMap(Box::new(op)))
        }
        (ObjectKind::AWMap, Op::Get) => {
            let map = tx.obj(key)?.as_awmap().unwrap();
            return Ok(Out::Value(map.get(&v).cloned()));
        }
        (ObjectKind::PNCounter, Op::Add | Op::Touch) => {
            let c = tx.obj(key)?.as_pncounter().unwrap();
            Some(ObjectOp::PNCounter(c.prepare(ME, i64::from(e) - 3)))
        }
        (ObjectKind::BCounter { .. }, Op::Add | Op::Touch) => {
            let c = tx.obj(key)?.as_bcounter().unwrap();
            Some(ObjectOp::BCounter(c.prepare_inc(ME, n)))
        }
        (ObjectKind::BCounter { .. }, Op::Remove | Op::RemoveMatching) => {
            let c = tx.obj(key)?.as_bcounter().unwrap();
            let dec = c.prepare_dec(ME, n);
            Some(ObjectOp::BCounter(dec.ok_or_else(|| {
                StoreError::InsufficientRights { key: key.clone() }
            })?))
        }
        (ObjectKind::BCounter { .. }, Op::Get) => {
            let c = tx.obj(key)?.as_bcounter().unwrap();
            return Ok(Out::Int(c.local_rights(ME)));
        }
        (ObjectKind::PNCounter | ObjectKind::BCounter { .. }, _) => {
            return Ok(Out::Int(match tx.obj(key)? {
                Object::PNCounter(c) => c.value(),
                Object::BCounter(c) => c.value(),
                _ => unreachable!("counter keys hold counters"),
            }));
        }
        (ObjectKind::LWW, Op::Add | Op::Touch) => {
            let tag = tx.tag();
            let r = tx.obj(key)?.as_lww().unwrap();
            Some(ObjectOp::LWW(r.prepare_write(ts, tag, v)))
        }
        (ObjectKind::LWW, _) => {
            let r = tx.obj(key)?.as_lww().unwrap();
            return Ok(Out::Value(r.get().cloned()));
        }
        (ObjectKind::CompSet { .. }, Op::Add | Op::Touch) => {
            let tag = tx.tag();
            let s = tx.obj(key)?.as_compset().unwrap();
            Some(ObjectOp::CompSet(s.prepare_add(v, tag)))
        }
        (ObjectKind::CompSet { .. }, _) => {
            let read = tx.obj(key)?.as_compset().unwrap().read();
            if let Some(comp) = &read.compensation {
                tx.push(key, ObjectOp::CompSet(comp.clone()));
            }
            return Ok(match op {
                Op::Elements => Out::Elems(read.elements),
                _ => Out::Read(read),
            });
        }
        (_, Op::Elements | Op::Get) => {
            return Ok(Out::Elems(match tx.obj(key)? {
                Object::AWSet(s) => s.elements().cloned().collect(),
                Object::RWSet(s) => s.elements().cloned().collect(),
                Object::AWMap(m) => m.keys().cloned().collect(),
                _ => unreachable!("set keys hold sets"),
            }));
        }
        (_, Op::Ensure | Op::Contains) => unreachable!("handled above"),
    };
    if let Some(effect) = effect {
        tx.push(key, effect);
    }
    Ok(Out::Unit)
}

/// Everything observable about a replica's objects and clocks.
type Snapshot = (Vec<Option<(ObjectKind, Object)>>, VClock, u64, usize);

fn snapshot(r: &Replica) -> Snapshot {
    let objects = all_keys()
        .map(|k| {
            let key = key(k);
            r.object(&key)
                .map(|o| (r.kind_of(&key).expect("kind beside object"), o.clone()))
        })
        .collect();
    (objects, r.clock().clone(), r.lamport(), r.log_len())
}

/// A step: (op number, key, element).
type Step = (u8, u8, u8);

/// Run one transaction's script on both sides, compare every read, then
/// commit or abort both and compare everything that is left.
fn run_txn(
    real: &mut Replica,
    model: &mut RefStore,
    script: &[Step],
    commit: bool,
) -> Result<(), TestCaseError> {
    let before = snapshot(real);
    let mut tx = real.begin();
    let mut rx = RefTxn::begin(model);
    for &(op, k, e) in script {
        let op = decode(op);
        let got = run_real(&mut tx, k, op, e);
        let want = run_ref(&mut rx, k, op, e);
        prop_assert_eq!(got, want, "step {:?} on k{} with element {}", op, k, e);
    }
    if !commit {
        drop(tx);
        prop_assert!(
            snapshot(real) == before,
            "abort must leave the replica as it was"
        );
        prop_assert!(real.take_outbox().is_empty());
        return Ok(());
    }
    tx.commit();
    let want = rx.commit();
    let got = real.take_outbox();
    prop_assert_eq!(got.len(), usize::from(want.is_some()));
    prop_assert_eq!(got.first().map(|b| &**b), want.as_ref(), "sealed batch");
    for k in all_keys() {
        let key = key(k);
        let got = real.object(&key).map(|o| (real.kind_of(&key).unwrap(), o));
        let want = model.objects.get(&key).map(|(kind, o)| (*kind, o));
        prop_assert_eq!(got, want, "object k{} after commit", k);
    }
    prop_assert_eq!(real.clock(), &model.clock);
    prop_assert_eq!(real.lamport(), model.lamport);
    Ok(())
}

/// Keys `0..8` stored with a few elements each, on both sides.
fn preloaded() -> (Replica, RefStore) {
    preload(0..8)
}

/// `keys` stored with elements `0..5` each, on both sides.
fn preload(keys: impl Iterator<Item = u8> + Clone) -> (Replica, RefStore) {
    let (mut real, mut model) = (Replica::new(ME), RefStore::default());
    let ensure: Vec<Step> = keys.clone().map(|k| (0, k, 0)).collect();
    let fill: Vec<Step> = keys.flat_map(|k| (0..5).map(move |e| (1, k, e))).collect();
    for script in [ensure, fill] {
        run_txn(&mut real, &mut model, &script, true).expect("preload agrees");
    }
    (real, model)
}

fn script() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec((0u8..10, 0u8..NUM_KEYS, 0u8..8), 0..14)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Sequences of committed and aborted transactions: several ops on
    /// one key, wildcard removes on both set kinds, whole reads after
    /// writes, re-reads of written elements, reads of never-touched
    /// elements after a wildcard, `ensure` of stored and fresh keys.
    #[test]
    fn overlay_matches_the_clone_at_first_touch_reference(
        txns in prop::collection::vec((script(), 0u8..4), 1..6),
    ) {
        let (mut real, mut model) = preloaded();
        for (script, abort) in &txns {
            run_txn(&mut real, &mut model, script, *abort != 0)?;
        }
    }

    /// The same on two keys only (one add-wins, one rem-wins set), so
    /// that scripts revisit elements and mix shapes on one key.
    #[test]
    fn overlay_matches_the_reference_on_hot_keys(
        txns in prop::collection::vec(
            (prop::collection::vec((0u8..10, 0u8..2, 0u8..8), 0..20), 0u8..4),
            1..4,
        ),
    ) {
        let (mut real, mut model) = preloaded();
        for (script, abort) in &txns {
            run_txn(&mut real, &mut model, script, *abort != 0)?;
        }
    }
}

/// The first steps on wide key `w`, `(op number, element)`: one of the
/// shapes a deferred write has to answer like a copy, by `w`'s group.
fn probe(w: u8, e: u8, other: u8) -> Vec<(u8, u8)> {
    let other = if other == e { (e + 1) % 8 } else { other };
    match w / 3 % 4 {
        // A write, then a read of another element.
        0 => vec![(1, e), (6, other)],
        // A write, then reads of the same element.
        1 => vec![(1, e), (6, e), (8, e)],
        // A wildcard (on a rem-wins set: opaque), then an element read.
        2 => vec![(4, e), (6, other)],
        // Writes, then a whole read.
        _ => vec![(1, e), (3, other), (9, e)],
    }
}

/// One transaction over every wide key: each key's probe, then its tail,
/// the keys' steps interleaved as `picks` choose.
fn wide_script(probes: &[(u8, u8)], tails: &[Vec<(u8, u8)>], picks: &[u8]) -> Vec<Step> {
    let mut stories: Vec<(u8, Vec<(u8, u8)>)> = (0..WIDE_KEYS)
        .map(|w| {
            let (e, other) = probes[usize::from(w)];
            let mut story = probe(w, e, other);
            story.extend(&tails[usize::from(w)]);
            story.reverse();
            (wide_key(w), story)
        })
        .collect();
    let mut picks = picks.iter();
    let mut script = Vec::new();
    while !stories.is_empty() {
        let at = picks.next().map_or(0, |&p| usize::from(p) % stories.len());
        let (k, story) = &mut stories[at];
        let (op, e) = story.pop().expect("a story is dropped once told");
        script.push((op, *k, e));
        if story.is_empty() {
            stories.swap_remove(at);
        }
    }
    script
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One wide transaction over 33 stored sets and maps, steps interleaved
    /// across keys, so that many keys are deferred at once and read back
    /// in every shape: a write then a read of another element or of the
    /// same one, a rem-wins wildcard then an element read, a whole read
    /// after writes.
    #[test]
    fn a_wide_transaction_matches_the_reference(
        probes in prop::collection::vec((0u8..8, 0u8..8), usize::from(WIDE_KEYS)),
        tails in prop::collection::vec(
            prop::collection::vec((0u8..10, 0u8..8), 0..4),
            usize::from(WIDE_KEYS),
        ),
        picks in prop::collection::vec(0u8..=255, 0..200),
        abort in 0u8..4,
    ) {
        let (mut real, mut model) = preload((0..WIDE_KEYS).map(wide_key));
        let script = wide_script(&probes, &tails, &picks);
        run_txn(&mut real, &mut model, &script, abort != 0)?;
    }
}

// ----------------------------------------------------------------------
// The cost model, on the deterministic copy counters.
// ----------------------------------------------------------------------

/// A replica holding `key` as an add-wins set of `0..n`.
fn replica_with_set(key: &str, n: i64) -> Replica {
    let mut r = Replica::new(ME);
    let mut tx = r.begin();
    tx.ensure(key, ObjectKind::AWSet).unwrap();
    for i in 0..n {
        tx.aw_add(key, Val::int(i)).unwrap();
    }
    tx.commit();
    assert_eq!(r.stats.txn_objects_copied, 0, "a created object is no copy");
    assert_eq!(r.stats.txn_entries_copied, 0);
    r
}

#[test]
fn a_slide_on_a_large_set_copies_its_two_elements() {
    let mut r = replica_with_set("timeline", 4096);
    let mut tx = r.begin();
    tx.aw_add("timeline", Val::int(4096)).unwrap();
    tx.aw_remove("timeline", &Val::int(0)).unwrap();
    assert!(tx.contains("timeline", &Val::int(4096)).unwrap());
    assert!(!tx.contains("timeline", &Val::int(0)).unwrap());
    assert_eq!(tx.commit().updates, 2);
    assert_eq!(r.stats.txn_objects_copied, 0);
    assert!(r.stats.txn_entries_copied <= 2);
    let set = r.object("timeline").unwrap().as_awset().unwrap();
    assert_eq!(set.len(), 4096);
}

#[test]
fn reads_and_ensures_of_stored_objects_copy_nothing() {
    let mut r = Replica::new(ME);
    let schema = [
        ("users", ObjectKind::AWMap),
        ("follows", ObjectKind::AWSet),
        ("timelines", ObjectKind::RWSet),
        ("tickets", ObjectKind::CompSet { capacity: 2 }),
    ];
    let mut tx = r.begin();
    for (key, kind) in schema {
        tx.ensure(key, kind).unwrap();
    }
    tx.map_put("users", Val::str("alice"), Val::int(1)).unwrap();
    tx.aw_add("follows", Val::pair("bob", "alice")).unwrap();
    tx.rw_add("timelines", Val::pair("bob", "t1")).unwrap();
    tx.compset_add("tickets", Val::str("alice")).unwrap();
    tx.commit();

    // The top of every Twitter operation: `ensure` the whole schema.
    let mut tx = r.begin();
    for (key, kind) in schema {
        tx.ensure(key, kind).unwrap();
    }
    // Every kind of read, all of keys this transaction has not written.
    assert!(tx.contains("follows", &Val::pair("bob", "alice")).unwrap());
    assert_eq!(
        tx.map_get("users", &Val::str("alice")).unwrap(),
        Some(Val::int(1))
    );
    assert_eq!(tx.set_elements("timelines").unwrap().len(), 1);
    assert_eq!(tx.compset_read("tickets").unwrap().elements.len(), 1);
    assert_eq!(tx.commit().updates, 0);
    assert_eq!(r.stats.txn_objects_copied, 0);
    assert_eq!(r.stats.txn_entries_copied, 0);
}

#[test]
fn a_whole_question_about_a_written_key_copies_it_once() {
    let mut r = replica_with_set("enrolled", 64);
    let mut tx = r.begin();
    tx.aw_add("enrolled", Val::int(64)).unwrap();
    assert_eq!(tx.set_elements("enrolled").unwrap().len(), 65);
    tx.aw_remove_matching("enrolled", &ValPattern::Any).unwrap();
    assert!(tx.set_elements("enrolled").unwrap().is_empty());
    tx.commit();
    assert_eq!(r.stats.txn_objects_copied, 1);

    // The wildcard first: it reads the stored object in place, and its
    // victims are recorded with the effect, not copied: nothing reads them
    // back.
    let mut r = replica_with_set("enrolled", 64);
    let mut tx = r.begin();
    tx.aw_remove_matching("enrolled", &ValPattern::exact(7i64))
        .unwrap();
    tx.commit();
    assert_eq!(r.stats.txn_objects_copied, 0);
    assert_eq!(r.stats.txn_entries_copied, 0);
}

#[test]
fn blind_writes_copy_nothing() {
    let (x, y) = (Val::str("x"), Val::str("y"));
    let mut r = Replica::new(ME);
    let mut tx = r.begin();
    tx.ensure("aw", ObjectKind::AWSet).unwrap();
    tx.ensure("rw", ObjectKind::RWSet).unwrap();
    tx.ensure("map", ObjectKind::AWMap).unwrap();
    tx.aw_add("aw", x.clone()).unwrap();
    tx.rw_add("rw", x.clone()).unwrap();
    tx.rw_add("rw", y.clone()).unwrap();
    tx.map_put("map", x.clone(), Val::int(1)).unwrap();
    tx.map_put("map", y.clone(), Val::int(1)).unwrap();
    tx.commit();

    // Each a write to a present element of a stored object, none read back.
    let mut tx = r.begin();
    tx.aw_add("aw", x.clone()).unwrap();
    tx.rw_add("rw", x.clone()).unwrap();
    tx.rw_remove("rw", y.clone()).unwrap();
    tx.map_put("map", x.clone(), Val::int(2)).unwrap();
    tx.map_touch("map", y.clone()).unwrap();
    assert_eq!(tx.commit().updates, 5);
    assert_eq!(r.stats.txn_objects_copied, 0);
    assert_eq!(r.stats.txn_entries_copied, 0);

    let map = r.object("map").unwrap().as_awmap().unwrap();
    assert_eq!(map.get(&x), Some(&Val::int(2)));
    assert_eq!(map.get(&y), Some(&Val::int(1)), "a touch keeps the payload");
    let rw = r.object("rw").unwrap();
    assert_eq!(rw.set_contains(&x), Some(true));
    assert_eq!(rw.set_contains(&y), Some(false));
}

#[test]
fn a_read_back_copies_only_what_it_reads() {
    let (e1, e2) = (Val::int(1), Val::int(2));
    let mut r = replica_with_set("s", 8);
    // Write `e1`, read `e2`: no effect names `e2`, so its stored entry
    // answers in place.
    let mut tx = r.begin();
    tx.aw_add("s", e1.clone()).unwrap();
    assert!(tx.contains("s", &e2).unwrap());
    tx.commit();
    assert_eq!(r.stats.txn_objects_copied, 0);
    assert_eq!(r.stats.txn_entries_copied, 0);

    // Then read `e1` back: its stored entry is copied, and only it.
    let mut tx = r.begin();
    tx.aw_add("s", e1.clone()).unwrap();
    assert!(tx.contains("s", &e2).unwrap());
    assert!(tx.contains("s", &e1).unwrap());
    tx.commit();
    assert_eq!(r.stats.txn_objects_copied, 0);
    assert_eq!(r.stats.txn_entries_copied, 1);
}
