//! The durable log: every batch applied at a replica, segmented per origin
//! and indexed by origin sequence, so an anti-entropy pull seeks straight
//! to the requester's gap in O(origins) and pays only for the batches it
//! returns. It survives a crash and is compacted under the stability
//! frontier.
//!
//! Invariants enforced here, each with the test that checks it:
//!
//! 1. **The seek index is valid**: a segment's entry `k` is the `k`-th
//!    logged sequence from `first_seq`, holes subtracted
//!    (`origin_log_records_and_fills_holes`,
//!    `batches_since_seeks_instead_of_scanning`).
//! 2. **Holes are exactly the unrepaired gaps**: an out-of-run append
//!    records a missing range, a late copy fills it, a true duplicate
//!    changes nothing
//!    (`gap_tolerant_log_append_survives_and_repairs_out_of_run_appends`).
//! 3. **Compaction removes only a stable, gap-free prefix**: batches at or
//!    below the frontier, from the front, and nothing from a segment with
//!    holes (`compaction_keeps_a_segment_with_holes`,
//!    `tests/anti_entropy_cursors.rs::gc_compaction_before_the_cursor_is_crossed_safely`).
//! 4. **Every change bumps `version`**: an append that logs a batch and a
//!    compaction that drops one; a drained anti-entropy cursor is trusted
//!    only while it stands still
//!    (`tests/anti_entropy_cursors.rs::cursor_pulls_deliver_exactly_the_full_scan_set`).

use crate::batch::UpdateBatch;
use ipa_crdt::{ReplicaId, VClock};
use std::collections::VecDeque;
use std::sync::Arc;

/// One origin's run of logged batches, gap-tolerant. Causal delivery
/// (and local commit order) guarantees a replica applies an origin's
/// batches in sequence order with no gaps, so under honest operation
/// `entries[k]` holds origin sequence `first_seq + k` — an O(1) seek by
/// sequence number, and `missing` stays empty. The segment no longer
/// *assumes* contiguity though: a hole (adversarial input, operator
/// surgery) is recorded as an explicit missing range that anti-entropy
/// repair targets, and the seek subtracts the holes below the requested
/// sequence, so pulls stay O(origins + returned). Each entry carries the
/// global application index so multi-origin pulls can be returned in
/// exact application order.
#[derive(Debug)]
struct OriginLog {
    /// Sequence number of the segment's logical start; when the segment
    /// is empty this is the next sequence expected (compaction advances
    /// it).
    first_seq: u64,
    /// Logged batches in ascending sequence order (missing sequences are
    /// simply absent — see `missing`).
    entries: VecDeque<(u64, Arc<UpdateBatch>)>,
    /// Explicit holes: inclusive `(lo, hi)` sequence ranges known absent
    /// from this segment, in ascending order. Empty under honest
    /// operation; anti-entropy repair fills them via [`OriginLog::fill`].
    missing: Vec<(u64, u64)>,
}

impl OriginLog {
    fn new() -> OriginLog {
        OriginLog {
            first_seq: 1,
            entries: VecDeque::new(),
            missing: Vec::new(),
        }
    }

    /// Total sequences covered by recorded holes.
    fn missing_total(&self) -> u64 {
        self.missing.iter().map(|&(lo, hi)| hi - lo + 1).sum()
    }

    /// Holes strictly below `seq` (the seek correction).
    fn missing_below(&self, seq: u64) -> u64 {
        self.missing
            .iter()
            .map(|&(lo, hi)| {
                if hi < seq {
                    hi - lo + 1
                } else {
                    seq.saturating_sub(lo)
                }
            })
            .sum()
    }

    /// Sequence number one past the last logged-or-missing slot.
    fn next_seq(&self) -> u64 {
        self.first_seq + self.entries.len() as u64 + self.missing_total()
    }

    /// Index into `entries` of the first entry with sequence ≥ `seq`
    /// (requires `seq >= first_seq`).
    fn seek(&self, seq: u64) -> usize {
        ((seq - self.first_seq) - self.missing_below(seq)) as usize
    }

    /// Record `[lo, hi]` as a hole (coalescing with an adjacent last
    /// range).
    fn record_gap(&mut self, lo: u64, hi: u64) {
        if let Some(last) = self.missing.last_mut() {
            if last.1 + 1 == lo {
                last.1 = hi;
                return;
            }
        }
        self.missing.push((lo, hi));
    }

    /// Remove `seq` from the recorded holes. Returns whether it was one
    /// (false = the append is a true duplicate, not a repair).
    fn fill(&mut self, seq: u64) -> bool {
        for i in 0..self.missing.len() {
            let (lo, hi) = self.missing[i];
            if seq < lo || seq > hi {
                continue;
            }
            match (seq == lo, seq == hi) {
                (true, true) => {
                    self.missing.remove(i);
                }
                (true, false) => self.missing[i].0 = seq + 1,
                (false, true) => self.missing[i].1 = seq - 1,
                (false, false) => {
                    self.missing[i].1 = seq - 1;
                    self.missing.insert(i + 1, (seq + 1, hi));
                }
            }
            return true;
        }
        false
    }
}

/// The per-origin segments with the counters that span them.
#[derive(Debug, Default)]
pub(crate) struct DurableLog {
    segments: Vec<OriginLog>,
    /// Batches across all segments.
    total: usize,
    /// Global application-order counter (stamps entries).
    apply_idx: u64,
    /// Bumped whenever the log gains or loses entries.
    version: u64,
}

impl DurableLog {
    /// Append an applied batch to its origin's segment. Causal delivery
    /// appends gap-free (`seq == next_seq`), but the segment is
    /// gap-tolerant: an out-of-run append records or fills an explicit
    /// hole instead of corrupting the seek index (or panicking).
    pub(crate) fn append(&mut self, batch: Arc<UpdateBatch>) {
        let o = batch.origin.0 as usize;
        if o >= self.segments.len() {
            self.segments.resize_with(o + 1, OriginLog::new);
        }
        let seg = &mut self.segments[o];
        let next = seg.next_seq();
        if batch.seq > next {
            // A hole in the origin's run. The causal path never produces
            // one (the clock gates appends), so this is defensive depth:
            // the missing range becomes an explicit anti-entropy target
            // rather than a broken invariant.
            seg.record_gap(next, batch.seq - 1);
            seg.entries.push_back((self.apply_idx, batch));
        } else if batch.seq < next {
            if seg.fill(batch.seq) {
                // A clean copy closing a recorded hole: splice it into
                // sequence order so the seek index stays valid.
                let pos = seg.seek(batch.seq).min(seg.entries.len());
                seg.entries.insert(pos, (self.apply_idx, batch));
            } else {
                return; // true duplicate of a logged batch
            }
        } else {
            seg.entries.push_back((self.apply_idx, batch));
        }
        self.apply_idx += 1;
        self.total += 1;
        self.version += 1;
    }

    /// Every logged batch not covered by `since`, in application order,
    /// and the number of segments probed to find them. Each segment is
    /// seeked by sequence number: O(origins + returned), whatever the
    /// log's length.
    pub(crate) fn since(&self, since: &VClock) -> (Vec<Arc<UpdateBatch>>, u64) {
        let mut hits: Vec<(u64, Arc<UpdateBatch>)> = Vec::new();
        let mut probed = 0u64;
        for (o, seg) in self.segments.iter().enumerate() {
            if seg.entries.is_empty() {
                continue;
            }
            probed += 1;
            let have = since.get(ReplicaId(o as u16));
            // Compacted batches are causally stable, hence already
            // applied at every replica that can ask — the requester's
            // clock always covers them.
            debug_assert!(have + 1 >= seg.first_seq);
            let start = (have + 1).max(seg.first_seq);
            // The seek subtracts recorded holes below `start`, so the
            // returned run is every logged batch with sequence ≥ start
            // whether or not the segment has gaps.
            let idx = seg.seek(start).min(seg.entries.len());
            hits.extend(seg.entries.iter().skip(idx).cloned());
        }
        // Restore global application order (pulls feed causal delivery in
        // the exact order a full log scan used to produce).
        hits.sort_unstable_by_key(|(apply_idx, _)| *apply_idx);
        (hits.into_iter().map(|(_, b)| b).collect(), probed)
    }

    /// Drop every batch at or below `frontier` from the front of its
    /// segment. Per-origin batch clocks grow with the sequence, so the
    /// stable batches form a prefix; dropping it advances `first_seq`,
    /// which keeps the seek index valid. A segment with recorded holes
    /// keeps everything: its prefix is not a contiguous stable run, and
    /// the holes are outstanding repair targets.
    pub(crate) fn compact_below(&mut self, frontier: &VClock) {
        let before = self.total;
        for seg in self.segments.iter_mut().filter(|s| s.missing.is_empty()) {
            while seg
                .entries
                .front()
                .is_some_and(|(_, b)| b.clock.le(frontier))
            {
                seg.entries.pop_front();
                seg.first_seq += 1;
                self.total -= 1;
            }
        }
        if self.total != before {
            self.version += 1;
        }
    }

    /// The whole log in application order (test oracle; the hot path
    /// never materializes this).
    pub(crate) fn snapshot(&self) -> Vec<Arc<UpdateBatch>> {
        let mut all: Vec<(u64, Arc<UpdateBatch>)> = self
            .segments
            .iter()
            .flat_map(|seg| seg.entries.iter().cloned())
            .collect();
        all.sort_unstable_by_key(|(apply_idx, _)| *apply_idx);
        all.into_iter().map(|(_, b)| b).collect()
    }

    pub(crate) fn len(&self) -> usize {
        self.total
    }

    pub(crate) fn version(&self) -> u64 {
        self.version
    }

    /// The recorded holes for `origin`.
    #[cfg(test)]
    pub(crate) fn missing_ranges(&self, origin: ReplicaId) -> Vec<(u64, u64)> {
        self.segments
            .get(origin.0 as usize)
            .map(|seg| seg.missing.clone())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Replica;
    use ipa_crdt::ObjectKind;

    fn r(i: u16) -> ReplicaId {
        ReplicaId(i)
    }

    /// Commit `n` batches at `a`, returning the outbox.
    fn commits(a: &mut Replica, n: usize) -> Vec<Arc<UpdateBatch>> {
        for i in 0..n {
            let mut tx = a.begin();
            tx.ensure("c", ObjectKind::PNCounter).unwrap();
            tx.counter_add("c", i as i64 + 1).unwrap();
            tx.commit();
        }
        a.take_outbox()
    }

    #[test]
    fn batches_since_seeks_instead_of_scanning() {
        let mut a = Replica::new(r(0));
        for i in 0..100 {
            let mut tx = a.begin();
            tx.ensure("c", ObjectKind::PNCounter).unwrap();
            tx.counter_add("c", i).unwrap();
            tx.commit();
        }
        a.take_outbox();
        // A peer missing only the last 3 batches costs ~3, not 100.
        let since: VClock = [(r(0), 97)].into_iter().collect();
        let before = a.stats.anti_entropy_scanned;
        let missing = a.batches_since(&since);
        assert_eq!(missing.len(), 3);
        assert_eq!(missing[0].seq, 98);
        let scanned = a.stats.anti_entropy_scanned - before;
        assert!(scanned <= 4, "seek cost {scanned} must not scan the log");
        // A fully caught-up peer costs only the segment probe.
        let caught_up = a.clock().clone();
        let before = a.stats.anti_entropy_scanned;
        assert!(a.batches_since(&caught_up).is_empty());
        assert!(a.stats.anti_entropy_scanned - before <= 1);
    }

    #[test]
    fn origin_log_records_and_fills_holes() {
        let mut seg = OriginLog::new();
        let mut a = Replica::new(r(0));
        let batches = commits(&mut a, 5);
        let entry = |i: usize| (i as u64, Arc::clone(&batches[i]));

        // Append 1, then 4: sequences 2–3 become an explicit hole.
        let next = seg.next_seq();
        assert_eq!(next, 1);
        seg.entries.push_back(entry(0));
        assert_eq!(seg.next_seq(), 2);
        seg.record_gap(2, 3);
        seg.entries.push_back(entry(3));
        assert_eq!(seg.next_seq(), 5);
        assert_eq!(seg.missing, vec![(2, 3)]);

        // Seek accounts for the hole: sequence 4 is entry index 1.
        assert_eq!(seg.seek(4), 1);
        assert_eq!(seg.seek(1), 0);

        // Fill 3 (mid-hole edge), then 2: hole fully closes.
        assert!(seg.fill(3));
        assert_eq!(seg.missing, vec![(2, 2)]);
        seg.entries.insert(seg.seek(3), entry(2));
        assert!(seg.fill(2));
        assert!(seg.missing.is_empty());
        seg.entries.insert(seg.seek(2), entry(1));
        assert!(!seg.fill(2), "not a hole anymore");

        // The segment is dense again: seeks are pure offsets.
        assert_eq!(seg.next_seq(), 5);
        let seqs: Vec<u64> = seg.entries.iter().map(|(_, b)| b.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4]);
    }

    #[test]
    fn gap_tolerant_log_append_survives_and_repairs_out_of_run_appends() {
        let mut a = Replica::new(r(0));
        let batches = commits(&mut a, 4);
        let mut b = DurableLog::default();
        // Force holes directly through the log layer (the causal receive
        // path can't make one): append seq 1 then seq 4.
        b.append(Arc::clone(&batches[0]));
        b.append(Arc::clone(&batches[3]));
        assert_eq!(b.missing_ranges(r(0)), vec![(2, 3)]);
        assert_eq!(b.len(), 2);

        // An anti-entropy pull for a peer that has only seq 1 returns
        // exactly the logged batches past it, holes notwithstanding.
        let since: VClock = [(r(0), 1u64)].into_iter().collect();
        let (pulled, _) = b.since(&since);
        assert_eq!(pulled.len(), 1);
        assert_eq!(pulled[0].seq, 4);

        // Late clean copies splice in and close the hole.
        b.append(Arc::clone(&batches[2]));
        b.append(Arc::clone(&batches[1]));
        assert!(b.missing_ranges(r(0)).is_empty());
        let seqs: Vec<u64> = b.snapshot().iter().map(|x| x.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2, 3, 4]);
        // Duplicate append of a logged batch is a no-op.
        let len = b.len();
        b.append(Arc::clone(&batches[1]));
        assert_eq!(b.len(), len);
    }

    #[test]
    fn compaction_keeps_a_segment_with_holes() {
        let mut a = Replica::new(r(0));
        let from_a = commits(&mut a, 3);
        let mut b = Replica::new(r(1));
        let from_b = commits(&mut b, 3);
        let mut log = DurableLog::default();
        for batch in &from_a {
            log.append(Arc::clone(batch));
        }
        // Origin 1's run has a hole at seq 2.
        log.append(Arc::clone(&from_b[0]));
        log.append(Arc::clone(&from_b[2]));
        let version = log.version();
        let everything: VClock = [(r(0), 3), (r(1), 3)].into_iter().collect();
        log.compact_below(&everything);
        assert_eq!(log.len(), 2, "only the gap-free segment is compacted");
        assert_eq!(log.version(), version + 1);
        assert_eq!(log.missing_ranges(r(1)), vec![(2, 2)]);
        // Nothing left to drop: the version stands still.
        log.compact_below(&everything);
        assert_eq!(log.version(), version + 1);
    }
}
