//! Persistent shard-worker pool: the dispatch engine behind
//! [`crate::replica::ApplyDispatch::Pool`].
//!
//! One long-lived worker thread per shard. A dispatch hands each
//! non-empty shard a [`Job`] over its own bounded channel, then the
//! dispatcher parks until the last worker drives the completion counter
//! to zero and unparks it. Nothing is spawned per batch: the whole
//! per-dispatch cost is a channel send plus a park/unpark handoff
//! (single-digit microseconds).
//!
//! # Ownership and aliasing
//!
//! A [`Job`] carries raw pointers into the dispatching replica: its
//! shard's `ShardTable`, the batch's update slice, and the run split.
//! That is sound for the same reason `std::thread::scope` was:
//! [`ShardPool::dispatch`] blocks until every job has completed, so the
//! borrows those pointers stand in for never outlive the call, and
//! exclusive `&mut` access to the tables is re-established before
//! `apply_batch` returns. Disjointness across workers is structural —
//! each job names one shard and workers only apply runs routed to that
//! shard, and two shards never share a table.
//!
//! The `AcqRel` decrement of the completion counter (paired with the
//! dispatcher's `Acquire` loads) publishes every table write a worker
//! made before the dispatcher can observe completion, so the replica
//! reads its shards afterwards without further synchronization.

use crate::key::Key;
use crate::replica::{apply_run, ShardTable};
use ipa_crdt::{ObjectKind, ObjectOp};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle, Thread};

/// One update, exactly as `UpdateBatch::updates` stores it.
type Update = (Key, ObjectKind, ObjectOp);

/// One dispatched unit of work: apply every same-key run of the current
/// batch that routes to `shard`. See the module docs for why the raw
/// pointers are sound.
struct Job {
    table: *mut ShardTable,
    updates: *const Update,
    updates_len: usize,
    runs: *const (u32, u32, u32),
    runs_len: usize,
    shard: u32,
}

// SAFETY: the pointers reference memory owned by the dispatching
// replica, which blocks in `ShardPool::dispatch` until the job's
// completion is signalled; exactly one worker receives each job, and
// jobs for distinct shards reference disjoint tables.
unsafe impl Send for Job {}

/// Dispatch-completion rendezvous: workers decrement `remaining`, the
/// last one unparks the registered dispatcher.
struct Completion {
    remaining: AtomicUsize,
    dispatcher: Mutex<Option<Thread>>,
}

/// The persistent worker pool: one thread per shard, each fed by a
/// bounded channel of depth 1 (a replica dispatches at most one job per
/// shard per batch, and blocks until all complete — the channel only
/// ever holds the in-flight job, so sends never block in practice).
pub(crate) struct ShardPool {
    senders: Vec<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
    completion: Arc<Completion>,
}

fn worker_loop(rx: Receiver<Job>, completion: Arc<Completion>) {
    while let Ok(job) = rx.recv() {
        // SAFETY: see `Job` — dispatch-scoped exclusive access; the
        // dispatcher cannot return (and thus the referents cannot move
        // or be mutated elsewhere) until this job's decrement below.
        unsafe {
            let table = &mut *job.table;
            let updates = std::slice::from_raw_parts(job.updates, job.updates_len);
            let runs = std::slice::from_raw_parts(job.runs, job.runs_len);
            for &(rs, start, len) in runs {
                if rs == job.shard {
                    apply_run(table, updates, start as usize, len as usize);
                }
            }
        }
        if completion.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let waiter = completion.dispatcher.lock().expect("completion lock");
            if let Some(t) = waiter.as_ref() {
                t.unpark();
            }
        }
    }
}

impl ShardPool {
    /// Spawn one worker per shard. Workers live until the pool drops
    /// (replica drop, or an [`ApplyDispatch`] mode change tearing the
    /// pool down).
    ///
    /// [`ApplyDispatch`]: crate::replica::ApplyDispatch
    pub(crate) fn new(shards: usize) -> ShardPool {
        let completion = Arc::new(Completion {
            remaining: AtomicUsize::new(0),
            dispatcher: Mutex::new(None),
        });
        let mut senders = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for s in 0..shards {
            let (tx, rx) = mpsc::sync_channel::<Job>(1);
            let completion = Arc::clone(&completion);
            workers.push(
                thread::Builder::new()
                    .name(format!("ipa-shard-{s}"))
                    .spawn(move || worker_loop(rx, completion))
                    .expect("spawn shard worker"),
            );
            senders.push(tx);
        }
        ShardPool {
            senders,
            workers,
            completion,
        }
    }

    /// Dispatch one batch: send every non-empty shard its job, park
    /// until all complete. Returns the number of jobs dispatched.
    ///
    /// Blocking here is the backpressure contract: a replica never has
    /// more than one batch in flight in its pool, so the bounded
    /// channels cannot grow and the caller regains exclusive table
    /// access before touching the shards again.
    pub(crate) fn dispatch(
        &self,
        shards: &mut [ShardTable],
        updates: &[Update],
        runs: &[(u32, u32, u32)],
        counts: &[u32],
    ) -> u64 {
        assert_eq!(
            shards.len(),
            self.senders.len(),
            "pool sized to the shard layout"
        );
        let jobs = counts.iter().filter(|&&c| c > 0).count();
        if jobs == 0 {
            return 0;
        }
        // Register the dispatcher *before* any job is sent: a worker
        // finishing early must know whom to unpark. (An unpark arriving
        // before the park is banked as a token, so the dispatcher can
        // never sleep through the last completion.)
        *self.completion.dispatcher.lock().expect("completion lock") = Some(thread::current());
        self.completion.remaining.store(jobs, Ordering::Release);
        for (s, table) in shards.iter_mut().enumerate() {
            if counts[s] == 0 {
                continue;
            }
            let job = Job {
                table: std::ptr::from_mut(table),
                updates: updates.as_ptr(),
                updates_len: updates.len(),
                runs: runs.as_ptr(),
                runs_len: runs.len(),
                shard: s as u32,
            };
            self.senders[s].send(job).expect("shard worker alive");
        }
        // Park until every job completed (spurious wakeups and banked
        // tokens from an earlier dispatch just re-test the counter).
        while self.completion.remaining.load(Ordering::Acquire) > 0 {
            thread::park();
        }
        jobs as u64
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        // Closing the channels makes every worker's `recv` fail, which
        // ends its loop; then join so no worker outlives the tables it
        // could have been handed pointers into.
        self.senders.clear();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl std::fmt::Debug for ShardPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPool")
            .field("workers", &self.workers.len())
            .finish()
    }
}
