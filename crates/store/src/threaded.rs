//! A **threaded in-process transport**: one `std::thread` actor per
//! replica, wall-clock time, and real races — the second [`Transport`]
//! implementation, complementing the deterministic discrete-event
//! simulator.
//!
//! Each node is a [`Node`] behind a mutex plus an `Inbox` served by one
//! delivery thread. Every delivery runs the integrity gate (seal check +
//! envelope well-formedness) *before* the node lock is taken and feeds
//! causal delivery under it ([`Replica::receive_prevalidated`]), so
//! hashing a payload never blocks a reader or committer. Commits happen
//! on the *caller's* thread ([`ThreadedCluster::commit_at`]), so clients
//! at different regions genuinely race. Waking a parked thread costs far
//! more than applying a narrow batch, so nothing is woken for less: the
//! sender delivers to a sleeping peer (`send_to`), an awake delivery
//! thread takes its whole inbox per turn (`delivery_loop`) and lingers
//! before it parks (`LINGER_SPINS`), and the anti-entropy ticker only
//! pulls for a node whose applied clock it can trust (`pull_round`).
//!
//! Nothing here is deterministic; correctness is checked at quiescence
//! (convergence, invariants, idempotence, bounded liveness) — see the
//! [`Transport`] contract and `ARCHITECTURE.md`. Fault signals are live:
//! [`ThreadedCluster::crash_node`] wipes a node's volatile state and its
//! [`Node`] refuses traffic, [`ThreadedCluster::set_link_up`] cuts a pair
//! in the shared [`Links`] table (repair flows through anti-entropy, as
//! on a lossy network).

use crate::batch::UpdateBatch;
use crate::errors::StoreError;
use crate::replica::{ApplyDispatch, Replica, PARALLEL_APPLY_MIN_UPDATES};
use crate::transport::{nodes_converged, Links, Node, Transport};
use crate::txn::{CommitInfo, Transaction};
use ipa_crdt::ReplicaId;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::thread::{JoinHandle, Thread};
use std::time::Duration;

/// Messages a node's delivery thread services.
enum Msg {
    /// A replicated batch to feed into causal delivery.
    Deliver(Arc<UpdateBatch>),
    /// FIFO barrier: reply once every earlier message is processed.
    Barrier(mpsc::Sender<()>),
    Stop,
}

/// One replica shard: the locked actor (whose crash flag every down-check
/// reads under the lock) and its inbox.
struct Shard {
    node: Mutex<Node>,
    inbox: Inbox,
}

/// What is posted to a shard's delivery thread, oldest first, and
/// whether that thread is asleep.
#[derive(Default)]
struct Inbox {
    queue: Mutex<Vec<Msg>>,
    /// Set by the delivery thread before it sleeps: a post then owes it an
    /// `unpark`, and every message it ever took has been served.
    parked: AtomicBool,
    thread: OnceLock<Thread>,
    /// Runs once on the delivery thread between its last look at an empty
    /// queue and setting `parked`: the window only the re-check covers.
    #[cfg(test)]
    before_park: Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

/// Looks at an empty queue before the delivery thread parks, ~10 µs: at
/// saturation a node gets a message every 5-10 µs and senders should
/// find its thread awake; below the knee the gaps are hundreds of µs, it
/// parks, and senders deliver. Measured against 0 and ~1 µs in
/// CHANGES.md (PR 17): this one costs `hot_large` commits the least.
const LINGER_SPINS: u32 = 320;

/// Retries of a failed `try_lock` on a sleeping peer's node, ~5 µs: about
/// one commit's critical section, so a holder that is *running* lets go
/// within it. Waking the peer's thread instead costs the sender a futex
/// call of 12-25 µs on the tracked runner and puts a third thread on two
/// CPUs, which preempts a lock holder and makes the next `try_lock` fail
/// too. A holder that is not running outlasts the budget; then enqueue.
const TRY_LOCK_SPINS: u32 = 64;

impl Inbox {
    /// Enqueue `msg` and wake the thread if it is asleep or about to be.
    fn post(&self, msg: Msg, stats: &ThreadedStats) {
        self.queue.lock().push(msg);
        if self.parked.load(Ordering::SeqCst) && self.parked.swap(false, Ordering::SeqCst) {
            bump(&stats.unparks);
            self.thread.get().expect("set at start").unpark();
        }
    }

    /// Thread asleep and nothing queued: the node's applied clock is
    /// exact, no first copy of anything is waiting behind it.
    fn is_settled(&self) -> bool {
        self.parked.load(Ordering::SeqCst) && self.queue.lock().is_empty()
    }

    /// Delivery-thread side: swap the whole queue into `turn`, lingering
    /// and then parking while it is empty. *Set `parked`, re-check, park*
    /// pairs with `post`'s *push, read `parked`, unpark*: whichever
    /// critical section on the queue comes second sees the other side's
    /// write, so no wake-up is lost (an `unpark` before the `park` makes
    /// it return at once).
    fn next_turn(&self, turn: &mut Vec<Msg>) {
        loop {
            for _ in 0..=LINGER_SPINS {
                let mut queue = self.queue.lock();
                if !queue.is_empty() {
                    std::mem::swap(&mut *queue, turn);
                    return;
                }
                drop(queue);
                std::hint::spin_loop();
            }
            #[cfg(test)]
            if let Some(hook) = self.before_park.lock().take() {
                hook();
            }
            self.parked.store(true, Ordering::SeqCst);
            if self.queue.lock().is_empty() {
                std::thread::park();
            }
            self.parked.store(false, Ordering::SeqCst);
        }
    }
}

/// Observability counters for a threaded run (all monotonic).
#[derive(Debug, Default)]
pub struct ThreadedStats {
    /// Sends dropped because the pair's link was cut.
    pub dropped_partitioned: AtomicU64,
    /// Deliveries refused because the destination was down.
    pub refused_down: AtomicU64,
    /// Batches lost to crashes (volatile outbox + pending).
    pub lost_in_crash: AtomicU64,
    /// Commits refused because the origin shard was down.
    pub commits_refused: AtomicU64,
    /// Batches whose integrity gate ran off the node lock, before the
    /// lock was taken to apply them.
    pub pipeline_prevalidated: AtomicU64,
    /// Shipped batches the committing thread applied at a sleeping peer.
    pub delivered_by_sender: AtomicU64,
    /// Shipped batches enqueued for the peer's delivery thread.
    pub posted: AtomicU64,
    /// Posts (batches and barriers) that had to wake a parked thread.
    pub unparks: AtomicU64,
    /// Inboxes taken; `posted / delivery_turns` batches share a turn.
    pub delivery_turns: AtomicU64,
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Configuration for [`ThreadedCluster::start`].
#[derive(Clone, Copy, Debug)]
pub struct ThreadedConfig {
    /// Number of replica actors.
    pub nodes: u16,
    /// Background anti-entropy period (`None` = repair only happens at
    /// explicit [`ThreadedCluster::anti_entropy_round`] / quiesce calls).
    pub ae_interval: Option<Duration>,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig {
            nodes: 3,
            ae_interval: Some(Duration::from_millis(5)),
        }
    }
}

/// The threaded transport: `n` replica actors, each a mutex-guarded
/// [`Node`] with an inbox and a delivery thread, plus an optional
/// anti-entropy ticker. All run-time methods take `&self` so client
/// threads can share the cluster through a plain borrow
/// (`std::thread::scope`) or an `Arc`.
pub struct ThreadedCluster {
    shards: Vec<Arc<Shard>>,
    links: Arc<Links>,
    stats: Arc<ThreadedStats>,
    threads: Vec<JoinHandle<()>>,
    ticker: Option<(Arc<AtomicBool>, JoinHandle<()>)>,
}

/// How long a barrier waits for a node thread before giving up (a node
/// thread only stalls if wedged; the timeout turns a deadlock or a lost
/// wake-up into a visible test failure).
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

impl ThreadedCluster {
    /// Spawn the actors (and the anti-entropy ticker, if configured).
    pub fn start(cfg: ThreadedConfig) -> ThreadedCluster {
        let links = Arc::new(Links::new(cfg.nodes as usize));
        let stats = Arc::new(ThreadedStats::default());
        let (mut shards, mut threads) = (Vec::new(), Vec::new());
        for i in 0..cfg.nodes {
            // The threaded transport is the one place parallel apply is
            // on: real threads, no schedule digests, large anti-entropy
            // bursts worth splitting across shards.
            let mut node = Node::new(ReplicaId(i));
            node.replica_mut().set_apply_dispatch(ApplyDispatch::Pool);
            let shard = Arc::new(Shard {
                node: Mutex::new(node),
                inbox: Inbox::default(),
            });
            let (served, stats) = (Arc::clone(&shard), Arc::clone(&stats));
            let thread = std::thread::spawn(move || delivery_loop(&served, &stats));
            let _ = shard.inbox.thread.set(thread.thread().clone());
            shards.push(shard);
            threads.push(thread);
        }
        let ticker = cfg.ae_interval.map(|period| {
            let stop = Arc::new(AtomicBool::new(false));
            let (shards, links) = (shards.clone(), Arc::clone(&links));
            let (stats, stopped) = (Arc::clone(&stats), Arc::clone(&stop));
            let ticker = std::thread::spawn(move || {
                while !stopped.load(Ordering::Relaxed) {
                    std::thread::sleep(period);
                    // Pulls race with live commits, so a node may get a
                    // batch twice — causal delivery deduplicates, and the
                    // double-apply oracle checks that it did.
                    pull_round(&shards, &links, &stats, true);
                }
            });
            (stop, ticker)
        });
        ThreadedCluster {
            shards,
            links,
            stats,
            threads,
            ticker,
        }
    }

    /// Number of replica actors.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Run-time fault/delivery counters.
    pub fn stats(&self) -> &ThreadedStats {
        &self.stats
    }

    /// Is the node currently crashed?
    pub fn is_node_down(&self, node: u16) -> bool {
        self.shards[node as usize].node.lock().is_down()
    }

    /// Cut or heal a pair's link (both directions). While cut, sends
    /// between the pair are dropped and counted; anti-entropy repairs
    /// after the heal (or through a third replica meanwhile).
    pub fn set_link_up(&self, a: u16, b: u16, up: bool) {
        self.links.set(a, b, up);
    }

    /// Crash a node on the caller's thread, under its lock (an
    /// in-progress transaction finishes first — a crash never tears a
    /// commit): volatile state is wiped and traffic refused.
    pub fn crash_node(&self, node: u16) {
        let lost = self.shards[node as usize].node.lock().crash() as u64;
        self.stats.lost_in_crash.fetch_add(lost, Ordering::Relaxed);
    }

    /// Restart a crashed node; catch-up flows through anti-entropy.
    pub fn restart_node(&self, node: u16) {
        self.shards[node as usize].node.lock().restart();
    }

    /// Run `f` with the shard locked (reads, oracle audits, repairs).
    pub fn with_replica<R>(&self, node: u16, f: impl FnOnce(&mut Replica) -> R) -> R {
        f(self.shards[node as usize].node.lock().replica_mut())
    }

    /// Run a transaction at `region` on the **caller's** thread and
    /// ship the committed batches to every peer. Returns
    /// [`StoreError::Unavailable`] while the shard is down. This is the
    /// client entry point: concurrent callers at different regions race
    /// their commits and deliveries for real.
    pub fn commit_at<T>(
        &self,
        region: u16,
        f: impl FnOnce(&mut Transaction<'_>) -> Result<T, StoreError>,
    ) -> Result<(T, CommitInfo), StoreError> {
        let shard = &self.shards[region as usize];
        let (value, info, newest, earlier) = {
            let mut node = shard.node.lock();
            if node.is_down() {
                bump(&self.stats.commits_refused);
                return Err(StoreError::Unavailable(ReplicaId(region)));
            }
            let mut tx = node.replica_mut().begin();
            let value = f(&mut tx)?;
            let info = tx.commit();
            // One batch per call, plus whatever `with_replica` commits
            // left unshipped: popping and an empty `earlier` allocate
            // nothing, and draining leaves the outbox its capacity.
            let mut staged = node.replica_mut().drain_outbox();
            let newest = staged.next_back();
            let earlier: Vec<_> = staged.collect();
            (value, info, newest, earlier)
        };
        // Ship outside the lock: peers may already be applying these
        // batches while the committer moves on.
        for batch in earlier.into_iter().chain(newest) {
            self.send_batch(region, batch);
        }
        Ok((value, info))
    }

    /// Fan a batch out toward every peer; the payload is shared, never
    /// copied, and the last send takes the caller's reference.
    fn send_batch(&self, origin: u16, batch: Arc<UpdateBatch>) {
        let mut peers = (0..self.shards.len() as u16).filter(|&d| d != origin);
        let Some(last) = peers.next_back() else {
            return;
        };
        for dest in peers {
            self.send_to(origin, dest, Arc::clone(&batch));
        }
        self.send_to(origin, last, batch);
    }

    /// One send, dropped on a cut link. A narrow batch is applied here,
    /// by the sender, when the peer's thread is parked and its node lock
    /// is free, or freed within `TRY_LOCK_SPINS` looks: the apply costs
    /// less than the wake-up it saves. A wide batch costs more than a
    /// wake-up and should overlap with the committer, so it is always
    /// posted. Never blocks on the peer: a bounded look, then enqueue.
    fn send_to(&self, origin: u16, dest: u16, batch: Arc<UpdateBatch>) {
        if !self.links.is_up(origin, dest) {
            bump(&self.stats.dropped_partitioned);
            return;
        }
        let shard = &self.shards[dest as usize];
        let narrow = batch.updates.len() < PARALLEL_APPLY_MIN_UPDATES;
        if narrow && shard.inbox.parked.load(Ordering::SeqCst) {
            let valid = batch.passes_gate();
            for _ in 0..=TRY_LOCK_SPINS {
                if let Some(mut node) = shard.node.try_lock() {
                    bump(&self.stats.delivered_by_sender);
                    admit(&self.stats, &mut node, batch, valid);
                    return;
                }
                if !shard.inbox.parked.load(Ordering::Relaxed) {
                    break;
                }
                std::hint::spin_loop();
            }
        }
        bump(&self.stats.posted);
        shard.inbox.post(Msg::Deliver(batch), &self.stats);
    }

    /// FIFO barrier: returns once every node has applied or refused
    /// everything posted to it, or delivered to it by a sender, before
    /// this call.
    pub fn barrier(&self) {
        let post = |shard: &Arc<Shard>| {
            let (tx, rx) = mpsc::channel();
            shard.inbox.post(Msg::Barrier(tx), &self.stats);
            rx
        };
        for reply in self.shards.iter().map(post).collect::<Vec<_>>() {
            reply
                .recv_timeout(REPLY_TIMEOUT)
                .expect("node thread wedged at barrier");
        }
    }

    /// One coordinator-driven anti-entropy round: every live node, busy
    /// or not, pulls what it is missing from every live, reachable peer's
    /// log, on the caller's thread, gated and down-checked exactly like a
    /// delivery. Returns batches applied cluster-wide.
    pub fn anti_entropy_round(&self) -> usize {
        pull_round(&self.shards, &self.links, &self.stats, false)
    }

    /// Quiesce: restart every node, heal every link, then drain the
    /// inboxes and pull anti-entropy until two rounds in a row move
    /// nothing (the second guards against deliveries that raced the
    /// first). Returns the number of productive rounds — the
    /// bounded-liveness oracle's input (a healthy cluster converges
    /// within its configured bound).
    pub fn quiesce(&self) -> u64 {
        for i in 0..self.shards.len() as u16 {
            self.restart_node(i);
        }
        self.links.heal_all();
        let (mut rounds, mut idle) = (0, 0);
        while idle < 2 {
            self.barrier();
            if self.anti_entropy_round() > 0 {
                rounds += 1;
                idle = 0;
            } else {
                idle += 1;
            }
        }
        rounds
    }

    /// Equal clocks and empty causal buffers everywhere? Meaningful
    /// after [`ThreadedCluster::quiesce`].
    pub fn is_converged(&self) -> bool {
        nodes_converged(self.shards.iter().map(|s| s.node.lock()))
    }
}

impl Drop for ThreadedCluster {
    fn drop(&mut self) {
        if let Some((stop, ticker)) = self.ticker.take() {
            stop.store(true, Ordering::Relaxed);
            let _ = ticker.join();
        }
        for shard in &self.shards {
            shard.inbox.post(Msg::Stop, &self.stats);
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Every method takes `&self`, so each client thread holds its own
/// `&ThreadedCluster` as a transport.
impl Transport for &ThreadedCluster {
    fn node_count(&self) -> usize {
        self.len()
    }

    fn with_node<R>(&mut self, node: ReplicaId, f: impl FnOnce(&mut Replica) -> R) -> R {
        self.with_replica(node.0, f)
    }

    fn ship(&mut self, node: ReplicaId) {
        let batches = self.with_replica(node.0, |r| r.take_outbox());
        for b in batches {
            self.send_batch(node.0, b);
        }
    }

    fn quiesce_transport(&mut self) -> u64 {
        self.quiesce()
    }

    fn converged(&mut self) -> bool {
        self.is_converged()
    }

    fn link_up(&self, a: ReplicaId, b: ReplicaId) -> bool {
        self.links.is_up(a.0, b.0)
    }

    fn node_up(&self, node: ReplicaId) -> bool {
        !self.is_node_down(node.0)
    }
}

/// Feed one gated batch into causal delivery through [`Node`], under the
/// node lock, at apply time: a batch still queued, or in its sender's
/// hands, when its node crashes is refused (and counted) like any other.
/// Returns batches applied.
fn admit(stats: &ThreadedStats, node: &mut Node, batch: Arc<UpdateBatch>, valid: bool) -> usize {
    bump(&stats.pipeline_prevalidated);
    node.receive_prevalidated(batch, valid).unwrap_or_else(|| {
        bump(&stats.refused_down);
        0
    })
}

/// Deliver one batch to a node: the integrity gate
/// ([`UpdateBatch::passes_gate`]) off the lock, [`admit`] under it. A
/// sender runs the same pair around a `try_lock`, the delivery thread
/// around one lock per run of batches.
fn deliver(shard: &Shard, stats: &ThreadedStats, batch: Arc<UpdateBatch>) -> usize {
    let valid = batch.passes_gate();
    admit(stats, &mut shard.node.lock(), batch, valid)
}

/// The delivery thread's body: take the whole inbox per turn and serve
/// it strictly FIFO, so a barrier observes every delivery posted before
/// it. The turn is gated off the lock, then each run of deliveries is
/// admitted under one lock acquisition (released before a barrier is
/// answered, so its caller finds the node free).
fn delivery_loop(shard: &Shard, stats: &ThreadedStats) {
    let mut turn = Vec::new();
    loop {
        shard.inbox.next_turn(&mut turn);
        bump(&stats.delivery_turns);
        let gated: Vec<bool> = turn
            .iter()
            .map(|m| matches!(m, Msg::Deliver(b) if b.passes_gate()))
            .collect();
        let mut node = None;
        for (msg, valid) in turn.drain(..).zip(gated) {
            match msg {
                Msg::Deliver(batch) => {
                    let node = node.get_or_insert_with(|| shard.node.lock());
                    admit(stats, node, batch, valid);
                }
                Msg::Barrier(reply) => {
                    node = None;
                    let _ = reply.send(());
                }
                Msg::Stop => return,
            }
        }
    }
}

/// One anti-entropy round: every live node pulls what it is missing from
/// every live, reachable peer — each node is down-checked under its own
/// lock, and the peer's log is read under the peer's lock on this
/// thread — and takes it in through [`deliver`]. Returns the number of
/// batches applied.
///
/// A busy node's applied clock trails its inbox, and pulling against it
/// re-sends what is merely queued. So the ticker (`settled_only`) pulls
/// only for a node that is *settled* ([`Inbox::is_settled`]) or *gapped*
/// (it holds a batch it cannot apply); explicit rounds pull for all.
fn pull_round(
    shards: &[Arc<Shard>],
    links: &Links,
    stats: &ThreadedStats,
    settled_only: bool,
) -> usize {
    let mut applied = 0;
    let n = shards.len() as u16;
    for dst in 0..n {
        let to = &shards[dst as usize];
        for src in (0..n).filter(|&src| src != dst && links.is_up(src, dst)) {
            let since = {
                let node = to.node.lock();
                let gapped = node.replica().pending_count() > 0;
                if node.is_down() || settled_only && !gapped && !to.inbox.is_settled() {
                    continue;
                }
                node.replica().clock().clone()
            };
            let missing = {
                let mut from = shards[src as usize].node.lock();
                if from.is_down() {
                    continue;
                }
                from.replica_mut().batches_since(&since)
            };
            for batch in missing {
                applied += deliver(to, stats, batch);
            }
        }
    }
    applied
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_crdt::{ObjectKind, VClock, Val};

    fn count(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    fn no_ticker(n: u16) -> ThreadedCluster {
        ThreadedCluster::start(ThreadedConfig {
            nodes: n,
            ae_interval: None,
        })
    }

    #[test]
    fn concurrent_commits_converge() {
        let cluster = no_ticker(3);
        std::thread::scope(|s| {
            for region in 0..3u16 {
                let cluster = &cluster;
                s.spawn(move || {
                    for k in 0..20 {
                        cluster
                            .commit_at(region, |tx| {
                                tx.ensure("set", ObjectKind::AWSet)?;
                                tx.aw_add("set", Val::str(format!("r{region}-{k}")))
                            })
                            .expect("commit");
                    }
                });
            }
        });
        cluster.quiesce();
        assert!(cluster.is_converged());
        for r in 0..3u16 {
            let len = cluster.with_replica(r, |rep| {
                rep.object("set").unwrap().as_awset().unwrap().len()
            });
            assert_eq!(len, 60, "replica {r} sees every insert");
            assert!(
                cluster.with_replica(r, |rep| rep.applied_consistent()),
                "no double-apply at replica {r}"
            );
        }
    }

    #[test]
    fn crash_loses_volatile_state_and_anti_entropy_repairs() {
        let cluster = no_ticker(2);
        cluster
            .commit_at(0, |tx| {
                tx.ensure("c", ObjectKind::PNCounter)?;
                tx.counter_add("c", 5)
            })
            .expect("commit");
        cluster.barrier();
        cluster.crash_node(1);
        assert!(cluster.is_node_down(1));
        assert!(matches!(
            cluster.commit_at(1, |tx| tx.counter_add("c", 1)),
            Err(StoreError::Unavailable(_))
        ));
        // Commits toward the crashed node are refused and must be
        // repaired by anti-entropy after the restart.
        cluster
            .commit_at(0, |tx| tx.counter_add("c", 2))
            .expect("commit");
        cluster.barrier();
        cluster.restart_node(1);
        cluster.quiesce();
        assert!(cluster.is_converged());
        let v = cluster.with_replica(1, |r| {
            r.object("c").unwrap().as_pncounter().unwrap().value()
        });
        assert_eq!(v, 7);
    }

    #[test]
    fn partitioned_sends_drop_and_heal_via_anti_entropy() {
        let cluster = no_ticker(3);
        cluster.set_link_up(0, 1, false);
        cluster
            .commit_at(0, |tx| {
                tx.ensure("c", ObjectKind::PNCounter)?;
                tx.counter_add("c", 3)
            })
            .expect("commit");
        cluster.barrier();
        assert!(count(&cluster.stats().dropped_partitioned) >= 1);
        cluster.set_link_up(0, 1, true);
        cluster.quiesce();
        assert!(cluster.is_converged());
        let v = cluster.with_replica(1, |r| {
            r.object("c").unwrap().as_pncounter().unwrap().value()
        });
        assert_eq!(v, 3);
    }

    #[test]
    fn pipeline_prevalidates_every_delivery() {
        let cluster = no_ticker(2);
        for k in 0..10 {
            cluster
                .commit_at(0, |tx| {
                    tx.ensure("c", ObjectKind::PNCounter)?;
                    tx.counter_add("c", k)
                })
                .expect("commit");
        }
        cluster.barrier();
        // Every batch shipped toward node 1 crossed the integrity gate
        // off the node lock before being applied.
        assert!(count(&cluster.stats().pipeline_prevalidated) >= 10);
        cluster.quiesce();
        assert!(cluster.is_converged());
    }

    #[test]
    fn crash_with_queued_pipeline_loses_nothing_durable() {
        let cluster = no_ticker(2);
        let n: i64 = 150;
        for _ in 0..n {
            cluster
                .commit_at(0, |tx| {
                    tx.ensure("c", ObjectKind::PNCounter)?;
                    tx.counter_add("c", 1)
                })
                .expect("commit");
        }
        // Crash node 1 with deliveries still queued for its delivery
        // thread (no barrier: whatever is queued at the crash is
        // refused at apply time, like bytes in a dead process's socket
        // buffer). The durable half of the story lives at node 0.
        cluster.crash_node(1);
        cluster.restart_node(1);
        cluster.quiesce();
        assert!(cluster.is_converged());
        // Recovery replays node 0's durable log; nothing it held is
        // lost, and node 1 reaches exactly the state a synchronous
        // (pipeline-free) replay of that log reaches.
        let logged = cluster.with_replica(0, |r| r.batches_since(&VClock::new()));
        let mut sync = Replica::new(ReplicaId(9));
        for b in logged {
            sync.receive(b);
        }
        let sync_v = sync.object("c").unwrap().as_pncounter().unwrap().value();
        let (v, clock) = cluster.with_replica(1, |r| {
            (
                r.object("c").unwrap().as_pncounter().unwrap().value(),
                r.clock().clone(),
            )
        });
        assert_eq!(v, n, "recovered replica holds every durable commit");
        assert_eq!(sync_v, v, "pipelined recovery matches synchronous replay");
        assert_eq!(clock, *sync.clock());
        assert!(cluster.with_replica(1, |r| r.applied_consistent()));
    }

    #[test]
    fn batch_pulled_for_a_node_that_then_crashed_is_refused() {
        let cluster = no_ticker(2);
        cluster.set_link_up(0, 1, false);
        cluster
            .commit_at(0, |tx| {
                tx.ensure("c", ObjectKind::PNCounter)?;
                tx.counter_add("c", 1)
            })
            .expect("commit");
        let pulled = cluster.with_replica(0, |r| r.batches_since(&VClock::new()));
        // A round that found node 1 up and pulled for it, then lost the
        // race to a crash: the hand-off re-checks under the node lock.
        cluster.crash_node(1);
        for batch in pulled {
            assert_eq!(deliver(&cluster.shards[1], &cluster.stats, batch), 0);
        }
        assert_eq!(count(&cluster.stats().refused_down), 1);
        assert_eq!(cluster.with_replica(1, |r| r.stats.batches_received), 0);
    }

    #[test]
    fn background_ticker_repairs_without_explicit_rounds() {
        let cluster = ThreadedCluster::start(ThreadedConfig {
            nodes: 2,
            ae_interval: Some(Duration::from_millis(1)),
        });
        // Cut the only link: the commit's direct send drops, so only
        // the ticker can repair once healed.
        cluster.set_link_up(0, 1, false);
        cluster
            .commit_at(0, |tx| {
                tx.ensure("c", ObjectKind::PNCounter)?;
                tx.counter_add("c", 1)
            })
            .expect("commit");
        cluster.set_link_up(0, 1, true);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let caught_up = cluster.with_replica(1, |r| r.clock().get(ReplicaId(0)) == 1);
            if caught_up {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "ticker never repaired the dropped batch"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// `set` gains `elem` at `region` (a narrow batch).
    fn add(cluster: &ThreadedCluster, region: u16, elem: String) {
        cluster
            .commit_at(region, |tx| {
                tx.ensure("set", ObjectKind::AWSet)?;
                tx.aw_add("set", Val::str(elem))
            })
            .expect("commit");
    }

    fn seen_from(cluster: &ThreadedCluster, node: u16, origin: u16) -> u64 {
        cluster.with_replica(node, |r| r.clock().get(ReplicaId(origin)))
    }

    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + REPLY_TIMEOUT;
        while !cond() {
            assert!(std::time::Instant::now() < deadline, "timed out: {what}");
            std::thread::yield_now();
        }
    }

    fn wait_parked(cluster: &ThreadedCluster, node: u16) {
        wait_until("delivery thread parks", || {
            cluster.shards[node as usize].inbox.is_settled()
        });
    }

    /// The availability half of the paper's model: `commit_at(0, ..)`
    /// returns while another thread holds node 1's lock (handshake by
    /// channel, no wall-clock threshold), and node 1 does not have the
    /// batch at that point. `fault` runs first.
    fn commit_while_peer_is_held(fault: impl FnOnce(&ThreadedCluster)) -> ThreadedCluster {
        let cluster = no_ticker(2);
        fault(&cluster);
        let (held_tx, held_rx) = mpsc::channel();
        let (committed_tx, committed_rx) = mpsc::channel();
        std::thread::scope(|s| {
            let cluster = &cluster;
            s.spawn(move || {
                cluster.with_replica(1, |r| {
                    held_tx.send(()).expect("main thread waits");
                    committed_rx
                        .recv_timeout(REPLY_TIMEOUT)
                        .expect("the commit at node 0 waited for node 1's lock");
                    assert_eq!(r.clock().get(ReplicaId(0)), 0, "not delivered yet");
                })
            });
            held_rx.recv().expect("holder thread runs");
            add(cluster, 0, "x".into());
            committed_tx.send(()).expect("holder thread waits");
        });
        cluster.barrier();
        cluster
    }

    #[test]
    fn commit_never_waits_for_a_peer_whose_lock_is_held() {
        let cluster = commit_while_peer_is_held(|_| {});
        assert_eq!(
            seen_from(&cluster, 1, 0),
            1,
            "delivered once the lock is free"
        );
        assert_eq!(count(&cluster.stats().posted), 1);
        assert_eq!(count(&cluster.stats().delivered_by_sender), 0);
    }

    #[test]
    fn commit_never_waits_for_a_peer_behind_a_cut_link() {
        let cluster = commit_while_peer_is_held(|c| c.set_link_up(0, 1, false));
        assert_eq!(count(&cluster.stats().dropped_partitioned), 1);
        assert_eq!(seen_from(&cluster, 1, 0), 0);
        cluster.quiesce();
        assert_eq!(seen_from(&cluster, 1, 0), 1);
    }

    #[test]
    fn commit_never_waits_for_a_peer_that_is_down() {
        let cluster = commit_while_peer_is_held(|c| c.crash_node(1));
        assert_eq!(count(&cluster.stats().refused_down), 1);
        assert_eq!(seen_from(&cluster, 1, 0), 0);
        cluster.quiesce();
        assert_eq!(seen_from(&cluster, 1, 0), 1);
    }

    /// No anti-entropy and no quiesce to hide a lost wake-up: after
    /// `barrier()` alone every replica must hold everything.
    #[test]
    fn no_wake_up_is_lost_under_racing_committers() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        for round in 0..100u64 {
            let cluster = no_ticker(3);
            let done = AtomicBool::new(false);
            std::thread::scope(|s| {
                let (cluster, done) = (&cluster, &done);
                // A reader that keeps taking node locks, so senders find
                // them busy and must post to threads that may be parking.
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(round);
                    while !done.load(Ordering::Relaxed) {
                        cluster.with_replica(rng.gen_range(0..3), |r| r.pending_count());
                    }
                });
                let committers: Vec<_> = (0..4u16)
                    .map(|t| {
                        s.spawn(move || {
                            for k in 0..500 {
                                add(cluster, (t + k) % 3, format!("{t}-{k}"));
                            }
                        })
                    })
                    .collect();
                for c in committers {
                    c.join().expect("committer");
                }
                done.store(true, Ordering::Relaxed);
            });
            cluster.barrier();
            assert!(
                cluster.is_converged(),
                "round {round}: a delivery is missing"
            );
            for node in 0..3 {
                assert!(cluster.with_replica(node, |r| r.applied_consistent()));
            }
            let stats = cluster.stats();
            let handed = count(&stats.delivered_by_sender) + count(&stats.posted);
            assert_eq!(
                handed,
                4 * 500 * 2,
                "every batch reaches both peers one way"
            );
        }
    }

    /// Pins the park race: a message posted after the delivery thread's
    /// last look at its empty inbox and before it sets `parked` gets no
    /// `unpark` (the poster reads `parked == false`), so only the re-check
    /// between setting the flag and parking can serve it.
    #[test]
    fn a_post_between_the_last_look_and_the_park_is_served() {
        let cluster = no_ticker(1);
        wait_parked(&cluster, 0);
        let (in_window_tx, in_window_rx) = mpsc::channel();
        let (posted_tx, posted_rx) = mpsc::channel();
        *cluster.shards[0].inbox.before_park.lock() = Some(Box::new(move || {
            in_window_tx.send(()).expect("test waits");
            posted_rx.recv().expect("test posts");
        }));
        cluster.barrier(); // wakes the thread; it serves, lingers, and stops in the window
        in_window_rx
            .recv_timeout(REPLY_TIMEOUT)
            .expect("thread reaches the window");
        let (tx, rx) = mpsc::channel();
        cluster.shards[0]
            .inbox
            .post(Msg::Barrier(tx), &cluster.stats);
        assert_eq!(count(&cluster.stats().unparks), 1);
        posted_tx.send(()).expect("thread waits");
        rx.recv_timeout(REPLY_TIMEOUT)
            .expect("a message posted just before the park is lost");
    }

    #[test]
    fn sender_side_delivery_to_a_node_that_went_down_is_refused_and_counted() {
        let cluster = no_ticker(2);
        wait_parked(&cluster, 1);
        // Down, but its thread still reads as parked: exactly what a
        // sender sees when the crash lands between its `parked` read and
        // its `try_lock`. The down-check under the lock refuses.
        cluster.crash_node(1);
        add(&cluster, 0, "x".into());
        let stats = cluster.stats();
        assert_eq!(count(&stats.delivered_by_sender), 1);
        assert_eq!(count(&stats.posted), 0);
        assert_eq!(count(&stats.refused_down), 1);
        assert_eq!(cluster.with_replica(1, |r| r.stats.batches_received), 0);
        cluster.quiesce();
        assert_eq!(seen_from(&cluster, 1, 0), 1);
    }

    /// The `catchup_wide` shape: crash, wide commits at the live nodes,
    /// restart, pull to the fixpoint. Wide batches always go to the
    /// peer's delivery thread.
    #[test]
    fn a_wide_batch_is_never_delivered_by_its_sender() {
        let cluster = no_ticker(3);
        cluster.crash_node(2);
        for commit in 0..8u16 {
            wait_parked(&cluster, 1 - commit % 2);
            cluster
                .commit_at(commit % 2, |tx| {
                    tx.ensure("set", ObjectKind::AWSet)?;
                    for e in 0..2 * PARALLEL_APPLY_MIN_UPDATES {
                        tx.aw_add("set", Val::str(format!("{commit}-{e}")))?;
                    }
                    Ok(())
                })
                .expect("commit");
        }
        cluster.barrier();
        let stats = cluster.stats();
        assert_eq!(count(&stats.delivered_by_sender), 0);
        assert_eq!(count(&stats.posted), 16);
        assert_eq!(count(&stats.refused_down), 8);
        cluster.quiesce();
        assert!(cluster.is_converged());
    }

    /// Shards with no delivery threads, so `parked` and the inboxes are
    /// whatever the test says: node 0 has committed `ahead` batches that
    /// nobody shipped.
    fn bare_shards(ahead: usize) -> (Vec<Arc<Shard>>, Links, ThreadedStats) {
        let bare = |i| Shard {
            node: Mutex::new(Node::new(ReplicaId(i))),
            inbox: Inbox::default(),
        };
        let shards: Vec<_> = (0..2).map(|i| Arc::new(bare(i))).collect();
        let mut node = shards[0].node.lock();
        for k in 0..ahead {
            let mut tx = node.replica_mut().begin();
            tx.ensure("c", ObjectKind::PNCounter).expect("ensure");
            tx.counter_add("c", k as i64).expect("add");
            tx.commit();
        }
        drop(node);
        (shards, Links::new(2), ThreadedStats::default())
    }

    #[test]
    fn ticker_pulls_for_a_settled_node() {
        let (shards, links, stats) = bare_shards(1);
        shards[1].inbox.parked.store(true, Ordering::SeqCst);
        assert_eq!(pull_round(&shards, &links, &stats, true), 1);
    }

    #[test]
    fn ticker_skips_a_busy_node_and_an_explicit_round_does_not() {
        let (shards, links, stats) = bare_shards(1);
        // Awake; then asleep on paper but with a message queued.
        assert_eq!(pull_round(&shards, &links, &stats, true), 0);
        shards[1].inbox.parked.store(true, Ordering::SeqCst);
        shards[1].inbox.queue.lock().push(Msg::Stop);
        assert_eq!(pull_round(&shards, &links, &stats, true), 0);
        assert_eq!(shards[0].node.lock().replica().stats.anti_entropy_sent, 0);
        assert_eq!(pull_round(&shards, &links, &stats, false), 1);
    }

    #[test]
    fn ticker_pulls_for_a_busy_node_that_holds_an_undeliverable_batch() {
        let (shards, links, stats) = bare_shards(2);
        let second = shards[0].node.lock().replica_mut().take_outbox().remove(1);
        assert_eq!(
            deliver(&shards[1], &stats, second),
            0,
            "buffered behind a gap"
        );
        assert_eq!(pull_round(&shards, &links, &stats, true), 2);
        assert_eq!(shards[1].node.lock().replica().pending_count(), 0);
    }

    /// Live: node 1 misses a batch behind a cut link while a third node
    /// keeps committing (so node 1 is either busy or buffering batches
    /// that causally follow the missing one). No explicit round.
    #[test]
    fn cut_link_under_continuous_commits_heals_without_an_explicit_round() {
        let cluster = ThreadedCluster::start(ThreadedConfig {
            ae_interval: Some(Duration::from_millis(1)),
            ..Default::default()
        });
        let healed = AtomicBool::new(false);
        std::thread::scope(|s| {
            let (cluster, healed) = (&cluster, &healed);
            s.spawn(move || {
                for k in 0.. {
                    if healed.load(Ordering::Relaxed) {
                        break;
                    }
                    add(cluster, 2, format!("bg-{k}"));
                }
            });
            cluster.set_link_up(0, 1, false);
            add(cluster, 0, "lost".into());
            std::thread::sleep(Duration::from_millis(20));
            cluster.set_link_up(0, 1, true);
            wait_until("ticker repairs the dropped batch", || {
                seen_from(cluster, 1, 0) == 1
            });
            healed.store(true, Ordering::Relaxed);
        });
    }
}
