//! A **threaded in-process transport**: one `std::thread` actor per
//! replica, `mpsc` channels for delivery, wall-clock time, and real
//! races — the second [`Transport`] implementation, complementing the
//! deterministic discrete-event simulator.
//!
//! Each node is a [`Node`] behind a mutex, serviced by **one delivery
//! thread** that drains the node's channel FIFO: for every batch it runs
//! the integrity gate (seal check + envelope well-formedness) *before*
//! taking the node lock, then feeds causal delivery under it
//! ([`Replica::receive_prevalidated`]), so hashing a payload never
//! blocks a reader or committer. Commits happen on the *caller's* thread
//! ([`ThreadedCluster::commit_at`] locks the shard, runs the
//! transaction, then ships the outbox over the channels), so concurrent
//! clients at different regions genuinely race their commits, deliveries
//! interleave with transactions, and an optional background anti-entropy
//! ticker repairs losses while the workload runs. Nothing here is
//! deterministic; correctness is checked at quiescence (convergence,
//! invariants, idempotence, bounded liveness) — see the [`Transport`]
//! contract and `ARCHITECTURE.md`.
//!
//! Fault signals are live: [`ThreadedCluster::crash_node`] wipes the
//! shard's volatile state and makes it refuse traffic,
//! [`ThreadedCluster::set_link_up`] drops sends between a pair (repair
//! flows through anti-entropy, exactly like a lossy network).

use crate::batch::UpdateBatch;
use crate::errors::StoreError;
use crate::replica::{ApplyDispatch, Replica};
use crate::transport::{Node, Transport};
use crate::txn::{CommitInfo, Transaction};
use ipa_crdt::{ReplicaId, VClock};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

/// Messages a node's delivery thread services.
enum Msg {
    /// A replicated batch to feed into causal delivery.
    Deliver(Arc<UpdateBatch>),
    /// Anti-entropy pull: reply with every logged batch `since` misses.
    Pull {
        since: VClock,
        reply: mpsc::Sender<Vec<Arc<UpdateBatch>>>,
    },
    /// FIFO barrier: reply once every earlier message is processed.
    Barrier(mpsc::Sender<()>),
    Stop,
}

/// One replica shard: the actor state plus its crash flag. The flag is
/// atomic (not under the mutex) so fault injection and down-checks
/// never wait on an in-progress transaction.
struct Shard {
    node: Mutex<Node>,
    down: AtomicBool,
}

/// Pairwise link state, symmetric, lock-free.
struct LinkMatrix {
    n: usize,
    up: Vec<AtomicBool>,
}

impl LinkMatrix {
    fn new(n: usize) -> LinkMatrix {
        LinkMatrix {
            n,
            up: (0..n * n).map(|_| AtomicBool::new(true)).collect(),
        }
    }

    fn is_up(&self, a: u16, b: u16) -> bool {
        self.up[a as usize * self.n + b as usize].load(Ordering::Relaxed)
    }

    fn set(&self, a: u16, b: u16, up: bool) {
        self.up[a as usize * self.n + b as usize].store(up, Ordering::Relaxed);
        self.up[b as usize * self.n + a as usize].store(up, Ordering::Relaxed);
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
}

/// Configuration for [`ThreadedCluster::start`].
#[derive(Clone, Copy, Debug)]
pub struct ThreadedConfig {
    /// Number of replica actors.
    pub nodes: u16,
    /// Background anti-entropy period (`None` = repair only happens at
    /// explicit [`Transport::anti_entropy`] / quiesce calls).
    pub ae_interval: Option<Duration>,
    /// Key-space shards per replica. Wide batches (anti-entropy
    /// catch-up bursts) dispatch their disjoint shards to the replica's
    /// persistent shard-worker pool; shard count never changes
    /// observable state.
    pub shards: usize,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig {
            nodes: 3,
            ae_interval: Some(Duration::from_millis(5)),
            shards: crate::replica::DEFAULT_SHARDS,
        }
    }
}

/// The threaded transport: `n` replica actors, each a mutex-guarded
/// [`Node`] with a dedicated delivery thread, plus an optional
/// anti-entropy ticker. All run-time methods take `&self` so client
/// threads can share the cluster through a plain borrow
/// (`std::thread::scope`) or an `Arc`.
pub struct ThreadedCluster {
    shards: Vec<Arc<Shard>>,
    senders: Vec<mpsc::Sender<Msg>>,
    links: Arc<LinkMatrix>,
    stats: Arc<ThreadedStats>,
    threads: Vec<JoinHandle<()>>,
    ticker_stop: Arc<AtomicBool>,
    ticker: Option<JoinHandle<()>>,
}

/// How long coordinator-side pulls and barriers wait for a node thread
/// before giving up (a node thread only stalls if wedged; the timeout
/// turns a deadlock into a visible test failure).
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

impl ThreadedCluster {
    /// Spawn the actors (and the anti-entropy ticker, if configured).
    pub fn start(cfg: ThreadedConfig) -> ThreadedCluster {
        let n = cfg.nodes;
        let links = Arc::new(LinkMatrix::new(n as usize));
        let stats = Arc::new(ThreadedStats::default());
        let mut shards = Vec::with_capacity(n as usize);
        let mut senders = Vec::with_capacity(n as usize);
        let mut threads = Vec::with_capacity(n as usize);
        for i in 0..n {
            let (tx, rx) = mpsc::channel();
            // The threaded transport is the one place parallel apply is
            // on: real threads, no schedule digests, large anti-entropy
            // bursts worth splitting across shards.
            let mut node = Node::with_shards(ReplicaId(i), cfg.shards);
            node.replica_mut().set_apply_dispatch(ApplyDispatch::Pool);
            let shard = Arc::new(Shard {
                node: Mutex::new(node),
                down: AtomicBool::new(false),
            });
            let (served, stats) = (Arc::clone(&shard), Arc::clone(&stats));
            threads.push(std::thread::spawn(move || {
                delivery_loop(&served, &stats, rx)
            }));
            shards.push(shard);
            senders.push(tx);
        }
        let ticker_stop = Arc::new(AtomicBool::new(false));
        let ticker = cfg.ae_interval.map(|period| {
            let shards = shards.clone();
            let senders = senders.clone();
            let links = Arc::clone(&links);
            let stop = Arc::clone(&ticker_stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(period);
                    // Pulled batches go through `dst`'s delivery thread;
                    // they race with live commits, so a node may receive
                    // a batch twice — causal delivery deduplicates, and
                    // the double-apply oracle checks that it did.
                    pull_round(&shards, &senders, &links, |dst, batch| {
                        let _ = senders[dst as usize].send(Msg::Deliver(batch));
                        0
                    });
                }
            })
        });
        ThreadedCluster {
            shards,
            senders,
            links,
            stats,
            threads,
            ticker_stop,
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
        self.shards[node as usize].down.load(Ordering::Relaxed)
    }

    /// Is the pair's link currently usable?
    pub fn link_is_up(&self, a: u16, b: u16) -> bool {
        self.links.is_up(a, b)
    }

    /// Cut or heal a pair's link (both directions). While cut, sends
    /// between the pair are dropped and counted; anti-entropy repairs
    /// after the heal (or through a third replica meanwhile).
    pub fn set_link_up(&self, a: u16, b: u16, up: bool) {
        self.links.set(a, b, up);
    }

    /// Crash a node on the caller's thread: refuse traffic, then wipe
    /// volatile state under the shard lock (an in-progress transaction
    /// finishes first — a crash never tears a commit).
    pub fn crash_node(&self, node: u16) {
        let shard = &self.shards[node as usize];
        shard.down.store(true, Ordering::Relaxed);
        let lost = shard.node.lock().crash();
        self.stats
            .lost_in_crash
            .fetch_add(lost as u64, Ordering::Relaxed);
    }

    /// Restart a crashed node; catch-up flows through anti-entropy.
    pub fn restart_node(&self, node: u16) {
        self.shards[node as usize].node.lock().restart();
        self.shards[node as usize]
            .down
            .store(false, Ordering::Relaxed);
    }

    /// Run `f` with the shard locked (reads, oracle audits, repairs).
    pub fn with_replica<R>(&self, node: u16, f: impl FnOnce(&mut Replica) -> R) -> R {
        f(self.shards[node as usize].node.lock().replica_mut())
    }

    /// Run a transaction at `region` on the **caller's** thread and
    /// ship the committed batches to every peer over the delivery
    /// channels. Returns [`StoreError::Unavailable`] while the shard is
    /// down. This is the client entry point: concurrent callers at
    /// different regions race their commits and deliveries for real.
    pub fn commit_at<T>(
        &self,
        region: u16,
        f: impl FnOnce(&mut Transaction<'_>) -> Result<T, StoreError>,
    ) -> Result<(T, CommitInfo), StoreError> {
        let shard = &self.shards[region as usize];
        let (value, info, batches) = {
            let mut node = shard.node.lock();
            if shard.down.load(Ordering::Relaxed) {
                self.stats.commits_refused.fetch_add(1, Ordering::Relaxed);
                return Err(StoreError::Unavailable(ReplicaId(region)));
            }
            let mut tx = node.replica_mut().begin();
            let value = f(&mut tx)?;
            let info = tx.commit();
            let batches = node.replica_mut().take_outbox();
            (value, info, batches)
        };
        // Ship outside the lock: delivery threads may already be
        // applying these batches while the committer moves on.
        for batch in batches {
            self.send_batch(region, batch);
        }
        Ok((value, info))
    }

    /// Fan a batch out toward every peer, dropping cut links.
    fn send_batch(&self, origin: u16, batch: Arc<UpdateBatch>) {
        for dest in 0..self.shards.len() as u16 {
            if dest == origin {
                continue;
            }
            if !self.links.is_up(origin, dest) {
                self.stats
                    .dropped_partitioned
                    .fetch_add(1, Ordering::Relaxed);
                continue;
            }
            // A send can only fail if the node thread stopped (Drop).
            let _ = self.senders[dest as usize].send(Msg::Deliver(Arc::clone(&batch)));
        }
    }

    /// FIFO barrier: returns once every node thread has processed all
    /// messages sent before this call.
    pub fn barrier(&self) {
        let mut waits = Vec::with_capacity(self.senders.len());
        for s in &self.senders {
            let (tx, rx) = mpsc::channel();
            if s.send(Msg::Barrier(tx)).is_ok() {
                waits.push(rx);
            }
        }
        for rx in waits {
            rx.recv_timeout(REPLY_TIMEOUT)
                .expect("node thread wedged at barrier");
        }
    }

    /// One coordinator-driven anti-entropy round: every live node pulls
    /// what it is missing from every live, reachable peer (pulls go
    /// through the peer's delivery thread; applications happen on the
    /// caller's thread, gated and down-checked exactly like a delivery).
    /// Returns batches applied cluster-wide.
    pub fn anti_entropy_round(&self) -> usize {
        pull_round(&self.shards, &self.senders, &self.links, |dst, batch| {
            deliver(&self.shards[dst as usize], &self.stats, batch)
        })
    }

    /// Quiesce: restart every node, heal every link, drain the
    /// channels, and pull anti-entropy to its fixpoint. Returns the
    /// number of productive rounds — the bounded-liveness oracle's
    /// input (a healthy cluster converges within its configured bound).
    pub fn quiesce(&self) -> u64 {
        let n = self.shards.len() as u16;
        for i in 0..n {
            self.restart_node(i);
            for j in 0..n {
                self.links.set(i, j, true);
            }
        }
        let mut rounds = 0;
        loop {
            self.barrier();
            let applied = self.anti_entropy_round();
            if applied > 0 {
                rounds += 1;
                continue;
            }
            // Nothing moved and the inboxes are drained: done. (A
            // second barrier guards against deliveries that raced the
            // unproductive round.)
            self.barrier();
            if self.anti_entropy_round() == 0 {
                break;
            }
            rounds += 1;
        }
        rounds
    }

    /// Equal clocks and empty causal buffers everywhere? Meaningful
    /// after [`ThreadedCluster::quiesce`].
    pub fn is_converged(&self) -> bool {
        let first = self.shards[0].node.lock().replica().clock().clone();
        self.shards.iter().all(|s| {
            let node = s.node.lock();
            *node.replica().clock() == first && node.replica().pending_count() == 0
        })
    }
}

impl Drop for ThreadedCluster {
    fn drop(&mut self) {
        self.ticker_stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.ticker.take() {
            let _ = t.join();
        }
        for s in &self.senders {
            let _ = s.send(Msg::Stop);
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Transport for ThreadedCluster {
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

    fn set_link(&mut self, a: ReplicaId, b: ReplicaId, up: bool) {
        self.set_link_up(a.0, b.0, up);
    }

    fn crash(&mut self, node: ReplicaId) {
        self.crash_node(node.0);
    }

    fn restart(&mut self, node: ReplicaId) {
        self.restart_node(node.0);
    }

    fn anti_entropy(&mut self) -> usize {
        self.anti_entropy_round()
    }

    fn quiesce_transport(&mut self) -> u64 {
        self.quiesce()
    }

    fn converged(&mut self) -> bool {
        self.is_converged()
    }
}

/// Deliver one batch to a node: run the integrity gate *before* taking
/// the node lock, then feed causal delivery under it. The down-check
/// happens under the lock, at apply time — a batch still queued when its
/// node crashes is refused exactly like one still in a dead process's
/// socket buffer, and anti-entropy replays it from a peer's durable log
/// after restart. Returns the number of batches applied.
fn deliver(shard: &Shard, stats: &ThreadedStats, batch: Arc<UpdateBatch>) -> usize {
    let valid = batch.integrity_ok() && batch.well_formed();
    stats.pipeline_prevalidated.fetch_add(1, Ordering::Relaxed);
    let mut node = shard.node.lock();
    if shard.down.load(Ordering::Relaxed) {
        stats.refused_down.fetch_add(1, Ordering::Relaxed);
        return 0;
    }
    node.replica_mut().receive_prevalidated(batch, valid)
}

/// The delivery thread's body: service the node's channel strictly FIFO,
/// so barriers and pulls observe every delivery sent before them. A down
/// shard serves empty pulls, like a dead process.
fn delivery_loop(shard: &Shard, stats: &ThreadedStats, rx: mpsc::Receiver<Msg>) {
    for msg in rx {
        match msg {
            Msg::Deliver(batch) => {
                deliver(shard, stats, batch);
            }
            Msg::Pull { since, reply } => {
                let batches = if shard.down.load(Ordering::Relaxed) {
                    Vec::new()
                } else {
                    shard.node.lock().replica_mut().batches_since(&since)
                };
                let _ = reply.send(batches);
            }
            Msg::Barrier(reply) => {
                let _ = reply.send(());
            }
            Msg::Stop => break,
        }
    }
}

/// One anti-entropy round: every live node pulls what it is missing from
/// every live, reachable peer through the peer's delivery thread, and
/// `hand_off(dst, batch)` moves each pulled batch into `dst`, returning
/// how many batches that applied. Returns the sum.
fn pull_round(
    shards: &[Arc<Shard>],
    senders: &[mpsc::Sender<Msg>],
    links: &LinkMatrix,
    mut hand_off: impl FnMut(u16, Arc<UpdateBatch>) -> usize,
) -> usize {
    let is_down = |node: u16| shards[node as usize].down.load(Ordering::Relaxed);
    let mut applied = 0;
    let n = shards.len() as u16;
    for dst in 0..n {
        if is_down(dst) {
            continue;
        }
        for src in 0..n {
            if src == dst || is_down(src) || !links.is_up(src, dst) {
                continue;
            }
            let since = shards[dst as usize].node.lock().replica().clock().clone();
            let (tx, rx) = mpsc::channel();
            if senders[src as usize]
                .send(Msg::Pull { since, reply: tx })
                .is_err()
            {
                continue;
            }
            let Ok(missing) = rx.recv_timeout(REPLY_TIMEOUT) else {
                continue;
            };
            for batch in missing {
                applied += hand_off(dst, batch);
            }
        }
    }
    applied
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_crdt::{ObjectKind, Val};

    fn no_ticker(n: u16) -> ThreadedCluster {
        ThreadedCluster::start(ThreadedConfig {
            nodes: n,
            ae_interval: None,
            ..Default::default()
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
                rep.object(&"set".into()).unwrap().as_awset().unwrap().len()
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
            r.object(&"c".into())
                .unwrap()
                .as_pncounter()
                .unwrap()
                .value()
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
        assert!(cluster.stats().dropped_partitioned.load(Ordering::Relaxed) >= 1);
        cluster.set_link_up(0, 1, true);
        cluster.quiesce();
        assert!(cluster.is_converged());
        let v = cluster.with_replica(1, |r| {
            r.object(&"c".into())
                .unwrap()
                .as_pncounter()
                .unwrap()
                .value()
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
        assert!(
            cluster
                .stats()
                .pipeline_prevalidated
                .load(Ordering::Relaxed)
                >= 10
        );
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
        let sync_v = sync
            .object(&"c".into())
            .unwrap()
            .as_pncounter()
            .unwrap()
            .value();
        let (v, clock) = cluster.with_replica(1, |r| {
            (
                r.object(&"c".into())
                    .unwrap()
                    .as_pncounter()
                    .unwrap()
                    .value(),
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
        assert_eq!(cluster.stats().refused_down.load(Ordering::Relaxed), 1);
        assert_eq!(cluster.with_replica(1, |r| r.stats.batches_received), 0);
    }

    #[test]
    fn background_ticker_repairs_without_explicit_rounds() {
        let cluster = ThreadedCluster::start(ThreadedConfig {
            nodes: 2,
            ae_interval: Some(Duration::from_millis(1)),
            ..Default::default()
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
}
