//! The bounded-liveness ledger: "after the last injected fault, every
//! replica converges within N anti-entropy rounds — not just at
//! quiesce".
//!
//! The event loop in [`crate::driver`] tells the ledger what happened —
//! a batch was lost ([`Ledger::gap`]), a replica [`Ledger::crashed`] or
//! [`Ledger::restarted`], a link [`Ledger::healed`], an anti-entropy
//! round ended ([`Ledger::probe`]), the run [`Ledger::quiesced`] — and
//! reads the verdict off [`LivenessStats`]. The ledger only ever looks at
//! clocks, crash flags and links: it draws no RNG and schedules nothing,
//! so arming it cannot perturb a schedule.

use crate::driver::Simulation;
use crate::latency::Region;
use ipa_crdt::{ReplicaId, VClock};
use ipa_store::{Links, Node};
use std::collections::VecDeque;

/// A fault-induced causal gap under repair: replica `dest` is missing
/// `origin`'s batch `seq` (it was dropped, corrupted, or owed after a
/// crash).
#[derive(Clone, Copy, Debug)]
struct Gap {
    dest: Region,
    origin: Region,
    seq: u64,
    /// Anti-entropy rounds elapsed while repair was possible. Reset by
    /// heals and restarts: each network transition grants a fresh window.
    rounds: u64,
}

impl Gap {
    /// Has `node` applied the missing batch?
    fn held_by(&self, node: &Node) -> bool {
        node.replica().clock().get(ReplicaId(self.origin)) >= self.seq
    }
}

/// Bounded-liveness accounting, tracked per fault-induced gap during the
/// run, plus the number of productive repair rounds the quiesce fixpoint
/// needed.
#[derive(Clone, Copy, Debug, Default)]
pub struct LivenessStats {
    /// Gaps ever tracked (drops, refused-while-down, restart catch-up).
    pub tracked_gaps: u64,
    /// Gaps repaired by anti-entropy (clock caught up).
    pub repaired_gaps: u64,
    /// Most repair-eligible rounds any gap stayed open.
    pub max_gap_rounds: u64,
    /// Gaps that outlived the bound mid-run (counted once per gap).
    pub run_breaches: u64,
    /// Productive anti-entropy rounds the quiesce fixpoint executed.
    pub quiesce_rounds: u64,
    /// The configured bound (None = accounting only, never a violation).
    pub bound: Option<u64>,
}

impl LivenessStats {
    /// Violations of the bounded-liveness oracle: mid-run gaps that
    /// outlived the bound, plus one if quiescence itself needed more
    /// than N repair rounds. Always zero when no bound is configured.
    pub fn violations(&self) -> u64 {
        let Some(bound) = self.bound else {
            return 0;
        };
        self.run_breaches + u64::from(self.quiesce_rounds > bound)
    }
}

/// The open gaps and the running totals.
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    gaps: Vec<Gap>,
    pub stats: LivenessStats,
}

impl Ledger {
    /// `dest` lost `origin`'s batch `seq`: anti-entropy owes the repair.
    pub fn gap(&mut self, dest: Region, origin: Region, seq: u64) {
        self.stats.tracked_gaps += 1;
        self.gaps.push(Gap {
            dest,
            origin,
            seq,
            rounds: 0,
        });
    }

    /// Gaps at a down replica cannot be repaired; its restart
    /// re-registers everything it must catch up on.
    pub fn crashed(&mut self, region: Region) {
        self.gaps.retain(|g| g.dest != region);
    }

    /// `region` is back (call after the node restarted). It owes
    /// everything its live peers applied while it was down: one gap per
    /// origin, up to the highest component any peer has durably logged.
    /// Every open gap gets a fresh window.
    pub fn restarted(&mut self, region: Region, nodes: &[Node]) {
        let own = nodes[region as usize].replica().clock();
        let mut target = VClock::new();
        for node in nodes.iter().filter(|n| !n.is_down()) {
            target.merge(node.replica().clock());
        }
        for (origin, seq) in target.iter() {
            if seq > own.get(origin) {
                self.gap(region, origin.0, seq);
            }
        }
        self.healed();
    }

    /// A network transition (a heal, a restart) changes which pulls are
    /// possible: every open gap gets a fresh repair window.
    pub fn healed(&mut self) {
        for g in &mut self.gaps {
            g.rounds = 0;
        }
    }

    /// One probe after an anti-entropy round: close repaired gaps,
    /// advance the round count of gaps that had a repair opportunity,
    /// and convert bound-exceeding gaps into breaches.
    pub fn probe(&mut self, nodes: &[Node], links: &Links) {
        let stats = &mut self.stats;
        self.gaps.retain_mut(|g| {
            if g.held_by(&nodes[g.dest as usize]) {
                stats.repaired_gaps += 1;
                stats.max_gap_rounds = stats.max_gap_rounds.max(g.rounds);
                return false;
            }
            if !repair_opportunity(g, nodes, links) {
                return true;
            }
            g.rounds += 1;
            stats.max_gap_rounds = stats.max_gap_rounds.max(g.rounds);
            let breached = stats.bound.is_some_and(|bound| g.rounds > bound);
            stats.run_breaches += u64::from(breached);
            !breached
        });
    }

    /// The quiesce fixpoint needed `rounds` productive rounds.
    pub fn quiesced(&mut self, rounds: u64) {
        self.stats.quiesce_rounds = rounds;
    }
}

/// Does `g.dest` have any usable repair path this round? True when some
/// live replica whose applied clock covers the missing batch can reach
/// `dest` transitively through up links and live relays — pairwise
/// anti-entropy moves the batch one hop per round along exactly such a
/// path, so a two-hop repair is what the oracle must time. Pausing on
/// the direct origin—dest link alone let relay-reachable gaps idle
/// forever without tripping the bound. False when the destination is
/// down, no live replica holds the batch, or every path is severed: then
/// repair is genuinely impossible, not merely slow, and the countdown
/// pauses.
fn repair_opportunity(g: &Gap, nodes: &[Node], links: &Links) -> bool {
    let dest = g.dest as usize;
    if nodes[dest].is_down() {
        return false;
    }
    // Multi-source BFS from every live holder of the batch.
    let mut reached = vec![false; nodes.len()];
    let mut frontier: VecDeque<usize> = VecDeque::new();
    for (i, node) in nodes.iter().enumerate() {
        if i != dest && !node.is_down() && g.held_by(node) {
            reached[i] = true;
            frontier.push_back(i);
        }
    }
    while let Some(i) = frontier.pop_front() {
        for (j, node) in nodes.iter().enumerate() {
            if reached[j] || node.is_down() || !links.is_up(i as Region, j as Region) {
                continue;
            }
            if j == dest {
                return true;
            }
            reached[j] = true;
            frontier.push_back(j);
        }
    }
    false
}

impl Simulation {
    /// Arm the bounded-liveness oracle: every fault-induced causal gap
    /// must be repaired within `rounds` anti-entropy rounds of repair
    /// opportunity, and the quiesce fixpoint must converge within
    /// `rounds` productive rounds. Violations are reported by
    /// [`Simulation::liveness_violations`].
    pub fn set_liveness_bound(&mut self, rounds: u64) {
        self.liveness.stats.bound = Some(rounds);
    }

    pub fn liveness(&self) -> &LivenessStats {
        &self.liveness.stats
    }

    /// Bounded-liveness violations so far (0 when no bound is armed).
    pub fn liveness_violations(&self) -> u64 {
        self.liveness.stats.violations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_crdt::{ObjectKind, Val};

    /// Three nodes; `commits[i]` batches committed at node `i` and
    /// shipped nowhere (the outboxes are returned).
    fn nodes(commits: [u64; 3]) -> (Vec<Node>, Vec<Vec<std::sync::Arc<ipa_store::UpdateBatch>>>) {
        let mut nodes: Vec<Node> = (0..3).map(|i| Node::new(ReplicaId(i))).collect();
        let outboxes = nodes.iter_mut().zip(commits).map(|(node, n)| {
            for k in 0..n {
                let elem = Val::str(format!("{}-{k}", node.id().0));
                let mut tx = node.replica_mut().begin();
                tx.ensure("set", ObjectKind::AWSet).unwrap();
                tx.aw_add("set", elem).unwrap();
                tx.commit();
            }
            node.replica_mut().take_outbox()
        });
        let outboxes = outboxes.collect();
        (nodes, outboxes)
    }

    /// The countdown runs while *some* live holder reaches the
    /// destination through up links and live relays — the direct link
    /// being cut does not pause it — and pauses when no path is left.
    #[test]
    fn the_countdown_pauses_only_when_no_holder_reaches_the_destination() {
        let (mut nodes, _) = nodes([1, 0, 0]);
        let links = Links::new(3);
        let mut ledger = Ledger::default();
        ledger.gap(2, 0, 1);
        let rounds = |ledger: &Ledger| ledger.gaps[0].rounds;

        ledger.probe(&nodes, &links);
        assert_eq!(rounds(&ledger), 1, "direct link up");
        links.set(0, 2, false);
        ledger.probe(&nodes, &links);
        assert_eq!(rounds(&ledger), 2, "direct link cut, relay 0-1-2 up");
        links.set(1, 2, false);
        ledger.probe(&nodes, &links);
        assert_eq!(rounds(&ledger), 2, "destination cut off: paused");
        links.set(1, 2, true);
        nodes[1].crash();
        ledger.probe(&nodes, &links);
        assert_eq!(rounds(&ledger), 2, "the only relay is down: paused");
        nodes[1].restart();
        nodes[0].crash();
        ledger.probe(&nodes, &links);
        assert_eq!(rounds(&ledger), 2, "the only holder is down: paused");
        nodes[0].restart();
        ledger.probe(&nodes, &links);
        assert_eq!(rounds(&ledger), 3);
        assert_eq!(ledger.stats.max_gap_rounds, 3);
        assert_eq!(ledger.stats.repaired_gaps, 0);
    }

    /// A heal and a restart each grant every open gap a fresh window: a
    /// gap breaches only after `bound` rounds *since the last one*.
    #[test]
    fn a_heal_or_a_restart_resets_every_open_window() {
        let (nodes, _) = nodes([1, 1, 0]);
        let links = Links::new(3);
        let mut ledger = Ledger::default();
        ledger.stats.bound = Some(2);
        ledger.gap(2, 0, 1);
        ledger.gap(2, 1, 1);
        for transition in 0..3 {
            ledger.probe(&nodes, &links);
            ledger.probe(&nodes, &links);
            assert_eq!(ledger.stats.run_breaches, 0, "window {transition}");
            match transition {
                0 => ledger.healed(),
                // Node 1 restarts owing origin 0's batch: one more gap.
                1 => ledger.restarted(1, &nodes),
                _ => {}
            }
        }
        assert_eq!((ledger.gaps.len(), ledger.stats.tracked_gaps), (3, 3));
        ledger.probe(&nodes, &links);
        assert_eq!(ledger.stats.run_breaches, 3, "a third round in one window");
        assert!(ledger.gaps.is_empty(), "a breach is counted once");
        assert_eq!(ledger.stats.violations(), 3);
    }

    /// A crash drops the gaps at the crashed destination (nothing can
    /// repair them); its restart registers one gap per origin, up to the
    /// highest batch a live peer has applied; a repair closes them.
    #[test]
    fn a_crash_drops_gaps_and_the_restart_registers_one_per_origin() {
        let (mut nodes, outboxes) = nodes([2, 1, 0]);
        let links = Links::new(3);
        let mut ledger = Ledger::default();
        ledger.gap(2, 0, 1);
        ledger.gap(2, 0, 2);
        ledger.gap(2, 1, 1);
        ledger.gap(1, 0, 1);
        nodes[2].crash();
        ledger.crashed(2);
        assert_eq!(ledger.gaps.len(), 1, "only node 1's gap is left");

        nodes[2].restart();
        ledger.restarted(2, &nodes);
        let owed: Vec<_> = ledger.gaps[1..]
            .iter()
            .map(|g| (g.dest, g.origin, g.seq))
            .collect();
        assert_eq!(owed, [(2, 0, 2), (2, 1, 1)]);
        assert_eq!(ledger.stats.tracked_gaps, 6);

        for batch in outboxes.into_iter().flatten() {
            nodes[2].replica_mut().receive(batch);
        }
        ledger.probe(&nodes, &links);
        assert_eq!(ledger.stats.repaired_gaps, 2);
        assert_eq!(ledger.gaps.len(), 1, "node 1 still misses origin 0");
    }
}
