//! The Fig. 6 Twitter workload: per-operation latency under the three
//! strategies.

use crate::oracle::Oracle;
use crate::soak::{SoakApp, SoakMode};
use crate::twitter::runtime::{Strategy, Twitter};
use ipa_sim::{AppWorkload, ClientInfo, OpCtx, OpOutcome};
use rand::Rng;
use std::fmt;
use std::str::FromStr;

/// One decided twitter operation, with fully resolved user and tweet
/// ids (the recent-tweet pool and the id counter are decide-time state;
/// replay never touches them).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TwitterOp {
    Timeline { u: String },
    Tweet { u: String, id: String },
    Retweet { u: String, id: String },
    DelTweet { id: String },
    Follow { u: String, v: String },
    Unfollow { u: String, v: String },
    AddUser { name: String },
    RemUser { v: String },
}

impl TwitterOp {
    /// The metrics label (identical to the pre-split `op()` labels).
    pub fn label(&self) -> &'static str {
        match self {
            TwitterOp::Timeline { .. } => "Timeline",
            TwitterOp::Tweet { .. } => "Tweet",
            TwitterOp::Retweet { .. } => "Retweet",
            TwitterOp::DelTweet { .. } => "Del. Tweet",
            TwitterOp::Follow { .. } => "Follow",
            TwitterOp::Unfollow { .. } => "Unfollow",
            TwitterOp::AddUser { .. } => "Add user",
            TwitterOp::RemUser { .. } => "Rem user",
        }
    }
}

impl fmt::Display for TwitterOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TwitterOp::Timeline { u } => write!(f, "timeline {u}"),
            TwitterOp::Tweet { u, id } => write!(f, "tweet {u} {id}"),
            TwitterOp::Retweet { u, id } => write!(f, "retweet {u} {id}"),
            TwitterOp::DelTweet { id } => write!(f, "deltweet {id}"),
            TwitterOp::Follow { u, v } => write!(f, "follow {u} {v}"),
            TwitterOp::Unfollow { u, v } => write!(f, "unfollow {u} {v}"),
            TwitterOp::AddUser { name } => write!(f, "adduser {name}"),
            TwitterOp::RemUser { v } => write!(f, "remuser {v}"),
        }
    }
}

impl FromStr for TwitterOp {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let tok: Vec<&str> = s.split_whitespace().collect();
        let own = |i: usize| tok[i].to_owned();
        match (tok.first().copied(), tok.len()) {
            (Some("timeline"), 2) => Ok(TwitterOp::Timeline { u: own(1) }),
            (Some("tweet"), 3) => Ok(TwitterOp::Tweet {
                u: own(1),
                id: own(2),
            }),
            (Some("retweet"), 3) => Ok(TwitterOp::Retweet {
                u: own(1),
                id: own(2),
            }),
            (Some("deltweet"), 2) => Ok(TwitterOp::DelTweet { id: own(1) }),
            (Some("follow"), 3) => Ok(TwitterOp::Follow {
                u: own(1),
                v: own(2),
            }),
            (Some("unfollow"), 3) => Ok(TwitterOp::Unfollow {
                u: own(1),
                v: own(2),
            }),
            (Some("adduser"), 2) => Ok(TwitterOp::AddUser { name: own(1) }),
            (Some("remuser"), 2) => Ok(TwitterOp::RemUser { v: own(1) }),
            _ => Err(format!("bad twitter op {s:?}")),
        }
    }
}

/// Workload parameters.
#[derive(Clone, Debug)]
pub struct TwitterConfig {
    pub num_users: usize,
    /// Follow edges seeded per user.
    pub follows_per_user: usize,
    /// Recent-tweet pool size for retweet/delete targets.
    pub recent_pool: usize,
}

impl Default for TwitterConfig {
    fn default() -> Self {
        TwitterConfig {
            num_users: 30,
            follows_per_user: 5,
            recent_pool: 64,
        }
    }
}

/// Simulator workload for one strategy.
pub struct TwitterWorkload {
    pub app: Twitter,
    cfg: TwitterConfig,
    users: Vec<String>,
    recent: Vec<String>,
    next_id: u64,
}

impl TwitterWorkload {
    pub fn new(strategy: Strategy, cfg: TwitterConfig) -> Self {
        let users = (0..cfg.num_users).map(|i| format!("u{i}")).collect();
        TwitterWorkload {
            app: Twitter::new(strategy),
            cfg,
            users,
            recent: Vec::new(),
            next_id: 0,
        }
    }

    pub fn with_defaults(strategy: Strategy) -> Self {
        Self::new(strategy, TwitterConfig::default())
    }

    fn fresh_tweet_id(&mut self) -> String {
        self.next_id += 1;
        let id = format!("tw{}", self.next_id);
        if self.recent.len() >= self.cfg.recent_pool {
            self.recent.remove(0);
        }
        self.recent.push(id.clone());
        id
    }
}

impl AppWorkload for TwitterWorkload {
    type Op = TwitterOp;

    fn setup<C: OpCtx>(&mut self, ctx: &mut C) {
        let app = self.app;
        let users = self.users.clone();
        let fpu = self.cfg.follows_per_user;
        ctx.commit(0, |tx| {
            app.ensure_schema(tx)?;
            for u in &users {
                app.add_user(tx, u)?;
            }
            for (i, u) in users.iter().enumerate() {
                for k in 1..=fpu {
                    let followee = &users[(i + k) % users.len()];
                    app.follow(tx, u, followee)?;
                }
            }
            Ok(())
        })
        .expect("seed twitter");
    }

    /// Draw the next op (actor, target user, op-kind, then per-branch
    /// target draws — the pre-split order, so probabilistic schedules
    /// are unchanged).
    fn decide<C: OpCtx>(&mut self, ctx: &mut C, _client: ClientInfo) -> TwitterOp {
        let u = self.users[ctx.rng().gen_range(0..self.users.len())].clone();
        let v = self.users[ctx.rng().gen_range(0..self.users.len())].clone();
        let x = ctx.rng().gen::<f64>();

        // Mix: timeline-read heavy, like the application it models.
        match x {
            x if x < 0.50 => TwitterOp::Timeline { u },
            x if x < 0.70 => TwitterOp::Tweet {
                u,
                id: self.fresh_tweet_id(),
            },
            x if x < 0.80 => {
                let t = self
                    .recent
                    .get(
                        ctx.rng()
                            .gen_range(0..self.recent.len().max(1))
                            .min(self.recent.len().saturating_sub(1)),
                    )
                    .cloned();
                match t {
                    Some(id) => TwitterOp::Retweet { u, id },
                    None => TwitterOp::Timeline { u },
                }
            }
            x if x < 0.85 => match self.recent.pop() {
                Some(id) => TwitterOp::DelTweet { id },
                None => TwitterOp::Timeline { u },
            },
            x if x < 0.91 => TwitterOp::Follow { u, v },
            x if x < 0.95 => TwitterOp::Unfollow { u, v },
            x if x < 0.975 => TwitterOp::AddUser {
                name: format!("newu{}", self.next_id),
            },
            _ => TwitterOp::RemUser { v },
        }
    }

    /// Execute a decided (or replayed) op against the store. Pure: all
    /// ids come resolved in the op.
    fn execute<C: OpCtx>(&mut self, ctx: &mut C, client: ClientInfo, op: &TwitterOp) -> OpOutcome {
        let region = client.region;
        let app = self.app;
        let label = op.label();

        let (cost, _info) = ctx
            .commit(region, |tx| match op {
                TwitterOp::Timeline { u } => app.timeline(tx, u).map(|(_, c)| c),
                TwitterOp::Tweet { u, id } => app.tweet(tx, u, id),
                TwitterOp::Retweet { u, id } => app.retweet(tx, u, id),
                TwitterOp::DelTweet { id } => app.del_tweet(tx, id),
                TwitterOp::Follow { u, v } => app.follow(tx, u, v),
                TwitterOp::Unfollow { u, v } => app.unfollow(tx, u, v),
                TwitterOp::AddUser { name } => app.add_user(tx, name),
                TwitterOp::RemUser { v } => app.rem_user(tx, v),
            })
            .expect("twitter op");
        // Removed users come back so the population stays constant.
        if let TwitterOp::RemUser { v } = op {
            ctx.commit(region, |tx| app.add_user(tx, v).map(|_| ()))
                .expect("re-add user");
        }

        OpOutcome {
            label,
            objects: cost.objects,
            updates: cost.updates,
            extra_wan_ms: 0.0,
            ok: true,
            violations: 0,
        }
    }
}

/// IPA mode runs the add-wins repair strategy, which preserves the
/// invariants in-line (nothing to sweep); causal mode runs rem-wins,
/// whose read-side repair intentionally leaves the continuous
/// referential checks violated mid-run — the Twitter-shaped anomaly.
impl SoakApp for TwitterWorkload {
    fn fresh(mode: SoakMode) -> Self {
        Self::with_defaults(match mode {
            SoakMode::Ipa => Strategy::AddWins,
            SoakMode::Causal => Strategy::RemWins,
        })
    }

    fn oracle(&self) -> Oracle {
        Oracle::twitter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipa_sim::{paper_topology, SimConfig, Simulation};

    fn run(strategy: Strategy, seed: u64) -> Simulation {
        let cfg = SimConfig {
            clients_per_region: 2,
            warmup_s: 0.5,
            duration_s: 3.0,
            seed,
            ..Default::default()
        };
        let mut sim = Simulation::new(paper_topology(), cfg);
        let mut w = TwitterWorkload::with_defaults(strategy);
        sim.run(&mut w);
        sim.quiesce();
        sim
    }

    #[test]
    fn all_strategies_run_and_stay_local() {
        for s in [Strategy::Causal, Strategy::AddWins, Strategy::RemWins] {
            let sim = run(s, 23);
            assert!(
                sim.metrics.completed > 100,
                "{s}: {}",
                sim.metrics.completed
            );
            let mean = sim.metrics.overall().unwrap().mean_ms;
            assert!(mean < 30.0, "{s}: all ops are local, mean={mean}");
        }
    }

    #[test]
    fn add_wins_write_ops_cost_more_than_causal() {
        let causal = run(Strategy::Causal, 31);
        let aw = run(Strategy::AddWins, 31);
        let c_tweet = causal.metrics.summary("Tweet").unwrap().mean_ms;
        let a_tweet = aw.metrics.summary("Tweet").unwrap().mean_ms;
        assert!(
            a_tweet > c_tweet,
            "add-wins tweet pays the restore cost: {a_tweet} vs {c_tweet}"
        );
    }

    #[test]
    fn rem_wins_reads_cost_more_than_causal() {
        let causal = run(Strategy::Causal, 37);
        let rw = run(Strategy::RemWins, 37);
        let c_tl = causal.metrics.summary("Timeline").unwrap().mean_ms;
        let r_tl = rw.metrics.summary("Timeline").unwrap().mean_ms;
        assert!(
            r_tl > c_tl,
            "rem-wins timeline pays the compensation check: {r_tl} vs {c_tl}"
        );
    }
}
